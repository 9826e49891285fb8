//! # rrp-serve — sharded batch serving over randomized rank promotion
//!
//! The paper pitches rank promotion as something a production search engine
//! embeds; this crate is the serving tier of that picture. It keeps the
//! corpus as one document table indexed by global sequence number (its
//! shard count is a routing label: [`ShardedStore::shard_of_id`] and
//! [`ShardedStore::shard_len`] report the id-hash routing, and recovery
//! checks it), answers batches of queries on std scoped threads, and
//! keeps its ranking state **alive across batches** in
//! one corpus-wide [`rrp_core::CorpusCache`] over global slots — the
//! paper's one popularity list `L_d` and one promotion pool `L_p`,
//! whatever the store's shard count. Mutations
//! ([`ShardedPromotionService::insert`],
//! [`ShardedPromotionService::record_visit`],
//! [`ShardedPromotionService::update_popularity`]) patch one slot,
//! repaired by dirty-slot reinsertion when next queried, so an unchanged
//! corpus pays zero sorts and zero rebuilds per batch.
//!
//! Every read — a full rerank, the Uniform rule's per-page coin scan and
//! a selective top-k ([`ShardedPromotionService::rerank_top_k`],
//! [`ShardedPromotionService::rerank_batch_top_k_into`]) — ranks from the
//! published version's [`source`](rrp_core::PublishedVersion::source):
//! the complete popularity order, the maintained pool and its membership
//! mask. A top-k read fills `L_d` only up to `k` non-pool entries, so it
//! is `O(pool + k)` (`O(k)` draws under engine v2). A batch whose
//! estimated work (queries × ranked positions) is below
//! [`FAN_OUT_MIN_POSITIONS`] — such as a small engine-v2 top-k batch — is
//! answered on the calling thread alone; a larger one fans out, writing
//! into disjoint `&mut` result regions (no result lock) with the calling
//! thread as one of the workers. All of it preserves the
//! `(engine seed, query, session)` determinism of
//! [`rrp_core::RankPromotionEngine`] exactly: batch, sequential and top-k
//! answers are bit-identical (top-k ≡ the full rerank's prefix under
//! engine v1) at any shard or worker count.
//!
//! Since PR 8 the tier can also be **durable**: [`DurableService`] wraps
//! the service behind a write-ahead log (`rrp-wal`), appending every
//! mutation before applying it and snapshotting periodically, so
//! [`DurableService::open`] recovers bit-identical serving state after a
//! crash — snapshot plus tail replay, torn tails dropped cleanly, corrupt
//! records truncated with a reported loss count ([`RecoveryReport`]).
//! Since PR 10 the same log also fans out: a [`ReplicaService`]
//! bootstraps from the leader's snapshot and *tails the live log*
//! (snapshot + incremental replay between serves), giving one-writer /
//! many-reader deployments where every replica answer is bit-identical
//! to the leader at the applied sequence — and, via a capped
//! [`ReplicaService::apply_up_to`], time-travel reads at any historical
//! sequence. Leader recovery is that replica's catch-up over the same
//! log reader, followed by tail repair: truncating the log at its
//! verified prefix.
//! Bad external input (unknown sequences, zero shard counts, out-of-range
//! shard indexes, mismatched snapshots) degrades to a typed
//! [`ServeError`] instead of a panic.
//!
//! ```
//! use rrp_core::{Document, QueryContext, RankPromotionEngine};
//! use rrp_serve::ShardedPromotionService;
//!
//! // An 8-shard service over the paper-recommended engine.
//! let mut service =
//!     ShardedPromotionService::new(RankPromotionEngine::recommended(), 8);
//! service.extend((0..100).map(|i| {
//!     if i % 10 == 0 {
//!         Document::unexplored(i)
//!     } else {
//!         Document::established(i, 1.0 - i as f64 * 0.01)
//!     }
//! }));
//!
//! let queries: Vec<QueryContext> = (0..4)
//!     .map(|q| QueryContext::from_strings("swimming", &format!("session-{q}")))
//!     .collect();
//! let answers = service.rerank_batch(&queries);
//!
//! assert_eq!(answers.len(), 4);
//! // Batch answers equal the sequential engine, query by query.
//! assert_eq!(answers[0], service.rerank_one(queries[0]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod durable;
pub mod error;
pub mod replica;
pub mod service;
pub mod store;

pub use durable::{DurableService, RecoveryReport};
pub use error::ServeError;
pub use replica::{BootstrapSource, ReplicaService, ReplicaStats};
pub use service::{
    available_workers, ServeStats, ShardedPromotionService, StoreGuard, FAN_OUT_MIN_POSITIONS,
};
pub use store::ShardedStore;
