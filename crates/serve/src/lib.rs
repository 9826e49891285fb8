//! # rrp-serve — sharded batch serving over randomized rank promotion
//!
//! The paper pitches rank promotion as something a production search engine
//! embeds; this crate is the serving tier of that picture. It partitions a
//! document corpus across N shards, answers batches of queries on std
//! scoped threads, and keeps its serving state **alive across batches** in
//! a *single* tier: one per-shard ranking cache per store shard, holding
//! that shard's statistics, popularity order and promotion-pool
//! membership — there is no corpus-wide snapshot or cache anywhere in the
//! service. Mutations ([`ShardedPromotionService::insert`],
//! [`ShardedPromotionService::record_visit`],
//! [`ShardedPromotionService::update_popularity`]) patch one shard-local
//! slot, repaired by dirty-slot reinsertion when next queried, so an
//! unchanged corpus pays zero sorts and zero rebuilds per batch.
//!
//! Every query route reads that tier. Full reranks (and the Uniform
//! rule's per-page coin scan, which needs every slot) consume the
//! **complete merged order** — the shard popularity orders streamed
//! through the same deterministic k-way merge as top-k candidates,
//! re-merged lazily at most once per mutation epoch (pinned by
//! [`ServeStats::order_merges`]). Selective top-k
//! ([`ShardedPromotionService::rerank_top_k`],
//! [`ShardedPromotionService::rerank_batch_top_k_into`]) is
//! **shard-local retrieval**: per read call (a batch, or one sequential
//! query) each shard contributes only its popularity-order prefix, the
//! merge reassembles the exact global order prefix once, and every query
//! shuffles the maintained merged global pool into it — the complete
//! order is never consulted, pinned by [`ServeStats::order_merges`]` == 0`
//! and [`ServeStats::shard_retrievals`]` == shards` per call. Batch
//! fan-out writes into disjoint `&mut` result regions (no result lock),
//! with the calling thread as one of the workers. All of it
//! preserves the `(engine seed, query, session)` determinism of
//! [`rrp_core::RankPromotionEngine`] exactly: batch, sequential and top-k
//! answers are bit-identical (top-k ≡ the full rerank's prefix) at any
//! shard or worker count.
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
//! sequence.
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
pub use service::{available_workers, ServeStats, ShardedPromotionService, StoreGuard};
pub use store::ShardedStore;
