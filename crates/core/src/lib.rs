//! # rrp-core — randomized rank promotion for search engines
//!
//! This crate is the public face of the `rrp` workspace, a from-scratch
//! implementation of *"Shuffling a Stacked Deck: The Case for Partially
//! Randomized Ranking of Search Engine Results"* (Pandey, Roy, Olston, Cho,
//! Chakrabarti, 2005).
//!
//! The paper's observation: popularity-based ranking systematically starves
//! new, high-quality pages of attention (the *entrenchment effect*), and
//! inserting a small, randomized dose of unexplored pages into result lists
//! ("rank promotion") recovers most of the lost result quality. Its
//! recommendation: promote only zero-awareness pages, use 10% randomization
//! (`r = 0.1`), and start at rank 1 or 2.
//!
//! What this crate offers:
//!
//! * [`RankPromotionEngine`] — the embeddable re-ranker: hand it your query
//!   results (popularity score + "unexplored" flag per document) and a
//!   query/session context, get back the promoted ordering. Deterministic
//!   per session, different across sessions.
//! * [`ParameterAdvisor`] — evaluates the paper's analytic model for *your*
//!   community's characteristics (pages, users, visit rate, page lifetime)
//!   and predicts how much promotion would help and with which parameters.
//! * Re-exports of the full research stack for evaluation work: the domain
//!   model ([`model`]), ranking policies ([`ranking`]), user-attention model
//!   ([`attention`]), analytic steady-state model ([`analytic`]) and the
//!   community simulator ([`sim`]).
//!
//! ```
//! use rrp_core::{Document, QueryContext, RankPromotionEngine};
//!
//! // Results for one query, as scored by the host engine.
//! let results = vec![
//!     Document::established(101, 0.93),
//!     Document::established(102, 0.71),
//!     Document::established(103, 0.44),
//!     Document::unexplored(900), // brand-new page, no popularity yet
//!     Document::unexplored(901),
//! ];
//!
//! let engine = RankPromotionEngine::recommended(); // selective, r = 0.1, k = 2
//! let ctx = QueryContext::from_strings("swimming", "session-42");
//! let order = engine.rerank(&results, ctx);
//!
//! assert_eq!(order[0], 101);      // the top result is never perturbed
//! assert_eq!(order.len(), 5);     // every document appears exactly once
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod document;
pub mod engine;
pub mod prelude;
pub mod shardcache;

pub use advisor::{Advice, CandidateOutcome, ParameterAdvisor};
pub use document::{Document, QueryContext};
pub use engine::{RankPromotionEngine, RerankScratch};
pub use shardcache::{PublishedVersion, ShardedCorpusCache};

// Re-export the supporting crates under stable module names so downstream
// users need a single dependency.
pub use rrp_analytic as analytic;
pub use rrp_attention as attention;
pub use rrp_model as model;
pub use rrp_ranking as ranking;
pub use rrp_sim as sim;

// The most commonly used configuration types, re-exported at the top level.
pub use rrp_ranking::{CorpusCache, EngineVersion, PromotionConfig, PromotionRule, RankSource};
