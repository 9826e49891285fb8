//! # rrp-ranking — ranking policies and the randomized rank-promotion merge
//!
//! Implements Section 4 of *"Shuffling a Stacked Deck"*. [`PolicyKind`]
//! covers the four rankings the paper compares: the baseline popularity
//! ranking used by conventional search engines, the hypothetical
//! quality-oracle upper bound, a fully random baseline, and the paper's
//! contribution — [`RandomizedRankPromotion`], which promotes a configurable
//! pool of pages to randomly chosen rank positions.
//!
//! ```
//! use rrp_ranking::{PageStats, PolicyKind, PromotionConfig};
//! use rrp_model::{new_rng, PageId};
//!
//! // Three established pages and one brand-new page nobody has seen yet.
//! let pages = vec![
//!     PageStats::new(0, PageId::new(0), 0.30, 0.9),
//!     PageStats::new(1, PageId::new(1), 0.20, 0.7),
//!     PageStats::new(2, PageId::new(2), 0.10, 0.5),
//!     PageStats::new(3, PageId::new(3), 0.00, 0.0), // zero awareness
//! ];
//!
//! // The paper's recommendation: selective promotion, r = 0.1, k = 2.
//! let policy = PolicyKind::promotion(PromotionConfig::recommended(2));
//! let mut rng = new_rng(42);
//! let result = policy.rank(&pages, &mut rng);
//!
//! // The top result is protected, and every page appears exactly once.
//! assert_eq!(result[0], 0);
//! assert_eq!(result.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffers;
pub mod cache;
pub mod candidates;
#[cfg(test)]
mod deterministic;
pub mod kind;
pub mod lazyshuffle;
pub mod merge;
pub mod policy;
pub mod poolindex;
pub mod popindex;
pub mod promotion;
pub mod randomized;
mod splice;
pub mod stats;

pub use buffers::RankBuffers;
pub use cache::{CorpusCache, CorpusCacheView};
pub use candidates::{merge_shard_candidates_into, MergedCandidates, ShardCandidates};
pub use kind::PolicyKind;
pub use lazyshuffle::{
    forward_shuffle, merge_promoted_top_k_lazy_into, EngineVersion, LazyShuffle,
};
pub use merge::{merge_promoted, merge_promoted_into, merge_promoted_top_k_into};
pub use policy::{is_permutation, is_permutation_with_scratch};
pub use poolindex::PoolIndex;
pub use popindex::PopularityIndex;
pub use promotion::{PromotionConfig, PromotionRule};
pub use randomized::{RandomizedRankPromotion, RankSource};
pub use splice::lower_bounds;
pub use stats::{popularity_order, PageStats};
