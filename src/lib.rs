//! # rrp — randomized rank promotion
//!
//! Umbrella crate for the `rrp` workspace, a reproduction and extension of
//! *"Shuffling a Stacked Deck: The Case for Partially Randomized Ranking of
//! Search Engine Results"* (Pandey, Roy, Olston, Cho, Chakrabarti, VLDB
//! 2005). It re-exports every member crate under a stable module name; the
//! workspace-level integration tests and examples build against it.
//!
//! See the crate-level documentation of [`core`] for the embeddable engine
//! and of [`experiments`] for the figure drivers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use rrp_analytic as analytic;
pub use rrp_attention as attention;
pub use rrp_core as core;
pub use rrp_experiments as experiments;
pub use rrp_livestudy as livestudy;
pub use rrp_model as model;
pub use rrp_ranking as ranking;
pub use rrp_serve as serve;
pub use rrp_sim as sim;
pub use rrp_wal as wal;

/// The paper's recommended engine, re-exported for one-line quickstarts.
pub use rrp_core::{Document, QueryContext, RankPromotionEngine};

/// The sharded batch serving layer, re-exported for one-line quickstarts.
pub use rrp_serve::ShardedPromotionService;

/// The durable (write-ahead-logged) serving wrapper, re-exported for
/// one-line quickstarts.
pub use rrp_serve::DurableService;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_resolve() {
        let engine = crate::RankPromotionEngine::recommended();
        assert_eq!(engine.config().start_rank, 2);
    }
}
