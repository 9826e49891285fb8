//! Convenience prelude: `use rrp_core::prelude::*;` pulls in the types
//! needed for the common embedding and evaluation workflows.

pub use crate::advisor::{Advice, ParameterAdvisor};
pub use crate::document::{Document, QueryContext};
pub use crate::engine::RankPromotionEngine;

pub use rrp_analytic::{AnalyticModel, QualityGroups, RankingModel, SolvedModel};
pub use rrp_attention::RankBias;
pub use rrp_model::{CommunityConfig, PowerLawQuality, Quality, QualityDistribution};
pub use rrp_ranking::{
    PageStats, PolicyKind, PromotionConfig, PromotionRule, RandomizedRankPromotion, RankBuffers,
};
pub use rrp_sim::{SimConfig, SimMetrics, Simulation};

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use super::*;
        // Touch a few types so the re-exports are exercised by the compiler.
        let _engine = RankPromotionEngine::recommended();
        let _config: PromotionConfig = PromotionConfig::recommended(2);
        let _community = CommunityConfig::paper_default();
        let _policy = PolicyKind::Popularity;
    }
}
