//! Parameter advice from the analytic model.
//!
//! The paper's recommendation (selective rule, `r = 0.1`, `k ∈ {1, 2}`) is
//! robust across the community types it studied, but Section 7 shows the
//! *benefit* of promotion varies a lot with community characteristics —
//! very visit-rich communities gain little, visit-starved ones gain a lot.
//! [`ParameterAdvisor`] evaluates the analytic model over a small grid of
//! `(k, r)` settings for a concrete community and reports the best setting
//! together with its predicted QPC, so an operator can decide whether
//! promotion is worth enabling and how aggressively.

use rrp_analytic::{AnalyticModel, QualityGroups, RankingModel};
use rrp_model::{CommunityConfig, PowerLawQuality};
use rrp_ranking::{PromotionConfig, PromotionRule};

/// One evaluated candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateOutcome {
    /// Starting rank `k`.
    pub start_rank: usize,
    /// Degree of randomization `r`.
    pub degree: f64,
    /// Predicted normalized QPC under this configuration.
    pub normalized_qpc: f64,
}

/// Advice produced by [`ParameterAdvisor::advise`].
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// Predicted normalized QPC of plain popularity ranking (the baseline).
    pub baseline_qpc: f64,
    /// Every candidate evaluated, in the order they were tried.
    pub candidates: Vec<CandidateOutcome>,
    /// The best candidate found.
    pub best: CandidateOutcome,
}

impl Advice {
    /// The promotion configuration corresponding to the best candidate.
    pub fn recommended_config(&self) -> PromotionConfig {
        PromotionConfig::new(
            PromotionRule::Selective,
            self.best.start_rank,
            self.best.degree,
        )
        .expect("grid candidates are valid")
    }

    /// Predicted relative QPC improvement of the best candidate over the
    /// baseline.
    pub fn predicted_improvement(&self) -> f64 {
        if self.baseline_qpc <= 0.0 {
            return 0.0;
        }
        self.best.normalized_qpc / self.baseline_qpc - 1.0
    }
}

/// Evaluates candidate promotion settings for a community using the
/// analytic model, with its default solver options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParameterAdvisor;

impl ParameterAdvisor {
    /// The degrees of randomization `r` evaluated.
    const DEGREES: [f64; 3] = [0.05, 0.1, 0.2];
    /// The starting ranks `k` evaluated.
    const START_RANKS: [usize; 2] = [1, 2];

    /// Evaluate the grid for `community` (page quality assumed to follow
    /// the paper's power-law distribution) and return the advice.
    pub fn advise(&self, community: CommunityConfig) -> Result<Advice, String> {
        community.validate().map_err(|e| e.to_string())?;
        let groups =
            QualityGroups::from_distribution(&PowerLawQuality::paper_default(), community.pages());

        let baseline_qpc =
            AnalyticModel::new(community, groups.clone(), RankingModel::NonRandomized)?
                .solve()
                .normalized_qpc();

        let mut candidates = Vec::new();
        for start_rank in Self::START_RANKS {
            for degree in Self::DEGREES {
                let model = RankingModel::Selective { start_rank, degree };
                let solved = AnalyticModel::new(community, groups.clone(), model)?.solve();
                candidates.push(CandidateOutcome {
                    start_rank,
                    degree,
                    normalized_qpc: solved.normalized_qpc(),
                });
            }
        }
        let best = candidates
            .iter()
            .copied()
            .max_by(|a, b| {
                a.normalized_qpc
                    .partial_cmp(&b.normalized_qpc)
                    .expect("QPC is finite")
            })
            .expect("grid is non-empty");
        Ok(Advice {
            baseline_qpc,
            candidates,
            best,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entrenched_community() -> CommunityConfig {
        // Paper-default proportions, shrunk for test speed: visit-starved,
        // so promotion should clearly help.
        CommunityConfig::builder()
            .pages(2_000)
            .users(200)
            .monitored_users(20)
            .total_visits_per_day(200.0)
            .expected_lifetime_days(547.5)
            .build()
            .unwrap()
    }

    #[test]
    fn advisor_finds_promotion_beneficial_for_entrenched_communities() {
        let advice = ParameterAdvisor.advise(entrenched_community()).unwrap();
        assert_eq!(advice.candidates.len(), 6);
        assert!(advice.best.normalized_qpc > advice.baseline_qpc);
        assert!(advice.predicted_improvement() > 0.05);
        let config = advice.recommended_config();
        assert!(config.degree > 0.0);
        assert!(config.start_rank >= 1);
    }

    #[test]
    fn invalid_community_is_rejected() {
        let bad = CommunityConfig::builder().monitored_users(10_000);
        // Builder itself rejects it; construct via paper_default then break it
        // is not possible without unsafe, so validate the advisor's error path
        // through the builder error instead.
        assert!(bad.build().is_err());
    }
}
