//! The paper's two evaluation metrics, computed from a solved analytic
//! model: **TBP** (time to become popular, Section 3.2) and **QPC**
//! (quality-per-click, Section 3.3), plus the popularity-evolution and
//! visit-rate curves of Figures 2 and 4(a).

use crate::awareness::{awareness_chain_trajectory, awareness_distribution, expected_hitting_time};
use crate::solver::SolvedModel;
use rrp_attention::RankBias;

/// The popularity threshold (as a fraction of quality) that defines "has
/// become popular": the paper measures TBP as the time to exceed 99% of the
/// page's quality level.
pub const TBP_THRESHOLD: f64 = 0.99;

impl SolvedModel {
    /// Absolute quality-per-click: the average quality of the pages behind
    /// the clicks users make, amortised over time (Section 3.3).
    ///
    /// `QPC = Σ_p Σ_i f(a_i|Q_p) · F(a_i Q_p) · Q_p / Σ_p Σ_i f(a_i|Q_p) · F(a_i Q_p)`
    pub fn absolute_qpc(&self) -> f64 {
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        let m = self.community.monitored_users();
        for (group, dist) in self.groups.groups().iter().zip(&self.awareness) {
            let weight = group.count as f64;
            for (i, &p) in dist.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                let awareness = i as f64 / m as f64;
                let visits = self.visit_function.eval(awareness * group.quality);
                numerator += weight * p * visits * group.quality;
                denominator += weight * p * visits;
            }
        }
        if denominator <= 0.0 {
            0.0
        } else {
            numerator / denominator
        }
    }

    /// The theoretical upper bound on QPC: rank pages in descending order of
    /// intrinsic quality and weight each rank by the attention it receives.
    pub fn ideal_qpc(&self) -> f64 {
        let n = self.community.pages();
        let v = self.community.monitored_visits_per_day();
        if n == 0 || v <= 0.0 {
            return 0.0;
        }
        let bias = RankBias::altavista(n, v);
        let qualities = self.groups.expanded_qualities();
        let mut numerator = 0.0;
        for (idx, q) in qualities.iter().enumerate() {
            numerator += bias.visits_at_rank(idx + 1) * q;
        }
        numerator / v
    }

    /// QPC normalised so that 1.0 corresponds to the quality-ordered ideal
    /// (the normalisation used in Figures 5–7).
    pub fn normalized_qpc(&self) -> f64 {
        let ideal = self.ideal_qpc();
        if ideal <= 0.0 {
            return 0.0;
        }
        self.absolute_qpc() / ideal
    }

    /// Steady-state awareness distribution for a page of the given quality
    /// under the solved visit function (Figure 3 plots this for the
    /// highest-quality pages). Returns `m + 1` probabilities.
    pub fn awareness_distribution_for(&self, quality: f64) -> Vec<f64> {
        awareness_distribution(
            |x| self.visit_function.eval(x),
            quality,
            self.community.monitored_users(),
            self.community.retirement_rate(),
        )
    }

    /// Expected popularity trajectory of a page of the given quality created
    /// with zero awareness at day 0 (Figure 4(a)). Entry `t` is the
    /// popularity at the end of day `t`.
    ///
    /// Computed on the discrete awareness ladder (master equation), so the
    /// wait for the very first monitored visit — the entrenchment
    /// bottleneck — is represented faithfully.
    pub fn popularity_evolution(&self, quality: f64, days: usize) -> Vec<f64> {
        awareness_chain_trajectory(
            |x| self.visit_function.eval(x),
            quality,
            self.community.monitored_users(),
            days,
        )
        .into_iter()
        .map(|a| a * quality)
        .collect()
    }

    /// Expected monitored-visit-rate trajectory of a page of the given
    /// quality created at day 0 (the curves sketched in Figure 2). Kept
    /// public as an oracle for checking simulated visit rates against the
    /// model's.
    pub fn visit_rate_evolution(&self, quality: f64, days: usize) -> Vec<f64> {
        self.popularity_evolution(quality, days)
            .into_iter()
            .map(|p| self.visit_function.eval(p))
            .collect()
    }

    /// Expected time to become popular (TBP): expected number of days until
    /// a page of the given quality, created with zero awareness, first
    /// reaches popularity above [`TBP_THRESHOLD`] × quality. Computed as the
    /// expected first-passage time on the discrete awareness ladder.
    pub fn expected_tbp(&self, quality: f64) -> f64 {
        expected_hitting_time(
            |x| self.visit_function.eval(x),
            quality,
            self.community.monitored_users(),
            TBP_THRESHOLD,
        )
    }

    /// Time to become popular, capped: `None` if the expected TBP exceeds
    /// `max_days` (e.g. the page is effectively never discovered under
    /// entrenchment).
    pub fn time_to_become_popular(&self, quality: f64, max_days: usize) -> Option<f64> {
        let tbp = self.expected_tbp(quality);
        if tbp.is_finite() && tbp <= max_days as f64 {
            Some(tbp)
        } else {
            None
        }
    }

    /// TBP for the highest-quality page in the community (the page the
    /// paper's Figure 4 tracks). Kept public as an oracle for checking the
    /// simulator's measured TBP against the model's.
    pub fn tbp_of_best_page(&self, max_days: usize) -> Option<f64> {
        self.time_to_become_popular(self.groups.max_quality(), max_days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality_groups::QualityGroups;
    use crate::rank_function::RankingModel;
    use crate::solver::AnalyticModel;
    use rrp_model::{CommunityConfig, PowerLawQuality};

    fn solve(model: RankingModel) -> SolvedModel {
        let community = CommunityConfig::builder()
            .pages(1_000)
            .users(100)
            .monitored_users(50)
            .total_visits_per_day(100.0)
            .expected_lifetime_days(547.5)
            .build()
            .unwrap();
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 1_000);
        AnalyticModel::new(community, groups, model)
            .unwrap()
            .solve()
    }

    #[test]
    fn qpc_values_are_probabilistically_sane() {
        let solved = solve(RankingModel::NonRandomized);
        let absolute = solved.absolute_qpc();
        let ideal = solved.ideal_qpc();
        let normalized = solved.normalized_qpc();
        assert!(absolute > 0.0 && absolute <= 0.4 + 1e-9);
        assert!(ideal > 0.0 && ideal <= 0.4 + 1e-9);
        assert!(
            absolute <= ideal + 1e-9,
            "absolute {absolute} vs ideal {ideal}"
        );
        assert!(normalized > 0.0 && normalized <= 1.0 + 1e-9);
    }

    #[test]
    fn ideal_qpc_is_dominated_by_the_best_page() {
        let solved = solve(RankingModel::NonRandomized);
        // Rank 1 holds ~38% of the attention and quality 0.4; the ideal QPC
        // must therefore be at least 0.38 · 0.4.
        assert!(solved.ideal_qpc() > 0.38 * 0.4 * 0.9);
    }

    #[test]
    fn selective_promotion_improves_normalized_qpc() {
        let base = solve(RankingModel::NonRandomized);
        let promoted = solve(RankingModel::Selective {
            start_rank: 1,
            degree: 0.1,
        });
        assert!(
            promoted.normalized_qpc() > base.normalized_qpc(),
            "selective promotion should improve QPC: {} vs {}",
            promoted.normalized_qpc(),
            base.normalized_qpc()
        );
    }

    /// Solve a community with the paper-default proportions (visit-starved,
    /// entrenchment-prone), just smaller so the test is fast.
    fn solve_entrenched(model: RankingModel) -> SolvedModel {
        let community = CommunityConfig::builder()
            .pages(2_000)
            .users(200)
            .monitored_users(20)
            .total_visits_per_day(200.0)
            .expected_lifetime_days(547.5)
            .build()
            .unwrap();
        let dist = PowerLawQuality::paper_default();
        let groups = QualityGroups::from_distribution(&dist, 2_000);
        AnalyticModel::new(community, groups, model)
            .unwrap()
            .solve()
    }

    #[test]
    fn selective_promotion_reduces_tbp_of_the_best_page() {
        let base = solve_entrenched(RankingModel::NonRandomized);
        let promoted = solve_entrenched(RankingModel::Selective {
            start_rank: 1,
            degree: 0.2,
        });
        let max_days = 40_000;
        let tbp_base = base.tbp_of_best_page(max_days).unwrap_or(max_days as f64);
        let tbp_promoted = promoted
            .tbp_of_best_page(max_days)
            .unwrap_or(max_days as f64);
        assert!(
            tbp_promoted < tbp_base,
            "promotion should reduce TBP: {tbp_promoted} vs {tbp_base}"
        );
    }

    #[test]
    fn popularity_evolution_is_monotone_and_capped_by_quality() {
        let solved = solve(RankingModel::Selective {
            start_rank: 1,
            degree: 0.2,
        });
        let q = 0.4;
        let curve = solved.popularity_evolution(q, 1_000);
        assert_eq!(curve.len(), 1_001);
        assert_eq!(curve[0], 0.0);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
            assert!(w[1] <= q + 1e-9);
        }
    }

    #[test]
    fn visit_rate_evolution_tracks_popularity() {
        let solved = solve(RankingModel::Selective {
            start_rank: 1,
            degree: 0.2,
        });
        let rates = solved.visit_rate_evolution(0.4, 500);
        assert_eq!(rates.len(), 501);
        // Visit rate should grow as the page becomes popular.
        assert!(rates[500] >= rates[0]);
    }

    #[test]
    fn awareness_distribution_for_matches_stored_group() {
        let solved = solve(RankingModel::NonRandomized);
        // The first group is the singleton best page of quality ≈ 0.4.
        let q = solved.groups.max_quality();
        let recomputed = solved.awareness_distribution_for(q);
        let stored = &solved.awareness[0];
        assert_eq!(recomputed.len(), stored.len());
        for (a, b) in recomputed.iter().zip(stored) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn tbp_none_when_pages_never_become_popular() {
        // Under entrenchment with a short horizon, the best page of a small
        // community does not reach 99% awareness in 10 days.
        let solved = solve(RankingModel::NonRandomized);
        assert!(solved.time_to_become_popular(0.4, 10).is_none());
    }

    #[test]
    fn expected_tbp_is_dominated_by_the_wait_for_the_first_visit() {
        let solved = solve_entrenched(RankingModel::NonRandomized);
        let tbp = solved.expected_tbp(0.4);
        let first_visit_wait = 1.0 / solved.visit_function.eval(0.0);
        assert!(tbp >= first_visit_wait);
        assert!(
            first_visit_wait / tbp > 0.3,
            "under entrenchment the first visit dominates TBP: wait {first_visit_wait}, tbp {tbp}"
        );
    }
}
