//! The fixed-point solver for `F(x)` (Section 5.3).
//!
//! The expressions for the awareness distribution (Theorem 1) and for the
//! expected rank (`F1`, `F1'`) are mutually recursive: the awareness
//! distribution needs `F`, and `F = F2 ∘ F1'` needs the awareness
//! distribution. The paper resolves the circularity by an iterative
//! procedure: start from a simple guess for `F`, compute the awareness
//! distributions, re-derive `F` numerically, fit it back to a quadratic in
//! log-log space, and repeat until convergence. [`AnalyticModel::solve`]
//! implements exactly that loop.

use crate::awareness::awareness_distribution;
use crate::curvefit::fit_visit_function;
use crate::quality_groups::QualityGroups;
use crate::rank_function::{RankComputer, RankingModel};
use crate::visit_function::VisitFunction;
use rrp_attention::RankBias;
use rrp_model::CommunityConfig;

/// Options controlling the fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum number of fixed-point iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the maximum relative change of `F` over the
    /// sample grid between successive iterations.
    pub tolerance: f64,
    /// Number of popularity sample points used to re-fit `F` each
    /// iteration.
    pub sample_points: usize,
    /// Damping factor in `(0, 1]`: the new `F` samples are blended with the
    /// previous iterate as `F_old^(1−d) · F_new^d` before fitting. `1.0`
    /// disables damping; smaller values stabilise communities whose
    /// feedback loop oscillates.
    pub damping: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 120,
            tolerance: 2e-3,
            sample_points: 160,
            damping: 0.5,
        }
    }
}

/// The analytic model of one community under one ranking scheme.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    community: CommunityConfig,
    groups: QualityGroups,
    ranking: RankingModel,
    options: SolverOptions,
}

/// The converged steady state produced by [`AnalyticModel::solve`].
#[derive(Debug, Clone)]
pub struct SolvedModel {
    /// Community the model was solved for.
    pub community: CommunityConfig,
    /// Quality groups (pages bucketed by quality).
    pub groups: QualityGroups,
    /// Ranking scheme.
    pub ranking: RankingModel,
    /// The converged popularity → monitored-visit-rate function `F`.
    pub visit_function: VisitFunction,
    /// Steady-state awareness distribution per quality group
    /// (each of length `m + 1`).
    pub awareness: Vec<Vec<f64>>,
    /// Expected number of zero-awareness pages `z`.
    pub zero_awareness_pages: f64,
    /// Number of fixed-point iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

impl AnalyticModel {
    /// Build a model for `community` with page qualities grouped in
    /// `groups`, ranked according to `ranking`.
    pub fn new(
        community: CommunityConfig,
        groups: QualityGroups,
        ranking: RankingModel,
    ) -> Result<Self, String> {
        community.validate().map_err(|e| e.to_string())?;
        ranking.validate()?;
        if groups.total_pages() != community.pages() {
            return Err(format!(
                "quality groups cover {} pages but the community has {}",
                groups.total_pages(),
                community.pages()
            ));
        }
        Ok(AnalyticModel {
            community,
            groups,
            ranking,
            options: SolverOptions::default(),
        })
    }

    /// Override the solver options.
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The ranking model being analysed.
    pub fn ranking(&self) -> RankingModel {
        self.ranking
    }

    /// Run the fixed-point iteration and return the steady state.
    pub fn solve(&self) -> SolvedModel {
        let m = self.community.monitored_users();
        let n = self.community.pages();
        let v = self.community.monitored_visits_per_day();
        let lambda = self.community.retirement_rate();
        let bias = RankBias::altavista(n, v);

        // Popularity sample grid: log-spaced between the smallest positive
        // popularity (one monitored user aware of the lowest-quality page)
        // and the largest possible popularity (max quality, fully aware).
        let q_max = self.groups.max_quality().max(1e-6);
        let q_min = self
            .groups
            .groups()
            .iter()
            .map(|g| g.quality)
            .fold(q_max, f64::min)
            .max(1e-9);
        let x_min = (q_min / m as f64).max(1e-12);
        let x_max = q_max;
        let samples = sample_grid(x_min, x_max, self.options.sample_points);

        // Seed: uniform attention (every page gets v/n visits per day).
        let mut visit_function = VisitFunction::constant((v / n as f64).max(1e-12));
        let mut converged = false;
        let mut iterations = 0;

        for iter in 0..self.options.max_iterations {
            iterations = iter + 1;

            // 1. Steady-state awareness distribution per quality group under
            //    the current F.
            let awareness_iter: Vec<Vec<f64>> = self
                .groups
                .groups()
                .iter()
                .map(|g| awareness_distribution(|x| visit_function.eval(x), g.quality, m, lambda))
                .collect();

            // 2. Rank/visit computer for this iteration.
            let computer = RankComputer::new(self.groups.groups(), &awareness_iter, m, &bias);

            // 3. Re-derive F numerically at the sample popularities,
            //    blending with the previous iterate (geometric damping).
            let d = self.options.damping.clamp(1e-3, 1.0);
            let new_samples: Vec<(f64, f64)> = samples
                .iter()
                .map(|&x| {
                    let raw = computer
                        .expected_visits_positive(x, &self.ranking)
                        .max(1e-15);
                    let old = visit_function.eval(x).max(1e-15);
                    (x, old.powf(1.0 - d) * raw.powf(d))
                })
                .collect();
            let raw_zero = computer.expected_visits_zero(&self.ranking).max(0.0);
            let old_zero = visit_function.zero_value().max(1e-15);
            let new_zero = if raw_zero <= 0.0 {
                old_zero * (1.0 - d)
            } else {
                old_zero.powf(1.0 - d) * raw_zero.powf(d)
            };

            // 4. Fit the symbolic (log-log quadratic) form.
            let fitted = fit_visit_function(&new_samples, new_zero)
                .unwrap_or_else(|| VisitFunction::constant((v / n as f64).max(1e-12)));

            // 5. Convergence test.
            let delta = fitted.max_relative_difference(&visit_function, &samples);
            visit_function = fitted;
            if delta < self.options.tolerance {
                converged = true;
                break;
            }
        }

        // Recompute the awareness distributions one final time so they are
        // consistent with the returned visit function.
        let awareness: Vec<Vec<f64>> = self
            .groups
            .groups()
            .iter()
            .map(|g| awareness_distribution(|x| visit_function.eval(x), g.quality, m, lambda))
            .collect();
        let computer = RankComputer::new(self.groups.groups(), &awareness, m, &bias);
        let zero_awareness_pages = computer.zero_awareness_pages();

        SolvedModel {
            community: self.community,
            groups: self.groups.clone(),
            ranking: self.ranking,
            visit_function,
            awareness,
            zero_awareness_pages,
            iterations,
            converged,
        }
    }
}

/// Log-spaced sample grid over `[x_min, x_max]` with `points` entries,
/// always including both endpoints.
fn sample_grid(x_min: f64, x_max: f64, points: usize) -> Vec<f64> {
    let points = points.max(4);
    let (lo, hi) = (x_min.min(x_max), x_max.max(x_min));
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            (log_lo + t * (log_hi - log_lo)).exp()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PowerLawQuality;

    /// A small community that solves quickly in debug builds.
    fn small_community() -> (CommunityConfig, QualityGroups) {
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
        (community, groups)
    }

    #[test]
    fn sample_grid_is_log_spaced_and_includes_endpoints() {
        let g = sample_grid(1e-4, 0.4, 10);
        assert_eq!(g.len(), 10);
        assert!((g[0] - 1e-4).abs() / 1e-4 < 1e-9);
        assert!((g[9] - 0.4).abs() / 0.4 < 1e-9);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Log-spacing: constant ratio between consecutive points.
        let r1 = g[1] / g[0];
        let r2 = g[5] / g[4];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn model_rejects_mismatched_groups() {
        let (community, _) = small_community();
        let dist = PowerLawQuality::paper_default();
        let wrong = QualityGroups::from_distribution(&dist, 500);
        assert!(AnalyticModel::new(community, wrong, RankingModel::NonRandomized).is_err());
    }

    #[test]
    fn model_rejects_invalid_ranking() {
        let (community, groups) = small_community();
        assert!(AnalyticModel::new(
            community,
            groups,
            RankingModel::Selective {
                start_rank: 0,
                degree: 0.1
            }
        )
        .is_err());
    }

    #[test]
    fn nonrandomized_model_converges() {
        let (community, groups) = small_community();
        let model = AnalyticModel::new(community, groups, RankingModel::NonRandomized).unwrap();
        let solved = model.solve();
        assert!(
            solved.converged,
            "should converge in {} iterations",
            solved.iterations
        );
        assert!(solved.zero_awareness_pages > 0.0);
        assert!(solved.zero_awareness_pages <= 1_000.0);
        // Awareness distributions are normalised.
        for dist in &solved.awareness {
            let sum: f64 = dist.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Visit rates are within the physical budget.
        assert!(solved.visit_function.eval(0.4) <= community.monitored_visits_per_day() * 1.5);
        assert!(solved.visit_function.eval(0.0) >= 0.0);
    }

    #[test]
    fn selective_promotion_increases_zero_popularity_visits_at_fixed_point() {
        let (community, groups) = small_community();
        let base = AnalyticModel::new(community, groups.clone(), RankingModel::NonRandomized)
            .unwrap()
            .solve();
        let promoted = AnalyticModel::new(
            community,
            groups,
            RankingModel::Selective {
                start_rank: 1,
                degree: 0.2,
            },
        )
        .unwrap()
        .solve();
        assert!(
            promoted.visit_function.eval(0.0) > base.visit_function.eval(0.0),
            "promotion must raise F(0): {} vs {}",
            promoted.visit_function.eval(0.0),
            base.visit_function.eval(0.0)
        );
        // And the number of never-seen pages must drop.
        assert!(
            promoted.zero_awareness_pages < base.zero_awareness_pages,
            "promotion should reduce zero-awareness pages: {} vs {}",
            promoted.zero_awareness_pages,
            base.zero_awareness_pages
        );
    }

    #[test]
    fn visit_function_is_monotone_in_popularity_at_fixed_point() {
        let (community, groups) = small_community();
        let solved = AnalyticModel::new(community, groups, RankingModel::NonRandomized)
            .unwrap()
            .solve();
        let mut prev = solved.visit_function.eval(1e-4);
        for i in 1..=40 {
            let x = 1e-4 + (0.4 - 1e-4) * i as f64 / 40.0;
            let f = solved.visit_function.eval(x);
            assert!(
                f >= prev * 0.98,
                "F should be (weakly) increasing in popularity: F({x}) = {f} < {prev}"
            );
            prev = f;
        }
    }

    #[test]
    fn options_are_respected() {
        let (community, groups) = small_community();
        let model = AnalyticModel::new(community, groups, RankingModel::NonRandomized)
            .unwrap()
            .with_options(SolverOptions {
                max_iterations: 1,
                tolerance: 0.0,
                ..SolverOptions::default()
            });
        let solved = model.solve();
        assert_eq!(solved.iterations, 1);
        assert!(!solved.converged);
    }

    #[test]
    fn ranking_accessor() {
        let (community, groups) = small_community();
        let model = AnalyticModel::new(
            community,
            groups,
            RankingModel::Uniform {
                start_rank: 2,
                degree: 0.1,
            },
        )
        .unwrap();
        assert_eq!(
            model.ranking(),
            RankingModel::Uniform {
                start_rank: 2,
                degree: 0.1
            }
        );
    }
}
