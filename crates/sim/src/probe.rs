//! Probing individual pages: TBP measurement and popularity traces.
//!
//! The paper's Figure 4 tracks a page of quality 0.4 from its creation
//! until it "becomes popular" (popularity ≥ 99% of quality). The probe
//! machinery resets the community's best-quality slot to a fresh
//! zero-awareness page, protects it from retirement, and watches it evolve
//! under whatever ranking policy the simulation is running.

use crate::engine::Simulation;
use crate::metrics::{PopularityTrace, TbpResult};

/// Fraction of its quality a page must reach in popularity to count as
/// "popular" (the paper uses 99%).
pub const TBP_POPULARITY_THRESHOLD: f64 = 0.99;

impl Simulation {
    /// Reset the best-quality slot to a fresh zero-awareness page and track
    /// its popularity and expected visit rate for `days` days (the page is
    /// protected from retirement while tracked). Returns the per-day trace.
    pub fn trace_fresh_best_page(&mut self, days: u64) -> PopularityTrace {
        let slot = self.population().best_slot();
        self.reset_slot_for_probe(slot);
        self.protect_slot(slot);

        let m = self.population().monitored_users();
        let mut trace = PopularityTrace::default();
        trace
            .popularity
            .push(self.population().slot(slot).popularity(m));
        let rank = self.current_rank_of(slot);
        trace
            .daily_visits
            .push(self.monitored_bias().visits_at_rank(rank));

        for _ in 0..days {
            self.run_day();
            trace
                .popularity
                .push(self.population().slot(slot).popularity(m));
            let rank = self.current_rank_of(slot);
            trace
                .daily_visits
                .push(self.monitored_bias().visits_at_rank(rank));
        }
        self.unprotect_slot(slot);
        trace
    }

    /// Measure time-to-become-popular for the community's best page.
    ///
    /// Each trial resets the best-quality slot to a fresh page and runs the
    /// simulation until the page's popularity exceeds
    /// [`TBP_POPULARITY_THRESHOLD`] × quality, or `max_days` elapse (the
    /// trial is then censored at `max_days`). The community keeps evolving
    /// between and during trials, so each trial sees an independent steady
    /// state.
    pub fn measure_tbp(&mut self, trials: usize, max_days: u64) -> TbpResult {
        let mut total_days = 0.0;
        let mut completed = 0;
        for _ in 0..trials {
            let slot = self.population().best_slot();
            self.reset_slot_for_probe(slot);
            self.protect_slot(slot);
            let m = self.population().monitored_users();
            let quality = self.population().slot(slot).quality;
            let threshold = TBP_POPULARITY_THRESHOLD * quality;

            let mut elapsed = 0u64;
            let mut reached = false;
            while elapsed < max_days {
                self.run_day();
                elapsed += 1;
                if self.population().slot(slot).popularity(m) >= threshold {
                    reached = true;
                    break;
                }
            }
            self.unprotect_slot(slot);
            total_days += elapsed as f64;
            if reached {
                completed += 1;
            }
        }
        TbpResult {
            mean_days: if trials == 0 {
                0.0
            } else {
                total_days / trials as f64
            },
            completed,
            trials,
            max_days,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use rrp_model::CommunityConfig;
    use rrp_ranking::{PolicyKind, PromotionConfig, PromotionRule};

    fn config(seed: u64) -> SimConfig {
        SimConfig::for_community(
            CommunityConfig::builder()
                .pages(300)
                .users(150)
                .monitored_users(15)
                .total_visits_per_day(150.0)
                .expected_lifetime_days(200.0)
                .build()
                .unwrap(),
            seed,
        )
    }

    #[test]
    fn trace_starts_at_zero_and_never_exceeds_quality() {
        let mut sim = Simulation::new(config(1), PolicyKind::Popularity).unwrap();
        sim.run(100);
        let trace = sim.trace_fresh_best_page(200);
        assert_eq!(trace.popularity.len(), 201);
        assert_eq!(trace.daily_visits.len(), 201);
        assert_eq!(trace.popularity[0], 0.0);
        assert!(trace.popularity.iter().all(|&p| p <= 0.4 + 1e-9));
        // Popularity is monotone: awareness only grows while protected.
        for w in trace.popularity.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn promoted_page_becomes_popular_faster() {
        let run = |policy: PolicyKind, seed| {
            let mut sim = Simulation::new(config(seed), policy).unwrap();
            sim.run(300); // reach a rough steady state
            sim.measure_tbp(3, 3_000)
        };
        let base = run(PolicyKind::Popularity, 21);
        let promoted = run(
            PolicyKind::promotion(PromotionConfig::new(PromotionRule::Selective, 1, 0.2).unwrap()),
            21,
        );
        assert!(
            promoted.mean_days < base.mean_days,
            "promotion should reduce TBP: {} vs {}",
            promoted.mean_days,
            base.mean_days
        );
        assert_eq!(promoted.trials, 3);
        assert!(
            promoted.completed >= 1,
            "promoted probe should be discovered"
        );
    }

    #[test]
    fn tbp_result_censoring_is_reported() {
        let mut sim = Simulation::new(config(5), PolicyKind::Popularity).unwrap();
        // With a horizon of 1 day the probe cannot possibly reach 99%.
        let result = sim.measure_tbp(2, 1);
        assert_eq!(result.trials, 2);
        assert_eq!(result.completed, 0);
        assert_eq!(result.mean_days, 1.0);
        assert_eq!(result.max_days, 1);
    }

    #[test]
    fn zero_trials_is_harmless() {
        let mut sim = Simulation::new(config(6), PolicyKind::Popularity).unwrap();
        let result = sim.measure_tbp(0, 10);
        assert_eq!(result.mean_days, 0.0);
        assert_eq!(result.trials, 0);
    }
}
