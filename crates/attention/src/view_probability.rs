//! The rank-bias law `F2`: how user attention decays with rank position.
//!
//! Section 5.3 of the paper splits the popularity→visit-rate relationship
//! into `F(x) = F2(F1(x))`, where `F2` maps a *rank position* to an expected
//! number of visits. Analysis of AltaVista usage logs (Cho & Roy 2004,
//! Lempel & Moran 2003) showed
//!
//! ```text
//! F2(rank) = θ · rank^(-3/2),    θ = v / Σ_{i=1..n} i^(-3/2)
//! ```
//!
//! i.e. attention follows a power law in rank with exponent 3/2, normalised
//! so that the expected visits over all `n` result positions sum to the
//! per-day visit budget `v`. The live study of Appendix A independently
//! measured "a power-law with an exponent remarkably close to −3/2" for its
//! volunteers.
//!
//! [`RankBias`] implements the general `θ · rank^(-s)` family; the paper's
//! law is [`RankBias::altavista`] with `s = 3/2`.

use crate::harmonic::generalized_harmonic;

/// A power-law rank-bias model `F2(rank) = θ · rank^(-s)` over `n` result
/// positions, normalised to a total visit budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RankBias {
    /// Power-law exponent `s` (3/2 for the AltaVista law).
    exponent: f64,
    /// Number of result positions `n`.
    positions: usize,
    /// Total expected visits per unit time distributed over all positions.
    total_visits: f64,
    /// Normalisation constant `θ = total_visits / H(n, s)`.
    theta: f64,
}

/// The paper's rank-bias exponent (Equation 4).
pub const ALTAVISTA_EXPONENT: f64 = 1.5;

impl RankBias {
    /// Build a rank-bias model with the given exponent over `positions`
    /// ranks, distributing `total_visits` visits per unit time.
    ///
    /// # Panics
    /// Panics if `positions == 0`, `exponent <= 0`, or `total_visits < 0`.
    pub fn new(exponent: f64, positions: usize, total_visits: f64) -> Self {
        assert!(positions > 0, "rank-bias model needs at least one position");
        assert!(exponent > 0.0, "rank-bias exponent must be positive");
        assert!(
            total_visits.is_finite() && total_visits >= 0.0,
            "total visits must be finite and non-negative"
        );
        let h = generalized_harmonic(positions, exponent);
        RankBias {
            exponent,
            positions,
            total_visits,
            theta: total_visits / h,
        }
    }

    /// The paper's AltaVista law: exponent 3/2.
    pub fn altavista(positions: usize, total_visits: f64) -> Self {
        RankBias::new(ALTAVISTA_EXPONENT, positions, total_visits)
    }

    /// Expected number of visits to the page shown at `rank` (1-based).
    ///
    /// Ranks beyond the number of positions receive zero visits.
    #[inline]
    pub fn visits_at_rank(&self, rank: usize) -> f64 {
        if rank == 0 || rank > self.positions {
            return 0.0;
        }
        self.theta * (rank as f64).powf(-self.exponent)
    }

    /// Expected visits at a *fractional* rank position. The analytic model
    /// works with expected ranks, which are generally not integers.
    #[inline]
    pub fn visits_at_fractional_rank(&self, rank: f64) -> f64 {
        if rank < 1.0 {
            return self.theta;
        }
        if rank > self.positions as f64 {
            return 0.0;
        }
        self.theta * rank.powf(-self.exponent)
    }

    /// Probability that a single visit lands on the page at `rank`
    /// (1-based): `visits_at_rank(rank) / total_visits`.
    #[inline]
    pub fn view_probability(&self, rank: usize) -> f64 {
        if self.total_visits == 0.0 {
            return 0.0;
        }
        self.visits_at_rank(rank) / self.total_visits
    }

    /// The full vector of expected visits by rank, `[rank 1, rank 2, …]`.
    pub fn visits_by_rank(&self) -> Vec<f64> {
        (1..=self.positions)
            .map(|r| self.visits_at_rank(r))
            .collect()
    }

    /// The full vector of view probabilities by rank; sums to 1.
    pub fn probabilities_by_rank(&self) -> Vec<f64> {
        let h = generalized_harmonic(self.positions, self.exponent);
        (1..=self.positions)
            .map(|r| (r as f64).powf(-self.exponent) / h)
            .collect()
    }

    /// Power-law exponent `s`.
    #[inline]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Number of positions `n`.
    #[inline]
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Total visit budget per unit time.
    #[inline]
    pub fn total_visits(&self) -> f64 {
        self.total_visits
    }

    /// Normalisation constant `θ`.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altavista_uses_three_halves() {
        let rb = RankBias::altavista(100, 50.0);
        assert_eq!(rb.exponent(), 1.5);
        assert_eq!(rb.positions(), 100);
        assert_eq!(rb.total_visits(), 50.0);
    }

    #[test]
    fn visits_sum_to_total_budget() {
        let rb = RankBias::altavista(1_000, 123.0);
        let total: f64 = rb.visits_by_rank().iter().sum();
        assert!((total - 123.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let rb = RankBias::altavista(500, 42.0);
        let total: f64 = rb.probabilities_by_rank().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Consistent with view_probability.
        assert!((rb.view_probability(1) - rb.probabilities_by_rank()[0]).abs() < 1e-12);
    }

    #[test]
    fn rank_one_gets_most_attention() {
        let rb = RankBias::altavista(100, 10.0);
        let v = rb.visits_by_rank();
        for w in v.windows(2) {
            assert!(w[0] > w[1], "attention must strictly decay with rank");
        }
    }

    #[test]
    fn three_halves_ratio_between_ranks() {
        let rb = RankBias::altavista(1000, 1.0);
        // F2(1)/F2(4) = 4^{1.5} = 8.
        let ratio = rb.visits_at_rank(1) / rb.visits_at_rank(4);
        assert!((ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_ranks_get_zero() {
        let rb = RankBias::altavista(10, 5.0);
        assert_eq!(rb.visits_at_rank(0), 0.0);
        assert_eq!(rb.visits_at_rank(11), 0.0);
        assert_eq!(rb.view_probability(0), 0.0);
        assert_eq!(rb.visits_at_fractional_rank(11.0), 0.0);
    }

    #[test]
    fn fractional_rank_interpolates_the_power_law() {
        let rb = RankBias::altavista(100, 10.0);
        let at_2 = rb.visits_at_rank(2);
        let frac = rb.visits_at_fractional_rank(2.0);
        assert!((at_2 - frac).abs() < 1e-12);
        // Fractional ranks below 1 are treated as rank 1.
        assert_eq!(rb.visits_at_fractional_rank(0.5), rb.theta());
        // Between ranks the value is between the neighbours.
        let mid = rb.visits_at_fractional_rank(2.5);
        assert!(mid < rb.visits_at_rank(2));
        assert!(mid > rb.visits_at_rank(3));
    }

    #[test]
    fn rescaling_total_visits() {
        // The visit budget scales every rank's visits and leaves the law's
        // shape alone (monitored-user visits `v` against all-user `v_u`).
        let rb = RankBias::altavista(100, 100.0);
        let scaled = RankBias::altavista(100, 1_000.0);
        assert!((scaled.visits_at_rank(3) / rb.visits_at_rank(3) - 10.0).abs() < 1e-9);
        assert_eq!(scaled.exponent(), rb.exponent());
        assert_eq!(scaled.probabilities_by_rank(), rb.probabilities_by_rank());
    }

    #[test]
    fn zero_budget_gives_zero_everywhere() {
        let rb = RankBias::altavista(10, 0.0);
        assert_eq!(rb.visits_at_rank(1), 0.0);
        assert_eq!(rb.view_probability(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn zero_positions_panics() {
        RankBias::altavista(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn non_positive_exponent_panics() {
        RankBias::new(0.0, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_budget_panics() {
        RankBias::new(1.5, 10, -1.0);
    }
}
