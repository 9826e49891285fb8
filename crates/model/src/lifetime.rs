//! Page birth and death (Section 5.1 of the paper).
//!
//! Page retirement is modelled as a Poisson process with rate `λ`, so page
//! lifetimes are exponentially distributed with mean `l = 1/λ`. When a page
//! is retired, a new page *of equal quality* and zero awareness immediately
//! takes its place, keeping both the community size and the quality
//! distribution stationary.
//!
//! The simulator retires pages memorylessly: each day every page retires
//! with probability `1 − exp(−λ)` (`≈ λ` for small `λ`). Because the
//! exponential distribution is memoryless, this is statistically identical
//! to drawing an exponential lifetime at birth.

use crate::error::{ensure_positive, ModelResult};

/// Exponential page-lifetime model with mean `expected_lifetime_days`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    /// Mean lifetime in days (`l`).
    expected_lifetime_days: f64,
}

impl LifetimeModel {
    /// Build a lifetime model with the given mean lifetime in days.
    pub fn new(expected_lifetime_days: f64) -> ModelResult<Self> {
        ensure_positive("expected page lifetime", expected_lifetime_days)?;
        Ok(LifetimeModel {
            expected_lifetime_days,
        })
    }

    /// Mean lifetime `l`, in days.
    #[inline]
    pub fn expected_lifetime_days(&self) -> f64 {
        self.expected_lifetime_days
    }

    /// Retirement rate `λ = 1/l`, per day.
    #[inline]
    pub fn rate(&self) -> f64 {
        1.0 / self.expected_lifetime_days
    }

    /// Probability that a page retires during one day,
    /// `1 − exp(−λ)`.
    #[inline]
    pub fn daily_retirement_probability(&self) -> f64 {
        1.0 - (-self.rate()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_non_positive_lifetime() {
        assert!(LifetimeModel::new(0.0).is_err());
        assert!(LifetimeModel::new(-1.0).is_err());
        assert!(LifetimeModel::new(f64::NAN).is_err());
        assert!(LifetimeModel::new(547.5).is_ok());
    }

    #[test]
    fn rate_is_reciprocal_of_mean() {
        let m = LifetimeModel::new(547.5).unwrap();
        assert!((m.rate() - 1.0 / 547.5).abs() < 1e-15);
        assert_eq!(m.expected_lifetime_days(), 547.5);
    }

    #[test]
    fn daily_probability_approximates_rate_for_long_lifetimes() {
        let m = LifetimeModel::new(547.5).unwrap();
        let p = m.daily_retirement_probability();
        assert!((p - m.rate()).abs() < 1e-5, "1 - exp(-λ) ≈ λ for small λ");
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn survival_probability_decays() {
        // Surviving `days` daily draws has probability `(1 − p)^days`,
        // which is the exponential survival law `exp(−λ · days)`.
        let m = LifetimeModel::new(100.0).unwrap();
        let survival = |days: i32| (1.0 - m.daily_retirement_probability()).powi(days);
        assert_eq!(survival(0), 1.0);
        assert!((survival(100) - (-1.0f64).exp()).abs() < 1e-12);
        assert!(survival(1000) < survival(10));
    }

    #[test]
    fn sampled_lifetime_mean_close_to_expected() {
        // A page retired by the daily coin lives a geometric number of days
        // with mean `1/p ≈ l + 1/2`: the exponential lifetime in whole days.
        let m = LifetimeModel::new(100.0).unwrap();
        let p = m.daily_retirement_probability();
        let mut rng = StdRng::seed_from_u64(42);
        let samples = 50_000;
        let mut total_days = 0u64;
        for _ in 0..samples {
            let mut days = 1u64;
            while rng.gen::<f64>() >= p {
                days += 1;
            }
            total_days += days;
        }
        let mean = total_days as f64 / samples as f64;
        assert!(
            (mean - 100.0).abs() < 2.0,
            "empirical mean {mean} should be within 2 days of 100"
        );
    }
}
