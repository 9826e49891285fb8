//! Page-quality distributions.
//!
//! The paper (Section 6.1) has "little basis for measuring the intrinsic
//! quality distribution of pages on the Web" and uses, as the best available
//! approximation, the **power-law distribution reported for PageRank** in
//! Cho & Roy (WWW 2004), with the quality of the highest-quality page set to
//! **0.4**.
//!
//! This module provides:
//!
//! * the [`QualityDistribution`] trait — random sampling plus a quantile
//!   function, so both the stochastic simulator and the deterministic
//!   analytic model can use the same distribution object;
//! * [`PowerLawQuality`] — the paper's distribution: a Pareto-style
//!   power law truncated/scaled so the maximum equals `q_max` (0.4 by
//!   default);
//! * [`ZipfQuality`] — rank-based Zipf assignment, an alternative heavy-tail
//!   shape used in ablation experiments;
//! * [`UniformQuality`] and [`ConstantQuality`] — degenerate baselines used
//!   in tests;
//! * [`assign_qualities`] — the deterministic quantile-spaced assignment the
//!   analytic model and the simulator both use, so that a community of `n`
//!   pages always contains exactly one page of the maximum quality and a
//!   long tail of low-quality pages, independent of RNG noise.

use crate::error::{ModelError, ModelResult};
use crate::scalar::Quality;
use rand::Rng;

/// A distribution over page-quality values in `[0, 1]`.
pub trait QualityDistribution {
    /// Draw one random quality value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Quality;

    /// The quantile function: `quantile(u)` for `u ∈ [0, 1]` returns the
    /// quality value below which a fraction `u` of the probability mass
    /// lies. `quantile(1.0)` is the maximum quality.
    fn quantile(&self, u: f64) -> Quality;

    /// The largest quality value the distribution can produce.
    fn max_quality(&self) -> Quality {
        self.quantile(1.0)
    }

    /// Expected (mean) quality, computed numerically from the quantile
    /// function unless the implementation overrides it with a closed form.
    fn mean(&self) -> f64 {
        // Midpoint rule over the quantile function: E[Q] = ∫₀¹ quantile(u) du.
        const STEPS: usize = 10_000;
        let mut sum = 0.0;
        for i in 0..STEPS {
            let u = (i as f64 + 0.5) / STEPS as f64;
            sum += self.quantile(u).value();
        }
        sum / STEPS as f64
    }
}

/// The paper's default quality distribution: a bounded power law (Pareto
/// shape) scaled so that the supremum equals `q_max`.
///
/// The quantile function is
/// `quantile(u) = q_min · (1 - u·(1 - (q_min/q_max)^α))^(-1/α)` — i.e. the
/// standard bounded-Pareto inverse CDF — which yields a density
/// `f(q) ∝ q^(-α-1)` on `[q_min, q_max]`. With the default `α = 2.1`
/// (the in-degree/PageRank power-law exponent commonly reported for the Web
/// graph) the overwhelming majority of pages have quality near `q_min`
/// while a single page per ~n reaches the neighbourhood of `q_max`,
/// matching the paper's qualitative description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawQuality {
    /// Power-law exponent `α > 0` (density exponent is `-(α+1)`).
    alpha: f64,
    /// Smallest quality value.
    q_min: f64,
    /// Largest quality value (0.4 in the paper).
    q_max: f64,
}

impl PowerLawQuality {
    /// Construct a bounded power law with exponent `alpha` on
    /// `[q_min, q_max]`.
    pub fn new(alpha: f64, q_min: f64, q_max: f64) -> ModelResult<Self> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                reason: format!("power-law exponent must be positive, got {alpha}"),
            });
        }
        if !q_min.is_finite() || !q_max.is_finite() {
            return Err(ModelError::NotFinite {
                what: "quality bound",
            });
        }
        if q_min <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                reason: format!("q_min must be positive for a power law, got {q_min}"),
            });
        }
        if q_max <= q_min || q_max > 1.0 {
            return Err(ModelError::InvalidDistribution {
                reason: format!("need 0 < q_min < q_max <= 1, got q_min={q_min}, q_max={q_max}"),
            });
        }
        Ok(PowerLawQuality {
            alpha,
            q_min,
            q_max,
        })
    }

    /// The paper's default: exponent 2.1, qualities in `[0.001, 0.4]`.
    pub fn paper_default() -> Self {
        PowerLawQuality::new(2.1, 1e-3, Quality::PAPER_MAX.value())
            .expect("paper default parameters are valid")
    }

    /// Power-law exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Lower quality bound.
    pub fn q_min(&self) -> f64 {
        self.q_min
    }

    /// Upper quality bound.
    pub fn q_max(&self) -> f64 {
        self.q_max
    }
}

impl QualityDistribution for PowerLawQuality {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Quality {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> Quality {
        let u = u.clamp(0.0, 1.0);
        // Bounded Pareto inverse CDF.
        let ratio = (self.q_min / self.q_max).powf(self.alpha);
        let denom = 1.0 - u * (1.0 - ratio);
        let q = self.q_min * denom.powf(-1.0 / self.alpha);
        Quality::clamped(q.min(self.q_max))
    }

    fn max_quality(&self) -> Quality {
        Quality::clamped(self.q_max)
    }
}

/// Rank-based Zipf quality: when used through [`assign_qualities`], page at
/// quantile position `u` gets quality `q_max / rank^s` where `rank` is the
/// page's position counted from the best page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfQuality {
    /// Zipf exponent `s > 0`.
    s: f64,
    /// Quality of the best page.
    q_max: f64,
    /// Notional population size used to map quantiles to ranks.
    population: usize,
}

impl ZipfQuality {
    /// Construct a Zipf quality distribution.
    pub fn new(s: f64, q_max: f64, population: usize) -> ModelResult<Self> {
        if !s.is_finite() || s <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                reason: format!("Zipf exponent must be positive, got {s}"),
            });
        }
        if !(0.0..=1.0).contains(&q_max) || q_max == 0.0 {
            return Err(ModelError::InvalidDistribution {
                reason: format!("q_max must be in (0, 1], got {q_max}"),
            });
        }
        if population == 0 {
            return Err(ModelError::ZeroCount { what: "population" });
        }
        Ok(ZipfQuality {
            s,
            q_max,
            population,
        })
    }
}

impl QualityDistribution for ZipfQuality {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Quality {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    fn quantile(&self, u: f64) -> Quality {
        let u = u.clamp(0.0, 1.0);
        // u = 1.0 corresponds to the best page (rank 1); u = 0 to the worst
        // (rank = population).
        let rank = ((1.0 - u) * (self.population as f64 - 1.0)).floor() + 1.0;
        Quality::clamped(self.q_max / rank.powf(self.s))
    }

    fn max_quality(&self) -> Quality {
        Quality::clamped(self.q_max)
    }
}

/// Uniform quality on `[lo, hi]` — a baseline without a heavy tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformQuality {
    lo: f64,
    hi: f64,
}

impl UniformQuality {
    /// Construct a uniform quality distribution on `[lo, hi] ⊆ [0, 1]`.
    pub fn new(lo: f64, hi: f64) -> ModelResult<Self> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(ModelError::NotFinite {
                what: "quality bound",
            });
        }
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return Err(ModelError::InvalidDistribution {
                reason: format!("need 0 <= lo <= hi <= 1, got lo={lo}, hi={hi}"),
            });
        }
        Ok(UniformQuality { lo, hi })
    }
}

impl QualityDistribution for UniformQuality {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Quality {
        Quality::clamped(rng.gen_range(self.lo..=self.hi))
    }

    fn quantile(&self, u: f64) -> Quality {
        let u = u.clamp(0.0, 1.0);
        Quality::clamped(self.lo + u * (self.hi - self.lo))
    }

    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Every page has the same quality — the degenerate case used in unit tests
/// where quality differences must not matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantQuality {
    q: f64,
}

impl ConstantQuality {
    /// Construct a constant quality distribution.
    pub fn new(q: f64) -> ModelResult<Self> {
        Quality::new(q)?;
        Ok(ConstantQuality { q })
    }
}

impl QualityDistribution for ConstantQuality {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Quality {
        Quality::clamped(self.q)
    }

    fn quantile(&self, _u: f64) -> Quality {
        Quality::clamped(self.q)
    }

    fn mean(&self) -> f64 {
        self.q
    }
}

/// Deterministically assign qualities to `n` pages using evenly spaced
/// quantiles of `dist`, **including the maximum**: page 0 receives
/// `quantile(1.0)` (the best page), page `n-1` receives `quantile(1/n)`.
///
/// Both the analytic model and the simulator use this assignment so the two
/// can be compared on identical page populations (the paper's Figures 4–8
/// compare "analysis" and "simulation" series on the same community).
pub fn assign_qualities<D: QualityDistribution>(dist: &D, n: usize) -> Vec<Quality> {
    (0..n)
        .map(|i| {
            // i = 0 -> u = 1.0 (best page), i = n-1 -> u = 1/n.
            let u = (n - i) as f64 / n as f64;
            dist.quantile(u)
        })
        .collect()
}

/// Randomly sample qualities for `n` pages.
pub fn sample_qualities<D: QualityDistribution, R: Rng + ?Sized>(
    dist: &D,
    n: usize,
    rng: &mut R,
) -> Vec<Quality> {
    (0..n).map(|_| dist.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn power_law_rejects_bad_parameters() {
        assert!(PowerLawQuality::new(0.0, 0.001, 0.4).is_err());
        assert!(PowerLawQuality::new(-1.0, 0.001, 0.4).is_err());
        assert!(PowerLawQuality::new(2.0, 0.0, 0.4).is_err());
        assert!(PowerLawQuality::new(2.0, 0.5, 0.4).is_err());
        assert!(PowerLawQuality::new(2.0, 0.001, 1.5).is_err());
        assert!(PowerLawQuality::new(2.0, 0.001, 0.4).is_ok());
    }

    #[test]
    fn paper_default_max_is_0_4() {
        let d = PowerLawQuality::paper_default();
        assert!((d.max_quality().value() - 0.4).abs() < 1e-12);
        assert!((d.quantile(1.0).value() - 0.4).abs() < 1e-9);
        assert_eq!(d.q_max(), 0.4);
        assert!(d.alpha() > 0.0);
        assert!(d.q_min() > 0.0);
    }

    #[test]
    fn power_law_quantile_is_monotone() {
        let d = PowerLawQuality::paper_default();
        let mut prev = d.quantile(0.0);
        for i in 1..=100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile must be nondecreasing");
            prev = q;
        }
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        let d = PowerLawQuality::paper_default();
        // The median should be far below the mean of min and max: most
        // pages are low quality.
        let median = d.quantile(0.5).value();
        assert!(median < 0.01, "median {median} should be tiny");
        // Mean is well below the midpoint of the range.
        assert!(d.mean() < 0.05);
    }

    #[test]
    fn power_law_samples_respect_bounds() {
        let d = PowerLawQuality::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let q = d.sample(&mut rng).value();
            assert!(
                (0.001..=0.4 + 1e-12).contains(&q),
                "sample {q} out of bounds"
            );
        }
    }

    #[test]
    fn zipf_quantile_best_page_gets_q_max() {
        let d = ZipfQuality::new(1.0, 0.4, 1000).unwrap();
        assert!((d.quantile(1.0).value() - 0.4).abs() < 1e-12);
        assert!(d.quantile(0.0).value() < 0.001);
        assert!(ZipfQuality::new(0.0, 0.4, 10).is_err());
        assert!(ZipfQuality::new(1.0, 0.0, 10).is_err());
        assert!(ZipfQuality::new(1.0, 0.4, 0).is_err());
    }

    #[test]
    fn uniform_quality_bounds_and_mean() {
        let d = UniformQuality::new(0.2, 0.6).unwrap();
        assert!((d.mean() - 0.4).abs() < 1e-12);
        assert_eq!(d.quantile(0.0).value(), 0.2);
        assert_eq!(d.quantile(1.0).value(), 0.6);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let q = d.sample(&mut rng).value();
            assert!((0.2..=0.6).contains(&q));
        }
        assert!(UniformQuality::new(0.6, 0.2).is_err());
        assert!(UniformQuality::new(-0.1, 0.5).is_err());
    }

    #[test]
    fn constant_quality() {
        let d = ConstantQuality::new(0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng).value(), 0.3);
        assert_eq!(d.quantile(0.7).value(), 0.3);
        assert_eq!(d.mean(), 0.3);
        assert!(ConstantQuality::new(1.2).is_err());
    }

    #[test]
    fn assign_qualities_includes_exactly_one_max_page() {
        let d = PowerLawQuality::paper_default();
        let qs = assign_qualities(&d, 1000);
        assert_eq!(qs.len(), 1000);
        assert!(
            (qs[0].value() - 0.4).abs() < 1e-9,
            "first page is the best page"
        );
        // Sorted descending.
        for w in qs.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Strictly fewer than 1% of pages have quality above 0.1.
        let high = qs.iter().filter(|q| q.value() > 0.1).count();
        assert!(
            high < 10,
            "only a handful of high-quality pages, got {high}"
        );
    }

    #[test]
    fn sample_qualities_length_and_range() {
        let d = PowerLawQuality::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let qs = sample_qualities(&d, 500, &mut rng);
        assert_eq!(qs.len(), 500);
        assert!(qs.iter().all(|q| q.value() <= 0.4 + 1e-12));
    }

    #[test]
    fn numeric_mean_matches_closed_form_for_uniform() {
        let d = UniformQuality::new(0.0, 1.0).unwrap();
        // Default trait implementation via quantile integration:
        let numeric = QualityDistribution::mean(&d);
        assert!((numeric - 0.5).abs() < 1e-3);
    }
}
