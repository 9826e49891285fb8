//! Property-based tests for the model crate's core invariants.

use proptest::prelude::*;
use rrp_model::{
    assign_qualities, popularity, Awareness, CommunityConfig, LifetimeModel, PowerLawQuality,
    Quality, QualityDistribution, SeedSequence, UniformQuality, ZipfQuality,
};

proptest! {
    /// Quality construction accepts exactly the unit interval.
    #[test]
    fn quality_construction_matches_range(x in -10.0f64..10.0) {
        let ok = (0.0..=1.0).contains(&x);
        prop_assert_eq!(Quality::new(x).is_ok(), ok);
    }

    /// Clamping always produces a valid value equal to the clamped input.
    #[test]
    fn clamped_is_always_valid(x in proptest::num::f64::ANY) {
        let q = Quality::clamped(x);
        prop_assert!((0.0..=1.0).contains(&q.value()));
        if x.is_finite() && (0.0..=1.0).contains(&x) {
            prop_assert_eq!(q.value(), x);
        }
    }

    /// Popularity = awareness × quality is bounded by both factors.
    #[test]
    fn popularity_bounded_by_factors(a in 0.0f64..=1.0, q in 0.0f64..=1.0) {
        let p = popularity(Awareness::new(a).unwrap(), Quality::new(q).unwrap());
        prop_assert!(p.value() <= a + 1e-12);
        prop_assert!(p.value() <= q + 1e-12);
        prop_assert!(p.value() >= 0.0);
    }

    /// The power-law quantile function is monotone nondecreasing and bounded
    /// by [q_min, q_max] for arbitrary valid parameters.
    #[test]
    fn power_law_quantile_monotone(
        alpha in 0.2f64..5.0,
        q_min in 1e-4f64..0.01,
        q_max in 0.05f64..1.0,
        u1 in 0.0f64..=1.0,
        u2 in 0.0f64..=1.0,
    ) {
        let d = PowerLawQuality::new(alpha, q_min, q_max).unwrap();
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let q_lo = d.quantile(lo).value();
        let q_hi = d.quantile(hi).value();
        prop_assert!(q_lo <= q_hi + 1e-12);
        prop_assert!(q_lo >= q_min - 1e-9);
        prop_assert!(q_hi <= q_max + 1e-9);
    }

    /// Deterministic quality assignment is sorted descending and sized `n`.
    #[test]
    fn assign_qualities_sorted_descending(n in 1usize..2000) {
        let d = PowerLawQuality::paper_default();
        let qs = assign_qualities(&d, n);
        prop_assert_eq!(qs.len(), n);
        for w in qs.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// Zipf quantiles stay within (0, q_max].
    #[test]
    fn zipf_quantiles_bounded(s in 0.2f64..3.0, u in 0.0f64..=1.0) {
        let d = ZipfQuality::new(s, 0.4, 10_000).unwrap();
        let q = d.quantile(u).value();
        prop_assert!(q > 0.0);
        prop_assert!(q <= 0.4 + 1e-12);
    }

    /// Uniform quantiles are linear between the bounds.
    #[test]
    fn uniform_quantile_linear(lo in 0.0f64..0.5, width in 0.0f64..0.5, u in 0.0f64..=1.0) {
        let hi = lo + width;
        let d = UniformQuality::new(lo, hi).unwrap();
        let q = d.quantile(u).value();
        prop_assert!((q - (lo + u * width)).abs() < 1e-12);
    }

    /// Surviving `t` days of daily retirement draws, `(1 − p)^t`, is in
    /// [0, 1], decreasing in time and equal to `exp(−t / l)`.
    #[test]
    fn survival_probability_monotone(l in 1.0f64..2000.0, t1 in 0u32..5000, t2 in 0u32..5000) {
        let m = LifetimeModel::new(l).unwrap();
        let survival = |days: u32| (1.0 - m.daily_retirement_probability()).powi(days as i32);
        let (a, b) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let sa = survival(a);
        let sb = survival(b);
        prop_assert!((0.0..=1.0).contains(&sa));
        prop_assert!((0.0..=1.0).contains(&sb));
        prop_assert!(sb <= sa + 1e-12);
        prop_assert!((sa - (-(a as f64) / l).exp()).abs() < 1e-9);
    }

    /// Community builder scaled_to_pages always yields a valid config.
    #[test]
    fn scaled_config_always_valid(n in 1usize..1_000_000) {
        let c = CommunityConfig::builder().scaled_to_pages(n).build();
        prop_assert!(c.is_ok());
        let c = c.unwrap();
        prop_assert!(c.monitored_users() <= c.users());
        prop_assert!(c.monitored_visits_per_day() <= c.total_visits_per_day() + 1e-9);
    }

    /// Child seeds never collide for distinct indices (small scale).
    #[test]
    fn seed_children_distinct(root in proptest::num::u64::ANY, i in 0u64..500, j in 0u64..500) {
        prop_assume!(i != j);
        let seq = SeedSequence::new(root);
        prop_assert_ne!(seq.child_seed(i), seq.child_seed(j));
    }
}
