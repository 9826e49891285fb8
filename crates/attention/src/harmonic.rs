//! Generalized harmonic numbers.
//!
//! The rank-bias law of the paper (Equation 4) is `F2(rank) = θ · rank^(-3/2)`
//! with `θ = v / Σ_{i=1..n} i^(-3/2)`. The normalising sum is a generalized
//! harmonic number `H(n, s) = Σ_{i=1..n} i^(-s)`; this module computes it
//! exactly for small `n` and with an Euler–Maclaurin tail approximation for
//! very large `n` so that Figure 7(a)'s `n = 10^6` sweep does not need a
//! million-term sum per evaluation.

/// Threshold below which the sum is computed exactly term by term.
const EXACT_LIMIT: usize = 200_000;

/// Generalized harmonic number `H(n, s) = Σ_{i=1..n} i^(-s)` for `s > 0`.
///
/// For `n` up to `EXACT_LIMIT` (200 000) the sum is exact (to f64
/// rounding); beyond that the head is summed exactly and the tail is
/// approximated with the Euler–Maclaurin formula, giving at least 10
/// significant digits for the exponents used in this workspace
/// (`s = 1.5`, `s = 1`).
pub fn generalized_harmonic(n: usize, s: f64) -> f64 {
    assert!(s > 0.0, "harmonic exponent must be positive");
    if n == 0 {
        return 0.0;
    }
    if n <= EXACT_LIMIT {
        return exact_sum(1, n, s);
    }
    let head_end = EXACT_LIMIT;
    let head = exact_sum(1, head_end, s);
    head + tail_euler_maclaurin(head_end + 1, n, s)
}

/// Exact sum `Σ_{i=lo..=hi} i^(-s)`, summed smallest-terms-first to limit
/// floating-point error.
fn exact_sum(lo: usize, hi: usize, s: f64) -> f64 {
    let mut sum = 0.0;
    let mut i = hi;
    while i >= lo {
        sum += (i as f64).powf(-s);
        if i == 0 {
            break;
        }
        i -= 1;
    }
    sum
}

/// Euler–Maclaurin approximation of `Σ_{i=a..=b} i^(-s)`:
/// `∫_a^b x^(-s) dx + (a^(-s) + b^(-s))/2 + s·(a^(-s-1) − b^(-s-1))/12`.
fn tail_euler_maclaurin(a: usize, b: usize, s: f64) -> f64 {
    let af = a as f64;
    let bf = b as f64;
    let integral = if (s - 1.0).abs() < 1e-12 {
        (bf / af).ln()
    } else {
        (bf.powf(1.0 - s) - af.powf(1.0 - s)) / (1.0 - s)
    };
    integral
        + 0.5 * (af.powf(-s) + bf.powf(-s))
        + s / 12.0 * (af.powf(-s - 1.0) - bf.powf(-s - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Riemann zeta value `ζ(3/2)`, the limit of `H(n, 3/2)` as
    /// `n → ∞`.
    const ZETA_3_2: f64 = 2.612_375_348_685_488;

    fn brute(n: usize, s: f64) -> f64 {
        (1..=n).map(|i| (i as f64).powf(-s)).sum()
    }

    #[test]
    fn zero_terms_is_zero() {
        assert_eq!(generalized_harmonic(0, 1.5), 0.0);
    }

    #[test]
    fn single_term_is_one() {
        assert_eq!(generalized_harmonic(1, 1.5), 1.0);
        assert_eq!(generalized_harmonic(1, 1.0), 1.0);
    }

    #[test]
    fn matches_brute_force_for_small_n() {
        for &n in &[2usize, 10, 100, 1000, 12345] {
            for &s in &[0.5, 1.0, 1.5, 2.0] {
                let fast = generalized_harmonic(n, s);
                let slow = brute(n, s);
                assert!((fast - slow).abs() < 1e-9, "n={n} s={s}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn large_n_approximation_is_accurate() {
        // Compare the approximated path (n > EXACT_LIMIT) against the full
        // exact sum for a case big enough to exercise the tail.
        let n = 300_000;
        let s = 1.5;
        let approx = generalized_harmonic(n, s);
        let exact = brute(n, s);
        assert!(
            (approx - exact).abs() / exact < 1e-10,
            "relative error too large: {approx} vs {exact}"
        );
    }

    #[test]
    fn harmonic_s1_large_n() {
        let n = 500_000;
        let approx = generalized_harmonic(n, 1.0);
        let exact = brute(n, 1.0);
        assert!((approx - exact).abs() / exact < 1e-10);
    }

    #[test]
    fn converges_toward_zeta_three_halves() {
        let h = generalized_harmonic(10_000_000, 1.5);
        assert!(h < ZETA_3_2);
        assert!(
            ZETA_3_2 - h < 1e-3,
            "H(1e7, 1.5) = {h} should be close to ζ(3/2)"
        );
    }

    #[test]
    fn monotone_in_n() {
        let mut prev = 0.0;
        for n in [1usize, 10, 100, 1_000, 10_000] {
            let h = generalized_harmonic(n, 1.5);
            assert!(h > prev);
            prev = h;
        }
    }

    #[test]
    #[should_panic(expected = "harmonic exponent must be positive")]
    fn rejects_non_positive_exponent() {
        generalized_harmonic(10, 0.0);
    }
}
