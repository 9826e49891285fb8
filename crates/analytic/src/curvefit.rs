//! Fitting the numeric `F(x)` samples to a log-log quadratic curve.
//!
//! Each iteration of the fixed-point procedure (Section 5.3) produces `F`
//! in numerical form: a set of `(popularity, expected visits)` samples.
//! The paper converts this numeric function back to symbolic form by
//! "fitting a curve … a quadratic curve in log-log space led to good
//! convergence for all parameter settings we tested", adjusting the fit "to
//! fit the extreme points … especially carefully". [`fit_visit_function`]
//! reproduces exactly that: a weighted least-squares quadratic in
//! `(log x, log F)` with extra weight on the smallest and largest
//! popularity samples.

use crate::linalg::weighted_polyfit;
use crate::visit_function::{LogQuadratic, VisitFunction};

/// How much extra weight the extreme (smallest and largest popularity)
/// samples receive in the least-squares fit, mirroring the paper's
/// "fit the extreme points especially carefully".
const EXTREME_POINT_WEIGHT: f64 = 25.0;

/// Fit a [`VisitFunction`] to numeric samples.
///
/// * `samples` — pairs `(x, F(x))` with `x > 0`; non-positive entries are
///   ignored.
/// * `zero_value` — the separately computed `F(0)`.
///
/// Returns `None` when fewer than three usable samples remain (the
/// quadratic would be underdetermined).
pub fn fit_visit_function(samples: &[(f64, f64)], zero_value: f64) -> Option<VisitFunction> {
    let mut xs = Vec::with_capacity(samples.len());
    let mut ys = Vec::with_capacity(samples.len());
    for &(x, y) in samples {
        if x > 0.0 && y > 0.0 && x.is_finite() && y.is_finite() {
            xs.push(x.ln());
            ys.push(y.ln());
        }
    }
    if xs.len() < 3 {
        return None;
    }

    // Weight the extreme log-x points heavily.
    let (min_lx, max_lx) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let span = (max_lx - min_lx).max(1e-9);
    let weights: Vec<f64> = xs
        .iter()
        .map(|&lx| {
            let near_edge = ((lx - min_lx) / span).min((max_lx - lx) / span);
            if near_edge < 0.02 {
                EXTREME_POINT_WEIGHT
            } else {
                1.0
            }
        })
        .collect();

    let coeffs = weighted_polyfit(&xs, &ys, &weights, 2)?;
    let curve = LogQuadratic {
        gamma: coeffs[0],
        beta: coeffs[1],
        alpha: coeffs[2],
    };
    let x_floor = min_lx.exp();
    Some(VisitFunction::new(zero_value.max(0.0), curve, x_floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The maximum relative error of the fitted curve over the positive
    /// samples it was fitted to.
    fn max_fit_error(fit: &VisitFunction, samples: &[(f64, f64)]) -> f64 {
        samples
            .iter()
            .filter(|&&(x, y)| x > 0.0 && y > 0.0)
            .map(|&(x, y)| (fit.eval(x) - y).abs() / y.abs().max(1e-300))
            .fold(0.0, f64::max)
    }

    fn synth_samples(alpha: f64, beta: f64, gamma: f64) -> Vec<(f64, f64)> {
        (1..=60)
            .map(|i| {
                let x = i as f64 / 60.0 * 0.4; // popularities up to 0.4
                let lx = x.ln();
                let y = (alpha * lx * lx + beta * lx + gamma).exp();
                (x, y)
            })
            .collect()
    }

    #[test]
    fn recovers_exact_log_quadratic() {
        let samples = synth_samples(0.05, 1.3, -2.0);
        let fit = fit_visit_function(&samples, 0.001).unwrap();
        let c = fit.curve();
        assert!((c.alpha - 0.05).abs() < 1e-6, "alpha {}", c.alpha);
        assert!((c.beta - 1.3).abs() < 1e-6, "beta {}", c.beta);
        assert!((c.gamma + 2.0).abs() < 1e-6, "gamma {}", c.gamma);
        assert!(max_fit_error(&fit, &samples) < 1e-6);
        assert_eq!(fit.zero_value(), 0.001);
    }

    #[test]
    fn recovers_pure_power_law() {
        // F(x) = 7 x^{0.8}: alpha = 0, beta = 0.8, gamma = ln 7.
        let samples: Vec<(f64, f64)> = (1..=40)
            .map(|i| {
                let x = i as f64 / 100.0;
                (x, 7.0 * x.powf(0.8))
            })
            .collect();
        let fit = fit_visit_function(&samples, 0.0).unwrap();
        assert!(fit.curve().alpha.abs() < 1e-6);
        assert!((fit.curve().beta - 0.8).abs() < 1e-6);
        assert!((fit.curve().gamma - 7.0_f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn ignores_non_positive_samples() {
        let mut samples = synth_samples(0.0, 1.0, 0.0);
        samples.push((0.0, 5.0));
        samples.push((-1.0, 5.0));
        samples.push((0.5, 0.0));
        samples.push((0.5, f64::NAN));
        let fit = fit_visit_function(&samples, 0.01).unwrap();
        assert!((fit.curve().beta - 1.0).abs() < 1e-6);
    }

    #[test]
    fn too_few_samples_returns_none() {
        assert!(fit_visit_function(&[(0.1, 1.0), (0.2, 2.0)], 0.0).is_none());
        assert!(fit_visit_function(&[], 0.0).is_none());
        // All samples filtered out.
        assert!(fit_visit_function(&[(0.0, 1.0), (-0.1, 1.0), (0.3, -1.0)], 0.0).is_none());
    }

    #[test]
    fn noisy_fit_stays_close() {
        // Add deterministic "noise" and confirm the fit error stays modest.
        let samples: Vec<(f64, f64)> = synth_samples(0.02, 1.1, -1.0)
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| {
                let wiggle = 1.0 + 0.02 * ((i % 5) as f64 - 2.0) / 2.0;
                (x, y * wiggle)
            })
            .collect();
        let fit = fit_visit_function(&samples, 0.0).unwrap();
        assert!(max_fit_error(&fit, &samples) < 0.05);
    }

    #[test]
    fn extreme_points_are_fit_tightly() {
        let samples = synth_samples(0.08, 1.4, -1.5);
        let fit = fit_visit_function(&samples, 0.0).unwrap();
        let (x_min, y_min) = samples[0];
        let (x_max, y_max) = *samples.last().unwrap();
        assert!((fit.eval(x_min) - y_min).abs() / y_min < 1e-4);
        assert!((fit.eval(x_max) - y_max).abs() / y_max < 1e-4);
    }
}
