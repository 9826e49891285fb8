//! The popularity → visit-rate function `F(x)` and its log-log quadratic
//! representation.
//!
//! Section 5.3 of the paper finds that, across all the scenarios it tested,
//! the fixed point `F(x)` of the ranking/attention feedback loop "can be fit
//! quite accurately to a quadratic curve in log-log space":
//!
//! ```text
//! log F(x) = α · (log x)² + β · log x + γ          (x > 0)
//! ```
//!
//! Popularity 0 needs special handling (the logarithm is undefined and the
//! paper handles the `x = 0` case of the rank function separately), so
//! [`VisitFunction`] stores the value `F(0)` explicitly alongside the
//! curve.

/// Coefficients of `log F = α (log x)² + β log x + γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogQuadratic {
    /// Coefficient of `(log x)²`.
    pub alpha: f64,
    /// Coefficient of `log x`.
    pub beta: f64,
    /// Constant term.
    pub gamma: f64,
}

impl LogQuadratic {
    /// Evaluate the curve at popularity `x > 0`.
    pub fn eval(&self, x: f64) -> f64 {
        debug_assert!(x > 0.0, "log-quadratic curve is only defined for x > 0");
        let lx = x.ln();
        (self.alpha * lx * lx + self.beta * lx + self.gamma).exp()
    }
}

/// The popularity → expected-monitored-visits function `F(x)` of Equation 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitFunction {
    /// Value at zero popularity, `F(0)`.
    zero_value: f64,
    /// Log-log quadratic curve used for `x ≥ x_floor`.
    curve: LogQuadratic,
    /// Popularities below this threshold (but positive) evaluate the curve
    /// at the threshold instead, preventing wild extrapolation of the
    /// quadratic far outside the fitted range.
    x_floor: f64,
}

impl VisitFunction {
    /// Build a visit function from its parts.
    pub fn new(zero_value: f64, curve: LogQuadratic, x_floor: f64) -> Self {
        assert!(zero_value >= 0.0, "F(0) must be non-negative");
        assert!(x_floor > 0.0, "x_floor must be positive");
        VisitFunction {
            zero_value,
            curve,
            x_floor,
        }
    }

    /// A constant function `F(x) = value` for every popularity. Used as the
    /// seed of the fixed-point iteration and in unit tests.
    pub fn constant(value: f64) -> Self {
        assert!(value > 0.0, "constant visit rate must be positive");
        VisitFunction {
            zero_value: value,
            // α = 0, β = 0, γ = ln(value) ⇒ F(x) = value for all x.
            curve: LogQuadratic {
                alpha: 0.0,
                beta: 0.0,
                gamma: value.ln(),
            },
            x_floor: 1e-12,
        }
    }

    /// Evaluate `F(x)` for a popularity `x ∈ [0, 1]`.
    pub fn eval(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return self.zero_value;
        }
        self.curve.eval(x.max(self.x_floor))
    }

    /// The stored value of `F(0)`.
    pub fn zero_value(&self) -> f64 {
        self.zero_value
    }

    /// The fitted log-log quadratic curve.
    pub fn curve(&self) -> LogQuadratic {
        self.curve
    }

    /// The extrapolation floor.
    pub fn x_floor(&self) -> f64 {
        self.x_floor
    }

    /// Maximum relative difference between `self` and `other` over the
    /// sample popularities `xs` (used as the fixed-point convergence test).
    pub fn max_relative_difference(&self, other: &VisitFunction, xs: &[f64]) -> f64 {
        let mut worst = relative_difference(self.zero_value, other.zero_value);
        for &x in xs {
            let d = relative_difference(self.eval(x), other.eval(x));
            if d > worst {
                worst = d;
            }
        }
        worst
    }
}

/// Symmetric relative difference `|a − b| / max(|a|, |b|, tiny)`.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `log F = log x`: the curve `F(x) = x`.
    const IDENTITY: LogQuadratic = LogQuadratic {
        alpha: 0.0,
        beta: 1.0,
        gamma: 0.0,
    };

    #[test]
    fn constant_function_is_flat() {
        let f = VisitFunction::constant(2.5);
        assert_eq!(f.eval(0.0), 2.5);
        assert!((f.eval(1e-6) - 2.5).abs() < 1e-9);
        assert!((f.eval(0.5) - 2.5).abs() < 1e-9);
        assert!((f.eval(1.0) - 2.5).abs() < 1e-9);
        assert_eq!(f.zero_value(), 2.5);
    }

    #[test]
    fn linear_function_scales() {
        // `log F = log x + ln(scale)` is the line `F(x) = scale · x`.
        let line = LogQuadratic {
            gamma: 10.0f64.ln(),
            ..IDENTITY
        };
        let f = VisitFunction::new(0.01, line, 1e-12);
        assert!((f.eval(0.5) - 5.0).abs() < 1e-9);
        assert!((f.eval(1.0) - 10.0).abs() < 1e-9);
        assert_eq!(f.eval(0.0), 0.01);
    }

    #[test]
    fn log_quadratic_matches_hand_computation() {
        let curve = LogQuadratic {
            alpha: 0.1,
            beta: 1.2,
            gamma: -0.5,
        };
        let x: f64 = 0.3;
        let lx = x.ln();
        let expected = (0.1 * lx * lx + 1.2 * lx - 0.5).exp();
        assert!((curve.eval(x) - expected).abs() < 1e-12);
        let f = VisitFunction::new(0.001, curve, 1e-9);
        assert!((f.eval(x) - expected).abs() < 1e-12);
        assert_eq!(f.curve(), curve);
        assert_eq!(f.x_floor(), 1e-9);
    }

    #[test]
    fn floor_prevents_extrapolation_blowup() {
        // A curve with positive alpha explodes as x -> 0; the floor caps it.
        let curve = LogQuadratic {
            alpha: 0.5,
            beta: 0.0,
            gamma: 0.0,
        };
        let f = VisitFunction::new(0.1, curve, 1e-3);
        assert_eq!(f.eval(1e-9), f.eval(1e-3));
        assert!(f.eval(1e-9).is_finite());
        // Without the floor the curve would be astronomically larger at 1e-9.
        assert!(f.eval(1e-9) < curve.eval(1e-9));
    }

    #[test]
    fn zero_and_negative_popularity_use_zero_value() {
        let f = VisitFunction::new(0.07, IDENTITY, 1e-12);
        assert_eq!(f.eval(0.0), 0.07);
        assert_eq!(f.eval(-0.5), 0.07);
    }

    #[test]
    fn relative_difference_properties() {
        assert_eq!(relative_difference(1.0, 1.0), 0.0);
        assert!((relative_difference(1.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert!((relative_difference(0.0, 3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_relative_difference_over_samples() {
        let a = VisitFunction::constant(1.0);
        let b = VisitFunction::new(1.0, IDENTITY, 1e-12);
        // At x = 1 both are 1; at x = 0.5 they differ by 50%.
        let d = a.max_relative_difference(&b, &[1.0, 0.5]);
        assert!((d - 0.5).abs() < 1e-9);
        let zero = a.max_relative_difference(&a, &[0.1, 0.9]);
        assert_eq!(zero, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn constant_must_be_positive() {
        VisitFunction::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_zero_value_rejected() {
        VisitFunction::new(
            -1.0,
            LogQuadratic {
                alpha: 0.0,
                beta: 0.0,
                gamma: 0.0,
            },
            1e-6,
        );
    }
}
