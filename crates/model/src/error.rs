//! Error types shared by the whole `rrp` workspace.
//!
//! The model crate sits at the bottom of the dependency graph, so the error
//! type defined here is re-used (via `From` conversions or directly) by the
//! attention, ranking, analytic and simulation crates.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced when constructing or validating model values.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A value that must lie in the closed unit interval `[0, 1]` did not.
    OutOfUnitInterval {
        /// Human-readable name of the quantity (e.g. `"quality"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A value that must be strictly positive was zero or negative.
    NonPositive {
        /// Human-readable name of the quantity.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A count that must be non-zero was zero.
    ZeroCount {
        /// Human-readable name of the count (e.g. `"pages"`).
        what: &'static str,
    },
    /// A value was not finite (NaN or infinite).
    NotFinite {
        /// Human-readable name of the quantity.
        what: &'static str,
    },
    /// A community configuration violated a structural constraint,
    /// e.g. more monitored users than users.
    InvalidCommunity {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A distribution parameter was invalid (e.g. a non-positive power-law
    /// exponent).
    InvalidDistribution {
        /// Description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::OutOfUnitInterval { what, value } => {
                write!(f, "{what} must lie in [0, 1], got {value}")
            }
            ModelError::NonPositive { what, value } => {
                write!(f, "{what} must be strictly positive, got {value}")
            }
            ModelError::ZeroCount { what } => {
                write!(f, "{what} must be non-zero")
            }
            ModelError::NotFinite { what } => {
                write!(f, "{what} must be a finite number")
            }
            ModelError::InvalidCommunity { reason } => {
                write!(f, "invalid community configuration: {reason}")
            }
            ModelError::InvalidDistribution { reason } => {
                write!(f, "invalid distribution parameters: {reason}")
            }
        }
    }
}

impl StdError for ModelError {}

/// Convenience alias used throughout the model crate.
pub type ModelResult<T> = Result<T, ModelError>;

/// Validate that `value` is finite and inside `[0, 1]`.
///
/// Returns the value unchanged on success so it can be used in a
/// constructor chain.
pub fn ensure_unit_interval(what: &'static str, value: f64) -> ModelResult<f64> {
    if !value.is_finite() {
        return Err(ModelError::NotFinite { what });
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(ModelError::OutOfUnitInterval { what, value });
    }
    Ok(value)
}

/// Validate that `value` is finite and strictly positive.
pub fn ensure_positive(what: &'static str, value: f64) -> ModelResult<f64> {
    if !value.is_finite() {
        return Err(ModelError::NotFinite { what });
    }
    if value <= 0.0 {
        return Err(ModelError::NonPositive { what, value });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_interval_accepts_bounds() {
        assert_eq!(ensure_unit_interval("x", 0.0), Ok(0.0));
        assert_eq!(ensure_unit_interval("x", 1.0), Ok(1.0));
        assert_eq!(ensure_unit_interval("x", 0.5), Ok(0.5));
    }

    #[test]
    fn unit_interval_rejects_outside() {
        assert!(matches!(
            ensure_unit_interval("x", -0.01),
            Err(ModelError::OutOfUnitInterval { .. })
        ));
        assert!(matches!(
            ensure_unit_interval("x", 1.01),
            Err(ModelError::OutOfUnitInterval { .. })
        ));
    }

    #[test]
    fn unit_interval_rejects_nan_and_inf() {
        assert!(matches!(
            ensure_unit_interval("x", f64::NAN),
            Err(ModelError::NotFinite { .. })
        ));
        assert!(matches!(
            ensure_unit_interval("x", f64::INFINITY),
            Err(ModelError::NotFinite { .. })
        ));
    }

    #[test]
    fn positive_rejects_zero_and_negative() {
        assert!(ensure_positive("x", 1e-12).is_ok());
        assert!(matches!(
            ensure_positive("x", 0.0),
            Err(ModelError::NonPositive { .. })
        ));
        assert!(matches!(
            ensure_positive("x", -3.0),
            Err(ModelError::NonPositive { .. })
        ));
    }

    #[test]
    fn display_messages_mention_the_quantity() {
        let err = ensure_unit_interval("quality", 2.0).unwrap_err();
        assert!(err.to_string().contains("quality"));
        let err = ensure_positive("lifetime", -1.0).unwrap_err();
        assert!(err.to_string().contains("lifetime"));
        let err = ModelError::InvalidCommunity {
            reason: "monitored users exceed users".into(),
        };
        assert!(err.to_string().contains("monitored users exceed users"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: StdError>() {}
        assert_err::<ModelError>();
    }
}
