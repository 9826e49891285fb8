//! Unit-interval scalar newtypes: [`Quality`], [`Awareness`] and
//! [`Popularity`].
//!
//! The paper's popularity model (Section 3.1) couples three quantities that
//! all live in `[0, 1]`:
//!
//! * **Quality** `Q(p)` — the extent to which an average user would "like"
//!   page `p` if she were aware of it (Definition via Equation 1).
//! * **Awareness** `A(p, t)` — the fraction of monitored users who have
//!   visited `p` at least once by time `t` (Definition 3.2).
//! * **Popularity** `P(p, t) = A(p, t) · Q(p)` (Equation 1).
//!
//! Each quantity gets its own newtype so that, for example, a quality value
//! can never be accidentally passed where an awareness value is expected.
//! All three validate their range on construction and are `Copy`.

use crate::error::{ensure_unit_interval, ModelError, ModelResult};
use std::cmp::Ordering;
use std::fmt;

macro_rules! unit_scalar {
    ($(#[$doc:meta])* $name:ident, $label:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name(f64);

        impl $name {
            /// The smallest admissible value, `0.0`.
            pub const ZERO: $name = $name(0.0);

            /// Construct a validated value; errors unless `value ∈ [0, 1]`
            /// and finite.
            pub fn new(value: f64) -> ModelResult<Self> {
                ensure_unit_interval($label, value).map($name)
            }

            /// Construct a value, clamping into `[0, 1]`.
            ///
            /// NaN clamps to `0.0`. Useful at the end of floating-point
            /// update rules where tiny negative values or values a hair
            /// above `1.0` can appear from rounding.
            pub fn clamped(value: f64) -> Self {
                if value.is_nan() {
                    $name(0.0)
                } else {
                    $name(value.clamp(0.0, 1.0))
                }
            }

            /// The raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6}", self.0)
            }
        }

        impl Eq for $name {}

        // Total order is well defined because construction rejects NaN.
        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> Ordering {
                self.0
                    .partial_cmp(&other.0)
                    .expect("unit scalars are never NaN")
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl TryFrom<f64> for $name {
            type Error = ModelError;
            fn try_from(value: f64) -> ModelResult<Self> {
                $name::new(value)
            }
        }

        impl From<$name> for f64 {
            fn from(v: $name) -> f64 {
                v.0
            }
        }
    };
}

unit_scalar!(
    /// Intrinsic page quality `Q(p) ∈ [0, 1]`: the probability that an
    /// average user would "like" the page if made aware of it.
    Quality,
    "quality"
);

unit_scalar!(
    /// Awareness `A(p, t) ∈ [0, 1]`: the fraction of monitored users who
    /// have visited the page at least once by time `t`.
    Awareness,
    "awareness"
);

unit_scalar!(
    /// Popularity `P(p, t) ∈ [0, 1]`, defined as `A(p, t) · Q(p)`
    /// (Equation 1 of the paper).
    Popularity,
    "popularity"
);

impl Quality {
    /// The default maximum quality used in the paper's evaluation
    /// (Section 6.1): the quality of the single best page is 0.4, chosen
    /// from the fraction of Internet users who frequent the most popular
    /// portal site.
    pub const PAPER_MAX: Quality = Quality(0.4);
}

impl Popularity {
    /// Popularity is the product of awareness and quality (Equation 1).
    pub fn from_awareness_and_quality(awareness: Awareness, quality: Quality) -> Self {
        // Both factors are in [0,1] so the product is too; no clamping
        // needed beyond guarding rounding.
        Popularity::clamped(awareness.value() * quality.value())
    }
}

/// Compute popularity from awareness and quality (free-function form of
/// [`Popularity::from_awareness_and_quality`], convenient in iterator
/// chains).
pub fn popularity(awareness: Awareness, quality: Quality) -> Popularity {
    Popularity::from_awareness_and_quality(awareness, quality)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_range() {
        assert!(Quality::new(0.0).is_ok());
        assert!(Quality::new(1.0).is_ok());
        assert!(Quality::new(-0.1).is_err());
        assert!(Quality::new(1.1).is_err());
        assert!(Quality::new(f64::NAN).is_err());
        assert!(Awareness::new(0.3).is_ok());
        assert!(Popularity::new(2.0).is_err());
    }

    #[test]
    fn clamped_never_fails() {
        assert_eq!(Quality::clamped(-3.0).value(), 0.0);
        assert_eq!(Quality::clamped(3.0).value(), 1.0);
        assert_eq!(Quality::clamped(f64::NAN).value(), 0.0);
        assert_eq!(Quality::clamped(0.25).value(), 0.25);
    }

    #[test]
    fn popularity_is_product_of_awareness_and_quality() {
        let a = Awareness::new(0.5).unwrap();
        let q = Quality::new(0.4).unwrap();
        let p = Popularity::from_awareness_and_quality(a, q);
        assert!((p.value() - 0.2).abs() < 1e-12);
        assert_eq!(p, popularity(a, q));
    }

    #[test]
    fn popularity_of_zero_awareness_is_zero() {
        let p = popularity(Awareness::ZERO, Quality::PAPER_MAX);
        assert_eq!(p.value(), 0.0);
    }

    #[test]
    fn popularity_never_exceeds_quality() {
        let q = Quality::new(0.7).unwrap();
        for i in 0..=10 {
            let a = Awareness::new(i as f64 / 10.0).unwrap();
            assert!(popularity(a, q) <= Popularity::new(q.value()).unwrap());
        }
    }

    #[test]
    fn ordering_is_total_and_by_value() {
        let mut v = [
            Quality::new(0.9).unwrap(),
            Quality::new(0.1).unwrap(),
            Quality::new(0.5).unwrap(),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|q| q.value()).collect::<Vec<_>>(),
            vec![0.1, 0.5, 0.9]
        );
        assert!(Quality::ZERO < Quality::PAPER_MAX);
    }

    #[test]
    fn conversions() {
        let q = Quality::try_from(0.3).unwrap();
        let raw: f64 = q.into();
        assert_eq!(raw, 0.3);
        assert!(Quality::try_from(1.5).is_err());
    }

    #[test]
    fn display_is_fixed_precision() {
        assert_eq!(Quality::PAPER_MAX.to_string(), "0.400000");
    }
}
