//! # rrp-attention — the user-attention model
//!
//! Implements the rank-bias side of the paper's popularity model
//! (Section 5.3): the empirical AltaVista law `F2(rank) = θ · rank^(-3/2)`
//! that maps a result-list position to an expected number of user visits.
//! The simulator spreads a day's visit budget over a ranking with
//! [`RankBias::visits_by_rank`]: each rank receives its expected visits,
//! as in the paper's own simulator (Section 6.2).
//!
//! * [`RankBias`] — the `θ · rank^(-s)` family, normalised to a visit
//!   budget ([`RankBias::altavista`] is the paper's law with `s = 3/2`).
//! * [`generalized_harmonic`] — the normalising sums `Σ i^(-s)`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harmonic;
pub mod view_probability;

pub use harmonic::generalized_harmonic;
pub use view_probability::{RankBias, ALTAVISTA_EXPONENT};
