//! # rrp-model — domain model for randomized rank promotion
//!
//! This crate is the foundation of the `rrp` workspace, a reproduction of
//! *"Shuffling a Stacked Deck: The Case for Partially Randomized Ranking of
//! Search Engine Results"* (Pandey, Roy, Olston, Cho, Chakrabarti, 2005).
//! It contains the vocabulary shared by every other crate:
//!
//! * [`PageId`] — the page identifier newtype;
//! * [`Quality`], [`Awareness`], [`Popularity`] — the unit-interval scalars
//!   of the paper's popularity model `P(p,t) = A(p,t) · Q(p)` (Equation 1);
//! * [`CommunityConfig`] — the community characteristics of Table 1 /
//!   Section 6.1 (`n`, `u`, `m`, `v_u`, `v`, `l`);
//! * [`LifetimeModel`] — Poisson page birth/death (Section 5.1);
//! * quality distributions ([`PowerLawQuality`] et al.) — Section 6.1;
//! * [`Day`] / [`SimClock`] — discrete time;
//! * [`seed`] — deterministic RNG plumbing for reproducible experiments.
//!
//! ## Notation (Table 1 of the paper)
//!
//! | symbol | meaning | here |
//! |---|---|---|
//! | `P`, `n = \|P\|` | pages in the community | [`CommunityConfig::pages`] |
//! | `U`, `u = \|U\|` | users in the community | [`CommunityConfig::users`] |
//! | `U_m`, `m` | monitored users | [`CommunityConfig::monitored_users`] |
//! | `P(p, t)` | popularity among monitored users | [`Popularity`] |
//! | `V_u(p, t)` | user visits to `p` per unit time | `rrp-attention` / `rrp-sim` |
//! | `V(p, t)` | monitored-user visits to `p` per unit time | `rrp-attention` / `rrp-sim` |
//! | `v_u` | total user visits per unit time | [`CommunityConfig::total_visits_per_day`] |
//! | `v` | monitored visits per unit time | [`CommunityConfig::monitored_visits_per_day`] |
//! | `A(p, t)` | awareness among monitored users | [`Awareness`] |
//! | `Q(p)` | intrinsic page quality | [`Quality`] |
//! | `l` | expected page lifetime | [`CommunityConfig::expected_lifetime_days`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod community;
pub mod distribution;
pub mod error;
pub mod ids;
pub mod lifetime;
pub mod scalar;
pub mod seed;
pub mod time;

pub use community::{CommunityConfig, CommunityConfigBuilder};
pub use distribution::{
    assign_qualities, sample_qualities, ConstantQuality, PowerLawQuality, QualityDistribution,
    UniformQuality, ZipfQuality,
};
pub use error::{ModelError, ModelResult};
pub use ids::{PageId, PageIdGenerator};
pub use lifetime::LifetimeModel;
pub use scalar::{popularity, Awareness, Popularity, Quality};
pub use seed::{new_rng, splitmix64, Rng64, SeedSequence};
pub use time::{years_to_days, Day, SimClock, DAYS_PER_YEAR};
