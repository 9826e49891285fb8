//! # rrp-analytic — the analytical model of page-popularity evolution
//!
//! Implements Section 5 of *"Shuffling a Stacked Deck"*:
//!
//! * the steady-state awareness distribution of Theorem 1
//!   ([`awareness_distribution`]);
//! * the popularity → expected-rank function `F1` (Equation 5), its
//!   promoted variant `F1'`, and the rank → visits law `F2`
//!   ([`RankComputer`]);
//! * the fixed-point iteration that resolves the circular dependence of the
//!   two, fitting `F(x)` to a quadratic in log-log space each round
//!   ([`AnalyticModel::solve`]);
//! * the evaluation metrics computed from the solved model: TBP and QPC
//!   (methods on [`SolvedModel`]), the awareness histograms of Figure 3 and
//!   the popularity-evolution curves of Figures 2 and 4(a).
//!
//! ```
//! use rrp_analytic::{AnalyticModel, QualityGroups, RankingModel};
//! use rrp_model::{CommunityConfig, PowerLawQuality};
//!
//! let community = CommunityConfig::builder()
//!     .pages(500)
//!     .users(50)
//!     .monitored_users(25)
//!     .total_visits_per_day(50.0)
//!     .build()
//!     .unwrap();
//! let groups = QualityGroups::from_distribution(&PowerLawQuality::paper_default(), 500);
//!
//! let baseline = AnalyticModel::new(community, groups.clone(), RankingModel::NonRandomized)
//!     .unwrap()
//!     .solve();
//! let promoted = AnalyticModel::new(
//!     community,
//!     groups,
//!     RankingModel::Selective { start_rank: 1, degree: 0.1 },
//! )
//! .unwrap()
//! .solve();
//!
//! // Randomized rank promotion improves amortised result quality.
//! assert!(promoted.normalized_qpc() >= baseline.normalized_qpc());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod awareness;
pub mod curvefit;
pub mod linalg;
pub mod metrics;
pub mod quality_groups;
pub mod rank_function;
pub mod solver;
pub mod visit_function;

pub use awareness::{
    awareness_chain_trajectory, awareness_distribution, awareness_trajectory,
    expected_hitting_time, time_to_awareness,
};
pub use curvefit::fit_visit_function;
pub use metrics::TBP_THRESHOLD;
pub use quality_groups::{QualityGroup, QualityGroups};
pub use rank_function::{RankComputer, RankingModel};
pub use solver::{AnalyticModel, SolvedModel, SolverOptions};
pub use visit_function::{LogQuadratic, VisitFunction};
