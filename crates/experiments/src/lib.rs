//! # rrp-experiments — regenerating every figure of the paper
//!
//! One driver per figure of *"Shuffling a Stacked Deck"*. Each driver takes
//! [`ExperimentOptions`] (scale + seed) and returns a [`FigureReport`] —
//! named data series plus notes recording the paper's qualitative
//! expectation — which renders to markdown or CSV.
//!
//! | driver | paper figure |
//! |---|---|
//! | [`figure1`]  | Figure 1 — live-study funny-vote ratio |
//! | [`figure2`]  | Figure 2 — exploration/exploitation tradeoff |
//! | [`figure3`]  | Figure 3 — steady-state awareness distribution |
//! | [`figure4a`] | Figure 4(a) — popularity evolution |
//! | [`figure4b`] | Figure 4(b) — TBP vs degree of randomization |
//! | [`figure5`]  | Figure 5 — QPC vs degree of randomization |
//! | [`figure6`]  | Figure 6 — QPC vs (r, k) |
//! | [`figure7a`]–[`figure7d`] | Figure 7 — robustness across community types |
//! | [`figure8`]  | Figure 8 — mixed surfing and searching |
//! | [`ablation_policies`], [`ablation_solver_damping`] | additional ablations |
//!
//! The benchmark harness (`crates/bench`) calls these drivers — one bench
//! target per figure — and prints the reports, so `cargo bench` regenerates
//! the paper's evaluation end to end. Set `RRP_FULL_SWEEP=1` for the paper's
//! full community sizes and sweep ranges.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod fig_live;
pub mod fig_mixed;
pub mod fig_qpc;
pub mod fig_robustness;
pub mod fig_tradeoff;
pub mod options;
pub mod report;
pub mod runner;
pub mod runners;
pub mod sweep;

pub use ablation::{ablation_policies, ablation_solver_damping};
pub use fig_live::figure1;
pub use fig_mixed::figure8;
pub use fig_qpc::{figure5, figure6};
pub use fig_robustness::{figure7a, figure7b, figure7c, figure7d};
pub use fig_tradeoff::{figure2, figure3, figure4a, figure4b};
pub use options::{ExperimentOptions, Scale};
pub use report::{FigureReport, Series};
pub use runner::SweepExecutor;
// Drivers go through `SweepExecutor`, which owns per-cell stream
// derivation, never through the sweep helpers directly.
pub use sweep::{parallel_map_with_workers, worker_threads};

/// A figure driver: options in, reproduced figure out.
pub type FigureDriver = fn(&ExperimentOptions) -> FigureReport;

/// Every figure driver, paired with its identifier, in paper order. Useful
/// for "run everything" binaries and for the EXPERIMENTS.md generator.
pub fn all_figures() -> Vec<(&'static str, FigureDriver)> {
    vec![
        ("Figure 1", figure1 as FigureDriver),
        ("Figure 2", figure2),
        ("Figure 3", figure3),
        ("Figure 4(a)", figure4a),
        ("Figure 4(b)", figure4b),
        ("Figure 5", figure5),
        ("Figure 6", figure6),
        ("Figure 7(a)", figure7a),
        ("Figure 7(b)", figure7b),
        ("Figure 7(c)", figure7c),
        ("Figure 7(d)", figure7d),
        ("Figure 8", figure8),
        ("Ablation A1", ablation_policies),
        ("Ablation A2", ablation_solver_damping),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_lists_every_paper_figure() {
        let figures = all_figures();
        assert_eq!(figures.len(), 14);
        let ids: Vec<&str> = figures.iter().map(|(id, _)| *id).collect();
        for expected in [
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4(a)",
            "Figure 4(b)",
            "Figure 5",
            "Figure 6",
            "Figure 7(a)",
            "Figure 7(b)",
            "Figure 7(c)",
            "Figure 7(d)",
            "Figure 8",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
    }
}
