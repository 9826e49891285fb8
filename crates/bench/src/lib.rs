//! # rrp-bench — benchmark harness
//!
//! Two kinds of targets:
//!
//! * **Figure benches** (`fig*_*.rs`, `ablation_*.rs`) — each regenerates
//!   one figure of the paper via `rrp-experiments` and prints the resulting
//!   table, so `cargo bench` reproduces the paper's evaluation end to end.
//!   They run at Quick scale by default; set `RRP_FULL_SWEEP=1` for the
//!   paper's own community sizes.
//! * **Criterion micro-benchmarks** (`micro.rs`) — throughput of the
//!   building blocks (re-ranking, a simulated day, the analytic solver).

use rrp_experiments::{all_figures, ExperimentOptions, FigureReport};
use std::time::Instant;

/// Run the figure driver registered under `id`, print its report (markdown)
/// together with the wall-clock time, and return it.
///
/// # Panics
/// Panics if `id` does not match any registered figure, or if
/// `RRP_FULL_SWEEP` or `RRP_SEED` holds a malformed value
/// ([`ExperimentOptions::from_env`]).
pub fn run_figure(id: &str) -> FigureReport {
    let options = ExperimentOptions::from_env();
    let (_, driver) = all_figures()
        .into_iter()
        .find(|(figure_id, _)| *figure_id == id)
        .unwrap_or_else(|| panic!("unknown figure id {id:?}"));
    let start = Instant::now();
    let report = driver(&options);
    let elapsed = start.elapsed();
    println!("{}", report.to_markdown());
    println!(
        "_regenerated in {:.1} s at {:?} scale (seed {})_\n",
        elapsed.as_secs_f64(),
        options.scale,
        options.seed
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_figure_panics() {
        run_figure("Figure 99");
    }
}
