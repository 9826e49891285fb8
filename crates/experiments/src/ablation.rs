//! Ablation experiments beyond the paper's figures.
//!
//! These exercise design choices called out in `DESIGN.md`:
//!
//! * [`ablation_policies`] — the full policy spectrum (fully random, quality
//!   oracle, nonrandomized, uniform, selective) on one community, putting
//!   the paper's two promotion rules in context between the degenerate
//!   extremes;
//! * [`ablation_solver_damping`] — sensitivity of the analytic fixed point
//!   to the solver's damping factor (the paper's iterative procedure does
//!   not specify one; the result should not depend on it).

use crate::options::ExperimentOptions;
use crate::report::{FigureReport, Series};
use crate::runner::SweepExecutor;
use crate::runners::solve_analytic;
use rrp_analytic::{AnalyticModel, QualityGroups, RankingModel, SolverOptions};
use rrp_model::{PowerLawQuality, SeedSequence};
use rrp_ranking::{PolicyKind, PromotionConfig, PromotionRule};
use rrp_sim::{SimConfig, Simulation};

/// Compare the full spectrum of ranking policies on the default community
/// (simulation): fully random, nonrandomized, uniform promotion, selective
/// promotion, and the quality oracle upper bound.
pub fn ablation_policies(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let seeds = SeedSequence::new(options.seed).child_sequence(90);

    let policies: Vec<(usize, &'static str)> = vec![
        (0, "Fully random"),
        (1, "No randomization"),
        (2, "Uniform (r=0.1, k=1)"),
        (3, "Selective (r=0.1, k=1)"),
        (4, "Quality oracle"),
    ];

    let executor = SweepExecutor::new("Ablation A1");
    let results = executor.run(
        policies,
        |&(_, name)| name.to_string(),
        |&(idx, name), stream| {
            let config = SimConfig::for_community(community, seeds.child_seed(stream));
            let mut sim = Simulation::new(config, build_policy(idx)).expect("valid config");
            let metrics = sim.run_windows(options.warmup_days(), options.measure_days());
            (name, metrics.normalized_qpc)
        },
    );

    let mut report = FigureReport::new(
        "Ablation A1",
        "Normalized QPC across the full ranking-policy spectrum",
        "policy index",
        "normalized QPC",
    );
    for (idx, (name, qpc)) in results.iter().enumerate() {
        report.push_series(Series::new(*name, vec![(idx as f64, *qpc)]));
    }
    report.push_note(
        "expected ordering: quality oracle ≥ selective ≥ uniform ≥ no randomization, with fully \
         random ranking far below the oracle (exploration without any exploitation)",
    );
    report
}

/// Policies are a few words of configuration, so each worker copies its own
/// instance from the ablation's policy index.
fn build_policy(index: usize) -> PolicyKind {
    match index {
        0 => PolicyKind::FullyRandom,
        1 => PolicyKind::Popularity,
        2 => PolicyKind::promotion(PromotionConfig::new(PromotionRule::Uniform, 1, 0.1).unwrap()),
        3 => PolicyKind::promotion(PromotionConfig::new(PromotionRule::Selective, 1, 0.1).unwrap()),
        _ => PolicyKind::QualityOracle,
    }
}

/// Sensitivity of the analytic fixed point to the solver damping factor.
pub fn ablation_solver_damping(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let dampings = [0.3, 0.5, 0.8, 1.0];
    let groups =
        QualityGroups::from_distribution(&PowerLawQuality::paper_default(), community.pages());

    let executor = SweepExecutor::new("Ablation A2");
    let results = executor.run(
        dampings.to_vec(),
        |&damping| format!("damping={damping}"),
        |&damping, _stream| {
            let solved = AnalyticModel::new(
                community,
                groups.clone(),
                RankingModel::Selective {
                    start_rank: 1,
                    degree: 0.1,
                },
            )
            .expect("valid model")
            .with_options(SolverOptions {
                damping,
                ..SolverOptions::default()
            })
            .solve();
            (damping, solved.normalized_qpc(), solved.converged)
        },
    );

    let baseline = solve_analytic(community, RankingModel::NonRandomized).normalized_qpc();

    let mut report = FigureReport::new(
        "Ablation A2",
        "Sensitivity of the analytic fixed point to solver damping",
        "damping factor",
        "normalized QPC (selective, r=0.1, k=1)",
    );
    report.push_series(Series::new(
        "selective (r=0.1, k=1)",
        results.iter().map(|&(d, q, _)| (d, q)).collect(),
    ));
    report.push_series(Series::new(
        "baseline (no randomization)",
        dampings.iter().map(|&d| (d, baseline)).collect(),
    ));
    let converged = results.iter().filter(|&&(_, _, c)| c).count();
    report.push_note(format!(
        "{converged}/{} damping settings reached the convergence tolerance",
        results.len()
    ));
    report.push_note("expected: the fixed-point QPC is insensitive to the damping factor");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damping_ablation_is_stable() {
        let report = ablation_solver_damping(&ExperimentOptions::tiny(2));
        let series = report
            .series
            .iter()
            .find(|s| s.name == "selective (r=0.1, k=1)")
            .unwrap();
        let values: Vec<f64> = series.points.iter().map(|&(_, q)| q).collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        assert!(min > 0.0);
        assert!(
            (max - min) / max < 0.15,
            "fixed point should not depend on damping: min {min}, max {max}"
        );
    }
}
