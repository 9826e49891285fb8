//! Figures 5–6 — quality-per-click as a function of the degree of
//! randomization and the starting rank.

use crate::options::{ExperimentOptions, Scale};
use crate::report::{FigureReport, Series};
use crate::runner::SweepExecutor;
use crate::runners::{simulate_qpc, solve_analytic};
use rrp_analytic::RankingModel;

/// Reproduce Figure 5: normalized QPC vs degree of randomization `r`
/// (holding `k = 1`) for selective and uniform promotion, from both the
/// analytic model and simulation.
pub fn figure5(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let degrees: Vec<f64> = match options.scale {
        Scale::Tiny => vec![0.0, 0.1, 0.2],
        Scale::Quick => vec![0.0, 0.05, 0.1, 0.15, 0.2],
        Scale::Full => vec![0.0, 0.02, 0.05, 0.1, 0.15, 0.2],
    };

    // Both rules degenerate to the same NonRandomized model at r = 0, so
    // that cell is swept once and shared by both curves below.
    let mut jobs = Vec::new();
    for &degree in &degrees {
        if degree == 0.0 {
            jobs.push(("Baseline", degree));
        } else {
            for rule in ["Selective", "Uniform"] {
                jobs.push((rule, degree));
            }
        }
    }
    let executor = SweepExecutor::new("Figure 5");
    let results = executor.run(
        jobs,
        |&(rule, degree)| format!("rule={rule} r={degree}"),
        |&(rule, degree), stream| {
            let model = match rule {
                "Baseline" => RankingModel::NonRandomized,
                "Selective" => RankingModel::Selective {
                    start_rank: 1,
                    degree,
                },
                _ => RankingModel::Uniform {
                    start_rank: 1,
                    degree,
                },
            };
            let analytic = solve_analytic(community, model).normalized_qpc();
            let sim = simulate_qpc(community, model, 0.0, options, stream).normalized_qpc;
            (rule, degree, analytic, sim)
        },
    );

    let mut report = FigureReport::new(
        "Figure 5",
        "Quality-per-click for the default Web community vs degree of randomization",
        "degree of randomization (r)",
        "normalized QPC",
    );
    for rule in ["Selective", "Uniform"] {
        // Each curve includes the shared r = 0 baseline cell. Results come
        // back in input order, which is ascending in degree.
        let analysis: Vec<(f64, f64)> = results
            .iter()
            .filter(|&&(r, ..)| r == rule || r == "Baseline")
            .map(|&(_, d, a, _)| (d, a))
            .collect();
        let simulation: Vec<(f64, f64)> = results
            .iter()
            .filter(|&&(r, ..)| r == rule || r == "Baseline")
            .map(|&(_, d, _, s)| (d, s))
            .collect();
        report.push_series(Series::new(format!("{rule} (analysis)"), analysis));
        report.push_series(Series::new(format!("{rule} (simulation)"), simulation));
    }
    report.push_note(
        "paper expectation: a moderate dose of randomization increases QPC substantially, and \
         selective promotion outperforms uniform promotion",
    );
    report
}

/// Reproduce Figure 6: normalized QPC under selective randomized promotion
/// as both the degree of randomization `r` and the starting rank `k` vary
/// (simulation, as in the paper).
pub fn figure6(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let degrees: Vec<f64> = match options.scale {
        Scale::Tiny => vec![0.0, 0.5, 1.0],
        Scale::Quick => vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        Scale::Full => vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    };
    let start_ranks: Vec<usize> = match options.scale {
        Scale::Tiny => vec![1, 21],
        Scale::Quick | Scale::Full => vec![1, 2, 6, 11, 21],
    };

    let mut jobs = Vec::new();
    for &k in &start_ranks {
        for &degree in &degrees {
            jobs.push((k, degree));
        }
    }
    let executor = SweepExecutor::new("Figure 6");
    let results = executor.run(
        jobs,
        |&(k, degree)| format!("k={k} r={degree}"),
        |&(k, degree), stream| {
            let model = if degree == 0.0 {
                RankingModel::NonRandomized
            } else {
                RankingModel::Selective {
                    start_rank: k,
                    degree,
                }
            };
            let qpc = simulate_qpc(community, model, 0.0, options, stream).normalized_qpc;
            (k, degree, qpc)
        },
    );

    let mut report = FigureReport::new(
        "Figure 6",
        "Quality-per-click under selective randomized promotion as r and k vary",
        "degree of randomization (r)",
        "normalized QPC",
    );
    for &k in &start_ranks {
        let points: Vec<(f64, f64)> = results
            .iter()
            .filter(|&&(rk, ..)| rk == k)
            .map(|&(_, d, q)| (d, q))
            .collect();
        report.push_series(Series::new(format!("k={k}"), points));
    }
    report.push_note(
        "paper expectation: for small k, around 10% randomization captures most of the benefit; \
         larger k needs larger r to reach the same QPC; very large r erodes quality again",
    );
    report
        .push_note("paper recommendation (Section 6.4): selective promotion, r = 0.1, k ∈ {1, 2}");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_produces_analysis_and_simulation_series() {
        let report = figure5(&ExperimentOptions::tiny(5));
        assert_eq!(report.series.len(), 4);
        for series in &report.series {
            assert_eq!(series.points.len(), 3, "one point per degree");
            for &(r, qpc) in &series.points {
                assert!((0.0..=0.2).contains(&r));
                assert!(qpc > 0.0 && qpc <= 1.05, "QPC {qpc} out of range");
            }
        }
        // The analytic model is deterministic and shows the paper's
        // direction even at tiny scale: more randomization, better QPC.
        let analytic = report
            .series
            .iter()
            .find(|s| s.name == "Selective (analysis)")
            .unwrap();
        assert!(analytic.y_at(0.2).unwrap() >= analytic.y_at(0.0).unwrap());
        // Note: the *simulated* comparison is intentionally not asserted at
        // tiny scale (m = 4 monitored users is outside the entrenchment
        // regime); it is covered by the Quick-scale integration test and
        // the bench harness.
    }
}
