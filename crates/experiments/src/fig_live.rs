//! Figure 1 — the live "jokes site" study: funny-vote ratio without vs with
//! rank promotion.

use crate::options::{ExperimentOptions, Scale};
use crate::report::{FigureReport, Series};
use crate::runner::SweepExecutor;
use rrp_livestudy::{LiveStudy, StudyConfig};
use rrp_model::SeedSequence;

/// Reproduce Figure 1: the ratio of funny votes to total votes over the
/// final 15 days of the study, for the control group (strict ranking by
/// popularity) and the treatment group (never-viewed items promoted in
/// random order starting at rank 21).
///
/// The paper reports the treatment ratio ≈ 60% higher than the control.
pub fn figure1(options: &ExperimentOptions) -> FigureReport {
    let seeds = SeedSequence::new(options.seed).child_sequence(1);
    // The live study itself is small (1,000 items, 962 volunteers, 45 days),
    // so every scale runs the paper's actual configuration; only the number
    // of averaged repetitions differs.
    let repetitions = match options.scale {
        Scale::Tiny => 3,
        Scale::Quick => 6,
        Scale::Full => 12,
    };

    let executor = SweepExecutor::new("Figure 1");
    let outcomes = executor.run(
        (0..repetitions).collect(),
        |rep| format!("repetition={rep}"),
        |_, stream| {
            let config = StudyConfig::paper_default(seeds.child_seed(stream));
            let outcome = LiveStudy::new(config)
                .expect("study configuration is valid")
                .run();
            (outcome.control.ratio(), outcome.promoted.ratio())
        },
    );
    let mut control = 0.0;
    let mut promoted = 0.0;
    for (control_ratio, promoted_ratio) in &outcomes {
        control += control_ratio / repetitions as f64;
        promoted += promoted_ratio / repetitions as f64;
    }
    let improvement = if control > 0.0 {
        promoted / control - 1.0
    } else {
        0.0
    };

    let mut report = FigureReport::new(
        "Figure 1",
        "Improvement in overall quality due to rank promotion in the live study",
        "group (0 = without promotion, 1 = with promotion)",
        "ratio of funny votes",
    );
    report.push_series(Series::new(
        "funny-vote ratio",
        vec![(0.0, control), (1.0, promoted)],
    ));
    report.push_series(Series::new(
        "relative improvement",
        vec![(1.0, improvement)],
    ));
    report.push_note(format!(
        "measured over {repetitions} simulated studies; promotion improves the ratio by {:.1}%",
        improvement * 100.0
    ));
    report.push_note(
        "paper expectation: the with-promotion ratio is ≈ 60% larger than without promotion",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shows_an_improvement() {
        let report = figure1(&ExperimentOptions::tiny(7));
        let ratios = report
            .series
            .iter()
            .find(|s| s.name == "funny-vote ratio")
            .unwrap();
        let without = ratios.y_at(0.0).unwrap();
        let with = ratios.y_at(1.0).unwrap();
        assert!(without > 0.0 && without < 1.0);
        assert!(with > 0.0 && with < 1.0);
        assert!(
            with > without,
            "promotion should improve the ratio: {with} vs {without}"
        );
        assert!(report.to_markdown().contains("Figure 1"));
    }
}
