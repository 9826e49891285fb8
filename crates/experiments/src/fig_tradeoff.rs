//! Figures 2–4 — the exploration/exploitation tradeoff, the steady-state
//! awareness distribution, popularity evolution, and time-to-become-popular.

use crate::options::{ExperimentOptions, Scale};
use crate::report::{FigureReport, Series};
use crate::runner::SweepExecutor;
use crate::runners::{build_simulation, simulate_tbp, solve_analytic};
use rrp_analytic::RankingModel;
use rrp_model::SeedSequence;

/// Downsample a per-day curve to at most ~60 points so reports stay
/// readable, always keeping the first and last day.
fn downsample(curve: &[f64]) -> Vec<(f64, f64)> {
    let n = curve.len();
    if n == 0 {
        return Vec::new();
    }
    let step = (n / 60).max(1);
    let mut points: Vec<(f64, f64)> = curve
        .iter()
        .enumerate()
        .filter(|(i, _)| i % step == 0)
        .map(|(i, &y)| (i as f64, y))
        .collect();
    if points.last().map(|&(x, _)| x as usize) != Some(n - 1) {
        points.push(((n - 1) as f64, curve[n - 1]));
    }
    points
}

/// Reproduce Figure 2: the visit rate of a freshly created high-quality page
/// over its lifetime, with and without rank promotion (simulation). The area
/// between the curves before the crossover is the exploration benefit; after
/// it, the exploitation loss.
pub fn figure2(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let days = match options.scale {
        Scale::Tiny => 200,
        Scale::Quick | Scale::Full => 550,
    };
    let seeds = SeedSequence::new(options.seed).child_sequence(2);

    let models = [
        ("without rank promotion", RankingModel::NonRandomized),
        (
            "with rank promotion",
            RankingModel::Selective {
                start_rank: 1,
                degree: 0.2,
            },
        ),
    ];
    let executor = SweepExecutor::new("Figure 2");
    let traces = executor.run(
        models.to_vec(),
        |(name, _)| (*name).to_string(),
        |(name, model), stream| {
            let mut sim = build_simulation(community, *model, 0.0, seeds.child_seed(stream));
            sim.run(options.warmup_days());
            let trace = sim.trace_fresh_best_page(days);
            (name.to_string(), trace)
        },
    );

    let mut report = FigureReport::new(
        "Figure 2",
        "Exploration/exploitation tradeoff: visit rate of a new high-quality page",
        "day since page creation",
        "monitored visits per day",
    );
    for (name, trace) in traces {
        report.push_series(Series::new(name, downsample(&trace.daily_visits)));
    }
    report.push_note(format!(
        "community: {} pages, quality-0.4 probe page, selective promotion r=0.2, k=1",
        community.pages()
    ));
    report.push_note(
        "paper expectation: with promotion the page starts receiving visits much earlier \
         (exploration benefit); once popular it receives slightly fewer visits than without \
         promotion (exploitation loss)",
    );
    report
}

/// Reproduce Figure 3: steady-state awareness distribution of the
/// highest-quality pages under nonrandomized ranking and under selective
/// randomized promotion (r = 0.2, k = 1), from the analytic model.
pub fn figure3(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let models = [
        ("No randomization", RankingModel::NonRandomized),
        (
            "Selective randomization (r=0.2, k=1)",
            RankingModel::Selective {
                start_rank: 1,
                degree: 0.2,
            },
        ),
    ];

    let mut report = FigureReport::new(
        "Figure 3",
        "Awareness distribution of pages of high quality",
        "awareness",
        "probability",
    );
    let solved = SweepExecutor::new("Figure 3").run(
        models.to_vec(),
        |(name, _)| (*name).to_string(),
        |(name, model), _stream| (name.to_string(), solve_analytic(community, *model)),
    );
    for (name, model) in solved {
        let quality = model.groups.max_quality();
        let dist = model.awareness_distribution_for(quality);
        let m = dist.len() - 1;
        let step = (m / 20).max(1);
        let points: Vec<(f64, f64)> = dist
            .iter()
            .enumerate()
            .filter(|(i, _)| i % step == 0 || *i == m)
            .map(|(i, &p)| (i as f64 / m as f64, p))
            .collect();
        report.push_series(Series::new(name, points));
    }
    report.push_note(
        "paper expectation: without randomization most high-quality pages sit at near-zero \
         awareness; with selective promotion most sit at near-full awareness; either way the \
         middle of the awareness scale holds little mass",
    );
    report
}

/// Reproduce Figure 4(a): popularity evolution of a page of quality 0.4
/// under nonrandomized, uniform-randomized and selective-randomized ranking
/// (analytic model, r = 0.2, k = 1).
pub fn figure4a(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let days = match options.scale {
        Scale::Tiny => 300,
        Scale::Quick | Scale::Full => 500,
    };
    let models = [
        ("No randomization", RankingModel::NonRandomized),
        (
            "Uniform randomization",
            RankingModel::Uniform {
                start_rank: 1,
                degree: 0.2,
            },
        ),
        (
            "Selective randomization",
            RankingModel::Selective {
                start_rank: 1,
                degree: 0.2,
            },
        ),
    ];
    let curves = SweepExecutor::new("Figure 4(a)").run(
        models.to_vec(),
        |(name, _)| (*name).to_string(),
        |(name, model), _stream| {
            let solved = solve_analytic(community, *model);
            let quality = solved.groups.max_quality();
            (name.to_string(), solved.popularity_evolution(quality, days))
        },
    );

    let mut report = FigureReport::new(
        "Figure 4(a)",
        "Popularity evolution of a page of quality 0.4",
        "time (days)",
        "popularity",
    );
    for (name, curve) in curves {
        report.push_series(Series::new(name, downsample(&curve)));
    }
    report.push_note(
        "paper expectation: selective randomization makes the page popular soonest, uniform \
         randomization is intermediate, and without randomization the page stays near zero \
         popularity for a very long time",
    );
    report
}

/// Reproduce Figure 4(b): time to become popular (TBP) of a quality-0.4 page
/// as the degree of randomization `r` varies, for selective and uniform
/// promotion, from both the analytic model and simulation.
pub fn figure4b(options: &ExperimentOptions) -> FigureReport {
    let community = options.default_community();
    let degrees: Vec<f64> = match options.scale {
        Scale::Tiny => vec![0.1, 0.2],
        Scale::Quick => vec![0.05, 0.1, 0.15, 0.2],
        Scale::Full => vec![0.02, 0.05, 0.1, 0.15, 0.2],
    };

    let mut jobs = Vec::new();
    for &degree in &degrees {
        jobs.push((
            "Selective",
            RankingModel::Selective {
                start_rank: 1,
                degree,
            },
            degree,
        ));
        jobs.push((
            "Uniform",
            RankingModel::Uniform {
                start_rank: 1,
                degree,
            },
            degree,
        ));
    }

    let executor = SweepExecutor::new("Figure 4(b)");
    let results = executor.run(
        jobs,
        |(rule, _, degree)| format!("rule={rule} r={degree}"),
        |(rule, model, degree), stream| {
            let analytic = solve_analytic(community, *model).expected_tbp(0.4);
            let sim = simulate_tbp(community, *model, options, stream);
            (rule.to_string(), *degree, analytic, sim.mean_days)
        },
    );

    let mut report = FigureReport::new(
        "Figure 4(b)",
        "Time to become popular (TBP) for a page of quality 0.4 vs degree of randomization",
        "degree of randomization (r)",
        "TBP (days)",
    );
    for rule in ["Selective", "Uniform"] {
        let analysis: Vec<(f64, f64)> = results
            .iter()
            .filter(|(r, ..)| r == rule)
            .map(|&(_, d, a, _)| (d, a))
            .collect();
        let simulation: Vec<(f64, f64)> = results
            .iter()
            .filter(|(r, ..)| r == rule)
            .map(|&(_, d, _, s)| (d, s))
            .collect();
        report.push_series(Series::new(format!("{rule} (analysis)"), analysis));
        report.push_series(Series::new(format!("{rule} (simulation)"), simulation));
    }
    report.push_note(format!(
        "simulation TBP is censored at {} days per trial ({} trials per point)",
        options.tbp_max_days(),
        options.tbp_trials()
    ));
    report.push_note(
        "paper expectation: TBP falls as r grows, and selective promotion achieves substantially \
         lower TBP than uniform promotion at the same r",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_endpoints() {
        let curve: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let points = downsample(&curve);
        assert!(points.len() <= 70);
        assert_eq!(points.first().unwrap().0, 0.0);
        assert_eq!(points.last().unwrap().0, 499.0);
        assert!(downsample(&[]).is_empty());
    }

    #[test]
    fn figure3_is_bimodal_in_the_promoted_case() {
        let report = figure3(&ExperimentOptions::tiny(3));
        assert_eq!(report.series.len(), 2);
        let baseline = &report.series[0];
        let promoted = &report.series[1];
        // Without randomization, the mass at awareness 0 dominates.
        let base_zero = baseline.points.first().unwrap().1;
        assert!(base_zero > 0.5, "baseline f(0) = {base_zero}");
        // With selective promotion, much less mass is stuck at zero.
        let promo_zero = promoted.points.first().unwrap().1;
        assert!(
            promo_zero < base_zero,
            "promotion should reduce the zero-awareness mass: {promo_zero} vs {base_zero}"
        );
    }

    #[test]
    fn figure4a_orders_the_three_schemes() {
        let report = figure4a(&ExperimentOptions::tiny(4));
        assert_eq!(report.series.len(), 3);
        let at_end = |name: &str| {
            report
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .points
                .last()
                .unwrap()
                .1
        };
        let selective = at_end("Selective randomization");
        let none = at_end("No randomization");
        assert!(
            selective >= none,
            "selective promotion should reach at least the baseline popularity: {selective} vs {none}"
        );
        let md = report.to_markdown();
        assert!(md.contains("Figure 4(a)"));
    }
}
