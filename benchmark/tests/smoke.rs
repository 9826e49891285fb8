//! Every workload at tiny size: it must emit exactly the metrics
//! `BENCHMARK.json` names, answer correctly, and repeat exactly per seed.

use rrp_benchmark::{run, Options, Outcome, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;

const SERVE: [Workload; 3] = [Workload::TopkV2, Workload::Mixed, Workload::DurableReplica];

/// Tiny runs: 130 rounds cover three sampled reference checks, and 130 ×
/// 32 durable mutations cross the snapshot cadence four times.
fn tiny(workload: Workload, seed: u64, test: &str) -> Options {
    let mut options = Options::new(seed, 1);
    options.n = Some(600);
    options.rounds = Some(130);
    options.tiny_figures = true;
    options.out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}-{}", workload.name()));
    options
}

fn tiny_run(workload: Workload, seed: u64, traced: bool, test: &str) -> Outcome {
    let outcome = run(workload, &tiny(workload, seed, test), traced).expect("the run completes");
    assert_eq!(
        outcome.failed,
        0,
        "{}: {:?}",
        workload.name(),
        outcome.report
    );
    assert!(outcome.correct());
    outcome
}

/// The metric names of one list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeSet<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let manifest: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    manifest
        .get(list)
        .and_then(|v| v.as_seq())
        .expect("a metric list")
        .iter()
        .map(|m| match m.get("name") {
            Some(serde::Value::Str(name)) => name.clone(),
            _ => panic!("a metric without a name"),
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> BTreeSet<String> {
    outcome.metrics.0.keys().cloned().collect()
}

#[test]
fn serve_workloads_emit_every_declared_metric() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in SERVE {
        let plain = tiny_run(workload, 11, false, "emit");
        assert_eq!(emitted(&plain), end_to_end, "{}", workload.name());
        for (name, &(value, _)) in &plain.metrics.0 {
            assert!(
                value.is_finite() && value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        let traced = tiny_run(workload, 11, true, "emit");
        assert_eq!(emitted(&traced), per_layer, "{}", workload.name());
        assert!(traced.metrics.0.values().all(|&(v, _)| v.is_finite()));
    }
}

#[test]
fn figure_pipeline_reports_wall_time_and_layers() {
    let plain = tiny_run(Workload::Figures, 11, false, "figures");
    assert_eq!(
        emitted(&plain),
        ["figures_s", "peak_rss_mb"].map(String::from).into()
    );
    let traced = tiny_run(Workload::Figures, 11, true, "figures");
    let names = emitted(&traced);
    assert_eq!(
        names
            .iter()
            .filter(|n| n.starts_with("experiments."))
            .count(),
        14
    );
    assert!(names.contains("sim.run_day_us.p50"));
}

#[test]
fn same_seed_repeats_digests_and_counts_exactly() {
    for workload in SERVE {
        for traced in [false, true] {
            let a = tiny_run(workload, 5, traced, "repeat-a");
            let b = tiny_run(workload, 5, traced, "repeat-b");
            assert_eq!(a.digest, b.digest, "{} traced {traced}", workload.name());
            assert_eq!(a.counts, b.counts, "{} traced {traced}", workload.name());
            assert_eq!(a.counts["serve.epoch_conflicts"], 0, "single client");
            if workload == Workload::TopkV2 {
                assert_eq!(
                    a.counts["serve.order_merges"], 0,
                    "top-k never merges the order"
                );
            }
            if workload == Workload::DurableReplica {
                assert!(a.counts["serve.snapshots_written"] > 0);
                assert_eq!(
                    a.counts["serve.wal_appends"],
                    a.counts["replica.events_applied"]
                );
            }
        }
        let other = tiny_run(workload, 6, false, "repeat-other");
        assert_ne!(
            other.digest,
            tiny_run(workload, 5, false, "repeat-a").digest
        );
    }
}
