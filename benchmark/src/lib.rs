//! End-to-end and per-layer benchmark of the rrp serving stack and the
//! paper-figure pipeline.
//!
//! Every workload is a closed loop with one client and a fixed number of
//! rounds (a calibrated rate times `--seconds`), so a given seed and length
//! do identical work on every commit. Inputs come from the seed alone
//! ([`inputs`]); the untraced runs ([`workloads`]) time public service calls
//! from outside and check sampled answers against the reference engine; the
//! traced runs ([`trace`]) re-enact the same rounds layer by layer
//! ([`layers`]) and reconcile the layers against the untraced round time.

pub mod inputs;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use inputs::Targets;
use rrp_core::EngineVersion;
use stats::{Digest, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Reads, DURABLE_READS, MIXED_READS, TOPK_V2_READS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 100k, engine v2, 32 uniform mutations → visible top-10 → four
    /// 64-query top-10 batches.
    TopkV2,
    /// n = 10k, engine v1, 8 uniform mutations → visible full rerank → 14
    /// top-10 reads → one full rerank.
    Mixed,
    /// n = 10k behind the WAL, 32 Zipf-skewed mutations with flash-crowd
    /// jumps → sync → replica catch-up → visible replica top-10 → six more.
    DurableReplica,
    /// All 14 paper-figure drivers at quick scale, serially.
    Figures,
}

/// The size and traffic of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: u64,
    pub shards: usize,
    pub version: EngineVersion,
    pub mutations: usize,
    pub reads: &'static Reads,
    pub targets: Targets,
    /// Behind a write-ahead log, read through a replica.
    pub durable: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TopkV2,
        Workload::Mixed,
        Workload::DurableReplica,
        Workload::Figures,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkV2 => "topk_v2_100k",
            Workload::Mixed => "mixed_10k",
            Workload::DurableReplica => "durable_replica_10k",
            Workload::Figures => "figures_quick",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serve shape, `None` for the figure pipeline.
    pub fn shape(self) -> Option<Shape> {
        let (n, version, mutations, reads, targets) = match self {
            Workload::TopkV2 => (
                100_000,
                EngineVersion::V2,
                32,
                &TOPK_V2_READS,
                Targets::Uniform,
            ),
            Workload::Mixed => (10_000, EngineVersion::V1, 8, &MIXED_READS, Targets::Uniform),
            Workload::DurableReplica => (
                10_000,
                EngineVersion::V1,
                32,
                &DURABLE_READS,
                Targets::ZipfWithJumps,
            ),
            Workload::Figures => return None,
        };
        Some(Shape {
            n,
            shards: 8,
            version,
            mutations,
            reads,
            targets,
            durable: self == Workload::DurableReplica,
        })
    }

    /// Rounds per second of `--seconds`, calibrated once on the commit that
    /// introduced the benchmark (2-core x86-64 VM) and then frozen, so the
    /// work is the same on every later commit.
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::TopkV2 => 750.0,
            Workload::Mixed => 860.0,
            Workload::DurableReplica => 650.0,
            Workload::Figures => 0.0,
        }
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// How a run is sized and where it may write.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// Override the corpus size (the smoke test runs tiny corpora).
    pub n: Option<u64>,
    /// Override the round count.
    pub rounds: Option<u64>,
    /// Run the figure drivers at tiny instead of quick scale.
    pub tiny_figures: bool,
    /// Where trace files and the durable workload's directories go.
    pub out_dir: PathBuf,
}

impl Options {
    pub fn new(seed: u64, seconds: u64) -> Self {
        Options {
            seed,
            seconds,
            n: None,
            rounds: None,
            tiny_figures: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    pub fn rounds(&self, workload: Workload) -> u64 {
        self.rounds.unwrap_or_else(|| {
            ((workload.rounds_per_second() * self.seconds as f64).round() as u64).max(1)
        })
    }

    pub fn shape(&self, workload: Workload) -> Option<Shape> {
        workload.shape().map(|mut shape| {
            // The corpus puts every 10th page in the pool: keep whole tens.
            shape.n = self.n.map_or(shape.n, |n| n.div_ceil(10).max(1) * 10);
            shape
        })
    }

    /// A fresh per-process directory under the output directory.
    pub fn scratch_dir(&self, workload: Workload, attempt: usize) -> PathBuf {
        self.out_dir.join(format!(
            "tmp-{}-{}-{attempt}",
            workload.name(),
            std::process::id()
        ))
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    pub rounds: u64,
    /// Probe-counter deltas over the measured rounds (exact per seed).
    pub counts: BTreeMap<String, u64>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One JSON row describing the run: what ran, at which parallelism,
    /// the answer digest and the probe counts (exact per seed).
    pub fn row_line(&self, workload: Workload, options: &Options, traced: bool) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"traced\": {traced}, \"seed\": {}, \"seconds\": {}, \
             \"rounds\": {}, \"workers\": {}, \"available_parallelism\": {}, \
             \"digest\": \"{:016x}\", \"counts\": {{{}}}}}",
            workload.name(),
            options.seed,
            options.seconds,
            self.rounds,
            rrp_serve::available_workers(),
            std::thread::available_parallelism().map_or(0, |p| p.get()),
            self.digest.0,
            counts.join(", ")
        )
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Run one workload, untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(workload: Workload, options: &Options, traced: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&options.out_dir).map_err(|e| e.to_string())?;
    match (workload, traced) {
        (Workload::Figures, _) => Ok(figures(options, traced)),
        (_, false) => Ok(serve(workload, options)),
        (_, true) => trace::run(workload, options),
    }
}

/// The untraced serve run: set up, drive the rounds, summarise.
fn serve(workload: Workload, options: &Options) -> Outcome {
    let shape = options.shape(workload).expect("a serve workload");
    let mut inputs = workloads::Inputs::new(shape, options.seed);
    let mut run = workloads::Run::default();
    let rounds = options.rounds(workload);
    let mut service = match workloads::set_up(workload, &inputs, options, SETUP_REPEATS, &mut run) {
        Ok(service) => service,
        Err(e) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                report: vec![format!("set-up failed: {e}")],
                ..Outcome::default()
            }
        }
    };
    workloads::drive(service.as_mut(), &mut inputs, rounds, &mut run);
    drop(service);
    let mut m = Metrics::default();
    let queries_per_round = run.queries as f64 / rounds as f64;
    m.set("setup_s", run.setup_median(), "s");
    m.set(
        "queries_per_s",
        queries_per_round * 1e9 / run.round.unhindered_mean_ns(rounds),
        "q/s",
    );
    // The medians are the end-to-end metrics; the tails move too much
    // between runs on a shared machine to hold a bound, so they are
    // printed for reading only.
    let mut report = Vec::new();
    for (name, samples) in [
        ("read", &run.read),
        ("ack", &run.ack),
        ("visible", &run.visible),
    ] {
        m.set(
            format!("{name}_p50_us"),
            samples.unhindered_quantile_ns(rounds, 0.5) / 1e3,
            "us",
        );
        report.push(format!(
            "{} {name}_p99_us {:.4} us (n {})",
            workload.name(),
            samples.quantile_ns(0.99) / 1e3,
            samples.len()
        ));
    }
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    Outcome {
        metrics: m,
        attempted: run.attempted,
        failed: run.failed,
        digest: run.digest,
        rounds,
        counts: run.counts,
        report,
    }
}

/// The figure pipeline: every driver once, serially (the caller sets
/// `RRP_THREADS=1` on its process). Each report must be non-empty and
/// finite. Traced, each driver's time is reported as its own layer, plus
/// the simulator's day step.
fn figures(options: &Options, traced: bool) -> Outcome {
    use rrp_experiments::{all_figures, ExperimentOptions};
    let experiment = if options.tiny_figures {
        ExperimentOptions::tiny(options.seed)
    } else {
        ExperimentOptions::quick(options.seed)
    };
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let start = Instant::now();
    for (id, driver) in all_figures() {
        let t = Instant::now();
        let report = driver(&experiment);
        let took = t.elapsed().as_secs_f64();
        let points: Vec<(f64, f64)> = report
            .series
            .iter()
            .flat_map(|s| s.points.clone())
            .collect();
        let ok = !report.series.is_empty()
            && report.series.iter().all(|s| !s.points.is_empty())
            && points.iter().all(|(x, y)| x.is_finite() && y.is_finite());
        outcome.attempted += 1;
        outcome.failed += u64::from(!ok);
        points.iter().for_each(|&(x, y)| {
            outcome.digest.word(x.to_bits());
            outcome.digest.word(y.to_bits());
        });
        if traced {
            m.set(format!("experiments.{}_s", layer_name(id)), took, "s");
        }
    }
    if traced {
        m.timing_us(
            "sim.run_day_us",
            &trace::sim_days(&experiment, options.seed),
        );
    } else {
        m.set("figures_s", start.elapsed().as_secs_f64(), "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    outcome.metrics = m;
    outcome.rounds = 1;
    outcome
}

/// `"Figure 4(a)"` → `"figure_4a"`.
fn layer_name(id: &str) -> String {
    let mut name = String::new();
    for c in id.chars() {
        match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' => name.push(c.to_ascii_lowercase()),
            ' ' => name.push('_'),
            _ => {}
        }
    }
    name
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(layer_name("Figure 4(a)"), "figure_4a");
        assert_eq!(layer_name("Ablation A1"), "ablation_a1");
    }
}
