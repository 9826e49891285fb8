//! The traced run: spans recorded around every layer call of the
//! re-enactment ([`crate::layers`]), kept in memory and written out at the
//! end, then summarised into per-layer metrics and a reconciliation row.
//!
//! A traced run drives the service (untraced) and the re-enactment
//! (traced) through the same rounds, a quarter as many as the untraced
//! run. The two must answer identically and, on the durable workload,
//! append, snapshot and write the same bytes — together these show the
//! re-enactment does the same work — and the sum of the layers' self times
//! per round is reconciled against the service's round time.

use crate::layers::Replay;
use crate::stats::{median, quantile, Digest, Metrics, Samples};
use crate::workloads::{self, Inputs, RoundInputs, Run};
use crate::{Options, Outcome, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;
/// The trace file keeps the spans of one round in this many.
const WRITTEN_EVERY: u64 = 64;

/// One recorded span: nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub round: u32,
}

/// In-memory span recorder with a stack of open spans, plus value samples
/// (counts per layer event) recorded at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    values: BTreeMap<&'static str, Samples>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            values: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            round: self.round,
        });
        self.open.push(index);
    }

    pub fn end(&mut self) {
        let index = self.open.pop().expect("a span is open") as usize;
        self.spans[index].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let result = f();
        self.end();
        result
    }

    /// Record a span already timed by the caller (for calls whose layer is
    /// only known afterwards).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let since = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: since(start),
            end: since(end),
            parent: self.open.last().copied().unwrap_or(ROOT),
            round: self.round,
        });
    }

    /// A per-event count sampled at a layer boundary.
    pub fn value(&mut self, name: &'static str, value: u64) {
        self.values.entry(name).or_default().push_ns(value);
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut times: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if span.parent != ROOT {
                let parent = &mut times[span.parent as usize];
                *parent = parent.saturating_sub(span.end - span.start);
            }
        }
        times
    }

    /// The spans of one round in [`WRITTEN_EVERY`] as JSON lines (`id`
    /// is the span's index, which `parent` refers to). Every span feeds the
    /// statistics; the file keeps a sample so a long top-k run does not
    /// write hundreds of megabytes.
    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            if u64::from(s.round) % WRITTEN_EVERY != 0 {
                continue;
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}}}",
                s.name, s.start, s.end, s.round
            );
        }
        std::fs::File::create(path)?.write_all(text.as_bytes())
    }
}

/// The cost of one empty span, in nanoseconds (median of batches).
fn span_overhead_ns() -> f64 {
    const PER_BATCH: u32 = 10_000;
    let batches: Vec<f64> = (0..16)
        .map(|_| {
            let mut tracer = Tracer::default();
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                tracer.span("empty", || black_box(()));
            }
            black_box(&tracer.spans);
            t.elapsed().as_nanos() as f64 / f64::from(PER_BATCH)
        })
        .collect();
    median(&batches)
}

/// Layers reported as `.p50`/`.p99`/`.n` in the result line: the ones
/// every serve workload exercises.
pub const REPORTED_LAYERS: [&str; 7] = [
    "ranking.rank_topk_us",
    "ranking.candidate_merge_us",
    "core.collect_us",
    "core.resolve_us",
    "core.publish_us",
    "core.recycle_us",
    "core.patch_us",
];

/// Run a serve workload traced.
pub fn run(workload: Workload, options: &Options) -> Result<Outcome, String> {
    let shape = options.shape(workload).expect("a serve workload");
    let mut inputs = Inputs::new(shape, options.seed);
    let rounds = options.rounds(workload).div_ceil(4);
    let mut service_run = Run::default();
    let mut service = workloads::set_up(workload, &inputs, options, 1, &mut service_run)?;
    let mut replay = Replay::new(&inputs, options.scratch_dir(workload, 99))?;
    let work_before = replay.leader_work();
    let overhead_ns = span_overhead_ns();

    let mut tracer = Tracer::default();
    let mut replay_digest = Digest::default();
    let mut replay_failed = 0u64;
    let mut batch_walls: Vec<u64> = Vec::new();
    let mut round = RoundInputs::default();
    for r in 0..rounds {
        inputs.next_round(&mut round);
        service.round(&round, &mut service_run);
        batch_walls.extend_from_slice(service.batch_times());
        tracer.set_round(r as u32);
        replay.round(&round, &mut tracer, &mut replay_digest, &mut replay_failed);
    }
    let counts = service.counts();
    // The durable leader's work beyond its answers: the same appends and
    // snapshots over the rounds, and the same log and snapshot bytes (the
    // service's directory is that of its one set-up, attempt 0).
    let mut work_mismatches = Vec::new();
    if let (Some(before), Some(after)) = (work_before, replay.leader_work()) {
        for (name, ours) in [
            ("serve.wal_appends", after.appends - before.appends),
            (
                "serve.snapshots_written",
                after.snapshots - before.snapshots,
            ),
        ] {
            if ours != counts[name] {
                work_mismatches.push(format!("{name}: service {} layers {ours}", counts[name]));
            }
        }
        if replay.same_files_as(&options.scratch_dir(workload, 0)) != Some(true) {
            work_mismatches.push("log or snapshot bytes differ".to_string());
        }
    }
    drop(service);
    drop(replay);

    // Per-layer self times; the round span's own self time is the
    // re-enactment's glue, not a layer.
    let self_times = tracer.self_times();
    let mut layers: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut layer_sum_per_round = vec![0u64; rounds as usize];
    for (span, &t) in tracer.spans.iter().zip(&self_times) {
        if span.name != "round" && span.name != "serve.batch" {
            layers.entry(span.name).or_default().push_ns(t);
            layer_sum_per_round[span.round as usize] += t;
        }
    }
    // Fan-out residual: each service batch call minus the summed layer
    // time of its queries in the re-enactment (the batch span's children).
    let fanout_residual_ns: Vec<i64> = tracer
        .spans
        .iter()
        .zip(&self_times)
        .filter(|(s, _)| s.name == "serve.batch")
        .map(|(s, &own)| (s.end - s.start) - own)
        .zip(&batch_walls)
        .map(|(queries, &wall)| wall as i64 - queries as i64)
        .collect();
    let service_round = service_run.round.quantile_ns(0.5);
    let layer_sum = quantile(&layer_sum_per_round, 0.5);
    let residual_pct = 100.0 * (service_round - layer_sum) / service_round;

    let path = options
        .out_dir
        .join(format!("trace-{}-{}.jsonl", workload.name(), options.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut m = Metrics::default();
    for name in REPORTED_LAYERS {
        m.timing_us(name, layers.get(name).unwrap_or(&Samples::default()));
    }
    let dirty = tracer
        .values
        .get("core.publish_dirty_slots")
        .cloned()
        .unwrap_or_default();
    m.set(
        "core.publish_dirty_slots.p50",
        dirty.quantile_ns(0.5),
        "count",
    );
    for (name, &value) in &counts {
        m.set(name.clone(), value as f64, "count");
    }
    m.set("trace.span_overhead_ns", overhead_ns, "ns");
    m.set("trace.residual_pct", residual_pct, "%");

    let digests_match = replay_digest == service_run.digest;
    let mut report = vec![format!(
        "{} traced: seed {} rounds {} digest service {:016x} layers {:016x} ({}) trace {}",
        workload.name(),
        options.seed,
        rounds,
        service_run.digest.0,
        replay_digest.0,
        if digests_match { "equal" } else { "DIFFERENT" },
        path.display()
    )];
    report.push(format!(
        "reconciliation {}: service round p50 {:.1} us, layer self-time sum p50 {:.1} us, residual {:.1}%{}",
        workload.name(),
        service_round / 1e3,
        layer_sum / 1e3,
        residual_pct,
        if residual_pct.abs() > 10.0 { " (finding: above 10%)" } else { "" }
    ));
    if work_before.is_some() {
        report.push(if work_mismatches.is_empty() {
            "leader work: appends, snapshots, log and snapshot bytes equal the service's"
                .to_string()
        } else {
            format!("leader work DIFFERENT: {}", work_mismatches.join("; "))
        });
    }
    report.push(format!("span overhead {overhead_ns:.1} ns per span"));
    let mut extra: Vec<(String, Samples)> = layers
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    extra.extend(tracer.values.into_iter().map(|(k, v)| (k.to_string(), v)));
    if !fanout_residual_ns.is_empty() {
        // Signed: a parallel batch can beat the sum of its queries.
        let mut sorted = fanout_residual_ns.clone();
        sorted.sort_unstable();
        let at =
            |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
        report.push(format!(
            "  {:<32} p50 {:>10.2} p99 {:>10.2} n {}",
            "serve.fanout_residual_us",
            at(0.5) as f64 / 1e3,
            at(0.99) as f64 / 1e3,
            sorted.len()
        ));
    }
    for (name, samples) in &extra {
        let scale = if name.ends_with("_us") {
            1e3
        } else if name.ends_with("_ms") {
            1e6
        } else {
            1.0
        };
        let mut line = format!(
            "  {name:<32} p50 {:>10.2} p99 {:>10.2}",
            samples.quantile_ns(0.5) / scale,
            samples.quantile_ns(0.99) / scale
        );
        if samples.supports(0.999) {
            let _ = write!(line, " p999 {:>10.2}", samples.quantile_ns(0.999) / scale);
        }
        let _ = write!(
            line,
            " n {} total {:.1}",
            samples.len(),
            samples.total_ns() as f64 / scale
        );
        report.push(line);
    }
    if counts["serve.wal_appends"] > 0 {
        report.push(format!(
            "  {:<32} {:.3}",
            "durable.snapshots_per_1k_events",
            1e3 * counts["serve.snapshots_written"] as f64 / counts["serve.wal_appends"] as f64
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: service_run.attempted,
        failed: service_run.failed
            + replay_failed
            + u64::from(!digests_match)
            + work_mismatches.len() as u64,
        digest: service_run.digest,
        rounds,
        counts,
        report,
    })
}

/// The simulator's day step on the quick default community under the
/// recommended policy, timed per day.
pub fn sim_days(experiment: &rrp_experiments::ExperimentOptions, seed: u64) -> Samples {
    use rrp_ranking::{PromotionConfig, RandomizedRankPromotion};
    use rrp_sim::{SimConfig, Simulation};
    let config = SimConfig::for_community(experiment.default_community(), seed);
    let policy = RandomizedRankPromotion::new(PromotionConfig::recommended(1));
    let mut sim = Simulation::new(config, policy).expect("the default community is valid");
    let mut days = Samples::default();
    for _ in 0..experiment.warmup_days() {
        let t = Instant::now();
        sim.run_day();
        days.push(t.elapsed());
    }
    days
}
