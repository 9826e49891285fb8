//! The untraced service runs: each serve workload drives the public
//! service API as one closed-loop client, times every call from outside,
//! and checks sampled answers against the reference engine.

use crate::inputs::{corpus, Mutation, MutationStream, QueryStream};
use crate::stats::{median, Digest, Samples};
use crate::{Options, Shape, Workload};
use rrp_core::{Document, QueryContext, RankPromotionEngine};
use rrp_serve::{DurableService, ReplicaService, ServeStats, ShardedPromotionService};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Results per read: every workload asks for one page of ten.
pub const K: usize = 10;
/// One round in this many has its answers recomputed by the reference
/// engine (untimed).
pub const SAMPLE_EVERY: u64 = 64;

/// One round's generated inputs.
#[derive(Debug, Default, Clone)]
pub struct RoundInputs {
    pub mutations: Vec<Mutation>,
    pub queries: Vec<QueryContext>,
}

/// The seeded input streams of a serve workload.
pub struct Inputs {
    pub corpus: Vec<Document>,
    mutations: MutationStream,
    queries: QueryStream,
    pub shape: Shape,
    pub seed: u64,
}

impl Inputs {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let corpus = corpus(shape.n, seed);
        let mutations = MutationStream::new(&corpus, shape.targets, seed);
        Inputs {
            corpus,
            mutations,
            queries: QueryStream::new(seed),
            shape,
            seed,
        }
    }

    pub fn next_round(&mut self, round: &mut RoundInputs) {
        self.mutations
            .fill(self.shape.mutations, &mut round.mutations);
        self.queries
            .fill(self.shape.reads.contexts(), &mut round.queries);
    }

    pub fn engine(&self) -> RankPromotionEngine {
        engine(self.shape)
    }
}

pub fn engine(shape: Shape) -> RankPromotionEngine {
    RankPromotionEngine::recommended().with_version(shape.version)
}

/// The context of the first answer that ends set-up.
pub fn first_query(seed: u64) -> QueryContext {
    QueryContext::new(seed, 0)
}

/// What a run measured and counted.
#[derive(Debug, Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub ack: Samples,
    pub visible: Samples,
    pub read: Samples,
    /// Wall time of the measured rounds (checks excluded).
    pub round: Samples,
    /// Reads answered in the measured rounds.
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    pub counts: BTreeMap<String, u64>,
}

impl Run {
    fn fail_unless(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }

    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// The probe counters a run reports, as deltas over its measured rounds:
/// the reading service's `(before, after)` stats, the durable leader's
/// (all zero for the in-memory workloads) and the replica's applied events.
pub fn count_deltas(
    reader: (ServeStats, ServeStats),
    leader: (ServeStats, ServeStats),
    replica_events: u64,
) -> BTreeMap<String, u64> {
    let delta = |(a, b): (ServeStats, ServeStats), f: fn(&ServeStats) -> u64| f(&b) - f(&a);
    [
        (
            "serve.version_publications",
            delta(reader, |s| s.version_publications),
        ),
        (
            "serve.dirty_slots_repaired",
            delta(reader, |s| s.dirty_slots_repaired),
        ),
        ("serve.order_merges", delta(reader, |s| s.order_merges)),
        (
            "serve.shard_retrievals",
            delta(reader, |s| s.shard_retrievals),
        ),
        ("serve.pool_draws", delta(reader, |s| s.pool_draws)),
        (
            "serve.epoch_conflicts",
            delta(reader, |s| s.epoch_conflicts),
        ),
        ("serve.wal_appends", delta(leader, |s| s.wal_appends)),
        (
            "serve.snapshots_written",
            delta(leader, |s| s.snapshots_written),
        ),
        ("replica.events_applied", replica_events),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// One serve workload's service under test, driven round by round.
pub trait Service {
    /// Apply the round's mutations, then its reads, timing every call.
    /// Answers go to the digest in a fixed order (the visible answer
    /// first, then the steady reads in order).
    fn round(&mut self, round: &RoundInputs, run: &mut Run);
    /// Recompute sampled answers of the round just run with the
    /// reference engine; returns the number of mismatches.
    fn check(&mut self, round: &RoundInputs) -> u64;
    /// Counter deltas since set-up.
    fn counts(&self) -> BTreeMap<String, u64>;
    /// Wall time of every batch call in the last round (fan-out
    /// reconciliation; empty for workloads without batches).
    fn batch_times(&self) -> &[u64] {
        &[]
    }
}

/// Build the workload's service `repeats` times (keeping the last), timing
/// each set-up from corpus to first answer.
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    options: &Options,
    repeats: usize,
    run: &mut Run,
) -> Result<Box<dyn Service>, String> {
    let mut service: Option<Box<dyn Service>> = None;
    for attempt in 0..repeats.max(1) {
        drop(service.take());
        let start = Instant::now();
        let built: Box<dyn Service> = if inputs.shape.durable {
            Box::new(Durable::open(
                inputs,
                options.scratch_dir(workload, attempt),
            )?)
        } else {
            Box::new(InMemory::new(inputs))
        };
        run.setup_s.push(start.elapsed().as_secs_f64());
        service = Some(built);
    }
    Ok(service.expect("at least one set-up ran"))
}

/// One read call of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// A single top-k read.
    TopK,
    /// A full rerank.
    Full,
    /// A top-k batch over this many consecutive contexts.
    Batch(usize),
}

impl Read {
    /// Query contexts (and answers) the read consumes.
    pub const fn width(self) -> usize {
        match self {
            Read::Batch(q) => q,
            _ => 1,
        }
    }
}

/// A round's reads: the visible read right after the last ack, then the
/// steady reads on the version it published.
#[derive(Debug)]
pub struct Reads {
    pub visible: Read,
    pub steady: &'static [Read],
}

impl Reads {
    /// Query contexts one round consumes.
    pub const fn contexts(&self) -> usize {
        let mut total = self.visible.width();
        let mut i = 0;
        while i < self.steady.len() {
            total += self.steady[i].width();
            i += 1;
        }
        total
    }

    /// Each steady read with the range of the round's contexts it answers.
    pub fn plan(&self) -> impl Iterator<Item = (Read, std::ops::Range<usize>)> + '_ {
        let mut next = self.visible.width();
        self.steady.iter().map(move |&read| {
            let range = next..next + read.width();
            next = range.end;
            (read, range)
        })
    }
}

pub const TOPK_V2_READS: Reads = Reads {
    visible: Read::TopK,
    steady: &[Read::Batch(64); 4],
};

pub const MIXED_READS: Reads = Reads {
    visible: Read::Full,
    steady: &[
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::TopK,
        Read::Full,
    ],
};

pub const DURABLE_READS: Reads = Reads {
    visible: Read::TopK,
    steady: &[Read::TopK; 6],
};

/// A round's answers in digest order: the visible answer, then one result
/// buffer per steady read, reused across rounds so the timed calls write
/// into warm storage.
#[derive(Debug, Default)]
pub struct Answers {
    pub visible: Vec<u64>,
    pub steady: Vec<Vec<Vec<u64>>>,
}

impl Answers {
    pub fn for_reads(reads: &Reads) -> Self {
        Answers {
            visible: Vec::new(),
            steady: reads
                .steady
                .iter()
                .map(|r| vec![Vec::new(); r.width()])
                .collect(),
        }
    }

    /// Every answer, in context order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<u64>> {
        std::iter::once(&self.visible).chain(self.steady.iter().flatten())
    }

    pub fn digest_into(&self, digest: &mut Digest) {
        self.iter().for_each(|a| digest.answer(a));
    }
}

/// The plain in-memory service (`topk_v2_100k`, `mixed_10k`).
struct InMemory {
    service: ShardedPromotionService,
    reads: &'static Reads,
    base: ServeStats,
    answers: Answers,
    batch_ns: Vec<u64>,
}

impl InMemory {
    fn new(inputs: &Inputs) -> Self {
        let service = ShardedPromotionService::new(inputs.engine(), inputs.shape.shards);
        service.extend(inputs.corpus.iter().copied());
        black_box(service.rerank_top_k(first_query(inputs.seed), K));
        InMemory {
            base: service.serve_stats(),
            service,
            reads: inputs.shape.reads,
            answers: Answers::for_reads(inputs.shape.reads),
            batch_ns: Vec::new(),
        }
    }
}

/// Apply one mutation through `apply`, timing the acknowledgement.
fn ack(run: &mut Run, apply: impl FnOnce() -> bool) -> Instant {
    let t = Instant::now();
    let ok = apply();
    let acked = Instant::now();
    run.ack.push(acked - t);
    run.attempted += 1;
    run.fail_unless(ok);
    acked
}

impl Service for InMemory {
    fn round(&mut self, round: &RoundInputs, run: &mut Run) {
        let start = Instant::now();
        let service = &self.service;
        let mut last_ack = start;
        for &mutation in &round.mutations {
            last_ack = ack(run, || match mutation {
                Mutation::Visit(seq) => service.record_visit(seq),
                Mutation::SetPopularity(seq, p) => service.update_popularity(seq, p),
            });
        }
        let ctx = round.queries[0];
        let (epoch, answer) = match self.reads.visible {
            Read::Full => service.rerank_one_versioned(ctx),
            _ => service.rerank_top_k_versioned(ctx, K),
        };
        run.visible.push(last_ack.elapsed());
        run.attempted += 1;
        run.queries += 1;
        run.fail_unless(epoch == service.epoch());
        self.answers.visible = answer;
        self.batch_ns.clear();
        for ((read, range), out) in self.reads.plan().zip(&mut self.answers.steady) {
            let t = Instant::now();
            match read {
                Read::Batch(_) => {
                    service.rerank_batch_top_k_into(&round.queries[range.clone()], K, out)
                }
                Read::Full => service.rerank_one_into(round.queries[range.start], &mut out[0]),
                Read::TopK => service.rerank_top_k_into(round.queries[range.start], K, &mut out[0]),
            }
            let d = t.elapsed();
            run.read.push(d);
            if let Read::Batch(_) = read {
                self.batch_ns.push(d.as_nanos() as u64);
            }
            run.queries += range.len() as u64;
            run.attempted += range.len() as u64;
        }
        run.round.push(start.elapsed());
        self.answers.digest_into(&mut run.digest);
    }

    fn check(&mut self, round: &RoundInputs) -> u64 {
        let engine = self.service.engine();
        let docs = self.service.store().snapshot();
        let reference = |read: Read, ctx: QueryContext| match read {
            Read::Full => engine.rerank(&docs, ctx),
            _ => engine.rerank_top_k(&docs, ctx, K),
        };
        // The visible answer and the round's last answer.
        let (last_read, _) = self.reads.plan().last().expect("a steady read");
        let last_ctx = round.queries[round.queries.len() - 1];
        let last = self.answers.iter().last().expect("answers");
        u64::from(reference(self.reads.visible, round.queries[0]) != self.answers.visible)
            + u64::from(reference(last_read, last_ctx) != *last)
    }

    fn counts(&self) -> BTreeMap<String, u64> {
        let none = (ServeStats::default(), ServeStats::default());
        count_deltas((self.base, self.service.serve_stats()), none, 0)
    }

    fn batch_times(&self) -> &[u64] {
        &self.batch_ns
    }
}

/// A durable leader and a replica tailing its directory
/// (`durable_replica_10k`). The directory is removed on drop.
struct Durable {
    leader: DurableService,
    replica: ReplicaService,
    dir: PathBuf,
    base: (ServeStats, ServeStats, u64),
    answers: Answers,
}

impl Durable {
    fn open(inputs: &Inputs, dir: PathBuf) -> Result<Self, String> {
        std::fs::remove_dir_all(&dir).ok();
        let engine = inputs.engine();
        let shards = inputs.shape.shards;
        let text = |e: rrp_serve::ServeError| e.to_string();
        let (mut leader, _) = DurableService::open(&dir, engine, shards).map_err(text)?;
        leader.extend(inputs.corpus.iter().copied()).map_err(text)?;
        let mut replica = ReplicaService::open(&dir, engine, shards).map_err(text)?;
        replica.catch_up().map_err(text)?;
        black_box(replica.service().rerank_top_k(first_query(inputs.seed), K));
        Ok(Durable {
            base: (
                replica.serve_stats(),
                leader.serve_stats(),
                replica.stats().events_applied,
            ),
            leader,
            replica,
            dir,
            answers: Answers::for_reads(inputs.shape.reads),
        })
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

impl Service for Durable {
    fn round(&mut self, round: &RoundInputs, run: &mut Run) {
        let start = Instant::now();
        let mut last_ack = start;
        for &mutation in &round.mutations {
            let leader = &mut self.leader;
            last_ack = ack(run, || match mutation {
                Mutation::Visit(seq) => leader.record_visit(seq).is_ok(),
                Mutation::SetPopularity(seq, p) => leader.update_popularity(seq, p).is_ok(),
            });
        }
        let mark = self.leader.sync_for_followers();
        let caught_up = self.replica.catch_up();
        let replica = self.replica.service();
        let (epoch, answer) = replica.rerank_top_k_versioned(round.queries[0], K);
        run.visible.push(last_ack.elapsed());
        let stats = self.replica.stats();
        let current = mark.is_ok_and(|mark| {
            stats.last_applied_seq == mark.checked_sub(1) && stats.behind_by == 0
        });
        run.attempted += 1;
        run.queries += 1;
        run.fail_unless(caught_up.is_ok() && current && epoch == replica.epoch());
        self.answers.visible = answer;
        for (ctx, out) in round.queries[1..].iter().zip(&mut self.answers.steady) {
            let t = Instant::now();
            replica.rerank_top_k_into(*ctx, K, &mut out[0]);
            run.read.push(t.elapsed());
            run.queries += 1;
            run.attempted += 1;
        }
        run.round.push(start.elapsed());
        self.answers.digest_into(&mut run.digest);
    }

    fn check(&mut self, round: &RoundInputs) -> u64 {
        // Replica ≡ leader at the same sync mark, for every answer…
        let leader = self.leader.service();
        let mut mismatches = round
            .queries
            .iter()
            .zip(self.answers.iter())
            .filter(|&(&ctx, answer)| leader.rerank_top_k(ctx, K) != *answer)
            .count() as u64;
        // …and ≡ the reference engine for the visible and last answers.
        let engine = self.replica.service().engine();
        let docs = self.replica.store().snapshot();
        let last = round.queries.len() - 1;
        for (index, answer) in [
            (0, &self.answers.visible),
            (last, self.answers.iter().last().expect("answers")),
        ] {
            mismatches += u64::from(engine.rerank_top_k(&docs, round.queries[index], K) != *answer);
        }
        mismatches
    }

    fn counts(&self) -> BTreeMap<String, u64> {
        let (replica_base, leader_base, events_base) = self.base;
        count_deltas(
            (replica_base, self.replica.serve_stats()),
            (leader_base, self.leader.serve_stats()),
            self.replica.stats().events_applied - events_base,
        )
    }
}

/// Run `rounds` rounds, checking one in [`SAMPLE_EVERY`].
pub fn drive(service: &mut dyn Service, inputs: &mut Inputs, rounds: u64, run: &mut Run) {
    let mut round = RoundInputs::default();
    for r in 0..rounds {
        inputs.next_round(&mut round);
        service.round(&round, run);
        if r % SAMPLE_EVERY == 0 {
            run.failed += service.check(&round);
        }
    }
    run.counts = service.counts();
}
