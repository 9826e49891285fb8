//! Steady-state serving throughput: batches of queries answered from the
//! incremental serving state, with store mutations (visit feedback and
//! popularity updates) interleaved between batches exactly as a live
//! deployment would apply them — the first mutate-while-serving workload.
//!
//! Reported times are per batch of `BATCH` queries; divide by `BATCH` for
//! per-query cost, or invert for queries/sec (the numbers recorded in the
//! ROADMAP Perf ledger). Three shapes per corpus size:
//!
//! * `full_clean` — unchanged corpus: the popularity order is reused as-is
//!   (zero sorts, zero snapshot rebuilds — the steady-state fast path);
//! * `full_mutated` — 32 mutations between batches: the order is repaired
//!   by dirty-slot binary-search reinsertion, then the batch runs;
//! * `top10_mutated` — same mutation schedule, but each query asks for
//!   only the top 10 ranks — answered by per-shard candidate retrieval
//!   plus the deterministic merge (zero complete-order merges), on the
//!   default 8-way service;
//! * `top10_mutated_v2` — the same top-10 workload under **engine v2**:
//!   the lazy Fisher–Yates overlay draws at most `k` swaps per query
//!   instead of copying and shuffling the whole promotion pool, so this
//!   row against `top10_mutated` is the v1-vs-v2 headline (the pool is
//!   ~n/10 members, so the gap widens with corpus size);
//! * `top10_mutated_wal` — the same top-10 workload with every mutation
//!   appended to the write-ahead log first (`DurableService`, snapshots
//!   off): this row against `top10_mutated` is the durability overhead
//!   on the mutation path — the serve path is untouched by the log;
//! * `top10_mutated_shards{1,2,8}` — the same top-10 workload across
//!   shard counts (`shards8` matches `top10_mutated`'s 8-way layout, as
//!   its own row so the sweep is self-contained): the retrieval cost is
//!   `O(pool + k)` *per shard*, so the sweep shows what the merged read
//!   path costs as the corpus is cut finer (per-shard work shrinks; on
//!   this single-core VM the shards are visited sequentially, so the
//!   total is what one machine pays — a deployment overlaps them across
//!   index servers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_model::{new_rng, PowerLawQuality, QualityDistribution};
use rrp_serve::{DurableService, ShardedPromotionService};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

const BATCH: u64 = 64;
const MUTATIONS_PER_BATCH: u64 = 32;

fn service(n: u64) -> ShardedPromotionService {
    sharded_service(n, 8)
}

fn sharded_service(n: u64, shards: usize) -> ShardedPromotionService {
    versioned_service(n, shards, EngineVersion::V1)
}

fn versioned_service(n: u64, shards: usize, version: EngineVersion) -> ShardedPromotionService {
    let dist = PowerLawQuality::paper_default();
    let mut rng = new_rng(7);
    let engine = RankPromotionEngine::recommended().with_version(version);
    let service = ShardedPromotionService::new(engine, shards);
    service.extend((0..n).map(|i| {
        if i % 10 == 0 {
            Document::unexplored(i)
        } else {
            Document::established(i, dist.sample(&mut rng).value()).with_age(i % 365)
        }
    }));
    // Absorb the one-time warm-up repair so the timed loop measures steady
    // state only.
    service.rerank_batch(&[QueryContext::new(0, 0)]);
    service
}

/// A durable twin of [`service`]: same corpus, same engine, every
/// mutation write-ahead logged. Snapshots are disabled so the measured
/// delta against the plain service is the log append alone.
fn durable_service(n: u64, dir: &Path) -> DurableService {
    let dist = PowerLawQuality::paper_default();
    let mut rng = new_rng(7);
    let engine = RankPromotionEngine::recommended();
    let (durable, _) = DurableService::open(dir, engine, 8).expect("open durable dir");
    let mut durable = durable.with_snapshot_every(u64::MAX);
    for i in 0..n {
        let doc = if i % 10 == 0 {
            Document::unexplored(i)
        } else {
            Document::established(i, dist.sample(&mut rng).value()).with_age(i % 365)
        };
        durable.insert(doc).expect("durable insert");
    }
    durable.service().rerank_batch(&[QueryContext::new(0, 0)]);
    durable
}

/// A scratch directory for the durable rows, cleaned up by the caller.
fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrp-bench-wal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn queries(salt: u64) -> Vec<QueryContext> {
    (0..BATCH)
        .map(|q| QueryContext::new(q * 13 + salt, q ^ 0xBEEF))
        .collect()
}

/// Apply the per-batch mutation schedule: visit feedback plus popularity
/// updates on a rotating window of sequences (corpus size stays fixed, so
/// consecutive iterations measure the same working set).
fn mutate(service: &ShardedPromotionService, round: u64) {
    let n = service.store().len() as u64;
    for m in 0..MUTATIONS_PER_BATCH {
        let seq = (round.wrapping_mul(MUTATIONS_PER_BATCH) + m * 97) % n;
        if m % 2 == 0 {
            service.record_visit(seq);
        } else {
            let score = 0.05 + ((seq * 31 + round) % 100) as f64 / 100.0;
            service.update_popularity(seq, score);
        }
    }
}

/// The durable twin of [`mutate`]: same schedule, same sequences, each
/// mutation appended to the log before it is applied.
fn mutate_durable(service: &mut DurableService, round: u64) {
    let n = service.store().len() as u64;
    for m in 0..MUTATIONS_PER_BATCH {
        let seq = (round.wrapping_mul(MUTATIONS_PER_BATCH) + m * 97) % n;
        if m % 2 == 0 {
            service.record_visit(seq).expect("durable visit");
        } else {
            let score = 0.05 + ((seq * 31 + round) % 100) as f64 / 100.0;
            service
                .update_popularity(seq, score)
                .expect("durable update");
        }
    }
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20)
        .throughput(Throughput::Elements(BATCH));
    for &n in &[10_000u64, 100_000] {
        let qs = queries(1);

        let clean = service(n);
        group.bench_with_input(BenchmarkId::new("full_clean", n), &n, |b, _| {
            let mut results = Vec::new();
            b.iter(|| {
                clean.rerank_batch_into(&qs, &mut results);
                black_box(results.last().map(Vec::len))
            });
        });

        let mutated = service(n);
        group.bench_with_input(BenchmarkId::new("full_mutated", n), &n, |b, _| {
            let mut results = Vec::new();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                mutate(&mutated, round);
                mutated.rerank_batch_into(&qs, &mut results);
                black_box(results.last().map(Vec::len))
            });
        });

        let top_k = service(n);
        group.bench_with_input(BenchmarkId::new("top10_mutated", n), &n, |b, _| {
            let mut results = Vec::new();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                mutate(&top_k, round);
                top_k.rerank_batch_top_k_into(&qs, 10, &mut results);
                black_box(results.last().map(Vec::len))
            });
        });

        // The v1-vs-v2 headline: the identical top-10 workload, answered
        // by the lazy O(k)-draw overlay instead of the eager pool
        // copy-and-shuffle.
        let top_k_v2 = versioned_service(n, 8, EngineVersion::V2);
        group.bench_with_input(BenchmarkId::new("top10_mutated_v2", n), &n, |b, _| {
            let mut results = Vec::new();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                mutate(&top_k_v2, round);
                top_k_v2.rerank_batch_top_k_into(&qs, 10, &mut results);
                black_box(results.last().map(Vec::len))
            });
        });

        // The durability overhead: identical workload, every mutation
        // appended to the WAL before it is applied.
        let dir = bench_dir(&n.to_string());
        let mut top_k_wal = durable_service(n, &dir);
        group.bench_with_input(BenchmarkId::new("top10_mutated_wal", n), &n, |b, _| {
            let mut results = Vec::new();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                mutate_durable(&mut top_k_wal, round);
                top_k_wal
                    .service()
                    .rerank_batch_top_k_into(&qs, 10, &mut results);
                black_box(results.last().map(Vec::len))
            });
        });
        drop(top_k_wal);
        std::fs::remove_dir_all(&dir).ok();

        for shards in [1usize, 2, 8] {
            let top_k = sharded_service(n, shards);
            group.bench_with_input(
                BenchmarkId::new(format!("top10_mutated_shards{shards}"), n),
                &n,
                |b, _| {
                    let mut results = Vec::new();
                    let mut round = 0u64;
                    b.iter(|| {
                        round += 1;
                        mutate(&top_k, round);
                        top_k.rerank_batch_top_k_into(&qs, 10, &mut results);
                        black_box(results.last().map(Vec::len))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
