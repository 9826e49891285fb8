//! Criterion micro-benchmarks of the building blocks: re-ranking a result
//! list (per-call engine and batch-amortised serving paths), one simulated
//! community day and the Theorem-1 awareness distribution.
//!
//! The rerank and simulation-day benchmarks are the acceptance gauges for
//! the zero-allocation ranking core: `engine_rerank` measures the
//! per-query cost of the batch serving path (`rrp-serve`), with
//! `engine_rerank_unbatched` retained as the legacy per-call comparison
//! point, and `simulation_day` exercises the incremental popularity index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrp_core::{CorpusCache, Document, QueryContext, RankPromotionEngine};
use rrp_model::{new_rng, CommunityConfig, PowerLawQuality, QualityDistribution};
use rrp_ranking::{PageStats, PolicyKind, RandomizedRankPromotion, RankBuffers};
use rrp_serve::ShardedPromotionService;
use rrp_sim::{SimConfig, Simulation};
use std::hint::black_box;
use std::time::Duration;

fn corpus(n: usize) -> Vec<Document> {
    let dist = PowerLawQuality::paper_default();
    let mut rng = new_rng(7);
    (0..n)
        .map(|i| {
            if i % 10 == 0 {
                Document::unexplored(i as u64)
            } else {
                Document::established(i as u64, dist.sample(&mut rng).value()).with_age(i as u64)
            }
        })
        .collect()
}

fn page_stats(n: usize) -> Vec<PageStats> {
    let dist = PowerLawQuality::paper_default();
    let mut rng = new_rng(9);
    (0..n)
        .map(|slot| {
            let q = dist.sample(&mut rng).value();
            let awareness = if slot % 10 == 0 { 0.0 } else { 0.5 };
            PageStats::new(
                slot,
                rrp_model::PageId::new(slot as u64),
                awareness * q,
                awareness,
            )
            .with_age((slot % 365) as u64)
            .with_quality(q)
        })
        .collect()
}

/// Per-query cost of the batch serving path: the popularity order and
/// pool are maintained across queries (here, built once outside the timed
/// loop, as `ShardedPromotionService` keeps them), and each query ranks
/// from that source with reused scratch. This is the intended production path, so it carries the
/// headline `engine_rerank` name; `bench_engine_rerank_unbatched` keeps
/// the legacy one-shot path measurable next to it.
fn bench_engine_rerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rerank");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);
    for &n in &[100usize, 1_000, 10_000] {
        let docs = corpus(n);
        let engine = RankPromotionEngine::recommended();
        let mut stats = Vec::with_capacity(n);
        RankPromotionEngine::document_stats(&docs, &mut stats);
        let mut cache = CorpusCache::new();
        cache.rebuild(stats);
        let source = cache.source();
        let mut buffers = RankBuffers::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &docs, |b, docs| {
            let mut query = 0u64;
            b.iter(|| {
                query += 1;
                engine.rerank_source_into(
                    source,
                    None,
                    QueryContext::new(query, 42),
                    &mut buffers,
                    &mut slots,
                );
                let ids: Vec<u64> = slots.iter().map(|&s| docs[s].id).collect();
                black_box(ids)
            });
        });
    }
    group.finish();
}

/// End-to-end batch serving at 10k documents: 64 queries per call,
/// including the per-batch snapshot assembly and sort, serial and with the
/// machine's available parallelism.
fn bench_serve_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_batch_10k_docs_64_queries");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    let queries: Vec<QueryContext> = (0..64).map(|q| QueryContext::new(q, 42)).collect();
    for &(label, workers) in &[("1_worker", 1), ("all_workers", 0)] {
        let mut service = ShardedPromotionService::new(RankPromotionEngine::recommended(), 8);
        if workers > 0 {
            service = service.with_workers(workers);
        }
        service.extend(corpus(10_000));
        group.bench_function(label, |b| {
            b.iter(|| black_box(service.rerank_batch(&queries)))
        });
    }
    group.finish();
}

/// The legacy per-call engine path (fresh allocations, per-call sort) —
/// kept for comparison against `engine_rerank`'s amortised path.
fn bench_engine_rerank_unbatched(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rerank_unbatched");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);
    for &n in &[100usize, 1_000, 10_000] {
        let docs = corpus(n);
        let engine = RankPromotionEngine::recommended();
        group.bench_with_input(BenchmarkId::from_parameter(n), &docs, |b, docs| {
            let mut query = 0u64;
            b.iter(|| {
                query += 1;
                black_box(engine.rerank(docs, QueryContext::new(query, 42)))
            });
        });
    }
    group.finish();
}

fn bench_ranking_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranking_policy_10k_pages");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);
    let stats = page_stats(10_000);
    let mut rng = new_rng(1);
    group.bench_function("popularity", |b| {
        b.iter(|| black_box(PolicyKind::Popularity.rank(&stats, &mut rng)))
    });
    let promo = RandomizedRankPromotion::recommended(2);
    group.bench_function("selective_promotion", |b| {
        b.iter(|| black_box(PolicyKind::Promotion(promo).rank(&stats, &mut rng)))
    });
    // The same policy through the reusable arena (no per-call allocation).
    let mut buffers = RankBuffers::with_capacity(stats.len());
    let mut out = Vec::with_capacity(stats.len());
    group.bench_function("selective_promotion_rank_into", |b| {
        b.iter(|| {
            promo.rank_into(&stats, &mut rng, &mut buffers, &mut out);
            black_box(out.last().copied())
        })
    });
    // And from a maintained popularity order and pool (no per-call sort or
    // scan), as the `CorpusCache` the simulator and the serve layer keep
    // provides.
    let mut cache = CorpusCache::new();
    cache.rebuild(stats.iter().copied());
    let source = cache.source();
    group.bench_function("selective_promotion_presorted", |b| {
        b.iter(|| {
            promo.rank(source, None, &mut rng, &mut buffers, &mut out);
            black_box(out.last().copied())
        })
    });
    group.finish();
}

fn bench_simulation_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_day");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    let community = CommunityConfig::builder()
        .scaled_to_pages(10_000)
        .build()
        .unwrap();
    let mut sim = Simulation::new(
        SimConfig::for_community(community, 3),
        RandomizedRankPromotion::recommended(1),
    )
    .unwrap();
    sim.run(30);
    group.bench_function("10k_pages_selective", |b| b.iter(|| sim.run_day()));
    group.finish();
}

fn bench_analytic_awareness(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);
    group.bench_function("awareness_distribution_m100", |b| {
        b.iter(|| {
            black_box(rrp_analytic::awareness_distribution(
                |x| 0.001 + 0.5 * x,
                0.4,
                100,
                1.0 / 547.5,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_rerank,
    bench_engine_rerank_unbatched,
    bench_serve_batch,
    bench_ranking_policies,
    bench_simulation_day,
    bench_analytic_awareness
);
criterion_main!(benches);
