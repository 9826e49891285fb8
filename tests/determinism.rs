//! Workspace-level determinism guarantees.
//!
//! Three layers are pinned here:
//!
//! 1. **Golden vectors** — the exact rerank order for a fixed
//!    `(engine seed, query, session)`, the exact first outputs of the
//!    workspace RNG, and the simulator's metrics for a fixed community. If these change, every recorded experiment in the
//!    repository silently stops being reproducible, so a change must be
//!    deliberate (update the vectors in the same commit and say why).
//! 2. **Serial ≡ parallel** — every figure driver routes its sweep through
//!    `SweepExecutor`, whose per-cell seeds depend only on the cell's
//!    identity. Running the same figure with 1 worker and with many workers
//!    must produce byte-identical reports.
//! 3. **Engine stability** — the same `(engine seed, query, session)`
//!    produces the same order no matter how many times, or from how many
//!    threads, it is evaluated.

use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_experiments::runner::SweepExecutor;
use rrp_model::{new_rng, SeedSequence};
use rrp_ranking::{CorpusCache, PolicyKind, PromotionConfig, PromotionRule, RankBuffers};
use rrp_serve::{DurableService, ReplicaService, ShardedPromotionService};

fn corpus() -> Vec<Document> {
    let mut docs: Vec<Document> = (0..20)
        .map(|i| Document::established(i, 1.0 - i as f64 * 0.04).with_age(100))
        .collect();
    docs.extend((20..30).map(Document::unexplored));
    docs
}

/// Layer 1: the workspace RNG (ChaCha8 + SplitMix64 seeding) is pinned to
/// exact outputs. These values were recorded from this implementation; they
/// must never drift across platforms, Rust releases, or refactors.
#[test]
fn rng_golden_vector() {
    use rand::Rng;
    let mut rng = new_rng(123);
    let observed: Vec<u64> = (0..4).map(|_| rng.gen::<u64>()).collect();
    assert_eq!(observed, GOLDEN_RNG_123);

    let seq = SeedSequence::new(42);
    let observed: Vec<u64> = (0..4).map(|i| seq.child_seed(i)).collect();
    assert_eq!(observed, GOLDEN_CHILD_SEEDS_42);
}

/// Layer 1: the exact rerank order of the documented corpus under the
/// paper-recommended engine with seed 7, query 11, session 13.
#[test]
fn engine_rerank_golden_vector() {
    let engine = RankPromotionEngine::recommended().with_seed(7);
    let order = engine.rerank(&corpus(), QueryContext::new(11, 13));
    assert_eq!(order, GOLDEN_RERANK_7_11_13);
}

/// Layer 2, at the executor level: worker count and grid enumeration order
/// do not change any cell's derived stream, and therefore not its results.
#[test]
fn sweep_streams_are_schedule_independent() {
    let cells: Vec<(usize, f64)> = [1usize, 2, 6]
        .iter()
        .flat_map(|&k| [0.0f64, 0.1, 0.2].iter().map(move |&r| (k, r)))
        .collect();
    let label = |&(k, r): &(usize, f64)| format!("k={k} r={r}");

    let serial = SweepExecutor::new("Determinism probe").with_workers(1).run(
        cells.clone(),
        label,
        |cell, stream| (*cell, stream),
    );
    let threaded = SweepExecutor::new("Determinism probe").with_workers(7).run(
        cells.clone(),
        label,
        |cell, stream| (*cell, stream),
    );
    assert_eq!(serial, threaded);

    // Reversing the grid enumeration permutes the output rows but must not
    // change any cell's stream.
    let mut reversed_cells = cells;
    reversed_cells.reverse();
    let mut reversed = SweepExecutor::new("Determinism probe").with_workers(7).run(
        reversed_cells,
        label,
        |cell, stream| (*cell, stream),
    );
    reversed.reverse();
    assert_eq!(serial, reversed);
}

/// Layer 3: rerank is a pure function of `(engine seed, query, session)` —
/// stable across repeated evaluation and across threads.
#[test]
fn rerank_is_stable_across_threads() {
    let engine =
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Selective, 2, 0.3).unwrap())
            .with_seed(99);
    let ctx = QueryContext::from_strings("stacked deck", "session-7");
    let reference = engine.rerank(&corpus(), ctx);

    let docs = corpus();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..50 {
                    assert_eq!(engine.rerank(&docs, ctx), reference);
                }
            });
        }
    });
}

/// Layer 3, at the serving tier: `rerank_batch` across 1, 2 and 8 shards
/// and 1, 2 and 8 workers answers every query exactly as the sequential
/// `RankPromotionEngine` does on the canonical corpus — the shard layout
/// and the batch scheduling are pure deployment choices, invisible in the
/// results. The golden vector pins one batch answer so a change to any
/// layer (engine, ranking, serving) that shifts the randomization is
/// caught here, not in production.
#[test]
fn serve_batch_matches_sequential_engine_across_shards_and_workers() {
    let engine = RankPromotionEngine::recommended().with_seed(7);
    let queries: Vec<QueryContext> = (0..12)
        .map(|q| QueryContext::new(11 + q, 13 + 2 * q))
        .collect();
    let docs = corpus();
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|&ctx| engine.rerank(&docs, ctx))
        .collect();

    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2, 8] {
            let service = ShardedPromotionService::new(engine, shards).with_workers(workers);
            service.extend(docs.iter().copied());
            assert_eq!(
                service.rerank_batch(&queries),
                expected,
                "{shards} shards × {workers} workers must equal the sequential engine"
            );
        }
    }

    // The first query is the documented golden context (seed 7, query 11,
    // session 13): the serving tier must reproduce the engine's pinned
    // golden vector bit for bit.
    assert_eq!(expected[0], GOLDEN_RERANK_7_11_13);
}

/// Layer 3, top-k: the early-exit path equals the length-`k` prefix of the
/// full rerank at every layer (engine and serving tier), pinned against the
/// same golden vector as the full path — if the top-k merge ever drew one
/// coin differently, the prefix would diverge from `GOLDEN_RERANK_7_11_13`
/// here.
#[test]
fn top_k_is_the_golden_prefix_at_every_layer() {
    let engine = RankPromotionEngine::recommended().with_seed(7);
    let ctx = QueryContext::new(11, 13);
    let docs = corpus();
    for k in [1usize, 5, 10, 30] {
        assert_eq!(
            engine.rerank_top_k(&docs, ctx, k),
            GOLDEN_RERANK_7_11_13[..k],
            "engine top-{k}"
        );
    }
    for shards in [1usize, 4] {
        let service = ShardedPromotionService::new(engine, shards).with_workers(2);
        service.extend(docs.iter().copied());
        for k in [1usize, 10, 30] {
            assert_eq!(
                service.rerank_top_k(ctx, k),
                GOLDEN_RERANK_7_11_13[..k],
                "service top-{k}, {shards} shards"
            );
        }
        let mut batch = Vec::new();
        service.rerank_batch_top_k_into(&[ctx], 10, &mut batch);
        assert_eq!(batch[0], GOLDEN_RERANK_7_11_13[..10]);
    }
}

/// Layer 3, the pooled serving path: `PolicyKind::rank_view_into` — the
/// `O(pool + k)` route that reads the persistent [`PoolIndex`] instead of
/// scanning the corpus per query — reproduces the recorded top-10 golden
/// for **all four policies** from the same RNG state. The pool's
/// pre-shuffle member order feeds the generator directly, so a pool index
/// that listed its members in any other order (or retained a stale member)
/// would shift these vectors; equality with both the recorded constants
/// and the live scanning path pins the RNG stream exactly.
#[test]
fn pooled_top_k_reproduces_the_recorded_goldens_for_all_four_policies() {
    let docs = corpus();
    let mut stats = Vec::new();
    RankPromotionEngine::document_stats(&docs, &mut stats);
    let mut cache = CorpusCache::new();
    cache.rebuild(stats.iter().copied());
    let mut buffers = RankBuffers::new();
    let (mut pooled, mut scanned) = (Vec::new(), Vec::new());
    let kinds: [(PolicyKind, &[usize; 10]); 4] = [
        (PolicyKind::Popularity, &GOLDEN_TOP10_POPULARITY_123),
        (PolicyKind::QualityOracle, &GOLDEN_TOP10_ORACLE_123),
        (PolicyKind::FullyRandom, &GOLDEN_TOP10_RANDOM_123),
        (PolicyKind::recommended(2), &GOLDEN_TOP10_SELECTIVE_123),
    ];
    for (kind, golden) in kinds {
        kind.rank_view_into(
            &cache,
            Some(10),
            &mut new_rng(123),
            &mut buffers,
            &mut pooled,
        );
        assert_eq!(pooled, *golden, "{} pooled golden", kind.name());
        kind.rank_into(&stats, &mut new_rng(123), &mut buffers, &mut scanned);
        assert_eq!(pooled, scanned[..10], "{} pooled ≡ scanning", kind.name());
    }
}

/// Layer 1, the three baselines over pages that tell them apart: quality
/// order differs from popularity order, popularities tie (broken by age,
/// then slot), two qualities tie (broken by slot), and the slice lists the
/// slots out of order, so every output must map positions back to slots.
/// The full-length `rank_into` orders of popularity, the quality oracle
/// and the fully random shuffle at `new_rng(123)` are pinned. The
/// cache-backed `rank_view_into` (over the same pages in slot order) must
/// equal `rank_into` over that slice, and for the two sorts, the golden.
#[test]
fn baseline_policies_reproduce_their_recorded_goldens() {
    use rrp_model::PageId;
    use rrp_ranking::PageStats;

    const POPULARITY: [f64; 12] = [0.5, 0.3, 0.3, 0.3, 0.9, 0.0, 0.1, 0.5, 0.0, 0.7, 0.3, 0.2];
    const QUALITY: [f64; 12] = [
        0.2, 0.8, 0.1, 0.6, 0.05, 0.9, 0.4, 0.3, 0.6, 0.15, 0.7, 0.95,
    ];
    let pages: Vec<PageStats> = (0..12)
        .map(|i| {
            let slot = (i * 5) % 12;
            let awareness = if POPULARITY[slot] > 0.0 { 0.5 } else { 0.0 };
            PageStats::new(
                slot,
                PageId::new(100 + slot as u64),
                POPULARITY[slot],
                awareness,
            )
            .with_age((slot % 4) as u64)
            .with_quality(QUALITY[slot])
        })
        .collect();
    let mut dense = pages.clone();
    dense.sort_unstable_by_key(|p| p.slot);
    let mut cache = CorpusCache::new();
    cache.rebuild(dense.iter().copied());
    let mut buffers = RankBuffers::new();
    let (mut full, mut view) = (Vec::new(), Vec::new());
    let kinds: [(PolicyKind, &[usize; 12]); 3] = [
        (PolicyKind::Popularity, &GOLDEN_BASELINE_POPULARITY_123),
        (PolicyKind::QualityOracle, &GOLDEN_BASELINE_ORACLE_123),
        (PolicyKind::FullyRandom, &GOLDEN_BASELINE_RANDOM_123),
    ];
    for (kind, golden) in kinds {
        kind.rank_into(&pages, &mut new_rng(123), &mut buffers, &mut full);
        assert_eq!(full, *golden, "{}", kind.name());
        kind.rank_view_into(&cache, None, &mut new_rng(123), &mut buffers, &mut view);
        kind.rank_into(&dense, &mut new_rng(123), &mut buffers, &mut full);
        assert_eq!(view, full, "{} cache view", kind.name());
        if kind != PolicyKind::FullyRandom {
            assert_eq!(view, *golden, "{} ignores the slice order", kind.name());
        }
    }
}

/// Layer 3, mutate-then-serve: a fixed schedule of visits, a popularity
/// update and two inserts applied to a warm service, then one pooled top-k
/// query — pinned to a recorded golden. This is the path where a repaired
/// (rather than re-derived) pool index is on the line end to end: the two
/// visited documents left the pool, the inserted unexplored one joined it,
/// and any drift in membership *or member order* would shift the merged
/// prefix recorded here.
#[test]
fn mutate_then_serve_top_k_matches_its_golden() {
    let engine = RankPromotionEngine::recommended().with_seed(7);
    let service = ShardedPromotionService::new(engine, 4).with_workers(2);
    service.extend(corpus());
    service.rerank_batch(&[QueryContext::new(0, 0)]); // warm the indexes
    assert!(service.record_visit(22));
    assert!(service.record_visit(25));
    assert!(service.update_popularity(3, 1.5));
    service.insert(Document::established(40, 0.77).with_age(9));
    service.insert(Document::unexplored(41));
    assert_eq!(
        service.rerank_top_k(QueryContext::new(11, 13), 12),
        GOLDEN_MUTATE_THEN_SERVE_TOP12
    );
    // The schedule was served entirely from repaired state.
    let stats = service.serve_stats();
    assert_eq!(stats.mask_resets, 0);
}

/// Layer 3, the sharded serving path: top-k answered from the service's
/// one corpus-wide cache reproduces the recorded goldens for **all four
/// serving policies**, at every store shard count, for `k` at 1, at the
/// protected-prefix boundary (`start_rank`), and at 10. The pool's
/// pre-shuffle order and the order prefix feed the RNG and the coin-flip
/// merge directly, so a cache that held either one differently — even
/// only at some shard count — would shift these vectors. Selective
/// engines read the pool and an order prefix; Uniform engines draw their
/// per-page coins over the complete order and are pinned to the same bar.
#[test]
fn shard_merged_top_k_reproduces_the_recorded_goldens_for_all_four_policies() {
    let policies: [(RankPromotionEngine, [u64; 10]); 4] = [
        (
            RankPromotionEngine::recommended(),
            GOLDEN_RERANK_7_11_13_TOP10,
        ),
        (
            RankPromotionEngine::new(
                PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap(),
            ),
            GOLDEN_TOP10_SELECTIVE_R50_K1_7_11_13,
        ),
        (
            RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
            GOLDEN_TOP10_UNIFORM_R30_K1_7_11_13,
        ),
        (
            RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.1).unwrap()),
            GOLDEN_TOP10_UNIFORM_R10_K2_7_11_13,
        ),
    ];
    // The recommended engine's vector is exactly the documented full
    // golden's prefix — one source of truth, restated as `[u64; 10]`.
    assert_eq!(GOLDEN_RERANK_7_11_13_TOP10, GOLDEN_RERANK_7_11_13[..10]);
    let ctx = QueryContext::new(11, 13);
    let docs = corpus();
    for (engine, golden) in policies {
        let engine = engine.with_seed(7);
        let label = engine.config().label();
        for shards in [1usize, 3, 8] {
            let service = ShardedPromotionService::new(engine, shards).with_workers(2);
            service.extend(docs.iter().copied());
            for k in [1usize, engine.config().start_rank, 10] {
                assert_eq!(
                    service.rerank_top_k(ctx, k),
                    golden[..k],
                    "{label}, {shards} shards, top-{k}"
                );
                let mut batch = Vec::new();
                service.rerank_batch_top_k_into(&[ctx], k, &mut batch);
                assert_eq!(
                    batch[0],
                    golden[..k],
                    "{label}, {shards} shards, batch top-{k}"
                );
            }
            // The routing probe: every engine answered all six queries
            // from the one corpus-wide cache — no shard retrieval and no
            // order merge exist at any shard count.
            let stats = service.serve_stats();
            assert_eq!(stats.order_merges, 0, "{label}");
            assert_eq!(stats.shard_retrievals, 0, "{label}");
        }
    }
}

/// Layer 3, the Uniform coin scan through the complete order: a Uniform
/// engine flips one coin per page *in slot order*, so its full rerank
/// consumes every slot of the ranking, answered from the service's
/// complete popularity order. The recorded golden pins the entire 30-slot
/// output (not just a prefix): if the served order were even one
/// transposition away from the canonical popularity order at any store
/// shard count, some coin would land on the wrong page and this vector
/// would shift. The probe confirms the route: zero shard retrievals and
/// zero order merges.
#[test]
fn uniform_full_rerank_reproduces_its_golden_through_the_merged_order() {
    let engine =
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap())
            .with_seed(7);
    let ctx = QueryContext::new(11, 13);
    let docs = corpus();
    assert_eq!(
        engine.rerank(&docs, ctx),
        GOLDEN_UNIFORM_R30_K1_FULL_7_11_13
    );
    // The recorded top-10 golden for this engine is exactly this full
    // golden's prefix — one RNG stream, restated at two lengths.
    assert_eq!(
        GOLDEN_UNIFORM_R30_K1_FULL_7_11_13[..10],
        GOLDEN_TOP10_UNIFORM_R30_K1_7_11_13
    );
    for shards in [1usize, 3, 8] {
        for workers in [1usize, 2] {
            let service = ShardedPromotionService::new(engine, shards).with_workers(workers);
            service.extend(docs.iter().copied());
            assert_eq!(
                service.rerank_one(ctx),
                GOLDEN_UNIFORM_R30_K1_FULL_7_11_13,
                "{shards} shards × {workers} workers, sequential"
            );
            let mut batch = Vec::new();
            service.rerank_batch_into(&[ctx, ctx], &mut batch);
            assert_eq!(batch[0], GOLDEN_UNIFORM_R30_K1_FULL_7_11_13);
            assert_eq!(batch[1], GOLDEN_UNIFORM_R30_K1_FULL_7_11_13);
            let stats = service.serve_stats();
            assert_eq!(stats.shard_retrievals, 0, "{shards} shards");
            assert_eq!(stats.order_merges, 0, "{shards} shards");
        }
    }
}

/// Layer 3, the candidate merge at the ranking layer: collecting the
/// documented corpus's rest candidates off its corpus-wide cache
/// (`ShardCandidates::collect_rest`), merging them
/// (`merge_shard_candidates_into`, the benchmark's re-enacted read) and
/// ranking that retrieved source with the cache's pool reproduces the
/// *same* recorded pooled golden as the complete source, from the same
/// RNG state.
#[test]
fn shard_candidate_merge_reproduces_the_pooled_goldens() {
    use rrp_ranking::{merge_shard_candidates_into, MergedCandidates, RankSource, ShardCandidates};

    let docs = corpus();
    let mut stats = Vec::new();
    RankPromotionEngine::document_stats(&docs, &mut stats);
    let PolicyKind::Promotion(policy) = PolicyKind::recommended(2) else {
        unreachable!()
    };
    let mut buffers = RankBuffers::new();
    let mut out = Vec::new();
    let mut cache = CorpusCache::new();
    cache.rebuild(stats.iter().copied());
    let mut candidates = ShardCandidates::new();
    candidates.collect_rest(&cache, 10);
    let mut merged = MergedCandidates::new();
    merge_shard_candidates_into(&[candidates], 10, &mut merged);
    let rest_slots: Vec<u32> = merged.rest().iter().map(|p| p.slot as u32).collect();
    policy.rank(
        RankSource::retrieved(cache.pool().members(), &rest_slots),
        Some(10),
        &mut new_rng(123),
        &mut buffers,
        &mut out,
    );
    assert_eq!(out, GOLDEN_TOP10_SELECTIVE_123, "retrieved form");
    policy.rank(
        cache.source(),
        Some(10),
        &mut new_rng(123),
        &mut buffers,
        &mut out,
    );
    assert_eq!(out, GOLDEN_TOP10_SELECTIVE_123, "complete source");
}

/// Layer 3, mutate-then-merge: the documented mutation schedule (two
/// visits, a popularity boost, two inserts) applied before the first
/// publication reproduces the same recorded golden at every store shard
/// count. Mutations here cross store shard boundaries (the two inserts
/// land on different shards as the count changes), so a serving tier that
/// mis-mapped a sequence to its slot at some count would shift this
/// vector.
#[test]
fn mutate_then_merge_schedule_reproduces_its_golden_at_every_shard_count() {
    let engine = RankPromotionEngine::recommended().with_seed(7);
    for shards in [1usize, 3, 8] {
        let service = ShardedPromotionService::new(engine, shards).with_workers(2);
        service.extend(corpus());
        assert!(service.record_visit(22));
        assert!(service.record_visit(25));
        assert!(service.update_popularity(3, 1.5));
        service.insert(Document::established(40, 0.77).with_age(9));
        service.insert(Document::unexplored(41));
        assert_eq!(
            service.rerank_top_k(QueryContext::new(11, 13), 12),
            GOLDEN_MUTATE_THEN_SERVE_TOP12,
            "{shards} shards"
        );
        let stats = service.serve_stats();
        assert_eq!(stats.order_merges, 0, "{shards} shards");
        assert_eq!(stats.shard_retrievals, 0);
        assert_eq!(
            stats.version_publications, 1,
            "one repair covers the schedule"
        );
        assert_eq!(stats.mask_resets, 0);
    }
}

/// Layer 1 + 3, engine v2: the lazy-shuffle top-k path has its own
/// recorded golden set, pinned at every shard count alongside the
/// single-engine reference. V2 spends the pool's randomness lazily — one
/// swap draw per promoted slot actually consumed — so its top-k output
/// is *not* the v1 full rerank's prefix; the invariants on the line are
/// instead (a) the recorded vectors themselves, (b) served ≡
/// single v2 engine, (c) prefix consistency *within* the v2 top-k family
/// (`k = 1` is the head of `k = 10`), and (d) Uniform engines staying
/// bit-identical to v1 under v2 (the overlay only serves the Selective
/// rule). The draw probe rides along: at most `k` swap draws per query.
#[test]
fn v2_shard_merged_top_k_reproduces_its_recorded_goldens() {
    let policies: [(RankPromotionEngine, [u64; 10]); 4] = [
        (
            RankPromotionEngine::recommended(),
            GOLDEN_V2_TOP10_RECOMMENDED_7_11_13,
        ),
        (
            RankPromotionEngine::new(
                PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap(),
            ),
            GOLDEN_V2_TOP10_SELECTIVE_R50_K1_7_11_13,
        ),
        // The Uniform rule never touches the lazy overlay: its v2
        // vectors are the recorded v1 constants, by design.
        (
            RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
            GOLDEN_TOP10_UNIFORM_R30_K1_7_11_13,
        ),
        (
            RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.1).unwrap()),
            GOLDEN_TOP10_UNIFORM_R10_K2_7_11_13,
        ),
    ];
    // The lazy draw order is a real behaviour change for selective
    // engines: the v2 recommended vector must *differ* from the v1
    // golden prefix, or the version flag routes nowhere.
    assert_ne!(
        GOLDEN_V2_TOP10_RECOMMENDED_7_11_13,
        GOLDEN_RERANK_7_11_13[..10]
    );
    let ctx = QueryContext::new(11, 13);
    let docs = corpus();
    for (engine, golden) in policies {
        let engine = engine.with_seed(7).with_version(EngineVersion::V2);
        let label = engine.config().label();
        // The single-engine v2 reference owns the golden; prefix
        // consistency holds within the top-k family.
        for k in [1usize, engine.config().start_rank, 10] {
            assert_eq!(
                engine.rerank_top_k(&docs, ctx, k),
                golden[..k],
                "{label} engine top-{k}"
            );
        }
        for shards in [1usize, 3, 8] {
            let service = ShardedPromotionService::new(engine, shards).with_workers(2);
            service.extend(docs.iter().copied());
            let mut served = 0u64;
            for k in [1usize, engine.config().start_rank, 10] {
                assert_eq!(
                    service.rerank_top_k(ctx, k),
                    golden[..k],
                    "{label}, {shards} shards, top-{k}"
                );
                let mut batch = Vec::new();
                service.rerank_batch_top_k_into(&[ctx], k, &mut batch);
                assert_eq!(
                    batch[0],
                    golden[..k],
                    "{label}, {shards} shards, batch top-{k}"
                );
                served += 2 * k as u64;
            }
            // Same routing probe as v1, plus the O(k)-draw contract.
            let stats = service.serve_stats();
            assert_eq!(stats.order_merges, 0, "{label}");
            assert_eq!(stats.shard_retrievals, 0, "{label}");
            if engine.reads_pool_index() {
                assert!(
                    stats.pool_draws <= served,
                    "{label}: {} draws exceed the k-per-query budget {served}",
                    stats.pool_draws
                );
            } else {
                assert_eq!(stats.pool_draws, 0, "{label}: Uniform never draws");
            }
            assert_eq!(
                stats.mask_resets,
                if engine.reads_pool_index() { 0 } else { 6 },
                "{label}"
            );
        }
    }
}

/// Layer 3, engine v2 mutate-then-serve: the documented mutation schedule
/// under a v2 engine has its own recorded golden, reproduced at every
/// shard count from repaired state alone — the v2 twin of
/// [`mutate_then_serve_top_k_matches_its_golden`] and
/// [`mutate_then_merge_schedule_reproduces_its_golden_at_every_shard_count`].
/// The post-mutation pool (22 and 25 visited out, 41 in) feeds the lazy
/// overlay directly, so a repair that mis-merged membership or member
/// order would shift both the swap draws and this vector.
#[test]
fn v2_mutate_then_serve_matches_its_golden_at_every_shard_count() {
    let engine = RankPromotionEngine::recommended()
        .with_seed(7)
        .with_version(EngineVersion::V2);
    for shards in [1usize, 3, 8] {
        let service = ShardedPromotionService::new(engine, shards).with_workers(2);
        service.extend(corpus());
        service.rerank_batch(&[QueryContext::new(0, 0)]); // warm the indexes
        assert!(service.record_visit(22));
        assert!(service.record_visit(25));
        assert!(service.update_popularity(3, 1.5));
        service.insert(Document::established(40, 0.77).with_age(9));
        service.insert(Document::unexplored(41));
        assert_eq!(
            service.rerank_top_k(QueryContext::new(11, 13), 12),
            GOLDEN_V2_MUTATE_THEN_SERVE_TOP12,
            "{shards} shards"
        );
        let stats = service.serve_stats();
        assert_eq!(stats.mask_resets, 0);
        assert!(stats.pool_draws <= 12, "{shards} shards: O(k) draws");
    }
}

/// Layer 3, time travel off the log: the documented mutation schedule is
/// written through a durable leader (snapshots off, so the log is the
/// full history), then fresh replicas recover it with a sequence cap at
/// three historical marks. Each capped state is pinned to a recorded
/// vector: event 30 is the untouched corpus (the documented full-rerank
/// golden's prefix), event 35 is the complete schedule (the recorded
/// mutate-then-serve golden — time travel to the end *is* recovery), and
/// event 33 — mid-schedule, after the visits and the popularity boost but
/// before the two inserts — has its own constant. If capped replay ever
/// applied one event too many or too few, or replayed them out of order,
/// one of these three vectors would shift.
#[test]
fn time_travel_replicas_reproduce_the_recorded_history() {
    let dir = std::env::temp_dir().join(format!("rrp-determinism-travel-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();

    let engine = RankPromotionEngine::recommended().with_seed(7);
    let (leader, _) = DurableService::open(&dir, engine, 3).unwrap();
    let mut leader = leader.with_snapshot_every(u64::MAX);
    for doc in corpus() {
        leader.insert(doc).unwrap(); // events 0..30
    }
    leader.record_visit(22).unwrap(); // event 30
    leader.record_visit(25).unwrap(); // event 31
    leader.update_popularity(3, 1.5).unwrap(); // event 32
    leader
        .insert(Document::established(40, 0.77).with_age(9))
        .unwrap(); // event 33
    leader.insert(Document::unexplored(41)).unwrap(); // event 34
    let total = leader.sync_for_followers().unwrap();
    assert_eq!(total, 35, "the documented schedule is 35 events");
    drop(leader);

    let ctx = QueryContext::new(11, 13);
    let marks: [(u64, &[u64; 12]); 3] = [
        (30, &GOLDEN_TIME_TRAVEL_AT_30),
        (33, &GOLDEN_TIME_TRAVEL_AT_33),
        (35, &GOLDEN_MUTATE_THEN_SERVE_TOP12),
    ];
    for (cap, golden) in marks {
        let mut replica = ReplicaService::open(&dir, engine, 3).unwrap();
        replica.apply_up_to(cap).unwrap();
        let stats = replica.stats();
        assert_eq!(stats.events_applied, cap, "capped replay stops exactly");
        assert_eq!(stats.behind_by, total - cap, "the rest is held, not lost");
        assert_eq!(
            replica.service().rerank_top_k(ctx, 12),
            *golden,
            "history at event {cap}"
        );
    }
    // The pre-mutation past is the documented corpus exactly.
    assert_eq!(GOLDEN_TIME_TRAVEL_AT_30, GOLDEN_RERANK_7_11_13[..12]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Layer 1, the simulator: a tiny community run under all five policy
/// shapes the figure drivers use (three deterministic baselines, the
/// recommended Selective promotion and a Uniform-rule promotion), with
/// pure search and with half the visits random surfing, plus one
/// fresh-best-page trace (the probe path: a slot reset mid-run and a
/// re-rank per traced day). Every metric is pinned as raw `f64` bits, so
/// a change to the day loop's RNG stream, its incremental ranking state or
/// its visit accounting shifts these vectors.
#[test]
fn simulation_reproduces_its_recorded_golden() {
    use rrp_model::CommunityConfig;
    use rrp_sim::{SimConfig, SimMetrics, Simulation};

    let community = CommunityConfig::builder()
        .pages(60)
        .users(30)
        .monitored_users(15)
        .total_visits_per_day(30.0)
        .expected_lifetime_days(40.0)
        .build()
        .unwrap();
    let config = |surf: f64| SimConfig::for_community(community, 17).with_surf_fraction(surf);
    let bits = |m: SimMetrics| {
        [
            m.days_measured,
            m.absolute_qpc.to_bits(),
            m.ideal_qpc.to_bits(),
            m.normalized_qpc.to_bits(),
            m.mean_zero_awareness_fraction.to_bits(),
        ]
    };
    let policies = [
        PolicyKind::Popularity,
        PolicyKind::QualityOracle,
        PolicyKind::FullyRandom,
        PolicyKind::recommended(1),
        PolicyKind::promotion(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
    ];
    let mut observed = Vec::new();
    for surf in [0.0, 0.5] {
        for policy in policies {
            let mut sim = Simulation::new(config(surf), policy).unwrap();
            observed.push(bits(sim.run_windows(30, 30)));
        }
    }
    assert_eq!(observed, GOLDEN_SIM_METRICS_17);

    let mut sim = Simulation::new(config(0.0), PolicyKind::recommended(1)).unwrap();
    sim.run(20);
    let trace = sim.trace_fresh_best_page(15);
    let trace_bits: Vec<u64> = trace
        .popularity
        .iter()
        .chain(&trace.daily_visits)
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(trace_bits, GOLDEN_SIM_TRACE_17);
    assert_eq!(bits(sim.run_windows(0, 10)), GOLDEN_SIM_AFTER_TRACE_17);
}

/// Layer 1, the bulk-draw paths at sizes the small goldens never reach:
/// V1 Selective and Uniform ranks over 3 000 pages with a 700-page pool,
/// and `shuffle` at lengths on both sides of 128 words. Each case pins a
/// digest of its output and the generator's next `next_u64`, so a change
/// that drew one word more or fewer, or in another order, fails here even
/// when the output happens to match. Recorded before any RNG word was
/// drawn in bulk.
#[test]
fn bulk_draw_paths_reproduce_their_recorded_goldens() {
    use rand::seq::SliceRandom;
    use rand::RngCore;
    use rrp_model::PageId;
    use rrp_ranking::{popularity_order, PageStats, RandomizedRankPromotion, RankSource};

    /// FNV-1a over the output's words.
    fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        })
    }
    // Slots with `slot % 30 < 7` are unexplored: 700 of 3 000.
    let pages: Vec<PageStats> = (0..3_000)
        .map(|slot| {
            if slot % 30 < 7 {
                PageStats::new(slot, PageId::new(slot as u64), 0.0, 0.0)
            } else {
                let popularity = ((slot * 7_919) % 2_300 + 1) as f64 / 1e4;
                PageStats::new(slot, PageId::new(slot as u64), popularity, 0.5)
                    .with_age(slot as u64 % 50)
            }
        })
        .collect();
    let mut order: Vec<u32> = (0..pages.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| popularity_order(&pages[a as usize], &pages[b as usize]));
    let pool: Vec<usize> = (0..pages.len())
        .filter(|&s| pages[s].is_unexplored())
        .collect();
    assert_eq!(pool.len(), 700);
    let source = RankSource::new(&pool, &order, |s| pages[s].is_unexplored());

    let mut observed = Vec::new();
    let mut buffers = RankBuffers::new();
    let mut out = Vec::new();
    let configs = [
        (PromotionRule::Selective, 2, 0.1),
        (PromotionRule::Selective, 1, 0.5),
        (PromotionRule::Selective, 3, 0.9),
        (PromotionRule::Uniform, 1, 0.3),
        (PromotionRule::Uniform, 2, 0.1),
    ];
    for (case, (rule, start_rank, degree)) in configs.into_iter().enumerate() {
        let config = PromotionConfig::new(rule, start_rank, degree).unwrap();
        let policy = RandomizedRankPromotion::new(config);
        let seed = 1_000 + case as u64;
        // The scanning path: split, shuffle, sort, merge.
        let mut rng = new_rng(seed);
        PolicyKind::Promotion(policy).rank_into(&pages, &mut rng, &mut buffers, &mut out);
        let scanned = digest(out.iter().map(|&s| s as u64));
        observed.push((scanned, rng.next_u64()));
        // The maintained-state path, full and top-k.
        for k in [None, Some(10), Some(300)] {
            let mut rng = new_rng(seed);
            policy.rank(source, k, &mut rng, &mut buffers, &mut out);
            if k.is_none() {
                assert_eq!(digest(out.iter().map(|&s| s as u64)), scanned);
            }
            observed.push((digest(out.iter().map(|&s| s as u64)), rng.next_u64()));
        }
    }
    for len in [0usize, 1, 2, 127, 128, 129, 256, 1_000, 4_097] {
        let mut values: Vec<u64> = (0..len as u64).collect();
        let mut rng = new_rng(len as u64);
        values.shuffle(&mut rng);
        observed.push((digest(values.iter().copied()), rng.next_u64()));
        // Odd word alignment: one `next_u32` first.
        let mut values: Vec<u64> = (0..len as u64).collect();
        let mut rng = new_rng(len as u64);
        let _ = rng.next_u32();
        values.shuffle(&mut rng);
        observed.push((digest(values.iter().copied()), rng.next_u64()));
    }
    assert_eq!(observed, GOLDEN_BULK_DRAWS);
}

/// Golden outputs of `new_rng(123)`.
const GOLDEN_RNG_123: [u64; 4] = [
    17369494502333954609,
    8906600561978300523,
    11016226833398420403,
    5554171481409164416,
];

/// Golden outputs of `SeedSequence::new(42).child_seed(0..4)`.
const GOLDEN_CHILD_SEEDS_42: [u64; 4] = [
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
    701532786141963250,
];

/// Golden rerank order for the documented corpus, engine seed 7,
/// `QueryContext::new(11, 13)`.
const GOLDEN_RERANK_7_11_13: [u64; 30] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 23, 22, 14, 15, 16, 27, 17, 18, 19, 26, 29, 25,
    24, 21, 20, 28,
];

/// Golden pooled top-10 *slot* orders over the documented corpus from
/// `new_rng(123)`, one per policy (recorded from the scanning path these
/// constants hold the pooled path to).
const GOLDEN_TOP10_POPULARITY_123: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
const GOLDEN_TOP10_ORACLE_123: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
const GOLDEN_TOP10_RANDOM_123: [usize; 10] = [9, 12, 20, 6, 16, 27, 23, 21, 5, 3];
const GOLDEN_TOP10_SELECTIVE_123: [usize; 10] = [0, 1, 28, 2, 3, 4, 5, 6, 7, 8];

/// Golden full-length *slot* orders of the three baselines over the
/// pages of `baseline_policies_reproduce_their_recorded_goldens`, from
/// `new_rng(123)`.
const GOLDEN_BASELINE_POPULARITY_123: [usize; 12] = [4, 9, 7, 0, 3, 2, 10, 1, 11, 6, 5, 8];
const GOLDEN_BASELINE_ORACLE_123: [usize; 12] = [11, 5, 1, 10, 3, 8, 6, 7, 0, 9, 2, 4];
const GOLDEN_BASELINE_RANDOM_123: [usize; 12] = [10, 9, 0, 2, 11, 7, 6, 4, 8, 3, 5, 1];

/// Golden top-12 document ids after the documented mutate-then-serve
/// schedule (engine seed 7, `QueryContext::new(11, 13)`).
const GOLDEN_MUTATE_THEN_SERVE_TOP12: [u64; 12] = [3, 0, 1, 2, 4, 5, 40, 6, 7, 8, 9, 10];

/// Golden time-travel vectors (engine seed 7, `QueryContext::new(11, 13)`,
/// top-12): the documented durable schedule recovered with a sequence cap
/// at event 30 (the untouched corpus — equals the full-rerank golden's
/// prefix) and at event 33 (after both visits and the popularity boost,
/// before either insert). The cap-35 vector is
/// `GOLDEN_MUTATE_THEN_SERVE_TOP12` itself.
const GOLDEN_TIME_TRAVEL_AT_30: [u64; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
const GOLDEN_TIME_TRAVEL_AT_33: [u64; 12] = [3, 0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11];

/// Golden top-10 document ids over the documented corpus for the other
/// three serving policies (engine seed 7, `QueryContext::new(11, 13)`;
/// the recommended engine's vector is the `GOLDEN_RERANK_7_11_13`
/// prefix). Recorded from the single sequential engine; the shard-merge
/// serving path is held to them at every shard count.
const GOLDEN_RERANK_7_11_13_TOP10: [u64; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// Golden *complete* rerank (all 30 slots) for the Uniform r = 0.3,
/// k = 1 engine, seed 7, `QueryContext::new(11, 13)` — the coin-scan
/// path served from the complete popularity order. Its prefix is
/// `GOLDEN_TOP10_UNIFORM_R30_K1_7_11_13`.
const GOLDEN_UNIFORM_R30_K1_FULL_7_11_13: [u64; 30] = [
    0, 1, 3, 4, 5, 25, 22, 6, 8, 7, 9, 10, 11, 27, 29, 23, 12, 26, 15, 14, 16, 17, 13, 2, 18, 19,
    20, 21, 24, 28,
];
const GOLDEN_TOP10_SELECTIVE_R50_K1_7_11_13: [u64; 10] = [0, 23, 1, 2, 22, 27, 3, 26, 4, 5];
const GOLDEN_TOP10_UNIFORM_R30_K1_7_11_13: [u64; 10] = [0, 1, 3, 4, 5, 25, 22, 6, 8, 7];
const GOLDEN_TOP10_UNIFORM_R10_K2_7_11_13: [u64; 10] = [0, 1, 3, 4, 5, 6, 7, 8, 9, 10];

/// Golden engine-v2 top-10 document ids (lazy pool shuffle; engine seed 7,
/// `QueryContext::new(11, 13)`). Recorded from the single v2 engine's
/// `rerank_top_k`; the shard-merge serving path is held to them at every
/// shard count. The Uniform rules have no v2 constants of their own —
/// v2 leaves their streams bit-identical to v1.
const GOLDEN_V2_TOP10_RECOMMENDED_7_11_13: [u64; 10] = [0, 1, 2, 23, 3, 4, 5, 6, 7, 8];
const GOLDEN_V2_TOP10_SELECTIVE_R50_K1_7_11_13: [u64; 10] = [0, 1, 23, 26, 2, 29, 3, 25, 4, 20];

/// Golden engine-v2 top-12 document ids after the documented
/// mutate-then-serve schedule (engine seed 7, `QueryContext::new(11, 13)`).
const GOLDEN_V2_MUTATE_THEN_SERVE_TOP12: [u64; 12] = [3, 0, 1, 27, 2, 4, 5, 40, 6, 7, 8, 9];

/// Golden simulator metrics (community of 60 pages, seed 17, 30 warm-up +
/// 30 measured days) as `[days, absolute, ideal, normalized, zero-aware]`
/// bits: popularity, oracle, fully random, recommended(1) and Uniform
/// r = 0.3 k = 1, first with `surf_fraction` 0, then 0.5.
const GOLDEN_SIM_METRICS_17: [[u64; 5]; 10] = [
    [
        30,
        4572560687636185654,
        4595372468040232909,
        4584237927359508383,
        4603144191134141863,
    ],
    [
        30,
        4595372468040232905,
        4595372468040232909,
        4607182418800017402,
        4600707243335775829,
    ],
    [
        30,
        4573498820022566556,
        4595372468040232909,
        4585132132710027482,
        4594912611815225790,
    ],
    [
        30,
        4570554685940564022,
        4595372468040232909,
        4581760496592118197,
        4602909003153601404,
    ],
    [
        30,
        4590453989971789118,
        4595372468040232909,
        4602076526601897857,
        4599156003464125990,
    ],
    [
        30,
        4597884643258104948,
        4595372468040232909,
        4609005922169136690,
        4601567931264562190,
    ],
    [
        30,
        4597880041494384109,
        4595372468040232909,
        4609002581903860150,
        4598345355531199301,
    ],
    [
        30,
        4593812618364558590,
        4595372468040232909,
        4604917934126594742,
        4596974259644644287,
    ],
    [
        30,
        4598057139011881488,
        4595372468040232909,
        4609131131026358333,
        4600617171343228416,
    ],
    [
        30,
        4596750016292674676,
        4595372468040232909,
        4608182334674348707,
        4599536307432659499,
    ],
];

/// Golden fresh-best-page trace under recommended(1) after 20 days (same
/// community and seed): 16 popularity bits, then 16 expected-visit bits.
const GOLDEN_SIM_TRACE_17: [u64; 32] = [
    0,
    4583343364772469583,
    4596854163654581071,
    4599916611401193008,
    4600396995361445861,
    4600396995361445861,
    4600396995361445861,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4600877379321698714,
    4591835003123871689,
    4618856600888094665,
    4618856600888094665,
    4618856600888094665,
    4618856600888094665,
    4618856600888094665,
    4612252786283040480,
    4618856600888094665,
    4618856600888094665,
    4618856600888094665,
    4618856600888094665,
    4612252786283040480,
    4618856600888094665,
    4618856600888094665,
    4618856600888094665,
    4612252786283040480,
];

/// Golden metrics of the 10 days measured right after that trace.
const GOLDEN_SIM_AFTER_TRACE_17: [u64; 5] = [
    10,
    4589751179446460937,
    4595372468040232909,
    4601056233628962632,
    4603219251127931371,
];

/// Golden `(output digest, next next_u64)` pairs of
/// `bulk_draw_paths_reproduce_their_recorded_goldens`: per rank
/// configuration, the scanning full rank, then the maintained-state full,
/// top-10 and top-300 ranks; then per shuffle length, word-aligned and
/// after one `next_u32`.
const GOLDEN_BULK_DRAWS: [(u64, u64); 38] = [
    (16354670661056490177, 17832979816469839233),
    (16354670661056490177, 17832979816469839233),
    (4731188569419348454, 14920987225168261236),
    (3651891292637546793, 5604101141441168364),
    (6204971996131755177, 2728045980259355417),
    (6204971996131755177, 2728045980259355417),
    (5407637259148123723, 11071249585527164221),
    (10037548596362257331, 9910600791355223754),
    (2389731449009069589, 8962483884444429089),
    (2389731449009069589, 8962483884444429089),
    (17076350474747010756, 12486650261829451714),
    (6221802147549259044, 2020562361516143630),
    (13027607140120202105, 1973554940026039707),
    (13027607140120202105, 1973554940026039707),
    (12736544645444433237, 3025073317188713867),
    (8953266312865271222, 5215960351016124691),
    (12026460726984989981, 15435364838720508944),
    (12026460726984989981, 15435364838720508944),
    (15534149936451504551, 16313335951452740948),
    (6009369646751292784, 17292535491716877023),
    (14695981039346656037, 13804888775535289832),
    (14695981039346656037, 12023021118774628659),
    (12161962213042174405, 17254111457321727320),
    (12161962213042174405, 6456567247093820148),
    (4116863941369023524, 17597568415782470582),
    (7576559462502111812, 1489322185053380412),
    (13853494629143546906, 3622633871713606836),
    (14880891778657349978, 11291579106334223952),
    (12799812039198961637, 603350970280555438),
    (6832188738164403109, 575383690610182274),
    (3088620692514256453, 16385236505599633112),
    (17596898100794113221, 9326155753433861578),
    (2858538247429931301, 7985912107862169977),
    (15829614931694882757, 3297524588620261568),
    (2990064880018533909, 4302071923957319384),
    (13838923482825348449, 15073694549634451359),
    (6318559866214298057, 13968698097137699528),
    (9663336160172383589, 12731937915200522472),
];
