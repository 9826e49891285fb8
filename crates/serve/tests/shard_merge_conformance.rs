//! The shard-merge conformance suite: **sharded serving ≡ single-engine
//! output**, under arbitrary mutate-while-serving schedules, across store
//! shard × worker grids and all four serving policies.
//!
//! The contract on the line: every answer the service produces from its
//! serving tier — a top-k query, a full rerank, or the Uniform rule's
//! per-page coin scan, all ranked from the one corpus-wide cache — must
//! be *bit-identical* to [`RankPromotionEngine::rerank`] on the canonical
//! corpus, the single-engine reference that every recorded golden and
//! every RNG stream is defined against. The pool's pre-shuffle order and
//! the popularity order both feed the generator directly, so a cache that
//! listed one member out of order or repaired one slot wrongly would not
//! fail loudly: it would silently rearrange the served ranking. If any
//! schedule, store shard count, worker count, or policy can tell the
//! sharded service from the single engine, this suite fails.

mod common;

use common::{apply_mutation, arb_ops, queries, seed_service, ServeShape, GRID};
use proptest::prelude::*;
use rrp_core::{QueryContext, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::ShardedPromotionService;

/// The four serving policies: both promotion rules, with and without a
/// protected top result. Selective engines read the pool and an order
/// prefix; Uniform engines draw their per-page coins over the complete
/// order — the conformance bar is the same for both.
fn policies() -> [RankPromotionEngine; 4] {
    [
        RankPromotionEngine::recommended(), // selective, r = 0.1, k = 2
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.1).unwrap()),
    ]
}

/// The single-engine reference: the length-`k` prefix of a plain
/// `engine.rerank` over the canonical corpus.
fn reference_top_k(
    engine: &RankPromotionEngine,
    corpus: &[rrp_core::Document],
    ctx: QueryContext,
    k: usize,
) -> Vec<u64> {
    let mut full = engine.rerank(corpus, ctx);
    full.truncate(k);
    full
}

proptest! {
    /// Drive one service per policy through an arbitrary schedule; after
    /// every serve step each top-k answer must equal the single-engine
    /// prefix over the then-current corpus, and at the end the same holds
    /// for every shard × worker combination — plus the routing probe: no
    /// traffic retrieves from shards or merges an order.
    #[test]
    fn shard_merged_top_k_equals_the_single_engine(
        ops in arb_ops(ServeShape::TopK),
        initial in 0usize..40,
        seed in 0u64..1_000,
        policy_index in 0usize..4,
    ) {
        let engine = policies()[policy_index].with_seed(seed);
        let mut service = ShardedPromotionService::new(engine, 4).with_workers(4);
        seed_service(&mut service, initial, 4, 0.02);

        let mut batch_salt = 0u64;
        for &op in &ops {
            if let Some((q, Some(k))) = apply_mutation(&mut service, op) {
                batch_salt += 1;
                let qs = queries(q, batch_salt);
                let corpus = service.store().snapshot();
                let mut top = Vec::new();
                service.rerank_batch_top_k_into(&qs, k, &mut top);
                for (i, got) in top.iter().enumerate() {
                    prop_assert_eq!(
                        got,
                        &reference_top_k(&engine, &corpus, qs[i], k),
                        "mid-schedule top-{} of query {} ({})",
                        k,
                        i,
                        engine.config().label()
                    );
                }
            }
        }

        // The routing probe: every engine answered every query from the
        // one cache — no shard retrieval and no order merge exist.
        let stats = service.serve_stats();
        prop_assert_eq!(stats.order_merges, 0);
        prop_assert_eq!(stats.shard_retrievals, 0);

        // Final sweep: every shard × worker combination serves the same
        // corpus with the same answers, on the batch and sequential top-k
        // paths alike.
        let corpus = service.store().snapshot();
        let qs = queries(5, 0xD1CE);
        let expected: Vec<Vec<Vec<u64>>> = [1usize, 4, 11]
            .iter()
            .map(|&k| qs.iter().map(|&ctx| reference_top_k(&engine, &corpus, ctx, k)).collect())
            .collect();
        for shards in GRID {
            for workers in GRID {
                let fresh =
                    ShardedPromotionService::new(engine, shards).with_workers(workers);
                fresh.extend(corpus.iter().copied());
                for (ki, &k) in [1usize, 4, 11].iter().enumerate() {
                    let mut top = Vec::new();
                    fresh.rerank_batch_top_k_into(&qs, k, &mut top);
                    prop_assert_eq!(
                        &top,
                        &expected[ki],
                        "{} shards × {} workers, top-{} ({})",
                        shards,
                        workers,
                        k,
                        engine.config().label()
                    );
                    for (i, &ctx) in qs.iter().enumerate() {
                        prop_assert_eq!(
                            &fresh.rerank_top_k(ctx, k),
                            &expected[ki][i],
                            "sequential top-{} of query {}",
                            k,
                            i
                        );
                    }
                }
            }
        }
    }

    /// The full-rerank twin: drive one service per policy through an
    /// arbitrary schedule of full-rerank serve points; after every serve
    /// step each answer must equal `engine.rerank` over the then-current
    /// corpus — the cache's complete order standing in for the deleted
    /// corpus-wide snapshot — and at the end the same holds for every
    /// shard × worker combination, batched and sequential. The probe pins
    /// the route: full reranks retrieve nothing and merge nothing.
    #[test]
    fn shard_merged_full_rerank_equals_the_single_engine(
        ops in arb_ops(ServeShape::Full),
        initial in 0usize..40,
        seed in 0u64..1_000,
        policy_index in 0usize..4,
    ) {
        let engine = policies()[policy_index].with_seed(seed);
        let mut service = ShardedPromotionService::new(engine, 4).with_workers(4);
        seed_service(&mut service, initial, 4, 0.02);

        let mut batch_salt = 0u64;
        for &op in &ops {
            if let Some((q, None)) = apply_mutation(&mut service, op) {
                batch_salt += 1;
                let qs = queries(q, batch_salt);
                let corpus = service.store().snapshot();
                let mut full = Vec::new();
                service.rerank_batch_into(&qs, &mut full);
                for (i, got) in full.iter().enumerate() {
                    prop_assert_eq!(
                        got,
                        &engine.rerank(&corpus, qs[i]),
                        "mid-schedule full rerank of query {} ({})",
                        i,
                        engine.config().label()
                    );
                }
            }
        }

        let stats = service.serve_stats();
        prop_assert_eq!(stats.shard_retrievals, 0);
        prop_assert_eq!(stats.order_merges, 0);

        // Final sweep: every shard × worker combination reproduces the
        // single engine on the batch and sequential full paths alike.
        let corpus = service.store().snapshot();
        let qs = queries(5, 0xD1CE);
        let expected: Vec<Vec<u64>> =
            qs.iter().map(|&ctx| engine.rerank(&corpus, ctx)).collect();
        for shards in GRID {
            for workers in GRID {
                let fresh =
                    ShardedPromotionService::new(engine, shards).with_workers(workers);
                fresh.extend(corpus.iter().copied());
                prop_assert_eq!(
                    &fresh.rerank_batch(&qs),
                    &expected,
                    "{} shards × {} workers ({})",
                    shards,
                    workers,
                    engine.config().label()
                );
                for (i, &ctx) in qs.iter().enumerate() {
                    prop_assert_eq!(
                        &fresh.rerank_one(ctx),
                        &expected[i],
                        "sequential full rerank of query {}",
                        i
                    );
                }
            }
        }
    }
}
