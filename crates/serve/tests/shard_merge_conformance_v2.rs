//! The v2 twin of the shard-merge conformance suite: **shard-local v2
//! serving ≡ single-engine v2 output**, under arbitrary
//! mutate-while-serving schedules, across shard × worker grids and all
//! four serving policies.
//!
//! Engine v2 replaces the eager copy-and-shuffle of the promotion pool
//! with the lazy Fisher–Yates overlay ([`rrp_ranking::LazyShuffle`]), so
//! a v2 top-k answer is **not** the prefix of the v2 full rerank — the
//! reference here is [`RankPromotionEngine::rerank_top_k`] on the
//! canonical corpus, the single-engine pooled route that the service's
//! shard-retrieval route must reproduce bit for bit. The two routes share
//! the draw *sequence* but none of the code that assembles their inputs:
//! a shard cache that listed a pool member out of order or merged one
//! candidate too few would silently rearrange the served ranking, and a
//! lazy overlay that drew one swap too many would shift the entire RNG
//! stream. If any schedule, shard count, worker count, or policy can tell
//! the sharded v2 read path from the single v2 engine, this suite fails.
//!
//! The probe rides along: v2 selective traffic draws **at most `k` swaps
//! per query** ([`rrp_serve::ServeStats::pool_draws`]) — the O(k)-draw
//! contract that motivates v2 — while still performing zero
//! complete-order merges and zero corpus scans.

mod common;

use common::{apply_mutation, arb_ops, queries, seed_service, ServeShape, GRID};
use proptest::prelude::*;
use rrp_core::{EngineVersion, QueryContext, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::ShardedPromotionService;

/// The four serving policies, all running engine v2. The Selective rules
/// exercise the lazy overlay; the Uniform rules pin that v2 leaves their
/// coin-scan stream untouched (bit-identical to v1, zero draws booked).
fn policies_v2() -> [RankPromotionEngine; 4] {
    [
        RankPromotionEngine::recommended(),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.1).unwrap()),
    ]
    .map(|engine| engine.with_version(EngineVersion::V2))
}

/// The single-engine v2 reference: `engine.rerank_top_k` on the canonical
/// corpus — the pooled lazy route, deliberately *not* a truncated full
/// rerank (v2 spends its pool randomness lazily, so the prefix property
/// holds only within the top-k family).
fn reference_top_k(
    engine: &RankPromotionEngine,
    corpus: &[rrp_core::Document],
    ctx: QueryContext,
    k: usize,
) -> Vec<u64> {
    engine.rerank_top_k(corpus, ctx, k)
}

proptest! {
    /// Drive one v2 service per policy through an arbitrary schedule;
    /// after every serve step each top-k answer must equal the
    /// single-engine v2 top-k over the then-current corpus, and at the
    /// end the same holds for every shard × worker combination — plus the
    /// probes: selective v2 traffic performs zero complete-order merges,
    /// exactly shards retrievals per batch, and at most `k` lazy swap
    /// draws per query; Uniform v2 traffic books zero draws.
    #[test]
    fn shard_merged_v2_top_k_equals_the_single_v2_engine(
        ops in arb_ops(ServeShape::TopK),
        initial in 0usize..40,
        seed in 0u64..1_000,
        policy_index in 0usize..4,
    ) {
        let engine = policies_v2()[policy_index].with_seed(seed);
        prop_assert_eq!(engine.version(), EngineVersion::V2);
        let selective = engine.reads_pool_index();
        let mut service = ShardedPromotionService::new(engine, 4).with_workers(4);
        seed_service(&mut service, initial, 4, 0.02);

        let mut batch_salt = 0u64;
        let mut topk_batches = 0u64;
        let mut draw_budget = 0u64;
        for &op in &ops {
            if let Some((q, Some(k))) = apply_mutation(&mut service, op) {
                batch_salt += 1;
                let qs = queries(q, batch_salt);
                let corpus = service.store().snapshot();
                if !corpus.is_empty() {
                    topk_batches += 1;
                    draw_budget += q * k as u64;
                }
                let mut top = Vec::new();
                service.rerank_batch_top_k_into(&qs, k, &mut top);
                for (i, got) in top.iter().enumerate() {
                    prop_assert_eq!(
                        got,
                        &reference_top_k(&engine, &corpus, qs[i], k),
                        "mid-schedule v2 top-{} of query {} ({})",
                        k,
                        i,
                        engine.config().label()
                    );
                }
            }
        }

        // The routing and draw probes: the lazy route keeps the v1
        // retrieval guarantees (no complete-order merge, one retrieval
        // per shard per batch, no rebuild) and adds the O(k)-draw cap.
        // Uniform engines take the merged-order route unchanged and never
        // touch the overlay.
        let stats = service.serve_stats();
        prop_assert_eq!(stats.rebuilds, 0);
        if selective {
            prop_assert_eq!(stats.order_merges, 0);
            prop_assert_eq!(stats.shard_retrievals, 4 * topk_batches);
            prop_assert!(
                stats.pool_draws <= draw_budget,
                "{} swap draws exceed the k-per-query budget {}",
                stats.pool_draws,
                draw_budget
            );
        } else {
            prop_assert_eq!(stats.shard_retrievals, 0);
            prop_assert!(stats.order_merges <= batch_salt);
            prop_assert_eq!(stats.pool_draws, 0);
        }

        // Final sweep: every shard × worker combination serves the same
        // corpus with the same v2 answers, batched and sequential alike,
        // each fresh service under the same per-query draw cap.
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
                let mut served = 0u64;
                for (ki, &k) in [1usize, 4, 11].iter().enumerate() {
                    let mut top = Vec::new();
                    fresh.rerank_batch_top_k_into(&qs, k, &mut top);
                    prop_assert_eq!(
                        &top,
                        &expected[ki],
                        "{} shards × {} workers, v2 top-{} ({})",
                        shards,
                        workers,
                        k,
                        engine.config().label()
                    );
                    for (i, &ctx) in qs.iter().enumerate() {
                        prop_assert_eq!(
                            &fresh.rerank_top_k(ctx, k),
                            &expected[ki][i],
                            "sequential v2 top-{} of query {}",
                            k,
                            i
                        );
                    }
                    if !corpus.is_empty() {
                        served += 2 * qs.len() as u64 * k as u64;
                    }
                }
                prop_assert!(
                    fresh.serve_stats().pool_draws <= served,
                    "fresh sweep drew {} swaps against a budget of {}",
                    fresh.serve_stats().pool_draws,
                    served
                );
            }
        }

        // One spot check per run on the untouched route: a v2 full rerank
        // is still bit-identical to the single v2 engine (which is itself
        // bit-identical to v1 — the lazy overlay only serves top-k).
        if !corpus.is_empty() {
            prop_assert_eq!(
                service.rerank_one(qs[0]),
                engine.rerank(&corpus, qs[0]),
                "v2 full rerank diverged from the single engine"
            );
        }
    }
}
