//! The persistent promotion-pool index under mutate-while-serving load:
//! arbitrary interleavings of inserts, visit feedback and popularity
//! updates must leave the incrementally repaired pool *identical* to a
//! from-scratch recomputation over the current corpus — and every top-k
//! answer identical to the length-`k` prefix of the full rerank — across
//! shard × worker grids.
//!
//! This is the end-to-end soundness argument for the pool index: its
//! pre-shuffle member order feeds the RNG directly (the shuffle's swaps
//! depend on pool size and order), so a stale or re-ordered member would
//! not fail loudly — it would silently rearrange the merged prefix. If
//! dirty-slot repair of the membership ever drifted from the fresh
//! `is_unexplored` scan, some schedule here would surface it either as a
//! differing pool or as a differing answer.

mod common;

use common::{apply_mutation, arb_ops, queries, seed_service, ServeShape, GRID};
use proptest::prelude::*;
use rrp_core::{Document, RankPromotionEngine};
use rrp_serve::ShardedPromotionService;

/// The from-scratch pool: unexplored documents' canonical slots, in
/// sequence order — what the per-query scan used to derive.
fn fresh_pool(corpus: &[Document]) -> Vec<usize> {
    corpus
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_unexplored)
        .map(|(slot, _)| slot)
        .collect()
}

proptest! {
    /// Apply an arbitrary interleaving of inserts, visits, popularity
    /// updates and top-k batches; after every step the incremental pool
    /// must equal the from-scratch recomputation, and after every batch
    /// each top-k answer must equal the length-`k` prefix of the full
    /// rerank of a from-scratch service — for every shard × worker
    /// combination at the end.
    #[test]
    fn incremental_pool_equals_from_scratch_and_top_k_stays_a_prefix(
        ops in arb_ops(ServeShape::TopK),
        initial in 0usize..30,
        seed in 0u64..1_000,
    ) {
        let engine = RankPromotionEngine::recommended().with_seed(seed);
        let mut service = ShardedPromotionService::new(engine, 4).with_workers(4);
        seed_service(&mut service, initial, 3, 0.03);

        let mut batch_salt = 0u64;
        for &op in &ops {
            if let Some((q, Some(k))) = apply_mutation(&mut service, op) {
                batch_salt += 1;
                let qs = queries(q, batch_salt);
                let mut top = Vec::new();
                service.rerank_batch_top_k_into(&qs, k, &mut top);
                let fresh =
                    ShardedPromotionService::new(engine, 1).with_workers(1);
                fresh.extend(service.store().snapshot());
                let full = fresh.rerank_batch(&qs);
                for (i, got) in top.iter().enumerate() {
                    prop_assert_eq!(
                        got,
                        &full[i][..k.min(full[i].len())],
                        "mid-schedule top-{} of query {}",
                        k,
                        i
                    );
                }
            }
            // The pool index is repaired, never rebuilt — and after every
            // single step it must equal the from-scratch recomputation
            // (the membership drift hazard this suite exists to pin).
            let expected = fresh_pool(&service.store().snapshot());
            prop_assert_eq!(service.pooled_slots(), expected.as_slice());
        }

        // Final sweep: the mutated service equals a from-scratch build of
        // its final corpus on the top-k path for every shard × worker
        // combination and several k.
        let corpus = service.store().snapshot();
        let qs = queries(6, 0xF00D);
        let full = service.rerank_batch(&qs);
        for shards in GRID {
            for workers in GRID {
                let fresh =
                    ShardedPromotionService::new(engine, shards).with_workers(workers);
                fresh.extend(corpus.iter().copied());
                for k in [1usize, 3, 10] {
                    let mut top = Vec::new();
                    fresh.rerank_batch_top_k_into(&qs, k, &mut top);
                    for (i, got) in top.iter().enumerate() {
                        prop_assert_eq!(
                            got,
                            &full[i][..k.min(full[i].len())],
                            "{} shards × {} workers, top-{} of query {}",
                            shards,
                            workers,
                            k,
                            i
                        );
                    }
                }
            }
        }

        // The steady-state probe: nothing in this schedule may have caused
        // a snapshot rebuild, a from-scratch sort, a pool rebuild, or a
        // single per-query pool scan (the engine is selective).
        prop_assert_eq!(service.serve_stats().mask_resets, 0);
    }
}
