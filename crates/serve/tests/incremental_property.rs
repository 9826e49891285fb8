//! The first mutate-while-serving workload: a service that interleaves
//! inserts, visit feedback and popularity updates *between batches* must
//! answer exactly like a service freshly built from the final corpus —
//! incremental ≡ from-scratch — across shard × worker grids.
//!
//! This is the end-to-end soundness argument for the incremental serving
//! state: if dirty-slot repair of the cached snapshot, statistics, or
//! popularity order ever drifted from a from-scratch derivation, some
//! mutation schedule here would surface it as a differing answer.

mod common;

use common::{apply_mutation, arb_ops, queries, seed_service, Op, ServeShape, GRID};
use proptest::prelude::*;
use rrp_core::RankPromotionEngine;
use rrp_serve::ShardedPromotionService;

proptest! {
    /// Apply an arbitrary interleaving of inserts, visits, popularity
    /// updates and batches; after every batch — and at the end — the
    /// incremental service must agree with a service built from scratch
    /// over the current corpus, for every shard × worker combination.
    #[test]
    fn interleaved_mutations_answer_like_from_scratch(
        ops in arb_ops(ServeShape::Full),
        initial in 0usize..40,
        seed in 0u64..1_000,
    ) {
        let engine = RankPromotionEngine::recommended().with_seed(seed);
        let mut service = ShardedPromotionService::new(engine, 4).with_workers(4);
        seed_service(&mut service, initial, 5, 0.02);

        let mut batch_salt = 0u64;
        for &op in &ops {
            if let Some((q, _)) = apply_mutation(&mut service, op) {
                batch_salt += 1;
                let qs = queries(q, batch_salt);
                let incremental = service.rerank_batch(&qs);
                let fresh = ShardedPromotionService::new(engine, 1).with_workers(1);
                fresh.extend(service.store().snapshot());
                prop_assert_eq!(&incremental, &fresh.rerank_batch(&qs));
            }
        }

        // Final sweep: the mutated service equals a from-scratch build of
        // its final corpus for every shard × worker combination, on the
        // batch, single-query and top-k paths alike.
        let corpus = service.store().snapshot();
        let qs = queries(9, 0xC0FFEE);
        let incremental = service.rerank_batch(&qs);
        for shards in GRID {
            for workers in GRID {
                let fresh =
                    ShardedPromotionService::new(engine, shards).with_workers(workers);
                fresh.extend(corpus.iter().copied());
                prop_assert_eq!(
                    &incremental,
                    &fresh.rerank_batch(&qs),
                    "{} shards × {} workers",
                    shards,
                    workers
                );
            }
        }
        for (i, &ctx) in qs.iter().enumerate() {
            prop_assert_eq!(&incremental[i], &service.rerank_one(ctx));
            let k = 1 + i % 7;
            prop_assert_eq!(
                &incremental[i][..k.min(incremental[i].len())],
                &service.rerank_top_k(ctx, k)
            );
        }

        // The steady-state probe: nothing in this schedule may have caused
        // a snapshot rebuild, a from-scratch sort, a pool rebuild, or a
        // per-query pool scan (the engine is selective, so every query
        // reads the persistent pool index).
        prop_assert_eq!(service.serve_stats().mask_resets, 0);
    }
}

/// The shared scaffolding itself stays honest: every generated schedule
/// draws from the four op kinds and serve points carry the requested
/// shape.
#[test]
fn schedule_generator_covers_every_op_kind() {
    use proptest::{Strategy, TestRng};
    let strategy = arb_ops(ServeShape::Full);
    let (mut inserts, mut visits, mut sets, mut serves) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..64 {
        let ops = strategy.generate(&mut TestRng::new(seed));
        for op in ops {
            match op {
                Op::Insert { .. } => inserts += 1,
                Op::Visit { .. } => visits += 1,
                Op::SetPopularity { .. } => sets += 1,
                Op::Serve { queries, k } => {
                    assert!(k.is_none(), "Full shape must not produce top-k serves");
                    assert!((1..=5).contains(&queries));
                    serves += 1;
                }
            }
        }
    }
    assert!(inserts > 0 && visits > 0 && sets > 0 && serves > 0);
}
