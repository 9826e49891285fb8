//! The crash-recovery conformance suite: **drop-then-recover ≡ the
//! uncrashed twin**, under arbitrary mutate-while-serving schedules,
//! across shard × worker × policy × engine-version grids.
//!
//! Each case drives a [`DurableService`] and a plain in-memory twin
//! through the same schedule (same documents, same visits, same
//! popularity updates, same mid-schedule serve points), then *crashes*
//! the durable service — drops it on the floor, buffered nothing, warned
//! nobody — and recovers from disk alone. The contract on the line:
//! recovery (snapshot + tail replay) must reproduce **bit-identical**
//! serving state, so every recovered answer — full rerank and top-k,
//! batched and sequential, at every worker count — must equal the twin
//! that never crashed, and the recovered corpus must match the twin's
//! down to the popularity *bits*. Snapshot cadence is drawn per case, so
//! the same schedules recover through pure replay, pure snapshot, and
//! every mix in between.

mod common;

use common::{
    apply_mutation, apply_mutation_durable, arb_ops, assert_same_corpus, inserted_document,
    queries, ServeShape, TempDir, GRID,
};
use proptest::prelude::*;
use rrp_core::{EngineVersion, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::{DurableService, RecoveryReport, ShardedPromotionService};

/// The four serving policies of the shard-merge suites: both promotion
/// rules, with and without a protected top result.
fn policies() -> [RankPromotionEngine; 4] {
    [
        RankPromotionEngine::recommended(), // selective, r = 0.1, k = 2
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.1).unwrap()),
    ]
}

proptest! {
    /// One schedule, every shard count: mutate a durable service and its
    /// in-memory twin in lockstep (serving along the way must already
    /// agree), crash the durable one, recover at every worker count, and
    /// pin recovered output ≡ twin output plus bit-identical corpus.
    #[test]
    fn recovery_reproduces_the_uncrashed_twin(
        ops in arb_ops(ServeShape::TopK),
        initial in 0usize..30,
        seed in 0u64..1_000,
        policy_index in 0usize..4,
        v2 in prop::bool::ANY,
        snapshot_every in 1u64..24,
    ) {
        let version = if v2 { EngineVersion::V2 } else { EngineVersion::V1 };
        let engine = policies()[policy_index].with_seed(seed).with_version(version);
        for shards in GRID {
            let dir = TempDir::new("crash-recovery");
            let (durable, report) =
                DurableService::open(dir.path(), engine, shards).unwrap();
            prop_assert_eq!(report, RecoveryReport::default(), "fresh dir recovers nothing");
            let mut durable = durable.with_snapshot_every(snapshot_every);
            let mut twin = ShardedPromotionService::new(engine, shards);

            // Seed + schedule, applied to both in lockstep.
            for i in 0..initial {
                let doc = inserted_document(i as u64, (i % 7) as f64 / 5.0, i as u64);
                durable.insert(doc).unwrap();
                twin.insert(doc);
            }
            let mut batch_salt = 0u64;
            for &op in &ops {
                let durable_serve = apply_mutation_durable(&mut durable, op);
                let twin_serve = apply_mutation(&mut twin, op);
                prop_assert_eq!(durable_serve, twin_serve, "schedules diverged");
                if let Some((q, k)) = durable_serve {
                    batch_salt += 1;
                    let qs = queries(q, batch_salt);
                    // Serving through the durable wrapper is the plain
                    // service — logged mutations must not disturb it.
                    match k {
                        Some(k) => {
                            let mut got = Vec::new();
                            durable.service().rerank_batch_top_k_into(&qs, k, &mut got);
                            let mut want = Vec::new();
                            twin.rerank_batch_top_k_into(&qs, k, &mut want);
                            prop_assert_eq!(got, want, "mid-schedule top-{}", k);
                        }
                        None => {
                            prop_assert_eq!(
                                durable.service().rerank_batch(&qs),
                                twin.rerank_batch(&qs),
                                "mid-schedule full rerank"
                            );
                        }
                    }
                }
            }

            let appended = durable.serve_stats().wal_appends;
            let snapshots = durable.serve_stats().snapshots_written;

            // The crash: no flush call, no shutdown hook, just gone.
            drop(durable);

            let qs = queries(5, 0xD1CE);
            for workers in GRID {
                let (recovered, report) =
                    DurableService::open(dir.path(), engine, shards).unwrap();
                let recovered = recovered.with_workers(workers);

                // Nothing was torn or corrupt, so nothing may be lost,
                // and replay covers exactly the events past the last
                // snapshot (all of them when no snapshot was reached).
                prop_assert_eq!(report.events_lost, 0);
                prop_assert_eq!(report.bytes_dropped, 0);
                prop_assert_eq!(report.snapshot_loaded, snapshots > 0);
                prop_assert!(!report.snapshot_fallback);
                prop_assert!(report.events_replayed <= appended);
                if snapshots == 0 {
                    prop_assert_eq!(report.events_replayed, appended);
                }
                prop_assert_eq!(
                    recovered.serve_stats().events_replayed,
                    report.events_replayed
                );

                // Bit-identical corpus…
                assert_same_corpus(
                    &recovered.store().snapshot(),
                    &twin.store().snapshot(),
                );
                // …and bit-identical serving, on every path.
                prop_assert_eq!(
                    recovered.service().rerank_batch(&qs),
                    twin.rerank_batch(&qs),
                    "recovered full rerank ({} shards × {} workers, {:?})",
                    shards,
                    workers,
                    version
                );
                for k in [1usize, 4, 11] {
                    let mut got = Vec::new();
                    recovered.service().rerank_batch_top_k_into(&qs, k, &mut got);
                    let mut want = Vec::new();
                    twin.rerank_batch_top_k_into(&qs, k, &mut want);
                    prop_assert_eq!(
                        got,
                        want,
                        "recovered top-{} ({} shards × {} workers, {:?})",
                        k,
                        shards,
                        workers,
                        version
                    );
                }
                for &ctx in &qs {
                    prop_assert_eq!(
                        recovered.service().rerank_one(ctx),
                        twin.rerank_one(ctx),
                        "recovered sequential full rerank"
                    );
                    prop_assert_eq!(
                        recovered.service().rerank_top_k(ctx, 3),
                        twin.rerank_top_k(ctx, 3),
                        "recovered sequential top-3"
                    );
                }
            }

            // Recovery is idempotent and still mutable: one more durable
            // mutation after recovery lands in both worlds identically.
            let (mut recovered, _) = DurableService::open(dir.path(), engine, shards).unwrap();
            let doc = inserted_document(99_991, 0.42, 17);
            recovered.insert(doc).unwrap();
            twin.insert(doc);
            prop_assert_eq!(
                recovered.service().rerank_batch(&qs),
                twin.rerank_batch(&qs),
                "post-recovery mutation"
            );
        }
    }
}
