//! Real-thread mutate-while-serving stress: reader threads hammer the
//! epoch-versioned rerank paths through `&ShardedPromotionService` while
//! a writer thread applies a deterministic mutation schedule, and every
//! versioned answer is checked **bit-identical** against a sequential
//! twin stepped through the same schedule.
//!
//! The bridge between the racing world and the sequential one is the
//! epoch: every mutation bumps it by exactly one, so the twin's state
//! after `m` mutations is the state any reader observing epoch
//! `base + m` must have been served from. Validation-at-merge guarantees
//! a versioned read's answer belongs to the epoch it returns — if a
//! writer raced past underneath, the path retried (sequential reads) or
//! kept the version it pinned (batch reads), never blending two states.
//!
//! Also pinned here:
//! * read-only traffic never records an epoch conflict, and
//! * publication happens at most once per mutation epoch
//!   (`version_publications ≤ mutations + 1`).

use proptest::prelude::*;
use rrp_core::{Document, EngineVersion, QueryContext, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::{ShardedPromotionService, FAN_OUT_MIN_POSITIONS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Reader threads racing the writer in each stress run.
const READERS: usize = 3;
/// The top-k cut the top-k read path is checked at.
const K: usize = 5;

/// A corpus mixing unexplored and established documents so both the
/// promotion pool and the popularity order are exercised.
fn corpus(n: u64) -> Vec<Document> {
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                Document::unexplored(i)
            } else {
                Document::established(i, 0.95 - i as f64 * 0.013).with_age(i % 9)
            }
        })
        .collect()
}

/// The fixed query set every thread serves from.
fn queries() -> Vec<QueryContext> {
    (0..4u64)
        .map(|q| QueryContext::new(q * 13 + 1, q * 31 + 7))
        .collect()
}

/// Mutation step `m` of the deterministic schedule: one visit or one
/// popularity update, bumping the epoch by exactly one.
fn apply_mutation(service: &ShardedPromotionService, m: u64, n: u64) {
    let seq = (m * 97 + 3) % n;
    if m.is_multiple_of(2) {
        assert!(service.record_visit(seq), "seq {seq} exists");
    } else {
        let score = 0.05 + ((seq * 31 + m) % 100) as f64 / 100.0;
        assert!(service.update_popularity(seq, score), "seq {seq} exists");
    }
}

/// Per-epoch expected answers, computed on a sequential twin stepped
/// through the same mutation schedule: `full[&epoch][q]` is the full
/// rerank of query `q` at that epoch, `top[&epoch][q]` its top-K.
struct Expected {
    full: HashMap<u64, Vec<Vec<u64>>>,
    top: HashMap<u64, Vec<Vec<u64>>>,
}

fn expected_answers(
    engine: RankPromotionEngine,
    shards: usize,
    docs: &[Document],
    mutations: u64,
) -> Expected {
    let twin = ShardedPromotionService::new(engine, shards);
    twin.extend(docs.iter().copied());
    let qs = queries();
    let mut full = HashMap::new();
    let mut top = HashMap::new();
    for m in 0..=mutations {
        if m > 0 {
            apply_mutation(&twin, m - 1, docs.len() as u64);
        }
        let epoch = twin.epoch();
        full.insert(
            epoch,
            qs.iter().map(|&q| twin.rerank_one(q)).collect::<Vec<_>>(),
        );
        top.insert(
            epoch,
            qs.iter()
                .map(|&q| twin.rerank_top_k(q, K))
                .collect::<Vec<_>>(),
        );
    }
    Expected { full, top }
}

/// Raises the stop flag when dropped, so readers cannot spin forever
/// even if the writer thread panics mid-schedule.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One full stress run: precompute the twin's per-epoch answers, race
/// `READERS` reader threads against a writer applying the schedule, then
/// verify the probe invariants and a conflict-free read-only round.
fn stress(engine: RankPromotionEngine, shards: usize, workers: usize, n: u64, mutations: u64) {
    let docs = corpus(n);
    let expected = expected_answers(engine, shards, &docs, mutations);
    let service = ShardedPromotionService::new(engine, shards).with_workers(workers);
    service.extend(docs.iter().copied());
    let qs = queries();
    let base = service.epoch();
    let done = AtomicBool::new(false);

    thread::scope(|scope| {
        for r in 0..READERS {
            let (service, qs, done, expected) = (&service, &qs, &done, &expected);
            scope.spawn(move || {
                let mut i = r;
                loop {
                    // Load the flag *before* serving so every reader gets
                    // at least one read after the final mutation landed.
                    let stop = done.load(Ordering::Acquire);
                    let slot = i % qs.len();
                    match i % 3 {
                        0 => {
                            let (epoch, got) = service.rerank_one_versioned(qs[slot]);
                            assert_eq!(got, expected.full[&epoch][slot], "epoch {epoch}");
                        }
                        1 => {
                            let (epoch, got) = service.rerank_top_k_versioned(qs[slot], K);
                            assert_eq!(got, expected.top[&epoch][slot], "epoch {epoch}");
                        }
                        _ => {
                            let (epoch, got) = service.rerank_batch_versioned(qs);
                            assert_eq!(got, expected.full[&epoch], "epoch {epoch}");
                        }
                    }
                    i += 1;
                    if stop {
                        break;
                    }
                }
            });
        }
        scope.spawn(|| {
            let _stop = StopOnDrop(&done);
            for m in 0..mutations {
                apply_mutation(&service, m, docs.len() as u64);
                thread::yield_now();
            }
        });
    });

    assert_eq!(
        service.epoch(),
        base + mutations,
        "every mutation bumped the epoch exactly once"
    );
    let raced = service.serve_stats();
    assert!(
        raced.version_publications <= mutations + 1,
        "at most one publication per mutation epoch: {} published for {} epochs",
        raced.version_publications,
        mutations + 1
    );

    // Read-only round: with no writer racing, validation never fails and
    // at most one (catch-up) publication happens across all readers.
    thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                for (slot, &q) in qs.iter().enumerate() {
                    let (epoch, got) = service.rerank_one_versioned(q);
                    assert_eq!(epoch, base + mutations, "reads serve the live epoch");
                    assert_eq!(got, expected.full[&epoch][slot]);
                    let (epoch, got) = service.rerank_top_k_versioned(q, K);
                    assert_eq!(epoch, base + mutations);
                    assert_eq!(got, expected.top[&epoch][slot]);
                }
            });
        }
    });
    let settled = service.serve_stats();
    assert_eq!(
        settled.epoch_conflicts, raced.epoch_conflicts,
        "read-only traffic records no epoch conflicts"
    );
    assert!(
        settled.version_publications <= raced.version_publications + 1,
        "an already-current version is never republished"
    );
}

fn selective(seed: u64) -> RankPromotionEngine {
    RankPromotionEngine::recommended().with_seed(seed)
}

fn uniform(seed: u64) -> RankPromotionEngine {
    RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.25).unwrap())
        .with_seed(seed)
}

/// The four serving policies of the conformance suites: both promotion
/// rules, with and without a protected top slot.
fn policies() -> [RankPromotionEngine; 4] {
    [
        RankPromotionEngine::recommended(),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 2, 0.1).unwrap()),
    ]
}

#[test]
fn the_recommended_policy_survives_a_deep_shard_by_worker_grid() {
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2, 8] {
            stress(selective(42), shards, workers, 48, 24);
        }
    }
}

#[test]
fn every_policy_and_version_survives_the_shard_by_worker_grid() {
    for engine in policies() {
        for version in [EngineVersion::V1, EngineVersion::V2] {
            for shards in [1usize, 2, 8] {
                for workers in [1usize, 2, 8] {
                    stress(
                        engine.with_seed(42).with_version(version),
                        shards,
                        workers,
                        32,
                        12,
                    );
                }
            }
        }
    }
}

#[test]
fn a_batch_above_the_fan_out_threshold_survives_the_worker_grid() {
    // Every other case here batches 4 full reranks over at most 64
    // documents, which the calling thread answers alone. At n = 1024 the
    // same batch is 4 × 1024 positions, so it fans out to spawned workers
    // on every route — v1 and v2 Selective and Uniform — and the race
    // surface of the spawned hand-off stays under test.
    let n = 1024u64;
    assert!(queries().len() * n as usize >= FAN_OUT_MIN_POSITIONS);
    let v1 = selective(42);
    for engine in [v1, v1.with_version(EngineVersion::V2), uniform(42)] {
        for workers in [2usize, 8] {
            stress(engine, 2, workers, n, 8);
        }
    }
}

proptest! {
    /// The randomized variant: arbitrary corpus sizes, schedules, shard
    /// and worker counts, seeds and policies — every racing read still
    /// lands bit-identical on its epoch's sequential twin. Scaled up in
    /// CI via `PROPTEST_CASES`.
    #[test]
    fn racing_reads_are_bit_identical_to_the_sequential_twin(
        n in 8u64..64,
        mutations in 1u64..24,
        shards in 1usize..6,
        workers in 1usize..4,
        seed in 0u64..1_000,
        pick_uniform in prop::bool::ANY,
        v2 in prop::bool::ANY,
    ) {
        let mut engine = if pick_uniform { uniform(seed) } else { selective(seed) };
        if v2 {
            engine = engine.with_version(EngineVersion::V2);
        }
        stress(engine, shards, workers, n, mutations);
    }
}
