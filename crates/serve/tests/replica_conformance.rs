//! The replica conformance suite: **a replica tailing the leader's live
//! log is bit-identical to the leader at every applied sequence**, under
//! arbitrary mutate-while-serving schedules, across shard × policy ×
//! engine-version grids.
//!
//! Each case drives a leader [`DurableService`] through a schedule while
//! a [`ReplicaService`] tails the same directory — the leader keeps its
//! log open and keeps appending the whole time. At every serve point the
//! leader hands off with `sync_for_followers()`, the replica catches up,
//! and every serving path (full rerank and top-k, batched and
//! sequential) plus the corpus bits must match. The sweep also pins:
//!
//! * **replica crash-restart** — drop the replica mid-schedule, re-open
//!   (re-bootstrap from whatever snapshot the leader has written by
//!   then, plus tail resume) and land on the same state;
//! * **time travel** — a fresh replica capped at an arbitrary historical
//!   sequence equals an in-memory service fed exactly that log prefix;
//! * **mid-write polls** — a byte-at-a-time replay of the leader's log
//!   shows the replica only ever applying complete frames, never
//!   misreading a partial one;
//! * **lag stats** — `behind_by` counts a capped backlog exactly and
//!   drains to 0 after `catch_up()` on a quiesced leader.

mod common;

use common::{
    apply_mutation_durable, arb_ops, assert_same_corpus, inserted_document, queries, ServeShape,
    TempDir, GRID,
};
use proptest::prelude::*;
use rrp_core::{Document, EngineVersion, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::{
    BootstrapSource, DurableService, ReplicaService, ServeError, ShardedPromotionService,
};
use rrp_wal::{WalEvent, WalPoll, WalTailReader, WAL_HEADER_LEN};
use std::io::Write;
use std::path::Path;

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

/// The first `count` events of a leader's log applied to a fresh
/// in-memory service — the reference state for time-travel reads.
fn state_after(
    path: &Path,
    engine: RankPromotionEngine,
    shards: usize,
    count: u64,
) -> ShardedPromotionService {
    let service = ShardedPromotionService::new(engine, shards);
    let mut reader = WalTailReader::open(path).expect("leader log is readable");
    for _ in 0..count {
        match next_event(&mut reader) {
            WalEvent::Insert(doc) => {
                service.insert(doc);
            }
            WalEvent::Visit { seq } => service.try_record_visit(seq).unwrap(),
            WalEvent::SetPopularity { seq, popularity } => {
                service.try_update_popularity(seq, popularity).unwrap()
            }
        }
    }
    service
}

/// The next record of a log known to hold it.
fn next_event(reader: &mut WalTailReader) -> WalEvent {
    match reader.poll_next_event().expect("no I/O error") {
        WalPoll::Event { event, .. } => event,
        WalPoll::Pending => panic!("log holds the requested prefix"),
    }
}

/// Bit-identical serving on every path, plus bit-identical corpus.
fn assert_same_serving(got: &ShardedPromotionService, want: &ShardedPromotionService, salt: u64) {
    let qs = queries(4, salt);
    assert_eq!(
        got.rerank_batch(&qs),
        want.rerank_batch(&qs),
        "full rerank (salt {salt})"
    );
    for k in [1usize, 3, 9] {
        let mut g = Vec::new();
        got.rerank_batch_top_k_into(&qs, k, &mut g);
        let mut w = Vec::new();
        want.rerank_batch_top_k_into(&qs, k, &mut w);
        assert_eq!(g, w, "top-{k} (salt {salt})");
    }
    for &ctx in &qs {
        assert_eq!(
            got.rerank_one(ctx),
            want.rerank_one(ctx),
            "sequential full rerank (salt {salt})"
        );
        assert_eq!(
            got.rerank_top_k(ctx, 3),
            want.rerank_top_k(ctx, 3),
            "sequential top-3 (salt {salt})"
        );
    }
    assert_same_corpus(&got.store().snapshot(), &want.store().snapshot());
}

proptest! {
    /// One schedule, every shard count: the leader mutates (and
    /// snapshots, at a drawn cadence) while a replica tails the live
    /// directory. At every serve point — and across one mid-schedule
    /// replica crash-restart — the caught-up replica is bit-identical to
    /// the leader; afterwards a fresh capped replica time-travels to an
    /// arbitrary historical sequence.
    #[test]
    fn a_tailing_replica_reproduces_the_leader(
        ops in arb_ops(ServeShape::TopK),
        initial in 0usize..30,
        seed in 0u64..1_000,
        policy_index in 0usize..4,
        v2 in prop::bool::ANY,
        snapshot_every in 1u64..24,
        restart_salt in 0u64..4,
        travel_salt in 0u64..10_000,
    ) {
        let version = if v2 { EngineVersion::V2 } else { EngineVersion::V1 };
        let engine = policies()[policy_index].with_seed(seed).with_version(version);
        for shards in GRID {
            let dir = TempDir::new("replica");
            let (leader, _) = DurableService::open(dir.path(), engine, shards).unwrap();
            let mut leader = leader.with_snapshot_every(snapshot_every);
            for i in 0..initial {
                leader
                    .insert(inserted_document(i as u64, (i % 7) as f64 / 5.0, i as u64))
                    .unwrap();
            }

            // The replica comes up mid-history: bootstrap from whatever
            // snapshot exists by now (possibly none) plus the log tail.
            let mut replica = ReplicaService::open(dir.path(), engine, shards).unwrap();
            replica.catch_up().unwrap();
            assert_same_serving(replica.service(), leader.service(), 0);

            let mut serves = 0u64;
            for &op in &ops {
                if apply_mutation_durable(&mut leader, op).is_some() {
                    serves += 1;
                    // Crash-restart the replica at one serve point:
                    // re-bootstrap + tail resume must land on the same
                    // state the continuous replica would hold.
                    if serves == restart_salt + 1 {
                        replica = ReplicaService::open(dir.path(), engine, shards).unwrap();
                    }
                    // The handoff: the leader syncs and returns the mark
                    // a follower can reach; the replica catches up to
                    // exactly that mark while the leader keeps the log
                    // open for further appends.
                    let mark = leader.sync_for_followers().unwrap();
                    replica.catch_up().unwrap();
                    let stats = replica.stats();
                    prop_assert_eq!(stats.last_applied_seq.map_or(0, |s| s + 1), mark);
                    prop_assert_eq!(stats.behind_by, 0, "caught up on a quiesced leader");
                    assert_same_serving(replica.service(), leader.service(), serves);
                }
            }

            // Final convergence after the whole schedule.
            let total = leader.sync_for_followers().unwrap();
            replica.catch_up().unwrap();
            prop_assert_eq!(replica.stats().behind_by, 0);
            assert_same_serving(replica.service(), leader.service(), 0xF1AA);

            // Time travel: a fresh replica capped at any sequence between
            // the current snapshot's mark and full history equals the
            // in-memory service fed exactly that prefix of the log.
            let mut traveler = ReplicaService::open(dir.path(), engine, shards).unwrap();
            let hwm = traveler.stats().last_applied_seq.map_or(0, |s| s + 1);
            prop_assert!(hwm <= total, "snapshots never outrun the log");
            let cap = hwm + travel_salt % (total - hwm + 1);
            traveler.apply_up_to(cap).unwrap();
            let stats = traveler.stats();
            prop_assert_eq!(stats.last_applied_seq.map_or(0, |s| s + 1), cap);
            prop_assert_eq!(stats.events_applied, cap - hwm);
            prop_assert_eq!(stats.behind_by, total - cap);
            let past = state_after(&dir.wal_path(), engine, shards, cap);
            assert_same_serving(traveler.service(), &past, 0xCA9);
        }
    }
}

/// Replay the leader's log into the replica's directory one byte at a
/// time, polling after every byte — every prefix is a state some
/// unluckily timed poll could observe mid-append. The replica applies
/// exactly the complete frames, never errors, never misreads a partial
/// one, and tracks a lockstep twin the whole way.
#[test]
fn a_replica_polling_mid_write_applies_only_complete_frames() {
    let engine = RankPromotionEngine::recommended().with_seed(99);
    let shards = 2;
    let src = TempDir::new("midwrite-leader");
    let (leader, _) = DurableService::open(src.path(), engine, shards).unwrap();
    let mut leader = leader.with_snapshot_every(u64::MAX);
    for i in 0..20u64 {
        leader
            .insert(Document::established(i, 0.95 - i as f64 * 0.02).with_age(i))
            .unwrap();
    }
    for i in 0..10u64 {
        leader.record_visit(i).unwrap();
    }
    for i in 0..5u64 {
        leader.update_popularity(i, 0.3 + i as f64 * 0.1).unwrap();
    }
    let total = leader.sync_for_followers().unwrap();
    drop(leader);
    let bytes = std::fs::read(src.wal_path()).unwrap();

    let dst = TempDir::new("midwrite-replica");
    std::fs::write(dst.wal_path(), &bytes[..WAL_HEADER_LEN as usize]).unwrap();
    let mut replica = ReplicaService::open(dst.path(), engine, shards).unwrap();
    assert_eq!(
        replica.stats().bootstrap_source,
        BootstrapSource::FullLog,
        "no snapshot was copied"
    );
    let twin = ShardedPromotionService::new(engine, shards);
    let mut reader = WalTailReader::open(&src.wal_path()).unwrap();
    let mut applied = 0u64;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(dst.wal_path())
        .unwrap();
    for grow in WAL_HEADER_LEN as usize + 1..=bytes.len() {
        file.write_all(&bytes[grow - 1..grow]).unwrap();
        let newly = replica.catch_up().unwrap();
        for _ in 0..newly {
            match next_event(&mut reader) {
                WalEvent::Insert(doc) => {
                    twin.insert(doc);
                }
                WalEvent::Visit { seq } => twin.try_record_visit(seq).unwrap(),
                WalEvent::SetPopularity { seq, popularity } => {
                    twin.try_update_popularity(seq, popularity).unwrap()
                }
            }
            applied += 1;
        }
        // Between polls the replica serves a consistent historical state:
        // exactly the twin at its applied prefix.
        if newly > 0 {
            let qs = queries(2, grow as u64);
            assert_eq!(
                replica.service().rerank_batch(&qs),
                twin.rerank_batch(&qs),
                "mid-write state at byte {grow}"
            );
        }
    }
    assert_eq!(applied, total, "every frame eventually applied");
    let stats = replica.stats();
    assert_eq!(stats.events_applied, total);
    assert_eq!(stats.behind_by, 0);
    assert_eq!(stats.last_applied_seq, Some(total - 1));
    assert_same_serving(replica.service(), &twin, 0xB17E);
}

/// Lag introspection end to end: a capped replica counts its backlog in
/// `behind_by`, a later catch-up applies the held-back events without
/// re-reading them, and the drained stats hit zero.
#[test]
fn lag_stats_track_the_backlog_and_drain_on_catch_up() {
    let engine = RankPromotionEngine::recommended().with_seed(17);
    let dir = TempDir::new("replica-lag");
    let (leader, _) = DurableService::open(dir.path(), engine, 2).unwrap();
    let mut leader = leader.with_snapshot_every(u64::MAX);
    for i in 0..10u64 {
        leader
            .insert(Document::established(i, 0.9 - i as f64 * 0.04).with_age(i))
            .unwrap();
    }
    leader.sync_for_followers().unwrap();

    let mut replica = ReplicaService::open(dir.path(), engine, 2).unwrap();
    let stats = replica.stats();
    assert_eq!(stats.bootstrap_source, BootstrapSource::FullLog);
    assert_eq!(stats.events_applied, 0, "open applies nothing by itself");
    assert_eq!(stats.last_applied_seq, None);
    assert_eq!(stats.behind_by, 0, "nothing polled yet");

    // A capped apply holds the rest back — and counts it.
    assert_eq!(replica.apply_up_to(4).unwrap(), 4);
    let stats = replica.stats();
    assert_eq!(stats.events_applied, 4);
    assert_eq!(stats.last_applied_seq, Some(3));
    assert_eq!(stats.behind_by, 6);
    assert_eq!(replica.store().len(), 4);

    // The leader keeps writing while the replica sits capped.
    leader.insert(Document::unexplored(100)).unwrap();
    leader.insert(Document::unexplored(101)).unwrap();
    let mark = leader.sync_for_followers().unwrap();
    assert_eq!(mark, 12);

    // Catch-up drains the backlog and the new tail in one call.
    assert_eq!(replica.catch_up().unwrap(), 8);
    let stats = replica.stats();
    assert_eq!(stats.events_applied, 12);
    assert_eq!(stats.last_applied_seq, Some(11));
    assert_eq!(stats.behind_by, 0);
    assert_same_serving(replica.service(), leader.service(), 7);
}

/// A corrupt frame on the tail is a typed, sticky error — but the
/// verified events before it are applied and keep serving.
#[test]
fn a_corrupt_tail_surfaces_as_a_typed_error_but_reads_keep_serving() {
    let engine = RankPromotionEngine::recommended().with_seed(5);
    let dir = TempDir::new("replica-corrupt");
    let (leader, _) = DurableService::open(dir.path(), engine, 2).unwrap();
    let mut leader = leader.with_snapshot_every(u64::MAX);
    for i in 0..8u64 {
        leader
            .insert(Document::established(i, 0.8 - i as f64 * 0.03).with_age(i))
            .unwrap();
    }
    leader.sync_for_followers().unwrap();
    drop(leader);

    // Rot one payload byte inside the final frame: a complete frame that
    // can never verify, whatever arrives after it.
    let boundary = {
        let mut reader = WalTailReader::open(&dir.wal_path()).unwrap();
        for _ in 0..7 {
            next_event(&mut reader);
        }
        reader.valid_len()
    };
    rrp_wal::fault::flip_byte(&dir.wal_path(), boundary + 20).unwrap();

    let mut replica = ReplicaService::open(dir.path(), engine, 2).unwrap();
    let err = replica.catch_up().unwrap_err();
    assert!(
        matches!(err, ServeError::Wal(rrp_wal::WalError::Corrupt { .. })),
        "got {err:?}"
    );
    // The seven verified events landed before the error surfaced…
    assert_eq!(replica.stats().events_applied, 7);
    assert_eq!(replica.store().len(), 7);
    let reference = state_after(&dir.wal_path(), engine, 2, 7);
    assert_same_serving(replica.service(), &reference, 11);
    // …and the corruption is sticky on every later poll.
    assert!(replica.catch_up().is_err());
    assert!(replica.apply_up_to(u64::MAX).is_err());
}
