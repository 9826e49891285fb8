//! Fault injection against the durable serving tier: torn tails, flipped
//! bytes, unreadable headers, corrupt snapshots, and append-time I/O
//! failures. The bar everywhere: **typed errors and clean truncation,
//! never a panic, never silently wrong state** — whatever survives on
//! disk recovers to exactly the live state that produced it.

mod common;

use common::{apply_mutation_durable, arb_ops, assert_same_corpus, queries, ServeShape, TempDir};
use proptest::prelude::*;
use rrp_core::{Document, RankPromotionEngine};
use rrp_serve::{DurableService, ServeError, ShardedPromotionService};
use rrp_wal::fault::{flip_byte, truncate_at, Failpoint};
use rrp_wal::{WalEvent, WalReader, WAL_HEADER_LEN};

fn engine(seed: u64) -> RankPromotionEngine {
    RankPromotionEngine::recommended().with_seed(seed)
}

/// Run a schedule through a durable service with snapshots off, crash
/// it, and return its directory (the log is then the full history).
fn logged_history(ops: &[common::Op], seed: u64, shards: usize) -> TempDir {
    let dir = TempDir::new("fault");
    let (durable, _) = DurableService::open(dir.path(), engine(seed), shards).unwrap();
    let mut durable = durable.with_snapshot_every(u64::MAX);
    for &op in ops {
        apply_mutation_durable(&mut durable, op);
    }
    drop(durable);
    dir
}

/// Whatever a damaged log still yields, read leniently.
fn surviving_events(path: &std::path::Path) -> (Vec<WalEvent>, rrp_wal::TailStatus) {
    let mut reader = WalReader::open(path).expect("header still intact");
    let mut events = Vec::new();
    while let Some((_, event)) = reader.next_event().expect("no real I/O error") {
        events.push(event);
    }
    (events, reader.tail())
}

/// The in-memory state `events` produces when applied live.
fn live_state(events: &[WalEvent], seed: u64, shards: usize) -> ShardedPromotionService {
    let service = ShardedPromotionService::new(engine(seed), shards);
    for event in events {
        match *event {
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

/// Recovered output ≡ the live state of the surviving events.
fn assert_recovers_to(
    dir: &TempDir,
    expected: &mut ShardedPromotionService,
    seed: u64,
    shards: usize,
) {
    let (recovered, _) = DurableService::open(dir.path(), engine(seed), shards).unwrap();
    assert_same_corpus(&recovered.store().snapshot(), &expected.store().snapshot());
    let qs = queries(4, 0xFA);
    assert_eq!(
        recovered.service().rerank_batch(&qs),
        expected.rerank_batch(&qs)
    );
}

proptest! {
    /// Truncate the log at *any* byte offset past the header: recovery
    /// must classify the damage (clean cut or torn frame, never corrupt),
    /// drop the partial frame, and reproduce the surviving prefix.
    #[test]
    fn torn_tails_are_dropped_cleanly_at_any_offset(
        ops in arb_ops(ServeShape::Full),
        seed in 0u64..500,
        cut_salt in 0u64..100_000,
    ) {
        let shards = 2;
        let dir = logged_history(&ops, seed, shards);
        let len = std::fs::metadata(dir.wal_path()).unwrap().len();
        let cut = WAL_HEADER_LEN + cut_salt % (len - WAL_HEADER_LEN + 1);
        truncate_at(&dir.wal_path(), cut).unwrap();

        let (survivors, tail) = surviving_events(&dir.wal_path());
        prop_assert!(
            !matches!(tail, rrp_wal::TailStatus::Corrupt { .. }),
            "truncation must never read as corruption"
        );
        let (recovered, report) =
            DurableService::open(dir.path(), engine(seed), shards).unwrap();
        prop_assert_eq!(report.events_replayed, survivors.len() as u64);
        prop_assert_eq!(report.events_lost, 0);
        prop_assert_eq!(report.bytes_dropped, tail.dropped_bytes());
        drop(recovered);
        assert_recovers_to(&dir, &mut live_state(&survivors, seed, shards), seed, shards);
    }

    /// Flip one byte anywhere in the record region: the checksum detects
    /// it, recovery truncates at the first corrupt record, reports a loss
    /// count, and reproduces the surviving prefix — never a panic.
    #[test]
    fn flipped_bytes_truncate_at_the_first_corrupt_record(
        ops in arb_ops(ServeShape::Full),
        seed in 0u64..500,
        flip_salt in 0u64..100_000,
    ) {
        let shards = 2;
        let dir = logged_history(&ops, seed, shards);
        let len = std::fs::metadata(dir.wal_path()).unwrap().len();
        prop_assume!(len > WAL_HEADER_LEN); // schedules of pure serves log nothing
        let flip = WAL_HEADER_LEN + flip_salt % (len - WAL_HEADER_LEN);
        flip_byte(&dir.wal_path(), flip).unwrap();

        let (all, _) = {
            // What the untouched log held, for the loss accounting.
            let mut pristine = dir.wal_path().into_os_string();
            pristine.push(".pristine");
            let pristine = std::path::PathBuf::from(pristine);
            std::fs::copy(dir.wal_path(), &pristine).unwrap();
            flip_byte(&pristine, flip).unwrap(); // flip back
            surviving_events(&pristine)
        };
        let (survivors, tail) = surviving_events(&dir.wal_path());
        let (recovered, report) =
            DurableService::open(dir.path(), engine(seed), shards).unwrap();
        prop_assert_eq!(report.events_replayed, survivors.len() as u64);
        prop_assert_eq!(report.events_lost, tail.events_lost());
        if let rrp_wal::TailStatus::Corrupt { events_lost, .. } = tail {
            // When the flip spares the length prefixes the count is
            // exact; it is never an overcount.
            prop_assert!(events_lost >= 1);
            prop_assert!(survivors.len() as u64 + events_lost <= all.len() as u64 + 1);
        }
        drop(recovered);
        assert_recovers_to(&dir, &mut live_state(&survivors, seed, shards), seed, shards);
    }
}

#[test]
fn append_failures_degrade_gracefully_and_keep_state_consistent() {
    let dir = TempDir::new("failpoint");
    let failpoint = Failpoint::new();
    let (durable, _) =
        DurableService::open_with_failpoint(dir.path(), engine(7), 2, failpoint.clone()).unwrap();
    let mut durable = durable.with_snapshot_every(u64::MAX);
    let twin = ShardedPromotionService::new(engine(7), 2);

    for i in 0..10u64 {
        let doc = Document::established(i, 0.9 - i as f64 * 0.05).with_age(i);
        durable.insert(doc).unwrap();
        twin.insert(doc);
    }

    // Let two more appends through, then the disk "fails".
    failpoint.arm_after(2);
    durable.record_visit(0).unwrap();
    twin.record_visit(0);
    durable.update_popularity(1, 0.99).unwrap();
    twin.update_popularity(1, 0.99);

    // Every mutation now surfaces a typed error — and applies nothing.
    let before = durable.serve_stats();
    assert!(matches!(
        durable.insert(Document::unexplored(77)),
        Err(ServeError::Wal(_))
    ));
    assert!(matches!(durable.record_visit(2), Err(ServeError::Wal(_))));
    assert!(matches!(
        durable.update_popularity(3, 0.1),
        Err(ServeError::Wal(_))
    ));
    let after = durable.serve_stats();
    assert_eq!(
        after.wal_appends, before.wal_appends,
        "failures charge nothing"
    );
    assert_eq!(
        durable.store().len(),
        twin.store().len(),
        "nothing was applied"
    );

    // Serving continues from consistent state mid-outage.
    let qs = queries(4, 3);
    assert_eq!(durable.service().rerank_batch(&qs), twin.rerank_batch(&qs));

    // The disk "heals": mutations work again, and a crash-recovery round
    // trip sees exactly the successful history.
    failpoint.disarm();
    durable.record_visit(4).unwrap();
    twin.record_visit(4);
    assert_eq!(durable.service().rerank_batch(&qs), twin.rerank_batch(&qs));
    drop(durable);
    let (recovered, report) = DurableService::open(dir.path(), engine(7), 2).unwrap();
    assert_eq!(report.events_lost, 0);
    assert_eq!(report.events_replayed, 13); // 10 inserts + 3 mutations
    assert_same_corpus(&recovered.store().snapshot(), &twin.store().snapshot());
    assert_eq!(
        recovered.service().rerank_batch(&qs),
        twin.rerank_batch(&qs)
    );
}

#[test]
fn a_corrupt_snapshot_falls_back_to_full_log_replay() {
    let dir = TempDir::new("snapshot-corrupt");
    let (mut durable, _) = DurableService::open(dir.path(), engine(3), 2).unwrap();
    let twin = ShardedPromotionService::new(engine(3), 2);
    for i in 0..20u64 {
        let doc = Document::established(i, 1.0 - i as f64 * 0.01).with_age(i);
        durable.insert(doc).unwrap();
        twin.insert(doc);
    }
    durable.snapshot_now().unwrap();
    durable.record_visit(3).unwrap();
    twin.record_visit(3);
    drop(durable);

    // Rot a byte in the middle of the snapshot payload.
    let len = std::fs::metadata(dir.snapshot_path()).unwrap().len();
    flip_byte(&dir.snapshot_path(), len / 2).unwrap();

    // The log was never truncated, so recovery goes around the snapshot.
    let (recovered, report) = DurableService::open(dir.path(), engine(3), 2).unwrap();
    assert!(report.snapshot_fallback);
    assert!(!report.snapshot_loaded);
    assert_eq!(report.events_replayed, 21, "the whole history replays");
    assert_same_corpus(&recovered.store().snapshot(), &twin.store().snapshot());
    let qs = queries(4, 9);
    assert_eq!(
        recovered.service().rerank_batch(&qs),
        twin.rerank_batch(&qs)
    );
}

#[test]
fn an_unreadable_log_header_resets_the_log_but_keeps_the_snapshot() {
    let dir = TempDir::new("bad-header");
    let (mut durable, _) = DurableService::open(dir.path(), engine(11), 2).unwrap();
    let twin = ShardedPromotionService::new(engine(11), 2);
    for i in 0..12u64 {
        let doc = Document::established(i, 0.8 - i as f64 * 0.02).with_age(i);
        durable.insert(doc).unwrap();
        twin.insert(doc);
    }
    durable.snapshot_now().unwrap();
    drop(durable);

    let log_len = std::fs::metadata(dir.wal_path()).unwrap().len();
    flip_byte(&dir.wal_path(), 0).unwrap(); // magic byte

    let (mut recovered, report) = DurableService::open(dir.path(), engine(11), 2).unwrap();
    assert!(report.snapshot_loaded);
    assert!(report.log_reset, "the reset is reported, not silent");
    assert_eq!(report.events_replayed, 0);
    assert_eq!(report.bytes_dropped, log_len, "the unreadable log is reset");
    assert_same_corpus(&recovered.store().snapshot(), &twin.store().snapshot());
    let qs = queries(4, 2);
    assert_eq!(
        recovered.service().rerank_batch(&qs),
        twin.rerank_batch(&qs)
    );

    // And the reset log keeps working: mutate, crash, recover again.
    let doc = Document::unexplored(500);
    recovered.insert(doc).unwrap();
    twin.insert(doc);
    drop(recovered);
    let (again, report) = DurableService::open(dir.path(), engine(11), 2).unwrap();
    assert_eq!(report.events_replayed, 1);
    assert_eq!(again.service().rerank_batch(&qs), twin.rerank_batch(&qs));
}

#[test]
fn a_log_cut_below_the_snapshot_mark_is_reset_and_the_snapshot_carries() {
    let dir = TempDir::new("log-behind-snapshot");
    let (mut durable, _) = DurableService::open(dir.path(), engine(5), 2).unwrap();
    let twin = ShardedPromotionService::new(engine(5), 2);
    for i in 0..15u64 {
        let doc = Document::established(i, 0.7 - i as f64 * 0.01).with_age(i);
        durable.insert(doc).unwrap();
        twin.insert(doc);
    }
    durable.snapshot_now().unwrap();
    drop(durable);

    // Cut the log all the way back to its header: everything it held is
    // now *older* than the snapshot's high-water mark. An empty log
    // needs no reset — appends resume directly at the snapshot's mark
    // (the reset-with-reporting path, for a log still *holding* stale
    // events, is pinned by the durable unit tests).
    truncate_at(&dir.wal_path(), WAL_HEADER_LEN).unwrap();

    let (mut recovered, report) = DurableService::open(dir.path(), engine(5), 2).unwrap();
    assert!(report.snapshot_loaded);
    assert!(!report.log_reset, "an empty log is kept, not reset");
    assert_eq!(report.bytes_dropped, 0);
    assert_eq!(report.events_replayed, 0);
    assert_same_corpus(&recovered.store().snapshot(), &twin.store().snapshot());
    let qs = queries(4, 5);
    assert_eq!(
        recovered.service().rerank_batch(&qs),
        twin.rerank_batch(&qs)
    );

    // Appending resumes at the snapshot's sequence; a second recovery
    // sees a gap-free log.
    let doc = Document::unexplored(900);
    recovered.insert(doc).unwrap();
    twin.insert(doc);
    drop(recovered);
    let (again, report) = DurableService::open(dir.path(), engine(5), 2).unwrap();
    assert_eq!(report.events_lost, 0);
    assert_eq!(report.events_replayed, 1);
    assert_eq!(again.service().rerank_batch(&qs), twin.rerank_batch(&qs));
}
