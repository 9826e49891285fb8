//! Fault injection against the durable serving tier: torn tails, flipped
//! bytes, unreadable headers, corrupt snapshots, and append-time I/O
//! failures. The bar everywhere: **typed errors and clean truncation,
//! never a panic, never silently wrong state** — whatever survives on
//! disk recovers to exactly the live state that produced it.

mod common;

use common::{apply_mutation_durable, arb_ops, assert_same_corpus, queries, ServeShape, TempDir};
use proptest::prelude::*;
use rrp_core::model::PageId;
use rrp_core::{CorpusCache, Document, RankPromotionEngine, ShardedCorpusCache};
use rrp_ranking::PageStats;
use rrp_serve::{
    BootstrapSource, DurableService, ReplicaService, ServeError, ShardedPromotionService,
    ShardedStore,
};
use rrp_wal::fault::{flip_byte, truncate_at, Failpoint};
use rrp_wal::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use rrp_wal::{WalError, WalEvent, WalPoll, WalTailReader, WAL_HEADER_LEN};
use serde::{Serialize, Value};

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
    let mut reader = WalTailReader::open(path).expect("header still intact");
    let mut events = Vec::new();
    loop {
        match reader.poll_next_event() {
            Ok(WalPoll::Event { event, .. }) => events.push(event),
            Ok(WalPoll::Pending) | Err(WalError::Corrupt { .. }) => break,
            Err(e) => panic!("no real I/O error: {e}"),
        }
    }
    (events, reader.tail().expect("no real I/O error"))
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

/// The store as snapshot versions 1 and 2 laid it out, written by hand:
/// per-shard `(sequence, document)` lists beside a dense
/// `sequence → (shard, index)` placement map.
fn per_shard_store(store: &ShardedStore) -> Value {
    let mut shards: Vec<Vec<(u64, Document)>> = vec![Vec::new(); store.shard_count()];
    let mut placement: Vec<(u32, u32)> = Vec::new();
    for (seq, doc) in store.snapshot().into_iter().enumerate() {
        let shard = store.shard_of_id(doc.id);
        placement.push((shard as u32, shards[shard].len() as u32));
        shards[shard].push((seq as u64, doc));
    }
    Value::Map(vec![
        ("shards".to_string(), shards.to_value()),
        ("placement".to_string(), placement.to_value()),
    ])
}

/// A snapshot payload around the per-shard store and the given serving
/// tier.
fn payload_with_tier(
    store: &ShardedStore,
    tier: Value,
    engine: RankPromotionEngine,
    next: u64,
) -> String {
    let value = Value::Map(vec![
        ("engine".to_string(), engine.to_value()),
        ("store".to_string(), per_shard_store(store)),
        ("shards".to_string(), tier),
        ("next_event".to_string(), next.to_value()),
    ]);
    serde_json::to_string(&value).unwrap()
}

/// The version-1 payload: beside the per-shard store, one `CorpusCache`
/// per store shard under local slots, with the local→global maps and the
/// global placement, page, membership and pool arrays.
fn version_1_payload(store: &ShardedStore, engine: RankPromotionEngine, next: u64) -> String {
    let docs = store.snapshot();
    let mut shards: Vec<(Vec<PageStats>, Vec<usize>)> =
        vec![Default::default(); store.shard_count()];
    let mut placement = Vec::new();
    for (slot, doc) in docs.iter().enumerate() {
        let (stats, globals) = &mut shards[store.shard_of_id(doc.id)];
        placement.push((store.shard_of_id(doc.id) as u32, stats.len() as u32));
        stats.push(RankPromotionEngine::document_stat(stats.len(), doc));
        globals.push(slot);
    }
    let shards: Vec<Value> = shards
        .into_iter()
        .map(|(stats, globals)| {
            let mut cache = CorpusCache::new();
            cache.rebuild(stats);
            Value::Map(vec![
                ("cache".to_string(), cache.to_value()),
                ("globals".to_string(), globals.to_value()),
            ])
        })
        .collect();
    let pages: Vec<PageId> = docs.iter().map(|d| PageId::new(d.id)).collect();
    let mask: Vec<bool> = docs.iter().map(|d| d.is_unexplored).collect();
    let pool: Vec<usize> = (0..docs.len()).filter(|&s| mask[s]).collect();
    let tier = Value::Map(vec![
        ("shards".to_string(), Value::Seq(shards)),
        ("placement".to_string(), placement.to_value()),
        ("pages".to_string(), pages.to_value()),
        ("pool_mask".to_string(), mask.to_value()),
        ("merged_pool".to_string(), pool.to_value()),
    ]);
    payload_with_tier(store, tier, engine, next)
}

/// The version-2 payload: beside the per-shard store, the serving tier as
/// one corpus-wide cache over global slots.
fn version_2_payload(store: &ShardedStore, engine: RankPromotionEngine, next: u64) -> String {
    let mut tier = ShardedCorpusCache::new(store.shard_count());
    tier.set_pool_maintained(engine.reads_pool_index());
    for doc in store.snapshot() {
        tier.push(0, &doc);
    }
    payload_with_tier(store, tier.to_value(), engine, next)
}

/// A snapshot envelope of `version` around `payload`, as the writer of
/// that version laid it out.
fn envelope(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&rrp_wal::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn a_parent_format_snapshot_falls_back_to_full_log_replay() {
    let dir = TempDir::new("snapshot-parent-format");
    let (mut durable, _) = DurableService::open(dir.path(), engine(5), 2).unwrap();
    let twin = ShardedPromotionService::new(engine(5), 2);
    for i in 0..20u64 {
        let doc = if i % 4 == 0 {
            Document::unexplored(i)
        } else {
            Document::established(i, 1.0 - i as f64 * 0.01).with_age(i)
        };
        durable.insert(doc).unwrap();
        twin.insert(doc);
    }
    durable.snapshot_now().unwrap();
    durable.record_visit(4).unwrap();
    twin.record_visit(4);
    drop(durable);

    let qs = queries(4, 17);
    let expected = twin.rerank_batch(&qs);
    let store = twin.store().clone();
    let old_formats = [
        (1, version_1_payload(&store, engine(5), 20)),
        (2, version_2_payload(&store, engine(5), 20)),
    ];
    for (version, payload) in old_formats {
        // Overwrite the snapshot with what that format wrote at the same
        // point.
        std::fs::write(dir.snapshot_path(), envelope(version, payload.as_bytes())).unwrap();

        // A replica goes around it and replays the whole log.
        let replica = std::panic::catch_unwind(|| {
            let mut replica = ReplicaService::open(dir.path(), engine(5), 2)?;
            replica.catch_up()?;
            Ok::<_, ServeError>(replica)
        })
        .expect("opening over an old-format snapshot must not panic")
        .unwrap();
        assert_eq!(
            replica.stats().bootstrap_source,
            BootstrapSource::SnapshotFallback,
            "version {version}"
        );
        assert_eq!(
            replica.stats().events_applied,
            21,
            "version {version}: the whole history replays"
        );
        assert_same_corpus(&replica.store().snapshot(), &store.snapshot());
        assert_eq!(replica.service().rerank_batch(&qs), expected);
        drop(replica);

        // So does the leader's recovery.
        let (recovered, report) =
            std::panic::catch_unwind(|| DurableService::open(dir.path(), engine(5), 2))
                .expect("opening over an old-format snapshot must not panic")
                .unwrap();
        assert!(report.snapshot_fallback, "version {version}");
        assert!(!report.snapshot_loaded, "version {version}");
        assert_eq!(
            report.events_replayed, 21,
            "version {version}: the whole history replays"
        );
        assert_same_corpus(&recovered.store().snapshot(), &store.snapshot());
        assert_eq!(recovered.service().rerank_batch(&qs), expected);
        drop(recovered);

        // The version bump is what routes around it: the same payload in
        // a current envelope verifies, fails to decode, and fails `open`.
        std::fs::write(
            dir.snapshot_path(),
            envelope(SNAPSHOT_VERSION, payload.as_bytes()),
        )
        .unwrap();
        assert!(
            matches!(
                DurableService::open(dir.path(), engine(5), 2),
                Err(ServeError::Recovery { .. })
            ),
            "version {version}"
        );
    }
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
