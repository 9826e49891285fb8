//! Regression tests for the typed-error contract of the serving tier:
//! bad external input — unknown sequence handles, a zero shard count, a
//! shard index past the partition, a reopen under the wrong deployment
//! configuration — surfaces a [`ServeError`] and leaves state untouched,
//! instead of panicking or silently clamping.

mod common;

use common::{queries, seed_service, TempDir};
use rrp_core::{Document, RankPromotionEngine};
use rrp_serve::{
    DurableService, ReplicaService, ServeError, ShardedPromotionService, ShardedStore,
};
use rrp_wal::snapshot::{read_snapshot, write_snapshot_atomic};
use serde::{Serialize, Value};

fn engine() -> RankPromotionEngine {
    RankPromotionEngine::recommended().with_seed(99)
}

#[test]
fn unknown_sequences_are_typed_errors_and_touch_nothing() {
    let mut service = ShardedPromotionService::new(engine(), 2);
    seed_service(&mut service, 10, 3, 0.05);
    let mut twin = ShardedPromotionService::new(engine(), 2);
    seed_service(&mut twin, 10, 3, 0.05);

    // Both mutation kinds reject a handle the store never issued, with
    // the real bounds in the error.
    match service.try_record_visit(10) {
        Err(ServeError::UnknownSequence { seq, len }) => {
            assert_eq!(seq, 10);
            assert_eq!(len, 10);
        }
        other => panic!("expected UnknownSequence, got {other:?}"),
    }
    match service.try_update_popularity(u64::MAX, 0.5) {
        Err(ServeError::UnknownSequence { seq, len }) => {
            assert_eq!(seq, u64::MAX);
            assert_eq!(len, 10);
        }
        other => panic!("expected UnknownSequence, got {other:?}"),
    }

    // The rejected mutations left no trace: the corpus and every serving
    // answer still match a twin that never saw them.
    common::assert_same_corpus(&service.store().snapshot(), &twin.store().snapshot());
    let qs = queries(4, 77);
    assert_eq!(service.rerank_batch(&qs), twin.rerank_batch(&qs));

    // And the valid twins of the same calls still work.
    service.try_record_visit(9).unwrap();
    service.try_update_popularity(0, 0.5).unwrap();
}

#[test]
fn a_zero_shard_count_is_rejected_by_try_new_and_clamped_by_new() {
    match ShardedPromotionService::try_new(engine(), 0) {
        Err(ServeError::InvalidShardCount { requested: 0 }) => {}
        other => panic!("expected InvalidShardCount, got {other:?}"),
    }
    // The infallible constructor keeps its documented clamping contract.
    let service = ShardedPromotionService::new(engine(), 0);
    assert_eq!(service.store().shard_count(), 1);
    // And valid counts pass through try_new unclamped.
    let service = ShardedPromotionService::try_new(engine(), 8).unwrap();
    assert_eq!(service.store().shard_count(), 8);
}

#[test]
fn shard_len_rejects_out_of_range_shards() {
    let mut store = ShardedStore::new(3);
    store.extend((0..7).map(Document::unexplored));
    let total: usize = (0..3).map(|s| store.shard_len(s).unwrap()).sum();
    assert_eq!(total, 7);
    match store.shard_len(3) {
        Err(ServeError::ShardOutOfRange {
            shard: 3,
            shards: 3,
        }) => {}
        other => panic!("expected ShardOutOfRange, got {other:?}"),
    }
    match store.shard_len(usize::MAX) {
        Err(ServeError::ShardOutOfRange { .. }) => {}
        other => panic!("expected ShardOutOfRange, got {other:?}"),
    }
}

#[test]
fn a_durable_service_cannot_open_with_zero_shards() {
    let dir = TempDir::new("zero-shards");
    match DurableService::open(dir.path(), engine(), 0) {
        Err(ServeError::InvalidShardCount { requested: 0 }) => {}
        other => {
            let other = other.map(|_| "a service");
            panic!("expected InvalidShardCount, got {other:?}");
        }
    }

    // The same error, not a recovery failure, when a valid snapshot is on
    // disk — for the leader and for a replica.
    let (mut durable, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
    durable.extend((0..6).map(Document::unexplored)).unwrap();
    durable.snapshot_now().unwrap();
    drop(durable);
    match DurableService::open(dir.path(), engine(), 0) {
        Err(ServeError::InvalidShardCount { requested: 0 }) => {}
        other => {
            let other = other.map(|_| "a service");
            panic!("leader: expected InvalidShardCount, got {other:?}");
        }
    }
    match ReplicaService::open(dir.path(), engine(), 0) {
        Err(ServeError::InvalidShardCount { requested: 0 }) => {}
        other => {
            let other = other.map(|_| "a replica");
            panic!("replica: expected InvalidShardCount, got {other:?}");
        }
    }

    // A checksum-valid snapshot whose store claims zero shards verifies,
    // so decoding must reject it — whatever shard count `open` asks for.
    rewrite_snapshot(&dir, |fields| {
        let Value::Map(store) = field(fields, "store") else {
            unreachable!("the store serializes as a map")
        };
        *field(store, "shard_count") = 0usize.to_value();
    });
    for shards in [1, 2] {
        match DurableService::open(dir.path(), engine(), shards) {
            Err(ServeError::Recovery { detail }) => {
                assert!(detail.contains("zero shards"), "{detail}")
            }
            other => {
                let other = other.map(|_| "a service");
                panic!("leader: expected Recovery, got {other:?}");
            }
        }
        match ReplicaService::open(dir.path(), engine(), shards) {
            Err(ServeError::Recovery { detail }) => {
                assert!(detail.contains("zero shards"), "{detail}")
            }
            other => {
                let other = other.map(|_| "a replica");
                panic!("replica: expected Recovery, got {other:?}");
            }
        }
    }
}

/// The first entry named `name` of a map's fields.
fn field<'a>(fields: &'a mut [(String, Value)], name: &str) -> &'a mut Value {
    let (_, value) = fields.iter_mut().find(|(key, _)| key == name).unwrap();
    value
}

/// Rewrite the snapshot in `dir` through `edit` on its payload text, and
/// put it back in a fresh envelope: the checksum verifies, so only
/// decoding can reject it.
fn rewrite_snapshot_text(dir: &TempDir, edit: impl FnOnce(&str) -> String) {
    let payload = read_snapshot(&dir.snapshot_path()).unwrap().unwrap();
    let payload = edit(std::str::from_utf8(&payload).unwrap());
    write_snapshot_atomic(&dir.snapshot_path(), payload.as_bytes()).unwrap();
}

/// [`rewrite_snapshot_text`] through an edit of the payload's top-level
/// fields.
fn rewrite_snapshot(dir: &TempDir, edit: impl FnOnce(&mut Vec<(String, Value)>)) {
    rewrite_snapshot_text(dir, |text| {
        let mut value: Value = serde_json::from_str(text).unwrap();
        let Value::Map(fields) = &mut value else {
            unreachable!("a snapshot payload is a map")
        };
        edit(fields);
        serde_json::to_string(&value).unwrap()
    });
}

#[test]
fn a_damaged_snapshot_payload_is_a_recovery_error_or_reads_as_before() {
    let dir = TempDir::new("damaged-payload");
    let (mut durable, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
    durable
        .extend((0..6).map(|i| Document::established(i, 0.5).with_age(i)))
        .unwrap();
    durable.snapshot_now().unwrap();
    drop(durable);
    let original = read_snapshot(&dir.snapshot_path()).unwrap().unwrap();
    let original = String::from_utf8(original).unwrap();

    type Damage = fn(&TempDir);
    let cases: [(&str, Damage, bool); 5] = [
        (
            "the store is missing",
            |dir| rewrite_snapshot(dir, |fields| fields.retain(|(key, _)| key != "store")),
            false,
        ),
        (
            "a popularity is a string",
            |dir| {
                rewrite_snapshot(dir, |fields| {
                    let Value::Map(store) = field(fields, "store") else {
                        unreachable!("the store serializes as a map")
                    };
                    let Value::Seq(documents) = field(store, "documents") else {
                        unreachable!("the documents serialize as a sequence")
                    };
                    let Value::Map(document) = &mut documents[3] else {
                        unreachable!("a document serializes as a map")
                    };
                    *field(document, "popularity") = Value::Str("0.5".into());
                })
            },
            false,
        ),
        (
            "the unread serving tier is cut to invalid JSON",
            |dir| {
                rewrite_snapshot_text(dir, |text| {
                    let start = text.find("\"shards\":").unwrap();
                    let end = text.find(",\"next_event\":").unwrap();
                    format!("{}{}", &text[..(start + end) / 2], &text[end..])
                })
            },
            false,
        ),
        (
            "bytes trail the payload",
            |dir| rewrite_snapshot_text(dir, |text| format!("{text} {{}}")),
            false,
        ),
        (
            "a second store is garbage",
            |dir| {
                rewrite_snapshot(dir, |fields| {
                    fields.push(("store".into(), Value::Str("garbage".into())))
                })
            },
            true,
        ),
    ];
    for (case, damage, opens) in cases {
        write_snapshot_atomic(&dir.snapshot_path(), original.as_bytes()).unwrap();
        damage(&dir);
        match DurableService::open(dir.path(), engine(), 2) {
            Ok((durable, report)) if opens => {
                assert!(report.snapshot_loaded, "{case}");
                assert_eq!(durable.store().len(), 6, "{case}");
            }
            Err(ServeError::Recovery { .. }) if !opens => {}
            other => {
                let other = other.map(|(_, report)| report);
                panic!("{case}: leader: unexpected {other:?}");
            }
        }
        match ReplicaService::open(dir.path(), engine(), 2) {
            Ok(replica) if opens => assert_eq!(replica.store().len(), 6, "{case}"),
            Err(ServeError::Recovery { .. }) if !opens => {}
            other => {
                let other = other.map(|_| "a replica");
                panic!("{case}: replica: unexpected {other:?}");
            }
        }
    }
}

#[test]
fn unknown_sequence_errors_read_the_length_under_the_failed_lookup() {
    // A writer inserts while a reader targets the current length: every
    // rejection must report a length the sequence is not below — the
    // length the failed lookup saw, not one read after a later insert.
    let service = ShardedPromotionService::new(engine(), 2);
    let inserts = 2_000u64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..inserts {
                service.insert(Document::unexplored(i));
            }
        });
        loop {
            let len = service.store().len() as u64;
            if let Err(error) = service.try_record_visit(len) {
                match error {
                    ServeError::UnknownSequence { seq, len } => {
                        assert!(
                            seq >= len,
                            "sequence {seq} reported unknown at length {len}"
                        )
                    }
                    other => panic!("expected UnknownSequence, got {other:?}"),
                }
            }
            if len == inserts {
                break;
            }
        }
    });
}

#[test]
fn durable_rejections_never_reach_the_log() {
    let dir = TempDir::new("rejected-mutations");
    let (mut durable, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
    for i in 0..5u64 {
        durable.insert(Document::unexplored(i)).unwrap();
    }
    let appends = durable.serve_stats().wal_appends;

    assert!(matches!(
        durable.record_visit(5),
        Err(ServeError::UnknownSequence { seq: 5, len: 5 })
    ));
    assert!(matches!(
        durable.update_popularity(17, 0.4),
        Err(ServeError::UnknownSequence { seq: 17, len: 5 })
    ));
    assert_eq!(
        durable.serve_stats().wal_appends,
        appends,
        "rejected mutations must not be logged"
    );
    drop(durable);

    // …so recovery replays exactly the accepted history.
    let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
    assert_eq!(report.events_replayed, appends);
    assert_eq!(report.events_lost, 0);
}

#[test]
fn reopening_under_a_different_configuration_is_a_recovery_error() {
    let dir = TempDir::new("config-mismatch");
    let (mut durable, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
    for i in 0..6u64 {
        durable
            .insert(Document::established(i, 0.5).with_age(i))
            .unwrap();
    }
    durable.snapshot_now().unwrap();
    drop(durable);

    // A different engine (seed ⇒ different RNG streams) must not replay
    // into silently different rankings.
    let reseeded = RankPromotionEngine::recommended().with_seed(100);
    match DurableService::open(dir.path(), reseeded, 2) {
        Err(ServeError::Recovery { detail }) => {
            assert!(detail.contains("engine"), "unhelpful detail: {detail}");
        }
        other => {
            let other = other.map(|_| "a service");
            panic!("expected Recovery, got {other:?}");
        }
    }

    // A different shard count is a different partition of the same data.
    match DurableService::open(dir.path(), engine(), 4) {
        Err(ServeError::Recovery { detail }) => {
            assert!(detail.contains("shard"), "unhelpful detail: {detail}");
        }
        other => {
            let other = other.map(|_| "a service");
            panic!("expected Recovery, got {other:?}");
        }
    }

    // The matching configuration still opens fine after the refusals.
    let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
    assert!(report.snapshot_loaded);
}
