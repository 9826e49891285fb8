//! The prefix-replay property: **replaying any prefix of the log yields
//! exactly the state produced by applying that prefix of mutations
//! live** — the time-travel invariant of an event-sourced store.
//!
//! A durable service runs an arbitrary schedule with snapshots disabled,
//! so its log is the complete mutation history. The test then picks an
//! arbitrary prefix length P, cuts a copy of the log at the P-th record
//! boundary, recovers a service from the cut copy, and pins it — corpus
//! bits and serving output — against a twin that applied the same first
//! P events live, in memory, never having heard of a log. Every
//! point-in-time restore is therefore exactly the state the service
//! passed through on the way here (and, read as a replica story: a
//! follower that has consumed P events equals the leader at event P).

mod common;

use common::{apply_mutation_durable, arb_ops, assert_same_corpus, queries, ServeShape, TempDir};
use proptest::prelude::*;
use rrp_core::{EngineVersion, RankPromotionEngine};
use rrp_serve::{DurableService, ShardedPromotionService};
use rrp_wal::{fault::truncate_at, WalEvent, WalReader};

/// Read every event of a (clean) log plus the byte boundary after each
/// record, so a prefix cut can land exactly between records.
fn scan_log(path: &std::path::Path) -> (Vec<WalEvent>, Vec<u64>) {
    let mut reader = WalReader::open(path).expect("log opens");
    let mut events = Vec::new();
    let mut boundaries = vec![reader.valid_len()];
    while let Some((_, event)) = reader.next_event().expect("log reads") {
        events.push(event);
        boundaries.push(reader.valid_len());
    }
    assert_eq!(reader.tail(), rrp_wal::TailStatus::Clean);
    (events, boundaries)
}

/// Apply one logged event to an in-memory service, the way recovery does.
fn apply_live(service: &mut ShardedPromotionService, event: &WalEvent) {
    match *event {
        WalEvent::Insert(doc) => {
            service.insert(doc);
        }
        WalEvent::Visit { seq } => service.try_record_visit(seq).expect("logged visit applies"),
        WalEvent::SetPopularity { seq, popularity } => service
            .try_update_popularity(seq, popularity)
            .expect("logged update applies"),
    }
}

proptest! {
    #[test]
    fn every_log_prefix_replays_to_the_live_state(
        ops in arb_ops(ServeShape::Full),
        seed in 0u64..1_000,
        v2 in prop::bool::ANY,
        shards in 1usize..6,
        prefix_salt in 0u64..10_000,
    ) {
        let version = if v2 { EngineVersion::V2 } else { EngineVersion::V1 };
        let engine = RankPromotionEngine::recommended()
            .with_seed(seed)
            .with_version(version);

        // Write the full history (snapshots off: one snapshot would move
        // the replay start and hide part of the prefix).
        let dir = TempDir::new("prefix-replay");
        let (durable, _) = DurableService::open(dir.path(), engine, shards).unwrap();
        let mut durable = durable.with_snapshot_every(u64::MAX);
        for &op in &ops {
            apply_mutation_durable(&mut durable, op);
        }
        drop(durable); // crash

        let (events, boundaries) = scan_log(&dir.wal_path());
        let prefix = (prefix_salt as usize) % (events.len() + 1);

        // The live twin: the first `prefix` mutations applied in memory.
        let mut live = ShardedPromotionService::new(engine, shards);
        for event in &events[..prefix] {
            apply_live(&mut live, event);
        }

        // The replayed twin: a copy of the log cut at the prefix
        // boundary, recovered from disk.
        let replay_dir = TempDir::new("prefix-replay-cut");
        std::fs::copy(dir.wal_path(), replay_dir.wal_path()).unwrap();
        truncate_at(&replay_dir.wal_path(), boundaries[prefix]).unwrap();
        let (replayed, report) =
            DurableService::open(replay_dir.path(), engine, shards).unwrap();
        prop_assert_eq!(report.events_replayed, prefix as u64);
        prop_assert_eq!(report.events_lost, 0);
        prop_assert_eq!(report.bytes_dropped, 0, "cuts at record boundaries are clean");

        assert_same_corpus(&replayed.store().snapshot(), &live.store().snapshot());
        let qs = queries(5, prefix_salt);
        prop_assert_eq!(
            replayed.service().rerank_batch(&qs),
            live.rerank_batch(&qs),
            "full rerank at prefix {}/{}",
            prefix,
            events.len()
        );
        let mut got = Vec::new();
        replayed.service().rerank_batch_top_k_into(&qs, 7, &mut got);
        let mut want = Vec::new();
        live.rerank_batch_top_k_into(&qs, 7, &mut want);
        prop_assert_eq!(got, want, "top-7 at prefix {}/{}", prefix, events.len());
    }
}
