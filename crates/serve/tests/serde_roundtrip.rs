//! Serde round-trip regressions for everything recovery reads back from a
//! snapshot: the sharded store and the engine — including the
//! versioned-engine compatibility fallback (a serialized engine with no
//! `version` field deserializes to V1, so pre-versioning snapshots keep
//! their recorded behavior). The serving tier is written into snapshots
//! too, but never read: recovery derives it from the store's documents.
//!
//! Round trips go all the way through the JSON text codec (the on-disk
//! snapshot format), not just `Value`, and are checked two ways: the
//! re-serialized `Value` is `==` the original, and behavioral probes
//! (documents, popularity bits, shard routing) agree. The text is what
//! snapshots write, streamed with no tree; it must be byte for byte the
//! text of the value's `Value` tree.

mod common;

use common::assert_same_corpus;
use rrp_core::{Document, EngineVersion, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::ShardedStore;
use serde::{Deserialize, Serialize, Value};

/// Through the on-disk codec: value → JSON text → T, the text streamed
/// exactly as the tree writes it.
fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
    let text = serde_json::to_string(value).expect("serializes");
    assert_eq!(
        text,
        serde_json::to_string(&value.to_value()).expect("the tree serializes"),
        "the streamed bytes equal the tree's"
    );
    serde_json::from_str(&text).expect("reads back")
}

/// The documents a test corpus holds: a mix of unexplored and established
/// entries with bit-awkward popularities.
fn corpus(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                Document::unexplored(i as u64 * 11)
            } else {
                Document::established(i as u64 * 11, 0.1 + i as f64 * 0.07).with_age(i as u64)
            }
        })
        .collect()
}

#[test]
fn a_sharded_store_roundtrips_bit_exactly() {
    let mut store = ShardedStore::new(4);
    store.extend(corpus(30));
    store.record_visit(2);
    store.update_popularity(7, 0.123456789012345);

    let back = roundtrip(&store);
    assert_eq!(back.to_value(), store.to_value());
    assert_eq!(back.shard_count(), store.shard_count());
    assert_same_corpus(&back.snapshot(), &store.snapshot());
    for shard in 0..store.shard_count() {
        assert_eq!(
            back.shard_len(shard).unwrap(),
            store.shard_len(shard).unwrap()
        );
    }
}

#[test]
fn engines_roundtrip_for_both_versions() {
    for version in [EngineVersion::V1, EngineVersion::V2] {
        for rule in [PromotionRule::Uniform, PromotionRule::Selective] {
            let engine = RankPromotionEngine::new(PromotionConfig::new(rule, 2, 0.25).unwrap())
                .with_seed(0xBEEF)
                .with_version(version);
            let back = roundtrip(&engine);
            assert_eq!(back, engine);
            assert_eq!(back.version(), version);
        }
    }
}

#[test]
fn an_engine_without_a_version_field_falls_back_to_v1() {
    // The compatibility contract from the engine-versioning change:
    // engines serialized before the `version` field existed deserialize
    // to V1, keeping their recorded goldens valid.
    let engine = RankPromotionEngine::recommended()
        .with_seed(42)
        .with_version(EngineVersion::V2);
    let Value::Map(fields) = engine.to_value() else {
        panic!("engines serialize as maps");
    };
    let stripped: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(name, _)| name != "version")
        .collect();
    assert!(
        stripped.iter().any(|(name, _)| name == "config"),
        "the stripped map still carries the config"
    );
    let legacy_text = serde_json::to_string(&Value::Map(stripped)).unwrap();
    let legacy: RankPromotionEngine =
        serde_json::from_str(&legacy_text).expect("a pre-versioning engine still deserializes");
    assert_eq!(legacy.version(), EngineVersion::V1);
    assert_eq!(legacy, engine.with_version(EngineVersion::V1));
}
