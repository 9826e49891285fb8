//! Serde round-trip regressions for everything a snapshot persists:
//! the sharded serving cache, the sharded store, and the engine —
//! including the versioned-engine compatibility fallback (a serialized
//! engine with no `version` field deserializes to V1, so pre-versioning
//! snapshots keep their recorded behavior).
//!
//! Round trips go all the way through the JSON text codec (the on-disk
//! snapshot format), not just `Value`, and are checked two ways: the
//! re-serialized `Value` is `==` the original, and behavioral probes
//! (pool membership, popularity order, page ids, popularity bits) agree.

mod common;

use common::assert_same_corpus;
use proptest::prelude::*;
use rrp_core::{Document, EngineVersion, RankPromotionEngine, ShardedCorpusCache};
use rrp_ranking::{PromotionConfig, PromotionRule};
use rrp_serve::ShardedStore;
use serde::{Deserialize, Serialize, Value};

/// Through the on-disk codec: value → JSON text → value → T.
fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
    let text = serde_json::to_string(&value.to_value()).expect("serializes");
    let parsed: Value = serde_json::from_str(&text).expect("parses");
    T::from_value(&parsed).expect("deserializes")
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

/// Probe-level equality for two serving caches (beyond `Value` equality):
/// the same size, backlog and pool setting, and versions published from
/// both answer every serving-path accessor the same. Publication repairs
/// both sides; a deserialised cache has no diff log, so the two may charge
/// different slot counts — what they serve must agree.
fn assert_same_cache(got: &mut ShardedCorpusCache, expected: &mut ShardedCorpusCache) {
    assert_eq!(got.len(), expected.len());
    assert_eq!(got.dirty_len(), expected.dirty_len());
    assert_eq!(got.pool_maintained(), expected.pool_maintained());
    let (got, _) = got.publish(1);
    let (expected, _) = expected.publish(1);
    assert_eq!(got.pool_slots(), expected.pool_slots());
    assert_eq!(got.cache().order(), expected.cache().order());
    for slot in 0..expected.len() {
        assert_eq!(got.page_of(slot), expected.page_of(slot), "page at {slot}");
        assert_eq!(got.in_pool(slot), expected.in_pool(slot), "pool at {slot}");
        let g = got.cache().stats()[slot];
        let e = expected.cache().stats()[slot];
        assert_eq!(g.slot, e.slot);
        assert_eq!(
            g.popularity.to_bits(),
            e.popularity.to_bits(),
            "popularity bits at {slot}"
        );
    }
}

#[test]
fn an_empty_cache_roundtrips() {
    for shards in [1usize, 2, 8] {
        let mut cache = ShardedCorpusCache::new(shards);
        let mut back = roundtrip(&cache);
        assert_eq!(back.to_value(), cache.to_value());
        assert_same_cache(&mut back, &mut cache);
    }
}

#[test]
fn a_populated_repaired_cache_roundtrips_with_pool_on_and_off() {
    for maintained in [true, false] {
        for shards in [1usize, 3, 8] {
            let mut cache = ShardedCorpusCache::new(shards);
            cache.set_pool_maintained(maintained);
            for (i, doc) in corpus(25).iter().enumerate() {
                cache.push(i % shards, doc);
            }
            cache.publish(1);
            let mut back = roundtrip(&cache);
            assert_eq!(back.to_value(), cache.to_value(), "{shards} shards");
            assert_same_cache(&mut back, &mut cache);
        }
    }
}

#[test]
fn a_mid_dirty_cache_roundtrips_and_repairs_identically() {
    // Dirty state (patched but not yet repaired) is part of the snapshot:
    // a crash between mutation and repair must not lose the patch.
    let mut cache = ShardedCorpusCache::new(2);
    cache.set_pool_maintained(true);
    for (i, doc) in corpus(12).iter().enumerate() {
        cache.push(i % 2, doc);
    }
    cache.publish(1);
    cache.patch(3, &Document::established(33, 0.99).with_age(1));
    cache.patch(6, &Document::unexplored(66));
    assert!(
        cache.dirty_len() > 0,
        "the cache must actually be mid-dirty"
    );

    let mut back = roundtrip(&cache);
    assert_eq!(back.to_value(), cache.to_value());
    assert_eq!(back.dirty_len(), cache.dirty_len());

    // Both sides repair the same dirty set and land in the same state.
    assert_same_cache(&mut back, &mut cache);
    assert_eq!(back.to_value(), cache.to_value());
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
        let engine = RankPromotionEngine::new(
            PromotionConfig::new(PromotionRule::Uniform, 2, 0.25).unwrap(),
        )
        .with_seed(0xBEEF)
        .with_version(version);
        let back = roundtrip(&engine);
        assert_eq!(back, engine);
        assert_eq!(back.version(), version);
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
    let legacy = RankPromotionEngine::from_value(&Value::Map(stripped))
        .expect("a pre-versioning engine still deserializes");
    assert_eq!(legacy.version(), EngineVersion::V1);
    assert_eq!(legacy, engine.with_version(EngineVersion::V1));
}

proptest! {
    /// Any push/patch/publish interleaving round-trips: `Value` equality
    /// plus probe equality.
    #[test]
    fn arbitrary_cache_states_roundtrip(
        docs in prop::collection::vec((0u64..1_000, 0.0f64..1.5, 0u64..200), 1..40),
        patches in prop::collection::vec((0usize..40, 0.0f64..1.5), 0..10),
        shards in 1usize..6,
        maintained in prop::bool::ANY,
        repair_before_patch in prop::bool::ANY,
    ) {
        let mut cache = ShardedCorpusCache::new(shards);
        cache.set_pool_maintained(maintained);
        for (i, &(id, popularity, age)) in docs.iter().enumerate() {
            let doc = if popularity < 0.05 {
                Document::unexplored(id)
            } else {
                Document::established(id, popularity).with_age(age)
            };
            cache.push(i % shards, &doc);
        }
        if repair_before_patch {
            cache.publish(1);
        }
        for &(slot, popularity) in &patches {
            let slot = slot % docs.len();
            cache.patch(slot, &Document::established(slot as u64, popularity));
        }

        let mut back = roundtrip(&cache);
        prop_assert_eq!(back.to_value(), cache.to_value());
        assert_same_cache(&mut back, &mut cache);

        // And the round trip commutes with repair.
        prop_assert_eq!(back.to_value(), cache.to_value());
    }
}
