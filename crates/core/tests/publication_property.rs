//! Publication ≡ from scratch: under arbitrary push / patch / publish /
//! recycle schedules — with readers that straggle on retired versions,
//! with pool maintenance on or off — every version
//! [`ShardedCorpusCache::publish`] cuts serves exactly what a
//! [`CorpusCache`] rebuilt from the current documents serves, and every
//! straggling version keeps serving its own epoch.
//!
//! Publication edits the writer's order in one copying pass from the live
//! version's, repairing each slot mutated since the last publication once
//! (`2·d` lockstep binary searches plus one `n`-entry copy), and recycles
//! the retired version's cache by copying the live stats at that diff —
//! leaving its order scratch until the next publication overwrites it. A
//! slot missed by either step, or scratch state that leaks, would not fail
//! loudly: it would shift the order, the pool, or a page id in some later
//! version. This suite compares all of them after every publication, and
//! inspects the writer's serialized form at arbitrary points (right after
//! a publication too, when its own order is scratch): snapshots write it,
//! so it must carry the current stats, the dirty slots and the live
//! version's from-scratch order and pool. After every step the JSON the
//! writer streams must also equal its `Value` tree's, byte for byte.

use proptest::prelude::*;
use rrp_core::model::PageId;
use rrp_core::{CorpusCache, Document, PublishedVersion, RankPromotionEngine, ShardedCorpusCache};
use serde::{Serialize, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One step of a writer's schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append a document (unexplored when `popularity` rounds to zero).
    Push { popularity: f64, age: u64 },
    /// A first visit: the document leaves the pool.
    Visit { salt: usize },
    /// A popularity move.
    SetPopularity { salt: usize, popularity: f64 },
    /// The document becomes unexplored again: it rejoins the pool.
    Forget { salt: usize },
    /// Cut a version and recycle the retired one — after a reader parks
    /// on it, when `straggle` is set.
    Publish { straggle: bool },
    /// Every parked reader lets go.
    Release,
    /// Check the writer tier's serialized form.
    Inspect,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..14, 0usize..10_000, 0.0f64..1.5, 0u64..300), 1..60).prop_map(
        |raw| {
            raw.into_iter()
                .flat_map(|(kind, salt, popularity, age)| match kind {
                    0..=2 => vec![Op::Push { popularity, age }],
                    3 | 4 => vec![Op::Visit { salt }],
                    5 | 6 => vec![Op::SetPopularity { salt, popularity }],
                    7 => vec![Op::Forget { salt }],
                    8 | 9 => vec![Op::Publish { straggle: false }],
                    10 => vec![Op::Publish {
                        straggle: salt % 2 == 0,
                    }],
                    11 => vec![Op::Release],
                    12 => vec![Op::Inspect],
                    // Right after a publication and its recycle, the
                    // writer's own order is scratch.
                    _ => vec![Op::Publish { straggle: false }, Op::Inspect],
                })
                .collect()
        },
    )
}

/// What a version must serve: a cache rebuilt from `docs`.
fn fresh(docs: &[Document], maintained: bool) -> CorpusCache {
    let mut cache = CorpusCache::new();
    cache.set_pool_maintained(maintained);
    cache.rebuild(
        docs.iter()
            .enumerate()
            .map(|(slot, d)| RankPromotionEngine::document_stat(slot, d)),
    );
    cache
}

/// Compare every accessor a reader uses against the from-scratch cache.
fn check(
    version: &PublishedVersion,
    docs: &[Document],
    maintained: bool,
) -> Result<(), TestCaseError> {
    let expected = fresh(docs, maintained);
    prop_assert_eq!(version.len(), docs.len());
    prop_assert_eq!(version.cache().order(), expected.order());
    prop_assert_eq!(version.pool_slots(), expected.pool().members());
    prop_assert_eq!(version.cache().stats(), expected.stats());
    for (slot, doc) in docs.iter().enumerate() {
        prop_assert_eq!(version.in_pool(slot), maintained && doc.is_unexplored);
        prop_assert_eq!(version.page_of(slot), PageId::new(doc.id));
    }
    Ok(())
}

/// The writer's serialized form — what every snapshot writes for the
/// serving tier — against the from-scratch derivation: the current stats
/// and dirty slots, with the order and pool of the live version's
/// documents (the valid ones while the writer's own are scratch).
fn inspect(
    cache: &ShardedCorpusCache,
    docs: &[Document],
    live_docs: &[Document],
    mutated: &BTreeSet<usize>,
    maintained: bool,
) -> Result<(), TestCaseError> {
    let value = cache.to_value();
    let field = |value: &Value, name: &str| value.get(name).cloned().expect("a serialized field");
    let written = field(&value, "cache");
    let current = fresh(docs, maintained);
    let live = fresh(live_docs, maintained);
    prop_assert_eq!(field(&written, "stats"), current.stats().to_value());
    prop_assert_eq!(
        field(&field(&written, "popularity"), "order"),
        live.order().to_value()
    );
    prop_assert_eq!(field(&written, "pool"), live.pool().to_value());
    prop_assert_eq!(field(&written, "maintain_pool"), maintained.to_value());
    let Value::Seq(dirty) = field(&written, "dirty") else {
        panic!("the dirty list serializes as a sequence");
    };
    let mut dirty: Vec<usize> = dirty
        .iter()
        .map(|slot| slot.as_u64().expect("a slot") as usize)
        .collect();
    dirty.sort_unstable();
    prop_assert_eq!(dirty, mutated.iter().copied().collect::<Vec<_>>());
    Ok(())
}

/// The writer's JSON as snapshots stream it, with no tree, is byte for
/// byte the JSON of its `Value` tree — also between a recycle and the next
/// publication, when its own order is scratch.
fn streamed_bytes_agree(cache: &ShardedCorpusCache) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        serde_json::to_string(cache),
        serde_json::to_string(&cache.to_value())
    );
    Ok(())
}

proptest! {
    #[test]
    fn every_publication_equals_a_from_scratch_cache(
        ops in arb_ops(),
        initial in 0usize..20,
        maintained in prop::bool::ANY,
    ) {
        let mut cache = ShardedCorpusCache::new(1);
        cache.set_pool_maintained(maintained);
        let mut docs: Vec<Document> = Vec::new();
        let mut next_id = 0u64;
        let mut push = |cache: &mut ShardedCorpusCache, docs: &mut Vec<Document>, popularity: f64, age: u64| {
            let doc = if popularity < 0.1 {
                Document::unexplored(next_id)
            } else {
                Document::established(next_id, popularity).with_age(age)
            };
            next_id += 1;
            docs.push(doc);
            cache.push(0, &doc);
        };
        for i in 0..initial {
            push(&mut cache, &mut docs, (i % 5) as f64 * 0.3, i as u64);
        }
        let mut epoch = 0u64;
        let mut live = Arc::new(PublishedVersion::empty(1, maintained));
        // Parked readers, each with the documents its version must serve.
        let mut stragglers: Vec<(Arc<PublishedVersion>, Vec<Document>)> = Vec::new();
        // What the live version serves, and what changed since.
        let mut live_docs = Vec::new();
        let mut mutated: BTreeSet<usize> = (0..docs.len()).collect();

        for &op in &ops {
            let slot = |salt: usize| (!docs.is_empty()).then(|| salt % docs.len());
            match op {
                Op::Push { popularity, age } => {
                    mutated.insert(docs.len());
                    push(&mut cache, &mut docs, popularity, age);
                }
                Op::Visit { salt } => if let Some(s) = slot(salt) {
                    docs[s].is_unexplored = false;
                    cache.patch(s, &docs[s]);
                    mutated.insert(s);
                },
                Op::SetPopularity { salt, popularity } => if let Some(s) = slot(salt) {
                    docs[s].popularity = popularity;
                    cache.patch(s, &docs[s]);
                    mutated.insert(s);
                },
                Op::Forget { salt } => if let Some(s) = slot(salt) {
                    docs[s].is_unexplored = true;
                    cache.patch(s, &docs[s]);
                    mutated.insert(s);
                },
                Op::Publish { straggle } => {
                    epoch += 1;
                    let (version, charged) = cache.publish(epoch);
                    prop_assert_eq!(charged, mutated.len() as u64);
                    prop_assert_eq!(version.epoch(), epoch);
                    check(&version, &docs, maintained)?;
                    let pool_changed = version.pool_slots() != live.pool_slots();
                    prop_assert_eq!(version.pool_repaired(), pool_changed);
                    let retired = std::mem::replace(&mut live, version);
                    if straggle {
                        stragglers.push((retired.clone(), live_docs.clone()));
                    }
                    cache.recycle(retired, |s| docs[s]);
                    live_docs.clone_from(&docs);
                    mutated.clear();
                }
                Op::Release => {
                    for (version, docs) in stragglers.drain(..) {
                        check(&version, &docs, maintained)?;
                    }
                }
                Op::Inspect => inspect(&cache, &docs, &live_docs, &mutated, maintained)?,
            }
            streamed_bytes_agree(&cache)?;
        }
        for (version, docs) in &stragglers {
            check(version, docs, maintained)?;
        }
        epoch += 1;
        let (version, _) = cache.publish(epoch);
        check(&version, &docs, maintained)?;
    }
}
