//! The incremental per-corpus ranking caches, bundled.
//!
//! Every steady-state consumer of the maintained-order ranking path keeps the
//! same three derived structures alive across queries: the per-slot
//! [`PageStats`] snapshot, the [`PopularityIndex`] over it, and — since
//! this module — the [`PoolIndex`] recording selective-promotion
//! membership. [`CorpusCache`] owns all three plus the shared dirty list
//! that keeps them honest: a mutation patches one stats slot and marks it
//! dirty; [`repair`](CorpusCache::repair) then brings *both* indexes
//! current from the same dirty slots (membership flips exactly where
//! popularity keys move, because both are functions of the mutated slot's
//! stats). Nothing is ever re-derived wholesale on a query path — the
//! "repair, don't rebuild" discipline of incremental view maintenance.

use crate::document::Document;
use crate::engine::RankPromotionEngine;
use rrp_ranking::{PageStats, PoolIndex, PoolView, PopularityIndex};
use serde::{Deserialize, Serialize};

/// The persistent ranking caches over one corpus of [`Document`]s:
/// statistics snapshot, popularity order, and promotion-pool membership,
/// repaired together from a shared dirty list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusCache {
    /// `PageStats` for each slot (slot = insertion index), patched in
    /// place on mutation.
    stats: Vec<PageStats>,
    /// Popularity order over the slots, repaired via dirty-slot
    /// binary-search reinsertion.
    popularity: PopularityIndex,
    /// Selective-promotion pool membership (unexplored slots, ascending),
    /// repaired from the same dirty slots.
    pool: PoolIndex,
    /// Whether the pool index is kept current (see
    /// [`set_pool_maintained`](Self::set_pool_maintained)).
    maintain_pool: bool,
    /// Slots whose stats changed (or appeared) since the last repair —
    /// deduplicated on entry via `dirty_mask`, so the list is bounded by
    /// the corpus size no matter how long repairs are deferred (a serving
    /// tier repairs a tier only when a query consults it; the other
    /// tier's mutations must not accumulate without bound).
    dirty: Vec<usize>,
    /// Per-slot "already in `dirty`" mask (cleared during repair).
    dirty_mask: Vec<bool>,
}

impl Default for CorpusCache {
    fn default() -> Self {
        CorpusCache {
            stats: Vec::new(),
            popularity: PopularityIndex::default(),
            pool: PoolIndex::default(),
            maintain_pool: true,
            dirty: Vec::new(),
            dirty_mask: Vec::new(),
        }
    }
}

impl CorpusCache {
    /// An empty cache; slots join through [`push`](Self::push) (or a bulk
    /// [`rebuild`](Self::rebuild)).
    pub fn new() -> Self {
        CorpusCache::default()
    }

    /// Enable or disable pool-index maintenance (on by default). An owner
    /// whose engine never reads the pool —
    /// [`PolicyKind::reads_pool_index`](rrp_ranking::PolicyKind::reads_pool_index)
    /// is the predicate; the Uniform rule re-draws its per-page coins —
    /// can switch it off so rebuilds and repairs stop paying for dead
    /// state. The [`view`](Self::view) still carries the (then empty)
    /// index, which such engines ignore.
    pub fn set_pool_maintained(&mut self, maintained: bool) {
        self.maintain_pool = maintained;
    }

    /// Whether the pool index is being kept current.
    #[inline]
    pub fn pool_maintained(&self) -> bool {
        self.maintain_pool
    }

    /// Number of cached slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the cache holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// The per-slot statistics snapshot.
    #[inline]
    pub fn stats(&self) -> &[PageStats] {
        &self.stats
    }

    /// The popularity order (best rank first). Only current after
    /// [`repair`](Self::repair); query paths call that first.
    #[inline]
    pub fn order(&self) -> &[usize] {
        self.popularity.order()
    }

    /// The promotion-pool membership index. Only current after
    /// [`repair`](Self::repair).
    #[inline]
    pub fn pool(&self) -> &PoolIndex {
        &self.pool
    }

    /// The query-time [`PoolView`] over the cache's three maintained
    /// structures — what the pooled rerank paths rank against. Only
    /// current after [`repair`](Self::repair).
    #[inline]
    pub fn view(&self) -> PoolView<'_> {
        PoolView::new(&self.stats, self.popularity.order(), &self.pool)
    }

    /// Number of dirty slots awaiting the next repair (deduplicated on
    /// entry, so bounded by the corpus size however long repair is
    /// deferred).
    #[inline]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Append one document as the next slot (`O(1)`); it joins both
    /// indexes at the next [`repair`](Self::repair) via the dirty list.
    pub fn push(&mut self, document: &Document) {
        let slot = self.stats.len();
        self.stats
            .push(RankPromotionEngine::document_stat(slot, document));
        self.dirty.push(slot);
        self.dirty_mask.push(true);
    }

    /// Patch the cached stats of one existing slot after a mutation and
    /// mark it dirty (`O(1)`; a slot already pending repair is not
    /// re-listed, so deferring repairs never grows the dirty list past
    /// the corpus size).
    pub fn patch(&mut self, slot: usize, document: &Document) {
        self.stats[slot] = RankPromotionEngine::document_stat(slot, document);
        if !self.dirty_mask[slot] {
            self.dirty_mask[slot] = true;
            self.dirty.push(slot);
        }
    }

    /// Discard the incremental state and re-derive everything from
    /// `documents`: recompute every stats entry, re-sort the popularity
    /// order, re-scan pool membership. The recovery/maintenance escape
    /// hatch — no query or mutation path needs it.
    pub fn rebuild(&mut self, documents: &[Document]) {
        RankPromotionEngine::document_stats(documents, &mut self.stats);
        self.popularity.rebuild(&self.stats);
        if self.maintain_pool {
            self.pool.rebuild(&self.stats);
        }
        self.dirty.clear();
        self.dirty_mask.clear();
        self.dirty_mask.resize(self.stats.len(), false);
    }

    /// Bring both indexes current by repairing the dirty slots (no-op when
    /// nothing changed), returning the number of dirty entries handed to
    /// the repair (distinct slots — the list deduplicates on entry). Every
    /// query path calls this first.
    ///
    /// The pool index is repaired from the dirty list *before* the
    /// popularity repair drains it; both end up exactly where a
    /// from-scratch derivation would put them (each repair carries its own
    /// debug assertion against the fresh derivation, so a producer that
    /// mutates stats without marking the slot dirty trips here).
    pub fn repair(&mut self) -> u64 {
        let handed = self.dirty.len() as u64;
        if handed > 0 {
            if self.maintain_pool {
                self.pool.repair(&self.stats, &self.dirty);
            }
            // Restore the mask before the popularity repair drains the
            // list (`O(d)` — exactly the entries set since last time).
            for &slot in &self.dirty {
                self.dirty_mask[slot] = false;
            }
            self.popularity.repair(&self.stats, &mut self.dirty);
        }
        handed
    }

    /// Test-only back door: mutable stats access that bypasses the dirty
    /// list. Exists solely so drift-tripwire tests can prove that a
    /// producer mutating stats *without* marking the slot dirty is caught
    /// by the repair assertions instead of silently served (those tests
    /// only exist where the assertions fire, hence the
    /// `debug_assertions` gate — release-profile test builds would
    /// otherwise flag this as dead code).
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn stats_mut_unmarked(&mut self) -> &mut [PageStats] {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_ranking::popularity_order;

    fn documents() -> Vec<Document> {
        (0..40u64)
            .map(|i| {
                if i % 4 == 0 {
                    Document::unexplored(i)
                } else {
                    Document::established(i, 1.0 - i as f64 * 0.02).with_age(i % 7)
                }
            })
            .collect()
    }

    fn assert_matches_rebuild(cache: &CorpusCache, documents: &[Document]) {
        let mut fresh = CorpusCache::new();
        fresh.rebuild(documents);
        assert_eq!(cache.stats(), fresh.stats());
        assert_eq!(cache.order(), fresh.order());
        assert_eq!(cache.pool().members(), fresh.pool().members());
    }

    #[test]
    fn pushed_corpus_matches_a_bulk_rebuild_after_repair() {
        let docs = documents();
        let mut cache = CorpusCache::new();
        for d in &docs {
            cache.push(d);
        }
        assert_eq!(cache.dirty_len(), docs.len());
        assert_eq!(cache.repair(), docs.len() as u64);
        assert_eq!(cache.dirty_len(), 0);
        assert_matches_rebuild(&cache, &docs);
        assert_eq!(cache.len(), docs.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn patches_flow_into_both_indexes() {
        let mut docs = documents();
        let mut cache = CorpusCache::new();
        for d in &docs {
            cache.push(d);
        }
        cache.repair();

        // A visit removes slot 0 from the pool; a popularity update moves
        // slot 7 in the order; an insert appends slot 40.
        docs[0].is_unexplored = false;
        cache.patch(0, &docs[0]);
        docs[7].popularity = 2.0;
        cache.patch(7, &docs[7]);
        docs.push(Document::unexplored(99));
        cache.push(docs.last().unwrap());

        assert_eq!(cache.repair(), 3);
        assert_matches_rebuild(&cache, &docs);
        assert!(!cache.pool().contains(0));
        assert!(cache.pool().contains(40));
        assert!(
            cache.order().windows(2).all(|w| popularity_order(
                &cache.stats()[w[0]],
                &cache.stats()[w[1]]
            )
            .is_lt()),
            "order stays sorted"
        );
    }

    #[test]
    fn disabled_pool_maintenance_skips_the_pool_but_not_the_order() {
        let docs = documents();
        let mut cache = CorpusCache::new();
        cache.set_pool_maintained(false);
        assert!(!cache.pool_maintained());
        for d in &docs {
            cache.push(d);
        }
        cache.repair();
        assert!(cache.pool().is_empty(), "pool is dead state, never filled");
        let mut fresh = CorpusCache::new();
        fresh.rebuild(&docs);
        assert_eq!(cache.order(), fresh.order(), "the order is still exact");
        cache.rebuild(&docs);
        assert!(cache.pool().is_empty());
    }

    #[test]
    fn deferred_repairs_keep_the_dirty_list_bounded() {
        // A serving tier repairs a cache only when a query consults it;
        // a tier serving pure top-k (or pure full-rerank) traffic defers
        // the other tier's repair indefinitely while mutations keep
        // arriving. The dirty list must therefore deduplicate on entry:
        // re-patching the same slots ten thousand times may not grow it.
        let docs = documents();
        let mut cache = CorpusCache::new();
        for d in &docs {
            cache.push(d);
        }
        cache.repair();
        for _ in 0..10_000 {
            cache.patch(0, &docs[0]);
            cache.patch(7, &docs[7]);
        }
        assert_eq!(cache.dirty_len(), 2, "the backlog is bounded by n");
        assert_eq!(cache.repair(), 2);
        assert_matches_rebuild(&cache, &docs);
        // The mask restores with the repair: slots can go dirty again.
        cache.patch(0, &docs[0]);
        assert_eq!(cache.dirty_len(), 1);
    }

    #[test]
    fn repair_on_a_clean_cache_is_a_no_op() {
        let docs = documents();
        let mut cache = CorpusCache::new();
        for d in &docs {
            cache.push(d);
        }
        cache.repair();
        assert_eq!(cache.repair(), 0);
        assert_matches_rebuild(&cache, &docs);
    }
}
