//! The incremental per-corpus ranking state, bundled.
//!
//! Every steady-state consumer of the maintained-order ranking path — the
//! simulator's day loop and the serving tier — keeps the same three
//! derived structures alive across rankings: the per-slot [`PageStats`]
//! snapshot, the [`PopularityIndex`] over it, and the [`PoolIndex`]
//! recording selective-promotion membership. [`CorpusCache`] owns all
//! three plus the shared dirty list that keeps them honest: a mutation
//! patches one stats slot, marks it dirty and, the first time, keeps the
//! stats it replaced (its *displaced key*). A repair then brings *both*
//! indexes current from the same dirty slots (membership flips exactly
//! where popularity keys move, because both are functions of the mutated
//! slot's stats), each in one copying edit of its sorted list. Nothing is
//! ever re-derived wholesale on a ranking path — the "repair, don't
//! rebuild" discipline of incremental view maintenance.
//!
//! There are two repairs, one per kind of owner:
//!
//! * [`repair`](CorpusCache::repair) — a single generation (the
//!   simulator) edits in place: the source is its own previous order and
//!   member list, and the old keys are the displaced keys;
//! * [`repair_from`](CorpusCache::repair_from) — a writer generation (the
//!   serving tier) edits from the live published cache, whose stats and
//!   pool mask equal its own everywhere but at its dirty slots: the source
//!   is the live order and member list, and the old keys are the live
//!   stats. [`catch_up`](CorpusCache::catch_up) establishes that state on
//!   a retired generation by copying the live stats and mask bits at the
//!   slots that changed since it was published.
//!
//! Either way a repair of `d` dirty slots costs `2·d` lockstep binary
//! searches plus one `n`-entry copy of the order. In place, the pool costs
//! nothing more when no membership flipped; from the live version, its
//! member list is one more copy.

use crate::poolindex::PoolIndex;
use crate::popindex::PopularityIndex;
use crate::randomized::RankSource;
use crate::stats::PageStats;
use serde::{SerError, Serialize, Value};

/// The persistent ranking state over one corpus under dense slots
/// (`stats[i].slot == i`): statistics snapshot, popularity order, and
/// promotion-pool membership, repaired together from a shared dirty list.
#[derive(Debug, Clone)]
pub struct CorpusCache {
    /// `PageStats` for each slot (slot = insertion index), patched in
    /// place on mutation.
    stats: Vec<PageStats>,
    /// Popularity order over the slots, repaired by one copying edit of
    /// the dirty slots.
    popularity: PopularityIndex,
    /// Selective-promotion pool membership (unexplored slots, ascending),
    /// repaired from the same dirty slots.
    pool: PoolIndex,
    /// Whether the pool index is kept current (fixed while the cache is
    /// empty, see [`set_pool_maintained`](Self::set_pool_maintained)).
    maintain_pool: bool,
    /// Slots whose stats changed (or appeared) since the last repair —
    /// deduplicated on entry via `dirty_mask`: the mutations between two
    /// repairs (a day of visits, or the writes between two publications)
    /// may hit one slot many times, and the list stays bounded by the
    /// corpus size however many arrive.
    dirty: Vec<usize>,
    /// Per-slot "already in `dirty`" mask (cleared during repair).
    dirty_mask: Vec<bool>,
    /// The stats each patched slot had at the last repair, recorded by its
    /// first patch since then (pushes record nothing, so this stays `O(d)`).
    /// The in-place popularity repair finds each slot's old position by
    /// them ([`repair_from`](Self::repair_from) reads the live stats
    /// instead).
    displaced: Vec<PageStats>,
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
            displaced: Vec::new(),
        }
    }
}

impl CorpusCache {
    /// An empty cache; slots join through [`push`](Self::push) (or a bulk
    /// [`rebuild`](Self::rebuild)).
    pub fn new() -> Self {
        CorpusCache::default()
    }

    /// Enable or disable pool-index maintenance (on by default) on an
    /// empty cache: it is a property of the cache, fixed before the first
    /// slot joins. An owner whose policy never reads the pool —
    /// [`PolicyKind::reads_pool_index`](crate::PolicyKind::reads_pool_index)
    /// is the predicate; the Uniform rule re-draws its per-page coins —
    /// switches it off so rebuilds and repairs stop paying for dead state.
    /// The [`source`](Self::source) then carries the (empty) index, which
    /// such policies ignore.
    ///
    /// # Panics
    ///
    /// If the cache holds any slot.
    pub fn set_pool_maintained(&mut self, maintained: bool) {
        assert!(
            self.is_empty(),
            "pool maintenance is fixed before the first slot"
        );
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
    /// [`repair`](Self::repair); ranking paths call that first.
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

    /// The complete [`RankSource`] over the cache — the maintained pool,
    /// the popularity order and the pool's membership mask — that
    /// [`RandomizedRankPromotion::rank`](crate::RandomizedRankPromotion::rank)
    /// ranks from. Only current after [`repair`](Self::repair).
    #[inline]
    pub fn source(&self) -> RankSource<'_, impl Fn(usize) -> bool + Copy + '_> {
        let pool = &self.pool;
        RankSource::new(pool.members(), self.popularity.order(), move |s| {
            pool.contains(s)
        })
    }

    /// Number of dirty slots awaiting the next repair (deduplicated on
    /// entry, so bounded by the corpus size however long repair is
    /// deferred).
    #[inline]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Append `stat` as the next slot (`O(1)`; `stat.slot` must equal
    /// [`len`](Self::len)); it joins both indexes at the next
    /// [`repair`](Self::repair) via the dirty list.
    #[inline]
    pub fn push(&mut self, stat: PageStats) {
        let slot = self.stats.len();
        assert_eq!(stat.slot, slot, "a pushed entry takes the next slot");
        self.stats.push(stat);
        self.dirty.push(slot);
        self.dirty_mask.push(true);
    }

    /// Replace the cached stats of the existing `slot` after a mutation
    /// (`stat.slot` must equal `slot`) and mark it dirty (`O(1)`; a slot
    /// already pending repair is not re-listed, so deferring repairs never
    /// grows the dirty list past the corpus size). The first patch since
    /// the last repair keeps the replaced stats as the slot's displaced
    /// key; later ones — and patches of a slot pushed since — add nothing.
    #[inline]
    pub fn patch(&mut self, slot: usize, stat: PageStats) {
        assert_eq!(stat.slot, slot, "a patched entry keeps its slot");
        if !self.dirty_mask[slot] {
            self.dirty_mask[slot] = true;
            self.dirty.push(slot);
            self.displaced.push(self.stats[slot]);
        }
        self.stats[slot] = stat;
    }

    /// Discard the incremental state and re-derive everything from
    /// `stats` (entry `i` must carry slot `i`): replace the snapshot,
    /// re-sort the popularity order, re-scan pool membership. The
    /// construction and recovery path — no per-step mutation needs it.
    pub fn rebuild(&mut self, stats: impl IntoIterator<Item = PageStats>) {
        self.stats.clear();
        self.stats.extend(stats);
        assert!(
            self.stats.iter().enumerate().all(|(i, p)| p.slot == i),
            "rebuilt entries carry dense slots"
        );
        self.popularity.rebuild(&self.stats);
        if self.maintain_pool {
            self.pool.rebuild(&self.stats);
        }
        self.dirty.clear();
        self.dirty_mask.clear();
        self.dirty_mask.resize(self.stats.len(), false);
        self.displaced.clear();
    }

    /// The dirty slots awaiting the next repair, in arrival order
    /// (deduplicated on entry, so pushes ascend).
    #[inline]
    pub fn dirty(&self) -> &[usize] {
        &self.dirty
    }

    /// Bring both indexes current by repairing the dirty slots in place
    /// (no-op when nothing changed), returning the number of dirty entries
    /// handed to the repair (distinct slots — the list deduplicates on
    /// entry). Every ranking path of a single-generation owner calls this
    /// first.
    ///
    /// Cost: `2·d` lockstep binary searches plus one copy of the order
    /// (see [`PopularityIndex::repair`]), and `O(d)` for the pool when no
    /// dirty slot flipped membership (see [`PoolIndex::repair`]). Both end
    /// up exactly where a from-scratch derivation would put them (each
    /// repair carries its own debug assertion against the fresh
    /// derivation, so a producer that mutates stats without marking the
    /// slot dirty trips here).
    pub fn repair(&mut self) -> u64 {
        let handed = self.dirty.len() as u64;
        if handed > 0 {
            if self.maintain_pool {
                self.pool.repair(&self.stats, &self.dirty);
            }
            self.clear_dirty_mask();
            debug_assert_eq!(
                self.displaced.len() + self.stats.len() - self.popularity.len(),
                self.dirty.len(),
                "every dirty slot is either pushed or patched with a displaced key"
            );
            self.popularity.repair(&mut self.stats, &mut self.displaced);
            self.dirty.clear();
        }
        handed
    }

    /// Bring both indexes current by editing them from `live`, the cache
    /// this writer generation was published or caught up from, and
    /// return whether any pool membership flipped against it. This
    /// cache's stats and pool mask must equal `live`'s everywhere but at
    /// its dirty slots (the state [`catch_up`](Self::catch_up) or a clone
    /// of `live` leaves); its own order and member list are overwritten —
    /// between a `catch_up` and this call they are scratch. Each dirty slot
    /// is repaired once: the live stats hold its old key, so no displaced
    /// key is read.
    ///
    /// Cost: `2·d` lockstep binary searches, one copy of the live order
    /// (see [`PopularityIndex::repair_from`]) and one of the live member
    /// list, which goes through the same edit.
    pub fn repair_from(&mut self, live: &CorpusCache) -> bool {
        self.popularity
            .repair_from(&live.popularity, &live.stats, &self.stats, &self.dirty);
        let flipped =
            self.maintain_pool && self.pool.repair_from(&live.pool, &self.stats, &self.dirty);
        self.clear_dirty_mask();
        self.dirty.clear();
        self.displaced.clear();
        flipped
    }

    /// Catch a retired generation up to `live` after it was published:
    /// copy `live`'s stats and pool-mask bits at the `diff` slots — every
    /// slot `live` changed since this cache was current, the pushed ones
    /// among them — so that the two differ nowhere. This cache must be
    /// clean (repaired) and maintain the pool exactly when `live` does.
    /// Its order and member list are left as they were: they are scratch
    /// until the next [`repair_from`](Self::repair_from) overwrites them
    /// (read `live`'s instead). `O(diff)`.
    pub fn catch_up(&mut self, live: &CorpusCache, diff: &[usize]) {
        debug_assert!(self.dirty.is_empty(), "a retired generation is clean");
        debug_assert_eq!(self.maintain_pool, live.maintain_pool);
        let indexed = self.stats.len();
        self.stats.extend_from_slice(&live.stats[indexed..]);
        for &slot in diff.iter().filter(|&&slot| slot < indexed) {
            self.stats[slot] = live.stats[slot];
        }
        if self.maintain_pool {
            self.pool.catch_up_mask(&live.pool, diff);
        }
        self.dirty_mask.resize(self.stats.len(), false);
    }

    /// This cache's serialized form, with `index`'s popularity order and
    /// pool in place of its own — how a writer generation whose order and
    /// member list are scratch serializes the valid ones of the cache it
    /// edits from (whose pool mask equals its own).
    pub fn view_with_index_of<'a>(&'a self, index: &'a CorpusCache) -> CorpusCacheView<'a> {
        CorpusCacheView {
            stats: &self.stats,
            popularity: &index.popularity,
            pool: &index.pool,
            maintain_pool: self.maintain_pool,
            dirty: &self.dirty,
            dirty_mask: &self.dirty_mask,
        }
    }

    /// Restore the dirty mask (`O(d)` — exactly the entries set since the
    /// last repair).
    fn clear_dirty_mask(&mut self) {
        for &slot in &self.dirty {
            self.dirty_mask[slot] = false;
        }
    }
}

impl Serialize for CorpusCache {
    fn to_value(&self) -> Value {
        self.view_with_index_of(self).to_value()
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        self.view_with_index_of(self).write_json(out)
    }
}

/// A [`CorpusCache`]'s serialized form, borrowed: the one list of the
/// fields a snapshot stores (the displaced keys are scratch). Built by
/// [`CorpusCache::view_with_index_of`].
#[derive(Debug, Serialize)]
pub struct CorpusCacheView<'a> {
    stats: &'a [PageStats],
    popularity: &'a PopularityIndex,
    pool: &'a PoolIndex,
    maintain_pool: bool,
    dirty: &'a [usize],
    dirty_mask: &'a [bool],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::popularity_order;
    use rrp_model::PageId;

    fn stats() -> Vec<PageStats> {
        (0..40usize)
            .map(|slot| {
                let page = PageId::new(slot as u64);
                if slot % 4 == 0 {
                    PageStats::new(slot, page, 0.0, 0.0)
                } else {
                    PageStats::new(slot, page, 1.0 - slot as f64 * 0.02, 1.0)
                        .with_age((slot % 7) as u64)
                }
            })
            .collect()
    }

    fn filled(stats: &[PageStats]) -> CorpusCache {
        let mut cache = CorpusCache::new();
        for &stat in stats {
            cache.push(stat);
        }
        cache
    }

    fn assert_matches_rebuild(cache: &CorpusCache, stats: &[PageStats]) {
        let mut fresh = CorpusCache::new();
        fresh.rebuild(stats.iter().copied());
        assert_eq!(cache.stats(), fresh.stats());
        assert_eq!(cache.order(), fresh.order());
        assert_eq!(cache.pool().members(), fresh.pool().members());
    }

    #[test]
    fn pushed_corpus_matches_a_bulk_rebuild_after_repair() {
        let ps = stats();
        let mut cache = filled(&ps);
        assert_eq!(cache.dirty_len(), ps.len());
        assert_eq!(cache.repair(), ps.len() as u64);
        assert_eq!(cache.dirty_len(), 0);
        assert_matches_rebuild(&cache, &ps);
        assert_eq!(cache.len(), ps.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn patches_flow_into_both_indexes() {
        let mut ps = stats();
        let mut cache = filled(&ps);
        cache.repair();

        // A visit removes slot 0 from the pool; a popularity update moves
        // slot 7 in the order; an insert appends slot 40.
        ps[0].awareness = 1.0;
        cache.patch(0, ps[0]);
        ps[7].popularity = 2.0;
        cache.patch(7, ps[7]);
        ps.push(PageStats::new(40, PageId::new(99), 0.0, 0.0));
        cache.push(ps[40]);

        assert_eq!(cache.repair(), 3);
        assert_matches_rebuild(&cache, &ps);
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
        let ps = stats();
        let mut cache = CorpusCache::new();
        cache.set_pool_maintained(false);
        assert!(!cache.pool_maintained());
        for &stat in &ps {
            cache.push(stat);
        }
        cache.repair();
        assert!(cache.pool().is_empty(), "pool is dead state, never filled");
        let mut fresh = CorpusCache::new();
        fresh.rebuild(ps.iter().copied());
        assert_eq!(cache.order(), fresh.order(), "the order is still exact");
        cache.rebuild(ps.iter().copied());
        assert!(cache.pool().is_empty());
    }

    #[test]
    fn deferred_repairs_keep_the_dirty_list_bounded() {
        // Between two repairs — a simulated day, or the writes between two
        // serving publications — mutations may hit the same slots any
        // number of times. The dirty list must therefore deduplicate on
        // entry: re-patching the same slots ten thousand times may not
        // grow it.
        let ps = stats();
        let mut cache = filled(&ps);
        cache.repair();
        for _ in 0..10_000 {
            cache.patch(0, ps[0]);
            cache.patch(7, ps[7]);
        }
        assert_eq!(cache.dirty_len(), 2, "the backlog is bounded by n");
        assert_eq!(cache.repair(), 2);
        assert_matches_rebuild(&cache, &ps);
        // The mask restores with the repair: slots can go dirty again.
        cache.patch(0, ps[0]);
        assert_eq!(cache.dirty_len(), 1);
    }

    #[test]
    fn repair_on_a_clean_cache_is_a_no_op() {
        let ps = stats();
        let mut cache = filled(&ps);
        cache.repair();
        assert_eq!(cache.repair(), 0);
        assert_matches_rebuild(&cache, &ps);
    }

    #[test]
    fn source_reads_the_maintained_pool_and_order() {
        let ps = stats();
        let mut cache = filled(&ps);
        cache.repair();
        let source = cache.source();
        assert_eq!(source.pool, cache.pool().members());
        assert_eq!(source.order, cache.order());
        let in_pool = source.in_pool.expect("a complete source");
        assert!((0..ps.len()).all(|s| in_pool(s) == ps[s].is_unexplored()));
    }

    #[test]
    #[should_panic(expected = "takes the next slot")]
    fn a_push_out_of_slot_order_is_rejected() {
        CorpusCache::new().push(stats()[1]);
    }

    #[test]
    #[should_panic(expected = "keeps its slot")]
    fn a_patch_under_a_foreign_slot_is_rejected() {
        let ps = stats();
        let mut cache = filled(&ps);
        cache.patch(0, ps[1]);
    }

    #[test]
    #[should_panic(expected = "fixed before the first slot")]
    fn pool_maintenance_is_fixed_once_a_slot_joins() {
        let mut cache = filled(&stats());
        cache.set_pool_maintained(false);
    }

    /// The pool index's `is_unexplored` tripwire on the serving tier's
    /// repair: mutating a slot's awareness *without* marking it dirty
    /// leaves the pool index stale, and the membership debug assertion
    /// inside the next repair catches it instead of silently serving a
    /// drifted pool.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_shard_local_mutation_trips_the_membership_assertion() {
        let mut ps = stats();
        let mut live = filled(&ps);
        live.repair();
        let mut writer = live.clone();

        // Visit the unexplored slot 0 behind the cache's back — no dirty
        // mark is set — then dirty another slot through a legitimate
        // patch: the next repair's membership assertion fires.
        assert!(ps[0].is_unexplored());
        writer.stats[0].awareness = 1.0;
        ps[3].popularity = 0.9;
        writer.patch(3, ps[3]);
        writer.repair_from(&live);
    }

    #[test]
    #[should_panic(expected = "dense slots")]
    fn a_rebuild_from_sparse_slots_is_rejected() {
        CorpusCache::new().rebuild(stats().into_iter().skip(1));
    }
}
