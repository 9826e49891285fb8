//! A persistent promotion-pool membership index over the page slots.
//!
//! The selective promotion rule's pool `L_p` is the set of unexplored
//! slots (`awareness == 0`, see
//! [`PageStats::is_unexplored`](crate::PageStats::is_unexplored)), listed
//! in ascending slot order before the per-query shuffle. The presorted
//! ranking path used to *re-derive* that set on every query with an `O(n)`
//! scan over all pages plus an `O(n)` membership-mask reset — even though
//! membership flips only where a mutation touched awareness (a first
//! recorded visit, a retirement, an insert). [`PoolIndex`] applies the same
//! "repair, don't rebuild" discipline as
//! [`PopularityIndex`](crate::PopularityIndex): the membership list and its
//! per-slot mask persist across queries and are patched from the mutation
//! path's dirty list, so the pooled query path
//! ([`RandomizedRankPromotion::rank`](crate::RandomizedRankPromotion::rank))
//! touches no per-corpus state at all.
//!
//! Why repair is sound: pool membership is a pure per-slot predicate of the
//! current stats (`is_unexplored`), so a clean slot's membership cannot
//! change without the slot being mutated — and every awareness mutation
//! marks its slot dirty (that is the mutation path's contract, the same one
//! the popularity order relies on). Membership order is ascending slot
//! index, which never changes, so leaving out the dirty slots that left and
//! writing in the ones that joined — one copying pass through the same
//! edit as the popularity order — reproduces the from-scratch scan
//! exactly. The simulator repairs in place (the source is the previous
//! member list, moved into a spare buffer); the serving tier's writer
//! generation, whose mask equals the live version's, writes its member
//! list from the live one (`repair_from`). The subtle part is that this
//! *must* be exact: the pool is shuffled into the merged prefix, so even a
//! reordering of members (let alone a stale member) changes which page
//! lands at which rank — the RNG stream itself is observable through the
//! pool.

use crate::splice;
use crate::stats::PageStats;
use serde::Serialize;

/// Unexplored slots in ascending slot order, repaired incrementally.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PoolIndex {
    /// Pool members (unexplored slots), ascending. Invariant outside
    /// `repair`: equals the slots where `is_unexplored` holds for the most
    /// recent `stats` passed in.
    members: Vec<usize>,
    /// Per-slot membership mask (`mask[s]` ⇔ `s ∈ members`), maintained —
    /// never reset — so the deterministic-remainder filter reads it
    /// without an `O(n)` clear per query.
    mask: Vec<bool>,
    /// Scratch: the previous member list, the source of an in-place
    /// [`repair`](Self::repair). Empty on an index repaired from a live
    /// source.
    #[serde(skip)]
    spare: Vec<usize>,
    /// Scratch: dirty slots that left the pool during a repair, ascending.
    #[serde(skip)]
    leaving: Vec<usize>,
    /// Scratch: dirty slots that joined the pool during a repair, ascending.
    #[serde(skip)]
    joining: Vec<usize>,
    /// Scratch: the lockstep search results.
    #[serde(skip)]
    at: Vec<usize>,
}

impl PoolIndex {
    /// Build the index with a from-scratch scan of `stats`.
    ///
    /// Requires dense slot indexing (`stats[i].slot == i`), like every
    /// consumer of the maintained-order ranking path.
    pub fn build(stats: &[PageStats]) -> Self {
        let mut index = PoolIndex::default();
        index.rebuild(stats);
        index
    }

    /// Re-derive membership from scratch, discarding the incremental state.
    pub fn rebuild(&mut self, stats: &[PageStats]) {
        debug_assert!(stats.iter().enumerate().all(|(i, p)| p.slot == i));
        self.members.clear();
        self.mask.clear();
        self.mask.resize(stats.len(), false);
        for p in stats.iter() {
            if p.is_unexplored() {
                self.mask[p.slot] = true;
                self.members.push(p.slot);
            }
        }
    }

    /// The pool members in ascending slot order — exactly the order the
    /// per-query scan would have produced before the shuffle.
    #[inline]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Whether `slot` is currently in the pool. `O(1)` off the maintained
    /// mask.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.mask[slot]
    }

    /// Number of pool members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of indexed slots (the population size at the last repair).
    #[inline]
    pub fn indexed_slots(&self) -> usize {
        self.mask.len()
    }

    /// Restore membership after the slots in `dirty` changed their stats,
    /// testing against the *current* `stats`, in place. Slots may appear
    /// multiple times and in any order; unlike
    /// [`PopularityIndex::repair`](crate::PopularityIndex::repair) the list
    /// is borrowed, not drained, so the same dirty list can feed both
    /// indexes. The population may have grown since the last repair
    /// (`stats.len() > indexed_slots()`), in which case every new slot must
    /// appear in `dirty`. Allocation-free once the buffers have grown.
    ///
    /// Cost: `O(d)` to re-test each dirty slot against the mask — and
    /// nothing more when no membership flipped, the steady state of a
    /// popularity-only mutation stream. Otherwise the previous member list
    /// moves into a spare buffer and is edited back in one copying pass:
    /// one lockstep binary search per flip plus one copy of the pool,
    /// versus the `O(n)` scan of a rebuild.
    ///
    /// Debug builds verify the repaired membership against a fresh
    /// [`is_unexplored`](crate::PageStats::is_unexplored) scan afterwards
    /// (on every path, the no-flip one included), so any producer that
    /// mutates awareness without marking the slot dirty trips an assertion
    /// at the next repair instead of silently drifting the pool.
    pub fn repair(&mut self, stats: &[PageStats], dirty: &[usize]) {
        if self.flip(stats, dirty) {
            std::mem::swap(&mut self.members, &mut self.spare);
            Self::edit(
                &self.spare,
                &self.leaving,
                &self.joining,
                &mut self.at,
                &mut self.members,
            );
        }
        debug_assert!(self.is_consistent(stats));
    }

    /// Write the membership for the current `stats` from a `live` index,
    /// replacing this index's member list (which may be stale scratch).
    /// This index's mask must equal the live one, whose stats differ from
    /// the current `stats` only at the `dirty` slots (which must include
    /// every slot past `live.indexed_slots()`): a flip against the mask is
    /// then a flip against the live version. Returns whether any
    /// membership flipped.
    ///
    /// Cost: `O(d)` to re-test the dirty slots, one lockstep binary search
    /// per flip, and one copy of the live member list — which also leaves
    /// the list the next reads shuffle freshly cached. An index repaired
    /// this way keeps no spare buffer.
    pub(crate) fn repair_from(
        &mut self,
        live: &PoolIndex,
        stats: &[PageStats],
        dirty: &[usize],
    ) -> bool {
        debug_assert!(self.mask == live.mask, "the writer's mask is the live mask");
        let flipped = self.flip(stats, dirty);
        Self::edit(
            &live.members,
            &self.leaving,
            &self.joining,
            &mut self.at,
            &mut self.members,
        );
        self.spare = Vec::new();
        debug_assert!(self.is_consistent(stats));
        flipped
    }

    /// Bring a retired generation's mask up to `live`'s: `diff` lists
    /// every slot whose stats changed between the two (every slot past
    /// this mask's length among them). The member list is left as it was —
    /// it is scratch until the next [`repair_from`](Self::repair_from).
    /// `O(diff)`.
    pub(crate) fn catch_up_mask(&mut self, live: &PoolIndex, diff: &[usize]) {
        self.mask.resize(live.mask.len(), false);
        for &slot in diff {
            self.mask[slot] = live.mask[slot];
        }
    }

    /// Re-test every dirty slot against the mask, flipping it where
    /// membership changed, and list the flips (ascending) in `leaving` and
    /// `joining`. Returns whether any slot flipped.
    fn flip(&mut self, stats: &[PageStats], dirty: &[usize]) -> bool {
        debug_assert!(
            stats.len() >= self.mask.len(),
            "the population never shrinks"
        );
        // Inserted slots start outside the pool and join below if they
        // test unexplored.
        self.mask.resize(stats.len(), false);
        // The mask absorbs duplicates (a slot listed twice flips on its
        // first listing only).
        self.leaving.clear();
        self.joining.clear();
        for &slot in dirty {
            let member = stats[slot].is_unexplored();
            if member != self.mask[slot] {
                self.mask[slot] = member;
                if member {
                    self.joining.push(slot);
                } else {
                    self.leaving.push(slot);
                }
            }
        }
        self.leaving.sort_unstable();
        self.joining.sort_unstable();
        !(self.leaving.is_empty() && self.joining.is_empty())
    }

    /// The member-list edit: `src` (ascending) without `leaving`, with
    /// `joining`, into `dst`.
    fn edit(
        src: &[usize],
        leaving: &[usize],
        joining: &[usize],
        at: &mut Vec<usize>,
        dst: &mut Vec<usize>,
    ) {
        splice::edit(
            src,
            leaving,
            joining,
            |e, i| e < leaving[i],
            |e, i| e < joining[i],
            at,
            dst,
        );
    }

    /// Whether the maintained membership equals a fresh
    /// [`is_unexplored`](crate::PageStats::is_unexplored) scan of `stats`
    /// (used by tests and the post-repair debug assertion that guards
    /// against awareness-drift bugs in producers).
    pub fn is_consistent(&self, stats: &[PageStats]) -> bool {
        self.mask.len() == stats.len()
            && self.members.windows(2).all(|w| w[0] < w[1])
            && self.members.iter().all(|&s| s < stats.len())
            && stats
                .iter()
                .enumerate()
                .all(|(slot, p)| self.mask[slot] == p.is_unexplored())
            && self.members.len() == stats.iter().filter(|p| p.is_unexplored()).count()
            && self.members.iter().all(|&s| self.mask[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PageId;

    /// Pages where `explored[i]` decides awareness (explored ⇒ 0.5).
    fn stats(explored: &[bool]) -> Vec<PageStats> {
        explored
            .iter()
            .enumerate()
            .map(|(slot, &e)| {
                let awareness = if e { 0.5 } else { 0.0 };
                PageStats::new(slot, PageId::new(slot as u64), awareness * 0.8, awareness)
            })
            .collect()
    }

    fn fresh_members(stats: &[PageStats]) -> Vec<usize> {
        stats
            .iter()
            .filter(|p| p.is_unexplored())
            .map(|p| p.slot)
            .collect()
    }

    #[test]
    fn build_matches_fresh_scan() {
        let ps = stats(&[true, false, true, false, false]);
        let index = PoolIndex::build(&ps);
        assert_eq!(index.members(), &[1, 3, 4]);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
        assert_eq!(index.indexed_slots(), 5);
        assert!(index.contains(1));
        assert!(!index.contains(0));
    }

    #[test]
    fn repair_removes_a_visited_slot() {
        let mut ps = stats(&[true, false, false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[2].awareness = 0.25; // first visit: leaves the pool
        index.repair(&ps, &[2]);
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_readmits_a_retired_slot() {
        let mut ps = stats(&[true, true, true]);
        let mut index = PoolIndex::build(&ps);
        assert!(index.is_empty());
        ps[1].awareness = 0.0; // retirement: fresh zero-awareness page
        ps[1].popularity = 0.0;
        index.repair(&ps, &[1]);
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_handles_duplicates_and_unchanged_slots() {
        let mut ps = stats(&[false, true, false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[0].awareness = 0.5; // first visit: leaves the pool
        ps[3].awareness = 0.0; // retirement: joins the pool
        index.repair(&ps, &[0, 0, 3, 0, 3, 1]); // slot 1 is dirty but unchanged
        assert_eq!(index.members(), &[2, 3]);
        // A dirty list with no flip leaves the members untouched.
        index.repair(&ps, &[2, 1, 2]);
        assert_eq!(index.members(), &[2, 3]);
        assert_eq!(index.members(), fresh_members(&ps).as_slice());
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_with_no_dirty_slots_is_a_no_op() {
        let ps = stats(&[false, true, false]);
        let mut index = PoolIndex::build(&ps);
        index.repair(&ps, &[]);
        assert_eq!(index.members(), &[0, 2]);
    }

    #[test]
    fn repair_places_newly_inserted_slots() {
        let mut ps = stats(&[false, true]);
        let mut index = PoolIndex::build(&ps);
        ps.extend(stats(&[true, false]).into_iter().map(|mut p| {
            p.slot += 2;
            p.page = PageId::new(p.slot as u64);
            p
        }));
        index.repair(&ps, &[2, 3]);
        assert_eq!(index.members(), &[0, 3]);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.indexed_slots(), 4);
    }

    #[test]
    fn repair_grows_an_empty_index_from_all_dirty_slots() {
        let ps = stats(&[false, true, false, false]);
        let mut index = PoolIndex::default();
        index.repair(&ps, &[0, 1, 2, 3]);
        assert_eq!(index.members(), &[0, 2, 3]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn repair_interleaves_incoming_and_standing_members() {
        // Standing members 1, 5, 9; slots 0, 4, 6 flip into the pool — the
        // merge must interleave them in ascending slot order, because the
        // pre-shuffle pool order is observable in the RNG stream.
        let mut ps = stats(&[
            true, false, true, true, true, false, true, true, true, false,
        ]);
        let mut index = PoolIndex::build(&ps);
        assert_eq!(index.members(), &[1, 5, 9]);
        for slot in [0usize, 4, 6] {
            ps[slot].awareness = 0.0;
            ps[slot].popularity = 0.0;
        }
        index.repair(&ps, &[6, 0, 4]);
        assert_eq!(index.members(), &[0, 1, 4, 5, 6, 9]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn rebuild_resets_after_bulk_changes() {
        let mut ps = stats(&[false, true, false]);
        let mut index = PoolIndex::build(&ps);
        for p in ps.iter_mut() {
            p.awareness = if p.awareness == 0.0 { 0.5 } else { 0.0 };
        }
        index.rebuild(&ps);
        assert_eq!(index.members(), &[1]);
        assert!(index.is_consistent(&ps));
    }

    /// The drift-hazard tripwire: mutating awareness *without* marking the
    /// slot dirty leaves the index inconsistent, and the next repair's
    /// debug assertion catches it instead of serving a stale pool.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_awareness_drift_trips_the_repair_assertion() {
        let mut ps = stats(&[false, true]);
        let mut index = PoolIndex::build(&ps);
        ps[0].awareness = 0.5; // mutated, but never marked dirty
        index.repair(&ps, &[]);
    }
}
