//! An incrementally maintained popularity order over the page slots.
//!
//! Both steady-state consumers of the maintained-order ranking path — the
//! simulator's day loop and the batch serving tier — used to re-sort all
//! `n` pages by popularity on every step, `O(n log n)` work even though a
//! step changes the popularity key of only the handful of slots that
//! received a visit, changed their score, or were inserted.
//! [`PopularityIndex`] keeps the previous order and *repairs* it: dirty
//! slots are pulled out and reinserted at the position a binary search
//! against [`popularity_order`](crate::popularity_order) dictates.
//!
//! Why repair is sound: the comparator is a **total** order (popularity
//! descending, then age descending, then slot ascending), so there is
//! exactly one sorted permutation — any procedure that restores sortedness
//! reproduces the from-scratch sort bit for bit. And a clean slot's key can
//! only change in ways that preserve its relative order: popularity moves
//! only with a monitored visit, a score update, or a retirement (all mark
//! the slot dirty), and ages grow by exactly one day for *every* surviving
//! page, which leaves all pairwise age comparisons between clean slots
//! untouched. Newborn pages reset their age, so retirement marks them dirty
//! too.
//!
//! The population may also *grow* between repairs (a serving corpus takes
//! inserts): brand-new slots are simply passed in as dirty and take part in
//! the same binary-search reinsertion.

use crate::stats::{popularity_order, PageStats};
use serde::{Deserialize, Serialize};

/// Slots sorted by [`popularity_order`], repaired incrementally.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PopularityIndex {
    /// Slot indices, best-ranked first. Invariant outside `repair`: sorted
    /// by `popularity_order` over the most recent `stats` passed in.
    order: Vec<usize>,
    /// Scratch: merge target swapped with `order` during a repair.
    #[serde(skip)]
    merged: Vec<usize>,
    /// Scratch: per-slot "is dirty" mask during a repair.
    #[serde(skip)]
    removed: Vec<bool>,
    /// Scratch: insertion position of each dirty slot during a repair.
    #[serde(skip)]
    positions: Vec<usize>,
}

impl PopularityIndex {
    /// Build the index with a from-scratch sort of `stats`.
    ///
    /// Requires dense slot indexing (`stats[i].slot == i`), like every
    /// consumer of the maintained-order ranking path.
    pub fn build(stats: &[PageStats]) -> Self {
        let mut index = PopularityIndex::default();
        index.rebuild(stats);
        index
    }

    /// Re-sort from scratch, discarding the incremental state.
    pub fn rebuild(&mut self, stats: &[PageStats]) {
        debug_assert!(stats.iter().enumerate().all(|(i, p)| p.slot == i));
        self.order.clear();
        self.order.extend(0..stats.len());
        self.order
            .sort_unstable_by(|&a, &b| popularity_order(&stats[a], &stats[b]));
        self.removed.clear();
        self.removed.resize(stats.len(), false);
    }

    /// The slots in popularity order (best rank first).
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of indexed slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Restore sortedness after the slots in `dirty` changed their keys,
    /// comparing against the *current* `stats`. `dirty` is drained; slots
    /// may appear in it multiple times and in any order. The population may
    /// have grown since the last repair (`stats.len() > self.len()`), in
    /// which case every new slot must appear in `dirty`. Allocation-free
    /// once the scratch buffers have grown to `n`.
    ///
    /// Cost: `O(n + d log n)` for `d` dirty slots — two linear passes plus
    /// one binary search per dirty slot — versus `O(n log n)` comparisons
    /// for a from-scratch sort.
    pub fn repair(&mut self, stats: &[PageStats], dirty: &mut Vec<usize>) {
        debug_assert!(
            stats.len() >= self.order.len(),
            "the population never shrinks"
        );
        if dirty.is_empty() {
            debug_assert!(self.is_consistent(stats));
            return;
        }

        // Deduplicate via the mask (a slot visited twice is one repair).
        self.removed.clear();
        self.removed.resize(stats.len(), false);
        dirty.retain(|&slot| {
            let fresh = !self.removed[slot];
            self.removed[slot] = true;
            fresh
        });
        debug_assert!(
            (self.order.len()..stats.len()).all(|slot| self.removed[slot]),
            "every slot inserted since the last repair must be dirty"
        );

        // Pull dirty slots out, keeping the clean remainder in order.
        // (Newly inserted slots are not in `order` yet; for them this pass
        // is a no-op and the reinsertion below places them for the first
        // time.)
        self.order.retain(|&slot| !self.removed[slot]);

        // Reinsert: sort the dirty slots by the shared total order, find
        // each one's position in the clean list by binary search, and
        // splice everything together in a single linear pass.
        dirty.sort_unstable_by(|&a, &b| popularity_order(&stats[a], &stats[b]));
        self.positions.clear();
        for &slot in dirty.iter() {
            // Clean slots never compare equal to a dirty one (slot indices
            // differ), so this partition point is the unique position.
            self.positions.push(
                self.order.partition_point(|&clean| {
                    popularity_order(&stats[clean], &stats[slot]).is_lt()
                }),
            );
        }

        self.merged.clear();
        self.merged.reserve(stats.len());
        let mut next_dirty = 0;
        for (clean_index, &clean) in self.order.iter().enumerate() {
            while next_dirty < dirty.len() && self.positions[next_dirty] == clean_index {
                self.merged.push(dirty[next_dirty]);
                next_dirty += 1;
            }
            self.merged.push(clean);
        }
        self.merged.extend_from_slice(&dirty[next_dirty..]);
        std::mem::swap(&mut self.order, &mut self.merged);

        dirty.clear();
        debug_assert!(self.is_consistent(stats));
    }

    /// Whether the maintained order equals the from-scratch sort of
    /// `stats` (used by tests and debug assertions).
    pub fn is_consistent(&self, stats: &[PageStats]) -> bool {
        self.order.len() == stats.len()
            && self
                .order
                .windows(2)
                .all(|w| popularity_order(&stats[w[0]], &stats[w[1]]).is_lt())
            && crate::is_permutation(&self.order, stats.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::PageId;

    fn stats(keys: &[(f64, u64)]) -> Vec<PageStats> {
        keys.iter()
            .enumerate()
            .map(|(slot, &(pop, age))| {
                PageStats::new(slot, PageId::new(slot as u64), pop, pop.min(1.0)).with_age(age)
            })
            .collect()
    }

    #[test]
    fn build_matches_from_scratch_sort() {
        let ps = stats(&[(0.1, 3), (0.9, 1), (0.5, 2), (0.5, 9), (0.0, 0)]);
        let index = PopularityIndex::build(&ps);
        assert_eq!(index.order(), &[1, 3, 2, 0, 4]);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
    }

    #[test]
    fn repair_moves_a_promoted_slot_to_its_new_place() {
        let mut ps = stats(&[(0.9, 0), (0.7, 0), (0.5, 0), (0.3, 0), (0.1, 0)]);
        let mut index = PopularityIndex::build(&ps);
        ps[4].popularity = 0.8; // slot 4 jumps to second place
        let mut dirty = vec![4];
        index.repair(&ps, &mut dirty);
        assert_eq!(index.order(), &[0, 4, 1, 2, 3]);
        assert!(dirty.is_empty(), "repair drains the dirty list");
    }

    #[test]
    fn repair_handles_duplicates_and_multiple_slots() {
        let mut ps = stats(&[(0.9, 5), (0.7, 5), (0.5, 5), (0.3, 5), (0.1, 5)]);
        let mut index = PopularityIndex::build(&ps);
        ps[0].popularity = 0.0; // the leader collapses (a retirement)
        ps[0].age_days = 0;
        ps[3].popularity = 0.95; // a challenger overtakes everyone
        let mut dirty = vec![3, 0, 3, 0, 0];
        index.repair(&ps, &mut dirty);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[3, 1, 2, 4, 0]);
    }

    #[test]
    fn repair_with_no_dirty_slots_is_a_no_op() {
        let ps = stats(&[(0.2, 1), (0.8, 1)]);
        let mut index = PopularityIndex::build(&ps);
        let before = index.order().to_vec();
        index.repair(&ps, &mut Vec::new());
        assert_eq!(index.order(), before.as_slice());
    }

    #[test]
    fn uniform_aging_keeps_a_clean_index_consistent() {
        // All pages age by one day: no slot is dirty, and the stored order
        // must still match the comparator over the aged stats.
        let mut ps = stats(&[(0.5, 10), (0.5, 4), (0.2, 7), (0.9, 0)]);
        let mut index = PopularityIndex::build(&ps);
        for p in ps.iter_mut() {
            p.age_days += 1;
        }
        assert!(index.is_consistent(&ps));
        index.repair(&ps, &mut Vec::new());
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn rebuild_resets_after_bulk_changes() {
        let mut ps = stats(&[(0.1, 0), (0.2, 0), (0.3, 0)]);
        let mut index = PopularityIndex::build(&ps);
        ps.iter_mut()
            .for_each(|p| p.popularity = 1.0 - p.popularity);
        index.rebuild(&ps);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[0, 1, 2]);
    }

    #[test]
    fn repair_places_newly_inserted_slots() {
        // The population grows from 3 to 6 slots; the new slots arrive as
        // dirty and land exactly where a from-scratch sort would put them.
        let mut ps = stats(&[(0.6, 2), (0.2, 2), (0.4, 2)]);
        let mut index = PopularityIndex::build(&ps);
        ps.extend(
            stats(&[(0.5, 0), (0.0, 0), (0.9, 0)])
                .into_iter()
                .map(|mut p| {
                    p.slot += 3;
                    p.page = PageId::new(p.slot as u64);
                    p
                }),
        );
        let mut dirty = vec![3, 4, 5];
        index.repair(&ps, &mut dirty);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[5, 0, 3, 2, 1, 4]);
    }

    #[test]
    fn repair_grows_an_empty_index_from_all_dirty_slots() {
        // A serving corpus built entirely through inserts: the first repair
        // sees every slot dirty against an empty order.
        let ps = stats(&[(0.3, 1), (0.7, 1), (0.1, 1), (0.7, 4)]);
        let mut index = PopularityIndex::default();
        let mut dirty = vec![0, 1, 2, 3];
        index.repair(&ps, &mut dirty);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[3, 1, 0, 2]);
    }

    #[test]
    fn repair_mixes_inserts_and_key_changes() {
        let mut ps = stats(&[(0.9, 3), (0.5, 3), (0.1, 3)]);
        let mut index = PopularityIndex::build(&ps);
        ps[1].popularity = 0.95; // existing slot overtakes the leader
        let mut extra = stats(&[(0.8, 0)]);
        extra[0].slot = 3;
        extra[0].page = PageId::new(3);
        ps.extend(extra);
        let mut dirty = vec![1, 3, 1];
        index.repair(&ps, &mut dirty);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[1, 0, 3, 2]);
    }
}
