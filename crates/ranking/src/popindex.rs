//! An incrementally maintained popularity order over the page slots.
//!
//! Both steady-state consumers of the maintained-order ranking path — the
//! simulator's day loop and the batch serving tier — used to re-sort all
//! `n` pages by popularity on every step, `O(n log n)` work even though a
//! step changes the popularity key of only the handful of slots that
//! received a visit, changed their score, or were inserted.
//! [`PopularityIndex`] keeps a previous order and *edits* it: each changed
//! slot is found at its old position by a binary search on the key it had
//! there (its *old key*), left out, and written back in at the position a
//! binary search for its new key against [`popularity_order`] dictates —
//! all in one copying pass from the source order into the index's own
//! buffer, the one sorted-list edit both indexes share, with the `2·d`
//! searches run in lockstep ([`lower_bounds`](crate::lower_bounds)).
//!
//! Two callers supply the source and the old keys:
//!
//! * the simulator's single generation repairs in place
//!   ([`repair`](PopularityIndex::repair)): the source is its own previous
//!   order, moved into a reusable spare buffer, and the old keys are the
//!   *displaced keys* the caller kept, swapped into the stats for the
//!   duration of the edit;
//! * the serving tier's writer generation edits from the live published
//!   version ([`repair_from`](PopularityIndex::repair_from)): the source
//!   is the live order and the old keys are the live stats, which differ
//!   from the writer's exactly at the changed slots.
//!
//! Why the edit is sound: the comparator is a **total** order (popularity
//! descending, then age descending, then slot ascending), so there is
//! exactly one sorted permutation — any procedure that restores sortedness
//! reproduces the from-scratch sort bit for bit. And a clean slot's key can
//! only change in ways that preserve its relative order: popularity moves
//! only with a monitored visit, a score update, or a retirement (all mark
//! the slot dirty), and ages grow by exactly one day for *every* surviving
//! page, which leaves all pairwise age comparisons between clean slots
//! untouched. Newborn pages reset their age, so retirement marks them dirty
//! too. So the source is sorted over the old keys, the search for a changed
//! slot's old key lands exactly on its slot (displaced keys age along with
//! every other page), and the clean entries keep their relative order: each
//! changed slot goes in after exactly the source entries whose old key
//! sorts before its new one.
//!
//! The population may also *grow* between repairs (a serving corpus takes
//! inserts): slots past the source's length are new, have no old position,
//! and are written in like every other changed slot.

use crate::splice;
use crate::stats::{popularity_order, precedes, PageStats};
use serde::{Deserialize, Serialize};

/// Slots sorted by [`popularity_order`], repaired incrementally.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PopularityIndex {
    /// Slot indices, best-ranked first. Invariant outside a repair: sorted
    /// by `popularity_order` over the most recent `stats` passed in.
    order: Vec<usize>,
    /// Scratch: the previous order, the source of an in-place
    /// [`repair`](Self::repair). Empty on an index repaired from a live
    /// source.
    #[serde(skip)]
    spare: Vec<usize>,
    /// Scratch: the changed slots that have an old position.
    #[serde(skip)]
    removed: Vec<usize>,
    /// Scratch: every changed slot, sorted by its new key.
    #[serde(skip)]
    changed: Vec<usize>,
    /// Scratch: the lockstep search results.
    #[serde(skip)]
    at: Vec<usize>,
}

/// The one order edit: write into `dst` the order `src` — sorted by
/// [`popularity_order`] over `old` — with the `removed` slots taken out
/// and the `changed` slots (sorted by their new keys, `new_key(i)` being
/// the key of `changed[i]`) written in at their places.
fn edit<'k>(
    src: &[usize],
    old: &[PageStats],
    removed: &[usize],
    changed: &[usize],
    new_key: impl Fn(usize) -> &'k PageStats,
    at: &mut Vec<usize>,
    dst: &mut Vec<usize>,
) {
    splice::edit(
        src,
        removed,
        changed,
        |e, i| precedes(&old[e], &old[removed[i]]),
        |e, i| precedes(&old[e], new_key(i)),
        at,
        dst,
    );
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

    /// Restore sortedness against the *current* `stats` after keys
    /// changed, in place. `displaced` holds, for every indexed slot
    /// (`slot < len()`) whose key changed since the last repair, the
    /// [`PageStats`] it had at that repair — once per slot, in any order —
    /// and is drained. Slots past [`len`](Self::len) are new (the
    /// population may grow between repairs) and need no entry. `stats` is
    /// only borrowed mutably to swap the displaced keys in and back out; it
    /// is returned unchanged. The previous order moves into a spare buffer
    /// and is the source of the edit, so this is allocation-free once the
    /// buffers have grown.
    ///
    /// Cost: `2·d` lockstep binary searches for `d` changed slots (one for
    /// each old position, one for each new one) and a sort of the `d`
    /// slots, plus one copy of the `n`-entry order.
    pub fn repair(&mut self, stats: &mut [PageStats], displaced: &mut Vec<PageStats>) {
        let indexed = self.order.len();
        debug_assert!(stats.len() >= indexed, "the population never shrinks");
        if displaced.is_empty() && indexed == stats.len() {
            debug_assert!(self.is_consistent(stats));
            return;
        }
        if indexed == 0 {
            // Every slot is new (a bulk load): one sort places them all,
            // with no keys copied aside.
            self.rebuild(stats);
            return;
        }

        // With the displaced keys swapped in, `stats` holds every slot's
        // old key (the source order is sorted over them again) and
        // `displaced` the patched slots' new keys; the pushed slots' new
        // keys join them.
        for key in displaced.iter_mut() {
            debug_assert!(key.slot < indexed, "only indexed slots are displaced");
            std::mem::swap(&mut stats[key.slot], key);
        }
        self.removed.clear();
        self.removed.extend(displaced.iter().map(|key| key.slot));
        displaced.extend_from_slice(&stats[indexed..]);
        displaced.sort_unstable_by(popularity_order);
        self.changed.clear();
        self.changed.extend(displaced.iter().map(|key| key.slot));

        std::mem::swap(&mut self.order, &mut self.spare);
        edit(
            &self.spare,
            stats,
            &self.removed,
            &self.changed,
            |i| &displaced[i],
            &mut self.at,
            &mut self.order,
        );

        for key in displaced.iter_mut().filter(|key| key.slot < indexed) {
            std::mem::swap(&mut stats[key.slot], key);
        }
        displaced.clear();
        debug_assert!(self.is_consistent(stats));
    }

    /// Write the order for the current `stats` from a `live` index sorted
    /// over `live_stats`, replacing this index's contents (which may be
    /// stale scratch). `stats` may differ from `live_stats` only at the
    /// `changed` slots — each listed once, and including every slot past
    /// `live_stats.len()` — so the live stats hold each changed slot's
    /// old key and no displaced keys are needed.
    ///
    /// Cost: `2·d` lockstep binary searches for `d` changed slots and a
    /// sort of the `d` slots, plus one copy of the `n`-entry live order.
    /// An index repaired this way keeps no spare buffer.
    pub fn repair_from(
        &mut self,
        live: &PopularityIndex,
        live_stats: &[PageStats],
        stats: &[PageStats],
        changed: &[usize],
    ) {
        let indexed = live.order.len();
        debug_assert_eq!(indexed, live_stats.len(), "the live order is repaired");
        debug_assert!(stats.len() >= indexed, "the population never shrinks");
        self.removed.clear();
        self.removed
            .extend(changed.iter().copied().filter(|&slot| slot < indexed));
        self.changed.clear();
        self.changed.extend_from_slice(changed);
        self.changed
            .sort_unstable_by(|&a, &b| popularity_order(&stats[a], &stats[b]));
        let changed = &self.changed;
        edit(
            &live.order,
            live_stats,
            &self.removed,
            changed,
            |i| &stats[changed[i]],
            &mut self.at,
            &mut self.order,
        );
        self.spare = Vec::new();
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
        let mut displaced = vec![ps[4]];
        ps[4].popularity = 0.8; // slot 4 jumps to second place
        index.repair(&mut ps, &mut displaced);
        assert_eq!(index.order(), &[0, 4, 1, 2, 3]);
        assert!(displaced.is_empty(), "repair drains the displaced keys");
    }

    #[test]
    fn repair_moves_several_slots_at_once() {
        let mut ps = stats(&[(0.9, 5), (0.7, 5), (0.5, 5), (0.3, 5), (0.1, 5)]);
        let mut index = PopularityIndex::build(&ps);
        let mut displaced = vec![ps[3], ps[0]];
        ps[0].popularity = 0.0; // the leader collapses (a retirement)
        ps[0].age_days = 0;
        ps[3].popularity = 0.95; // a challenger overtakes everyone
        index.repair(&mut ps, &mut displaced);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[3, 1, 2, 4, 0]);
    }

    #[test]
    fn repair_with_no_dirty_slots_is_a_no_op() {
        let mut ps = stats(&[(0.2, 1), (0.8, 1)]);
        let mut index = PopularityIndex::build(&ps);
        let before = index.order().to_vec();
        index.repair(&mut ps, &mut Vec::new());
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
        index.repair(&mut ps, &mut Vec::new());
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
        // The population grows from 3 to 6 slots; the new slots need no
        // displaced key and land exactly where a from-scratch sort would
        // put them.
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
        index.repair(&mut ps, &mut Vec::new());
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[5, 0, 3, 2, 1, 4]);
    }

    #[test]
    fn repair_grows_an_empty_index_from_all_dirty_slots() {
        // A serving corpus built entirely through inserts: the first repair
        // sees every slot as new against an empty order.
        let mut ps = stats(&[(0.3, 1), (0.7, 1), (0.1, 1), (0.7, 4)]);
        let mut index = PopularityIndex::default();
        index.repair(&mut ps, &mut Vec::new());
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[3, 1, 0, 2]);
    }

    #[test]
    fn repair_mixes_inserts_and_key_changes() {
        let mut ps = stats(&[(0.9, 3), (0.5, 3), (0.1, 3)]);
        let mut index = PopularityIndex::build(&ps);
        let mut displaced = vec![ps[1]];
        ps[1].popularity = 0.95; // existing slot overtakes the leader
        let mut extra = stats(&[(0.8, 0)]);
        extra[0].slot = 3;
        extra[0].page = PageId::new(3);
        ps.extend(extra);
        index.repair(&mut ps, &mut displaced);
        assert!(index.is_consistent(&ps));
        assert_eq!(index.order(), &[1, 0, 3, 2]);
    }

    #[test]
    fn repair_locates_tied_keys_by_the_slot_tie_break() {
        // Equal popularity and age everywhere: only the slot decides, so
        // the displaced key of slot 2 must find slot 2, not a neighbour.
        let mut ps = stats(&[(0.5, 1), (0.5, 1), (0.5, 1), (0.5, 1)]);
        let mut index = PopularityIndex::build(&ps);
        let mut displaced = vec![ps[2], ps[1]];
        ps[2].popularity = 0.0; // to the bottom
        index.repair(&mut ps, &mut displaced); // slot 1 patched to itself
        assert_eq!(index.order(), &[0, 1, 3, 2]);
        assert!(index.is_consistent(&ps));
    }

    #[test]
    fn stats_come_back_unchanged() {
        let mut ps = stats(&[(0.9, 0), (0.7, 0), (0.5, 0)]);
        let mut index = PopularityIndex::build(&ps);
        let mut displaced = vec![ps[0]];
        ps[0].popularity = 0.1;
        let current = ps.clone();
        index.repair(&mut ps, &mut displaced);
        assert_eq!(ps, current, "the displaced keys are swapped back out");
        assert_eq!(index.order(), &[1, 2, 0]);
    }
}
