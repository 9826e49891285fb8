//! The one edit of a sorted slot list. Both incremental indexes
//! ([`PopularityIndex`](crate::PopularityIndex) and
//! [`PoolIndex`](crate::PoolIndex)) repair through [`edit`]: a source list
//! sorted over the *old* keys, the slots to take out and the slots to put
//! in (sorted over their *new* keys) go into a destination buffer in one
//! copying pass. Each removed slot is found at its old position and each
//! inserted slot at its new one by [`lower_bounds`], which runs all `2·d`
//! binary searches in lockstep, so their cache misses overlap instead of
//! queueing. A repair of `m` moved slots therefore costs `2·m` lockstep
//! searches plus one `n`-entry copy. The lists are generic over their
//! entry type: the popularity order stores `u32` slots, the pool's member
//! list `usize` ones.

/// Lockstep lower bounds (Khuong & Morin's branchless binary search, run
/// for all probes at once). `at` receives, for every probe `i` in
/// `0..probes`, the number of leading entries `e` of `list` with
/// `below(i, e)` — `list.partition_point(|&e| below(i, e))` — where each
/// `below(i, ·)` must hold on a prefix of `list` and fail on the rest.
///
/// One level of the search is one step for every probe before the next
/// level starts, and a step moves its base by an arithmetic select rather
/// than a branch, so the memory accesses of a level are independent of
/// each other and overlap. A level runs in two passes over each block of
/// probes — load every probe's midpoint entry, then compare each — so the
/// two dependent loads of a step (the entry, then whatever `below` reads
/// for it) are each issued for the whole block before any is waited on.
/// Allocation-free once `at` has grown to `probes`.
pub fn lower_bounds<T: Copy>(
    list: &[T],
    probes: usize,
    below: impl Fn(usize, T) -> bool,
    at: &mut Vec<usize>,
) {
    const BLOCK: usize = 32;
    at.clear();
    at.resize(probes, 0);
    if list.is_empty() {
        return;
    }
    // Every probe's answer lies in `base..=base + size`; all probes share
    // the same `size` at each level.
    let mut size = list.len();
    let mut mids = [list[0]; BLOCK];
    while size > 1 {
        let half = size / 2;
        for (block, bases) in at.chunks_mut(BLOCK).enumerate() {
            for (mid, &base) in mids.iter_mut().zip(bases.iter()) {
                *mid = list[base + half - 1];
            }
            for (j, (base, &mid)) in bases.iter_mut().zip(&mids).enumerate() {
                *base += half * usize::from(below(block * BLOCK + j, mid));
            }
        }
        size -= half;
    }
    for (i, base) in at.iter_mut().enumerate() {
        *base += usize::from(below(i, list[*base]));
    }
}

/// Write into `dst` the list `src` with the `removed` slots taken out and
/// the `inserted` slots put in, in one pass. `src` must be sorted so that
/// `removed_below(e, i)` holds exactly for the entries `e` ahead of the
/// removed slot `removed[i]`, and `inserted_below(e, i)` exactly for the
/// entries ahead of the place `inserted[i]` belongs; `inserted` must be in
/// destination order (non-decreasing places). `at` is scratch for the
/// `removed.len() + inserted.len()` lockstep searches.
///
/// Debug builds check that every removed slot's search lands on its own
/// entry — the guard that `src` really is sorted over the keys the
/// caller searched it with.
pub(crate) fn edit<T: Copy + PartialEq>(
    src: &[T],
    removed: &[T],
    inserted: &[T],
    removed_below: impl Fn(T, usize) -> bool,
    inserted_below: impl Fn(T, usize) -> bool,
    at: &mut Vec<usize>,
    dst: &mut Vec<T>,
) {
    let r = removed.len();
    lower_bounds(
        src,
        r + inserted.len(),
        |i, e| {
            if i < r {
                removed_below(e, i)
            } else {
                inserted_below(e, i - r)
            }
        },
        at,
    );
    debug_assert!(
        removed
            .iter()
            .zip(at.iter())
            .all(|(&s, &p)| src.get(p) == Some(&s)),
        "a removed slot's old key must locate its slot"
    );
    let (gone, places) = at.split_at_mut(r);
    gone.sort_unstable();
    debug_assert!(places.windows(2).all(|w| w[0] <= w[1]));

    dst.clear();
    dst.reserve(src.len() - r + inserted.len());
    let mut gone = gone.iter().copied().peekable();
    let mut from = 0;
    let mut copy_to = |to: usize, from: &mut usize, dst: &mut Vec<T>| {
        while let Some(skip) = gone.next_if(|&p| p < to) {
            dst.extend_from_slice(&src[*from..skip]);
            *from = skip + 1;
        }
        dst.extend_from_slice(&src[*from..to]);
        *from = to;
    };
    for (&slot, &place) in inserted.iter().zip(places.iter()) {
        copy_to(place, &mut from, dst);
        dst.push(slot);
    }
    copy_to(src.len(), &mut from, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending_edit(src: &[usize], removed: &[usize], inserted: &[usize]) -> Vec<usize> {
        let (mut at, mut dst) = (Vec::new(), vec![99; 3]);
        edit(
            src,
            removed,
            inserted,
            |e, i| e < removed[i],
            |e, i| e < inserted[i],
            &mut at,
            &mut dst,
        );
        dst
    }

    #[test]
    fn lower_bounds_match_partition_point() {
        let list = [1usize, 3, 3, 5, 8];
        let keys = [0usize, 1, 2, 3, 4, 5, 8, 9];
        let mut at = Vec::new();
        lower_bounds(&list, keys.len(), |i, e| e < keys[i], &mut at);
        let expected: Vec<usize> = keys
            .iter()
            .map(|&k| list.partition_point(|&e| e < k))
            .collect();
        assert_eq!(at, expected);
        lower_bounds::<usize>(&[], 2, |_, _| true, &mut at);
        assert_eq!(at, [0, 0]);
    }

    #[test]
    fn remove_at_drops_exactly_the_listed_positions() {
        let src: Vec<usize> = (0..8).collect();
        assert_eq!(ascending_edit(&src, &[0, 2, 5, 7], &[]), [1, 3, 4, 6]);
        assert_eq!(ascending_edit(&[1, 3, 4, 6], &[], &[]), [1, 3, 4, 6]);
        assert!(ascending_edit(&[1, 3, 4, 6], &[1, 3, 4, 6], &[]).is_empty());
    }

    #[test]
    fn insert_at_places_items_before_their_positions() {
        assert_eq!(
            ascending_edit(&[10, 20, 30], &[], &[5, 15, 16, 40]),
            [5, 10, 15, 16, 20, 30, 40]
        );
        assert_eq!(ascending_edit(&[], &[], &[1, 2]), [1, 2]);
    }

    #[test]
    fn edit_removes_and_inserts_in_one_pass() {
        let src: Vec<usize> = (0..8).map(|s| s * 10).collect();
        assert_eq!(
            ascending_edit(&src, &[0, 20, 50, 70], &[5, 15, 16, 75]),
            [5, 10, 15, 16, 30, 40, 60, 75]
        );
        assert_eq!(ascending_edit(&src, &[], &[]), src);
        assert_eq!(ascending_edit(&src, &src, &[]), Vec::<usize>::new());
        assert_eq!(ascending_edit(&[], &[], &[1, 2]), [1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "locate its slot")]
    fn a_removed_slot_missing_from_the_source_trips_the_check() {
        ascending_edit(&[10, 20], &[15], &[]);
    }
}
