//! Block-move edits of a sorted slot list: remove entries at known
//! positions, insert entries at known positions. Both incremental indexes
//! ([`PopularityIndex`](crate::PopularityIndex) and
//! [`PoolIndex`](crate::PoolIndex)) repair through these two, so a repair
//! of `d` dirty slots costs its `O(d log n)` binary searches plus at most
//! one `memmove` per edited gap — never a per-element pass over all `n`.

/// Remove the entries at `positions` (strictly ascending, each `< len`)
/// from `list`, shifting every surviving block left exactly once.
pub(crate) fn remove_at(list: &mut Vec<usize>, positions: &[usize]) {
    debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
    let Some(&first) = positions.first() else {
        return;
    };
    let mut write = first;
    for (i, &at) in positions.iter().enumerate() {
        let next = positions.get(i + 1).copied().unwrap_or(list.len());
        list.copy_within(at + 1..next, write);
        write += next - at - 1;
    }
    list.truncate(write);
}

/// Insert `items[i]` before the entry currently at `positions[i]`
/// (`positions` non-decreasing, each `<= len`; equal positions keep the
/// items' order), shifting every displaced block right exactly once.
pub(crate) fn insert_at(list: &mut Vec<usize>, items: &[usize], positions: &[usize]) {
    debug_assert_eq!(items.len(), positions.len());
    debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]));
    let mut end = list.len();
    list.resize(end + items.len(), 0);
    for (i, (&item, &at)) in items.iter().zip(positions).enumerate().rev() {
        list.copy_within(at..end, at + i + 1);
        list[at + i] = item;
        end = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_at_drops_exactly_the_listed_positions() {
        let mut list: Vec<usize> = (0..8).collect();
        remove_at(&mut list, &[0, 2, 5, 7]);
        assert_eq!(list, [1, 3, 4, 6]);
        remove_at(&mut list, &[]);
        assert_eq!(list, [1, 3, 4, 6]);
        remove_at(&mut list, &[0, 1, 2, 3]);
        assert!(list.is_empty());
    }

    #[test]
    fn insert_at_places_items_before_their_positions() {
        let mut list = vec![10, 20, 30];
        insert_at(&mut list, &[5, 15, 16, 40], &[0, 1, 1, 3]);
        assert_eq!(list, [5, 10, 15, 16, 20, 30, 40]);
        let mut empty = Vec::new();
        insert_at(&mut empty, &[1, 2], &[0, 0]);
        assert_eq!(empty, [1, 2]);
    }
}
