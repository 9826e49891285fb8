//! Permutation checks for ranking output.
//!
//! A ranking is a permutation of the *slot indices* of its input: the page
//! at `ordering[0]` is shown at rank 1, `ordering[1]` at rank 2, and so on.

/// Verify that `ordering` is a permutation of `0..n`. Used by debug
/// assertions in the simulator and by the property tests of every policy.
pub fn is_permutation(ordering: &[usize], n: usize) -> bool {
    is_permutation_with_scratch(ordering, n, &mut Vec::new())
}

/// [`is_permutation`] with a caller-supplied scratch mask, so repeated
/// validation (e.g. a debug assertion in a simulation day loop) does not
/// allocate once the scratch has grown to `n` entries.
pub fn is_permutation_with_scratch(ordering: &[usize], n: usize, seen: &mut Vec<bool>) -> bool {
    if ordering.len() != n {
        return false;
    }
    seen.clear();
    seen.resize(n, false);
    for &slot in ordering {
        if slot >= n || seen[slot] {
            return false;
        }
        seen[slot] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_check_accepts_valid() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(is_permutation(&[], 0));
        assert!(is_permutation(&[0], 1));
    }

    #[test]
    fn permutation_check_rejects_invalid() {
        assert!(!is_permutation(&[0, 0, 1], 3), "duplicate");
        assert!(!is_permutation(&[0, 1], 3), "too short");
        assert!(!is_permutation(&[0, 1, 3], 3), "out of range");
        assert!(!is_permutation(&[0, 1, 2, 2], 3), "too long");
    }

    #[test]
    fn scratch_variant_matches_allocating_variant() {
        let mut seen = Vec::new();
        for (ordering, n) in [
            (vec![2, 0, 1], 3),
            (vec![0, 0, 1], 3),
            (vec![0, 1], 3),
            (vec![0, 1, 3], 3),
            (vec![], 0),
        ] {
            assert_eq!(
                is_permutation_with_scratch(&ordering, n, &mut seen),
                is_permutation(&ordering, n),
                "ordering {ordering:?}"
            );
        }
    }
}
