//! The randomized merge of the deterministic list and the promotion pool
//! (the two-list procedure of Section 4).
//!
//! Given
//!
//! * `L_d` — the remaining pages ranked deterministically by descending
//!   popularity, and
//! * `L_p` — the promotion pool, already shuffled into a random order,
//!
//! the final result list `L` is built as follows:
//!
//! 1. the top `k − 1` elements of `L_d` are copied to the front of `L`
//!    (these ranks are protected);
//! 2. each remaining position `i = k, k+1, …, n` is filled by flipping a
//!    biased coin: with probability `r` the next element is taken from the
//!    top of `L_p`, otherwise from the top of `L_d`; once either list is
//!    exhausted the rest comes from the other.

use rand::Rng;
use rand::RngCore;

/// Merge `deterministic` (`L_d`) and `promoted` (`L_p`) into the final
/// result list, protecting the first `start_rank − 1` deterministic entries
/// and using promotion probability `degree` (`r`).
///
/// The two input lists must be disjoint; together they contain every page
/// exactly once, and so does the output.
///
/// # Panics
/// Panics (in debug builds) if `start_rank == 0` or `degree ∉ [0, 1]`; these
/// are validated upstream by `PromotionConfig::validate`.
pub fn merge_promoted(
    deterministic: &[usize],
    promoted: &[usize],
    start_rank: usize,
    degree: f64,
    rng: &mut dyn RngCore,
) -> Vec<usize> {
    let mut result = Vec::with_capacity(deterministic.len() + promoted.len());
    merge_promoted_into(
        deterministic,
        promoted,
        start_rank,
        degree,
        rng,
        &mut result,
    );
    result
}

/// [`merge_promoted`] writing into a caller-supplied vector (cleared first)
/// instead of allocating — the allocation-free primitive behind
/// [`PolicyKind::rank_into`](crate::PolicyKind::rank_into).
///
/// Consumes exactly the same RNG draws as [`merge_promoted`], so the two
/// produce byte-identical output from the same generator state. Generic
/// over the RNG so concrete generators inline on the hot path.
pub fn merge_promoted_into<R: RngCore + ?Sized>(
    deterministic: &[usize],
    promoted: &[usize],
    start_rank: usize,
    degree: f64,
    rng: &mut R,
    result: &mut Vec<usize>,
) {
    debug_assert!(start_rank >= 1, "start rank is 1-based");
    debug_assert!((0.0..=1.0).contains(&degree), "degree must be in [0, 1]");

    let total = deterministic.len() + promoted.len();
    result.clear();
    result.reserve(total);

    let protected = (start_rank - 1).min(deterministic.len());
    let mut d_iter = deterministic.iter().copied();
    let mut p_iter = promoted.iter().copied();

    // Step 1: protected prefix straight from L_d, order preserved.
    result.extend(d_iter.by_ref().take(protected));

    // Step 2: coin-flip merge for the remaining positions. Once either
    // list is exhausted no more coins are flipped, so the remaining tail
    // is appended in bulk — same output and RNG consumption as flipping
    // element by element, minus the per-element bookkeeping.
    let mut d_next = d_iter.next();
    let mut p_next = p_iter.next();
    loop {
        match (d_next, p_next) {
            (Some(d), Some(p)) => {
                if rng.gen::<f64>() < degree {
                    result.push(p);
                    p_next = p_iter.next();
                } else {
                    result.push(d);
                    d_next = d_iter.next();
                }
            }
            (Some(d), None) => {
                result.push(d);
                result.extend(d_iter);
                break;
            }
            (None, Some(p)) => {
                result.push(p);
                result.extend(p_iter);
                break;
            }
            (None, None) => break,
        }
    }
    debug_assert_eq!(result.len(), total);
}

/// The top-`k` prefix of [`merge_promoted`], stopping the coin-flip merge
/// as soon as `k` ranks have been emitted: the paper's rank-biased
/// attention model means real queries consume only the top of the ranking,
/// so serving tiers ask for the first page of results, not all `n`.
///
/// Writes exactly `min(k, total)` entries into `result` (cleared first),
/// where `total` is the combined length of the two *full* lists, and those
/// entries equal the length-`k` prefix of the full merge bit for bit: the
/// coin for each emitted position is drawn under exactly the same
/// conditions as in [`merge_promoted_into`], and positions past `k` draw
/// nothing.
///
/// `deterministic` may be truncated: because every emitted position
/// consumes exactly one element, at most `k` elements of `L_d` are ever
/// read, so passing only the first `min(k, full_length)` entries yields the
/// same output as passing the full list. (If the slice runs out before `k`
/// positions are emitted, it must be because the full list ran out too —
/// a shorter slice would violate the contract.) `promoted` must be the
/// complete pool: its length is observable in the prefix through the
/// "pool exhausted" branch, and the caller has to shuffle the whole pool
/// anyway to reproduce the full merge's randomization.
pub fn merge_promoted_top_k_into<R: RngCore + ?Sized>(
    deterministic: &[usize],
    promoted: &[usize],
    start_rank: usize,
    degree: f64,
    k: usize,
    rng: &mut R,
    result: &mut Vec<usize>,
) {
    debug_assert!(start_rank >= 1, "start rank is 1-based");
    debug_assert!((0.0..=1.0).contains(&degree), "degree must be in [0, 1]");

    result.clear();
    result.reserve(k.min(deterministic.len() + promoted.len()));

    let protected = (start_rank - 1).min(deterministic.len()).min(k);
    let mut d_iter = deterministic.iter().copied();
    let mut p_iter = promoted.iter().copied();

    // Step 1: protected prefix straight from L_d, order preserved.
    result.extend(d_iter.by_ref().take(protected));

    // Step 2: coin-flip merge, stopping once `k` ranks are emitted.
    let mut d_next = d_iter.next();
    let mut p_next = p_iter.next();
    while result.len() < k {
        match (d_next, p_next) {
            (Some(d), Some(p)) => {
                if rng.gen::<f64>() < degree {
                    result.push(p);
                    p_next = p_iter.next();
                } else {
                    result.push(d);
                    d_next = d_iter.next();
                }
            }
            (Some(d), None) => {
                result.push(d);
                d_next = d_iter.next();
            }
            (None, Some(p)) => {
                result.push(p);
                p_next = p_iter.next();
            }
            (None, None) => break,
        }
    }
    debug_assert!(result.len() <= k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_model::new_rng;
    use std::collections::HashSet;

    #[test]
    fn output_contains_every_input_exactly_once() {
        let mut rng = new_rng(3);
        let ld: Vec<usize> = (0..50).collect();
        let lp: Vec<usize> = (50..80).collect();
        let merged = merge_promoted(&ld, &lp, 2, 0.3, &mut rng);
        assert_eq!(merged.len(), 80);
        let set: HashSet<usize> = merged.iter().copied().collect();
        assert_eq!(set.len(), 80);
    }

    #[test]
    fn zero_degree_reproduces_deterministic_order_then_pool() {
        let mut rng = new_rng(1);
        let ld = vec![9, 8, 7];
        let lp = vec![1, 2];
        let merged = merge_promoted(&ld, &lp, 1, 0.0, &mut rng);
        // With r = 0 the deterministic list is exhausted first, then the
        // pool is appended.
        assert_eq!(merged, vec![9, 8, 7, 1, 2]);
    }

    #[test]
    fn full_degree_puts_pool_first_after_protected_prefix() {
        let mut rng = new_rng(1);
        let ld = vec![9, 8, 7];
        let lp = vec![1, 2];
        let merged = merge_promoted(&ld, &lp, 2, 1.0, &mut rng);
        // Rank 1 is protected (9), then the whole pool, then the rest of L_d.
        assert_eq!(merged, vec![9, 1, 2, 8, 7]);
    }

    #[test]
    fn protected_prefix_is_never_displaced() {
        let ld: Vec<usize> = (0..20).collect();
        let lp: Vec<usize> = (20..40).collect();
        for seed in 0..50 {
            let mut rng = new_rng(seed);
            let merged = merge_promoted(&ld, &lp, 6, 0.9, &mut rng);
            assert_eq!(&merged[..5], &[0, 1, 2, 3, 4], "top k-1 must be stable");
        }
    }

    #[test]
    fn relative_order_within_each_list_is_preserved() {
        let ld = vec![10, 11, 12, 13, 14];
        let lp = vec![20, 21, 22];
        let mut rng = new_rng(9);
        let merged = merge_promoted(&ld, &lp, 1, 0.5, &mut rng);
        let d_positions: Vec<usize> = ld
            .iter()
            .map(|x| merged.iter().position(|y| y == x).unwrap())
            .collect();
        let p_positions: Vec<usize> = lp
            .iter()
            .map(|x| merged.iter().position(|y| y == x).unwrap())
            .collect();
        assert!(d_positions.windows(2).all(|w| w[0] < w[1]));
        assert!(p_positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_pool_is_identity() {
        let ld = vec![3, 1, 4, 1 + 4, 9];
        let mut rng = new_rng(0);
        let merged = merge_promoted(&ld, &[], 1, 0.8, &mut rng);
        assert_eq!(merged, ld);
    }

    #[test]
    fn empty_deterministic_list_returns_pool() {
        let lp = vec![5, 6, 7];
        let mut rng = new_rng(0);
        let merged = merge_promoted(&[], &lp, 3, 0.2, &mut rng);
        assert_eq!(merged, lp);
    }

    #[test]
    fn both_empty_gives_empty() {
        let mut rng = new_rng(0);
        assert!(merge_promoted(&[], &[], 1, 0.5, &mut rng).is_empty());
    }

    #[test]
    fn protected_prefix_longer_than_list_is_harmless() {
        let ld = vec![1, 2];
        let lp = vec![3];
        let mut rng = new_rng(0);
        let merged = merge_promoted(&ld, &lp, 10, 0.5, &mut rng);
        assert_eq!(merged, vec![1, 2, 3]);
    }

    #[test]
    fn into_variant_matches_allocating_variant_and_reuses_storage() {
        let ld: Vec<usize> = (0..40).collect();
        let lp: Vec<usize> = (40..60).collect();
        let mut out = Vec::new();
        for seed in 0..20 {
            let mut rng_a = new_rng(seed);
            let mut rng_b = new_rng(seed);
            let expected = merge_promoted(&ld, &lp, 3, 0.4, &mut rng_a);
            merge_promoted_into(&ld, &lp, 3, 0.4, &mut rng_b, &mut out);
            assert_eq!(out, expected);
        }
        // The output vector keeps its capacity across calls.
        assert!(out.capacity() >= 60);
    }

    #[test]
    fn top_k_is_the_prefix_of_the_full_merge_for_every_k() {
        let ld: Vec<usize> = (0..30).collect();
        let lp: Vec<usize> = (30..42).collect();
        let mut out = Vec::new();
        for seed in 0..20 {
            let full = merge_promoted(&ld, &lp, 3, 0.4, &mut new_rng(seed));
            for k in [0usize, 1, 2, 3, 7, 30, 42, 100] {
                merge_promoted_top_k_into(&ld, &lp, 3, 0.4, k, &mut new_rng(seed), &mut out);
                assert_eq!(out, full[..k.min(full.len())], "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn top_k_accepts_a_truncated_deterministic_list() {
        let ld: Vec<usize> = (0..100).collect();
        let lp: Vec<usize> = (100..120).collect();
        for seed in 0..20 {
            for k in [1usize, 5, 10, 50] {
                let mut full = Vec::new();
                merge_promoted_top_k_into(&ld, &lp, 2, 0.5, k, &mut new_rng(seed), &mut full);
                let mut truncated = Vec::new();
                merge_promoted_top_k_into(
                    &ld[..k.min(ld.len())],
                    &lp,
                    2,
                    0.5,
                    k,
                    &mut new_rng(seed),
                    &mut truncated,
                );
                assert_eq!(truncated, full, "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn top_k_with_exhausted_lists_stops_early() {
        let mut rng = new_rng(4);
        let mut out = Vec::new();
        merge_promoted_top_k_into(&[1, 2], &[9], 1, 0.5, 10, &mut rng, &mut out);
        assert_eq!(out.len(), 3, "only three elements exist");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 9]);
        merge_promoted_top_k_into(&[], &[], 1, 0.5, 4, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn promotion_fraction_roughly_matches_degree() {
        // With long lists and r = 0.2, about 20% of the first positions
        // after the protected prefix should come from the pool.
        let ld: Vec<usize> = (0..10_000).collect();
        let lp: Vec<usize> = (10_000..20_000).collect();
        let mut rng = new_rng(123);
        let merged = merge_promoted(&ld, &lp, 1, 0.2, &mut rng);
        let from_pool = merged[..1_000].iter().filter(|&&x| x >= 10_000).count();
        let fraction = from_pool as f64 / 1_000.0;
        assert!(
            (fraction - 0.2).abs() < 0.05,
            "observed promotion fraction {fraction}, expected ≈ 0.2"
        );
    }
}
