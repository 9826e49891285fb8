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
//!
//! # The coin, in integers
//!
//! The paper's coin is `rng.gen::<f64>() < r`, with `gen::<f64>()` the
//! top 53 bits of one word scaled by `2^-53`: `m · 2^-53 < r` for the
//! integer `m = word >> 11 < 2^53`. Both sides scale by `2^53` exactly —
//! `m` is exact in an `f64`, and multiplying by a power of two never
//! rounds here — so the test is `m < r · 2^53`, and for an integer `m`
//! that is `m < ⌈r · 2^53⌉`. `coin_threshold` computes that bound once
//! per merge; `⌈r · 2^53⌉ ≤ 2^53` fits a `u64`, and the saturating cast
//! maps a NaN or negative `r` to 0 (never promote) and an `r > 1` past
//! every `m` (always promote), as the float comparison does. So every
//! coin lands as before, word for word, and a chunk of them is a
//! branch-free select.

use rand::{RngCore, CHUNK_WORDS};

/// The integer bound of the coin `gen::<f64>() < degree`: a word promotes
/// exactly when `coin(word, coin_threshold(degree))`. See the module
/// docs for why the two agree on every word.
pub(crate) fn coin_threshold(degree: f64) -> u64 {
    (degree * (1u64 << 53) as f64).ceil() as u64
}

/// One coin flip on `word`: `true` promotes.
#[inline(always)]
pub(crate) fn coin(word: u64, threshold: u64) -> bool {
    (word >> 11) < threshold
}

/// Merge `deterministic` (`L_d`) and `promoted` (`L_p`) into the final
/// result list, written into `result` (cleared first), protecting the first
/// `start_rank − 1` deterministic entries and using promotion probability
/// `degree` (`r`): the allocation-free primitive behind
/// [`PolicyKind::rank_into`](crate::PolicyKind::rank_into).
///
/// The two input lists must be disjoint; together they contain every page
/// exactly once, and so does the output. Generic over the RNG so concrete
/// generators inline on the hot path. It is the top-`k` merge with `k` the
/// combined length: one coin per rank until a list runs out, then the
/// other list's rest in bulk.
///
/// # Panics
/// Panics (in debug builds) if `start_rank == 0` or `degree ∉ [0, 1]`; these
/// are validated upstream by `PromotionConfig::validate`.
pub fn merge_promoted_into<R: RngCore + ?Sized>(
    deterministic: &[usize],
    promoted: &[usize],
    start_rank: usize,
    degree: f64,
    rng: &mut R,
    result: &mut Vec<usize>,
) {
    let total = deterministic.len() + promoted.len();
    merge_promoted_top_k_into(
        deterministic,
        promoted,
        start_rank,
        degree,
        total,
        rng,
        result,
    );
    debug_assert_eq!(result.len(), total);
}

/// The top-`k` prefix of [`merge_promoted_into`], stopping the coin-flip merge
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
/// The coins are drawn [`CHUNK_WORDS`] at a time through
/// [`RngCore::fill_u64`] while both lists, and the ranks left to emit,
/// number at least that many: every coin then emits one rank from one
/// list, so the whole chunk is consumed. Past that point it draws one
/// `next_u64` per coin.
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

    // Step 1: protected prefix straight from L_d, order preserved.
    let protected = (start_rank - 1).min(deterministic.len()).min(k);
    result.extend_from_slice(&deterministic[..protected]);
    let (mut d, mut p) = (&deterministic[protected..], promoted);

    // Step 2: coin-flip merge, stopping once `k` ranks are emitted; once
    // either list is exhausted no more coins are flipped.
    let threshold = coin_threshold(degree);
    while d.len().min(p.len()).min(k - result.len()) >= CHUNK_WORDS {
        merge_chunk(&mut d, &mut p, threshold, rng, result);
    }
    while result.len() < k {
        let (Some((&next_d, rest_d)), Some((&next_p, rest_p))) = (d.split_first(), p.split_first())
        else {
            let rest = if d.is_empty() { p } else { d };
            result.extend_from_slice(&rest[..rest.len().min(k - result.len())]);
            break;
        };
        if coin(rng.next_u64(), threshold) {
            result.push(next_p);
            p = rest_p;
        } else {
            result.push(next_d);
            d = rest_d;
        }
    }
    debug_assert!(result.len() <= k);
}

/// The next [`CHUNK_WORDS`] ranks of the merge, from one chunk of coins;
/// `d` and `p` both hold at least that many entries.
#[inline(always)]
fn merge_chunk<R: RngCore + ?Sized>(
    d: &mut &[usize],
    p: &mut &[usize],
    threshold: u64,
    rng: &mut R,
    result: &mut Vec<usize>,
) {
    let mut words = [0u64; CHUNK_WORDS];
    rng.fill_u64(&mut words);
    let head_d: &[usize; CHUNK_WORDS] = d[..CHUNK_WORDS].try_into().expect("chunk");
    let head_p: &[usize; CHUNK_WORDS] = p[..CHUNK_WORDS].try_into().expect("chunk");
    // `taken_d + taken_p` ranks emitted so far, fewer than `CHUNK_WORDS`
    // inside the loop, so the masks never wrap; both heads are read and
    // the coin selects one.
    let (mut taken_d, mut taken_p) = (0, 0);
    let mut ranks = [0usize; CHUNK_WORDS];
    for (rank, &word) in ranks.iter_mut().zip(&words) {
        let promote = coin(word, threshold);
        let (next_d, next_p) = (head_d[taken_d % CHUNK_WORDS], head_p[taken_p % CHUNK_WORDS]);
        *rank = if promote { next_p } else { next_d };
        taken_p += promote as usize;
        taken_d += !promote as usize;
    }
    result.extend_from_slice(&ranks);
    *d = &d[taken_d..];
    *p = &p[taken_p..];
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
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &lp, 2, 0.3, &mut rng, &mut merged);
        assert_eq!(merged.len(), 80);
        let set: HashSet<usize> = merged.iter().copied().collect();
        assert_eq!(set.len(), 80);
    }

    #[test]
    fn zero_degree_reproduces_deterministic_order_then_pool() {
        let mut rng = new_rng(1);
        let ld = vec![9, 8, 7];
        let lp = vec![1, 2];
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &lp, 1, 0.0, &mut rng, &mut merged);
        // With r = 0 the deterministic list is exhausted first, then the
        // pool is appended.
        assert_eq!(merged, vec![9, 8, 7, 1, 2]);
    }

    #[test]
    fn full_degree_puts_pool_first_after_protected_prefix() {
        let mut rng = new_rng(1);
        let ld = vec![9, 8, 7];
        let lp = vec![1, 2];
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &lp, 2, 1.0, &mut rng, &mut merged);
        // Rank 1 is protected (9), then the whole pool, then the rest of L_d.
        assert_eq!(merged, vec![9, 1, 2, 8, 7]);
    }

    #[test]
    fn protected_prefix_is_never_displaced() {
        let ld: Vec<usize> = (0..20).collect();
        let lp: Vec<usize> = (20..40).collect();
        for seed in 0..50 {
            let mut rng = new_rng(seed);
            let mut merged = Vec::new();
            merge_promoted_into(&ld, &lp, 6, 0.9, &mut rng, &mut merged);
            assert_eq!(&merged[..5], &[0, 1, 2, 3, 4], "top k-1 must be stable");
        }
    }

    #[test]
    fn relative_order_within_each_list_is_preserved() {
        let ld = vec![10, 11, 12, 13, 14];
        let lp = vec![20, 21, 22];
        let mut rng = new_rng(9);
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &lp, 1, 0.5, &mut rng, &mut merged);
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
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &[], 1, 0.8, &mut rng, &mut merged);
        assert_eq!(merged, ld);
    }

    #[test]
    fn empty_deterministic_list_returns_pool() {
        let lp = vec![5, 6, 7];
        let mut rng = new_rng(0);
        let mut merged = Vec::new();
        merge_promoted_into(&[], &lp, 3, 0.2, &mut rng, &mut merged);
        assert_eq!(merged, lp);
    }

    #[test]
    fn both_empty_gives_empty() {
        let mut rng = new_rng(0);
        let mut merged = vec![7];
        merge_promoted_into(&[], &[], 1, 0.5, &mut rng, &mut merged);
        assert!(merged.is_empty());
    }

    #[test]
    fn protected_prefix_longer_than_list_is_harmless() {
        let ld = vec![1, 2];
        let lp = vec![3];
        let mut rng = new_rng(0);
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &lp, 10, 0.5, &mut rng, &mut merged);
        assert_eq!(merged, vec![1, 2, 3]);
    }

    #[test]
    fn into_variant_matches_allocating_variant_and_reuses_storage() {
        let ld: Vec<usize> = (0..40).collect();
        let lp: Vec<usize> = (40..60).collect();
        let mut out = Vec::new();
        for seed in 0..20 {
            // A fresh vector per call against one reused (and never
            // cleared by the caller) across calls.
            let mut expected = Vec::new();
            merge_promoted_into(&ld, &lp, 3, 0.4, &mut new_rng(seed), &mut expected);
            merge_promoted_into(&ld, &lp, 3, 0.4, &mut new_rng(seed), &mut out);
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
            let mut full = Vec::new();
            merge_promoted_into(&ld, &lp, 3, 0.4, &mut new_rng(seed), &mut full);
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
        let mut merged = Vec::new();
        merge_promoted_into(&ld, &lp, 1, 0.2, &mut rng, &mut merged);
        let from_pool = merged[..1_000].iter().filter(|&&x| x >= 10_000).count();
        let fraction = from_pool as f64 / 1_000.0;
        assert!(
            (fraction - 0.2).abs() < 0.05,
            "observed promotion fraction {fraction}, expected ≈ 0.2"
        );
    }
}
