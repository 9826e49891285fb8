//! The bulk-draw paths against the per-draw loops they replaced.
//!
//! `SliceRandom::shuffle`, the coin-flip merges and the Uniform rule's
//! coin scan draw their words in `CHUNK_WORDS` chunks through
//! `RngCore::fill_u64`, and the merges flip an integer coin. The per-draw
//! loops they replaced live here as the reference: each property runs
//! both from the same word stream and asserts the same output and the
//! same number of words read. The stream is `Scripted`, which mixes in
//! words every non-power-of-two span rejects and words on either side of
//! the coin's threshold; the generator's own `fill_u64` is checked
//! against `next_u64` under arbitrary interleavings.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use rrp_model::{new_rng, PageId};
use rrp_ranking::{
    merge_promoted_into, merge_promoted_top_k_into, popularity_order, PageStats, PolicyKind,
    PromotionConfig, PromotionRule, RandomizedRankPromotion, RankBuffers, RankSource,
};

/// A scripted word stream: word `i` is a pure function of `(seed, i)`,
/// so two runs from the same seed read the same words, and `drawn`
/// counts the words read. One word in eight is `u64::MAX`, which every
/// non-power-of-two span rejects; one in four sits on the coin's
/// boundary for the integer threshold `edge`.
struct Scripted {
    seed: u64,
    edge: u64,
    drawn: u64,
}

impl Scripted {
    fn new(seed: u64, degree: f64) -> Self {
        Scripted {
            seed,
            edge: (degree * (1u64 << 53) as f64).ceil() as u64,
            drawn: 0,
        }
    }
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let mut state = self.seed ^ self.drawn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.drawn += 1;
        let word = rand::splitmix64(&mut state);
        match word % 8 {
            0 => u64::MAX,
            // The first word that does not promote, and the last that does.
            1 => self.edge << 11,
            2 => (self.edge.wrapping_sub(1) << 11) | 0x7FF,
            _ => word,
        }
    }
}

/// The per-draw Fisher–Yates shuffle: one `gen_range` per step.
fn shuffle_per_draw<T, R: RngCore + ?Sized>(values: &mut [T], rng: &mut R) {
    for i in (1..values.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        values.swap(i, j);
    }
}

/// The per-draw full merge: one float coin per rank until a list runs out.
fn merge_per_draw<R: RngCore + ?Sized>(
    deterministic: &[usize],
    promoted: &[usize],
    start_rank: usize,
    degree: f64,
    rng: &mut R,
) -> Vec<usize> {
    let mut result = Vec::new();
    let protected = (start_rank - 1).min(deterministic.len());
    let mut d_iter = deterministic.iter().copied();
    let mut p_iter = promoted.iter().copied();
    result.extend(d_iter.by_ref().take(protected));
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
    result
}

/// The per-draw top-`k` merge: the full merge's coins, stopped at rank `k`.
fn merge_top_k_per_draw<R: RngCore + ?Sized>(
    deterministic: &[usize],
    promoted: &[usize],
    start_rank: usize,
    degree: f64,
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut result = Vec::new();
    let protected = (start_rank - 1).min(deterministic.len()).min(k);
    let mut d_iter = deterministic.iter().copied();
    let mut p_iter = promoted.iter().copied();
    result.extend(d_iter.by_ref().take(protected));
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
    result
}

/// Degrees at and between the edges, where the integer coin must agree
/// with the float one.
fn arb_degree() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1.0),
        Just(0.1),
        Just(0.5),
        Just(f64::from_bits(1)),
        Just(1.0 - f64::EPSILON / 2.0),
        0.0f64..=1.0,
    ]
}

proptest! {
    #[test]
    fn fill_u64_interleavings_match_next_u64(
        seed in proptest::num::u64::ANY,
        ops in prop::collection::vec((0u8..3, 0usize..300), 0..24),
    ) {
        let mut filled = new_rng(seed);
        let mut stepped = new_rng(seed);
        for (kind, len) in ops {
            match kind {
                0 => prop_assert_eq!(filled.next_u32(), stepped.next_u32()),
                1 => prop_assert_eq!(filled.next_u64(), stepped.next_u64()),
                _ => {
                    let mut words = vec![0; len];
                    filled.fill_u64(&mut words);
                    let expected: Vec<u64> = (0..len).map(|_| stepped.next_u64()).collect();
                    prop_assert_eq!(words, expected);
                }
            }
            prop_assert_eq!(filled.get_word_pos(), stepped.get_word_pos());
        }
        prop_assert!(filled == stepped, "generator states differ");
    }

    #[test]
    fn chunked_shuffle_matches_per_draw_shuffle(
        seed in proptest::num::u64::ANY,
        len in 0usize..1_500,
        skip in 0usize..3,
    ) {
        let mut chunked: Vec<usize> = (0..len).collect();
        let mut per_draw = chunked.clone();
        let (mut a, mut b) = (Scripted::new(seed, 0.5), Scripted::new(seed, 0.5));
        chunked.shuffle(&mut a);
        shuffle_per_draw(&mut per_draw, &mut b);
        prop_assert_eq!(&chunked, &per_draw);
        prop_assert_eq!(a.drawn, b.drawn);

        // The workspace generator, from an even or odd word offset.
        let (mut a, mut b) = (new_rng(seed), new_rng(seed));
        for _ in 0..skip {
            a.next_u32();
            b.next_u32();
        }
        chunked.shuffle(&mut a);
        shuffle_per_draw(&mut per_draw, &mut b);
        prop_assert_eq!(chunked, per_draw);
        prop_assert!(a == b, "generator states differ");
    }

    #[test]
    fn chunked_merges_match_per_draw_merges(
        seed in proptest::num::u64::ANY,
        d_len in 0usize..700,
        p_len in 0usize..700,
        start_rank in 1usize..6,
        degree in arb_degree(),
        k in 0usize..1_500,
    ) {
        let d: Vec<usize> = (0..d_len).collect();
        let p: Vec<usize> = (d_len..d_len + p_len).collect();
        let mut out = Vec::new();

        let (mut a, mut b) = (Scripted::new(seed, degree), Scripted::new(seed, degree));
        merge_promoted_into(&d, &p, start_rank, degree, &mut a, &mut out);
        prop_assert_eq!(&out, &merge_per_draw(&d, &p, start_rank, degree, &mut b));
        prop_assert_eq!(a.drawn, b.drawn);

        let (mut a, mut b) = (Scripted::new(seed, degree), Scripted::new(seed, degree));
        merge_promoted_top_k_into(&d, &p, start_rank, degree, k, &mut a, &mut out);
        prop_assert_eq!(&out, &merge_top_k_per_draw(&d, &p, start_rank, degree, k, &mut b));
        prop_assert_eq!(a.drawn, b.drawn);
    }

    #[test]
    fn chunked_uniform_scan_matches_per_page_coins(
        seed in proptest::num::u64::ANY,
        n in 0usize..700,
        start_rank in 1usize..4,
        degree in arb_degree(),
    ) {
        // The scanning rank flips its Uniform coins one float draw per
        // page; the maintained-state rank draws them in chunks.
        let pages: Vec<PageStats> = (0..n)
            .map(|slot| {
                let popularity = ((slot * 7_919) % 997 + 1) as f64 / 1e3;
                PageStats::new(slot, PageId::new(slot as u64), popularity, 0.5)
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, start_rank, degree).unwrap(),
        );
        let mut buffers = RankBuffers::new();
        let (mut chunked, mut scanned) = (Vec::new(), Vec::new());
        let (mut a, mut b) = (Scripted::new(seed, degree), Scripted::new(seed, degree));
        policy.rank(RankSource::new(&[], &order, |_| false), None, &mut a, &mut buffers, &mut chunked);
        PolicyKind::Promotion(policy).rank_into(&pages, &mut b, &mut buffers, &mut scanned);
        prop_assert_eq!(chunked, scanned);
        prop_assert_eq!(a.drawn, b.drawn);
    }
}
