//! Distributional equivalence of engine v1 and engine v2.
//!
//! Engine v2 replaces the eager copy-and-shuffle of the promotion pool
//! with the lazy Fisher–Yates overlay — a different *stream* of RNG draws
//! (one swap per consumed position, interleaved with the merge coins)
//! but, by construction, the same *distribution*: a uniformly random pool
//! permutation independent of an i.i.d. Bernoulli(`degree`) coin
//! sequence. The paper's guarantees (Section 4's promotion probabilities
//! and the resulting quality-discovery dynamics) are statements about
//! that distribution, so v2 is only a faithful engine if no marginal an
//! experiment can observe moves.
//!
//! This suite pins that: over many seeds, the per-position probability
//! that a top-k slot holds a promoted (pool) page, and each individual
//! pool member's appearance frequency in the top k, must agree between
//! v1 and v2 within a tolerance a few standard errors wide. A lazy
//! shuffle that drew one swap too few (biasing late positions toward the
//! pool's tail) or re-used an overlay entry (double-promoting a member)
//! would pass every permutation test and fail here.
//!
//! The default case count keeps `cargo test` fast; CI additionally runs
//! this file in release with `PROPTEST_CASES=1024` for statistical depth.

use proptest::prelude::*;
use rrp_model::new_rng;
use rrp_ranking::{
    EngineVersion, PromotionConfig, PromotionRule, RandomizedRankPromotion, RankBuffers, RankSource,
};

/// Trials per proptest case. Each trial is one paired (v1, v2) top-k
/// query from the same trial seed; with 512 Bernoulli samples per
/// marginal the standard error of a frequency difference is at most
/// `sqrt(2 · 0.25 / 512) ≈ 0.031`.
const TRIALS: u64 = 512;

/// Acceptance band for a frequency difference: five standard errors.
const TOLERANCE: f64 = 0.16;

/// One accumulated set of marginals: how often each output position held
/// a pool member, and how often each pool member appeared in the top k.
#[derive(Clone)]
struct Marginals {
    position_hits: Vec<u64>,
    member_hits: Vec<u64>,
}

impl Marginals {
    fn new(k: usize, pool: usize) -> Self {
        Marginals {
            position_hits: vec![0; k],
            member_hits: vec![0; pool],
        }
    }

    fn record(&mut self, out: &[usize], pool_len: usize) {
        for (position, &slot) in out.iter().enumerate() {
            if slot < pool_len {
                self.position_hits[position] += 1;
                self.member_hits[slot] += 1;
            }
        }
    }
}

proptest! {
    /// For an arbitrary selective configuration and pool/rest split, the
    /// promoted-slot marginals of v2's lazy top-k match v1's eager
    /// top-k within tolerance over many seeds.
    #[test]
    fn v2_promoted_slot_marginals_match_v1(
        base_seed in proptest::num::u64::ANY,
        start_rank in 1usize..6,
        degree in 0.05f64..=0.95,
        pool_len in 3usize..9,
        rest_len in 8usize..21,
        k in 4usize..13,
    ) {
        let config = PromotionConfig::new(PromotionRule::Selective, start_rank, degree).unwrap();
        let v1 = RandomizedRankPromotion::new(config);
        let v2 = v1.with_version(EngineVersion::V2);

        // Pool members occupy slots `0..pool_len`, the popularity-ordered
        // rest the slots after them — the retrieved-path shape both
        // versions serve, with disjoint slot ranges so membership of an
        // output slot is a plain comparison.
        let pool: Vec<usize> = (0..pool_len).collect();
        let rest: Vec<u32> = (pool_len as u32..(pool_len + rest_len) as u32).collect();
        let source = RankSource::retrieved(&pool, &rest);

        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();
        let mut m1 = Marginals::new(k, pool_len);
        let mut m2 = Marginals::new(k, pool_len);
        for trial in 0..TRIALS {
            let seed = base_seed.wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            v1.rank(source, Some(k), &mut new_rng(seed), &mut buffers, &mut out);
            m1.record(&out, pool_len);
            v2.rank(source, Some(k), &mut new_rng(seed), &mut buffers, &mut out);
            m2.record(&out, pool_len);
            prop_assert!(buffers.take_pool_draws() <= k as u64, "v2 must stay O(k) draws");
        }

        let freq = |hits: u64| hits as f64 / TRIALS as f64;
        for (position, (&h1, &h2)) in m1.position_hits.iter().zip(&m2.position_hits).enumerate() {
            prop_assert!(
                (freq(h1) - freq(h2)).abs() <= TOLERANCE,
                "position {} pool-occupancy drifted: v1 {:.3} vs v2 {:.3}",
                position,
                freq(h1),
                freq(h2)
            );
        }
        for (member, (&h1, &h2)) in m1.member_hits.iter().zip(&m2.member_hits).enumerate() {
            prop_assert!(
                (freq(h1) - freq(h2)).abs() <= TOLERANCE,
                "pool member {} appearance drifted: v1 {:.3} vs v2 {:.3}",
                member,
                freq(h1),
                freq(h2)
            );
        }

        // The total promoted mass (summed over positions) is the
        // tightest aggregate — `k · TRIALS` samples — and must agree
        // within the same band.
        let total = |m: &Marginals| m.position_hits.iter().sum::<u64>() as f64
            / (TRIALS as f64 * k as f64);
        prop_assert!(
            (total(&m1) - total(&m2)).abs() <= TOLERANCE / 2.0,
            "aggregate promoted mass drifted: v1 {:.4} vs v2 {:.4}",
            total(&m1),
            total(&m2)
        );
    }
}
