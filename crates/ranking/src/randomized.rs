//! The randomized rank-promotion policy (Section 4 of the paper).
//!
//! [`RandomizedRankPromotion`] combines the pieces defined elsewhere in this
//! crate:
//!
//! 1. select the promotion pool `P_p` according to the configured
//!    [`PromotionRule`] (uniform with probability `r`, or all
//!    zero-awareness pages);
//! 2. shuffle the pool into a random order `L_p`;
//! 3. rank the remaining pages deterministically by descending popularity
//!    into `L_d`;
//! 4. merge the two lists with the coin-flip procedure of
//!    [`merge_promoted`](crate::merge::merge_promoted), protecting the top
//!    `k − 1` deterministic results.

use crate::buffers::RankBuffers;
use crate::lazyshuffle::{merge_promoted_top_k_lazy_into, EngineVersion, LazyShuffle};
use crate::merge::{coin, coin_threshold, merge_promoted_into, merge_promoted_top_k_into};
use crate::promotion::{PromotionConfig, PromotionRule};
use crate::stats::{popularity_order, PageStats};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, CHUNK_WORDS};

/// What [`RandomizedRankPromotion::rank`] ranks. Every maintained-state
/// caller has this shape, whatever structure it keeps:
///
/// * `pool` — the promotion pool in pre-shuffle order (ascending slot),
///   read only by the Selective rule;
/// * `order` — slots in [`popularity_order`], best first;
/// * `in_pool` — pool membership, filtering the pool out of `order`.
///   `None` marks a *retrieved* source whose `order` already excludes the
///   pool and may stop after the first `k` entries.
///
/// The Uniform rule ignores `pool` and `in_pool` and draws its own pool
/// over the slots of `order`, so it needs a complete order.
#[derive(Clone, Copy, Debug)]
pub struct RankSource<'a, F = fn(usize) -> bool> {
    /// The promotion pool, ascending by slot.
    pub pool: &'a [usize],
    /// Slots in popularity order (complete, or a pool-free prefix).
    pub order: &'a [usize],
    /// Pool membership over `order`; `None` for a pool-free prefix.
    pub in_pool: Option<F>,
}

impl<'a, F: Fn(usize) -> bool> RankSource<'a, F> {
    /// A source over the complete popularity `order`, with `in_pool`
    /// telling the pool's members apart.
    pub fn new(pool: &'a [usize], order: &'a [usize], in_pool: F) -> Self {
        RankSource {
            pool,
            order,
            in_pool: Some(in_pool),
        }
    }
}

impl<'a> RankSource<'a> {
    /// A retrieved source: `rest` holds the first non-pool slots of the
    /// popularity order (at least `min(k, available)` for a top-`k` rank).
    /// Selective top-`k` only. Its only non-test caller is `benchmark/`,
    /// through [`merge_shard_candidates_into`](crate::merge_shard_candidates_into).
    pub fn retrieved(pool: &'a [usize], rest: &'a [usize]) -> Self {
        RankSource {
            pool,
            order: rest,
            in_pool: None,
        }
    }
}

/// The paper's randomized rank-promotion ranking policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedRankPromotion {
    config: PromotionConfig,
    version: EngineVersion,
}

impl RandomizedRankPromotion {
    /// Build the policy from a validated configuration (engine v1, the
    /// golden-pinned default stream).
    pub fn new(config: PromotionConfig) -> Self {
        RandomizedRankPromotion {
            config,
            version: EngineVersion::V1,
        }
    }

    /// The paper's recommended recipe: selective promotion, `r = 0.1`,
    /// starting at rank `start_rank` (1 or 2).
    pub fn recommended(start_rank: usize) -> Self {
        RandomizedRankPromotion::new(PromotionConfig::recommended(start_rank))
    }

    /// Opt into an explicit [`EngineVersion`]. Under
    /// [`V2`](EngineVersion::V2) the Selective top-k paths evaluate the
    /// pool shuffle lazily (at most `k` swap draws per query, zero
    /// `O(pool)` work) and therefore draw a different — distributionally
    /// equivalent — RNG stream than v1. Full reranks and the Uniform rule
    /// are bit-identical across versions.
    pub fn with_version(mut self, version: EngineVersion) -> Self {
        self.version = version;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> PromotionConfig {
        self.config
    }

    /// The engine version in use.
    pub fn version(&self) -> EngineVersion {
        self.version
    }

    /// Split the input into (promotion pool, deterministic remainder),
    /// returning indices into `pages`. Test-only convenience over
    /// [`split_pool_into`](Self::split_pool_into).
    #[cfg(test)]
    fn split_pool(&self, pages: &[PageStats], rng: &mut dyn RngCore) -> (Vec<usize>, Vec<usize>) {
        let mut pool = Vec::new();
        let mut rest = Vec::new();
        self.split_pool_into(pages, rng, &mut pool, &mut rest);
        (pool, rest)
    }

    /// [`split_pool`](Self::split_pool) writing into caller-supplied vectors
    /// (cleared first). The Uniform rule draws one coin per page, in input
    /// order; the Selective rule draws nothing.
    fn split_pool_into<R: RngCore + ?Sized>(
        &self,
        pages: &[PageStats],
        rng: &mut R,
        pool: &mut Vec<usize>,
        rest: &mut Vec<usize>,
    ) {
        pool.clear();
        rest.clear();
        match self.config.rule {
            PromotionRule::Selective => {
                for (i, p) in pages.iter().enumerate() {
                    if p.is_unexplored() {
                        pool.push(i);
                    } else {
                        rest.push(i);
                    }
                }
            }
            PromotionRule::Uniform => {
                for (i, _) in pages.iter().enumerate() {
                    if rng.gen::<f64>() < self.config.degree {
                        pool.push(i);
                    } else {
                        rest.push(i);
                    }
                }
            }
        }
    }

    /// Rank from a [`RankSource`]: the one entry point every maintained-
    /// state caller (serving tier, engine, simulator) goes through. With
    /// `k = None` it emits the full ranking; with `Some(k)` the first
    /// `min(k, n)` ranks, `L_d` materialised only up to `k` entries and the
    /// coin-flip merge stopped at rank `k`.
    ///
    /// The draw sequence is the scanning [`rank_into`](Self::rank_into)'s:
    /// the Selective rule copies the pool in its pre-shuffle order and
    /// shuffles it in full (its size and order are observable in any
    /// prefix); the Uniform rule draws one coin per slot `0..order.len()`
    /// in slot order; then the coin-flip merge. Given a source equivalent
    /// to a corpus, the output (slots) is byte-identical to `rank_into`
    /// over that corpus, and under [`EngineVersion::V1`] a top-`k` answer
    /// is the length-`k` prefix of the full one.
    ///
    /// Under [`EngineVersion::V2`] a Selective top-`k` query neither copies
    /// nor shuffles the pool: a [`LazyShuffle`] draws one swap index per
    /// pool entry the merge consumes, at most `k` per query (counted in
    /// [`RankBuffers::take_pool_draws`]). Its output is its own, separately
    /// golden-pinned stream. Full ranks and the Uniform rule are identical
    /// across versions.
    ///
    /// # Panics
    /// Panics for the Uniform rule on a [`RankSource::retrieved`] source:
    /// its per-page coins need the complete popularity order.
    pub fn rank<F: Fn(usize) -> bool, R: RngCore + ?Sized>(
        &self,
        source: RankSource<'_, F>,
        k: Option<usize>,
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        let RankSource {
            pool,
            order,
            in_pool,
        } = source;
        match in_pool {
            Some(in_pool) => self.rank_lists(pool, order, in_pool, k, rng, buffers, out),
            None => {
                assert_eq!(
                    self.config.rule,
                    PromotionRule::Selective,
                    "the Uniform rule draws per-page coins and needs the complete popularity order"
                );
                self.rank_lists(pool, order, |_| false, k, rng, buffers, out)
            }
        }
    }

    /// The body of [`rank`](Self::rank) once pool membership is a plain
    /// predicate: build `L_p` and `L_d`, then merge. There is exactly one
    /// copy of this draw sequence, so no two serving routes can drift
    /// apart in their RNG streams.
    #[allow(clippy::too_many_arguments)]
    fn rank_lists<R: RngCore + ?Sized>(
        &self,
        pool: &[usize],
        order: &[usize],
        in_pool: impl Fn(usize) -> bool,
        k: Option<usize>,
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        let PromotionConfig {
            start_rank, degree, ..
        } = self.config;
        // `L_d` never needs more than `k` entries: each rank consumes at
        // most one. Filling it draws nothing.
        let rest_limit = k.unwrap_or(order.len());
        match self.config.rule {
            PromotionRule::Selective => {
                debug_assert!(pool.windows(2).all(|w| w[0] < w[1]));
                let RankBuffers {
                    pool: pool_buf,
                    rest,
                    overlay,
                    ..
                } = &mut *buffers;
                fill_rest(order, in_pool, rest_limit, rest);
                if let (Some(k), EngineVersion::V2) = (k, self.version) {
                    // The lazy back half: merge over the unshuffled pool.
                    let mut lazy = LazyShuffle::new(pool, overlay);
                    merge_promoted_top_k_lazy_into(
                        rest, &mut lazy, start_rank, degree, k, rng, out,
                    );
                    let draws = lazy.draws();
                    buffers.count_pool_draws(draws);
                    return;
                }
                pool_buf.clear();
                pool_buf.extend_from_slice(pool);
            }
            PromotionRule::Uniform => {
                buffers.reset_mask(order.len());
                let RankBuffers {
                    pool: pool_buf,
                    rest,
                    mask,
                    ..
                } = &mut *buffers;
                pool_buf.clear();
                // One coin per slot, so every word of every chunk is
                // consumed: draw them `CHUNK_WORDS` at a time.
                let threshold = coin_threshold(degree);
                let mut words = [0u64; CHUNK_WORDS];
                for (chunk, promoted) in mask.chunks_mut(CHUNK_WORDS).enumerate() {
                    let words = &mut words[..promoted.len()];
                    rng.fill_u64(words);
                    for (i, (promoted, &word)) in promoted.iter_mut().zip(&*words).enumerate() {
                        if coin(word, threshold) {
                            *promoted = true;
                            pool_buf.push(chunk * CHUNK_WORDS + i);
                        }
                    }
                }
                fill_rest(order, |s| mask[s], rest_limit, rest);
            }
        }
        // `L_p`: the whole pool shuffled — its size and order are
        // observable within any prefix.
        let RankBuffers { pool, rest, .. } = buffers;
        pool.shuffle(rng);
        match k {
            None => merge_promoted_into(rest, pool, start_rank, degree, rng, out),
            Some(k) => merge_promoted_top_k_into(rest, pool, start_rank, degree, k, rng, out),
        }
    }

    /// Rank `pages` by scanning them: split the pool, shuffle it, sort the
    /// rest, merge ([`PolicyKind::rank_into`](crate::PolicyKind::rank_into)
    /// for this policy). The reference the maintained-state
    /// [`rank`](Self::rank) is held to.
    pub fn rank_into<R: RngCore + ?Sized>(
        &self,
        pages: &[PageStats],
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        // `pool` and `rest` hold indices into `pages` here.
        let RankBuffers { pool, rest, .. } = buffers;
        self.split_pool_into(pages, rng, pool, rest);

        // L_p: the promotion pool in random order.
        pool.shuffle(rng);

        // L_d: remaining pages in descending popularity order
        // (`popularity_order` is total, so the unstable sort is
        // deterministic and allocation-free).
        rest.sort_unstable_by(|&a, &b| popularity_order(&pages[a], &pages[b]));

        // Map indices into `pages` to slot indices, in place.
        for index in pool.iter_mut() {
            *index = pages[*index].slot;
        }
        for index in rest.iter_mut() {
            *index = pages[*index].slot;
        }

        merge_promoted_into(
            rest,
            pool,
            self.config.start_rank,
            self.config.degree,
            rng,
            out,
        );
    }
}

/// Fill `rest` (`L_d`) with the first `rest_limit` entries of `sorted`
/// outside the pool — shared by both rules, which differ only in how they
/// *source* pool membership (the caller's predicate vs. freshly drawn
/// coins).
fn fill_rest(
    sorted: &[usize],
    in_pool: impl Fn(usize) -> bool,
    rest_limit: usize,
    rest: &mut Vec<usize>,
) {
    rest.clear();
    rest.extend(
        sorted
            .iter()
            .copied()
            .filter(|&s| !in_pool(s))
            .take(rest_limit),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::is_permutation;
    use crate::poolindex::PoolIndex;
    use crate::PolicyKind;
    use rrp_model::{new_rng, PageId};

    /// 10 pages: slots 0..5 are established (popularity descending with
    /// slot), slots 5..10 have zero awareness.
    fn pages() -> Vec<PageStats> {
        (0..10)
            .map(|slot| {
                let (pop, aw) = if slot < 5 {
                    (0.5 - slot as f64 * 0.1, 0.8)
                } else {
                    (0.0, 0.0)
                };
                PageStats::new(slot, PageId::new(slot as u64), pop, aw).with_age(10)
            })
            .collect()
    }

    #[test]
    fn output_is_always_a_permutation() {
        let policy = RandomizedRankPromotion::recommended(2);
        for seed in 0..100 {
            let mut rng = new_rng(seed);
            let order = PolicyKind::Promotion(policy).rank(&pages(), &mut rng);
            assert!(is_permutation(&order, 10));
        }
    }

    #[test]
    fn selective_pool_is_exactly_zero_awareness_pages() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.5).unwrap(),
        );
        let ps = pages();
        let mut rng = new_rng(7);
        let (pool, rest) = policy.split_pool(&ps, &mut rng);
        let pool_slots: Vec<usize> = pool.iter().map(|&i| ps[i].slot).collect();
        assert_eq!(pool_slots, vec![5, 6, 7, 8, 9]);
        assert_eq!(rest.len(), 5);
    }

    #[test]
    fn uniform_pool_size_tracks_degree() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        );
        let ps: Vec<PageStats> = (0..10_000)
            .map(|s| PageStats::new(s, PageId::new(s as u64), 0.1, 0.5))
            .collect();
        let mut rng = new_rng(11);
        let (pool, rest) = policy.split_pool(&ps, &mut rng);
        let fraction = pool.len() as f64 / ps.len() as f64;
        assert!((fraction - 0.3).abs() < 0.03, "pool fraction {fraction}");
        assert_eq!(pool.len() + rest.len(), ps.len());
    }

    #[test]
    fn k2_protects_the_top_result() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 2, 0.9).unwrap(),
        );
        for seed in 0..50 {
            let mut rng = new_rng(seed);
            let order = PolicyKind::Promotion(policy).rank(&pages(), &mut rng);
            assert_eq!(
                order[0], 0,
                "slot 0 has the highest popularity and k=2 protects it"
            );
        }
    }

    #[test]
    fn k1_can_displace_the_top_result() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.9).unwrap(),
        );
        let mut displaced = false;
        for seed in 0..50 {
            let mut rng = new_rng(seed);
            let order = PolicyKind::Promotion(policy).rank(&pages(), &mut rng);
            if order[0] != 0 {
                displaced = true;
                break;
            }
        }
        assert!(
            displaced,
            "with k=1 and r=0.9 the top slot should sometimes be displaced"
        );
    }

    #[test]
    fn zero_degree_selective_still_appends_pool_at_bottom() {
        // With r = 0 no coin flip ever picks the pool, so unexplored pages
        // end up after all established pages — equivalent to deterministic
        // ranking with zero-popularity pages last.
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 0.0).unwrap(),
        );
        let mut rng = new_rng(5);
        let order = PolicyKind::Promotion(policy).rank(&pages(), &mut rng);
        assert_eq!(&order[..5], &[0, 1, 2, 3, 4]);
        let mut tail: Vec<usize> = order[5..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn established_pages_keep_relative_order() {
        let policy = RandomizedRankPromotion::recommended(1);
        for seed in 0..20 {
            let mut rng = new_rng(seed);
            let order = PolicyKind::Promotion(policy).rank(&pages(), &mut rng);
            let positions: Vec<usize> = (0..5)
                .map(|slot| order.iter().position(|&s| s == slot).unwrap())
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "established pages must stay in popularity order"
            );
        }
    }

    #[test]
    fn unexplored_pages_reach_top_ten_with_full_randomization() {
        // With r=1 and k=1 all zero-awareness pages are placed before the
        // established pages.
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Selective, 1, 1.0).unwrap(),
        );
        let mut rng = new_rng(2);
        let order = PolicyKind::Promotion(policy).rank(&pages(), &mut rng);
        let mut head: Vec<usize> = order[..5].to_vec();
        head.sort_unstable();
        assert_eq!(head, vec![5, 6, 7, 8, 9]);
    }

    /// `pages()` as a source: its popularity order and pool index.
    fn sorted_and_pool(ps: &[PageStats]) -> (Vec<usize>, PoolIndex) {
        let mut sorted: Vec<usize> = (0..ps.len()).collect();
        sorted.sort_unstable_by(|&a, &b| popularity_order(&ps[a], &ps[b]));
        (sorted, PoolIndex::build(ps))
    }

    #[test]
    #[should_panic(expected = "per-page coins")]
    fn candidate_path_rejects_the_uniform_rule() {
        let policy = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        );
        policy.rank(
            RankSource::retrieved(&[], &[0, 1, 2]),
            Some(3),
            &mut new_rng(0),
            &mut RankBuffers::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn pooled_selective_path_never_resets_the_mask() {
        let ps = pages();
        let (sorted, pool) = sorted_and_pool(&ps);
        let source = RankSource::new(pool.members(), &sorted, |s| pool.contains(s));
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();

        let selective = RandomizedRankPromotion::recommended(2);
        selective.rank(source, Some(5), &mut new_rng(3), &mut buffers, &mut out);
        selective.rank(source, None, &mut new_rng(3), &mut buffers, &mut out);
        assert_eq!(buffers.take_mask_resets(), 0, "selective: no reset");

        let uniform = RandomizedRankPromotion::new(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        );
        uniform.rank(source, Some(5), &mut new_rng(3), &mut buffers, &mut out);
        assert_eq!(
            buffers.take_mask_resets(),
            1,
            "the Uniform rule must keep drawing its per-page coins"
        );
    }

    #[test]
    fn v2_routes_agree_and_draw_at_most_k_swaps() {
        let ps = pages();
        let (sorted, pool) = sorted_and_pool(&ps);
        let complete = RankSource::new(pool.members(), &sorted, |s| pool.contains(s));
        let mut buffers = RankBuffers::new();
        let (mut full, mut retrieved) = (Vec::new(), Vec::new());
        for start_rank in [1usize, 2, 4] {
            let policy = RandomizedRankPromotion::new(
                PromotionConfig::new(PromotionRule::Selective, start_rank, 0.4).unwrap(),
            )
            .with_version(EngineVersion::V2);
            assert_eq!(policy.version(), EngineVersion::V2);
            for k in [0usize, 1, 3, 5, 10, 50] {
                let rest_slots: Vec<usize> = sorted
                    .iter()
                    .copied()
                    .filter(|&s| !pool.contains(s))
                    .take(k)
                    .collect();
                for seed in 0..20 {
                    policy.rank(
                        complete,
                        Some(k),
                        &mut new_rng(seed),
                        &mut buffers,
                        &mut full,
                    );
                    let draws = buffers.take_pool_draws();
                    assert!(draws <= k as u64, "k={k}, seed={seed}: {draws} draws");
                    policy.rank(
                        RankSource::retrieved(pool.members(), &rest_slots),
                        Some(k),
                        &mut new_rng(seed),
                        &mut buffers,
                        &mut retrieved,
                    );
                    assert_eq!(retrieved, full, "retrieved≡complete, k={k}, seed={seed}");
                    assert_eq!(buffers.take_pool_draws(), draws, "retrieved draw count");
                    // The prefix is made of distinct slots and protects
                    // the deterministic top start_rank − 1.
                    let mut dedup = full.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    assert_eq!(dedup.len(), full.len(), "no slot emitted twice");
                    let protected = (start_rank - 1).min(k).min(rest_slots.len());
                    assert_eq!(
                        &full[..protected],
                        &rest_slots[..protected],
                        "protected prefix, k={k}, seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn v2_leaves_the_uniform_rule_and_full_reranks_bit_identical() {
        let ps = pages();
        let (sorted, pool) = sorted_and_pool(&ps);
        let source = RankSource::new(pool.members(), &sorted, |s| pool.contains(s));
        let mut buffers = RankBuffers::new();
        let (mut v1_out, mut v2_out) = (Vec::new(), Vec::new());
        for rule in [PromotionRule::Selective, PromotionRule::Uniform] {
            let v1 = RandomizedRankPromotion::new(PromotionConfig::new(rule, 2, 0.4).unwrap());
            let v2 = v1.with_version(EngineVersion::V2);
            for seed in 0..20 {
                // Full ranks never take the lazy route under either rule.
                v1.rank(source, None, &mut new_rng(seed), &mut buffers, &mut v1_out);
                v2.rank(source, None, &mut new_rng(seed), &mut buffers, &mut v2_out);
                assert_eq!(v2_out, v1_out, "full {rule:?}, seed={seed}");
                if rule == PromotionRule::Uniform {
                    // Uniform top-k is v1-identical too: per-page coins
                    // dominate, so there is no lazy stream for it.
                    v1.rank(
                        source,
                        Some(5),
                        &mut new_rng(seed),
                        &mut buffers,
                        &mut v1_out,
                    );
                    v2.rank(
                        source,
                        Some(5),
                        &mut new_rng(seed),
                        &mut buffers,
                        &mut v2_out,
                    );
                    assert_eq!(v2_out, v1_out, "uniform top-k, seed={seed}");
                    assert_eq!(buffers.take_pool_draws(), 0, "no lazy draws for Uniform");
                }
            }
        }
    }

    #[test]
    fn name_reports_configuration() {
        let policy = RandomizedRankPromotion::recommended(2);
        let name = PolicyKind::Promotion(policy).name();
        assert!(name.contains("selective"));
        assert!(name.contains("k=2"));
        assert_eq!(policy.config().degree, 0.1);
    }

    #[test]
    fn empty_input_is_fine() {
        let policy = RandomizedRankPromotion::recommended(1);
        let mut rng = new_rng(0);
        assert!(PolicyKind::Promotion(policy).rank(&[], &mut rng).is_empty());
    }
}
