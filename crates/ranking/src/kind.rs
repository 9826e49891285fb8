//! [`PolicyKind`] — a closed, copyable enum over every ranking policy in
//! this crate.
//!
//! The simulator's day loop used to dispatch ranking through a
//! `Box<dyn RankingPolicy>`; that is flexible but puts a vtable call (and a
//! heap allocation per simulation) on the hottest path in the workspace.
//! All policies the workspace actually runs are the four defined here, so a
//! plain enum gives static dispatch, `Copy` semantics (policies are a few
//! words of configuration), and exhaustive matching — while still
//! implementing [`RankingPolicy`] for callers that want the trait.

use crate::buffers::RankBuffers;
use crate::cache::CorpusCache;
use crate::deterministic::{FullyRandomRanking, PopularityRanking, QualityOracleRanking};
use crate::policy::RankingPolicy;
use crate::promotion::{PromotionConfig, PromotionRule};
use crate::randomized::RandomizedRankPromotion;
use crate::stats::PageStats;
use rand::RngCore;

/// A closed enum over the crate's ranking policies (static dispatch).
///
/// Construct it directly, via `From` on any concrete policy, or with
/// [`PolicyKind::promotion`]. All methods forward to the corresponding
/// policy and consume identical RNG draws, so swapping a boxed policy for a
/// `PolicyKind` never changes simulation results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Strict descending-popularity ranking ([`PopularityRanking`]).
    Popularity,
    /// The hypothetical quality-ordered ideal ([`QualityOracleRanking`]).
    QualityOracle,
    /// A uniformly random permutation per query ([`FullyRandomRanking`]).
    FullyRandom,
    /// The paper's randomized rank promotion ([`RandomizedRankPromotion`]).
    Promotion(RandomizedRankPromotion),
}

impl PolicyKind {
    /// Randomized rank promotion with the given configuration.
    pub fn promotion(config: PromotionConfig) -> Self {
        PolicyKind::Promotion(RandomizedRankPromotion::new(config))
    }

    /// The paper's recommended recipe: selective promotion, `r = 0.1`,
    /// starting at `start_rank` (1 or 2).
    pub fn recommended(start_rank: usize) -> Self {
        PolicyKind::Promotion(RandomizedRankPromotion::recommended(start_rank))
    }

    /// Rank `pages` into `out` (see
    /// [`RankingPolicy::rank_into`]) with a `match` instead of a vtable.
    /// Generic over the RNG so concrete generators stay statically
    /// dispatched through the enum.
    pub fn rank_into<R: RngCore + ?Sized>(
        &self,
        pages: &[PageStats],
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        match self {
            PolicyKind::Popularity => PopularityRanking.rank_order_into(pages, out),
            PolicyKind::QualityOracle => QualityOracleRanking.rank_order_into(pages, out),
            PolicyKind::FullyRandom => FullyRandomRanking.shuffle_into(pages, rng, out),
            PolicyKind::Promotion(policy) => policy.rank_into(pages, rng, buffers, out),
        }
    }

    /// Allocating convenience wrapper over [`rank_into`](Self::rank_into)
    /// (the [`RankingPolicy`] provided method).
    pub fn rank(&self, pages: &[PageStats], rng: &mut dyn RngCore) -> Vec<usize> {
        RankingPolicy::rank(self, pages, rng)
    }

    /// Rank against a repaired [`CorpusCache`] (the stats, their
    /// popularity order and the [`PoolIndex`](crate::PoolIndex)) — the
    /// full ranking with `k = None`, else its first `min(k, n)` ranks.
    /// Output and RNG consumption are byte-identical to
    /// [`rank_into`](Self::rank_into) over `cache.stats()` (for promotion
    /// under engine v2, a Selective top-`k` draws the lazy stream instead).
    ///
    /// Promotion ranks through [`RandomizedRankPromotion::rank`] from
    /// [`CorpusCache::source`]; plain popularity ranking copies the order.
    /// The quality oracle and the fully-random shuffle read the whole
    /// population and are truncated afterwards. Only the Selective rule
    /// reads the pool index, so owners may leave it unmaintained otherwise
    /// (see [`reads_pool_index`](Self::reads_pool_index)).
    pub fn rank_view_into<R: RngCore + ?Sized>(
        &self,
        cache: &CorpusCache,
        k: Option<usize>,
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        let (pages, sorted) = (cache.stats(), cache.order());
        debug_assert_eq!(cache.dirty_len(), 0, "rank a repaired cache");
        debug_assert_eq!(sorted.len(), pages.len());
        let limit = k.unwrap_or(pages.len());
        match self {
            PolicyKind::Popularity => {
                out.clear();
                out.extend_from_slice(&sorted[..limit.min(sorted.len())]);
            }
            PolicyKind::QualityOracle => {
                QualityOracleRanking.rank_order_into(pages, out);
                out.truncate(limit);
            }
            PolicyKind::FullyRandom => {
                FullyRandomRanking.shuffle_into(pages, rng, out);
                out.truncate(limit);
            }
            PolicyKind::Promotion(policy) => {
                debug_assert!(
                    !self.reads_pool_index() || cache.pool().is_consistent(pages),
                    "the pool index must match a fresh is_unexplored scan"
                );
                policy.rank(cache.source(), k, rng, buffers, out)
            }
        }
    }

    /// Whether the pooled paths actually read the pool index: only the
    /// selective promotion rule does. Every other kind either ignores the
    /// pool entirely or (the Uniform rule) must re-draw its per-page
    /// coins, so callers that maintain a [`PoolIndex`](crate::PoolIndex)
    /// per step can skip its repair when this is `false` — the index is
    /// dead state for such a policy.
    pub fn reads_pool_index(&self) -> bool {
        matches!(
            self,
            PolicyKind::Promotion(policy) if policy.config().rule == PromotionRule::Selective
        )
    }

    /// The policy's report name (see [`RankingPolicy::name`]).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Popularity => PopularityRanking.name(),
            PolicyKind::QualityOracle => QualityOracleRanking.name(),
            PolicyKind::FullyRandom => FullyRandomRanking.name(),
            PolicyKind::Promotion(policy) => RankingPolicy::name(policy),
        }
    }
}

impl RankingPolicy for PolicyKind {
    fn rank_into(
        &self,
        pages: &[PageStats],
        rng: &mut dyn RngCore,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        PolicyKind::rank_into(self, pages, rng, buffers, out)
    }

    fn name(&self) -> String {
        PolicyKind::name(self)
    }
}

impl From<PopularityRanking> for PolicyKind {
    fn from(_: PopularityRanking) -> Self {
        PolicyKind::Popularity
    }
}

impl From<QualityOracleRanking> for PolicyKind {
    fn from(_: QualityOracleRanking) -> Self {
        PolicyKind::QualityOracle
    }
}

impl From<FullyRandomRanking> for PolicyKind {
    fn from(_: FullyRandomRanking) -> Self {
        PolicyKind::FullyRandom
    }
}

impl From<RandomizedRankPromotion> for PolicyKind {
    fn from(policy: RandomizedRankPromotion) -> Self {
        PolicyKind::Promotion(policy)
    }
}

impl From<PromotionConfig> for PolicyKind {
    fn from(config: PromotionConfig) -> Self {
        PolicyKind::promotion(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::is_permutation;
    use crate::promotion::PromotionRule;
    use rrp_model::{new_rng, PageId};

    fn pages() -> Vec<PageStats> {
        (0..30)
            .map(|slot| {
                let (pop, aw) = if slot % 3 == 0 {
                    (0.0, 0.0)
                } else {
                    (1.0 - slot as f64 * 0.02, 0.5)
                };
                PageStats::new(slot, PageId::new(slot as u64), pop, aw)
                    .with_age((slot % 7) as u64)
                    .with_quality(1.0 - slot as f64 * 0.01)
            })
            .collect()
    }

    fn all_kinds() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Popularity,
            PolicyKind::QualityOracle,
            PolicyKind::FullyRandom,
            PolicyKind::recommended(2),
            PolicyKind::promotion(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()),
        ]
    }

    #[test]
    fn enum_dispatch_matches_concrete_policies() {
        let ps = pages();
        let concrete: Vec<Box<dyn RankingPolicy>> = vec![
            Box::new(PopularityRanking),
            Box::new(QualityOracleRanking),
            Box::new(FullyRandomRanking),
            Box::new(RandomizedRankPromotion::recommended(2)),
            Box::new(RandomizedRankPromotion::new(
                PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
            )),
        ];
        for (kind, boxed) in all_kinds().iter().zip(&concrete) {
            for seed in 0..10 {
                let mut rng_a = new_rng(seed);
                let mut rng_b = new_rng(seed);
                assert_eq!(
                    kind.rank(&ps, &mut rng_a),
                    boxed.rank(&ps, &mut rng_b),
                    "{}",
                    kind.name()
                );
            }
            assert_eq!(kind.name(), boxed.name());
        }
    }

    fn cache_of(ps: &[PageStats], pool_maintained: bool) -> CorpusCache {
        let mut cache = CorpusCache::new();
        cache.set_pool_maintained(pool_maintained);
        cache.rebuild(ps.iter().copied());
        cache
    }

    #[test]
    fn presorted_path_matches_plain_path_for_every_kind() {
        let ps = pages();
        let cache = cache_of(&ps, true);
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();
        for kind in all_kinds() {
            for seed in 0..10 {
                let expected = kind.rank(&ps, &mut new_rng(seed));
                kind.rank_view_into(&cache, None, &mut new_rng(seed), &mut buffers, &mut out);
                assert_eq!(out, expected, "{}", kind.name());
                assert!(is_permutation(&out, ps.len()));
            }
        }
    }

    #[test]
    fn top_k_matches_the_full_rerank_prefix_for_every_kind() {
        let ps = pages();
        let cache = cache_of(&ps, true);
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();
        for kind in all_kinds() {
            for seed in 0..10 {
                let full = kind.rank(&ps, &mut new_rng(seed));
                for k in [0usize, 1, 2, 5, 10, 30, 64] {
                    kind.rank_view_into(
                        &cache,
                        Some(k),
                        &mut new_rng(seed),
                        &mut buffers,
                        &mut out,
                    );
                    assert_eq!(
                        out,
                        full[..k.min(full.len())],
                        "{} with k={k}, seed={seed}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_dispatch_matches_the_full_rerank_prefix_for_every_kind() {
        // Owners skip pool maintenance for kinds that never read the index
        // (the simulator does): an unmaintained, empty index must not
        // change their answers.
        let ps = pages();
        let cache = cache_of(&ps, false);
        let mut buffers = RankBuffers::new();
        let mut out = Vec::new();
        for kind in all_kinds().into_iter().filter(|k| !k.reads_pool_index()) {
            for seed in 0..10 {
                let full = kind.rank(&ps, &mut new_rng(seed));
                for k in [None, Some(0), Some(5), Some(64)] {
                    kind.rank_view_into(&cache, k, &mut new_rng(seed), &mut buffers, &mut out);
                    let want = &full[..k.unwrap_or(full.len()).min(full.len())];
                    assert_eq!(out, want, "{} k={k:?}, seed={seed}", kind.name());
                }
            }
        }
    }

    #[test]
    fn only_selective_promotion_reads_the_pool_index() {
        assert!(!PolicyKind::Popularity.reads_pool_index());
        assert!(!PolicyKind::QualityOracle.reads_pool_index());
        assert!(!PolicyKind::FullyRandom.reads_pool_index());
        assert!(PolicyKind::recommended(2).reads_pool_index());
        assert!(!PolicyKind::promotion(
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap()
        )
        .reads_pool_index());
    }

    #[test]
    fn from_impls_map_to_the_right_variant() {
        assert_eq!(PolicyKind::from(PopularityRanking), PolicyKind::Popularity);
        assert_eq!(
            PolicyKind::from(QualityOracleRanking),
            PolicyKind::QualityOracle
        );
        assert_eq!(
            PolicyKind::from(FullyRandomRanking),
            PolicyKind::FullyRandom
        );
        let config = PromotionConfig::recommended(2);
        assert_eq!(
            PolicyKind::from(RandomizedRankPromotion::new(config)),
            PolicyKind::promotion(config)
        );
        assert_eq!(PolicyKind::from(config), PolicyKind::recommended(2));
    }

    #[test]
    fn kind_is_copy_and_small() {
        let kind = PolicyKind::recommended(1);
        let copy = kind;
        assert_eq!(kind, copy);
        assert!(std::mem::size_of::<PolicyKind>() <= 40);
    }
}
