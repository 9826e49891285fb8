//! [`PolicyKind`] — the one ranking-policy type: a closed, copyable enum
//! over the four rankings the paper compares. A plain enum gives static
//! dispatch, `Copy` semantics (policies are a few words of configuration)
//! and exhaustive matching.

use crate::buffers::RankBuffers;
use crate::cache::CorpusCache;
use crate::promotion::{PromotionConfig, PromotionRule};
use crate::randomized::RandomizedRankPromotion;
use crate::stats::{popularity_order, PageStats};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::cmp::Ordering;

/// A closed enum over the crate's ranking policies (static dispatch).
///
/// Construct it directly, via `From` on a [`RandomizedRankPromotion`] or a
/// [`PromotionConfig`], or with [`PolicyKind::promotion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The standard search-engine behaviour the paper calls
    /// "nonrandomized ranking": strictly descending popularity (ties
    /// broken by age, then slot index).
    Popularity,
    /// Hypothetical ideal ranking by descending intrinsic quality (ties
    /// broken by slot index). No real engine can implement this (quality
    /// is unobservable); it defines the QPC = 1.0 normalisation of
    /// Figures 5–7, against which all other policies are measured.
    QualityOracle,
    /// Uniformly random ranking: every permutation is equally likely, each
    /// query. The completely random case `F(x) = v · 1/n` discussed below
    /// Equation 2 of the paper.
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

    /// Produce the result ordering for one query / one simulation day,
    /// writing it into `out` (cleared first) and drawing any scratch space
    /// from `buffers`.
    ///
    /// The output is a permutation of the *slot indices* of the input: the
    /// page at `out[0]` is shown at rank 1, `out[1]` at rank 2, and so on.
    /// Randomized policies draw from `rng`, so simulations are
    /// reproducible; the two sorts draw nothing. Hot paths (the simulator
    /// day loop, batch serving) reuse the same arena and output vector
    /// across calls, so ranking never allocates after warm-up.
    pub fn rank_into<R: RngCore + ?Sized>(
        &self,
        pages: &[PageStats],
        rng: &mut R,
        buffers: &mut RankBuffers,
        out: &mut Vec<usize>,
    ) {
        match self {
            PolicyKind::Popularity => sort_slots_by(pages, out, popularity_order),
            PolicyKind::QualityOracle => sort_slots_by(pages, out, |a, b| {
                b.quality
                    .partial_cmp(&a.quality)
                    .expect("quality is never NaN")
                    .then_with(|| a.slot.cmp(&b.slot))
            }),
            PolicyKind::FullyRandom => {
                out.clear();
                out.extend(pages.iter().map(|p| p.slot));
                out.shuffle(rng);
            }
            PolicyKind::Promotion(policy) => policy.rank_into(pages, rng, buffers, out),
        }
    }

    /// Allocating convenience wrapper over [`rank_into`](Self::rank_into):
    /// a fresh arena and output vector per call, the same ordering from the
    /// same RNG state. Prefer `rank_into` anywhere throughput matters.
    pub fn rank<R: RngCore + ?Sized>(&self, pages: &[PageStats], rng: &mut R) -> Vec<usize> {
        let mut out = Vec::with_capacity(pages.len());
        self.rank_into(pages, rng, &mut RankBuffers::new(), &mut out);
        out
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
    /// population through `rank_into` and are truncated afterwards. Only
    /// the Selective rule reads the pool index, so owners may leave it
    /// unmaintained otherwise (see
    /// [`reads_pool_index`](Self::reads_pool_index)).
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
                out.extend(
                    sorted[..limit.min(sorted.len())]
                        .iter()
                        .map(|&s| s as usize),
                );
            }
            PolicyKind::QualityOracle | PolicyKind::FullyRandom => {
                self.rank_into(pages, rng, buffers, out);
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

    /// A short human-readable name used in experiment reports
    /// (e.g. `"no randomization"`, `"selective (r=0.1, k=1)"`).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Popularity => "no randomization".to_owned(),
            PolicyKind::QualityOracle => "quality oracle".to_owned(),
            PolicyKind::FullyRandom => "fully random".to_owned(),
            PolicyKind::Promotion(policy) => policy.config().label(),
        }
    }
}

/// Write the slots of `pages` into `out` (cleared first), sorted by `cmp`.
/// Both callers' comparators are total orders (the slot index breaks all
/// ties), so the allocation-free unstable sort yields the same permutation
/// as a stable sort would.
fn sort_slots_by(
    pages: &[PageStats],
    out: &mut Vec<usize>,
    cmp: impl Fn(&PageStats, &PageStats) -> Ordering,
) {
    out.clear();
    out.extend(0..pages.len());
    out.sort_unstable_by(|&a, &b| cmp(&pages[a], &pages[b]));
    for index in out.iter_mut() {
        *index = pages[*index].slot;
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
        let mut buffers = RankBuffers::new();
        let mut concrete = Vec::new();
        for config in [
            PromotionConfig::recommended(2),
            PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap(),
        ] {
            let kind = PolicyKind::promotion(config);
            let policy = RandomizedRankPromotion::new(config);
            for seed in 0..10 {
                policy.rank_into(&ps, &mut new_rng(seed), &mut buffers, &mut concrete);
                assert_eq!(
                    kind.rank(&ps, &mut new_rng(seed)),
                    concrete,
                    "{}",
                    kind.name()
                );
            }
            assert_eq!(kind.name(), config.label());
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
