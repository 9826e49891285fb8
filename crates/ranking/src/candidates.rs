//! Top-k candidate streams and their deterministic merge — kept only
//! because `benchmark/` calls them.
//!
//! A serving tier ranks every query from one corpus-wide
//! [`CorpusCache`] (its [`source`](CorpusCache::source)), so nothing in
//! the workspace needs a candidate stream any more. The benchmark's traced
//! run still re-enacts the old retrieve → merge → rank read: it collects
//! a [`ShardCandidates`] stream — the first `limit` *non-pool* entries of
//! the popularity order, exactly the deterministic remainder `L_d` a
//! top-`limit` merge may consume — merges the streams with
//! [`merge_shard_candidates_into`], and ranks a
//! [`RankSource::retrieved`](crate::RankSource::retrieved) from the result
//! and the cache's pool. With the one stream a cache yields, the merge is
//! a copy.

use crate::cache::CorpusCache;
use crate::stats::{popularity_order, PageStats};

/// One candidate stream: everything of a popularity order's non-pool
/// prefix the top-`k` promotion merge could possibly read. Kept only
/// because `benchmark/` uses it.
#[derive(Debug, Clone, Default)]
pub struct ShardCandidates {
    /// The first `limit` non-pool entries in popularity order.
    rest: Vec<PageStats>,
}

impl ShardCandidates {
    /// An empty candidate set; buffers grow on first use and are reused.
    pub fn new() -> Self {
        ShardCandidates::default()
    }

    /// The non-pool popularity-order prefix.
    #[inline]
    pub fn rest(&self) -> &[PageStats] {
        &self.rest
    }

    /// Fill this set from a repaired [`CorpusCache`]: filter its
    /// popularity order through the pool mask, stopping after `limit`
    /// non-pool matches — `O(limit)` past any pool members above the cut.
    /// Requires a maintained pool.
    pub fn collect_rest(&mut self, cache: &CorpusCache, limit: usize) {
        let (pages, pool) = (cache.stats(), cache.pool());
        debug_assert!(
            pool.is_consistent(pages),
            "candidate retrieval requires a maintained pool index"
        );
        self.rest.clear();
        self.rest.extend(
            cache
                .order()
                .iter()
                .map(|&slot| slot as usize)
                .filter(|&slot| !pool.contains(slot))
                .take(limit)
                .map(|slot| pages[slot]),
        );
    }
}

/// The merged non-pool popularity prefix a top-`k` query ranks against.
/// Produced by [`merge_shard_candidates_into`]. Kept only because
/// `benchmark/` uses it.
#[derive(Debug, Clone, Default)]
pub struct MergedCandidates {
    /// First `limit` non-pool entries of the popularity order.
    rest: Vec<PageStats>,
    /// Scratch: per-stream cursors during a merge (kept here so the merge
    /// is allocation-free after warm-up).
    heads: Vec<usize>,
}

impl MergedCandidates {
    /// An empty merged view; buffers grow on first use and are reused.
    pub fn new() -> Self {
        MergedCandidates::default()
    }

    /// The first `limit` non-pool entries of the popularity order — the
    /// deterministic remainder `L_d`, already truncated to what a
    /// top-`limit` merge can consume.
    #[inline]
    pub fn rest(&self) -> &[PageStats] {
        &self.rest
    }
}

/// Merge candidate streams into `merged` (cleared first; storage reused)
/// by [`popularity_order`], stopping after `limit` entries. Streams must be
/// disjoint in slots and each collected with a `limit` of at least this
/// call's. Kept only because `benchmark/` calls it.
pub fn merge_shard_candidates_into(
    streams: &[ShardCandidates],
    limit: usize,
    merged: &mut MergedCandidates,
) {
    let MergedCandidates { rest, heads } = merged;
    rest.clear();
    heads.clear();
    heads.resize(streams.len(), 0);
    while rest.len() < limit {
        let mut best: Option<(usize, PageStats)> = None;
        for (index, (stream, &head)) in streams.iter().zip(heads.iter()).enumerate() {
            if let Some(&stat) = stream.rest.get(head) {
                if best.is_none_or(|(_, b)| popularity_order(&stat, &b).is_lt()) {
                    best = Some((index, stat));
                }
            }
        }
        let Some((stream, stat)) = best else { break };
        rest.push(stat);
        heads[stream] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poolindex::PoolIndex;
    use crate::popindex::PopularityIndex;
    use rrp_model::PageId;

    /// A corpus where every third slot is unexplored and popularity ties
    /// (including across the pool/non-pool boundary) exercise the age and
    /// slot tie-breaks.
    fn corpus(n: usize) -> Vec<PageStats> {
        (0..n)
            .map(|slot| {
                let unexplored = slot % 3 == 0;
                let (pop, aw) = if unexplored {
                    (((slot % 5) as f64) * 0.1, 0.0)
                } else {
                    (1.0 - ((slot % 7) as f64) * 0.1, 0.6)
                };
                PageStats::new(slot, PageId::new(slot as u64), pop, aw).with_age((slot % 4) as u64)
            })
            .collect()
    }

    fn cache_of(stats: &[PageStats]) -> CorpusCache {
        let mut cache = CorpusCache::new();
        cache.rebuild(stats.iter().copied());
        cache
    }

    fn merged_rest(cache: &CorpusCache, limit: usize) -> Vec<usize> {
        let mut candidates = ShardCandidates::new();
        candidates.collect_rest(cache, limit);
        let mut merged = MergedCandidates::new();
        merge_shard_candidates_into(&[candidates], limit, &mut merged);
        merged.rest().iter().map(|p| p.slot).collect()
    }

    #[test]
    fn merged_pool_equals_the_global_pool_index() {
        // The pool a retrieved source pairs with the collected rest is the
        // cache's pool index: together they partition the corpus.
        let stats = corpus(40);
        let cache = cache_of(&stats);
        assert_eq!(cache.pool().members(), PoolIndex::build(&stats).members());
        let mut all = merged_rest(&cache, usize::MAX);
        all.extend_from_slice(cache.pool().members());
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn merged_rest_equals_the_global_non_pool_prefix() {
        let stats = corpus(40);
        let order = PopularityIndex::build(&stats);
        let pool = PoolIndex::build(&stats);
        let cache = cache_of(&stats);
        for limit in [0usize, 1, 4, 11, 100] {
            let expected: Vec<usize> = order
                .order()
                .iter()
                .map(|&s| s as usize)
                .filter(|&s| !pool.contains(s))
                .take(limit)
                .collect();
            assert_eq!(merged_rest(&cache, limit), expected, "limit {limit}");
        }
    }

    #[test]
    fn high_popularity_pool_members_never_crowd_out_the_rest_prefix() {
        // Pool members can outrank every established page (an unexplored
        // document may carry any popularity score), yet the rest prefix
        // must still deliver `limit` established entries: the collect
        // filter skips pool members instead of truncating around them.
        let mut stats = corpus(30);
        for stat in stats.iter_mut() {
            if stat.is_unexplored() {
                stat.popularity = 9.0;
            }
        }
        let order = PopularityIndex::build(&stats);
        let pool = PoolIndex::build(&stats);
        let expected: Vec<usize> = order
            .order()
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| !pool.contains(s))
            .take(6)
            .collect();
        assert_eq!(expected.len(), 6);
        assert_eq!(merged_rest(&cache_of(&stats), 6), expected);
    }

    #[test]
    fn empty_shards_and_empty_sets_merge_to_empty() {
        let mut merged = MergedCandidates::new();
        merge_shard_candidates_into(&[], 5, &mut merged);
        assert!(merged.rest().is_empty());
        let empties = vec![ShardCandidates::new(); 3];
        merge_shard_candidates_into(&empties, 5, &mut merged);
        assert!(merged.rest().is_empty());
    }
}
