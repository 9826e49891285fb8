//! Shard-local top-k candidate retrieval and the deterministic global
//! merge.
//!
//! A sharded serving tier that answers a top-`k` query against one
//! corpus-wide cache touches `O(n)` state per deployment even though the
//! selective promotion rule only ever reads the promotion pool plus a
//! rank-ordered prefix of the popularity order. This module brings
//! retrieval down to the shards: each shard produces a [`ShardCandidates`]
//! set — its first `c` *non-pool* entries in popularity order (`c` from
//! [`PromotionConfig::candidate_prefix_len`](crate::PromotionConfig::candidate_prefix_len))
//! — and [`merge_shard_candidates_into`] reassembles the first `c`
//! **non-pool entries of the global popularity order**: exactly the
//! deterministic remainder `L_d` a top-`k` merge may consume.
//!
//! The pool half has a different lifetime: it is query-independent —
//! membership moves only when a mutation flips a slot — so a serving tier
//! merges the shard pools once per repair with
//! [`merge_ascending_slots_into`] (ascending global slot, exactly the
//! scan's pre-shuffle order) and reuses the result across every query in
//! between. Per query only the `O(k)` rest prefix is retrieved; together
//! they form a [`RankSource::retrieved`](crate::RankSource::retrieved).
//!
//! Why the k-way rest merge is *exact* (equal to a derivation from the
//! global order) even though every shard stream is truncated: each
//! shard's rest prefix is a true prefix of that shard's non-pool order,
//! and shard orders agree with the global order restricted to the shard
//! (the comparator is total and its slot tie-break is relabeled to global
//! slots, which ascend with shard-local slots). A stream can only run dry
//! in two ways: either the shard had fewer than `c` non-pool entries —
//! then *all* of them have been merged and nothing of that shard is
//! missing — or it contributed all `c` of its entries, at which point at
//! least `c` entries have been emitted in total and the merge has already
//! stopped. Either way no unseen element could have preceded an emitted
//! one.

use crate::cache::CorpusCache;
use crate::stats::{popularity_order, PageStats};

/// One shard's candidate set: everything of the shard's non-pool order the
/// top-`k` promotion merge could possibly read.
#[derive(Debug, Clone, Default)]
pub struct ShardCandidates {
    /// The shard's first `limit` non-pool entries in popularity order,
    /// with `slot` rewritten to the global slot.
    rest: Vec<PageStats>,
}

impl ShardCandidates {
    /// An empty candidate set; buffers grow on first use and are reused.
    pub fn new() -> Self {
        ShardCandidates::default()
    }

    /// The shard's non-pool popularity-order prefix.
    #[inline]
    pub fn rest(&self) -> &[PageStats] {
        &self.rest
    }

    /// Fill this set from a shard's repaired [`CorpusCache`]: filter the
    /// shard's popularity order through the pool mask, stopping after
    /// `limit` non-pool matches — `O(limit)` past any pool members above
    /// the cut, no per-corpus work. Each entry is relabeled through
    /// `global_slots` (local slot → global slot), which must be strictly
    /// increasing so that shard-local order agrees with the global order's
    /// slot tie-break. The pool half is its owner's to merge, once per
    /// repair ([`merge_ascending_slots_into`]).
    pub fn collect_rest(&mut self, cache: &CorpusCache, limit: usize, global_slots: &[usize]) {
        let (pages, pool) = (cache.stats(), cache.pool());
        debug_assert_eq!(global_slots.len(), pages.len());
        debug_assert!(global_slots.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(
            pool.is_consistent(pages),
            "candidate retrieval requires a maintained pool index"
        );
        self.rest.clear();
        self.rest.extend(
            cache
                .order()
                .iter()
                .filter(|&&local| !pool.contains(local))
                .take(limit)
                .map(|&local| {
                    let mut stat = pages[local];
                    stat.slot = global_slots[local];
                    stat
                }),
        );
    }
}

/// The merged global non-pool popularity prefix a top-`k` query ranks
/// against. Produced by [`merge_shard_candidates_into`].
#[derive(Debug, Clone, Default)]
pub struct MergedCandidates {
    /// First `limit` non-pool entries of the global popularity order.
    rest: Vec<PageStats>,
    /// Scratch: per-shard stream cursors during a merge (kept here so the
    /// per-query merge is allocation-free after warm-up).
    heads: Vec<usize>,
}

impl MergedCandidates {
    /// An empty merged view; buffers grow on first use and are reused.
    pub fn new() -> Self {
        MergedCandidates::default()
    }

    /// The first `limit` non-pool entries of the global popularity order —
    /// the deterministic remainder `L_d`, already truncated to what a
    /// top-`limit` merge can consume.
    #[inline]
    pub fn rest(&self) -> &[PageStats] {
        &self.rest
    }
}

/// K-way merge of disjoint ascending global-slot streams into `out`
/// (cleared first) — the pool half of a shard merge: the shard pools
/// merge into exactly a corpus-wide
/// [`PoolIndex::members`](crate::PoolIndex::members). `stream_len(s)` and
/// `slot_at(s, i)` describe stream `s`; `heads` is caller scratch
/// (cursor per stream, reused across calls).
pub fn merge_ascending_slots_into(
    streams: usize,
    stream_len: impl Fn(usize) -> usize,
    slot_at: impl Fn(usize, usize) -> usize,
    heads: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    heads.clear();
    heads.resize(streams, 0);
    loop {
        let mut best: Option<(usize, usize)> = None;
        for (stream, &head) in heads.iter().enumerate() {
            if head < stream_len(stream) {
                let slot = slot_at(stream, head);
                if best.is_none_or(|(_, b)| slot < b) {
                    best = Some((stream, slot));
                }
            }
        }
        let Some((stream, slot)) = best else { break };
        out.push(slot);
        heads[stream] += 1;
    }
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
}

/// The shared core of every stat-keyed shard merge: k-way merge streams of
/// [`PageStats`] — each already sorted by [`popularity_order`] — emitting
/// entries in global popularity order until `limit` entries have been
/// emitted or every stream has run dry. `stream_len(s)` and `stat_at(s, i)`
/// describe stream `s` (entries must carry *global* slots, and streams must
/// be disjoint in them); `heads` is caller scratch, reused across calls.
///
/// Shard counts are deployment-sized (a handful to a few dozen), so a
/// linear scan over the stream heads beats a binary heap's bookkeeping.
fn merge_stat_streams(
    streams: usize,
    stream_len: impl Fn(usize) -> usize,
    stat_at: impl Fn(usize, usize) -> PageStats,
    limit: usize,
    heads: &mut Vec<usize>,
    mut emit: impl FnMut(PageStats),
) {
    heads.clear();
    heads.resize(streams, 0);
    let mut emitted = 0usize;
    while emitted < limit {
        let mut best: Option<(usize, PageStats)> = None;
        for (stream, &head) in heads.iter().enumerate() {
            if head < stream_len(stream) {
                let stat = stat_at(stream, head);
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| popularity_order(&stat, b).is_lt())
                {
                    best = Some((stream, stat));
                }
            }
        }
        let Some((stream, stat)) = best else { break };
        emit(stat);
        heads[stream] += 1;
        emitted += 1;
    }
}

/// K-way merge of *complete* per-shard popularity orders into the global
/// popularity order, written into `out` (cleared first) as global slots.
///
/// This is [`merge_shard_candidates_into`]'s rest merge with the prefix
/// cap dropped: every stream is a shard's full order (relabeled to global
/// slots via `stat_at`), so the merge reassembles the *entire* global
/// popularity order — the structure a full rerank and the Uniform rule's
/// per-page coin scan consume. Exactness needs no truncation argument
/// here: the streams are complete, the comparator is total, and its
/// global-slot tie-break makes the merge order unique.
pub fn merge_shard_orders_into(
    streams: usize,
    stream_len: impl Fn(usize) -> usize,
    stat_at: impl Fn(usize, usize) -> PageStats,
    heads: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    merge_stat_streams(streams, stream_len, stat_at, usize::MAX, heads, |stat| {
        out.push(stat.slot)
    });
}

/// Deterministically k-way merge per-shard candidate sets into the global
/// candidate view, writing into `merged` (cleared first; storage reused):
/// the shard rest prefixes merged by [`popularity_order`], stopping after
/// `limit` entries — exactly the first `limit` non-pool entries of the
/// global popularity order (see the module docs for why truncated shard
/// streams cannot lose an element).
///
/// Shard candidate sets must be disjoint in global slots (they come from a
/// partition of the corpus) and each collected with a `limit` of at least
/// this call's `limit`.
pub fn merge_shard_candidates_into(
    shards: &[ShardCandidates],
    limit: usize,
    merged: &mut MergedCandidates,
) {
    let MergedCandidates { rest, heads } = merged;
    rest.clear();
    merge_stat_streams(
        shards.len(),
        |s| shards[s].rest.len(),
        |s, i| shards[s].rest[i],
        limit,
        heads,
        |stat| rest.push(stat),
    );
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

    /// Partition `stats` into `shards` shard-local corpora (dense local
    /// slots) by a deterministic routing, returning per-shard stats and
    /// the local→global slot maps.
    fn partition(stats: &[PageStats], shards: usize) -> Vec<(Vec<PageStats>, Vec<usize>)> {
        let mut out: Vec<(Vec<PageStats>, Vec<usize>)> = vec![Default::default(); shards];
        for stat in stats {
            let shard = (stat.slot * 7 + 3) % shards;
            let (locals, globals) = &mut out[shard];
            let mut local = *stat;
            local.slot = locals.len();
            locals.push(local);
            globals.push(stat.slot);
        }
        out
    }

    fn collect_all(stats: &[PageStats], shards: usize, limit: usize) -> Vec<ShardCandidates> {
        partition(stats, shards)
            .iter()
            .map(|(locals, globals)| {
                let mut cache = CorpusCache::new();
                cache.rebuild(locals.iter().copied());
                let mut candidates = ShardCandidates::new();
                candidates.collect_rest(&cache, limit, globals);
                candidates
            })
            .collect()
    }

    #[test]
    fn merged_pool_equals_the_global_pool_index() {
        let stats = corpus(40);
        let global_pool = PoolIndex::build(&stats);
        let (mut heads, mut merged) = (Vec::new(), Vec::new());
        for shards in [1usize, 2, 3, 8] {
            let parts = partition(&stats, shards);
            let pools: Vec<PoolIndex> = parts.iter().map(|(l, _)| PoolIndex::build(l)).collect();
            merge_ascending_slots_into(
                shards,
                |s| pools[s].len(),
                |s, i| parts[s].1[pools[s].members()[i]],
                &mut heads,
                &mut merged,
            );
            assert_eq!(merged, global_pool.members(), "{shards} shards");
        }
    }

    #[test]
    fn merged_rest_equals_the_global_non_pool_prefix() {
        let stats = corpus(40);
        let order = PopularityIndex::build(&stats);
        let pool = PoolIndex::build(&stats);
        for limit in [0usize, 1, 4, 11, 100] {
            let expected: Vec<usize> = order
                .order()
                .iter()
                .copied()
                .filter(|&s| !pool.contains(s))
                .take(limit)
                .collect();
            for shards in [1usize, 2, 3, 8] {
                let candidates = collect_all(&stats, shards, limit);
                let mut merged = MergedCandidates::new();
                merge_shard_candidates_into(&candidates, limit, &mut merged);
                let slots: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
                assert_eq!(slots, expected, "{shards} shards, limit {limit}");
            }
        }
    }

    #[test]
    fn merged_complete_orders_equal_the_global_popularity_order() {
        let stats = corpus(40);
        let expected = PopularityIndex::build(&stats).order().to_vec();
        let (mut heads, mut out) = (Vec::new(), Vec::new());
        for shards in [1usize, 2, 3, 8] {
            let parts = partition(&stats, shards);
            let orders: Vec<Vec<usize>> = parts
                .iter()
                .map(|(locals, _)| PopularityIndex::build(locals).order().to_vec())
                .collect();
            merge_shard_orders_into(
                shards,
                |s| orders[s].len(),
                |s, i| {
                    let local = orders[s][i];
                    let (locals, globals) = &parts[s];
                    let mut stat = locals[local];
                    stat.slot = globals[local];
                    stat
                },
                &mut heads,
                &mut out,
            );
            assert_eq!(out, expected, "{shards} shards");
        }
        merge_shard_orders_into(0, |_| 0, |_, _| unreachable!(), &mut heads, &mut out);
        assert!(out.is_empty(), "no streams merge to an empty order");
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
            .copied()
            .filter(|&s| !pool.contains(s))
            .take(6)
            .collect();
        assert_eq!(expected.len(), 6);
        for shards in [2usize, 5] {
            let candidates = collect_all(&stats, shards, 6);
            let mut merged = MergedCandidates::new();
            merge_shard_candidates_into(&candidates, 6, &mut merged);
            let slots: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
            assert_eq!(slots, expected, "{shards} shards");
        }
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
