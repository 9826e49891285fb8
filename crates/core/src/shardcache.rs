//! Per-shard ranking caches split into a writer generation and published
//! read-only versions — the storage side of shard-local top-k candidate
//! retrieval under concurrent readers.
//!
//! Where an [`rrp_ranking::CorpusCache`] keeps one corpus's ranking state
//! current, [`ShardedCorpusCache`] keeps one `CorpusCache` **per shard**,
//! each over that shard's documents under dense *shard-local* slots, with a
//! shard-local dirty list repaired independently. A top-`k` query then
//! never touches corpus-wide ranking state: each shard contributes a
//! [`ShardCandidates`] rest prefix (its first `c` non-pool
//! popularity-order entries, slots relabeled to the documents' global
//! slots),
//! [`merge_shard_candidates_into`](rrp_ranking::merge_shard_candidates_into)
//! reassembles exactly the global order prefix the promotion merge
//! consumes, and the **merged global pool** — which moves only when a
//! mutation flips a slot's membership, never with the query — is
//! maintained across queries: publication merges in exactly the slots
//! whose membership flipped since the last one, and a publication without
//! a flip shares the previous version's pool as is.
//!
//! # Epoch-versioned publication
//!
//! Since the concurrent-serving change, the cache is *two* generations of
//! the same state:
//!
//! * the **writer generation** — the `Arc`-held buffers this struct
//!   mutates in place through [`push`](ShardedCorpusCache::push) /
//!   [`patch`](ShardedCorpusCache::patch), exactly the old single-owner
//!   repair discipline; and
//! * the **published version** ([`PublishedVersion`]) — an immutable,
//!   epoch-stamped snapshot cut by [`publish`](ShardedCorpusCache::publish):
//!   the writer repairs its dirty slots, then shares its (now clean)
//!   buffers into the version by `Arc` clone. Readers rank against a
//!   version without any lock; clean shards are shared between consecutive
//!   versions, never copied.
//!
//! Publication is `O(dirty)` apart from block copies — no step walks all
//! `n` slots one by one:
//!
//! * each dirty shard repairs its popularity order with `O(d log n)`
//!   binary searches plus block moves
//!   ([`PopularityIndex::repair`](rrp_ranking::PopularityIndex::repair)),
//!   and its pool with an `O(d)` membership check that stops there when
//!   nothing flipped
//!   ([`PoolIndex::repair`](rrp_ranking::PoolIndex::repair));
//! * the global pool costs nothing without a flip (the version shares the
//!   previous `Arc`) and one merge of the flipped slots with one;
//! * the other buffers are **recycled**: the cache keeps a *diff log* of
//!   every global slot mutated since the last publication, and when a
//!   version retires ([`recycle`](ShardedCorpusCache::recycle)) its
//!   uniquely-held buffers are reclaimed and caught up by replaying
//!   exactly that diff — the retired generation is one publication
//!   behind, so the diff is precisely what it is missing. If a
//!   straggling reader still holds the retired version, recycling is
//!   skipped and the next mutation falls back to copy-on-write
//!   (`Arc::make_mut`) — correct at any interleaving, merely paying a
//!   one-time copy.
//!
//! Full reranks (and the Uniform rule's per-page coin scan) are served
//! from the version's **complete** merged global popularity order
//! ([`merge_shard_orders_into`](rrp_ranking::merge_shard_orders_into)),
//! maintained lazily per version in a [`SharedLazyOrder`]: the first
//! full-order consumer of a version merges once, top-k-only traffic never
//! pays the `O(n)` merge, and the order's storage is recycled from the
//! retired version — the old `ensure_merged_order` cadence, generalised
//! to shared readers.
//!
//! The local↔global mapping rides on two invariants the owner must keep
//! (both debug-asserted):
//!
//! * global slots are dense across the whole cache (`0..len`, each pushed
//!   exactly once) — they are the store's global sequence numbers; and
//! * within a shard, global slots ascend with local slots (inserts are
//!   globally ordered), which is what makes a shard-local popularity
//!   order agree with the global order's slot tie-break after relabeling.

use crate::document::Document;
use crate::engine::RankPromotionEngine;
use rrp_model::PageId;
use rrp_ranking::{CorpusCache, ShardCandidates, SharedLazyOrder};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One shard's slice of the corpus: its cache under dense local slots plus
/// the local→global slot map. Both live behind `Arc`s so publication can
/// share them into an immutable [`PublishedVersion`] without copying.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardCache {
    cache: Arc<CorpusCache>,
    /// Local slot → global slot, strictly increasing.
    globals: Arc<Vec<usize>>,
}

impl Default for ShardCache {
    fn default() -> Self {
        ShardCache {
            cache: Arc::new(CorpusCache::new()),
            globals: Arc::new(Vec::new()),
        }
    }
}

/// One shard of a [`PublishedVersion`]: the shard's repaired cache and its
/// local→global map, shared by `Arc` with the writer generation that cut
/// the version (and with neighbouring versions while the shard is clean).
#[derive(Debug)]
struct PublishedShard {
    cache: Arc<CorpusCache>,
    globals: Arc<Vec<usize>>,
}

/// An immutable, epoch-stamped snapshot of the whole serving tier: per-
/// shard repaired caches, the global placement/page/membership arrays, the
/// merged global pool, and a lazily merged complete global order. Cut by
/// [`ShardedCorpusCache::publish`]; safe to read from any number of
/// threads without a lock. The `epoch` records which mutation epoch the
/// snapshot serves — readers validate it at merge time against the live
/// epoch counter to detect (and bound) staleness.
#[derive(Debug)]
pub struct PublishedVersion {
    epoch: u64,
    pool_maintained: bool,
    /// Whether cutting this version changed the merged global pool (see
    /// [`pool_repaired`](Self::pool_repaired)).
    pool_repaired: bool,
    shards: Vec<PublishedShard>,
    /// Global slot → (shard, local slot).
    placement: Arc<Vec<(u32, u32)>>,
    /// Global slot → [`PageId`] — resolves ranked slots to ids by direct
    /// indexing on the per-slot hot loop.
    pages: Arc<Vec<PageId>>,
    /// Global slot → pool membership (all `false` while maintenance is
    /// off, matching the empty shard pools).
    pool_mask: Arc<Vec<bool>>,
    /// The merged global pool under global slots, ascending — the
    /// pre-shuffle pool order every top-k query shuffles.
    merged_pool: Arc<Vec<usize>>,
    /// The complete merged global popularity order, merged at most once
    /// per version by its first full-order consumer.
    merged_order: SharedLazyOrder,
}

impl PublishedVersion {
    /// The empty version at epoch 0 — what a service publishes before any
    /// mutation exists. An empty corpus never republishes: inserts are the
    /// only path to a non-empty one, and they bump the epoch.
    pub fn empty(shard_count: usize, pool_maintained: bool) -> Self {
        let shards = (0..shard_count.max(1))
            .map(|_| {
                let mut cache = CorpusCache::new();
                cache.set_pool_maintained(pool_maintained);
                PublishedShard {
                    cache: Arc::new(cache),
                    globals: Arc::new(Vec::new()),
                }
            })
            .collect();
        PublishedVersion {
            epoch: 0,
            pool_maintained,
            pool_repaired: false,
            shards,
            placement: Arc::new(Vec::new()),
            pages: Arc::new(Vec::new()),
            pool_mask: Arc::new(Vec::new()),
            merged_pool: Arc::new(Vec::new()),
            merged_order: SharedLazyOrder::new(),
        }
    }

    /// The mutation epoch this version serves.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of documents in the snapshot.
    #[inline]
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// Whether the snapshot holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// Whether pool maintenance was enabled when the version was cut.
    #[inline]
    pub fn pool_maintained(&self) -> bool {
        self.pool_maintained
    }

    /// Whether cutting this version changed the merged global pool. A
    /// version cut with no membership flip shares its predecessor's pool
    /// and reports `false` — the owner's `pool_repairs` probe counts the
    /// `true`s.
    #[inline]
    pub fn pool_repaired(&self) -> bool {
        self.pool_repaired
    }

    /// The merged global pool: every shard's pool members under global
    /// slots, ascending — identical in content and order to a corpus-wide
    /// [`PoolIndex::members`](rrp_ranking::PoolIndex::members).
    #[inline]
    pub fn pool_slots(&self) -> &[usize] {
        &self.merged_pool
    }

    /// The [`PageId`] of the document at `global_slot` — one direct vec
    /// index on the per-slot hot loop of every serving path.
    #[inline]
    pub fn page_of(&self, global_slot: usize) -> PageId {
        self.pages[global_slot]
    }

    /// The snapshot's [`PageStats`](rrp_ranking::PageStats) of the
    /// document at `global_slot`, relabeled to its global slot (`O(1)`).
    #[inline]
    pub fn stat_of(&self, global_slot: usize) -> rrp_ranking::PageStats {
        let (shard, local) = self.placement[global_slot];
        let mut stat = self.shards[shard as usize].cache.stats()[local as usize];
        stat.slot = global_slot;
        stat
    }

    /// Whether `global_slot` is a member of its shard's promotion pool —
    /// one direct mask index, the membership predicate the merged
    /// full-rerank path filters the global order through.
    #[inline]
    pub fn in_pool(&self, global_slot: usize) -> bool {
        self.pool_mask[global_slot]
    }

    /// The complete merged global popularity order (global slots) —
    /// identical in content and order to a corpus-wide
    /// [`PopularityIndex::order`](rrp_ranking::PopularityIndex::order).
    /// Forces the merge if no consumer ran it yet; use
    /// [`ensure_merged_order`](Self::ensure_merged_order) to observe
    /// whether this call paid.
    #[inline]
    pub fn merged_order(&self) -> &[usize] {
        self.ensure_merged_order().0
    }

    /// The complete merged global popularity order, plus whether *this*
    /// call ran the `O(n)` k-way merge — exactly one consumer per version
    /// observes `true` (the owner's `order_merges` probe counts these), so
    /// clean stretches between mutations re-merge nothing and top-k-only
    /// traffic never merges at all.
    pub fn ensure_merged_order(&self) -> (&[usize], bool) {
        let (order, ran) = self.merged_order.get_or_merge(|buffer| {
            let mut heads = Vec::new();
            rrp_ranking::merge_shard_orders_into(
                self.shards.len(),
                |s| self.shards[s].globals.len(),
                |s, i| {
                    let shard = &self.shards[s];
                    let local = shard.cache.order()[i];
                    let mut stat = shard.cache.stats()[local];
                    stat.slot = shard.globals[local];
                    stat
                },
                &mut heads,
                buffer,
            );
        });
        if ran {
            debug_assert_eq!(order.len(), self.len());
            debug_assert!(
                order.windows(2).all(|w| {
                    rrp_ranking::popularity_order(&self.stat_of(w[0]), &self.stat_of(w[1])).is_lt()
                }),
                "merged order must be the global popularity order"
            );
        }
        (order, ran)
    }

    /// Collect every shard's per-query top-`k` rest candidates into `out`
    /// (resized to the shard count; inner storage reused): the first
    /// `limit` non-pool entries of each shard's popularity order, slots
    /// rewritten to global slots — `O(limit)` per shard past any pool
    /// members sitting above the cut. The pool half comes from
    /// [`pool_slots`](Self::pool_slots). Requires maintained pools.
    pub fn collect_rest_candidates(&self, limit: usize, out: &mut Vec<ShardCandidates>) {
        out.resize_with(self.shards.len(), ShardCandidates::new);
        for (shard, candidates) in self.shards.iter().zip(out.iter_mut()) {
            candidates.collect_rest(&shard.cache, limit, &shard.globals);
        }
    }
}

/// Per-shard [`CorpusCache`]s repaired from shard-local dirty lists, with
/// `O(1)` global-slot addressing for mutations, a maintained merge of the
/// shard pools, and epoch-stamped immutable publication for concurrent
/// readers (see the module docs for the two-generation layout).
#[derive(Debug, Serialize, Deserialize)]
pub struct ShardedCorpusCache {
    shards: Vec<ShardCache>,
    /// Global slot → (shard, local slot).
    placement: Arc<Vec<(u32, u32)>>,
    /// Global slot → [`PageId`], maintained eagerly (append on push,
    /// rewrite on patch) so the merged-order serving paths resolve ranked
    /// slots to ids by direct indexing instead of a placement double
    /// indirection per slot.
    pages: Arc<Vec<PageId>>,
    /// Global slot → pool membership, maintained eagerly alongside the
    /// shard stats (stats are patched eagerly too, so by the time the
    /// [`in_pool`](Self::in_pool) contract holds — after a repair — this
    /// mask equals every shard pool's repaired membership). All `false`
    /// while pool maintenance is off, matching the empty shard pools.
    pool_mask: Arc<Vec<bool>>,
    /// The merged global pool under global slots, ascending. Repaired at
    /// repair/publication time from `pool_flips` into a fresh `Arc` (so
    /// retired versions keep theirs), and left shared when nothing flipped.
    merged_pool: Arc<Vec<usize>>,
    /// Global slots whose `pool_mask` entry changed since the last pool
    /// repair, in arrival order (a slot may repeat).
    #[serde(skip)]
    pool_flips: Vec<usize>,
    /// Whether `pool_flips` is the complete difference between the mask
    /// and `merged_pool`. False after deserialisation or a
    /// pool-maintenance flip: the next repair then re-derives the pool
    /// from the mask once.
    #[serde(skip)]
    pool_flips_tracked: bool,
    /// The diff log: global slots mutated since the last publication, in
    /// arrival order (pushes therefore ascend), deduplicated via
    /// `since_mask` so it is bounded by the corpus size.
    #[serde(skip)]
    since_publish: Vec<usize>,
    /// Per-slot "already in `since_publish`" mask (reset at publication).
    #[serde(skip)]
    since_mask: Vec<bool>,
    /// Whether `since_publish` is a *complete* diff against the currently
    /// published version. False after deserialisation, [`clear`](Self::clear)
    /// or a pool-maintenance flip — publication then charges from the
    /// actual repair and skips recycling once, falling back to
    /// copy-on-write.
    #[serde(skip)]
    diff_log_intact: bool,
    /// The diff consumed by the last [`publish`](Self::publish), retained
    /// for the follow-up [`recycle`](Self::recycle): the retiring version
    /// lags the new one by exactly these slots.
    #[serde(skip)]
    recycle_diff: Vec<usize>,
    /// Whether `recycle_diff` is a complete catch-up diff for the version
    /// retired by the last publication.
    #[serde(skip)]
    recycle_valid: bool,
    /// Recycled storage for the next pool merge.
    #[serde(skip)]
    pool_spare: Vec<usize>,
    /// Recycled storage for the next version's lazy order merge.
    #[serde(skip)]
    order_spare: Vec<usize>,
}

impl ShardedCorpusCache {
    /// An empty cache over `shard_count` shards (at least 1).
    pub fn new(shard_count: usize) -> Self {
        let mut shards = Vec::new();
        shards.resize_with(shard_count.max(1), ShardCache::default);
        ShardedCorpusCache {
            shards,
            placement: Arc::new(Vec::new()),
            pages: Arc::new(Vec::new()),
            pool_mask: Arc::new(Vec::new()),
            merged_pool: Arc::new(Vec::new()),
            pool_flips: Vec::new(),
            pool_flips_tracked: true,
            since_publish: Vec::new(),
            since_mask: Vec::new(),
            diff_log_intact: true,
            recycle_diff: Vec::new(),
            recycle_valid: false,
            pool_spare: Vec::new(),
            order_spare: Vec::new(),
        }
    }

    /// Enable or disable pool maintenance on every shard cache (see
    /// [`CorpusCache::set_pool_maintained`]); candidate retrieval requires
    /// it on.
    pub fn set_pool_maintained(&mut self, maintained: bool) {
        for shard in &mut self.shards {
            Arc::make_mut(&mut shard.cache).set_pool_maintained(maintained);
        }
        // The global membership mask mirrors the shard pools, so it
        // follows the flag: recompute from the eagerly-patched stats
        // (all `false` when maintenance is off — unmaintained pools are
        // empty).
        let placement = &self.placement;
        let shards = &self.shards;
        let mask = Arc::make_mut(&mut self.pool_mask);
        for global in 0..mask.len() {
            let (shard, local) = placement[global];
            mask[global] =
                maintained && shards[shard as usize].cache.stats()[local as usize].is_unexplored();
        }
        // A maintenance flip is not representable in the slot diff log or
        // the flip list: invalidate both so the next publication rebuilds
        // honestly.
        self.diff_log_intact = false;
        self.pool_flips.clear();
        self.pool_flips_tracked = false;
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of cached documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// Whether the cache holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// Dirty entries awaiting repair, summed over the shard-local lists.
    pub fn dirty_len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.dirty_len()).sum()
    }

    /// Record `global_slot` in the since-publication diff log (deduplicated).
    fn note_mutation(&mut self, global_slot: usize) {
        if self.since_mask.len() <= global_slot {
            self.since_mask
                .resize(self.placement.len().max(global_slot + 1), false);
        }
        if !self.since_mask[global_slot] {
            self.since_mask[global_slot] = true;
            self.since_publish.push(global_slot);
        }
    }

    /// Append the document occupying the next global slot to `shard`
    /// (`O(1)` amortised). Global slots are assigned densely in push order
    /// — they are the store's global sequence numbers — so within a shard
    /// they ascend with local slots.
    pub fn push(&mut self, shard: usize, document: &Document) {
        debug_assert!(shard < self.shards.len());
        let maintained = self.pool_maintained();
        let global_slot = self.placement.len();
        let local = self.shards[shard].globals.len();
        Arc::make_mut(&mut self.placement).push((shard as u32, local as u32));
        Arc::make_mut(&mut self.pages).push(PageId::new(document.id));
        let member = maintained && document.is_unexplored;
        Arc::make_mut(&mut self.pool_mask).push(member);
        if member {
            self.pool_flips.push(global_slot);
        }
        let entry = &mut self.shards[shard];
        Arc::make_mut(&mut entry.globals).push(global_slot);
        Arc::make_mut(&mut entry.cache).push(RankPromotionEngine::document_stat(local, document));
        self.note_mutation(global_slot);
    }

    /// Patch the cached stats of the document at `global_slot` after a
    /// mutation, marking exactly its shard-local slot dirty (`O(1)`
    /// amortised — a write to a buffer still shared with a published
    /// version falls back to one copy-on-write clone).
    pub fn patch(&mut self, global_slot: usize, document: &Document) {
        let maintained = self.pool_maintained();
        let (shard, local) = self.placement[global_slot];
        let stat = RankPromotionEngine::document_stat(local as usize, document);
        Arc::make_mut(&mut self.shards[shard as usize].cache).patch(local as usize, stat);
        Arc::make_mut(&mut self.pages)[global_slot] = PageId::new(document.id);
        let member = maintained && document.is_unexplored;
        if self.pool_mask[global_slot] != member {
            Arc::make_mut(&mut self.pool_mask)[global_slot] = member;
            self.pool_flips.push(global_slot);
        }
        self.note_mutation(global_slot);
    }

    /// Repair every shard cache that has dirty slots and the global pool,
    /// returning the total number of dirty entries handed to the repairs
    /// (distinct slots per shard). Shards with a clean dirty list skip
    /// their index repairs; the global pool is repaired only when a
    /// membership flipped — without a flip it stays shared, as is, with
    /// the published version.
    pub fn repair(&mut self) -> u64 {
        self.repair_all().0
    }

    /// [`repair`](Self::repair), also reporting whether the global pool
    /// changed (a fresh `merged_pool` was cut).
    fn repair_all(&mut self) -> (u64, bool) {
        let handed: u64 = self
            .shards
            .iter_mut()
            .map(|s| {
                if s.cache.dirty_len() > 0 {
                    Arc::make_mut(&mut s.cache).repair()
                } else {
                    0
                }
            })
            .sum();
        let pool_repaired = self.repair_pool();
        debug_assert!(
            {
                let from_mask: Vec<usize> = (0..self.pool_mask.len())
                    .filter(|&s| self.pool_mask[s])
                    .collect();
                from_mask == *self.merged_pool
            },
            "the eager membership mask must equal the repaired global pool"
        );
        (handed, pool_repaired)
    }

    /// Cut an immutable [`PublishedVersion`] of the current state, stamped
    /// with `epoch`: repair the writer generation, then share its buffers
    /// into the version by `Arc` clone (clean shards are shared across
    /// consecutive versions, never copied). Returns the version and the
    /// number of *charged* dirty slots — the distinct slots mutated since
    /// the last publication (or, when the diff log is not intact, the
    /// count the repair actually handled), which is what the owner's
    /// repair probes record.
    ///
    /// Publication happens at most once per mutation epoch by
    /// construction: the owner only calls this when its published
    /// version's epoch trails the live epoch counter. Follow with
    /// [`recycle`](Self::recycle) on the retired version to keep the
    /// steady-state cost `O(dirty)`.
    pub fn publish(&mut self, epoch: u64) -> (Arc<PublishedVersion>, u64) {
        let (handed, pool_repaired) = self.repair_all();
        let charged = if self.diff_log_intact {
            self.since_publish.len() as u64
        } else {
            handed
        };
        // Hand the consumed diff to the recycle step: the version retired
        // by this publication lags the new one by exactly these slots.
        self.recycle_valid = self.diff_log_intact;
        self.recycle_diff.clear();
        std::mem::swap(&mut self.recycle_diff, &mut self.since_publish);
        for &slot in &self.recycle_diff {
            self.since_mask[slot] = false;
        }
        self.diff_log_intact = true;
        let version = PublishedVersion {
            epoch,
            pool_maintained: self.pool_maintained(),
            pool_repaired,
            shards: self
                .shards
                .iter()
                .map(|s| PublishedShard {
                    cache: s.cache.clone(),
                    globals: s.globals.clone(),
                })
                .collect(),
            placement: self.placement.clone(),
            pages: self.pages.clone(),
            pool_mask: self.pool_mask.clone(),
            merged_pool: self.merged_pool.clone(),
            merged_order: SharedLazyOrder::with_seed(std::mem::take(&mut self.order_spare)),
        };
        (Arc::new(version), charged)
    }

    /// Reclaim a retired version's buffers as the next writer generation.
    ///
    /// Call after swapping a fresh [`publish`](Self::publish) result into
    /// place, handing over the previous version. If no reader still holds
    /// it, its uniquely-owned buffers are caught up by replaying the
    /// publish-to-publish diff — `fetch` resolves a global slot to its
    /// *current* document (the store lookup) — and installed as the
    /// writable generation, so subsequent mutations stay `O(1)` instead of
    /// copy-on-write. If a straggler still holds the version (or the diff
    /// log was invalidated), this is a no-op and the next mutation clones.
    pub fn recycle(&mut self, prev: Arc<PublishedVersion>, fetch: impl Fn(usize) -> Document) {
        let valid = std::mem::replace(&mut self.recycle_valid, false);
        let Some(prev) = Arc::into_inner(prev) else {
            return;
        };
        let PublishedVersion {
            shards: prev_shards,
            placement,
            pages,
            pool_mask,
            merged_pool,
            merged_order,
            ..
        } = prev;
        // The lazy-order storage is always worth reclaiming; the rest
        // needs a complete catch-up diff and a matching shape.
        self.order_spare = merged_order.into_buffer();
        if let Some(buffer) = reclaim(&self.merged_pool, merged_pool) {
            self.pool_spare = buffer;
        }
        if !valid || prev_shards.len() != self.shards.len() {
            return;
        }
        let mut shard_bufs: Vec<(Option<CorpusCache>, Option<Vec<usize>>)> =
            Vec::with_capacity(self.shards.len());
        for (mine, theirs) in self.shards.iter().zip(prev_shards) {
            let cache = if Arc::ptr_eq(&mine.cache, &theirs.cache) {
                None
            } else {
                Arc::into_inner(theirs.cache)
            };
            let globals = if Arc::ptr_eq(&mine.globals, &theirs.globals) {
                None
            } else {
                Arc::into_inner(theirs.globals)
            };
            shard_bufs.push((cache, globals));
        }
        let mut placement_buf = reclaim(&self.placement, placement);
        let mut pages_buf = reclaim(&self.pages, pages);
        let mut mask_buf = reclaim(&self.pool_mask, pool_mask);
        let maintained = self.pool_maintained();
        // Catch the reclaimed buffers up: chronological replay keeps
        // per-shard pushes in ascending local-slot order, and patched
        // slots take their current (post-diff) content in one write.
        for &global in &self.recycle_diff {
            let (shard, local) = self.placement[global];
            let (shard, local) = (shard as usize, local as usize);
            let document = fetch(global);
            let (cache_buf, globals_buf) = &mut shard_bufs[shard];
            if let Some(cache) = cache_buf {
                let stat = RankPromotionEngine::document_stat(local, &document);
                if local == cache.len() {
                    cache.push(stat);
                } else {
                    cache.patch(local, stat);
                }
            }
            if let Some(globals) = globals_buf {
                if local == globals.len() {
                    globals.push(global);
                }
                debug_assert_eq!(globals[local], global);
            }
            if let Some(buf) = &mut placement_buf {
                if global == buf.len() {
                    buf.push(self.placement[global]);
                }
                debug_assert_eq!(buf[global], self.placement[global]);
            }
            if let Some(buf) = &mut pages_buf {
                let page = PageId::new(document.id);
                if global == buf.len() {
                    buf.push(page);
                } else {
                    buf[global] = page;
                }
            }
            if let Some(buf) = &mut mask_buf {
                let member = maintained && document.is_unexplored;
                if global == buf.len() {
                    buf.push(member);
                } else {
                    buf[global] = member;
                }
            }
        }
        self.recycle_diff.clear();
        // Install: the caught-up buffers become the writable generation;
        // the buffers published a moment ago stay with the live version.
        for (bufs, mine) in shard_bufs.into_iter().zip(self.shards.iter_mut()) {
            if let Some(cache) = bufs.0 {
                mine.cache = Arc::new(cache);
            }
            if let Some(globals) = bufs.1 {
                mine.globals = Arc::new(globals);
            }
        }
        if let Some(buf) = placement_buf {
            self.placement = Arc::new(buf);
        }
        if let Some(buf) = pages_buf {
            self.pages = Arc::new(buf);
        }
        if let Some(buf) = mask_buf {
            self.pool_mask = Arc::new(buf);
        }
    }

    /// The merged global pool: every shard's pool members under global
    /// slots, ascending — identical in content and order to a corpus-wide
    /// [`PoolIndex::members`](rrp_ranking::PoolIndex::members), kept
    /// current by [`repair`](Self::repair) / [`publish`](Self::publish).
    #[inline]
    pub fn pool_slots(&self) -> &[usize] {
        &self.merged_pool
    }

    /// The [`PageId`] of the document at `global_slot` — one direct vec
    /// index, no placement indirection.
    #[inline]
    pub fn page_of(&self, global_slot: usize) -> PageId {
        self.pages[global_slot]
    }

    /// The cached [`PageStats`](rrp_ranking::PageStats) of the document at
    /// `global_slot`, relabeled to its global slot (`O(1)`).
    #[inline]
    pub fn stat_of(&self, global_slot: usize) -> rrp_ranking::PageStats {
        let (shard, local) = self.placement[global_slot];
        let mut stat = self.shards[shard as usize].cache.stats()[local as usize];
        stat.slot = global_slot;
        stat
    }

    /// Whether `global_slot` is a member of its shard's promotion pool —
    /// one direct mask index, no placement indirection. Requires
    /// maintained pools and a preceding [`repair`](Self::repair) (the
    /// repair debug-asserts this mask against the repaired global pool).
    #[inline]
    pub fn in_pool(&self, global_slot: usize) -> bool {
        self.pool_mask[global_slot]
    }

    /// Whether pool maintenance is enabled on the shard caches (see
    /// [`set_pool_maintained`](Self::set_pool_maintained)).
    pub fn pool_maintained(&self) -> bool {
        self.shards
            .first()
            .is_some_and(|s| s.cache.pool_maintained())
    }

    /// Bring the global pool in line with the eager membership mask,
    /// returning whether its content changed. Without a flip this is free
    /// and the current `Arc` stays shared with the published version. With
    /// flips it is one sorted merge of the flipped slots into the old pool
    /// — `O(f log pool)` for `f` flips plus block copies of the members
    /// between them — written into recycled spare storage and swapped in
    /// as a fresh `Arc`, leaving any published version's pool untouched.
    /// An untracked flip list (after deserialisation or a maintenance
    /// flip) re-derives the pool from the mask instead (`O(n)`, once).
    fn repair_pool(&mut self) -> bool {
        if self.pool_flips_tracked && self.pool_flips.is_empty() {
            return false;
        }
        let mut buffer = std::mem::take(&mut self.pool_spare);
        buffer.clear();
        let mask = &self.pool_mask;
        let mut changed = false;
        if self.pool_flips_tracked {
            self.pool_flips.sort_unstable();
            self.pool_flips.dedup();
            let mut rest = &self.merged_pool[..];
            for &slot in &self.pool_flips {
                let below = rest.partition_point(|&m| m < slot);
                buffer.extend_from_slice(&rest[..below]);
                rest = &rest[below..];
                // A slot can flip and flip back between two repairs.
                let was_member = rest.first() == Some(&slot);
                if was_member {
                    rest = &rest[1..];
                }
                if mask[slot] {
                    buffer.push(slot);
                }
                changed |= was_member != mask[slot];
            }
            buffer.extend_from_slice(rest);
        } else {
            buffer.extend((0..mask.len()).filter(|&s| mask[s]));
            changed = buffer != *self.merged_pool;
        }
        self.pool_flips.clear();
        self.pool_flips_tracked = true;
        if changed {
            self.merged_pool = Arc::new(buffer);
        } else {
            self.pool_spare = buffer;
        }
        changed
    }

    /// Collect every shard's per-query top-`k` rest candidates into `out`
    /// (resized to the shard count; inner storage reused): the first
    /// `limit` non-pool entries of each shard's popularity order, slots
    /// rewritten to global slots — `O(limit)` per shard past any pool
    /// members sitting above the cut. The pool half comes from
    /// [`pool_slots`](Self::pool_slots). Requires maintained pools and a
    /// preceding [`repair`](Self::repair).
    pub fn collect_rest_candidates(&self, limit: usize, out: &mut Vec<ShardCandidates>) {
        out.resize_with(self.shards.len(), ShardCandidates::new);
        for (shard, candidates) in self.shards.iter().zip(out.iter_mut()) {
            candidates.collect_rest(&shard.cache, limit, &shard.globals);
        }
    }

    /// Discard everything and start over with the same shard count and
    /// pool-maintenance setting — the first half of a rebuild; the owner
    /// then replays every document through [`push`](Self::push) in global
    /// order and calls [`repair`](Self::repair). Invalidates the diff log
    /// (the next publication falls back to copy-on-write once).
    pub fn clear(&mut self) {
        let maintained = self.pool_maintained();
        for shard in self.shards.iter_mut() {
            *shard = ShardCache::default();
            Arc::make_mut(&mut shard.cache).set_pool_maintained(maintained);
        }
        self.placement = Arc::new(Vec::new());
        self.pages = Arc::new(Vec::new());
        self.pool_mask = Arc::new(Vec::new());
        self.merged_pool = Arc::new(Vec::new());
        self.pool_flips.clear();
        self.pool_flips_tracked = true;
        self.since_publish.clear();
        self.since_mask.clear();
        self.diff_log_intact = false;
        self.recycle_valid = false;
    }
}

/// Reclaim a retired `Arc` buffer unless it is (a) still the writer's own
/// buffer (shared, nothing to reclaim) or (b) held by a straggling reader.
fn reclaim<T>(current: &Arc<T>, prev: Arc<T>) -> Option<T> {
    if Arc::ptr_eq(current, &prev) {
        None
    } else {
        Arc::into_inner(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_ranking::{merge_shard_candidates_into, MergedCandidates, PoolIndex, PopularityIndex};
    use serde::Value;

    fn documents(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Document::unexplored(i)
                } else {
                    Document::established(i, 1.0 - (i % 11) as f64 * 0.05).with_age(i % 6)
                }
            })
            .collect()
    }

    /// Route like a store would: any deterministic id hash works, the
    /// invariants only need per-shard ascending global slots.
    fn shard_of(id: u64, shards: usize) -> usize {
        (id as usize * 7 + 1) % shards
    }

    fn filled(docs: &[Document], shards: usize) -> ShardedCorpusCache {
        let mut cache = ShardedCorpusCache::new(shards);
        for doc in docs {
            cache.push(shard_of(doc.id, shards), doc);
        }
        cache
    }

    /// The corpus-wide reference: global stats, order, and pool.
    fn global_reference(docs: &[Document]) -> (PopularityIndex, PoolIndex) {
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(docs, &mut stats);
        (PopularityIndex::build(&stats), PoolIndex::build(&stats))
    }

    fn expected_rest(order: &PopularityIndex, pool: &PoolIndex, limit: usize) -> Vec<usize> {
        order
            .order()
            .iter()
            .copied()
            .filter(|&s| !pool.contains(s))
            .take(limit)
            .collect()
    }

    #[test]
    fn merged_candidates_equal_the_corpus_wide_derivation() {
        let docs = documents(60);
        let (order, pool) = global_reference(&docs);
        for shards in [1usize, 2, 3, 8] {
            let mut cache = filled(&docs, shards);
            assert_eq!(cache.len(), 60);
            assert_eq!(cache.shard_count(), shards);
            cache.repair();

            // The maintained merged pool is the corpus-wide pool.
            assert_eq!(cache.pool_slots(), pool.members(), "{shards} shards");

            // The per-query collection merges to the corpus-wide
            // non-pool prefix.
            let mut candidates = Vec::new();
            let mut merged = MergedCandidates::new();
            cache.collect_rest_candidates(7, &mut candidates);
            merge_shard_candidates_into(&candidates, 7, &mut merged);
            let rest_slots: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
            assert_eq!(
                rest_slots,
                expected_rest(&order, &pool, 7),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn patches_flow_through_the_shard_local_dirty_lists() {
        let mut docs = documents(40);
        let mut cache = filled(&docs, 4);
        cache.repair();
        assert_eq!(cache.dirty_len(), 0);

        docs[0].is_unexplored = false; // slot 0 leaves the pool
        cache.patch(0, &docs[0]);
        docs[7].popularity = 3.0; // slot 7 moves to the top of the order
        cache.patch(7, &docs[7]);
        docs.push(Document::unexplored(99)); // slot 40 joins the pool
        cache.push(shard_of(99, 4), docs.last().unwrap());
        assert_eq!(cache.dirty_len(), 3);
        assert_eq!(cache.repair(), 3);

        let (order, pool) = global_reference(&docs);
        assert_eq!(cache.pool_slots(), pool.members());
        assert!(!cache.pool_slots().contains(&0));
        assert!(cache.pool_slots().contains(&40));
        let mut candidates = Vec::new();
        cache.collect_rest_candidates(5, &mut candidates);
        let mut merged = MergedCandidates::new();
        merge_shard_candidates_into(&candidates, 5, &mut merged);
        let rest_slots: Vec<usize> = merged.rest().iter().map(|p| p.slot).collect();
        assert_eq!(rest_slots[0], 7, "the boosted slot leads the order");
        assert_eq!(rest_slots, expected_rest(&order, &pool, 5));
    }

    #[test]
    fn published_order_equals_the_corpus_wide_popularity_order() {
        let mut docs = documents(60);
        let (order, _) = global_reference(&docs);
        for shards in [1usize, 2, 3, 8] {
            let mut cache = filled(&docs, shards);
            let (version, charged) = cache.publish(1);
            assert_eq!(charged, 60, "the warm-up publication repairs every slot");
            let (merged, ran) = version.ensure_merged_order();
            assert!(ran, "the first full-order consumer merges");
            assert_eq!(merged, order.order(), "{shards} shards");
            let (_, ran) = version.ensure_merged_order();
            assert!(!ran, "a published order must not re-merge");
        }

        // Mutations publish into a fresh version; its order re-merges to
        // the fresh corpus-wide derivation, and only the first full-order
        // consumer of that version pays.
        let mut cache = filled(&docs, 4);
        let (v1, _) = cache.publish(1);
        v1.ensure_merged_order();
        docs[5].popularity = 4.0;
        cache.patch(5, &docs[5]);
        docs.push(Document::unexplored(77));
        cache.push(shard_of(77, 4), docs.last().unwrap());
        let (v2, charged) = cache.publish(2);
        assert_eq!(charged, 2, "exactly the mutated slots are charged");
        cache.recycle(v1, |slot| docs[slot]);
        let (merged, ran) = v2.ensure_merged_order();
        assert!(ran, "a fresh version merges once");
        let (order, _) = global_reference(&docs);
        assert_eq!(merged, order.order());
        assert_eq!(merged[0], 5, "the boosted slot leads");
        assert!(!v2.ensure_merged_order().1);
    }

    #[test]
    fn recycled_publications_stay_bit_identical_to_fresh_derivations() {
        // The steady-state loop: publish → mutate → publish → recycle,
        // with every published version compared against a from-scratch
        // corpus-wide derivation. This is the recycling catch-up's
        // correctness gate: reclaimed buffers replay exactly the
        // publish-to-publish diff.
        let mut docs = documents(50);
        let mut cache = filled(&docs, 3);
        let (mut live, _) = cache.publish(1);
        let mut next_id = 1_000u64;
        for round in 0..12u64 {
            // A visit, a popularity move, and (every third round) an
            // insert — routed exactly like the service would.
            let visit = (round as usize * 7) % docs.len();
            docs[visit].is_unexplored = false;
            cache.patch(visit, &docs[visit]);
            let moved = (round as usize * 11 + 3) % docs.len();
            docs[moved].popularity = 0.1 + (round as f64) * 0.25;
            cache.patch(moved, &docs[moved]);
            if round % 3 == 0 {
                let doc = Document::unexplored(next_id);
                next_id += 1;
                docs.push(doc);
                cache.push(shard_of(doc.id, 3), &doc);
            }
            let (version, _) = cache.publish(round + 2);
            cache.recycle(std::mem::replace(&mut live, version.clone()), |slot| {
                docs[slot]
            });
            let (order, pool) = global_reference(&docs);
            assert_eq!(version.pool_slots(), pool.members(), "round {round}");
            assert_eq!(version.merged_order(), order.order(), "round {round}");
            assert_eq!(version.len(), docs.len());
            for (slot, doc) in docs.iter().enumerate() {
                assert_eq!(version.page_of(slot), PageId::new(doc.id));
                assert_eq!(version.in_pool(slot), doc.is_unexplored);
            }
        }
    }

    #[test]
    fn straggling_readers_only_defer_recycling() {
        // A reader that never lets go of an old version must not corrupt
        // anything: recycling is skipped and the writer falls back to
        // copy-on-write.
        let mut docs = documents(30);
        let mut cache = filled(&docs, 2);
        let (v1, _) = cache.publish(1);
        let straggler = v1.clone(); // a reader parks on the version
        docs[4].popularity = 9.0;
        cache.patch(4, &docs[4]);
        let (v2, _) = cache.publish(2);
        cache.recycle(v1, |slot| docs[slot]); // strong count 2: skipped
        docs[9].is_unexplored = false;
        cache.patch(9, &docs[9]); // copy-on-write path
        let (v3, _) = cache.publish(3);
        cache.recycle(v2, |slot| docs[slot]);
        let (order, pool) = global_reference(&docs);
        assert_eq!(v3.merged_order(), order.order());
        assert_eq!(v3.pool_slots(), pool.members());
        // The parked version still serves its own epoch's state.
        assert_eq!(straggler.epoch(), 1);
        assert!(straggler.in_pool(9), "old versions are immutable");
    }

    #[test]
    fn clean_shards_are_shared_across_versions_not_copied() {
        let docs = documents(40);
        let mut cache = filled(&docs, 4);
        let (v1, _) = cache.publish(1);
        // Mutate one slot; every shard it does not live on must share its
        // cache allocation with the previous version.
        let mutated = 0usize;
        let mut doc = docs[mutated];
        doc.popularity = 5.0;
        cache.patch(mutated, &doc);
        let (v2, _) = cache.publish(2);
        let (dirty_shard, _) = v2.placement[mutated];
        let mut shared = 0;
        for (s, (a, b)) in v1.shards.iter().zip(v2.shards.iter()).enumerate() {
            if s == dirty_shard as usize {
                assert!(
                    !Arc::ptr_eq(&a.cache, &b.cache),
                    "the dirty shard republishes"
                );
            } else {
                assert!(Arc::ptr_eq(&a.cache, &b.cache), "clean shard {s} is shared");
                shared += 1;
            }
        }
        assert_eq!(shared, 3);
    }

    #[test]
    fn publications_without_a_membership_flip_share_the_pool() {
        let mut docs = documents(40);
        let mut cache = filled(&docs, 4);
        let (v1, _) = cache.publish(1);
        assert!(
            v1.pool_repaired(),
            "the warm-up publication builds the pool"
        );
        // Popularity moves on explored and unexplored pages alike flip no
        // membership: the next version shares the pool allocation.
        docs[1].popularity = 7.0;
        cache.patch(1, &docs[1]);
        docs[3].popularity = 0.25;
        cache.patch(3, &docs[3]);
        let (v2, charged) = cache.publish(2);
        assert_eq!(charged, 2);
        assert!(!v2.pool_repaired());
        assert!(Arc::ptr_eq(&v1.merged_pool, &v2.merged_pool));
        cache.recycle(v1, |slot| docs[slot]);
        // A slot that leaves and rejoins between two publications nets no
        // change either.
        docs[0].is_unexplored = false;
        cache.patch(0, &docs[0]);
        docs[0].is_unexplored = true;
        cache.patch(0, &docs[0]);
        let (v3, _) = cache.publish(3);
        assert!(!v3.pool_repaired());
        assert!(Arc::ptr_eq(&v2.merged_pool, &v3.merged_pool));
        assert_eq!(v3.pool_slots(), global_reference(&docs).1.members());
    }

    #[test]
    fn membership_flips_re_derive_the_pool_from_the_mask() {
        fn mask_scan(cache: &ShardedCorpusCache) -> Vec<usize> {
            (0..cache.len()).filter(|&s| cache.in_pool(s)).collect()
        }
        let mut docs = documents(40);
        let mut cache = filled(&docs, 4);
        let (mut live, _) = cache.publish(1);
        let mut epoch = 1;
        let mut republish = |cache: &mut ShardedCorpusCache, docs: &[Document]| {
            epoch += 1;
            let (version, _) = cache.publish(epoch);
            assert!(version.pool_repaired());
            assert!(!Arc::ptr_eq(&live.merged_pool, &version.merged_pool));
            assert_eq!(version.pool_slots(), mask_scan(cache).as_slice());
            assert_eq!(version.pool_slots(), global_reference(docs).1.members());
            cache.recycle(std::mem::replace(&mut live, version), |slot| docs[slot]);
        };
        // A visit to an unexplored page: it leaves the pool.
        assert!(docs[3].is_unexplored);
        docs[3].is_unexplored = false;
        cache.patch(3, &docs[3]);
        republish(&mut cache, &docs);
        // A push of an unexplored document: it joins at the end.
        docs.push(Document::unexplored(500));
        cache.push(shard_of(500, 4), docs.last().unwrap());
        republish(&mut cache, &docs);
        assert_eq!(cache.pool_slots().last(), Some(&40));
        // A maintenance flip each way: off empties the pool, on restores
        // it from the current stats.
        cache.set_pool_maintained(false);
        epoch += 1;
        let (off, _) = cache.publish(epoch);
        assert!(off.pool_repaired());
        assert!(off.pool_slots().is_empty());
        assert_eq!(off.pool_slots(), mask_scan(&cache).as_slice());
        cache.set_pool_maintained(true);
        epoch += 1;
        let (on, _) = cache.publish(epoch);
        assert!(on.pool_repaired());
        assert_eq!(on.pool_slots(), mask_scan(&cache).as_slice());
        assert_eq!(on.pool_slots(), global_reference(&docs).1.members());
    }

    #[test]
    fn stat_of_and_in_pool_resolve_through_the_placement_map() {
        let docs = documents(30);
        let mut cache = filled(&docs, 3);
        cache.repair();
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(&docs, &mut stats);
        for (slot, stat) in stats.iter().enumerate() {
            assert_eq!(cache.stat_of(slot), *stat);
            assert_eq!(cache.in_pool(slot), docs[slot].is_unexplored);
        }
        assert!(cache.pool_maintained());
        // The published view resolves identically.
        let (version, _) = cache.publish(1);
        for (slot, stat) in stats.iter().enumerate() {
            assert_eq!(version.stat_of(slot), *stat);
            assert_eq!(version.in_pool(slot), docs[slot].is_unexplored);
        }
        assert!(version.pool_maintained());
        assert_eq!(version.shard_count(), 3);
        assert!(!version.is_empty());
    }

    #[test]
    fn page_of_resolves_ids_through_the_owning_shard() {
        let docs = documents(25);
        let mut cache = filled(&docs, 3);
        cache.repair();
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(cache.page_of(slot), PageId::new(doc.id));
        }
    }

    #[test]
    fn eager_membership_mask_tracks_mutations_and_the_maintenance_flag() {
        let mut docs = documents(30);
        let mut cache = filled(&docs, 3);
        cache.repair();
        // Push/patch keep the direct-index mask equal to a fresh scan.
        docs[0].is_unexplored = false; // slot 0 (unexplored) leaves
        cache.patch(0, &docs[0]);
        docs[1].is_unexplored = true; // slot 1 (established) joins
        docs[1].popularity = 0.0;
        cache.patch(1, &docs[1]);
        docs.push(Document::unexplored(80)); // slot 30 joins
        cache.push(shard_of(80, 3), docs.last().unwrap());
        cache.repair(); // debug-asserts mask ≡ repaired global pool
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(cache.in_pool(slot), doc.is_unexplored, "slot {slot}");
            assert_eq!(cache.page_of(slot), PageId::new(doc.id), "slot {slot}");
        }
        // Turning maintenance off empties the mask (unmaintained pools are
        // empty); turning it back on recomputes from the patched stats —
        // including a visit made while it was off, which must not stay
        // promoted in the merged pool.
        cache.set_pool_maintained(false);
        assert!((0..docs.len()).all(|s| !cache.in_pool(s)));
        assert!(docs[3].is_unexplored);
        docs[3].is_unexplored = false;
        cache.patch(3, &docs[3]);
        cache.repair();
        assert!(cache.pool_slots().is_empty());
        cache.set_pool_maintained(true);
        cache.repair();
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(cache.in_pool(slot), doc.is_unexplored, "slot {slot}");
        }
        assert!(!cache.pool_slots().contains(&3));
        assert_eq!(cache.pool_slots(), global_reference(&docs).1.members());
    }

    #[test]
    fn clear_keeps_shape_and_pool_setting_for_a_replay() {
        let docs = documents(20);
        let mut cache = filled(&docs, 3);
        cache.set_pool_maintained(false);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.shard_count(), 3);
        assert!(cache.pool_slots().is_empty());
        for doc in &docs {
            cache.push(shard_of(doc.id, 3), doc);
        }
        cache.repair();
        assert_eq!(cache.len(), docs.len());
        // Pool maintenance stayed off across the clear (candidate
        // retrieval is gated on it, so the setting must survive a replay).
        assert!(cache.shards.iter().all(|s| !s.cache.pool_maintained()));
    }

    /// The pool index's `is_unexplored` tripwire, at the shard tier:
    /// mutating a document's awareness *without* routing the mutation
    /// through [`ShardedCorpusCache::patch`] leaves that shard's pool index
    /// stale, and the membership debug assertion inside the next
    /// shard-local repair catches it instead of silently serving a drifted
    /// pool.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_shard_local_mutation_trips_the_membership_assertion() {
        let mut docs = documents(12);
        let mut cache = filled(&docs, 3);
        cache.repair();

        // Visit the unexplored slot 0 behind the cache's back — rewrite its
        // entry in the shard cache's serialized state, so no dirty mark is
        // set — then dirty the *same shard* through a legitimate patch:
        // slots 0 and 3 both route to shard `shard_of(0, 3)`, so the next
        // repair runs on the drifted shard and its membership assertion
        // fires.
        assert_eq!(shard_of(0, 3), shard_of(3, 3));
        docs[0].is_unexplored = false;
        let (shard, local) = cache.placement[0];
        let stat = RankPromotionEngine::document_stat(local as usize, &docs[0]);
        let shard_cache = &mut cache.shards[shard as usize].cache;
        let Value::Map(mut fields) = shard_cache.to_value() else {
            unreachable!("a cache serializes as a map")
        };
        let Some((_, Value::Seq(stats))) = fields.iter_mut().find(|(name, _)| name == "stats")
        else {
            unreachable!("the cache serializes its stats")
        };
        stats[local as usize] = stat.to_value();
        *shard_cache = Arc::new(CorpusCache::from_value(&Value::Map(fields)).unwrap());
        docs[3].popularity = 0.9;
        cache.patch(3, &docs[3]);
        cache.repair();
    }
}
