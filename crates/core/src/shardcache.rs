//! The serving tier's ranking state, split into a writer generation and
//! published read-only versions.
//!
//! The paper ranks every query by merging one corpus-wide popularity list
//! `L_d` with the shuffled promotion pool `L_p` (Section 4). The serving
//! tier keeps exactly that state: **one** [`rrp_ranking::CorpusCache`]
//! over global slots (slot = the store's global sequence number) — the
//! same type the simulator's day loop runs on — holding the per-slot
//! [`PageStats`](rrp_ranking::PageStats), the popularity order and the
//! promotion-pool index, repaired together from one dirty list. The
//! store's id-hash sharding is a storage concern only: ranking never sees
//! it.
//!
//! # Epoch-versioned publication
//!
//! The cache is *two* generations of the same state:
//!
//! * the **writer generation** — the `Arc`-held cache this struct mutates
//!   in place through [`push`](ShardedCorpusCache::push) /
//!   [`patch`](ShardedCorpusCache::patch); and
//! * the **published version** ([`PublishedVersion`]) — an immutable,
//!   epoch-stamped snapshot cut by [`publish`](ShardedCorpusCache::publish):
//!   the writer repairs its dirty slots, then shares its (now clean) cache
//!   into the version by `Arc` clone. Readers rank against a version
//!   without any lock.
//!
//! Publication repairs each slot mutated since the last publication
//! exactly once, in one copying pass out of the live version:
//!
//! * the writer's popularity order is written from the live order
//!   ([`CorpusCache::repair_from`]): a dirty slot whose key compares equal
//!   to its live one (a visit to an explored page) stays where it is;
//!   each of the `m` moved slots' old position and new place are found by
//!   `2·m` binary searches run in lockstep against the live order, whose
//!   stats hold every dirty slot's old key, and the order is copied across
//!   once, leaving out the moved slots' old entries and writing them in at
//!   their new places — `2·m` lockstep searches for `m` moved slots plus
//!   one `n`-entry `u32` copy. The pool costs an `O(d)` membership check
//!   against the live mask and one copying edit of the live member list;
//! * the cache is **recycled**: when a version retires
//!   ([`recycle`](ShardedCorpusCache::recycle)) its uniquely-held cache is
//!   reclaimed and caught up by copying the live stats and pool-mask bits
//!   at the slots the new version repaired ([`CorpusCache::catch_up`]), so
//!   the reclaimed writer differs from the live version exactly at its own
//!   dirty slots. Its order and member list stay scratch until the next
//!   publication overwrites them — nothing is repaired twice — and
//!   serialization reads the live ones in their place. If a straggling
//!   reader still holds the
//!   retired version, recycling is skipped and the next mutation falls
//!   back to copy-on-write (`Arc::make_mut`) — correct at any
//!   interleaving, merely paying a one-time copy.
//!
//! Every read — full rerank, the Uniform rule's per-page coin scan and a
//! selective top-k — ranks from the version's
//! [`source`](PublishedVersion::source): the complete popularity order,
//! the maintained pool and its membership mask. A top-`k` read stops
//! filling `L_d` after `k` non-pool entries, so it never walks the order
//! past its prefix.
//!
//! The tier is a function of the documents, so it is only ever built by
//! pushing them in slot order — by a fresh service, leader recovery and
//! replica bootstrap alike; nothing decodes it. Pool maintenance is fixed
//! before the first document, so the writer has one state: it edits from
//! the live version. Snapshots still write its serialised form, byte for
//! byte, for `benchmark/`'s byte comparison; recovery never reads it. A
//! snapshot renders that form from a [`TierCapture`]: the few lists it
//! cannot derive from the documents, copied out of the writer so the
//! rendering can run on another thread. Each document's popularity is
//! formatted once per snapshot ([`PopularityText`]), for both the
//! documents list and the tier's stats.

use crate::document::Document;
use crate::engine::RankPromotionEngine;
use rrp_model::PageId;
use rrp_ranking::{CorpusCache, CorpusCacheView, RankSource, ShardCandidates};
use serde::{SerError, Serialize, Value};
use std::sync::Arc;

/// An immutable, epoch-stamped snapshot of the serving tier: the repaired
/// corpus-wide cache, shared by `Arc` with the writer generation that cut
/// it. Cut by [`ShardedCorpusCache::publish`]; safe to read from any
/// number of threads without a lock. The `epoch` records which mutation
/// epoch the snapshot serves — readers validate it against the live epoch
/// counter to detect (and bound) staleness.
#[derive(Debug)]
pub struct PublishedVersion {
    epoch: u64,
    /// Whether cutting this version changed the promotion pool (see
    /// [`pool_repaired`](Self::pool_repaired)).
    pool_repaired: bool,
    cache: Arc<CorpusCache>,
}

impl PublishedVersion {
    /// The empty version at epoch 0 — what a service publishes before any
    /// mutation exists. An empty corpus never republishes: inserts are the
    /// only path to a non-empty one, and they bump the epoch.
    ///
    /// The shard count is ignored (ranking state is corpus-wide); the
    /// parameter exists only because `benchmark/` calls this signature.
    pub fn empty(_shard_count: usize, pool_maintained: bool) -> Self {
        let mut cache = CorpusCache::new();
        cache.set_pool_maintained(pool_maintained);
        PublishedVersion {
            epoch: 0,
            pool_repaired: false,
            cache: Arc::new(cache),
        }
    }

    /// The mutation epoch this version serves.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total number of documents in the snapshot.
    #[inline]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the snapshot holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Whether cutting this version changed the promotion pool. A version
    /// cut with no net membership flip reports `false` — the owner's
    /// `pool_repairs` probe counts the `true`s.
    #[inline]
    pub fn pool_repaired(&self) -> bool {
        self.pool_repaired
    }

    /// The repaired corpus-wide cache this version serves.
    #[inline]
    pub fn cache(&self) -> &CorpusCache {
        &self.cache
    }

    /// What every read ranks from: the complete popularity order, the
    /// maintained pool and its membership mask
    /// ([`CorpusCache::source`]).
    #[inline]
    pub fn source(&self) -> RankSource<'_, impl Fn(usize) -> bool + Copy + '_> {
        self.cache.source()
    }

    /// The promotion pool, ascending by slot — the pre-shuffle pool order
    /// every selective query shuffles. Empty while pool maintenance is
    /// off.
    #[inline]
    pub fn pool_slots(&self) -> &[usize] {
        self.cache.pool().members()
    }

    /// The [`PageId`] of the document at `slot` — one direct index on the
    /// per-slot hot loop of every serving path.
    #[inline]
    pub fn page_of(&self, slot: usize) -> PageId {
        self.cache.stats()[slot].page
    }

    /// Whether `slot` is a member of the promotion pool (always `false`
    /// while pool maintenance is off).
    #[inline]
    pub fn in_pool(&self, slot: usize) -> bool {
        self.cache.pool_maintained() && self.cache.pool().contains(slot)
    }

    /// The complete popularity order, plus `false`: there is no merge left
    /// to run. Kept only because `benchmark/` calls it.
    pub fn ensure_merged_order(&self) -> (&[u32], bool) {
        (self.cache.order(), false)
    }

    /// Collect the first `limit` non-pool entries of the popularity order
    /// as one candidate stream into `out` (resized to one entry; its
    /// storage reused). Requires maintained pools. Kept only because
    /// `benchmark/` calls it.
    pub fn collect_rest_candidates(&self, limit: usize, out: &mut Vec<ShardCandidates>) {
        out.resize_with(1, ShardCandidates::new);
        out[0].collect_rest(&self.cache, limit);
    }
}

/// The writer generation of the serving tier: one [`CorpusCache`] over
/// global slots, the live cache it publishes edits from, and
/// epoch-stamped immutable publication for concurrent readers (see the
/// module docs for the two-generation layout).
///
/// Built only by pushing documents (a service derives it from its store,
/// at construction and recovery alike), with pool maintenance fixed
/// before the first one. Snapshots write its serialised form but never
/// read it back; `benchmark/` writes the same form and compares snapshot
/// bytes, so the shape changes only together with it.
#[derive(Debug)]
pub struct ShardedCorpusCache {
    cache: Arc<CorpusCache>,
    /// The cache of the last published version (the empty cache before
    /// the first publication). The writer's stats and pool mask equal it
    /// everywhere but at the writer's dirty slots: it is the source
    /// [`publish`](Self::publish) edits the writer's order and member list
    /// from, and the valid ones the writer serializes (its own are scratch
    /// after a [`recycle`](Self::recycle)).
    live: Arc<CorpusCache>,
    /// The slots the last [`publish`](Self::publish) repaired, retained for
    /// the follow-up [`recycle`](Self::recycle): the retiring version lags
    /// the new one by exactly these slots.
    recycle_diff: Vec<usize>,
    /// Whether `recycle_diff` is a complete catch-up diff for the version
    /// retired by the last publication.
    recycle_valid: bool,
}

impl ShardedCorpusCache {
    /// An empty cache. The shard count is ignored (ranking state is
    /// corpus-wide); the parameter exists only because `benchmark/` calls
    /// this signature.
    pub fn new(_shard_count: usize) -> Self {
        let cache = Arc::new(CorpusCache::new());
        ShardedCorpusCache {
            live: cache.clone(),
            cache,
            recycle_diff: Vec::new(),
            recycle_valid: false,
        }
    }

    /// Enable or disable pool maintenance (see
    /// [`CorpusCache::set_pool_maintained`]) before the first document is
    /// pushed.
    ///
    /// # Panics
    ///
    /// If the cache holds any document: maintenance is a construction-time
    /// property, as [`push`](Self::push)'s slot is.
    pub fn set_pool_maintained(&mut self, maintained: bool) {
        Arc::make_mut(&mut self.cache).set_pool_maintained(maintained);
        // Nothing to publish yet: an empty writer is its own source.
        self.live = self.cache.clone();
    }

    /// Whether pool maintenance is enabled (see
    /// [`set_pool_maintained`](Self::set_pool_maintained)).
    pub fn pool_maintained(&self) -> bool {
        self.cache.pool_maintained()
    }

    /// Total number of cached documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache holds no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Dirty entries awaiting repair at the next publication.
    pub fn dirty_len(&self) -> usize {
        self.cache.dirty_len()
    }

    /// Append the document occupying the next global slot (`O(1)`
    /// amortised). Global slots are assigned densely in push order — they
    /// are the store's global sequence numbers. The shard argument is
    /// ignored; it exists only because `benchmark/` calls this signature.
    pub fn push(&mut self, _shard: usize, document: &Document) {
        let slot = self.cache.len();
        Arc::make_mut(&mut self.cache).push(RankPromotionEngine::document_stat(slot, document));
    }

    /// Patch the cached stats of the document at `slot` after a mutation,
    /// marking it dirty (`O(1)` amortised — a write to a cache still
    /// shared with a published version falls back to one copy-on-write
    /// clone).
    pub fn patch(&mut self, slot: usize, document: &Document) {
        let stat = RankPromotionEngine::document_stat(slot, document);
        Arc::make_mut(&mut self.cache).patch(slot, stat);
    }

    /// Cut an immutable [`PublishedVersion`] of the current state, stamped
    /// with `epoch`: repair the writer generation, then share its cache
    /// into the version by `Arc` clone. Returns the version and the number
    /// of dirty slots repaired — the distinct slots mutated since the last
    /// publication, each repaired exactly once, which is what the owner's
    /// repair probes record.
    ///
    /// The writer's order and member list are written in one copying edit
    /// each from the live version's, whose stats hold every dirty slot's
    /// old key ([`CorpusCache::repair_from`]). With nothing mutated since
    /// the live version, the version shares the live cache.
    ///
    /// Publication happens at most once per mutation epoch by
    /// construction: the owner only calls this when its published
    /// version's epoch trails the live epoch counter. Follow with
    /// [`recycle`](Self::recycle) on the retired version to keep the
    /// steady-state cost `O(dirty)` apart from the copies.
    pub fn publish(&mut self, epoch: u64) -> (Arc<PublishedVersion>, u64) {
        let charged = self.cache.dirty_len() as u64;
        self.recycle_diff.clear();
        self.recycle_valid = charged > 0;
        let pool_repaired = if charged == 0 {
            self.cache = self.live.clone();
            false
        } else {
            // The version retired by this publication lags the new one by
            // exactly the repaired slots.
            self.recycle_diff.extend_from_slice(self.cache.dirty());
            Arc::make_mut(&mut self.cache).repair_from(&self.live)
        };
        self.live = self.cache.clone();
        let version = PublishedVersion {
            epoch,
            pool_repaired,
            cache: self.cache.clone(),
        };
        (Arc::new(version), charged)
    }

    /// Reclaim a retired version's cache as the next writer generation.
    ///
    /// Call right after swapping a fresh [`publish`](Self::publish) result
    /// into place, handing over the previous version. If no reader still
    /// holds it, its cache is caught up to the new live version by copying
    /// the live stats and pool-mask bits at the slots that publication
    /// repaired ([`CorpusCache::catch_up`], `O(dirty)`), and installed as
    /// the writable generation, so subsequent mutations stay `O(1)`
    /// instead of copy-on-write. Its order and member list stay as they
    /// were — scratch, until the next publication overwrites them from the
    /// live version; nothing is repaired twice. If a straggler still holds
    /// the version, the last publication repaired nothing, or the diff is
    /// longer than the retired cache, this is a no-op and the next
    /// mutation clones.
    ///
    /// `fetch` is unused: the live version holds everything the retired
    /// one is missing. It is kept only because `benchmark/` calls this
    /// signature.
    pub fn recycle(&mut self, prev: Arc<PublishedVersion>, _fetch: impl Fn(usize) -> Document) {
        if !std::mem::replace(&mut self.recycle_valid, false) {
            return;
        }
        // A cache still shared — by a straggler, or by the writer itself
        // after a publication with nothing mutated — is not reclaimed.
        let Some(mut cache) = Arc::into_inner(prev).and_then(|prev| Arc::into_inner(prev.cache))
        else {
            return;
        };
        if cache.len() < self.recycle_diff.len() {
            // Mostly pushes (the empty first version, a bulk load): the
            // copy-on-write the writer falls back to is one copy of the
            // cache either way.
            return;
        }
        cache.catch_up(&self.cache, &self.recycle_diff);
        self.recycle_diff.clear();
        self.cache = Arc::new(cache);
    }
}

impl ShardedCorpusCache {
    /// Copy what a snapshot renders of the tier and cannot derive from
    /// the documents (see [`TierCapture`]): `O(n)` for the order, `O(pool
    /// + dirty)` for the rest.
    pub fn capture(&self) -> TierCapture {
        TierCapture {
            order: self.live.order().to_vec(),
            pool_members: self.live.pool().members().to_vec(),
            pool_indexed: self.live.pool().indexed_slots(),
            maintain_pool: self.cache.pool_maintained(),
            dirty: self.cache.dirty().to_vec(),
        }
    }
}

/// What a snapshot renders of the serving tier, copied out of the writer
/// by [`ShardedCorpusCache::capture`] so it can be rendered off the writer
/// lock, on another thread, while the writer takes further mutations.
///
/// It holds the live version's popularity order and pool members (the
/// valid ones, as serialization reads them), the pool's indexed length,
/// the writer's pool-maintenance flag and its dirty slots. Everything else
/// the serialized form holds is derived by [`render`](Self::render): each
/// slot's stats from its document, the pool mask from the members and the
/// dirty mask from the dirty slots (each mask is its list's membership).
#[derive(Debug)]
pub struct TierCapture {
    order: Vec<u32>,
    pool_members: Vec<usize>,
    /// The length of the live pool mask (0 while the pool is unmaintained).
    pool_indexed: usize,
    maintain_pool: bool,
    dirty: Vec<usize>,
}

impl TierCapture {
    /// Append the tier's serialized form (`{"cache":{…}}`), byte for byte
    /// what serializing the captured [`ShardedCorpusCache`] writes, to
    /// `out`. `documents` are the store's at the capture, in slot order,
    /// and `popularity` their popularities formatted
    /// ([`PopularityText::format`]); each slot's stats are
    /// [`RankPromotionEngine::document_stat`] of its document, which is
    /// what the writer's patches hold. `flush(out)` runs after every list
    /// entry and may drain `out`, so the text never has to be held whole.
    pub fn render<E: From<SerError>>(
        &self,
        documents: &[Document],
        popularity: &PopularityText,
        out: &mut String,
        flush: &mut impl FnMut(&mut String) -> Result<(), E>,
    ) -> Result<(), E> {
        let stats = documents.iter().enumerate().map(|(slot, document)| {
            let stat = RankPromotionEngine::document_stat(slot, document);
            // The stats clamp a negative popularity to 0.0; any other is
            // the document's, bit for bit, and its text is reused.
            let text = (stat.popularity.to_bits() == document.popularity.to_bits())
                .then(|| popularity.get(slot));
            StatJson {
                slot: stat.slot,
                page: stat.page,
                popularity: Formatted {
                    value: stat.popularity,
                    text,
                },
                awareness: stat.awareness,
                age_days: stat.age_days,
                quality: stat.quality,
            }
        });
        out.push_str("{\"cache\":{\"stats\":");
        render_list(stats, out, flush)?;
        out.push_str(",\"popularity\":{\"order\":");
        render_list(&self.order, out, flush)?;
        out.push_str("},\"pool\":{\"members\":");
        render_list(&self.pool_members, out, flush)?;
        out.push_str(",\"mask\":");
        render_list(
            membership(&self.pool_members, self.pool_indexed),
            out,
            flush,
        )?;
        out.push_str("},\"maintain_pool\":");
        self.maintain_pool.write_json(out)?;
        out.push_str(",\"dirty\":");
        render_list(&self.dirty, out, flush)?;
        out.push_str(",\"dirty_mask\":");
        render_list(membership(&self.dirty, documents.len()), out, flush)?;
        out.push_str("}}");
        Ok(())
    }
}

/// Each document's popularity as JSON text, formatted once per snapshot:
/// both the documents list and the tier's stats write it, and the
/// shortest round-trip float format is most of a snapshot's render. A
/// snapshot writer keeps one across snapshots, so its buffers grow once.
#[derive(Debug, Default)]
pub struct PopularityText {
    text: String,
    /// Where each document's text ends in `text`.
    ends: Vec<usize>,
}

impl PopularityText {
    /// Format every document's popularity, replacing what was held. A
    /// non-finite one is an error.
    pub fn format(&mut self, documents: &[Document]) -> Result<(), SerError> {
        self.text.clear();
        self.ends.clear();
        for document in documents {
            document.popularity.write_json(&mut self.text)?;
            self.ends.push(self.text.len());
        }
        Ok(())
    }

    /// Append the JSON of `document`, the `slot`-th one formatted, to
    /// `out`: byte for byte its own `write_json`, with the popularity's
    /// text copied instead of formatted again.
    pub fn write_document(
        &self,
        slot: usize,
        document: &Document,
        out: &mut String,
    ) -> Result<(), SerError> {
        DocumentJson {
            id: document.id,
            popularity: Formatted {
                value: document.popularity,
                text: Some(self.get(slot)),
            },
            is_unexplored: document.is_unexplored,
            age_days: document.age_days,
        }
        .write_json(out)
    }

    /// The text of the `slot`-th document's popularity.
    fn get(&self, slot: usize) -> &str {
        let start = slot.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start..self.ends[slot]]
    }
}

/// A float, with its JSON text when it is already formatted.
struct Formatted<'a> {
    value: f64,
    text: Option<&'a str>,
}

impl Serialize for Formatted<'_> {
    fn to_value(&self) -> Value {
        self.value.to_value()
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        match self.text {
            Some(text) => {
                out.push_str(text);
                Ok(())
            }
            None => self.value.write_json(out),
        }
    }
}

/// A [`Document`]'s serialized form (the same fields, in order), its
/// popularity formatted beforehand.
#[derive(Serialize)]
struct DocumentJson<'a> {
    id: u64,
    popularity: Formatted<'a>,
    is_unexplored: bool,
    age_days: u64,
}

/// A [`PageStats`](rrp_ranking::PageStats)' serialized form (the same
/// fields, in order), its popularity formatted beforehand.
#[derive(Serialize)]
struct StatJson<'a> {
    slot: usize,
    page: PageId,
    popularity: Formatted<'a>,
    awareness: f64,
    age_days: u64,
    quality: f64,
}

/// `entries` as a JSON array appended to `out`, with `flush(out)` after
/// each entry.
fn render_list<T: Serialize, E: From<SerError>>(
    entries: impl IntoIterator<Item = T>,
    out: &mut String,
    flush: &mut impl FnMut(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    out.push('[');
    for (i, entry) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        entry.write_json(out)?;
        flush(out)?;
    }
    out.push(']');
    Ok(())
}

/// The `len`-slot mask of `slots`' membership.
fn membership(slots: &[usize], len: usize) -> Vec<bool> {
    let mut mask = vec![false; len];
    for &slot in slots {
        mask[slot] = true;
    }
    mask
}

impl Serialize for ShardedCorpusCache {
    fn to_value(&self) -> Value {
        self.view().to_value()
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        self.view().write_json(out)
    }
}

/// A [`ShardedCorpusCache`]'s serialized form (`{"cache": …}`): the
/// writer's cache, with the live version's order and pool. Between a
/// [`recycle`](ShardedCorpusCache::recycle) and the next publication the
/// writer's own order and member list are scratch, and the live ones are
/// what its stats derive with the dirty slots' old keys.
#[derive(Serialize)]
struct ShardedCorpusCacheView<'a> {
    cache: CorpusCacheView<'a>,
}

impl ShardedCorpusCache {
    fn view(&self) -> ShardedCorpusCacheView<'_> {
        ShardedCorpusCacheView {
            cache: self.cache.view_with_index_of(&self.live),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_ranking::{merge_shard_candidates_into, MergedCandidates, PoolIndex, PopularityIndex};

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

    fn filled(docs: &[Document]) -> ShardedCorpusCache {
        let mut cache = ShardedCorpusCache::new(1);
        for doc in docs {
            cache.push(0, doc);
        }
        cache
    }

    /// The from-scratch reference: stats, order, and pool.
    fn global_reference(docs: &[Document]) -> (PopularityIndex, PoolIndex) {
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(docs, &mut stats);
        (PopularityIndex::build(&stats), PoolIndex::build(&stats))
    }

    fn expected_rest(order: &PopularityIndex, pool: &PoolIndex, limit: usize) -> Vec<usize> {
        order
            .order()
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| !pool.contains(s))
            .take(limit)
            .collect()
    }

    /// The benchmark adapter's rest prefix: collect, then merge the one
    /// stream.
    fn collected_rest(version: &PublishedVersion, limit: usize) -> Vec<usize> {
        let mut candidates = Vec::new();
        let mut merged = MergedCandidates::new();
        version.collect_rest_candidates(limit, &mut candidates);
        merge_shard_candidates_into(&candidates, limit, &mut merged);
        merged.rest().iter().map(|p| p.slot).collect()
    }

    #[test]
    fn merged_candidates_equal_the_corpus_wide_derivation() {
        let docs = documents(60);
        let (order, pool) = global_reference(&docs);
        let mut cache = filled(&docs);
        assert_eq!(cache.len(), 60);
        let (version, _) = cache.publish(1);
        assert_eq!(version.pool_slots(), pool.members());
        for limit in [0usize, 1, 7, 100] {
            assert_eq!(
                collected_rest(&version, limit),
                expected_rest(&order, &pool, limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn patches_and_pushes_flow_through_the_dirty_list() {
        let mut docs = documents(40);
        let mut cache = filled(&docs);
        let (v1, _) = cache.publish(1);
        assert_eq!(cache.dirty_len(), 0);

        docs[0].is_unexplored = false; // slot 0 leaves the pool
        cache.patch(0, &docs[0]);
        docs[7].popularity = 3.0; // slot 7 moves to the top of the order
        cache.patch(7, &docs[7]);
        docs.push(Document::unexplored(99)); // slot 40 joins the pool
        cache.push(0, docs.last().unwrap());
        assert_eq!(cache.dirty_len(), 3);
        let (version, charged) = cache.publish(2);
        assert_eq!(charged, 3);
        cache.recycle(v1, |slot| docs[slot]);

        let (order, pool) = global_reference(&docs);
        assert_eq!(version.pool_slots(), pool.members());
        assert!(!version.pool_slots().contains(&0));
        assert!(version.pool_slots().contains(&40));
        let rest = collected_rest(&version, 5);
        assert_eq!(rest[0], 7, "the boosted slot leads the order");
        assert_eq!(rest, expected_rest(&order, &pool, 5));
    }

    #[test]
    fn published_order_equals_the_corpus_wide_popularity_order() {
        let mut docs = documents(60);
        let (order, _) = global_reference(&docs);
        let mut cache = filled(&docs);
        let (v1, charged) = cache.publish(1);
        assert_eq!(charged, 60, "the warm-up publication repairs every slot");
        assert_eq!(v1.ensure_merged_order(), (order.order(), false));

        // Mutations publish into a fresh version whose order is the fresh
        // corpus-wide derivation.
        docs[5].popularity = 4.0;
        cache.patch(5, &docs[5]);
        docs.push(Document::unexplored(77));
        cache.push(0, docs.last().unwrap());
        let (v2, charged) = cache.publish(2);
        assert_eq!(charged, 2, "exactly the mutated slots are charged");
        cache.recycle(v1, |slot| docs[slot]);
        let (order, _) = global_reference(&docs);
        assert_eq!(v2.cache().order(), order.order());
        assert_eq!(v2.cache().order()[0], 5, "the boosted slot leads");
    }

    #[test]
    fn recycled_publications_stay_bit_identical_to_fresh_derivations() {
        // The steady-state loop: publish → mutate → publish → recycle,
        // with every published version compared against a from-scratch
        // derivation. This is the recycling catch-up's correctness gate:
        // the reclaimed cache copies exactly the publish-to-publish diff
        // from the live version, and its scratch order is overwritten.
        let mut docs = documents(50);
        let mut cache = filled(&docs);
        let (mut live, _) = cache.publish(1);
        let mut next_id = 1_000u64;
        for round in 0..12u64 {
            // A visit, a popularity move, and (every third round) an
            // insert.
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
                cache.push(0, &doc);
            }
            let (version, _) = cache.publish(round + 2);
            cache.recycle(std::mem::replace(&mut live, version.clone()), |slot| {
                docs[slot]
            });
            let (order, pool) = global_reference(&docs);
            assert_eq!(version.pool_slots(), pool.members(), "round {round}");
            assert_eq!(version.cache().order(), order.order(), "round {round}");
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
        let mut cache = filled(&docs);
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
        assert_eq!(v3.cache().order(), order.order());
        assert_eq!(v3.pool_slots(), pool.members());
        // The parked version still serves its own epoch's state.
        assert_eq!(straggler.epoch(), 1);
        assert!(straggler.in_pool(9), "old versions are immutable");
    }

    #[test]
    fn a_clean_cache_is_shared_across_versions_not_copied() {
        // A publication with nothing mutated since the last one shares
        // the cache allocation; a mutation republishes a fresh one.
        let docs = documents(40);
        let mut cache = filled(&docs);
        let (v1, _) = cache.publish(1);
        let (v2, charged) = cache.publish(2);
        assert_eq!(charged, 0);
        assert!(Arc::ptr_eq(&v1.cache, &v2.cache), "clean cache is shared");
        let mut doc = docs[0];
        doc.popularity = 5.0;
        cache.patch(0, &doc);
        let (v3, _) = cache.publish(3);
        assert!(
            !Arc::ptr_eq(&v2.cache, &v3.cache),
            "a dirty cache republishes"
        );
    }

    #[test]
    fn publications_without_a_membership_flip_share_the_pool() {
        let mut docs = documents(40);
        let mut cache = filled(&docs);
        let (v1, _) = cache.publish(1);
        assert!(
            v1.pool_repaired(),
            "the warm-up publication builds the pool"
        );
        // Popularity moves on explored and unexplored pages alike flip no
        // membership: the next version reports no pool repair.
        docs[1].popularity = 7.0;
        cache.patch(1, &docs[1]);
        docs[3].popularity = 0.25;
        cache.patch(3, &docs[3]);
        let (v2, charged) = cache.publish(2);
        assert_eq!(charged, 2);
        assert!(!v2.pool_repaired());
        assert_eq!(v1.pool_slots(), v2.pool_slots());
        cache.recycle(v1, |slot| docs[slot]);
        // A slot that leaves and rejoins between two publications nets no
        // change either.
        docs[0].is_unexplored = false;
        cache.patch(0, &docs[0]);
        docs[0].is_unexplored = true;
        cache.patch(0, &docs[0]);
        let (v3, _) = cache.publish(3);
        assert!(!v3.pool_repaired());
        assert_eq!(v3.pool_slots(), global_reference(&docs).1.members());
    }

    #[test]
    fn membership_flips_re_derive_the_pool_from_the_mask() {
        fn mask_scan(version: &PublishedVersion) -> Vec<usize> {
            (0..version.len()).filter(|&s| version.in_pool(s)).collect()
        }
        let mut docs = documents(40);
        let mut cache = filled(&docs);
        let (mut live, _) = cache.publish(1);
        let mut epoch = 1;
        let mut republish = |cache: &mut ShardedCorpusCache, docs: &[Document]| {
            epoch += 1;
            let (version, _) = cache.publish(epoch);
            assert!(version.pool_repaired());
            assert_ne!(live.pool_slots(), version.pool_slots());
            assert_eq!(version.pool_slots(), mask_scan(&version).as_slice());
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
        cache.push(0, docs.last().unwrap());
        republish(&mut cache, &docs);
    }

    #[test]
    fn stat_of_and_in_pool_read_the_one_cache() {
        let docs = documents(30);
        let mut cache = filled(&docs);
        let (version, _) = cache.publish(1);
        let mut stats = Vec::new();
        RankPromotionEngine::document_stats(&docs, &mut stats);
        assert_eq!(version.cache().stats(), stats.as_slice());
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(version.in_pool(slot), doc.is_unexplored);
        }
        assert!(cache.pool_maintained());
        assert!(!version.is_empty());
    }

    #[test]
    fn page_of_resolves_ids_by_global_slot() {
        let docs = documents(25);
        let mut cache = filled(&docs);
        let (version, _) = cache.publish(1);
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(version.page_of(slot), PageId::new(doc.id));
        }
    }

    #[test]
    fn eager_membership_mask_tracks_mutations_and_the_maintenance_flag() {
        let mut docs = documents(30);
        let mut cache = filled(&docs);
        let (mut live, _) = cache.publish(1);
        // Push/patch keep the membership mask equal to a fresh scan.
        docs[0].is_unexplored = false; // slot 0 (unexplored) leaves
        cache.patch(0, &docs[0]);
        docs[1].is_unexplored = true; // slot 1 (established) joins
        docs[1].popularity = 0.0;
        cache.patch(1, &docs[1]);
        docs.push(Document::unexplored(80)); // slot 30 joins
        cache.push(0, docs.last().unwrap());
        let mut epoch = 1;
        let mut republish = |cache: &mut ShardedCorpusCache, docs: &[Document]| {
            epoch += 1;
            let (version, _) = cache.publish(epoch);
            cache.recycle(std::mem::replace(&mut live, version.clone()), |slot| {
                docs[slot]
            });
            version
        };
        let version = republish(&mut cache, &docs);
        for (slot, doc) in docs.iter().enumerate() {
            assert_eq!(version.in_pool(slot), doc.is_unexplored, "slot {slot}");
            assert_eq!(version.page_of(slot), PageId::new(doc.id), "slot {slot}");
        }
        // A cache built with maintenance off keeps the mask empty through
        // the same mutations: unmaintained pools are empty.
        let mut off = ShardedCorpusCache::new(1);
        off.set_pool_maintained(false);
        for doc in &docs {
            off.push(0, doc);
        }
        let (version, _) = off.publish(1);
        assert!((0..docs.len()).all(|s| !version.in_pool(s)));
        docs[3].is_unexplored = false;
        off.patch(3, &docs[3]);
        let (version, _) = off.publish(2);
        assert!(version.pool_slots().is_empty());
        assert!(!version.pool_repaired());
    }

    #[test]
    #[should_panic(expected = "fixed before the first slot")]
    fn pool_maintenance_cannot_change_once_a_document_is_pushed() {
        let mut cache = filled(&documents(3));
        cache.publish(1);
        cache.set_pool_maintained(false);
    }

    /// The pool index's `is_unexplored` tripwire at the serving tier:
    /// mutating a document's awareness *without* routing the mutation
    /// through [`ShardedCorpusCache::patch`] leaves the pool index stale,
    /// and the membership debug assertion inside the next publication's
    /// repair catches it instead of silently serving a drifted pool.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_consistent")]
    fn unmarked_shard_local_mutation_trips_the_membership_assertion() {
        let mut docs = documents(12);
        let mut cache = filled(&docs);
        cache.publish(1);

        // Visit the unexplored slot 0 behind the cache's back — catch the
        // writer up from a copy holding the visit as an unrepaired patch,
        // which copies the visited stats and the stale mask bit but sets
        // no dirty mark — then dirty another slot through a legitimate
        // patch: the next publication's membership assertion fires.
        assert!(cache.live.pool().contains(0));
        docs[0].is_unexplored = false;
        let mut visited = (*cache.live).clone();
        visited.patch(0, RankPromotionEngine::document_stat(0, &docs[0]));
        Arc::make_mut(&mut cache.cache).catch_up(&visited, &[0]);
        docs[3].popularity = 0.9;
        cache.patch(3, &docs[3]);
        cache.publish(2);
    }
}
