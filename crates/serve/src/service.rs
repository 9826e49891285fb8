//! The sharded batch rerank service.

use crate::store::ShardedStore;
use rrp_core::{
    Document, EngineVersion, PublishedVersion, QueryContext, RankPromotionEngine,
    ShardedCorpusCache,
};
use rrp_ranking::RankBuffers;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Operation counters for the incremental serving state — the probe that
/// pins the steady-state contract in tests: when the corpus is unchanged a
/// batch performs **zero** repairs and **zero** version publications, and
/// a mutated corpus costs one publication repairing exactly the dirty
/// slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches answered (one per `rerank_batch*` call).
    pub batches: u64,
    /// Queries answered, across batch, single and top-k paths.
    pub queries: u64,
    /// Dirty slots repaired by version publications: the distinct slots
    /// mutated since the previous publication (the dirty list deduplicates
    /// on entry). Each is repaired exactly once, so this count is the
    /// repair's whole work.
    pub dirty_slots_repaired: u64,
    /// Publications that changed the promotion pool — a mutation
    /// flipped some slot's membership (a first visit, an unexplored
    /// insert). Popularity-only mutations publish without one, and an
    /// engine that maintains no pool never counts any.
    pub pool_repairs: u64,
    /// Per-query membership-mask resets reported by the ranking arenas —
    /// each one marks an `O(n)` pool scan inside a query. The pooled
    /// selective path performs none (tests pin 0 for selective engines);
    /// a Uniform-rule engine necessarily pays one per query, its per-page
    /// coins being part of the observable RNG stream.
    pub mask_resets: u64,
    /// Always 0: every read ranks from the one corpus-wide cache, so no
    /// shard retrieval exists. Kept only because `benchmark/` reads it.
    pub shard_retrievals: u64,
    /// Swap draws consumed by the v2 engines' lazy pool shuffle (one per
    /// promoted slot actually taken, except the pool's last remaining
    /// member which is emitted draw-free). A v2 selective top-k batch
    /// reads at most `k × queries` here — the probe that pins the
    /// O(k)-draw contract in tests. V1 engines never report any: their
    /// eager shuffle is not instrumented, being exactly the `O(pool)`
    /// cost v2 exists to remove.
    pub pool_draws: u64,
    /// Always 0: the complete popularity order is the cache's own, so no
    /// order merge exists. Kept only because `benchmark/` reads it.
    pub order_merges: u64,
    /// Merge-time epoch-validation conflicts: a query or batch ranked
    /// against a published version whose epoch no longer matched the live
    /// mutation epoch by the time its answer was assembled. The answer
    /// itself is always internally consistent (versions are immutable);
    /// the sequential paths retry once against the freshly published
    /// version (one conflict counted per retry), while the batch path
    /// validates once per batch and only counts. Read-only workloads pin
    /// this at 0.
    pub epoch_conflicts: u64,
    /// Immutable serving-version publications — at most one per mutation
    /// epoch: the first query after a mutation stretch cuts exactly one
    /// new version (repairing the dirty slots on the way), and clean
    /// stretches publish nothing (pinned in tests).
    pub version_publications: u64,
    /// Mutation events appended to the write-ahead log — counted only by
    /// the durable wrapper ([`crate::DurableService`]); a plain in-memory
    /// service always reads 0. One per *successful* append: an injected
    /// or real append failure charges nothing, matching the untouched
    /// serving state.
    pub wal_appends: u64,
    /// Snapshots written to disk by the durable wrapper (periodic plus
    /// explicit), each one an atomic rename-into-place.
    pub snapshots_written: u64,
    /// Cadence snapshots the durable wrapper failed to write. The
    /// mutation that triggered one is still acknowledged (it is logged and
    /// applied); the snapshot is retried at the next cadence mark.
    pub snapshot_failures: u64,
    /// Events replayed from the log tail during the most recent recovery
    /// — 0 for a service that was never recovered, and exactly the
    /// events-past-the-snapshot for one that was.
    pub events_replayed: u64,
}

/// The service-side probe counters, each in its own atomic cell so the
/// `&self` query paths can charge them concurrently. Folded into a
/// [`ServeStats`] snapshot on demand; the WAL counters belong to the
/// durable wrapper and stay 0 here.
#[derive(Debug, Default)]
struct ProbeCells {
    batches: AtomicU64,
    queries: AtomicU64,
    dirty_slots_repaired: AtomicU64,
    pool_repairs: AtomicU64,
    mask_resets: AtomicU64,
    pool_draws: AtomicU64,
    epoch_conflicts: AtomicU64,
    version_publications: AtomicU64,
}

impl ProbeCells {
    fn add(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            dirty_slots_repaired: self.dirty_slots_repaired.load(Ordering::Relaxed),
            pool_repairs: self.pool_repairs.load(Ordering::Relaxed),
            mask_resets: self.mask_resets.load(Ordering::Relaxed),
            pool_draws: self.pool_draws.load(Ordering::Relaxed),
            epoch_conflicts: self.epoch_conflicts.load(Ordering::Relaxed),
            version_publications: self.version_publications.load(Ordering::Relaxed),
            ..ServeStats::default()
        }
    }
}

/// The writer-side state: everything a mutation touches, serialised behind
/// one mutex. Queries never lock it on a clean stretch — they read the
/// published version instead.
#[derive(Debug)]
struct WriterState {
    store: ShardedStore,
    /// The writer generation of the serving tier: one corpus-wide cache,
    /// mutated in place and published as immutable epoch-stamped versions
    /// (see [`ShardedCorpusCache`]).
    tier: ShardedCorpusCache,
}

/// One reader's rank arenas and the slot list its answers flatten into,
/// pooled so concurrent `&self` readers each borrow a private set and the
/// steady-state read path stays allocation-free.
#[derive(Debug, Default)]
struct RankScratch {
    buffers: RankBuffers,
    slots: Vec<usize>,
}

/// A read guard over the service's document store, handed out by
/// [`ShardedPromotionService::store`]. Holds the writer lock for its
/// lifetime: drop it before calling any method on the same service that
/// mutates or publishes (queries on a stale service publish).
pub struct StoreGuard<'a> {
    writer: MutexGuard<'a, WriterState>,
}

impl Deref for StoreGuard<'_> {
    type Target = ShardedStore;

    fn deref(&self) -> &ShardedStore {
        &self.writer.store
    }
}

impl std::fmt::Debug for StoreGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Serves randomized rank promotion over a sharded document store.
///
/// The service owns the corpus (one document table in global sequence
/// order; its shard count is a routing label that document ids hash onto,
/// as an index tier would partition them) and answers large batches of
/// queries on std scoped threads. Five properties make it safe to scale:
///
/// 1. **Shard-count independence** — ranking is defined over the store's
///    canonical snapshot order, so 1-shard and 64-shard deployments answer
///    every query identically.
/// 2. **Worker-count independence** — each query's randomization is a pure
///    function of `(engine seed, query, session)`, never of scheduling, so
///    [`rerank_batch`](Self::rerank_batch) equals a sequential loop of
///    [`rerank_one`](Self::rerank_one) bit for bit at any worker count.
/// 3. **Incremental steady state** — the serving state is *one*
///    corpus-wide cache ([`ShardedCorpusCache`]) holding the ranking
///    statistics, popularity order and promotion-pool membership of every
///    document, whatever the store's shard count. It persists *across*
///    batches and is repaired at publication time instead of being
///    re-derived per batch or per query: an unchanged corpus pays zero
///    repairs (pinned by [`ServeStats`]), every read — full, Uniform or
///    top-k — ranks from the cache's
///    [`source`](rrp_core::PublishedVersion::source), and a
///    selective-promotion [`rerank_top_k`](Self::rerank_top_k) query is
///    `O(pool + k)` — no full-corpus scan, no membership-mask reset (also
///    pinned, via [`ServeStats::mask_resets`]).
/// 4. **Chunked fan-out, only when it pays** — a batch whose estimated
///    work is below [`FAN_OUT_MIN_POSITIONS`] (such as a small engine-v2
///    top-k batch) is answered on the calling thread alone, with one pooled
///    scratch set and no thread spawn. A larger batch's results are written
///    into disjoint `&mut` chunks that workers — the calling thread among
///    them — claim one at a time (one short lock per chunk, never per
///    query). Workers never touch another worker's slots, and per-worker
///    scratch arenas keep the per-query path allocation-free.
/// 5. **Epoch-versioned shared reads** — every query path takes `&self`:
///    mutations bump a mutation-epoch counter and patch the writer
///    generation under a mutex, while readers rank against an immutable
///    epoch-stamped [`PublishedVersion`] (cut at most once per epoch, on
///    the first query that finds the published epoch trailing the live
///    one) and validate the epoch at merge time — a conflict is counted
///    ([`ServeStats::epoch_conflicts`]) and the sequential paths retry
///    once against the fresh version. Any number of reader threads can
///    therefore serve concurrently with a mutating writer, each answer
///    bit-identical to a sequential rerank at its version's epoch.
#[derive(Debug)]
pub struct ShardedPromotionService {
    engine: RankPromotionEngine,
    workers: usize,
    /// The live mutation epoch: bumped (release) once per successful
    /// mutation, read (acquire) by readers to detect a stale published
    /// version and to validate at merge time.
    epoch: AtomicU64,
    /// The writer generation: store + serving tier, locked by mutations and
    /// by the (at most once per epoch) publication step.
    writer: Mutex<WriterState>,
    /// The published immutable serving version readers rank against.
    /// Swapped wholesale at publication; reads only ever clone the `Arc`.
    published: RwLock<Arc<PublishedVersion>>,
    probe: ProbeCells,
    /// Pooled per-query scratch for the sequential `&self` paths.
    scratch: Mutex<Vec<RankScratch>>,
}

impl ShardedPromotionService {
    /// A service over an empty `shard_count`-way store (at least 1 shard),
    /// answering batches with up to [`available_workers`] threads.
    pub fn new(engine: RankPromotionEngine, shard_count: usize) -> Self {
        Self::with_store(engine, ShardedStore::new(shard_count))
    }

    /// Like [`new`](Self::new), but a zero `shard_count` is a typed
    /// [`ServeError::InvalidShardCount`](crate::ServeError::InvalidShardCount)
    /// instead of being clamped to 1. Kept public for callers (deployment
    /// config parsing) that want bad input surfaced rather than absorbed.
    pub fn try_new(
        engine: RankPromotionEngine,
        shard_count: usize,
    ) -> Result<Self, crate::ServeError> {
        if shard_count == 0 {
            return Err(crate::ServeError::InvalidShardCount { requested: 0 });
        }
        Ok(Self::new(engine, shard_count))
    }

    /// A service over `store`'s documents — the one constructor, shared by
    /// [`new`](Self::new) (an empty store) and recovery (a snapshot's
    /// store). The serving tier is derived from the documents, never
    /// decoded: each is pushed in store order, exactly as
    /// [`insert`](Self::insert) pushes one. Scratch and probes start fresh.
    pub(crate) fn with_store(engine: RankPromotionEngine, store: ShardedStore) -> Self {
        let mut tier = ShardedCorpusCache::new(store.shard_count());
        // Pool maintenance is dead weight for engines that re-derive
        // their pool per query (the Uniform rule's coin scan draws one
        // coin per page instead of reading any membership index).
        tier.set_pool_maintained(engine.reads_pool_index());
        for document in store.documents() {
            tier.push(0, document);
        }
        // A non-empty corpus must start one epoch ahead of the empty
        // sentinel version, so the first query publishes instead of
        // serving the sentinel; an empty corpus is exactly the sentinel.
        let epoch = if store.is_empty() { 0 } else { 1 };
        let published = Arc::new(PublishedVersion::empty(
            store.shard_count(),
            tier.pool_maintained(),
        ));
        ShardedPromotionService {
            engine,
            workers: available_workers(),
            epoch: AtomicU64::new(epoch),
            writer: Mutex::new(WriterState { store, tier }),
            published: RwLock::new(published),
            probe: ProbeCells::default(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` over the writer-side store and serving tier under the
    /// writer lock — the durable wrapper's snapshot path, which needs a
    /// single consistent view of both halves.
    pub(crate) fn with_writer<R>(
        &self,
        f: impl FnOnce(&ShardedStore, &ShardedCorpusCache) -> R,
    ) -> R {
        let writer = self.writer.lock().expect("writer lock");
        f(&writer.store, &writer.tier)
    }

    /// Set the number of batch worker threads (clamped to at least 1).
    /// Results are identical at every worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The rank-promotion engine in use.
    pub fn engine(&self) -> RankPromotionEngine {
        self.engine
    }

    /// The underlying sharded store (read-only: all mutation goes through
    /// the service so the cached serving state can never go stale). The
    /// guard holds the writer lock — drop it before mutating or querying
    /// the same service.
    pub fn store(&self) -> StoreGuard<'_> {
        StoreGuard {
            writer: self.writer.lock().expect("writer lock"),
        }
    }

    /// Number of batch worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The steady-state operation counters.
    pub fn serve_stats(&self) -> ServeStats {
        self.probe.snapshot()
    }

    /// The live mutation epoch: 0 for a fresh empty service, bumped by
    /// exactly one per successful mutation. The epoch returned by the
    /// `*_versioned` read paths compares against this — equality means
    /// the answer reflects every mutation applied before the call.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Insert one document, returning its global sequence number — the
    /// handle for [`record_visit`](Self::record_visit) and
    /// [`update_popularity`](Self::update_popularity) and the document's
    /// slot in the serving cache, which is extended in place (`O(1)`): the
    /// new slot joins the popularity order at the next publication via
    /// dirty-slot reinsertion.
    ///
    /// # Panics
    ///
    /// If the store already holds [`rrp_ranking::MAX_SLOTS`] documents
    /// (see [`try_insert`](Self::try_insert)). The panic is raised after
    /// the writer lock is released, so the service stays usable.
    pub fn insert(&self, document: Document) -> u64 {
        self.try_insert(document)
            .unwrap_or_else(|e| panic!("insert refused: {e}"))
    }

    /// [`insert`](Self::insert) with the slot limit typed: a store that
    /// already holds [`rrp_ranking::MAX_SLOTS`] documents refuses the
    /// insert as [`ServeError::SlotLimit`](crate::ServeError::SlotLimit),
    /// checked before anything is mutated, and the serving state is
    /// untouched.
    pub fn try_insert(&self, document: Document) -> Result<u64, crate::ServeError> {
        let mut writer = self.writer.lock().expect("writer lock");
        let WriterState { store, tier } = &mut *writer;
        check_next_slot(store.len() as u64)?;
        let seq = store.insert(document);
        // The cache ignores the shard argument: its slots are global.
        tier.push(0, &document);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(seq)
    }

    /// Insert every document of an iterator, in order.
    pub fn extend(&self, documents: impl IntoIterator<Item = Document>) {
        for document in documents {
            self.insert(document);
        }
    }

    /// Record a user visit to the document with sequence number `seq`:
    /// clears its unexplored flag, which removes it from the selective
    /// promotion pool. The cached slot is patched in place and marked
    /// dirty. Returns `false` if no such sequence exists (and the epoch
    /// does not move).
    pub fn record_visit(&self, seq: u64) -> bool {
        self.try_record_visit(seq).is_ok()
    }

    /// Replace the popularity score of the document with sequence number
    /// `seq` (clamped to non-negative). The cached slot is patched in
    /// place and marked dirty. Returns `false` if no such sequence exists
    /// (and the epoch does not move).
    pub fn update_popularity(&self, seq: u64, popularity: f64) -> bool {
        self.try_update_popularity(seq, popularity).is_ok()
    }

    /// [`record_visit`](Self::record_visit) with the failure typed: an
    /// unknown sequence is a
    /// [`ServeError::UnknownSequence`](crate::ServeError::UnknownSequence),
    /// and the serving state is untouched.
    pub fn try_record_visit(&self, seq: u64) -> Result<(), crate::ServeError> {
        self.mutate(seq, |store| store.record_visit(seq))
    }

    /// [`update_popularity`](Self::update_popularity) with the failure
    /// typed: an unknown sequence is a
    /// [`ServeError::UnknownSequence`](crate::ServeError::UnknownSequence),
    /// and the serving state is untouched.
    pub fn try_update_popularity(
        &self,
        seq: u64,
        popularity: f64,
    ) -> Result<(), crate::ServeError> {
        self.mutate(seq, |store| store.update_popularity(seq, popularity))
    }

    /// Apply one store mutation to the document at `seq`, patch its cached
    /// slot and bump the epoch, all under one writer guard. An unknown
    /// sequence reports the store length read under that same guard, so a
    /// concurrent insert can never make the error claim `seq < len`.
    fn mutate(
        &self,
        seq: u64,
        apply: impl FnOnce(&mut ShardedStore) -> Option<Document>,
    ) -> Result<(), crate::ServeError> {
        let mut writer = self.writer.lock().expect("writer lock");
        let WriterState { store, tier } = &mut *writer;
        let Some((document, slot)) = apply(store).zip(store.slot_of(seq)) else {
            return Err(crate::ServeError::UnknownSequence {
                seq,
                len: store.len() as u64,
            });
        };
        tier.patch(slot, &document);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// The serving version for the current epoch: the published one if it
    /// is current, else a fresh publication (at most one ever happens per
    /// epoch — racing readers converge on the same version).
    fn current_version(&self) -> Arc<PublishedVersion> {
        // Clone the Arc only when the version is current: carrying a
        // stale clone into `publish_current` would keep the retired
        // version's refcount above one right when `recycle` tries to
        // reclaim its buffers, silently downgrading every publication
        // from O(dirty) to a full copy-on-write of the next mutation.
        {
            let published = self.published.read().expect("published version lock");
            if published.epoch() == self.epoch.load(Ordering::Acquire) {
                return published.clone();
            }
        }
        self.publish_current()
    }

    /// Cut and install a version for the live epoch under the writer
    /// lock: repair the writer generation (charging the repair probes),
    /// swap the new version in, and recycle the retired one's buffers.
    fn publish_current(&self) -> Arc<PublishedVersion> {
        let mut writer = self.writer.lock().expect("writer lock");
        // The epoch is stable while we hold the writer lock (every bump
        // site holds it too); another reader may have published for this
        // epoch while we waited on the lock.
        let epoch = self.epoch.load(Ordering::Acquire);
        {
            let published = self.published.read().expect("published version lock");
            if published.epoch() == epoch {
                return published.clone();
            }
        }
        let tier = &mut writer.tier;
        let (version, charged) = tier.publish(epoch);
        ProbeCells::add(&self.probe.dirty_slots_repaired, charged);
        if version.pool_repaired() {
            ProbeCells::add(&self.probe.pool_repairs, 1);
        }
        ProbeCells::add(&self.probe.version_publications, 1);
        let prev = std::mem::replace(
            &mut *self.published.write().expect("published version lock"),
            version.clone(),
        );
        // Recycling copies from the live version; it never fetches.
        tier.recycle(prev, |_| unreachable!("recycle reads the live version"));
        version
    }

    /// Borrow a pooled scratch set (or start a fresh one).
    fn take_scratch(&self) -> RankScratch {
        self.scratch
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Return a scratch set to the pool for the next query.
    fn put_scratch(&self, scratch: RankScratch) {
        self.scratch
            .lock()
            .expect("scratch pool lock")
            .push(scratch);
    }

    /// The current selective-promotion pool: the unexplored slots in
    /// ascending canonical-sequence order, read off the current published
    /// version (publishing first if the corpus mutated). Exposed for
    /// introspection and for the property suite that pins the incremental
    /// pool against a from-scratch recomputation. Empty for engines that
    /// never read the pool index (the Uniform rule) — their pool is
    /// re-drawn per query and no index is maintained.
    pub fn pooled_slots(&self) -> Vec<usize> {
        self.current_version().pool_slots().to_vec()
    }

    /// Answer one query sequentially: the canonical snapshot order
    /// re-ranked by the engine. This is the reference the batch path is
    /// measured against — and must stay bit-identical to. Served from the
    /// published version's cache, so the only per-call allocation after
    /// warm-up is the returned vector itself
    /// ([`rerank_one_into`](Self::rerank_one_into) removes that too).
    pub fn rerank_one(&self, context: QueryContext) -> Vec<u64> {
        self.rerank_one_versioned(context).1
    }

    /// [`rerank_one`](Self::rerank_one) plus the epoch of the version
    /// that answered: equal to [`epoch`](Self::epoch) when no mutation
    /// raced the query.
    pub fn rerank_one_versioned(&self, context: QueryContext) -> (u64, Vec<u64>) {
        let mut out = Vec::new();
        let epoch = self.read_into(context, None, &mut out);
        (epoch, out)
    }

    /// [`rerank_one`](Self::rerank_one) writing the document ids into
    /// `out` (cleared first): allocation-free once the serving state and
    /// `out` have grown to the corpus size.
    pub fn rerank_one_into(&self, context: QueryContext, out: &mut Vec<u64>) {
        self.read_into(context, None, out);
    }

    /// One sequential read: the full rerank (`k = None`) or its top-`k`,
    /// answered by [`answer_into`](Self::answer_into). Validates once the
    /// answer is ranked: a racing mutation leaves the answer consistent at
    /// the version's epoch, merely stale — retry once against the fresh
    /// version, then accept (the writer may always be one step ahead).
    fn read_into(&self, context: QueryContext, k: Option<usize>, out: &mut Vec<u64>) -> u64 {
        ProbeCells::add(&self.probe.queries, 1);
        if k == Some(0) {
            // A zero-rank query is answerable from nothing: charge no
            // probes and publish no version, whatever the backlog.
            out.clear();
            return self.published_epoch();
        }
        let mut version = self.current_version();
        if version.is_empty() {
            // Degenerate path: an empty corpus answers from nothing.
            out.clear();
            return version.epoch();
        }
        let mut scratch = self.take_scratch();
        let mut retried = false;
        let epoch = loop {
            self.answer_into(&version, k, context, &mut scratch, out);
            if retried || self.epoch.load(Ordering::Acquire) == version.epoch() {
                break version.epoch();
            }
            ProbeCells::add(&self.probe.epoch_conflicts, 1);
            retried = true;
            version = self.current_version();
        };
        self.finish_scratch(scratch);
        epoch
    }

    /// Answer one query against `version` into `out` (cleared first): the
    /// full rerank (`k = None`) or its top-`k`, ranked from the version's
    /// source — the one place every read path ranks. Reuses the worker's
    /// arenas and `out`'s storage, so it allocates nothing once both have
    /// warmed up.
    fn answer_into(
        &self,
        version: &PublishedVersion,
        k: Option<usize>,
        context: QueryContext,
        rank: &mut RankScratch,
        out: &mut Vec<u64>,
    ) {
        let RankScratch { buffers, slots } = rank;
        self.engine
            .rerank_source_into(version.source(), k, context, buffers, slots);
        out.clear();
        out.extend(slots.iter().map(|&s| version.page_of(s).0));
    }

    /// Fold a scratch set's arena counters into the probes (one relaxed
    /// add each) and return it to the pool.
    fn finish_scratch(&self, mut scratch: RankScratch) {
        let buffers = &mut scratch.buffers;
        ProbeCells::add(&self.probe.mask_resets, buffers.take_mask_resets());
        ProbeCells::add(&self.probe.pool_draws, buffers.take_pool_draws());
        self.put_scratch(scratch);
    }

    /// The epoch of the currently published version (no publication).
    fn published_epoch(&self) -> u64 {
        self.published
            .read()
            .expect("published version lock")
            .epoch()
    }

    /// The first `min(k, n)` document ids of
    /// [`rerank_one`](Self::rerank_one), computed with the early-exit
    /// merge: bit-identical to the length-`k` prefix of the full rerank.
    ///
    /// Under a selective engine the query reads only the maintained pool
    /// and the first `k` non-pool entries of the popularity order. A
    /// Uniform-rule engine must keep scanning every slot for its per-page
    /// coins. `k = 0` answers without consulting — or publishing — any
    /// serving state.
    pub fn rerank_top_k(&self, context: QueryContext, k: usize) -> Vec<u64> {
        self.rerank_top_k_versioned(context, k).1
    }

    /// [`rerank_top_k`](Self::rerank_top_k) plus the answering version's
    /// epoch (the currently published epoch when `k = 0`).
    pub fn rerank_top_k_versioned(&self, context: QueryContext, k: usize) -> (u64, Vec<u64>) {
        let mut out = Vec::new();
        let epoch = self.read_into(context, Some(k), &mut out);
        (epoch, out)
    }

    /// [`rerank_top_k`](Self::rerank_top_k) writing into `out` (cleared
    /// first); allocation-free after warm-up.
    pub fn rerank_top_k_into(&self, context: QueryContext, k: usize, out: &mut Vec<u64>) {
        self.read_into(context, Some(k), out);
    }

    /// Answer a batch of queries, fanning out across scoped worker
    /// threads when the batch is large enough to pay for them (see
    /// [`FAN_OUT_MIN_POSITIONS`]). Per query, the returned document ids equal
    /// [`rerank_one`](Self::rerank_one) — and therefore
    /// [`RankPromotionEngine::rerank`] on the canonical snapshot —
    /// regardless of shard count, worker count, or scheduling.
    pub fn rerank_batch(&self, queries: &[QueryContext]) -> Vec<Vec<u64>> {
        let mut results = Vec::new();
        self.rerank_batch_into(queries, &mut results);
        results
    }

    /// [`rerank_batch`](Self::rerank_batch) plus the epoch of the single
    /// published version every query in the batch ranked against. Kept
    /// public: a caller racing mutations needs that epoch to tell which
    /// corpus a batch saw, as the concurrent-serving suite checks.
    pub fn rerank_batch_versioned(&self, queries: &[QueryContext]) -> (u64, Vec<Vec<u64>>) {
        let mut results = Vec::new();
        let epoch = self.batch_into(queries, None, &mut results);
        (epoch, results)
    }

    /// [`rerank_batch`](Self::rerank_batch) writing into `results`
    /// (resized to `queries.len()`); existing entries keep their heap
    /// storage, so a caller that reuses `results` across batches pays no
    /// result allocations at steady state.
    pub fn rerank_batch_into(&self, queries: &[QueryContext], results: &mut Vec<Vec<u64>>) {
        self.batch_into(queries, None, results);
    }

    /// The top-`k` batch path: every result holds only the first
    /// `min(k, n)` ranks, each bit-identical to the length-`k` prefix of
    /// the corresponding full rerank (see
    /// [`rerank_top_k`](Self::rerank_top_k)).
    pub fn rerank_batch_top_k_into(
        &self,
        queries: &[QueryContext],
        k: usize,
        results: &mut Vec<Vec<u64>>,
    ) {
        self.batch_into(queries, Some(k), results);
    }

    fn batch_into(
        &self,
        queries: &[QueryContext],
        k: Option<usize>,
        results: &mut Vec<Vec<u64>>,
    ) -> u64 {
        ProbeCells::add(&self.probe.batches, 1);
        ProbeCells::add(&self.probe.queries, queries.len() as u64);

        // Resize without discarding inner-vector capacity.
        results.truncate(queries.len());
        results.resize_with(queries.len(), Vec::new);
        if queries.is_empty() {
            // Explicit early return: an empty batch must publish nothing
            // and never reach the chunked fan-out below — `chunk_len` is
            // defined over at least one result slot.
            return self.published_epoch();
        }
        if k == Some(0) {
            // Zero-rank batches are answerable from nothing: clear the
            // (possibly reused) result slots, publish and charge nothing.
            results.iter_mut().for_each(Vec::clear);
            return self.published_epoch();
        }
        let version = self.current_version();
        if version.is_empty() {
            // An empty corpus answers every query with an empty ranking
            // and charges nothing — no repair, no rank.
            // `resize_with` keeps reused entries' stale contents, so
            // clear each result explicitly.
            results.iter_mut().for_each(Vec::clear);
            return version.epoch();
        }

        let workers = batch_workers(self.engine, self.workers, queries.len(), k, version.len());
        // Chunked work-stealing: workers claim result chunks a few queries
        // wide (one short lock per chunk), so a slow query does not
        // serialise its neighbours behind one worker.
        let chunk = chunk_len(queries.len(), workers);
        let chunks = Mutex::new(results.chunks_mut(chunk).enumerate());
        let work = |rank: &mut RankScratch| loop {
            // `let … else` releases the lock before the chunk is answered
            // (a `while let` would hold it for the body).
            let Some((index, slots)) = chunks.lock().expect("batch chunk lock").next() else {
                break;
            };
            let start = index * chunk;
            for (&ctx, out) in queries[start..].iter().zip(slots.iter_mut()) {
                self.answer_into(&version, k, ctx, rank, out);
            }
        };
        // The calling thread works alongside `workers − 1` spawned ones
        // (none when the batch is answered inline). Each spawned worker
        // borrows a private scratch set from the pool — queries are
        // allocation-free once the pool has warmed up to the fan-out — and
        // folds its arena counters into the probes once, at exit.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| {
                    let mut scratch = self.take_scratch();
                    work(&mut scratch);
                    self.finish_scratch(scratch);
                });
            }
            let mut scratch = self.take_scratch();
            work(&mut scratch);
            self.finish_scratch(scratch);
        });
        // Validate once at merge time, count-only: each answer is
        // consistent at the version's epoch by construction (versions are
        // immutable), so a conflict records bounded staleness rather than
        // forcing a batch-wide retry.
        if self.epoch.load(Ordering::Acquire) != version.epoch() {
            ProbeCells::add(&self.probe.epoch_conflicts, 1);
        }
        version.epoch()
    }
}

/// The batch work, in ranked positions, at which
/// [`ShardedPromotionService`] starts fanning a batch out across scoped
/// threads; below it the calling thread answers every query itself with one
/// pooled scratch set.
///
/// **Rule.** A batch of `queries` reads fans out to
/// `min(workers, queries)` threads when `queries × positions` reaches this
/// threshold, where `positions` is the per-query cost in ranked positions:
/// `min(k, n)` on the lazy route — a Selective-rule
/// [`EngineVersion::V2`] engine answering top-`k` — and `n`, the corpus
/// size, on every other route (v1's eager pool shuffle, the Uniform rule's
/// per-page coin scan, full reranks), whose per-query cost grows with the
/// corpus. One worker or a one-query batch never spawns.
///
/// **Cost model.** Spawning and joining one scoped thread costs about
/// 30 µs, as much as 64 lazy top-10 queries answered inline; the work a
/// fan-out takes off the calling thread must outweigh that. A lazy-route
/// position costs about 0.015–0.02 µs. On the `n` routes a position costs
/// from about 0.002 µs (v1 top-k, whose real work is the pool, ≈ n/10)
/// to about 0.04 µs (a Uniform full rerank), so the `n` estimate never
/// keeps one of them inline far past its own crossover.
///
/// **Crossover.** One worker / two workers, µs per batch (p50 of 400
/// batches), at n = 100 000, engine v2, 8 store shards, on a 2-vCPU
/// x86-64 VM:
///
/// | k \ queries | 16 | 64 | 128 | 256 | 1024 |
/// |---|---|---|---|---|---|
/// | 10 | 4.2 / 33.6 | 16.0 / 38.1 | 29.0 / 41.5 | 61.5 / 58.2 | 240 / 155 |
/// | 100 | 35.1 / 48.2 | 137 / 114 | 283 / 186 | 564 / 338 | 2210 / 1134 |
///
/// A finer sweep on the same machine (k ∈ {10, 25, 100}, p50 of 1 000
/// batches) put the lazy route's crossover between 2 560 and 3 520
/// positions; the threshold sits inside that band. At n = 1 000 the
/// Uniform and full-rerank routes cross between 2 000 and 8 000.
pub const FAN_OUT_MIN_POSITIONS: usize = 3072;

/// How many threads answer a batch: 1 (the calling thread alone) below
/// [`FAN_OUT_MIN_POSITIONS`], else `min(workers, queries)`. `n` is the
/// answering version's corpus size.
fn batch_workers(
    engine: RankPromotionEngine,
    workers: usize,
    queries: usize,
    k: Option<usize>,
    n: usize,
) -> usize {
    let lazy = engine.version() == EngineVersion::V2 && engine.reads_pool_index();
    let positions = match k {
        Some(k) if lazy => k.min(n),
        _ => n,
    };
    if queries.saturating_mul(positions) < FAN_OUT_MIN_POSITIONS {
        1
    } else {
        workers.min(queries)
    }
}

/// Chunk width for the batch fan-out: a handful of chunks per worker
/// amortises the claim while still letting fast workers steal work from
/// slow ones.
fn chunk_len(queries: usize, workers: usize) -> usize {
    queries.div_ceil(workers * 4).max(1)
}

/// Refuse the next slot of a store holding `len` documents if the
/// popularity order cannot index it: slots run to `u32::MAX`.
pub(crate) fn check_next_slot(len: u64) -> Result<(), crate::ServeError> {
    if len < rrp_ranking::MAX_SLOTS {
        Ok(())
    } else {
        Err(crate::ServeError::SlotLimit { len })
    }
}

/// Default worker count: the machine's available parallelism (1 if
/// unknown).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_ranking::{PromotionConfig, PromotionRule};

    fn corpus(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    Document::unexplored(i)
                } else {
                    Document::established(i, 1.0 - i as f64 / (n as f64 + 1.0)).with_age(i % 200)
                }
            })
            .collect()
    }

    fn queries(q: u64) -> Vec<QueryContext> {
        (0..q)
            .map(|i| QueryContext::new(i * 3 + 1, i ^ 0x5A5A))
            .collect()
    }

    fn uniform_engine() -> RankPromotionEngine {
        RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap())
    }

    #[test]
    fn batch_equals_sequential_engine_for_any_shard_and_worker_count() {
        let engine = RankPromotionEngine::recommended().with_seed(11);
        let docs = corpus(200);
        let qs = queries(23);
        let expected: Vec<Vec<u64>> = qs.iter().map(|&ctx| engine.rerank(&docs, ctx)).collect();
        for shards in [1usize, 2, 8] {
            for workers in [1usize, 2, 8] {
                let service = ShardedPromotionService::new(engine, shards).with_workers(workers);
                service.extend(docs.iter().copied());
                assert_eq!(
                    service.rerank_batch(&qs),
                    expected,
                    "{shards} shards, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn rerank_one_matches_batch_of_one() {
        let engine = uniform_engine().with_seed(5);
        let service = ShardedPromotionService::new(engine, 4);
        service.extend(corpus(77));
        let ctx = QueryContext::from_strings("stacked deck", "session-1");
        let one = service.rerank_one(ctx);
        assert_eq!(service.rerank_batch(&[ctx]), vec![one]);
    }

    #[test]
    fn batch_results_are_stable_across_repeated_calls() {
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 3).with_workers(4);
        service.extend(corpus(150));
        let qs = queries(9);
        assert_eq!(service.rerank_batch(&qs), service.rerank_batch(&qs));
    }

    #[test]
    fn empty_batch_and_empty_store_are_fine() {
        let service = ShardedPromotionService::new(RankPromotionEngine::recommended(), 2);
        assert!(service.rerank_batch(&[]).is_empty());
        let out = service.rerank_batch(&queries(3));
        assert_eq!(out, vec![Vec::<u64>::new(); 3]);
        assert!(service.store().is_empty());
        assert!(service.rerank_top_k(QueryContext::new(1, 2), 5).is_empty());
    }

    #[test]
    fn empty_corpus_and_empty_batch_queries_charge_nothing() {
        // Regression for the probe over-counting bug: an old routing
        // charged read work *before* noticing the corpus was empty,
        // booking work that never happened.
        for engine in [RankPromotionEngine::recommended(), uniform_engine()] {
            let service = ShardedPromotionService::new(engine, 4).with_workers(2);
            let qs = queries(3);
            let mut results = vec![vec![7u64; 4], vec![8u64; 2]];
            service.rerank_batch_top_k_into(&qs, 5, &mut results);
            assert_eq!(
                results,
                vec![Vec::<u64>::new(); 3],
                "stale reused result entries must be cleared"
            );
            service.rerank_batch_into(&qs, &mut results);
            service.rerank_top_k(qs[0], 5);
            service.rerank_one(qs[0]);
            let stats = service.serve_stats();
            assert_eq!(stats.batches, 2);
            assert_eq!(stats.queries, 8);
            assert_eq!(stats.dirty_slots_repaired, 0);
            assert_eq!(stats.mask_resets, 0, "not even the Uniform coin scan runs");
            assert_eq!(
                stats.version_publications, 0,
                "an empty corpus serves the epoch-0 sentinel forever"
            );
            assert_eq!(stats.epoch_conflicts, 0);
        }
    }

    #[test]
    fn accessors_report_configuration() {
        let engine = RankPromotionEngine::recommended().with_seed(9);
        let service = ShardedPromotionService::new(engine, 6).with_workers(3);
        assert_eq!(service.engine(), engine);
        assert_eq!(service.store().shard_count(), 6);
        assert_eq!(service.workers(), 3);
        assert!(available_workers() >= 1);
    }

    #[test]
    fn steady_state_batches_pay_zero_sorts_and_zero_snapshot_rebuilds() {
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 4).with_workers(4);
        service.extend(corpus(300));
        let qs = queries(16);

        // Warm-up: the 300 inserted slots enter the order via one
        // publication's repair.
        service.rerank_batch(&qs);
        let warm = service.serve_stats();
        assert_eq!(warm.dirty_slots_repaired, 300);
        assert_eq!(warm.version_publications, 1);

        // Steady state, corpus unchanged: no repair, no sort, no rebuild,
        // no publication — and with a selective engine, no per-query pool
        // scan or mask reset either: every query reads the persistent pool
        // index.
        service.rerank_batch(&qs);
        service.rerank_batch(&qs);
        let steady = service.serve_stats();
        assert_eq!(
            steady.dirty_slots_repaired, 300,
            "clean batches must not repair"
        );
        assert_eq!(
            steady.version_publications, 1,
            "clean batches must not publish"
        );
        assert_eq!(steady.pool_repairs, 1);
        assert_eq!(steady.mask_resets, 0, "no query may scan the corpus");
        assert_eq!(steady.batches, 3);
        assert_eq!(steady.queries, 48);
        assert_eq!(steady.epoch_conflicts, 0, "no writer raced these batches");

        // A mutation dirties exactly the touched slots; the next batch
        // publishes once, repairs those, and nothing else — still no sort,
        // no rebuild, no pool rebuild.
        assert!(service.record_visit(0));
        assert!(service.update_popularity(7, 0.99));
        service.rerank_batch(&qs);
        let mutated = service.serve_stats();
        assert_eq!(mutated.dirty_slots_repaired, 302);
        assert_eq!(mutated.version_publications, 2);
        assert_eq!(mutated.pool_repairs, 2);
        assert_eq!(mutated.mask_resets, 0);
        assert_eq!(mutated.epoch_conflicts, 0);

        // A popularity-only mutation flips no slot's pool membership: its
        // publication repairs the order and leaves the pool alone.
        assert!(service.update_popularity(7, 0.5));
        service.rerank_batch(&qs);
        let moved = service.serve_stats();
        assert_eq!(moved.dirty_slots_repaired, 303);
        assert_eq!(moved.version_publications, 3);
        assert_eq!(moved.pool_repairs, 2, "no membership flipped");
    }

    #[test]
    fn top_k_on_a_clean_batch_never_scans_or_resets() {
        // The acceptance gate for the pooled top-k path: on a clean batch,
        // a selective engine's `rerank_top_k` performs zero full-corpus
        // pool derivations (mask resets), zero repairs and zero
        // publications, on the sequential and the fan-out paths alike.
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 4).with_workers(4);
        service.extend(corpus(500));
        let qs = queries(32);
        service.rerank_batch(&qs); // absorb the warm-up publication
        let before = service.serve_stats();

        for (i, &ctx) in qs.iter().enumerate() {
            service.rerank_top_k(ctx, 1 + i % 16);
        }
        let mut results = Vec::new();
        service.rerank_batch_top_k_into(&qs, 10, &mut results);
        let after = service.serve_stats();
        assert_eq!(after.mask_resets, before.mask_resets);
        assert_eq!(after.dirty_slots_repaired, before.dirty_slots_repaired);
        assert_eq!(after.version_publications, before.version_publications);
        assert_eq!(after.queries, before.queries + 64);
    }

    #[test]
    fn selective_top_k_never_merges_the_complete_order() {
        // A selective engine's top-k traffic — batched or sequential,
        // clean or mutated — ranks from the one cache: no merge and no
        // shard retrieval exist at any store shard count, and each
        // mutation stretch costs one publication.
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 4).with_workers(4);
        service.extend(corpus(300));
        let qs = queries(16);

        let mut results = Vec::new();
        service.rerank_batch_top_k_into(&qs, 10, &mut results);
        for (i, &ctx) in qs.iter().enumerate() {
            service.rerank_top_k(ctx, 1 + i % 8);
        }
        assert!(service.record_visit(0));
        assert!(service.update_popularity(7, 0.99));
        service.rerank_batch_top_k_into(&qs, 10, &mut results);

        let stats = service.serve_stats();
        assert_eq!(stats.order_merges, 0, "no complete-order merge on top-k");
        assert_eq!(stats.shard_retrievals, 0);
        assert_eq!(stats.mask_resets, 0);
        // Two publications repaired dirt: the warm-up (300 inserted
        // slots) and the two mutations — there is only one tier, so the
        // top-k traffic left no deferred backlog behind.
        assert_eq!(stats.version_publications, 2);
        assert_eq!(stats.dirty_slots_repaired, 302);

        // A full batch on the current version merges and repairs nothing.
        service.rerank_batch(&qs);
        let stats = service.serve_stats();
        assert_eq!(stats.order_merges, 0);
        assert_eq!(stats.version_publications, 2);
        assert_eq!(stats.dirty_slots_repaired, 302);
    }

    #[test]
    fn a_top_k_batch_publishes_once_and_answers_like_sequential_reads() {
        // The batch half of the top-k contract: one top-k batch, whatever
        // its size, worker or store shard count, ranks straight from the
        // one corpus-wide cache (the shard-retrieval and order-merge
        // probes stay at 0), keeps the O(k)-draw cap, and answers each
        // query exactly as a sequential read — including when the calling
        // thread answers everything.
        use rrp_core::EngineVersion;
        let k = 10usize;
        let v1 = RankPromotionEngine::recommended().with_seed(29);
        for engine in [v1, v1.with_version(EngineVersion::V2)] {
            for shards in [1usize, 3, 8] {
                for (workers, batch) in [(1usize, 64u64), (2, 64), (8, 64), (8, 3), (8, 1)] {
                    let label = format!(
                        "{:?}, {shards} shards, {workers} workers, {batch} queries",
                        engine.version()
                    );
                    let service =
                        ShardedPromotionService::new(engine, shards).with_workers(workers);
                    service.extend(corpus(400));
                    let qs = queries(batch);
                    let expected: Vec<Vec<u64>> =
                        qs.iter().map(|&ctx| service.rerank_top_k(ctx, k)).collect();
                    let before = service.serve_stats();
                    let mut results = Vec::new();
                    service.rerank_batch_top_k_into(&qs, k, &mut results);
                    let after = service.serve_stats();
                    assert_eq!(results, expected, "{label}");
                    assert_eq!(after.shard_retrievals, 0, "{label}");
                    assert_eq!(after.order_merges, 0, "{label}");
                    assert!(
                        after.pool_draws - before.pool_draws <= (k as u64) * batch,
                        "{label}"
                    );
                    assert_eq!(after.version_publications, 1, "{label}");
                }
            }
        }
    }

    #[test]
    fn empty_batches_skip_repair_and_fan_out() {
        // Regression for the empty-batch edge: zero queries must not
        // exercise the chunked fan-out (`chunk_len` is defined over at
        // least one slot) and must not trigger a
        // publication.
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 3).with_workers(4);
        service.extend(corpus(50));

        let mut results = vec![vec![1u64, 2, 3]];
        service.rerank_batch_into(&[], &mut results);
        assert!(results.is_empty(), "stale results are truncated away");
        service.rerank_batch_top_k_into(&[], 10, &mut results);
        assert!(results.is_empty());

        let stats = service.serve_stats();
        assert_eq!(stats.batches, 2, "empty batches are still counted");
        assert_eq!(stats.queries, 0);
        assert_eq!(
            stats.dirty_slots_repaired, 0,
            "nothing consulted, nothing repaired"
        );
        assert_eq!(stats.version_publications, 0);

        // The pending warm-up dirt is published by the first real query.
        service.rerank_batch(&queries(2));
        assert_eq!(service.serve_stats().dirty_slots_repaired, 50);
        assert_eq!(service.serve_stats().version_publications, 1);
    }

    #[test]
    fn uniform_top_k_serves_from_the_complete_popularity_order() {
        // The Uniform rule's per-page coins require every slot, so its
        // top-k traffic reads the complete popularity order — the one
        // cache's own, at any store shard count, so nothing is merged.
        let service = ShardedPromotionService::new(uniform_engine(), 4).with_workers(2);
        service.extend(corpus(80));
        let qs = queries(6);
        let mut results = Vec::new();
        service.rerank_batch_top_k_into(&qs, 5, &mut results);
        service.rerank_top_k(qs[0], 5);
        let stats = service.serve_stats();
        assert_eq!(stats.shard_retrievals, 0);
        assert_eq!(stats.version_publications, 1, "one warm-up repair");
        assert_eq!(stats.order_merges, 0, "the order is never merged");
        assert_eq!(stats.mask_resets, 7, "the coin scan stays mandatory");
        // And the answers are still the full-rerank prefix.
        let full = service.rerank_one(qs[0]);
        assert_eq!(results[0], full[..5]);
    }

    #[test]
    fn uniform_engines_still_pay_their_mandatory_per_query_coin_scan() {
        // The Uniform rule's pool is drawn per query — one coin per page is
        // part of the observable RNG stream — so the probe documents one
        // mask reset per query rather than pretending the scan is gone.
        let service = ShardedPromotionService::new(uniform_engine(), 2).with_workers(2);
        service.extend(corpus(100));
        let qs = queries(8);
        service.rerank_batch(&qs);
        service.rerank_top_k(qs[0], 5);
        let stats = service.serve_stats();
        assert_eq!(stats.mask_resets, 9, "one per query, none avoidable");
        assert_eq!(
            stats.pool_repairs, 0,
            "no pool index is maintained for an engine that never reads one"
        );
        assert!(service.pooled_slots().is_empty());
    }

    #[test]
    fn pooled_slots_tracks_mutations_incrementally() {
        let service = ShardedPromotionService::new(RankPromotionEngine::recommended(), 3);
        service.extend(corpus(50));
        let expected: Vec<usize> = (0..50).step_by(10).collect();
        assert_eq!(service.pooled_slots(), expected.as_slice());

        assert!(service.record_visit(10));
        service.insert(Document::unexplored(777));
        let expected = vec![0usize, 20, 30, 40, 50];
        assert_eq!(service.pooled_slots(), expected.as_slice());
    }

    #[test]
    fn mutations_change_answers_like_a_fresh_service() {
        let engine = RankPromotionEngine::recommended().with_seed(3);
        let service = ShardedPromotionService::new(engine, 4).with_workers(2);
        service.extend(corpus(120));
        let qs = queries(7);
        service.rerank_batch(&qs); // warm the incremental state

        assert!(service.record_visit(10), "seq 10 is the unexplored doc 10");
        assert!(service.update_popularity(55, 2.5));
        let incremental = service.rerank_batch(&qs);

        let fresh = ShardedPromotionService::new(engine, 4).with_workers(2);
        fresh.extend(service.store().snapshot());
        assert_eq!(incremental, fresh.rerank_batch(&qs));

        assert!(!service.record_visit(999), "unknown sequence is rejected");
    }

    #[test]
    fn inserts_between_batches_join_the_order_incrementally() {
        let engine = RankPromotionEngine::recommended().with_seed(8);
        let service = ShardedPromotionService::new(engine, 3).with_workers(3);
        service.extend(corpus(90));
        let qs = queries(5);
        service.rerank_batch(&qs);

        let seq = service.insert(Document::established(1_000, 0.42).with_age(17));
        assert_eq!(seq, 90);
        service.insert(Document::unexplored(1_001));
        let incremental = service.rerank_batch(&qs);

        let fresh = ShardedPromotionService::new(engine, 3).with_workers(3);
        fresh.extend(service.store().snapshot());
        assert_eq!(incremental, fresh.rerank_batch(&qs));
    }

    #[test]
    fn top_k_equals_the_full_rerank_prefix() {
        let engine = RankPromotionEngine::recommended().with_seed(13);
        let service = ShardedPromotionService::new(engine, 4).with_workers(4);
        service.extend(corpus(150));
        let qs = queries(11);
        let full = service.rerank_batch(&qs);
        for k in [0usize, 1, 5, 10, 150, 500] {
            for (i, &ctx) in qs.iter().enumerate() {
                assert_eq!(
                    service.rerank_top_k(ctx, k),
                    full[i][..k.min(full[i].len())],
                    "query {i}, k={k}"
                );
            }
            let mut batch = Vec::new();
            service.rerank_batch_top_k_into(&qs, k, &mut batch);
            for (i, got) in batch.iter().enumerate() {
                assert_eq!(
                    got,
                    &full[i][..k.min(full[i].len())],
                    "batch query {i}, k={k}"
                );
            }
        }
    }

    #[test]
    fn uniform_top_k_equals_the_full_rerank_prefix() {
        // The Uniform top-k path (a coin per page over the complete order)
        // must stay bit-identical to the full rerank's prefix too.
        let engine = uniform_engine().with_seed(21);
        let service = ShardedPromotionService::new(engine, 4).with_workers(4);
        service.extend(corpus(150));
        let qs = queries(7);
        let full = service.rerank_batch(&qs);
        for k in [0usize, 1, 5, 10, 150, 500] {
            for (i, &ctx) in qs.iter().enumerate() {
                assert_eq!(
                    service.rerank_top_k(ctx, k),
                    full[i][..k.min(full[i].len())],
                    "query {i}, k={k}"
                );
            }
            let mut batch = Vec::new();
            service.rerank_batch_top_k_into(&qs, k, &mut batch);
            for (i, got) in batch.iter().enumerate() {
                assert_eq!(
                    got,
                    &full[i][..k.min(full[i].len())],
                    "batch query {i}, k={k}"
                );
            }
        }
    }

    #[test]
    fn batch_into_reuses_result_arenas() {
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 2).with_workers(2);
        service.extend(corpus(64));
        let qs = queries(8);
        let mut results = Vec::new();
        service.rerank_batch_into(&qs, &mut results);
        let capacities: Vec<usize> = results.iter().map(Vec::capacity).collect();
        let expected = results.clone();
        service.rerank_batch_into(&qs, &mut results);
        assert_eq!(results, expected);
        assert_eq!(
            capacities,
            results.iter().map(Vec::capacity).collect::<Vec<_>>(),
            "inner result vectors must keep their storage across batches"
        );

        // Shrinking the batch truncates; growing it appends fresh slots.
        service.rerank_batch_into(&qs[..3], &mut results);
        assert_eq!(results.len(), 3);
        service.rerank_batch_into(&qs, &mut results);
        assert_eq!(results, expected);
    }

    #[test]
    fn v2_top_k_batches_draw_at_most_k_swaps_per_query() {
        // The serving half of the O(k)-draw contract: a v2 selective
        // engine's top-k traffic books at most `k` lazy-shuffle swap
        // draws per query — batched (any worker count) and sequential
        // alike — while a v1 engine books none (its eager shuffle is the
        // O(pool) cost v2 removes, not an instrumented draw).
        use rrp_core::EngineVersion;
        let k = 10usize;
        let qs = queries(16);
        let v1 = RankPromotionEngine::recommended().with_seed(17);
        let v2 = v1.with_version(EngineVersion::V2);
        let mut results = Vec::new();

        let service = ShardedPromotionService::new(v1, 4).with_workers(4);
        service.extend(corpus(300));
        service.rerank_batch_top_k_into(&qs, k, &mut results);
        service.rerank_top_k(qs[0], k);
        assert_eq!(service.serve_stats().pool_draws, 0, "v1 draws nothing");

        let service = ShardedPromotionService::new(v2, 4).with_workers(4);
        service.extend(corpus(300));
        service.rerank_batch_top_k_into(&qs, k, &mut results);
        let batched = service.serve_stats().pool_draws;
        assert!(batched > 0, "v2 promotions must register their draws");
        assert!(
            batched <= (k * qs.len()) as u64,
            "at most k draws per query: {batched} > {}",
            k * qs.len()
        );
        service.rerank_top_k(qs[0], k);
        let sequential = service.serve_stats().pool_draws - batched;
        assert!(sequential <= k as u64, "sequential path obeys the same cap");
        assert_eq!(
            service.serve_stats().mask_resets,
            0,
            "the lazy route still never scans the corpus"
        );
    }

    #[test]
    fn top_k_zero_charges_nothing_and_publishes_no_version() {
        // The pinned zero-rank edge: k = 0 answers from nothing, even on
        // a service with a full mutation backlog — no publication, no
        // repair, no retrieval, no merge.
        let service =
            ShardedPromotionService::new(RankPromotionEngine::recommended(), 3).with_workers(2);
        service.extend(corpus(60));
        assert!(service.rerank_top_k(QueryContext::new(1, 2), 0).is_empty());
        let mut results = vec![vec![9u64]];
        service.rerank_batch_top_k_into(&queries(4), 0, &mut results);
        assert_eq!(results, vec![Vec::<u64>::new(); 4]);
        let stats = service.serve_stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.version_publications, 0, "k = 0 must not publish");
        assert_eq!(stats.dirty_slots_repaired, 0);
        assert_eq!(stats.epoch_conflicts, 0);
        // k > n is the whole full rerank (one publication, shared by both
        // calls).
        let full = service.rerank_one(QueryContext::new(1, 2));
        assert_eq!(service.rerank_top_k(QueryContext::new(1, 2), 500), full);
        assert_eq!(service.serve_stats().version_publications, 1);
    }

    #[test]
    fn mutation_handles_are_checked_before_any_state_changes() {
        // The seq→slot conversion is checked in one place (the store's
        // `slot_of`); a bad handle fails closed without bumping the epoch
        // or touching the serving tier.
        let service = ShardedPromotionService::new(RankPromotionEngine::recommended(), 2);
        service.extend(corpus(10));
        let before = service.epoch();
        assert!(!service.record_visit(u64::MAX));
        assert!(!service.record_visit(10));
        assert!(!service.update_popularity(10, 1.0));
        assert!(matches!(
            service.try_record_visit(u64::MAX),
            Err(crate::ServeError::UnknownSequence {
                seq: u64::MAX,
                len: 10
            })
        ));
        assert!(matches!(
            service.try_update_popularity(10, 0.5),
            Err(crate::ServeError::UnknownSequence { seq: 10, len: 10 })
        ));
        assert_eq!(
            service.epoch(),
            before,
            "failed mutations must not bump the epoch"
        );
    }

    #[test]
    fn the_slot_past_u32_max_is_refused_with_a_typed_error() {
        // The boundary, checked on the lengths a store would report: a
        // store of 2^32 − 1 documents takes slot u32::MAX, one of 2^32
        // documents takes nothing more.
        let last = u64::from(u32::MAX);
        assert!(check_next_slot(0).is_ok());
        assert!(check_next_slot(last).is_ok());
        for len in [last + 1, u64::MAX] {
            let refused = check_next_slot(len).unwrap_err();
            assert!(matches!(refused, crate::ServeError::SlotLimit { len: l } if l == len));
            assert!(refused.to_string().contains(&len.to_string()));
        }
        // Below the limit an insert goes through the same check.
        let service = ShardedPromotionService::new(RankPromotionEngine::recommended(), 2);
        assert_eq!(service.try_insert(Document::unexplored(7)).unwrap(), 0);
        assert_eq!(service.epoch(), 1);
    }

    #[test]
    fn versioned_reads_expose_the_published_epoch() {
        let engine = RankPromotionEngine::recommended().with_seed(4);
        let service = ShardedPromotionService::new(engine, 3).with_workers(2);
        assert_eq!(service.epoch(), 0);
        service.extend(corpus(40));
        assert_eq!(service.epoch(), 40, "every mutation bumps the epoch by one");
        let ctx = QueryContext::new(1, 2);
        let (epoch, ids) = service.rerank_one_versioned(ctx);
        assert_eq!(epoch, 40);
        assert_eq!(ids, service.rerank_one(ctx));
        let (epoch, top) = service.rerank_top_k_versioned(ctx, 5);
        assert_eq!(epoch, 40);
        assert_eq!(top, ids[..5]);
        let qs = queries(3);
        let (epoch, batch) = service.rerank_batch_versioned(&qs);
        assert_eq!(epoch, 40);
        assert_eq!(batch, service.rerank_batch(&qs));
        // A mutation advances the epoch; the next read publishes for it.
        assert!(service.record_visit(0));
        let (epoch, _) = service.rerank_one_versioned(ctx);
        assert_eq!(epoch, 41);
        let stats = service.serve_stats();
        assert_eq!(stats.version_publications, 2);
        assert_eq!(stats.epoch_conflicts, 0);
    }

    #[test]
    fn small_lazy_batches_answer_on_the_calling_thread() {
        // The `topk_v2_100k` batch: 64 lazy top-10 queries over 100k
        // documents is 640 positions, far below one fan-out's worth.
        use rrp_core::EngineVersion;
        let v2 = RankPromotionEngine::recommended().with_version(EngineVersion::V2);
        for workers in [1usize, 2, 8] {
            assert_eq!(batch_workers(v2, workers, 64, Some(10), 100_000), 1);
        }
        // k is capped by the corpus: a huge k over a tiny corpus is tiny.
        assert_eq!(batch_workers(v2, 8, 64, Some(1_000_000), 40), 1);
    }

    #[test]
    fn lazy_batches_above_the_threshold_fan_out() {
        use rrp_core::EngineVersion;
        let v2 = RankPromotionEngine::recommended().with_version(EngineVersion::V2);
        let at = FAN_OUT_MIN_POSITIONS / 8;
        assert_eq!(at * 8, FAN_OUT_MIN_POSITIONS);
        for workers in [2usize, 8] {
            assert_eq!(batch_workers(v2, workers, at - 1, Some(8), 100_000), 1);
            assert_eq!(batch_workers(v2, workers, at, Some(8), 100_000), workers);
            assert_eq!(batch_workers(v2, workers, 1024, Some(10), 100_000), workers);
            assert_eq!(batch_workers(v2, workers, 64, Some(100), 100_000), workers);
        }
    }

    #[test]
    fn corpus_sized_routes_fan_out_as_before_at_the_bench_sizes() {
        // v1 top-k (eager pool shuffle), every Uniform read and every full
        // rerank cost `n` positions per query: at `serve_throughput`'s
        // sizes (64-query batches, n = 10k and 100k) they fan out to
        // `min(workers, queries)` threads, exactly as every batch did
        // before the threshold existed.
        use rrp_core::EngineVersion;
        let v1 = RankPromotionEngine::recommended();
        let v2 = v1.with_version(EngineVersion::V2);
        let uniform_v2 = uniform_engine().with_version(EngineVersion::V2);
        for n in [10_000usize, 100_000] {
            for workers in [2usize, 8] {
                for (engine, k) in [
                    (v1, Some(10)),
                    (v1, None),
                    (v2, None),
                    (uniform_engine(), Some(10)),
                    (uniform_engine(), None),
                    (uniform_v2, Some(10)),
                ] {
                    assert_eq!(
                        batch_workers(engine, workers, 64, k, n),
                        workers,
                        "{:?} {:?}, k = {k:?}, n = {n}, {workers} workers",
                        engine.config().rule,
                        engine.version()
                    );
                }
                assert_eq!(batch_workers(v1, workers, 3, Some(10), n), workers.min(3));
            }
        }
    }

    #[test]
    fn one_worker_or_one_query_never_spawns() {
        use rrp_core::EngineVersion;
        let v1 = RankPromotionEngine::recommended();
        let v2 = v1.with_version(EngineVersion::V2);
        for engine in [v1, v2, uniform_engine()] {
            for k in [Some(10), None] {
                assert_eq!(batch_workers(engine, 1, 1_000_000, k, 1_000_000), 1);
                assert_eq!(batch_workers(engine, 8, 1, k, 1_000_000), 1);
            }
        }
    }

    #[test]
    fn batches_on_both_sides_of_the_threshold_match_sequential_reads() {
        // Each batch — answered inline (1 and 64 queries) or fanned out
        // (the smallest batch that reaches the threshold) — equals the
        // sequential reads of a twin service, and books the twin's arena
        // counters exactly: the inline path folds its scratch set's
        // `pool_draws` and `mask_resets` into the probes as each spawned
        // worker does.
        use rrp_core::EngineVersion;
        let n = 40u64;
        let v1 = RankPromotionEngine::recommended().with_seed(31);
        let engines = [v1, v1.with_version(EngineVersion::V2), uniform_engine()];
        for engine in engines {
            for k in [Some(10usize), None] {
                // The smallest batch this route fans out.
                let above = (1..)
                    .find(|&q| batch_workers(engine, 2, q, k, n as usize) > 1)
                    .expect("a large enough batch fans out") as u64;
                assert!(above > 64, "64 queries stay inline on every route");
                for workers in [1usize, 2, 8] {
                    for batch in [1u64, 64, above] {
                        let label = format!(
                            "{:?} {:?}, k = {k:?}, {workers} workers, {batch} queries",
                            engine.config().rule,
                            engine.version()
                        );
                        let fans_out = workers > 1 && batch == above;
                        assert_eq!(
                            batch_workers(engine, workers, batch as usize, k, n as usize) > 1,
                            fans_out,
                            "{label}"
                        );
                        let qs = queries(batch);
                        let service = ShardedPromotionService::new(engine, 3).with_workers(workers);
                        let twin = ShardedPromotionService::new(engine, 3).with_workers(workers);
                        for s in [&service, &twin] {
                            s.extend(corpus(n));
                            s.rerank_one(qs[0]); // absorb the warm-up publication
                        }

                        let before = twin.serve_stats();
                        let expected: Vec<Vec<u64>> = qs
                            .iter()
                            .map(|&ctx| match k {
                                Some(k) => twin.rerank_top_k(ctx, k),
                                None => twin.rerank_one(ctx),
                            })
                            .collect();
                        let sequential = twin.serve_stats();

                        let start = service.serve_stats();
                        let mut results = Vec::new();
                        match k {
                            Some(k) => service.rerank_batch_top_k_into(&qs, k, &mut results),
                            None => service.rerank_batch_into(&qs, &mut results),
                        }
                        let batched = service.serve_stats();

                        assert_eq!(results, expected, "{label}");
                        assert_eq!(
                            batched.pool_draws - start.pool_draws,
                            sequential.pool_draws - before.pool_draws,
                            "{label}"
                        );
                        assert_eq!(
                            batched.mask_resets - start.mask_resets,
                            sequential.mask_resets - before.mask_resets,
                            "{label}"
                        );
                        assert_eq!(
                            batched.queries - start.queries,
                            sequential.queries - before.queries,
                            "{label}"
                        );
                        // Sequential reads book no batch; the batch books
                        // exactly one.
                        assert_eq!(sequential.batches, before.batches, "{label}");
                        assert_eq!(batched.batches - start.batches, 1, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_len_covers_all_indices() {
        for queries in [1usize, 2, 7, 64, 1000] {
            for workers in [1usize, 2, 8, 64] {
                let chunk = chunk_len(queries, workers);
                assert!(chunk >= 1);
                // Walking chunk-by-chunk covers 0..queries exactly.
                let mut covered = 0;
                let mut index = 0;
                while index * chunk < queries {
                    covered += ((index + 1) * chunk).min(queries) - index * chunk;
                    index += 1;
                }
                assert_eq!(covered, queries, "{queries} queries, {workers} workers");
            }
        }
    }
}
