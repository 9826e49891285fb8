//! Every call the benchmark makes into a single layer of the serving
//! stack, in one file: the traced run re-enacts each round from outside,
//! calling the layers' public functions in the order
//! `ShardedPromotionService`, `DurableService` and `ReplicaService` call
//! them, with a span around each call. An API change to any of these
//! layers is absorbed here.
//!
//! The re-enactment must answer exactly as the service does (the traced
//! run compares digests), so each method below mirrors one service path:
//!
//! * mutation — `ShardedStore` mutate + `ShardedCorpusCache::patch`;
//! * publication (first read after a mutation) — `publish`, then
//!   `recycle` of the retired version;
//! * selective top-k — `PublishedVersion::collect_rest_candidates`,
//!   `merge_shard_candidates_into`, `rerank_top_k_retrieved_into`,
//!   `page_of`;
//! * full rerank — `ensure_merged_order`, `rerank_merged_into`, `page_of`;
//! * durable leader — `WalWriter` + `FileSink` append, the apply above,
//!   the periodic snapshot (`WalWriter::sync` + the snapshot encoding +
//!   `write_snapshot_atomic`, as `DurableService::snapshot_now` does), and
//!   the sync `sync_for_followers` performs. Answers alone would not show
//!   a drift in the log or the snapshots, so the traced run also compares
//!   the appends and snapshots counted here, and the log and snapshot
//!   files, with the service's;
//! * replica catch-up — `WalTailReader` polls, each event applied to the
//!   replica's tier.

use crate::inputs::Mutation;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{first_query, Answers, Inputs, Read, Reads, RoundInputs, K};
use rrp_core::{Document, PublishedVersion, QueryContext, RankPromotionEngine, ShardedCorpusCache};
use rrp_ranking::{merge_shard_candidates_into, MergedCandidates, RankBuffers, ShardCandidates};
use rrp_serve::ShardedStore;
use rrp_wal::snapshot::write_snapshot_atomic;
use rrp_wal::{create_log_file, FileSink, WalEvent, WalPoll, WalTailReader, WalWriter};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// File names `DurableService` uses inside its directory.
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// `DurableService`'s default snapshot cadence, in events.
const SNAPSHOT_EVERY: u64 = 1024;
/// Frame bytes a WAL record adds to its payload: length, CRC, sequence.
const FRAME_HEADER_BYTES: u64 = 4 + 4 + 8;

/// One serving tier re-enacted from its parts: the store, the writer
/// generation of the shard caches, and the published version.
struct Tier {
    engine: RankPromotionEngine,
    store: ShardedStore,
    cache: ShardedCorpusCache,
    published: Arc<PublishedVersion>,
    epoch: u64,
    candidates: Vec<ShardCandidates>,
    merged: MergedCandidates,
    rest: Vec<usize>,
    buffers: RankBuffers,
    slots: Vec<usize>,
}

impl Tier {
    fn new(engine: RankPromotionEngine, shards: usize) -> Self {
        let store = ShardedStore::new(shards);
        let mut cache = ShardedCorpusCache::new(store.shard_count());
        cache.set_pool_maintained(engine.reads_pool_index());
        let published = Arc::new(PublishedVersion::empty(
            store.shard_count(),
            cache.pool_maintained(),
        ));
        Tier {
            engine,
            store,
            cache,
            published,
            epoch: 0,
            candidates: Vec::new(),
            merged: MergedCandidates::default(),
            rest: Vec::new(),
            buffers: RankBuffers::default(),
            slots: Vec::new(),
        }
    }

    fn insert(&mut self, document: Document) {
        self.store.insert(document);
        let shard = self.store.shard_of_id(document.id);
        self.cache.push(shard, &document);
        self.epoch += 1;
    }

    /// A visit or popularity update; `false` for an unknown sequence.
    fn apply(&mut self, mutation: Mutation) -> bool {
        let (seq, document) = match mutation {
            Mutation::Visit(seq) => (seq, self.store.record_visit(seq)),
            Mutation::SetPopularity(seq, p) => (seq, self.store.update_popularity(seq, p)),
        };
        let (Some(document), Some(slot)) = (document, self.store.slot_of(seq)) else {
            return false;
        };
        self.cache.patch(slot, &document);
        self.epoch += 1;
        true
    }

    /// A logged event, applied as `DurableService`'s replay applies it.
    fn apply_event(&mut self, event: WalEvent) -> bool {
        match event {
            WalEvent::Insert(document) => {
                self.insert(document);
                true
            }
            WalEvent::Visit { seq } => self.apply(Mutation::Visit(seq)),
            WalEvent::SetPopularity { seq, popularity } => {
                self.apply(Mutation::SetPopularity(seq, popularity))
            }
        }
    }

    /// The version for the live epoch, publishing (and recycling the
    /// retired version) when the published one is stale.
    fn version(&mut self, tracer: &mut Tracer) -> Arc<PublishedVersion> {
        if self.published.epoch() != self.epoch {
            let cache = &mut self.cache;
            let epoch = self.epoch;
            let (version, charged) = tracer.span("core.publish_us", || cache.publish(epoch));
            tracer.value("core.publish_dirty_slots", charged);
            let retired = std::mem::replace(&mut self.published, version);
            let store = &self.store;
            tracer.span("core.recycle_us", || {
                cache.recycle(retired, |slot| {
                    *store
                        .get(slot as u64)
                        .expect("every published slot exists in the store")
                })
            });
        }
        self.published.clone()
    }

    /// One selective top-k read off `version`.
    fn top_k(
        &mut self,
        version: &PublishedVersion,
        ctx: QueryContext,
        out: &mut Vec<u64>,
        tracer: &mut Tracer,
    ) {
        let limit = self.engine.config().candidate_prefix_len(K);
        let (candidates, merged, rest) = (&mut self.candidates, &mut self.merged, &mut self.rest);
        tracer.span("core.collect_us", || {
            version.collect_rest_candidates(limit, candidates)
        });
        tracer.span("ranking.candidate_merge_us", || {
            merge_shard_candidates_into(candidates, limit, merged);
            rest.clear();
            rest.extend(merged.rest().iter().map(|p| p.slot));
        });
        let (engine, buffers, slots) = (&self.engine, &mut self.buffers, &mut self.slots);
        tracer.span("ranking.rank_topk_us", || {
            engine.rerank_top_k_retrieved_into(version.pool_slots(), rest, K, ctx, buffers, slots)
        });
        tracer.span("core.resolve_us", || resolve(version, slots, out));
    }

    /// One full rerank off `version`.
    fn full(
        &mut self,
        version: &PublishedVersion,
        ctx: QueryContext,
        out: &mut Vec<u64>,
        tracer: &mut Tracer,
    ) {
        let start = Instant::now();
        let (order, merged) = version.ensure_merged_order();
        if merged {
            tracer.record("core.order_merge_us", start, Instant::now());
        }
        let (engine, buffers, slots) = (&self.engine, &mut self.buffers, &mut self.slots);
        tracer.span("ranking.rank_full_us", || {
            engine.rerank_merged_into(
                version.pool_slots(),
                order,
                |s| version.in_pool(s),
                ctx,
                buffers,
                slots,
            )
        });
        tracer.span("core.resolve_us", || resolve(version, slots, out));
    }

    /// The round's reads: the visible one (publishing first), then the
    /// steady ones on the same version. A batch's queries run one after
    /// another under a `serve.batch` span.
    fn reads(
        &mut self,
        reads: &Reads,
        round: &RoundInputs,
        answers: &mut Answers,
        tracer: &mut Tracer,
    ) {
        let version = self.version(tracer);
        self.read(
            &version,
            reads.visible,
            round.queries[0],
            &mut answers.visible,
            tracer,
        );
        for ((read, range), outs) in reads.plan().zip(&mut answers.steady) {
            if let Read::Batch(_) = read {
                tracer.begin("serve.batch");
                outs.resize_with(range.len(), Vec::new);
                for (&ctx, out) in round.queries[range].iter().zip(outs.iter_mut()) {
                    self.top_k(&version, ctx, out, tracer);
                }
                tracer.end();
            } else {
                self.read(
                    &version,
                    read,
                    round.queries[range.start],
                    &mut outs[0],
                    tracer,
                );
            }
        }
    }

    fn read(
        &mut self,
        version: &PublishedVersion,
        read: Read,
        ctx: QueryContext,
        out: &mut Vec<u64>,
        tracer: &mut Tracer,
    ) {
        match read {
            Read::Full => self.full(version, ctx, out, tracer),
            _ => self.top_k(version, ctx, out, tracer),
        }
    }
}

/// Global slots → document ids through the version's page table.
fn resolve(version: &PublishedVersion, slots: &[usize], out: &mut Vec<u64>) {
    out.clear();
    out.extend(slots.iter().map(|&s| version.page_of(s).0));
}

/// What the re-enacted durable leader has written so far, to be compared
/// with the service's `wal_appends` and `snapshots_written`: equal counts
/// (and equal files) show the re-enactment keeps the service's cadence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeaderWork {
    pub appends: u64,
    pub snapshots: u64,
}

/// The durable leader re-enacted: its log, its in-memory tier (which the
/// workload never reads, so it never publishes) and the snapshot cadence.
struct Leader {
    dir: PathBuf,
    wal: WalWriter,
    tier: Tier,
    since_snapshot: u64,
    work: LeaderWork,
}

impl Leader {
    fn open(engine: RankPromotionEngine, shards: usize, dir: PathBuf) -> Result<Self, String> {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let file = create_log_file(&dir.join(WAL_FILE)).map_err(|e| e.to_string())?;
        Ok(Leader {
            dir,
            wal: WalWriter::new(Box::new(FileSink::new(file)), 0),
            tier: Tier::new(engine, shards),
            since_snapshot: 0,
            work: LeaderWork::default(),
        })
    }

    /// Validate, append, apply, and snapshot on cadence — the order of
    /// `DurableService`'s mutation path.
    fn mutate(&mut self, event: WalEvent, tracer: &mut Tracer) -> Result<(), String> {
        if let WalEvent::Visit { seq } | WalEvent::SetPopularity { seq, .. } = event {
            if self.tier.store.get(seq).is_none() {
                return Err(format!("unknown sequence {seq}"));
            }
        }
        let wal = &mut self.wal;
        tracer
            .span("wal.append_us", || wal.append(&event))
            .map_err(|e| e.to_string())?;
        self.work.appends += 1;
        let mut payload = Vec::new();
        event.encode_into(&mut payload);
        tracer.value(
            "wal.bytes_per_event",
            payload.len() as u64 + FRAME_HEADER_BYTES,
        );
        self.since_snapshot += 1;
        let tier = &mut self.tier;
        if !tracer.span("core.patch_us", || tier.apply_event(event)) {
            return Err("mutation did not apply".to_string());
        }
        if self.since_snapshot >= SNAPSHOT_EVERY {
            tracer.begin("durable.snapshot_ms");
            let written = self.snapshot();
            tracer.end();
            written?;
        }
        Ok(())
    }

    /// Sync the log, encode engine + store + serving tier + next event, and
    /// write the snapshot atomically.
    fn snapshot(&mut self) -> Result<(), String> {
        self.wal.sync().map_err(|e| e.to_string())?;
        let value = Value::Map(vec![
            ("engine".to_string(), self.tier.engine.to_value()),
            ("store".to_string(), self.tier.store.to_value()),
            ("shards".to_string(), self.tier.cache.to_value()),
            ("next_event".to_string(), self.wal.next_seq().to_value()),
        ]);
        let payload = serde_json::to_string(&value).map_err(|e| e.to_string())?;
        write_snapshot_atomic(&self.dir.join(SNAPSHOT_FILE), payload.as_bytes())
            .map_err(|e| e.to_string())?;
        self.since_snapshot = 0;
        self.work.snapshots += 1;
        Ok(())
    }
}

impl Drop for Leader {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A replica re-enacted: a tier fed by tailing the leader's log.
struct Follower {
    tail: WalTailReader,
    tier: Tier,
}

impl Follower {
    /// Apply every event visible in the log; returns how many.
    fn catch_up(&mut self, tracer: &mut Tracer) -> Result<u64, String> {
        let mut applied = 0;
        loop {
            match self.tail.poll_next_event().map_err(|e| e.to_string())? {
                WalPoll::Pending => return Ok(applied),
                WalPoll::Event { event, .. } => {
                    let tier = &mut self.tier;
                    if !tracer.span("replica.apply_us", || tier.apply_event(event)) {
                        return Err("replayed event did not apply".to_string());
                    }
                    applied += 1;
                }
            }
        }
    }
}

/// The re-enactment of one serve workload.
pub struct Replay {
    stack: Stack,
    reads: &'static Reads,
    answers: Answers,
}

// One value per run: the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Stack {
    InMemory(Tier),
    Durable { leader: Leader, follower: Follower },
}

impl Replay {
    /// Build the state the service's set-up builds, from the same corpus,
    /// ending with the same first answer.
    pub fn new(inputs: &Inputs, dir: PathBuf) -> Result<Self, String> {
        let engine = inputs.engine();
        let shards = inputs.shape.shards;
        let mut setup = Tracer::default();
        let mut first = Vec::new();
        let stack = if inputs.shape.durable {
            let mut leader = Leader::open(engine, shards, dir.clone())?;
            for &document in &inputs.corpus {
                leader.mutate(WalEvent::Insert(document), &mut setup)?;
            }
            let tail = WalTailReader::open(&dir.join(WAL_FILE)).map_err(|e| e.to_string())?;
            let mut follower = Follower {
                tail,
                tier: Tier::new(engine, shards),
            };
            follower.catch_up(&mut setup)?;
            Stack::Durable { leader, follower }
        } else {
            let mut tier = Tier::new(engine, shards);
            inputs.corpus.iter().for_each(|&d| tier.insert(d));
            Stack::InMemory(tier)
        };
        let mut replay = Replay {
            stack,
            reads: inputs.shape.reads,
            answers: Answers::for_reads(inputs.shape.reads),
        };
        let reader = replay.reader();
        let version = reader.version(&mut setup);
        reader.top_k(&version, first_query(inputs.seed), &mut first, &mut setup);
        Ok(replay)
    }

    /// The tier answering reads: the in-memory tier or the replica's.
    fn reader(&mut self) -> &mut Tier {
        match &mut self.stack {
            Stack::InMemory(tier) => tier,
            Stack::Durable { follower, .. } => &mut follower.tier,
        }
    }

    /// The re-enacted leader's appends and snapshots so far (`None` for
    /// an in-memory workload).
    pub fn leader_work(&self) -> Option<LeaderWork> {
        match &self.stack {
            Stack::InMemory(_) => None,
            Stack::Durable { leader, .. } => Some(leader.work),
        }
    }

    /// Whether the re-enacted leader's log and latest snapshot are
    /// byte-for-byte those a `DurableService` wrote into `service_dir`
    /// (`None` for an in-memory workload). Both logs must be synced.
    pub fn same_files_as(&self, service_dir: &Path) -> Option<bool> {
        let Stack::Durable { leader, .. } = &self.stack else {
            return None;
        };
        let same = |name: &str| {
            let read = |dir: &Path| std::fs::read(dir.join(name)).ok();
            let ours = read(&leader.dir);
            ours.is_some() && ours == read(service_dir)
        };
        Some(same(WAL_FILE) && same(SNAPSHOT_FILE))
    }

    /// One round, traced under a `round` span. Answers go to `digest` in
    /// the service's order; failures are counted.
    pub fn round(
        &mut self,
        round: &RoundInputs,
        tracer: &mut Tracer,
        digest: &mut Digest,
        failed: &mut u64,
    ) {
        tracer.begin("round");
        match &mut self.stack {
            Stack::InMemory(tier) => {
                for &mutation in &round.mutations {
                    let ok = tracer.span("core.patch_us", || tier.apply(mutation));
                    *failed += u64::from(!ok);
                }
            }
            Stack::Durable { leader, follower } => {
                for &mutation in &round.mutations {
                    let event = match mutation {
                        Mutation::Visit(seq) => WalEvent::Visit { seq },
                        Mutation::SetPopularity(seq, popularity) => {
                            WalEvent::SetPopularity { seq, popularity }
                        }
                    };
                    *failed += u64::from(leader.mutate(event, tracer).is_err());
                }
                let wal = &mut leader.wal;
                *failed += u64::from(tracer.span("wal.sync_us", || wal.sync()).is_err());
                tracer.begin("replica.catch_up_us");
                let caught_up = follower.catch_up(tracer);
                tracer.end();
                *failed += u64::from(caught_up.is_err());
            }
        }
        let (reads, mut answers) = (self.reads, std::mem::take(&mut self.answers));
        self.reader().reads(reads, round, &mut answers, tracer);
        answers.digest_into(digest);
        self.answers = answers;
        tracer.end();
    }
}
