//! The durable serving wrapper: every mutation is appended to a
//! write-ahead log before it touches memory, periodic snapshots bound
//! recovery time, and [`DurableService::open`] rebuilds **bit-identical**
//! serving state from disk after a crash.
//!
//! ## State machine
//!
//! ```text
//!            ┌──────────────── mutation ────────────────┐
//!            │ 1. validate (unknown seq → ServeError,   │
//!            │    nothing logged)                       │
//!            │ 2. append event to WAL  ──failure──▶ typed error,
//!            │ 3. apply to in-memory service            │  state unchanged
//!            │ 4. every `snapshot_every` events:        │
//!            │    sync WAL, write snapshot atomically   │
//!            │    (failure → counted, retried at the    │
//!            │     next mark; the mutation stands)      │
//!            └──────────────────────────────────────────┘
//!
//!            ┌──────────────── recovery ────────────────┐
//!            │ 1. read + CRC-verify snapshot, load its  │
//!            │    store, derive the serving tier from   │
//!            │    the documents (corrupt/missing →      │
//!            │    start empty, replay the whole log)    │
//!            │ 2. catch up on the log as a replica does │
//!            │    (events ≥ the snapshot's high-water   │
//!            │    mark), until the reader stops         │
//!            │ 3. classify the tail: torn final write   │
//!            │    dropped cleanly; CRC failure truncates│
//!            │    at the first bad record, loss counted │
//!            │ 4. truncate the log to its valid prefix, │
//!            │    resume appending                      │
//!            └──────────────────────────────────────────┘
//! ```
//!
//! Recovery is a replica's catch-up plus tail repair: steps 2 and 3 run
//! the same reader ([`rrp_wal::WalTailReader`]) and the same
//! poll → admit → apply loop as [`crate::ReplicaService`], and only the
//! leader truncates.
//!
//! A snapshot is JSON of the engine, the store, the serving tier and the
//! event mark, but recovery and replica bootstrap read back only the
//! engine, the store and the mark: the tier (stats, the slot-tie-broken
//! popularity order, the unexplored pool) is a function of the documents,
//! derived by pushing each one as [`ShardedPromotionService::new`]'s
//! inserts would. The tier field is write-only, kept byte for byte because
//! the benchmark re-enacts this writer and compares bytes; with the bytes
//! unchanged, [`SNAPSHOT_VERSION`](rrp_wal::snapshot::SNAPSHOT_VERSION)
//! did not move.
//!
//! Replay reproduces bit-identical output because every serving answer is
//! a pure function of (engine seed, query, session) over the store's
//! canonical order, and both the snapshot (exact-bit floats through the
//! shortest-round-trip JSON codec) and the log (floats as IEEE bit
//! patterns) preserve that state exactly — the crash-recovery conformance
//! suite pins recovered output against an uncrashed twin across shard ×
//! worker × policy × engine-version grids.
//!
//! The log is retained across snapshots (a snapshot only moves the replay
//! start), so any *prefix* of history can be replayed — the time-travel
//! property pinned by the prefix-replay suite.

use crate::error::ServeError;
use crate::service::{ServeStats, ShardedPromotionService, StoreGuard};
use crate::store::ShardedStore;
use rrp_core::{Document, RankPromotionEngine, ShardedCorpusCache};
use rrp_wal::fault::{Failpoint, FailpointSink};
use rrp_wal::snapshot::{read_snapshot, write_snapshot_atomic};
use rrp_wal::{
    create_log_file, resume_log_file, FileSink, WalError, WalEvent, WalPoll, WalTailReader,
    WalWriter,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// File name of the log inside a durable directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durable directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Default mutation count between automatic snapshots.
const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// What [`DurableService::open`] found on disk and what it did about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a verified snapshot seeded the state (false = started
    /// empty and replayed the log from its first event).
    pub snapshot_loaded: bool,
    /// Whether a snapshot file existed but failed verification and was
    /// recovered *around* by replaying the full log instead.
    pub snapshot_fallback: bool,
    /// Events replayed from the log onto the starting state.
    pub events_replayed: u64,
    /// Events lost to a corrupt record (0 for a clean or merely torn
    /// log): the first failed record plus every complete frame after it,
    /// counted best-effort by the reader.
    pub events_lost: u64,
    /// Bytes discarded past the log's valid prefix (torn tail, corrupt
    /// tail, or an unreadable log that had to be reset).
    pub bytes_dropped: u64,
    /// Whether the log file had to be reset — recreated empty, with
    /// appends resuming at the snapshot's high-water mark — because it
    /// could not be appended to as found: an unreadable header, an
    /// unsupported format version, or a log that ends *before* the
    /// snapshot's mark (appending there would leave a sequence gap in
    /// the file). The discarded bytes are counted in
    /// [`bytes_dropped`](Self::bytes_dropped). Regression guard: the
    /// behind-snapshot reset used to happen silently.
    pub log_reset: bool,
}

/// [`ShardedPromotionService`] behind a write-ahead log: mutations are
/// durable, queries are served from the same in-memory tier, and
/// [`open`](Self::open) recovers bit-identical state after a crash.
///
/// ## Durability contract
///
/// An `Ok` from [`insert`](Self::insert),
/// [`record_visit`](Self::record_visit) or
/// [`update_popularity`](Self::update_popularity) means the event's frame
/// reached the OS and the event was applied: it survives a **process
/// crash**. A cadence snapshot that fails after that point does not undo
/// the `Ok` — it is counted in [`ServeStats::snapshot_failures`] and
/// retried at the next cadence mark. It survives an **OS
/// crash or power loss** only once a later sync covers it — a cadence
/// snapshot (every [`with_snapshot_every`](Self::with_snapshot_every)
/// events), [`snapshot_now`](Self::snapshot_now) or
/// [`sync_for_followers`](Self::sync_for_followers). Each of those syncs
/// the log; a snapshot is also renamed into place and its directory
/// synced.
pub struct DurableService {
    inner: ShardedPromotionService,
    wal: WalWriter,
    snapshot_path: PathBuf,
    snapshot_every: u64,
    events_since_snapshot: u64,
    /// Cadence snapshots that failed since the last written one: the next
    /// attempt waits that many extra cadence intervals.
    failures_since_snapshot: u64,
    wal_appends: u64,
    snapshots_written: u64,
    snapshot_failures: u64,
    events_replayed: u64,
}

impl DurableService {
    /// Open (or create) the durable service rooted at `dir`: load and
    /// verify the snapshot if one exists, replay the log tail, truncate
    /// any torn or corrupt suffix, and resume appending. The requested
    /// `engine` and `shard_count` must match a pre-existing snapshot —
    /// recovering under a different deployment configuration is a typed
    /// error, not silently divergent state.
    pub fn open(
        dir: &Path,
        engine: RankPromotionEngine,
        shard_count: usize,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        Self::open_with_failpoint(dir, engine, shard_count, Failpoint::new())
    }

    /// [`open`](Self::open) with an armed-able [`Failpoint`] interposed on
    /// the append path — the fault-injection entry used by the recovery
    /// tests. A disarmed failpoint (the default) changes nothing.
    pub fn open_with_failpoint(
        dir: &Path,
        engine: RankPromotionEngine,
        shard_count: usize,
        failpoint: Failpoint,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        std::fs::create_dir_all(dir).map_err(WalError::from)?;
        let wal_path = dir.join(WAL_FILE);
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let mut report = RecoveryReport::default();

        // 1. The snapshot, if one verifies (shared with the replica
        // bootstrap — see `bootstrap_snapshot`).
        let boot = bootstrap_snapshot(&snapshot_path, engine, shard_count)?;
        let next_event = boot.hwm;
        let inner = boot.service;
        report.snapshot_loaded = boot.snapshot_loaded;
        report.snapshot_fallback = boot.snapshot_fallback;

        // 2–3. Catch up on the log exactly as a replica does, then
        // classify what the scan left unverified.
        let mut log_state = match WalTailReader::open(&wal_path) {
            Ok(reader) => {
                let mut replay = ReplayCursor::new(reader, next_event);
                match replay.apply_up_to(&inner, u64::MAX) {
                    // A corrupt frame ends the scan; `tail` counts its cost.
                    Ok(_) | Err(ServeError::Wal(WalError::Corrupt { .. })) => {}
                    Err(e) => return Err(e),
                }
                report.events_replayed = replay.applied();
                let tail = replay.reader.tail()?;
                report.events_lost = tail.events_lost();
                report.bytes_dropped = tail.dropped_bytes();
                // Appending resumes one past the last verified record; an
                // empty valid prefix resumes at the snapshot mark.
                let log_next = replay.reader.next_seq().unwrap_or(next_event);
                Some((replay.reader.valid_len(), log_next))
            }
            // No log yet: a fresh directory (or snapshot-only survivor).
            Err(WalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            // A log whose *header* is unreadable cannot be scanned at
            // all. The snapshot state (possibly empty) stands; the log is
            // reset rather than appended to blindly.
            Err(WalError::BadHeader { .. }) | Err(WalError::UnsupportedVersion { .. }) => {
                report.log_reset = true;
                report.bytes_dropped += std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
                None
            }
            Err(e) => return Err(e.into()),
        };

        // A log that ends before the snapshot's high-water mark cannot be
        // appended to at `next_event` without leaving a sequence gap in
        // the file — reset it and let the snapshot carry the past. The
        // discarded valid prefix joins whatever tail bytes were already
        // counted, so `bytes_dropped` covers the whole file.
        if let Some((valid_len, log_next)) = log_state {
            if log_next < next_event {
                report.log_reset = true;
                report.bytes_dropped += valid_len;
                log_state = None;
            }
        }

        // 4. Truncate to the valid prefix and resume appending.
        let (file, writer_next) = match log_state {
            Some((valid_len, log_next)) => (resume_log_file(&wal_path, valid_len)?, log_next),
            None => (create_log_file(&wal_path)?, next_event),
        };
        debug_assert!(writer_next >= next_event);
        let sink = FailpointSink::new(FileSink::new(file), failpoint);
        let wal = WalWriter::new(Box::new(sink), writer_next);

        let replayed = report.events_replayed;
        let service = DurableService {
            inner,
            wal,
            snapshot_path,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            // The snapshot on disk is `replayed` events behind the log;
            // seeding the cadence counter keeps the next automatic
            // snapshot on schedule. Starting at 0 here would let the
            // replay tail grow to ~2× `snapshot_every` across repeated
            // crashes.
            events_since_snapshot: replayed,
            failures_since_snapshot: 0,
            wal_appends: 0,
            snapshots_written: 0,
            snapshot_failures: 0,
            events_replayed: replayed,
        };
        Ok((service, report))
    }

    /// Set the mutation count between automatic snapshots (clamped to at
    /// least 1). Lower bounds recovery replay at the price of more
    /// snapshot writes.
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every.max(1);
        self
    }

    /// Set the worker count of the wrapped service (see
    /// [`ShardedPromotionService::with_workers`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.inner = self.inner.with_workers(workers);
        self
    }

    /// The wrapped in-memory service — every query path is served from
    /// here, unchanged (reads are never logged). Its mutators take
    /// `&self` too, but a mutation applied through them **bypasses the
    /// log**: it is neither durable nor seen by replicas, and recovery
    /// forgets it. Mutate through this wrapper instead.
    pub fn service(&self) -> &ShardedPromotionService {
        &self.inner
    }

    /// The underlying store (read-only; holds the writer lock while the
    /// guard lives, so drop it before mutating or snapshotting).
    pub fn store(&self) -> StoreGuard<'_> {
        self.inner.store()
    }

    /// The wrapped service's counters plus the durability probes
    /// ([`ServeStats::wal_appends`], [`ServeStats::snapshots_written`],
    /// [`ServeStats::snapshot_failures`], [`ServeStats::events_replayed`]).
    pub fn serve_stats(&self) -> ServeStats {
        let mut stats = self.inner.serve_stats();
        stats.wal_appends = self.wal_appends;
        stats.snapshots_written = self.snapshots_written;
        stats.snapshot_failures = self.snapshot_failures;
        stats.events_replayed = self.events_replayed;
        stats
    }

    /// Durably insert one document: the insert event is appended to the
    /// log first, then applied in memory. On an append failure nothing is
    /// applied and nothing is logged — the error is typed, the state
    /// consistent. Once appended and applied the insert returns its `seq`
    /// whatever the cadence snapshot does, so a caller never retries (and
    /// duplicates) an insert that already happened.
    ///
    /// A NaN or infinite popularity, which no snapshot could write, is
    /// rejected as [`ServeError::NonFinitePopularity`] before logging.
    pub fn insert(&mut self, document: Document) -> Result<u64, ServeError> {
        check_popularity(document.popularity)?;
        self.log_event(&WalEvent::Insert(document))?;
        let seq = self.inner.insert(document);
        self.maybe_snapshot();
        Ok(seq)
    }

    /// Durably insert every document of an iterator, in order. Stops at
    /// the first failed append (documents before it are in).
    pub fn extend(
        &mut self,
        documents: impl IntoIterator<Item = Document>,
    ) -> Result<(), ServeError> {
        for document in documents {
            self.insert(document)?;
        }
        Ok(())
    }

    /// Durably record a user visit. An unknown sequence is rejected
    /// *before* anything reaches the log, so the log only ever holds
    /// replayable events.
    pub fn record_visit(&mut self, seq: u64) -> Result<(), ServeError> {
        self.check_seq(seq)?;
        self.log_event(&WalEvent::Visit { seq })?;
        self.inner.try_record_visit(seq)?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Durably replace a popularity score. An unknown sequence, and a NaN
    /// or infinite score ([`ServeError::NonFinitePopularity`]), are
    /// rejected before anything reaches the log.
    pub fn update_popularity(&mut self, seq: u64, popularity: f64) -> Result<(), ServeError> {
        check_popularity(popularity)?;
        self.check_seq(seq)?;
        self.log_event(&WalEvent::SetPopularity { seq, popularity })?;
        self.inner.try_update_popularity(seq, popularity)?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Write a snapshot right now: sync the log, serialise the engine,
    /// store and serving tier, and rename it into place atomically. A
    /// crash at any instant leaves either the previous snapshot or this
    /// one. The serving tier is written but never read back: recovery
    /// derives it from the store (see the module docs).
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        self.wal.sync()?;
        let payload = encode_snapshot(&self.inner, self.wal.next_seq())?;
        write_snapshot_atomic(&self.snapshot_path, payload.as_bytes())?;
        self.snapshots_written += 1;
        self.events_since_snapshot = 0;
        self.failures_since_snapshot = 0;
        Ok(())
    }

    /// The leader-side replication handoff: flush the log all the way to
    /// disk and return the sequence one past the last durable event —
    /// the mark a follower tailing this directory can reach. After this
    /// returns, a `ReplicaService::catch_up` over the same directory is
    /// guaranteed to see every event below the returned mark (the frames
    /// are fully visible to same-machine readers even before the sync;
    /// the sync makes the handoff crash-durable).
    pub fn sync_for_followers(&mut self) -> Result<u64, ServeError> {
        self.wal.sync()?;
        Ok(self.wal.next_seq())
    }

    /// Reject mutations against sequences the store never issued, before
    /// they can be logged.
    fn check_seq(&self, seq: u64) -> Result<(), ServeError> {
        let store = self.inner.store();
        match store.slot_of(seq) {
            Some(_) => Ok(()),
            None => Err(ServeError::UnknownSequence {
                seq,
                len: store.len() as u64,
            }),
        }
    }

    /// Append one event; accounting only happens on success.
    fn log_event(&mut self, event: &WalEvent) -> Result<(), ServeError> {
        self.wal.append(event)?;
        self.wal_appends += 1;
        self.events_since_snapshot += 1;
        Ok(())
    }

    /// The periodic snapshot trigger on the mutation path. It runs after
    /// the event is logged and applied, so a failure cannot fail the
    /// mutation: it is counted, and the snapshot is retried at the next
    /// cadence mark (the log still holds every event, so recovery only
    /// replays a longer tail).
    fn maybe_snapshot(&mut self) {
        let due = self
            .snapshot_every
            .saturating_mul(self.failures_since_snapshot + 1);
        if self.events_since_snapshot >= due && self.snapshot_now().is_err() {
            self.snapshot_failures += 1;
            self.failures_since_snapshot += 1;
        }
    }
}

/// Reject a popularity score the snapshot codec cannot write.
fn check_popularity(popularity: f64) -> Result<(), ServeError> {
    if popularity.is_finite() {
        Ok(())
    } else {
        Err(ServeError::NonFinitePopularity { popularity })
    }
}

/// What the snapshot half of recovery produced: the seeded service and
/// where log replay must pick up. Shared by [`DurableService::open`] and
/// the replica bootstrap (`crate::replica`).
pub(crate) struct SnapshotBootstrap {
    /// The service, seeded from the snapshot (or empty).
    pub(crate) service: ShardedPromotionService,
    /// The event sequence the snapshot is current through: replay
    /// applies events at or past this mark.
    pub(crate) hwm: u64,
    /// Whether a verified snapshot seeded the state.
    pub(crate) snapshot_loaded: bool,
    /// Whether a snapshot existed but failed verification (recovery goes
    /// around it: the log holds full history, snapshots never truncate
    /// it).
    pub(crate) snapshot_fallback: bool,
}

/// Load and verify the snapshot at `snapshot_path`, if one exists, and
/// seed a service from it. A zero `shard_count` is a typed error whether
/// or not a snapshot exists. A snapshot that exists but fails
/// verification is recovered *around* — start empty, replay everything;
/// a snapshot that verifies but belongs to a different deployment
/// (engine, shard count) is a typed error.
pub(crate) fn bootstrap_snapshot(
    snapshot_path: &Path,
    engine: RankPromotionEngine,
    shard_count: usize,
) -> Result<SnapshotBootstrap, ServeError> {
    if shard_count == 0 {
        return Err(ServeError::InvalidShardCount { requested: 0 });
    }
    let snapshot_fallback = match read_snapshot(snapshot_path) {
        Ok(Some(payload)) => {
            let record = decode_snapshot(&payload, &engine, shard_count)?;
            return Ok(SnapshotBootstrap {
                service: ShardedPromotionService::with_store(engine, record.store),
                hwm: record.next_event,
                snapshot_loaded: true,
                snapshot_fallback: false,
            });
        }
        Ok(None) => false,
        Err(_) => true,
    };
    Ok(SnapshotBootstrap {
        service: ShardedPromotionService::new(engine, shard_count),
        hwm: 0,
        snapshot_loaded: false,
        snapshot_fallback,
    })
}

/// The replay loop shared by [`DurableService::open`] and the replica:
/// it polls the log's one reader, skips records the snapshot already
/// covers, applies the rest in sequence order below a cap, and holds
/// back the records past the cap. The first record seen is checked
/// against the snapshot mark — a log that starts *past* it is missing
/// history, and replaying it would silently skip events.
pub(crate) struct ReplayCursor {
    pub(crate) reader: WalTailReader,
    hwm: u64,
    /// Whether any record has been polled (only the first is checked).
    started: bool,
    /// Records applied so far: sequences `hwm..hwm + applied`.
    applied: u64,
    /// Records read off the log but held back by a cap, in log order.
    backlog: VecDeque<(u64, WalEvent)>,
}

impl ReplayCursor {
    /// A cursor replaying `reader` onto state current through `hwm`.
    pub(crate) fn new(reader: WalTailReader, hwm: u64) -> Self {
        ReplayCursor {
            reader,
            hwm,
            started: false,
            applied: 0,
            backlog: VecDeque::new(),
        }
    }

    /// Apply every visible record with sequence below `seq_cap` — first
    /// the backlog an earlier, lower cap held back, then the log as far
    /// as the reader sees it. Records past the cap join the backlog.
    /// Returns how many were newly applied. The reader's error (a real
    /// I/O failure, or sticky corruption) returns after every verified
    /// record before it was applied.
    pub(crate) fn apply_up_to(
        &mut self,
        service: &ShardedPromotionService,
        seq_cap: u64,
    ) -> Result<u64, ServeError> {
        let mut newly = 0u64;
        while self.backlog.front().is_some_and(|&(seq, _)| seq < seq_cap) {
            let (seq, event) = self.backlog.pop_front().expect("front was Some");
            self.apply(service, seq, &event)?;
            newly += 1;
        }
        loop {
            match self.reader.poll_next_event()? {
                WalPoll::Pending => return Ok(newly),
                WalPoll::Event { seq, event } => {
                    if !self.admit(seq)? {
                        continue;
                    }
                    // The backlog only holds records at or past the cap,
                    // and sequences rise, so a record under it is next.
                    if seq < seq_cap {
                        self.apply(service, seq, &event)?;
                        newly += 1;
                    } else {
                        self.backlog.push_back((seq, event));
                    }
                }
            }
        }
    }

    /// Check the next record's place in the replay: `Ok(true)` = past the
    /// snapshot mark, `Ok(false)` = already covered by the snapshot,
    /// `Err` = the log is missing history.
    fn admit(&mut self, seq: u64) -> Result<bool, ServeError> {
        if !self.started {
            self.started = true;
            if seq > self.hwm {
                return Err(ServeError::Recovery {
                    detail: format!(
                        "log starts at event {seq} but the snapshot only covers events \
                         before {}: history is missing",
                        self.hwm
                    ),
                });
            }
        }
        Ok(seq >= self.hwm)
    }

    fn apply(
        &mut self,
        service: &ShardedPromotionService,
        seq: u64,
        event: &WalEvent,
    ) -> Result<(), ServeError> {
        debug_assert_eq!(seq, self.next_to_apply(), "log replay skipped a sequence");
        apply_event(service, event)?;
        self.applied += 1;
        Ok(())
    }

    /// Events applied so far.
    pub(crate) fn applied(&self) -> u64 {
        self.applied
    }

    /// The sequence the next applied event must carry.
    pub(crate) fn next_to_apply(&self) -> u64 {
        self.hwm + self.applied
    }

    /// Records held back by a cap.
    pub(crate) fn backlog(&self) -> u64 {
        self.backlog.len() as u64
    }
}

/// What recovery reads back from a snapshot payload: the engine that
/// wrote it, the store and the event sequence the snapshot is current
/// through. The payload's `"shards"` entry has no field, so it is only
/// checked and skipped.
#[derive(Deserialize)]
struct SnapshotRecord {
    engine: RankPromotionEngine,
    store: ShardedStore,
    next_event: u64,
}

/// Serialize a snapshot payload: engine, store, serving tier (`"shards"`,
/// written for byte compatibility, never read) and the event mark.
///
/// The derived [`SnapshotFields`] writes its JSON straight into one
/// `String`, no `Value` tree built, byte for byte what the tree of the
/// same fields renders to (the benchmark re-enacts the tree and compares
/// bytes). The writer lock is held while the store and tier are written.
fn encode_snapshot(
    service: &ShardedPromotionService,
    next_event: u64,
) -> Result<String, ServeError> {
    let engine = service.engine();
    service
        .with_writer(|store, shards| {
            serde_json::to_string(&SnapshotFields {
                engine,
                store,
                shards,
                next_event,
            })
        })
        .map_err(|e| ServeError::Recovery {
            detail: format!("snapshot serialisation failed: {e}"),
        })
}

/// A snapshot payload's fields, borrowed from the service.
#[derive(Serialize)]
struct SnapshotFields<'a> {
    engine: RankPromotionEngine,
    store: &'a ShardedStore,
    shards: &'a ShardedCorpusCache,
    next_event: u64,
}

/// Read a snapshot payload back: check its engine and shard count against
/// the caller's, and return it.
///
/// The payload is read straight into a [`SnapshotRecord`], no `Value`
/// tree built: the engine, the store's documents and the event mark are
/// read where they stand in the text, and the `"shards"` entry (and any
/// other the record has no field for) is checked as JSON and skipped,
/// whatever it holds. Damage anywhere in the text, trailing bytes
/// included, is a typed recovery error.
fn decode_snapshot(
    payload: &[u8],
    engine: &RankPromotionEngine,
    shard_count: usize,
) -> Result<SnapshotRecord, ServeError> {
    let recovery = |detail: String| ServeError::Recovery { detail };
    let text = std::str::from_utf8(payload)
        .map_err(|e| recovery(format!("snapshot is not UTF-8: {e}")))?;
    let record: SnapshotRecord = serde_json::from_str(text)
        .map_err(|e| recovery(format!("snapshot could not be read: {e}")))?;
    // The engine (config, seed, version) defines every RNG stream; a
    // snapshot from a different engine would replay into silently
    // different rankings, so the mismatch is surfaced instead.
    if record.engine != *engine {
        return Err(recovery(
            "snapshot was written by a different engine configuration".to_string(),
        ));
    }
    let stored = record.store.shard_count();
    if stored == 0 {
        return Err(recovery("snapshot store has zero shards".to_string()));
    }
    if stored != shard_count {
        return Err(recovery(format!(
            "snapshot has {stored} shards, the service was opened with {shard_count}"
        )));
    }
    Ok(record)
}

/// Apply one replayed event. Events were validated before they were
/// logged, so a failure here means the log and snapshot do not belong
/// together — a typed recovery error, never a panic.
pub(crate) fn apply_event(
    service: &ShardedPromotionService,
    event: &WalEvent,
) -> Result<(), ServeError> {
    let result = match *event {
        WalEvent::Insert(document) => {
            service.insert(document);
            Ok(())
        }
        WalEvent::Visit { seq } => service.try_record_visit(seq),
        WalEvent::SetPopularity { seq, popularity } => {
            service.try_update_popularity(seq, popularity)
        }
    };
    result.map_err(|e| ServeError::Recovery {
        detail: format!("replay could not apply {event:?}: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_core::{QueryContext, RankPromotionEngine};
    use serde::Value;
    use std::path::PathBuf;

    fn engine() -> RankPromotionEngine {
        RankPromotionEngine::recommended().with_seed(42)
    }

    /// A unique scratch directory, cleaned up on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("rrp-durable-{name}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }

        fn wal_path(&self) -> PathBuf {
            self.0.join(WAL_FILE)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn doc(i: u64) -> Document {
        Document::established(i, 0.9 - i as f64 * 0.01).with_age(i)
    }

    /// Byte length of the log's valid prefix after `events` records.
    fn boundary_after(path: &Path, events: usize) -> u64 {
        let mut reader = WalTailReader::open(path).unwrap();
        for _ in 0..events {
            assert!(matches!(
                reader.poll_next_event().unwrap(),
                WalPoll::Event { .. }
            ));
        }
        reader.valid_len()
    }

    fn truncate_log(path: &Path, len: u64) {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(len).unwrap();
    }

    #[test]
    fn a_snapshot_right_after_a_recycled_publication_recovers_the_twin() {
        // A read that publishes also recycles the retired version as the
        // next writer generation, whose own popularity order stays scratch
        // until the next publication. A snapshot taken right then, with
        // nothing mutated since, must still store a valid order.
        let dir = Scratch::new("recycled-snapshot");
        let twin = ShardedPromotionService::new(engine(), 2);
        let docs: Vec<Document> = (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    Document::unexplored(i)
                } else {
                    doc(i)
                }
            })
            .collect();
        let ctx = |q: u64| QueryContext::new(q, q * 5 + 1);
        {
            let (mut svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            svc.extend(docs.iter().copied()).unwrap();
            twin.extend(docs.iter().copied());
            svc.service().rerank_top_k(ctx(0), 10); // the first version
            for seq in [3u64, 17, 30, 38] {
                let popularity = 0.95 - seq as f64 * 0.001;
                svc.update_popularity(seq, popularity).unwrap();
                assert!(twin.update_popularity(seq, popularity));
            }
            svc.record_visit(8).unwrap();
            assert!(twin.record_visit(8));
            // Publishes the mutations and recycles the first version.
            svc.service().rerank_top_k(ctx(1), 10);
            assert_eq!(svc.serve_stats().version_publications, 2);
            svc.snapshot_now().unwrap();
        } // crash
        let (svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.events_replayed, 0);
        for q in 0..8 {
            assert_eq!(
                svc.service().rerank_one(ctx(q)),
                twin.rerank_one(ctx(q)),
                "query {q}"
            );
            assert_eq!(
                svc.service().rerank_top_k(ctx(q), 10),
                twin.rerank_top_k(ctx(q), 10),
                "query {q}"
            );
        }
    }

    #[test]
    fn recovery_derives_the_tier_and_never_reads_the_written_one() {
        // The snapshot's serving tier is written but not read: with it
        // replaced by `null` (inside a recomputed envelope), the leader's
        // recovery and a replica's bootstrap still answer as the uncrashed
        // twin does.
        let dir = Scratch::new("tier-unread");
        let twin = ShardedPromotionService::new(engine(), 2);
        let docs: Vec<Document> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    Document::unexplored(i)
                } else {
                    doc(i)
                }
            })
            .collect();
        let ctx = |q: u64| QueryContext::new(q, q * 7 + 3);
        {
            let (mut svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            svc.extend(docs.iter().copied()).unwrap();
            twin.extend(docs.iter().copied());
            svc.service().rerank_top_k(ctx(0), 10);
            svc.record_visit(6).unwrap();
            assert!(twin.record_visit(6));
            svc.update_popularity(4, 0.99).unwrap();
            assert!(twin.update_popularity(4, 0.99));
            svc.snapshot_now().unwrap();
            // A tail past the snapshot for recovery to replay.
            svc.record_visit(9).unwrap();
            assert!(twin.record_visit(9));
            svc.insert(Document::unexplored(500)).unwrap();
            twin.insert(Document::unexplored(500));
        } // crash

        let snapshot = dir.path().join(SNAPSHOT_FILE);
        let payload = read_snapshot(&snapshot).unwrap().expect("a snapshot");
        let Value::Map(mut fields) =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap()
        else {
            panic!("a snapshot payload is a map");
        };
        let tier = fields
            .iter_mut()
            .find(|(name, _)| name == "shards")
            .expect("the payload writes the serving tier");
        tier.1 = Value::Null;
        let payload = serde_json::to_string(&Value::Map(fields)).unwrap();
        write_snapshot_atomic(&snapshot, payload.as_bytes()).unwrap();

        let assert_twin = |service: &ShardedPromotionService| {
            assert_eq!(service.pooled_slots(), twin.pooled_slots());
            for q in 0..8 {
                assert_eq!(
                    service.rerank_one(ctx(q)),
                    twin.rerank_one(ctx(q)),
                    "query {q}"
                );
                assert_eq!(
                    service.rerank_top_k(ctx(q), 10),
                    twin.rerank_top_k(ctx(q), 10),
                    "query {q}"
                );
            }
        };
        let mut replica = crate::ReplicaService::open(dir.path(), engine(), 2).unwrap();
        assert_eq!(
            replica.stats().bootstrap_source,
            crate::BootstrapSource::Snapshot
        );
        assert_eq!(replica.catch_up().unwrap(), 2);
        assert_twin(replica.service());
        drop(replica);

        let (svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.events_replayed, 2);
        assert_twin(svc.service());
    }

    #[test]
    fn the_snapshot_payload_bytes_are_pinned() {
        // A byte-identity golden for the snapshot codec: the payload's
        // length and CRC-32 for a fixed service whose corpus exercises
        // every formatting edge the codec has — −0.0, integral floats just
        // below and at 1e16 (the two integral-float spellings), a
        // subnormal, `u64::MAX` ids and ages, a visited unexplored page —
        // with a published version behind it and slots still dirty. Any
        // change to these bytes is a snapshot format change.
        let dir = Scratch::new("payload-golden");
        let (svc, _) = DurableService::open(dir.path(), engine(), 3).unwrap();
        let mut svc = svc.with_snapshot_every(1 << 20);
        let edges = [
            Document::established(u64::MAX, -0.0).with_age(u64::MAX),
            Document::established(u64::MAX - 1, 9_999_999_999_999_998.0).with_age(7),
            Document::established(1 << 53, 1e16).with_age(1 << 40),
            Document::established(3, 5e-324).with_age(0),
            Document::established(4, f64::MIN_POSITIVE / 3.0),
            Document::established(5, 1.0 / 3.0).with_age(12),
            Document::established(6, 123_456_789.0),
            Document::established(7, 0.1 + 0.2),
            Document::established(8, 2.5e-8),
            Document::established(9, 1.7976931348623157e308),
        ];
        svc.extend(edges).unwrap();
        svc.extend((20..60).map(|i| {
            if i % 5 == 0 {
                Document::unexplored(i).with_age(i * 3)
            } else {
                doc(i)
            }
        }))
        .unwrap();
        svc.service().rerank_top_k(QueryContext::new(1, 2), 10); // publishes
        svc.record_visit(10).unwrap(); // a visited unexplored page
        svc.record_visit(2).unwrap();
        svc.update_popularity(15, -0.0).unwrap();
        svc.update_popularity(5, 4_503_599_627_370_497.0).unwrap();
        svc.insert(Document::unexplored(u64::MAX - 2)).unwrap();
        // Everything since the read is still dirty in the tier.
        let payload = encode_snapshot(&svc.inner, svc.wal.next_seq()).unwrap();
        let subnormal = format!("0.{}5,", "0".repeat(323)); // 5e-324
        for spelling in [
            "-0.0,",
            "9999999999999998.0,",
            "10000000000000000,",
            "4503599627370497.0,",
            "18446744073709551615,",
            &subnormal,
        ] {
            assert!(payload.contains(spelling), "the corpus writes {spelling}");
        }
        assert_eq!(
            (payload.len(), rrp_wal::crc32(payload.as_bytes())),
            (11_157, 0xA2CD_202B),
            "snapshot payload bytes moved"
        );
    }

    #[test]
    fn a_non_finite_popularity_is_rejected_before_it_is_logged() {
        // The snapshot codec cannot write NaN or ±∞: a logged one would
        // fail every later snapshot. Both mutators reject it before the
        // log, and the next cadence snapshot is written.
        let dir = Scratch::new("non-finite");
        let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
        let mut svc = svc.with_snapshot_every(2);
        svc.extend((0..3).map(doc)).unwrap(); // a snapshot at event 2
        let stats = svc.serve_stats();
        let corpus = svc.store().snapshot();
        let epoch = svc.service().epoch();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                svc.insert(Document::established(3, bad)),
                Err(ServeError::NonFinitePopularity { .. })
            ));
            assert!(matches!(
                svc.update_popularity(1, bad),
                Err(ServeError::NonFinitePopularity { .. })
            ));
        }
        assert_eq!(svc.serve_stats(), stats, "nothing logged");
        assert_eq!(svc.store().snapshot(), corpus, "nothing applied");
        assert_eq!(svc.service().epoch(), epoch);

        svc.record_visit(0).unwrap(); // event 4: the cadence snapshot
        let stats = svc.serve_stats();
        assert_eq!(stats.wal_appends, 4);
        assert_eq!(stats.snapshots_written, 2);
        assert_eq!(stats.snapshot_failures, 0);
        drop(svc);
        let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.events_replayed, 0, "the snapshot is current");
    }

    #[test]
    fn extend_batches_snapshot_exactly_on_cadence() {
        let dir = Scratch::new("cadence");
        let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
        let mut svc = svc.with_snapshot_every(4);
        // A 10-document batch crosses the threshold twice mid-batch:
        // snapshots fire at events 4 and 8, never doubled, never skipped.
        svc.extend((0..10).map(doc)).unwrap();
        assert_eq!(svc.serve_stats().snapshots_written, 2);
        assert_eq!(svc.events_since_snapshot, 2);
        // Two more mutations reach the threshold again, exactly once.
        svc.insert(doc(10)).unwrap();
        assert_eq!(svc.serve_stats().snapshots_written, 2);
        svc.record_visit(0).unwrap();
        assert_eq!(svc.serve_stats().snapshots_written, 3);
        assert_eq!(svc.events_since_snapshot, 0);
    }

    #[test]
    fn a_failed_cadence_snapshot_still_acknowledges_the_mutation() {
        let dir = Scratch::new("snapshot-squatter");
        // A directory squatting on the snapshot's temporary path makes
        // every snapshot write fail.
        let squatter = dir.path().join(format!("{SNAPSHOT_FILE}.tmp"));
        std::fs::create_dir_all(&squatter).unwrap();
        {
            let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            let mut svc = svc.with_snapshot_every(4);
            // Inserts across two cadence marks (events 4 and 8) are
            // acknowledged with their seqs: a caller has no reason to
            // retry, so no duplicate can appear.
            for i in 0..9 {
                assert_eq!(svc.insert(doc(i)).unwrap(), i);
            }
            let stats = svc.serve_stats();
            assert_eq!(stats.snapshot_failures, 2);
            assert_eq!(stats.snapshots_written, 0);
            assert_eq!(svc.store().len(), 9);
            // The retry waits for the next mark (event 12), not the next
            // event; visits and popularity updates are acknowledged too.
            svc.record_visit(0).unwrap();
            svc.update_popularity(1, 0.5).unwrap();
            assert_eq!(svc.serve_stats().snapshot_failures, 2);
            svc.record_visit(2).unwrap();
            assert_eq!(svc.serve_stats().snapshot_failures, 3);
            // An explicit snapshot still reports its failure.
            assert!(svc.snapshot_now().is_err());
            assert_eq!(svc.serve_stats().wal_appends, 12);
        } // crash
        std::fs::remove_dir_all(&squatter).unwrap();
        let (svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(!report.snapshot_loaded, "no snapshot was ever written");
        assert_eq!(report.events_replayed, 12, "the log holds every event");
        let store = svc.store();
        assert_eq!(store.len(), 9);
        assert!((0..9).all(|i| store.get(i).unwrap().id == i));
        assert_eq!(store.get(1).unwrap().popularity, 0.5);
    }

    #[test]
    fn recovery_seeds_the_cadence_counter_from_the_replayed_tail() {
        let dir = Scratch::new("cadence-recovery");
        {
            let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            let mut svc = svc.with_snapshot_every(4);
            svc.extend((0..6).map(doc)).unwrap(); // snapshot at 4, then 2 more
            assert_eq!(svc.serve_stats().snapshots_written, 1);
        } // crash
        let (svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert_eq!(report.events_replayed, 2);
        // The snapshot on disk is 2 events behind the log; the counter
        // says so, and the next automatic snapshot stays on the original
        // schedule (event 8) instead of drifting to event 10.
        assert_eq!(svc.events_since_snapshot, 2);
        let mut svc = svc.with_snapshot_every(4);
        svc.insert(doc(6)).unwrap();
        assert_eq!(svc.serve_stats().snapshots_written, 0);
        svc.insert(doc(7)).unwrap();
        assert_eq!(svc.serve_stats().snapshots_written, 1);
        drop(svc);
        let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert_eq!(report.events_replayed, 0, "the snapshot is current again");
    }

    #[test]
    fn a_log_behind_the_snapshot_resets_with_reported_bytes() {
        let dir = Scratch::new("behind-snapshot");
        {
            let (mut svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            svc.extend((0..8).map(doc)).unwrap();
            svc.snapshot_now().unwrap(); // high-water mark 8
        }
        // Cut the log back to its first three events: everything it still
        // holds is older than the snapshot's mark.
        let keep = boundary_after(&dir.wal_path(), 3);
        truncate_log(&dir.wal_path(), keep);

        let (mut svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        // Regression: this reset used to be completely silent.
        assert!(report.log_reset);
        assert_eq!(
            report.bytes_dropped, keep,
            "the whole remaining file is dropped"
        );
        assert_eq!(report.events_replayed, 0);
        assert!(report.snapshot_loaded);
        // Appending resumes at the snapshot's sequence, gap-free.
        assert_eq!(svc.insert(doc(100)).unwrap(), 8);
        drop(svc);
        let (svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(!report.log_reset);
        assert_eq!(report.events_replayed, 1);
        assert_eq!(svc.store().len(), 9);
    }

    #[test]
    fn an_emptied_valid_prefix_resumes_at_the_snapshot_mark_without_reset() {
        let dir = Scratch::new("empty-prefix");
        {
            let (mut svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            svc.extend((0..5).map(doc)).unwrap();
            svc.snapshot_now().unwrap();
        }
        // Cut the log to exactly its header: no records survive, but
        // there is nothing to reset either — the empty log is kept and
        // appends simply resume at the snapshot's mark (this used to
        // take the silent-reset path via a defaulted sequence of 0).
        truncate_log(&dir.wal_path(), rrp_wal::WAL_HEADER_LEN);

        let (mut svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(!report.log_reset);
        assert_eq!(report.bytes_dropped, 0);
        assert_eq!(report.events_replayed, 0);
        assert_eq!(svc.insert(doc(50)).unwrap(), 5);
        drop(svc);
        let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert_eq!(report.events_lost, 0);
        assert_eq!(report.events_replayed, 1);
    }
}
