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
//!            │ 4. every `snapshot_every` events: copy   │
//!            │    the state and hand the copy to the    │
//!            │    syncer, once the previous one is      │
//!            │    counted (the mutation stands)         │
//!            └──────────────────────────────────────────┘
//!
//!            ┌──────────────── syncer ──────────────────┐
//!            │ the one log thread, from open to drop    │
//!            │ kicked (`sync_for_followers`, `sync`):   │
//!            │   read the written mark, `sync_data` the │
//!            │   log, move `durable_through()` there;   │
//!            │   a failed sync is sticky                │
//!            │ handed a copy: sync through its mark     │
//!            │   unless durable, render, write, rename, │
//!            │   count (an error or a panic → failure)  │
//!            │ a panic outside the render stops it: a   │
//!            │   sticky failure, every waiter woken     │
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
//! Every snapshot is rendered from a copy taken under the writer lock at
//! its event mark (`SnapshotCapture`: the documents, and the few tier
//! lists that are not a function of them), through a buffer of about
//! 64 KB into a streamed [`SnapshotWriter`], which checksums the parts as
//! they pass and writes the envelope last. A cadence snapshot does that on
//! the syncer thread, so the acknowledgement that crosses the mark pays
//! only the copy; [`DurableService::snapshot_now`] does it on the calling
//! thread. Either way the file is the same, byte for byte, and it is
//! rendered only once a completed sync covers its mark.
//!
//! The log is synced by group commit: the syncer thread owns a second
//! handle on the log file and, when kicked, runs one `sync_data` that
//! covers every frame written before it began. No sync runs on the thread
//! that acknowledges a mutation, and the syncer is the only thread the
//! service starts.
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
use crate::replica::BootstrapSource;
use crate::service::{check_next_slot, ServeStats, ShardedPromotionService, StoreGuard};
use crate::store::ShardedStore;
use rrp_core::{Document, PopularityText, RankPromotionEngine, TierCapture};
use rrp_wal::fault::{Failpoint, FailpointSink};
use rrp_wal::snapshot::{read_snapshot, SnapshotWriter};
use rrp_wal::{
    create_log_file, resume_log_file, FileSink, WalError, WalEvent, WalPoll, WalSink, WalSync,
    WalTailReader, WalWriter,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// File name of the log inside a durable directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durable directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Default mutation count between automatic snapshots.
const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;
/// The rendered bytes a snapshot buffers before writing them as one part.
const RENDER_CHUNK: usize = 64 * 1024;
/// Room past [`RENDER_CHUNK`] for the entry that fills the buffer (one
/// entry renders to a few hundred bytes at most), so the buffer never
/// grows.
const RENDER_SLACK: usize = 4 * 1024;

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
/// crash**, and a follower on the same machine can read it. It survives an
/// **OS crash or power loss** once a completed sync covers it, which
/// [`durable_through`](Self::durable_through) reports: every event below
/// that mark survives power loss. The log is synced by a syncer thread
/// (group commit: one `sync_data` covers every frame written before it
/// began), kicked by [`sync_for_followers`](Self::sync_for_followers)
/// (which does not wait), by [`sync`](Self::sync) and
/// [`snapshot_now`](Self::snapshot_now) (which wait for it) and by a
/// cadence snapshot handed to it; acknowledging a mutation never syncs or
/// waits for a sync.
///
/// A failed sync is sticky: after it `durable_through` never moves again,
/// and `sync`, `sync_for_followers` and every later snapshot fail with
/// [`ServeError::Wal`]. After a failed fsync the kernel may have dropped
/// the dirty pages it could not write, so a later sync that succeeds
/// would prove nothing about them; reopening the directory recovers from
/// what is on disk. Mutations are still acknowledged to the OS. A syncer
/// that panics outside a render (in the sync itself, say) ends the same
/// way: its panic is recorded as a sticky failure, the snapshot it was
/// handed is counted as failed, and every caller waiting on it wakes with
/// [`ServeError::Wal`] instead of waiting forever.
///
/// A cadence snapshot is written off the acknowledgement path. The
/// mutation that crosses the mark copies the state at the mark and hands
/// the copy to the syncer, which syncs the log through the mark unless
/// `durable_through` already reaches it (so a snapshot is never ahead of
/// the durable log), then renders the copy, writes it and renames it into
/// place: the snapshot is durable (synced, renamed, its directory synced)
/// once the syncer counts it. The next cadence mark,
/// [`snapshot_now`](Self::snapshot_now),
/// [`serve_stats`](Self::serve_stats) and dropping the service wait for
/// that count, so a service dropped mid-snapshot still leaves it written.
/// A failed one (a render that panics included) never fails a mutation or
/// stops the syncer: it is counted in [`ServeStats::snapshot_failures`],
/// and the next mark tries again (the log still holds every event, so
/// recovery only replays a longer tail). `serve_stats` waits for a
/// snapshot in flight, so its counts are exact and the snapshot file is
/// the last one counted.
pub struct DurableService {
    inner: ShardedPromotionService,
    wal: WalWriter,
    snapshot_path: PathBuf,
    snapshot_every: u64,
    /// Events since the last cadence mark or written `snapshot_now`.
    events_since_snapshot: u64,
    wal_appends: u64,
    events_replayed: u64,
    syncer: Syncer,
}

/// What a [`DurableService`] shares with its syncer thread: the marks,
/// the cadence snapshot handed over, and the handshake between them.
#[derive(Default)]
struct SyncMarks {
    /// One past the last event appended to the log, stored after every
    /// append.
    written: AtomicU64,
    /// One past the last event a completed sync covered.
    durable: AtomicU64,
    state: Mutex<SyncState>,
    /// Wakes the syncer when a sync or a snapshot is asked for, or to
    /// stop.
    kicked: Condvar,
    /// Wakes the waiters when a sync or a snapshot ends.
    synced: Condvar,
}

#[derive(Default)]
struct SyncState {
    /// A sync is asked for and has not begun.
    requested: bool,
    /// The written mark the sync under way read before it began.
    in_flight: Option<u64>,
    /// The first failed sync, sticky: its kind and message.
    failure: Option<(io::ErrorKind, String)>,
    /// The cadence snapshot handed over and not yet taken up.
    capture: Option<SnapshotCapture>,
    /// A cadence snapshot is handed over and not yet counted.
    snapshot_pending: bool,
    snapshots_written: u64,
    snapshot_failures: u64,
    /// The service is dropped: the syncer ends once nothing is asked for.
    stopping: bool,
}

impl SyncMarks {
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, SyncState>) -> MutexGuard<'a, SyncState> {
        self.synced
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The sticky failure, as a typed error.
    fn check(state: &SyncState) -> Result<(), WalError> {
        match &state.failure {
            Some((kind, message)) => Err(WalError::Io(io::Error::new(
                *kind,
                format!("the log failed to sync: {message}"),
            ))),
            None => Ok(()),
        }
    }

    /// Make sure a sync covering every event below `mark` is done, under
    /// way or asked for, waking the syncer at most once per sync.
    fn request(&self, state: &mut SyncState, mark: u64) {
        let covered = self.durable.load(Ordering::Acquire) >= mark
            || state.in_flight.is_some_and(|in_flight| in_flight >= mark);
        if !covered && !state.requested {
            state.requested = true;
            self.kicked.notify_one();
        }
    }

    /// Ask for a sync through `mark` without waiting for it.
    fn kick(&self, mark: u64) -> Result<(), WalError> {
        let mut state = self.lock();
        Self::check(&state)?;
        self.request(&mut state, mark);
        Ok(())
    }

    /// Wait until a completed sync covers every event below `mark`.
    fn wait_through(&self, mark: u64) -> Result<(), WalError> {
        let mut state = self.lock();
        loop {
            Self::check(&state)?;
            if self.durable.load(Ordering::Acquire) >= mark {
                return Ok(());
            }
            self.request(&mut state, mark);
            state = self.wait(state);
        }
    }

    /// Wait until the last cadence snapshot handed over is written (or
    /// failed) and counted, and return the state with the counts.
    fn settled(&self) -> MutexGuard<'_, SyncState> {
        let mut state = self.lock();
        while state.snapshot_pending {
            state = self.wait(state);
        }
        state
    }

    /// Hand a cadence snapshot to the syncer, once the one before it is
    /// counted. After a failed sync — a syncer that stopped included — it
    /// is counted as failed at once: it could never be written.
    fn hand_over(&self, capture: SnapshotCapture) {
        let mut state = self.settled();
        if state.failure.is_some() {
            state.snapshot_failures += 1;
            return;
        }
        state.capture = Some(capture);
        state.snapshot_pending = true;
        self.kicked.notify_one();
    }

    /// The syncer's loop. A sync asked for reads the written mark, syncs,
    /// and moves the durable mark to what was read. A cadence snapshot is
    /// synced through its mark first (unless a completed sync covers it),
    /// then written to `snapshot_path` and counted; a render that panics
    /// counts as a failure. After a failed sync nothing syncs again and
    /// every snapshot fails. Ends once stopping with nothing asked for, or
    /// by a panic outside the render, which [`Stopped`] turns into a
    /// sticky failure.
    fn run(&self, mut log: Box<dyn WalSync>, snapshot_path: &Path) {
        let _stopped = Stopped(self);
        // The render's scratch, kept across snapshots.
        let mut popularity = PopularityText::default();
        let mut state = self.lock();
        loop {
            while !state.requested && state.capture.is_none() {
                if state.stopping {
                    return;
                }
                state = self
                    .kicked
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let capture = state.capture.take();
            let behind = capture
                .as_ref()
                .is_some_and(|capture| self.durable.load(Ordering::Acquire) < capture.next_event);
            let sync = state.requested || behind;
            state.requested = false;
            if sync && state.failure.is_none() {
                let mark = self.written.load(Ordering::Acquire);
                state.in_flight = Some(mark);
                drop(state);
                let synced = log.sync();
                state = self.lock();
                state.in_flight = None;
                match synced {
                    Ok(()) => {
                        self.durable.fetch_max(mark, Ordering::Release);
                    }
                    Err(e) => state.failure = Some((e.kind(), e.to_string())),
                }
                self.synced.notify_all();
            }
            if let Some(capture) = capture {
                let mut written = false;
                if state.failure.is_none() {
                    drop(state);
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        capture.write(snapshot_path, &mut popularity)
                    }));
                    written = matches!(outcome, Ok(Ok(())));
                    state = self.lock();
                }
                if written {
                    state.snapshots_written += 1;
                } else {
                    state.snapshot_failures += 1;
                }
                state.snapshot_pending = false;
                self.synced.notify_all();
            }
        }
    }
}

/// Fails the syncer loudly if its thread unwinds (a panic in
/// [`WalSync::sync`], say), instead of leaving a sync and a snapshot
/// marked under way that nothing will ever end: on drop during a panic it
/// records a sticky "log thread stopped" failure, clears both marks,
/// counts the snapshot handed over as failed and wakes every waiter. From
/// then on every sync fails with [`ServeError::Wal`] and every mark's
/// snapshot is counted as failed without waiting (see
/// [`SyncMarks::hand_over`]).
struct Stopped<'a>(&'a SyncMarks);

impl Drop for Stopped<'_> {
    fn drop(&mut self) {
        if !thread::panicking() {
            return;
        }
        let mut state = self.0.lock();
        state.failure.get_or_insert_with(|| {
            (
                io::ErrorKind::Other,
                "the log thread stopped: it panicked".to_string(),
            )
        });
        state.in_flight = None;
        if std::mem::take(&mut state.snapshot_pending) {
            state.snapshot_failures += 1;
        }
        self.0.synced.notify_all();
    }
}

/// The syncer thread of a [`DurableService`], its one log thread (see
/// [`SyncMarks::run`]). Stopped and joined on drop, after a sync or a
/// snapshot asked for runs.
struct Syncer {
    marks: Arc<SyncMarks>,
    thread: Option<JoinHandle<()>>,
}

impl Syncer {
    /// Start the syncer over `log`, a handle on a log whose next event is
    /// `written`, writing cadence snapshots to `snapshot_path`.
    fn start(
        log: Box<dyn WalSync>,
        written: u64,
        snapshot_path: PathBuf,
    ) -> Result<Self, WalError> {
        let marks = Arc::new(SyncMarks {
            written: AtomicU64::new(written),
            ..SyncMarks::default()
        });
        let shared = Arc::clone(&marks);
        let thread = thread::Builder::new()
            .name("rrp-wal-sync".to_string())
            .spawn(move || shared.run(log, &snapshot_path))?;
        Ok(Syncer {
            marks,
            thread: Some(thread),
        })
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        self.marks.lock().stopping = true;
        self.marks.kicked.notify_one();
        if let Some(thread) = self.thread.take() {
            // A panicked syncer has nothing left to report.
            thread.join().ok();
        }
    }
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
        Self::open_with_sink(dir, engine, shard_count, |file| Box::new(file))
    }

    /// [`open`](Self::open) with an armed-able [`Failpoint`] interposed on
    /// the log's appends and syncs — the fault-injection entry used by the
    /// recovery tests. A disarmed failpoint changes nothing but the cost
    /// of an append.
    pub fn open_with_failpoint(
        dir: &Path,
        engine: RankPromotionEngine,
        shard_count: usize,
        failpoint: Failpoint,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        Self::open_with_sink(dir, engine, shard_count, |file| {
            Box::new(FailpointSink::new(file, failpoint))
        })
    }

    /// [`open`](Self::open) with the log's sink built by `sink` around the
    /// file sink.
    fn open_with_sink(
        dir: &Path,
        engine: RankPromotionEngine,
        shard_count: usize,
        sink: impl FnOnce(FileSink) -> Box<dyn WalSink>,
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
        report.snapshot_loaded = boot.source == BootstrapSource::Snapshot;
        report.snapshot_fallback = boot.source == BootstrapSource::SnapshotFallback;

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
        let wal = WalWriter::new(sink(FileSink::new(file)), writer_next);
        let syncer = Syncer::start(wal.sync_handle()?, writer_next, snapshot_path.clone())?;

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
            wal_appends: 0,
            events_replayed: replayed,
            syncer,
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
    /// A cadence snapshot in flight is waited for and counted first, so
    /// the snapshot counts are exact.
    pub fn serve_stats(&self) -> ServeStats {
        let mut stats = self.inner.serve_stats();
        let snapshots = self.syncer.marks.settled();
        stats.wal_appends = self.wal_appends;
        stats.snapshots_written = snapshots.snapshots_written;
        stats.snapshot_failures = snapshots.snapshot_failures;
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
    /// rejected as [`ServeError::NonFinitePopularity`] before logging, and
    /// an insert into a store that already holds
    /// [`rrp_ranking::MAX_SLOTS`] documents as [`ServeError::SlotLimit`].
    pub fn insert(&mut self, document: Document) -> Result<u64, ServeError> {
        check_popularity(document.popularity)?;
        check_next_slot(self.inner.store().len() as u64)?;
        self.log_event(&WalEvent::Insert(document))?;
        let seq = self.inner.try_insert(document)?;
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

    /// Write a snapshot right now, on the calling thread: wait for a
    /// cadence snapshot in flight to be counted, [`sync`](Self::sync) the
    /// log, serialise the engine, store and serving tier, and rename it
    /// into place atomically. A crash at any instant leaves either the
    /// previous snapshot or this one. The serving tier is written but
    /// never read back: recovery derives it from the store (see the module
    /// docs). Kept public for operators: a checkpoint between cadence
    /// marks, say before a planned restart, so recovery replays nothing.
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        // The one in flight lands first, so it never renames an older
        // state over this one.
        drop(self.syncer.marks.settled());
        let mark = self.sync()?;
        SnapshotCapture::of(&self.inner, mark)
            .write(&self.snapshot_path, &mut PopularityText::default())?;
        self.syncer.marks.lock().snapshots_written += 1;
        self.events_since_snapshot = 0;
        Ok(())
    }

    /// The leader-side replication handoff: return the sequence one past
    /// the last event written to the log — the mark a follower tailing
    /// this directory can reach — and kick the syncer, without waiting for
    /// it. After this returns, a `ReplicaService::catch_up` over the same
    /// directory is guaranteed to see every event below the returned mark:
    /// the frames are visible to same-machine readers before any sync. The
    /// events become power-loss durable once
    /// [`durable_through`](Self::durable_through) reaches the mark; call
    /// [`sync`](Self::sync) to wait for that. Fails with
    /// [`ServeError::Wal`] once a sync has failed (see the durability
    /// contract).
    pub fn sync_for_followers(&mut self) -> Result<u64, ServeError> {
        let mark = self.wal.next_seq();
        self.syncer.marks.kick(mark)?;
        Ok(mark)
    }

    /// Wait until a completed sync covers every event written so far, and
    /// return that mark: every event below it survives power loss. One
    /// sync under way or asked for may cover it, so a caller waits at most
    /// for the sync or cadence snapshot in flight and one more sync. Fails
    /// with [`ServeError::Wal`] once a sync has failed, and from then on.
    pub fn sync(&self) -> Result<u64, ServeError> {
        let mark = self.wal.next_seq();
        self.syncer.marks.wait_through(mark)?;
        Ok(mark)
    }

    /// One past the last event a completed sync covered: every event
    /// below it survives an OS crash or power loss. It counts only the
    /// syncs this service ran, so it starts at 0 when the service opens,
    /// and it never moves again after a failed sync.
    pub fn durable_through(&self) -> u64 {
        self.syncer.marks.durable.load(Ordering::Acquire)
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
        self.syncer
            .marks
            .written
            .store(self.wal.next_seq(), Ordering::Release);
        self.wal_appends += 1;
        self.events_since_snapshot += 1;
        Ok(())
    }

    /// The cadence trigger on the mutation path, after the event is
    /// logged and applied. At a mark it copies the state and hands the
    /// copy to the syncer, once the previous snapshot is counted. Nothing
    /// here syncs or can fail the mutation: a failed snapshot is counted,
    /// and the next mark tries again.
    fn maybe_snapshot(&mut self) {
        if self.events_since_snapshot < self.snapshot_every {
            return;
        }
        self.events_since_snapshot = 0;
        let capture = SnapshotCapture::of(&self.inner, self.wal.next_seq());
        self.syncer.marks.hand_over(capture);
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
    /// Where the state came from (a snapshot that failed verification is
    /// recovered around: the log holds full history, snapshots never
    /// truncate it).
    pub(crate) source: BootstrapSource,
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
    let source = match read_snapshot(snapshot_path) {
        Ok(Some(payload)) => {
            let record = decode_snapshot(&payload, &engine, shard_count)?;
            return Ok(SnapshotBootstrap {
                service: ShardedPromotionService::with_store(engine, record.store),
                hwm: record.next_event,
                source: BootstrapSource::Snapshot,
            });
        }
        Ok(None) => BootstrapSource::FullLog,
        Err(_) => BootstrapSource::SnapshotFallback,
    };
    Ok(SnapshotBootstrap {
        service: ShardedPromotionService::new(engine, shard_count),
        hwm: 0,
        source,
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

/// What a snapshot payload renders, copied out of the service under the
/// writer lock at an event mark: the engine, the store's shard count and
/// documents, the tier lists the documents do not determine
/// ([`TierCapture`]) and the mark. Rendering it reads nothing else, so a
/// cadence snapshot renders it on the syncer thread while the service
/// takes further mutations.
struct SnapshotCapture {
    engine: RankPromotionEngine,
    shard_count: usize,
    documents: Vec<Document>,
    tier: TierCapture,
    next_event: u64,
}

impl SnapshotCapture {
    /// Copy the service's state at `next_event`.
    fn of(service: &ShardedPromotionService, next_event: u64) -> Self {
        service.with_writer(|store, tier| SnapshotCapture {
            engine: service.engine(),
            shard_count: store.shard_count(),
            documents: store.documents().to_vec(),
            tier: tier.capture(),
            next_event,
        })
    }

    /// Append the payload to `out`: engine, store, serving tier
    /// (`"shards"`, written for byte compatibility, never read) and the
    /// event mark, byte for byte what serializing them from the service
    /// writes (the benchmark re-enacts that and compares bytes). Each
    /// popularity is formatted once, into `popularity`, for the documents
    /// and the tier's stats alike. `flush(out)` runs after every list entry
    /// and may drain `out`.
    fn render(
        &self,
        popularity: &mut PopularityText,
        out: &mut String,
        flush: &mut impl FnMut(&mut String) -> Result<(), ServeError>,
    ) -> Result<(), ServeError> {
        popularity.format(&self.documents)?;
        out.push_str("{\"engine\":");
        self.engine.write_json(out)?;
        out.push_str(",\"store\":{\"shard_count\":");
        self.shard_count.write_json(out)?;
        out.push_str(",\"documents\":[");
        for (i, document) in self.documents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            popularity.write_document(i, document, out)?;
            flush(out)?;
        }
        out.push_str("]},\"shards\":");
        self.tier.render(&self.documents, popularity, out, flush)?;
        out.push_str(",\"next_event\":");
        self.next_event.write_json(out)?;
        out.push('}');
        Ok(())
    }

    /// Render the payload into the snapshot at `path`, a
    /// [`RENDER_CHUNK`]-sized part at a time, and rename it into place.
    /// The caller has synced the log through the capture's mark.
    /// `popularity` is the render's scratch (see [`render`](Self::render)).
    fn write(&self, path: &Path, popularity: &mut PopularityText) -> Result<(), ServeError> {
        let mut file = SnapshotWriter::create(path)?;
        let mut out = String::with_capacity(RENDER_CHUNK + RENDER_SLACK);
        self.render(popularity, &mut out, &mut |out: &mut String| {
            if out.len() >= RENDER_CHUNK {
                file.write(out.as_bytes())?;
                out.clear();
            }
            Ok(())
        })?;
        file.write(out.as_bytes())?;
        file.finish()?;
        Ok(())
    }
}

/// Read a snapshot payload back: check its engine and shard count against
/// the caller's, check that every popularity is finite (no snapshot
/// writer writes another, and a served one would fail every later
/// snapshot), and return it.
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
    let documents = record.store.documents();
    if let Some(index) = documents.iter().position(|d| !d.popularity.is_finite()) {
        return Err(recovery(format!(
            "snapshot document {index} has a non-finite popularity {}",
            documents[index].popularity
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
        WalEvent::Insert(document) => service.try_insert(document).map(drop),
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
    use proptest::prelude::*;
    use rrp_core::{QueryContext, RankPromotionEngine, ShardedCorpusCache};
    use rrp_ranking::{PromotionConfig, PromotionRule};
    use rrp_wal::fault::{SinkEvent, SinkRecord, SyncRecorder};
    use rrp_wal::snapshot::write_snapshot_atomic;
    use serde::Value;
    use std::path::PathBuf;

    /// A snapshot payload's fields serialized straight from the service:
    /// the reference the streamed renderer is held to, byte for byte.
    #[derive(Serialize)]
    struct SnapshotFields<'a> {
        engine: RankPromotionEngine,
        store: &'a ShardedStore,
        shards: &'a ShardedCorpusCache,
        next_event: u64,
    }

    /// The reference payload of `service` at `next_event`.
    fn reference_payload(service: &ShardedPromotionService, next_event: u64) -> String {
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
            .expect("finite floats")
    }

    /// The payload a snapshot of `service` at `next_event` writes, rendered
    /// whole.
    fn rendered_payload(service: &ShardedPromotionService, next_event: u64) -> String {
        let mut out = String::new();
        SnapshotCapture::of(service, next_event)
            .render(
                &mut PopularityText::default(),
                &mut out,
                &mut |_: &mut String| Ok(()),
            )
            .expect("finite floats");
        out
    }

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
        let payload = rendered_payload(&svc.inner, svc.wal.next_seq());
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

    /// One step of the equivalence schedule.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Insert {
            popularity: f64,
            unexplored: bool,
            age: u64,
        },
        Visit {
            salt: usize,
        },
        SetPopularity {
            salt: usize,
            popularity: f64,
        },
        /// A read: publishes pending mutations and recycles the retired
        /// version, whose order stays scratch until the next publication.
        Read {
            query: u64,
        },
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0usize..10, 0usize..1_000, -0.5f64..1.5, 0u64..400), 1..50).prop_map(
            |raw| {
                raw.into_iter()
                    .map(|(kind, salt, popularity, age)| match kind {
                        0..=3 => Step::Insert {
                            popularity,
                            unexplored: salt % 3 == 0,
                            age,
                        },
                        4 | 5 => Step::Visit { salt },
                        6 | 7 => Step::SetPopularity { salt, popularity },
                        _ => Step::Read { query: salt as u64 },
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// The streamed renderer writes exactly the bytes the derived
        /// fields serialize to, after every step of arbitrary inserts,
        /// mutations, publications and recycles (right after a recycle
        /// too, when the writer's own order is scratch), with the pool
        /// maintained (selective rule) or not (uniform rule).
        #[test]
        fn the_streamed_payload_equals_the_derived_fields(
            steps in arb_steps(),
            shards in 1usize..4,
            uniform in prop::bool::ANY,
            seed in 0u64..1_000,
        ) {
            let engine = if uniform {
                RankPromotionEngine::new(PromotionConfig::new(PromotionRule::Uniform, 1, 0.3).unwrap())
            } else {
                RankPromotionEngine::recommended()
            }
            .with_seed(seed);
            let service = ShardedPromotionService::new(engine, shards);
            for (event, &step) in steps.iter().enumerate() {
                let len = service.store().len() as u64;
                match step {
                    Step::Insert { popularity, unexplored, age } => {
                        let document = if unexplored {
                            Document::unexplored(event as u64)
                        } else {
                            Document::established(event as u64, popularity)
                        };
                        service.insert(document.with_age(age));
                    }
                    Step::Visit { salt } if len > 0 => {
                        service.record_visit(salt as u64 % len);
                    }
                    Step::SetPopularity { salt, popularity } if len > 0 => {
                        service.update_popularity(salt as u64 % len, popularity);
                    }
                    Step::Read { query } => {
                        service.rerank_top_k(QueryContext::new(query, query + 1), 5);
                    }
                    _ => {}
                }
                let next_event = event as u64 + 1;
                prop_assert_eq!(
                    rendered_payload(&service, next_event),
                    reference_payload(&service, next_event),
                    "after step {} ({:?})",
                    event,
                    step
                );
            }
        }
    }

    /// A corpus big enough that its payload spans many render chunks.
    fn chunked_corpus() -> Vec<Document> {
        (0..1_500)
            .map(|i| {
                if i % 6 == 0 {
                    Document::unexplored(i).with_age(i % 90)
                } else {
                    Document::established(i, 1.0 / (i + 3) as f64).with_age(i % 90)
                }
            })
            .collect()
    }

    #[test]
    fn a_cadence_snapshot_is_the_file_snapshot_now_writes_at_its_mark() {
        // The same events into two services: one crosses a cadence mark
        // and keeps mutating while its snapshot thread writes; the other
        // stops at the mark and snapshots on the calling thread. Both files
        // are the reference payload at the mark, through many chunks.
        let (cadence_dir, now_dir) = (Scratch::new("cadence-file"), Scratch::new("now-file"));
        let docs = chunked_corpus();
        let mark = docs.len() as u64 + 4;
        let ctx = QueryContext::new(3, 4);
        let mutate = |svc: &mut DurableService| {
            svc.extend(docs.iter().copied()).unwrap();
            svc.service().rerank_top_k(ctx, 10); // publishes
            svc.record_visit(12).unwrap();
            svc.update_popularity(7, 0.75).unwrap();
            svc.service().rerank_top_k(ctx, 10); // publishes and recycles
            svc.update_popularity(30, 0.5).unwrap();
            svc.record_visit(6).unwrap(); // the mark
        };
        let (svc, _) = DurableService::open(cadence_dir.path(), engine(), 3).unwrap();
        let mut cadence = svc.with_snapshot_every(mark);
        mutate(&mut cadence);
        let reference = reference_payload(&cadence.inner, mark);
        cadence.record_visit(18).unwrap(); // past the mark, while it writes
        cadence.update_popularity(9, 0.25).unwrap();
        let stats = cadence.serve_stats();
        assert_eq!((stats.snapshots_written, stats.snapshot_failures), (1, 0));

        let (svc, _) = DurableService::open(now_dir.path(), engine(), 3).unwrap();
        let mut now = svc.with_snapshot_every(u64::MAX);
        mutate(&mut now);
        now.snapshot_now().unwrap();

        let cadence_file = std::fs::read(cadence_dir.path().join(SNAPSHOT_FILE)).unwrap();
        let now_file = std::fs::read(now_dir.path().join(SNAPSHOT_FILE)).unwrap();
        assert!(cadence_file == now_file, "the two snapshot files differ");
        let payload = read_snapshot(&now_dir.path().join(SNAPSHOT_FILE))
            .unwrap()
            .unwrap();
        assert!(payload.len() > 4 * RENDER_CHUNK, "{} bytes", payload.len());
        assert!(
            payload == reference.as_bytes(),
            "the file is not the reference payload"
        );
    }

    #[test]
    fn a_service_dropped_mid_snapshot_leaves_it_written() {
        let dir = Scratch::new("drop-in-flight");
        {
            let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            let mut svc = svc.with_snapshot_every(1_000);
            svc.extend(chunked_corpus().into_iter().take(1_000))
                .unwrap();
            // The mark's snapshot is in flight (or just written): dropping
            // the service waits for it.
        }
        let (svc, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.events_replayed, 0, "the snapshot is current");
        assert_eq!(svc.store().len(), 1_000);
    }

    #[test]
    fn snapshot_now_joins_the_snapshot_in_flight_first() {
        // Were the cadence snapshot (at event 1000) to land after
        // `snapshot_now` (at event 1003), recovery would replay 3 events.
        let dir = Scratch::new("now-joins");
        {
            let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            let mut svc = svc.with_snapshot_every(1_000);
            svc.extend(chunked_corpus().into_iter().take(1_003))
                .unwrap();
            svc.snapshot_now().unwrap();
            let stats = svc.serve_stats();
            assert_eq!((stats.snapshots_written, stats.snapshot_failures), (2, 0));
        }
        let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.events_replayed, 0, "snapshot_now's file stands");
    }

    #[test]
    fn a_render_that_panics_is_counted_and_the_syncer_keeps_working() {
        let dir = Scratch::new("panicking-render");
        let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
        let mut svc = svc.with_snapshot_every(5);
        svc.extend((0..3).map(doc)).unwrap();
        // A capture whose documents stop short of its dirty slots: its
        // render indexes past them and panics.
        let broken = || {
            let mut capture = SnapshotCapture::of(&svc.inner, 3);
            capture.documents.clear();
            capture
        };
        let render = panic::catch_unwind(|| {
            broken().render(
                &mut PopularityText::default(),
                &mut String::new(),
                &mut |_| Ok(()),
            )
        });
        assert!(render.is_err(), "the render panics");
        svc.syncer.marks.hand_over(broken());
        let stats = svc.serve_stats();
        assert_eq!((stats.snapshots_written, stats.snapshot_failures), (0, 1));
        // The syncer survived the panic: it still syncs…
        svc.record_visit(1).unwrap();
        assert_eq!(svc.sync().unwrap(), 4);
        assert_eq!(svc.durable_through(), 4);
        // …and writes the next mark's snapshot.
        svc.update_popularity(2, 0.5).unwrap(); // event 5: the mark
        let stats = svc.serve_stats();
        assert_eq!((stats.snapshots_written, stats.snapshot_failures), (1, 1));
        drop(svc);
        let (_, report) = DurableService::open(dir.path(), engine(), 2).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.events_replayed, 0, "the snapshot is current");
    }

    #[test]
    fn a_syncer_that_panics_fails_every_waiter_instead_of_hanging() {
        let stopped =
            |e: ServeError| matches!(e, ServeError::Wal(_)) && e.to_string().contains("stopped");
        let open = |name: &str| {
            let dir = Scratch::new(name);
            let failpoint = Failpoint::new();
            let (svc, _) =
                DurableService::open_with_failpoint(dir.path(), engine(), 2, failpoint.clone())
                    .unwrap();
            let mut svc = svc.with_snapshot_every(5);
            svc.extend((0..3).map(doc)).unwrap();
            assert_eq!(svc.sync().unwrap(), 3);
            failpoint.panic_syncs();
            (dir, svc)
        };

        // A caller waiting in `sync` while the syncer panics in its sync.
        let (_dir, mut svc) = open("panicking-sync");
        svc.record_visit(1).unwrap();
        assert!(stopped(svc.sync().unwrap_err()));
        drop(svc);

        // A cadence snapshot handed over: event 5 crosses the mark, and
        // the syncer panics syncing through it with the snapshot pending.
        let (_dir, mut svc) = open("panicking-sync-at-a-mark");
        svc.extend((3..5).map(doc)).unwrap();
        let stats = svc.serve_stats();
        assert_eq!((stats.snapshots_written, stats.snapshot_failures), (0, 1));
        assert!(stopped(svc.sync().unwrap_err()));
        assert!(stopped(svc.sync_for_followers().unwrap_err()));
        assert!(stopped(svc.snapshot_now().unwrap_err()));
        // Mutations are still acknowledged, and the next mark's snapshot
        // is counted as failed without waiting for the dead thread.
        svc.extend((5..10).map(doc)).unwrap();
        let stats = svc.serve_stats();
        assert_eq!((stats.snapshots_written, stats.snapshot_failures), (0, 2));
        assert_eq!(svc.durable_through(), 3, "the durable mark froze");
        drop(svc);
    }

    #[test]
    fn sync_after_acknowledgements_makes_every_one_durable() {
        let dir = Scratch::new("sync-all");
        let (svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
        let mut svc = svc.with_snapshot_every(u64::MAX);
        assert_eq!(svc.durable_through(), 0, "no sync has run yet");
        svc.extend((0..5).map(doc)).unwrap();
        svc.record_visit(3).unwrap();
        svc.update_popularity(1, 0.25).unwrap();
        assert_eq!(svc.sync().unwrap(), 7);
        assert_eq!(svc.durable_through(), 7);
        // A second sync with nothing new written returns at once.
        assert_eq!(svc.sync().unwrap(), 7);
        assert_eq!(svc.sync_for_followers().unwrap(), 7);
    }

    /// One step of the group-commit schedule.
    #[derive(Debug, Clone, Copy)]
    enum SyncStep {
        /// An insert, a visit or a popularity update, chosen by `salt`.
        Mutate {
            salt: u64,
        },
        ForFollowers,
        Sync,
        /// Let `grace` more syncs succeed, then fail every one after.
        FailSyncs {
            grace: u64,
        },
        /// Let every sync succeed again: a service that forgot a failed
        /// sync would move its durable mark after this.
        Heal,
    }

    fn arb_sync_steps() -> impl Strategy<Value = Vec<SyncStep>> {
        prop::collection::vec((0usize..40, 0u64..1_000), 1..60).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, salt)| match kind {
                    0..=25 => SyncStep::Mutate { salt },
                    26..=31 => SyncStep::ForFollowers,
                    32..=37 => SyncStep::Sync,
                    38 => SyncStep::FailSyncs { grace: salt % 3 },
                    _ => SyncStep::Heal,
                })
                .collect()
        })
    }

    /// The snapshot file's event mark, if one is in place.
    fn snapshot_mark(path: &Path) -> Option<u64> {
        let payload = read_snapshot(path).unwrap()?;
        let text = std::str::from_utf8(&payload).unwrap();
        let (_, mark) = text.rsplit_once("\"next_event\":").unwrap();
        Some(mark.trim_end_matches('}').parse().unwrap())
    }

    /// What the group-commit property watches across a schedule.
    struct SyncWatch {
        record: SinkRecord,
        snapshot: PathBuf,
        /// The durable mark when a failed sync was first seen.
        frozen: Option<u64>,
    }

    impl SyncWatch {
        /// Events the completed syncs recorded so far cover: each append
        /// is one event, from sequence 0 in a fresh directory.
        fn covered(events: &[SinkEvent]) -> u64 {
            let bytes = events
                .iter()
                .filter_map(|event| match *event {
                    SinkEvent::Sync {
                        covered, ok: true, ..
                    } => Some(covered),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            events
                .iter()
                .filter(|event| matches!(event, SinkEvent::Append { end, .. } if *end <= bytes))
                .count() as u64
        }

        fn any_failed(events: &[SinkEvent]) -> bool {
            events
                .iter()
                .any(|event| matches!(event, SinkEvent::Sync { ok: false, .. }))
        }

        fn failed(&self) -> bool {
            Self::any_failed(&self.record.events())
        }

        /// Check the durable mark (of a live service) and the snapshot in
        /// place against the syncs recorded after them, and that none ran
        /// on this thread.
        fn observe(&mut self, svc: Option<&DurableService>) -> Result<(), TestCaseError> {
            let durable = svc.map(DurableService::durable_through);
            let snapshot = snapshot_mark(&self.snapshot);
            let events = self.record.events();
            let covered = Self::covered(&events);
            if let Some(durable) = durable {
                prop_assert!(
                    durable <= covered,
                    "durable {} > covered {}",
                    durable,
                    covered
                );
            }
            if let Some(mark) = snapshot {
                prop_assert!(mark <= covered, "snapshot {} > covered {}", mark, covered);
            }
            let here = thread::current().id();
            for event in &events {
                if let SinkEvent::Sync { thread, .. } = *event {
                    prop_assert!(thread != here, "a sync ran on the acknowledging thread");
                }
            }
            if let (true, Some(svc)) = (Self::any_failed(&events), svc) {
                // Read after the failure is recorded: no sync stores a
                // mark after it.
                let now = svc.durable_through();
                prop_assert_eq!(
                    *self.frozen.get_or_insert(now),
                    now,
                    "moved after a failure"
                );
            }
            Ok(())
        }
    }

    proptest! {
        /// Group commit under arbitrary interleavings of mutations,
        /// handoffs, blocking syncs, cadence snapshots and injected sync
        /// failures, healed or not: the durable mark never passes what a
        /// completed sync covered and freezes at the first failed sync, a
        /// failed sync is reported from then on, every snapshot in place
        /// is covered by a completed sync, and no sync runs on the
        /// acknowledging thread.
        #[test]
        fn the_durable_mark_follows_the_completed_syncs(
            steps in arb_sync_steps(),
            every in 1u64..24,
        ) {
            let dir = Scratch::new("group-commit");
            let (record, failpoint) = (SinkRecord::default(), Failpoint::new());
            let sink_record = record.clone();
            let sink_failpoint = failpoint.clone();
            let (svc, _) = DurableService::open_with_sink(dir.path(), engine(), 2, |file| {
                Box::new(SyncRecorder::new(
                    FailpointSink::new(file, sink_failpoint),
                    sink_record,
                ))
            })
            .unwrap();
            let mut svc = svc.with_snapshot_every(every);
            let mut watch = SyncWatch {
                record,
                snapshot: dir.path().join(SNAPSHOT_FILE),
                frozen: None,
            };
            let (mut written, mut reported) = (0u64, false);
            for &step in &steps {
                match step {
                    SyncStep::Mutate { salt } => {
                        let len = svc.store().len() as u64;
                        if len < 4 || salt % 3 == 0 {
                            svc.insert(doc(len)).unwrap();
                        } else if salt % 3 == 1 {
                            svc.record_visit(salt % len).unwrap();
                        } else {
                            svc.update_popularity(salt % len, salt as f64 / 1e3).unwrap();
                        }
                        written += 1;
                    }
                    SyncStep::ForFollowers => match svc.sync_for_followers() {
                        Ok(mark) => {
                            prop_assert!(!reported, "a handoff succeeded after a failure");
                            prop_assert_eq!(mark, written);
                        }
                        Err(e) => {
                            prop_assert!(matches!(e, ServeError::Wal(_)), "{:?}", e);
                            prop_assert!(watch.failed());
                            reported = true;
                        }
                    },
                    SyncStep::Sync => {
                        let doomed = watch.failed() && svc.durable_through() < written;
                        match svc.sync() {
                            Ok(mark) => {
                                prop_assert!(!reported && !doomed, "a sync succeeded after a failure");
                                prop_assert_eq!(mark, written);
                                prop_assert!(svc.durable_through() >= mark);
                            }
                            Err(e) => {
                                prop_assert!(matches!(e, ServeError::Wal(_)), "{:?}", e);
                                prop_assert!(watch.failed());
                                reported = true;
                            }
                        }
                    }
                    SyncStep::FailSyncs { grace } => failpoint.arm_syncs_after(grace),
                    SyncStep::Heal => failpoint.disarm(),
                }
                watch.observe(Some(&svc))?;
            }
            let stats = svc.serve_stats(); // waits for the snapshot in flight
            prop_assert_eq!(stats.wal_appends, written);
            watch.observe(Some(&svc))?;
            drop(svc); // joins the syncer, which runs what was asked for
            watch.observe(None)?;
        }
    }

    #[test]
    fn a_non_finite_popularity_in_a_snapshot_is_a_typed_recovery_error() {
        // A checksum-valid snapshot whose second document's popularity
        // reads as +∞ (`1e400` overflows): the leader's recovery and a
        // replica's bootstrap both refuse it, naming the document.
        let dir = Scratch::new("non-finite-snapshot");
        {
            let (mut svc, _) = DurableService::open(dir.path(), engine(), 2).unwrap();
            svc.extend([doc(0), Document::established(1, 0.5), doc(2)])
                .unwrap();
            svc.snapshot_now().unwrap();
        }
        let snapshot = dir.path().join(SNAPSHOT_FILE);
        let payload = read_snapshot(&snapshot).unwrap().expect("a snapshot");
        let payload = std::str::from_utf8(&payload).unwrap();
        let (store, shards) = payload.split_at(payload.find("\"shards\"").unwrap());
        assert_eq!(store.matches("\"popularity\":0.5,").count(), 1);
        let store = store.replace("\"popularity\":0.5,", "\"popularity\":1e400,");
        write_snapshot_atomic(&snapshot, format!("{store}{shards}").as_bytes()).unwrap();

        let refused = |result: Result<(), ServeError>| match result {
            Err(ServeError::Recovery { detail }) => {
                assert!(detail.contains("document 1 "), "{detail}");
                assert!(detail.contains("non-finite"), "{detail}");
            }
            other => panic!("expected a recovery error, got {other:?}"),
        };
        refused(DurableService::open(dir.path(), engine(), 2).map(drop));
        refused(crate::ReplicaService::open(dir.path(), engine(), 2).map(drop));
    }
}
