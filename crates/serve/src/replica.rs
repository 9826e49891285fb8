//! Read replicas off the write-ahead log: one leader writes, any number
//! of [`ReplicaService`]s tail its log file and serve reads.
//!
//! ## Leader / replica state machine
//!
//! ```text
//!   leader (DurableService)                replica (ReplicaService)
//!   ───────────────────────                ────────────────────────
//!   mutation:                              open:
//!     validate → append to WAL               1. bootstrap from the latest
//!     → apply in memory                         *verified* snapshot (or
//!     → maybe snapshot                          empty + full-log replay)
//!                                            2. open the live log tail
//!   sync_for_followers():                  catch_up() / apply_up_to(cap):
//!     kick the syncer, return the            poll the tail: complete
//!     follower-reachable mark ──────────▶    frames apply (or wait in a
//!                                            backlog past the cap),
//!                                            incomplete frames are
//!                                            Pending — poll again later
//!                                          reads (&self):
//!                                            served off the published
//!                                            version at the replica's
//!                                            pinned epoch, exactly like
//!                                            the leader's own reads
//! ```
//!
//! The replica invariant is the prefix-replay property made live: a
//! replica that has applied the leader's first `P` events is
//! **bit-identical** to the leader as it was after its first `P` events —
//! every rerank answer, every popularity bit. `apply_up_to(P)` therefore
//! doubles as a time-travel query: cap the replay and ask the past.
//!
//! A replica never writes: it opens the log read-only, never truncates,
//! and never snapshots. Corruption on the tail is therefore *terminal*
//! for a replica (a complete frame that fails verification can never be
//! repaired by more bytes, and repair is the leader's job on its next
//! recovery) — [`catch_up`](ReplicaService::catch_up) surfaces it as a
//! typed error while already-applied state keeps serving. Likewise, a
//! leader that *resets* its log file (unreadable header, log behind
//! snapshot) replaces the file the replica is holding open; a replica
//! stranded at [`Pending`](rrp_wal::WalPoll::Pending) across such a
//! reset must be re-opened.

use crate::durable::{bootstrap_snapshot, ReplayCursor, SNAPSHOT_FILE, WAL_FILE};
use crate::error::ServeError;
use crate::service::{ServeStats, ShardedPromotionService, StoreGuard};
use rrp_core::RankPromotionEngine;
use rrp_wal::WalTailReader;
use std::path::Path;

/// Where a replica's starting state came from, for lag introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapSource {
    /// No snapshot existed: started empty, the whole log replays.
    FullLog,
    /// A verified snapshot seeded the state; only the tail replays.
    Snapshot,
    /// A snapshot existed but failed verification and was bypassed —
    /// started empty, the whole log replays (the leader's log is never
    /// truncated by snapshots, so full history is available).
    SnapshotFallback,
}

/// A point-in-time view of a replica's replication lag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Events this replica process applied from the live tail (events
    /// already covered by the bootstrap snapshot are not counted).
    pub events_applied: u64,
    /// The sequence of the last event reflected in serving state —
    /// whether applied live or covered by the bootstrap snapshot. `None`
    /// until any history exists at all.
    pub last_applied_seq: Option<u64>,
    /// Events read off the log but held back by an
    /// [`apply_up_to`](ReplicaService::apply_up_to) cap, as of the last
    /// poll. An uncapped [`catch_up`](ReplicaService::catch_up) drains
    /// this to 0 on a quiesced leader.
    pub behind_by: u64,
    /// Where the starting state came from.
    pub bootstrap_source: BootstrapSource,
}

/// A live read replica: bootstraps from the leader's latest verified
/// snapshot, then tails the leader's write-ahead log file, applying
/// events incrementally between serves. All query paths take `&self`
/// and serve off the epoch-versioned published state, exactly like the
/// leader's own reads — a replica mid-`catch_up` never serves a torn
/// view.
///
/// Lifecycle: [`open`](Self::open) (bootstrap only — applies nothing
/// from the log), then [`catch_up`](Self::catch_up) or
/// [`apply_up_to`](Self::apply_up_to) whenever freshness is wanted, with
/// [`stats`](Self::stats) exposing the lag in between.
pub struct ReplicaService {
    inner: ShardedPromotionService,
    /// The log tail and its replay position (shared with leader
    /// recovery, which is this replica's uncapped catch-up).
    replay: ReplayCursor,
    bootstrap_source: BootstrapSource,
}

impl ReplicaService {
    /// Open a replica over a leader's durable directory: verify and load
    /// the snapshot (or start empty for full-log replay) and open the
    /// log for live tailing. Nothing is applied from the log yet — call
    /// [`catch_up`](Self::catch_up) (or a capped
    /// [`apply_up_to`](Self::apply_up_to)) to consume it.
    ///
    /// The `engine` and `shard_count` must match the leader's, exactly
    /// as for [`DurableService::open`](crate::DurableService::open). The
    /// log file must already exist (any `DurableService::open` creates
    /// it) — a replica never creates leader state.
    pub fn open(
        dir: &Path,
        engine: RankPromotionEngine,
        shard_count: usize,
    ) -> Result<Self, ServeError> {
        let boot = bootstrap_snapshot(&dir.join(SNAPSHOT_FILE), engine, shard_count)?;
        let tail = WalTailReader::open(&dir.join(WAL_FILE)).map_err(ServeError::from)?;
        let bootstrap_source = if boot.snapshot_loaded {
            BootstrapSource::Snapshot
        } else if boot.snapshot_fallback {
            BootstrapSource::SnapshotFallback
        } else {
            BootstrapSource::FullLog
        };
        Ok(ReplicaService {
            inner: boot.service,
            replay: ReplayCursor::new(tail, boot.hwm),
            bootstrap_source,
        })
    }

    /// Apply every event currently visible in the leader's log. Returns
    /// how many were newly applied. After the leader has quiesced (or
    /// called [`sync_for_followers`](crate::DurableService::sync_for_followers)
    /// and returned mark `m`), the replica's state is bit-identical to
    /// the leader's at mark `m` and [`ReplicaStats::behind_by`] is 0. The
    /// replica reads the frames the leader wrote, whether or not a sync
    /// has covered them yet: a replica on the same machine is as fresh as
    /// the leader's acknowledgements, and
    /// [`durable_through`](crate::DurableService::durable_through) says
    /// which of those events would survive power loss.
    pub fn catch_up(&mut self) -> Result<u64, ServeError> {
        self.apply_up_to(u64::MAX)
    }

    /// Apply visible events with sequence **below** `seq_cap` — after
    /// `apply_up_to(p)` (given the log reaches that far) the replica
    /// reproduces the leader as it was after its first `p` events, which
    /// makes the cap a time-travel query. Events past the cap are read
    /// and held in order (visible as [`ReplicaStats::behind_by`]); a
    /// later call with a higher cap applies them without re-reading the
    /// file. The cap only moves forward in effect: events already
    /// applied are never rolled back.
    ///
    /// Returns how many events were newly applied. Errors are typed: a
    /// corrupt tail frame surfaces as [`ServeError::Wal`] on this call
    /// and every call after it (see the module docs), a log that starts
    /// past the snapshot's high-water mark as [`ServeError::Recovery`].
    /// The verified events *before* a corrupt frame are still applied
    /// before the error returns, so the replica serves everything that
    /// survives — check [`ReplicaStats::events_applied`] for how far it
    /// got.
    pub fn apply_up_to(&mut self, seq_cap: u64) -> Result<u64, ServeError> {
        self.replay.apply_up_to(&self.inner, seq_cap)
    }

    /// Replication lag, as of the last poll (a snapshot in time — call
    /// [`catch_up`](Self::catch_up)/[`apply_up_to`](Self::apply_up_to)
    /// first for a current reading).
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            events_applied: self.replay.applied(),
            last_applied_seq: self.replay.next_to_apply().checked_sub(1),
            behind_by: self.replay.backlog(),
            bootstrap_source: self.bootstrap_source,
        }
    }

    /// The wrapped in-memory service — every query path is served from
    /// here, at the replica's pinned epoch.
    pub fn service(&self) -> &ShardedPromotionService {
        &self.inner
    }

    /// The underlying store (read-only; holds the writer lock while the
    /// guard lives, so drop it before the next `catch_up`).
    pub fn store(&self) -> StoreGuard<'_> {
        self.inner.store()
    }

    /// The wrapped service's serving counters.
    pub fn serve_stats(&self) -> ServeStats {
        self.inner.serve_stats()
    }
}
