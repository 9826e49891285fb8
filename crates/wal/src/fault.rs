//! The fault-injection harness: byte-level log damage, append- and
//! sync-time I/O failures, and a record of who synced what, for recovery
//! and group-commit tests here and in `rrp-serve`.
//!
//! Three faults cover the failure modes a log actually meets:
//!
//! * [`truncate_at`] — cut the file at an arbitrary byte offset, the
//!   shape a torn final write (or a dying disk) leaves behind;
//! * [`flip_byte`] — invert one byte in place, the shape of silent media
//!   corruption that only a checksum can catch;
//! * [`Failpoint`] + [`FailpointSink`] — make the *next* append, or the
//!   next sync (through any handle the sink gave out), return an
//!   injected [`std::io::Error`], so callers can prove they surface a
//!   typed error and keep serving state consistent instead of panicking;
//!   or make every later sync *panic*, the shape of a bug in the sync
//!   path, so a caller can prove a dead sync thread fails its waiters
//!   instead of hanging them.
//!
//! [`SyncRecorder`] observes instead of failing: it records each append's
//! end offset and each completed sync, with the thread that ran it, so a
//! test can check what a sync covered and where it ran.

use crate::log::{WalSink, WalSync};
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

/// Cut `path` to `len` bytes — a torn write if `len` lands mid-frame.
pub fn truncate_at(path: &Path, len: u64) -> io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(len)
}

/// Invert the byte at `offset` in place (errors if `offset` is past EOF).
pub fn flip_byte(path: &Path, offset: u64) -> io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    byte[0] = !byte[0];
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)
}

const DISARMED: i64 = -1;

/// A shared, cloneable trigger for injected append and sync failures.
/// Disarmed by default; [`arm_after`](Failpoint::arm_after)`(n)` lets the
/// next `n` appends through and fails every one after that, and
/// [`arm_syncs_after`](Failpoint::arm_syncs_after)`(n)` does the same for
/// syncs, until [`disarm`](Failpoint::disarm).
/// [`panic_syncs`](Failpoint::panic_syncs) makes every later sync panic
/// instead.
#[derive(Clone, Debug)]
pub struct Failpoint {
    appends: Arc<AtomicI64>,
    syncs: Arc<AtomicI64>,
    panics: Arc<AtomicBool>,
}

impl Failpoint {
    /// A disarmed failpoint (every append and sync succeeds).
    pub fn new() -> Self {
        Failpoint {
            appends: Arc::new(AtomicI64::new(DISARMED)),
            syncs: Arc::new(AtomicI64::new(DISARMED)),
            panics: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Allow `appends` more appends, then fail all of them.
    pub fn arm_after(&self, appends: u64) {
        arm(&self.appends, appends);
    }

    /// Allow `syncs` more syncs, then fail all of them.
    pub fn arm_syncs_after(&self, syncs: u64) {
        arm(&self.syncs, syncs);
    }

    /// Make every later sync panic, until [`disarm`](Self::disarm).
    pub fn panic_syncs(&self) {
        self.panics.store(true, Ordering::SeqCst);
    }

    /// Back to letting everything through.
    pub fn disarm(&self) {
        self.appends.store(DISARMED, Ordering::SeqCst);
        self.syncs.store(DISARMED, Ordering::SeqCst);
        self.panics.store(false, Ordering::SeqCst);
    }

    /// Fail the current append if armed and out of grace; an injected
    /// failure never reaches the sink.
    fn check_append(&self) -> io::Result<()> {
        check(&self.appends, "injected WAL append failure")
    }

    /// Panic if syncs are set to, else fail the current sync if armed and
    /// out of grace.
    fn check_sync(&self) -> io::Result<()> {
        assert!(
            !self.panics.load(Ordering::SeqCst),
            "injected WAL sync panic"
        );
        check(&self.syncs, "injected WAL sync failure")
    }
}

fn arm(remaining: &AtomicI64, grace: u64) {
    remaining.store(grace.min(i64::MAX as u64) as i64, Ordering::SeqCst);
}

/// An injected error if `remaining` is exhausted; consumes one grace
/// operation when armed.
fn check(remaining: &AtomicI64, what: &str) -> io::Result<()> {
    let exhausted = remaining
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
            if r > 0 {
                Some(r - 1)
            } else {
                None // disarmed (−1) or exhausted (0): leave as is
            }
        })
        .map(|_| false)
        .unwrap_or_else(|r| r == 0);
    if exhausted {
        Err(io::Error::other(what))
    } else {
        Ok(())
    }
}

impl Default for Failpoint {
    fn default() -> Self {
        Self::new()
    }
}

/// A sink wrapper that consults a [`Failpoint`] before every append and
/// every sync through its handles. Injected failures happen
/// *before* the inner sink sees any bytes, so a failed append leaves the
/// log exactly as it was.
pub struct FailpointSink<S> {
    inner: S,
    failpoint: Failpoint,
}

impl<S: WalSink> FailpointSink<S> {
    /// Wrap `inner`, gating appends on `failpoint`.
    pub fn new(inner: S, failpoint: Failpoint) -> Self {
        FailpointSink { inner, failpoint }
    }
}

impl<S: WalSink> WalSink for FailpointSink<S> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.failpoint.check_append()?;
        self.inner.append(bytes)
    }

    fn sync_handle(&self) -> io::Result<Box<dyn WalSync>> {
        Ok(Box::new(FailpointSync {
            inner: self.inner.sync_handle()?,
            failpoint: self.failpoint.clone(),
        }))
    }
}

/// A [`FailpointSink`]'s sync handle.
struct FailpointSync {
    inner: Box<dyn WalSync>,
    failpoint: Failpoint,
}

impl WalSync for FailpointSync {
    fn sync(&mut self) -> io::Result<()> {
        self.failpoint.check_sync()?;
        self.inner.sync()
    }
}

/// One operation a [`SyncRecorder`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkEvent {
    /// An append succeeded, leaving `end` bytes appended through the
    /// recorder.
    Append {
        /// Bytes appended through the recorder so far, this append's
        /// included.
        end: u64,
        /// The thread that appended.
        thread: ThreadId,
    },
    /// A sync ended.
    Sync {
        /// Bytes appended through the recorder when the sync began: a
        /// successful sync covers every append whose `end` is at most
        /// this.
        covered: u64,
        /// Whether it succeeded.
        ok: bool,
        /// The thread that ran it.
        thread: ThreadId,
    },
}

/// The shared, cloneable log of a [`SyncRecorder`] and its sync handles.
#[derive(Clone, Debug, Default)]
pub struct SinkRecord {
    /// Bytes appended so far, and the events in the order they ended.
    inner: Arc<Mutex<(u64, Vec<SinkEvent>)>>,
}

impl SinkRecord {
    /// The events recorded so far, in the order they ended.
    pub fn events(&self) -> Vec<SinkEvent> {
        self.lock().1.clone()
    }

    fn lock(&self) -> MutexGuard<'_, (u64, Vec<SinkEvent>)> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn appended(&self, len: usize) {
        let mut record = self.lock();
        record.0 += len as u64;
        let end = record.0;
        record.1.push(SinkEvent::Append {
            end,
            thread: thread::current().id(),
        });
    }
}

/// A sink wrapper that records every successful append and every sync
/// through its handles into a [`SinkRecord`].
pub struct SyncRecorder<S> {
    inner: S,
    record: SinkRecord,
}

impl<S: WalSink> SyncRecorder<S> {
    /// Wrap `inner`, recording into `record`.
    pub fn new(inner: S, record: SinkRecord) -> Self {
        SyncRecorder { inner, record }
    }
}

impl<S: WalSink> WalSink for SyncRecorder<S> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)?;
        self.record.appended(bytes.len());
        Ok(())
    }

    fn sync_handle(&self) -> io::Result<Box<dyn WalSync>> {
        Ok(Box::new(RecordedSync {
            inner: self.inner.sync_handle()?,
            record: self.record.clone(),
        }))
    }
}

/// A [`SyncRecorder`]'s sync handle.
struct RecordedSync {
    inner: Box<dyn WalSync>,
    record: SinkRecord,
}

impl WalSync for RecordedSync {
    /// Sync, recording what was appended when the sync began.
    fn sync(&mut self) -> io::Result<()> {
        let covered = self.record.lock().0;
        let outcome = self.inner.sync();
        self.record.lock().1.push(SinkEvent::Sync {
            covered,
            ok: outcome.is_ok(),
            thread: thread::current().id(),
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSink(usize);

    impl WalSink for CountingSink {
        fn append(&mut self, _bytes: &[u8]) -> io::Result<()> {
            self.0 += 1;
            Ok(())
        }

        fn sync_handle(&self) -> io::Result<Box<dyn WalSync>> {
            Ok(Box::new(NoSync))
        }
    }

    struct NoSync;

    impl WalSync for NoSync {
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failpoint_counts_down_then_fails_until_disarmed() {
        let failpoint = Failpoint::new();
        let mut sink = FailpointSink::new(CountingSink(0), failpoint.clone());
        assert!(sink.append(b"a").is_ok(), "disarmed lets everything pass");
        failpoint.arm_after(2);
        assert!(sink.append(b"b").is_ok());
        assert!(sink.append(b"c").is_ok());
        assert!(sink.append(b"d").is_err(), "grace exhausted");
        assert!(sink.append(b"e").is_err(), "stays failing");
        failpoint.disarm();
        assert!(sink.append(b"f").is_ok());
        assert_eq!(sink.inner.0, 4, "failed appends never reach the sink");
    }

    #[test]
    fn a_sync_failpoint_fails_the_sink_and_its_handles_until_disarmed() {
        let failpoint = Failpoint::new();
        let mut sink = FailpointSink::new(CountingSink(0), failpoint.clone());
        let (mut first, mut second) = (sink.sync_handle().unwrap(), sink.sync_handle().unwrap());
        failpoint.arm_syncs_after(1);
        assert!(first.sync().is_ok(), "one grace sync");
        assert!(second.sync().is_err(), "grace exhausted");
        assert!(first.sync().is_err(), "shared by the handles");
        assert!(sink.append(b"a").is_ok(), "appends are not armed");
        failpoint.disarm();
        assert!(first.sync().is_ok() && second.sync().is_ok());
    }

    #[test]
    fn panicking_syncs_panic_through_every_handle_until_disarmed() {
        let failpoint = Failpoint::new();
        let sink = FailpointSink::new(CountingSink(0), failpoint.clone());
        let mut handle = sink.sync_handle().unwrap();
        failpoint.panic_syncs();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.sync()));
        assert!(panicked.is_err(), "an armed sync panics");
        let mut other = sink.sync_handle().unwrap();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| other.sync())).is_err());
        failpoint.disarm();
        assert!(handle.sync().is_ok());
    }

    #[test]
    fn the_recorder_records_appends_and_syncs_with_their_threads() {
        let record = SinkRecord::default();
        let failpoint = Failpoint::new();
        let mut sink = SyncRecorder::new(
            FailpointSink::new(CountingSink(0), failpoint.clone()),
            record.clone(),
        );
        let (mut handle, mut here_handle) =
            (sink.sync_handle().unwrap(), sink.sync_handle().unwrap());
        sink.append(b"abc").unwrap();
        sink.append(b"de").unwrap();
        failpoint.arm_after(0);
        assert!(
            sink.append(b"lost").is_err(),
            "a failed append is not recorded"
        );
        failpoint.arm_syncs_after(0);
        let synced = thread::spawn(move || handle.sync().is_ok()).join().unwrap();
        assert!(!synced);
        failpoint.disarm();
        here_handle.sync().unwrap();
        let here = thread::current().id();
        let events = record.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            SinkEvent::Append {
                end: 3,
                thread: here
            }
        );
        assert_eq!(
            events[1],
            SinkEvent::Append {
                end: 5,
                thread: here
            }
        );
        match events[2] {
            SinkEvent::Sync {
                covered,
                ok,
                thread,
            } => {
                assert_eq!((covered, ok), (5, false));
                assert_ne!(thread, here, "the handle synced on its own thread");
            }
            other => panic!("expected a sync, got {other:?}"),
        }
        assert_eq!(
            events[3],
            SinkEvent::Sync {
                covered: 5,
                ok: true,
                thread: here
            }
        );
    }

    #[test]
    fn byte_faults_edit_files_in_place() {
        let dir = std::env::temp_dir().join(format!("rrp-wal-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, [0u8, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        flip_byte(&path, 3).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [0u8, 1, 2, !3, 4, 5, 6, 7]);
        truncate_at(&path, 5).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [0u8, 1, 2, !3, 4]);
        assert!(flip_byte(&path, 99).is_err(), "past EOF is an error");
        std::fs::remove_dir_all(&dir).ok();
    }
}
