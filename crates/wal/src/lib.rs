//! Durable mutation log for the serving tier: a checksummed write-ahead
//! log, atomic snapshots, and a fault-injection harness.
//!
//! The serving tier's three mutations (insert / visit / popularity
//! update) are already an event stream; this crate makes that stream
//! durable. [`WalWriter`] appends [`WalEvent`]s as length-prefixed,
//! CRC-32-checksummed frames under a versioned header; [`WalTailReader`],
//! the one reader, streams them back — from a dead log at recovery or a
//! live one a writer is still appending to — and classifies how the log
//! ends ([`TailStatus`]): a torn final write is dropped cleanly, a
//! checksum failure truncates the log at the first bad record and
//! reports how many events were lost. [`snapshot`] wraps serialized
//! serving state, streamed in parts, in a checksummed envelope written
//! via atomic rename, so recovery is snapshot + tail replay rather than
//! full-history replay.
//! [`fault`] injects the failures that matter — truncation, bit rot,
//! append- and sync-time I/O errors — and records which thread synced
//! what, so the recovery and group-commit paths are tested against them,
//! not just described.
//!
//! The crate knows nothing about ranking: it logs events and hands back
//! bytes. The serving-tier integration (the `DurableService` wrapper,
//! recovery, replay) lives in `rrp-serve`.

#![warn(missing_docs)]

mod crc32;
mod event;
pub mod fault;
mod log;
pub mod snapshot;

pub use crc32::{crc32, crc32_concat};
pub use event::WalEvent;
pub use log::{
    create_log_file, resume_log_file, FileSink, TailStatus, WalError, WalPoll, WalSink, WalSync,
    WalTailReader, WalWriter, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
};
