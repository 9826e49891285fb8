//! Typed serving-tier errors.
//!
//! Bad external input — an unknown sequence handle, a zero shard count, a
//! shard index past the partition count, an insert past the last slot the
//! popularity order can index, a non-finite popularity on the durable
//! path, a snapshot from a different deployment — degrades to a
//! [`ServeError`] instead of a panic or a silently clamped value. The
//! infallible constructors and the `bool`-returning mutation APIs remain
//! for callers that prefer the old contracts; the `try_*` twins and
//! everything on the durable path speak `Result`.

use rrp_wal::WalError;
use serde::SerError;
use std::fmt;

/// Everything the serving tier can reject without aborting.
#[derive(Debug)]
pub enum ServeError {
    /// A mutation targeted a sequence number the store has never issued.
    UnknownSequence {
        /// The sequence the caller supplied.
        seq: u64,
        /// The number of documents (= one past the largest valid handle).
        len: u64,
    },
    /// A service cannot be partitioned into zero shards.
    InvalidShardCount {
        /// The shard count the caller requested.
        requested: usize,
    },
    /// A per-shard accessor was asked about a shard past the partition
    /// count.
    ShardOutOfRange {
        /// The shard index the caller supplied.
        shard: usize,
        /// The number of shards that exist.
        shards: usize,
    },
    /// An insert would take a slot past `u32::MAX`, the last one the
    /// popularity order stores ([`rrp_ranking::MAX_SLOTS`] documents).
    /// Nothing was logged or applied.
    SlotLimit {
        /// The number of documents the store already holds.
        len: u64,
    },
    /// A durable mutation carried a NaN or infinite popularity score,
    /// which no snapshot could record. Nothing was logged or applied.
    NonFinitePopularity {
        /// The score the caller supplied.
        popularity: f64,
    },
    /// The write-ahead log or snapshot layer failed (I/O, bad header,
    /// corruption that cannot be recovered around), or the durable
    /// service's log sync failed, which every later sync reports too.
    Wal(WalError),
    /// A snapshot was readable but does not belong to this service
    /// configuration, or recovery could not replay the log onto it.
    Recovery {
        /// What exactly went wrong.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSequence { seq, len } => {
                write!(f, "unknown sequence {seq} (store holds {len} documents)")
            }
            ServeError::InvalidShardCount { requested } => {
                write!(f, "invalid shard count {requested} (need at least 1)")
            }
            ServeError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range ({shards} shards exist)")
            }
            ServeError::SlotLimit { len } => write!(
                f,
                "the store holds {len} documents, the most the popularity order can index"
            ),
            ServeError::NonFinitePopularity { popularity } => {
                write!(f, "popularity {popularity} is not a finite number")
            }
            ServeError::Wal(e) => write!(f, "durability layer: {e}"),
            ServeError::Recovery { detail } => write!(f, "recovery failed: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<SerError> for ServeError {
    /// A snapshot that could not be rendered: the codec's one failure is a
    /// non-finite float.
    fn from(e: SerError) -> Self {
        ServeError::Recovery {
            detail: format!("snapshot serialisation failed: {e}"),
        }
    }
}
