//! Snapshot files: a checksummed envelope around an opaque payload, and
//! atomic rename-into-place so a crash mid-snapshot can never destroy the
//! previous good snapshot.
//!
//! The payload is whatever the caller serialised (the serving tier stores
//! engine + store + ranking cache as JSON); this module only guarantees
//! that what [`read_snapshot`] hands back is byte-for-byte what
//! [`write_snapshot_atomic`] was given, or a typed error — never a
//! half-written or bit-rotted blob.
//!
//! ```text
//! file := magic "RRPSNAP0" (8 bytes) ‖ version u32-le
//!         ‖ payload_len u64-le ‖ crc u32-le ‖ payload
//! ```

use crate::crc32::crc32;
use crate::log::{sync_parent_dir, WalError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The eight magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RRPSNAP0";
/// The current snapshot envelope version. It moves whenever the payload's
/// shape does, so a snapshot written in an older shape fails verification
/// (and recovery replays the log around it) instead of failing to decode.
/// Version 2: the serving tier is one corpus-wide cache, no longer one
/// cache per shard.
pub const SNAPSHOT_VERSION: u32 = 2;

const ENVELOPE_LEN: usize = 8 + 4 + 8 + 4;

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Write `payload` under `path` atomically: the envelope goes to a
/// sibling `.tmp` file, is flushed, and only then renamed over `path`.
/// At every instant `path` holds either the old snapshot or the new one.
/// The parent directory is synced after the rename, so the new snapshot
/// survives power loss once this returns.
pub fn write_snapshot_atomic(path: &Path, payload: &[u8]) -> Result<(), WalError> {
    let tmp = tmp_path(path);
    let mut out = Vec::with_capacity(ENVELOPE_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&out)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Read and verify the snapshot at `path`. `Ok(None)` means no snapshot
/// exists (a fresh directory); every integrity failure is a typed
/// [`WalError`], never a panic.
pub fn read_snapshot(path: &Path) -> Result<Option<Vec<u8>>, WalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < ENVELOPE_LEN {
        return Err(WalError::BadHeader {
            detail: format!(
                "snapshot holds {} bytes, envelope needs {ENVELOPE_LEN}",
                bytes.len()
            ),
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(WalError::BadHeader {
            detail: "snapshot magic mismatch".to_string(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(WalError::UnsupportedVersion { found: version });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let payload = &bytes[ENVELOPE_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(WalError::Corrupt {
            offset: 12,
            detail: format!(
                "snapshot payload is {} bytes, envelope promised {payload_len}",
                payload.len()
            ),
        });
    }
    if crc32(payload) != stored_crc {
        return Err(WalError::Corrupt {
            offset: ENVELOPE_LEN as u64,
            detail: "snapshot checksum mismatch".to_string(),
        });
    }
    Ok(Some(payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{flip_byte, truncate_at};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrp-wal-snap-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_and_replaces_atomically() {
        let dir = scratch_dir("round-trip");
        let path = dir.join("snapshot.bin");
        assert_eq!(read_snapshot(&path).unwrap(), None, "fresh dir");
        write_snapshot_atomic(&path, b"first state").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().unwrap(), b"first state");
        write_snapshot_atomic(&path, b"second state").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().unwrap(), b"second state");
        assert!(!tmp_path(&path).exists(), "tmp file renamed away");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stranded_tmp_file_never_shadows_the_real_snapshot() {
        let dir = scratch_dir("stranded-tmp");
        let path = dir.join("snapshot.bin");
        write_snapshot_atomic(&path, b"good").unwrap();
        // A crash between write and rename leaves a tmp file behind; the
        // read path must not look at it.
        fs::write(tmp_path(&path), b"half-written garbage").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().unwrap(), b"good");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_not_served() {
        let dir = scratch_dir("corrupt");
        let path = dir.join("snapshot.bin");
        write_snapshot_atomic(&path, b"precious bytes").unwrap();

        let len = fs::metadata(&path).unwrap().len();
        for offset in 0..len {
            write_snapshot_atomic(&path, b"precious bytes").unwrap();
            flip_byte(&path, offset).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "flip at {offset} must not verify"
            );
        }

        write_snapshot_atomic(&path, b"precious bytes").unwrap();
        truncate_at(&path, len - 3).unwrap();
        assert!(read_snapshot(&path).is_err(), "truncated payload");
        truncate_at(&path, 5).unwrap();
        assert!(read_snapshot(&path).is_err(), "truncated envelope");
        fs::remove_dir_all(&dir).ok();
    }
}
