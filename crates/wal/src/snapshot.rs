//! Snapshot files: a checksummed envelope around an opaque payload, and
//! atomic rename-into-place so a crash mid-snapshot can never destroy the
//! previous good snapshot.
//!
//! The payload is whatever the caller serialised (the serving tier stores
//! engine + store + ranking cache as JSON); this module only guarantees
//! that what [`read_snapshot`] hands back is byte-for-byte what was
//! written, or a typed error — never a half-written or bit-rotted blob.
//!
//! ```text
//! file := magic "RRPSNAP0" (8 bytes) ‖ version u32-le
//!         ‖ payload_len u64-le ‖ crc u32-le ‖ payload
//! ```
//!
//! A payload is written in parts: [`SnapshotWriter`] streams each part to
//! a sibling `.tmp` file behind a zeroed envelope, folding it into a
//! running length and CRC-32, so the caller can render a large payload
//! through a small buffer instead of holding it whole. The envelope at
//! offset 0 is written last; then the file is synced, renamed over the
//! snapshot, and the directory synced.
//! [`write_snapshot_atomic`] is the one-part case. A writer that fails or
//! is dropped before [`finish`](SnapshotWriter::finish) leaves only the
//! `.tmp` file, which nothing reads: the previous snapshot stands.

use crate::crc32::{crc32, Crc32};
use crate::log::{sync_parent_dir, WalError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The eight magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RRPSNAP0";
/// The current snapshot envelope version. It moves whenever the payload's
/// shape does, so a snapshot written in an older shape fails verification
/// (and recovery replays the log around it) instead of failing to decode.
/// Version 2: the serving tier is one corpus-wide cache, no longer one
/// cache per shard. Version 3: the store is one document table in
/// sequence order, no longer per-shard `(sequence, document)` lists with
/// a placement map.
pub const SNAPSHOT_VERSION: u32 = 3;

const ENVELOPE_LEN: usize = 8 + 4 + 8 + 4;

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// A snapshot being written a part at a time (see the module docs). At
/// every instant the snapshot's path holds either the old snapshot or,
/// once [`finish`](Self::finish) has renamed it into place, the new one.
#[derive(Debug)]
pub struct SnapshotWriter {
    path: PathBuf,
    tmp: PathBuf,
    file: File,
    len: u64,
    crc: Crc32,
}

impl SnapshotWriter {
    /// Start a snapshot for `path`: create (or truncate) its `.tmp`
    /// sibling and reserve the envelope.
    pub fn create(path: &Path) -> Result<Self, WalError> {
        let tmp = tmp_path(path);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&[0; ENVELOPE_LEN])?;
        Ok(SnapshotWriter {
            path: path.to_path_buf(),
            tmp,
            file,
            len: 0,
            crc: Crc32::new(),
        })
    }

    /// Append the next part of the payload.
    pub fn write(&mut self, part: &[u8]) -> Result<(), WalError> {
        self.file.write_all(part)?;
        self.crc.update(part);
        self.len += part.len() as u64;
        Ok(())
    }

    /// Write the envelope over the parts written, flush the file, rename
    /// it over the snapshot and sync the parent directory: the snapshot
    /// survives power loss once this returns.
    pub fn finish(self) -> Result<(), WalError> {
        let SnapshotWriter {
            path,
            tmp,
            mut file,
            len,
            crc,
        } = self;
        let mut header = [0u8; ENVELOPE_LEN];
        header[..8].copy_from_slice(&SNAPSHOT_MAGIC);
        header[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&len.to_le_bytes());
        header[20..].copy_from_slice(&crc.finish().to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        sync_parent_dir(&path)?;
        Ok(())
    }
}

/// Write `payload` under `path` atomically, as one part of a
/// [`SnapshotWriter`]: the payload is never copied, and the snapshot
/// survives power loss once this returns.
pub fn write_snapshot_atomic(path: &Path, payload: &[u8]) -> Result<(), WalError> {
    let mut writer = SnapshotWriter::create(path)?;
    writer.write(payload)?;
    writer.finish()
}

/// Read and verify the snapshot at `path`. `Ok(None)` means no snapshot
/// exists (a fresh directory); every integrity failure is a typed
/// [`WalError`], never a panic. The envelope is read into a stack array
/// and the payload into a buffer sized by the file's length (never by the
/// unverified header), so the payload is read once and never moved.
pub fn read_snapshot(path: &Path) -> Result<Option<Vec<u8>>, WalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    if file_len < ENVELOPE_LEN as u64 {
        return Err(WalError::BadHeader {
            detail: format!("snapshot holds {file_len} bytes, envelope needs {ENVELOPE_LEN}"),
        });
    }
    let mut header = [0u8; ENVELOPE_LEN];
    file.read_exact(&mut header)?;
    if header[..8] != SNAPSHOT_MAGIC {
        return Err(WalError::BadHeader {
            detail: "snapshot magic mismatch".to_string(),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(WalError::UnsupportedVersion { found: version });
    }
    let payload_len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(header[20..].try_into().expect("4 bytes"));
    let capacity = usize::try_from(file_len - ENVELOPE_LEN as u64).unwrap_or(0);
    let mut payload = Vec::with_capacity(capacity);
    file.read_to_end(&mut payload)?;
    if payload.len() as u64 != payload_len {
        return Err(WalError::Corrupt {
            offset: 12,
            detail: format!(
                "snapshot payload is {} bytes, envelope promised {payload_len}",
                payload.len()
            ),
        });
    }
    if crc32(&payload) != stored_crc {
        return Err(WalError::Corrupt {
            offset: ENVELOPE_LEN as u64,
            detail: "snapshot checksum mismatch".to_string(),
        });
    }
    Ok(Some(payload))
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
    fn a_payload_written_in_parts_is_the_one_part_file() {
        let dir = scratch_dir("parts");
        let (whole, parted) = (dir.join("whole.bin"), dir.join("parted.bin"));
        let payload: Vec<u8> = (0..70_000u32).map(|i| (i * 7 % 251) as u8).collect();
        write_snapshot_atomic(&whole, &payload).unwrap();
        let mut writer = SnapshotWriter::create(&parted).unwrap();
        for part in [
            &payload[..0],
            &payload[..5],
            &payload[5..65_536],
            &payload[65_536..],
        ] {
            writer.write(part).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(fs::read(&parted).unwrap(), fs::read(&whole).unwrap());
        assert_eq!(read_snapshot(&parted).unwrap().unwrap(), payload);
        assert!(!tmp_path(&parted).exists(), "tmp file renamed away");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unfinished_writer_leaves_the_previous_snapshot() {
        let dir = scratch_dir("unfinished");
        let path = dir.join("snapshot.bin");
        write_snapshot_atomic(&path, b"good").unwrap();
        let mut writer = SnapshotWriter::create(&path).unwrap();
        writer.write(b"half of a new state").unwrap();
        drop(writer);
        assert_eq!(read_snapshot(&path).unwrap().unwrap(), b"good");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_envelope_carries_the_parts_length_and_checksum() {
        let dir = scratch_dir("envelope");
        let path = dir.join("snapshot.bin");
        let mut writer = SnapshotWriter::create(&path).unwrap();
        writer.write(b"precious ").unwrap();
        writer.write(b"bytes").unwrap();
        writer.finish().unwrap();
        let file = fs::read(&path).unwrap();
        assert_eq!(file[..8], SNAPSHOT_MAGIC);
        assert_eq!(file[8..12], SNAPSHOT_VERSION.to_le_bytes());
        assert_eq!(file[12..20], 14u64.to_le_bytes());
        assert_eq!(file[20..24], crc32(b"precious bytes").to_le_bytes());
        assert_eq!(file[24..], *b"precious bytes");
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
