//! The write-ahead log proper: a versioned file header, length-prefixed
//! checksummed record frames, an append path, and the one reader that
//! streams records back and classifies how a log ends.
//!
//! ## On-disk format
//!
//! ```text
//! header  := magic "RRPWALOG" (8 bytes) ‖ version u32-le      (12 bytes)
//! frame   := payload_len u32-le ‖ crc u32-le ‖ event_seq u64-le
//!            ‖ payload (payload_len bytes)
//! crc     := CRC-32(event_seq-bytes ‖ payload)
//! ```
//!
//! Event sequence numbers are assigned by the writer and strictly
//! monotone (+1 per record); the reader rejects any jump as corruption.
//!
//! ## Reading
//!
//! [`WalTailReader`] is the only reader, for a dead log and a live one
//! alike. Each [`poll_next_event`](WalTailReader::poll_next_event)
//! yields the next verified record or stops: an incomplete frame is
//! [`WalPoll::Pending`] ("more may arrive"), and only a *complete* frame
//! that fails verification — which no amount of further bytes can
//! repair — reads as corruption. Once a scan stops,
//! [`WalTailReader::tail`] classifies what is left:
//!
//! * [`TailStatus::Clean`] — the last frame is complete and verified;
//! * [`TailStatus::TornWrite`] — the file stops mid-frame (the classic
//!   crash-during-append), and the partial frame is simply not part of
//!   the log;
//! * [`TailStatus::Corrupt`] — a complete frame failed its checksum (or
//!   decoded to nonsense); the log is valid strictly before it, and the
//!   reader counts how many whole frames follow so recovery can report
//!   the number of events lost.
//!
//! ## Durability
//!
//! Appends go through the [`WalSink`] trait so tests can interpose
//! failures (see [`crate::fault`]); the production sink is a plain
//! unbuffered [`FileSink`]. Records are written with a single
//! `write_all`, so once [`WalWriter::append`] returns `Ok` the frame has
//! reached the OS: it survives a *process* crash, and a crashed process
//! leaves at worst one torn frame — exactly the case the reader drops
//! cleanly. An appended frame survives an *OS crash or power loss* only
//! once a later sync covers it: [`WalWriter::sync`] on the writer's
//! thread, or a [`WalSync`] handle from [`WalWriter::sync_handle`] on
//! another thread, while the writer keeps appending. A sync covers every
//! frame written before it began. [`create_log_file`] syncs the parent
//! directory, so the log's directory entry is durable from the start.

use crate::crc32::crc32_concat;
use crate::event::WalEvent;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The eight magic bytes opening every log file.
pub const WAL_MAGIC: [u8; 8] = *b"RRPWALOG";
/// The current format version, stored in the header.
pub const WAL_VERSION: u32 = 1;
/// Header length in bytes — also the valid length of an empty log.
pub const WAL_HEADER_LEN: u64 = 12;

/// Frame prefix: payload length + checksum + event sequence.
const FRAME_PREFIX: usize = 16;
/// Upper bound on a sane payload. Real payloads are ≤ 26 bytes; the cap
/// exists so a corrupted length prefix cannot demand a huge allocation.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Everything that can go wrong talking to the log or a snapshot file.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error from the filesystem (or an injected failpoint).
    Io(io::Error),
    /// The file does not open with a well-formed header.
    BadHeader {
        /// What exactly was wrong with it.
        detail: String,
    },
    /// The header is well-formed but a future format version.
    UnsupportedVersion {
        /// The version the header claims.
        found: u32,
    },
    /// Content that fails verification: a snapshot, or a complete log
    /// frame — the reader's sticky error, which
    /// [`WalTailReader::tail`] then reports as a [`TailStatus::Corrupt`]
    /// tail with its loss count (the log before it is still good).
    Corrupt {
        /// Byte offset of the first bad content.
        offset: u64,
        /// What exactly was wrong with it.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadHeader { detail } => write!(f, "bad wal header: {detail}"),
            WalError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wal format version {found} (max {WAL_VERSION})"
                )
            }
            WalError::Corrupt { offset, detail } => {
                write!(f, "corrupt content at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// How a fully scanned log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belongs to a verified record.
    Clean,
    /// The file stops mid-frame: a torn final write, dropped cleanly.
    TornWrite {
        /// Bytes of the partial frame past the last good record.
        dropped_bytes: u64,
    },
    /// A complete frame failed verification; the log is truncated there.
    Corrupt {
        /// Byte offset of the first bad frame.
        first_bad_offset: u64,
        /// Whole frames at or after the bad one (best-effort count by
        /// walking the surviving length prefixes) — the events lost.
        events_lost: u64,
        /// Total bytes past the last good record.
        dropped_bytes: u64,
    },
}

impl TailStatus {
    /// Events the tail cost, if any (zero for a clean or merely torn log).
    pub fn events_lost(&self) -> u64 {
        match *self {
            TailStatus::Corrupt { events_lost, .. } => events_lost,
            _ => 0,
        }
    }

    /// Bytes past the valid prefix, however they got there.
    pub fn dropped_bytes(&self) -> u64 {
        match *self {
            TailStatus::Clean => 0,
            TailStatus::TornWrite { dropped_bytes } | TailStatus::Corrupt { dropped_bytes, .. } => {
                dropped_bytes
            }
        }
    }
}

/// Where appended frames go. The indirection exists for the
/// fault-injection harness: production uses [`FileSink`], tests wrap it
/// in a [`crate::fault::FailpointSink`]. A sink syncs only through the
/// handles it gives out.
pub trait WalSink: Send {
    /// Append one complete frame (or the header) to the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// A handle that syncs this sink's log, from this thread or another
    /// while the sink keeps appending.
    fn sync_handle(&self) -> io::Result<Box<dyn WalSync>>;
}

/// Syncs a log on behalf of its sink (see [`WalSink::sync_handle`]). A
/// sync covers every frame appended before it began.
pub trait WalSync: Send {
    /// Flush the log as far down the storage stack as the handle reaches.
    fn sync(&mut self) -> io::Result<()>;
}

/// A second handle on the log file: `sync_data` flushes the frames
/// appended through any handle on it.
impl WalSync for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// The production sink: unbuffered appends to a [`File`], so a process
/// crash leaves at most one torn frame and never a buffered batch.
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Wrap a file already positioned at its append point.
    pub fn new(file: File) -> Self {
        FileSink { file }
    }
}

impl WalSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync_handle(&self) -> io::Result<Box<dyn WalSync>> {
        Ok(Box::new(self.file.try_clone()?))
    }
}

/// Create a fresh log at `path` (truncating anything there) and return
/// the file positioned after the freshly written header. The parent
/// directory is synced, so the file's directory entry survives power
/// loss; the header itself is durable once the first
/// [`WalWriter::sync`] runs.
pub fn create_log_file(path: &Path) -> Result<File, WalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    header[..8].copy_from_slice(&WAL_MAGIC);
    header[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    file.write_all(&header)?;
    sync_parent_dir(path)?;
    Ok(file)
}

/// The directory holding `path`: a path with no directory component
/// lives in `"."`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

/// Sync the directory holding `path`, so a file created or renamed into
/// it survives power loss.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    File::open(parent_dir(path))?.sync_all()
}

/// Reopen an existing log for appending after a scan: truncate to the
/// verified prefix `valid_len` (dropping any torn or corrupt tail) and
/// return the file positioned there.
pub fn resume_log_file(path: &Path, valid_len: u64) -> Result<File, WalError> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.set_len(valid_len)?;
    file.seek(SeekFrom::Start(valid_len))?;
    Ok(file)
}

/// The append path: frames events, checksums them, hands the bytes to
/// the sink, and assigns strictly monotone event sequence numbers.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    /// The sink's sync handle, taken at the first [`sync`](Self::sync).
    syncer: Option<Box<dyn WalSync>>,
    next_seq: u64,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl WalWriter {
    /// A writer over `sink`, numbering its first event `next_seq`.
    pub fn new(sink: Box<dyn WalSink>, next_seq: u64) -> Self {
        WalWriter {
            sink,
            syncer: None,
            next_seq,
            payload: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// The sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one event; on success returns the sequence it was logged
    /// under. On failure nothing is accounted: the sequence counter is
    /// untouched, so the caller's state and the log cannot drift apart.
    pub fn append(&mut self, event: &WalEvent) -> Result<u64, WalError> {
        let seq = self.next_seq;
        self.payload.clear();
        event.encode_into(&mut self.payload);
        let seq_bytes = seq.to_le_bytes();
        let crc = crc32_concat(&[&seq_bytes, &self.payload]);
        self.frame.clear();
        self.frame
            .extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(&crc.to_le_bytes());
        self.frame.extend_from_slice(&seq_bytes);
        self.frame.extend_from_slice(&self.payload);
        self.sink.append(&self.frame)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Sync the log on this thread, through a handle taken from the sink
    /// on first use (see [`WalSink::sync_handle`]).
    pub fn sync(&mut self) -> Result<(), WalError> {
        let syncer = match &mut self.syncer {
            Some(syncer) => syncer,
            None => self.syncer.insert(self.sink.sync_handle()?),
        };
        Ok(syncer.sync()?)
    }

    /// A handle that syncs this log from another thread (see
    /// [`WalSink::sync_handle`]).
    pub fn sync_handle(&self) -> Result<Box<dyn WalSync>, WalError> {
        Ok(self.sink.sync_handle()?)
    }
}

/// Validate the (possibly short) header bytes read from the front of a
/// log file.
fn validate_header(bytes: &[u8]) -> Result<(), WalError> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(WalError::BadHeader {
            detail: format!(
                "file holds {} bytes, header needs {WAL_HEADER_LEN}",
                bytes.len()
            ),
        });
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(WalError::BadHeader {
            detail: "magic mismatch".to_string(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion { found: version });
    }
    Ok(())
}

/// One observation of a log's tail, from
/// [`WalTailReader::poll_next_event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalPoll {
    /// The next verified record.
    Event {
        /// The sequence number the record was logged under.
        seq: u64,
        /// The decoded event.
        event: WalEvent,
    },
    /// Clean end of the visible log: every byte so far belongs to a
    /// verified record and whatever follows (nothing, or a partial
    /// frame) is still incomplete. On a live log more bytes may arrive —
    /// poll again; on a quiesced one [`WalTailReader::tail`] says which.
    Pending,
}

/// The log's one reader. It yields verified `(seq, event)` records one
/// poll at a time, and once a scan stops it classifies the unverified
/// suffix ([`tail`](Self::tail)). Recovery scans a dead log with it; a
/// follower keeps it open and polls a live one while a writer is still
/// appending to the same file.
///
/// Frames are appended with a single `write_all`, so a concurrently
/// visible partial frame is always a byte-prefix of what the writer is
/// putting there — an **incomplete** frame means "in flight, come back
/// later" ([`WalPoll::Pending`]), never corruption. A **complete** frame
/// that fails verification (absurd length, checksum mismatch, sequence
/// discontinuity, undecodable payload) can never be repaired by more
/// bytes, so it poisons the reader: that poll and every poll after it
/// return the same [`WalError::Corrupt`]. A follower stuck there must
/// re-bootstrap — typically after the log's owner has itself recovered
/// and truncated the bad tail.
///
/// Reads go through one buffered handle, so a scan costs far fewer read
/// calls than frames. The handle only re-seeks to
/// [`valid_len`](Self::valid_len) after a poll that consumed part of an
/// incomplete frame.
pub struct WalTailReader {
    src: BufReader<File>,
    /// Bytes of verified log consumed so far: header plus every frame
    /// yielded as an event.
    valid_len: u64,
    /// Set when the last poll stopped inside an incomplete frame: the
    /// handle sits past `valid_len`, and the next poll seeks back.
    rewind: bool,
    expect_seq: Option<u64>,
    payload: Vec<u8>,
    /// Set once a complete frame at `valid_len` fails verification: what
    /// was wrong with it.
    poisoned: Option<&'static str>,
}

impl WalTailReader {
    /// Open a log file, validating its header. A missing file is an
    /// ordinary [`WalError::Io`] with `NotFound`; a file too short to
    /// hold a header, or one with the wrong magic, is a
    /// [`WalError::BadHeader`] — if the log is being created
    /// concurrently, retry the open.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        let mut src = BufReader::new(File::open(path)?);
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        let got = read_up_to(&mut src, &mut header)?;
        validate_header(&header[..got])?;
        Ok(WalTailReader {
            src,
            valid_len: WAL_HEADER_LEN,
            rewind: false,
            expect_seq: None,
            payload: Vec::new(),
            poisoned: None,
        })
    }

    /// The next verified record if one is fully visible, or
    /// [`WalPoll::Pending`] at the (current) end of the log. A complete
    /// frame that fails verification is sticky: this and every later
    /// poll return the same [`WalError::Corrupt`]. Other errors are real
    /// I/O failures.
    pub fn poll_next_event(&mut self) -> Result<WalPoll, WalError> {
        if let Some(detail) = self.poisoned {
            return Err(self.corrupt(detail));
        }
        if self.rewind {
            self.src.seek(SeekFrom::Start(self.valid_len))?;
            self.rewind = false;
        }
        let mut prefix = [0u8; FRAME_PREFIX];
        let got = read_up_to(&mut self.src, &mut prefix)?;
        if got < FRAME_PREFIX {
            self.rewind = got > 0;
            return Ok(WalPoll::Pending);
        }
        let payload_len = u32::from_le_bytes(prefix[0..4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(prefix[8..16].try_into().expect("8 bytes"));
        if payload_len > MAX_PAYLOAD {
            // Real payloads are tiny; no further bytes can shrink the
            // claimed length back into range.
            return self.poison("absurd payload length");
        }
        self.payload.resize(payload_len as usize, 0);
        if read_up_to(&mut self.src, &mut self.payload)? < self.payload.len() {
            self.rewind = true;
            return Ok(WalPoll::Pending);
        }
        if crc32_concat(&[&prefix[8..16], &self.payload]) != stored_crc {
            return self.poison("checksum mismatch");
        }
        if self.expect_seq.is_some_and(|expected| seq != expected) {
            return self.poison("sequence discontinuity");
        }
        let Some(event) = WalEvent::decode(&self.payload) else {
            return self.poison("undecodable event payload");
        };
        self.valid_len += (FRAME_PREFIX as u64) + payload_len as u64;
        self.expect_seq = Some(seq + 1);
        Ok(WalPoll::Event { seq, event })
    }

    /// Byte length of the verified prefix consumed so far — what the file
    /// should be truncated to before appending resumes.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// The sequence number one past the last verified record, if any
    /// record was read at all.
    pub fn next_seq(&self) -> Option<u64> {
        self.expect_seq
    }

    /// Classify the unverified suffix past [`valid_len`](Self::valid_len)
    /// as the file stands now. Meaningful once a poll has stopped the
    /// scan (returned [`WalPoll::Pending`] or corruption):
    ///
    /// * nothing left → [`TailStatus::Clean`];
    /// * a pending scan with bytes left → [`TailStatus::TornWrite`];
    /// * a poisoned scan → [`TailStatus::Corrupt`], counting the whole
    ///   frames from the bad one to EOF by walking their length prefixes.
    ///   The count is best effort: a damaged *later* length prefix
    ///   desynchronises the walk, and an absurd one ends it, so the count
    ///   is a floor of at least 1 (the bad frame itself), never a panic.
    pub fn tail(&mut self) -> Result<TailStatus, WalError> {
        let dropped_bytes = self
            .src
            .get_ref()
            .metadata()?
            .len()
            .saturating_sub(self.valid_len);
        if self.poisoned.is_none() {
            return Ok(match dropped_bytes {
                0 => TailStatus::Clean,
                _ => TailStatus::TornWrite { dropped_bytes },
            });
        }
        self.src.seek(SeekFrom::Start(self.valid_len))?;
        let mut frames = 0u64;
        loop {
            let mut prefix = [0u8; FRAME_PREFIX];
            if read_up_to(&mut self.src, &mut prefix)? < FRAME_PREFIX {
                break;
            }
            let payload_len = u32::from_le_bytes(prefix[0..4].try_into().expect("4 bytes"));
            if payload_len > MAX_PAYLOAD {
                // The frame's true extent is unknowable: reading on would
                // reinterpret its payload bytes as frame prefixes.
                break;
            }
            self.payload.resize(payload_len as usize, 0);
            if read_up_to(&mut self.src, &mut self.payload)? < self.payload.len() {
                break;
            }
            frames += 1;
        }
        Ok(TailStatus::Corrupt {
            first_bad_offset: self.valid_len,
            events_lost: frames.max(1),
            dropped_bytes,
        })
    }

    /// Mark the tail permanently bad at the current verified offset.
    fn poison(&mut self, detail: &'static str) -> Result<WalPoll, WalError> {
        self.poisoned = Some(detail);
        Err(self.corrupt(detail))
    }

    fn corrupt(&self, detail: &str) -> WalError {
        WalError::Corrupt {
            offset: self.valid_len,
            detail: detail.to_string(),
        }
    }
}

/// Read until `buf` is full or EOF; returns how many bytes landed.
fn read_up_to<R: Read>(src: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_core::Document;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// An in-memory sink shared with the test so it can replay the bytes.
    #[derive(Clone, Default)]
    struct MemSink(Arc<Mutex<Vec<u8>>>);

    impl MemSink {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl WalSink for MemSink {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(())
        }

        fn sync_handle(&self) -> io::Result<Box<dyn WalSync>> {
            Err(io::ErrorKind::Unsupported.into())
        }
    }

    fn header_bytes() -> Vec<u8> {
        let mut out = WAL_MAGIC.to_vec();
        out.extend_from_slice(&WAL_VERSION.to_le_bytes());
        out
    }

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::Insert(Document::unexplored(1)),
            WalEvent::Insert(Document::established(2, 0.75).with_age(10)),
            WalEvent::Visit { seq: 0 },
            WalEvent::SetPopularity {
                seq: 1,
                popularity: 0.1,
            },
            WalEvent::Visit { seq: 1 },
        ]
    }

    /// Header + the sample events, as raw log bytes.
    fn sample_log() -> Vec<u8> {
        let sink = MemSink::default();
        let mut bytes = header_bytes();
        let mut writer = WalWriter::new(Box::new(sink.clone()), 0);
        for event in sample_events() {
            writer.append(&event).unwrap();
        }
        bytes.extend_from_slice(&sink.bytes());
        bytes
    }

    /// Open a reader over `bytes` written to a fresh file. The file is
    /// unlinked straight away; the open handle keeps its contents.
    fn open_bytes(bytes: &[u8]) -> Result<WalTailReader, WalError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "rrp-wal-scan-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let reader = WalTailReader::open(&path);
        std::fs::remove_file(&path).unwrap();
        reader
    }

    /// Poll until the scan stops, then classify the tail — the scan
    /// recovery runs.
    fn scan_reader(reader: &mut WalTailReader) -> (Vec<(u64, WalEvent)>, TailStatus, u64) {
        let mut events = Vec::new();
        loop {
            match reader.poll_next_event() {
                Ok(WalPoll::Event { seq, event }) => events.push((seq, event)),
                Ok(WalPoll::Pending) | Err(WalError::Corrupt { .. }) => break,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        (events, reader.tail().unwrap(), reader.valid_len())
    }

    fn scan(bytes: &[u8]) -> (Vec<(u64, WalEvent)>, TailStatus, u64) {
        scan_reader(&mut open_bytes(bytes).unwrap())
    }

    #[test]
    fn append_then_scan_round_trips() {
        let bytes = sample_log();
        let (events, tail, valid) = scan(&bytes);
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(valid, bytes.len() as u64);
        assert_eq!(
            events,
            sample_events()
                .into_iter()
                .enumerate()
                .map(|(i, e)| (i as u64, e))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn truncation_at_every_offset_is_torn_or_shorter_clean() {
        let bytes = sample_log();
        let full = scan(&bytes).0;
        for cut in 0..bytes.len() {
            if cut < WAL_HEADER_LEN as usize {
                // Mid-header cuts (including a zero-byte file) cannot be
                // scanned at all: a typed header error, never a panic and
                // never a misread.
                assert!(
                    matches!(open_bytes(&bytes[..cut]), Err(WalError::BadHeader { .. })),
                    "cut at {cut}"
                );
                continue;
            }
            let (events, tail, valid) = scan(&bytes[..cut]);
            assert!(valid <= cut as u64);
            // Whatever survives is a prefix of the uncut log.
            assert_eq!(events[..], full[..events.len()], "cut at {cut}");
            match tail {
                TailStatus::Clean => assert_eq!(valid, cut as u64),
                TailStatus::TornWrite { dropped_bytes } => {
                    assert_eq!(valid + dropped_bytes, cut as u64)
                }
                TailStatus::Corrupt { .. } => panic!("truncation can never look corrupt"),
            }
        }
    }

    #[test]
    fn a_log_cut_at_exactly_header_length_is_clean_and_empty() {
        // The boundary case between "bad header" and "torn frame": a file
        // holding exactly its header is a *valid empty log*.
        let (events, tail, valid) = scan(&header_bytes());
        assert!(events.is_empty());
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(valid, WAL_HEADER_LEN);
    }

    #[test]
    fn a_flipped_payload_byte_truncates_at_that_record_and_counts_losses() {
        let bytes = sample_log();
        let full = scan(&bytes).0;
        // Flip one byte inside every record (skip each frame's length
        // prefix so the loss count stays exact; a damaged length prefix
        // is covered separately below).
        let mut offset = WAL_HEADER_LEN as usize;
        for (index, (_, event)) in full.iter().enumerate() {
            let mut payload = Vec::new();
            event.encode_into(&mut payload);
            let frame_len = FRAME_PREFIX + payload.len();
            let mut copy = bytes.clone();
            copy[offset + FRAME_PREFIX] ^= 0x40; // first payload byte
            let (events, tail, valid) = scan(&copy);
            assert_eq!(events[..], full[..index], "record {index}");
            assert_eq!(valid as usize, offset);
            assert_eq!(
                tail,
                TailStatus::Corrupt {
                    first_bad_offset: offset as u64,
                    events_lost: (full.len() - index) as u64,
                    dropped_bytes: (bytes.len() - offset) as u64,
                },
                "record {index}"
            );
            offset += frame_len;
        }
    }

    #[test]
    fn a_damaged_length_prefix_still_reports_at_least_one_loss() {
        // Nudge the first frame's length by one: the checksum is computed
        // over the wrong span, so the frame reads as corrupt and the
        // loss-counting walk (now desynchronised) still reports a floor.
        let mut bytes = sample_log();
        let offset = WAL_HEADER_LEN as usize;
        bytes[offset] ^= 0x01;
        let (events, tail, valid) = scan(&bytes);
        assert!(events.is_empty());
        assert_eq!(valid, WAL_HEADER_LEN);
        match tail {
            TailStatus::Corrupt {
                first_bad_offset,
                events_lost,
                dropped_bytes,
            } => {
                assert_eq!(first_bad_offset, WAL_HEADER_LEN);
                assert!(events_lost >= 1);
                assert_eq!(dropped_bytes, bytes.len() as u64 - WAL_HEADER_LEN);
            }
            other => panic!("expected corrupt tail, got {other:?}"),
        }
    }

    #[test]
    fn a_length_prefix_inflated_past_eof_reads_as_torn() {
        // If the damaged length claims more bytes than the file holds,
        // the frame is indistinguishable from a torn final write — and
        // is dropped the same way, with everything after it.
        let mut bytes = sample_log();
        let offset = WAL_HEADER_LEN as usize;
        bytes[offset] ^= 0xFF; // 26 → 229 payload bytes, past EOF
        let (events, tail, valid) = scan(&bytes);
        assert!(events.is_empty());
        assert_eq!(valid, WAL_HEADER_LEN);
        assert_eq!(
            tail,
            TailStatus::TornWrite {
                dropped_bytes: bytes.len() as u64 - WAL_HEADER_LEN
            }
        );
    }

    #[test]
    fn an_absurd_length_prefix_drops_the_tail_with_exact_counts() {
        // Regression: a length prefix past MAX_PAYLOAD used to enter the
        // frame-walking loss count with only 16 prefix bytes consumed, so
        // the walk started inside the unread payload and reinterpreted
        // payload bytes as frame prefixes — garbage event counts. Pinned
        // exactly, at every frame offset: one event lost (the bad frame,
        // whose extent is unknowable), and dropped bytes spanning from the
        // valid prefix to EOF.
        let bytes = sample_log();
        let full = scan(&bytes).0;
        let mut offset = WAL_HEADER_LEN as usize;
        for (index, (_, event)) in full.iter().enumerate() {
            let mut payload = Vec::new();
            event.encode_into(&mut payload);
            let frame_len = FRAME_PREFIX + payload.len();
            let mut copy = bytes.clone();
            copy[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let (events, tail, valid) = scan(&copy);
            assert_eq!(events[..], full[..index], "record {index}");
            assert_eq!(valid as usize, offset, "record {index}");
            assert_eq!(
                tail,
                TailStatus::Corrupt {
                    first_bad_offset: offset as u64,
                    events_lost: 1,
                    dropped_bytes: (bytes.len() - offset) as u64,
                },
                "record {index}"
            );
            offset += frame_len;
        }
    }

    #[test]
    fn an_absurd_length_prefix_at_eof_still_counts_one_loss() {
        // The degenerate variant: the absurd frame's prefix is the last
        // thing in the file. Nothing to drain, still exactly one loss.
        let bytes = sample_log();
        let offset = WAL_HEADER_LEN as usize;
        let mut copy = bytes[..offset + FRAME_PREFIX].to_vec();
        copy[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (events, tail, valid) = scan(&copy);
        assert!(events.is_empty());
        assert_eq!(valid, WAL_HEADER_LEN);
        assert_eq!(
            tail,
            TailStatus::Corrupt {
                first_bad_offset: WAL_HEADER_LEN,
                events_lost: 1,
                dropped_bytes: FRAME_PREFIX as u64,
            }
        );
    }

    #[test]
    fn sequence_discontinuities_read_as_corruption() {
        let sink = MemSink::default();
        let mut writer = WalWriter::new(Box::new(sink.clone()), 0);
        writer.append(&WalEvent::Visit { seq: 0 }).unwrap();
        drop(writer);
        // A second writer resuming at the wrong sequence.
        let mut writer = WalWriter::new(Box::new(sink.clone()), 5);
        writer.append(&WalEvent::Visit { seq: 1 }).unwrap();
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&sink.bytes());
        let (events, tail, _) = scan(&bytes);
        assert_eq!(events.len(), 1);
        assert!(matches!(tail, TailStatus::Corrupt { events_lost: 1, .. }));
    }

    #[test]
    fn bad_headers_are_typed_errors() {
        let short = WAL_MAGIC[..4].to_vec();
        assert!(matches!(
            open_bytes(&short),
            Err(WalError::BadHeader { .. })
        ));
        let mut wrong_magic = header_bytes();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            open_bytes(&wrong_magic),
            Err(WalError::BadHeader { .. })
        ));
        let mut future = WAL_MAGIC.to_vec();
        future.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            open_bytes(&future),
            Err(WalError::UnsupportedVersion { found: 99 })
        ));
    }

    /// Byte offsets of every frame boundary in `sample_log`: the header
    /// end first, then the end of each frame.
    fn sample_frame_boundaries() -> Vec<usize> {
        let mut offsets = vec![WAL_HEADER_LEN as usize];
        for event in sample_events() {
            let mut payload = Vec::new();
            event.encode_into(&mut payload);
            offsets.push(offsets.last().unwrap() + FRAME_PREFIX + payload.len());
        }
        offsets
    }

    /// A structurally complete frame carrying `seq` and a zero-length
    /// payload: valid length prefix, valid CRC (over the sequence bytes
    /// alone — the payload contributes nothing), undecodable content.
    fn empty_payload_frame(seq: u64) -> Vec<u8> {
        let seq_bytes = seq.to_le_bytes();
        let mut frame = Vec::with_capacity(FRAME_PREFIX);
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&crc32_concat(&[&seq_bytes]).to_le_bytes());
        frame.extend_from_slice(&seq_bytes);
        frame
    }

    /// `sample_log` plus one empty-payload frame at the end, and the
    /// byte offset where that frame starts.
    fn log_with_empty_payload_final_frame() -> (Vec<u8>, usize) {
        let mut bytes = sample_log();
        let boundary = bytes.len();
        bytes.extend_from_slice(&empty_payload_frame(sample_events().len() as u64));
        (bytes, boundary)
    }

    #[test]
    fn an_empty_payload_final_frame_is_corrupt_with_exact_counts() {
        // An empty payload passes the length and checksum gates but
        // decodes to no event: a *complete* frame that fails
        // verification, so the tail is corrupt — exactly one event lost,
        // exactly the frame's sixteen prefix bytes dropped.
        let (bytes, boundary) = log_with_empty_payload_final_frame();
        let full = scan(&bytes[..boundary]).0;
        let (events, tail, valid) = scan(&bytes);
        assert_eq!(events, full);
        assert_eq!(valid as usize, boundary);
        assert_eq!(
            tail,
            TailStatus::Corrupt {
                first_bad_offset: boundary as u64,
                events_lost: 1,
                dropped_bytes: FRAME_PREFIX as u64,
            }
        );
    }

    #[test]
    fn every_cut_of_a_log_ending_in_an_empty_payload_frame_classifies_exactly() {
        // Sweep *every* cut point, from the empty file through the
        // complete log: mid-header cuts are typed header errors, interior
        // cuts are clean or torn, partial prefixes of the empty-payload
        // frame are torn (indistinguishable from any in-flight append),
        // and only the complete frame reads as corrupt.
        let (bytes, boundary) = log_with_empty_payload_final_frame();
        let full = scan(&bytes[..boundary]).0;
        for cut in 0..=bytes.len() {
            if cut < WAL_HEADER_LEN as usize {
                assert!(
                    matches!(open_bytes(&bytes[..cut]), Err(WalError::BadHeader { .. })),
                    "cut at {cut}"
                );
                continue;
            }
            let (events, tail, valid) = scan(&bytes[..cut]);
            assert_eq!(events[..], full[..events.len()], "cut at {cut}");
            if cut == bytes.len() {
                assert_eq!(events.len(), full.len());
                assert_eq!(valid as usize, boundary, "cut at {cut}");
                assert_eq!(
                    tail,
                    TailStatus::Corrupt {
                        first_bad_offset: boundary as u64,
                        events_lost: 1,
                        dropped_bytes: FRAME_PREFIX as u64,
                    },
                    "cut at {cut}"
                );
            } else if cut > boundary {
                assert_eq!(events.len(), full.len());
                assert_eq!(valid as usize, boundary, "cut at {cut}");
                assert_eq!(
                    tail,
                    TailStatus::TornWrite {
                        dropped_bytes: (cut - boundary) as u64
                    },
                    "cut at {cut}"
                );
            } else {
                match tail {
                    TailStatus::Clean => assert_eq!(valid, cut as u64, "cut at {cut}"),
                    TailStatus::TornWrite { dropped_bytes } => {
                        assert_eq!(valid + dropped_bytes, cut as u64, "cut at {cut}")
                    }
                    TailStatus::Corrupt { .. } => {
                        panic!("truncation can never look corrupt (cut {cut})")
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_payload_frame_mid_log_counts_every_following_frame_lost() {
        // Spliced between real frames, the empty-payload frame is the
        // first bad record and the loss walk resynchronises on the intact
        // frames after it: every one of them counts as lost.
        let bytes = sample_log();
        let full = scan(&bytes).0;
        let bounds = sample_frame_boundaries();
        let splice = bounds[1]; // after the first record
        let mut copy = bytes[..splice].to_vec();
        copy.extend_from_slice(&empty_payload_frame(1));
        copy.extend_from_slice(&bytes[splice..]);
        let (events, tail, valid) = scan(&copy);
        assert_eq!(events[..], full[..1]);
        assert_eq!(valid as usize, splice);
        assert_eq!(
            tail,
            TailStatus::Corrupt {
                first_bad_offset: splice as u64,
                events_lost: full.len() as u64, // the empty frame + the 4 after it
                dropped_bytes: (copy.len() - splice) as u64,
            }
        );
    }

    fn tail_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rrp-wal-tail-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tail_reader_yields_events_only_as_frames_complete() {
        // Grow the file one byte at a time, polling after every byte —
        // the strictest version of "the replica polls while the leader is
        // appending". Exactly the fully visible frames are yielded, never
        // an error, never a partial read.
        let dir = tail_dir("incremental");
        let path = dir.join("wal.log");
        let bytes = sample_log();
        let bounds = sample_frame_boundaries();
        std::fs::write(&path, &bytes[..WAL_HEADER_LEN as usize]).unwrap();
        let mut tail = WalTailReader::open(&path).unwrap();
        assert_eq!(tail.poll_next_event().unwrap(), WalPoll::Pending);

        let full = scan(&bytes).0;
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut seen = Vec::new();
        for grow in WAL_HEADER_LEN as usize + 1..=bytes.len() {
            file.write_all(&bytes[grow - 1..grow]).unwrap();
            while let WalPoll::Event { seq, event } = tail.poll_next_event().unwrap() {
                seen.push((seq, event));
            }
            let complete = *bounds.iter().rfind(|&&b| b <= grow).unwrap();
            assert_eq!(tail.valid_len(), complete as u64, "grew to {grow}");
            let visible = bounds
                .iter()
                .filter(|&&b| b > WAL_HEADER_LEN as usize && b <= grow);
            assert_eq!(seen.len(), visible.count(), "grew to {grow}");
        }
        assert_eq!(seen, full);
        assert_eq!(tail.next_seq(), Some(full.len() as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reader_poisons_on_a_complete_invalid_frame() {
        let dir = tail_dir("poison");
        let path = dir.join("wal.log");
        let (bytes, boundary) = log_with_empty_payload_final_frame();
        // Everything but the bad frame's last byte: the frame is still
        // incomplete, so the tail is merely pending.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let mut tail = WalTailReader::open(&path).unwrap();
        let mut events = 0;
        while let WalPoll::Event { .. } = tail.poll_next_event().unwrap() {
            events += 1;
        }
        assert_eq!(events, sample_events().len());

        // The frame completes: sticky corruption at the frame's offset,
        // on this poll and every poll after it.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&bytes[bytes.len() - 1..]).unwrap();
        for _ in 0..3 {
            match tail.poll_next_event() {
                Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, boundary as u64),
                other => panic!("expected sticky corruption, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reader_poisons_on_sequence_discontinuity() {
        let dir = tail_dir("seq-gap");
        let path = dir.join("wal.log");
        let sink = MemSink::default();
        let mut writer = WalWriter::new(Box::new(sink.clone()), 0);
        writer.append(&WalEvent::Visit { seq: 0 }).unwrap();
        drop(writer);
        let mut writer = WalWriter::new(Box::new(sink.clone()), 5);
        writer.append(&WalEvent::Visit { seq: 1 }).unwrap();
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&sink.bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut tail = WalTailReader::open(&path).unwrap();
        assert!(matches!(
            tail.poll_next_event().unwrap(),
            WalPoll::Event { seq: 0, .. }
        ));
        assert!(matches!(
            tail.poll_next_event(),
            Err(WalError::Corrupt { .. })
        ));
        assert!(matches!(
            tail.poll_next_event(),
            Err(WalError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reader_open_rejects_a_partial_header_until_it_completes() {
        let dir = tail_dir("header");
        let path = dir.join("wal.log");
        std::fs::write(&path, &header_bytes()[..7]).unwrap();
        assert!(matches!(
            WalTailReader::open(&path),
            Err(WalError::BadHeader { .. })
        ));
        // The concurrent creator finishes the header: the retry works.
        std::fs::write(&path, header_bytes()).unwrap();
        let mut tail = WalTailReader::open(&path).unwrap();
        assert_eq!(tail.poll_next_event().unwrap(), WalPoll::Pending);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_classifies_a_live_log_between_polls() {
        // Grow the file one byte at a time and classify the tail after
        // every poll: torn while a frame is in flight, clean on every
        // frame boundary — and the frame that completes after a torn
        // reading is still yielded whole (the poll re-seeks past the
        // partial bytes the previous poll consumed).
        let dir = tail_dir("classify");
        let path = dir.join("wal.log");
        let bytes = sample_log();
        let bounds = sample_frame_boundaries();
        std::fs::write(&path, &bytes[..WAL_HEADER_LEN as usize]).unwrap();
        let mut tail = WalTailReader::open(&path).unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut seen = Vec::new();
        for grow in WAL_HEADER_LEN as usize + 1..=bytes.len() {
            file.write_all(&bytes[grow - 1..grow]).unwrap();
            while let WalPoll::Event { seq, event } = tail.poll_next_event().unwrap() {
                seen.push((seq, event));
            }
            let complete = *bounds.iter().rfind(|&&b| b <= grow).unwrap();
            let expected = match grow - complete {
                0 => TailStatus::Clean,
                torn => TailStatus::TornWrite {
                    dropped_bytes: torn as u64,
                },
            };
            assert_eq!(tail.tail().unwrap(), expected, "grew to {grow}");
        }
        assert_eq!(seen, scan(&bytes).0);

        // A complete bad frame poisons the scan: the tail turns corrupt.
        let (bad, boundary) = log_with_empty_payload_final_frame();
        file.write_all(&bad[boundary..]).unwrap();
        assert!(matches!(
            tail.poll_next_event(),
            Err(WalError::Corrupt { .. })
        ));
        assert_eq!(
            tail.tail().unwrap(),
            TailStatus::Corrupt {
                first_bad_offset: boundary as u64,
                events_lost: 1,
                dropped_bytes: FRAME_PREFIX as u64,
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bare_file_name_lives_in_the_current_directory() {
        assert_eq!(parent_dir(Path::new("wal.log")), Path::new("."));
        assert_eq!(parent_dir(Path::new("dir/wal.log")), Path::new("dir"));
        assert_eq!(parent_dir(Path::new("/wal.log")), Path::new("/"));
        // The bare name's directory is the working directory, and it syncs.
        sync_parent_dir(Path::new("wal.log")).unwrap();
    }

    #[test]
    fn file_round_trip_create_resume_append() {
        let dir = std::env::temp_dir().join(format!(
            "rrp-wal-log-file-round-trip-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");

        let file = create_log_file(&path).unwrap();
        let mut writer = WalWriter::new(Box::new(FileSink::new(file)), 0);
        writer.append(&WalEvent::Visit { seq: 3 }).unwrap();
        writer.sync().unwrap();
        drop(writer);

        let mut reader = WalTailReader::open(&path).unwrap();
        assert!(matches!(
            reader.poll_next_event().unwrap(),
            WalPoll::Event {
                seq: 0,
                event: WalEvent::Visit { seq: 3 }
            }
        ));
        assert_eq!(reader.poll_next_event().unwrap(), WalPoll::Pending);
        assert_eq!(reader.tail().unwrap(), TailStatus::Clean);
        let (valid, next) = (reader.valid_len(), reader.next_seq().unwrap());

        // Resume where the scan left off and append one more record.
        let file = resume_log_file(&path, valid).unwrap();
        let mut writer = WalWriter::new(Box::new(FileSink::new(file)), next);
        assert_eq!(writer.append(&WalEvent::Visit { seq: 4 }).unwrap(), 1);
        drop(writer);

        let (events, tail, _) = scan_reader(&mut WalTailReader::open(&path).unwrap());
        let seqs: Vec<u64> = events.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, [0, 1]);
        assert_eq!(tail, TailStatus::Clean);

        std::fs::remove_dir_all(&dir).ok();
    }
}
