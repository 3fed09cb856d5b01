//! The append-only log: CRC-framed records, a policy-driven writer,
//! and a reader that maps any crash-cut byte prefix back to the exact
//! record prefix it contains.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! len     u32   payload length in bytes (1 ..= MAX_RECORD_BYTES)
//! crc     u32   CRC-32 (IEEE) of the payload
//! payload len B
//! ```
//!
//! A crash while appending leaves the file ending in zero or more
//! complete frames followed by at most one partial one. The reader
//! walks frames from the start and stops at the **first** framing
//! failure, classifying it as a typed [`WalDefect`]:
//!
//! * fewer than 8 bytes left → [`WalDefect::ShortHeader`];
//! * a `len` of 0 or beyond [`MAX_RECORD_BYTES`] (the header bytes are
//!   garbage, not a truncated frame) → [`WalDefect::BadLength`];
//! * the payload runs past end of file → [`WalDefect::TruncatedPayload`];
//! * the payload is present but its checksum disagrees →
//!   [`WalDefect::BadCrc`].
//!
//! Everything before the failure is trusted; the report says exactly
//! how many bytes and records that is, so recovery can truncate the
//! tail and keep appending after a valid prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::fsutil::fsync_dir;

/// Bytes of frame header preceding every payload (`len` + `crc`).
pub const WAL_FRAME_HEADER: u64 = 8;

/// Upper bound on one record's payload. Far above any real mutation
/// record (the server caps request bodies at 1 MiB); its real job is
/// letting the reader tell *garbage header bytes* apart from a
/// genuinely truncated frame.
pub const MAX_RECORD_BYTES: u64 = 1 << 26; // 64 MiB

// ------------------------------------------------------------- crc32

/// The CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum every frame carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ----------------------------------------------------------- defects

/// The first framing failure a [`WalReader`] hit — each shape of torn
/// or corrupt tail gets its own variant, so tests (and operators) can
/// tell a crash mid-header from a crash mid-payload from bit rot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalDefect {
    /// The file ends with 1–7 bytes — not enough for a frame header
    /// (a crash landed mid-header).
    ShortHeader {
        /// Byte offset where the partial frame starts.
        at: u64,
        /// Header bytes present (1..=7).
        have: u64,
    },
    /// The header's length field is impossible (0, or beyond
    /// [`MAX_RECORD_BYTES`]) — these 8 bytes are garbage, not a frame.
    BadLength {
        /// Byte offset of the bad header.
        at: u64,
        /// The length the header claimed.
        len: u64,
        /// The largest length a frame may claim.
        max: u64,
    },
    /// The header is plausible but the payload runs past end of file
    /// (a crash landed mid-payload).
    TruncatedPayload {
        /// Byte offset of the frame.
        at: u64,
        /// Payload bytes the header promised.
        wanted: u64,
        /// Payload bytes actually present.
        have: u64,
    },
    /// The payload is fully present but fails its checksum (torn
    /// in-place write or bit rot).
    BadCrc {
        /// Byte offset of the frame.
        at: u64,
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload found.
        computed: u32,
    },
}

impl std::fmt::Display for WalDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalDefect::ShortHeader { at, have } => {
                write!(f, "short frame header at byte {at} ({have} of 8 bytes)")
            }
            WalDefect::BadLength { at, len, max } => {
                write!(f, "impossible frame length {len} at byte {at} (max {max})")
            }
            WalDefect::TruncatedPayload { at, wanted, have } => {
                write!(
                    f,
                    "truncated payload at byte {at} ({have} of {wanted} bytes)"
                )
            }
            WalDefect::BadCrc {
                at,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "checksum mismatch at byte {at} (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
        }
    }
}

/// What a scan or replay of a log found: how much of the file is a
/// valid record stream, and — when the tail is torn — the first
/// framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Complete, checksum-valid records found.
    pub records: u64,
    /// Bytes of valid record stream from the start of the file — the
    /// length recovery truncates the log to.
    pub trusted_bytes: u64,
    /// Total bytes in the file.
    pub total_bytes: u64,
    /// The first framing failure past the trusted prefix, or `None`
    /// when the whole file is a clean record stream.
    pub defect: Option<WalDefect>,
}

impl ReplayReport {
    /// Whether the log ends cleanly on a frame boundary.
    pub fn is_clean(&self) -> bool {
        self.defect.is_none()
    }
}

impl std::fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} record(s), {}/{} bytes trusted",
            self.records, self.trusted_bytes, self.total_bytes
        )?;
        match &self.defect {
            None => write!(f, ", clean tail"),
            Some(d) => write!(f, ", torn tail: {d}"),
        }
    }
}

// ------------------------------------------------------------ reader

/// Reads a log written by [`WalWriter`], stopping cleanly at the
/// first framing failure (see the [module docs](self)).
pub struct WalReader;

impl WalReader {
    /// Scans `bytes` without materializing payloads: frame boundaries
    /// and checksums only.
    pub fn scan(bytes: &[u8]) -> ReplayReport {
        let mut report = Self::split(bytes).1;
        report.total_bytes = bytes.len() as u64;
        report
    }

    /// Splits `bytes` into its trusted payloads plus the scan report.
    pub fn split(bytes: &[u8]) -> (Vec<&[u8]>, ReplayReport) {
        let mut payloads = Vec::new();
        let total = bytes.len() as u64;
        let mut pos: u64 = 0;
        let defect = loop {
            let rest = total - pos;
            if rest == 0 {
                break None;
            }
            if rest < WAL_FRAME_HEADER {
                break Some(WalDefect::ShortHeader {
                    at: pos,
                    have: rest,
                });
            }
            let p = pos as usize;
            let len = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap()) as u64;
            let stored = u32::from_le_bytes(bytes[p + 4..p + 8].try_into().unwrap());
            if len == 0 || len > MAX_RECORD_BYTES {
                break Some(WalDefect::BadLength {
                    at: pos,
                    len,
                    max: MAX_RECORD_BYTES,
                });
            }
            let have = rest - WAL_FRAME_HEADER;
            if len > have {
                break Some(WalDefect::TruncatedPayload {
                    at: pos,
                    wanted: len,
                    have,
                });
            }
            let payload = &bytes[p + 8..p + 8 + len as usize];
            let computed = crc32(payload);
            if computed != stored {
                break Some(WalDefect::BadCrc {
                    at: pos,
                    stored,
                    computed,
                });
            }
            payloads.push(payload);
            pos += WAL_FRAME_HEADER + len;
        };
        let report = ReplayReport {
            records: payloads.len() as u64,
            trusted_bytes: pos,
            total_bytes: total,
            defect,
        };
        (payloads, report)
    }

    /// Reads the log at `path` and returns every trusted payload plus
    /// the scan report. A missing file is an error (the durable layer
    /// creates the log before publishing the generation that owns it).
    pub fn read(path: impl AsRef<Path>) -> io::Result<(Vec<Vec<u8>>, ReplayReport)> {
        let bytes = std::fs::read(path)?;
        let (borrowed, report) = Self::split(&bytes);
        Ok((borrowed.into_iter().map(<[u8]>::to_vec).collect(), report))
    }
}

// ------------------------------------------------------------ writer

/// When an append becomes durable (reaches the disk, not just the OS
/// page cache) relative to when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every record — an append that returned is on
    /// disk, so an ack given after it can never be lost. The durable
    /// server's default.
    Always,
    /// **Group commit**: `fsync` once every `n` records (and on
    /// [`WalWriter::sync`]). Amortizes the sync cost over `n` acks; a
    /// crash can lose up to `n - 1` records that were appended but
    /// not yet synced.
    EveryN(u64),
    /// Never `fsync` from the writer; the OS flushes when it pleases.
    /// Only for benchmarks and tests.
    Never,
}

/// Appends CRC-framed records to a log file under a [`SyncPolicy`]
/// (see the [module docs](self) for the frame layout).
///
/// # Failure handling
///
/// A failed or short write (`ENOSPC`, `EIO`) can leave torn bytes
/// after the last complete frame. Were the writer to keep appending
/// past them, the reader — which trusts only the prefix before the
/// first defect — would silently discard every later record on
/// recovery, including fsynced, acked ones. So an append that fails
/// first **rolls the file back** to the last complete frame
/// (truncate + re-seek); if that rollback itself fails, or an `fsync`
/// fails (after which the kernel may have dropped dirty pages while
/// clearing the error), the writer is **poisoned**: every subsequent
/// append and sync fails until the log is reopened, so no record can
/// ever land after bytes recovery will not trust.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    records: u64,
    policy: SyncPolicy,
    /// Records appended since the last fsync.
    unsynced: u64,
    /// Why the writer refuses all further work (a failed write whose
    /// rollback also failed, or a failed fsync). `None` = usable.
    poisoned: Option<String>,
    /// Test hook: write only this many bytes of the next frame, then
    /// fail — simulates `ENOSPC` / a short write mid-frame.
    #[cfg(test)]
    test_write_limit: Option<usize>,
    /// Test hook: make the post-failure rollback fail too, forcing
    /// the poisoned path.
    #[cfg(test)]
    test_fail_rollback: bool,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path`, fsyncing the file
    /// and its parent directory so the empty log itself is durable.
    pub fn create(path: impl AsRef<Path>, policy: SyncPolicy) -> io::Result<WalWriter> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.sync_all()?;
        if let Some(parent) = path.parent() {
            fsync_dir(parent)?;
        }
        Ok(WalWriter {
            file,
            path,
            len: 0,
            records: 0,
            policy,
            unsynced: 0,
            poisoned: None,
            #[cfg(test)]
            test_write_limit: None,
            #[cfg(test)]
            test_fail_rollback: false,
        })
    }

    /// Opens an existing log for appending after its trusted prefix:
    /// the file is truncated to `trusted_bytes` (discarding any torn
    /// tail a crash left) and the cut is fsynced before the first new
    /// append can land. `records` seeds the record counter.
    pub fn open_trusted(
        path: impl AsRef<Path>,
        trusted_bytes: u64,
        records: u64,
        policy: SyncPolicy,
    ) -> io::Result<WalWriter> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(trusted_bytes)?;
        file.sync_all()?;
        let mut writer = WalWriter {
            file,
            path,
            len: trusted_bytes,
            records,
            policy,
            unsynced: 0,
            poisoned: None,
            #[cfg(test)]
            test_write_limit: None,
            #[cfg(test)]
            test_fail_rollback: false,
        };
        writer.file.seek(SeekFrom::Start(trusted_bytes))?;
        Ok(writer)
    }

    /// Appends one record and applies the sync policy. Returns the
    /// file length after the frame — the offset an acked-prefix proof
    /// needs to associate with this record.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let t0 = std::time::Instant::now();
        self.check_usable()?;
        let mut buf = Vec::with_capacity(payload.len() + WAL_FRAME_HEADER as usize);
        Self::frame_into(&mut buf, payload)?;
        self.write_frame(&buf)?;
        self.policy_sync()?;
        let m = crate::obs::wal_metrics();
        m.append_ns.record_duration(t0.elapsed());
        m.records.inc();
        m.bytes.set(self.len.min(i64::MAX as u64) as i64);
        Ok(self.len)
    }

    /// Whether a prior failure poisoned the writer (see the type
    /// docs); a poisoned writer fails every append and sync until the
    /// log is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    fn check_usable(&self) -> io::Result<()> {
        match &self.poisoned {
            Some(why) => Err(io::Error::other(format!(
                "write-ahead log writer is poisoned by an earlier failure: {why}"
            ))),
            None => Ok(()),
        }
    }

    /// Writes one framed record, advancing the counters only once
    /// every byte landed. On failure the file may hold a torn partial
    /// frame after `self.len`; see [`WalWriter::rollback_or_poison`].
    fn write_frame(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Err(e) = self.raw_write(buf) {
            return Err(self.rollback_or_poison(e));
        }
        self.len += buf.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        Ok(())
    }

    fn raw_write(&mut self, buf: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(limit) = self.test_write_limit {
            let n = limit.min(buf.len());
            self.file.write_all(&buf[..n])?;
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated short write (disk full)",
            ));
        }
        self.file.write_all(buf)
    }

    /// Restores the end-on-a-frame-boundary invariant after a failed
    /// write: truncate back to the last complete frame and re-seek so
    /// the next append lands where recovery's trust ends. If the
    /// rollback itself fails the torn bytes stay on disk, so the
    /// writer is poisoned — appending after them would put records
    /// past the defect, where recovery silently discards them.
    fn rollback_or_poison(&mut self, cause: io::Error) -> io::Error {
        match self.try_rollback() {
            Ok(()) => cause,
            Err(r) => {
                self.poisoned = Some(format!("{cause}; rollback failed: {r}"));
                io::Error::new(
                    cause.kind(),
                    format!("{cause}; log writer poisoned (rollback failed: {r})"),
                )
            }
        }
    }

    fn try_rollback(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if self.test_fail_rollback {
            return Err(io::Error::other("simulated rollback failure"));
        }
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        Ok(())
    }

    fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() || payload.len() as u64 > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record payload of {} bytes outside 1..={MAX_RECORD_BYTES}",
                    payload.len()
                ),
            ));
        }
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        Ok(())
    }

    fn policy_sync(&mut self) -> io::Result<()> {
        match self.policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }

    /// Forces everything appended so far onto the disk. A failed
    /// fsync **poisons** the writer: the kernel may have dropped the
    /// dirty pages while clearing the error, so nothing appended since
    /// the last successful sync can be trusted, and no rollback can
    /// repair that — the log must be reopened (which truncates to the
    /// trusted prefix) before any further append.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_usable()?;
        if self.unsynced > 0 {
            let t0 = std::time::Instant::now();
            if let Err(e) = self.file.sync_data() {
                self.poisoned = Some(format!("fsync failed: {e}"));
                return Err(e);
            }
            crate::obs::wal_metrics()
                .fsync_ns
                .record_duration(t0.elapsed());
            self.unsynced = 0;
        }
        Ok(())
    }

    /// File length in bytes (every byte up to here is a complete
    /// frame).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no record has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records appended over the log's lifetime (including any the
    /// writer was seeded with by [`WalWriter::open_trusted`]).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The writer's sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gdim-wal-frame-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn records() -> Vec<Vec<u8>> {
        vec![b"alpha".to_vec(), vec![0u8; 300], b"z".to_vec()]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_read_roundtrip_and_offsets() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let mut ends = Vec::new();
        for r in records() {
            ends.push(w.append(&r).unwrap());
        }
        assert_eq!(w.records(), 3);
        assert_eq!(*ends.last().unwrap(), w.len());
        let (payloads, report) = WalReader::read(&path).unwrap();
        assert_eq!(payloads, records());
        assert!(report.is_clean());
        assert_eq!(report.records, 3);
        assert_eq!(report.trusted_bytes, w.len());
        assert_eq!(report.total_bytes, w.len());
    }

    #[test]
    fn empty_and_oversized_payloads_are_rejected() {
        let path = tmp("reject");
        let mut w = WalWriter::create(&path, SyncPolicy::Never).unwrap();
        assert!(w.append(b"").is_err());
        assert_eq!(w.len(), 0, "a rejected append writes nothing");
    }

    #[test]
    fn short_header_is_a_distinct_defect() {
        let path = tmp("short-header");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let end = w.append(b"whole").unwrap();
        // A crash that wrote 3 bytes of the next header.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0]);
        let report = WalReader::scan(&bytes);
        assert_eq!(report.records, 1);
        assert_eq!(report.trusted_bytes, end);
        assert_eq!(
            report.defect,
            Some(WalDefect::ShortHeader { at: end, have: 3 })
        );
    }

    #[test]
    fn truncated_payload_is_a_distinct_defect() {
        let path = tmp("truncated");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let end = w.append(b"first").unwrap();
        w.append(&[7u8; 64]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut 10 bytes into the second frame's payload.
        let cut = (end + WAL_FRAME_HEADER + 10) as usize;
        let report = WalReader::scan(&bytes[..cut]);
        assert_eq!(report.records, 1);
        assert_eq!(report.trusted_bytes, end);
        assert_eq!(
            report.defect,
            Some(WalDefect::TruncatedPayload {
                at: end,
                wanted: 64,
                have: 10,
            })
        );
    }

    #[test]
    fn bad_crc_is_a_distinct_defect() {
        let path = tmp("badcrc");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let end = w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record.
        let at = (end + WAL_FRAME_HEADER) as usize;
        bytes[at] ^= 0xFF;
        let report = WalReader::scan(&bytes);
        assert_eq!(report.records, 1);
        assert_eq!(report.trusted_bytes, end);
        assert!(
            matches!(report.defect, Some(WalDefect::BadCrc { at, .. }) if at == end),
            "{:?}",
            report.defect
        );
    }

    #[test]
    fn trailing_garbage_is_a_distinct_defect() {
        let path = tmp("garbage");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let end = w.append(b"first").unwrap();
        // 0xFF garbage decodes as an impossible length, not as a
        // truncated frame.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF; 16]);
        let report = WalReader::scan(&bytes);
        assert_eq!(report.records, 1);
        assert_eq!(report.trusted_bytes, end);
        assert_eq!(
            report.defect,
            Some(WalDefect::BadLength {
                at: end,
                len: u32::MAX as u64,
                max: MAX_RECORD_BYTES,
            })
        );
        // A zero length field is garbage too (frames are never empty).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            WalReader::scan(&bytes).defect,
            Some(WalDefect::BadLength { len: 0, .. })
        ));
    }

    #[test]
    fn open_trusted_truncates_the_torn_tail_and_appends_cleanly() {
        let path = tmp("open-trusted");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        w.append(b"keep-me").unwrap();
        let end = w.append(b"keep-me-too").unwrap();
        drop(w);
        // Simulate a crash mid-append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[3, 0, 0, 0, 1]);
        std::fs::write(&path, &bytes).unwrap();
        let report = WalReader::scan(&std::fs::read(&path).unwrap());
        assert_eq!(report.trusted_bytes, end);
        let mut w = WalWriter::open_trusted(
            &path,
            report.trusted_bytes,
            report.records,
            SyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(w.len(), end);
        w.append(b"after-recovery").unwrap();
        let (payloads, report) = WalReader::read(&path).unwrap();
        assert!(report.is_clean());
        assert_eq!(
            payloads,
            vec![
                b"keep-me".to_vec(),
                b"keep-me-too".to_vec(),
                b"after-recovery".to_vec()
            ]
        );
    }

    #[test]
    fn group_commit_counts_appends_between_syncs() {
        let path = tmp("group");
        let mut w = WalWriter::create(&path, SyncPolicy::EveryN(3)).unwrap();
        for _ in 0..7 {
            w.append(b"r").unwrap();
        }
        // 7 appends → syncs after 3 and 6; one record pending.
        assert_eq!(w.unsynced, 1);
        w.sync().unwrap();
        assert_eq!(w.unsynced, 0);
        assert_eq!(w.records(), 7);
        let (payloads, report) = WalReader::read(&path).unwrap();
        assert!(report.is_clean());
        assert_eq!(payloads.len(), 7);
    }

    #[test]
    fn failed_append_rolls_back_torn_bytes_and_writer_stays_usable() {
        let path = tmp("enospc-rollback");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let end = w.append(b"durable").unwrap();
        // The next frame dies 3 bytes in (simulated ENOSPC): the torn
        // bytes must be truncated away and the counters untouched.
        w.test_write_limit = Some(3);
        let err = w.append(b"lost-to-full-disk").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!((w.len(), w.records()), (end, 1));
        assert!(!w.is_poisoned());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end);
        // Once the disk recovers, the writer appends cleanly after the
        // last complete frame — no gap, no torn bytes, no lost suffix.
        w.test_write_limit = None;
        w.append(b"after-the-outage").unwrap();
        let (payloads, report) = WalReader::read(&path).unwrap();
        assert!(report.is_clean());
        assert_eq!(
            payloads,
            vec![b"durable".to_vec(), b"after-the-outage".to_vec()]
        );
    }

    #[test]
    fn failed_rollback_poisons_the_writer_until_reopen() {
        let path = tmp("poison");
        let mut w = WalWriter::create(&path, SyncPolicy::Always).unwrap();
        let end = w.append(b"acked").unwrap();
        // A short write whose rollback also fails leaves torn bytes on
        // disk; every later append must fail, or it would land past
        // the defect and be silently discarded by recovery.
        w.test_write_limit = Some(3);
        w.test_fail_rollback = true;
        assert!(w.append(b"torn").is_err());
        assert!(w.is_poisoned());
        w.test_write_limit = None;
        w.test_fail_rollback = false;
        assert!(w.append(b"must-not-land").is_err(), "poisoned append");
        assert!(w.sync().is_err(), "poisoned sync");
        // The trusted prefix is exactly the acked records; nothing was
        // written after the torn bytes.
        let report = WalReader::scan(&std::fs::read(&path).unwrap());
        assert_eq!(report.records, 1);
        assert_eq!(report.trusted_bytes, end);
        assert_eq!(
            report.defect,
            Some(WalDefect::ShortHeader { at: end, have: 3 })
        );
        // Reopening on the trusted prefix yields a healthy writer.
        let mut w = WalWriter::open_trusted(
            &path,
            report.trusted_bytes,
            report.records,
            SyncPolicy::Always,
        )
        .unwrap();
        w.append(b"recovered").unwrap();
        let (payloads, report) = WalReader::read(&path).unwrap();
        assert!(report.is_clean());
        assert_eq!(payloads, vec![b"acked".to_vec(), b"recovered".to_vec()]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary logs, and a valid log with junk appended, one byte
        /// flipped, one 4-byte window rewritten to a boundary or random
        /// value, or cut short: `split` trusts at most the input, one
        /// record per payload, and re-framing the trusted payloads
        /// (`len · crc32 · payload`) reproduces the trusted bytes.
        #[test]
        fn hostile_logs_split_into_a_reframable_prefix(
            kind in 0u8..5,
            junk in prop::collection::vec(any::<u8>(), 0..96),
            at in any::<prop::sample::Index>(),
            pick in 0usize..7,
            word in any::<u64>(),
        ) {
            let mut valid = Vec::new();
            for r in records() {
                WalWriter::frame_into(&mut valid, &r).unwrap();
            }
            let bytes = match kind {
                0 => junk,
                1 => [&valid[..], &junk].concat(),
                2 => {
                    let mut b = valid.clone();
                    b[at.index(valid.len())] ^= (word >> 8) as u8 | 1;
                    b
                }
                3 => {
                    let off = at.index(valid.len() - 3);
                    let old = u32::from_le_bytes(valid[off..off + 4].try_into().unwrap());
                    let len = valid.len() as u32;
                    let new = [0, 1, u32::MAX, len, old.wrapping_add(1), old.wrapping_sub(1), word as u32][pick];
                    let mut b = valid.clone();
                    b[off..off + 4].copy_from_slice(&new.to_le_bytes());
                    b
                }
                _ => valid[..at.index(valid.len() + 1)].to_vec(),
            };
            let (payloads, report) = WalReader::split(&bytes);
            prop_assert!(report.trusted_bytes <= bytes.len() as u64);
            prop_assert_eq!(report.records, payloads.len() as u64);
            let mut reframed = Vec::new();
            for p in &payloads {
                WalWriter::frame_into(&mut reframed, p).unwrap();
            }
            prop_assert!(reframed[..] == bytes[..report.trusted_bytes as usize]);
        }
    }

    #[test]
    fn every_byte_cut_recovers_a_frame_prefix() {
        // The heart of the crash-cut contract, exhaustively at the
        // frame layer: for EVERY byte offset, the scan of the prefix
        // trusts exactly the complete frames before the cut, and
        // flags a defect iff the cut is not on a frame boundary.
        let path = tmp("cuts");
        let mut w = WalWriter::create(&path, SyncPolicy::Never).unwrap();
        let mut ends = vec![0u64];
        for r in records() {
            ends.push(w.append(&r).unwrap());
        }
        w.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..=bytes.len() as u64 {
            let report = WalReader::scan(&bytes[..cut as usize]);
            let expect_trusted = *ends.iter().rfind(|&&e| e <= cut).unwrap();
            let expect_records = ends.iter().filter(|&&e| e > 0 && e <= cut).count() as u64;
            assert_eq!(report.trusted_bytes, expect_trusted, "cut at {cut}");
            assert_eq!(report.records, expect_records, "cut at {cut}");
            assert_eq!(
                report.defect.is_some(),
                !ends.contains(&cut),
                "cut at {cut}: {:?}",
                report.defect
            );
        }
    }
}
