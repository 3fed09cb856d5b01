//! # gdim-wal — durability primitives for the serving stack
//!
//! Everything the workspace needs to make acked mutations survive a
//! crash, with no dependencies beyond `std` and the workspace's own
//! zero-dependency `gdim-obs` (which meters every append and fsync
//! into the process-wide metrics registry):
//!
//! * [`fsutil`] — crash-safe file plumbing: [`fsutil::write_atomic`]
//!   (write temp → fsync file → rename → fsync parent directory, so a
//!   crash mid-save never clobbers the previous good file) and
//!   [`fsutil::fsync_dir`].
//! * [`frame`] — the append-only log itself: every record travels in a
//!   CRC-framed envelope (`len · crc32 · payload`), appended by
//!   [`WalWriter`] under a configurable [`SyncPolicy`]
//!   (fsync-per-record, group commit, or none) and read back by
//!   [`WalReader`], which stops **cleanly** at a torn or truncated
//!   tail — the expected disk state after a crash mid-append — and
//!   reports exactly how many bytes it trusted plus a typed
//!   [`WalDefect`] naming the first framing failure.
//! * [`record`] — the mutation schema logged by the durable serving
//!   layer: [`WalRecord::Insert`] / [`WalRecord::Remove`], encoded
//!   compactly and decoded with typed errors.
//! * [`codec`] — the one byte codec every durable format is written
//!   and read with (WAL records here, the index snapshot in
//!   `gdim-core`, the shard MANIFEST in `gdim-shard`): `put_*`
//!   writers, one graph encoding, and one bounds-checked
//!   [`codec::Reader`] that trusts a count only once the bytes behind
//!   it exist ([`codec::Reader::count`]).
//!
//! The framing contract is what makes crash recovery provable: a
//! writer that fsyncs a record before acking it guarantees the acked
//! prefix of the log survives any crash as a *byte* prefix of the
//! file, and [`WalReader::scan`] maps any byte prefix back to the
//! exact record prefix it contains (partial trailing frames are
//! detected by length or CRC and discarded). The crash-cut proptests
//! in the workspace root pin this end to end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod fsutil;
pub(crate) mod obs;
pub mod record;

pub use frame::{
    ReplayReport, SyncPolicy, WalDefect, WalReader, WalWriter, MAX_RECORD_BYTES, WAL_FRAME_HEADER,
};
pub use record::{RecordError, WalRecord};
