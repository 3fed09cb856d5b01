//! Sharded persistence: a directory holding one **manifest** (the
//! shard layout, sequence numbers, and rebuild bases) plus one
//! versioned v3 index file per shard (written by
//! [`GraphIndex::save`](gdim_core::GraphIndex::save), so each shard
//! file is independently loadable and inspectable).
//!
//! Layout of manifest format **v1** (all integers little-endian):
//!
//! ```text
//! magic      8 B  b"GDIMSHRD"
//! version    u32  1
//! shards     u64  shard count N (≥ 1)
//! shard_bits u32  high bits of a composed GraphId (must match N)
//! next_seq   u64  next global insertion sequence number
//! stamp      u64  monotone event stamp (rebuild-basis clock)
//! per shard: muts u64 (last-mutation stamp) ·
//!            seq count u64 · ascending row sequence numbers u64*
//! ```
//!
//! Save → load → save reproduces **byte-identical** files (manifest
//! and every shard file), and a reloaded index answers byte-
//! identically — the per-shard derived state is rebuilt
//! deterministically exactly like single-index persistence. The exec
//! budget is deliberately not persisted (it belongs to the serving
//! machine); set it after loading with
//! [`ShardedIndex::set_exec`](crate::ShardedIndex::set_exec).
//! Structural defects surface as [`GdimError::Corrupt`], never a
//! panic.

use std::path::Path;

use gdim_core::{GdimError, GraphIndex};

use crate::sharded::{Shard, ShardedIndex};

const MAGIC: [u8; 8] = *b"GDIMSHRD";
const VERSION: u32 = 1;

/// Name of the manifest file inside a saved directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// File name of shard `s`'s index inside a saved directory.
pub(crate) fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.idx")
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], GdimError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                GdimError::Corrupt(format!(
                    "manifest truncated: wanted {n} bytes at offset {}, file has {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, GdimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, GdimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix, sanity-capped by the file size (each counted
    /// element is ≥ 8 encoded bytes).
    fn len(&mut self) -> Result<usize, GdimError> {
        let v = self.u64()?;
        if v > self.buf.len() as u64 {
            return Err(GdimError::Corrupt(format!(
                "manifest length {v} exceeds file size {}",
                self.buf.len()
            )));
        }
        Ok(v as usize)
    }
}

impl ShardedIndex {
    /// Serializes the manifest (layout in the [module docs](self)).
    pub fn manifest_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        put_u64(&mut buf, self.shard_count() as u64);
        put_u32(&mut buf, self.shard_bits());
        put_u64(&mut buf, self.next_seq());
        put_u64(&mut buf, self.stamp());
        for (s, shard) in self.shards().iter().enumerate() {
            put_u64(&mut buf, self.muts()[s]);
            put_u64(&mut buf, shard.seqs.len() as u64);
            for &seq in &shard.seqs {
                put_u64(&mut buf, seq);
            }
        }
        buf
    }

    /// Saves the index into `dir` (created if missing): the manifest
    /// plus one v3 index file per shard. Re-saving an unchanged index
    /// reproduces every file byte-identically.
    ///
    /// Every file is published **crash-safely** (temp file → fsync →
    /// rename → fsync parent directory), so a crash mid-save never
    /// clobbers a previous good snapshot. Shard files land before the
    /// manifest: a directory with a complete manifest always has all
    /// the shard files it references.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), GdimError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (s, shard) in self.shards().iter().enumerate() {
            shard.index.save(dir.join(shard_file(s)))?;
        }
        gdim_wal::fsutil::write_atomic(dir.join(MANIFEST_FILE), &self.manifest_bytes())?;
        Ok(())
    }

    /// Loads a directory written by [`ShardedIndex::save_dir`],
    /// rebuilding each shard's derived state deterministically — the
    /// reloaded index answers byte-identically to the saved one. The
    /// exec budget defaults to
    /// [`ExecConfig::default`](gdim_exec::ExecConfig::default);
    /// override with [`ShardedIndex::set_exec`].
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<ShardedIndex, GdimError> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
        let mut r = Reader {
            buf: &bytes,
            pos: 0,
        };
        if r.take(8)? != MAGIC {
            return Err(GdimError::Corrupt(
                "bad magic (not a gdim shard manifest)".into(),
            ));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(GdimError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let shard_count = r.len()?;
        if shard_count == 0 {
            return Err(GdimError::Corrupt("manifest declares zero shards".into()));
        }
        let shard_bits = r.u32()?;
        let expected_bits = (shard_count.max(1) as u32)
            .next_power_of_two()
            .trailing_zeros();
        if shard_bits != expected_bits {
            return Err(GdimError::Corrupt(format!(
                "shard_bits {shard_bits} inconsistent with {shard_count} shards \
                 (expected {expected_bits})"
            )));
        }
        let next_seq = r.u64()?;
        let stamp = r.u64()?;
        let mut muts = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let m = r.u64()?;
            if m > stamp {
                return Err(GdimError::Corrupt(format!(
                    "shard {s} mutation stamp {m} exceeds the index stamp {stamp}"
                )));
            }
            muts.push(m);
            let count = r.len()?;
            let mut seqs = Vec::with_capacity(count.min(4096));
            let mut prev: Option<u64> = None;
            for _ in 0..count {
                let seq = r.u64()?;
                if seq >= next_seq {
                    return Err(GdimError::Corrupt(format!(
                        "shard {s} row sequence {seq} not below next_seq {next_seq}"
                    )));
                }
                if prev.is_some_and(|p| seq <= p) {
                    return Err(GdimError::Corrupt(format!(
                        "shard {s} row sequences not strictly ascending at {seq}"
                    )));
                }
                prev = Some(seq);
                seqs.push(seq);
            }
            let index = GraphIndex::load(dir.join(shard_file(s)))?;
            if index.len() != seqs.len() {
                return Err(GdimError::Corrupt(format!(
                    "shard {s} holds {} rows but the manifest lists {} sequences",
                    index.len(),
                    seqs.len()
                )));
            }
            shards.push(Shard { index, seqs });
        }
        if r.pos != bytes.len() {
            return Err(GdimError::Corrupt(format!(
                "{} trailing bytes after the manifest payload",
                bytes.len() - r.pos
            )));
        }
        // Every shard must share the selection the scatter-gather
        // contract relies on — and then needs one code tree, not one
        // per shard file.
        let (first, rest) = shards.split_first_mut().expect("at least one shard");
        for (s, shard) in rest.iter_mut().enumerate() {
            if !shard.index.share_mapper_of(&first.index) {
                return Err(GdimError::Corrupt(format!(
                    "shard {} selected different dimensions than shard 0",
                    s + 1
                )));
            }
        }
        Ok(ShardedIndex::from_loaded(
            shards, shard_bits, next_seq, stamp, muts,
        ))
    }
}
