//! Sharded persistence: a directory holding one **manifest** (the
//! shard layout, sequence numbers, and rebuild bases) plus one
//! versioned v4 index file per shard (written by
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
//! The bytes are written and read with the shared
//! [`gdim_wal::codec`]; both counts obey the count rule of
//! [`Reader::count`](gdim_wal::codec::Reader::count). Structural
//! defects surface as [`GdimError::Corrupt`], never a panic.

use std::path::Path;

use gdim_core::{GdimError, GraphIndex};
use gdim_wal::codec::{put_count, put_u32, put_u64, Reader, Width};

use crate::sharded::{Shard, ShardedIndex};

const MAGIC: [u8; 8] = *b"GDIMSHRD";
const VERSION: u32 = 1;

/// Name of the manifest file inside a saved directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// File name of shard `s`'s index inside a saved directory.
pub(crate) fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.idx")
}

impl ShardedIndex {
    /// Serializes the manifest (layout in the [module docs](self)).
    pub fn manifest_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        put_count(&mut buf, self.shard_count(), Width::U64);
        put_u32(&mut buf, self.shard_bits());
        put_u64(&mut buf, self.next_seq());
        put_u64(&mut buf, self.stamp());
        for (s, shard) in self.shards().iter().enumerate() {
            put_u64(&mut buf, self.muts()[s]);
            put_count(&mut buf, shard.seqs.len(), Width::U64);
            for &seq in &shard.seqs {
                put_u64(&mut buf, seq);
            }
        }
        buf
    }

    /// Saves the index into `dir` (created if missing): the manifest
    /// plus one v4 index file per shard. Re-saving an unchanged index
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
        let mut r = Reader::new(&bytes);
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
        // A shard entry takes at least its stamp and its sequence count.
        let shard_count = r.count(Width::U64, 16)?;
        if shard_count == 0 {
            return Err(GdimError::Corrupt("manifest declares zero shards".into()));
        }
        let shard_bits = r.u32()?;
        let expected_bits = shard_count.next_power_of_two().trailing_zeros();
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
            let seqs = r.list(Width::U64, 8, Reader::u64)?;
            if let Some(seq) = seqs.iter().find(|&&seq| seq >= next_seq) {
                return Err(GdimError::Corrupt(format!(
                    "shard {s} row sequence {seq} not below next_seq {next_seq}"
                )));
            }
            if let Some(w) = seqs.windows(2).find(|w| w[1] <= w[0]) {
                return Err(GdimError::Corrupt(format!(
                    "shard {s} row sequences not strictly ascending at {}",
                    w[1]
                )));
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
        r.finish()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    use gdim_core::{Graph, IndexOptions, SearchRequest};

    use crate::ShardedOptions;

    fn chem(n: usize, seed: u64) -> Vec<Graph> {
        gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed)
    }

    /// A saved 3-shard index grown by one insert and one remove (so the
    /// shards differ in row count and mutation stamp), and its manifest.
    fn saved() -> &'static (PathBuf, Vec<u8>) {
        static SAVED: OnceLock<(PathBuf, Vec<u8>)> = OnceLock::new();
        SAVED.get_or_init(|| {
            let opts =
                ShardedOptions::new(3).with_index(IndexOptions::default().with_dimensions(8));
            let mut idx = ShardedIndex::build(chem(9, 3), opts);
            idx.insert(chem(1, 4).remove(0));
            idx.remove(idx.id_for_seq(2).unwrap()).unwrap();
            let dir =
                std::env::temp_dir().join(format!("gdim-hostile-manifest-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            idx.save_dir(&dir).unwrap();
            let back = ShardedIndex::load_dir(&dir).unwrap();
            assert_eq!(back.manifest_bytes(), idx.manifest_bytes());
            (dir, idx.manifest_bytes())
        })
    }

    /// Writes `manifest` beside the saved shard files and loads them.
    fn load(manifest: &[u8]) -> Result<ShardedIndex, GdimError> {
        let dir = &saved().0;
        std::fs::write(dir.join(MANIFEST_FILE), manifest)?;
        ShardedIndex::load_dir(dir)
    }

    /// `(offset, width)` of every integer field of a valid manifest.
    fn fields(valid: &[u8]) -> Vec<(usize, usize)> {
        let word = |at: usize| u64::from_le_bytes(valid[at..at + 8].try_into().unwrap());
        let mut out = vec![(8, 4), (12, 8), (20, 4), (24, 8), (32, 8)];
        let mut pos = 40;
        for _ in 0..word(12) {
            let count = word(pos + 8) as usize;
            out.extend([(pos, 8), (pos + 8, 8)]);
            out.extend((0..count).map(|i| (pos + 16 + 8 * i, 8)));
            pos += 16 + 8 * count;
        }
        assert_eq!(pos, valid.len(), "the walk covers the whole manifest");
        out
    }

    /// The literal manifest of a 2-shard index grown by one insert and
    /// one remove. A round trip cannot see a change made the same way
    /// to the encoder and the decoder; this can.
    #[test]
    fn manifest_bytes_are_pinned() {
        let opts = ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(8));
        let mut idx = ShardedIndex::build(chem(6, 3), opts);
        idx.insert(chem(1, 4).remove(0));
        idx.remove(idx.id_for_seq(2).unwrap()).unwrap();
        let le = |v: u64| v.to_le_bytes();
        let expected: Vec<u8> = [
            &b"GDIMSHRD"[..],
            &1u32.to_le_bytes(), // version
            &le(2),              // shards
            &1u32.to_le_bytes(), // shard_bits
            &le(7),              // next_seq
            &le(2),              // stamp
            &le(2),              // shard 0: muts
            &le(4),              //          seq count
            &[le(0), le(1), le(2), le(6)].concat(),
            &le(0), // shard 1: muts
            &le(3), //          seq count
            &[le(3), le(4), le(5)].concat(),
        ]
        .concat();
        assert_eq!(expected.len(), 128);
        assert_eq!(idx.manifest_bytes(), expected);
    }

    /// Hostile bytes in the MANIFEST — arbitrary ones, arbitrary ones
    /// behind a valid magic and version, a valid manifest with one
    /// byte flipped, or with one integer field (a count, a length,
    /// a stamp, a sequence number) rewritten to a boundary or random
    /// value — load or fail with a typed error, never panic, and an
    /// index that loads answers a search.
    #[test]
    fn hostile_manifests_load_or_fail_typed() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            fn cases(
                kind in 0u8..4,
                junk in prop::collection::vec(any::<u8>(), 0..96),
                at in any::<prop::sample::Index>(),
                pick in 0usize..8,
                word in any::<u64>(),
            ) {
                let valid = &saved().1;
                let bytes = match kind {
                    0 => junk,
                    1 => [&MAGIC[..], &VERSION.to_le_bytes()[..], &junk].concat(),
                    2 => {
                        let mut b = valid.clone();
                        b[at.index(valid.len())] ^= (word as u8) | 1;
                        b
                    }
                    _ => {
                        let fields = fields(valid);
                        let (off, width) = fields[at.index(fields.len())];
                        let mut old = [0u8; 8];
                        old[..width].copy_from_slice(&valid[off..off + width]);
                        let old = u64::from_le_bytes(old);
                        let len = valid.len() as u64;
                        let new = [0, 1, u64::MAX, len, len / 16, old + 1, old.wrapping_sub(1), word][pick];
                        let mut b = valid.clone();
                        b[off..off + width].copy_from_slice(&new.to_le_bytes()[..width]);
                        b
                    }
                };
                match load(&bytes) {
                    Ok(idx) => {
                        let q = chem(1, 5).remove(0);
                        prop_assert!(idx.search(&q, &SearchRequest::new(3)).is_ok());
                    }
                    Err(e) => prop_assert!(
                        matches!(
                            e,
                            GdimError::Corrupt(_) | GdimError::UnsupportedVersion { .. } | GdimError::Io(_)
                        ),
                        "kind {}: unexpected error {:?}", kind, e
                    ),
                }
            }
        }
        cases();
        std::fs::remove_dir_all(&saved().0).ok();
    }
}
