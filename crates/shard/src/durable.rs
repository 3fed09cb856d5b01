//! [`DurableHandle`]: crash-safe serving — every acked mutation is
//! logged before the caller hears about it, and under
//! [`SyncPolicy::Always`] it is also fsynced first, so a process
//! death at any instant loses nothing that was acked. Group-commit
//! policies ([`SyncPolicy::EveryN`]/[`SyncPolicy::Never`]) trade that
//! edge away: an ack precedes the fsync, so a crash can lose the
//! last few acked-but-unsynced mutations in exchange for throughput.
//!
//! # Directory layout
//!
//! A durable directory is a log-structured store with exactly one
//! publication point:
//!
//! ```text
//! CURRENT          ASCII decimal generation number + '\n'
//! gen-NNNNNN/      checkpoint: one ShardedIndex::save_dir output
//!                  (MANIFEST + shard-NNNN.idx v4 files)
//! wal-NNNNNN.log   CRC-framed write-ahead log of mutations acked
//!                  AFTER generation NNNNNN was cut
//! ```
//!
//! `CURRENT` is replaced atomically (temp + rename + directory fsync),
//! so a reader of the directory always sees a complete generation: the
//! checkpoint directory and its (possibly empty) log both exist before
//! `CURRENT` ever names them, and stale generations are garbage, not
//! state.
//!
//! # Mutation protocol (log before apply)
//!
//! [`DurableHandle::insert`] and [`DurableHandle::remove`] hold one
//! durable lock across *log → fsync (per [`SyncPolicy`]) → apply to
//! the [`ServingHandle`] master → ack*, so the log's record order is
//! exactly the order mutations hit the index. Replay determinism
//! follows: [`ShardedIndex::insert`] routes to the least-loaded shard
//! with lowest-id tie-breaks and removes tombstone idempotently, so
//! re-applying the same record prefix to the same checkpoint
//! reproduces the same ids, sequence numbers, and answers, bit for
//! bit. Readers never touch the durable lock — searches stay
//! lock-free while a checkpoint folds in the background.
//!
//! # Recovery
//!
//! [`DurableHandle::open`] loads the generation `CURRENT` names,
//! replays the log's trusted prefix on top, truncates any torn tail a
//! crash left (the expected disk state after dying mid-append), and
//! resumes appending. Damage *within* what should be trusted — a
//! checkpoint that fails validation, a CRC-valid record that does not
//! decode or apply — surfaces as the typed errors
//! [`GdimError::CorruptCheckpoint`] and [`GdimError::TornLog`], never
//! a panic. [`DurableHandle::verify`] runs the same recovery read-only
//! and reports what it found without modifying the directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gdim_core::{GdimError, Graph, GraphId};
use gdim_wal::fsutil::{fsync_dir, write_atomic};
use gdim_wal::{SyncPolicy, WalDefect, WalReader, WalRecord, WalWriter};

use crate::obs::write_metrics;
use crate::serving::ServingHandle;
use crate::sharded::ShardedIndex;

/// Name of the generation pointer file inside a durable directory.
pub const CURRENT_FILE: &str = "CURRENT";

/// Directory name of checkpoint generation `g`.
pub fn generation_dir(g: u64) -> String {
    format!("gen-{g:06}")
}

/// File name of generation `g`'s write-ahead log.
pub fn wal_file(g: u64) -> String {
    format!("wal-{g:06}.log")
}

/// What [`DurableHandle::open`] (or [`DurableHandle::verify`]) found
/// on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint generation that was loaded.
    pub generation: u64,
    /// Acked mutations replayed from the log on top of the checkpoint.
    pub wal_records: u64,
    /// Log bytes that formed a valid record stream.
    pub wal_bytes_trusted: u64,
    /// Total log bytes found (`> wal_bytes_trusted` iff the tail was
    /// torn).
    pub wal_bytes_total: u64,
    /// The torn-tail defect, when the log did not end on a frame
    /// boundary — expected after a crash mid-append, and harmless:
    /// everything before it was trusted, nothing past it was ever
    /// acked.
    pub tail: Option<WalDefect>,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation {}, {} log record(s) replayed, {}/{} log bytes trusted",
            self.generation, self.wal_records, self.wal_bytes_trusted, self.wal_bytes_total
        )?;
        match &self.tail {
            None => write!(f, ", clean tail"),
            Some(d) => write!(f, ", torn tail discarded ({d})"),
        }
    }
}

/// State serialized by the durable lock: the log writer and the
/// generation it belongs to.
struct DurableState {
    generation: u64,
    writer: WalWriter,
    /// Why the handle refuses mutations (a failure that left the
    /// in-memory index ahead of the durably published state, e.g. a
    /// rebuild whose checkpoint failed). `None` = healthy.
    poisoned: Option<String>,
}

/// Everything the handle's clones share: the durable directory, the
/// lock-serialized mutation state, and lock-free mirrors of the
/// generation/log counters so `/stats`-style polling never blocks
/// behind a checkpoint holding the durable lock for a full index save.
struct DurableShared {
    dir: PathBuf,
    state: Mutex<DurableState>,
    generation: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
}

/// See the [`lock`](crate::serving) rationale: protected values are
/// plain data, and serving must not cascade one panicked writer.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A crash-safe [`ServingHandle`]: mutations are written to a
/// write-ahead log (and fsynced per the [`SyncPolicy`]) **before**
/// they are applied and acked, and [`DurableHandle::checkpoint`] folds
/// the log into a new snapshot generation (see the
/// [module docs](self) for the on-disk layout and protocol).
///
/// Cloneable and thread-safe; all clones share one durable directory
/// and one serving runtime. Route **every** mutation through the
/// durable methods — mutating the inner [`ServingHandle`] directly
/// would apply changes the log never heard about, and a recovery
/// would lose them.
#[derive(Clone)]
pub struct DurableHandle {
    serving: ServingHandle,
    shared: Arc<DurableShared>,
}

impl std::fmt::Debug for DurableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableHandle")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl DurableHandle {
    /// Creates a fresh durable directory holding `index` as generation
    /// 0 with an empty log, and starts serving it. Fails with
    /// [`io::ErrorKind::AlreadyExists`](std::io::ErrorKind) if the
    /// directory is already a durable store — use
    /// [`DurableHandle::open`] for those.
    pub fn create(
        dir: impl AsRef<Path>,
        index: ShardedIndex,
        policy: SyncPolicy,
    ) -> Result<DurableHandle, GdimError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if dir.join(CURRENT_FILE).exists() {
            return Err(GdimError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a durable index", dir.display()),
            )));
        }
        index.save_dir(dir.join(generation_dir(0)))?;
        fsync_dir(dir)?;
        let writer = WalWriter::create(dir.join(wal_file(0)), policy)?;
        write_atomic(dir.join(CURRENT_FILE), b"0\n")?;
        Ok(Self::assemble(dir.to_path_buf(), 0, writer, index))
    }

    /// Builds the handle, seeding the lock-free counter mirrors from
    /// the writer's state.
    fn assemble(
        dir: PathBuf,
        generation: u64,
        writer: WalWriter,
        index: ShardedIndex,
    ) -> DurableHandle {
        DurableHandle {
            serving: ServingHandle::new(index),
            shared: Arc::new(DurableShared {
                dir,
                generation: AtomicU64::new(generation),
                wal_records: AtomicU64::new(writer.records()),
                wal_bytes: AtomicU64::new(writer.len()),
                state: Mutex::new(DurableState {
                    generation,
                    writer,
                    poisoned: None,
                }),
            }),
        }
    }

    /// Whether `dir` holds a durable index (its `CURRENT` file exists).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(CURRENT_FILE).exists()
    }

    /// Opens a durable directory: loads the newest complete checkpoint
    /// generation, replays the log's trusted prefix on top, truncates
    /// any torn tail a crash left, and resumes serving + appending.
    ///
    /// The recovered index answers **bit-identically** to one that
    /// applied exactly the acked mutation prefix and never crashed
    /// (pinned by the crash-cut proptests). A missing `CURRENT`
    /// surfaces as [`GdimError::Io`] with
    /// [`NotFound`](std::io::ErrorKind::NotFound); real damage
    /// surfaces as [`GdimError::CorruptCheckpoint`] /
    /// [`GdimError::TornLog`].
    pub fn open(
        dir: impl AsRef<Path>,
        policy: SyncPolicy,
    ) -> Result<(DurableHandle, RecoveryReport), GdimError> {
        let dir = dir.as_ref();
        let (index, report) = Self::recover(dir)?;
        let writer = WalWriter::open_trusted(
            dir.join(wal_file(report.generation)),
            report.wal_bytes_trusted,
            report.wal_records,
            policy,
        )?;
        Self::sweep_stale(dir, report.generation);
        let handle = Self::assemble(dir.to_path_buf(), report.generation, writer, index);
        Ok((handle, report))
    }

    /// Replays a durable directory **read-only** and reports its
    /// health: which generation `CURRENT` names, whether the
    /// checkpoint loads, how many log records replay, and whether the
    /// log tail is torn. Nothing on disk is modified — the torn tail
    /// (if any) is left in place.
    pub fn verify(dir: impl AsRef<Path>) -> Result<RecoveryReport, GdimError> {
        Self::recover(dir.as_ref()).map(|(_, report)| report)
    }

    /// The shared recovery path: checkpoint load + full log replay.
    fn recover(dir: &Path) -> Result<(ShardedIndex, RecoveryReport), GdimError> {
        let current = std::fs::read_to_string(dir.join(CURRENT_FILE))?;
        let generation: u64 = current
            .trim()
            .parse()
            .map_err(|_| GdimError::CorruptCheckpoint {
                generation: 0,
                detail: format!("CURRENT holds {current:?}, not a generation number"),
            })?;
        let mut index =
            ShardedIndex::load_dir(dir.join(generation_dir(generation))).map_err(|e| {
                GdimError::CorruptCheckpoint {
                    generation,
                    detail: e.to_string(),
                }
            })?;
        let wal_path = dir.join(wal_file(generation));
        let (payloads, scan) =
            WalReader::read(&wal_path).map_err(|e| GdimError::CorruptCheckpoint {
                generation,
                detail: format!("log {} unreadable: {e}", wal_file(generation)),
            })?;
        for (i, payload) in payloads.iter().enumerate() {
            let torn = |detail: String| GdimError::TornLog {
                trusted: scan.trusted_bytes,
                total: scan.total_bytes,
                detail,
            };
            match WalRecord::decode(payload)
                .map_err(|e| torn(format!("record {i} is CRC-valid but undecodable: {e}")))?
            {
                WalRecord::Insert(g) => {
                    index.insert(g);
                }
                WalRecord::Remove(id) => {
                    // Remove replay is idempotent (`Ok(false)` on an
                    // already-dead row), but an id the checkpoint
                    // never held means log and checkpoint disagree.
                    index.remove(GraphId(id)).map_err(|e| {
                        torn(format!("record {i} (remove {id}) does not apply: {e}"))
                    })?;
                }
            }
        }
        let report = RecoveryReport {
            generation,
            wal_records: scan.records,
            wal_bytes_trusted: scan.trusted_bytes,
            wal_bytes_total: scan.total_bytes,
            tail: scan.defect,
        };
        Ok((index, report))
    }

    /// Deletes generations and logs other than `keep` — garbage from
    /// completed checkpoints or crashes inside one (best-effort; a
    /// leftover costs disk, never correctness).
    fn sweep_stale(dir: &Path, keep: u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_gen = name.starts_with("gen-") && name != generation_dir(keep);
            let stale_wal = name.starts_with("wal-") && name != wal_file(keep);
            if stale_gen {
                let _ = std::fs::remove_dir_all(entry.path());
            } else if stale_wal {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    // ----------------------------------------------------- mutations

    /// Fails with [`GdimError::DurablePoisoned`] once a failure left
    /// the in-memory index ahead of the durably published state (see
    /// [`DurableHandle::rebuild`]); reopening the directory is the way
    /// back to a healthy handle.
    fn check_usable(st: &DurableState) -> Result<(), GdimError> {
        match &st.poisoned {
            Some(why) => Err(GdimError::DurablePoisoned {
                detail: why.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Refreshes the lock-free counter mirrors from the locked state.
    fn mirror(&self, st: &DurableState) {
        self.shared
            .generation
            .store(st.generation, Ordering::Release);
        self.shared
            .wal_records
            .store(st.writer.records(), Ordering::Release);
        self.shared
            .wal_bytes
            .store(st.writer.len(), Ordering::Release);
    }

    /// Takes the durable lock for one mutation, recording how long it
    /// waited (`gdim_writer_lock_wait_ns{lock="durable"}`): durable
    /// writers queue here, across the previous writer's log → fsync →
    /// apply, not at the serving handle's master lock.
    fn lock_for_mutation(&self) -> MutexGuard<'_, DurableState> {
        let t0 = std::time::Instant::now();
        let st = lock(&self.shared.state);
        write_metrics()
            .durable_wait_ns
            .record_duration(t0.elapsed());
        st
    }

    /// Durably inserts one graph: the record is logged (and fsynced
    /// per the [`SyncPolicy`]) **before** the index changes, and the
    /// returned id is only handed out once both happened. See
    /// [`ShardedIndex::insert`] for placement semantics.
    pub fn insert(&self, g: Graph) -> Result<GraphId, GdimError> {
        let mut st = self.lock_for_mutation();
        Self::check_usable(&st)?;
        st.writer.append(&WalRecord::encode_insert(&g))?;
        self.mirror(&st);
        Ok(self.serving.insert(g))
    }

    /// Durably tombstones one graph (same contract as
    /// [`ShardedIndex::remove`]). No-op removes (`Ok(false)`) and
    /// invalid ids are **not** logged — only effective mutations reach
    /// the log, so replay applies exactly what happened.
    pub fn remove(&self, id: GraphId) -> Result<bool, GdimError> {
        let mut st = self.lock_for_mutation();
        Self::check_usable(&st)?;
        // Pre-validate against the current state (the durable lock
        // serializes all mutations, so the snapshot is current): only
        // a remove that will actually flip a live row is logged.
        let snap = self.serving.snapshot();
        snap.seq_of(id)?;
        let (s, local) = snap.split_id(id);
        if snap.shard(s)?.tombstones().is_dead(local) {
            return Ok(false);
        }
        st.writer.append(&WalRecord::Remove(id.get()).encode())?;
        self.mirror(&st);
        self.serving.remove(id)
    }

    /// Forces every appended record onto disk — the group-commit
    /// flush for [`SyncPolicy::EveryN`] / [`SyncPolicy::Never`]
    /// writers (a no-op under [`SyncPolicy::Always`]).
    pub fn sync(&self) -> Result<(), GdimError> {
        let mut st = lock(&self.shared.state);
        Self::check_usable(&st)?;
        st.writer.sync()?;
        Ok(())
    }

    /// Folds the log into a new checkpoint generation: saves the
    /// current index into `gen-{next}/` (staged in a temp directory,
    /// atomically renamed), starts a fresh empty log, atomically
    /// repoints `CURRENT`, and deletes the old generation + log.
    /// Returns the new generation number.
    ///
    /// Holds the durable lock for the save — mutations wait, but
    /// readers keep searching the published snapshots lock-free for
    /// the whole fold. A crash at any point recovers: `CURRENT` flips
    /// atomically from naming the complete old generation to naming
    /// the complete new one, and anything half-written is swept as
    /// garbage on the next [`DurableHandle::open`].
    pub fn checkpoint(&self) -> Result<u64, GdimError> {
        let mut st = lock(&self.shared.state);
        Self::check_usable(&st)?;
        self.checkpoint_locked(&mut st)
    }

    /// A failure anywhere in here (before the in-memory install at
    /// the end) leaves the old generation, log, and writer fully
    /// intact — mutations and a retried checkpoint keep working. The
    /// caller only has to act when the *index itself* moved first;
    /// see [`DurableHandle::rebuild`].
    fn checkpoint_locked(&self, st: &mut DurableState) -> Result<u64, GdimError> {
        let t0 = std::time::Instant::now();
        let dir = &self.shared.dir;
        let next = st.generation + 1;
        let gen_dir = dir.join(generation_dir(next));
        let staging = dir.join(format!("{}.tmp", generation_dir(next)));
        let _ = std::fs::remove_dir_all(&staging);
        // The durable lock is held: the snapshot holds exactly the
        // mutations the log holds, so folding it absorbs the log.
        self.serving.snapshot().save_dir(&staging)?;
        let _ = std::fs::remove_dir_all(&gen_dir);
        std::fs::rename(&staging, &gen_dir)?;
        fsync_dir(dir)?;
        let writer = WalWriter::create(dir.join(wal_file(next)), st.writer.policy())?;
        write_atomic(dir.join(CURRENT_FILE), format!("{next}\n").as_bytes())?;
        let old = st.generation;
        st.generation = next;
        st.writer = writer;
        self.mirror(st);
        let _ = std::fs::remove_file(dir.join(wal_file(old)));
        let _ = std::fs::remove_dir_all(dir.join(generation_dir(old)));
        write_metrics().checkpoint_ns.record_duration(t0.elapsed());
        Ok(next)
    }

    /// Durable **full rebuild**: re-mines and re-selects over the live
    /// graphs ([`ShardedIndex::rebuild`]), then immediately
    /// checkpoints, all under the durable lock. A rebuild reassigns
    /// ids and sequence numbers, so it cannot be represented as log
    /// records — the checkpoint *is* its durability, and the method
    /// only returns once the rebuilt index is the published
    /// generation. Returns the new generation number.
    ///
    /// If the checkpoint fails after the in-memory rebuild, the
    /// served index holds post-rebuild ids while `CURRENT` still
    /// names the pre-rebuild generation and log — no mutation logged
    /// from here on could apply on recovery. The handle therefore
    /// **poisons itself**: reads keep serving, but every further
    /// mutation fails with [`GdimError::DurablePoisoned`] until the
    /// directory is reopened (which recovers the pre-rebuild acked
    /// state, losing nothing that was acked).
    pub fn rebuild(&self) -> Result<u64, GdimError> {
        let mut st = lock(&self.shared.state);
        Self::check_usable(&st)?;
        self.serving.write(|idx| idx.rebuild());
        self.checkpoint_locked(&mut st).inspect_err(|e| {
            st.poisoned = Some(format!("rebuild applied but its checkpoint failed: {e}"));
        })
    }

    // ----------------------------------------------------- accessors

    /// The serving runtime. Use it for **reads** (readers, snapshots,
    /// searches); route mutations through the durable methods or they
    /// will not survive a crash.
    pub fn serving(&self) -> &ServingHandle {
        &self.serving
    }

    /// The current checkpoint generation number. Lock-free (a mirror
    /// updated under the durable lock), so stats/health polling never
    /// blocks behind a checkpoint folding the index to disk.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Records in the current log (acked mutations since the last
    /// checkpoint). Lock-free, like [`DurableHandle::generation`].
    pub fn wal_records(&self) -> u64 {
        self.shared.wal_records.load(Ordering::Acquire)
    }

    /// Bytes in the current log. Every byte up to here is a complete
    /// frame; the crash-cut tests use this as the per-ack boundary.
    /// Lock-free, like [`DurableHandle::generation`].
    pub fn wal_bytes(&self) -> u64 {
        self.shared.wal_bytes.load(Ordering::Acquire)
    }

    /// Whether the handle stopped accepting mutations (see
    /// [`DurableHandle::rebuild`]).
    pub fn is_poisoned(&self) -> bool {
        lock(&self.shared.state).poisoned.is_some()
    }

    /// The durable directory.
    pub fn dir(&self) -> PathBuf {
        self.shared.dir.clone()
    }
}
