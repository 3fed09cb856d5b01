//! [`ServingHandle`]: the concurrent serving runtime over a
//! [`ShardedIndex`] — any number of reader threads search **without
//! taking a lock on the search path** while mutations and background
//! rebuilds install new snapshots atomically.
//!
//! The shape is the classic epoch/Arc-swap pattern, built from `std`
//! primitives only (everything in this workspace is vendored):
//!
//! * the handle publishes immutable `Arc<ShardedIndex>` **snapshots**
//!   and bumps an [`AtomicU64`] version per publish;
//! * each thread holds a [`Reader`], which caches the snapshot it last
//!   saw. Its fast path is one atomic version load — when nothing was
//!   published since the last search, **no lock is touched**. Only on
//!   a version change does it briefly lock to fetch the new `Arc`, and
//!   that lock is only ever held for a pointer clone — never while a
//!   rebuild (or any other work) runs, so a search can never block on
//!   one;
//! * writers serialize on a master copy of the index and publish a
//!   snapshot per effective mutation. A publish is **O(tail), not
//!   O(shard)**: [`ShardedIndex`] is copy-on-write at shard
//!   granularity, and a shard's [`GraphIndex`](gdim_core::GraphIndex)
//!   is structurally shared with its previous version.
//!
//! # What a publish shares, what it copies, who frees what
//!
//! A mutation clones the owning shard once (the other shards are `Arc`
//! bumps) and mutates the clone:
//!
//! * **shared with the previous snapshot** — everything immutable
//!   after a build or install (the dimensions, their code tree, the
//!   ANN graph once built) and every *sealed
//!   chunk* of [`CHUNK`](gdim_core::chunked::CHUNK) = 32 rows of the
//!   per-row state that owns heap memory (the graphs);
//! * **copied** — the open tail of those rows (fewer than 32; a
//!   chem-sized graph is ~16 allocations, ~0.8 µs to copy), and the
//!   flat per-row words: the scan store (16 B/row at `p = 128`), the
//!   row→sequence table (8 B/row) and the tombstone mask (1 bit/row) —
//!   ~100 KB of `memcpy` at 4,000 rows, a few microseconds, which is
//!   why they stay flat and the scan never meets a chunk boundary.
//!
//! So a served insert costs its mapping plus ~30 µs of publish at
//! 4,000 rows per shard (~90 µs at 16,000, where the flat words are
//! 400 KB; the copy used to be 7 ms and 30 ms), and a remove — one
//! tombstone bit — is the publish alone.
//! `gdim_publish_rows_copied_total` counts the tail rows copied,
//! exactly; `gdim_publish_ns` and `gdim_writer_lock_wait_ns` time the
//! publish and the wait for the writer lock.
//!
//! The previous snapshot is freed by whoever lets go of it last — the
//! publisher when no reader cached it, otherwise the reader's next
//! [`Reader::current`], **inside a search**. That is why sharing is not
//! only a write-path matter: the last holder frees what the snapshot
//! *owned alone* — a tail and the flat words, tens of microseconds —
//! while the sealed chunks live on in the successor. (When a publish
//! deep-copied the shard, that reader freed ~70,000 allocations, ~5 ms,
//! on the search path: "readers never block" was true of locks only.)

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gdim_core::{GdimError, Graph, GraphId, SearchRequest, SearchResponse};

use crate::obs::write_metrics;
use crate::sharded::{ShardId, ShardRebuildTask, ShardedIndex, ShardedRebuildTask};

/// Shared state behind every clone of a [`ServingHandle`] and every
/// [`Reader`].
struct Shared {
    /// The writers' working copy (mutations serialize on this lock;
    /// shard `Arc`s inside are shared with published snapshots, so a
    /// mutation copy-on-writes only the shard it touches — and of that
    /// shard only the tail, see the module docs).
    master: Mutex<ShardedIndex>,
    /// The snapshot readers fetch. Locked only for `Arc` clones and
    /// pointer swaps — never across real work.
    published: Mutex<Arc<ShardedIndex>>,
    /// Bumped once per publish; the readers' lock-free freshness check.
    version: AtomicU64,
}

/// Recovers a usable guard from a poisoned mutex: the protected values
/// are plain data (no invariants are broken mid-panic that matter more
/// than serving), and a serving runtime must not cascade one panicked
/// writer into every thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cloneable, thread-safe handle to a concurrently served
/// [`ShardedIndex`] (see the [module docs](self)).
///
/// Mutating methods take `&self`: writers serialize internally and
/// each publishes a fresh immutable snapshot. For several mutations
/// per publish, batch them in one [`ServingHandle::write`] call.
#[derive(Clone)]
pub struct ServingHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServingHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingHandle")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl ServingHandle {
    /// Starts serving `index` (snapshot version 0).
    pub fn new(index: ShardedIndex) -> Self {
        ServingHandle {
            shared: Arc::new(Shared {
                published: Mutex::new(Arc::new(index.clone())),
                master: Mutex::new(index),
                version: AtomicU64::new(0),
            }),
        }
    }

    /// The publish count so far — one per **effective** mutation or
    /// install (no-ops and refused installs publish nothing; the
    /// generic [`ServingHandle::write`] always publishes). Readers use
    /// it as their freshness check; tests and monitors can watch
    /// installs land.
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::Acquire)
    }

    /// The current snapshot (an `Arc` clone under a briefly held lock;
    /// the returned index is immutable and never changes underneath
    /// the caller). Per-thread [`Reader`]s avoid even this lock in
    /// their steady state.
    pub fn snapshot(&self) -> Arc<ShardedIndex> {
        lock(&self.shared.published).clone()
    }

    /// A per-thread read handle with a lock-free steady-state search
    /// path (create one per reader thread; `Reader` is `Send` but
    /// deliberately not `Sync`).
    pub fn reader(&self) -> Reader {
        Reader {
            shared: Arc::clone(&self.shared),
            seen: Cell::new(self.version()),
            cached: RefCell::new(self.snapshot()),
        }
    }

    /// Runs `f` on the master copy under the writer lock, then
    /// publishes one fresh snapshot **unconditionally** (the handle
    /// cannot see whether an arbitrary closure changed anything).
    /// Batch several mutations in one call to pay a single publish; the typed methods below publish only
    /// when their mutation actually took effect.
    pub fn write<R>(&self, f: impl FnOnce(&mut ShardedIndex) -> R) -> R {
        self.mutate(|idx| (f(idx), true))
    }

    /// [`ServingHandle::write`], but `f` reports whether it changed
    /// the index — no-ops and failed mutations skip the publish, so
    /// readers are never forced to refetch an identical snapshot and
    /// [`ServingHandle::version`] counts only effective publishes.
    fn mutate<R>(&self, f: impl FnOnce(&mut ShardedIndex) -> (R, bool)) -> R {
        let metrics = write_metrics();
        let t0 = Instant::now();
        let mut master = lock(&self.shared.master);
        let locked = Instant::now();
        metrics.master_wait_ns.record_duration(locked - t0);
        let (out, changed) = f(&mut master);
        if changed {
            self.publish(&master);
            metrics.publish_ns.record_duration(locked.elapsed());
        }
        out
    }

    /// Publishes a snapshot of the master (called with the master lock
    /// held, so publishes are serialized in mutation order).
    fn publish(&self, master: &ShardedIndex) {
        let snap = Arc::new(master.clone());
        *lock(&self.shared.published) = snap;
        self.shared.version.fetch_add(1, Ordering::Release);
    }

    /// Inserts one graph (copy-on-write of the owning shard's tail)
    /// and publishes; see [`ShardedIndex::insert`].
    pub fn insert(&self, g: Graph) -> GraphId {
        self.mutate(|idx| (idx.insert(g), true))
    }

    /// Tombstones one graph and publishes — only when the graph was
    /// actually live; see [`ShardedIndex::remove`].
    pub fn remove(&self, id: GraphId) -> Result<bool, GdimError> {
        self.mutate(|idx| {
            let out = idx.remove(id);
            let changed = matches!(out, Ok(true));
            (out, changed)
        })
    }

    /// The currently stale shards (from the current snapshot).
    pub fn stale_shards(&self) -> Vec<ShardId> {
        self.snapshot().stale_shards()
    }

    /// Synchronously compacts one shard and publishes (nothing is
    /// published on an invalid shard id); see
    /// [`ShardedIndex::rebuild_shard`]. The writer lock is held for
    /// the compaction — prefer [`ServingHandle::spawn_shard_rebuild`]
    /// on a serving path.
    pub fn rebuild_shard(&self, s: ShardId) -> Result<(), GdimError> {
        self.mutate(|idx| {
            let out = idx.rebuild_shard(s);
            let changed = out.is_ok();
            (out, changed)
        })
    }

    /// Starts a background compaction of one shard; searches keep
    /// flowing from the published snapshot while it runs. Install the
    /// result with [`ServingHandle::install_shard`].
    pub fn spawn_shard_rebuild(&self, s: ShardId) -> Result<ShardRebuildTask, GdimError> {
        lock(&self.shared.master).spawn_shard_rebuild(s)
    }

    /// Waits for a background shard rebuild and installs it (one
    /// `Arc` swap inside the master + one publish; a refused or
    /// cancelled install publishes nothing). Readers never block on
    /// this — poll
    /// [`ShardRebuildTask::is_finished`](crate::ShardRebuildTask::is_finished)
    /// first to also keep *writers* from blocking on the join.
    pub fn install_shard(&self, task: ShardRebuildTask) -> Result<bool, GdimError> {
        self.mutate(|idx| {
            let out = idx.install_shard(task);
            let changed = matches!(out, Ok(true));
            (out, changed)
        })
    }

    /// Starts a **full** background rebuild (re-mine → re-select →
    /// re-split) over a snapshot of the live graphs; see
    /// [`ShardedIndex::spawn_rebuild`]. The search path keeps serving
    /// the old snapshots, lock-free, for the whole build.
    pub fn spawn_rebuild(&self) -> ShardedRebuildTask {
        lock(&self.shared.master).spawn_rebuild()
    }

    /// Waits for a full background rebuild and installs it atomically;
    /// see [`ShardedIndex::install`]. Readers observe the swap as one
    /// version bump — every search answers against exactly one
    /// snapshot, before or after, never a mix. A refused
    /// ([`GdimError::StaleRebuild`]) or cancelled install publishes
    /// nothing.
    pub fn install(&self, task: ShardedRebuildTask) -> Result<bool, GdimError> {
        self.mutate(|idx| {
            let out = idx.install(task);
            let changed = matches!(out, Ok(true));
            (out, changed)
        })
    }
}

/// A per-thread read handle: caches the last snapshot it saw and
/// refreshes only when the [`ServingHandle`] version moved, so the
/// steady-state search path is **one atomic load plus an `Arc` clone —
/// no lock**. Obtained from [`ServingHandle::reader`]; `Send` (hand it
/// to a thread) but intentionally not `Sync` (one per thread).
pub struct Reader {
    shared: Arc<Shared>,
    /// Version of the cached snapshot.
    seen: Cell<u64>,
    /// The cached snapshot itself.
    cached: RefCell<Arc<ShardedIndex>>,
}

impl std::fmt::Debug for Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("seen_version", &self.seen.get())
            .finish_non_exhaustive()
    }
}

impl Reader {
    /// The snapshot this reader currently searches against, refreshed
    /// (with one brief pointer-clone lock) only when a newer one was
    /// published since the last call.
    pub fn current(&self) -> Arc<ShardedIndex> {
        let v = self.shared.version.load(Ordering::Acquire);
        if v != self.seen.get() {
            let fresh = lock(&self.shared.published).clone();
            *self.cached.borrow_mut() = fresh;
            self.seen.set(v);
        }
        self.cached.borrow().clone()
    }

    /// Answers one search against the current snapshot — lock-free in
    /// the steady state, and never blocked by an in-flight rebuild.
    pub fn search(&self, query: &Graph, req: &SearchRequest) -> Result<SearchResponse, GdimError> {
        self.current().search(query, req)
    }

    /// Batch variant of [`Reader::search`]; the whole batch answers
    /// against one snapshot.
    pub fn search_batch(
        &self,
        queries: &[Graph],
        req: &SearchRequest,
    ) -> Result<Vec<SearchResponse>, GdimError> {
        self.current().search_batch(queries, req)
    }
}
