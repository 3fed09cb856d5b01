//! [`ShardedIndex`]: the graph database partitioned over N
//! [`GraphIndex`] shards that share one globally selected dimension
//! set, served by scatter-gather (see the [crate docs](crate)).

use std::sync::Arc;

use gdim_core::search::{search_partitions, search_partitions_batch, Partition};
use gdim_core::{
    GdimError, Graph, GraphId, GraphIndex, IndexOptions, SearchRequest, SearchResponse,
};
use gdim_exec::{BackgroundTask, ExecConfig};

use crate::obs::write_metrics;

/// Typed id of one shard of a [`ShardedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Options for [`ShardedIndex::build`]: the shard count plus the
/// per-pipeline [`IndexOptions`] (which also carry the exec budget and
/// the per-shard [`RebuildPolicy`](gdim_core::RebuildPolicy)).
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of shards `N` (clamped to at least 1).
    pub shards: usize,
    /// The pipeline/serving options every shard retains.
    pub index: IndexOptions,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            shards: 4,
            index: IndexOptions::default(),
        }
    }
}

impl ShardedOptions {
    /// Options for `shards` shards with default [`IndexOptions`].
    pub fn new(shards: usize) -> Self {
        ShardedOptions {
            shards,
            ..Default::default()
        }
    }

    /// Sets the pipeline options.
    pub fn with_index(mut self, index: IndexOptions) -> Self {
        self.index = index;
        self
    }

    /// Sets the worker-thread budget (`0` = all cores) for the build
    /// pipeline, the shard split, and the parts of a query that are
    /// milliseconds or a whole batch (exact δ, batch mapping, fused
    /// batch scans). A single mapped or approximate search never
    /// spawns.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.index = self.index.with_threads(threads);
        self
    }
}

/// One shard: a [`GraphIndex`] over a subset of the database plus the
/// global sequence number of each local row (the merge tie-break).
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) index: GraphIndex,
    /// `seqs[local]` = global insertion sequence of that row; strictly
    /// ascending within a shard (locals are assigned in insert order).
    pub(crate) seqs: Vec<u64>,
}

impl Clone for Shard {
    /// The copy-on-write step: the index shares what it can
    /// ([`GraphIndex`]'s "What `Clone` costs"), `seqs` is flat and
    /// copied (8 B/row) — with room for the row an insert is about to
    /// add, so that push does not copy it a second time.
    fn clone(&self) -> Self {
        let mut seqs = Vec::with_capacity(self.seqs.len() + 1);
        seqs.extend_from_slice(&self.seqs);
        Shard {
            index: self.index.clone(),
            seqs,
        }
    }
}

/// A graph database partitioned over N [`GraphIndex`] shards sharing
/// one globally selected dimension set, served by scatter-gather.
///
/// Shards are held behind [`Arc`]s, so `Clone` is **cheap** (N pointer
/// clones) and mutation is copy-on-write at shard granularity: an
/// `insert` or `remove` on a clone-shared index clones only the owning
/// shard — and that clone is itself structural sharing, not a deep
/// copy: the shard's [`GraphIndex`] shares its immutable state and
/// every sealed 32-row chunk of graphs with
/// the version it was cloned from, and copies the open tail (fewer than
/// 32 rows) plus the flat words (scan store 16 B/row at `p = 128`,
/// `seqs` 8 B/row, tombstones 1 bit/row; see
/// [`GraphIndex`]'s "What `Clone` costs"). Dropping the older version
/// frees that tail and those words, nothing else. That is what makes
/// the [`ServingHandle`](crate::ServingHandle) snapshot pattern cost
/// O(tail) per write instead of O(shard).
///
/// Searches are **bit-identical** to a single [`GraphIndex`] over the
/// same database — hits, order, distances — for every ranker, mapping,
/// shard count, and thread budget, because the selection pipeline runs
/// globally and per-shard rankings merge with the same `(distance,
/// insertion-order)` tie-break an unsharded scan uses.
#[derive(Clone)]
pub struct ShardedIndex {
    shards: Vec<Arc<Shard>>,
    /// Bits of shard id in a composed [`GraphId`] (0 when 1 shard).
    shard_bits: u32,
    /// Next global insertion sequence number.
    next_seq: u64,
    /// Monotone event stamp; bumped by every mutation or install.
    stamp: u64,
    /// `muts[s]` = stamp of shard `s`'s last mutation/install — the
    /// freshness basis for per-shard background rebuilds.
    muts: Vec<u64>,
    opts: ShardedOptions,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("graphs", &self.len())
            .field("live", &self.live_len())
            .field("epoch", &self.epoch())
            .field("dimensions", &self.p())
            .finish_non_exhaustive()
    }
}

/// Bits needed to address `shards` shard ids (0 for a single shard).
fn shard_bits_for(shards: usize) -> u32 {
    (shards.max(1) as u32).next_power_of_two().trailing_zeros()
}

impl ShardedIndex {
    // ------------------------------------------------------ building

    /// Runs the **global** pipeline (mining → δ → selection) once over
    /// `db`, then stamps out the shards in parallel on the exec budget.
    /// Graphs are range-partitioned: shard `s` owns the contiguous
    /// slice `[s·n/N, (s+1)·n/N)` ([`GraphIndex::subset`]), and every
    /// shard retains the same selected dimensions and weights — the
    /// invariant behind bit-identical scatter-gather answers.
    pub fn build(db: Vec<Graph>, opts: ShardedOptions) -> ShardedIndex {
        let global = GraphIndex::build(db, opts.index.clone());
        Self::split_global(global, opts, 0)
    }

    /// Splits a freshly built (fully live, epoch-irrelevant) global
    /// index into shards at `base_epoch`, assigning sequence numbers
    /// `0..n` in id order.
    fn split_global(global: GraphIndex, opts: ShardedOptions, base_epoch: u64) -> ShardedIndex {
        let shards_n = opts.shards.max(1);
        let bits = shard_bits_for(shards_n);
        let n = global.len();
        debug_assert_eq!(global.tombstone_count(), 0, "split expects a fresh build");
        let exec = *global.exec();
        let shards: Vec<Arc<Shard>> = gdim_exec::map_tasks(&exec, shards_n, |s| {
            let rows: Vec<u32> =
                ((s * n / shards_n) as u32..((s + 1) * n / shards_n) as u32).collect();
            Arc::new(Shard {
                index: global.subset(&rows, base_epoch),
                seqs: rows.iter().map(|&i| i as u64).collect(),
            })
        });
        let mut opts = opts;
        opts.shards = shards_n;
        opts.index = global.options().clone();
        ShardedIndex {
            shards,
            shard_bits: bits,
            next_seq: n as u64,
            stamp: 0,
            muts: vec![0; shards_n],
            opts,
        }
    }

    // ------------------------------------------------- id composition

    /// Number of high bits of a composed [`GraphId`] holding the shard
    /// id (0 when there is a single shard, so composed ids equal local
    /// ids).
    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// Composes the global id of shard-local row `local`.
    pub fn compose_id(&self, shard: ShardId, local: usize) -> GraphId {
        if self.shard_bits == 0 {
            return GraphId(local as u32);
        }
        GraphId((shard.0 << (32 - self.shard_bits)) | local as u32)
    }

    /// Splits a composed global id into its shard and local parts.
    /// Purely arithmetic — the parts may be out of range for this
    /// index; every public entry point bounds-checks them.
    pub fn split_id(&self, id: GraphId) -> (ShardId, usize) {
        if self.shard_bits == 0 {
            return (ShardId(0), id.index());
        }
        let shift = 32 - self.shard_bits;
        (
            ShardId(id.get() >> shift),
            (id.get() & ((1 << shift) - 1)) as usize,
        )
    }

    /// Resolves a composed id to its shard, or a typed error.
    fn owner(&self, id: GraphId) -> Result<(usize, usize), GdimError> {
        let (s, local) = self.split_id(id);
        if s.index() >= self.shards.len() || local >= self.shards[s.index()].index.len() {
            return Err(GdimError::GraphOutOfRange {
                id: id.index(),
                len: self.len(),
            });
        }
        Ok((s.index(), local))
    }

    // ------------------------------------------------------ accessors

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's underlying index (read-only).
    pub fn shard(&self, s: ShardId) -> Result<&GraphIndex, GdimError> {
        self.shards
            .get(s.index())
            .map(|sh| &sh.index)
            .ok_or(GdimError::ShardOutOfRange {
                id: s.index(),
                shards: self.shards.len(),
            })
    }

    /// One shard's graphs (including tombstoned rows), in local-id
    /// order.
    pub fn shard_graphs(&self, s: ShardId) -> Result<impl Iterator<Item = &Graph> + '_, GdimError> {
        self.shard(s).map(GraphIndex::graphs)
    }

    /// Total rows across shards, **including** tombstoned ones.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Whether no shard holds any row.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.index.is_empty())
    }

    /// Live (non-tombstoned) rows across shards.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(|s| s.index.live_len()).sum()
    }

    /// Live rows per shard, in shard order — the raw material of the
    /// shard-imbalance gauge (max/mean of this vector): scatter-gather
    /// latency is gated by the fullest shard, so skew here predicts
    /// tail latency before it shows up in histograms.
    pub fn shard_live_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.index.live_len()).collect()
    }

    /// The newest rebuild generation across shards (shards rebuild
    /// independently; a search reports this as its
    /// [`SearchStats::epoch`](gdim_core::SearchStats::epoch)).
    pub fn epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.index.epoch())
            .max()
            .unwrap_or(0)
    }

    /// Number of selected dimensions `p` (identical across shards).
    pub fn p(&self) -> usize {
        self.shards[0].index.p()
    }

    /// The retained build/serving options.
    pub fn options(&self) -> &ShardedOptions {
        &self.opts
    }

    /// The parallelism budget of the build pipeline, the exact δ
    /// phases and batch searches.
    pub fn exec(&self) -> &ExecConfig {
        &self.opts.index.delta.exec
    }

    /// Replaces the parallelism budget on the index and every shard
    /// (e.g. after [`ShardedIndex::load_dir`], which cannot know the
    /// serving machine's core count at save time).
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.opts.index = self.opts.index.clone().with_exec(exec);
        for s in 0..self.shards.len() {
            self.shard_mut(s).index.set_exec(exec);
        }
    }

    /// One graph by composed global id (tombstoned rows stay readable).
    pub fn graph(&self, id: GraphId) -> Result<&Graph, GdimError> {
        let (s, local) = self.owner(id)?;
        self.shards[s].index.graph(local)
    }

    /// The global insertion sequence number of a row — the rank the
    /// row would have in an unsharded index grown by the same
    /// operations (searches break distance ties by it).
    pub fn seq_of(&self, id: GraphId) -> Result<u64, GdimError> {
        let (s, local) = self.owner(id)?;
        Ok(self.shards[s].seqs[local])
    }

    /// The composed id currently holding insertion sequence `seq`, or
    /// `None` if that row was removed and compacted away. A linear
    /// scan over the shard seq lists — a correspondence helper for
    /// tests and tooling, not a serving-path lookup.
    pub fn id_for_seq(&self, seq: u64) -> Option<GraphId> {
        for (s, shard) in self.shards.iter().enumerate() {
            // Within a shard, seqs are strictly ascending.
            if let Ok(local) = shard.seqs.binary_search(&seq) {
                return Some(self.compose_id(ShardId(s as u32), local));
            }
        }
        None
    }

    // ------------------------------------------------------ internals

    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    fn bump(&mut self, s: usize) {
        self.stamp += 1;
        self.muts[s] = self.stamp;
    }

    /// Shard `s` for mutation — the one copy-on-write point: a shard
    /// still shared with a clone of this index (a published snapshot)
    /// is cloned first, and the rows that clone physically copied are
    /// counted into `gdim_publish_rows_copied_total`.
    fn shard_mut(&mut self, s: usize) -> &mut Shard {
        let shared = Arc::as_ptr(&self.shards[s]);
        let shard = Arc::make_mut(&mut self.shards[s]);
        if !std::ptr::eq(shared, shard) {
            write_metrics()
                .rows_copied
                .add(shard.index.rows_copied_by_clone() as u64);
        }
        shard
    }

    // ------------------------------------------------------ mutation

    /// Inserts one graph **online**, routed to the least-loaded shard
    /// (fewest live rows; lowest shard id on ties — deterministic).
    /// The shard maps it onto the shared dimensions exactly like
    /// [`GraphIndex::insert`] and appends in place. Returns the
    /// composed global id; the row's sequence number is the global
    /// insertion order, so merged rankings keep treating it exactly
    /// like an unsharded index would.
    pub fn insert(&mut self, g: Graph) -> GraphId {
        let s = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].index.live_len(), s))
            .expect("at least one shard");
        let local_bits = 32 - self.shard_bits;
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = self.shard_mut(s);
        let local = shard.index.insert(g).index();
        assert!(
            (local as u64) < 1u64 << local_bits,
            "shard {s} overflows its {local_bits}-bit local id space"
        );
        shard.seqs.push(seq);
        self.bump(s);
        self.compose_id(ShardId(s as u32), local)
    }

    /// Removes a graph **online** by tombstoning its row in the owning
    /// shard (same contract as [`GraphIndex::remove`]): `Ok(false)`
    /// when it was already dead, a typed error for an unknown id.
    pub fn remove(&mut self, id: GraphId) -> Result<bool, GdimError> {
        let (s, local) = self.owner(id)?;
        // Decided on the shared shard: a no-op must not copy-on-write.
        if self.shards[s].index.tombstones().is_dead(local) {
            return Ok(false);
        }
        self.shard_mut(s).index.remove(GraphId(local as u32))?;
        self.bump(s);
        Ok(true)
    }

    // ----------------------------------------------------- rebuilds

    /// The shards whose accumulated churn exceeds their
    /// [`RebuildPolicy`](gdim_core::RebuildPolicy) — the ones worth a
    /// [`ShardedIndex::rebuild_shard`].
    pub fn stale_shards(&self) -> Vec<ShardId> {
        (0..self.shards.len())
            .filter(|&s| self.shards[s].index.is_stale())
            .map(|s| ShardId(s as u32))
            .collect()
    }

    /// Rebuilds **one dirty shard** by compacting it against the
    /// retained global selection: tombstoned rows are dropped (later
    /// local ids shift down; sequence numbers travel with their rows),
    /// pending-insert counters reset, and the shard's epoch advances —
    /// all **without re-mining**, so every live row keeps its exact
    /// vector and answers are unchanged. The global selection itself
    /// is only revisited by a full [`ShardedIndex::rebuild`].
    pub fn rebuild_shard(&mut self, s: ShardId) -> Result<(), GdimError> {
        if s.index() >= self.shards.len() {
            return Err(GdimError::ShardOutOfRange {
                id: s.index(),
                shards: self.shards.len(),
            });
        }
        let fresh = Self::compacted(&self.shards[s.index()]);
        self.shards[s.index()] = Arc::new(fresh);
        self.bump(s.index());
        Ok(())
    }

    /// [`ShardedIndex::rebuild_shard`] for every stale shard; returns
    /// how many rebuilt.
    pub fn rebuild_stale_shards(&mut self) -> usize {
        let stale = self.stale_shards();
        for &s in &stale {
            self.rebuild_shard(s)
                .expect("stale_shards returns valid ids");
        }
        stale.len()
    }

    /// Pure compaction of one shard (the job a background shard
    /// rebuild runs): the live rows under the same selection, epoch + 1.
    fn compacted(shard: &Shard) -> Shard {
        let idx = &shard.index;
        let live = idx.tombstones().live_ids();
        Shard {
            index: idx.subset(&live, idx.epoch() + 1),
            seqs: live.iter().map(|&i| shard.seqs[i as usize]).collect(),
        }
    }

    /// Starts a **background** compaction of one shard on a dedicated
    /// thread (the serving path keeps answering from the old shard
    /// meanwhile); pass the handle to [`ShardedIndex::install_shard`]
    /// to swap the result in.
    pub fn spawn_shard_rebuild(&self, s: ShardId) -> Result<ShardRebuildTask, GdimError> {
        if s.index() >= self.shards.len() {
            return Err(GdimError::ShardOutOfRange {
                id: s.index(),
                shards: self.shards.len(),
            });
        }
        let snapshot = Arc::clone(&self.shards[s.index()]);
        Ok(ShardRebuildTask {
            task: BackgroundTask::spawn(move |token| {
                if token.is_cancelled() {
                    return None;
                }
                let fresh = Self::compacted(&snapshot);
                if token.is_cancelled() {
                    None
                } else {
                    Some(fresh)
                }
            }),
            shard: s,
            basis: self.muts[s.index()],
        })
    }

    /// Waits for a [`ShardedIndex::spawn_shard_rebuild`] job and swaps
    /// the compacted shard in — **atomically per shard**: one `Arc`
    /// pointer replaces another, the other shards are untouched.
    /// Returns `Ok(false)` if the job observed cancellation, and
    /// [`GdimError::StaleRebuild`] when the shard mutated (or was
    /// rebuilt) after the snapshot — the caller should spawn a fresh
    /// job.
    pub fn install_shard(&mut self, task: ShardRebuildTask) -> Result<bool, GdimError> {
        let s = task.shard.index();
        if s >= self.shards.len() || self.muts[s] != task.basis {
            let missed = self
                .muts
                .get(s)
                .map_or(u64::MAX, |&m| m.abs_diff(task.basis));
            task.cancel();
            return Err(GdimError::StaleRebuild { missed });
        }
        match task.task.join() {
            None => Ok(false),
            Some(fresh) => {
                self.shards[s] = Arc::new(fresh);
                self.bump(s);
                Ok(true)
            }
        }
    }

    /// The live graphs across all shards in **sequence order** — the
    /// database a full rebuild runs over (identical to the id order of
    /// an unsharded index grown by the same operations).
    pub fn live_graphs(&self) -> Vec<Graph> {
        let mut rows: Vec<(u64, &Graph)> = Vec::with_capacity(self.live_len());
        for shard in &self.shards {
            for (local, g) in shard.index.graphs().enumerate() {
                if !shard.index.tombstones().is_dead(local) {
                    rows.push((shard.seqs[local], g));
                }
            }
        }
        rows.sort_by_key(|&(seq, _)| seq);
        rows.into_iter().map(|(_, g)| g.clone()).collect()
    }

    /// Synchronous **full** rebuild: re-runs the global pipeline
    /// (re-mine → re-select) over the live graphs in sequence order
    /// and re-splits into shards — the only operation that revisits
    /// the selected dimensions. Sequence numbers and ids are reseeded
    /// `0..n`; every shard's epoch advances past the current maximum.
    pub fn rebuild(&mut self) {
        let live = self.live_graphs();
        let base_epoch = self.epoch() + 1;
        let global = GraphIndex::build(live, self.opts.index.clone());
        let fresh = Self::split_global(global, self.opts.clone(), base_epoch);
        self.install_full(fresh);
    }

    /// Starts a full rebuild on a background thread over a snapshot of
    /// the live graphs; the index keeps serving (and mutating)
    /// meanwhile. The snapshot is a cheap `Arc`-level clone — the
    /// `O(n)` graph copy itself happens on the background thread, so a
    /// caller holding a writer lock (the serving handle) is not
    /// stalled by it. Cancellation is observed at the pipeline's phase
    /// boundaries. Pass the handle to [`ShardedIndex::install`].
    pub fn spawn_rebuild(&self) -> ShardedRebuildTask {
        let snapshot = self.clone(); // N shard-Arc clones, not data
        let opts = self.opts.clone();
        let base_epoch = self.epoch() + 1;
        ShardedRebuildTask {
            task: BackgroundTask::spawn(move |token| {
                let live = snapshot.live_graphs();
                if token.is_cancelled() {
                    return None;
                }
                let global = GraphIndex::build_cancellable(live, opts.index.clone(), token)?;
                if token.is_cancelled() {
                    return None;
                }
                Some(ShardedIndex::split_global(global, opts, base_epoch))
            }),
            basis: self.stamp,
        }
    }

    /// Waits for a [`ShardedIndex::spawn_rebuild`] job and swaps the
    /// whole re-split index in. `Ok(false)` if the job observed
    /// cancellation; [`GdimError::StaleRebuild`] when any mutation (or
    /// shard install) landed after the snapshot.
    pub fn install(&mut self, task: ShardedRebuildTask) -> Result<bool, GdimError> {
        if self.stamp != task.basis {
            task.cancel();
            return Err(GdimError::StaleRebuild {
                missed: self.stamp.abs_diff(task.basis),
            });
        }
        match task.task.join() {
            None => Ok(false),
            Some(fresh) => {
                self.install_full(fresh);
                Ok(true)
            }
        }
    }

    /// Swaps a re-split index in, preserving the event-stamp chain and
    /// the serving-side exec budget (a knob of the machine, not the
    /// snapshot: a [`ShardedIndex::set_exec`] made while a background
    /// rebuild ran survives its installation).
    fn install_full(&mut self, mut fresh: ShardedIndex) {
        fresh.stamp = self.stamp + 1;
        fresh.muts = vec![fresh.stamp; fresh.shards.len()];
        let exec = *self.exec();
        fresh.set_exec(exec);
        *self = fresh;
    }

    // ------------------------------------------------------- search

    /// Answers one typed search request by **scatter-gather** — the
    /// N-partition call of the one query executor
    /// ([`search_partitions`]): the query is mapped once (all shards
    /// share the dimensions), each shard runs its own bounded
    /// top-k scan (or ANN beam, or exact δ), and the per-shard
    /// rankings merge by `(distance, seq)`. Answers are bit-identical
    /// to [`GraphIndex::search`] over the same database for every
    /// ranker, mapping, shard count, and thread budget;
    /// [`SearchStats`](gdim_core::SearchStats) aggregate across shards
    /// via [`SearchStats::merge`](gdim_core::SearchStats::merge).
    ///
    /// The per-shard legs run one after another on the calling thread:
    /// concurrent requests, not a per-request fork, are what keeps the
    /// cores busy.
    pub fn search(&self, query: &Graph, req: &SearchRequest) -> Result<SearchResponse, GdimError> {
        Ok(search_partitions(&self.partitions(), query, req))
    }

    /// Answers one request for a whole batch of queries
    /// ([`search_partitions_batch`]): the query mapping fans out per
    /// query, then — for the mapped/refined rankers — every shard
    /// answers **all** queries in one pass over its rows through the
    /// fused scan
    /// ([`MappedDatabase::scan_topk_fused`](gdim_core::MappedDatabase::scan_topk_fused)),
    /// parallel over row ranges rather than queries, so the store's
    /// words are read once per shard instead of once per query. Output
    /// order matches `queries`, and every response's hits equal the
    /// corresponding [`ShardedIndex::search`] answer bit-for-bit.
    /// Timing is metered per batch like [`GraphIndex::search_batch`]:
    /// `match_time` is the batch average and each response carries an
    /// even share of the fused scan time; responses set
    /// [`SearchStats::fused_batch`](gdim_core::SearchStats::fused_batch).
    pub fn search_batch(
        &self,
        queries: &[Graph],
        req: &SearchRequest,
    ) -> Result<Vec<SearchResponse>, GdimError> {
        Ok(search_partitions_batch(&self.partitions(), queries, req))
    }

    /// The shards as the executor's partitions: each with its row→seq
    /// table and the first composed id it owns.
    fn partitions(&self) -> Vec<Partition<'_>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| Partition {
                index: &shard.index,
                seqs: Some(&shard.seqs),
                id_base: self.compose_id(ShardId(s as u32), 0).get(),
            })
            .collect()
    }

    // --------------------------------------------------- persistence

    /// Reassembles an index from loaded parts (the seam
    /// [`ShardedIndex::load_dir`] uses).
    pub(crate) fn from_loaded(
        shards: Vec<Shard>,
        shard_bits: u32,
        next_seq: u64,
        stamp: u64,
        muts: Vec<u64>,
    ) -> ShardedIndex {
        let opts = ShardedOptions {
            shards: shards.len(),
            index: shards[0].index.options().clone(),
        };
        ShardedIndex {
            shards: shards.into_iter().map(Arc::new).collect(),
            shard_bits,
            next_seq,
            stamp,
            muts,
            opts,
        }
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn muts(&self) -> &[u64] {
        &self.muts
    }
}

/// Handle to an in-flight background **shard** rebuild (compaction) —
/// see [`ShardedIndex::spawn_shard_rebuild`].
#[derive(Debug)]
pub struct ShardRebuildTask {
    task: BackgroundTask<Shard>,
    shard: ShardId,
    /// Mutation stamp of the shard when the snapshot was taken.
    basis: u64,
}

impl ShardRebuildTask {
    /// The shard being rebuilt.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.task.cancel();
    }

    /// Non-blocking: whether the background job has ended.
    pub fn is_finished(&self) -> bool {
        self.task.is_finished()
    }
}

/// Handle to an in-flight background **full** rebuild — see
/// [`ShardedIndex::spawn_rebuild`].
#[derive(Debug)]
pub struct ShardedRebuildTask {
    task: BackgroundTask<ShardedIndex>,
    /// Event stamp of the index when the snapshot was taken.
    basis: u64,
}

impl ShardedRebuildTask {
    /// Requests cooperative cancellation; the pipeline stops at its
    /// next phase boundary.
    pub fn cancel(&self) {
        self.task.cancel();
    }

    /// Non-blocking: whether the background job has ended.
    pub fn is_finished(&self) -> bool {
        self.task.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chem(n: usize, seed: u64) -> Vec<Graph> {
        gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed)
    }

    /// Every shard maps through the same code-tree allocation.
    /// Asking for a shard's tree builds it if its cell is empty, so
    /// unshared cells would show up here as distinct pointers.
    fn assert_one_mapper_per_feature_set(idx: &ShardedIndex) {
        let first = &idx.shards[0].index;
        for shard in &idx.shards[1..] {
            assert!(std::ptr::eq(
                first.mapped().mapper(),
                shard.index.mapped().mapper()
            ));
        }
    }

    #[test]
    fn shards_and_compactions_share_one_code_tree_per_feature_set() {
        let opts = ShardedOptions::new(3).with_index(IndexOptions::default().with_dimensions(16));
        let mut idx = ShardedIndex::build(chem(24, 7), opts);
        // 8 live rows per shard: three inserts land on shards 0, 1, 2.
        let ids: Vec<GraphId> = chem(3, 99).into_iter().map(|g| idx.insert(g)).collect();
        let owners: Vec<u32> = ids.iter().map(|&id| idx.split_id(id).0 .0).collect();
        assert_eq!(owners, [0, 1, 2]);
        assert_one_mapper_per_feature_set(&idx);

        // A compacted shard keeps mapping through the same tree.
        idx.remove(ids[1]).unwrap();
        idx.rebuild_shard(ShardId(1)).unwrap();
        assert_eq!(idx.shard(ShardId(1)).unwrap().tombstone_count(), 0);
        assert_one_mapper_per_feature_set(&idx);
        idx.insert(chem(1, 100).remove(0));
        assert_one_mapper_per_feature_set(&idx);

        // So does a reloaded index: the shard files are loaded one by
        // one, then made to share shard 0's tree.
        let dir = std::env::temp_dir().join(format!("gdim-one-tree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        idx.save_dir(&dir).unwrap();
        let mut back = ShardedIndex::load_dir(&dir).unwrap();
        assert_one_mapper_per_feature_set(&back);
        back.insert(chem(1, 101).remove(0));
        assert_one_mapper_per_feature_set(&back);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_file_from_another_build_is_corrupt() {
        // Same shape — shards, rows per shard, number of dimensions —
        // but other features: shard 1's file is not a shard of the
        // index whose manifest sits beside it.
        let opts = ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(16));
        let (ours, theirs) = (
            ShardedIndex::build(chem(16, 7), opts.clone()),
            ShardedIndex::build(chem(16, 8), opts),
        );
        assert_eq!(ours.p(), theirs.p());
        let root = std::env::temp_dir().join(format!("gdim-stray-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (dir, other) = (root.join("ours"), root.join("theirs"));
        ours.save_dir(&dir).unwrap();
        theirs.save_dir(&other).unwrap();
        let file = crate::manifest::shard_file(1);
        std::fs::copy(other.join(&file), dir.join(&file)).unwrap();
        match ShardedIndex::load_dir(&dir) {
            Err(GdimError::Corrupt(msg)) => assert!(msg.contains("shard 1 selected"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
