//! The built index: one selected dimension set, the binary vectors of
//! the graphs it holds, and the graphs themselves.
//! [`GraphIndex::build`] runs the whole paper pipeline (gSpan mining →
//! δ matrix or DSPMap blocks → dimension selection → mapped database)
//! behind a single builder and keeps what the paper's online system
//! keeps: the `p` selected dimensions and one binary vector per graph
//! over them. The `m` mined features are the input of the selection,
//! not part of the index — the build drops them (only their count
//! survives, in [`IndexStats::mined_features`]). The built index
//! answers typed [`SearchRequest`](crate::search::SearchRequest)s through
//! [`GraphIndex::search`], one query at a time
//! ([`GraphIndex::search_batch`] is that call per query; see
//! [`crate::search`] for the ranker spectrum), and it persists to a
//! versioned binary format ([`GraphIndex::save`] / [`GraphIndex::load`])
//! so a server builds once and serves from disk.
//!
//! A `GraphIndex` is also exactly what one **shard** of `gdim-shard`'s
//! `ShardedIndex` is (a one-shard `ShardedIndex` answers bit-identically
//! to the bare index), and that is where a long-lived service holds it:
//! the sharded index owns the lifecycle — a rebuild computed from a
//! snapshot, its one `install`, the refusal of a result that missed
//! later writes — and this type supplies the parts of it that are per
//! shard.
//!
//! ```
//! use gdim_core::index::{GraphIndex, IndexOptions};
//! use gdim_core::search::SearchRequest;
//!
//! let db = gdim_datagen::chem_db(60, &gdim_datagen::ChemConfig::default(), 7);
//! let index = GraphIndex::build(db, IndexOptions::default().with_dimensions(40));
//! let query = index.graph(3).unwrap().clone();
//! let resp = index.search(&query, &SearchRequest::new(5)).unwrap();
//! assert_eq!(resp.hits[0].id.get(), 3);
//!
//! // Build once, serve from disk: the round trip preserves answers.
//! let bytes = index.to_bytes();
//! let reloaded = GraphIndex::from_bytes(&bytes).unwrap();
//! assert_eq!(reloaded.search(&query, &SearchRequest::new(5)).unwrap().hits, resp.hits);
//! ```
//!
//! # Live updates
//!
//! The index is **dynamic**: rows come and go between builds.
//!
//! * [`GraphIndex::insert`] maps the new graph onto the index's
//!   dimensions exactly as a query is mapped (one code-tree search, no
//!   re-mining) and appends that vector to the scan store in place.
//! * [`GraphIndex::remove`] tombstones an entry — ids stay stable, and
//!   every ranker skips dead rows.
//! * Both leave the index slightly stale: dead rows still cost a scan
//!   step, and features the new graphs would have made frequent stay
//!   invisible. [`GraphIndex::is_stale`] says when the configured
//!   [`RebuildPolicy`] is exceeded; acting on it is the owner's job. A
//!   `ShardedIndex` computes either a compaction of the stale shard
//!   ([`GraphIndex::subset`] of its live rows, same dimensions) or a
//!   full rebuild ([`GraphIndex::build`] over the live graphs:
//!   re-mine, re-select, re-split) from a snapshot, and installs the
//!   result; either way the replacement carries the next
//!   [`GraphIndex::epoch`], and a query answers against exactly one
//!   epoch and reports it in its stats.

use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gdim_exec::ExecConfig;
use gdim_graph::dfscode::DfsCode;
use gdim_graph::{Dissimilarity, Graph};
use gdim_mining::{mine, MinerConfig, Support};

use crate::bitset::Bitset;
use crate::chunked::ChunkedVec;
use crate::delta::{DeltaConfig, DeltaMatrix, SharedDelta};
use crate::dspm::{dspm, DspmConfig};
use crate::dspmap::{dspmap, DspmapConfig};
use crate::error::GdimError;
use crate::query::{weighted_w_sq, MappedDatabase};
use crate::scan::{Tombstones, VectorStore};
use crate::search::GraphId;

/// How dimensions are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Full DSPM over the complete δ matrix (quadratic state; the
    /// quality reference).
    Dspm,
    /// DSPMap with the given partition size (linear scaling; for large
    /// databases).
    Dspmap {
        /// Partition size `b`.
        partition_size: usize,
    },
    /// Automatic: DSPM below `threshold` graphs, DSPMap (with
    /// `b = n/20`) above — mirroring the paper's practical guidance.
    Auto {
        /// Database size at which to switch to DSPMap.
        threshold: usize,
    },
}

/// Staleness policy of a dynamic index: how much online churn is
/// tolerated before [`GraphIndex::is_stale`] asks for a rebuild.
///
/// Inserts are served from the *existing* feature space (features the
/// new graphs would have made frequent are invisible until a rebuild)
/// and removes leave tombstoned rows in the scan store, so both forms
/// of churn degrade quality/throughput gradually — the policy bounds
/// that degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Rebuild once this many inserts accumulated since the last
    /// rebuild (`1` = rebuild after every insert; `usize::MAX`
    /// effectively disables the trigger).
    pub max_inserts: usize,
    /// Rebuild once the tombstoned fraction of the database strictly
    /// exceeds this (`0.0` = any remove makes the index stale).
    pub max_tombstone_frac: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            max_inserts: 1024,
            max_tombstone_frac: 0.25,
        }
    }
}

/// Options for [`GraphIndex::build`].
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Number of dimensions `p`.
    pub dimensions: usize,
    /// gSpan minimum support τ.
    pub min_support: Support,
    /// gSpan pattern-size cap (edges).
    pub max_pattern_edges: usize,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// δ computation configuration (dissimilarity kind, MCS budget).
    /// Its embedded [`DeltaConfig::exec`] is the **single parallelism
    /// budget** for the whole build and the index's query entry points
    /// (δ matrix, DSPM/DSPMap, exact ranking) —
    /// set it via [`IndexOptions::with_threads`] / [`IndexOptions::with_exec`].
    pub delta: DeltaConfig,
    /// RNG seed (DSPMap partitioning).
    pub seed: u64,
    /// Staleness tolerance for online inserts/removes (see
    /// [`RebuildPolicy`]). The whole `IndexOptions` value is retained
    /// by the built index, so a rebuild re-runs the identical pipeline.
    pub rebuild: RebuildPolicy,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            dimensions: 100,
            min_support: Support::Relative(0.05),
            max_pattern_edges: 5,
            strategy: SelectionStrategy::Auto { threshold: 2000 },
            delta: DeltaConfig::default(),
            seed: 0,
            rebuild: RebuildPolicy::default(),
        }
    }
}

impl IndexOptions {
    /// Sets the number of dimensions.
    pub fn with_dimensions(mut self, p: usize) -> Self {
        self.dimensions = p;
        self
    }

    /// Sets the gSpan support threshold.
    pub fn with_min_support(mut self, s: Support) -> Self {
        self.min_support = s;
        self
    }

    /// Sets the selection strategy.
    pub fn with_strategy(mut self, s: SelectionStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Sets the worker-thread budget (`0` = all cores) for every
    /// parallel phase of the build and the built index's queries.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.delta.exec = ExecConfig::new(threads);
        self
    }

    /// Sets the full parallelism budget.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.delta.exec = exec;
        self
    }

    /// Sets the staleness tolerance for online inserts/removes.
    pub fn with_rebuild_policy(mut self, rebuild: RebuildPolicy) -> Self {
        self.rebuild = rebuild;
        self
    }
}

/// Build-phase statistics, for observability (all zero for an empty
/// database, which runs no phase).
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    /// Number of frequent features mined (`m`).
    pub mined_features: usize,
    /// Number of selected dimensions (`p`).
    pub dimensions: usize,
    /// Which strategy actually ran.
    pub used_dspmap: bool,
    /// δ pairs computed during the build.
    pub delta_pairs: usize,
    /// Time in gSpan.
    pub mining_time: Duration,
    /// Time computing δ values.
    pub delta_time: Duration,
    /// Time in DSPM/DSPMap.
    pub selection_time: Duration,
}

/// A built graph-similarity index over an owned database: the
/// serving-layer entry point (see the [module docs](self)).
///
/// # What `Clone` costs
///
/// `Clone` is the copy-on-write step of the serving layer (a sharded
/// index clones the owning shard to mutate it while readers keep the
/// old snapshot), so it is built to cost O(rows / [`CHUNK`] + tail),
/// not O(rows × allocations):
///
/// * **shared** (an `Arc` bump, never copied again): everything that is
///   immutable after a build — the dimensions (the DFS codes of the
///   [`MappedDatabase`]), their code-tree cell, the ANN graph once
///   built — and every *sealed chunk* of the one append-only container
///   that owns heap memory per row (the graphs);
/// * **copied**: the open tail of that container (fewer than
///   [`CHUNK`] rows — [`GraphIndex::rows_copied_by_clone`] says how
///   many), and the flat per-row words: the scan store (`⌈p/64⌉ × 8` =
///   16 B/row at `p = 128`) and the tombstone mask (1 bit/row) —
///   ~1.7 µs of `memcpy` at 4,000 rows, which is why they stay flat and
///   the scan kernels never see a chunk boundary — plus the two
///   `p`-long weight vectors.
///
/// Dropping a clone frees what it copied — a tail — and decrements the
/// shared counts; the rows themselves are freed by whichever holder
/// lets go of a sealed chunk last. There is no cheaper or deeper second
/// spelling: this is the only clone.
///
/// [`CHUNK`]: crate::chunked::CHUNK
#[derive(Clone)]
pub struct GraphIndex {
    /// The graphs, row `i` = graph id `i` (append-only, chunk-shared).
    db: ChunkedVec<Graph>,
    /// The `p` dimensions, the vector of every row over them, and the
    /// code tree that maps queries and inserts alike.
    mapped: MappedDatabase,
    /// DSPM/DSPMap weight of each dimension (column order).
    weights: Vec<f64>,
    /// Normalized squared per-dimension weights for
    /// [`MappingKind::Weighted`](crate::query::MappingKind::Weighted) requests, derived from `weights`.
    w_sq_weighted: Vec<f64>,
    /// The full build configuration. The owner's rebuild re-runs the
    /// identical pipeline from it; its δ part drives every exact
    /// re-ranking.
    opts: IndexOptions,
    stats: IndexStats,
    /// Rebuild generation: 0 for a fresh build, otherwise what
    /// [`GraphIndex::subset`] was handed (a shard's owner counts its
    /// rebuilds) or a snapshot recorded. A request is answered entirely
    /// within one epoch and reports it in
    /// [`SearchStats::epoch`](crate::search::SearchStats::epoch).
    epoch: u64,
    /// Liveness of every row; removed graphs stay addressable (ids are
    /// stable) but dead to every ranker until the next rebuild.
    tombstones: Tombstones,
    /// Inserts accumulated since the last rebuild (one half of the
    /// [`RebuildPolicy`] staleness test).
    inserts_since_rebuild: usize,
    /// Proximity graph for [`Ranker::Approx`](crate::search::Ranker::Approx),
    /// built lazily over the scan store on the first approximate query
    /// (or restored from a snapshot). Derived state: rows inserted
    /// after the build are served from an exact-scanned pending tail,
    /// and a rebuilt index starts with an empty cell, so the graph can
    /// never serve rows of a dead epoch. The
    /// cell is per clone (a graph built over `n` rows must not appear in
    /// an older snapshot holding fewer); the built graph is shared.
    ann: OnceLock<Arc<crate::ann::AnnIndex>>,
}

impl std::fmt::Debug for GraphIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphIndex")
            .field("graphs", &self.db.len())
            .field("tombstones", &self.tombstones.dead_count())
            .field("epoch", &self.epoch)
            .field("features", &self.stats.mined_features)
            .field("dimensions", &self.p())
            .field("dissimilarity", &self.opts.delta.kind)
            .finish_non_exhaustive()
    }
}

impl GraphIndex {
    /// Runs the full pipeline over `db`. Every parallel phase draws on
    /// the single [`IndexOptions::delta`] exec budget.
    pub fn build(db: Vec<Graph>, opts: IndexOptions) -> GraphIndex {
        use crate::featurespace::FeatureSpace;
        let exec = opts.delta.exec;
        let delta_cfg = opts.delta.clone();
        if db.is_empty() {
            // An empty database still yields a servable (empty) index.
            let mapped = MappedDatabase::from_parts(Vec::new(), VectorStore::zeros(0, 0));
            return Self::assemble(db, mapped, Vec::new(), opts, IndexStats::default());
        }
        let t0 = Instant::now();
        let features = mine(
            &db,
            &MinerConfig::new(opts.min_support).with_max_edges(opts.max_pattern_edges),
        );
        let mining_time = t0.elapsed();
        let space = FeatureSpace::build(db.len(), features);
        let m = space.num_features();
        let p = opts.dimensions.min(m);

        let use_dspmap = match opts.strategy {
            SelectionStrategy::Dspm => false,
            SelectionStrategy::Dspmap { .. } => true,
            SelectionStrategy::Auto { threshold } => db.len() > threshold,
        };

        let (selected, weights, delta_pairs, delta_time, selection_time) = if use_dspmap {
            let b = match opts.strategy {
                SelectionStrategy::Dspmap { partition_size } => partition_size,
                _ => (db.len() / 20).max(10),
            };
            let t1 = Instant::now();
            let sdelta = SharedDelta::new(&db, delta_cfg.clone());
            let cfg = DspmapConfig {
                p,
                partition_size: b,
                sample_size: 16,
                epsilon: 1e-6,
                max_iters: 100,
                exec,
                seed: opts.seed,
            };
            let res = dspmap(&space, &sdelta, &cfg);
            let sel_time = t1.elapsed();
            (
                res.selected,
                res.weights,
                sdelta.computed_pairs(),
                Duration::ZERO, // δ time is interleaved with selection
                sel_time,
            )
        } else {
            let t1 = Instant::now();
            let delta = DeltaMatrix::compute(&db, &delta_cfg);
            let delta_time = t1.elapsed();
            let t2 = Instant::now();
            let res = dspm(
                &space,
                &delta,
                &DspmConfig {
                    exec,
                    ..DspmConfig::new(p)
                },
            );
            let pairs = db.len() * db.len().saturating_sub(1) / 2;
            (res.selected, res.weights, pairs, delta_time, t2.elapsed())
        };

        let stats = IndexStats {
            mined_features: m,
            dimensions: selected.len(),
            used_dspmap: use_dspmap,
            delta_pairs,
            mining_time,
            delta_time,
            selection_time,
        };
        // The index keeps the selected columns of the space, and their
        // weights; the space itself is dropped here.
        let mapped =
            MappedDatabase::new(&space, &selected).expect("the selection comes from the space");
        let weights = selected.iter().map(|&r| weights[r as usize]).collect();
        let index = Self::assemble(db, mapped, weights, opts, stats);
        // Warm the lazy code tree now: a serving index builds it at
        // build time, not on its first query.
        index.mapped.mapper();
        index
    }

    /// The one constructor every path funnels through: a fresh
    /// (epoch-0, fully live) index over `db` whose rows are `mapped`,
    /// with `weights` one per dimension.
    fn assemble(
        db: Vec<Graph>,
        mapped: MappedDatabase,
        weights: Vec<f64>,
        opts: IndexOptions,
        stats: IndexStats,
    ) -> GraphIndex {
        GraphIndex {
            tombstones: Tombstones::all_live(db.len()),
            db: db.into_iter().collect(),
            mapped,
            w_sq_weighted: weighted_w_sq(&weights),
            weights,
            opts,
            stats,
            epoch: 0,
            inserts_since_rebuild: 0,
            ann: OnceLock::new(),
        }
    }

    /// Assembles an index from what a snapshot holds — the seam of
    /// [`GraphIndex::from_bytes`], and the single gate for bytes from
    /// disk: the graphs, the dimensions' DFS codes, the store of every
    /// row's vector over them (tombstoned rows included), one weight
    /// per dimension, the options and the dynamic state. The code tree
    /// and the weighted scan weights are derived from them.
    ///
    /// Inputs are validated (one store row per graph, one store column
    /// and one weight per code, a tombstone mask over every graph,
    /// well-formed codes); inconsistencies surface as
    /// [`GdimError::Corrupt`], never a panic.
    #[allow(clippy::too_many_arguments)] // one argument per section of the snapshot
    pub(crate) fn from_parts(
        db: Vec<Graph>,
        codes: Vec<DfsCode>,
        store: VectorStore,
        weights: Vec<f64>,
        opts: IndexOptions,
        stats: IndexStats,
        epoch: u64,
        tombstones: Tombstones,
        inserts_since_rebuild: usize,
    ) -> Result<GraphIndex, GdimError> {
        let (n, p) = (db.len(), codes.len());
        if (store.len(), store.bits(), weights.len(), tombstones.len()) != (n, p, p, n) {
            return Err(GdimError::Corrupt(format!(
                "{n} graphs and {p} dimensions, but a store of {} rows × {} bits, \
                 {} weights and a tombstone mask over {} rows",
                store.len(),
                store.bits(),
                weights.len(),
                tombstones.len()
            )));
        }
        let mapped = MappedDatabase::from_parts(codes, store);
        let mut index = Self::assemble(db, mapped, weights, opts, stats);
        // Mapping trusts the codes; building the tree checks them (and
        // a serving index has its tree before its first query).
        index.mapped.try_mapper()?;
        index.epoch = epoch;
        index.tombstones = tombstones;
        index.inserts_since_rebuild = inserts_since_rebuild;
        Ok(index)
    }

    /// The index over the rows `kept` (ascending ids) of this one, all
    /// live at `epoch`: their graphs and their vectors, under the same
    /// dimensions, weights and options. What a shard split and a
    /// compaction are made of. The dimensions and the code-tree cell
    /// are shared with `self`, not copied — one tree per dimension
    /// set, however many shards and compactions descend from a build.
    ///
    /// # Panics
    /// If a kept id is not a row of this index.
    pub fn subset(&self, kept: &[u32], epoch: u64) -> GraphIndex {
        let db = (kept.iter())
            .map(|&i| self.db.get(i as usize).expect("kept ids are rows").clone())
            .collect();
        let mapped = self.mapped.with_rows(kept);
        let (opts, stats) = (self.opts.clone(), self.stats.clone());
        let mut index = Self::assemble(db, mapped, self.weights.clone(), opts, stats);
        index.epoch = epoch;
        index
    }

    /// Number of indexed rows, **including** tombstoned ones (ids stay
    /// addressable until the next rebuild compacts them away) — see
    /// [`GraphIndex::live_len`] for the serving size.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the index holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Number of live (non-tombstoned) graphs — the maximum hit count
    /// any search can return.
    pub fn live_len(&self) -> usize {
        self.tombstones.live_count()
    }

    /// Number of tombstoned (removed but not yet compacted) rows.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.dead_count()
    }

    /// The row liveness mask (all live on a fresh build).
    pub fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// The indexed graphs in id order, including tombstoned rows (the
    /// `i`-th is graph id `i`). An iterator, not a slice: the rows live
    /// in shared chunks. [`GraphIndex::graph`] is the random access.
    pub fn graphs(&self) -> impl Iterator<Item = &Graph> + '_ {
        self.db.iter()
    }

    /// One indexed graph, or [`GdimError::GraphOutOfRange`] — the
    /// serving path never panics on a bad id. Tombstoned graphs remain
    /// readable here (they are only dead to the rankers).
    pub fn graph(&self, i: usize) -> Result<&Graph, GdimError> {
        self.db.get(i).ok_or(GdimError::GraphOutOfRange {
            id: i,
            len: self.db.len(),
        })
    }

    /// Build statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// How many rows' heap state (their graphs) a [`Clone`] of this
    /// index physically copies — the open tail of the row container,
    /// always fewer than [`CHUNK`](crate::chunked::CHUNK); every other
    /// row is shared.
    pub fn rows_copied_by_clone(&self) -> usize {
        self.db.tail_len()
    }

    /// The mapped database: the dimensions
    /// ([`MappedDatabase::codes`]) and every row's vector over them.
    pub fn mapped(&self) -> &MappedDatabase {
        &self.mapped
    }

    /// Number of dimensions `p`.
    pub fn p(&self) -> usize {
        self.mapped.p()
    }

    /// The DSPM/DSPMap weight of each dimension, in column order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The full build configuration the index retains (and a rebuild
    /// re-runs).
    pub fn options(&self) -> &IndexOptions {
        &self.opts
    }

    /// The δ-engine configuration the index was built with; its
    /// dissimilarity kind and MCS budget drive every exact re-ranking.
    pub fn delta_config(&self) -> &DeltaConfig {
        &self.opts.delta
    }

    /// The graph dissimilarity the index was built with (and re-ranks
    /// with).
    pub fn dissimilarity(&self) -> Dissimilarity {
        self.opts.delta.kind
    }

    /// The parallelism budget the index was built with (also used by
    /// its query entry points).
    pub fn exec(&self) -> &ExecConfig {
        &self.opts.delta.exec
    }

    /// Replaces the parallelism budget (e.g. after
    /// [`GraphIndex::load`], which cannot know the serving machine's
    /// core count at save time).
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.opts.delta.exec = exec;
    }

    /// Normalized squared per-dimension weights serving
    /// [`MappingKind::Weighted`](crate::query::MappingKind::Weighted)
    /// requests (derived from [`GraphIndex::weights`] over the selected
    /// dimensions) — what the query executor (or a harness driving the
    /// scan directly) passes to
    /// [`MappedDatabase::scan_topk_with_masked`](crate::query::MappedDatabase::scan_topk_with_masked).
    pub fn weighted_w_sq(&self) -> &[f64] {
        &self.w_sq_weighted
    }

    /// The proximity-graph ANN over the scan store
    /// ([`Ranker::Approx`](crate::search::Ranker::Approx)), building
    /// it on first use with [`AnnParams::default`](crate::ann::AnnParams::default). Derived state,
    /// like the scan store itself: deterministic from the store, never
    /// required for correctness of the exact rankers, absent from a
    /// rebuilt index. Call this to warm the graph ahead of serving
    /// traffic (the build is O(n·ef_construction) distance
    /// evaluations).
    pub fn ann(&self) -> &crate::ann::AnnIndex {
        self.ann.get_or_init(|| {
            Arc::new(crate::ann::AnnIndex::build(
                self.mapped.store(),
                Default::default(),
            ))
        })
    }

    /// The ANN graph if one was already built or restored — the
    /// persistence path uses this so saving an index never forces a
    /// build.
    pub fn ann_if_built(&self) -> Option<&crate::ann::AnnIndex> {
        self.ann.get().map(|ann| &**ann)
    }

    /// Restores a previously built ANN graph (the persist decode
    /// seam). A no-op if one is already present.
    pub(crate) fn set_ann(&self, ann: crate::ann::AnnIndex) {
        let _ = self.ann.set(Arc::new(ann));
    }

    /// The [`Ranker::Approx`](crate::search::Ranker::Approx) scan leg,
    /// for a query vector that is already mapped: an `ef`-wide beam
    /// over the proximity graph (building it on first use), merged
    /// with an **exact** scan of the pending tail (rows inserted after
    /// the graph was built), tombstone-filtered, ascending by
    /// `(distance, id)` and truncated to `take`. Distances go through
    /// the same final formulas as
    /// [`MappedDatabase::distance_to`](crate::query::MappedDatabase::distance_to),
    /// so every returned distance is bit-identical to what the exact
    /// scan reports for that row. This is the per-partition beam leg
    /// of the query executor ([`crate::search::search_partitions`]).
    pub fn approx_scan_premapped(
        &self,
        qvec: &Bitset,
        take: usize,
        ef: usize,
        mapping: crate::query::MappingKind,
    ) -> (Vec<(u32, f64)>, crate::ann::AnnScanStats) {
        use crate::bitset::weighted_sq_xor_words;
        use crate::query::MappingKind;
        use gdim_kernels::hamming_row;

        let mut stats = crate::ann::AnnScanStats::default();
        let store = self.mapped.store();
        let n = store.len();
        let take = take.min(n);
        if take == 0 {
            return (Vec::new(), stats);
        }
        let dead = &self.tombstones;
        let qwords = qvec.words();
        // Traversal keys: strictly increasing transforms of the true
        // distance (integer popcount / squared weighted distance), so
        // beam order equals distance order and the final formula below
        // reproduces the scan's exact values.
        let key = |i: u32| -> f64 {
            match mapping {
                MappingKind::Binary => hamming_row(qwords, store.row(i as usize)) as f64,
                MappingKind::Weighted => {
                    weighted_sq_xor_words(qwords, store.row(i as usize), &self.w_sq_weighted)
                }
            }
        };
        let ann = self.ann();
        let (mut keyed, visited) = ann.query(key, ef.max(take), Some(dead));
        stats.beam_visited = visited;
        // The pending tail — rows the graph does not cover — is served
        // exactly, so online inserts are never invisible or degraded.
        for i in ann.built_n()..n {
            if dead.is_dead(i) {
                stats.tail_tombstones += 1;
                continue;
            }
            stats.tail_scanned += 1;
            keyed.push((i as u32, key(i as u32)));
        }
        let p = self.mapped.p().max(1) as f64;
        let mut ranking: Vec<(u32, f64)> = keyed
            .into_iter()
            .map(|(id, k)| {
                let d = match mapping {
                    MappingKind::Binary => (k / p).sqrt(),
                    MappingKind::Weighted => k.sqrt(),
                };
                (id, d)
            })
            .collect();
        crate::query::sort_ranking(&mut ranking);
        ranking.truncate(take);
        (ranking, stats)
    }

    /// Maps a query graph onto the index's dimensions (one code-tree
    /// search; see [`MappedDatabase::map_query`]).
    pub fn map_query(&self, q: &Graph) -> Bitset {
        self.mapped.map_query(q)
    }

    /// [`GraphIndex::map_query`] plus the search's counters — how many
    /// dimensions were tested, how many pruned, in how many steps.
    pub fn map_query_with_stats(&self, q: &Graph) -> (Bitset, crate::featurespace::MatchStats) {
        self.mapped.map_query_with_stats(q)
    }

    /// Serializes the index to the versioned binary format (see
    /// [`crate::persist`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::persist::encode(self)
    }

    /// Deserializes an index produced by [`GraphIndex::to_bytes`],
    /// rebuilding all derived state. The exec budget defaults to
    /// [`ExecConfig::default`]; override with [`GraphIndex::set_exec`].
    pub fn from_bytes(bytes: &[u8]) -> Result<GraphIndex, GdimError> {
        crate::persist::decode(bytes)
    }

    /// Writes the index to a file (binary format, version-tagged).
    ///
    /// The write is **crash-safe**: the bytes are staged in a sibling
    /// temp file, fsynced, renamed over `path`, and the parent
    /// directory fsynced — a crash mid-save never clobbers a previous
    /// good snapshot at the same path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), GdimError> {
        gdim_wal::fsutil::write_atomic(path, &self.to_bytes())?;
        Ok(())
    }

    /// Reads an index saved by [`GraphIndex::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<GraphIndex, GdimError> {
        GraphIndex::from_bytes(&std::fs::read(path)?)
    }

    // ------------------------------------------------- live updates

    /// The index's rebuild generation: 0 for a fresh build, the value
    /// its owner assembled it with otherwise
    /// ([`GraphIndex::subset`]). Any single request is answered against
    /// exactly one epoch (a search holds the index borrowed for its
    /// whole duration) and reports it in
    /// [`SearchStats::epoch`](crate::search::SearchStats::epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts accumulated since the last rebuild.
    pub fn pending_inserts(&self) -> usize {
        self.inserts_since_rebuild
    }

    /// Makes this index map through `src`'s code tree instead of its
    /// own — for indexes loaded separately that descend from one build
    /// (the shard files of one directory), so they hold one tree, not
    /// one each. A tree is a function of the dimensions' DFS codes
    /// alone, so this compares them first: returns `false`, changing
    /// nothing, when the two indexes' dimensions differ.
    pub fn share_mapper_of(&mut self, src: &GraphIndex) -> bool {
        self.mapped.share_mapper_of(&src.mapped)
    }

    /// Inserts one graph **online**: the graph is mapped onto the
    /// dimensions exactly as a query is ([`GraphIndex::map_query`] —
    /// one code-tree search, no re-mining) and that vector is appended
    /// to the scan store in place. The vector is all the index records
    /// of the graph's features, and all a snapshot needs: a dimension's
    /// support is its store column. Returns the new graph's stable id.
    ///
    /// The selected dimensions themselves are *not* revisited:
    /// features the new graph would have made frequent stay invisible
    /// until the owner rebuilds. Use [`GraphIndex::is_stale`] to decide
    /// when the accumulated drift (per [`RebuildPolicy`]) warrants it.
    pub fn insert(&mut self, g: Graph) -> GraphId {
        let id = self.db.len() as u32;
        self.mapped.push_row(&self.mapped.map_query(&g));
        self.db.push(g);
        self.tombstones.push_live();
        self.inserts_since_rebuild += 1;
        GraphId(id)
    }

    /// Removes a graph **online** by tombstoning its row: the id stays
    /// stable (and the graph readable via [`GraphIndex::graph`]), but
    /// every ranker skips it from this call on. The row is physically
    /// reclaimed by the next rebuild.
    ///
    /// Returns whether the graph was live (`Ok(false)` = it was
    /// already tombstoned; nothing changed); an out-of-range id is
    /// [`GdimError::GraphOutOfRange`].
    pub fn remove(&mut self, id: GraphId) -> Result<bool, GdimError> {
        let i = id.index();
        if i >= self.db.len() {
            return Err(GdimError::GraphOutOfRange {
                id: i,
                len: self.db.len(),
            });
        }
        Ok(self.tombstones.mark_dead(i))
    }

    /// Whether accumulated churn exceeds the [`RebuildPolicy`]: at
    /// least `max_inserts` inserts since the last rebuild (and at
    /// least one), or a tombstone fraction strictly above
    /// `max_tombstone_frac`.
    pub fn is_stale(&self) -> bool {
        let policy = &self.opts.rebuild;
        (self.inserts_since_rebuild > 0 && self.inserts_since_rebuild >= policy.max_inserts)
            || self.tombstones.dead_fraction() > policy.max_tombstone_frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{Ranker, SearchRequest};

    fn db(n: usize, seed: u64) -> Vec<Graph> {
        gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed)
    }

    #[test]
    fn build_and_query_roundtrip() {
        let index = GraphIndex::build(db(40, 3), IndexOptions::default().with_dimensions(30));
        assert_eq!(index.len(), 40);
        assert!(index.stats().mined_features > 0);
        assert_eq!(index.p(), index.stats().dimensions);
        let q = index.graph(7).unwrap().clone();
        let resp = index.search(&q, &SearchRequest::new(3)).unwrap();
        assert_eq!(resp.hits[0].id.get(), 7);
        assert_eq!(resp.hits[0].distance, 0.0);
    }

    #[test]
    fn auto_strategy_switches_to_dspmap() {
        let opts = IndexOptions::default()
            .with_dimensions(20)
            .with_strategy(SelectionStrategy::Auto { threshold: 10 });
        let index = GraphIndex::build(db(30, 5), opts);
        assert!(index.stats().used_dspmap);
        // DSPMap never touches all pairs.
        assert!(index.stats().delta_pairs < 30 * 29 / 2);
        let small = GraphIndex::build(
            db(8, 5),
            IndexOptions::default()
                .with_dimensions(10)
                .with_strategy(SelectionStrategy::Auto { threshold: 10 }),
        );
        assert!(!small.stats().used_dspmap);
    }

    #[test]
    fn explicit_dspmap_partition_size() {
        let opts = IndexOptions::default()
            .with_dimensions(15)
            .with_strategy(SelectionStrategy::Dspmap { partition_size: 8 });
        let index = GraphIndex::build(db(25, 7), opts);
        assert!(index.stats().used_dspmap);
        let q = index.graph(0).unwrap().clone();
        let resp = index.search(&q, &SearchRequest::new(1)).unwrap();
        assert_eq!(resp.hits[0].id.get(), 0);
    }

    #[test]
    fn exact_and_mapped_agree_on_self_query() {
        let index = GraphIndex::build(db(15, 9), IndexOptions::default().with_dimensions(20));
        let q = index.graph(4).unwrap().clone();
        for ranker in [Ranker::Mapped, Ranker::Exact] {
            let resp = index
                .search(&q, &SearchRequest::new(1).ranker(ranker))
                .unwrap();
            assert_eq!(resp.hits[0].id.get(), 4, "{ranker:?}");
        }
    }

    #[test]
    fn exact_reranking_uses_the_configured_dissimilarity() {
        // Build with δ1 (MaxNorm): the index must re-rank with δ1, not
        // the hardcoded default δ2.
        let mut opts = IndexOptions::default().with_dimensions(15);
        opts.delta.kind = Dissimilarity::MaxNorm;
        let index = GraphIndex::build(db(12, 21), opts);
        assert_eq!(index.dissimilarity(), Dissimilarity::MaxNorm);
        let q = index.graph(5).unwrap().clone();
        let resp = index
            .search(&q, &SearchRequest::new(12).ranker(Ranker::Exact))
            .unwrap();
        let want = crate::query::exact_ranking(
            &index.graphs().cloned().collect::<Vec<_>>(),
            &q,
            Dissimilarity::MaxNorm,
            &index.delta_config().mcs,
            index.exec(),
        );
        let got: Vec<(u32, f64)> = resp.hits.iter().map(|h| (h.id.get(), h.distance)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_range_graph_is_an_error_not_a_panic() {
        let index = GraphIndex::build(db(5, 23), IndexOptions::default().with_dimensions(10));
        match index.graph(99) {
            Err(GdimError::GraphOutOfRange { id: 99, len: 5 }) => {}
            other => panic!("expected GraphOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn a_cloned_index_shares_its_code_tree() {
        // Copy-on-write publishing clones the index per write: what is
        // immutable (the dimensions, their code tree, the built ANN)
        // and every sealed row chunk must be shared, not copied.
        use crate::chunked::CHUNK;
        let mut index = GraphIndex::build(db(20, 31), IndexOptions::default().with_dimensions(20));
        for g in db(2 * CHUNK + 5, 77) {
            index.insert(g);
        }
        index.ann();
        let copy = index.clone();

        assert!(std::ptr::eq(
            index.mapped().mapper(),
            copy.mapped().mapper()
        ));
        assert!(std::ptr::eq(
            index.mapped().codes().as_ptr(),
            copy.mapped().codes().as_ptr()
        ));
        assert!(Arc::ptr_eq(
            index.ann.get().expect("built"),
            copy.ann.get().expect("cloned")
        ));
        // 25 + 2·CHUNK graphs seal two chunks; the graphs are the only
        // per-row heap state there is.
        let (a, b) = (index.db.sealed_chunks(), copy.db.sealed_chunks());
        assert!(a.len() == 2 && b.len() == 2 && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)));
        assert_eq!(index.rows_copied_by_clone(), 25);

        // The copy is a snapshot: the source moving on — through a
        // seal — changes nothing it answers.
        let before = copy.to_bytes();
        for g in db(CHUNK, 78) {
            index.insert(g);
        }
        index.remove(GraphId(3)).unwrap();
        let n = 25 + 2 * CHUNK;
        assert_eq!(copy.len(), n);
        assert_eq!(copy.live_len(), n);
        assert!(copy.graph(n).is_err());
        assert_eq!(copy.to_bytes(), before);
    }

    #[test]
    fn insert_maps_against_the_existing_space() {
        let mut index = GraphIndex::build(db(20, 31), IndexOptions::default().with_dimensions(20));
        let newcomers = db(3, 77);
        let (p, mined) = (index.p(), index.stats().mined_features);
        for g in &newcomers {
            let id = index.insert(g.clone());
            // The appended vector is exactly the query mapping of the
            // inserted graph — a later self-query scores distance 0.
            let row = index.mapped().vector(id.index());
            assert_eq!(row, index.map_query(g), "{id}");
            assert_eq!(row, index.mapped().map_query_unpruned(g), "{id}");
        }
        assert_eq!(index.len(), 23);
        assert_eq!(index.live_len(), 23);
        assert_eq!(index.pending_inserts(), 3);
        // The dimensions themselves do not move without a rebuild.
        assert_eq!((index.p(), index.stats().mined_features), (p, mined));
        // The vector is all the index records of an insert, and enough
        // for a snapshot to bring the row back.
        let back = GraphIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.mapped().store(), index.mapped().store());
        let resp = index.search(&newcomers[1], &SearchRequest::new(1)).unwrap();
        assert_eq!(resp.hits[0].id.get(), 21);
        assert_eq!(resp.hits[0].distance, 0.0);
    }

    #[test]
    fn online_inserts_match_batch_construction() {
        // Mine over 24 graphs, index the first 20 under four of the
        // features, insert the other 4: the rows must equal those of
        // the database mapped over all 24 at once (same features, so
        // they line up exactly).
        use crate::featurespace::FeatureSpace;
        let all = db(24, 31);
        let feats = mine(
            &all,
            &MinerConfig::new(Support::Relative(0.2)).with_max_edges(4),
        );
        assert!(feats.len() > 7);
        let selected = vec![1, 3, 4, 6];
        let full = FeatureSpace::build(all.len(), feats);
        let batch = MappedDatabase::new(&full, &selected).unwrap();
        let first = full.restrict_graphs(&(0..20).collect::<Vec<_>>());
        let donor = GraphIndex::build(Vec::new(), IndexOptions::default());
        let mut grown = GraphIndex::from_parts(
            all[..20].to_vec(),
            batch.codes().to_vec(),
            MappedDatabase::new(&first, &selected)
                .unwrap()
                .store()
                .clone(),
            vec![1.0, 3.0, 4.0, 6.0],
            donor.options().clone(),
            donor.stats().clone(),
            0,
            Tombstones::all_live(20),
            0,
        )
        .unwrap();
        assert_eq!(grown.p(), 4);
        for g in &all[20..] {
            grown.insert(g.clone());
        }
        assert_eq!(grown.mapped().store(), batch.store());
        // A snapshot of the grown index holds every row, inserts
        // included.
        let back = GraphIndex::from_bytes(&grown.to_bytes()).unwrap();
        assert_eq!(back.mapped().store(), batch.store());
        assert_eq!(back.weights(), [1.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn remove_tombstones_and_double_remove_is_a_noop() {
        let mut index = GraphIndex::build(db(10, 33), IndexOptions::default().with_dimensions(15));
        use crate::search::GraphId;
        assert!(index.remove(GraphId(4)).unwrap());
        assert!(!index.remove(GraphId(4)).unwrap(), "already tombstoned");
        assert_eq!(index.live_len(), 9);
        assert_eq!(index.tombstone_count(), 1);
        // The graph stays readable; the rankers just skip it.
        let q = index.graph(4).unwrap().clone();
        let resp = index.search(&q, &SearchRequest::new(10)).unwrap();
        assert!(resp.hits.iter().all(|h| h.id.get() != 4));
        assert_eq!(resp.hits.len(), 9);
        match index.remove(GraphId(99)) {
            Err(GdimError::GraphOutOfRange { id: 99, len: 10 }) => {}
            other => panic!("expected GraphOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_supports() {
        // The decoder's assembly seam must uphold the no-panic
        // contract: a store whose rows or columns (the dimensions'
        // supports) do not match the graphs and the codes is a typed
        // error before any derived state is built.
        let idx = GraphIndex::build(db(6, 41), IndexOptions::default().with_dimensions(8));
        let (n, p) = (idx.len(), idx.p());
        let assemble = |store: VectorStore| {
            GraphIndex::from_parts(
                idx.graphs().cloned().collect(),
                idx.mapped().codes().to_vec(),
                store,
                idx.weights().to_vec(),
                idx.options().clone(),
                idx.stats().clone(),
                0,
                Tombstones::all_live(n),
                0,
            )
        };
        for (rows, bits) in [(n + 1, p), (n - 1, p), (n, p + 1)] {
            match assemble(VectorStore::zeros(rows, bits)) {
                Err(GdimError::Corrupt(msg)) => assert!(msg.contains("store"), "{msg}"),
                other => panic!("{rows}×{bits}: expected Corrupt, got {other:?}"),
            }
        }
        // The unmodified parts still assemble.
        assert!(assemble(idx.mapped().store().clone()).is_ok());
    }

    #[test]
    fn empty_database_builds_and_serves() {
        let index = GraphIndex::build(Vec::new(), IndexOptions::default());
        assert!(index.is_empty());
        let q = db(1, 1).remove(0);
        for ranker in [
            Ranker::Mapped,
            Ranker::Exact,
            Ranker::Refined { candidates: 3 },
        ] {
            let resp = index
                .search(&q, &SearchRequest::new(5).ranker(ranker))
                .unwrap();
            assert!(resp.hits.is_empty(), "{ranker:?}");
        }
    }
}
