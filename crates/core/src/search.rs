//! The serving-layer search API: typed request/response top-k search
//! over a built [`GraphIndex`].
//!
//! The paper's workload is *online*: build the DS-preserved mapping
//! once, then answer a stream of top-k queries (§6 answers each query
//! by mapping + sequential scan). This module shapes that workload as
//! explicit values — a [`SearchRequest`] selects `k`, a [`Ranker`] and
//! the [`MappingKind`]; a [`SearchResponse`]
//! carries typed [`Hit`]s plus [`SearchStats`] observability (vectors
//! fully evaluated vs. early-abandoned vs. tombstone-skipped, MCS
//! calls, the answering epoch, wall time) so a server can meter every
//! answer.
//!
//! Four rankers cover the quality/cost spectrum:
//!
//! * [`Ranker::Mapped`] — the paper's fast path: VF2 feature matching,
//!   then a sequential scan of the mapped vectors. No MCS calls.
//! * [`Ranker::Exact`] — the slow reference: one MCS-based dissimilarity
//!   per database graph.
//! * [`Ranker::Refined`] — filter-then-verify (the pattern surveyed in
//!   *Big Graph Search*, Ma et al.): candidate generation in the cheap
//!   mapped space, exact re-ranking of only the top-`c` candidates.
//!   With `candidates ≥ n` it degenerates to [`Ranker::Exact`]; with a
//!   small `c` it buys near-exact answers for `c` MCS calls instead of
//!   `n`.
//! * [`Ranker::Approx`] — the **deliberately inexact** path: an
//!   HNSW-style proximity-graph beam search ([`crate::ann`]) replaces
//!   the O(n) scan, trading *measured* recall for sub-linear latency.
//!   Every answer stamps [`SearchStats::approximate`] so no caller can
//!   mistake it for an exact response.
//!
//! Every request runs through **one executor** —
//! [`search_partitions`]: map the query → per-[`Partition`] scan | ANN
//! beam | exact δ → merge by `(distance, seq)` ([`merge_topk`]) →
//! refine → stats.
//! [`GraphIndex::search`] is its 1-partition, identity-id case; the
//! sharded index (`gdim-shard`) passes one partition per shard, so
//! every ranker, the verification phase and the stats assembly exist
//! exactly once.
//!
//! [`Ranker`], [`MappingKind`], and [`SearchRequest`] are
//! `#[non_exhaustive]`: build requests with [`SearchRequest::new`] and
//! the [`SearchRequest::ranker`]/[`SearchRequest::mapping`] builder
//! methods, so future rankers, mappings, and request knobs stay
//! additive instead of breaking changes.
//!
//! ```
//! use gdim_core::index::{GraphIndex, IndexOptions};
//! use gdim_core::search::{Ranker, SearchRequest};
//!
//! let db = gdim_datagen::chem_db(40, &gdim_datagen::ChemConfig::default(), 7);
//! let index = GraphIndex::build(db, IndexOptions::default().with_dimensions(30));
//! let query = index.graph(3).unwrap().clone();
//!
//! let fast = index.search(&query, &SearchRequest::new(5)).unwrap();
//! assert_eq!(fast.hits[0].id.get(), 3); // the graph itself ranks first
//! assert_eq!(fast.stats.mcs_calls, 0);
//!
//! let refined = SearchRequest::new(5).ranker(Ranker::Refined { candidates: 10 });
//! let verified = index.search(&query, &refined).unwrap();
//! assert_eq!(verified.stats.mcs_calls, 10);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use gdim_graph::{Graph, McsOptions};
use gdim_obs::{Stage, StageTimes};

use crate::bitset::Bitset;
use crate::error::GdimError;
use crate::featurespace::MatchStats;
use crate::index::GraphIndex;
use crate::query::MappingKind;
use crate::scan::{selected_kernel, KernelKind, OrdF64};

/// Typed id of an indexed graph (its position in the database the
/// index was built over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphId(pub u32);

impl GraphId {
    /// The raw id.
    #[inline]
    pub fn get(self) -> u32 {
        self.0
    }

    /// The id as a `usize` index into the database.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for GraphId {
    fn from(id: u32) -> Self {
        GraphId(id)
    }
}

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One search answer: a database graph and its distance under the
/// ranker that produced it (mapped Euclidean distance for
/// [`Ranker::Mapped`], graph dissimilarity δ for [`Ranker::Exact`] and
/// [`Ranker::Refined`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The matched database graph.
    pub id: GraphId,
    /// Distance to the query, ascending within a response.
    pub distance: f64,
}

/// Which ranking strategy answers the request.
///
/// Marked `#[non_exhaustive]`: new rankers are additive, so
/// cross-crate `match`es must carry a wildcard arm (route unknown
/// rankers like [`Ranker::Mapped`], or reject them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Ranker {
    /// The paper's fast path: sequential scan in the mapped space.
    #[default]
    Mapped,
    /// The MCS-based reference ranker: one δ evaluation per database
    /// graph. Slow by nature; the quality ceiling.
    Exact,
    /// Two-phase filter-then-verify: take the top-`candidates` graphs
    /// by mapped distance, re-rank exactly those with the exact
    /// dissimilarity. Exact-quality answers whenever the true top-k
    /// survives the candidate cut, at `candidates` MCS calls instead of
    /// `n`.
    ///
    /// `candidates` is the verification budget **and** an answer cap: a
    /// response carries at most `min(k, candidates)` hits, because only
    /// verified candidates are ever returned (their δ distances are not
    /// comparable to unverified mapped distances). Ask for `candidates
    /// ≥ k` — typically a small multiple of `k` — to fill a top-k page.
    Refined {
        /// Candidate-set size `c` for the verification phase (clamped
        /// to the database size).
        candidates: usize,
    },
    /// The **approximate** path: an HNSW-style proximity-graph beam
    /// search over the mapped vectors ([`crate::ann`]) instead of the
    /// exact O(n) scan — sub-linear latency for *measured* (not
    /// guaranteed) recall. This is the serving surface's one
    /// deliberately inexact ranker: responses stamp
    /// [`SearchStats::approximate`], and the committed `BENCH_ann.json`
    /// carries the recall@10 the build actually measured.
    ///
    /// The returned **distances are still exact**: beam candidates get
    /// the same `√(h/p)` / weighted formulas as the scan path,
    /// bit-identical per row — approximation affects only *which* rows
    /// are found. Rows inserted after the proximity graph was built are
    /// scanned exactly (the pending tail) and merged in; tombstoned
    /// rows never surface. The graph builds lazily on the first
    /// `Approx` query of an epoch and is invalidated by rebuilds.
    Approx {
        /// Beam width at layer 0 — the recall/latency dial. The beam
        /// returns up to `ef` live candidates, so ask for `ef ≥ k`
        /// (it is raised to the answer size internally when smaller).
        ef: usize,
        /// `Some(c)`: verify like [`Ranker::Refined`] — re-rank the
        /// beam's top `c` candidates with the exact dissimilarity δ
        /// and answer only from verified candidates (at most
        /// `min(k, c)` hits, bit-identical to `Refined { candidates:
        /// c }` over the same candidate set). `None`: answer straight
        /// from the beam with mapped distances.
        verify: Option<usize>,
    },
}

/// A typed top-k search request.
///
/// [`SearchRequest::default`] gives the paper's configuration: `k =
/// 10`, [`Ranker::Mapped`], [`MappingKind::Binary`]. Exact and refined
/// ranking always run at the index's δ budget, the one its dimensions
/// were selected at. Marked `#[non_exhaustive]` so request knobs stay
/// additive: construct with [`SearchRequest::new`] (or `default()`)
/// and refine with the [`ranker`](SearchRequest::ranker) /
/// [`mapping`](SearchRequest::mapping) builder methods — never a
/// struct literal.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SearchRequest {
    /// Number of answers wanted. `k = 0` yields an empty (well-formed)
    /// response; `k > n` is clamped to the database size. With
    /// [`Ranker::Refined`], the candidate budget also caps the answer
    /// count at `min(k, candidates)` — see [`Ranker::Refined`].
    pub k: usize,
    /// Ranking strategy.
    pub ranker: Ranker,
    /// Distance weighting of the mapped scan ([`MappingKind::Weighted`]
    /// reuses the index's DSPM weights; ignored by [`Ranker::Exact`]).
    pub mapping: MappingKind,
}

impl Default for SearchRequest {
    fn default() -> Self {
        SearchRequest {
            k: 10,
            ranker: Ranker::Mapped,
            mapping: MappingKind::Binary,
        }
    }
}

impl SearchRequest {
    /// A request for the top `k` answers with every other knob at its
    /// default — the builder entry point.
    ///
    /// ```
    /// use gdim_core::search::{Ranker, SearchRequest};
    /// let req = SearchRequest::new(10)
    ///     .ranker(Ranker::Approx { ef: 64, verify: None });
    /// assert_eq!(req.k, 10);
    /// ```
    pub fn new(k: usize) -> Self {
        SearchRequest {
            k,
            ..Default::default()
        }
    }

    /// Sets the ranker.
    pub fn ranker(mut self, ranker: Ranker) -> Self {
        self.ranker = ranker;
        self
    }

    /// Sets the mapped-distance weighting.
    pub fn mapping(mut self, mapping: MappingKind) -> Self {
        self.mapping = mapping;
        self
    }
}

/// Per-request observability counters. The scan counters prove what
/// the kernels saved: `candidates_scanned + early_abandoned +
/// tombstones_skipped` equals the index size whenever a scan ran, and
/// `vf2_calls + vf2_pruned` equals the number of selected dimensions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Database vectors whose mapped distance was **fully** evaluated
    /// (0 for [`Ranker::Exact`], which never maps the query).
    /// Early-abandoned and tombstone-skipped vectors are counted
    /// separately — this is the work the kernel actually did, not the
    /// pre-PR-3 "all candidates in the database".
    pub candidates_scanned: usize,
    /// Vectors the scan abandoned early because their running distance
    /// already exceeded the k-th bound.
    pub early_abandoned: usize,
    /// Tombstoned (removed-but-not-yet-compacted) rows the scan
    /// skipped without evaluating.
    pub tombstones_skipped: usize,
    /// 64-bit words read by the scan kernel.
    pub words_scanned: usize,
    /// The index epoch (rebuild generation) that answered the request.
    pub epoch: u64,
    /// Live (non-tombstoned) graphs at answer time — the maximum
    /// possible hit count.
    pub live_graphs: usize,
    /// Dimensions the code-tree search *tested* while mapping the
    /// query ([`MatchStats::vf2_calls`](crate::featurespace::MatchStats::vf2_calls)).
    pub vf2_calls: usize,
    /// Dimensions decided without a test: a prefix of their DFS code
    /// is absent from the query
    /// ([`MatchStats::vf2_pruned`](crate::featurespace::MatchStats::vf2_pruned)).
    pub vf2_pruned: usize,
    /// Exact (MCS-based) dissimilarity evaluations performed.
    pub mcs_calls: usize,
    /// Time spent matching features into the query (VF2) — the paper's
    /// "feature matching time" share of the query cost.
    pub match_time: Duration,
    /// End-to-end time answering the request.
    pub wall_time: Duration,
    /// Which scan-kernel family serviced the request's vector scan
    /// (`None` when no scan ran — [`Ranker::Exact`] — or the response
    /// predates the scan; see [`KernelKind`]). All kernels are
    /// bit-identical, so this is attribution, never semantics.
    pub kernel: Option<KernelKind>,
    /// Whether the answer is **approximate** ([`Ranker::Approx`]): the
    /// hit set came from a proximity-graph beam with measured — not
    /// guaranteed — recall. Distances are still exact per row. Always
    /// `false` for the exact rankers; a merged (sharded) answer is
    /// approximate if any shard's part was.
    pub approximate: bool,
    /// The layer-0 beam width that answered an approximate request
    /// (0 when `approximate` is false). Merges by max.
    pub ef: usize,
    /// Distance evaluations the proximity-graph descent + beam
    /// performed — the approximate path's analogue of
    /// `candidates_scanned`, which for [`Ranker::Approx`] counts only
    /// the exactly-scanned pending-tail rows. Sums across shards.
    pub beam_visited: usize,
    /// Per-stage breakdown of where the request's time went
    /// ([`gdim_obs::Stage`] vocabulary: map, scan / ann_beam, refine,
    /// merge — the serving layer adds parse/serialize on top). Sums
    /// stage-wise across shards, like the time shares above.
    pub stages: StageTimes,
}

impl SearchStats {
    /// Folds another partition's stats into `self` — the aggregation a
    /// sharded (scatter-gather) search uses to report one coherent
    /// [`SearchStats`] for work spread over several indexes, so callers
    /// never hand-sum stat fields.
    ///
    /// Additive work counters (`candidates_scanned`, `early_abandoned`,
    /// `tombstones_skipped`, `words_scanned`, `vf2_calls`,
    /// `vf2_pruned`, `mcs_calls`, `live_graphs`) and the time shares
    /// (`match_time`, `wall_time`) **sum**; `epoch` takes the **max**
    /// (partitions rebuild independently, so the merged value reports
    /// the newest generation that contributed to the answer);
    /// `kernel` keeps the first stamped kind (partitions of one
    /// process always agree). The approximate
    /// fields follow the same shapes: `approximate` **or**s (one
    /// approximate partition makes the whole answer approximate),
    /// `beam_visited` **sums** (it is work), and `ef` takes the
    /// **max** (it is a setting, not work — partitions of one request
    /// always agree, so max is the identity-preserving fold). `stages`
    /// **sums** stage-wise, matching the time shares.
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates_scanned += other.candidates_scanned;
        self.early_abandoned += other.early_abandoned;
        self.tombstones_skipped += other.tombstones_skipped;
        self.words_scanned += other.words_scanned;
        self.epoch = self.epoch.max(other.epoch);
        self.live_graphs += other.live_graphs;
        self.vf2_calls += other.vf2_calls;
        self.vf2_pruned += other.vf2_pruned;
        self.mcs_calls += other.mcs_calls;
        self.match_time += other.match_time;
        self.wall_time += other.wall_time;
        self.kernel = self.kernel.or(other.kernel);
        self.approximate |= other.approximate;
        self.ef = self.ef.max(other.ef);
        self.beam_visited += other.beam_visited;
        self.stages.merge(&other.stages);
    }

    /// [`SearchStats::merge`] over any number of partition stats,
    /// starting from [`SearchStats::default`].
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a SearchStats>) -> SearchStats {
        let mut out = SearchStats::default();
        for part in parts {
            out.merge(part);
        }
        out
    }
}

impl std::fmt::Display for SearchStats {
    /// One compact human-readable line — what a CLI prints after the
    /// hit table and what a log line carries. Counters that were
    /// provably zero-work (no VF2, no MCS, no skips) are elided so the
    /// common mapped-scan line stays short.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned {} of {} live rows ({} words)",
            self.candidates_scanned, self.live_graphs, self.words_scanned
        )?;
        if self.early_abandoned > 0 {
            write!(f, ", {} abandoned early", self.early_abandoned)?;
        }
        if self.tombstones_skipped > 0 {
            write!(f, ", {} tombstoned", self.tombstones_skipped)?;
        }
        if self.vf2_calls > 0 || self.vf2_pruned > 0 {
            write!(
                f,
                "; vf2 {} ran / {} pruned",
                self.vf2_calls, self.vf2_pruned
            )?;
        }
        if self.mcs_calls > 0 {
            write!(f, "; mcs {}", self.mcs_calls)?;
        }
        write!(f, "; epoch {}", self.epoch)?;
        if let Some(kernel) = self.kernel {
            write!(f, "; kernel {}", kernel.name())?;
        }
        if self.approximate {
            write!(
                f,
                "; APPROXIMATE (ef {}, beam visited {})",
                self.ef, self.beam_visited
            )?;
        }
        write!(
            f,
            "; match {:.1?}, wall {:.1?}",
            self.match_time, self.wall_time
        )?;
        if !self.stages.is_empty() {
            write!(f, " [{}]", self.stages)?;
        }
        Ok(())
    }
}

/// A search answer: hits ascending by `(distance, id)` plus the stats
/// of the work performed.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The top-k hits, ascending by `(distance, id)`.
    pub hits: Vec<Hit>,
    /// What the request cost.
    pub stats: SearchStats,
}

impl SearchResponse {
    /// The hit ids in rank order.
    pub fn ids(&self) -> Vec<GraphId> {
        self.hits.iter().map(|h| h.id).collect()
    }

    /// The best hit, if any.
    pub fn top(&self) -> Option<&Hit> {
        self.hits.first()
    }

    /// A compact fixed-width table of the hits — rank, graph id,
    /// distance — ready to print (used by the CLI's `search` output;
    /// handy in examples and test failure messages). An empty response
    /// renders the header plus an explicit `(no hits)` row, so output
    /// is never silently blank. An **approximate** answer
    /// ([`SearchStats::approximate`]) appends an explicit trailer
    /// naming the beam settings, so inexact output is never mistaken
    /// for an exact ranking.
    pub fn hit_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:>4}  {:>8}  {:>12}", "rank", "id", "distance");
        if self.hits.is_empty() {
            let _ = writeln!(out, "{:>4}  {:>8}  {:>12}", "-", "-", "(no hits)");
        }
        for (rank, hit) in self.hits.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4}  {:>8}  {:>12.6}",
                rank + 1,
                hit.id.to_string(),
                hit.distance
            );
        }
        if self.stats.approximate {
            let _ = writeln!(
                out,
                "(approximate: ef {}, beam visited {})",
                self.stats.ef, self.stats.beam_visited
            );
        }
        out
    }
}

impl GraphIndex {
    /// Answers one typed search request — the 1-partition,
    /// identity-id call of the query executor
    /// ([`search_partitions`]).
    ///
    /// Never panics: edge cases (`k == 0`, `k > n`, an empty database,
    /// a candidate budget larger than `n`) yield well-formed responses,
    /// and failures surface as [`GdimError`]. The exact/refined phases
    /// fan out on the index's [`ExecConfig`](gdim_exec::ExecConfig)
    /// budget and are byte-identical for any thread count.
    pub fn search(&self, query: &Graph, req: &SearchRequest) -> Result<SearchResponse, GdimError> {
        Ok(search_partitions(&[self.partition()], query, req))
    }

    /// Answers one request for a whole batch of queries: each query
    /// through [`GraphIndex::search`], in order, on the calling thread.
    /// Each response is exactly that query's single answer, stats
    /// included.
    pub fn search_batch(
        &self,
        queries: &[Graph],
        req: &SearchRequest,
    ) -> Result<Vec<SearchResponse>, GdimError> {
        queries.iter().map(|q| self.search(q, req)).collect()
    }

    /// This index as the executor's only partition: local ids are the
    /// global ids and the merge tie-break.
    fn partition(&self) -> Partition<'_> {
        Partition {
            index: self,
            seqs: None,
            id_base: 0,
        }
    }
}

/// One partition of a search: an index over a subset of the database,
/// plus how its shard-local rows appear in the merged answer.
/// [`GraphIndex::search`] runs the executor over a single identity
/// partition; a sharded index passes one per shard. All partitions of
/// one search share the same selected dimensions, weights, δ
/// configuration and exec budget (partition 0's are used).
#[derive(Debug, Clone, Copy)]
pub struct Partition<'a> {
    /// The partition's rows.
    pub index: &'a GraphIndex,
    /// `seqs[local]` = the row's global insertion sequence number —
    /// the merge tie-break, strictly ascending in `local`. `None`:
    /// the local id is the sequence number.
    pub seqs: Option<&'a [u64]>,
    /// First global id of the partition: row `local` answers as
    /// `GraphId(id_base + local)`. Partitions are passed in ascending
    /// `id_base` order starting at 0, each owning the ids up to the
    /// next partition's base.
    pub id_base: u32,
}

impl Partition<'_> {
    fn seq(&self, local: u32) -> u64 {
        self.seqs.map_or(local as u64, |seqs| seqs[local as usize])
    }

    /// Work counters every leg of this partition starts from.
    fn leg_stats(&self) -> SearchStats {
        SearchStats {
            epoch: self.index.epoch(),
            live_graphs: self.index.live_len(),
            ..Default::default()
        }
    }
}

/// One partition's share of an answer: its local `(id, distance)`
/// ranking, ascending, and the work it cost.
type Leg = (Vec<(u32, f64)>, SearchStats);

/// The process-wide histogram of individual partition legs, in
/// nanoseconds — the shard-imbalance signal a merged [`SearchStats`]
/// cannot carry (it only sees the sum). Registered once in the global
/// registry; recording afterwards is lock-free.
fn leg_histogram() -> &'static std::sync::Arc<gdim_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<gdim_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| {
        gdim_obs::global().histogram(
            "gdim_shard_scan_ns",
            "Latency of individual per-shard scan/beam/exact legs (ns)",
            &[],
        )
    })
}

/// Runs `leg` once per partition, in order, on the calling thread —
/// the one place a leg runs, so every plan records one
/// `gdim_shard_scan_ns` sample per partition. A search never forks per
/// request: concurrent requests are the serving path's parallelism,
/// and the exec budget is spent inside a leg only where a unit of work
/// is milliseconds (exact δ).
fn run_legs<T>(parts: &[Partition<'_>], leg: impl Fn(&Partition<'_>) -> T) -> Vec<T> {
    parts
        .iter()
        .map(|part| {
            let t = Instant::now();
            let out = leg(part);
            leg_histogram().record_duration(t.elapsed());
            out
        })
        .collect()
}

/// Answers one typed search request over `parts` — the single query
/// executor behind [`GraphIndex::search`] (one identity partition)
/// and the sharded scatter-gather search (one partition per shard).
/// The query is mapped once (all partitions share the feature space),
/// each partition runs its leg of the requested ranker — bounded
/// top-k scan, ANN beam, or exact δ — the legs merge by `(distance,
/// seq)`, and the refined/verified rankers re-rank the merged
/// candidates exactly. The legs run in partition order on the calling
/// thread; answers are bit-identical for every partitioning of the
/// same rows.
///
/// # Panics
/// If `parts` is empty.
pub fn search_partitions(
    parts: &[Partition<'_>],
    query: &Graph,
    req: &SearchRequest,
) -> SearchResponse {
    let t0 = Instant::now();
    let mut resp = if matches!(req.ranker, Ranker::Exact) {
        // Exact never maps the query.
        exact_response(parts, query, req)
    } else {
        let (qvec, matched) = parts[0].index.mapped().map_query_with_stats(query);
        let match_time = t0.elapsed();
        let mut resp = match req.ranker {
            Ranker::Approx { ef, .. } => approx_response(parts, query, &qvec, req, ef),
            _ => {
                let ts = Instant::now();
                let legs = run_legs(parts, |part| scan_leg(part, &qvec, req));
                let scan_time = ts.elapsed();
                let mut resp = gather(parts, legs, query, req);
                resp.stats.stages.add(Stage::Scan, scan_time);
                resp
            }
        };
        stamp_match(&mut resp.stats, &matched, match_time);
        resp
    };
    resp.stats.wall_time = t0.elapsed();
    resp
}

/// Records the query-mapping share of a response.
fn stamp_match(stats: &mut SearchStats, matched: &MatchStats, match_time: Duration) {
    stats.vf2_calls = matched.vf2_calls;
    stats.vf2_pruned = matched.vf2_pruned;
    stats.match_time = match_time;
    stats.stages.add(Stage::Map, match_time);
}

/// How many merged candidates the request's scan/beam must produce,
/// and whether they are then verified exactly (and so cap the answer).
fn candidates(req: &SearchRequest) -> (usize, bool) {
    match req.ranker {
        Ranker::Refined { candidates } => (candidates, true),
        Ranker::Approx {
            verify: Some(c), ..
        } => (c, true),
        _ => (req.k, false),
    }
}

/// The scan leg of one partition: a bounded top-k (or
/// top-`candidates`, for [`Ranker::Refined`]) kernel scan of the query
/// vector under the requested mapping, tombstone-masked.
fn scan_leg(part: &Partition<'_>, qvec: &Bitset, req: &SearchRequest) -> Leg {
    let idx = part.index;
    let k = candidates(req).0.min(idx.len());
    let dead = Some(idx.tombstones());
    let (ranked, scan) = match req.mapping {
        MappingKind::Binary => idx.mapped().scan_topk_masked(qvec, k, dead),
        MappingKind::Weighted => {
            idx.mapped()
                .scan_topk_with_masked(qvec, k, idx.weighted_w_sq(), dead)
        }
    };
    let stats = SearchStats {
        candidates_scanned: scan.vectors_scanned,
        early_abandoned: scan.early_abandoned,
        tombstones_skipped: scan.tombstones_skipped,
        words_scanned: scan.words_scanned,
        kernel: Some(selected_kernel()),
        ..part.leg_stats()
    };
    (ranked, stats)
}

/// The single [`Ranker::Approx`] implementation: each partition walks
/// its own lazily built proximity graph plus an exact pass over its
/// pending-insert tail ([`GraphIndex::approx_scan_premapped`]), and
/// the beams merge like any scan. With `verify`, the merged candidates
/// go through the same exact re-ranking as [`Ranker::Refined`], so a
/// verified approximate answer is bit-identical to `Refined` over that
/// candidate set.
fn approx_response(
    parts: &[Partition<'_>],
    query: &Graph,
    qvec: &Bitset,
    req: &SearchRequest,
    ef: usize,
) -> SearchResponse {
    // Without verification the beam only needs k answers; with it,
    // the beam must produce the full candidate set to re-rank.
    let (take, _) = candidates(req);
    let tb = Instant::now();
    let legs = run_legs(parts, |part| {
        let idx = part.index;
        let (ranked, ann) = idx.approx_scan_premapped(qvec, take.min(idx.len()), ef, req.mapping);
        let stats = SearchStats {
            candidates_scanned: ann.tail_scanned,
            tombstones_skipped: ann.tail_tombstones,
            approximate: true,
            ef,
            beam_visited: ann.beam_visited,
            ..part.leg_stats()
        };
        (ranked, stats)
    });
    let beam_time = tb.elapsed();
    let mut resp = gather(parts, legs, query, req);
    resp.stats.stages.add(Stage::AnnBeam, beam_time);
    resp
}

/// The single [`Ranker::Exact`] implementation: the full δ ranking of
/// each partition's live rows, merged by `(δ, seq)`. Tombstoned graphs
/// are excluded *before* the δ fan-out, so dead rows cost no MCS calls
/// and never surface as hits. The δ fan-out inside each leg owns the
/// exec budget.
fn exact_response(parts: &[Partition<'_>], query: &Graph, req: &SearchRequest) -> SearchResponse {
    let mcs = mcs_for(parts);
    let tr = Instant::now();
    let legs = run_legs(parts, |part| {
        let idx = part.index;
        let live = idx.tombstones().live_ids();
        let ranked = crate::query::exact_ranking_among(
            |i| idx.graph(i as usize).expect("live ids are rows"),
            &live,
            query,
            idx.dissimilarity(),
            &mcs,
            idx.exec(),
        );
        let stats = SearchStats {
            mcs_calls: live.len(),
            ..part.leg_stats()
        };
        (ranked, stats)
    });
    let delta_time = tr.elapsed();
    let mut resp = gather(parts, legs, query, req);
    resp.stats.stages.add(Stage::Refine, delta_time);
    resp
}

/// The gather half of every plan: merges the legs by `(distance,
/// seq)`, re-ranks the merged candidates exactly when the ranker
/// verifies, truncates to `k` typed hits, and aggregates the stats
/// via [`SearchStats::merge`].
fn gather(
    parts: &[Partition<'_>],
    legs: Vec<Leg>,
    query: &Graph,
    req: &SearchRequest,
) -> SearchResponse {
    let mut stats = SearchStats::merged(legs.iter().map(|(_, stats)| stats));
    let rankings: Vec<Vec<(u32, f64)>> = legs.into_iter().map(|(ranked, _)| ranked).collect();
    let (take, verify) = candidates(req);
    let tg = Instant::now();
    let mut merged = merge_topk(
        &rankings,
        take,
        |s, local| parts[s].seq(local),
        |s, local| GraphId(parts[s].id_base + local),
    );
    stats.stages.add(Stage::Merge, tg.elapsed());
    if verify {
        // The masked scan may return fewer than `take` rows (only live
        // rows exist); count the δ calls actually made.
        stats.mcs_calls = merged.len();
        let tr = Instant::now();
        merged = refine(parts, query, &merged, &mcs_for(parts));
        stats.stages.add(Stage::Refine, tr.elapsed());
    }
    // Only verified candidates are ever returned, so `take` caps a
    // verifying ranker's answer at `min(k, candidates)`.
    let hits = merged
        .into_iter()
        .take(req.k)
        .map(|h| Hit {
            id: h.id,
            distance: h.distance,
        })
        .collect();
    SearchResponse { hits, stats }
}

/// The verification phase of [`Ranker::Refined`] (and a verifying
/// [`Ranker::Approx`]): exact δ for the merged candidates, computed
/// per owning partition through the one δ-ranking kernel
/// ([`exact_ranking_among`](crate::query::exact_ranking_among),
/// byte-identical for any thread count) and re-sorted ascending by
/// `(δ, seq)` — for a single identity partition, `(δ, id)`.
fn refine(
    parts: &[Partition<'_>],
    query: &Graph,
    candidates: &[MergedHit],
    mcs: &McsOptions,
) -> Vec<MergedHit> {
    let mut locals: Vec<Vec<u32>> = vec![Vec::new(); parts.len()];
    for hit in candidates {
        let s = parts.partition_point(|p| p.id_base <= hit.id.get()) - 1;
        locals[s].push(hit.id.get() - parts[s].id_base);
    }
    let mut out = Vec::with_capacity(candidates.len());
    for (part, locals) in parts.iter().zip(&locals) {
        let idx = part.index;
        let ranked = crate::query::exact_ranking_among(
            |i| idx.graph(i as usize).expect("candidates are rows"),
            locals,
            query,
            idx.dissimilarity(),
            mcs,
            idx.exec(),
        );
        out.extend(ranked.into_iter().map(|(local, distance)| MergedHit {
            id: GraphId(part.id_base + local),
            distance,
            seq: part.seq(local),
        }));
    }
    out.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.seq.cmp(&b.seq)));
    out
}

/// The MCS options of exact and refined ranking: the index's δ
/// configuration, the budget its dimensions were selected at.
fn mcs_for(parts: &[Partition<'_>]) -> McsOptions {
    parts[0].index.delta_config().mcs
}

/// One merged answer: the global id, the distance, and the row's
/// global sequence number (insertion order — the tie-break that makes
/// merged rankings equal an unpartitioned `(distance, id)` order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergedHit {
    /// Global id (for a sharded index: shard in the high bits, local
    /// in the low).
    pub id: GraphId,
    /// Distance under the ranker that produced the part.
    pub distance: f64,
    /// Global insertion sequence number of the row.
    pub seq: u64,
}

/// Merges per-partition rankings into the global top-`k` by
/// `(distance, seq)`.
///
/// `parts[s]` is partition `s`'s ranking as `(local_id, distance)`
/// pairs, **ascending by `(distance, seq)`** — which per-partition
/// scans satisfy naturally, because local ids are assigned in
/// insertion order, so within one partition the `(distance, local)`
/// order *is* the `(distance, seq)` order. `seq_of(part, local)` and
/// `id_of(part, local)` translate a pair to its sequence number and
/// global id. Ties at equal distance resolve by the smaller sequence
/// number, exactly like an unpartitioned index resolves them by the
/// smaller row id. Runs in `O(total + k log s)` for `s` partitions.
pub fn merge_topk<S, I>(parts: &[Vec<(u32, f64)>], k: usize, seq_of: S, id_of: I) -> Vec<MergedHit>
where
    S: Fn(usize, u32) -> u64,
    I: Fn(usize, u32) -> GraphId,
{
    // Cursor heap over the partition fronts, keyed (distance, seq)
    // min-first.
    let mut heap: BinaryHeap<Reverse<(OrdF64, u64, usize)>> =
        BinaryHeap::with_capacity(parts.len());
    let mut cursors = vec![0usize; parts.len()];
    for (s, part) in parts.iter().enumerate() {
        if let Some(&(local, d)) = part.first() {
            heap.push(Reverse((OrdF64(d), seq_of(s, local), s)));
        }
    }
    let mut out = Vec::new();
    while out.len() < k {
        let Some(Reverse((OrdF64(distance), seq, s))) = heap.pop() else {
            break; // every part exhausted
        };
        let (local, _) = parts[s][cursors[s]];
        out.push(MergedHit {
            id: id_of(s, local),
            distance,
            seq,
        });
        cursors[s] += 1;
        if let Some(&(next_local, next_d)) = parts[s].get(cursors[s]) {
            heap.push(Reverse((OrdF64(next_d), seq_of(s, next_local), s)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{GraphIndex, IndexOptions};

    fn index(n: usize, seed: u64) -> GraphIndex {
        let db = gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed);
        GraphIndex::build(db, IndexOptions::default().with_dimensions(25))
    }

    #[test]
    fn mapped_ranker_matches_low_level_scan() {
        let idx = index(25, 3);
        let q = idx.graph(4).unwrap().clone();
        let resp = idx.search(&q, &SearchRequest::new(6)).unwrap();
        let (low, _) = idx
            .mapped()
            .scan_topk_masked(&idx.mapped().map_query(&q), 6, None);
        assert_eq!(resp.hits.len(), 6);
        for (hit, (id, d)) in resp.hits.iter().zip(low) {
            assert_eq!(hit.id.get(), id);
            assert_eq!(hit.distance, d);
        }
        assert_eq!(resp.stats.mcs_calls, 0);
        assert_eq!(resp.stats.candidates_scanned, 25);
    }

    #[test]
    fn exact_ranker_matches_reference_ranking() {
        let idx = index(12, 5);
        let q = idx.graph(2).unwrap().clone();
        let req = SearchRequest::new(4).ranker(Ranker::Exact);
        let resp = idx.search(&q, &req).unwrap();
        let reference = crate::query::exact_topk(
            &idx.graphs().cloned().collect::<Vec<_>>(),
            &q,
            4,
            idx.dissimilarity(),
            &idx.delta_config().mcs,
            idx.exec(),
        );
        let got: Vec<(u32, f64)> = resp.hits.iter().map(|h| (h.id.get(), h.distance)).collect();
        assert_eq!(got, reference);
        assert_eq!(resp.stats.mcs_calls, 12);
    }

    #[test]
    fn refined_with_full_candidates_equals_exact() {
        let idx = index(14, 7);
        for qi in [0usize, 5, 9] {
            let q = idx.graph(qi).unwrap().clone();
            let exact = idx
                .search(&q, &SearchRequest::new(5).ranker(Ranker::Exact))
                .unwrap();
            let refined = idx
                .search(
                    &q,
                    &SearchRequest::new(5).ranker(Ranker::Refined {
                        candidates: usize::MAX,
                    }),
                )
                .unwrap();
            assert_eq!(refined.hits, exact.hits, "query {qi}");
            assert_eq!(refined.stats.mcs_calls, idx.len());
        }
    }

    #[test]
    fn refined_counts_only_candidate_mcs_calls() {
        let idx = index(20, 9);
        let q = idx.graph(0).unwrap().clone();
        let req = SearchRequest::new(3).ranker(Ranker::Refined { candidates: 7 });
        let resp = idx.search(&q, &req).unwrap();
        assert_eq!(resp.stats.mcs_calls, 7);
        assert_eq!(resp.hits.len(), 3);
        // Self-query survives the candidate cut and re-ranks first.
        assert_eq!(resp.hits[0].id.get(), 0);
        assert_eq!(resp.hits[0].distance, 0.0);
    }

    #[test]
    fn refined_candidate_budget_caps_the_answer_count() {
        // Only verified candidates are returned: candidates < k yields
        // min(k, candidates) hits (the documented contract), never a
        // mix of verified and unverified distances.
        let idx = index(20, 9);
        let q = idx.graph(0).unwrap().clone();
        let req = SearchRequest::new(10).ranker(Ranker::Refined { candidates: 4 });
        let resp = idx.search(&q, &req).unwrap();
        assert_eq!(resp.hits.len(), 4);
        assert_eq!(resp.stats.mcs_calls, 4);
    }

    #[test]
    fn k_edge_cases_are_well_formed() {
        let idx = index(10, 11);
        let q = idx.graph(1).unwrap().clone();
        let empty = idx.search(&q, &SearchRequest::new(0)).unwrap();
        assert!(empty.hits.is_empty());
        let all = idx.search(&q, &SearchRequest::new(10_000)).unwrap();
        assert_eq!(all.hits.len(), 10);
        for r in [Ranker::Exact, Ranker::Refined { candidates: 4 }] {
            let resp = idx
                .search(&q, &SearchRequest::new(10_000).ranker(r))
                .unwrap();
            assert!(resp.hits.len() <= 10);
        }
    }

    #[test]
    fn candidates_scanned_shrinks_under_a_tight_bound() {
        // A self-query with k = 1 pins the k-th bound to distance 0
        // almost immediately; on a multi-word weighted scan every row
        // that differs within its first word is then abandoned early,
        // so candidates_scanned counts only the fully-evaluated rows.
        let db = gdim_datagen::chem_db(40, &gdim_datagen::ChemConfig::default(), 31);
        let idx = GraphIndex::build(db, IndexOptions::default().with_dimensions(100));
        assert!(
            idx.mapped().store().stride() >= 2,
            "need a multi-word scan for early abandon"
        );
        let q = idx.graph(0).unwrap().clone();
        let req = SearchRequest::new(1).mapping(MappingKind::Weighted);
        let resp = idx.search(&q, &req).unwrap();
        let n = idx.len();
        assert_eq!(
            resp.stats.candidates_scanned + resp.stats.early_abandoned,
            n
        );
        assert!(
            resp.stats.early_abandoned > 0,
            "tight bound should abandon some rows"
        );
        assert!(resp.stats.candidates_scanned < n);
        // Wide k cannot abandon anything: every row is fully scanned.
        let wide = idx
            .search(&q, &SearchRequest::new(n).mapping(MappingKind::Weighted))
            .unwrap();
        assert_eq!(wide.stats.candidates_scanned, n);
        assert_eq!(wide.stats.early_abandoned, 0);
        // Fewer words are read under the tight bound.
        assert!(resp.stats.words_scanned < wide.stats.words_scanned);
    }

    #[test]
    fn candidates_scanned_counts_fully_evaluated_vectors_only() {
        // Pins the post-PR-3 meaning of `candidates_scanned`: the rows
        // whose distance the kernel *fully* evaluated — identical to
        // the kernel's own `vectors_scanned` counter, never the whole
        // database whenever rows were early-abandoned or tombstoned.
        let idx = index(30, 47);
        let q = idx.graph(0).unwrap().clone();
        for req in [
            SearchRequest::new(3),
            SearchRequest::new(1).mapping(MappingKind::Weighted),
        ] {
            let resp = idx.search(&q, &req).unwrap();
            let (_, kernel) = match req.mapping {
                MappingKind::Binary => {
                    idx.mapped()
                        .scan_topk_masked(&idx.map_query(&q), req.k, Some(idx.tombstones()))
                }
                MappingKind::Weighted => idx.mapped().scan_topk_with_masked(
                    &idx.map_query(&q),
                    req.k,
                    idx.weighted_w_sq(),
                    Some(idx.tombstones()),
                ),
            };
            assert_eq!(resp.stats.candidates_scanned, kernel.vectors_scanned);
            assert_eq!(
                resp.stats.candidates_scanned
                    + resp.stats.early_abandoned
                    + resp.stats.tombstones_skipped,
                idx.len(),
                "fully-evaluated + abandoned + tombstoned covers the index"
            );
        }
    }

    #[test]
    fn tombstoned_rows_never_surface_and_stats_account_for_them() {
        let db = gdim_datagen::chem_db(24, &gdim_datagen::ChemConfig::default(), 21);
        let mut idx = GraphIndex::build(db, IndexOptions::default().with_dimensions(25));
        for dead in [2u32, 3, 11] {
            assert!(idx.remove(GraphId(dead)).unwrap());
        }
        let q = idx.graph(2).unwrap().clone(); // query *is* a tombstoned graph
        for (ranker, mapping) in [
            (Ranker::Mapped, MappingKind::Binary),
            (Ranker::Mapped, MappingKind::Weighted),
            (Ranker::Refined { candidates: 30 }, MappingKind::Binary),
            (Ranker::Exact, MappingKind::Binary),
            (
                Ranker::Approx {
                    ef: 24,
                    verify: None,
                },
                MappingKind::Binary,
            ),
        ] {
            let req = SearchRequest::new(24).ranker(ranker).mapping(mapping);
            let resp = idx.search(&q, &req).unwrap();
            assert!(
                resp.hits.iter().all(|h| ![2, 3, 11].contains(&h.id.get())),
                "{ranker:?}/{mapping:?}: dead id in hits"
            );
            assert_eq!(resp.hits.len(), 21, "{ranker:?}: one hit per live graph");
            assert_eq!(resp.stats.live_graphs, 21);
            assert_eq!(resp.stats.epoch, 0);
            match ranker {
                Ranker::Exact => assert_eq!(resp.stats.mcs_calls, 21, "δ only for live"),
                Ranker::Refined { .. } => assert_eq!(resp.stats.mcs_calls, 21),
                Ranker::Approx { .. } => {
                    // n ≤ 2m+1 keeps the proximity graph complete, so
                    // a full-width beam must surface every live row.
                    assert!(resp.stats.approximate);
                    assert_eq!(resp.stats.mcs_calls, 0);
                }
                Ranker::Mapped => {
                    assert_eq!(resp.stats.tombstones_skipped, 3);
                    assert_eq!(
                        resp.stats.candidates_scanned
                            + resp.stats.early_abandoned
                            + resp.stats.tombstones_skipped,
                        24
                    );
                }
            }
        }
    }

    #[test]
    fn match_stats_prove_vf2_pruning() {
        let idx = index(30, 41);
        let q = idx.graph(3).unwrap().clone();
        let resp = idx.search(&q, &SearchRequest::new(5)).unwrap();
        assert_eq!(resp.stats.vf2_calls + resp.stats.vf2_pruned, idx.p());
        assert!(
            resp.stats.vf2_pruned > 0,
            "chem features nest; some must prune"
        );
        // The exact ranker never maps the query.
        let exact = idx
            .search(&q, &SearchRequest::new(5).ranker(Ranker::Exact))
            .unwrap();
        assert_eq!(exact.stats.vf2_calls, 0);
        assert_eq!(exact.stats.words_scanned, 0);
    }

    #[test]
    fn weighted_mapping_serves_from_the_same_index() {
        let idx = index(20, 13);
        let q = idx.graph(6).unwrap().clone();
        let bin = idx.search(&q, &SearchRequest::new(5)).unwrap();
        let wgt = idx
            .search(&q, &SearchRequest::new(5).mapping(MappingKind::Weighted))
            .unwrap();
        // Both place the graph itself first at distance 0.
        assert_eq!(bin.hits[0].id, wgt.hits[0].id);
        assert_eq!(wgt.hits[0].distance, 0.0);
    }

    /// Every stats field but the timings, for comparing the work two
    /// answers did.
    fn work(stats: &SearchStats) -> String {
        format!(
            "{:?}",
            SearchStats {
                match_time: Duration::ZERO,
                wall_time: Duration::ZERO,
                stages: StageTimes::new(),
                ..*stats
            }
        )
    }

    #[test]
    fn batch_matches_single_for_any_thread_budget() {
        let db = gdim_datagen::chem_db(22, &gdim_datagen::ChemConfig::default(), 17);
        let queries = gdim_datagen::chem_db(5, &gdim_datagen::ChemConfig::default(), 99);
        let reqs = [
            SearchRequest::new(4),
            SearchRequest::new(4).ranker(Ranker::Refined { candidates: 6 }),
        ];
        for threads in [1usize, 2, 8] {
            let idx = GraphIndex::build(
                db.clone(),
                IndexOptions::default()
                    .with_dimensions(20)
                    .with_threads(threads),
            );
            for req in &reqs {
                let batch = idx.search_batch(&queries, req).unwrap();
                assert_eq!(batch.len(), queries.len());
                for (q, resp) in queries.iter().zip(&batch) {
                    let single = idx.search(q, req).unwrap();
                    assert_eq!(single.hits, resp.hits, "threads = {threads}");
                    assert_eq!(
                        work(&single.stats),
                        work(&resp.stats),
                        "threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_the_epoch() {
        let mut a_stages = StageTimes::new();
        a_stages.add_ns(Stage::Scan, 100);
        let mut b_stages = StageTimes::new();
        b_stages.add_ns(Stage::Scan, 50);
        b_stages.add_ns(Stage::Refine, 10);
        let a = SearchStats {
            candidates_scanned: 10,
            early_abandoned: 2,
            tombstones_skipped: 1,
            words_scanned: 40,
            epoch: 3,
            live_graphs: 11,
            vf2_calls: 5,
            vf2_pruned: 7,
            mcs_calls: 4,
            match_time: std::time::Duration::from_micros(10),
            wall_time: std::time::Duration::from_micros(100),
            kernel: None,
            approximate: false,
            ef: 0,
            beam_visited: 0,
            stages: a_stages,
        };
        let b = SearchStats {
            candidates_scanned: 20,
            early_abandoned: 3,
            tombstones_skipped: 0,
            words_scanned: 80,
            epoch: 1,
            live_graphs: 23,
            vf2_calls: 1,
            vf2_pruned: 0,
            mcs_calls: 6,
            match_time: std::time::Duration::from_micros(20),
            wall_time: std::time::Duration::from_micros(50),
            kernel: Some(KernelKind::Unrolled),
            approximate: true,
            ef: 48,
            beam_visited: 900,
            stages: b_stages,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.candidates_scanned, 30);
        assert_eq!(m.early_abandoned, 5);
        assert_eq!(m.tombstones_skipped, 1);
        assert_eq!(m.words_scanned, 120);
        assert_eq!(m.epoch, 3, "epoch takes the max, not the sum");
        assert_eq!(m.live_graphs, 34);
        assert_eq!(m.vf2_calls, 6);
        assert_eq!(m.vf2_pruned, 7);
        assert_eq!(m.mcs_calls, 10);
        assert_eq!(m.match_time, std::time::Duration::from_micros(30));
        assert_eq!(m.wall_time, std::time::Duration::from_micros(150));
        // `kernel` keeps the first stamped kind.
        assert_eq!(m.kernel, Some(KernelKind::Unrolled));
        // One approximate partition makes the merged answer
        // approximate; beam work sums, the ef setting maxes.
        assert!(m.approximate, "approximate must OR across shards");
        assert_eq!(m.ef, 48, "ef takes the max, not the sum");
        assert_eq!(m.beam_visited, 900);
        // Stage times sum stage-wise, like the time shares.
        assert_eq!(m.stages.get_ns(Stage::Scan), 150);
        assert_eq!(m.stages.get_ns(Stage::Refine), 10);
        // merged() folds from the default: one part is the identity,
        // and merging the two parts in either order agrees.
        let folded = SearchStats::merged([&a, &b]);
        assert_eq!(folded.candidates_scanned, m.candidates_scanned);
        assert_eq!(folded.epoch, m.epoch);
        assert_eq!(folded.wall_time, m.wall_time);
        let single = SearchStats::merged([&a]);
        assert_eq!(single.candidates_scanned, a.candidates_scanned);
        assert_eq!(single.epoch, a.epoch);
        // Default is the merge identity.
        let empty = SearchStats::merged(std::iter::empty::<&SearchStats>());
        assert_eq!(empty.candidates_scanned, 0);
        assert_eq!(empty.epoch, 0);
    }

    #[test]
    fn stats_display_is_compact_and_complete() {
        let mut stages = StageTimes::new();
        stages.add_ns(Stage::AnnBeam, 700_000);
        stages.add_ns(Stage::Refine, 150_000);
        let stats = SearchStats {
            candidates_scanned: 90,
            early_abandoned: 7,
            tombstones_skipped: 3,
            words_scanned: 400,
            epoch: 2,
            live_graphs: 97,
            vf2_calls: 12,
            vf2_pruned: 8,
            mcs_calls: 5,
            match_time: std::time::Duration::from_micros(120),
            wall_time: std::time::Duration::from_micros(900),
            kernel: Some(KernelKind::Scalar),
            approximate: true,
            ef: 64,
            beam_visited: 1234,
            stages,
        };
        let line = stats.to_string();
        for needle in [
            "scanned 90 of 97",
            "7 abandoned",
            "3 tombstoned",
            "vf2 12 ran / 8 pruned",
            "mcs 5",
            "epoch 2",
            "kernel scalar",
            "APPROXIMATE (ef 64, beam visited 1234)",
            "[ann_beam=",
            "refine=",
        ] {
            assert!(line.contains(needle), "missing {needle:?} in {line:?}");
        }
        // Zero-work counters are elided on the common fast path, and
        // an exact answer never claims approximation.
        let quiet = SearchStats::default().to_string();
        assert!(!quiet.contains("vf2") && !quiet.contains("mcs"));
        assert!(!quiet.contains("APPROXIMATE"));
        assert!(!quiet.contains('['), "empty stage vectors are elided");
    }

    #[test]
    fn hit_table_renders_ranked_rows() {
        let resp = SearchResponse {
            hits: vec![
                Hit {
                    id: GraphId(3),
                    distance: 0.0,
                },
                Hit {
                    id: GraphId(17),
                    distance: 0.25,
                },
            ],
            stats: SearchStats::default(),
        };
        let table = resp.hit_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per hit");
        assert!(lines[0].contains("rank") && lines[0].contains("distance"));
        assert!(lines[1].contains("g3") && lines[1].contains("0.000000"));
        assert!(lines[2].contains("g17") && lines[2].contains("0.250000"));
        let empty = SearchResponse {
            hits: Vec::new(),
            stats: SearchStats::default(),
        };
        assert!(empty.hit_table().contains("(no hits)"));
        // An approximate answer is labeled as such, exact ones never.
        assert!(!table.contains("approximate"));
        let approx = SearchResponse {
            hits: vec![Hit {
                id: GraphId(3),
                distance: 0.0,
            }],
            stats: SearchStats {
                approximate: true,
                ef: 48,
                beam_visited: 210,
                ..Default::default()
            },
        };
        let atable = approx.hit_table();
        assert!(
            atable.contains("(approximate: ef 48, beam visited 210)"),
            "{atable}"
        );
    }

    #[test]
    fn graph_id_formats_and_converts() {
        let id = GraphId::from(7u32);
        assert_eq!(id.to_string(), "g7");
        assert_eq!(id.get(), 7);
        assert_eq!(id.index(), 7usize);
    }

    /// Contiguous-partition translators: shard `s` owns `offset[s] +
    /// local`, and the sequence number equals that global row id.
    fn translators(
        offsets: &[u64],
    ) -> (
        impl Fn(usize, u32) -> u64 + '_,
        impl Fn(usize, u32) -> GraphId + '_,
    ) {
        (
            move |s: usize, local: u32| offsets[s] + local as u64,
            move |s: usize, local: u32| GraphId((offsets[s] + local as u64) as u32),
        )
    }

    #[test]
    fn merge_equals_global_sort_with_seq_tiebreak() {
        // Three shards with overlapping distances and deliberate ties.
        let parts = vec![
            vec![(0u32, 0.5), (1, 1.0), (2, 1.0)],
            vec![(0, 0.5), (1, 2.0)],
            vec![(0, 0.1), (1, 1.0)],
        ];
        let offsets = [0u64, 3, 5];
        let (seq_of, id_of) = translators(&offsets);
        let merged = merge_topk(&parts, 10, seq_of, id_of);
        let got: Vec<(u32, f64)> = merged.iter().map(|h| (h.id.get(), h.distance)).collect();
        // Global sort by (distance, seq): 5@0.1, 0@0.5, 3@0.5, 1@1.0,
        // 2@1.0, 6@1.0, 4@2.0.
        assert_eq!(
            got,
            vec![
                (5, 0.1),
                (0, 0.5),
                (3, 0.5),
                (1, 1.0),
                (2, 1.0),
                (6, 1.0),
                (4, 2.0)
            ]
        );
        // seq mirrors the global id in this layout.
        assert!(merged.iter().all(|h| h.seq == h.id.get() as u64));
    }

    #[test]
    fn k_truncates_and_exhaustion_stops_early() {
        let parts = vec![vec![(0u32, 1.0)], vec![], vec![(0, 0.0)]];
        let offsets = [0u64, 1, 1];
        let (seq_of, id_of) = translators(&offsets);
        let top1 = merge_topk(&parts, 1, &seq_of, &id_of);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].distance, 0.0);
        let all = merge_topk(&parts, 100, &seq_of, &id_of);
        assert_eq!(all.len(), 2, "k beyond the total returns everything");
        assert!(merge_topk(&parts, 0, &seq_of, &id_of).is_empty());
        let none: Vec<Vec<(u32, f64)>> = Vec::new();
        assert!(merge_topk(&none, 5, &seq_of, &id_of).is_empty());
    }

    #[test]
    fn single_part_passes_through() {
        let parts = vec![vec![(0u32, 0.25), (1, 0.5), (2, 0.75)]];
        let offsets = [0u64];
        let (seq_of, id_of) = translators(&offsets);
        let merged = merge_topk(&parts, 2, seq_of, id_of);
        let got: Vec<(u32, f64)> = merged.iter().map(|h| (h.id.get(), h.distance)).collect();
        assert_eq!(got, vec![(0, 0.25), (1, 0.5)]);
    }
}
