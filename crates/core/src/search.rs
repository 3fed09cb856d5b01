//! The serving-layer search API: typed request/response top-k search
//! over a built [`GraphIndex`].
//!
//! The paper's workload is *online*: build the DS-preserved mapping
//! once, then answer a stream of top-k queries (§6 answers each query
//! by mapping + sequential scan). This module shapes that workload as
//! explicit values — a [`SearchRequest`] selects `k` and a [`Ranker`];
//! a [`SearchResponse`]
//! carries typed [`Hit`]s plus [`SearchStats`] observability (vectors
//! evaluated vs. tombstone-skipped, MCS calls, the answering epoch,
//! wall time) so a server can meter every answer.
//!
//! Four rankers cover the quality/cost spectrum:
//!
//! * [`Ranker::Mapped`] — the paper's fast path: VF2 feature matching,
//!   then a sequential scan of the mapped vectors under the paper's
//!   binary distance. No MCS calls.
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
//! beam | exact δ, each leg feeding one bounded selector keyed
//! `(distance, seq)` and one [`SearchStats`] → refine.
//! [`GraphIndex::search`] is its 1-partition, identity-id case; the
//! sharded index (`gdim-shard`) passes one partition per shard, so
//! every ranker, the verification phase and the stats assembly exist
//! exactly once.
//!
//! Ranking is binary, the paper's φ. The weighted distance is an
//! ablation only the library offers
//! ([`MappedDatabase::scan_topk_with_masked`](crate::query::MappedDatabase::scan_topk_with_masked)),
//! never a request option.
//!
//! [`Ranker`] and [`SearchRequest`] are `#[non_exhaustive]`: build
//! requests with [`SearchRequest::new`] and the
//! [`SearchRequest::ranker`] builder method, so future rankers and
//! request knobs stay additive instead of breaking changes.
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

use std::time::{Duration, Instant};

use gdim_graph::{Graph, McsOptions};
use gdim_obs::{Stage, StageTimes};

use crate::bitset::Bitset;
use crate::error::GdimError;
use crate::index::GraphIndex;
use crate::query::MappingKind;
use crate::scan::{selected_kernel, KernelKind, OrdF64, TopK};

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
/// 10`, [`Ranker::Mapped`]. Exact and refined ranking always run at
/// the index's δ budget, the one its dimensions were selected at.
/// Marked `#[non_exhaustive]` so request knobs stay additive:
/// construct with [`SearchRequest::new`] (or `default()`) and refine
/// with the [`ranker`](SearchRequest::ranker) builder method — never a
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
}

impl Default for SearchRequest {
    fn default() -> Self {
        SearchRequest {
            k: 10,
            ranker: Ranker::Mapped,
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
}

/// Per-request observability counters. The scan counters prove what
/// the kernels saved: `candidates_scanned + tombstones_skipped` equals
/// the index size whenever a scan ran, and `vf2_calls + vf2_pruned`
/// equals the number of selected dimensions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Database vectors whose mapped distance was evaluated (0 for
    /// [`Ranker::Exact`], which never maps the query). Tombstone-skipped
    /// vectors are counted separately — this is the work the kernel
    /// actually did, not "all candidates in the database".
    pub candidates_scanned: usize,
    /// Tombstoned (removed-but-not-yet-compacted) rows the scan
    /// skipped without evaluating.
    pub tombstones_skipped: usize,
    /// 64-bit words read by the scan kernel.
    pub words_scanned: usize,
    /// The index epoch (rebuild generation) that answered the request
    /// — for a sharded index, the newest shard's.
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
    /// "feature matching time" share of the query cost. A query this
    /// thread mapped recently is answered from the map cache
    /// ([`CodeTree::map_query_cached`](crate::featurespace::CodeTree::map_query_cached)):
    /// the time shrinks, the counters above do not change.
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
    /// `false` for the exact rankers.
    pub approximate: bool,
    /// The layer-0 beam width the approximate request asked for (0
    /// when `approximate` is false).
    pub ef: usize,
    /// Distance evaluations the proximity-graph descent + beam
    /// performed — the approximate path's analogue of
    /// `candidates_scanned`, which for [`Ranker::Approx`] counts only
    /// the exactly-scanned pending-tail rows. Sums across shards.
    pub beam_visited: usize,
    /// Per-stage breakdown of where the request's time went
    /// ([`gdim_obs::Stage`] vocabulary: map, scan / ann_beam, refine,
    /// merge — the serving layer adds parse/serialize on top). Every
    /// shard's leg adds into its ranker's stage.
    pub stages: StageTimes,
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
    /// global ids and the tie-break.
    fn partition(&self) -> Partition<'_> {
        Partition {
            index: self,
            seqs: None,
            id_base: 0,
        }
    }
}

/// One partition of a search: an index over a subset of the database,
/// plus how its shard-local rows appear in the answer.
/// [`GraphIndex::search`] runs the executor over a single identity
/// partition; a sharded index passes one per shard. All partitions of
/// one search share the same selected dimensions, weights, δ
/// configuration and exec budget (partition 0's are used).
#[derive(Debug, Clone, Copy)]
pub struct Partition<'a> {
    /// The partition's rows.
    pub index: &'a GraphIndex,
    /// `seqs[local]` = the row's global insertion sequence number —
    /// the tie-break between equal distances, unique across the
    /// partitions of one search and strictly ascending in `local`, so
    /// a leg's own `(distance, local)` top-k is its `(distance, seq)`
    /// top-k. `None`: the local id is the sequence number.
    pub seqs: Option<&'a [u64]>,
    /// Row `local` answers as `GraphId(id_base + local)`.
    pub id_base: u32,
}

impl Partition<'_> {
    fn seq(&self, local: u32) -> u64 {
        self.seqs.map_or(local as u64, |seqs| seqs[local as usize])
    }
}

/// One candidate answer, ordered as the answer is:
/// `(distance, seq, partition index, local id)`. Sequence numbers are
/// unique, so the last two fields never decide the order.
type Candidate = (OrdF64, u64, usize, u32);

/// The process-wide histogram of individual partition legs, in
/// nanoseconds — the shard-imbalance signal a request's
/// [`SearchStats`] cannot carry (it only sees the sum). Registered
/// once in the global registry; recording afterwards is lock-free.
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

/// Answers one typed search request over `parts` — the single query
/// executor behind [`GraphIndex::search`] (one identity partition)
/// and the sharded search (one partition per shard).
/// The query is mapped once (all partitions share the feature space),
/// through the calling thread's map cache, then each partition runs
/// its leg of the requested ranker — bounded top-k scan, ANN beam, or
/// exact δ — in partition order on the calling thread. Every leg adds its work to the request's one
/// [`SearchStats`] and offers its hits to one bounded selector keyed
/// `(distance, seq)`; the refined/verified rankers re-rank that set
/// exactly. Answers are bit-identical for every partitioning of the
/// same rows.
///
/// A search never forks per request: concurrent requests are the
/// serving path's parallelism, and the exec budget is spent inside a
/// leg only where a unit of work is milliseconds (exact δ). Each leg
/// records one `gdim_shard_scan_ns` sample.
///
/// # Panics
/// If `parts` is empty.
pub fn search_partitions(
    parts: &[Partition<'_>],
    query: &Graph,
    req: &SearchRequest,
) -> SearchResponse {
    let t0 = Instant::now();
    let live = parts.iter().map(|p| p.index.live_len()).sum();
    let mut stats = SearchStats {
        epoch: parts.iter().map(|p| p.index.epoch()).max().unwrap_or(0),
        live_graphs: live,
        ..Default::default()
    };
    // Exact never maps the query.
    let qvec = (!matches!(req.ranker, Ranker::Exact)).then(|| {
        let (qvec, matched) = parts[0].index.mapped().mapper().map_query_cached(query);
        stats.vf2_calls = matched.vf2_calls;
        stats.vf2_pruned = matched.vf2_pruned;
        stats.match_time = t0.elapsed();
        stats.stages.add(Stage::Map, stats.match_time);
        qvec
    });
    let leg_stage = match req.ranker {
        Ranker::Exact => Stage::Refine,
        Ranker::Approx { .. } => Stage::AnnBeam,
        _ => Stage::Scan,
    };
    let (take, verify) = candidates(req);
    // Sized by the rows that exist, not by the request alone: the
    // selector allocates its bound up front.
    let mut sel = TopK::new(take.min(live));
    let mcs = parts[0].index.delta_config().mcs;
    let mut merge_time = Duration::ZERO;
    for (s, part) in parts.iter().enumerate() {
        let t = Instant::now();
        let ranked = leg(part, query, qvec.as_ref(), req, take, &mcs, &mut stats);
        let leg_time = t.elapsed();
        leg_histogram().record_duration(leg_time);
        stats.stages.add(leg_stage, leg_time);
        let t = Instant::now();
        for (local, distance) in ranked {
            sel.offer((OrdF64(distance), part.seq(local), s, local));
        }
        merge_time += t.elapsed();
    }
    let t = Instant::now();
    let mut kept = sel.into_sorted();
    stats.stages.add(Stage::Merge, merge_time + t.elapsed());
    if verify {
        // Only live rows are kept, so there may be fewer than `take`;
        // count the δ calls actually made.
        stats.mcs_calls = kept.len();
        let t = Instant::now();
        kept = refine(parts, query, &kept, &mcs);
        stats.stages.add(Stage::Refine, t.elapsed());
    }
    // Only verified candidates are ever returned, so `take` caps a
    // verifying ranker's answer at `min(k, candidates)`.
    let hits = kept
        .into_iter()
        .take(req.k)
        .map(|(OrdF64(distance), _, s, local)| Hit {
            id: GraphId(parts[s].id_base + local),
            distance,
        })
        .collect();
    stats.wall_time = t0.elapsed();
    SearchResponse { hits, stats }
}

/// How many candidates the request's scan/beam must produce, and
/// whether they are then verified exactly (and so cap the answer).
fn candidates(req: &SearchRequest) -> (usize, bool) {
    match req.ranker {
        Ranker::Refined { candidates } => (candidates, true),
        Ranker::Approx {
            verify: Some(c), ..
        } => (c, true),
        _ => (req.k, false),
    }
}

/// One partition's leg of the requested ranker: its local ranking,
/// ascending by `(distance, local)`, with its work added to `stats`.
///
/// * No query vector ([`Ranker::Exact`]): the full δ ranking of the
///   live rows. Tombstoned graphs are excluded *before* the δ fan-out,
///   which owns the exec budget, so dead rows cost no MCS calls.
/// * [`Ranker::Approx`]: the partition's lazily built proximity graph
///   plus an exact pass over its pending-insert tail
///   ([`GraphIndex::approx_scan_premapped`]), best `take`.
/// * Otherwise: a bounded top-`take` binary kernel scan of the query
///   vector, tombstone-masked.
fn leg(
    part: &Partition<'_>,
    query: &Graph,
    qvec: Option<&Bitset>,
    req: &SearchRequest,
    take: usize,
    mcs: &McsOptions,
    stats: &mut SearchStats,
) -> Vec<(u32, f64)> {
    let idx = part.index;
    let take = take.min(idx.len());
    match (qvec, req.ranker) {
        (None, _) => {
            let live = idx.tombstones().live_ids();
            stats.mcs_calls += live.len();
            crate::query::exact_ranking_among(
                |i| idx.graph(i as usize).expect("live ids are rows"),
                &live,
                query,
                idx.dissimilarity(),
                mcs,
                idx.exec(),
            )
        }
        (Some(qvec), Ranker::Approx { ef, .. }) => {
            let (ranked, ann) = idx.approx_scan_premapped(qvec, take, ef, MappingKind::Binary);
            stats.candidates_scanned += ann.tail_scanned;
            stats.tombstones_skipped += ann.tail_tombstones;
            stats.beam_visited += ann.beam_visited;
            stats.approximate = true;
            stats.ef = ef;
            ranked
        }
        (Some(qvec), _) => {
            let (ranked, scan) = idx
                .mapped()
                .scan_topk_masked(qvec, take, Some(idx.tombstones()));
            stats.candidates_scanned += scan.vectors_scanned;
            stats.tombstones_skipped += scan.tombstones_skipped;
            stats.words_scanned += scan.words_scanned;
            stats.kernel = Some(selected_kernel());
            ranked
        }
    }
}

/// The verification phase of [`Ranker::Refined`] (and a verifying
/// [`Ranker::Approx`]): exact δ for the kept candidates, computed per
/// owning partition through the one δ-ranking kernel
/// ([`exact_ranking_among`](crate::query::exact_ranking_among),
/// byte-identical for any thread count) and re-sorted ascending by
/// `(δ, seq)` — for a single identity partition, `(δ, id)`.
fn refine(
    parts: &[Partition<'_>],
    query: &Graph,
    kept: &[Candidate],
    mcs: &McsOptions,
) -> Vec<Candidate> {
    let mut locals: Vec<Vec<u32>> = vec![Vec::new(); parts.len()];
    for &(_, _, s, local) in kept {
        locals[s].push(local);
    }
    let mut out = Vec::with_capacity(kept.len());
    for (s, (part, locals)) in parts.iter().zip(&locals).enumerate() {
        let idx = part.index;
        let ranked = crate::query::exact_ranking_among(
            |i| idx.graph(i as usize).expect("candidates are rows"),
            locals,
            query,
            idx.dissimilarity(),
            mcs,
            idx.exec(),
        );
        out.extend(
            ranked
                .into_iter()
                .map(|(local, distance)| (OrdF64(distance), part.seq(local), s, local)),
        );
    }
    out.sort_unstable();
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
        // almost immediately; on a multi-word weighted scan (the
        // library's ablation, over an index's own weights) every row
        // that differs within its first word is then abandoned early,
        // so vectors_scanned counts only the fully-evaluated rows.
        let db = gdim_datagen::chem_db(40, &gdim_datagen::ChemConfig::default(), 31);
        let idx = GraphIndex::build(db, IndexOptions::default().with_dimensions(100));
        assert!(
            idx.mapped().store().stride() >= 2,
            "need a multi-word scan for early abandon"
        );
        let qvec = idx.map_query(idx.graph(0).unwrap());
        let scan = |k| {
            let dead = Some(idx.tombstones());
            (idx.mapped())
                .scan_topk_with_masked(&qvec, k, idx.weighted_w_sq(), dead)
                .1
        };
        let n = idx.len();
        let tight = scan(1);
        assert_eq!(tight.vectors_scanned + tight.early_abandoned, n);
        assert!(
            tight.early_abandoned > 0,
            "tight bound should abandon some rows"
        );
        assert!(tight.vectors_scanned < n);
        // Wide k cannot abandon anything: every row is fully scanned.
        let wide = scan(n);
        assert_eq!(wide.vectors_scanned, n);
        assert_eq!(wide.early_abandoned, 0);
        // Fewer words are read under the tight bound.
        assert!(tight.words_scanned < wide.words_scanned);
    }

    #[test]
    fn candidates_scanned_counts_fully_evaluated_vectors_only() {
        // Pins the post-PR-3 meaning of `candidates_scanned`: the rows
        // whose distance the kernel *fully* evaluated — identical to
        // the kernel's own `vectors_scanned` counter, never the whole
        // database whenever rows were tombstoned.
        let idx = index(30, 47);
        let q = idx.graph(0).unwrap().clone();
        for k in [1, 3] {
            let resp = idx.search(&q, &SearchRequest::new(k)).unwrap();
            let (_, kernel) =
                idx.mapped()
                    .scan_topk_masked(&idx.map_query(&q), k, Some(idx.tombstones()));
            assert_eq!(resp.stats.candidates_scanned, kernel.vectors_scanned);
            assert_eq!(
                resp.stats.candidates_scanned + resp.stats.tombstones_skipped,
                idx.len(),
                "evaluated + tombstoned covers the index"
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
        for ranker in [
            Ranker::Mapped,
            Ranker::Refined { candidates: 30 },
            Ranker::Exact,
            Ranker::Approx {
                ef: 24,
                verify: None,
            },
        ] {
            let req = SearchRequest::new(24).ranker(ranker);
            let resp = idx.search(&q, &req).unwrap();
            assert!(
                resp.hits.iter().all(|h| ![2, 3, 11].contains(&h.id.get())),
                "{ranker:?}: dead id in hits"
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
                        resp.stats.candidates_scanned + resp.stats.tombstones_skipped,
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
        // The weighted ablation is a library scan over the index's own
        // rows and weights, beside the served binary ranking.
        let idx = index(20, 13);
        let q = idx.graph(6).unwrap().clone();
        let bin = idx.search(&q, &SearchRequest::new(5)).unwrap();
        let (wgt, _) = idx.mapped().scan_topk_with_masked(
            &idx.map_query(&q),
            5,
            idx.weighted_w_sq(),
            Some(idx.tombstones()),
        );
        // Both place the graph itself first at distance 0.
        assert_eq!(bin.hits[0].id.get(), wgt[0].0);
        assert_eq!(wgt[0].1, 0.0);
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
    fn stats_display_is_compact_and_complete() {
        let mut stages = StageTimes::new();
        stages.add_ns(Stage::AnnBeam, 700_000);
        stages.add_ns(Stage::Refine, 150_000);
        let stats = SearchStats {
            candidates_scanned: 90,
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
}
