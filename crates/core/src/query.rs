//! Top-k graph similarity queries (§2, §6): the **exact** ranker
//! (MCS-based dissimilarity against every database graph — the paper's
//! slow baseline) and the **mapped** ranker (map the query with VF2,
//! sequentially scan the database vectors — the paper's fast path; "we
//! sequentially scan all vectors in the mapped multidimensional space",
//! §6).
//!
//! The mapped path is served by two optimized legs:
//!
//! * **matching** — [`MappedDatabase::map_query`] walks the selected
//!   dimensions' DFS-code prefix tree ([`CodeTree`]) once per query,
//!   sharing each prefix's partial embedding among the dimensions
//!   below it (bit-identical to the brute-force loop of independent
//!   VF2 tests, which survives as
//!   [`MappedDatabase::map_query_unpruned`]);
//! * **scanning** — the flat [`VectorStore`] kernel behind
//!   [`MappedDatabase::scan_topk_masked`], with bounded top-k
//!   selection and early abandon. The naive full-sort
//!   [`MappedDatabase::ranking`] / [`MappedDatabase::ranking_with`]
//!   remain as the reference implementations the equivalence tests
//!   (and benches) compare the kernel against.

use std::sync::Arc;

use gdim_exec::ExecConfig;
use gdim_graph::dfscode::DfsCode;
use gdim_graph::vf2::is_subgraph_iso;
use gdim_graph::{delta, Dissimilarity, Graph, McsOptions};
use gdim_mining::Feature;

use crate::bitset::{weighted_sq_xor_words, Bitset};
use crate::error::GdimError;
use crate::featurespace::{CodeTree, CodeTreeCell, FeatureSpace, MatchStats};
use crate::scan::{ScanPlan, ScanStats, Tombstones, VectorStore};

/// Which distance a request ranks the binary vectors by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum MappingKind {
    /// The paper's φ (§4): binary vectors with normalized Euclidean
    /// distance `d = √(|y_q ⊕ y_g| / p)`.
    #[default]
    Binary,
    /// Ablation variant: distances weighted by the (normalized) DSPM
    /// weights of the selected features instead of `1/p`.
    Weighted,
}

/// Normalized squared per-dimension weights for the weighted ablation
/// ([`MappingKind::Weighted`]): `w_sq[col] ∝ weights[selected[col]]²`,
/// summing to 1 (uniform `1/p` when every weight is zero). `weights`
/// holds one DSPM weight per feature of the space; the result is what
/// [`MappedDatabase::scan_topk_with_masked`] and
/// [`MappedDatabase::ranking_with`] take.
pub fn weighted_w_sq(selected: &[u32], weights: &[f64]) -> Vec<f64> {
    let p = selected.len();
    let raw: Vec<f64> = selected
        .iter()
        .map(|&r| {
            let x = weights[r as usize];
            x * x
        })
        .collect();
    let total: f64 = raw.iter().sum();
    if total > 0.0 {
        raw.iter().map(|x| x / total).collect()
    } else {
        vec![1.0 / p.max(1) as f64; p]
    }
}

/// The mapped multidimensional database `DM`: one **binary** vector
/// (the paper's φ, §4) per database graph over the `p` selected feature
/// dimensions, stored as a flat row-major word matrix ([`VectorStore`])
/// so the sequential scan is one linear memory walk. The weighted
/// ablation is a per-call distance over the same vectors
/// ([`MappedDatabase::scan_topk_with_masked`]), never a second kind of
/// database.
///
/// `Clone` copies the flat store (16 B/row at `p = 128`) and shares the
/// rest: the selected features and the code-tree cell sit behind
/// `Arc`s.
#[derive(Debug, Clone)]
pub struct MappedDatabase {
    /// The selected features — immutable, shared by clones.
    features: Arc<[Feature]>,
    store: VectorStore,
    /// The prefix tree over `features`' DFS codes that maps queries.
    /// Built lazily on the first mapped query (derived and
    /// deterministic, so laziness is unobservable in answers). The
    /// *cell* is shared, not only its value: whichever clone maps
    /// first builds the tree for all of them.
    mapper: CodeTreeCell,
}

impl MappedDatabase {
    /// Builds the mapped database over the selected feature dimensions;
    /// an out-of-range dimension id is
    /// [`GdimError::DimensionOutOfRange`], not a panic.
    pub fn new(space: &FeatureSpace, selected: &[u32]) -> Result<Self, GdimError> {
        let m = space.num_features();
        if let Some(&bad) = selected.iter().find(|&&r| r as usize >= m) {
            return Err(GdimError::DimensionOutOfRange {
                id: bad,
                num_features: m,
            });
        }
        let p = selected.len();
        let features: Arc<[Feature]> = selected
            .iter()
            .map(|&r| space.features()[r as usize].clone())
            .collect();
        let mut store = VectorStore::zeros(space.num_graphs(), p);
        for (col, &r) in selected.iter().enumerate() {
            for &gid in space.if_list(r as usize) {
                store.set(gid as usize, col);
            }
        }
        Ok(MappedDatabase {
            features,
            store,
            mapper: Arc::default(),
        })
    }

    /// Number of dimensions `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.features.len()
    }

    /// Number of database vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the database holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The selected feature dimensions, column `c` = `features()[c]`.
    /// Their `support` lists are as mined (or loaded) and are not
    /// maintained afterwards: the authoritative support of a dimension
    /// is its column of the [store](MappedDatabase::store).
    #[inline]
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The dimensions' DFS codes, column by column — what makes two
    /// selections the same selection (feature ids do not outlive the
    /// mined space they index).
    pub fn codes(&self) -> impl Iterator<Item = &DfsCode> + '_ {
        self.features.iter().map(|f| &f.code)
    }

    /// The flat vector storage backing the scan.
    #[inline]
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The [`CodeTree`] over the selected dimensions that maps
    /// queries, built on first use.
    ///
    /// # Panics
    /// If a selected feature's DFS code does not spell its graph
    /// (features from the miner always do; the snapshot decoder
    /// rejects the rest).
    pub fn mapper(&self) -> &CodeTree {
        self.try_mapper()
            .expect("a feature's DFS code spells its graph")
    }

    /// [`MappedDatabase::mapper`] for features read from disk: a code
    /// that does not spell its graph is [`GdimError::Corrupt`], not a
    /// panic.
    pub(crate) fn try_mapper(&self) -> Result<&CodeTree, GdimError> {
        match self.mapper.get() {
            Some(tree) => Ok(tree),
            None => {
                let tree = CodeTree::build(&self.features)?;
                Ok(self.mapper.get_or_init(|| tree))
            }
        }
    }

    /// Makes this database use `src`'s code-tree cell instead of its
    /// own, if the two are over the same dimensions — the tree is a
    /// function of the features' DFS codes alone, so those are
    /// compared. Returns whether they were (and the cell is shared).
    pub(crate) fn share_mapper_of(&mut self, src: &MappedDatabase) -> bool {
        let same = self.codes().eq(src.codes());
        if same {
            self.mapper = Arc::clone(&src.mapper);
        }
        same
    }

    /// The database over the rows `kept` of this one, in that order:
    /// their vectors gathered into a new store, the features and the
    /// code-tree cell shared.
    pub(crate) fn with_rows(&self, kept: &[u32]) -> MappedDatabase {
        MappedDatabase {
            features: Arc::clone(&self.features),
            store: self.store.gather(kept),
            mapper: Arc::clone(&self.mapper),
        }
    }

    /// Vector of database graph `i`, materialized from its store row.
    #[inline]
    pub fn vector(&self, i: usize) -> Bitset {
        self.store.vector(i)
    }

    /// Appends one already-mapped vector (over this database's `p`
    /// selected dimensions) — what an online insert stores. The code
    /// tree depends only on the features' codes, so query mapping is
    /// unaffected.
    ///
    /// # Panics
    /// If `row` does not cover exactly `p` dimensions.
    pub fn push_row(&mut self, row: &Bitset) {
        self.store.push_row(row);
    }

    /// Maps an (unseen) query onto the selected dimensions — the
    /// "feature matching time" component of the paper's query cost —
    /// with one search over the dimensions' [`CodeTree`]. Bit-identical
    /// to [`MappedDatabase::map_query_unpruned`].
    pub fn map_query(&self, q: &Graph) -> Bitset {
        self.map_query_with_stats(q).0
    }

    /// [`MappedDatabase::map_query`] plus the [`MatchStats`] recording
    /// how many dimensions were tested, how many were pruned, and the
    /// search's extension steps.
    pub fn map_query_with_stats(&self, q: &Graph) -> (Bitset, MatchStats) {
        self.mapper().map_query(q)
    }

    /// The unpruned reference mapping: one independent VF2 test per
    /// selected feature — no tree, no shared plans or query context.
    /// Kept for the equivalence tests and the pruning benches; serving
    /// paths use [`MappedDatabase::map_query`].
    pub fn map_query_unpruned(&self, q: &Graph) -> Bitset {
        let mut bits = Bitset::zeros(self.p());
        for (col, f) in self.features.iter().enumerate() {
            if is_subgraph_iso(&f.graph, q) {
                bits.set(col);
            }
        }
        bits
    }

    /// Distance between two vectors in the mapped space: `√(h/p)` over
    /// the integer XOR popcount.
    #[inline]
    pub fn distance(&self, a: &Bitset, b: &Bitset) -> f64 {
        (a.xor_count(b) as f64 / self.p().max(1) as f64).sqrt()
    }

    /// Distance from a query vector to database graph `i`.
    #[inline]
    pub fn distance_to(&self, qvec: &Bitset, i: usize) -> f64 {
        (self.hamming_to(qvec, i) as f64 / self.p().max(1) as f64).sqrt()
    }

    /// `|qvec ⊕ y_i|`, word by word — deliberately not the scan kernel,
    /// which the reference paths below are compared against.
    fn hamming_to(&self, qvec: &Bitset, i: usize) -> u32 {
        qvec.words()
            .iter()
            .zip(self.store.row(i))
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// The bounded top-k scan under the binary distance: the
    /// `k` live database graphs closest to `qvec`, as `(graph id,
    /// distance)` ascending by `(distance, id)` — a deterministic
    /// tie-break, so batch and single-query paths agree for every
    /// thread budget — plus the per-scan work counters. Rows marked in
    /// the optional [`Tombstones`] mask are skipped by the kernel and
    /// never appear in the hits (the dynamic-index serving path;
    /// `None` or a mask with no dead rows costs nothing). The naive
    /// full-sort materialization survives as
    /// [`MappedDatabase::ranking`] for reference.
    pub fn scan_topk_masked(
        &self,
        qvec: &Bitset,
        k: usize,
        dead: Option<&Tombstones>,
    ) -> (Vec<(u32, f64)>, ScanStats) {
        self.scan_topk_fused(&[qvec], k, None, dead, &ExecConfig::serial())
            .pop()
            .expect("one query, one answer")
    }

    /// [`MappedDatabase::scan_topk_masked`] under caller-supplied
    /// squared per-dimension weights (`w_sq.len() ≥ p`) — the hook
    /// [`GraphIndex`](crate::index::GraphIndex) uses to serve the
    /// weighted mapped distance from the same binary vectors.
    pub fn scan_topk_with_masked(
        &self,
        qvec: &Bitset,
        k: usize,
        w_sq: &[f64],
        dead: Option<&Tombstones>,
    ) -> (Vec<(u32, f64)>, ScanStats) {
        self.scan_topk_fused(&[qvec], k, Some(w_sq), dead, &ExecConfig::serial())
            .pop()
            .expect("one query, one answer")
    }

    /// The batch form of the two scans above: every query vector
    /// answered by one [`VectorStore::scan`] — **fused** into a single
    /// pass over the store when there are two or more — one `(hits,
    /// stats)` pair per query, bit-identical to per-query scans.
    /// `weights = None` scans under the binary distance,
    /// `Some(w_sq)` under caller-supplied squared weights; `exec`
    /// bounds the fused row-range fan-out.
    pub fn scan_topk_fused(
        &self,
        qvecs: &[&Bitset],
        k: usize,
        weights: Option<&[f64]>,
        dead: Option<&Tombstones>,
        exec: &ExecConfig,
    ) -> Vec<(Vec<(u32, f64)>, ScanStats)> {
        let words: Vec<&[u64]> = qvecs.iter().map(|q| q.words()).collect();
        self.store.scan(&ScanPlan {
            weights,
            dead,
            exec: *exec,
            ..ScanPlan::new(&words, k)
        })
    }

    /// Full ranking of the database for a query vector, ascending by
    /// `(distance, id)` — the naive full-sort **reference
    /// implementation** the scan kernel is tested against (selection
    /// and order must agree element-for-element).
    pub fn ranking(&self, qvec: &Bitset) -> Vec<(u32, f64)> {
        let p = self.p().max(1) as f64;
        let mut all: Vec<(u32, f64)> = (0..self.len())
            .map(|i| (i as u32, self.hamming_to(qvec, i) as f64))
            .collect();
        sort_ranking(&mut all);
        for e in &mut all {
            e.1 = (e.1 / p).sqrt();
        }
        all
    }

    /// Full ranking under caller-supplied squared per-dimension weights
    /// (`w_sq.len() ≥ p`), ascending by `(distance, id)` — the naive
    /// reference for the weighted scan kernel. Sorts on the squared
    /// distances (the √ is monotone) and takes the root once per
    /// entry, exactly as the kernel does, so the two paths agree
    /// bit-for-bit.
    pub fn ranking_with(&self, qvec: &Bitset, w_sq: &[f64]) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = (0..self.len())
            .map(|i| {
                (
                    i as u32,
                    weighted_sq_xor_words(qvec.words(), self.store.row(i), w_sq),
                )
            })
            .collect();
        sort_ranking(&mut all);
        for e in &mut all {
            e.1 = e.1.sqrt();
        }
        all
    }
}

/// Sorts `(id, distance)` pairs ascending by `(distance, id)` with a
/// total order (no NaN panic on the query path).
pub(crate) fn sort_ranking(ranked: &mut [(u32, f64)]) {
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
}

/// Exact full ranking of `db` for query `q` under the graph
/// dissimilarity (one MCS search per database graph, fanned out in
/// 8-wide chunks on the shared exec runtime). Sorted ascending by
/// `(δ, id)`; byte-identical for every thread budget.
pub fn exact_ranking(
    db: &[Graph],
    q: &Graph,
    kind: Dissimilarity,
    mcs: &McsOptions,
    exec: &ExecConfig,
) -> Vec<(u32, f64)> {
    let ids: Vec<u32> = (0..db.len() as u32).collect();
    exact_ranking_among(|i| &db[i as usize], &ids, q, kind, mcs, exec)
}

/// [`exact_ranking`] restricted to the graphs named by `ids` (which
/// keep their database ids in the result), each fetched through
/// `graph` — the one δ-ranking kernel; the dynamic index ranks only
/// its live rows through this, so tombstoned graphs cost no MCS calls.
pub fn exact_ranking_among<'a>(
    graph: impl Fn(u32) -> &'a Graph + Sync,
    ids: &[u32],
    q: &Graph,
    kind: Dissimilarity,
    mcs: &McsOptions,
    exec: &ExecConfig,
) -> Vec<(u32, f64)> {
    let vals = gdim_exec::map_chunks(exec, ids.len(), 8, |range| {
        range.map(|x| delta(kind, q, graph(ids[x]), mcs)).collect()
    });
    let mut ranked: Vec<(u32, f64)> = ids.iter().copied().zip(vals).collect();
    sort_ranking(&mut ranked);
    ranked
}

/// Exact top-k (§2's query workload): the first `k` entries of
/// [`exact_ranking`].
pub fn exact_topk(
    db: &[Graph],
    q: &Graph,
    k: usize,
    kind: Dissimilarity,
    mcs: &McsOptions,
    exec: &ExecConfig,
) -> Vec<(u32, f64)> {
    let mut ranked = exact_ranking(db, q, kind, mcs, exec);
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdim_mining::{mine, MinerConfig, Support};

    fn setup() -> (Vec<Graph>, FeatureSpace) {
        let db = gdim_datagen::chem_db(25, &gdim_datagen::ChemConfig::default(), 17);
        let feats = mine(
            &db,
            &MinerConfig::new(Support::Relative(0.15)).with_max_edges(3),
        );
        let space = FeatureSpace::build(db.len(), feats);
        (db, space)
    }

    #[test]
    fn binary_distance_matches_formula() {
        let (_, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(16) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let p = mapped.p() as f64;
        let a = mapped.vector(0);
        let b = mapped.vector(1);
        let want = ((a.xor_count(&b) as f64) / p).sqrt();
        assert!((mapped.distance(&a, &b) - want).abs() < 1e-12);
    }

    #[test]
    fn db_graph_query_maps_to_own_row() {
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(20) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        for i in [0usize, 5, 11] {
            let qvec = mapped.map_query(&db[i]);
            assert_eq!(qvec, mapped.vector(i), "graph {i}");
            // Therefore the graph itself ranks first (distance 0, min id tie).
            let top = mapped.scan_topk_masked(&qvec, 1, None).0;
            assert_eq!(top[0].1, 0.0);
        }
    }

    #[test]
    fn topk_is_sorted_and_sized() {
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(16) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let qvec = mapped.map_query(&db[3]);
        let top = mapped.scan_topk_masked(&qvec, 10, None).0;
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Oversized k returns everything.
        assert_eq!(
            mapped.scan_topk_masked(&qvec, 10_000, None).0.len(),
            db.len()
        );
    }

    #[test]
    fn weighted_mapping_normalizes() {
        let (_, space) = setup();
        let m = space.num_features();
        let weights: Vec<f64> = (0..m).map(|r| (r % 5) as f64).collect();
        let selected: Vec<u32> = (0..m.min(12) as u32).collect();
        let w_sq = weighted_w_sq(&selected, &weights);
        let total: f64 = w_sq.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Max possible distance is 1.
        let zero = Bitset::zeros(selected.len());
        let mut ones = Bitset::zeros(selected.len());
        for i in 0..selected.len() {
            ones.set(i);
        }
        assert!((zero.weighted_sq_xor(&ones, &w_sq).sqrt() - 1.0).abs() < 1e-9);
        // All-zero weights fall back to the uniform 1/p.
        let p = selected.len();
        assert_eq!(
            weighted_w_sq(&selected, &vec![0.0; m]),
            vec![1.0 / p as f64; p]
        );
    }

    #[test]
    fn exact_ranking_puts_self_first_and_is_parallel_consistent() {
        let (db, _) = setup();
        let mcs = McsOptions::default();
        let r1 = exact_ranking(
            &db,
            &db[4],
            Dissimilarity::AvgNorm,
            &mcs,
            &ExecConfig::serial(),
        );
        let r4 = exact_ranking(
            &db,
            &db[4],
            Dissimilarity::AvgNorm,
            &mcs,
            &ExecConfig::new(4),
        );
        assert_eq!(r1, r4);
        assert_eq!(r1[0].0, 4);
        assert_eq!(r1[0].1, 0.0);
        for w in r1.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn constructor_rejects_invalid_inputs() {
        let (_, space) = setup();
        let m = space.num_features();
        let bad = [0u32, m as u32];
        match MappedDatabase::new(&space, &bad) {
            Err(crate::error::GdimError::DimensionOutOfRange { id, num_features }) => {
                assert_eq!(id, m as u32);
                assert_eq!(num_features, m);
            }
            other => panic!("expected DimensionOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn ties_break_by_ascending_id() {
        // Two graphs with identical rows tie at every distance; the
        // smaller id must always come first.
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(16) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let ranked = mapped.ranking(&mapped.map_query(&db[3]));
        for w in ranked.windows(2) {
            assert!(
                w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "tie between {} and {} not broken by id",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn pruned_query_mapping_is_bit_identical_to_unpruned() {
        // The code-tree mapping must set
        // exactly the bits of the brute-force per-feature VF2 loop —
        // for database graphs and unseen queries alike.
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features() as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let unseen = gdim_datagen::chem_db(5, &gdim_datagen::ChemConfig::default(), 321);
        let mut pruned_total = 0usize;
        for q in db.iter().take(5).chain(&unseen) {
            let (bits, stats) = mapped.map_query_with_stats(q);
            assert_eq!(bits, mapped.map_query_unpruned(q));
            assert_eq!(stats.vf2_calls + stats.vf2_pruned, mapped.p());
            pruned_total += stats.vf2_pruned;
        }
        assert!(pruned_total > 0, "chem features should contain each other");
    }

    #[test]
    fn bounded_topk_equals_truncated_reference_ranking() {
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(20) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let w_sq = weighted_w_sq(&selected, &vec![0.7; space.num_features()]);
        let qvec = mapped.map_query(&db[2]);
        let binary = mapped.ranking(&qvec);
        let weighted = mapped.ranking_with(&qvec, &w_sq);
        for k in [0usize, 1, 5, db.len(), db.len() + 5] {
            let kk = k.min(db.len());
            assert_eq!(
                mapped.scan_topk_masked(&qvec, k, None).0,
                &binary[..kk],
                "k = {k}"
            );
            assert_eq!(
                mapped.scan_topk_with_masked(&qvec, k, &w_sq, None).0,
                &weighted[..kk],
                "weighted, k = {k}"
            );
        }
    }

    #[test]
    fn scan_stats_account_for_every_vector() {
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(16) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let qvec = mapped.map_query(&db[0]);
        let (_, stats) = mapped.scan_topk_masked(&qvec, 3, None);
        assert_eq!(stats.vectors_scanned + stats.early_abandoned, db.len());
        let (hits, stats) = mapped.scan_topk_masked(&qvec, 0, None);
        assert!(hits.is_empty());
        assert_eq!(stats, crate::scan::ScanStats::default());
    }

    #[test]
    fn ranking_with_uniform_weights_matches_binary() {
        let (db, space) = setup();
        let selected: Vec<u32> = (0..space.num_features().min(16) as u32).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let qvec = mapped.map_query(&db[1]);
        let uniform = vec![1.0 / mapped.p() as f64; mapped.p()];
        assert_eq!(mapped.ranking(&qvec), mapped.ranking_with(&qvec, &uniform));
    }

    #[test]
    fn exact_ranking_among_all_ids_is_exact_ranking() {
        let (db, _) = setup();
        let mcs = McsOptions::default();
        let exec = ExecConfig::new(2);
        let all: Vec<u32> = (0..db.len() as u32).collect();
        assert_eq!(
            exact_ranking_among(
                |i| &db[i as usize],
                &all,
                &db[1],
                Dissimilarity::AvgNorm,
                &mcs,
                &exec
            ),
            exact_ranking(&db, &db[1], Dissimilarity::AvgNorm, &mcs, &exec)
        );
        // A strict subset ranks only its members, keeping database ids.
        let some = [3u32, 7, 11, 19];
        let sub = exact_ranking_among(
            |i| &db[i as usize],
            &some,
            &db[7],
            Dissimilarity::AvgNorm,
            &mcs,
            &exec,
        );
        assert_eq!(sub.len(), some.len());
        assert_eq!(sub[0], (7, 0.0));
        for (id, _) in &sub {
            assert!(some.contains(id));
        }
    }

    #[test]
    fn exact_topk_truncates() {
        let (db, _) = setup();
        let top = exact_topk(
            &db,
            &db[0],
            5,
            Dissimilarity::AvgNorm,
            &McsOptions::default(),
            &ExecConfig::new(2),
        );
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].0, 0);
    }
}
