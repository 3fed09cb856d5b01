//! HNSW-style proximity-graph ANN over the mapped vector store — the
//! engine behind [`Ranker::Approx`](crate::search::Ranker::Approx),
//! the serving surface's one **deliberately inexact** path.
//!
//! The mapped scan is exact but O(n) per query; at millions of graphs
//! even the SIMD chunk kernels blow a latency budget. A navigable
//! small-world graph over the same [`VectorStore`] rows answers a
//! top-k query in sub-linear time with *measured* (not guaranteed)
//! recall — the standard scale lever for vector search
//! (Prokhorenkova & Shekhovtsov; Wang et al., "A Revisit"; see
//! PAPERS.md).
//!
//! Design constraints, in order:
//!
//! * **The metric is the scan's metric.** Traversal keys are the
//!   integer XOR popcount (binary) or the word-blocked weighted
//!   squared distance — the same quantities the kernels rank on — and
//!   the distances returned to callers go through the *same* final
//!   formulas as [`MappedDatabase::distance_to`](crate::query::MappedDatabase::distance_to)
//!   (`√(h/p)` / `√Σw²`), so an `Approx` hit's distance is
//!   bit-identical to what the exact scan would report for that row.
//!   Approximation affects only *which* rows are found, never what
//!   their distances are.
//! * **Deterministic builds.** Layer assignment hashes `(seed, id)`
//!   through splitmix64 instead of drawing from an RNG stream, so the
//!   same store + params always yields byte-identical graphs — on any
//!   machine, any thread budget, any insertion history replay.
//! * **Deletions filter, never break navigation.** Tombstoned rows
//!   stay in the graph as *waypoints* (removing them would tear the
//!   small-world topology) but are barred from the result set; the
//!   beam keeps expanding until it has `ef` live answers or exhausts
//!   the frontier, so dead rows can never surface as hits.
//! * **Inserts are served exactly until folded in.** The graph covers
//!   the first [`AnnIndex::built_n`] rows of the store; rows appended
//!   after the build (online inserts) form a **pending tail** the
//!   caller scans exactly and merges with the beam's answers (see
//!   [`GraphIndex::approx_scan_premapped`](crate::index::GraphIndex::approx_scan_premapped)).
//!   An epoch rebuild replaces the index wholesale, which folds the
//!   tail into a fresh graph.
//!
//! The structure is the classic two-phase HNSW descent: greedy
//! best-first on the upper layers (beam width 1), then a bounded beam
//! of width `ef` on layer 0. Construction inserts rows in id order
//! with beam width [`AnnParams::ef_construction`], linking each new
//! node bidirectionally to up to `m` discovered neighbors chosen by
//! the **diversity heuristic** (keep a candidate only if it is closer
//! to the new node than to any neighbor already kept — this preserves
//! the long-range links that keep clustered stores navigable), and
//! re-selecting with the same heuristic when a list overflows its cap
//! (`m` on upper layers, `2·m` on layer 0).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gdim_kernels::hamming_row;

use crate::scan::{Tombstones, VectorStore};

/// Hard ceiling on layer levels — splitmix64 makes levels this high
/// astronomically unlikely; the clamp just bounds the descent loop.
const MAX_LEVEL: usize = 24;

/// Construction parameters of an [`AnnIndex`].
///
/// Marked `#[non_exhaustive]`: build values with
/// [`AnnParams::default`] plus the `with_*` setters so future knobs
/// stay additive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AnnParams {
    /// Neighbors linked per new node, and the list cap on upper
    /// layers (layer 0 caps at `2·m`). Clamped to ≥ 2.
    pub m: usize,
    /// Beam width while constructing (quality/cost of the build).
    /// Clamped to ≥ `m`.
    pub ef_construction: usize,
    /// Seed of the deterministic per-id layer assignment.
    pub seed: u64,
}

impl Default for AnnParams {
    fn default() -> Self {
        AnnParams {
            m: 16,
            ef_construction: 100,
            seed: 0x9D1A_77C4_5EED_0001,
        }
    }
}

impl AnnParams {
    /// Sets the per-node link count `m`.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Sets the construction beam width.
    pub fn with_ef_construction(mut self, ef: usize) -> Self {
        self.ef_construction = ef;
        self
    }

    /// Sets the layer-assignment seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The params with degenerate values clamped into the valid range
    /// (`m ≥ 2` so the level distribution is well-defined,
    /// `ef_construction ≥ m` so every insert can find `m` neighbors).
    fn normalized(self) -> Self {
        let m = self.m.max(2);
        AnnParams {
            m,
            ef_construction: self.ef_construction.max(m),
            seed: self.seed,
        }
    }
}

/// Work counters of one beam search — what
/// [`SearchStats::beam_visited`](crate::search::SearchStats::beam_visited)
/// and friends are stamped from.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct AnnScanStats {
    /// Distance evaluations the descent + beam performed (the ANN
    /// analogue of rows scanned — the work that replaced the O(n)
    /// pass).
    pub beam_visited: usize,
    /// Pending-tail rows (inserted after the graph build) scanned
    /// exactly.
    pub tail_scanned: usize,
    /// Tombstoned pending-tail rows skipped without evaluation.
    pub tail_tombstones: usize,
}

/// A beam/heap entry ordered ascending by `(distance key, id)` — the
/// same tie-break as the exact kernels' `(distance, id)` hit order.
#[derive(Clone, Copy, PartialEq)]
struct Key {
    d: f64,
    id: u32,
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d.total_cmp(&other.d).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// splitmix64 — the standard 64-bit finalizer; full-period, passes
/// BigCrush, and two instructions short of free. Used only for layer
/// assignment, never for distances.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A layered navigable proximity graph over the rows of a
/// [`VectorStore`] — see the module docs for the contract. Built by
/// [`AnnIndex::build`], queried through [`AnnIndex::query`] with a
/// caller-supplied distance key (so one graph serves both the binary
/// and the weighted metric), persisted as the optional section of
/// the index format (see [`crate::persist`]).
#[derive(Debug, Clone)]
pub struct AnnIndex {
    params: AnnParams,
    /// Rows the graph covers: ids `0..built_n`. Store rows appended
    /// later are the caller's pending exact-scanned tail.
    built_n: usize,
    /// Top layer of each node.
    levels: Vec<u8>,
    /// `links[node][layer]` — neighbor ids, unordered.
    links: Vec<Vec<Vec<u32>>>,
    /// Entry point of the descent (a node on the top layer).
    entry: u32,
    /// Highest populated layer.
    max_level: u8,
}

impl AnnIndex {
    /// Builds the proximity graph over **all** current rows of the
    /// store (tombstoned rows included — they keep the graph navigable
    /// and are filtered at query time). Deterministic: same store and
    /// params ⇒ byte-identical graph.
    pub fn build(store: &VectorStore, params: AnnParams) -> AnnIndex {
        let params = params.normalized();
        let n = store.len();
        let mut ann = AnnIndex {
            params,
            built_n: 0,
            levels: Vec::with_capacity(n),
            links: Vec::with_capacity(n),
            entry: 0,
            max_level: 0,
        };
        for id in 0..n {
            ann.insert_node(id as u32, store);
        }
        ann
    }

    /// Construction parameters the graph was built with.
    pub fn params(&self) -> AnnParams {
        self.params
    }

    /// Rows covered by the graph — store rows `built_n..` were
    /// appended after the build and must be scanned exactly.
    pub fn built_n(&self) -> usize {
        self.built_n
    }

    /// The descent entry node.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The highest populated layer.
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// Per-node top layers (`built_n` entries).
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Per-node, per-layer neighbor lists (`links()[node][layer]`).
    pub fn links(&self) -> &[Vec<Vec<u32>>] {
        &self.links
    }

    /// Reassembles a graph from persisted parts, validating every
    /// structural invariant a hostile file could violate (the decode
    /// seam of [`crate::persist`]). Returns a human-readable reason on
    /// the first violation.
    pub fn from_parts(
        params: AnnParams,
        entry: u32,
        levels: Vec<u8>,
        links: Vec<Vec<Vec<u32>>>,
    ) -> Result<AnnIndex, String> {
        let params = params.normalized();
        let built_n = levels.len();
        if links.len() != built_n {
            return Err(format!(
                "ann links cover {} nodes, levels cover {built_n}",
                links.len()
            ));
        }
        if built_n == 0 {
            return Ok(AnnIndex {
                params,
                built_n,
                levels,
                links,
                entry: 0,
                max_level: 0,
            });
        }
        if entry as usize >= built_n {
            return Err(format!("ann entry {entry} out of {built_n} nodes"));
        }
        let mut max_level = 0u8;
        for (id, (&level, layers)) in levels.iter().zip(&links).enumerate() {
            if level as usize > MAX_LEVEL {
                return Err(format!("ann node {id} level {level} exceeds {MAX_LEVEL}"));
            }
            if layers.len() != level as usize + 1 {
                return Err(format!(
                    "ann node {id} has {} layers for level {level}",
                    layers.len()
                ));
            }
            max_level = max_level.max(level);
            for list in layers {
                if let Some(&bad) = list.iter().find(|&&nb| nb as usize >= built_n) {
                    return Err(format!("ann node {id} links to {bad} of {built_n} nodes"));
                }
            }
        }
        if levels[entry as usize] != max_level {
            return Err(format!(
                "ann entry {entry} is not on the top layer {max_level}"
            ));
        }
        Ok(AnnIndex {
            params,
            built_n,
            levels,
            links,
            entry,
            max_level,
        })
    }

    /// Deterministic layer of node `id`: splitmix64 of `(seed, id)`
    /// mapped to `(0, 1]`, then the geometric `⌊-ln(u) / ln(m)⌋`.
    fn level_for(&self, id: u32) -> u8 {
        let h = splitmix64(self.params.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits, +1 so u ∈ (0, 1] and ln(u) is finite.
        let u = ((h >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let ml = 1.0 / (self.params.m as f64).ln();
        ((-u.ln() * ml) as usize).min(MAX_LEVEL) as u8
    }

    /// Neighbor cap of a list on `layer`.
    fn cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// Neighbors of `id` on `layer` (empty above the node's level).
    fn neighbors(&self, id: u32, layer: usize) -> &[u32] {
        self.links[id as usize]
            .get(layer)
            .map_or(&[][..], |v| v.as_slice())
    }

    /// One construction insert: assign a layer, descend greedily to
    /// it, then beam + bidirectionally link on every layer down to 0.
    fn insert_node(&mut self, id: u32, store: &VectorStore) {
        let level = self.level_for(id) as usize;
        self.levels.push(level as u8);
        self.links.push(vec![Vec::new(); level + 1]);
        let idx = id as usize;
        debug_assert_eq!(self.links.len() - 1, idx);
        if self.built_n == 0 {
            self.entry = id;
            self.max_level = level as u8;
            self.built_n = 1;
            return;
        }
        // Build-time keys: integer Hamming to the new row (exact in
        // f64 — popcounts are ≤ the bit width ≪ 2^53).
        let new_row = store.row(idx);
        let mut key = |i: u32| hamming_row(store.row(i as usize), new_row) as f64;
        let top = self.max_level as usize;
        let mut ep = Key {
            d: key(self.entry),
            id: self.entry,
        };
        for layer in ((level + 1)..=top).rev() {
            ep = self.greedy(&mut key, ep, layer);
        }
        let mut entries = vec![ep];
        for layer in (0..=level.min(top)).rev() {
            let found =
                self.search_layer(&mut key, &entries, layer, self.params.ef_construction, None);
            let chosen = self.select_diverse(&found, self.params.m, store);
            for &nb in &chosen {
                self.links[idx][layer].push(nb);
                self.links[nb as usize][layer].push(id);
                if self.links[nb as usize][layer].len() > self.cap(layer) {
                    self.trim(nb, layer, store);
                }
            }
            entries = found;
            if entries.is_empty() {
                // Unreachable in practice (the entry node always
                // seeds the beam), but keep the next layer seeded.
                entries = vec![ep];
            }
        }
        if level > top {
            self.entry = id;
            self.max_level = level as u8;
        }
        self.built_n += 1;
    }

    /// The HNSW neighbor-selection heuristic: walk `candidates`
    /// ascending by `(key, id)` and keep one only if it is closer to
    /// the base point than to every neighbor already kept (ties keep).
    /// Nearest-only selection spends the whole cap on one direction —
    /// on clustered stores that leaves no inter-cluster links and the
    /// descent gets trapped in whichever basin it enters first; the
    /// diversity rule prunes same-direction redundancy so the list
    /// retains the long-range links that keep the graph navigable.
    /// Deterministic, so builds stay byte-identical.
    fn select_diverse(&self, candidates: &[Key], cap: usize, store: &VectorStore) -> Vec<u32> {
        let mut chosen: Vec<u32> = Vec::with_capacity(cap);
        for c in candidates {
            if chosen.len() == cap {
                break;
            }
            let dominated = chosen.iter().any(|&s| {
                (hamming_row(store.row(c.id as usize), store.row(s as usize)) as f64) < c.d
            });
            if !dominated {
                chosen.push(c.id);
            }
        }
        chosen
    }

    /// Trims an overflowing neighbor list back under the cap with the
    /// same diversity heuristic as insertion, keyed by `(Hamming, id)`
    /// to the owner.
    fn trim(&mut self, node: u32, layer: usize, store: &VectorStore) {
        let cap = self.cap(layer);
        let own_row = store.row(node as usize);
        let mut keyed: Vec<Key> = self.links[node as usize][layer]
            .iter()
            .map(|&nb| Key {
                d: hamming_row(store.row(nb as usize), own_row) as f64,
                id: nb,
            })
            .collect();
        keyed.sort_unstable();
        self.links[node as usize][layer] = self.select_diverse(&keyed, cap, store);
    }

    /// Greedy best-first descent on one upper layer (beam width 1):
    /// hop to the best-keyed neighbor until no neighbor improves.
    fn greedy<F: FnMut(u32) -> f64>(&self, key: &mut F, mut ep: Key, layer: usize) -> Key {
        loop {
            let mut improved = false;
            for &nb in self.neighbors(ep.id, layer) {
                let cand = Key { d: key(nb), id: nb };
                if cand < ep {
                    ep = cand;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Bounded beam search on one layer: expands the frontier in key
    /// order, keeping the best `ef` **admissible** nodes (all nodes
    /// during construction; live rows only when `dead` is given —
    /// tombstoned nodes still navigate, so the result bound stays ∞
    /// until `ef` live rows are found and the beam keeps digging past
    /// dead neighborhoods). Returns the kept nodes ascending by
    /// `(key, id)`.
    fn search_layer<F: FnMut(u32) -> f64>(
        &self,
        key: &mut F,
        entries: &[Key],
        layer: usize,
        ef: usize,
        dead: Option<&Tombstones>,
    ) -> Vec<Key> {
        let ef = ef.max(1);
        let alive = |id: u32| dead.is_none_or(|t| !t.is_dead(id as usize));
        let mut seen = vec![0u64; self.built_n.div_ceil(64).max(1)];
        let mark = |id: u32, seen: &mut Vec<u64>| {
            let (w, b) = (id as usize / 64, id as usize % 64);
            let was = seen[w] >> b & 1 == 1;
            seen[w] |= 1 << b;
            was
        };
        // Frontier min-heap and result max-heap (worst live kept on
        // top so overflow pops it).
        let mut frontier: BinaryHeap<std::cmp::Reverse<Key>> = BinaryHeap::new();
        let mut kept: BinaryHeap<Key> = BinaryHeap::new();
        for &e in entries {
            if mark(e.id, &mut seen) {
                continue;
            }
            frontier.push(std::cmp::Reverse(e));
            if alive(e.id) {
                kept.push(e);
                if kept.len() > ef {
                    kept.pop();
                }
            }
        }
        while let Some(std::cmp::Reverse(c)) = frontier.pop() {
            if kept.len() == ef {
                if let Some(&worst) = kept.peek() {
                    if c > worst {
                        break;
                    }
                }
            }
            for &nb in self.neighbors(c.id, layer) {
                if mark(nb, &mut seen) {
                    continue;
                }
                let cand = Key { d: key(nb), id: nb };
                let admit = kept.len() < ef || cand < *kept.peek().expect("kept is full");
                if admit {
                    frontier.push(std::cmp::Reverse(cand));
                    if alive(cand.id) {
                        kept.push(cand);
                        if kept.len() > ef {
                            kept.pop();
                        }
                    }
                }
            }
        }
        kept.into_sorted_vec()
    }

    /// Answers one query over the graph: greedy descent from the top
    /// layer, then an `ef`-wide beam on layer 0 filtered to live rows.
    /// `key` maps a row id to its distance key under the caller's
    /// metric (any strictly increasing transform of the true distance
    /// — the integer popcount for binary, the squared weighted
    /// distance for weighted); returns up to `ef` live rows ascending
    /// by `(key, id)` plus the number of key evaluations performed.
    pub fn query<F: FnMut(u32) -> f64>(
        &self,
        mut key: F,
        ef: usize,
        dead: Option<&Tombstones>,
    ) -> (Vec<(u32, f64)>, usize) {
        if self.built_n == 0 {
            return (Vec::new(), 0);
        }
        let mut evals = 0usize;
        let mut counted = |i: u32| {
            evals += 1;
            key(i)
        };
        let mut ep = Key {
            d: counted(self.entry),
            id: self.entry,
        };
        for layer in (1..=self.max_level as usize).rev() {
            ep = self.greedy(&mut counted, ep, layer);
        }
        let found = self.search_layer(&mut counted, &[ep], 0, ef, dead);
        (found.into_iter().map(|k| (k.id, k.d)).collect(), evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::Bitset;

    /// A store of `n` pseudo-random rows over `bits` bits.
    fn random_store(n: usize, bits: usize, seed: u64) -> VectorStore {
        let rows: Vec<Bitset> = (0..n)
            .map(|i| {
                let mut b = Bitset::zeros(bits);
                for bit in 0..bits {
                    if splitmix64(seed ^ (i as u64) << 20 ^ bit as u64) & 1 == 1 {
                        b.set(bit);
                    }
                }
                b
            })
            .collect();
        VectorStore::from_bitsets(&rows)
    }

    /// A store with genuine neighbor structure: `n` rows spread over
    /// 64 cluster centers, each row a center with ~8 bits flipped —
    /// the shape real mapped-vector workloads (zipf/chem) have, where
    /// a proximity graph earns its keep. (Uniform random bits are the
    /// adversarial no-structure case: all distances concentrate and
    /// *every* ANN method degrades toward a full scan.)
    fn clustered_store(n: usize, bits: usize, seed: u64) -> VectorStore {
        let centers = 64;
        let rows: Vec<Bitset> = (0..n)
            .map(|i| {
                let c = (i % centers) as u64;
                let mut b = Bitset::zeros(bits);
                for bit in 0..bits {
                    if splitmix64(seed ^ c << 32 ^ bit as u64) & 1 == 1 {
                        b.set(bit);
                    }
                }
                for flip in 0..8 {
                    let bit = splitmix64(seed ^ (i as u64) << 8 ^ flip) as usize % bits;
                    if b.get(bit) {
                        b.clear(bit);
                    } else {
                        b.set(bit);
                    }
                }
                b
            })
            .collect();
        VectorStore::from_bitsets(&rows)
    }

    fn exact_topk(store: &VectorStore, q: usize, k: usize) -> Vec<u32> {
        let mut all: Vec<(u32, u32)> = (0..store.len())
            .map(|i| (hamming_row(store.row(q), store.row(i)), i as u32))
            .collect();
        all.sort_unstable();
        all.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn build_is_deterministic_and_well_formed() {
        let store = random_store(300, 192, 7);
        let a = AnnIndex::build(&store, AnnParams::default());
        let b = AnnIndex::build(&store, AnnParams::default());
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.links, b.links);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.built_n, 300);
        // Caps hold everywhere; all ids in range; entry on top layer.
        for (id, layers) in a.links.iter().enumerate() {
            assert_eq!(layers.len(), a.levels[id] as usize + 1);
            for (layer, list) in layers.iter().enumerate() {
                assert!(list.len() <= a.cap(layer), "node {id} layer {layer}");
                assert!(list.iter().all(|&nb| (nb as usize) < 300));
                assert!(!list.contains(&(id as u32)), "self-link at {id}");
            }
        }
        assert_eq!(a.levels[a.entry as usize], a.max_level);
        // A different seed reshuffles the layers.
        let c = AnnIndex::build(&store, AnnParams::default().with_seed(99));
        assert_ne!(a.levels, c.levels);
    }

    #[test]
    fn beam_recall_is_high_on_a_random_store() {
        let store = clustered_store(2000, 128, 11);
        let ann = AnnIndex::build(&store, AnnParams::default());
        let mut hitrate = 0usize;
        let mut total_evals = 0usize;
        let queries = 25;
        let k = 10;
        for q in 0..queries {
            let truth = exact_topk(&store, q, k);
            let (got, evals) = ann.query(
                |i| hamming_row(store.row(q), store.row(i as usize)) as f64,
                64,
                None,
            );
            let got: Vec<u32> = got.into_iter().take(k).map(|(id, _)| id).collect();
            hitrate += truth.iter().filter(|id| got.contains(id)).count();
            total_evals += evals;
        }
        let recall = hitrate as f64 / (queries * k) as f64;
        assert!(recall >= 0.9, "recall@{k} = {recall}");
        // Sub-linearity: on average the beam touches well under half
        // the store (an exact scan touches all of it, every query).
        assert!(
            total_evals < queries * store.len() / 2,
            "avg {} evals of {} rows",
            total_evals / queries,
            store.len()
        );
    }

    #[test]
    fn filtered_beam_never_returns_dead_rows() {
        let store = random_store(200, 96, 3);
        let ann = AnnIndex::build(&store, AnnParams::default());
        let mut dead = Tombstones::all_live(200);
        for i in (0..200).step_by(3) {
            dead.mark_dead(i);
        }
        for q in 0..20 {
            let (got, _) = ann.query(
                |i| hamming_row(store.row(q), store.row(i as usize)) as f64,
                32,
                Some(&dead),
            );
            assert!(!got.is_empty());
            assert!(got.iter().all(|&(id, _)| !dead.is_dead(id as usize)));
        }
    }

    #[test]
    fn wide_beam_on_a_small_graph_is_exhaustive() {
        // n ≤ 2m+1 means layer-0 lists never trim, so the graph is
        // connected and an ef = n beam must enumerate every live row —
        // the property the verify ≡ refined serving test leans on.
        let store = random_store(33, 64, 5);
        let ann = AnnIndex::build(&store, AnnParams::default());
        let (got, _) = ann.query(
            |i| hamming_row(store.row(0), store.row(i as usize)) as f64,
            33,
            None,
        );
        assert_eq!(got.len(), 33);
        let ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
        assert_eq!(exact_topk(&store, 0, 33), ids);
    }

    #[test]
    fn empty_and_singleton_stores_are_well_formed() {
        let empty = VectorStore::zeros(0, 64);
        let ann = AnnIndex::build(&empty, AnnParams::default());
        assert_eq!(ann.built_n(), 0);
        let (got, evals) = ann.query(|_| 0.0, 8, None);
        assert!(got.is_empty());
        assert_eq!(evals, 0);
        let one = random_store(1, 64, 1);
        let ann = AnnIndex::build(&one, AnnParams::default());
        let (got, _) = ann.query(
            |i| hamming_row(one.row(0), one.row(i as usize)) as f64,
            4,
            None,
        );
        assert_eq!(got, vec![(0, 0.0)]);
    }

    #[test]
    fn from_parts_validates_structure() {
        let store = random_store(50, 64, 13);
        let ann = AnnIndex::build(&store, AnnParams::default());
        let rebuilt = AnnIndex::from_parts(
            ann.params(),
            ann.entry(),
            ann.levels().to_vec(),
            ann.links().to_vec(),
        )
        .expect("faithful parts validate");
        assert_eq!(rebuilt.links, ann.links);
        assert_eq!(rebuilt.max_level, ann.max_level);
        // Entry out of range.
        assert!(AnnIndex::from_parts(
            ann.params(),
            99,
            ann.levels().to_vec(),
            ann.links().to_vec()
        )
        .is_err());
        // Neighbor id out of range.
        let mut bad = ann.links().to_vec();
        bad[0][0].push(1000);
        assert!(
            AnnIndex::from_parts(ann.params(), ann.entry(), ann.levels().to_vec(), bad).is_err()
        );
        // Layer count disagrees with the level.
        let mut bad = ann.links().to_vec();
        bad[0].push(Vec::new());
        assert!(
            AnnIndex::from_parts(ann.params(), ann.entry(), ann.levels().to_vec(), bad).is_err()
        );
        // Level/links length mismatch.
        assert!(
            AnnIndex::from_parts(ann.params(), ann.entry(), vec![0; 49], ann.links().to_vec())
                .is_err()
        );
    }

    #[test]
    fn level_assignment_is_geometric_ish() {
        let store = random_store(2000, 64, 17);
        let ann = AnnIndex::build(&store, AnnParams::default());
        let ground = ann.levels.iter().filter(|&&l| l == 0).count();
        // With m = 16, ~93.75% of nodes should sit on layer 0 alone.
        assert!(ground > 1700, "{ground} of 2000 on layer 0");
        assert!((ann.max_level as usize) <= MAX_LEVEL);
    }
}
