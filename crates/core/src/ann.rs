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
//!   integer XOR popcount (binary) or the bits of the word-blocked
//!   weighted squared distance — the same quantities the kernels rank
//!   on — and the distances returned to callers go through the *same*
//!   final formulas as [`MappedDatabase::distance_to`](crate::query::MappedDatabase::distance_to)
//!   (`√(h/p)` / `√Σw²`), so an `Approx` hit's distance is
//!   bit-identical to what the exact scan would report for that row.
//!   Approximation affects only *which* rows are found, never what
//!   their distances are.
//! * **Deterministic builds.** Layer assignment hashes `(seed, id)`
//!   through splitmix64 instead of drawing from an RNG stream, so the
//!   same store always yields byte-identical graphs — on any
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
//! with beam width `EF_CONSTRUCTION` (100), linking each new node
//! bidirectionally to up to `M` (16) discovered neighbors chosen by
//! the **diversity heuristic** (keep a candidate only if it is closer
//! to the new node than to any neighbor already kept — this preserves
//! the long-range links that keep clustered stores navigable), and
//! re-selecting with the same heuristic when a list overflows its cap
//! (`M` on upper layers, `2·M` on layer 0).
//!
//! **Two layouts, one beam.** Construction needs lists it can push to
//! and trim, so [`AnnIndex::build`] grows nested `links[node][layer]`
//! vectors; they exist only while it runs. The built graph is then
//! **frozen** into flat arrays — one CSR (offsets + ids) whose first
//! `built_n` slots are the layer-0 lists indexed directly by node id,
//! followed by one slot per `(node, layer ≥ 1)` — and the nested lists
//! are freed. A query's layer-0 walk, where nearly all its visits
//! happen, reads each list as one contiguous slice.
//! [`AnnIndex::from_parts`], the snapshot decode seam, produces the
//! same frozen form.
//!
//! One `search_layer` serves the build (over the nested lists) and
//! every query (over the frozen arrays). Its keys are integers — the
//! `(key, id)` pair packed into one `u128` (see `Key`), so ordering
//! two entries is one compare and never touches a float — and its
//! working set is one sorted array of the kept nodes (see `Beam`) in
//! place of the textbook frontier and result heaps, with a heap only
//! for tombstoned nodes, visiting the same nodes in the same order.
//! Freezing keeps each list's order, so the frozen graph is walked
//! exactly as the nested one would be.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gdim_kernels::hamming_row;

use crate::scan::{Tombstones, VectorStore};

/// Hard ceiling on layer levels — splitmix64 makes levels this high
/// astronomically unlikely; the clamp just bounds the descent loop.
const MAX_LEVEL: usize = 24;

/// Neighbors linked per new node, and the list cap on upper layers
/// (layer 0 caps at `2·M`). Written to and checked by the snapshot's
/// ANN section ([`crate::persist`]), like the two constants below.
pub(crate) const M: usize = 16;

/// Beam width while constructing (quality/cost of the build).
pub(crate) const EF_CONSTRUCTION: usize = 100;

/// Seed of the deterministic per-id layer assignment.
pub(crate) const SEED: u64 = 0x9D1A_77C4_5EED_0001;

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

/// A beam entry: a row id and its integer distance key `d`, ordered
/// ascending by `(d, id)` — the same tie-break as the exact kernels'
/// `(distance, id)` hit order. Packed into one `u128` (`d` in bits
/// 64.., the id in bits 32..64) so that ordering is a single integer
/// compare; bits 0..32 are zero in a key and carry the [`Beam`]'s
/// expanded flag in a slot.
///
/// Binary rows key on the XOR popcount. Weighted rows key on
/// `f64::to_bits` of the squared distance: on floats with the sign bit
/// clear the bits order exactly as the values do (exponent above
/// mantissa, both unsigned), and a weighted squared distance is a sum
/// of non-negative `w²` terms starting at `+0.0`, so it never sets the
/// sign bit. (A non-finite weight in a hostile snapshot can make it
/// NaN; the bits still order totally, so the beam stays well defined.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(d: u64, id: u32) -> Key {
        Key((d as u128) << 64 | (id as u128) << 32)
    }

    fn d(self) -> u64 {
        (self.0 >> 64) as u64
    }

    fn id(self) -> u32 {
        (self.0 >> 32) as u32
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

/// Neighbor cap of a list on `layer`.
fn cap(layer: usize) -> usize {
    if layer == 0 {
        2 * M
    } else {
        M
    }
}

/// Where a beam reads neighbor lists: the nested lists of a
/// [`Builder`] while [`AnnIndex::build`] grows the graph, the frozen
/// arrays of an [`AnnIndex`] once it is built.
trait Links {
    /// Nodes in the graph (ids `0..nodes()`).
    fn nodes(&self) -> usize;
    /// `node`'s neighbors on `layer` (empty above its level).
    fn list(&self, node: u32, layer: usize) -> &[u32];
}

/// A layered navigable proximity graph over the rows of a
/// [`VectorStore`] — see the module docs for the contract. Built by
/// [`AnnIndex::build`], queried through [`AnnIndex::query`] with a
/// caller-supplied distance key (so one graph serves both the binary
/// and the weighted metric), persisted as the optional section of
/// the index format (see [`crate::persist`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnIndex {
    /// Top layer of each node. The graph covers rows
    /// `0..levels.len()` (`built_n`); store rows appended later are
    /// the caller's pending exact-scanned tail.
    levels: Vec<u8>,
    /// Slot boundaries of the one CSR over every neighbor list: slot
    /// `s` holds `ids[offsets[s]..offsets[s + 1]]`. Slot `node` is the
    /// layer-0 list of `node`; slot `built_n + upper[node] + layer - 1`
    /// its list on `layer ≥ 1`.
    offsets: Vec<u32>,
    /// Every neighbor list, concatenated in slot order; each list in
    /// the order the build left it.
    ids: Vec<u32>,
    /// Per node, the index of its layer-1 slot among the upper-layer
    /// slots (the prefix sum of `levels`).
    upper: Vec<u32>,
    /// Entry point of the descent (a node on the top layer).
    entry: u32,
    /// Highest populated layer.
    max_level: u8,
}

impl Links for AnnIndex {
    fn nodes(&self) -> usize {
        self.levels.len()
    }

    fn list(&self, node: u32, layer: usize) -> &[u32] {
        self.neighbors(node, layer)
    }
}

impl AnnIndex {
    /// Builds the proximity graph over **all** current rows of the
    /// store (tombstoned rows included — they keep the graph navigable
    /// and are filtered at query time), then freezes it. Deterministic:
    /// same store ⇒ byte-identical graph.
    pub fn build(store: &VectorStore) -> AnnIndex {
        let n = store.len();
        let mut graph = Builder {
            store,
            levels: Vec::with_capacity(n),
            links: Vec::with_capacity(n),
            entry: 0,
            max_level: 0,
        };
        for id in 0..n {
            graph.insert_node(id as u32);
        }
        let Builder {
            levels,
            links,
            entry,
            max_level,
            ..
        } = graph;
        AnnIndex::freeze(entry, max_level, levels, links)
            .expect("an ANN graph holds at most u32::MAX links")
    }

    /// Flattens `links[node][layer]` (`levels[node] + 1` layers per
    /// node) into the frozen CSR; the nested lists are dropped on
    /// return. Errs if the lists hold more ids, or more slots, than
    /// `u32` offsets can index.
    fn freeze(
        entry: u32,
        max_level: u8,
        levels: Vec<u8>,
        links: Vec<Vec<Vec<u32>>>,
    ) -> Result<AnnIndex, String> {
        let slots = links.iter().map(Vec::len).sum::<usize>();
        let total = links.iter().flatten().map(Vec::len).sum::<usize>();
        if u32::try_from(slots.max(total)).is_err() {
            return Err(format!(
                "ann graph of {total} links in {slots} lists outgrows u32 offsets"
            ));
        }
        let mut offsets = Vec::with_capacity(slots + 1);
        let mut ids = Vec::with_capacity(total);
        offsets.push(0);
        for layers in &links {
            ids.extend_from_slice(&layers[0]);
            offsets.push(ids.len() as u32);
        }
        let mut upper = Vec::with_capacity(levels.len());
        let mut first = 0;
        for layers in &links {
            upper.push(first);
            first += layers.len() as u32 - 1;
            for list in &layers[1..] {
                ids.extend_from_slice(list);
                offsets.push(ids.len() as u32);
            }
        }
        Ok(AnnIndex {
            levels,
            offsets,
            ids,
            upper,
            entry,
            max_level,
        })
    }

    /// Rows covered by the graph — store rows `built_n..` were
    /// appended after the build and must be scanned exactly.
    pub fn built_n(&self) -> usize {
        self.levels.len()
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

    /// `node`'s neighbor ids on `layer`, in the order the build left
    /// them; empty above the node's level. One contiguous slice of the
    /// frozen CSR (on layer 0, found by indexing the offsets with the
    /// node id alone). Panics if `node ≥ built_n`.
    pub fn neighbors(&self, node: u32, layer: usize) -> &[u32] {
        let node = node as usize;
        let slot = if layer == 0 {
            node
        } else if layer <= self.levels[node] as usize {
            self.levels.len() + self.upper[node] as usize + layer - 1
        } else {
            return &[];
        };
        &self.ids[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Reassembles a graph from persisted parts, validating every
    /// structural invariant a hostile file could violate (the decode
    /// seam of [`crate::persist`]), then freezes it like
    /// [`AnnIndex::build`] does. Returns a human-readable reason on
    /// the first violation: a layer count that disagrees with a level,
    /// a list longer than its layer's cap (`2·M` on layer 0, `M`
    /// above), a neighbor out of range or equal to its owner, or an
    /// entry off the top layer.
    pub fn from_parts(
        entry: u32,
        levels: Vec<u8>,
        links: Vec<Vec<Vec<u32>>>,
    ) -> Result<AnnIndex, String> {
        let built_n = levels.len();
        if links.len() != built_n {
            return Err(format!(
                "ann links cover {} nodes, levels cover {built_n}",
                links.len()
            ));
        }
        if built_n == 0 {
            return AnnIndex::freeze(0, 0, levels, links);
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
            for (layer, list) in layers.iter().enumerate() {
                let cap = cap(layer);
                if list.len() > cap {
                    return Err(format!(
                        "ann node {id} has {} neighbors on layer {layer}, over its cap {cap}",
                        list.len()
                    ));
                }
                if let Some(&bad) = list.iter().find(|&&nb| nb as usize >= built_n) {
                    return Err(format!("ann node {id} links to {bad} of {built_n} nodes"));
                }
                if list.contains(&(id as u32)) {
                    return Err(format!("ann node {id} links to itself on layer {layer}"));
                }
            }
        }
        if levels[entry as usize] != max_level {
            return Err(format!(
                "ann entry {entry} is not on the top layer {max_level}"
            ));
        }
        AnnIndex::freeze(entry, max_level, levels, links)
    }

    /// Answers one query over the graph: greedy descent from the top
    /// layer, then an `ef`-wide beam on layer 0 filtered to live rows.
    /// `key` maps a row id to its integer distance key under the
    /// caller's metric — any strictly increasing transform of the true
    /// distance: the popcount for binary, `f64::to_bits` of the
    /// squared distance for weighted (see the `Key` ordering note).
    /// Returns up to `ef` live rows ascending by `(key, id)` plus the
    /// number of key evaluations performed.
    pub fn query<F: FnMut(u32) -> u64>(
        &self,
        mut key: F,
        ef: usize,
        dead: Option<&Tombstones>,
    ) -> (Vec<(u32, u64)>, usize) {
        if self.levels.is_empty() {
            return (Vec::new(), 0);
        }
        let mut evals = 0usize;
        let mut counted = |i: u32| {
            evals += 1;
            key(i)
        };
        let mut ep = Key::new(counted(self.entry), self.entry);
        for layer in (1..=self.max_level as usize).rev() {
            ep = greedy(self, &mut counted, ep, layer);
        }
        let found = search_layer(self, &mut counted, &[ep], 0, ef, dead);
        (found.into_iter().map(|k| (k.id(), k.d())).collect(), evals)
    }
}

/// Deterministic layer of node `id`: splitmix64 of `(SEED, id)`
/// mapped to `(0, 1]`, then the geometric `⌊-ln(u) / ln(M)⌋`.
fn level_for(id: u32) -> u8 {
    let h = splitmix64(SEED ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Top 53 bits, +1 so u ∈ (0, 1] and ln(u) is finite.
    let u = ((h >> 11) + 1) as f64 / (1u64 << 53) as f64;
    let ml = 1.0 / (M as f64).ln();
    ((-u.ln() * ml) as usize).min(MAX_LEVEL) as u8
}

/// The graph while [`AnnIndex::build`] grows it: `links[node][layer]`
/// lists, pushed and trimmed in place, frozen once every row is in.
struct Builder<'s> {
    store: &'s VectorStore,
    levels: Vec<u8>,
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: u8,
}

impl Links for Builder<'_> {
    fn nodes(&self) -> usize {
        self.links.len()
    }

    fn list(&self, node: u32, layer: usize) -> &[u32] {
        self.links[node as usize]
            .get(layer)
            .map_or(&[][..], |v| v.as_slice())
    }
}

impl Builder<'_> {
    /// One construction insert: assign a layer, descend greedily to
    /// it, then beam + bidirectionally link on every layer down to 0.
    fn insert_node(&mut self, id: u32) {
        let level = level_for(id) as usize;
        let first = self.levels.is_empty();
        self.levels.push(level as u8);
        self.links.push(vec![Vec::new(); level + 1]);
        let idx = id as usize;
        debug_assert_eq!(self.links.len() - 1, idx);
        if first {
            self.entry = id;
            self.max_level = level as u8;
            return;
        }
        // Build-time keys: integer Hamming to the new row.
        let store = self.store;
        let new_row = store.row(idx);
        let mut key = |i: u32| hamming_row(store.row(i as usize), new_row) as u64;
        let top = self.max_level as usize;
        let mut ep = Key::new(key(self.entry), self.entry);
        for layer in ((level + 1)..=top).rev() {
            ep = greedy(self, &mut key, ep, layer);
        }
        let mut entries = vec![ep];
        for layer in (0..=level.min(top)).rev() {
            let found = search_layer(self, &mut key, &entries, layer, EF_CONSTRUCTION, None);
            let chosen = self.select_diverse(&found, M);
            for &nb in &chosen {
                self.links[idx][layer].push(nb);
                self.links[nb as usize][layer].push(id);
                if self.links[nb as usize][layer].len() > cap(layer) {
                    self.trim(nb, layer);
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
    fn select_diverse(&self, candidates: &[Key], cap: usize) -> Vec<u32> {
        let store = self.store;
        let mut chosen: Vec<u32> = Vec::with_capacity(cap);
        for c in candidates {
            if chosen.len() == cap {
                break;
            }
            let dominated = chosen.iter().any(|&s| {
                (hamming_row(store.row(c.id() as usize), store.row(s as usize)) as u64) < c.d()
            });
            if !dominated {
                chosen.push(c.id());
            }
        }
        chosen
    }

    /// Trims an overflowing neighbor list back under the cap with the
    /// same diversity heuristic as insertion, keyed by `(Hamming, id)`
    /// to the owner.
    fn trim(&mut self, node: u32, layer: usize) {
        let own_row = self.store.row(node as usize);
        let mut keyed: Vec<Key> = self.links[node as usize][layer]
            .iter()
            .map(|&nb| Key::new(hamming_row(self.store.row(nb as usize), own_row) as u64, nb))
            .collect();
        keyed.sort_unstable();
        self.links[node as usize][layer] = self.select_diverse(&keyed, cap(layer));
    }
}

/// Greedy best-first descent on one upper layer (beam width 1): hop
/// to the best-keyed neighbor until no neighbor improves.
fn greedy<L: Links, F: FnMut(u32) -> u64>(
    links: &L,
    key: &mut F,
    mut ep: Key,
    layer: usize,
) -> Key {
    loop {
        let mut improved = false;
        for &nb in links.list(ep.id(), layer) {
            let cand = Key::new(key(nb), nb);
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

/// Bounded beam search on one layer: expands nodes in key order,
/// keeping the best `ef` **admissible** nodes (all nodes during
/// construction; live rows only when `dead` is given — tombstoned
/// nodes still navigate, so the result bound stays ∞ until `ef` live
/// rows are found and the beam keeps digging past dead
/// neighborhoods). Returns the kept nodes ascending by `(key, id)`.
fn search_layer<L: Links, F: FnMut(u32) -> u64>(
    links: &L,
    key: &mut F,
    entries: &[Key],
    layer: usize,
    ef: usize,
    dead: Option<&Tombstones>,
) -> Vec<Key> {
    let alive = |id: u32| dead.is_none_or(|t| !t.is_dead(id as usize));
    let mut seen = vec![0u64; links.nodes().div_ceil(64).max(1)];
    let mut mark = |id: u32| {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        let was = seen[w] & bit != 0;
        seen[w] |= bit;
        was
    };
    // A beam as wide as the graph already keeps every node it finds,
    // so a wider request (`ef` is caller input) changes nothing but
    // the allocation.
    let mut beam = Beam::new(ef.min(links.nodes()));
    for &e in entries {
        if !mark(e.id()) {
            beam.insert(e, alive(e.id()));
        }
    }
    while let Some(c) = beam.next() {
        for &nb in links.list(c, layer) {
            if mark(nb) {
                continue;
            }
            let cand = Key::new(key(nb), nb);
            if beam.admits(cand) {
                beam.insert(cand, alive(nb));
            }
        }
    }
    beam.into_kept()
}

/// The working set of one [`search_layer`] call: the best `ef`
/// admissible nodes found so far in one array ascending by key, and
/// the inadmissible (tombstoned) nodes found but not yet expanded in a
/// min-heap beside it.
///
/// This is the textbook two-heap beam (a frontier min-heap beside a
/// result max-heap) with the result heap made a sorted array that
/// doubles as the live part of the frontier. That beam always expands
/// the best unexpanded node it admitted, and stops once that node
/// ranks past the worst of `ef` kept ones. Once `ef` are kept the
/// worst only improves, so an admitted node evicted past it can never
/// be expanded and forgetting it changes nothing. Expanding the better
/// of the first unexpanded slot and the heap's top (while it ranks
/// ahead of the worst kept), over and over, therefore walks the same
/// nodes in the same order and keeps the same `ef`. Without tombstones
/// the heap stays empty and each admitted node costs one array insert
/// instead of a push on each heap and a pop on overflow; with many, the
/// array still never outgrows `ef` slots.
struct Beam {
    /// [`Key`] bits, ORed with [`Beam::EXPANDED`] once expanded; at
    /// most `ef`.
    kept: Vec<u128>,
    /// [`Key`] bits of the unexpanded inadmissible nodes, which
    /// navigate but may not be returned.
    held_out: BinaryHeap<Reverse<u128>>,
    ef: usize,
    /// Every slot of `kept` before this one is expanded.
    next: usize,
}

impl Beam {
    /// The slot's node was expanded.
    const EXPANDED: u128 = 1;

    fn new(ef: usize) -> Beam {
        let ef = ef.max(1);
        Beam {
            kept: Vec::with_capacity(ef + 1),
            held_out: BinaryHeap::new(),
            ef,
            next: 0,
        }
    }

    /// Whether a freshly evaluated node joins the beam: while fewer
    /// than `ef` are kept, always; after, only ahead of the worst kept
    /// one.
    fn admits(&self, cand: Key) -> bool {
        self.kept.len() < self.ef || self.kept.last().is_some_and(|&worst| cand.0 < worst)
    }

    /// Adds an admitted node: an admissible one in key order, evicting
    /// the worst kept one past the first `ef`; an inadmissible one to
    /// the heap.
    fn insert(&mut self, k: Key, admissible: bool) {
        if !admissible {
            self.held_out.push(Reverse(k.0));
            return;
        }
        let at = self.kept.partition_point(|&s| s < k.0);
        self.kept.insert(at, k.0);
        self.next = self.next.min(at);
        if self.kept.len() > self.ef {
            self.kept.pop();
        }
    }

    /// The best unexpanded node — the first unexpanded kept slot,
    /// marked expanded, or the heap's top, popped — or `None` when
    /// neither is left that may still be expanded.
    fn next(&mut self) -> Option<u32> {
        while self
            .kept
            .get(self.next)
            .is_some_and(|&s| s & Beam::EXPANDED != 0)
        {
            self.next += 1;
        }
        let live = self.kept.get(self.next).copied();
        let held = self
            .held_out
            .peek()
            .map(|r| r.0)
            .filter(|&h| self.admits(Key(h)));
        match (live, held) {
            (Some(l), h) if h.is_none_or(|h| l < h) => {
                self.kept[self.next] |= Beam::EXPANDED;
                self.next += 1;
                Some(Key(l).id())
            }
            (_, Some(h)) => {
                self.held_out.pop();
                Some(Key(h).id())
            }
            _ => None,
        }
    }

    /// The kept nodes, ascending by `(key, id)`.
    fn into_kept(self) -> Vec<Key> {
        (self.kept.into_iter())
            .map(|s| Key(s & !Beam::EXPANDED))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::{weighted_sq_xor_words, Bitset};
    use proptest::prelude::*;

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
        let a = AnnIndex::build(&store);
        let b = AnnIndex::build(&store);
        assert_eq!(a, b);
        assert_eq!(a.built_n(), 300);
        // Caps hold everywhere; all ids in range; entry on top layer.
        for (id, layers) in nested(&a).iter().enumerate() {
            assert_eq!(layers.len(), a.levels[id] as usize + 1);
            for (layer, list) in layers.iter().enumerate() {
                assert!(list.len() <= cap(layer), "node {id} layer {layer}");
                assert!(list.iter().all(|&nb| (nb as usize) < 300));
                assert!(!list.contains(&(id as u32)), "self-link at {id}");
            }
        }
        assert_eq!(a.levels[a.entry as usize], a.max_level);
    }

    #[test]
    fn beam_recall_is_high_on_a_random_store() {
        let store = clustered_store(2000, 128, 11);
        let ann = AnnIndex::build(&store);
        let mut hitrate = 0usize;
        let mut total_evals = 0usize;
        let queries = 25;
        let k = 10;
        for q in 0..queries {
            let truth = exact_topk(&store, q, k);
            let (got, evals) = ann.query(
                |i| hamming_row(store.row(q), store.row(i as usize)) as u64,
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
        let ann = AnnIndex::build(&store);
        let mut dead = Tombstones::all_live(200);
        for i in (0..200).step_by(3) {
            dead.mark_dead(i);
        }
        for q in 0..20 {
            let (got, _) = ann.query(
                |i| hamming_row(store.row(q), store.row(i as usize)) as u64,
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
        let ann = AnnIndex::build(&store);
        let (got, _) = ann.query(
            |i| hamming_row(store.row(0), store.row(i as usize)) as u64,
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
        let ann = AnnIndex::build(&empty);
        assert_eq!(ann.built_n(), 0);
        let (got, evals) = ann.query(|_| 0, 8, None);
        assert!(got.is_empty());
        assert_eq!(evals, 0);
        let one = random_store(1, 64, 1);
        let ann = AnnIndex::build(&one);
        let (got, _) = ann.query(
            |i| hamming_row(one.row(0), one.row(i as usize)) as u64,
            4,
            None,
        );
        assert_eq!(got, vec![(0, 0)]);
    }

    #[test]
    fn from_parts_validates_structure() {
        let store = random_store(50, 64, 13);
        let ann = AnnIndex::build(&store);
        let links = nested(&ann);
        let parts = |links: Vec<Vec<Vec<u32>>>| {
            AnnIndex::from_parts(ann.entry(), ann.levels().to_vec(), links)
        };
        assert_eq!(
            parts(links.clone()),
            Ok(ann.clone()),
            "faithful parts validate"
        );
        // Entry out of range.
        assert!(AnnIndex::from_parts(99, ann.levels().to_vec(), links.clone()).is_err());
        // Neighbor id out of range.
        let mut bad = links.clone();
        bad[0][0].push(1000);
        assert!(parts(bad).is_err());
        // Layer count disagrees with the level.
        let mut bad = links.clone();
        bad[0].push(Vec::new());
        assert!(parts(bad).is_err());
        // Level/links length mismatch.
        assert!(AnnIndex::from_parts(ann.entry(), vec![0; 49], links.clone()).is_err());
        // A list over its layer's cap (`2·m` on layer 0).
        let mut bad = links.clone();
        bad[0][0].resize(2 * M + 1, 1);
        let err = parts(bad).unwrap_err();
        assert!(err.contains("over its cap"), "{err}");
        // A self-link.
        let mut bad = links.clone();
        bad[3][0][0] = 3;
        let err = parts(bad).unwrap_err();
        assert!(err.contains("itself"), "{err}");
    }

    #[test]
    fn trimmed_graph_matches_its_golden_digest() {
        // n > 2m + 1, so layer-0 lists overflow and trim: 46 nodes end
        // at the full cap of 32. Recorded from the nested-list layout
        // before the graph was frozen; freezing must not move a link.
        let ann = AnnIndex::build(&clustered_store(2000, 128, 11));
        let full = (0..2000).filter(|&i| ann.neighbors(i, 0).len() == 32);
        assert_eq!(full.count(), 46);
        assert_eq!(ann.max_level(), 2);
        assert_eq!(graph_digest(&ann), 0x5A1F_2BE1_3B1A_3790);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The frozen beam (integer keys, flat lists) returns the
        /// same `(id, key)` list and the same evaluation count as the
        /// nested-list `f64` reference, over random and clustered
        /// stores, beam widths up to `n`, tombstone fractions from
        /// none to 90 %, binary and weighted keys.
        #[test]
        fn frozen_beam_matches_the_nested_reference(
            clustered in any::<bool>(),
            n_pick in 0usize..5,
            ef_pick in 0usize..4,
            dead_pick in 0usize..4,
            weighted in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let n = [0, 1, 33, 34, 500][n_pick];
            let bits = 96;
            let store = if clustered {
                clustered_store(n, bits, seed)
            } else {
                random_store(n, bits, seed)
            };
            let ann = AnnIndex::build(&store);
            let ef = [1, 10, 32, n][ef_pick];
            // No mask, one dead row, ~25 %, ~90 %.
            let per_mille = [0, 0, 250, 900][dead_pick];
            let mut dead = Tombstones::all_live(n);
            for i in 0..n {
                if splitmix64(seed ^ 0xDEAD ^ i as u64) % 1000 < per_mille {
                    dead.mark_dead(i);
                }
            }
            if dead_pick == 1 && n > 0 {
                dead.mark_dead(seed as usize % n);
            }
            let dead = (dead_pick > 0).then_some(&dead);
            let w_sq: Vec<f64> = (0..bits)
                .map(|b| (splitmix64(seed ^ 0x5EED ^ b as u64) % 1000) as f64 / 997.0)
                .collect();
            let q = random_store(1, bits, seed ^ 1).row(0).to_vec();
            let real = |i: u32| {
                let row = store.row(i as usize);
                if weighted {
                    weighted_sq_xor_words(&q, row, &w_sq)
                } else {
                    hamming_row(&q, row) as f64
                }
            };
            let int = |i: u32| {
                if weighted {
                    real(i).to_bits()
                } else {
                    hamming_row(&q, store.row(i as usize)) as u64
                }
            };
            let (want, want_evals) =
                reference::query(&nested(&ann), ann.entry(), ann.max_level(), real, ef, dead);
            let (got, evals) = ann.query(int, ef, dead);
            let want: Vec<(u32, u64)> = (want.into_iter())
                .map(|(id, d)| (id, if weighted { d.to_bits() } else { d as u64 }))
                .collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(evals, want_evals);
        }
    }

    /// The graph's lists as nested `[node][layer]` vectors.
    fn nested(ann: &AnnIndex) -> Vec<Vec<Vec<u32>>> {
        (ann.levels().iter().enumerate())
            .map(|(node, &level)| {
                (0..=level as usize)
                    .map(|layer| ann.neighbors(node as u32, layer).to_vec())
                    .collect()
            })
            .collect()
    }

    /// FNV-1a over `(entry, levels, every neighbor list in order)`,
    /// each list as its `u32` length then its ids, little-endian.
    fn graph_digest(ann: &AnnIndex) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
        };
        eat(&ann.entry().to_le_bytes());
        eat(ann.levels());
        for layers in nested(ann) {
            for list in layers {
                eat(&(list.len() as u32).to_le_bytes());
                for nb in list {
                    eat(&nb.to_le_bytes());
                }
            }
        }
        h
    }

    /// The beam before the graph was frozen — two heaps over nested
    /// `links[node][layer]` lists, `f64` keys ordered by `total_cmp` —
    /// kept as the oracle of the frozen beam.
    mod reference {
        use std::cmp::{Ordering, Reverse};
        use std::collections::BinaryHeap;

        use crate::scan::Tombstones;

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

        fn neighbors(links: &[Vec<Vec<u32>>], id: u32, layer: usize) -> &[u32] {
            links[id as usize]
                .get(layer)
                .map_or(&[][..], |v| v.as_slice())
        }

        fn greedy<F: FnMut(u32) -> f64>(
            links: &[Vec<Vec<u32>>],
            key: &mut F,
            mut ep: Key,
            layer: usize,
        ) -> Key {
            loop {
                let mut improved = false;
                for &nb in neighbors(links, ep.id, layer) {
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

        fn search_layer<F: FnMut(u32) -> f64>(
            links: &[Vec<Vec<u32>>],
            key: &mut F,
            entries: &[Key],
            layer: usize,
            ef: usize,
            dead: Option<&Tombstones>,
        ) -> Vec<Key> {
            let ef = ef.max(1);
            let alive = |id: u32| dead.is_none_or(|t| !t.is_dead(id as usize));
            let mut seen = vec![0u64; links.len().div_ceil(64).max(1)];
            let mark = |id: u32, seen: &mut Vec<u64>| {
                let (w, b) = (id as usize / 64, id as usize % 64);
                let was = seen[w] >> b & 1 == 1;
                seen[w] |= 1 << b;
                was
            };
            let mut frontier: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
            let mut kept: BinaryHeap<Key> = BinaryHeap::new();
            for &e in entries {
                if mark(e.id, &mut seen) {
                    continue;
                }
                frontier.push(Reverse(e));
                if alive(e.id) {
                    kept.push(e);
                    if kept.len() > ef {
                        kept.pop();
                    }
                }
            }
            while let Some(Reverse(c)) = frontier.pop() {
                if kept.len() == ef {
                    if let Some(&worst) = kept.peek() {
                        if c > worst {
                            break;
                        }
                    }
                }
                for &nb in neighbors(links, c.id, layer) {
                    if mark(nb, &mut seen) {
                        continue;
                    }
                    let cand = Key { d: key(nb), id: nb };
                    let admit = kept.len() < ef || cand < *kept.peek().expect("kept is full");
                    if admit {
                        frontier.push(Reverse(cand));
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

        /// Greedy descent from `entry` through the upper layers, then
        /// an `ef`-wide live-filtered beam on layer 0: up to `ef` rows
        /// ascending by `(key, id)`, plus the key evaluations.
        pub(super) fn query<F: FnMut(u32) -> f64>(
            links: &[Vec<Vec<u32>>],
            entry: u32,
            max_level: u8,
            mut key: F,
            ef: usize,
            dead: Option<&Tombstones>,
        ) -> (Vec<(u32, f64)>, usize) {
            if links.is_empty() {
                return (Vec::new(), 0);
            }
            let mut evals = 0usize;
            let mut counted = |i: u32| {
                evals += 1;
                key(i)
            };
            let mut ep = Key {
                d: counted(entry),
                id: entry,
            };
            for layer in (1..=max_level as usize).rev() {
                ep = greedy(links, &mut counted, ep, layer);
            }
            let found = search_layer(links, &mut counted, &[ep], 0, ef, dead);
            (found.into_iter().map(|k| (k.id, k.d)).collect(), evals)
        }
    }

    #[test]
    fn level_assignment_is_geometric_ish() {
        let store = random_store(2000, 64, 17);
        let ann = AnnIndex::build(&store);
        let ground = ann.levels().iter().filter(|&&l| l == 0).count();
        // With m = 16, ~93.75% of nodes should sit on layer 0 alone.
        assert!(ground > 1700, "{ground} of 2000 on layer 0");
        assert!((ann.max_level as usize) <= MAX_LEVEL);
    }
}
