//! The feature space `F` of §4–5: mined features, the binary matrix
//! `[y_ir]` as bitset rows, and the two inverted lists of §5.1.2 —
//! `IF_r` (graphs containing feature `f_r`) and `IG_i` (features
//! contained in graph `g_i`: row `y_i` read as a set, which is how
//! DSPM walks it).
//!
//! **Unseen graphs** (queries, online inserts) are mapped onto a
//! feature set by one search, [`CodeTree::map_query`]. The features
//! are gSpan patterns, so each is named by a DFS code and a feature's
//! embeddings extend those of its code's prefix by one edge. The
//! [`CodeTree`] is the prefix tree of the set's codes; mapping a graph
//! is one backtracking walk of that tree which keeps the VF2 "feature
//! matching time" (the paper's Exp-4 cost component) down three ways:
//!
//! * the partial embedding of a prefix is shared by every feature
//!   below it — a feature costs the edges its code adds, not a search
//!   of its own;
//! * a feature is present at its first embedding, and a subtree is
//!   left as soon as every feature in it is decided;
//! * absence is proven by exhausting the parent prefix's embeddings,
//!   which decides the whole subtree at once (anti-monotonicity along
//!   the prefix chain), and a subtree whose labels the graph lacks is
//!   never entered.
//!
//! A DFS code fixes the order pattern vertices are placed in, so the
//! walk cannot start at the most constrained vertex the way VF2 does;
//! on adversarial input (a star with thousands of equal leaves) a
//! short prefix has quadratically many embeddings. The walk therefore
//! counts its extension steps and past [`STEPS_PER_SIZE`] steps per
//! vertex-plus-edge of the graph hands the undecided features to
//! independent VF2 tests.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use gdim_graph::dfscode::DfsCode;
use gdim_graph::fxhash::FxHashMap;
use gdim_graph::vf2::{self, Pattern};
use gdim_graph::{ELabel, Graph, GraphBuilder, VLabel};
use gdim_mining::Feature;

use crate::bitset::Bitset;
use crate::error::GdimError;

/// Per-query counters of the feature-matching leg.
/// `vf2_calls + vf2_pruned` is always the number of columns mapped
/// onto.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Columns *tested*: the search attempted the last edge of the
    /// feature's code at least once (its prefix has an embedding at
    /// which the vertex that edge leaves has a neighbour carrying the
    /// edge's labels), or the work guard ran a VF2 test for it.
    pub vf2_calls: usize,
    /// Columns decided without a test: a prefix of the feature's code
    /// is absent from the graph, or its last edge's labels are absent
    /// wherever the prefix is.
    pub vf2_pruned: usize,
    /// Extension steps of the search: candidate vertices examined for
    /// a forward code edge plus adjacency probes for a backward one.
    /// Fixed by the graph and the feature set, not the machine.
    pub extensions: usize,
}

/// Extension steps the tree search may take per `|V| + |E|` of the
/// graph being mapped before the undecided columns go to independent
/// VF2 tests. The largest ratio seen is 36.5 over the end-to-end
/// benchmark's chem fixtures (16,384 pool queries and 16,000 database
/// graphs, onto the 128 selected dimensions and onto the 631 mined
/// features) and 44.6 over the chem and dense two-label synthetic
/// corpus of `tests/scan_equivalence.rs`; 256 is more than 4× both.
/// A uniform star with `n` leaves needs about `n / 2` per unit of
/// size under a three-edge chain feature.
pub const STEPS_PER_SIZE: usize = 256;

/// "No column ends here" / "no parent".
const NONE: u32 = u32::MAX;

/// One node of the [`CodeTree`]. A *vertex* node (`from == to`; the
/// tree's roots) places DFS index 0 on a graph vertex labelled `key`;
/// a *forward* node (`from < to`) places index `to` on a neighbour of
/// `map[from]`; a *backward* node (`from > to`) requires an edge
/// between two placed vertices. For edge nodes `key` is the id of the
/// `(edge label, label of vertex to)` pair.
#[derive(Debug, Clone, Copy)]
struct Node {
    from: u32,
    to: u32,
    key: u32,
    /// The column whose feature's code ends here, or [`NONE`] for a
    /// prefix that is not itself in the set.
    col: u32,
    parent: u32,
    /// Child nodes, contiguous in [`CodeTree::nodes`].
    children: (u32, u32),
}

/// The prefix tree over a feature set's DFS codes and the one search
/// that maps a graph onto the set (see the module docs).
///
/// Built once per feature set — at index build, and **rebuilt
/// deterministically on load**: it is derived state, never persisted
/// (see [`crate::persist`]). Immutable and held in a shared cell by its
/// users, so clones, shards and compactions over the same features map
/// through one tree.
#[derive(Debug)]
pub struct CodeTree {
    /// Breadth-first: the vertex nodes first, every parent before its
    /// children.
    nodes: Vec<Node>,
    roots: usize,
    columns: usize,
    /// `(edge label, neighbour label)` of each key id.
    key_labels: Vec<(ELabel, VLabel)>,
    keys: FxHashMap<(ELabel, VLabel), u32>,
    /// Vertices of the largest feature: the length of the search's
    /// `map`.
    max_vertices: usize,
}

/// The lazily filled, shared slot a [`CodeTree`] lives in: whoever
/// maps first builds the tree for every holder of the cell.
pub(crate) type CodeTreeCell = Arc<OnceLock<CodeTree>>;

/// Per-thread buffers of [`CodeTree::map_query`]: a warm call
/// allocates only the [`Bitset`] it returns. Everything is re-sized
/// and re-initialised per call, so one scratch serves trees and graphs
/// of any size in any order.
#[derive(Debug, Default)]
struct Scratch {
    /// `map[dfs_index]` = graph vertex of the current partial embedding.
    map: Vec<u32>,
    /// `used[graph_vertex]`; all `false` between searches.
    used: Vec<bool>,
    /// The graph's adjacency, vertex `v` at `offsets[v]..offsets[v + 1]`,
    /// one `key << 32 | neighbour` entry per neighbour whose key the
    /// tree knows, sorted — a key's neighbours are one contiguous run.
    offsets: Vec<u32>,
    adjacency: Vec<u64>,
    /// Per vertex, bit `key % 64` set for every key among its
    /// neighbours: a clear bit proves the key's run is empty.
    key_mask: Vec<u64>,
    /// Whether any edge of the graph carries key `k`.
    key_seen: Vec<bool>,
    /// Undecided columns in the subtree of each node.
    open: Vec<u32>,
    /// Whether the search attempted the node's edge.
    tried: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

fn fallback_counter() -> &'static gdim_obs::Counter {
    static C: OnceLock<Arc<gdim_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        gdim_obs::global().counter(
            "gdim_map_fallback_total",
            "Mappings whose tree search exceeded its step budget and finished on per-feature VF2 tests",
            &[],
        )
    })
}

impl CodeTree {
    /// Builds the tree over `codes` (column `r` = `codes[r]`).
    ///
    /// Every code is checked first — the search trusts its indices and
    /// labels — so codes read from hostile bytes surface here as
    /// [`GdimError::Corrupt`]: the code must be non-empty, its first
    /// edge `(0, 1)`, a forward edge must introduce exactly the next DFS
    /// index from an existing one, a backward edge must join two placed
    /// vertices, labels must agree per index, and no vertex pair may
    /// carry two edges — so the code spells one simple connected graph,
    /// [`DfsCode::to_graph`].
    pub fn build(codes: &[DfsCode]) -> Result<Self, GdimError> {
        // A pointer trie first (`children` as lists), flattened below.
        struct Trie {
            node: Node,
            children: Vec<usize>,
        }
        let fresh = |from, to, key| Trie {
            node: Node {
                from,
                to,
                key,
                col: NONE,
                parent: NONE,
                children: (0, 0),
            },
            children: Vec::new(),
        };
        let mut trie: Vec<Trie> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        let mut keys: FxHashMap<(ELabel, VLabel), u32> = FxHashMap::default();
        let mut key_labels = Vec::new();
        let mut max_vertices = 0;
        for (col, code) in codes.iter().enumerate() {
            let vertices = check_code(code)
                .map_err(|why| GdimError::Corrupt(format!("dimension {col}: {why}")))?;
            max_vertices = max_vertices.max(vertices);
            let l0 = code.0[0].from_label;
            let root = roots
                .iter()
                .copied()
                .find(|&r| trie[r].node.key == l0)
                .unwrap_or_else(|| {
                    roots.push(trie.len());
                    trie.push(fresh(0, 0, l0));
                    trie.len() - 1
                });
            let mut at = root;
            for (i, e) in code.0.iter().enumerate() {
                let key = *keys.entry((e.elabel, e.to_label)).or_insert_with(|| {
                    key_labels.push((e.elabel, e.to_label));
                    key_labels.len() as u32 - 1
                });
                let last = i + 1 == code.len();
                // A second column with the same code (a dimension
                // selected twice) becomes a sibling, not a clash.
                let found = trie[at].children.iter().copied().find(|&c| {
                    let n = &trie[c].node;
                    (n.from, n.to, n.key) == (e.from, e.to, key) && !(last && n.col != NONE)
                });
                at = found.unwrap_or_else(|| {
                    trie.push(fresh(e.from, e.to, key));
                    let c = trie.len() - 1;
                    trie[at].children.push(c);
                    c
                });
            }
            trie[at].node.col = col as u32;
        }
        // Breadth-first flattening: `order[i]` is the trie node that
        // becomes `nodes[i]`; children are appended as a block when
        // their parent is reached.
        let mut order = roots.clone();
        let mut nodes: Vec<Node> = roots.iter().map(|&r| trie[r].node).collect();
        let mut i = 0;
        while i < order.len() {
            let start = nodes.len() as u32;
            for &c in &trie[order[i]].children {
                order.push(c);
                nodes.push(Node {
                    parent: i as u32,
                    ..trie[c].node
                });
            }
            nodes[i].children = (start, nodes.len() as u32);
            i += 1;
        }
        Ok(CodeTree {
            nodes,
            roots: roots.len(),
            columns: codes.len(),
            key_labels,
            keys,
            max_vertices,
        })
    }

    /// Number of tree nodes: one per distinct code prefix, plus one
    /// per distinct first-vertex label.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maps a graph onto the feature set: bit `r` set iff `f_r ⊆ q`,
    /// bit-identical to testing every feature with VF2.
    pub fn map_query(&self, q: &Graph) -> (Bitset, MatchStats) {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.prepare(q, s);
            let mut search = Search {
                tree: self,
                nodes: &self.nodes,
                q,
                offsets: &s.offsets,
                adjacency: &s.adjacency,
                key_mask: &s.key_mask,
                key_seen: &s.key_seen,
                map: &mut s.map,
                used: &mut s.used,
                open: &mut s.open,
                tried: &mut s.tried,
                bits: Bitset::zeros(self.columns),
                steps: 0,
                budget: STEPS_PER_SIZE * (q.vertex_count() + q.edge_count()),
                tested: 0,
            };
            if !search.roots() {
                search.settle_by_vf2();
            }
            let stats = MatchStats {
                vf2_calls: search.tested,
                vf2_pruned: self.columns - search.tested,
                extensions: search.steps,
            };
            (search.bits, stats)
        })
    }

    /// The once-per-call half: `q`'s neighbours grouped by key id, and
    /// per node the number of columns below it the search can still
    /// learn something about (none under an edge whose labels `q`
    /// lacks).
    fn prepare(&self, q: &Graph, s: &mut Scratch) {
        let n = q.vertex_count();
        s.map.clear();
        s.map.resize(self.max_vertices, 0);
        s.used.clear();
        s.used.resize(n, false);
        s.key_seen.clear();
        s.key_seen.resize(self.key_labels.len(), false);
        s.offsets.clear();
        s.adjacency.clear();
        s.key_mask.clear();
        for v in 0..n as u32 {
            let start = s.adjacency.len();
            s.offsets.push(start as u32);
            let mut mask = 0u64;
            for nb in q.neighbors(v) {
                if let Some(&key) = self.keys.get(&(nb.elabel, q.vlabel(nb.to))) {
                    s.key_seen[key as usize] = true;
                    mask |= 1 << (key % 64);
                    s.adjacency.push(u64::from(key) << 32 | u64::from(nb.to));
                }
            }
            s.key_mask.push(mask);
            s.adjacency[start..].sort_unstable();
        }
        s.offsets.push(s.adjacency.len() as u32);

        s.tried.clear();
        s.tried.resize(self.nodes.len(), false);
        s.open.clear();
        s.open
            .extend(self.nodes.iter().map(|n| u32::from(n.col != NONE)));
        // Children sit after their parents, so one backward pass sums
        // every subtree (branch-free: whether a key occurs in `q` is
        // as good as random).
        for i in (self.roots..self.nodes.len()).rev() {
            let node = &self.nodes[i];
            s.open[i] *= u32::from(s.key_seen[node.key as usize]);
            s.open[node.parent as usize] += s.open[i];
        }
    }

    /// The graph of the feature whose code ends at `node`, read back
    /// off the path from its root.
    fn feature_graph(&self, node: usize) -> Graph {
        let mut path = Vec::new();
        let mut at = &self.nodes[node];
        while at.parent != NONE {
            path.push(at);
            at = &self.nodes[at.parent as usize];
        }
        let mut b = GraphBuilder::new();
        b.vertex(at.key);
        for n in path.iter().rev() {
            let (elabel, to_label) = self.key_labels[n.key as usize];
            if n.from < n.to {
                b.vertex(to_label);
            }
            b.edge(n.from, n.to, elabel)
                .expect("a checked code spells a simple graph");
        }
        b.build()
    }
}

/// One run of [`CodeTree::map_query`].
struct Search<'a> {
    tree: &'a CodeTree,
    nodes: &'a [Node],
    q: &'a Graph,
    // The prepared scratch, field by field (see [`Scratch`]).
    offsets: &'a [u32],
    adjacency: &'a [u64],
    key_mask: &'a [u64],
    key_seen: &'a [bool],
    map: &'a mut [u32],
    used: &'a mut [bool],
    open: &'a mut [u32],
    tried: &'a mut [bool],
    bits: Bitset,
    steps: usize,
    budget: usize,
    /// Columns whose edge was attempted (or that the guard tested).
    tested: usize,
}

impl Search<'_> {
    /// Places DFS index 0 on every vertex carrying a root's label and
    /// walks the tree below. `false` = the step budget ran out.
    fn roots(&mut self) -> bool {
        for r in 0..self.tree.roots {
            if self.open[r] == 0 {
                continue;
            }
            let label = self.nodes[r].key;
            for v in 0..self.q.vertex_count() as u32 {
                if self.q.vlabel(v) != label {
                    continue;
                }
                if !self.step() {
                    return false;
                }
                self.map[0] = v;
                self.used[v as usize] = true;
                let in_budget = self.children(r);
                self.used[v as usize] = false;
                if !in_budget {
                    return false;
                }
                if self.open[r] == 0 {
                    break;
                }
            }
        }
        true
    }

    /// Extends the current embedding of `parent`'s prefix by each child
    /// edge that still has an undecided column below it, depth-first.
    /// `false` = the step budget ran out (`used` is clean again by the
    /// time that reaches the caller).
    ///
    /// Which children are worth an attempt — open, and their key among
    /// the neighbours of the vertex they extend from — is data no
    /// branch predictor can learn, so it is computed branch-free into
    /// a bitmap, 64 children at a time, and only the hits are visited.
    fn children(&mut self, parent: usize) -> bool {
        let (start, end) = self.nodes[parent].children;
        let (start, end) = (start as usize, end as usize);
        for base in (start..end).step_by(64) {
            let mut worth = 0u64;
            for (bit, c) in (base..end.min(base + 64)).enumerate() {
                let node = &self.nodes[c];
                let v = self.map[node.from as usize] as usize;
                let has_key = self.key_mask[v] >> (node.key % 64) & 1;
                worth |= (u64::from(self.open[c] != 0) & has_key) << bit;
            }
            while worth != 0 {
                let c = base + worth.trailing_zeros() as usize;
                worth &= worth - 1;
                if !self.child(c) {
                    return false;
                }
                if self.open[parent] == 0 {
                    return true;
                }
            }
        }
        true
    }

    /// One child edge against the current embedding of its parent.
    fn child(&mut self, c: usize) -> bool {
        let node = self.nodes[c];
        if !self.tried[c] {
            self.tried[c] = true;
            self.tested += usize::from(node.col != NONE);
        }
        let v = self.map[node.from as usize] as usize;
        let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        let key = u64::from(node.key) << 32;
        if node.from < node.to {
            let first = lo + self.adjacency[lo..hi].partition_point(|&e| e < key);
            for i in first..hi {
                let e = self.adjacency[i];
                if e >> 32 != key >> 32 {
                    break;
                }
                if !self.step() {
                    return false;
                }
                let w = e as u32;
                if self.used[w as usize] {
                    continue;
                }
                self.map[node.to as usize] = w;
                self.used[w as usize] = true;
                self.found(c, node.col);
                let in_budget = self.open[c] == 0 || self.children(c);
                self.used[w as usize] = false;
                if !in_budget {
                    return false;
                }
                if self.open[c] == 0 {
                    break;
                }
            }
        } else {
            if !self.step() {
                return false;
            }
            let w = u64::from(self.map[node.to as usize]);
            if self.adjacency[lo..hi].binary_search(&(key | w)).is_ok() {
                self.found(c, node.col);
                return self.open[c] == 0 || self.children(c);
            }
        }
        true
    }

    /// Counts one extension step; `false` = past the budget.
    fn step(&mut self) -> bool {
        self.steps += 1;
        self.steps <= self.budget
    }

    /// The prefix ending at `node` has an embedding: its column, if it
    /// has one and this is the first, is decided.
    fn found(&mut self, node: usize, col: u32) {
        if col == NONE || self.bits.get(col as usize) {
            return;
        }
        self.bits.set(col as usize);
        let mut at = node as u32;
        while at != NONE {
            self.open[at as usize] -= 1;
            at = self.nodes[at as usize].parent;
        }
    }

    /// The work guard's second half: every column the abandoned search
    /// left undecided gets an independent VF2 test (what
    /// `MappedDatabase::map_query_unpruned` does per feature, with `q`
    /// prepared once); bits already set stand, and a column under an
    /// absent one or under labels `q` lacks is absent untested.
    fn settle_by_vf2(&mut self) {
        fallback_counter().inc();
        let tree = self.tree;
        let mut scratch = vf2::Scratch::default();
        let mut target = scratch.target(self.q);
        let mut absent = vec![false; self.nodes.len()];
        for i in tree.roots..self.nodes.len() {
            let node = &self.nodes[i];
            absent[i] = absent[node.parent as usize] || !self.key_seen[node.key as usize];
            if absent[i] || node.col == NONE || self.bits.get(node.col as usize) {
                continue;
            }
            if !self.tried[i] {
                self.tried[i] = true;
                self.tested += 1;
            }
            let plan = Pattern::new(&tree.feature_graph(i));
            if plan.may_embed_in(&target) && plan.is_in(&mut target) {
                self.bits.set(node.col as usize);
            } else {
                absent[i] = true;
            }
        }
    }
}

/// Whether `code` is a DFS code of one simple connected graph, as the
/// miner writes it; returns that graph's vertex count.
fn check_code(code: &DfsCode) -> Result<usize, String> {
    let code = &code.0;
    let first = code.first().ok_or("empty DFS code")?;
    // Labels by DFS index, as the code introduces them.
    let mut labels = vec![first.from_label];
    for (i, e) in code.iter().enumerate() {
        let n = labels.len() as u32;
        if e.from < e.to {
            if e.to != n || e.from >= n {
                return Err(format!(
                    "code edge {i} ({}, {}) does not introduce DFS index {n} from an earlier one",
                    e.from, e.to
                ));
            }
            labels.push(e.to_label);
        } else if e.from == e.to || e.from >= n {
            return Err(format!(
                "code edge {i} ({}, {}) closes no cycle among {n} placed vertices",
                e.from, e.to
            ));
        }
        if (labels[e.from as usize], labels[e.to as usize]) != (e.from_label, e.to_label) {
            return Err(format!("code edge {i} relabels a placed vertex"));
        }
    }
    let mut pairs: Vec<(u32, u32)> = code
        .iter()
        .map(|e| (e.from.min(e.to), e.from.max(e.to)))
        .collect();
    pairs.sort_unstable();
    if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("code joins {} and {} twice", w[0].0, w[0].1));
    }
    Ok(labels.len())
}

/// The multidimensional feature space built over a graph database.
///
/// The input of dimension selection, immutable once built. A
/// [`GraphIndex`](crate::index::GraphIndex) does not retain it: the
/// build keeps the selected features' DFS codes and columns and drops
/// the rest.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    n_graphs: usize,
    features: Vec<Feature>,
    /// `rows[i]` = bitset of features contained in graph `i` (binary `y_i`).
    rows: Vec<Bitset>,
}

impl FeatureSpace {
    /// Builds the space from gSpan output (`features[r].support` becomes
    /// `IF_r` directly — no isomorphism tests are repeated).
    pub fn build(n_graphs: usize, features: Vec<Feature>) -> Self {
        let mut rows = vec![Bitset::zeros(features.len()); n_graphs];
        for (r, f) in features.iter().enumerate() {
            for &gid in &f.support {
                rows[gid as usize].set(r);
            }
        }
        FeatureSpace {
            n_graphs,
            features,
            rows,
        }
    }

    /// Number of graphs `n = |DG|`.
    #[inline]
    pub fn num_graphs(&self) -> usize {
        self.n_graphs
    }

    /// Number of features `m = |F|`.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// The mined features.
    #[inline]
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Binary vector `y_i` of graph `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &Bitset {
        &self.rows[i]
    }

    /// Inverted list `IF_r` (sorted graph ids containing feature `r`).
    #[inline]
    pub fn if_list(&self, r: usize) -> &[u32] {
        &self.features[r].support
    }

    /// `|sup(f_r)|`.
    #[inline]
    pub fn support_count(&self, r: usize) -> usize {
        self.features[r].support.len()
    }

    /// Restricts the space to a subset of graphs (new dense ids follow
    /// `graph_ids` order) keeping **all** features — used by DSPMap,
    /// whose partitions re-run DSPM on sub-databases. Features with
    /// empty restricted support are retained (weight updates handle
    /// them); callers can check [`FeatureSpace::support_count`].
    pub fn restrict_graphs(&self, graph_ids: &[u32]) -> FeatureSpace {
        let remap: FxHashMap<u32, u32> = graph_ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        let features: Vec<Feature> = self
            .features
            .iter()
            .map(|f| {
                let mut support: Vec<u32> = f
                    .support
                    .iter()
                    .filter_map(|g| remap.get(g).copied())
                    .collect();
                support.sort_unstable();
                Feature {
                    graph: f.graph.clone(),
                    code: f.code.clone(),
                    support,
                }
            })
            .collect();
        FeatureSpace::build(graph_ids.len(), features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdim_graph::vf2::is_subgraph_iso;
    use gdim_mining::{mine, MinerConfig, Support};

    fn tiny_db() -> Vec<Graph> {
        let tri = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap();
        let path = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0)]).unwrap();
        let other = Graph::from_parts(vec![1, 1], [(0, 1, 5)]).unwrap();
        vec![tri, path, other]
    }

    fn space() -> (Vec<Graph>, FeatureSpace) {
        let db = tiny_db();
        let feats = mine(&db, &MinerConfig::new(Support::Absolute(1)));
        let space = FeatureSpace::build(db.len(), feats);
        (db, space)
    }

    /// The features' codes, column order.
    fn codes(features: &[Feature]) -> Vec<DfsCode> {
        features.iter().map(|f| f.code.clone()).collect()
    }

    /// `q` mapped onto the whole space, the way an online insert does it.
    fn map_full(s: &FeatureSpace, q: &Graph) -> Bitset {
        CodeTree::build(&codes(s.features()))
            .unwrap()
            .map_query(q)
            .0
    }

    #[test]
    fn inverted_lists_are_consistent() {
        let (_, s) = space();
        for r in 0..s.num_features() {
            for &gid in s.if_list(r) {
                assert!(s.row(gid as usize).get(r));
            }
        }
        // ... and the rows hold nothing else: as many bits as supports.
        let bits: usize = (0..s.num_graphs())
            .map(|i| s.row(i).count_ones() as usize)
            .sum();
        let supports: usize = (0..s.num_features()).map(|r| s.if_list(r).len()).sum();
        assert_eq!(bits, supports);
    }

    #[test]
    fn map_query_agrees_with_db_rows() {
        // Mapping a database graph as a "query" must reproduce its row.
        let (db, s) = space();
        for (i, g) in db.iter().enumerate() {
            assert_eq!(&map_full(&s, g), s.row(i), "graph {i}");
        }
    }

    #[test]
    fn map_unseen_query() {
        let (_, s) = space();
        // A 4-path contains the edge and the 2-path but not the triangle.
        let q = Graph::from_parts(vec![0; 4], [(0, 1, 0), (1, 2, 0), (2, 3, 0)]).unwrap();
        let bits = map_full(&s, &q);
        for (r, f) in s.features().iter().enumerate() {
            assert_eq!(
                bits.get(r),
                is_subgraph_iso(&f.graph, &q),
                "feature {r}: {:?}",
                f.graph
            );
        }
        assert!(bits.count_ones() >= 2);
    }

    #[test]
    fn restrict_graphs_remaps_supports() {
        let (_, s) = space();
        let sub = s.restrict_graphs(&[2, 0]);
        assert_eq!(sub.num_graphs(), 2);
        assert_eq!(sub.num_features(), s.num_features());
        // Graph 2 (the label-1 edge) is now id 0.
        for r in 0..s.num_features() {
            let had = s.if_list(r).contains(&2);
            assert_eq!(sub.if_list(r).contains(&0), had);
            let had0 = s.if_list(r).contains(&0);
            assert_eq!(sub.if_list(r).contains(&1), had0);
        }
    }

    #[test]
    fn containment_dag_maps_bit_identically_to_brute_force() {
        // (Named for the structure the code tree replaced; the claim is
        // unchanged: the served mapping equals per-feature VF2.)
        let db = gdim_datagen::chem_db(20, &gdim_datagen::ChemConfig::default(), 5);
        let feats = mine(
            &db,
            &MinerConfig::new(Support::Relative(0.2)).with_max_edges(4),
        );
        assert!(feats.len() > 4);
        let tree = CodeTree::build(&codes(&feats)).unwrap();
        let queries = gdim_datagen::chem_db(4, &gdim_datagen::ChemConfig::default(), 77);
        for q in db.iter().take(3).chain(&queries) {
            let (bits, stats) = tree.map_query(q);
            for (r, f) in feats.iter().enumerate() {
                assert_eq!(bits.get(r), is_subgraph_iso(&f.graph, q), "feature {r}");
            }
            assert_eq!(stats.vf2_calls + stats.vf2_pruned, feats.len());
            assert!(stats.extensions > 0);
        }
    }

    #[test]
    fn a_prefix_outside_the_set_is_an_internal_node() {
        // Only the triangle and a labelled edge are selected: the
        // triangle's one- and two-edge prefixes become column-less
        // nodes, and a dimension selected twice gets a node per column.
        let (_, s) = space();
        let tri = s
            .features()
            .iter()
            .position(|f| f.graph.edge_count() == 3)
            .expect("the triangle is mined");
        let other = s
            .features()
            .iter()
            .position(|f| f.graph.vlabel(0) == 1)
            .expect("the label-1 edge is mined");
        let picked: Vec<DfsCode> = [tri, other, tri]
            .iter()
            .map(|&r| s.features()[r].code.clone())
            .collect();
        let tree = CodeTree::build(&picked).unwrap();
        // Roots 0 and 1; under 0 the chain edge – path – two triangles.
        assert_eq!(tree.node_count(), 2 + 4 + 1);
        let db = tiny_db();
        for (q, want) in db
            .iter()
            .zip([[true, false, true], [false; 3], [false, true, false]])
        {
            let (bits, stats) = tree.map_query(q);
            assert_eq!([bits.get(0), bits.get(1), bits.get(2)], want);
            assert_eq!(stats.vf2_calls + stats.vf2_pruned, 3);
        }
    }

    #[test]
    fn a_code_that_is_not_its_graphs_is_corrupt() {
        // A dimension is its code: a code that spells no simple
        // connected graph is corrupt.
        let (_, s) = space();
        let tri = s
            .features()
            .iter()
            .find(|f| f.graph.edge_count() == 3)
            .expect("the triangle is mined");
        let mutated = |edit: &dyn Fn(&mut DfsCode)| {
            let mut code = tri.code.clone();
            edit(&mut code);
            CodeTree::build(&[code])
        };
        assert!(mutated(&|_| {}).is_ok());
        let cases: [&dyn Fn(&mut DfsCode); 7] = [
            &|c| c.0[1].to = 7,       // skips DFS indices
            &|c| c.0[2].from = 9,     // names a vertex never placed
            &|c| c.0[0].to_label = 4, // labels disagree per index
            &|c| c.0.swap(0, 1),      // does not start at (0, 1)
            &|c| c.0[2] = c.0[1],     // an edge twice, one missing
            &|c| c.0.push(c.0[2]),    // a backward edge twice
            &|c| c.0.clear(),         // no code at all
        ];
        for (i, edit) in cases.iter().enumerate() {
            match mutated(edit) {
                Err(GdimError::Corrupt(_)) => {}
                other => panic!("case {i}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_step_budget_hands_a_star_to_vf2_with_the_same_bits() {
        // Uniform labels: a two-edge prefix has n² embeddings in an
        // n-leaf star and none extends to the mined path's third edge.
        // The search must give up and still answer exactly.
        let chain = Graph::from_parts(vec![0; 5], (0..4).map(|i| (i, i + 1, 0))).unwrap();
        let feats = mine(
            &[chain.clone(), chain],
            &MinerConfig::new(Support::Absolute(2)),
        );
        assert!(feats.iter().any(|f| f.graph.edge_count() == 4));
        let tree = CodeTree::build(&codes(&feats)).unwrap();
        let star = |n: u32| {
            Graph::from_parts(vec![0; n as usize + 1], (1..=n).map(|i| (0, i, 0))).unwrap()
        };
        let before = fallback_counter().get();
        for n in [3, 1000] {
            let q = star(n);
            let (bits, stats) = tree.map_query(&q);
            for (r, f) in feats.iter().enumerate() {
                assert_eq!(
                    bits.get(r),
                    is_subgraph_iso(&f.graph, &q),
                    "n={n} feature {r}"
                );
            }
            assert_eq!(stats.vf2_calls + stats.vf2_pruned, feats.len());
            assert!(
                stats.extensions <= STEPS_PER_SIZE * (2 * n as usize + 1) + 1,
                "n={n}: {stats:?}"
            );
        }
        assert!(
            fallback_counter().get() > before,
            "the 1000-leaf star crosses the budget"
        );
    }

    #[test]
    fn parent_pruning_never_changes_results() {
        // Compare the tree mapping against brute-force VF2 over all
        // features on a query where many prefixes are absent.
        let (_, s) = space();
        let q = Graph::from_parts(vec![1, 1, 1], [(0, 1, 5), (1, 2, 5)]).unwrap();
        let bits = map_full(&s, &q);
        for (r, f) in s.features().iter().enumerate() {
            assert_eq!(bits.get(r), is_subgraph_iso(&f.graph, &q));
        }
    }
}
