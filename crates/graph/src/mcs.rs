//! Maximum common subgraph, measured in edges — the `|E(mcs(q, g))|`
//! kernel inside both dissimilarities δ1 (Eq. 1) and δ2 (Eq. 2).
//!
//! Per §2 of the paper, a common subgraph is a graph subgraph-isomorphic
//! (non-induced) to both inputs; it need not be connected. We search for
//! the injective partial vertex mapping maximizing the number of mapped
//! edge pairs with matching edge labels (a McGregor-style branch and
//! bound), with:
//!
//! * vertex-label domain pruning,
//! * an upper bound from per-`(endpoint labels, edge label)`-triple
//!   matching capacities and from degree matching,
//! * greedy-first candidate ordering so the incumbent is good early, and
//! * a **node budget** making the search *anytime*: when the budget runs
//!   out the search returns the best mapping found and reports
//!   [`McsOutcome::exact`] `= false`. On molecule-like graphs of 10–20
//!   vertices (`gdim_datagen::chem_db(16, ..)`, the 120 pairs) that is
//!   common, not adversarial: 82 pairs stop at the matrix budget of
//!   16,384 nodes and 25 still stop at the default 500,000.
//!
//! Because so many pairs stop at the budget, δ depends on the exact
//! order in which the search visits nodes; the tree (decision order,
//! candidate order, bound, budget accounting) is therefore part of the
//! contract, pinned by the proptests against the reference search in
//! `tests/mcs_reference/`.
//!
//! # Incremental state
//!
//! A node costs O(degree) plus one scan of the undecided vertices to pick
//! the next one: nothing is recounted from the graphs and nothing is
//! allocated. Deciding a q vertex `v` (map it to `t` vertex
//! `w`, or skip it) and undoing that decision update, for the vertices
//! adjacent to `v` and `w` only, counters whose invariants hold at every
//! node:
//!
//! * `q_open[u]` = undecided neighbours of `u`, `q_anchored[u]` = mapped
//!   neighbours of `u`, `t_open[x]` = unused neighbours of `x`;
//! * `class_extra` = Σ over edge classes of `min(open q edges, open t
//!   edges)`;
//! * `mapped_cap` = Σ over mapped `u` of `min(q_open[u],
//!   t_open[map[u]])`;
//! * `ge` holds, per vertex label and threshold `1 ≤ d ≤ cap` (`cap` the
//!   smaller of the two graphs' largest degree among vertices of that
//!   label, so `ge` has O(|E(q)|) entries), `[#undecided q, #unused t]`
//!   vertices of that label with open degree ≥ `d`; `pair_sum` = Σ of
//!   the smaller of each pair is the sorted-descending degree pairing
//!   `Σ_i min(q⁽ⁱ⁾, t⁽ⁱ⁾)` summed per label, since the i-th largest of
//!   each side is ≥ `d` exactly for `i <` that side's count ≥ `d`.
//!
//! Edge labels between t vertices are read from a per-t-vertex scratch
//! row (the neighbours of the vertex being mapped are marked, read and
//! unmarked), not from a |V(t)|² table: the exact rankers run this
//! search against query graphs of any size, so its memory stays linear.

use crate::fxhash::FxHashMap;
use crate::graph::Graph;
use crate::vf2::is_subgraph_iso;
use crate::VertexId;

/// Tuning knobs for [`mcs_edges`].
#[derive(Debug, Clone, Copy)]
pub struct McsOptions {
    /// Maximum number of branch decisions before the search gives up and
    /// returns the incumbent (`exact = false`).
    pub node_budget: u64,
    /// Try a VF2 containment pre-check first: when one graph is a
    /// subgraph of the other, the MCS is the smaller edge set and no
    /// search is needed. Cheap and very effective on near-duplicates.
    pub containment_precheck: bool,
}

impl Default for McsOptions {
    fn default() -> Self {
        McsOptions {
            node_budget: 500_000,
            containment_precheck: true,
        }
    }
}

/// Result of an MCS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McsOutcome {
    /// Number of edges in the best common subgraph found.
    pub edges: u32,
    /// Whether the search proved optimality (completed, or hit the
    /// capacity upper bound).
    pub exact: bool,
    /// Vertex correspondence realizing `edges`, as `(g1 vertex, g2 vertex)`.
    pub mapping: Vec<(VertexId, VertexId)>,
    /// Branch decisions taken.
    pub nodes: u64,
}

/// Computes the maximum common (edge) subgraph size of two labeled
/// graphs. See the module docs for semantics and the anytime contract.
pub fn mcs_edges(g1: &Graph, g2: &Graph, opts: &McsOptions) -> McsOutcome {
    if g1.edge_count() == 0 || g2.edge_count() == 0 {
        return McsOutcome {
            edges: 0,
            exact: true,
            mapping: Vec::new(),
            nodes: 0,
        };
    }
    if opts.containment_precheck {
        if let Some(out) = containment_shortcut(g1, g2) {
            return out;
        }
    }
    // Branch over the graph with fewer non-isolated vertices.
    let swap = active_vertices(g2) < active_vertices(g1);
    let (q, t) = if swap { (g2, g1) } else { (g1, g2) };
    let mut search = Search::new(q, t, opts.node_budget);
    search.run();
    let mapping = search
        .best_map
        .iter()
        .enumerate()
        .filter(|&(_, &tv)| tv < SKIPPED)
        .map(|(qv, &tv)| {
            if swap {
                (tv, qv as VertexId)
            } else {
                (qv as VertexId, tv)
            }
        })
        .collect();
    McsOutcome {
        edges: search.best,
        exact: search.exact,
        mapping,
        nodes: search.nodes,
    }
}

fn active_vertices(g: &Graph) -> usize {
    (0..g.vertex_count() as VertexId)
        .filter(|&v| g.degree(v) > 0)
        .count()
}

/// If one graph contains the other, the MCS is the smaller edge set.
fn containment_shortcut(g1: &Graph, g2: &Graph) -> Option<McsOutcome> {
    let make = |edges: u32| McsOutcome {
        edges,
        exact: true,
        mapping: Vec::new(),
        nodes: 0,
    };
    if g1.edge_count() <= g2.edge_count() && is_subgraph_iso(g1, g2) {
        return Some(make(g1.edge_count() as u32));
    }
    if g2.edge_count() < g1.edge_count() && is_subgraph_iso(g2, g1) {
        return Some(make(g2.edge_count() as u32));
    }
    None
}

const UNDECIDED: VertexId = VertexId::MAX;
const SKIPPED: VertexId = VertexId::MAX - 1;
/// `t_lab` entry of a t vertex not adjacent to the one being mapped.
const NO_EDGE: u64 = u64::MAX;
/// Sides of a `ge` pair.
const Q_SIDE: usize = 0;
const T_SIDE: usize = 1;

/// Edge-compatibility class: (smaller endpoint label, edge label, larger
/// endpoint label). Only edges in the same class can map to one another.
type Triple = (u32, u32, u32);

fn triple_of(g: &Graph, eid: usize) -> Triple {
    let e = g.edges()[eid];
    let (a, b) = (g.vlabel(e.u), g.vlabel(e.v));
    (a.min(b), e.label, a.max(b))
}

struct Search<'a> {
    q: &'a Graph,
    t: &'a Graph,
    /// q vertices in decision order (non-isolated only, most-connected first).
    order: Vec<VertexId>,
    /// Dense triple-class index per q edge.
    q_edge_class: Vec<u32>,
    /// Per class: q edges still matchable-or-matched.
    potential: Vec<u32>,
    /// Per class: matched pairs so far.
    matched_by_class: Vec<u32>,
    /// Per class: total t edges.
    t_total: Vec<u32>,
    /// Σ_class min(potential − matched, t_total − matched).
    class_extra: u32,
    map: Vec<VertexId>,
    used: Vec<bool>,
    /// The q vertex mapped onto each used t vertex.
    inv: Vec<VertexId>,
    q_open: Vec<u32>,
    q_anchored: Vec<u32>,
    t_open: Vec<u32>,
    /// Per q vertex: the range of `cand_pool` holding the t vertices of
    /// its label with degree > 0, ascending.
    q_cands: Vec<(u32, u32)>,
    cand_pool: Vec<VertexId>,
    /// Per vertex: `(base, cap)` of its label's thresholds in `ge`
    /// (`cap` = 0 when no vertex of the other graph can pair with it).
    q_span: Vec<(u32, u32)>,
    t_span: Vec<(u32, u32)>,
    /// `[q count, t count]` per `(label, degree threshold)`.
    ge: Vec<[u32; 2]>,
    pair_sum: u32,
    mapped_cap: u32,
    /// Candidates of every node on the current path, `(gain, open, tv)`.
    stack: Vec<(u32, u32, VertexId)>,
    /// Edges resolved by the maps on the current path: `class << 1 |
    /// matched`.
    undo: Vec<u32>,
    /// Scratch, zero between uses: per t vertex, its gain for the q
    /// vertex being branched on.
    gain_acc: Vec<u32>,
    /// Scratch, [`NO_EDGE`] between uses: per t vertex, the label of its
    /// edge to the t vertex being mapped.
    t_lab: Vec<u64>,
    matched: u32,
    best: u32,
    best_map: Vec<VertexId>,
    /// Global capacity bound Σ_class min(q_total, t_total).
    ub0: u32,
    nodes: u64,
    budget: u64,
    exact: bool,
}

impl<'a> Search<'a> {
    fn new(q: &'a Graph, t: &'a Graph, budget: u64) -> Self {
        // Dense class indexing across both graphs.
        let mut classes: FxHashMap<Triple, u32> = FxHashMap::default();
        let mut class_of = |tr: Triple, n: &mut u32| {
            *classes.entry(tr).or_insert_with(|| {
                let id = *n;
                *n += 1;
                id
            })
        };
        let mut nclasses = 0u32;
        let q_edge_class: Vec<u32> = (0..q.edge_count())
            .map(|i| class_of(triple_of(q, i), &mut nclasses))
            .collect();
        let t_classes: Vec<u32> = (0..t.edge_count())
            .map(|i| class_of(triple_of(t, i), &mut nclasses))
            .collect();
        let mut potential = vec![0u32; nclasses as usize];
        for &c in &q_edge_class {
            potential[c as usize] += 1;
        }
        let mut t_total = vec![0u32; nclasses as usize];
        for &c in &t_classes {
            t_total[c as usize] += 1;
        }
        let ub0: u32 = potential
            .iter()
            .zip(&t_total)
            .map(|(&a, &b)| a.min(b))
            .sum();

        // Candidate lists and largest degrees per label of q's
        // non-isolated vertices.
        let (nq, nt) = (q.vertex_count(), t.vertex_count());
        let mut ranges: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
        let mut spans: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
        let mut cand_pool = Vec::new();
        let mut q_cands = vec![(0, 0); nq];
        for qv in (0..nq as VertexId).filter(|&v| q.degree(v) > 0) {
            let label = q.vlabel(qv);
            q_cands[qv as usize] = *ranges.entry(label).or_insert_with(|| {
                let lo = cand_pool.len() as u32;
                cand_pool.extend(
                    (0..nt as VertexId).filter(|&tv| t.vlabel(tv) == label && t.degree(tv) > 0),
                );
                (lo, cand_pool.len() as u32)
            });
            let max_q = &mut spans.entry(label).or_default().0;
            *max_q = (*max_q).max(q.degree(qv) as u32);
        }
        for tv in 0..nt as VertexId {
            if let Some((_, max_t)) = spans.get_mut(&t.vlabel(tv)) {
                *max_t = (*max_t).max(t.degree(tv) as u32);
            }
        }
        // No vertex of the side with the smaller largest degree reaches a
        // higher threshold, so thresholds stop there.
        let mut thresholds = 0u32;
        for span in spans.values_mut() {
            let cap = span.0.min(span.1);
            *span = (thresholds, cap);
            thresholds += cap;
        }
        let span_of = |g: &Graph, v: VertexId| spans.get(&g.vlabel(v)).copied().unwrap_or((0, 0));

        let mut search = Search {
            q,
            t,
            order: decision_order(q),
            q_edge_class,
            potential,
            matched_by_class: vec![0; nclasses as usize],
            t_total,
            class_extra: ub0,
            map: vec![UNDECIDED; nq],
            used: vec![false; nt],
            inv: vec![UNDECIDED; nt],
            q_open: (0..nq as VertexId).map(|v| q.degree(v) as u32).collect(),
            q_anchored: vec![0; nq],
            t_open: (0..nt as VertexId).map(|v| t.degree(v) as u32).collect(),
            q_cands,
            cand_pool,
            q_span: (0..nq as VertexId).map(|v| span_of(q, v)).collect(),
            t_span: (0..nt as VertexId).map(|v| span_of(t, v)).collect(),
            ge: vec![[0, 0]; thresholds as usize],
            pair_sum: 0,
            mapped_cap: 0,
            stack: Vec::new(),
            undo: Vec::new(),
            gain_acc: vec![0; nt],
            t_lab: vec![NO_EDGE; nt],
            matched: 0,
            best: 0,
            best_map: vec![SKIPPED; nq],
            ub0,
            nodes: 0,
            budget,
            exact: true,
        };
        for qv in 0..nq {
            search.enter(Q_SIDE, search.q_span[qv], search.q_open[qv]);
        }
        for tv in 0..nt {
            search.enter(T_SIDE, search.t_span[tv], search.t_open[tv]);
        }
        search
    }

    fn run(&mut self) {
        self.dfs(0);
    }

    /// Upper bound on any completion: `matched + min(class capacity,
    /// structural capacity)`.
    ///
    /// * **Class capacity**: per `(labels, edge label)` class,
    ///   `min(open q edges, open t edges)` — cheap but label-blind to
    ///   structure (weak when one class dominates, e.g. C–C single
    ///   bonds in molecules).
    /// * **Structural capacity** (RASCAL-style degree matching): future
    ///   matches decompose into edges from *mapped* q vertices to
    ///   undecided ones — capped per mapped vertex by
    ///   `min(open q-degree, image's unused t-degree)` — plus edges
    ///   between two undecided vertices — capped per vertex label by
    ///   the sorted-degree pairing `Σ min(rdeg_q⁽ⁱ⁾, rdeg_t⁽ⁱ⁾)` halved
    ///   (handshake: any common subgraph's degree sum is twice its edge
    ///   count, and an injective label-respecting assignment cannot beat
    ///   the sorted pairing).
    ///
    /// Both are kept current by the decisions (see the module docs), so
    /// this is O(1).
    fn bound(&self) -> u32 {
        if self.matched + self.class_extra <= self.best {
            return self.matched + self.class_extra; // already pruned; skip the heavier bound
        }
        let struct_extra = self.mapped_cap + self.pair_sum / 2;
        self.matched + self.class_extra.min(struct_extra)
    }

    /// Returns `false` when the search should stop entirely (budget
    /// exhausted or proven optimal).
    fn dfs(&mut self, depth: usize) -> bool {
        if self.best == self.ub0 {
            return false; // provably optimal
        }
        if depth == self.order.len() {
            if self.matched > self.best {
                self.best = self.matched;
                self.best_map.copy_from_slice(&self.map);
            }
            return true;
        }
        if self.bound() <= self.best {
            return true; // cannot improve down this branch
        }
        if self.nodes >= self.budget {
            self.exact = false;
            return false;
        }
        // Dynamic branching vertex: the undecided vertex with the most
        // mapped neighbors (most anchored), ties by open degree — the
        // McSplit-style rule that concentrates matched edges early so
        // both the incumbent and the bound bite sooner.
        let qv = self.pick_vertex();

        // Candidate targets, greedy-ordered by immediate gain, then by
        // remaining capacity (helps the first descent land near the
        // optimum, which matters for the anytime contract). They sit on
        // the shared stack above this node's ancestors' candidates and
        // below its descendants', which truncate back before returning.
        let base = self.stack.len();
        self.push_candidates(qv);
        let end = self.stack.len();
        self.stack[base..end]
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));

        for i in base..end {
            let tv = self.stack[i].2;
            self.nodes += 1;
            let undo = self.apply_map(qv, tv);
            let cont = self.dfs(depth + 1);
            self.undo_map(qv, tv, undo);
            if !cont {
                self.stack.truncate(base);
                return false;
            }
        }
        self.stack.truncate(base);

        // Skip branch: leave qv unmatched.
        self.nodes += 1;
        self.apply_skip(qv);
        let cont = self.dfs(depth + 1);
        self.undo_skip(qv);
        cont
    }

    /// The next vertex to branch on: most mapped neighbors first, then
    /// most open (undecided) neighbors, then smallest id.
    fn pick_vertex(&self) -> VertexId {
        let mut best_key = (0u32, 0u32, u32::MAX);
        let mut chosen = None;
        for &qv in &self.order {
            if self.map[qv as usize] != UNDECIDED {
                continue;
            }
            let key = (
                self.q_anchored[qv as usize],
                self.q_open[qv as usize],
                u32::MAX - qv,
            );
            if chosen.is_none() || key > best_key {
                best_key = key;
                chosen = Some(qv);
            }
        }
        chosen.expect("dfs is called with an undecided vertex remaining")
    }

    /// Pushes `(gain, open, tv)` for every unused candidate of `qv`,
    /// where `gain` counts the q edges incident to `qv` that become
    /// matched if `qv → tv`: each mapped neighbour `u` of `qv` credits
    /// the t neighbours of `map[u]` joined by `u`'s edge label.
    fn push_candidates(&mut self, qv: VertexId) {
        let (q, t) = (self.q, self.t);
        for nb in q.neighbors(qv) {
            let m = self.map[nb.to as usize];
            if m < SKIPPED {
                for w in t.neighbors(m).iter().filter(|w| w.elabel == nb.elabel) {
                    self.gain_acc[w.to as usize] += 1;
                }
            }
        }
        let (lo, hi) = self.q_cands[qv as usize];
        for &tv in &self.cand_pool[lo as usize..hi as usize] {
            if !self.used[tv as usize] {
                let tvi = tv as usize;
                self.stack.push((self.gain_acc[tvi], self.t_open[tvi], tv));
            }
        }
        for nb in q.neighbors(qv) {
            let m = self.map[nb.to as usize];
            if m < SKIPPED {
                for w in t.neighbors(m) {
                    self.gain_acc[w.to as usize] = 0;
                }
            }
        }
    }

    /// Applies `qv → tv`; returns the undo-stack height to unwind to.
    fn apply_map(&mut self, qv: VertexId, tv: VertexId) -> usize {
        let (q, t) = (self.q, self.t);
        let (qi, ti) = (qv as usize, tv as usize);
        self.leave(Q_SIDE, self.q_span[qi], self.q_open[qi]);
        self.map[qi] = tv;
        self.mapped_cap += self.q_open[qi].min(self.t_open[ti]);
        self.leave(T_SIDE, self.t_span[ti], self.t_open[ti]);
        self.used[ti] = true;
        self.inv[ti] = qv;
        for nb in t.neighbors(tv) {
            self.t_close(nb.to);
            self.t_lab[nb.to as usize] = nb.elabel as u64;
        }
        let undo = self.undo.len();
        for nb in q.neighbors(qv) {
            self.q_close(nb.to);
            self.q_anchored[nb.to as usize] += 1;
            let m = self.map[nb.to as usize];
            if m >= SKIPPED {
                continue; // skipped neighbors were accounted at skip time
            }
            let class = self.q_edge_class[nb.eid as usize];
            let c = class as usize;
            if self.t_lab[m as usize] == nb.elabel as u64 {
                self.matched += 1;
                self.matched_by_class[c] += 1;
                self.class_extra -= 1;
                self.undo.push(class << 1 | 1);
            } else {
                self.lose(c);
                self.undo.push(class << 1);
            }
        }
        for nb in t.neighbors(tv) {
            self.t_lab[nb.to as usize] = NO_EDGE;
        }
        undo
    }

    fn undo_map(&mut self, qv: VertexId, tv: VertexId, undo: usize) {
        let (q, t) = (self.q, self.t);
        let (qi, ti) = (qv as usize, tv as usize);
        while self.undo.len() > undo {
            let resolved = self.undo.pop().expect("the loop condition holds an entry");
            let c = (resolved >> 1) as usize;
            if resolved & 1 == 1 {
                self.matched -= 1;
                self.matched_by_class[c] -= 1;
                self.class_extra += 1;
            } else {
                self.regain(c);
            }
        }
        for nb in q.neighbors(qv) {
            self.q_reopen(nb.to);
            self.q_anchored[nb.to as usize] -= 1;
        }
        for nb in t.neighbors(tv) {
            self.t_reopen(nb.to);
        }
        self.used[ti] = false;
        self.enter(T_SIDE, self.t_span[ti], self.t_open[ti]);
        self.mapped_cap -= self.q_open[qi].min(self.t_open[ti]);
        self.map[qi] = UNDECIDED;
        self.enter(Q_SIDE, self.q_span[qi], self.q_open[qi]);
    }

    /// Skips `qv`: every incident edge whose other endpoint is not
    /// already skipped is lost.
    fn apply_skip(&mut self, qv: VertexId) {
        let q = self.q;
        self.leave(Q_SIDE, self.q_span[qv as usize], self.q_open[qv as usize]);
        self.map[qv as usize] = SKIPPED;
        for nb in q.neighbors(qv) {
            self.q_close(nb.to);
            if self.map[nb.to as usize] != SKIPPED {
                self.lose(self.q_edge_class[nb.eid as usize] as usize);
            }
        }
    }

    fn undo_skip(&mut self, qv: VertexId) {
        let q = self.q;
        for nb in q.neighbors(qv) {
            self.q_reopen(nb.to);
            if self.map[nb.to as usize] != SKIPPED {
                self.regain(self.q_edge_class[nb.eid as usize] as usize);
            }
        }
        self.map[qv as usize] = UNDECIDED;
        self.enter(Q_SIDE, self.q_span[qv as usize], self.q_open[qv as usize]);
    }

    /// One open q edge of class `c` can no longer match: its class term
    /// `min(open q, open t)` drops when q was the smaller side.
    fn lose(&mut self, c: usize) {
        if self.potential[c] <= self.t_total[c] {
            self.class_extra -= 1;
        }
        self.potential[c] -= 1;
    }

    /// Undoes [`Self::lose`].
    fn regain(&mut self, c: usize) {
        self.potential[c] += 1;
        if self.potential[c] <= self.t_total[c] {
            self.class_extra += 1;
        }
    }

    /// A neighbour of q vertex `v` was decided.
    fn q_close(&mut self, v: VertexId) {
        let open = self.q_open[v as usize];
        self.q_open[v as usize] = open - 1;
        match self.map[v as usize] {
            UNDECIDED => self.shrink(Q_SIDE, self.q_span[v as usize], open),
            SKIPPED => {}
            m => {
                if open <= self.t_open[m as usize] {
                    self.mapped_cap -= 1;
                }
            }
        }
    }

    /// Undoes [`Self::q_close`].
    fn q_reopen(&mut self, v: VertexId) {
        let open = self.q_open[v as usize];
        self.q_open[v as usize] = open + 1;
        match self.map[v as usize] {
            UNDECIDED => self.grow(Q_SIDE, self.q_span[v as usize], open),
            SKIPPED => {}
            m => {
                if open < self.t_open[m as usize] {
                    self.mapped_cap += 1;
                }
            }
        }
    }

    /// A neighbour of t vertex `w` was used.
    fn t_close(&mut self, w: VertexId) {
        let open = self.t_open[w as usize];
        self.t_open[w as usize] = open - 1;
        if self.used[w as usize] {
            if open <= self.q_open[self.inv[w as usize] as usize] {
                self.mapped_cap -= 1;
            }
        } else {
            self.shrink(T_SIDE, self.t_span[w as usize], open);
        }
    }

    /// Undoes [`Self::t_close`].
    fn t_reopen(&mut self, w: VertexId) {
        let open = self.t_open[w as usize];
        self.t_open[w as usize] = open + 1;
        if self.used[w as usize] {
            if open < self.q_open[self.inv[w as usize] as usize] {
                self.mapped_cap += 1;
            }
        } else {
            self.grow(T_SIDE, self.t_span[w as usize], open);
        }
    }

    /// A vertex with open degree `open` joins `side`'s counts for its
    /// label.
    fn enter(&mut self, side: usize, (base, cap): (u32, u32), open: u32) {
        for i in base..base + open.min(cap) {
            self.inc(side, i as usize);
        }
    }

    /// Undoes [`Self::enter`].
    fn leave(&mut self, side: usize, (base, cap): (u32, u32), open: u32) {
        for i in base..base + open.min(cap) {
            self.dec(side, i as usize);
        }
    }

    /// A counted vertex's open degree falls from `open` to `open − 1`.
    fn shrink(&mut self, side: usize, (base, cap): (u32, u32), open: u32) {
        if open <= cap {
            self.dec(side, (base + open - 1) as usize);
        }
    }

    /// A counted vertex's open degree rises from `open` to `open + 1`.
    fn grow(&mut self, side: usize, (base, cap): (u32, u32), open: u32) {
        if open < cap {
            self.inc(side, (base + open) as usize);
        }
    }

    /// `ge[i][side] += 1`, keeping `pair_sum` = Σ min over `ge`.
    fn inc(&mut self, side: usize, i: usize) {
        let c = &mut self.ge[i];
        if c[side] < c[1 - side] {
            self.pair_sum += 1;
        }
        c[side] += 1;
    }

    /// `ge[i][side] -= 1`, keeping `pair_sum` = Σ min over `ge`.
    fn dec(&mut self, side: usize, i: usize) {
        let c = &mut self.ge[i];
        c[side] -= 1;
        if c[side] < c[1 - side] {
            self.pair_sum -= 1;
        }
    }
}

/// Non-isolated q vertices, most-connected-to-placed first (ties by
/// degree, then id), so matched edges accumulate as early as possible.
fn decision_order(q: &Graph) -> Vec<VertexId> {
    let n = q.vertex_count();
    let mut order = Vec::new();
    let mut placed = vec![false; n];
    let mut placed_nbrs = vec![0usize; n];
    loop {
        let next = (0..n)
            .filter(|&v| !placed[v] && q.degree(v as VertexId) > 0)
            .max_by_key(|&v| (placed_nbrs[v], q.degree(v as VertexId), usize::MAX - v));
        let Some(v) = next else { break };
        placed[v] = true;
        order.push(v as VertexId);
        for nb in q.neighbors(v as VertexId) {
            placed_nbrs[nb.to as usize] += 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path(labels: &[u32], elabels: &[u32]) -> Graph {
        let edges: Vec<_> = elabels
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u32, i as u32 + 1, l))
            .collect();
        Graph::from_parts(labels.to_vec(), edges).unwrap()
    }

    fn triangle(l: u32) -> Graph {
        Graph::from_parts(vec![l; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap()
    }

    /// Exhaustive reference: max edge-subset of g1 embeddable in g2.
    fn brute_force(g1: &Graph, g2: &Graph) -> u32 {
        let m = g1.edge_count();
        assert!(m <= 12, "brute force only for tiny graphs");
        let mut best = 0u32;
        for mask in 0u32..(1 << m) {
            let k = mask.count_ones();
            if k <= best {
                continue;
            }
            let eids: Vec<u32> = (0..m as u32).filter(|i| mask >> i & 1 == 1).collect();
            let sub = g1.edge_subgraph(&eids);
            if is_subgraph_iso(&sub, g2) {
                best = k;
            }
        }
        best
    }

    #[test]
    fn identical_graphs_full_mcs() {
        let g = triangle(1);
        let out = mcs_edges(&g, &g, &McsOptions::default());
        assert_eq!(out.edges, 3);
        assert!(out.exact);
    }

    #[test]
    fn containment_gives_smaller_size() {
        let p = path(&[1, 1], &[0]);
        let out = mcs_edges(&p, &triangle(1), &McsOptions::default());
        assert_eq!(out.edges, 1);
        assert!(out.exact);
    }

    #[test]
    fn triangle_vs_path_shares_two_edges() {
        let t = triangle(1);
        let p = path(&[1, 1, 1, 1], &[0, 0, 0]);
        let opts = McsOptions {
            containment_precheck: false,
            ..Default::default()
        };
        let out = mcs_edges(&t, &p, &opts);
        assert_eq!(out.edges, 2);
        assert!(out.exact);
        assert_eq!(out.edges, brute_force(&t, &p));
    }

    #[test]
    fn disjoint_labels_share_nothing() {
        let a = path(&[1, 1], &[0]);
        let b = path(&[2, 2], &[0]);
        let out = mcs_edges(&a, &b, &McsOptions::default());
        assert_eq!(out.edges, 0);
        assert!(out.exact);
    }

    #[test]
    fn edgeless_inputs() {
        let a = Graph::from_parts(vec![1, 2], []).unwrap();
        let b = triangle(1);
        assert_eq!(mcs_edges(&a, &b, &McsOptions::default()).edges, 0);
        assert_eq!(mcs_edges(&b, &a, &McsOptions::default()).edges, 0);
    }

    #[test]
    fn disconnected_common_subgraph_is_found() {
        // g1: two disjoint labeled edges (1-1:a, 2-2:b) joined via label-9
        // bridge; g2 has the same two edges far apart. The best common
        // subgraph is disconnected with 2 edges.
        let g1 = Graph::from_parts(vec![1, 1, 2, 2], [(0, 1, 0), (1, 2, 9), (2, 3, 1)]).unwrap();
        let g2 = Graph::from_parts(
            vec![1, 1, 5, 2, 2],
            [(0, 1, 0), (1, 2, 7), (2, 3, 7), (3, 4, 1)],
        )
        .unwrap();
        let opts = McsOptions {
            containment_precheck: false,
            ..Default::default()
        };
        let out = mcs_edges(&g1, &g2, &opts);
        assert_eq!(out.edges, 2);
        assert!(out.exact);
    }

    #[test]
    fn mapping_is_consistent_with_edge_count() {
        let g1 = path(&[1, 2, 1, 2], &[0, 1, 0]);
        let g2 = Graph::from_parts(
            vec![2, 1, 2, 1, 3],
            [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 2)],
        )
        .unwrap();
        let opts = McsOptions {
            containment_precheck: false,
            ..Default::default()
        };
        let out = mcs_edges(&g1, &g2, &opts);
        // Verify the returned mapping really realizes `edges` matches.
        let mut realized = 0;
        let lookup: std::collections::HashMap<u32, u32> = out.mapping.iter().copied().collect();
        for e in g1.edges() {
            if let (Some(&a), Some(&b)) = (lookup.get(&e.u), lookup.get(&e.v)) {
                if g2.edge_label(a, b) == Some(e.label) {
                    realized += 1;
                }
            }
        }
        assert_eq!(realized, out.edges);
        assert_eq!(out.edges, brute_force(&g1, &g2));
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = path(&[1, 2, 3, 1], &[0, 1, 0]);
        let b = triangle(1);
        let opts = McsOptions::default();
        assert_eq!(
            mcs_edges(&a, &b, &opts).edges,
            mcs_edges(&b, &a, &opts).edges
        );
    }

    #[test]
    fn budget_exhaustion_reports_inexact() {
        // Dense-ish unlabeled-equivalent graphs with a budget of 1.
        let g1 = Graph::from_parts(
            vec![0; 5],
            [
                (0, 1, 0),
                (1, 2, 0),
                (2, 3, 0),
                (3, 4, 0),
                (4, 0, 0),
                (0, 2, 0),
            ],
        )
        .unwrap();
        let mut g2b = g1.clone();
        g2b = g2b.permuted(&[2, 3, 4, 0, 1]);
        let opts = McsOptions {
            node_budget: 1,
            containment_precheck: false,
        };
        let out = mcs_edges(&g1, &g2b, &opts);
        assert!(!out.exact);
        assert!(out.edges <= 6);
    }

    #[test]
    fn matches_brute_force_on_labeled_mix() {
        let g1 = Graph::from_parts(
            vec![1, 2, 3, 1],
            [(0, 1, 5), (1, 2, 6), (2, 3, 5), (0, 3, 7)],
        )
        .unwrap();
        let g2 = Graph::from_parts(
            vec![3, 2, 1, 1, 2],
            [(0, 1, 6), (1, 2, 5), (2, 3, 4), (3, 4, 5)],
        )
        .unwrap();
        let opts = McsOptions {
            containment_precheck: false,
            ..Default::default()
        };
        assert_eq!(mcs_edges(&g1, &g2, &opts).edges, brute_force(&g1, &g2));
    }
}
