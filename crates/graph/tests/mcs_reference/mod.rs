//! The MCS branch and bound this crate shipped before its search kept
//! incremental state, kept verbatim as the reference the proptests
//! compare [`gdim_graph::mcs_edges`] against: same decision order, same
//! candidate order, same bound, same budget accounting — so the two
//! must return the same `(edges, exact, nodes, mapping)` on every input.
//! Like `vf2_reference`, it lives under `tests/` because integration
//! tests link the library without `cfg(test)`, and it uses only the
//! public `Graph` API; `tests/mcs_search_tree.rs` at the workspace root
//! includes it by path to run it over the generated chem and synth
//! databases.

use gdim_graph::fxhash::FxHashMap;
use gdim_graph::vf2::is_subgraph_iso;
use gdim_graph::{Graph, McsOptions, McsOutcome, VertexId};

/// Reference [`gdim_graph::mcs_edges`].
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
    potential: Vec<i32>,
    /// Per class: matched pairs so far.
    matched_by_class: Vec<i32>,
    /// Per class: total t edges.
    t_total: Vec<i32>,
    map: Vec<VertexId>,
    used: Vec<bool>,
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
        let mut potential = vec![0i32; nclasses as usize];
        for &c in &q_edge_class {
            potential[c as usize] += 1;
        }
        let mut t_total = vec![0i32; nclasses as usize];
        for &c in &t_classes {
            t_total[c as usize] += 1;
        }
        let ub0: u32 = potential
            .iter()
            .zip(&t_total)
            .map(|(&a, &b)| a.min(b) as u32)
            .sum();
        let order = decision_order(q);
        Search {
            q,
            t,
            order,
            q_edge_class,
            potential,
            matched_by_class: vec![0; nclasses as usize],
            t_total,
            map: vec![UNDECIDED; q.vertex_count()],
            used: vec![false; t.vertex_count()],
            matched: 0,
            best: 0,
            best_map: vec![SKIPPED; q.vertex_count()],
            ub0,
            nodes: 0,
            budget,
            exact: true,
        }
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
    fn bound(&self) -> u32 {
        let mut class_extra = 0i32;
        for c in 0..self.potential.len() {
            let open_q = self.potential[c] - self.matched_by_class[c];
            let open_t = self.t_total[c] - self.matched_by_class[c];
            class_extra += open_q.min(open_t);
        }
        let class_extra = class_extra.max(0) as u32;
        if self.matched + class_extra <= self.best {
            return self.matched + class_extra; // already pruned; skip the heavier bound
        }
        let struct_extra = self.structural_capacity();
        self.matched + class_extra.min(struct_extra)
    }

    fn structural_capacity(&self) -> u32 {
        // (a) mapped -> undecided edges.
        let mut mapped_cap = 0u32;
        // (b) undecided-undecided degree lists, per vertex label.
        let mut q_degs: Vec<(u32, u32)> = Vec::new(); // (label, open degree)
        for (qv, &tv) in self.map.iter().enumerate() {
            match tv {
                UNDECIDED => {
                    let open = self
                        .q
                        .neighbors(qv as VertexId)
                        .iter()
                        .filter(|nb| self.map[nb.to as usize] == UNDECIDED)
                        .count() as u32;
                    if open > 0 {
                        q_degs.push((self.q.vlabel(qv as VertexId), open));
                    }
                }
                SKIPPED => {}
                _ => {
                    let q_open = self
                        .q
                        .neighbors(qv as VertexId)
                        .iter()
                        .filter(|nb| self.map[nb.to as usize] == UNDECIDED)
                        .count() as u32;
                    if q_open == 0 {
                        continue;
                    }
                    let t_open = self
                        .t
                        .neighbors(tv)
                        .iter()
                        .filter(|nb| !self.used[nb.to as usize])
                        .count() as u32;
                    mapped_cap += q_open.min(t_open);
                }
            }
        }
        let mut t_degs: Vec<(u32, u32)> = Vec::new();
        for tv in 0..self.t.vertex_count() {
            if self.used[tv] {
                continue;
            }
            let open = self
                .t
                .neighbors(tv as VertexId)
                .iter()
                .filter(|nb| !self.used[nb.to as usize])
                .count() as u32;
            if open > 0 {
                t_degs.push((self.t.vlabel(tv as VertexId), open));
            }
        }
        // Sorted-pairing per label: descending degree within each label.
        q_degs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        t_degs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut pair_sum = 0u32;
        let (mut i, mut j) = (0usize, 0usize);
        while i < q_degs.len() && j < t_degs.len() {
            match q_degs[i].0.cmp(&t_degs[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let label = q_degs[i].0;
                    while i < q_degs.len()
                        && j < t_degs.len()
                        && q_degs[i].0 == label
                        && t_degs[j].0 == label
                    {
                        pair_sum += q_degs[i].1.min(t_degs[j].1);
                        i += 1;
                        j += 1;
                    }
                    while i < q_degs.len() && q_degs[i].0 == label {
                        i += 1;
                    }
                    while j < t_degs.len() && t_degs[j].0 == label {
                        j += 1;
                    }
                }
            }
        }
        mapped_cap + pair_sum / 2
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
        let ql = self.q.vlabel(qv);

        // Candidate targets, greedy-ordered by immediate gain, then by
        // remaining capacity (helps the first descent land near the
        // optimum, which matters for the anytime contract).
        let mut cands: Vec<(u32, u32, VertexId)> = Vec::new();
        for tv in 0..self.t.vertex_count() as VertexId {
            if self.used[tv as usize] || self.t.vlabel(tv) != ql || self.t.degree(tv) == 0 {
                continue;
            }
            let open = self
                .t
                .neighbors(tv)
                .iter()
                .filter(|nb| !self.used[nb.to as usize])
                .count() as u32;
            cands.push((self.gain(qv, tv), open, tv));
        }
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));

        for (_, _, tv) in cands {
            self.nodes += 1;
            let undo = self.apply_map(qv, tv);
            let cont = self.dfs(depth + 1);
            self.undo_map(qv, tv, undo);
            if !cont {
                return false;
            }
        }

        // Skip branch: leave qv unmatched.
        self.nodes += 1;
        let undo = self.apply_skip(qv);
        let cont = self.dfs(depth + 1);
        self.undo_skip(qv, undo);
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
            let mut anchored = 0u32;
            let mut open = 0u32;
            for nb in self.q.neighbors(qv) {
                match self.map[nb.to as usize] {
                    UNDECIDED => open += 1,
                    SKIPPED => {}
                    _ => anchored += 1,
                }
            }
            let key = (anchored, open, u32::MAX - qv);
            if chosen.is_none() || key > best_key {
                best_key = key;
                chosen = Some(qv);
            }
        }
        chosen.expect("dfs is called with an undecided vertex remaining")
    }

    /// Number of q edges incident to `qv` that become matched if
    /// `qv → tv`.
    fn gain(&self, qv: VertexId, tv: VertexId) -> u32 {
        let mut g = 0;
        for nb in self.q.neighbors(qv) {
            let m = self.map[nb.to as usize];
            if m < SKIPPED && self.t.edge_label(m, tv) == Some(nb.elabel) {
                g += 1;
            }
        }
        g
    }

    /// Applies `qv → tv`; returns per-edge outcome deltas for undo as
    /// (eid, matched) pairs for resolved edges.
    fn apply_map(&mut self, qv: VertexId, tv: VertexId) -> Vec<(u32, bool)> {
        self.map[qv as usize] = tv;
        self.used[tv as usize] = true;
        let mut resolved = Vec::new();
        for nb in self.q.neighbors(qv).to_vec() {
            let m = self.map[nb.to as usize];
            if m == UNDECIDED || m == SKIPPED {
                continue; // skipped neighbors were accounted at skip time
            }
            let class = self.q_edge_class[nb.eid as usize] as usize;
            if self.t.edge_label(m, tv) == Some(nb.elabel) {
                self.matched += 1;
                self.matched_by_class[class] += 1;
                resolved.push((nb.eid, true));
            } else {
                self.potential[class] -= 1;
                resolved.push((nb.eid, false));
            }
        }
        resolved
    }

    fn undo_map(&mut self, qv: VertexId, tv: VertexId, resolved: Vec<(u32, bool)>) {
        for (eid, was_match) in resolved {
            let class = self.q_edge_class[eid as usize] as usize;
            if was_match {
                self.matched -= 1;
                self.matched_by_class[class] -= 1;
            } else {
                self.potential[class] += 1;
            }
        }
        self.used[tv as usize] = false;
        self.map[qv as usize] = UNDECIDED;
    }

    /// Skips `qv`: every incident edge whose other endpoint is not
    /// already skipped is lost.
    fn apply_skip(&mut self, qv: VertexId) -> Vec<u32> {
        self.map[qv as usize] = SKIPPED;
        let mut lost = Vec::new();
        for nb in self.q.neighbors(qv) {
            if self.map[nb.to as usize] != SKIPPED {
                let class = self.q_edge_class[nb.eid as usize] as usize;
                self.potential[class] -= 1;
                lost.push(nb.eid);
            }
        }
        lost
    }

    fn undo_skip(&mut self, qv: VertexId, lost: Vec<u32>) {
        for eid in lost {
            self.potential[self.q_edge_class[eid as usize] as usize] += 1;
        }
        self.map[qv as usize] = UNDECIDED;
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
