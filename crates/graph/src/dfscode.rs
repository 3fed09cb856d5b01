//! gSpan DFS codes and the minimum-DFS-code canonical form
//! [Yan & Han, ICDM 2002].
//!
//! A DFS code is the edge sequence of a depth-first traversal of a
//! connected graph, each edge written as `(i, j, l_i, l_ij, l_j)` over
//! DFS discovery indices. Among all DFS traversals of a graph, the
//! lexicographically smallest code (under the gSpan edge order) is the
//! **minimum DFS code** — a canonical form: two connected labeled graphs
//! are isomorphic iff their minimum DFS codes are equal.
//!
//! The miner in `gdim-mining` grows patterns by *rightmost extension* of
//! DFS codes and prunes duplicates with [`DfsCode::is_min`].

use std::cmp::Ordering;

use crate::graph::{Graph, GraphBuilder};
use crate::{ELabel, VLabel, VertexId};

/// One edge of a DFS code. Forward edges have `from < to` (discovering
/// `to`); backward edges have `from > to` (closing a cycle to an
/// ancestor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DfsEdge {
    /// DFS index of the source vertex.
    pub from: u32,
    /// DFS index of the destination vertex.
    pub to: u32,
    /// Label of the source vertex.
    pub from_label: VLabel,
    /// Label of the edge.
    pub elabel: ELabel,
    /// Label of the destination vertex.
    pub to_label: VLabel,
}

impl DfsEdge {
    /// Whether this is a forward (tree) edge.
    #[inline]
    pub fn is_forward(&self) -> bool {
        self.from < self.to
    }
}

/// gSpan edge order `≺` (DFS lexicographic order, neighborhood rules),
/// with full label tuples as tie-breakers.
pub fn edge_cmp(a: &DfsEdge, b: &DfsEdge) -> Ordering {
    let labels = |e: &DfsEdge| (e.from_label, e.elabel, e.to_label);
    match (a.is_forward(), b.is_forward()) {
        (true, true) => {
            a.to.cmp(&b.to)
                .then(b.from.cmp(&a.from)) // larger `from` is smaller
                .then(labels(a).cmp(&labels(b)))
        }
        (false, false) => a
            .from
            .cmp(&b.from)
            .then(a.to.cmp(&b.to))
            .then(labels(a).cmp(&labels(b))),
        // backward (i1, j1) ≺ forward (i2, j2) iff i1 < j2
        (false, true) => {
            if a.from < b.to {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        // forward (i1, j1) ≺ backward (i2, j2) iff j1 ≤ i2
        (true, false) => {
            if a.to <= b.from {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
    }
}

/// A DFS code: a sequence of [`DfsEdge`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DfsCode(pub Vec<DfsEdge>);

impl PartialOrd for DfsCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DfsCode {
    /// Lexicographic order under [`edge_cmp`]; a proper prefix is smaller.
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match edge_cmp(a, b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl DfsCode {
    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the code has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of vertices the code describes (max DFS index + 1).
    pub fn vertex_count(&self) -> usize {
        self.0
            .iter()
            .map(|e| e.from.max(e.to) + 1)
            .max()
            .unwrap_or(0) as usize
    }

    /// Materializes the code into a [`Graph`] (vertex ids = DFS indices).
    pub fn to_graph(&self) -> Graph {
        let n = self.vertex_count();
        let mut vlabels = vec![u32::MAX; n];
        for e in &self.0 {
            vlabels[e.from as usize] = e.from_label;
            vlabels[e.to as usize] = e.to_label;
        }
        debug_assert!(vlabels.iter().all(|&l| l != u32::MAX), "gap in DFS indices");
        let mut b = GraphBuilder::with_vertices(vlabels);
        for e in &self.0 {
            b.edge(e.from, e.to, e.elabel)
                .expect("DFS code edges are simple");
        }
        b.build()
    }

    /// DFS-code-edge indices of the rightmost path, ordered from the edge
    /// discovering the rightmost vertex back to the root (gBolt/gboost
    /// `rmpath` convention: `rmpath[0]` is the last forward edge).
    pub fn rightmost_path(&self) -> Vec<usize> {
        let mut rmpath = Vec::new();
        let mut old_from = u32::MAX;
        for (idx, e) in self.0.iter().enumerate().rev() {
            if e.is_forward() && (rmpath.is_empty() || old_from == e.to) {
                rmpath.push(idx);
                old_from = e.from;
            }
        }
        rmpath
    }

    /// Whether this code is the minimum DFS code of the graph it
    /// describes — i.e. canonical. Used by the miner to prune duplicate
    /// pattern growth paths.
    pub fn is_min(&self) -> bool {
        if self.0.len() <= 1 {
            return true;
        }
        *self == min_dfs_code(&self.to_graph())
    }
}

/// State of one embedding of the partial minimum code into the graph.
#[derive(Clone)]
struct Embedding {
    /// `vmap[dfs_index] = graph vertex`.
    vmap: Vec<VertexId>,
    /// `inv[graph vertex] = dfs index` or `u32::MAX`.
    inv: Vec<u32>,
    /// Edge-id usage bitmap.
    used: Vec<u64>,
}

impl Embedding {
    fn new(nv: usize, ne: usize) -> Self {
        Embedding {
            vmap: Vec::new(),
            inv: vec![u32::MAX; nv],
            used: vec![0u64; ne.div_ceil(64)],
        }
    }

    #[inline]
    fn edge_used(&self, eid: u32) -> bool {
        self.used[(eid / 64) as usize] >> (eid % 64) & 1 == 1
    }

    #[inline]
    fn mark_edge(&mut self, eid: u32) {
        self.used[(eid / 64) as usize] |= 1 << (eid % 64);
    }

    fn push_vertex(&mut self, gv: VertexId) {
        self.inv[gv as usize] = self.vmap.len() as u32;
        self.vmap.push(gv);
    }
}

/// Computes the minimum DFS code of a **connected** graph with at least
/// one edge, by growing the code one minimal rightmost extension at a
/// time while tracking every embedding that realizes the minimal prefix.
///
/// # Panics
/// Panics if the graph is disconnected or has no edges (the canonical
/// form of those is not defined by gSpan; see [`canonical_key`]).
pub fn min_dfs_code(g: &Graph) -> DfsCode {
    assert!(
        g.edge_count() > 0,
        "min_dfs_code requires at least one edge"
    );
    assert!(g.is_connected(), "min_dfs_code requires a connected graph");

    let ne = g.edge_count();
    let mut code = DfsCode::default();

    // Initial edge: minimal (l_u, l_e, l_v) over both orientations.
    let mut best: Option<(VLabel, ELabel, VLabel)> = None;
    for e in g.edges() {
        let (lu, lv) = (g.vlabel(e.u), g.vlabel(e.v));
        for t in [(lu, e.label, lv), (lv, e.label, lu)] {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
    }
    let (l0, el0, l1) = best.expect("graph has an edge");
    code.0.push(DfsEdge {
        from: 0,
        to: 1,
        from_label: l0,
        elabel: el0,
        to_label: l1,
    });

    let mut embs: Vec<Embedding> = Vec::new();
    for (eid, e) in g.edges().iter().enumerate() {
        let (lu, lv) = (g.vlabel(e.u), g.vlabel(e.v));
        for (a, b, la, lb) in [(e.u, e.v, lu, lv), (e.v, e.u, lv, lu)] {
            if (la, e.label, lb) == (l0, el0, l1) {
                let mut emb = Embedding::new(g.vertex_count(), ne);
                emb.push_vertex(a);
                emb.push_vertex(b);
                emb.mark_edge(eid as u32);
                embs.push(emb);
            }
        }
    }

    while code.len() < ne {
        let (edge, next) = min_extension(g, &code, &embs)
            .expect("connected graph always admits a rightmost extension");
        code.0.push(edge);
        embs = next;
    }
    code
}

/// The minimal rightmost extension of `code` over all `embs`, together
/// with the embeddings realizing it.
fn min_extension(
    g: &Graph,
    code: &DfsCode,
    embs: &[Embedding],
) -> Option<(DfsEdge, Vec<Embedding>)> {
    let rmpath = code.rightmost_path();
    let max_idx = code.vertex_count() as u32 - 1;

    // --- Backward extensions: (max_idx -> ancestor), smallest ancestor
    // first; every backward extension precedes every forward one.
    // Walk rmpath from the root side (largest rmpath position).
    for &pos in rmpath.iter().rev().take(rmpath.len().saturating_sub(1)) {
        let tree = code.0[pos]; // forward edge out of the ancestor
        let anc_idx = tree.from;
        let mut best_el: Option<ELabel> = None;
        let mut winners: Vec<Embedding> = Vec::new();
        for emb in embs {
            let rm_v = emb.vmap[max_idx as usize];
            let anc_v = emb.vmap[anc_idx as usize];
            for nb in g.neighbors(rm_v) {
                if nb.to != anc_v || emb.edge_used(nb.eid) {
                    continue;
                }
                // DFS validity / minimality condition vs the tree edge
                // out of the ancestor (gboost `get_backward`).
                let ok = nb.elabel > tree.elabel
                    || (nb.elabel == tree.elabel && g.vlabel(rm_v) >= tree.to_label);
                if !ok {
                    continue;
                }
                match best_el {
                    Some(b) if nb.elabel > b => {}
                    Some(b) if nb.elabel == b => {
                        let mut e2 = emb.clone();
                        e2.mark_edge(nb.eid);
                        winners.push(e2);
                    }
                    _ => {
                        best_el = Some(nb.elabel);
                        winners.clear();
                        let mut e2 = emb.clone();
                        e2.mark_edge(nb.eid);
                        winners.push(e2);
                    }
                }
            }
        }
        if let Some(el) = best_el {
            let edge = DfsEdge {
                from: max_idx,
                to: anc_idx,
                from_label: g.vlabel(winners[0].vmap[max_idx as usize]),
                elabel: el,
                to_label: g.vlabel(winners[0].vmap[anc_idx as usize]),
            };
            return Some((edge, winners));
        }
    }

    // --- Forward extensions: from the rightmost vertex first, then from
    // rmpath ancestors walking toward the root (larger `from` index is
    // smaller in the edge order).
    // Pure forward from the rightmost vertex:
    if let Some(result) = forward_from(g, embs, max_idx, max_idx, None) {
        return Some(result);
    }
    for &pos in rmpath.iter() {
        let tree = code.0[pos];
        if let Some(result) = forward_from(g, embs, tree.from, max_idx, Some(tree)) {
            return Some(result);
        }
    }
    None
}

/// Minimal forward extension out of DFS vertex `from_idx`, if any.
/// `tree` is the rmpath tree edge out of that vertex (None for the
/// rightmost vertex itself), enforcing the gboost ordering condition.
fn forward_from(
    g: &Graph,
    embs: &[Embedding],
    from_idx: u32,
    max_idx: u32,
    tree: Option<DfsEdge>,
) -> Option<(DfsEdge, Vec<Embedding>)> {
    let mut best: Option<(ELabel, VLabel)> = None;
    let mut winners: Vec<Embedding> = Vec::new();
    for emb in embs {
        let src_v = emb.vmap[from_idx as usize];
        for nb in g.neighbors(src_v) {
            if emb.inv[nb.to as usize] != u32::MAX || emb.edge_used(nb.eid) {
                continue;
            }
            let to_label = g.vlabel(nb.to);
            if let Some(t) = tree {
                let ok = nb.elabel > t.elabel || (nb.elabel == t.elabel && to_label >= t.to_label);
                if !ok {
                    continue;
                }
            }
            let key = (nb.elabel, to_label);
            match best {
                Some(b) if key > b => {}
                Some(b) if key == b => {
                    let mut e2 = emb.clone();
                    e2.push_vertex(nb.to);
                    e2.mark_edge(nb.eid);
                    winners.push(e2);
                }
                _ => {
                    best = Some(key);
                    winners.clear();
                    let mut e2 = emb.clone();
                    e2.push_vertex(nb.to);
                    e2.mark_edge(nb.eid);
                    winners.push(e2);
                }
            }
        }
    }
    best.map(|(el, tl)| {
        let edge = DfsEdge {
            from: from_idx,
            to: max_idx + 1,
            from_label: g.vlabel(winners[0].vmap[from_idx as usize]),
            elabel: el,
            to_label: tl,
        };
        (edge, winners)
    })
}

/// A canonical key for **any** graph (possibly disconnected or edgeless):
/// the multiset of per-component minimum DFS codes plus isolated-vertex
/// labels, flattened into a comparable vector. Equal keys ⇔ isomorphic
/// graphs.
pub fn canonical_key(g: &Graph) -> Vec<u64> {
    let mut component_codes: Vec<Vec<u64>> = Vec::new();
    let mut isolated: Vec<VLabel> = Vec::new();
    for comp in g.connected_components() {
        if comp.len() == 1 && g.degree(comp[0]) == 0 {
            isolated.push(g.vlabel(comp[0]));
            continue;
        }
        // Extract the component as its own graph.
        let eids: Vec<u32> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| comp.binary_search(&e.u).is_ok())
            .map(|(i, _)| i as u32)
            .collect();
        let sub = g.edge_subgraph(&eids);
        let code = min_dfs_code(&sub);
        let flat: Vec<u64> = code
            .0
            .iter()
            .flat_map(|e| {
                [
                    e.from as u64,
                    e.to as u64,
                    e.from_label as u64,
                    e.elabel as u64,
                    e.to_label as u64,
                ]
            })
            .collect();
        component_codes.push(flat);
    }
    isolated.sort_unstable();
    component_codes.sort();
    let mut out = Vec::new();
    out.push(isolated.len() as u64);
    out.extend(isolated.iter().map(|&l| l as u64));
    for c in component_codes {
        out.push(u64::MAX); // component separator
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::are_isomorphic;

    fn path(labels: &[u32], elabels: &[u32]) -> Graph {
        let edges: Vec<_> = elabels
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u32, i as u32 + 1, l))
            .collect();
        Graph::from_parts(labels.to_vec(), edges).unwrap()
    }

    #[test]
    fn single_edge_min_code_orients_by_labels() {
        let g = Graph::from_parts(vec![5, 2], [(0, 1, 7)]).unwrap();
        let code = min_dfs_code(&g);
        assert_eq!(code.len(), 1);
        let e = code.0[0];
        assert_eq!((e.from, e.to), (0, 1));
        assert_eq!((e.from_label, e.elabel, e.to_label), (2, 7, 5));
    }

    #[test]
    fn min_code_invariant_under_permutation() {
        let g = Graph::from_parts(
            vec![1, 2, 1, 3],
            [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1), (0, 2, 2)],
        )
        .unwrap();
        let base = min_dfs_code(&g);
        for perm in [
            vec![1, 2, 3, 0],
            vec![3, 2, 1, 0],
            vec![2, 0, 3, 1],
            vec![0, 3, 1, 2],
        ] {
            let p = g.permuted(&perm);
            assert_eq!(min_dfs_code(&p), base, "perm {perm:?}");
        }
    }

    #[test]
    fn min_codes_distinguish_non_isomorphic() {
        // Triangle vs path with same label multiset.
        let tri = Graph::from_parts(vec![1; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap();
        let p = path(&[1, 1, 1], &[0, 0]);
        assert_ne!(min_dfs_code(&tri), DfsCode(min_dfs_code(&p).0.clone()));
    }

    #[test]
    fn code_graph_roundtrip_is_isomorphic() {
        let g = Graph::from_parts(
            vec![4, 4, 2, 9],
            [(0, 1, 1), (1, 2, 2), (2, 0, 1), (2, 3, 3)],
        )
        .unwrap();
        let code = min_dfs_code(&g);
        let back = code.to_graph();
        assert!(are_isomorphic(&g, &back));
        // The min code of the rebuilt graph is the same code (idempotent).
        assert_eq!(min_dfs_code(&back), code);
    }

    #[test]
    fn is_min_accepts_canonical_and_rejects_other() {
        let g = path(&[1, 2, 3], &[0, 0]);
        let code = min_dfs_code(&g);
        assert!(code.is_min());
        // A valid but non-minimal DFS code of the same path: start at the
        // wrong end (from_label 3 instead of 1).
        let bad = DfsCode(vec![
            DfsEdge {
                from: 0,
                to: 1,
                from_label: 3,
                elabel: 0,
                to_label: 2,
            },
            DfsEdge {
                from: 1,
                to: 2,
                from_label: 2,
                elabel: 0,
                to_label: 1,
            },
        ]);
        assert!(!bad.is_min());
    }

    #[test]
    fn rightmost_path_of_a_path_graph() {
        let g = path(&[1, 1, 1, 1], &[0, 0, 0]);
        let code = min_dfs_code(&g);
        // Path graph: rightmost path covers every forward edge.
        let rm = code.rightmost_path();
        assert_eq!(rm, vec![2, 1, 0]);
    }

    #[test]
    fn edge_cmp_rules() {
        let f = |from, to| DfsEdge {
            from,
            to,
            from_label: 0,
            elabel: 0,
            to_label: 0,
        };
        // Both forward, same `to`: larger `from` is smaller.
        assert_eq!(edge_cmp(&f(2, 3), &f(1, 3)), Ordering::Less);
        // Both backward: smaller `from` first, then smaller `to`.
        assert_eq!(edge_cmp(&f(2, 0), &f(3, 0)), Ordering::Less);
        assert_eq!(edge_cmp(&f(3, 0), &f(3, 1)), Ordering::Less);
        // Backward (i,j) precedes forward (i', j') iff i < j'.
        assert_eq!(edge_cmp(&f(2, 0), &f(2, 3)), Ordering::Less);
        assert_eq!(edge_cmp(&f(3, 1), &f(2, 3)), Ordering::Greater);
        // Forward (i,j) precedes backward (i',j') iff j ≤ i'.
        assert_eq!(edge_cmp(&f(2, 3), &f(3, 0)), Ordering::Less);
        assert_eq!(edge_cmp(&f(2, 3), &f(2, 0)), Ordering::Greater);
    }

    #[test]
    fn canonical_key_handles_disconnected_and_isolated() {
        let a = Graph::from_parts(vec![1, 1, 7], [(0, 1, 3)]).unwrap();
        let b = Graph::from_parts(vec![7, 1, 1], [(1, 2, 3)]).unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
        let c = Graph::from_parts(vec![7, 1, 2], [(1, 2, 3)]).unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }

    #[test]
    fn min_code_triangle_with_distinct_edge_labels() {
        // Regression for backward-edge ordering: all rotations of a
        // labeled triangle must canonicalize identically.
        let base = Graph::from_parts(vec![0, 0, 0], [(0, 1, 0), (1, 2, 1), (0, 2, 2)]).unwrap();
        let code = min_dfs_code(&base);
        for perm in [vec![1, 2, 0], vec![2, 0, 1], vec![1, 0, 2]] {
            assert_eq!(min_dfs_code(&base.permuted(&perm)), code);
        }
        // 3 edges: 2 forward + 1 backward.
        assert_eq!(code.len(), 3);
        assert!(!code.0[2].is_forward());
    }
}
