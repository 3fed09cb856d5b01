//! The [`Graph`] type: a simple undirected labeled graph `g = (V, E, l)`
//! as defined in §2 of the paper, plus the [`GraphBuilder`] used to
//! construct one while enforcing the type's invariants.
//!
//! Invariants held by every constructed [`Graph`]:
//!
//! * vertices are dense ids `0..vertex_count()`;
//! * no self-loops, no parallel edges (simple graph);
//! * adjacency lists are sorted by `(neighbor, edge label)` so neighbor
//!   scans and containment checks are deterministic.

use std::fmt;

use crate::{ELabel, VLabel, VertexId};

/// An undirected labeled edge. Stored with `u < v` once built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Edge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// Edge label.
    pub label: ELabel,
}

/// Entry of an adjacency list: the neighbor reached over one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Neighbor {
    /// Neighboring vertex.
    pub to: VertexId,
    /// Label of the connecting edge.
    pub elabel: ELabel,
    /// Index of the edge in [`Graph::edges`].
    pub eid: u32,
}

/// Errors raised while building a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex id that was never added.
    UnknownVertex(VertexId),
    /// An edge connected a vertex to itself.
    SelfLoop(VertexId),
    /// The same unordered vertex pair was given two edges.
    ParallelEdge(VertexId, VertexId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "edge references unknown vertex {v}"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v}"),
            GraphError::ParallelEdge(u, v) => write!(f, "parallel edge between {u} and {v}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected labeled graph.
///
/// Construction goes through [`GraphBuilder`] (or [`Graph::from_parts`]),
/// after which the graph is immutable — graphs in a database are shared
/// read-only across threads.
#[derive(Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Graph {
    vlabels: Vec<VLabel>,
    edges: Vec<Edge>,
    adj: Vec<Vec<Neighbor>>,
}

impl Graph {
    /// Builds a graph from vertex labels and an edge list.
    ///
    /// Equivalent to pushing everything through a [`GraphBuilder`].
    pub fn from_parts(
        vlabels: Vec<VLabel>,
        edges: impl IntoIterator<Item = (VertexId, VertexId, ELabel)>,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::with_vertices(vlabels);
        for (u, v, l) in edges {
            b.edge(u, v, l)?;
        }
        Ok(b.build())
    }

    /// Number of vertices `|V(g)|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of edges `|E(g)|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn vlabel(&self, v: VertexId) -> VLabel {
        self.vlabels[v as usize]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn vlabels(&self) -> &[VLabel] {
        &self.vlabels
    }

    /// All edges, each stored with `u < v`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of `v`, sorted by `(to, elabel)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Neighbor] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Label of the edge between `u` and `v`, if present.
    pub fn edge_label(&self, u: VertexId, v: VertexId) -> Option<ELabel> {
        // Scan the smaller adjacency list; degrees are tiny in this domain.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize]
            .iter()
            .find(|n| n.to == b)
            .map(|n| n.elabel)
    }

    /// Whether an edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_label(u, v).is_some()
    }

    /// Density `2|E| / (|V|(|V|−1))`, the measure used by the GraphGen
    /// workloads in §6 (0 for graphs with fewer than two vertices).
    pub fn density(&self) -> f64 {
        let n = self.vertex_count() as f64;
        if n < 2.0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / (n * (n - 1.0))
        }
    }

    /// Connected components as vertex-id lists (each sorted ascending).
    pub fn connected_components(&self) -> Vec<Vec<VertexId>> {
        let n = self.vertex_count();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            stack.push(start as VertexId);
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(v);
                for nb in self.neighbors(v) {
                    if !seen[nb.to as usize] {
                        seen[nb.to as usize] = true;
                        stack.push(nb.to);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.vertex_count() <= 1 || self.connected_components().len() == 1
    }

    /// Histogram of vertex labels as `(label, count)` sorted by label.
    pub fn vlabel_counts(&self) -> Vec<(VLabel, u32)> {
        counts(self.vlabels.iter().copied())
    }

    /// Histogram of edge labels as `(label, count)` sorted by label.
    pub fn elabel_counts(&self) -> Vec<(ELabel, u32)> {
        counts(self.edges.iter().map(|e| e.label))
    }

    /// The subgraph induced by keeping only the listed edges (by index),
    /// dropping vertices that become isolated. Vertex ids are compacted.
    ///
    /// Used by tests and by theorem-bound property checks, where a random
    /// sub-workload `q′ ⊆ q` is needed.
    pub fn edge_subgraph(&self, edge_ids: &[u32]) -> Graph {
        let mut keep = vec![u32::MAX; self.vertex_count()];
        let mut vlabels = Vec::new();
        let mut edges = Vec::new();
        for &eid in edge_ids {
            let e = self.edges[eid as usize];
            for w in [e.u, e.v] {
                if keep[w as usize] == u32::MAX {
                    keep[w as usize] = vlabels.len() as u32;
                    vlabels.push(self.vlabels[w as usize]);
                }
            }
            edges.push((keep[e.u as usize], keep[e.v as usize], e.label));
        }
        Graph::from_parts(vlabels, edges).expect("subgraph of a valid graph is valid")
    }

    /// Relabels vertices by the permutation `perm` (vertex `v` becomes
    /// `perm[v]`), producing an isomorphic graph. Used by canonical-form
    /// invariance tests.
    pub fn permuted(&self, perm: &[VertexId]) -> Graph {
        assert_eq!(perm.len(), self.vertex_count());
        let mut vlabels = vec![0; self.vertex_count()];
        for (v, &p) in perm.iter().enumerate() {
            vlabels[p as usize] = self.vlabels[v];
        }
        let edges = self
            .edges
            .iter()
            .map(|e| (perm[e.u as usize], perm[e.v as usize], e.label));
        Graph::from_parts(vlabels, edges).expect("permutation preserves validity")
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(|V|={}, |E|={}, v={:?}, e={:?})",
            self.vertex_count(),
            self.edge_count(),
            self.vlabels,
            self.edges
                .iter()
                .map(|e| (e.u, e.v, e.label))
                .collect::<Vec<_>>()
        )
    }
}

fn counts(items: impl Iterator<Item = u32>) -> Vec<(u32, u32)> {
    let mut v: Vec<u32> = items.collect();
    v.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for x in v {
        match out.last_mut() {
            Some((l, c)) if *l == x => *c += 1,
            _ => out.push((x, 1)),
        }
    }
    out
}

/// Incremental builder enforcing the [`Graph`] invariants.
#[derive(Default, Clone)]
pub struct GraphBuilder {
    vlabels: Vec<VLabel>,
    edges: Vec<Edge>,
    /// `nbrs[v]` = vertices joined to `v` so far, so the parallel-edge
    /// check costs O(min degree), not a scan of every earlier edge —
    /// builders also decode graphs that arrive over the network.
    nbrs: Vec<Vec<VertexId>>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder pre-seeded with vertices carrying the given labels.
    pub fn with_vertices(vlabels: Vec<VLabel>) -> Self {
        Self {
            nbrs: vec![Vec::new(); vlabels.len()],
            vlabels,
            edges: Vec::new(),
        }
    }

    /// Adds a vertex and returns its id.
    pub fn vertex(&mut self, label: VLabel) -> VertexId {
        self.vlabels.push(label);
        self.nbrs.push(Vec::new());
        (self.vlabels.len() - 1) as VertexId
    }

    /// Adds an undirected edge. Fails on unknown endpoints, self-loops and
    /// duplicate (parallel) edges.
    pub fn edge(&mut self, u: VertexId, v: VertexId, label: ELabel) -> Result<(), GraphError> {
        let n = self.vlabels.len() as u32;
        if u >= n {
            return Err(GraphError::UnknownVertex(u));
        }
        if v >= n {
            return Err(GraphError::UnknownVertex(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if self.has_edge(a, b) {
            return Err(GraphError::ParallelEdge(a, b));
        }
        self.edges.push(Edge { u: a, v: b, label });
        self.nbrs[a as usize].push(b);
        self.nbrs[b as usize].push(a);
        Ok(())
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the unordered pair `{u, v}` already has an edge (`false`
    /// for vertices never added).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.nbrs.get(a as usize).is_some_and(|n| n.contains(&b))
    }

    /// Current degree of `v` (0 for a vertex never added).
    pub fn degree(&self, v: VertexId) -> usize {
        self.nbrs.get(v as usize).map_or(0, Vec::len)
    }

    /// Finalizes into an immutable [`Graph`] with sorted adjacency.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable_by_key(|e| (e.u, e.v));
        let mut adj: Vec<Vec<Neighbor>> = vec![Vec::new(); self.vlabels.len()];
        for (eid, e) in self.edges.iter().enumerate() {
            adj[e.u as usize].push(Neighbor {
                to: e.v,
                elabel: e.label,
                eid: eid as u32,
            });
            adj[e.v as usize].push(Neighbor {
                to: e.u,
                elabel: e.label,
                eid: eid as u32,
            });
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|n| (n.to, n.elabel));
        }
        Graph {
            vlabels: self.vlabels,
            edges: self.edges,
            adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph a-b-c with labels.
    fn path3() -> Graph {
        Graph::from_parts(vec![0, 1, 2], [(0, 1, 10), (1, 2, 20)]).unwrap()
    }

    #[test]
    fn build_and_query() {
        let g = path3();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.vlabel(1), 1);
        assert_eq!(g.edge_label(0, 1), Some(10));
        assert_eq!(g.edge_label(1, 0), Some(10));
        assert_eq!(g.edge_label(0, 2), None);
        assert!(g.has_edge(2, 1));
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::with_vertices(vec![0, 0]);
        assert_eq!(b.edge(1, 1, 0), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_parallel_edges_both_orientations() {
        let mut b = GraphBuilder::with_vertices(vec![0, 0]);
        b.edge(0, 1, 5).unwrap();
        assert_eq!(b.edge(1, 0, 7), Err(GraphError::ParallelEdge(0, 1)));
    }

    #[test]
    fn builder_tracks_edges_and_degrees_as_it_goes() {
        let mut b = GraphBuilder::with_vertices(vec![0; 3]);
        let late = b.vertex(7);
        b.edge(0, 1, 0).unwrap();
        b.edge(late, 0, 0).unwrap();
        assert!(b.has_edge(1, 0) && b.has_edge(0, late));
        assert!(!b.has_edge(1, 2) && !b.has_edge(0, 99) && !b.has_edge(99, 0));
        assert_eq!((b.degree(0), b.degree(2), b.degree(99)), (2, 0, 0));
        assert_eq!(b.edge(0, late, 4), Err(GraphError::ParallelEdge(0, late)));
        assert_eq!(b.edge_count(), 2);
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = GraphBuilder::with_vertices(vec![0]);
        assert_eq!(b.edge(0, 3, 1), Err(GraphError::UnknownVertex(3)));
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = Graph::from_parts(vec![0; 4], [(3, 0, 1), (2, 0, 2), (1, 0, 3)]).unwrap();
        let tos: Vec<_> = g.neighbors(0).iter().map(|n| n.to).collect();
        assert_eq!(tos, vec![1, 2, 3]);
        for nb in g.neighbors(0) {
            assert!(g.neighbors(nb.to).iter().any(|m| m.to == 0));
        }
    }

    #[test]
    fn density_matches_definition() {
        let g = path3();
        assert!((g.density() - 2.0 * 2.0 / (3.0 * 2.0)).abs() < 1e-12);
        let single = Graph::from_parts(vec![7], []).unwrap();
        assert_eq!(single.density(), 0.0);
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::from_parts(vec![0, 0, 0, 0], [(0, 1, 0), (2, 3, 0)]).unwrap();
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
        assert!(!g.is_connected());
        assert!(path3().is_connected());
        assert!(Graph::from_parts(vec![], []).unwrap().is_connected());
    }

    #[test]
    fn label_histograms() {
        let g = Graph::from_parts(vec![5, 5, 9], [(0, 1, 2), (1, 2, 2)]).unwrap();
        assert_eq!(g.vlabel_counts(), vec![(5, 2), (9, 1)]);
        assert_eq!(g.elabel_counts(), vec![(2, 2)]);
    }

    #[test]
    fn edge_subgraph_compacts_vertices() {
        let g = path3();
        let sub = g.edge_subgraph(&[1]); // edge (1,2,20)
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(sub.edges()[0].label, 20);
        let labels: Vec<_> = sub.vlabels().to_vec();
        assert_eq!(labels, vec![1, 2]);
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = path3();
        let p = g.permuted(&[2, 0, 1]);
        assert_eq!(p.vertex_count(), 3);
        assert_eq!(p.edge_count(), 2);
        // vertex 0 (label 0) went to id 2.
        assert_eq!(p.vlabel(2), 0);
        assert_eq!(p.edge_label(2, 0), Some(10)); // old (0,1)
        assert_eq!(p.edge_label(0, 1), Some(20)); // old (1,2)
    }
}
