//! The paper's two MCS-based graph dissimilarities:
//!
//! * δ1 (Eq. 1, Bunke & Shearer): `1 − |E(mcs)| / max{|E(q)|, |E(g)|}` —
//!   normalized by the **larger** graph, emphasizing the gap between the
//!   common subgraph and the larger graph.
//! * δ2 (Eq. 2, Zhu et al. EDBT'12): `1 − 2|E(mcs)| / (|E(q)| + |E(g)|)`
//!   — normalized by the **average** size, emphasizing the gap to both.
//!
//! Both are symmetric and range over `[0, 1]`. The experiments in §6 use
//! δ2 (results for δ1 were reported as similar).

use crate::graph::Graph;
use crate::mcs::{mcs_edges, McsOptions};

/// Which of the paper's dissimilarities to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Dissimilarity {
    /// δ1: normalized by `max{|E(q)|, |E(g)|}` (Eq. 1).
    MaxNorm,
    /// δ2: normalized by `(|E(q)| + |E(g)|) / 2` (Eq. 2) — the default,
    /// matching the experimental setup of §6.
    #[default]
    AvgNorm,
}

impl Dissimilarity {
    /// Evaluates the dissimilarity given a precomputed `|E(mcs(g1, g2))|`.
    ///
    /// Degenerate sizes follow the natural limits: two edgeless graphs
    /// are identical under an edge-based measure (δ = 0); an edgeless
    /// graph vs a non-empty one is maximally dissimilar (δ = 1).
    pub fn eval(self, g1: &Graph, g2: &Graph, mcs_size: u32) -> f64 {
        let e1 = g1.edge_count() as f64;
        let e2 = g2.edge_count() as f64;
        if e1 == 0.0 && e2 == 0.0 {
            return 0.0;
        }
        let m = mcs_size as f64;
        let v = match self {
            Dissimilarity::MaxNorm => 1.0 - m / e1.max(e2),
            Dissimilarity::AvgNorm => 1.0 - 2.0 * m / (e1 + e2),
        };
        v.clamp(0.0, 1.0)
    }
}

/// Computes δ(g1, g2), running the MCS search internally.
pub fn delta(kind: Dissimilarity, g1: &Graph, g2: &Graph, opts: &McsOptions) -> f64 {
    let out = mcs_edges(g1, g2, opts);
    kind.eval(g1, g2, out.edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1, 0)).collect();
        Graph::from_parts(vec![1; n], edges).unwrap()
    }

    #[test]
    fn identical_graphs_have_zero_delta() {
        let g = path(5);
        let opts = McsOptions::default();
        assert_eq!(delta(Dissimilarity::MaxNorm, &g, &g, &opts), 0.0);
        assert_eq!(delta(Dissimilarity::AvgNorm, &g, &g, &opts), 0.0);
    }

    #[test]
    fn label_disjoint_graphs_have_delta_one() {
        let a = path(3);
        let b = Graph::from_parts(vec![9, 9, 9], [(0, 1, 4), (1, 2, 4)]).unwrap();
        let opts = McsOptions::default();
        assert_eq!(delta(Dissimilarity::MaxNorm, &a, &b, &opts), 1.0);
        assert_eq!(delta(Dissimilarity::AvgNorm, &a, &b, &opts), 1.0);
    }

    #[test]
    fn subgraph_relation_values_match_formulas() {
        // q = path(3) (2 edges) inside g = path(5) (4 edges): mcs = 2.
        let q = path(3);
        let g = path(5);
        let opts = McsOptions::default();
        let d1 = delta(Dissimilarity::MaxNorm, &q, &g, &opts);
        let d2 = delta(Dissimilarity::AvgNorm, &q, &g, &opts);
        assert!((d1 - (1.0 - 2.0 / 4.0)).abs() < 1e-12);
        assert!((d2 - (1.0 - 4.0 / 6.0)).abs() < 1e-12);
        // δ1 ≥ δ2 is not generally true; here max-norm penalizes more.
        assert!(d1 > d2);
    }

    #[test]
    fn degenerate_edgeless_cases() {
        let empty = Graph::from_parts(vec![1], []).unwrap();
        let g = path(3);
        let opts = McsOptions::default();
        assert_eq!(delta(Dissimilarity::AvgNorm, &empty, &empty, &opts), 0.0);
        assert_eq!(delta(Dissimilarity::AvgNorm, &empty, &g, &opts), 1.0);
        assert_eq!(delta(Dissimilarity::MaxNorm, &g, &empty, &opts), 1.0);
    }

    #[test]
    fn symmetry() {
        let a = path(4);
        let b = Graph::from_parts(vec![1, 1, 1], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap();
        let opts = McsOptions::default();
        for kind in [Dissimilarity::MaxNorm, Dissimilarity::AvgNorm] {
            assert_eq!(delta(kind, &a, &b, &opts), delta(kind, &b, &a, &opts));
        }
    }
}
