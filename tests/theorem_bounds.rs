//! Property tests for the paper's theory (§4.1): Lemma 4.1, Theorems
//! 4.1–4.3 and the corollaries' building blocks, validated on random
//! labeled graphs with the exact MCS engine.

use proptest::prelude::*;

use gdim::graph::mcs::{mcs_edges, McsOptions};
use gdim::graph::{Dissimilarity, Graph, GraphBuilder};

/// Random connected labeled graph (small enough for exact MCS).
fn graph(max_n: usize, extra: usize, vl: u32, el: u32) -> impl Strategy<Value = Graph> {
    (2..=max_n, 0..=extra).prop_flat_map(move |(n, ex)| {
        let vlabels = proptest::collection::vec(0..vl, n);
        let tree = proptest::collection::vec((any::<prop::sample::Index>(), 0..el), n - 1);
        let extras = proptest::collection::vec(
            (
                any::<prop::sample::Index>(),
                any::<prop::sample::Index>(),
                0..el,
            ),
            ex,
        );
        (vlabels, tree, extras).prop_map(move |(vlabels, tree, extras)| {
            let mut b = GraphBuilder::with_vertices(vlabels);
            for (i, (parent, elb)) in tree.into_iter().enumerate() {
                let _ = b.edge(parent.index(i + 1) as u32, (i + 1) as u32, elb);
            }
            for (iu, iv, elb) in extras {
                let (u, v) = (iu.index(n) as u32, iv.index(n) as u32);
                if u != v && !b.has_edge(u, v) {
                    let _ = b.edge(u, v, elb);
                }
            }
            b.build()
        })
    })
}

fn exact_mcs(a: &Graph, b: &Graph) -> u32 {
    let out = mcs_edges(a, b, &McsOptions::default());
    assert!(out.exact, "graphs small enough for exact search");
    out.edges
}

/// Random edge-subgraph q' ⊆ q with at least one edge.
fn subgraph_of(q: &Graph, mask: u64) -> Graph {
    let m = q.edge_count() as u32;
    let mut eids: Vec<u32> = (0..m).filter(|i| mask >> (i % 64) & 1 == 1).collect();
    if eids.is_empty() {
        eids.push((mask % m as u64) as u32);
    }
    q.edge_subgraph(&eids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 4.1: 0 ≤ |E(mcs(q,g))| − |E(mcs(q',g))| ≤ |E(q)| − |E(q')|.
    #[test]
    fn lemma_4_1_mcs_difference_bound(
        q in graph(6, 2, 2, 2),
        g in graph(6, 2, 2, 2),
        mask in any::<u64>(),
    ) {
        let q_sub = subgraph_of(&q, mask);
        let big = exact_mcs(&q, &g) as i64;
        let small = exact_mcs(&q_sub, &g) as i64;
        let xi = big - small;
        prop_assert!(xi >= 0, "ξ = {xi} negative");
        let size_gap = q.edge_count() as i64 - q_sub.edge_count() as i64;
        prop_assert!(xi <= size_gap, "ξ = {xi} > |E(q)|−|E(q')| = {size_gap}");
    }

    /// Theorem 4.1: α − ε1l ≤ δ1(q', g) ≤ α + ε1r.
    #[test]
    fn theorem_4_1_delta1_bounds(
        q in graph(6, 2, 2, 2),
        g in graph(6, 2, 2, 2),
        mask in any::<u64>(),
    ) {
        let q_sub = subgraph_of(&q, mask);
        let (eq, eg, eqs) = (
            q.edge_count() as f64,
            g.edge_count() as f64,
            q_sub.edge_count() as f64,
        );
        let alpha = Dissimilarity::MaxNorm.eval(&q, &g, exact_mcs(&q, &g));
        let d_sub = Dissimilarity::MaxNorm.eval(&q_sub, &g, exact_mcs(&q_sub, &g));
        let min_sg = eqs.min(eg);
        let eps_l = (eq - min_sg) / min_sg * (1.0 - alpha);
        let eps_r = (eq - eqs) / eg;
        prop_assert!(
            d_sub >= alpha - eps_l - 1e-9,
            "δ1(q',g) = {d_sub} < α − ε1l = {}",
            alpha - eps_l
        );
        prop_assert!(
            d_sub <= alpha + eps_r + 1e-9,
            "δ1(q',g) = {d_sub} > α + ε1r = {}",
            alpha + eps_r
        );
    }

    /// Theorem 4.2: α − (1−α)ε2 ≤ δ2(q', g) ≤ α + (1+α)ε2.
    #[test]
    fn theorem_4_2_delta2_bounds(
        q in graph(6, 2, 2, 2),
        g in graph(6, 2, 2, 2),
        mask in any::<u64>(),
    ) {
        let q_sub = subgraph_of(&q, mask);
        let (eq, eg, eqs) = (
            q.edge_count() as f64,
            g.edge_count() as f64,
            q_sub.edge_count() as f64,
        );
        let alpha = Dissimilarity::AvgNorm.eval(&q, &g, exact_mcs(&q, &g));
        let d_sub = Dissimilarity::AvgNorm.eval(&q_sub, &g, exact_mcs(&q_sub, &g));
        let eps2 = (eq - eqs) / (eqs + eg);
        prop_assert!(d_sub >= alpha - (1.0 - alpha) * eps2 - 1e-9);
        prop_assert!(d_sub <= alpha + (1.0 + alpha) * eps2 + 1e-9);
    }
}

/// Theorem 4.3 on a real mapped space: for q' ⊆ q,
/// |d(y_q', y_g) − d(y_q, y_g)| ≤ √(t/p) with t = |F(q)| − |F(q')|.
#[test]
fn theorem_4_3_mapped_distance_bound() {
    use gdim::prelude::*;
    let db = gdim::datagen::chem_db(40, &gdim::datagen::ChemConfig::default(), 5);
    let features = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.15)).with_max_edges(4),
    );
    let space = FeatureSpace::build(db.len(), features);
    let selected: Vec<u32> = (0..space.num_features() as u32).collect();
    let mapped = MappedDatabase::new(&space, &selected).expect("selection in range");
    let p = mapped.p() as f64;

    let queries = gdim::datagen::chem_db(10, &gdim::datagen::ChemConfig::default(), 100);
    for (qi, q) in queries.iter().enumerate() {
        let q_sub = gdim::datagen::connected_edge_subgraph(q, 0.6, qi as u64);
        let yq = mapped.map_query(q);
        let yq_sub = mapped.map_query(&q_sub);
        // Anti-monotonicity: F(q') ⊆ F(q).
        for bit in yq_sub.iter_ones() {
            assert!(yq.get(bit), "feature of q' missing from q");
        }
        let t = (yq.count_ones() - yq_sub.count_ones()) as f64;
        let bound = (t / p).sqrt();
        for g in 0..db.len() {
            let gap = (mapped.distance_to(&yq, g) - mapped.distance_to(&yq_sub, g)).abs();
            assert!(
                gap <= bound + 1e-9,
                "query {qi}, graph {g}: gap {gap} > √(t/p) = {bound}"
            );
        }
    }
}
