//! Property-based tests for the graph substrate: canonical-form
//! invariance, MCS correctness against brute force (and the search
//! against the reference it replaced), VF2 soundness and completeness
//! (and the compiled matcher against the reference it replaced), and
//! dissimilarity axioms.

mod mcs_reference;
mod vf2_reference;

use proptest::prelude::*;

use gdim_graph::dfscode::min_dfs_code;
use gdim_graph::mcs::{mcs_edges, McsOptions};
use gdim_graph::vf2::{
    count_embeddings, embeddings, find_embedding, is_subgraph_iso, Pattern, Scratch,
};
use gdim_graph::{delta, Dissimilarity, Graph};

/// Strategy: a random connected labeled graph with `n` vertices,
/// `extra` non-tree edges, `vl` vertex labels and `el` edge labels.
fn connected_graph(
    max_n: usize,
    max_extra: usize,
    vl: u32,
    el: u32,
) -> impl Strategy<Value = Graph> {
    (2..=max_n, 0..=max_extra).prop_flat_map(move |(n, extra)| {
        let vlabels = proptest::collection::vec(0..vl, n);
        // Tree edge i connects vertex i+1 to a random earlier vertex.
        let tree = proptest::collection::vec((any::<prop::sample::Index>(), 0..el), n - 1);
        let extras = proptest::collection::vec(
            (
                any::<prop::sample::Index>(),
                any::<prop::sample::Index>(),
                0..el,
            ),
            extra,
        );
        (vlabels, tree, extras).prop_map(move |(vlabels, tree, extras)| {
            let mut b = gdim_graph::GraphBuilder::with_vertices(vlabels);
            for (i, (parent, elabel)) in tree.into_iter().enumerate() {
                let child = (i + 1) as u32;
                let p = parent.index(i + 1) as u32;
                let _ = b.edge(p, child, elabel);
            }
            for (iu, iv, elabel) in extras {
                let u = iu.index(n) as u32;
                let v = iv.index(n) as u32;
                if u != v && !b.has_edge(u, v) {
                    let _ = b.edge(u, v, elabel);
                }
            }
            b.build()
        })
    })
}

/// Strategy: any simple labeled graph on `0..=max_n` vertices — empty,
/// edgeless, disconnected or dense — from `attempts` random edge draws
/// (self-loops and repeats are dropped).
fn any_graph(max_n: usize, attempts: usize, vl: u32, el: u32) -> impl Strategy<Value = Graph> {
    (0..=max_n).prop_flat_map(move |n| {
        let vlabels = proptest::collection::vec(0..vl, n);
        let draws = proptest::collection::vec(
            (
                any::<prop::sample::Index>(),
                any::<prop::sample::Index>(),
                0..el,
            ),
            0..=attempts,
        );
        (vlabels, draws).prop_map(move |(vlabels, draws)| {
            let mut b = gdim_graph::GraphBuilder::with_vertices(vlabels);
            for (iu, iv, elabel) in draws {
                if n >= 2 {
                    let _ = b.edge(iu.index(n) as u32, iv.index(n) as u32, elabel);
                }
            }
            b.build()
        })
    })
}

/// Brute-force MCS: the largest edge subset of `g1` embeddable in `g2`.
fn brute_force_mcs(g1: &Graph, g2: &Graph) -> u32 {
    let m = g1.edge_count();
    let mut best = 0u32;
    for mask in 0u32..(1 << m) {
        let k = mask.count_ones();
        if k <= best {
            continue;
        }
        let eids: Vec<u32> = (0..m as u32).filter(|i| mask >> i & 1 == 1).collect();
        if is_subgraph_iso(&g1.edge_subgraph(&eids), g2) {
            best = k;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn min_dfs_code_is_permutation_invariant(
        g in connected_graph(7, 3, 3, 2),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..g.vertex_count() as u32).collect();
        perm.shuffle(&mut rng);
        let permuted = g.permuted(&perm);
        prop_assert_eq!(min_dfs_code(&g), min_dfs_code(&permuted));
    }

    #[test]
    fn min_dfs_code_roundtrip_idempotent(g in connected_graph(7, 3, 3, 2)) {
        let code = min_dfs_code(&g);
        prop_assert_eq!(code.len(), g.edge_count());
        let rebuilt = code.to_graph();
        prop_assert_eq!(min_dfs_code(&rebuilt), code);
    }

    #[test]
    fn mcs_matches_brute_force(
        g1 in connected_graph(5, 2, 2, 2),
        g2 in connected_graph(5, 2, 2, 2),
    ) {
        prop_assume!(g1.edge_count() <= 8);
        let opts = McsOptions { containment_precheck: false, ..Default::default() };
        let out = mcs_edges(&g1, &g2, &opts);
        prop_assert!(out.exact);
        prop_assert_eq!(out.edges, brute_force_mcs(&g1, &g2));
    }

    #[test]
    fn mcs_is_symmetric_and_bounded(
        g1 in connected_graph(6, 2, 2, 2),
        g2 in connected_graph(6, 2, 2, 2),
    ) {
        let opts = McsOptions::default();
        let a = mcs_edges(&g1, &g2, &opts);
        let b = mcs_edges(&g2, &g1, &opts);
        prop_assert_eq!(a.edges, b.edges);
        prop_assert!(a.edges as usize <= g1.edge_count().min(g2.edge_count()));
    }

    #[test]
    fn mcs_search_tree_equals_reference(
        // Isolated vertices, disconnected and dense graphs, and labels
        // only one side carries reach every branch of the bookkeeping.
        g1 in any_graph(9, 20, 3, 2),
        g2 in any_graph(10, 24, 3, 2),
    ) {
        for node_budget in [1, 64, 1_024, 16_384] {
            for containment_precheck in [false, true] {
                let opts = McsOptions { node_budget, containment_precheck };
                prop_assert_eq!(
                    mcs_edges(&g1, &g2, &opts),
                    mcs_reference::mcs_edges(&g1, &g2, &opts)
                );
            }
        }
    }

    #[test]
    fn delta_axioms(
        g1 in connected_graph(6, 2, 2, 2),
        g2 in connected_graph(6, 2, 2, 2),
    ) {
        let opts = McsOptions::default();
        for kind in [Dissimilarity::MaxNorm, Dissimilarity::AvgNorm] {
            let d = delta(kind, &g1, &g2, &opts);
            prop_assert!((0.0..=1.0).contains(&d));
            prop_assert_eq!(d, delta(kind, &g2, &g1, &opts));
            prop_assert_eq!(delta(kind, &g1, &g1, &opts), 0.0);
        }
    }

    #[test]
    fn vf2_embeddings_are_valid(
        g in connected_graph(6, 3, 2, 2),
        t in connected_graph(7, 4, 2, 2),
    ) {
        for m in embeddings(&g, &t, 16) {
            // Injective.
            let mut s = m.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), m.len());
            // Label- and edge-preserving.
            for (pv, &tv) in m.iter().enumerate() {
                prop_assert_eq!(g.vlabel(pv as u32), t.vlabel(tv));
            }
            for e in g.edges() {
                prop_assert_eq!(
                    t.edge_label(m[e.u as usize], m[e.v as usize]),
                    Some(e.label)
                );
            }
        }
    }

    #[test]
    fn compiled_vf2_equals_reference_matcher(
        // Few labels so they repeat; patterns up to target size + 2 so
        // "larger than the target" is drawn too.
        p in any_graph(6, 8, 2, 2),
        t in any_graph(8, 14, 2, 2),
        cap in 0usize..40,
    ) {
        prop_assert_eq!(is_subgraph_iso(&p, &t), vf2_reference::is_subgraph_iso(&p, &t));
        // Same embeddings in the same enumeration order.
        prop_assert_eq!(embeddings(&p, &t, cap), vf2_reference::embeddings(&p, &t, cap));
        prop_assert_eq!(count_embeddings(&p, &t, cap), embeddings(&p, &t, cap).len());
        prop_assert_eq!(find_embedding(&p, &t), vf2_reference::embeddings(&p, &t, 1).pop());
    }

    #[test]
    fn one_scratch_serves_many_patterns_and_targets(
        patterns in proptest::collection::vec(any_graph(5, 6, 2, 2), 1..6),
        targets in proptest::collection::vec(any_graph(8, 14, 2, 2), 1..4),
    ) {
        let plans: Vec<Pattern> = patterns.iter().map(Pattern::new).collect();
        let mut scratch = Scratch::default();
        // Twice over the targets: the second pass runs on buffers every
        // earlier (pattern, target) pair has already used.
        for t in targets.iter().chain(&targets) {
            let mut target = scratch.target(t);
            for (plan, p) in plans.iter().zip(&patterns) {
                prop_assert_eq!(plan.is_in(&mut target), vf2_reference::is_subgraph_iso(p, t));
            }
        }
    }

    #[test]
    fn vf2_finds_planted_subgraph(
        g in connected_graph(7, 3, 2, 2),
        mask in any::<u32>(),
    ) {
        // Any edge-subgraph of g must embed back into g.
        let m = g.edge_count() as u32;
        let eids: Vec<u32> = (0..m).filter(|i| mask >> (i % 32) & 1 == 1).collect();
        prop_assume!(!eids.is_empty());
        let sub = g.edge_subgraph(&eids);
        prop_assert!(is_subgraph_iso(&sub, &g));
        // And the MCS with g is the whole subgraph.
        let out = mcs_edges(&sub, &g, &McsOptions::default());
        prop_assert_eq!(out.edges as usize, sub.edge_count());
    }

    #[test]
    fn io_roundtrip(g in connected_graph(8, 4, 4, 3)) {
        let db = vec![g];
        let text = gdim_graph::io::write_db(&db);
        let back = gdim_graph::io::parse_db(&text).unwrap();
        prop_assert_eq!(db, back);
    }
}
