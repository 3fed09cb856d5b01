//! The MCS search visits exactly the tree of the reference search it
//! replaced (`crates/graph/tests/mcs_reference/`) on the generated
//! databases δ matrices are filled from: the same `(edges, exact,
//! nodes, mapping)` for every pair at every budget, with and without
//! the containment pre-check. Most chem pairs stop at the matrix budget,
//! so δ itself depends on the order nodes are visited in; the pinned
//! totals below are the reference search's, counted to the integer.

#[path = "../crates/graph/tests/mcs_reference/mod.rs"]
mod mcs_reference;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use gdim::core::DeltaConfig;
use gdim::datagen::{chem_db, synth_db, ChemConfig, SynthConfig};
use gdim::graph::{mcs_edges, Graph, McsOptions};

const BUDGETS: [u64; 4] = [1, 64, 1_024, 16_384];

fn same_tree(g1: &Graph, g2: &Graph) -> Result<(), TestCaseError> {
    for node_budget in BUDGETS {
        for containment_precheck in [false, true] {
            let opts = McsOptions {
                node_budget,
                containment_precheck,
            };
            prop_assert_eq!(
                mcs_edges(g1, g2, &opts),
                mcs_reference::mcs_edges(g1, g2, &opts)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chem_pairs_search_the_reference_tree(seed in any::<u64>()) {
        let db = chem_db(2, &ChemConfig::default(), seed);
        same_tree(&db[0], &db[1])?;
    }

    #[test]
    fn synth_pairs_search_the_reference_tree(
        seed in any::<u64>(),
        avg_edges in 6.0f64..24.0,
        density in 0.15f64..0.5,
        num_vlabels in 1u32..6,
        num_elabels in 1u32..3,
    ) {
        let cfg = SynthConfig { avg_edges, density, num_vlabels, num_elabels };
        let db = synth_db(2, &cfg, seed);
        same_tree(&db[0], &db[1])?;
    }
}

/// The 120 pairs of `chem_db(16, .., 42)` in `DeltaMatrix` orientation
/// at the matrix budget: every pair as the reference, and the totals
/// pinned — 82 pairs stop at the budget, so one node more or fewer
/// anywhere changes δ.
#[test]
fn chem_matrix_fill_totals_are_pinned() {
    let db = chem_db(16, &ChemConfig::default(), 42);
    let opts = DeltaConfig::default().mcs;
    let (mut nodes, mut edges, mut inexact) = (0u64, 0u64, 0usize);
    for i in 0..db.len() {
        for j in i + 1..db.len() {
            let out = mcs_edges(&db[i], &db[j], &opts);
            assert_eq!(
                out,
                mcs_reference::mcs_edges(&db[i], &db[j], &opts),
                "pair ({i}, {j})"
            );
            nodes += out.nodes;
            edges += out.edges as u64;
            inexact += usize::from(!out.exact);
        }
    }
    assert_eq!((nodes, edges, inexact), (1_553_978, 787, 82));
}
