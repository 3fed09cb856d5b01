//! Cross-crate consistency tests: text-format round trips through the
//! whole stack, fingerprint/fragment-vocabulary synchronization, and
//! the mining → feature-space contract.

use gdim::core::fingerprint::{fingerprint, FRAGMENT_BIT_RANGE};
use gdim::graph::io;
use gdim::prelude::*;

#[test]
fn generated_databases_roundtrip_through_text_format() {
    let chem = gdim::datagen::chem_db(30, &gdim::datagen::ChemConfig::default(), 3);
    let synth = gdim::datagen::synth_db(30, &gdim::datagen::SynthConfig::default(), 3);
    for db in [chem, synth] {
        let text = io::write_db(&db);
        let back = io::parse_db(&text).expect("own output parses");
        assert_eq!(db, back);
    }
}

#[test]
fn mining_results_survive_serialization() {
    // Mining the parsed copy must give identical features and supports.
    let db = gdim::datagen::chem_db(25, &gdim::datagen::ChemConfig::default(), 5);
    let back = io::parse_db(&io::write_db(&db)).unwrap();
    let cfg = MinerConfig::new(Support::Relative(0.2)).with_max_edges(3);
    let a = mine(&db, &cfg);
    let b = mine(&back, &cfg);
    assert_eq!(a.len(), b.len());
    for (fa, fb) in a.iter().zip(&b) {
        assert_eq!(fa.code, fb.code);
        assert_eq!(fa.support, fb.support);
    }
}

#[test]
fn fingerprint_fragment_vocabulary_matches_datagen_dictionary() {
    // Each dictionary fragment must set its own fragment bit — this is
    // the contract between gdim-core's fingerprint (which inlines the
    // vocabulary to avoid a dependency cycle) and gdim-datagen.
    let dict = gdim::datagen::fragment_dictionary();
    assert_eq!(
        dict.len(),
        FRAGMENT_BIT_RANGE.len(),
        "fragment vocabulary size drifted from the fingerprint layout"
    );
    for (i, frag) in dict.iter().enumerate() {
        let bits = fingerprint(frag);
        assert!(
            bits.get(FRAGMENT_BIT_RANGE.start + i),
            "fragment {i} does not set its own fingerprint bit"
        );
    }
}

#[test]
fn features_support_lists_match_vf2_ground_truth() {
    // gSpan support lists (used as IF inverted lists without re-testing)
    // must equal brute-force VF2 containment.
    let db = gdim::datagen::chem_db(20, &gdim::datagen::ChemConfig::default(), 29);
    let features = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.2)).with_max_edges(3),
    );
    for f in &features {
        let brute: Vec<u32> = db
            .iter()
            .enumerate()
            .filter(|(_, g)| gdim::graph::vf2::is_subgraph_iso(&f.graph, g))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(f.support, brute, "support mismatch for {:?}", f.graph);
    }
}

#[test]
fn delta_matrix_and_shared_delta_agree() {
    let db = gdim::datagen::chem_db(15, &gdim::datagen::ChemConfig::default(), 31);
    let cfg = DeltaConfig::default();
    let full = DeltaMatrix::compute(&db, &cfg);
    let shared = gdim::core::SharedDelta::new(&db, cfg);
    let ids: Vec<u32> = (0..db.len() as u32).collect();
    let sub = shared.submatrix(&ids);
    for i in 0..db.len() {
        for j in 0..db.len() {
            assert_eq!(full.get(i, j), sub.get(i, j), "({i},{j})");
        }
    }
}
