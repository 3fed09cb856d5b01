//! The work guard of the code-tree mapper: a query the fixed DFS-code
//! order cannot handle (a star with thousands of equal leaves — the
//! two-edge prefix alone has n² embeddings) is handed to per-feature
//! VF2 once the step budget is spent, answers exactly, and shows up in
//! `gdim_map_fallback_total`; ordinary chem traffic never gets there.
//! The counter is process-wide, so this is one test in its own binary.

use std::time::Instant;

use gdim::core::featurespace::STEPS_PER_SIZE;
use gdim::datagen::{chem_db, connected_edge_subgraph, ChemConfig};
use gdim::prelude::*;

fn fallbacks() -> u64 {
    gdim::obs::global()
        .counter("gdim_map_fallback_total", "", &[])
        .get()
}

#[test]
fn a_huge_star_falls_back_to_vf2_and_chem_traffic_never_does() {
    // The end-to-end benchmark's fixtures at a smaller scale: the same
    // generator, seeds and query-pool recipe (`benchmark/src/gen.rs`).
    let base = chem_db(48, &ChemConfig::default(), 42);
    let bulk = chem_db(400, &ChemConfig::default(), 42 ^ 0x6275_6c6b);
    let fresh = chem_db(128, &ChemConfig::default(), 42 ^ 0x6672_6573);
    let pool: Vec<Graph> = (0..256)
        .map(|i| {
            if i % 2 == 0 {
                let at = (i / 2) * (base.len() + bulk.len()) / 128;
                let g = base.get(at).unwrap_or_else(|| &bulk[at - base.len()]);
                connected_edge_subgraph(g, 0.8, 42 ^ i as u64)
            } else {
                fresh[i / 2].clone()
            }
        })
        .collect();
    let index = GraphIndex::build(
        base.clone(),
        IndexOptions::default()
            .with_dimensions(128)
            .with_strategy(SelectionStrategy::Dspm),
    );

    // Chem queries and inserts stay a factor of four inside the budget.
    let mut worst = 0.0f64;
    for q in pool.iter().chain(&bulk).chain(&base) {
        let (_, stats) = index.map_query_with_stats(q);
        worst = worst.max(stats.extensions as f64 / (q.vertex_count() + q.edge_count()) as f64);
    }
    assert!(
        4.0 * worst <= STEPS_PER_SIZE as f64,
        "{worst:.1} steps per unit of size"
    );
    assert_eq!(fallbacks(), 0, "no chem graph may reach the guard");

    // A 20,000-leaf star over the labels of the most frequent one-edge
    // dimension (the most rows in its store column). Unguarded, the
    // tree search needs ~20 s for it.
    let store = index.mapped().store();
    let column = |c: usize| (0..store.len()).filter(|&i| store.vector(i).get(c)).count();
    let col = (0..index.p())
        .filter(|&c| index.mapped().codes()[c].len() == 1)
        .max_by_key(|&c| column(c))
        .expect("a one-edge dimension is selected");
    let edge = index.mapped().codes()[col].0[0];
    let (centre, leaf, bond) = (edge.from_label, edge.to_label, edge.elabel);
    let n = 20_000u32;
    let labels = std::iter::once(centre).chain((0..n).map(|_| leaf));
    let star = Graph::from_parts(labels.collect(), (1..=n).map(|i| (0, i, bond))).unwrap();
    let reference = index.mapped().map_query_unpruned(&star);
    let t = Instant::now();
    let (bits, stats) = index.map_query_with_stats(&star);
    let took = t.elapsed();
    assert_eq!(bits, reference);
    assert!(bits.count_ones() > 0);
    assert_eq!(stats.vf2_calls + stats.vf2_pruned, index.p());
    assert_eq!(fallbacks(), 1, "the star must cross the step budget");
    assert!(took.as_secs_f64() < 1.0, "guarded mapping took {took:?}");

    // The same through an online insert (the same tree), and the
    // guard leaves the thread's scratch fit for ordinary queries.
    let mut grown = index.clone();
    let id = grown.insert(star);
    assert_eq!(grown.mapped().vector(id.index()), reference);
    assert_eq!(fallbacks(), 2);
    for q in pool.iter().take(16) {
        assert_eq!(index.map_query(q), index.mapped().map_query_unpruned(q));
    }
    assert_eq!(fallbacks(), 2);
}
