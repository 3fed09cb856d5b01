//! Anatomy of the selected dimensions: what DSPM actually picks, how
//! correlated the dimensions are (Fig. 2's measure), and an empirical
//! check of the structure-preserving bound of Theorem 4.3
//! (`|d(y_q', y_g) − d(y_q, y_g)| ≤ √(t/p)` for `q' ⊆ q`).
//!
//! ```sh
//! cargo run --release --example feature_anatomy
//! ```

use gdim::core::correlation_score;
use gdim::datagen::connected_edge_subgraph;
use gdim::prelude::*;

fn main() {
    let db = gdim::datagen::chem_db(150, &gdim::datagen::ChemConfig::default(), 11);
    let features = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.05)).with_max_edges(5),
    );
    let space = FeatureSpace::build(db.len(), features);
    let delta = DeltaMatrix::compute(&db, &DeltaConfig::default());
    let p = 60;
    let res = dspm(&space, &delta, &DspmConfig::new(p));

    println!("top 10 dimensions by DSPM weight:");
    println!(
        "{:>4} {:>8} {:>9} {:>8}  structure",
        "rank", "weight", "|sup(f)|", "|E(f)|"
    );
    for (rank, &r) in res.selected.iter().take(10).enumerate() {
        let f = &space.features()[r as usize];
        let atoms: Vec<&str> = f
            .graph
            .vlabels()
            .iter()
            .map(|&l| gdim::datagen::chem::ATOM_SYMBOLS[l as usize])
            .collect();
        println!(
            "{:>4} {:>8.4} {:>9} {:>8}  {}",
            rank + 1,
            res.weights[r as usize],
            f.support_count(),
            f.graph.edge_count(),
            atoms.join("-"),
        );
    }

    let sample = gdim::baselines::sample_select(&space, p, 3);
    println!("\ncorrelation score (sum of pairwise support Jaccard, lower = more diverse):");
    println!("  DSPM:   {:.1}", correlation_score(&space, &res.selected));
    println!("  Sample: {:.1}", correlation_score(&space, &sample));

    // Theorem 4.3, empirically: map q and a random subgraph q' ⊆ q;
    // their distances to any database vector differ by at most √(t/p)
    // where t = |F(q)| − |F(q')|.
    let mapped = MappedDatabase::new(&space, &res.selected).expect("selection in range");
    let queries = gdim::datagen::chem_db(20, &gdim::datagen::ChemConfig::default(), 99);
    let mut checked = 0usize;
    let mut worst_slack = f64::INFINITY;
    for (qi, q) in queries.iter().enumerate() {
        let q_sub = connected_edge_subgraph(q, 0.7, qi as u64);
        let yq = mapped.map_query(q);
        let yq_sub = mapped.map_query(&q_sub);
        let t = (yq.count_ones() as i64 - yq_sub.count_ones() as i64).unsigned_abs() as f64;
        let bound = (t / mapped.p() as f64).sqrt();
        for g in 0..db.len() {
            let d_full = mapped.distance_to(&yq, g);
            let d_sub = mapped.distance_to(&yq_sub, g);
            let gap = (d_full - d_sub).abs();
            assert!(
                gap <= bound + 1e-9,
                "Theorem 4.3 violated: gap {gap} > bound {bound}"
            );
            worst_slack = worst_slack.min(bound - gap);
            checked += 1;
        }
    }
    println!(
        "\nTheorem 4.3 check: {checked} (query, graph) pairs within the √(t/p) bound \
         (tightest slack {worst_slack:.4})"
    );
}
