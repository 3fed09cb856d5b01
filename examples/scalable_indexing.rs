//! Scalable indexing with DSPMap (§5.2): build dimensions for a larger
//! database without ever materializing the quadratic dissimilarity
//! matrix, then verify the selection quality against plain DSPM.
//!
//! ```sh
//! cargo run --release --example scalable_indexing
//! ```

use std::time::Instant;

use gdim::core::{dspmap, DspmapConfig, SharedDelta};
use gdim::prelude::*;

fn main() {
    let n = 400;
    let p = 80;
    let db = gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), 33);
    let features = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.05)).with_max_edges(4),
    );
    let space = FeatureSpace::build(db.len(), features);
    println!(
        "database: {n} graphs, {} candidate features",
        space.num_features()
    );

    // DSPMap with b = n/20, as in the paper's scalability experiment.
    let b = n / 20;
    let t = Instant::now();
    let sdelta = SharedDelta::new(&db, DeltaConfig::default());
    let cfg = DspmapConfig::new(p).with_partition_size(b).with_seed(1);
    let res = dspmap(&space, &sdelta, &cfg);
    let dspmap_time = t.elapsed();

    let all_pairs = n * (n - 1) / 2;
    println!("\nDSPMap (b = {b}):");
    println!("  partitions:        {}", res.partitions.len());
    println!("  inner DSPM calls:  {}", res.dspm_calls);
    println!(
        "  δ pairs computed:  {} of {} ({:.1}%)",
        sdelta.computed_pairs(),
        all_pairs,
        100.0 * sdelta.computed_pairs() as f64 / all_pairs as f64
    );
    println!("  indexing time:     {dspmap_time:.1?}");

    // Reference: plain DSPM with the full quadratic matrix.
    let t = Instant::now();
    let delta = DeltaMatrix::compute(&db, &DeltaConfig::default());
    let dspm_res = dspm(&space, &delta, &DspmConfig::new(p));
    let dspm_time = t.elapsed();
    println!("\nDSPM (full δ matrix): indexing time {dspm_time:.1?}");

    // How close are the two selections?
    let set: std::collections::BTreeSet<u32> = dspm_res.selected.iter().copied().collect();
    let overlap = res.selected.iter().filter(|r| set.contains(r)).count();
    println!("\nselection overlap: {overlap}/{p} dimensions shared with plain DSPM");

    // And do they answer queries the same way?
    let queries = gdim::datagen::chem_db(10, &gdim::datagen::ChemConfig::default(), 555);
    let md_map = MappedDatabase::new(&space, &res.selected).expect("dspmap selection in range");
    let md_full = MappedDatabase::new(&space, &dspm_res.selected).expect("dspm selection in range");
    let k = 10;
    let mut agree = 0.0;
    for q in &queries {
        let a: std::collections::BTreeSet<u32> = md_map
            .scan_topk_masked(&md_map.map_query(q), k, None)
            .0
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let b: Vec<u32> = md_full
            .scan_topk_masked(&md_full.map_query(q), k, None)
            .0
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        agree += b.iter().filter(|id| a.contains(id)).count() as f64 / k as f64;
    }
    println!(
        "top-{k} answer agreement over {} queries: {:.0}%",
        queries.len(),
        100.0 * agree / queries.len() as f64
    );

    // The same strategy through the serving layer: build a DSPMap-backed
    // index, persist it, and serve from the reloaded copy.
    let db2 = gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), 33);
    let index = GraphIndex::build(
        db2,
        IndexOptions::default()
            .with_dimensions(p)
            .with_strategy(SelectionStrategy::Dspmap { partition_size: b }),
    );
    let path = std::env::temp_dir().join("gdim-scalable.idx");
    index.save(&path).expect("save index");
    let served = GraphIndex::load(&path).expect("load index");
    let resp = served
        .search(&queries[0], &SearchRequest::new(k))
        .expect("serve from reloaded index");
    assert_eq!(
        resp.hits,
        index
            .search(&queries[0], &SearchRequest::new(k))
            .unwrap()
            .hits
    );
    println!(
        "\nserving layer: DSPMap index persisted ({} bytes) and reloaded; answers identical",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    std::fs::remove_file(&path).ok();
}
