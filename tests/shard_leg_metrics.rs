//! The per-shard leg histogram `gdim_shard_scan_ns` (the raw material
//! of the shard-imbalance story): the query executor records exactly
//! one sample per partition leg, for every plan — scans, batches, ANN
//! beams and exact δ alike. One test in its own binary,
//! because the histogram lives in the process-global registry.

use gdim::prelude::*;

#[test]
fn every_plan_records_one_leg_sample_per_shard() {
    let db = gdim::datagen::chem_db(24, &gdim::datagen::ChemConfig::default(), 3);
    let opts = IndexOptions::default().with_dimensions(16);
    let sharded = ShardedIndex::build(db.clone(), ShardedOptions::new(2).with_index(opts));
    // Same (name, labels) always returns the same instrument.
    let legs = gdim::obs::global().histogram("gdim_shard_scan_ns", "", &[]);
    let shards = sharded.shard_count() as u64;

    let before = legs.count();
    let queries = &db[..3];
    let batch = sharded
        .search_batch(queries, &SearchRequest::new(5))
        .unwrap();
    assert_eq!(batch.len(), queries.len());
    assert_eq!(
        legs.count() - before,
        queries.len() as u64 * shards,
        "a batch is one leg per shard for each of its queries"
    );

    for ranker in [
        Ranker::Mapped,
        Ranker::Refined { candidates: 8 },
        Ranker::Approx {
            ef: 16,
            verify: None,
        },
        Ranker::Exact,
    ] {
        let before = legs.count();
        sharded
            .search(&db[1], &SearchRequest::new(5).ranker(ranker))
            .unwrap();
        assert_eq!(legs.count() - before, shards, "{ranker:?}");
    }
}
