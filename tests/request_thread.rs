//! A single search runs on the thread that received it: no per-request
//! fork, whatever the shard count, row count or exec budget — the
//! serving path's parallelism is concurrent requests. Pinned through
//! the process-wide [`gdim::exec::workers_spawned`] counter, so this is
//! one test in its own binary.

use gdim::prelude::*;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

/// A response's hits as `(seq, distance)` — comparable across shard
/// counts.
fn by_seq(idx: &ShardedIndex, resp: &SearchResponse) -> Vec<(u64, f64)> {
    resp.hits
        .iter()
        .map(|h| (idx.seq_of(h.id).unwrap(), h.distance))
        .collect()
}

#[test]
fn single_searches_never_spawn_workers() {
    // Default exec budget (all cores), grown by `insert` to 300 rows
    // per shard — no large δ build.
    let opts = IndexOptions::default().with_dimensions(16);
    let base = chem(40, 5);
    let mut two = ShardedIndex::build(
        base.clone(),
        ShardedOptions::new(2).with_index(opts.clone()),
    );
    let mut one = ShardedIndex::build(base, ShardedOptions::new(1).with_index(opts));
    let queries = chem(8, 7);
    // The proximity graphs build on the first approximate query, over
    // the base rows only: at ef = 64 their beams are exhaustive, and
    // rows inserted afterwards are the exactly-scanned pending tail —
    // so even the approximate ranker must agree across shard counts.
    let approx = SearchRequest::new(6).ranker(Ranker::Approx {
        ef: 64,
        verify: None,
    });
    for idx in [&one, &two] {
        idx.search(&queries[0], &approx).unwrap();
    }
    for g in chem(560, 6) {
        one.insert(g.clone());
        two.insert(g);
    }
    assert!(two.len() >= 600);
    let requests = [SearchRequest::new(6), approx];

    let spawned = gdim::exec::workers_spawned();
    for req in &requests {
        let want: Vec<_> = queries
            .iter()
            .map(|q| by_seq(&one, &one.search(q, req).unwrap()))
            .collect();
        for call in 0..200 {
            let q = call % queries.len();
            let got = two.search(&queries[q], req).unwrap();
            assert_eq!(by_seq(&two, &got), want[q], "{req:?}, query {q}");
        }
    }
    assert_eq!(
        gdim::exec::workers_spawned(),
        spawned,
        "a single search forked off its thread"
    );
}
