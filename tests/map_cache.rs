//! The per-thread map cache on the served path
//! (`CodeTree::map_query_cached`): a hit answers exactly what the
//! search answers — bits and `MatchStats` — for the tree and graph it
//! was keyed on, graphs past the key cap bypass it, and searches from
//! several threads (each with its own table) answer like one thread.
//!
//! The hit / miss counters are process-wide, so every test here holds
//! [`LOCK`] while it maps: the counter deltas a test reads are its own.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use gdim::core::featurespace::{MAP_CACHE_MAX_KEY, MAP_CACHE_SETS, MAP_CACHE_WAYS};
use gdim::core::SearchStats;
use gdim::datagen::{chem_db, connected_edge_subgraph, ChemConfig};
use gdim::obs::StageTimes;
use gdim::prelude::*;
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(hits, misses)` so far in this process.
fn counts() -> (u64, u64) {
    let registry = gdim::obs::global();
    (
        registry.counter("gdim_map_cache_hits_total", "", &[]).get(),
        registry
            .counter("gdim_map_cache_misses_total", "", &[])
            .get(),
    )
}

fn index() -> &'static GraphIndex {
    static INDEX: OnceLock<GraphIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let db = chem_db(30, &ChemConfig::default(), 42);
        GraphIndex::build(db, IndexOptions::default().with_dimensions(40))
    })
}

/// A chem query: a fresh molecule, or a connected part of an indexed
/// one (the end-to-end benchmark's query-pool recipe).
fn query(seed: u64, part: bool) -> Graph {
    if part {
        let g = index()
            .graph((seed % index().len() as u64) as usize)
            .unwrap();
        connected_edge_subgraph(g, 0.8, seed)
    } else {
        chem_db(1, &ChemConfig::default(), seed).remove(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_first_and_a_repeated_cached_map_equal_the_search(
        seed in 0..1_000_000u64,
        part in 0..2u32,
    ) {
        let _serial = serial();
        let idx = index();
        let q = query(seed, part == 1);
        let want = idx.map_query_with_stats(&q);
        prop_assert_eq!(&want.0, &idx.mapped().map_query_unpruned(&q));
        let tree = idx.mapped().mapper();
        prop_assert_eq!(tree.map_query_cached(&q), want.clone(), "first");
        let before = counts();
        prop_assert_eq!(tree.map_query_cached(&q), want, "repeated");
        prop_assert_eq!(counts(), (before.0 + 1, before.1), "the repeat is a hit");
    }
}

#[test]
fn two_indexes_mapped_in_turns_each_get_their_own_bits() {
    // Same width, different dimensions: an entry of one tree would
    // have the right length for the other.
    let _serial = serial();
    let opts = IndexOptions::default().with_dimensions(24);
    let a = GraphIndex::build(chem_db(24, &ChemConfig::default(), 5), opts.clone());
    let b = GraphIndex::build(chem_db(24, &ChemConfig::default(), 6), opts);
    assert_eq!(a.p(), b.p());
    assert_ne!(a.mapped().codes(), b.mapped().codes());
    let queries = chem_db(12, &ChemConfig::default(), 77);
    let differ = queries
        .iter()
        .filter(|q| a.map_query(q) != b.map_query(q))
        .count();
    assert!(differ > 0, "the two selections must map some query apart");
    for round in 0..3 {
        for q in &queries {
            for idx in [&a, &b] {
                assert_eq!(
                    idx.mapped().mapper().map_query_cached(q),
                    idx.map_query_with_stats(q),
                    "round {round}"
                );
            }
        }
    }
}

#[test]
fn a_graph_over_the_key_cap_maps_exactly_and_only_misses() {
    let _serial = serial();
    let idx = index();
    let tree = idx.mapped().mapper();
    // Past the cap by size alone, and by its encoded bytes alone
    // (vertex ids from 128 up and the labels take two bytes each).
    let star = {
        let n = MAP_CACHE_MAX_KEY as u32;
        Graph::from_parts(vec![0; n as usize + 1], (1..=n).map(|i| (0, i, 0))).unwrap()
    };
    let path = Graph::from_parts(vec![200; 250], (1..250).map(|i| (i - 1, i, 0))).unwrap();
    assert!(path.vertex_count() + 3 * path.edge_count() <= MAP_CACHE_MAX_KEY);
    for q in [&star, &path] {
        let want = idx.map_query_with_stats(q);
        assert_eq!(want.0, idx.mapped().map_query_unpruned(q));
        let before = counts();
        for _ in 0..2 {
            assert_eq!(tree.map_query_cached(q), want);
        }
        assert_eq!(counts(), (before.0, before.1 + 2), "{q:?}");
    }
    // A chem graph under the cap is cached.
    let small = query(3, false);
    tree.map_query_cached(&small);
    let before = counts();
    tree.map_query_cached(&small);
    assert_eq!(counts(), (before.0 + 1, before.1));
}

#[test]
fn searches_from_four_threads_equal_their_single_thread_answers() {
    let _serial = serial();
    let idx = index();
    // More distinct queries than one thread's table holds, so every
    // thread also evicts.
    let queries: Vec<Graph> = (0..(MAP_CACHE_SETS * MAP_CACHE_WAYS + 200) as u64)
        .map(|i| query(i, i % 3 == 0))
        .collect();
    let req = SearchRequest::new(5);
    /// Hits plus the whole stats with their timings zeroed.
    fn answer(idx: &GraphIndex, q: &Graph, req: &SearchRequest) -> String {
        let r = idx.search(q, req).unwrap();
        let stats = SearchStats {
            match_time: Duration::ZERO,
            wall_time: Duration::ZERO,
            stages: StageTimes::new(),
            ..r.stats
        };
        format!("{:?} {stats:?}", r.hits)
    }
    let single: Vec<String> = queries.iter().map(|q| answer(idx, q, &req)).collect();
    let before = counts();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let (queries, single, req) = (&queries, &single, &req);
            scope.spawn(move || {
                // Each thread walks the pool from its own offset, then a
                // hot set twice: the second time from its own table.
                let n = queries.len();
                let order = (0..n)
                    .map(|i| (i + t * 97) % n)
                    .chain((0..2).flat_map(|_| 0..256));
                for i in order {
                    assert_eq!(
                        answer(idx, &queries[i], req),
                        single[i],
                        "thread {t} query {i}"
                    );
                }
            });
        }
    });
    let hits = counts().0 - before.0;
    assert!(
        hits >= 4 * 200,
        "{hits} hits: the hot set must be served from the tables"
    );
}
