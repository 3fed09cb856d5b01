//! Cross-crate determinism contract of the shared exec runtime: every
//! parallel kernel must produce **byte-identical** results for any
//! thread budget. This is what lets callers tune `ExecConfig` freely
//! without re-validating outputs.

use gdim::core::dspm::dspm;
use gdim::prelude::*;

fn db(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

/// End-to-end: `GraphIndex::build → search` over DSPM is identical for
/// `threads = 1` and `threads = N`.
#[test]
fn index_build_and_search_identical_across_thread_budgets() {
    let build = |threads: usize| {
        GraphIndex::build(
            db(30, 11),
            IndexOptions::default()
                .with_dimensions(20)
                .with_strategy(SelectionStrategy::Dspm)
                .with_threads(threads),
        )
    };
    let serial = build(1);
    let reqs = [
        SearchRequest::new(10),
        SearchRequest::new(10).ranker(Ranker::Refined { candidates: 12 }),
        SearchRequest::new(10).ranker(Ranker::Exact),
    ];
    for threads in [2usize, 8] {
        let parallel = build(threads);
        // The same selection: the dimensions' DFS codes, column by column.
        assert!(
            serial.mapped().codes().eq(parallel.mapped().codes()),
            "threads = {threads}"
        );
        assert_eq!(serial.weights(), parallel.weights(), "threads = {threads}");
        for qi in [0usize, 7, 19] {
            let q = serial.graph(qi).unwrap().clone();
            for req in &reqs {
                assert_eq!(
                    serial.search(&q, req).unwrap().hits,
                    parallel.search(&q, req).unwrap().hits,
                    "threads = {threads}, query {qi}, {:?}",
                    req.ranker
                );
            }
        }
    }
}

/// Same contract through the DSPMap path (SharedDelta sub-blocks).
#[test]
fn dspmap_index_identical_across_thread_budgets() {
    let build = |threads: usize| {
        GraphIndex::build(
            db(40, 13),
            IndexOptions::default()
                .with_dimensions(15)
                .with_strategy(SelectionStrategy::Dspmap { partition_size: 10 })
                .with_threads(threads),
        )
    };
    let serial = build(1);
    let parallel = build(8);
    assert!(serial.mapped().codes().eq(parallel.mapped().codes()));
    assert_eq!(serial.weights(), parallel.weights());
    let q = serial.graph(3).unwrap().clone();
    let req = SearchRequest::new(5);
    assert_eq!(
        serial.search(&q, &req).unwrap().hits,
        parallel.search(&q, &req).unwrap().hits
    );
    let batch = db(4, 99);
    let hits =
        |resps: Vec<gdim::core::search::SearchResponse>| -> Vec<Vec<gdim::core::search::Hit>> {
            resps.into_iter().map(|r| r.hits).collect()
        };
    assert_eq!(
        hits(serial.search_batch(&batch, &req).unwrap()),
        hits(parallel.search_batch(&batch, &req).unwrap())
    );
}

/// δ-matrix bytes are independent of the thread budget.
#[test]
fn delta_matrix_bytes_identical_across_thread_budgets() {
    let graphs = db(25, 17);
    let cfg = |threads: usize| DeltaConfig {
        exec: ExecConfig::new(threads),
        ..DeltaConfig::default()
    };
    let serial = DeltaMatrix::compute(&graphs, &cfg(1));
    for threads in [2usize, 8] {
        let parallel = DeltaMatrix::compute(&graphs, &cfg(threads));
        assert_eq!(
            serial.condensed(),
            parallel.condensed(),
            "threads = {threads}"
        );
    }
}

/// Exact ranking and DSPM weights are independent of the thread budget.
#[test]
fn exact_ranking_and_dspm_identical_across_thread_budgets() {
    let graphs = db(20, 19);
    let mcs = McsOptions::default();
    let serial = exact_ranking(
        &graphs,
        &graphs[2],
        Dissimilarity::AvgNorm,
        &mcs,
        &ExecConfig::serial(),
    );
    for threads in [2usize, 8] {
        let parallel = exact_ranking(
            &graphs,
            &graphs[2],
            Dissimilarity::AvgNorm,
            &mcs,
            &ExecConfig::new(threads),
        );
        assert_eq!(serial, parallel, "threads = {threads}");
    }

    let feats = mine(
        &graphs,
        &MinerConfig::new(Support::Relative(0.15)).with_max_edges(3),
    );
    let space = FeatureSpace::build(graphs.len(), feats);
    let delta = DeltaMatrix::compute(&graphs, &DeltaConfig::default());
    let run = |threads: usize| {
        dspm(
            &space,
            &delta,
            &DspmConfig {
                exec: ExecConfig::new(threads),
                ..DspmConfig::new(10)
            },
        )
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.weights, parallel.weights);
    assert_eq!(serial.selected, parallel.selected);
    assert_eq!(serial.objective_trace, parallel.objective_trace);
}
