//! End-to-end integration tests across all crates: the full paper
//! pipeline on seeded data, with the qualitative claims of §6 asserted
//! as invariants (DSPM ≥ Sample quality, DSPMap ≈ DSPM, mapped query
//! returns the graph itself, ...).

use gdim::core::measures::{precision, topk_ids};
use gdim::core::query::weighted_w_sq;
use gdim::core::{dspmap, DspmapConfig, SharedDelta};
use gdim::prelude::*;

struct Pipeline {
    db: Vec<Graph>,
    queries: Vec<Graph>,
    space: FeatureSpace,
    delta: DeltaMatrix,
}

fn build_pipeline(n: usize, seed: u64) -> Pipeline {
    let db = gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed);
    let queries = gdim::datagen::chem_db(12, &gdim::datagen::ChemConfig::default(), seed ^ 0xff);
    let features = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.08)).with_max_edges(4),
    );
    let space = FeatureSpace::build(db.len(), features);
    let delta = DeltaMatrix::compute(
        &db,
        &DeltaConfig {
            mcs: McsOptions {
                node_budget: 8_192,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    Pipeline {
        db,
        queries,
        space,
        delta,
    }
}

fn mean_precision(pl: &Pipeline, selection: &[u32], truth: &[Vec<u32>], k: usize) -> f64 {
    let mapped = MappedDatabase::new(&pl.space, selection).expect("selection in range");
    let mut total = 0.0;
    for (q, exact) in pl.queries.iter().zip(truth) {
        let ids = topk_ids(&mapped.scan_topk_masked(&mapped.map_query(q), k, None).0, k);
        total += precision(&ids, &exact[..k]);
    }
    total / pl.queries.len() as f64
}

fn ground_truth(pl: &Pipeline) -> Vec<Vec<u32>> {
    let mcs = McsOptions {
        node_budget: 16_384,
        ..Default::default()
    };
    pl.queries
        .iter()
        .map(|q| {
            exact_ranking(
                &pl.db,
                q,
                Dissimilarity::AvgNorm,
                &mcs,
                &ExecConfig::default(),
            )
            .into_iter()
            .map(|(id, _)| id)
            .collect()
        })
        .collect()
}

#[test]
fn dspm_beats_random_sampling_on_precision() {
    let pl = build_pipeline(80, 3);
    let truth = ground_truth(&pl);
    let p = 50.min(pl.space.num_features());
    let k = 10;

    let dspm_sel = dspm(&pl.space, &pl.delta, &DspmConfig::new(p)).selected;
    let dspm_prec = mean_precision(&pl, &dspm_sel, &truth, k);

    // Average Sample over several seeds to reduce variance.
    let mut sample_prec = 0.0;
    for seed in 0..5 {
        let sel = gdim::baselines::sample_select(&pl.space, p, seed);
        sample_prec += mean_precision(&pl, &sel, &truth, k);
    }
    sample_prec /= 5.0;

    assert!(
        dspm_prec > sample_prec,
        "DSPM precision {dspm_prec:.3} should beat Sample {sample_prec:.3}"
    );
}

#[test]
fn dspmap_tracks_dspm_quality() {
    let pl = build_pipeline(80, 7);
    let truth = ground_truth(&pl);
    let p = 40.min(pl.space.num_features());
    let k = 10;

    let dspm_sel = dspm(&pl.space, &pl.delta, &DspmConfig::new(p)).selected;
    let dspm_prec = mean_precision(&pl, &dspm_sel, &truth, k);

    let sdelta = SharedDelta::new(
        &pl.db,
        DeltaConfig {
            mcs: McsOptions {
                node_budget: 8_192,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let map_sel = dspmap(
        &pl.space,
        &sdelta,
        &DspmapConfig::new(p).with_partition_size(20).with_seed(5),
    )
    .selected;
    let map_prec = mean_precision(&pl, &map_sel, &truth, k);

    // The paper reports DSPMap within 1-2% of DSPM; allow slack for the
    // small scale of this test.
    assert!(
        map_prec >= dspm_prec - 0.15,
        "DSPMap precision {map_prec:.3} too far below DSPM {dspm_prec:.3}"
    );
}

#[test]
fn database_graphs_retrieve_themselves() {
    let pl = build_pipeline(50, 11);
    let p = 40.min(pl.space.num_features());
    let sel = dspm(&pl.space, &pl.delta, &DspmConfig::new(p)).selected;
    let mapped = MappedDatabase::new(&pl.space, &sel).expect("selection in range");
    for i in (0..pl.db.len()).step_by(7) {
        let qvec = mapped.map_query(&pl.db[i]);
        let top = mapped.scan_topk_masked(&qvec, 1, None).0;
        assert_eq!(top[0].1, 0.0, "graph {i}: distance to itself must be 0");
    }
}

#[test]
fn every_baseline_plugs_into_the_query_engine() {
    let pl = build_pipeline(40, 13);
    let p = 20.min(pl.space.num_features());
    let selections: Vec<(&str, Vec<u32>)> = vec![
        ("original", gdim::baselines::original_select(&pl.space)),
        ("sample", gdim::baselines::sample_select(&pl.space, p, 1)),
        (
            "sfs",
            gdim::baselines::sfs_select(&pl.space, &pl.delta, &gdim::baselines::SfsConfig { p }),
        ),
        (
            "mici",
            gdim::baselines::mici_select(&pl.space, &gdim::baselines::MiciConfig { p }),
        ),
        (
            "mcfs",
            gdim::baselines::mcfs_select(&pl.space, &gdim::baselines::McfsConfig::new(p)),
        ),
        (
            "udfs",
            gdim::baselines::udfs_select(&pl.space, &gdim::baselines::UdfsConfig::new(p)),
        ),
        (
            "ndfs",
            gdim::baselines::ndfs_select(&pl.space, &gdim::baselines::NdfsConfig::new(p)),
        ),
    ];
    for (name, sel) in selections {
        let mapped = MappedDatabase::new(&pl.space, &sel).expect("selection in range");
        let qvec = mapped.map_query(&pl.queries[0]);
        let top = mapped.scan_topk_masked(&qvec, 5, None).0;
        assert_eq!(top.len(), 5, "{name}: top-k underfilled");
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1, "{name}: ranking not sorted");
        }
    }
}

#[test]
fn fingerprint_benchmark_is_a_reasonable_ranker() {
    // The benchmark ranker must be meaningfully better than random on
    // the exact ground truth (it anchors the relative measures of §6).
    let pl = build_pipeline(60, 17);
    let truth = ground_truth(&pl);
    let k = 10;
    let fp = FingerprintIndex::build(&pl.db);
    let mut fp_prec = 0.0;
    for (q, exact) in pl.queries.iter().zip(&truth) {
        let ids = topk_ids(&fp.topk(q, k), k);
        fp_prec += precision(&ids, &exact[..k]);
    }
    fp_prec /= pl.queries.len() as f64;
    let random_baseline = k as f64 / pl.db.len() as f64;
    assert!(
        fp_prec > 2.0 * random_baseline,
        "fingerprint precision {fp_prec:.3} not above random {random_baseline:.3}"
    );
}

#[test]
fn weighted_mapping_ablation_runs() {
    let pl = build_pipeline(40, 19);
    let p = 25.min(pl.space.num_features());
    let res = dspm(&pl.space, &pl.delta, &DspmConfig::new(p));
    let mapped = MappedDatabase::new(&pl.space, &res.selected).unwrap();
    let w_sq = weighted_w_sq(&res.selected, &res.weights);
    // One set of binary vectors serves both distances; they differ in
    // general, but both are proper metrics on {0,1}^p.
    let qvec = mapped.map_query(&pl.queries[0]);
    let dw = mapped.scan_topk_with_masked(&qvec, 3, &w_sq, None).0;
    let db_ = mapped.scan_topk_masked(&qvec, 3, None).0;
    assert_eq!(dw.len(), 3);
    assert_eq!(db_.len(), 3);
}
