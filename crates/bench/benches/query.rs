//! Microbenchmark: the query path — mapped (VF2 feature matching +
//! vector scan, the paper's fast path) vs the exact MCS ranker (Fig. 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdim_core::{
    dspm, exact_topk, DeltaConfig, DeltaMatrix, DspmConfig, FeatureSpace, MappedDatabase, Mapping,
};
use gdim_datagen::{chem_db, ChemConfig};
use gdim_graph::{Dissimilarity, McsOptions};
use gdim_mining::{mine, MinerConfig, Support};

fn bench_query(c: &mut Criterion) {
    let db = chem_db(120, &ChemConfig::default(), 13);
    let queries = chem_db(4, &ChemConfig::default(), 99);
    let feats = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.05)).with_max_edges(5),
    );
    let space = FeatureSpace::build(db.len(), feats);
    let delta = DeltaMatrix::compute(
        &db,
        &DeltaConfig {
            mcs: McsOptions {
                node_budget: 2_048,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let mut group = c.benchmark_group("query");
    group.sample_size(10);
    for p in [50usize, 150] {
        let sel = dspm(&space, &delta, &DspmConfig::new(p)).selected;
        let mapped = MappedDatabase::new(&space, &sel, Mapping::Binary).unwrap();
        group.bench_with_input(BenchmarkId::new("mapped_topk_p", p), &p, |b, _| {
            b.iter(|| {
                let mut acc = 0u32;
                for q in &queries {
                    let v = mapped.map_query(q);
                    acc += mapped.scan_topk_masked(&v, 20, None).0[0].0;
                }
                acc
            })
        });
    }
    // Original = all features: the 3-5x slower mapped path of Fig. 7(a).
    let all: Vec<u32> = (0..space.num_features() as u32).collect();
    let original = MappedDatabase::new(&space, &all, Mapping::Binary).unwrap();
    group.bench_function("mapped_topk_original", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for q in &queries {
                let v = original.map_query(q);
                acc += original.scan_topk_masked(&v, 20, None).0[0].0;
            }
            acc
        })
    });
    // Exact ranker with a reduced budget so the bench stays bounded; the
    // repro harness times the full-budget version.
    group.bench_function("exact_topk_budget16k", |b| {
        let mcs = McsOptions {
            node_budget: 16_384,
            ..Default::default()
        };
        b.iter(|| {
            exact_topk(
                &db,
                &queries[0],
                20,
                Dissimilarity::AvgNorm,
                &mcs,
                &gdim_exec::ExecConfig::default(),
            )[0]
            .0
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
