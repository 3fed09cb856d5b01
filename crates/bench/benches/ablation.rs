//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * fused inverted-list weight update vs the literal Algorithms 2–3
//!   (identical output, different cost);
//! * query mapping with vs without the containment-DAG pruning;
//! * binary vs weighted mapped distance evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use gdim_core::dspm::{dspm, dspm_reference, DspmConfig};
use gdim_core::{CodeTree, DeltaConfig, DeltaMatrix, FeatureSpace, MappedDatabase, Mapping};
use gdim_datagen::{chem_db, ChemConfig};
use gdim_graph::vf2::is_subgraph_iso;
use gdim_graph::McsOptions;
use gdim_mining::{mine, MinerConfig, Support};

fn bench_ablation(c: &mut Criterion) {
    let db = chem_db(80, &ChemConfig::default(), 23);
    let queries = chem_db(4, &ChemConfig::default(), 91);
    let feats = mine(
        &db,
        &MinerConfig::new(Support::Relative(0.1)).with_max_edges(4),
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

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    let cfg = DspmConfig {
        epsilon: 0.0,
        max_iters: 3,
        ..DspmConfig::new(30)
    };
    group.bench_function("dspm_update_fused", |b| {
        b.iter(|| dspm(&space, &delta, &cfg).iterations)
    });
    group.bench_function("dspm_update_literal", |b| {
        b.iter(|| dspm_reference(&space, &delta, &cfg).iterations)
    });

    // Query mapping: full space (one code-tree search) vs brute VF2.
    let tree = CodeTree::build(space.features()).expect("mined codes");
    group.bench_function("map_query_code_tree", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| tree.map_query(q).0.count_ones())
                .sum::<u32>()
        })
    });
    group.bench_function("map_query_brute_vf2", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| {
                    space
                        .features()
                        .iter()
                        .filter(|f| is_subgraph_iso(&f.graph, q))
                        .count()
                })
                .sum::<usize>()
        })
    });

    // Distance evaluation: binary vs weighted.
    let res = dspm(&space, &delta, &DspmConfig::new(40));
    let binary = MappedDatabase::new(&space, &res.selected, Mapping::Binary).unwrap();
    let weighted =
        MappedDatabase::new(&space, &res.selected, Mapping::Weighted(&res.weights)).unwrap();
    let qv = binary.map_query(&queries[0]);
    group.bench_function("scan_binary", |b| {
        b.iter(|| binary.scan_topk_masked(&qv, 10, None).0[0].0)
    });
    group.bench_function("scan_weighted", |b| {
        b.iter(|| weighted.scan_topk_masked(&qv, 10, None).0[0].0)
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
