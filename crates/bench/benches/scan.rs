//! Microbenchmark: the optimized legs of the online query path — the
//! flat SoA scan kernels (binary and weighted, on the runtime-selected
//! kernel family) vs. the naive full-sort scans they replaced, the
//! fused multi-query batch scan vs. independent single-query calls,
//! and containment-pruned query mapping vs. the unpruned per-feature
//! VF2 loop. The committed `BENCH_scan.json` snapshot is recorded by
//! the `scan_baseline` binary over the same workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdim_bench::scanwork::{
    naive_fullsort_topk, naive_weighted_topk, scan_fused, scan_one, synth, synth_queries,
};
use gdim_core::{Bitset, ExecConfig, GraphIndex, IndexOptions};
use gdim_datagen::{chem_db, ChemConfig};

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let (store, q) = synth(n, 256, 42);
        group.bench_with_input(BenchmarkId::new("naive_fullsort_top10", n), &n, |b, _| {
            b.iter(|| naive_fullsort_topk(&store, &q, 10)[0].0)
        });
        group.bench_with_input(BenchmarkId::new("kernel_top10", n), &n, |b, _| {
            b.iter(|| scan_one(&store, q.words(), 10, None).0[0].0)
        });
        let w_sq = vec![1.0 / 256.0; 256];
        group.bench_with_input(BenchmarkId::new("naive_weighted_top10", n), &n, |b, _| {
            b.iter(|| naive_weighted_topk(&store, &q, &w_sq, 10)[0].0)
        });
        group.bench_with_input(BenchmarkId::new("kernel_weighted_top10", n), &n, |b, _| {
            b.iter(|| scan_one(&store, q.words(), 10, Some(&w_sq)).0[0].0)
        });
    }
    group.finish();
}

fn bench_fused_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_scan");
    group.sample_size(10);
    let exec = ExecConfig::default();
    for n in [10_000usize, 100_000] {
        let (store, _) = synth(n, 256, 42);
        let queries: Vec<Bitset> = synth_queries(64, 256, 42);
        for qn in [8usize, 64] {
            let words: Vec<&[u64]> = queries[..qn].iter().map(Bitset::words).collect();
            group.bench_with_input(
                BenchmarkId::new(format!("independent_q{qn}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        words
                            .iter()
                            .map(|w| scan_one(&store, w, 10, None).0[0].0)
                            .sum::<u32>()
                    })
                },
            );
            group.bench_with_input(BenchmarkId::new(format!("fused_q{qn}"), n), &n, |b, _| {
                b.iter(|| scan_fused(&store, &words, 10, &exec)[0].0[0].0)
            });
        }
    }
    group.finish();
}

fn bench_map_query(c: &mut Criterion) {
    let db = chem_db(60, &ChemConfig::default(), 13);
    let index = GraphIndex::build(db, IndexOptions::default().with_dimensions(60));
    let queries = chem_db(4, &ChemConfig::default(), 99);

    let mut group = c.benchmark_group("map_query");
    group.sample_size(10);
    group.bench_function("unpruned", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for q in &queries {
                acc += index.mapped().map_query_unpruned(q).count_ones();
            }
            acc
        })
    });
    group.bench_function("containment_pruned", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for q in &queries {
                acc += index.map_query(q).count_ones();
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scan, bench_fused_scan, bench_map_query);
criterion_main!(benches);
