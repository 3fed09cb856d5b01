//! `ann_baseline` — records the committed `BENCH_ann.json` snapshot:
//! the proximity-graph ANN ranker ([`AnnIndex`]) vs. the exact chunk
//! scan kernel, measured as **recall@10 and single-query latency/QPS**
//! over an `ef` sweep on two workloads with genuine neighbor
//! structure:
//!
//! * **zipf** — `n` clustered synthetic 256-bit vectors (noisy copies
//!   of random centers, the shape mapped graph stores have), with
//!   self-queries drawn by [`zipf_workload`] so popular rows repeat
//!   like a real online query log;
//! * **chem** — a [`GraphIndex`] over a synthetic chemical database
//!   (128 mined dimensions), queried through the full `map_query`
//!   pipeline, so the measured store is a *real* mapped store rather
//!   than a synthetic stand-in.
//!
//! Exact answers come from the same bounded SoA kernel the serving
//! path uses ([`VectorStore::scan`]); ANN answers walk the
//! graph with the scalar [`hamming_row`] as the distance oracle, as
//! the served beam (`GraphIndex::approx_scan_premapped`) does. Medians /
//! interleaved minima of repeated timed runs, written as plain JSON.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin ann_baseline -- \
//!     [--out PATH] [--baseline PATH] [--smoke]
//! ```
//!
//! The zipf store holds 100,000 rows in every run; the chem leg
//! measures 2,000 graphs and 50 queries per workload, or 150 graphs and
//! 25 queries with `--smoke` (CI's ann-smoke: mining the chem
//! database dominates its wall time, and recall on a 150-graph mapped
//! store still catches a navigation regression). The swept `ef` are
//! 16, 32, 64 and 128. Gates:
//!
//! * **recall**, always: on *every* workload at least one swept `ef`
//!   must reach recall@10 ≥ [`MIN_RECALL`] — the approximate tier must
//!   never be wrong by default. Recall is deterministic (fixed seeds),
//!   so it has no noise headroom.
//! * **throughput**, against `--baseline`: each fresh `ann_qps` row
//!   (matched by workload, `n` and `ef`) must stay at or above
//!   [`MIN_FRAC`] of the committed one — a same-machine ratio with
//!   generous noise headroom, like `scan_baseline`.

use std::time::Instant;

use gdim_bench::gate::{fixed, int, paired_min_ns, write_snapshot, Args, Gate, Rule};
use gdim_bench::scanwork::{cpu_kernels, scan_one, synth_clustered};
use gdim_core::ann::{AnnIndex, AnnParams};
use gdim_core::scan::{hamming_row, VectorStore};
use gdim_core::{Bitset, GraphIndex, IndexOptions};
use gdim_datagen::{chem_db, zipf_workload, ChemConfig, ZipfConfig};
use gdim_server::Json;

/// Rows of the zipf store.
const ZIPF_N: usize = 100_000;
/// Seed of both workloads.
const SEED: u64 = 42;
/// Beam widths swept.
const EFS: [usize; 4] = [16, 32, 64, 128];
/// Every workload must reach this recall@10 at some swept `ef`.
const MIN_RECALL: f64 = 0.9;
/// A fresh `ann_qps` must stay at or above a quarter of its committed
/// row.
const MIN_FRAC: Rule = Rule::AtLeast(0.25);

/// Measures one workload: an `ef` sweep of the ANN graph against the
/// exact kernel over the same store and queries, gated as it goes.
/// `queries` are row vectors already mapped into the store's bit space.
/// Returns one snapshot row per `ef`.
fn measure_workload(
    workload: &'static str,
    store: &VectorStore,
    queries: &[Bitset],
    gate: &mut Gate,
) -> Vec<Json> {
    let n = store.len();
    let k = 10.min(n);
    let t = Instant::now();
    let ann = AnnIndex::build(store, AnnParams::default());
    let build_ms = t.elapsed().as_millis() as u64;
    // Exact ground truth, once per query (ids only — recall compares
    // sets, the distances are bit-identical by construction anyway).
    let truth: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            scan_one(store, q.words(), k, None)
                .0
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        })
        .collect();
    let reps = if n >= 100_000 { 11 } else { 31 };
    let mut rows = Vec::new();
    let mut best_recall = 0.0f64;
    for ef in EFS {
        let ef_query = ef.max(k);
        let ann_topk = |q: &Bitset| -> Vec<u32> {
            let qw = q.words();
            let (found, _) = ann.query(
                |id| hamming_row(qw, store.row(id as usize)) as f64,
                ef_query,
                None,
            );
            found.into_iter().take(k).map(|(id, _)| id).collect()
        };
        let mut overlap = 0usize;
        for (q, want) in queries.iter().zip(&truth) {
            let got = ann_topk(q);
            overlap += want.iter().filter(|id| got.contains(id)).count();
        }
        let recall = overlap as f64 / (queries.len() * k).max(1) as f64;
        best_recall = best_recall.max(recall);
        // Single-query latency, interleaved: the exact bounded kernel
        // vs. the graph walk, summed over the query set.
        let (exact_ns, ann_ns) = paired_min_ns(
            reps,
            || {
                queries
                    .iter()
                    .map(|q| scan_one(store, q.words(), k, None).0[0].0)
                    .sum::<u32>()
            },
            || {
                queries
                    .iter()
                    .map(|q| ann_topk(q).first().copied().unwrap_or(0))
                    .sum::<u32>()
            },
        );
        let per_exact = exact_ns / queries.len().max(1) as u64;
        let per_ann = ann_ns / queries.len().max(1) as u64;
        let speedup = per_exact as f64 / per_ann.max(1) as f64;
        let ann_qps = 1e9 * queries.len() as f64 / ann_ns.max(1) as f64;
        let exact_qps = 1e9 * queries.len() as f64 / exact_ns.max(1) as f64;
        eprintln!(
            "{workload} n={n} ef={ef}: recall@{k} {recall:.3}, exact {per_exact} ns/q \
             ({exact_qps:.0} qps), ann {per_ann} ns/q ({ann_qps:.0} qps, {speedup:.1}x)"
        );
        let row = Json::obj([
            ("workload", Json::Str(workload.into())),
            ("n", int(n)),
            ("k", int(k)),
            ("ef", int(ef)),
            ("recall_at_10", fixed(recall, 4)),
            ("exact_ns_per_query", Json::U64(per_exact)),
            ("ann_ns_per_query", Json::U64(per_ann)),
            ("speedup", fixed(speedup, 2)),
            ("exact_qps", fixed(exact_qps, 0)),
            ("ann_qps", fixed(ann_qps, 0)),
            ("build_ms", Json::U64(build_ms)),
        ]);
        let keys = ["workload", "n", "ef"];
        gate.compare("ann", &keys, &row, &[("ann_qps", MIN_FRAC)]);
        rows.push(row);
    }
    gate.floor(&format!("recall {workload}"), best_recall, MIN_RECALL);
    rows
}

fn main() {
    let args = Args::parse("BENCH_ann.json", true);
    let mut gate = Gate::new("ann-smoke", args.baseline);
    let (chem_n, queries) = if args.smoke { (150, 25) } else { (2_000, 50) };
    let cpu = cpu_kernels();

    // Workload 1: clustered synthetic vectors, zipf-drawn self-queries.
    let store = synth_clustered(ZIPF_N, 256, 64, 12, SEED);
    let picks = zipf_workload(ZIPF_N, queries, &ZipfConfig::default(), SEED ^ 0x21F);
    let zipf_queries: Vec<Bitset> = picks
        .iter()
        .map(|&id| Bitset::from_words(store.row(id as usize).to_vec(), store.bits()))
        .collect();
    let mut rows = measure_workload("zipf", &store, &zipf_queries, &mut gate);

    // Workload 2: a real mapped store — chem database through the
    // mining + mapping pipeline, queries through map_query.
    let db = chem_db(chem_n, &ChemConfig::default(), SEED ^ 0xC4E);
    let index = GraphIndex::build(db, IndexOptions::default().with_dimensions(128));
    let chem_store = index.mapped().store().clone();
    let chem_queries: Vec<Bitset> = chem_db(queries, &ChemConfig::default(), SEED ^ 0x9A)
        .iter()
        .map(|q| index.map_query(q))
        .collect();
    let chem_rows = measure_workload("chem", &chem_store, &chem_queries, &mut gate);
    rows.extend(chem_rows);

    let workload = "ANN proximity graph vs exact chunk kernel, top-10; zipf = clustered 256-bit \
                    vectors + zipf self-queries, chem = mapped chem store p=128";
    let snapshot = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("cpu", cpu),
        ("queries", int(queries)),
        ("ann", Json::Arr(rows)),
    ]);
    write_snapshot(&args.out, &snapshot, &[]);
    gate.exit();
}
