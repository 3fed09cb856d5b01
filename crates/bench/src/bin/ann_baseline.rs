//! `ann_baseline` — records the committed `BENCH_ann.json` snapshot:
//! the proximity-graph ANN ranker ([`AnnIndex`]) vs. the exact fused
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
//! graph with the identical row kernel as the distance oracle, so the
//! comparison is ranker-vs-ranker, never kernel-vs-kernel. Medians /
//! interleaved minima of repeated timed runs, written as plain JSON.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin ann_baseline -- \
//!     [--out PATH] [--n N] [--chem-n N] [--queries Q] [--seed S] \
//!     [--ef E[,E...]] [--min-recall R] [--baseline PATH] [--min-frac F]
//! ```
//!
//! * `--out PATH` — where to write the JSON (default `BENCH_ann.json`).
//! * `--n N` — zipf store size (default 100000).
//! * `--chem-n N` — chem database size (default 2000).
//! * `--queries Q` — queries measured per workload (default 50).
//! * `--ef E[,E...]` — beam widths to sweep (default `16,32,64,128`).
//! * `--min-recall R` — **recall gate**: exit non-zero unless, on
//!   *every* workload, at least one swept `ef` reaches recall@10 ≥ R
//!   (the CI ann-smoke job passes `0.9`). Within-run, needs no
//!   committed baseline.
//! * `--baseline PATH` + `--min-frac F` — **throughput gate**: read a
//!   committed snapshot and exit non-zero if any fresh `ann_qps` row
//!   (matched by workload, `n`, and `ef`) falls below `F ×` the
//!   committed one (default 0.25 — same-machine ratios, generous
//!   noise headroom, like `scan_baseline`).

use std::time::Instant;

use gdim_bench::scanwork::{scan_one, synth_clustered};
use gdim_core::ann::{AnnIndex, AnnParams};
use gdim_core::scan::{available_kernels, hamming_row_kernel, selected_kernel, VectorStore};
use gdim_core::{Bitset, GraphIndex, IndexOptions};
use gdim_datagen::{chem_db, zipf_workload, ChemConfig, ZipfConfig};

/// Interleaved best-of-`reps` wall times (ns) for a gated A/B pair —
/// the same discipline as `scan_baseline`: alternating reps keep
/// burst noise off one side of the ratio, the minimum discards every
/// disturbed rep.
fn paired_min_ns<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u64, u64) {
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(t.elapsed().as_nanos() as u64);
    }
    (best_a, best_b)
}

struct Args {
    out: String,
    n: usize,
    chem_n: usize,
    queries: usize,
    seed: u64,
    efs: Vec<usize>,
    min_recall: Option<f64>,
    baseline: Option<String>,
    min_frac: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_ann.json".to_string(),
        n: 100_000,
        chem_n: 2_000,
        queries: 50,
        seed: 42,
        efs: vec![16, 32, 64, 128],
        min_recall: None,
        baseline: None,
        min_frac: 0.25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => args.out = value("--out"),
            "--n" => args.n = value("--n").parse().expect("--n takes an integer"),
            "--chem-n" => {
                args.chem_n = value("--chem-n")
                    .parse()
                    .expect("--chem-n takes an integer");
            }
            "--queries" => {
                args.queries = value("--queries")
                    .parse()
                    .expect("--queries takes an integer");
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes an integer"),
            "--ef" => {
                args.efs = value("--ef")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--ef takes integers"))
                    .collect();
            }
            "--min-recall" => {
                args.min_recall = Some(
                    value("--min-recall")
                        .parse()
                        .expect("--min-recall takes a float"),
                );
            }
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--min-frac" => {
                args.min_frac = value("--min-frac")
                    .parse()
                    .expect("--min-frac takes a float");
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// One numeric field of a line-oriented JSON row.
fn field(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)?;
    let rest = line[at + key.len()..].trim_start().strip_prefix(':')?;
    let val: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    val.parse().ok()
}

/// One measured sweep row, plus the JSON line it renders to.
struct Row {
    workload: &'static str,
    n: usize,
    ef: usize,
    recall: f64,
    speedup: f64,
    ann_qps: f64,
    json: String,
}

/// Measures one workload: an `ef` sweep of the ANN graph against the
/// exact kernel over the same store and queries. `queries` are row
/// vectors already mapped into the store's bit space.
fn measure_workload(
    workload: &'static str,
    store: &VectorStore,
    queries: &[Bitset],
    efs: &[usize],
    rows: &mut Vec<Row>,
) {
    let n = store.len();
    let k = 10.min(n);
    let kernel = selected_kernel();
    let t = Instant::now();
    let ann = AnnIndex::build(store, AnnParams::default());
    let build_ms = t.elapsed().as_millis();
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
    for &ef in efs {
        let ef_query = ef.max(k);
        let ann_topk = |q: &Bitset| -> Vec<u32> {
            let qw = q.words();
            let (found, _) = ann.query(
                |id| hamming_row_kernel(kernel, qw, store.row(id as usize)) as f64,
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
        let json = format!(
            "    {{\"workload\": \"{workload}\", \"n\": {n}, \"k\": {k}, \"ef\": {ef}, \
             \"recall_at_10\": {recall:.4}, \"exact_ns_per_query\": {per_exact}, \
             \"ann_ns_per_query\": {per_ann}, \"speedup\": {speedup:.2}, \
             \"exact_qps\": {exact_qps:.0}, \"ann_qps\": {ann_qps:.0}, \
             \"build_ms\": {build_ms}}}"
        );
        rows.push(Row {
            workload,
            n,
            ef,
            recall,
            speedup,
            ann_qps,
            json,
        });
    }
}

fn main() {
    let args = parse_args();
    let kernels: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
    eprintln!(
        "cpu kernels: available [{}], selected {}",
        kernels.join(", "),
        selected_kernel().name()
    );
    let mut rows: Vec<Row> = Vec::new();

    // Workload 1: clustered synthetic vectors, zipf-drawn self-queries.
    let store = synth_clustered(args.n, 256, 64, 12, args.seed);
    let picks = zipf_workload(
        args.n,
        args.queries,
        &ZipfConfig::default(),
        args.seed ^ 0x21F,
    );
    let queries: Vec<Bitset> = picks
        .iter()
        .map(|&id| Bitset::from_words(store.row(id as usize).to_vec(), store.bits()))
        .collect();
    measure_workload("zipf", &store, &queries, &args.efs, &mut rows);

    // Workload 2: a real mapped store — chem database through the
    // mining + mapping pipeline, queries through map_query.
    let db = chem_db(args.chem_n, &ChemConfig::default(), args.seed ^ 0xC4E);
    let index = GraphIndex::build(db, IndexOptions::default().with_dimensions(128));
    let chem_store = index.mapped().store().clone();
    let chem_queries: Vec<Bitset> = chem_db(args.queries, &ChemConfig::default(), args.seed ^ 0x9A)
        .iter()
        .map(|q| index.map_query(q))
        .collect();
    measure_workload("chem", &chem_store, &chem_queries, &args.efs, &mut rows);

    let cpu_kernels: Vec<String> = kernels.iter().map(|k| format!("\"{k}\"")).collect();
    let json_rows: Vec<&str> = rows.iter().map(|r| r.json.as_str()).collect();
    let json = format!(
        "{{\n  \"workload\": \"ANN proximity graph vs exact fused kernel, top-10; zipf = \
         clustered 256-bit vectors + zipf self-queries, chem = mapped chem store p=128\",\n  \
         \"cpu\": {{\"available_kernels\": [{}], \"selected_kernel\": \"{}\"}},\n  \
         \"queries\": {},\n  \"ann\": [\n{}\n  ]\n}}\n",
        cpu_kernels.join(", "),
        selected_kernel().name(),
        args.queries,
        json_rows.join(",\n")
    );
    std::fs::write(&args.out, &json).expect("write baseline json");
    eprintln!("wrote {}", args.out);

    let mut gate_failed = false;

    // Recall gate: every workload must have at least one swept ef at
    // or above the floor — approximate must not mean wrong-by-default.
    if let Some(min) = args.min_recall {
        for workload in ["zipf", "chem"] {
            let best = rows
                .iter()
                .filter(|r| r.workload == workload)
                .map(|r| r.recall)
                .fold(0.0f64, f64::max);
            let verdict = if best >= min { "ok" } else { "FAIL" };
            eprintln!("ann-smoke recall {workload}: best {best:.3} vs floor {min:.3} .. {verdict}");
            if best < min {
                gate_failed = true;
            }
        }
    }

    // Throughput gate against the committed snapshot: fresh ann_qps
    // must stay above min-frac of the committed row with the same
    // (workload, n, ef) — same-machine ratios, like scan_baseline.
    if let Some(path) = &args.baseline {
        let committed = std::fs::read_to_string(path).expect("read committed baseline");
        let mut checked = 0usize;
        for line in committed.lines() {
            let (Some(n), Some(ef), Some(want)) = (
                field(line, "\"n\""),
                field(line, "\"ef\""),
                field(line, "\"ann_qps\""),
            ) else {
                continue;
            };
            let workload = if line.contains("\"zipf\"") {
                "zipf"
            } else if line.contains("\"chem\"") {
                "chem"
            } else {
                continue;
            };
            let Some(fresh) = rows
                .iter()
                .find(|r| r.workload == workload && r.n == n as usize && r.ef == ef as usize)
            else {
                continue;
            };
            let floor = want * args.min_frac;
            let verdict = if fresh.ann_qps < floor { "FAIL" } else { "ok" };
            eprintln!(
                "ann-smoke qps {workload} n={} ef={}: fresh {:.0} vs committed {want:.0} \
                 (floor {floor:.0}) .. {verdict}",
                fresh.n, fresh.ef, fresh.ann_qps
            );
            gate_failed |= fresh.ann_qps < floor;
            checked += 1;
        }
        if checked == 0 {
            eprintln!("ann-smoke: no workload overlaps {path} — nothing was actually gated");
            gate_failed = true;
        }
    }

    // Context for the committed snapshot: the acceptance bar is ≥5x at
    // recall ≥0.9 on the large zipf leg; print the best qualifying row.
    if let Some(best) = rows
        .iter()
        .filter(|r| r.workload == "zipf" && r.recall >= 0.9)
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
    {
        eprintln!(
            "zipf best at recall>=0.9: ef={} recall {:.3} speedup {:.1}x",
            best.ef, best.recall, best.speedup
        );
    }

    if gate_failed {
        std::process::exit(1);
    }
}
