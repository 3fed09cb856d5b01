//! `scan_baseline` — records the committed `BENCH_scan.json` snapshot:
//! the naive full-sort scan vs. the bounded SoA kernel (binary **and**
//! weighted) on synthetic vector stores (default n ∈ {1k, 10k, 100k},
//! p = 256, top-10; the binary pair again at p = 128, the two-word
//! stride the end-to-end benchmark serves), the fused multi-query
//! batch scan vs. independent single-query scans at Q ∈ {8, 64}, and
//! query mapping on a chem workload (64 queries onto p = 128
//! dimensions): the brute-force loop of independent VF2 tests vs. the
//! served path — one search over the dimensions' DFS-code prefix
//! tree — with its time per query and its exact work counts (columns
//! tested / pruned, extension steps), and the δ fill DSPM is built on:
//! one serial MCS search per pair of the end-to-end benchmark's 48 base
//! graphs (`chem_db(48, .., 42)`) at `DeltaConfig::default()`, with its
//! time per search node and its exact totals (nodes, common edges,
//! pairs stopped by the budget). Medians of
//! repeated timed runs, written as plain JSON so future PRs can track
//! the trajectory. The snapshot also records the kernel families
//! available on the measuring machine and which one runtime detection
//! selected ([`selected_kernel`]), so a committed number is never
//! compared against a run on a different instruction set blindly.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin scan_baseline -- \
//!     [--out PATH] [--n N[,N...]] [--seed S] \
//!     [--baseline PATH] [--min-frac F] \
//!     [--shards S[,S...]] [--max-shard-frac F]
//! ```
//!
//! * `--out PATH` — where to write the JSON (default `BENCH_scan.json`;
//!   a bare positional argument still works for compatibility).
//! * `--n N[,N...]` — store sizes to measure (default `1000,10000,100000`),
//!   so CI can run a small deterministic workload without editing source.
//! * `--seed S` — splitmix seed for the synthetic vectors (default 42).
//! * `--baseline PATH` — **perf-regression gate**: read a committed
//!   snapshot and exit non-zero if, for any workload measured by both
//!   runs, a fresh speedup (`binary_speedup`, `binary_p128_speedup`,
//!   `weighted_speedup`, a fused `fused_qps_speedup` row, or the
//!   `map_query` `speedup`) falls below `min-frac` of the
//!   committed one. Each ratio compares two runs *on the same
//!   machine*, so the gate is robust to absolute runner speed;
//!   `--min-frac` (default 0.25) leaves generous headroom for noise.
//!   The `map_query` row's `vf2_calls` / `vf2_pruned` / `extensions`
//!   are fixed by the seeds, not the machine, so they must equal the
//!   committed integers **exactly**: a matcher or code-tree change
//!   that takes one step more or fewer fails here whatever it does to
//!   the time. The `mcs` row's `nodes` / `edges` / `inexact` are gated
//!   the same way: most pairs stop at the node budget, so a search that
//!   visits one node more or fewer changes δ, and fails here however
//!   fast it is. Its `ns_per_node` is reported, not gated.
//! * `--shards S[,S...]` — also measure the **scatter-gather** scan
//!   (default `8`): the same store split into S contiguous sub-stores,
//!   each scanned with the bounded kernel, merged to a global top-10
//!   with `gdim_shard::merge_topk` — the per-partition legs and the
//!   merge the query executor runs, in order on one thread as here.
//!   The merged hits are asserted equal to the single-store kernel's
//!   before timing.
//! * `--max-shard-frac F` — **scatter-gather overhead gate**: when
//!   given, exit non-zero if, at equal total `n`, the sharded scan
//!   takes more than `F ×` the single-store kernel time (the CI
//!   bench-smoke job passes `1.6`). Only stores with at least 256
//!   rows per shard are gated: below that the fixed per-shard
//!   selector + merge cost is a few µs against a few-µs scan, so the
//!   ratio is reported as `ungated`. The ratio is same-machine and
//!   same-run, so it needs no committed baseline.

use std::time::Instant;

use gdim_bench::scanwork::{
    naive_fullsort_topk, naive_weighted_topk, scan_fused, scan_one, split_store, synth,
    synth_queries,
};
use gdim_core::scan::{available_kernels, selected_kernel};
use gdim_core::{Bitset, DeltaConfig, ExecConfig, GraphId, GraphIndex, IndexOptions};
use gdim_datagen::{chem_db, ChemConfig};
use gdim_graph::mcs_edges;
use gdim_shard::merge_topk;

/// Median wall time (ns) of `reps` runs of `f`.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut times: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Interleaved best-of-`reps` wall times (ns) for a gated A/B pair.
/// Alternating single reps of each side keeps burst noise (VM steal
/// time, frequency excursions) from landing on only one side of a
/// ratio, and the minimum — unlike the median — discards every
/// disturbed rep, estimating the undisturbed cost of each side.
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
    sizes: Vec<usize>,
    seed: u64,
    baseline: Option<String>,
    min_frac: f64,
    shards: Vec<usize>,
    max_shard_frac: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_scan.json".to_string(),
        sizes: vec![1_000, 10_000, 100_000],
        seed: 42,
        baseline: None,
        min_frac: 0.25,
        shards: vec![8],
        max_shard_frac: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => args.out = value("--out"),
            "--n" => {
                args.sizes = value("--n")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--n takes integers"))
                    .collect();
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes an integer"),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--min-frac" => {
                args.min_frac = value("--min-frac")
                    .parse()
                    .expect("--min-frac takes a float");
            }
            "--shards" => {
                args.shards = value("--shards")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards takes integers"))
                    .collect();
            }
            "--max-shard-frac" => {
                args.max_shard_frac = Some(
                    value("--max-shard-frac")
                        .parse()
                        .expect("--max-shard-frac takes a float"),
                );
            }
            other if !other.starts_with('-') && args.out == "BENCH_scan.json" => {
                // Back-compat: a bare positional argument is the out path.
                args.out = other.to_string();
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

/// The gated speedups of a snapshot produced by this binary
/// (line-oriented; one row per line): binary (p = 256 and p = 128) and
/// weighted kernel-vs-naive by `n`, fused-vs-independent by `(n, q)`,
/// and the `map_query` row — plus the `mcs` row, which has counts only.
#[derive(Default)]
struct Speedups {
    binary: Vec<(usize, f64)>,
    binary_p128: Vec<(usize, f64)>,
    weighted: Vec<(usize, f64)>,
    fused: Vec<(usize, usize, f64)>,
    map_query: Option<MapQueryRow>,
    mcs: Option<McsRow>,
}

/// The gated part of the `map_query` row: its workload, the exact
/// mapping counts, and brute-force time over served-path time.
#[derive(Clone, Copy)]
struct MapQueryRow {
    queries: usize,
    dimensions: usize,
    vf2_calls: usize,
    vf2_pruned: usize,
    extensions: usize,
    speedup: f64,
}

fn parse_map_query(line: &str) -> Option<MapQueryRow> {
    let int = |key: &str| field(line, key).map(|v| v as usize);
    Some(MapQueryRow {
        queries: int("\"queries\"")?,
        dimensions: int("\"dimensions\"")?,
        vf2_calls: int("\"vf2_calls\"")?,
        vf2_pruned: int("\"vf2_pruned\"")?,
        extensions: int("\"extensions\"")?,
        speedup: field(line, "\"speedup\"")?,
    })
}

/// The gated part of the `mcs` row: its workload and the exact totals
/// of the δ fill over it.
#[derive(Clone, Copy, PartialEq)]
struct McsRow {
    graphs: usize,
    node_budget: u64,
    nodes: u64,
    edges: u64,
    inexact: u64,
}

fn parse_mcs(line: &str) -> Option<McsRow> {
    let int = |key: &str| field(line, key).map(|v| v as u64);
    Some(McsRow {
        graphs: int("\"graphs\"")? as usize,
        node_budget: int("\"node_budget\"")?,
        nodes: int("\"nodes\"")?,
        edges: int("\"edges\"")?,
        inexact: int("\"inexact\"")?,
    })
}

fn parse_speedups(json: &str) -> Speedups {
    let mut out = Speedups::default();
    for line in json.lines() {
        if line.contains("\"map_query\"") {
            out.map_query = parse_map_query(line);
        }
        if line.contains("\"mcs\"") {
            out.mcs = parse_mcs(line);
        }
        let Some(n) = field(line, "\"n\"") else {
            continue;
        };
        let n = n as usize;
        if let Some(s) = field(line, "\"binary_speedup\"") {
            out.binary.push((n, s));
        }
        if let Some(s) = field(line, "\"binary_p128_speedup\"") {
            out.binary_p128.push((n, s));
        }
        if let Some(s) = field(line, "\"weighted_speedup\"") {
            out.weighted.push((n, s));
        }
        if let (Some(q), Some(s)) = (field(line, "\"q\""), field(line, "\"fused_qps_speedup\"")) {
            out.fused.push((n, q as usize, s));
        }
    }
    out
}

/// One gate pass: every fresh `(label, speedup)` that has a committed
/// counterpart must stay above `min_frac` of it. Returns how many rows
/// overlapped and whether any failed.
fn gate_rows(
    what: &str,
    fresh: &[(String, f64)],
    committed: &[(String, f64)],
    min_frac: f64,
) -> (usize, bool) {
    let mut checked = 0usize;
    let mut failed = false;
    for (label, got) in fresh {
        let Some((_, want)) = committed.iter().find(|(l, _)| l == label) else {
            continue;
        };
        let floor = want * min_frac;
        let verdict = if got < &floor { "FAIL" } else { "ok" };
        eprintln!(
            "bench-smoke {what} {label}: fresh {got:.2}x vs committed {want:.2}x \
             (floor {floor:.2}x) .. {verdict}"
        );
        failed |= got < &floor;
        checked += 1;
    }
    (checked, failed)
}

fn main() {
    let args = parse_args();
    let exec = ExecConfig::default();
    let kernels: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
    eprintln!(
        "cpu kernels: available [{}], selected {}",
        kernels.join(", "),
        selected_kernel().name()
    );
    let mut rows = Vec::new();
    let mut fused_rows = Vec::new();
    let mut shard_rows = Vec::new();
    let mut fresh = Speedups::default();
    let mut shard_gate_failures = 0usize;
    for &n in &args.sizes {
        let (store, q) = synth(n, 256, args.seed);
        let reps = if n >= 100_000 { 21 } else { 51 };
        let naive = median_ns(reps, || naive_fullsort_topk(&store, &q, 10));
        let kernel = median_ns(reps, || scan_one(&store, q.words(), 10, None));
        let w_sq = vec![1.0 / 256.0; 256];
        let naive_weighted = median_ns(reps, || naive_weighted_topk(&store, &q, &w_sq, 10));
        let weighted = median_ns(reps, || scan_one(&store, q.words(), 10, Some(&w_sq)));
        let (_, wstats) = scan_one(&store, q.words(), 10, Some(&w_sq));
        let (store128, q128) = synth(n, 128, args.seed);
        let naive128 = median_ns(reps, || naive_fullsort_topk(&store128, &q128, 10));
        let kernel128 = median_ns(reps, || scan_one(&store128, q128.words(), 10, None));
        let speedup = naive as f64 / kernel.max(1) as f64;
        let speedup128 = naive128 as f64 / kernel128.max(1) as f64;
        let weighted_speedup = naive_weighted as f64 / weighted.max(1) as f64;
        fresh.binary.push((n, speedup));
        fresh.binary_p128.push((n, speedup128));
        fresh.weighted.push((n, weighted_speedup));
        eprintln!(
            "n={n}: naive {naive} ns, kernel {kernel} ns ({speedup:.1}x), p=128 naive {naive128} \
             ns, kernel {kernel128} ns ({speedup128:.1}x), weighted naive \
             {naive_weighted} ns, kernel {weighted} ns ({weighted_speedup:.1}x, early-abandoned \
             {}/{n}, {} of {} words read)",
            wstats.early_abandoned,
            wstats.words_scanned,
            n * store.stride()
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"p\": 256, \"k\": 10, \"naive_fullsort_ns\": {naive}, \
             \"kernel_binary_ns\": {kernel}, \"naive_weighted_ns\": {naive_weighted}, \
             \"kernel_weighted_ns\": {weighted}, \"binary_speedup\": {speedup:.2}, \
             \"weighted_speedup\": {weighted_speedup:.2}, \"weighted_early_abandoned\": {}, \
             \"weighted_words_scanned\": {}, \"total_words\": {}, \
             \"naive_fullsort_p128_ns\": {naive128}, \"kernel_binary_p128_ns\": {kernel128}, \
             \"binary_p128_speedup\": {speedup128:.2}}}",
            wstats.early_abandoned,
            wstats.words_scanned,
            n * store.stride()
        ));

        // Fused multi-query batch: Q queries answered in one pass over
        // the store vs. Q independent single-query kernel calls — the
        // aggregate-throughput trade `search_batch` rides on (one query
        // is the same range loop on both sides, so the sweep starts
        // at 8). Hits are asserted bit-identical before timing.
        let queries: Vec<Bitset> = synth_queries(64, 256, args.seed);
        for qn in [8usize, 64] {
            let words: Vec<&[u64]> = queries[..qn].iter().map(Bitset::words).collect();
            let fused_answers = scan_fused(&store, &words, 10, &exec);
            for (j, (hits, _)) in fused_answers.iter().enumerate() {
                let (single, _) = scan_one(&store, words[j], 10, None);
                assert_eq!(
                    *hits, single,
                    "fused batch must be bit-identical to independent scans"
                );
            }
            let (independent_ns, fused_ns) = paired_min_ns(
                reps,
                || {
                    words
                        .iter()
                        .map(|w| scan_one(&store, w, 10, None).0[0].0)
                        .sum::<u32>()
                },
                || scan_fused(&store, &words, 10, &exec)[0].0[0].0,
            );
            let fused_speedup = independent_ns as f64 / fused_ns.max(1) as f64;
            fresh.fused.push((n, qn, fused_speedup));
            eprintln!(
                "n={n} fused q={qn}: independent {independent_ns} ns, fused {fused_ns} ns \
                 ({fused_speedup:.2}x)"
            );
            fused_rows.push(format!(
                "    {{\"n\": {n}, \"q\": {qn}, \"k\": 10, \"independent_ns\": {independent_ns}, \
                 \"fused_ns\": {fused_ns}, \"fused_qps_speedup\": {fused_speedup:.2}}}"
            ));
        }

        // Scatter-gather overhead: the same store split into S
        // contiguous sub-stores — per-shard bounded kernels merged to
        // a global top-10 on (distance, seq), the legs + merge the
        // query executor runs.
        for &shards in &args.shards {
            let parts = split_store(&store, shards);
            let sharded_scan = || -> Vec<(u32, f64)> {
                let ranked: Vec<Vec<(u32, f64)>> = parts
                    .iter()
                    .map(|(_, sub)| scan_one(sub, q.words(), 10, None).0)
                    .collect();
                merge_topk(
                    &ranked,
                    10,
                    |s, local| parts[s].0 + local as u64,
                    |s, local| GraphId((parts[s].0 + local as u64) as u32),
                )
                .into_iter()
                .map(|h| (h.id.get(), h.distance))
                .collect()
            };
            // Sanity outside the timed loop: sharded == single-store.
            let (single, _) = scan_one(&store, q.words(), 10, None);
            assert_eq!(
                sharded_scan(),
                single,
                "the sharded scan must be bit-identical to the single-store kernel"
            );
            let (kernel_pair_ns, merged_ns) = paired_min_ns(
                reps,
                || scan_one(&store, q.words(), 10, None).0[0].0,
                &sharded_scan,
            );
            let overhead = merged_ns as f64 / kernel_pair_ns.max(1) as f64;
            let gated = n / shards >= 256;
            let verdict = match args.max_shard_frac {
                Some(max) if gated && overhead > max => {
                    shard_gate_failures += 1;
                    "FAIL"
                }
                Some(_) if gated => "ok",
                _ => "ungated",
            };
            eprintln!(
                "n={n} shards={shards}: merged {merged_ns} ns vs kernel {kernel_pair_ns} ns \
                 ({overhead:.2}x) .. {verdict}"
            );
            shard_rows.push(format!(
                "    {{\"n\": {n}, \"shards\": {shards}, \"k\": 10, \
                 \"merged_topk_ns\": {merged_ns}, \"kernel_binary_ns\": {kernel_pair_ns}, \
                 \"overhead\": {overhead:.2}}}"
            ));
        }
    }

    // Query mapping at the served shape: the brute-force loop (one
    // independent VF2 test per dimension) vs. the served path. The
    // bits are asserted identical before timing; the mapping counts
    // depend only on the seeds below.
    let db = chem_db(60, &ChemConfig::default(), 13);
    let index = GraphIndex::build(db, IndexOptions::default().with_dimensions(128));
    let queries = chem_db(64, &ChemConfig::default(), 99);
    let (mut vf2_calls, mut vf2_pruned, mut extensions) = (0usize, 0usize, 0usize);
    for q in &queries {
        let (bits, s) = index.map_query_with_stats(q);
        assert_eq!(
            bits,
            index.mapped().map_query_unpruned(q),
            "the served mapping must be bit-identical to the brute-force loop"
        );
        vf2_calls += s.vf2_calls;
        vf2_pruned += s.vf2_pruned;
        extensions += s.extensions;
    }
    let (unpruned, pruned) = paired_min_ns(
        31,
        || {
            queries
                .iter()
                .map(|q| index.mapped().map_query_unpruned(q).count_ones())
                .sum::<u32>()
        },
        || {
            queries
                .iter()
                .map(|q| index.map_query(q).count_ones())
                .sum::<u32>()
        },
    );
    let map_row = MapQueryRow {
        queries: queries.len(),
        dimensions: index.p(),
        vf2_calls,
        vf2_pruned,
        extensions,
        speedup: unpruned as f64 / pruned.max(1) as f64,
    };
    let ns_per_query = pruned / queries.len() as u64;
    eprintln!(
        "map_query (p={}, {} queries): unpruned {unpruned} ns, pruned {pruned} ns ({:.2}x), \
         {ns_per_query} ns/query, {vf2_calls} tested / {vf2_pruned} pruned / {extensions} \
         extension steps",
        map_row.dimensions, map_row.queries, map_row.speedup
    );
    fresh.map_query = Some(map_row);

    // The δ fill DSPM is built on, serially: one MCS search per pair of
    // the benchmark's base graphs, in `DeltaMatrix` orientation.
    let base = chem_db(48, &ChemConfig::default(), 42);
    let mcs_opts = DeltaConfig::default().mcs;
    let fill = || {
        let mut totals = McsRow {
            graphs: base.len(),
            node_budget: mcs_opts.node_budget,
            nodes: 0,
            edges: 0,
            inexact: 0,
        };
        for (i, g) in base.iter().enumerate() {
            for h in &base[i + 1..] {
                let out = mcs_edges(g, h, &mcs_opts);
                totals.nodes += out.nodes;
                totals.edges += out.edges as u64;
                totals.inexact += u64::from(!out.exact);
            }
        }
        totals
    };
    let mcs_row = fill();
    let fill_ns = median_ns(3, fill);
    let pairs = base.len() * (base.len() - 1) / 2;
    let ns_per_node = fill_ns as f64 / mcs_row.nodes.max(1) as f64;
    eprintln!(
        "mcs ({} graphs, {pairs} pairs, budget {}): {fill_ns} ns serial, {ns_per_node:.1} \
         ns/node, {} nodes / {} edges / {} inexact",
        mcs_row.graphs, mcs_row.node_budget, mcs_row.nodes, mcs_row.edges, mcs_row.inexact
    );
    fresh.mcs = Some(mcs_row);

    let cpu_kernels: Vec<String> = kernels.iter().map(|k| format!("\"{k}\"")).collect();
    let json = format!(
        "{{\n  \"workload\": \"synthetic 256-bit vectors (25% density), binary top-10; chem \
         map_query p={}; chem mcs delta fill\",\n  \"cpu\": {{\"available_kernels\": [{}], \
         \"selected_kernel\": \"{}\"}},\n  \"binary_scan\": [\n{}\n  ],\n  \"fused_scan\": \
         [\n{}\n  ],\n  \"sharded_scan\": [\n{}\n  ],\n  \"map_query\": {{\"queries\": {}, \
         \"dimensions\": {}, \"unpruned_ns\": {unpruned}, \"pruned_ns\": {pruned}, \
         \"ns_per_query\": {ns_per_query}, \"speedup\": {:.2}, \"vf2_calls\": {vf2_calls}, \
         \"vf2_pruned\": {vf2_pruned}, \"extensions\": {extensions}}},\n  \"mcs\": \
         {{\"graphs\": {}, \"pairs\": {pairs}, \"node_budget\": {}, \"fill_ns\": {fill_ns}, \
         \"ns_per_node\": {ns_per_node:.1}, \"nodes\": {}, \"edges\": {}, \"inexact\": {}}}\n}}\n",
        map_row.dimensions,
        cpu_kernels.join(", "),
        selected_kernel().name(),
        rows.join(",\n"),
        fused_rows.join(",\n"),
        shard_rows.join(",\n"),
        map_row.queries,
        map_row.dimensions,
        map_row.speedup,
        mcs_row.graphs,
        mcs_row.node_budget,
        mcs_row.nodes,
        mcs_row.edges,
        mcs_row.inexact
    );
    std::fs::write(&args.out, &json).expect("write baseline json");
    eprintln!("wrote {}", args.out);

    // Both gates report before either fails the process, so a change
    // that regresses the kernel AND the scatter-gather overhead still
    // prints every per-n verdict in the CI log.
    let mut gate_failed = false;

    // The bench-smoke regression gate (see the module docs): binary,
    // weighted, fused and map_query speedups each against their
    // committed rows, and the map_query and mcs counts exactly.
    if let Some(path) = &args.baseline {
        let committed =
            parse_speedups(&std::fs::read_to_string(path).expect("read committed baseline"));
        let label_n = |rows: &[(usize, f64)]| -> Vec<(String, f64)> {
            rows.iter().map(|&(n, s)| (format!("n={n}"), s)).collect()
        };
        let label_nq = |rows: &[(usize, usize, f64)]| -> Vec<(String, f64)> {
            rows.iter()
                .map(|&(n, q, s)| (format!("n={n} q={q}"), s))
                .collect()
        };
        let label_map = |row: &Option<MapQueryRow>| -> Vec<(String, f64)> {
            row.iter()
                .map(|r| (format!("p={} q={}", r.dimensions, r.queries), r.speedup))
                .collect()
        };
        let mut checked = 0usize;
        for (what, fresh_rows, committed_rows) in [
            ("binary", label_n(&fresh.binary), label_n(&committed.binary)),
            (
                "binary p=128",
                label_n(&fresh.binary_p128),
                label_n(&committed.binary_p128),
            ),
            (
                "weighted",
                label_n(&fresh.weighted),
                label_n(&committed.weighted),
            ),
            ("fused", label_nq(&fresh.fused), label_nq(&committed.fused)),
            (
                "map_query",
                label_map(&fresh.map_query),
                label_map(&committed.map_query),
            ),
        ] {
            let (rows_checked, failed) =
                gate_rows(what, &fresh_rows, &committed_rows, args.min_frac);
            checked += rows_checked;
            if failed {
                eprintln!("bench-smoke: {what} speedup regressed below the committed threshold");
                gate_failed = true;
            }
        }
        match committed.map_query {
            Some(want)
                if (want.queries, want.dimensions) == (map_row.queries, map_row.dimensions) =>
            {
                let same = (want.vf2_calls, want.vf2_pruned, want.extensions)
                    == (vf2_calls, vf2_pruned, extensions);
                eprintln!(
                    "bench-smoke map_query counts: fresh {vf2_calls} tested / {vf2_pruned} \
                     pruned / {extensions} steps vs committed {} / {} / {} .. {}",
                    want.vf2_calls,
                    want.vf2_pruned,
                    want.extensions,
                    if same { "ok" } else { "FAIL" }
                );
                gate_failed |= !same;
            }
            _ => {
                eprintln!("bench-smoke: {path} has no map_query row for this workload");
                gate_failed = true;
            }
        }
        match committed.mcs {
            Some(want)
                if (want.graphs, want.node_budget) == (mcs_row.graphs, mcs_row.node_budget) =>
            {
                let same = want == mcs_row;
                eprintln!(
                    "bench-smoke mcs counts: fresh {} nodes / {} edges / {} inexact vs committed \
                     {} / {} / {} .. {}",
                    mcs_row.nodes,
                    mcs_row.edges,
                    mcs_row.inexact,
                    want.nodes,
                    want.edges,
                    want.inexact,
                    if same { "ok" } else { "FAIL" }
                );
                gate_failed |= !same;
            }
            _ => {
                eprintln!("bench-smoke: {path} has no mcs row for this workload");
                gate_failed = true;
            }
        }
        if checked == 0 {
            eprintln!("bench-smoke: no workload overlaps {path} — nothing was actually gated");
            gate_failed = true;
        }
    }

    // The scatter-gather overhead gate (see the module docs): the
    // sharded scan must stay within max-shard-frac of the single-store
    // kernel at equal total n.
    if let Some(max) = args.max_shard_frac {
        if shard_gate_failures > 0 {
            eprintln!(
                "bench-smoke: {shard_gate_failures} sharded workload(s) exceeded \
                 {max}x scatter-gather overhead"
            );
            gate_failed = true;
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}
