//! `scan_baseline` — records the committed `BENCH_scan.json` snapshot
//! and gates a fresh run against it. Medians / interleaved minima of
//! repeated timed runs of:
//!
//! * the naive full-sort scan vs. the bounded SoA kernel, binary **and**
//!   weighted, on synthetic vector stores (n ∈ {1k, 10k, 100k}, p = 256,
//!   top-10), and the binary pair again at p = 128, the two-word stride
//!   the end-to-end benchmark serves;
//! * the scatter-gather scan: the same store split into 8 contiguous
//!   sub-stores, each scanned with the bounded kernel and merged to a
//!   global top-10 with `gdim_shard::merge_topk` — the per-partition
//!   legs and the merge the query executor runs, in order on one thread
//!   as here;
//! * query mapping on a chem workload (64 queries onto p = 128
//!   dimensions): the brute-force loop of independent VF2 tests vs. the
//!   served path — one search over the dimensions' DFS-code prefix
//!   tree — with its exact work counts (columns tested / pruned,
//!   extension steps);
//! * the δ fill DSPM is built on: one serial MCS search per pair of the
//!   end-to-end benchmark's 48 base graphs (`chem_db(48, .., 42)`) at
//!   `DeltaConfig::default()`, with its time per search node and its
//!   exact totals (nodes, common edges, pairs stopped by the budget).
//!
//! Every fast path's answers are asserted equal to its reference's
//! before timing. The snapshot records the machine's kernels under
//! `cpu` ([`cpu_kernels`]).
//!
//! ```text
//! cargo run --release -p gdim-bench --bin scan_baseline -- \
//!     [--out PATH] [--baseline PATH] [--smoke]
//! ```
//!
//! `--smoke` measures n ∈ {1k, 10k} only, as CI's bench-smoke does.
//! Every ratio compares two runs on the same machine, so no gate
//! depends on runner speed:
//!
//! * against `--baseline`, each speedup (`binary_speedup`,
//!   `binary_p128_speedup`, `weighted_speedup`, the `map_query`
//!   `speedup`) must stay at or above [`MIN_FRAC`] of its committed
//!   row.
//! * against `--baseline`, the `map_query` row's `vf2_calls` /
//!   `vf2_pruned` / `extensions` and the `mcs` row's `nodes` / `edges` /
//!   `inexact` must **equal** the committed integers: they are fixed by
//!   the seeds, not the machine. A code-tree change that takes one step
//!   more or fewer fails here whatever it does to the time; most δ pairs
//!   stop at the node budget, so an MCS search that visits one node more
//!   or fewer changes δ and fails here however fast it is. `ns_per_node`
//!   is reported, not gated.
//! * always, the sharded scan may take at most [`MAX_SHARD_OVERHEAD`] ×
//!   the single-store kernel at equal n, from [`MIN_ROWS_PER_SHARD`]
//!   rows per shard: below that the fixed per-shard selector + merge
//!   cost is a few µs against a few-µs scan, and the row prints
//!   `ungated`. The single-store kernel walks 256 rows per kernel call;
//!   each leg adds a fixed cost that the kernel's speed does not shrink
//!   (the call, filling its own selector, the merge), so at n = 10,000
//!   the ratio reads about 1.5× on an AVX-512 machine.

use gdim_bench::gate::{fixed, int, median_ns, paired_min_ns, write_snapshot, Args, Gate, Rule};
use gdim_bench::scanwork::{
    cpu_kernels, naive_fullsort_topk, naive_weighted_topk, scan_one, split_store, synth,
};
use gdim_core::{DeltaConfig, GraphId, GraphIndex, IndexOptions};
use gdim_datagen::{chem_db, ChemConfig};
use gdim_graph::mcs_edges;
use gdim_graph::vf2::is_subgraph_iso;
use gdim_server::Json;
use gdim_shard::merge_topk;

/// Store sizes measured; `--smoke` takes the first two.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Splitmix seed of the synthetic vectors.
const SEED: u64 = 42;
/// Sub-stores of the scatter-gather scan.
const SHARDS: usize = 8;
/// A fresh speedup must stay at or above a quarter of its committed
/// row.
const MIN_FRAC: Rule = Rule::AtLeast(0.25);
/// The sharded scan may take at most this multiple of the single-store
/// kernel.
const MAX_SHARD_OVERHEAD: f64 = 1.6;
/// Below this many rows per shard the sharded scan is not gated.
const MIN_ROWS_PER_SHARD: usize = 256;

fn main() {
    let args = Args::parse("BENCH_scan.json", true);
    let mut gate = Gate::new("bench-smoke", args.baseline);
    let cpu = cpu_kernels();
    let sizes = if args.smoke { &SIZES[..2] } else { &SIZES[..] };
    let (mut rows, mut shard_rows) = (Vec::new(), Vec::new());
    for &n in sizes {
        let (store, q) = synth(n, 256, SEED);
        let reps = if n >= 100_000 { 21 } else { 51 };
        let naive = median_ns(reps, || naive_fullsort_topk(&store, &q, 10));
        let kernel = median_ns(reps, || scan_one(&store, q.words(), 10, None));
        let w_sq = vec![1.0 / 256.0; 256];
        let naive_weighted = median_ns(reps, || naive_weighted_topk(&store, &q, &w_sq, 10));
        let weighted = median_ns(reps, || scan_one(&store, q.words(), 10, Some(&w_sq)));
        let (_, wstats) = scan_one(&store, q.words(), 10, Some(&w_sq));
        let (store128, q128) = synth(n, 128, SEED);
        let naive128 = median_ns(reps, || naive_fullsort_topk(&store128, &q128, 10));
        let kernel128 = median_ns(reps, || scan_one(&store128, q128.words(), 10, None));
        let speedup = naive as f64 / kernel.max(1) as f64;
        let speedup128 = naive128 as f64 / kernel128.max(1) as f64;
        let weighted_speedup = naive_weighted as f64 / weighted.max(1) as f64;
        eprintln!(
            "n={n}: naive {naive} ns, kernel {kernel} ns ({speedup:.1}x), p=128 naive {naive128} \
             ns, kernel {kernel128} ns ({speedup128:.1}x), weighted naive \
             {naive_weighted} ns, kernel {weighted} ns ({weighted_speedup:.1}x, early-abandoned \
             {}/{n}, {} of {} words read)",
            wstats.early_abandoned,
            wstats.words_scanned,
            n * store.stride()
        );
        let row = Json::obj([
            ("n", int(n)),
            ("p", int(256)),
            ("k", int(10)),
            ("naive_fullsort_ns", Json::U64(naive)),
            ("kernel_binary_ns", Json::U64(kernel)),
            ("naive_weighted_ns", Json::U64(naive_weighted)),
            ("kernel_weighted_ns", Json::U64(weighted)),
            ("binary_speedup", fixed(speedup, 2)),
            ("weighted_speedup", fixed(weighted_speedup, 2)),
            ("weighted_early_abandoned", int(wstats.early_abandoned)),
            ("weighted_words_scanned", int(wstats.words_scanned)),
            ("total_words", int(n * store.stride())),
            ("naive_fullsort_p128_ns", Json::U64(naive128)),
            ("kernel_binary_p128_ns", Json::U64(kernel128)),
            ("binary_p128_speedup", fixed(speedup128, 2)),
        ]);
        let speedups = ["binary_speedup", "binary_p128_speedup", "weighted_speedup"];
        gate.compare(
            "binary_scan",
            &["n"],
            &row,
            &speedups.map(|key| (key, MIN_FRAC)),
        );
        rows.push(row);

        // Scatter-gather overhead: per-shard bounded kernels merged to
        // a global top-10 on (distance, seq), against the single-store
        // kernel at equal n.
        let parts = split_store(&store, SHARDS);
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
        eprintln!("n={n} shards={SHARDS}: merged {merged_ns} ns vs kernel {kernel_pair_ns} ns");
        let label = format!("sharded_scan n={n} shards={SHARDS} overhead");
        if n / SHARDS >= MIN_ROWS_PER_SHARD {
            gate.ceiling(&label, overhead, MAX_SHARD_OVERHEAD);
        } else {
            let why = format!("below {MIN_ROWS_PER_SHARD} rows per shard");
            gate.ungated(&label, overhead, &why);
        }
        shard_rows.push(Json::obj([
            ("n", int(n)),
            ("shards", int(SHARDS)),
            ("k", int(10)),
            ("merged_topk_ns", Json::U64(merged_ns)),
            ("kernel_binary_ns", Json::U64(kernel_pair_ns)),
            ("overhead", fixed(overhead, 2)),
        ]));
    }

    // Query mapping at the served shape: the brute-force loop (one
    // independent VF2 test per dimension, its pattern graph spelled out
    // once up front) vs. the served path. The bits are asserted
    // identical before timing; the mapping counts depend only on the
    // seeds below.
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
    let patterns: Vec<_> = index
        .mapped()
        .codes()
        .iter()
        .map(|c| c.to_graph())
        .collect();
    let (unpruned, pruned) = paired_min_ns(
        31,
        || {
            queries
                .iter()
                .map(|q| patterns.iter().filter(|f| is_subgraph_iso(f, q)).count() as u32)
                .sum::<u32>()
        },
        || {
            queries
                .iter()
                .map(|q| index.map_query(q).count_ones())
                .sum::<u32>()
        },
    );
    let speedup = unpruned as f64 / pruned.max(1) as f64;
    let ns_per_query = pruned / queries.len() as u64;
    let map_row = Json::obj([
        ("queries", int(queries.len())),
        ("dimensions", int(index.p())),
        ("unpruned_ns", Json::U64(unpruned)),
        ("pruned_ns", Json::U64(pruned)),
        ("ns_per_query", Json::U64(ns_per_query)),
        ("speedup", fixed(speedup, 2)),
        ("vf2_calls", int(vf2_calls)),
        ("vf2_pruned", int(vf2_pruned)),
        ("extensions", int(extensions)),
    ]);
    eprintln!("map_query: {map_row}");
    let checks = [
        ("speedup", MIN_FRAC),
        ("vf2_calls", Rule::Equal),
        ("vf2_pruned", Rule::Equal),
        ("extensions", Rule::Equal),
    ];
    gate.compare("map_query", &["queries", "dimensions"], &map_row, &checks);

    // The δ fill DSPM is built on, serially: one MCS search per pair of
    // the benchmark's base graphs, in `DeltaMatrix` orientation.
    let base = chem_db(48, &ChemConfig::default(), 42);
    let mcs_opts = DeltaConfig::default().mcs;
    let fill = || {
        let (mut nodes, mut edges, mut inexact) = (0u64, 0u64, 0u64);
        for (i, g) in base.iter().enumerate() {
            for h in &base[i + 1..] {
                let out = mcs_edges(g, h, &mcs_opts);
                nodes += out.nodes;
                edges += out.edges as u64;
                inexact += u64::from(!out.exact);
            }
        }
        (nodes, edges, inexact)
    };
    let (nodes, edges, inexact) = fill();
    let fill_ns = median_ns(3, fill);
    let pairs = base.len() * (base.len() - 1) / 2;
    let ns_per_node = fill_ns as f64 / nodes.max(1) as f64;
    let mcs_row = Json::obj([
        ("graphs", int(base.len())),
        ("pairs", int(pairs)),
        ("node_budget", Json::U64(mcs_opts.node_budget)),
        ("fill_ns", Json::U64(fill_ns)),
        ("ns_per_node", fixed(ns_per_node, 1)),
        ("nodes", Json::U64(nodes)),
        ("edges", Json::U64(edges)),
        ("inexact", Json::U64(inexact)),
    ]);
    eprintln!("mcs: {mcs_row}");
    let counts = ["nodes", "edges", "inexact"].map(|key| (key, Rule::Equal));
    gate.compare("mcs", &["graphs", "node_budget"], &mcs_row, &counts);

    let workload = format!(
        "synthetic 256-bit vectors (25% density), binary top-10; chem map_query p={}; chem mcs \
         delta fill",
        index.p()
    );
    let snapshot = Json::obj([
        ("workload", Json::Str(workload)),
        ("cpu", cpu),
        ("binary_scan", Json::Arr(rows)),
        ("sharded_scan", Json::Arr(shard_rows)),
        ("map_query", map_row),
        ("mcs", mcs_row),
    ]);
    write_snapshot(&args.out, &snapshot, &[]);
    gate.exit();
}
