//! `serve_baseline` — the closed-loop load harness behind the
//! committed `BENCH_serve.json` snapshot: real TCP clients driving
//! Zipf-skewed search traffic at a target aggregate QPS against an
//! in-process [`GdimServer`], recording end-to-end latency quantiles
//! (p50/p99/p999) and achieved throughput.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin serve_baseline -- \
//!     [--out PATH] [--graphs N] [--shards S] [--dimensions P]
//!     [--clients C] [--requests R] [--target-qps Q] [--batch B]
//!     [--zipf S] [--seed S]
//!     [--baseline PATH] [--min-qps-frac F] [--max-p99-frac F]
//!     [--max-overhead-frac F]
//! ```
//!
//! Each of the `C` client threads owns one keep-alive connection and
//! paces itself at `Q / C` requests per second: send, wait for the
//! full response, sleep until the next tick (no sleep when behind, so
//! an overloaded server shows up as achieved QPS < target rather than
//! as unbounded queueing). Latency is measured send-to-parsed-response
//! per request; quantiles come from the pooled sorted sample.
//!
//! The run is **two servers, interleaved passes**: one fully
//! instrumented (stage tracing + slow-query ring on every request,
//! the default serving configuration) and one with tracing sampled
//! out (the cheapest the observability layer gets). Passes alternate
//! U,I then I,U so drift (thermal, cache, scheduler, cold-start) hits
//! both modes equally; each mode's p50 is the min across its passes. The
//! snapshot gains `uninstrumented_p50_us` and `overhead_p50_frac` —
//! the observability tax at the median, which the CI gate pins.
//!
//! Gates:
//!
//! * `--min-qps-frac F` — fail if fresh `achieved_qps` drops below
//!   `F ×` the committed one from `--baseline` (default 0.25:
//!   generous, because the committed number may come from different
//!   hardware).
//! * `--max-p99-frac F` — fail if fresh `p99_us` exceeds `F ×` the
//!   committed one (default 4.0, same reasoning).
//! * `--max-overhead-frac F` — fail if instrumented p50 exceeds
//!   uninstrumented p50 by more than `F` (default 0.05), with 25 µs
//!   of absolute grace so µs-scale scheduler noise cannot flake the
//!   gate. Runs whenever the bench runs — no committed file needed.
//! * the **codec ratios** — before the load phase the `wire` block
//!   times the JSON codec on one served-shape response (a real `k = 10`
//!   answer from the index just built): `encode_tree_ns`
//!   (`response_to_json` + `to_string_compact`, the reference path),
//!   `encode_stream_ns` (`write_response` into a reused buffer, what
//!   the server runs), `parse_response_ns` (what `Client::post` pays),
//!   and the parser's cost per byte on that response repeated to 1 KiB
//!   and to 64 KiB. Two same-run ratios are gated, with fixed
//!   thresholds and no flag, because no runner speed can fake either:
//!   the tree path must cost at least 2.5 × the streaming one (else
//!   the server is building trees again), and a byte of a 64 KiB
//!   document at most 4 × a byte of a 1 KiB one (else parsing is
//!   super-linear again: the quadratic string scanner measured ~30 ×).
//!
//! Every served answer is asserted **bit-identical** to the in-process
//! [`ServingHandle`] answer for the same query before timing starts —
//! the harness refuses to measure a wrong server.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdim_core::{GraphId, IndexOptions, SearchRequest, SearchResponse};
use gdim_datagen::{chem_db, zipf_workload, ChemConfig, ZipfConfig};
use gdim_server::wire::{response_from_json, response_to_json, write_response};
use gdim_server::{Client, GdimServer, Json, ServerConfig};
use gdim_shard::{ServingHandle, ShardedIndex, ShardedOptions};

struct Args {
    out: String,
    graphs: usize,
    shards: usize,
    dimensions: usize,
    clients: usize,
    requests: usize,
    target_qps: f64,
    batch: usize,
    zipf: f64,
    seed: u64,
    baseline: Option<String>,
    min_qps_frac: f64,
    max_p99_frac: f64,
    max_overhead_frac: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_serve.json".to_string(),
        graphs: 300,
        shards: 4,
        dimensions: 16,
        clients: 4,
        requests: 2000,
        target_qps: 2000.0,
        batch: 8,
        zipf: 1.0,
        seed: 42,
        baseline: None,
        min_qps_frac: 0.25,
        max_p99_frac: 4.0,
        max_overhead_frac: 0.05,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => args.out = value("--out"),
            "--graphs" => args.graphs = value("--graphs").parse().expect("--graphs: integer"),
            "--shards" => args.shards = value("--shards").parse().expect("--shards: integer"),
            "--dimensions" => {
                args.dimensions = value("--dimensions")
                    .parse()
                    .expect("--dimensions: integer")
            }
            "--clients" => args.clients = value("--clients").parse().expect("--clients: integer"),
            "--requests" => {
                args.requests = value("--requests").parse().expect("--requests: integer")
            }
            "--target-qps" => {
                args.target_qps = value("--target-qps").parse().expect("--target-qps: number")
            }
            "--batch" => args.batch = value("--batch").parse().expect("--batch: integer"),
            "--zipf" => args.zipf = value("--zipf").parse().expect("--zipf: number"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--min-qps-frac" => {
                args.min_qps_frac = value("--min-qps-frac")
                    .parse()
                    .expect("--min-qps-frac: number")
            }
            "--max-p99-frac" => {
                args.max_p99_frac = value("--max-p99-frac")
                    .parse()
                    .expect("--max-p99-frac: number")
            }
            "--max-overhead-frac" => {
                args.max_overhead_frac = value("--max-overhead-frac")
                    .parse()
                    .expect("--max-overhead-frac: number")
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        args.clients >= 1 && args.requests >= args.clients,
        "need clients ≥ 1, requests ≥ clients"
    );
    args
}

fn search_body(id: u32, k: usize) -> Json {
    Json::obj([
        ("query", Json::obj([("id", Json::U64(id as u64))])),
        ("k", Json::U64(k as u64)),
    ])
}

/// One paced closed-loop client: `ids` queries at `interval` spacing.
/// Returns per-request latencies (µs) and the error count.
fn run_client(addr: SocketAddr, ids: Vec<u32>, interval: Duration, k: usize) -> (Vec<u64>, u64) {
    let mut client = Client::connect(addr).expect("connect load client");
    let mut latencies = Vec::with_capacity(ids.len());
    let mut errors = 0u64;
    let mut next = Instant::now();
    for id in ids {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        next += interval; // fixed schedule: lateness is not forgiven
        let t = Instant::now();
        match client.post("/search", &search_body(id, k)) {
            Ok((200, _)) => latencies.push(t.elapsed().as_micros() as u64),
            Ok(_) | Err(_) => errors += 1,
        }
    }
    (latencies, errors)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A numeric field out of a committed snapshot (parsed with the
/// server's own JSON module — one source of truth for the format).
fn baseline_field(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

/// One full closed-loop pass against `addr`: C paced clients, the
/// whole workload. Returns sorted latencies (µs), errors, and wall.
fn run_pass(
    addr: SocketAddr,
    args: &Args,
    ids: &Arc<Vec<u32>>,
    k: usize,
) -> (Vec<u64>, u64, Duration) {
    let per_client = args.requests / args.clients;
    let interval = Duration::from_secs_f64(args.clients as f64 / args.target_qps);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let ids = Arc::clone(ids);
            let clients = args.clients;
            std::thread::spawn(move || {
                let slice: Vec<u32> = ids
                    .iter()
                    .skip(c)
                    .step_by(clients)
                    .take(per_client)
                    .copied()
                    .collect();
                run_client(addr, slice, interval, k)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(per_client * args.clients);
    let mut errors = 0u64;
    for w in workers {
        let (lat, err) = w.join().expect("load client thread");
        latencies.extend(lat);
        errors += err;
    }
    let wall = t0.elapsed();
    latencies.sort_unstable();
    (latencies, errors, wall)
}

/// Mean nanoseconds per call of `f`: the fastest of five batches of
/// `iters` calls.
fn ns_per_call<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The `wire` block: codec timings on one served-shape response.
struct WireCosts {
    response_bytes: usize,
    encode_tree_ns: f64,
    encode_stream_ns: f64,
    parse_response_ns: f64,
    parse_ns_per_byte_1k: f64,
    parse_ns_per_byte_64k: f64,
}

/// Below this the server has gone back to building a tree per answer.
const MIN_TREE_OVER_STREAM: f64 = 2.5;
/// Above this the parser's cost per byte grows with the document.
const MAX_64K_OVER_1K: f64 = 4.0;

fn measure_wire(resp: &SearchResponse) -> WireCosts {
    let text = response_to_json(resp).to_string_compact();
    let mut streamed = String::new();
    write_response(resp, &mut streamed);
    assert_eq!(
        streamed, text,
        "streamed bytes must equal the tree encoding"
    );
    // `[resp,resp,…]` up to the target size: the same token mix at
    // every length, so only the length can move the per-byte cost.
    let repeated = |target: usize| {
        let copies = target.div_ceil(text.len() + 1);
        format!("[{}]", vec![text.as_str(); copies].join(","))
    };
    // ~1 MiB parsed per batch, whatever the document's size.
    let per_byte = |doc: &str| {
        ns_per_call(((1 << 20) / doc.len()).max(3), || {
            gdim_server::parse_json(doc).expect("valid document")
        }) / doc.len() as f64
    };
    WireCosts {
        response_bytes: text.len(),
        encode_tree_ns: ns_per_call(2000, || response_to_json(resp).to_string_compact()),
        encode_stream_ns: ns_per_call(2000, || {
            streamed.clear();
            write_response(resp, &mut streamed);
            streamed.len()
        }),
        parse_response_ns: ns_per_call(2000, || {
            gdim_server::parse_json(&text).expect("valid response")
        }),
        parse_ns_per_byte_1k: per_byte(&repeated(1 << 10)),
        parse_ns_per_byte_64k: per_byte(&repeated(1 << 16)),
    }
}

fn main() {
    let args = parse_args();
    let k = 10usize;

    eprintln!(
        "building index: {} graphs, {} shards, {} dimensions (seed {})...",
        args.graphs, args.shards, args.dimensions, args.seed
    );
    let db = chem_db(args.graphs, &ChemConfig::default(), args.seed);
    let index = ShardedIndex::build(
        db,
        ShardedOptions::new(args.shards)
            .with_index(IndexOptions::default().with_dimensions(args.dimensions)),
    );
    let handle = ServingHandle::new(index);
    // Two servers over the same index: the default (fully
    // instrumented — per-request stage traces and ring pushes) and a
    // minimally-instrumented twin (tracing sampled out, slow logging
    // off). The difference between them is the observability tax.
    let server = GdimServer::start(
        handle.clone(),
        ServerConfig::new().with_workers(args.clients.max(2)),
    )
    .expect("bind loopback server");
    let server_min = GdimServer::start(
        handle.clone(),
        ServerConfig::new()
            .with_workers(args.clients.max(2))
            .with_slow_ms(0)
            .with_trace_sample(u64::MAX),
    )
    .expect("bind minimal-instrumentation server");
    let addr = server.addr();
    let addr_min = server_min.addr();
    eprintln!("serving on {addr} with {} workers", args.clients.max(2));

    // Zipf-skewed traffic over the live graphs, by insertion seq →
    // composed id.
    let snap = handle.snapshot();
    let seqs = zipf_workload(
        args.graphs,
        args.requests,
        &ZipfConfig {
            exponent: args.zipf,
            shuffle: true,
        },
        args.seed,
    );
    let ids: Vec<u32> = seqs
        .iter()
        .map(|&s| {
            snap.id_for_seq(s as u64)
                .expect("fresh index has every seq")
                .get()
        })
        .collect();

    // Correctness first: the served answer for a sample of queries
    // must be bit-identical to the in-process one.
    {
        let mut probe = Client::connect(addr).expect("probe client");
        for &id in ids.iter().take(16) {
            let (status, j) = probe
                .post("/search", &search_body(id, k))
                .expect("probe search");
            assert_eq!(status, 200, "probe failed: {j:?}");
            let served = response_from_json(&j).expect("parse served response");
            let local = snap
                .search(snap.graph(GraphId(id)).unwrap(), &SearchRequest::new(k))
                .unwrap();
            assert_eq!(served.hits.len(), local.hits.len(), "hit count for id {id}");
            for (a, b) in served.hits.iter().zip(&local.hits) {
                assert_eq!(a.id, b.id, "hit id for query {id}");
                assert_eq!(
                    a.distance.to_bits(),
                    b.distance.to_bits(),
                    "served distance must be bit-identical (query {id})"
                );
            }
        }
        eprintln!("bit-identity probe passed (16 queries)");
    }

    // The codec on its own, before any load: same run, same response,
    // so the two ratios gated at the end are machine-independent.
    let WireCosts {
        response_bytes,
        encode_tree_ns,
        encode_stream_ns,
        parse_response_ns,
        parse_ns_per_byte_1k,
        parse_ns_per_byte_64k,
    } = {
        let q = snap.graph(GraphId(ids[0])).unwrap();
        measure_wire(&snap.search(q, &SearchRequest::new(k)).unwrap())
    };
    eprintln!(
        "wire: {response_bytes} B response: encode tree {encode_tree_ns:.0} ns / stream \
         {encode_stream_ns:.0} ns, parse {parse_response_ns:.0} ns; parse per byte \
         {parse_ns_per_byte_1k:.2} ns at 1 KiB, {parse_ns_per_byte_64k:.2} ns at 64 KiB"
    );

    // The timed runs, interleaved U,I then I,U so cold-start and
    // frequency-governor drift hit both modes symmetrically (neither
    // mode always runs first). The committed headline numbers come
    // from the instrumented (default-configuration) passes.
    let ids = Arc::new(ids);
    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut wall = Duration::ZERO;
    let mut p50_full = u64::MAX;
    let mut p50_min = u64::MAX;
    for pass in 0..2 {
        let order: [bool; 2] = if pass % 2 == 0 {
            [false, true] // uninstrumented first
        } else {
            [true, false]
        };
        let mut pass_p50_u = 0;
        let mut pass_p50_i = 0;
        for instrumented in order {
            if instrumented {
                let (lat_i, err_i, wall_i) = run_pass(addr, &args, &ids, k);
                pass_p50_i = quantile(&lat_i, 0.50);
                p50_full = p50_full.min(pass_p50_i);
                errors += err_i;
                wall += wall_i;
                latencies.extend(lat_i);
            } else {
                let (lat_u, err_u, _) = run_pass(addr_min, &args, &ids, k);
                pass_p50_u = quantile(&lat_u, 0.50);
                p50_min = p50_min.min(pass_p50_u);
                errors += err_u;
            }
        }
        eprintln!(
            "pass {pass}: uninstrumented p50 {pass_p50_u} µs, instrumented p50 {pass_p50_i} µs"
        );
    }
    server.shutdown();
    server_min.shutdown();

    assert_eq!(errors, 0, "load run saw {errors} failed requests");
    latencies.sort_unstable();
    let total = latencies.len();
    let achieved_qps = total as f64 / wall.as_secs_f64();
    let overhead_frac = if p50_min > 0 {
        p50_full as f64 / p50_min as f64 - 1.0
    } else {
        0.0
    };
    let mean_us = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64;
    let (p50, p99, p999) = (
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.99),
        quantile(&latencies, 0.999),
    );
    let max_us = latencies.last().copied().unwrap_or(0);
    eprintln!(
        "{total} requests in {wall:.2?}: achieved {achieved_qps:.0} qps (target {:.0}), \
         p50 {p50} µs, p99 {p99} µs, p999 {p999} µs, max {max_us} µs",
        args.target_qps
    );

    let json = format!(
        "{{\n  \"schema\": \"gdim-serve-bench-v1\",\n  \"graphs\": {},\n  \"shards\": {},\n  \
         \"dimensions\": {},\n  \"clients\": {},\n  \"requests\": {total},\n  \"k\": {k},\n  \
         \"zipf_exponent\": {},\n  \"target_qps\": {},\n  \"achieved_qps\": {achieved_qps:.1},\n  \
         \"mean_us\": {mean_us:.1},\n  \"p50_us\": {p50},\n  \"p99_us\": {p99},\n  \
         \"p999_us\": {p999},\n  \"max_us\": {max_us},\n  \
         \"uninstrumented_p50_us\": {p50_min},\n  \
         \"overhead_p50_frac\": {overhead_frac:.4},\n  \"errors\": {errors},\n  \
         \"wire\": {{\n    \"response_bytes\": {response_bytes},\n    \
         \"encode_tree_ns\": {encode_tree_ns:.0},\n    \
         \"encode_stream_ns\": {encode_stream_ns:.0},\n    \
         \"parse_response_ns\": {parse_response_ns:.0},\n    \
         \"parse_ns_per_byte_1k\": {parse_ns_per_byte_1k:.2},\n    \
         \"parse_ns_per_byte_64k\": {parse_ns_per_byte_64k:.2}\n  }}\n}}\n",
        args.graphs, args.shards, args.dimensions, args.clients, args.zipf, args.target_qps
    );
    std::fs::write(&args.out, &json).expect("write snapshot");
    eprintln!("wrote {}", args.out);

    // The perf gate against a committed snapshot.
    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).expect("read committed baseline");
        let committed = gdim_server::parse_json(&text).expect("parse committed baseline");
        let mut failed = false;
        if let Some(want_qps) = baseline_field(&committed, "achieved_qps") {
            let floor = want_qps * args.min_qps_frac;
            let verdict = if achieved_qps < floor { "FAIL" } else { "ok" };
            eprintln!(
                "serve-smoke qps: fresh {achieved_qps:.0} vs committed {want_qps:.0} \
                 (floor {floor:.0}) .. {verdict}"
            );
            failed |= achieved_qps < floor;
        }
        if let Some(want_p99) = baseline_field(&committed, "p99_us") {
            let ceil = want_p99 * args.max_p99_frac;
            let verdict = if (p99 as f64) > ceil { "FAIL" } else { "ok" };
            eprintln!(
                "serve-smoke p99: fresh {p99} µs vs committed {want_p99:.0} µs \
                 (ceiling {ceil:.0}) .. {verdict}"
            );
            failed |= (p99 as f64) > ceil;
        }
        if failed {
            eprintln!("serve-smoke: FAILED the serving perf gate");
            std::process::exit(1);
        }
        eprintln!("serve-smoke: gate passed");
    }

    // The codec gates: both sides of each ratio come from this run.
    let encode_ratio = encode_tree_ns / encode_stream_ns;
    let parse_ratio = parse_ns_per_byte_64k / parse_ns_per_byte_1k;
    let (encode_ok, parse_ok) = (
        encode_ratio >= MIN_TREE_OVER_STREAM,
        parse_ratio <= MAX_64K_OVER_1K,
    );
    let verdict = |ok: bool| if ok { "ok" } else { "FAIL" };
    eprintln!(
        "wire encode: tree / stream {encode_ratio:.2}x (floor {MIN_TREE_OVER_STREAM}x) .. {}",
        verdict(encode_ok)
    );
    eprintln!(
        "wire parse: per byte at 64 KiB / at 1 KiB {parse_ratio:.2}x \
         (ceiling {MAX_64K_OVER_1K}x) .. {}",
        verdict(parse_ok)
    );
    if !(encode_ok && parse_ok) {
        eprintln!("wire: the JSON codec failed a same-run ratio gate");
        std::process::exit(1);
    }

    // The instrumentation-overhead gate needs no committed file: both
    // sides were measured in this run. 25 µs of absolute grace keeps
    // µs-scale scheduler noise from flaking the fraction.
    let ceiling = p50_min as f64 * (1.0 + args.max_overhead_frac) + 25.0;
    let verdict = if (p50_full as f64) > ceiling {
        "FAIL"
    } else {
        "ok"
    };
    eprintln!(
        "obs-overhead p50: instrumented {p50_full} µs vs uninstrumented {p50_min} µs \
         ({overhead_frac:+.1}%, ceiling {ceiling:.0} µs) .. {verdict}",
        overhead_frac = overhead_frac * 100.0
    );
    if (p50_full as f64) > ceiling {
        eprintln!("obs-overhead: instrumentation exceeded --max-overhead-frac");
        std::process::exit(1);
    }
}
