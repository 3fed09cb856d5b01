//! `serve_baseline` — the closed-loop load harness behind the
//! committed `BENCH_serve.json` snapshot: real TCP clients driving
//! Zipf-skewed search traffic at a target aggregate QPS against an
//! in-process [`GdimServer`], recording end-to-end latency quantiles
//! (p50/p99/p999) and achieved throughput.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin serve_baseline -- \
//!     [--out PATH] [--baseline PATH]
//! ```
//!
//! The workload is fixed: 300 chem graphs in 4 shards of 16
//! dimensions, 4 clients, 2,000 top-10 requests per pass at a 2,000
//! QPS target, Zipf exponent 1.0, seed 42 — the same in CI's
//! serve-smoke and in the committed file.
//!
//! Each client thread owns one keep-alive connection and paces itself
//! at its share of the target: send, wait for the full response, sleep
//! until the next tick (no sleep when behind, so an overloaded server
//! shows up as achieved QPS < target rather than as unbounded
//! queueing). Latency is measured send-to-parsed-response per request;
//! quantiles come from the pooled sorted sample.
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
//! Before the load phase the `wire` block times the JSON codec on one
//! served-shape response (a real `k = 10` answer from the index just
//! built): `encode_tree_ns` (`response_to_json` + `to_string_compact`,
//! the reference path), `encode_stream_ns` (`write_response` into a
//! reused buffer, what the server runs), `parse_response_ns` (what
//! `Client::post` pays), and the parser's cost per byte on that
//! response repeated to 1 KiB and to 64 KiB. It also times the request
//! side on one served-shape `/search` body (that query's graph inline,
//! default options, compact — what the end-to-end benchmark sends):
//! `decode_tree_ns` (`parse` + `request_from_json` + `query_from_json`,
//! the reference and fallback path) and `decode_onepass_ns`
//! (`decode_search`, what the server runs), after asserting the two
//! decode the body to equal values.
//!
//! Gates:
//!
//! * against `--baseline`: fresh `achieved_qps` ≥ [`MIN_QPS_FRAC`] ×
//!   the committed one, and fresh `p99_us` ≤ [`MAX_P99_MULT`] × the
//!   committed one — generous, because the committed numbers may come
//!   from different hardware;
//! * always, the **observability tax**: instrumented p50 may exceed
//!   uninstrumented p50 by at most [`MAX_OVERHEAD_FRAC`], with
//!   [`OVERHEAD_GRACE_US`] of absolute grace so µs-scale scheduler
//!   noise cannot flake the gate;
//! * always, the **codec ratios**, same-run so no runner speed can fake
//!   any: the tree encoding must cost at least [`MIN_TREE_OVER_STREAM`]
//!   × the streaming one (else the server is building trees again), a
//!   byte of a 64 KiB document at most [`MAX_64K_OVER_1K`] × a byte of a
//!   1 KiB one (else parsing is super-linear again: the quadratic
//!   string scanner measured ~30 ×), and the tree decode of a `/search`
//!   body at least [`MIN_TREE_OVER_ONEPASS`] × the one-pass decode
//!   (else the one-pass decoder has lost its point).
//!
//! Every served answer is asserted **bit-identical** to the in-process
//! [`ServingHandle`] answer for the same query before timing starts —
//! the harness refuses to measure a wrong server.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdim_bench::gate::{fixed, int, ns_per_call, quantile, write_snapshot, Args, Gate, Rule};
use gdim_core::{Graph, GraphId, IndexOptions, SearchRequest, SearchResponse};
use gdim_datagen::{chem_db, zipf_workload, ChemConfig, ZipfConfig};
use gdim_server::wire::{
    decode_search, query_from_json, query_to_json, request_from_json, request_to_json,
    response_from_json, response_to_json, write_response,
};
use gdim_server::{Client, GdimServer, Json, QuerySpec, ServerConfig};
use gdim_shard::{ServingHandle, ShardedIndex, ShardedOptions};

const GRAPHS: usize = 300;
const SHARDS: usize = 4;
const DIMENSIONS: usize = 16;
/// Load clients, and the server's worker threads.
const CLIENTS: usize = 4;
/// Requests per pass.
const REQUESTS: usize = 2_000;
const TARGET_QPS: f64 = 2_000.0;
const ZIPF: f64 = 1.0;
const SEED: u64 = 42;
const K: usize = 10;
/// Fresh `achieved_qps` must stay at or above a quarter of the
/// committed one...
const MIN_QPS_FRAC: Rule = Rule::AtLeast(0.25);
/// ...and fresh `p99_us` at or below four times the committed one.
const MAX_P99_MULT: Rule = Rule::AtMost(4.0);
/// Instrumented p50 may exceed uninstrumented p50 by this fraction...
const MAX_OVERHEAD_FRAC: f64 = 0.05;
/// ...plus this many µs.
const OVERHEAD_GRACE_US: f64 = 25.0;
/// Below this the server has gone back to building a tree per answer.
const MIN_TREE_OVER_STREAM: f64 = 2.5;
/// Above this the parser's cost per byte grows with the document.
const MAX_64K_OVER_1K: f64 = 4.0;
/// Below this the server's `/search` decode has gone back to a tree.
const MIN_TREE_OVER_ONEPASS: f64 = 2.0;

fn search_body(id: u32) -> Json {
    Json::obj([
        ("query", Json::obj([("id", Json::U64(id as u64))])),
        ("k", Json::U64(K as u64)),
    ])
}

/// One paced closed-loop client: `ids` queries at `interval` spacing.
/// Returns per-request latencies (µs) and the error count.
fn run_client(addr: SocketAddr, ids: Vec<u32>, interval: Duration) -> (Vec<u64>, u64) {
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
        match client.post("/search", &search_body(id)) {
            Ok((200, _)) => latencies.push(t.elapsed().as_micros() as u64),
            Ok(_) | Err(_) => errors += 1,
        }
    }
    (latencies, errors)
}

/// One full closed-loop pass against `addr`: the paced clients, the
/// whole workload. Returns sorted latencies (µs), errors, and wall.
fn run_pass(addr: SocketAddr, ids: &Arc<Vec<u32>>) -> (Vec<u64>, u64, Duration) {
    let per_client = REQUESTS / CLIENTS;
    let interval = Duration::from_secs_f64(CLIENTS as f64 / TARGET_QPS);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ids = Arc::clone(ids);
            std::thread::spawn(move || {
                let slice: Vec<u32> = ids
                    .iter()
                    .skip(c)
                    .step_by(CLIENTS)
                    .take(per_client)
                    .copied()
                    .collect();
                run_client(addr, slice, interval)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(REQUESTS);
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

/// The `wire` block: codec timings on one served-shape response and
/// one served-shape `/search` body (`query`'s graph inline, as the
/// end-to-end benchmark sends it), and the three same-run ratio gates
/// on them.
fn measure_wire(query: &Graph, resp: &SearchResponse, gate: &mut Gate) -> Json {
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
    let tree = ns_per_call(2000, || response_to_json(resp).to_string_compact());
    let stream = ns_per_call(2000, || {
        streamed.clear();
        write_response(resp, &mut streamed);
        streamed.len()
    });
    let parse = ns_per_call(2000, || {
        gdim_server::parse_json(&text).expect("valid response")
    });
    let (per_byte_1k, per_byte_64k) = (per_byte(&repeated(1 << 10)), per_byte(&repeated(1 << 16)));
    let ratio = tree / stream;
    gate.floor("wire encode tree/stream", ratio, MIN_TREE_OVER_STREAM);
    let growth = per_byte_64k / per_byte_1k;
    gate.ceiling("wire parse per byte 64 KiB/1 KiB", growth, MAX_64K_OVER_1K);

    let Json::Obj(mut fields) = request_to_json(&SearchRequest::new(K)) else {
        unreachable!("requests encode as objects");
    };
    fields.insert(
        0,
        (
            "query".into(),
            query_to_json(&QuerySpec::Graph(query.clone())),
        ),
    );
    let body = Json::Obj(fields).to_string_compact();
    let decode_tree = || {
        let j = gdim_server::parse_json(std::hint::black_box(&body)).expect("valid body");
        let req = request_from_json(&j).expect("valid request");
        (
            req,
            query_from_json(j.get("query").expect("query key")).expect("valid query"),
        )
    };
    let decoded = decode_search(body.as_bytes()).expect("a compact body decodes in one pass");
    assert_eq!(
        (decoded.0, QuerySpec::Graph(decoded.1)),
        decode_tree(),
        "the one-pass decode must equal the tree decode"
    );
    let decode_tree_ns = ns_per_call(2000, decode_tree);
    let decode_onepass_ns = ns_per_call(2000, || {
        decode_search(std::hint::black_box(body.as_bytes()))
    });
    gate.floor(
        "wire decode tree/one-pass",
        decode_tree_ns / decode_onepass_ns,
        MIN_TREE_OVER_ONEPASS,
    );
    Json::obj([
        ("response_bytes", int(text.len())),
        ("encode_tree_ns", fixed(tree, 0)),
        ("encode_stream_ns", fixed(stream, 0)),
        ("parse_response_ns", fixed(parse, 0)),
        ("parse_ns_per_byte_1k", fixed(per_byte_1k, 2)),
        ("parse_ns_per_byte_64k", fixed(per_byte_64k, 2)),
        ("request_bytes", int(body.len())),
        ("decode_tree_ns", fixed(decode_tree_ns, 0)),
        ("decode_onepass_ns", fixed(decode_onepass_ns, 0)),
    ])
}

fn main() {
    let args = Args::parse("BENCH_serve.json", false);
    let mut gate = Gate::new("serve-smoke", args.baseline);

    eprintln!(
        "building index: {GRAPHS} graphs, {SHARDS} shards, {DIMENSIONS} dimensions (seed {SEED})..."
    );
    let db = chem_db(GRAPHS, &ChemConfig::default(), SEED);
    let index = ShardedIndex::build(
        db,
        ShardedOptions::new(SHARDS).with_index(IndexOptions::default().with_dimensions(DIMENSIONS)),
    );
    let handle = ServingHandle::new(index);
    // Two servers over the same index: the default (fully
    // instrumented — per-request stage traces and ring pushes) and a
    // minimally-instrumented twin (tracing sampled out, slow logging
    // off). The difference between them is the observability tax.
    let server = GdimServer::start(handle.clone(), ServerConfig::new().with_workers(CLIENTS))
        .expect("bind loopback server");
    let server_min = GdimServer::start(
        handle.clone(),
        ServerConfig::new()
            .with_workers(CLIENTS)
            .with_slow_ms(0)
            .with_trace_sample(u64::MAX),
    )
    .expect("bind minimal-instrumentation server");
    let addr = server.addr();
    let addr_min = server_min.addr();
    eprintln!("serving on {addr} with {CLIENTS} workers");

    // Zipf-skewed traffic over the live graphs, by insertion seq →
    // composed id.
    let snap = handle.snapshot();
    let zipf = ZipfConfig {
        exponent: ZIPF,
        shuffle: true,
    };
    let ids: Vec<u32> = zipf_workload(GRAPHS, REQUESTS, &zipf, SEED)
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
                .post("/search", &search_body(id))
                .expect("probe search");
            assert_eq!(status, 200, "probe failed: {j:?}");
            let served = response_from_json(&j).expect("parse served response");
            let local = snap
                .search(snap.graph(GraphId(id)).unwrap(), &SearchRequest::new(K))
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
    // so the two ratios it gates are machine-independent.
    let wire = {
        let q = snap.graph(GraphId(ids[0])).unwrap();
        measure_wire(
            q,
            &snap.search(q, &SearchRequest::new(K)).unwrap(),
            &mut gate,
        )
    };
    eprintln!("wire: {wire}");

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
        let (mut pass_p50_u, mut pass_p50_i) = (0, 0);
        for instrumented in [pass == 1, pass == 0] {
            let (lat, err, pass_wall) = run_pass(if instrumented { addr } else { addr_min }, &ids);
            errors += err;
            if instrumented {
                pass_p50_i = quantile(&lat, 0.50);
                p50_full = p50_full.min(pass_p50_i);
                wall += pass_wall;
                latencies.extend(lat);
            } else {
                pass_p50_u = quantile(&lat, 0.50);
                p50_min = p50_min.min(pass_p50_u);
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
        "{total} requests in {wall:.2?}: achieved {achieved_qps:.0} qps (target {TARGET_QPS:.0}), \
         p50 {p50} µs, p99 {p99} µs, p999 {p999} µs, max {max_us} µs"
    );

    let snapshot = Json::obj([
        ("schema", Json::Str("gdim-serve-bench-v1".into())),
        ("graphs", int(GRAPHS)),
        ("shards", int(SHARDS)),
        ("dimensions", int(DIMENSIONS)),
        ("clients", int(CLIENTS)),
        ("requests", int(total)),
        ("k", int(K)),
        ("zipf_exponent", Json::F64(ZIPF)),
        ("target_qps", Json::F64(TARGET_QPS)),
        ("achieved_qps", fixed(achieved_qps, 1)),
        ("mean_us", fixed(mean_us, 1)),
        ("p50_us", Json::U64(p50)),
        ("p99_us", Json::U64(p99)),
        ("p999_us", Json::U64(p999)),
        ("max_us", Json::U64(max_us)),
        ("uninstrumented_p50_us", Json::U64(p50_min)),
        ("overhead_p50_frac", fixed(overhead_frac, 4)),
        ("errors", Json::U64(errors)),
        ("wire", wire),
    ]);
    write_snapshot(&args.out, &snapshot, &["wire"]);

    let checks = [("achieved_qps", MIN_QPS_FRAC), ("p99_us", MAX_P99_MULT)];
    gate.compare("", &[], &snapshot, &checks);
    let ceiling = p50_min as f64 * (1.0 + MAX_OVERHEAD_FRAC) + OVERHEAD_GRACE_US;
    gate.ceiling("obs-overhead instrumented p50 µs", p50_full as f64, ceiling);
    gate.exit();
}
