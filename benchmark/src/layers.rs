//! The traced run: one connection sending requests with spans on
//! while the benchmark replays each request in-process, layer by
//! layer, through the same public functions the server calls; then a
//! short closed-loop phase bracketed by two `/metrics` scrapes; then
//! probes of the write path on private copies of the index.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gdim::core::{MappingKind, SearchRequest};
use gdim::graph::Graph;
use gdim::obs::expo::{self, Exposition};
use gdim::obs::{HistogramSnapshot, Stage, StageTimes};
use gdim::server::http::{response_bytes, HeadParser};
use gdim::server::parse_json;
use gdim::server::wire::{
    query_from_json, request_from_json, response_from_json, response_to_json,
};
use gdim::shard::{DurableHandle, ServingHandle, ShardId, ShardedIndex, SyncPolicy};

use crate::env::{clients, out_dir};
use crate::gen::{insert_graphs, search_body, search_request, Op, Stream};
use crate::load::{self, Job, Ledger, Plan};
use crate::reference::{Reference, REFERENCE_OPS_S};
use crate::setup::{connect, ScratchDir, Served};
use crate::spec::{Kind, Workload, APPROX_EF, K, MAX_CLIENTS};
use crate::stats::{median, quantile_of, summarize};
use crate::trace::{self_times, write_jsonl, Tracer};

/// Inserts or removes timed per write-layer probe.
const WRITE_PROBES: usize = 30;
/// Batches of 16 behind `core.scan_fused16_us_per_query`.
const FUSED_BATCHES: usize = 32;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What the traced run hands back besides its metrics.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub ledgers: Vec<Ledger>,
}

fn scrape(addr: SocketAddr) -> Result<Exposition, String> {
    let (status, text) = connect(addr)
        .and_then(|mut c| c.get_text("/metrics"))
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    expo::parse(&text)
}

/// `after - before` for one histogram series; empty when the series
/// does not exist (the WAL registers its metrics on first use).
fn hist_delta(
    before: &Exposition,
    after: &Exposition,
    name: &str,
    labels: &[(&str, &str)],
) -> HistogramSnapshot {
    let Ok(mut delta) = after.histogram(name, labels) else {
        return HistogramSnapshot::new();
    };
    if let Ok(b) = before.histogram(name, labels) {
        for (d, b) in delta.buckets.iter_mut().zip(&b.buckets) {
            *d = d.saturating_sub(*b);
        }
        delta.count = delta.count.saturating_sub(b.count);
        delta.sum = delta.sum.wrapping_sub(b.sum);
    }
    delta
}

fn value_delta(before: &Exposition, after: &Exposition, name: &str) -> f64 {
    after.value(name, &[]).unwrap_or(0.0) - before.value(name, &[]).unwrap_or(0.0)
}

fn p50_us(sample: &mut [u64]) -> f64 {
    quantile_of(sample, 0.50) / 1e3
}

/// The `/search` requests of client 0's stream, in order.
fn search_queries(w: &Workload, seed: u64) -> impl Iterator<Item = usize> {
    let mut stream = Stream::new(w, seed, 0);
    std::iter::repeat_with(move || stream.next_op()).filter_map(|op| match op {
        Op::Search(q) => Some(q),
        _ => None,
    })
}

/// Sums the serial per-shard scans of one query: `(words read, rows
/// skipped as tombstones)`.
fn scan_all_shards(
    index: &ShardedIndex,
    qvec: &gdim::core::Bitset,
    weighted: bool,
) -> (usize, usize) {
    let (mut words, mut skipped) = (0, 0);
    for s in 0..index.shard_count() {
        let shard = index.shard(ShardId(s as u32)).expect("shard in range");
        let k = K.min(shard.len());
        let dead = Some(shard.tombstones());
        let (hits, stats) = if weighted {
            shard
                .mapped()
                .scan_topk_with_masked(qvec, k, shard.weighted_w_sq(), dead)
        } else {
            shard.mapped().scan_topk_masked(qvec, k, dead)
        };
        black_box(hits);
        words += stats.words_scanned;
        skipped += stats.tombstones_skipped;
    }
    (words, skipped)
}

/// Durations (ns) of every span called `name`.
fn durations(tracer: &Tracer, name: &str) -> Vec<u64> {
    tracer
        .spans
        .iter()
        .filter(|s| s.span == name)
        .map(|s| s.duration_ns())
        .collect()
}

/// The traced phase proper: `requests` requests on one connection,
/// each followed by its in-process replay.
fn traced_phase(
    served: &Served,
    w: &Workload,
    seed: u64,
    requests: usize,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let index = served.server.handle().snapshot();
    let sreq = search_request(w);
    let shard0 = index.shard(ShardId(0)).map_err(|e| e.to_string())?;
    let mut client = connect(served.addr).map_err(|e| format!("trace connect: {e}"))?;
    let mut tracer = Tracer::new(requests * 12);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut request_bytes, mut response_bytes_sum) = (0usize, 0usize);
    let (mut vf2_calls, mut vf2_pruned) = (0usize, 0usize);
    let (mut scan_words, mut tombstones, mut beam_visited) = (0usize, 0usize, 0usize);
    let mut stages = StageTimes::new();
    let mut replayed = 0usize;

    for (req, q) in search_queries(w, seed).take(requests).enumerate() {
        let req = req as u32;
        let graph: &Graph = &served.pool[q];
        let t_request = tracer.now();
        let body = search_body(graph, &sreq);

        attempted += 1;
        let t = tracer.now();
        let reply = client.post("/search", &body);
        tracer.end(req, "client.rtt", Some("request"), t);
        if !matches!(reply, Ok((200, _))) {
            failed += 1;
            tracer.end(req, "request", None, t_request);
            continue;
        }

        let t_replay = tracer.now();
        let body_text = body.to_string_compact();
        let wire = format!(
            "POST /search HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n{}",
            served.addr,
            body_text.len(),
            body_text
        );
        request_bytes += wire.len();

        let t = tracer.now();
        let head = HeadParser::new().feed(wire.as_bytes());
        tracer.end(req, "server.http_parse", Some("replay"), t);
        black_box(head.map_err(|e| e.to_string())?);

        let t = tracer.now();
        let j = parse_json(&body_text);
        tracer.end(req, "server.json_parse", Some("replay"), t);
        let j = j.map_err(|e| e.to_string())?;

        let t = tracer.now();
        let decoded = request_from_json(&j).and_then(|r| {
            query_from_json(j.get("query").expect("search_body sets query")).map(|q| (r, q))
        });
        tracer.end(req, "server.wire_decode", Some("replay"), t);
        black_box(decoded.map_err(|e| e.to_string())?);

        let t = tracer.now();
        let resp = index.search(graph, &sreq);
        tracer.end(req, "shard.search", Some("replay"), t);
        let resp = resp.map_err(|e| e.to_string())?;
        stages.merge(&resp.stats.stages);

        let t = tracer.now();
        let (qvec, mstats) = shard0.map_query_with_stats(graph);
        tracer.end(req, "core.map_query", Some("replay"), t);
        vf2_calls += mstats.vf2_calls;
        vf2_pruned += mstats.vf2_pruned;

        let t = tracer.now();
        let (words, skipped) = scan_all_shards(&index, &qvec, false);
        tracer.end(req, "core.scan", Some("replay"), t);
        scan_words += words;
        tombstones += skipped;

        if w.kind == Kind::LargeExact {
            let t = tracer.now();
            black_box(scan_all_shards(&index, &qvec, true));
            tracer.end(req, "core.scan_weighted", Some("replay"), t);
        }
        if w.kind == Kind::LargeApprox {
            let t = tracer.now();
            for s in 0..index.shard_count() {
                let shard = index.shard(ShardId(s as u32)).map_err(|e| e.to_string())?;
                let (hits, stats) =
                    shard.approx_scan_premapped(&qvec, K, APPROX_EF, MappingKind::Binary);
                black_box(hits);
                beam_visited += stats.beam_visited;
            }
            tracer.end(req, "core.ann_beam", Some("replay"), t);
        }

        let t = tracer.now();
        let text = response_to_json(&resp).to_string_compact();
        tracer.end(req, "server.wire_encode", Some("replay"), t);
        response_bytes_sum += response_bytes(200, &text, true).len();

        let t = tracer.now();
        let parsed = parse_json(&text).map_err(|e| e.to_string())?;
        let back = response_from_json(&parsed);
        tracer.end(req, "client.decode", Some("replay"), t);
        black_box(back.map_err(|e| e.to_string())?);

        tracer.end(req, "replay", Some("request"), t_replay);
        tracer.end(req, "request", None, t_request);
        replayed += 1;
    }
    if replayed == 0 {
        return Err("the traced phase replayed no request".to_string());
    }

    write_jsonl(
        &out_dir().join(format!("trace-{}.jsonl", w.name)),
        &tracer.spans,
    )
    .map_err(|e| format!("write trace: {e}"))?;

    let n = replayed as f64;
    let span_p50 = |name: &str| p50_us(&mut durations(&tracer, name));
    let rtt = span_p50("client.rtt");
    let http = span_p50("server.http_parse");
    let json = span_p50("server.json_parse");
    let decode = span_p50("server.wire_decode");
    let search = span_p50("shard.search");
    let encode = span_p50("server.wire_encode");
    let client_decode = span_p50("client.decode");
    let map = span_p50("core.map_query");
    let scan = span_p50("core.scan");
    let beam = span_p50("core.ann_beam");
    m.insert("server.rtt_p50_us", rtt);
    m.insert("server.http_parse_us", http);
    m.insert("server.json_parse_us", json);
    m.insert("server.wire_decode_us", decode);
    m.insert("server.wire_encode_us", encode);
    m.insert("client.decode_us", client_decode);
    m.insert("shard.search_p50_us", search);
    m.insert("core.map_query_p50_us", map);
    m.insert("core.scan_p50_us", scan);
    m.insert("core.scan_weighted_p50_us", span_p50("core.scan_weighted"));
    m.insert("core.ann_beam_p50_us", beam);
    let unaccounted = rtt - (http + json + decode + search + encode + client_decode);
    m.insert("server.unaccounted_us", unaccounted);
    m.insert("server.unaccounted_frac", unaccounted / rtt);
    m.insert("server.request_bytes", request_bytes as f64 / n);
    m.insert("server.response_bytes", response_bytes_sum as f64 / n);
    m.insert("core.vf2_calls_per_query", vf2_calls as f64 / n);
    m.insert(
        "core.vf2_pruned_frac",
        vf2_pruned as f64 / (vf2_calls + vf2_pruned).max(1) as f64,
    );
    m.insert("core.scan_words_per_query", scan_words as f64 / n);
    m.insert(
        "core.scan_ns_per_row",
        scan * 1e3 / index.len().max(1) as f64,
    );
    m.insert("core.tombstones_skipped_per_query", tombstones as f64 / n);
    m.insert("core.ann_beam_visited_per_query", beam_visited as f64 / n);
    let stage_mean_us = |stage| stages.get_ns(stage) as f64 / n / 1e3;
    m.insert("shard.stage_map_us", stage_mean_us(Stage::Map));
    m.insert("shard.stage_scan_us", stage_mean_us(Stage::Scan));
    m.insert("shard.stage_ann_beam_us", stage_mean_us(Stage::AnnBeam));
    m.insert("shard.stage_merge_us", stage_mean_us(Stage::Merge));
    let ranked = if w.kind == Kind::LargeApprox {
        beam
    } else {
        scan
    };
    m.insert("shard.fanout_overhead_us", search - map - ranked);
    let selfs = self_times(&tracer.spans);
    let self_p50 = |name: &str| p50_us(&mut selfs.get(name).cloned().unwrap_or_default());
    m.insert("bench.request_self_us", self_p50("request"));
    m.insert("bench.replay_self_us", self_p50("replay"));
    m.insert("bench.trace_requests", n);
    m.insert("bench.trace_spans", tracer.spans.len() as f64);

    // The same requests again with spans off: the difference in RTT is
    // what tracing (and the replay between requests) costs.
    let mut off_ns = Vec::with_capacity(requests);
    for q in search_queries(w, seed).take(requests) {
        let body = search_body(&served.pool[q], &sreq);
        attempted += 1;
        let t = Instant::now();
        match client.post("/search", &body) {
            Ok((200, _)) => off_ns.push(t.elapsed().as_nanos() as u64),
            _ => failed += 1,
        }
    }
    let off = p50_us(&mut off_ns);
    m.insert(
        "bench.trace_overhead_frac",
        if off > 0.0 { (rtt - off) / off } else { 0.0 },
    );
    Ok((attempted, failed))
}

/// `ShardedIndex::search_batch` over batches of 16 pool queries: the
/// fused use of the scan layer.
fn fused16_us_per_query(served: &Served, sreq: &SearchRequest) -> Result<f64, String> {
    let index = served.server.handle().snapshot();
    let mut per_query_us = Vec::with_capacity(FUSED_BATCHES);
    for b in 0..FUSED_BATCHES {
        let batch: Vec<Graph> = (0..16)
            .map(|i| served.pool[(b * 16 + i) % served.pool.len()].clone())
            .collect();
        let t = Instant::now();
        let out = index
            .search_batch(&batch, sreq)
            .map_err(|e| e.to_string())?;
        per_query_us.push(t.elapsed().as_secs_f64() * 1e6 / 16.0);
        black_box(out);
    }
    Ok(median(&per_query_us))
}

/// Runs `f` and returns its result with the nanoseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// The write path taken apart on private copies of the served index:
/// owned insert, published insert (copy-on-write), remove, durable
/// insert.
fn write_probes(served: &Served, w: &Workload, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let snapshot = served.server.handle().snapshot();
    // A client number no load client uses, so the graphs are new.
    let mut fresh = insert_graphs(seed, MAX_CLIENTS).into_iter();
    let mut next = || fresh.next().expect("insert_graphs outlasts the probes");

    // Owned: after a few inserts no shard is shared with the snapshot
    // any more, so nothing is copied.
    let mut owned = (*snapshot).clone();
    for _ in 0..8 {
        owned.insert(next());
    }
    let mut owned_ns = Vec::with_capacity(WRITE_PROBES);
    for _ in 0..WRITE_PROBES {
        let g = next();
        owned_ns.push(timed(|| owned.insert(g)).1);
    }
    drop(owned);

    // Published: every insert copies the shard it lands in, because
    // the previous snapshot still shares it.
    let handle = ServingHandle::new((*snapshot).clone());
    let mut insert_ns = Vec::with_capacity(WRITE_PROBES);
    let mut ids = Vec::with_capacity(WRITE_PROBES);
    for _ in 0..WRITE_PROBES {
        let g = next();
        let (id, ns) = timed(|| handle.insert(g));
        ids.push(id);
        insert_ns.push(ns);
    }
    let mut remove_ns = Vec::with_capacity(WRITE_PROBES);
    for id in ids {
        let (removed, ns) = timed(|| handle.remove(id));
        if !removed.map_err(|e| e.to_string())? {
            return Err(format!("probe remove of {id:?} was a no-op"));
        }
        remove_ns.push(ns);
    }
    drop(handle);

    let dir = ScratchDir::new(&format!("durable-probe-{}", w.name));
    let durable = DurableHandle::create(&dir.0, (*snapshot).clone(), SyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    let mut durable_ns = Vec::with_capacity(WRITE_PROBES);
    for _ in 0..WRITE_PROBES {
        let g = next();
        let (id, ns) = timed(|| durable.insert(g));
        id.map_err(|e| e.to_string())?;
        durable_ns.push(ns);
    }
    drop(durable);
    drop(dir);

    let owned_p50 = p50_us(&mut owned_ns);
    let insert_p50 = p50_us(&mut insert_ns);
    m.insert("shard.insert_owned_p50_us", owned_p50);
    m.insert("shard.insert_p50_us", insert_p50);
    m.insert("shard.publish_overhead_us", insert_p50 - owned_p50);
    m.insert("shard.remove_p50_us", p50_us(&mut remove_ns));
    m.insert("shard.durable_insert_p50_us", p50_us(&mut durable_ns));
    m.insert("bench.layer_write_samples", WRITE_PROBES as f64);
    Ok(())
}

/// How long the traced run's phases are.
pub struct Phases {
    /// The run's measuring time: four tenths go to the closed loop.
    pub seconds: f64,
    pub windows: usize,
    pub gap: Duration,
    pub trace_requests: usize,
}

/// Runs the traced run's phases against `served`.
pub fn run(
    served: &Served,
    w: &Workload,
    seed: u64,
    phases: &Phases,
    reference: &Reference,
) -> Result<Traced, String> {
    let Phases {
        seconds,
        windows,
        gap,
        trace_requests,
    } = *phases;
    let mut m = Metrics::new();
    let phase_start = Instant::now();

    // First, while the index is exactly what set-up made: the counts
    // the traced phase reports then repeat for a seed.
    let (attempted, failed) = traced_phase(served, w, seed, trace_requests, &mut m)?;

    let before = scrape(served.addr)?;
    let window = Duration::from_secs_f64(seconds * 0.4 / windows as f64);
    let plan = Plan {
        warmup: window,
        gap,
        window,
        windows,
    };
    let pristine = served.server.handle().snapshot();
    let job = Job {
        addr: served.addr,
        workload: w,
        seed,
        pool: &served.pool,
        plan,
    };
    let mut outcome = load::run(job, clients(), &pristine, reference)
        .map_err(|e| format!("reference loop: {e}"))?;
    drop(pristine);
    let after = scrape(served.addr)?;

    let summary = summarize(
        &mut outcome.windows,
        window.as_secs_f64(),
        &outcome.reference_ops_s,
        REFERENCE_OPS_S,
    );
    m.insert("bench.load_throughput_ops_s", summary.raw_throughput_ops_s);
    m.insert("bench.load_search_p50_us", summary.raw_search_p50_us);
    m.insert("bench.machine_speed", summary.machine_speed);
    m.insert("bench.window_spread_frac", summary.window_spread_frac);
    m.insert("bench.search_samples", summary.search_samples as f64);
    m.insert("bench.write_samples", outcome.write_ns.len() as f64);
    m.insert(
        "write_p50_us",
        quantile_of(&mut outcome.write_ns, 0.50) / 1e3,
    );
    m.insert(
        "write_p90_us",
        quantile_of(&mut outcome.write_ns, 0.90) / 1e3,
    );

    let stage = |name: &str| hist_delta(&before, &after, "gdim_stage_ns", &[("stage", name)]);
    m.insert("server.stage_parse_us", stage("parse").mean() / 1e3);
    m.insert("server.stage_serialize_us", stage("serialize").mean() / 1e3);
    let latency = hist_delta(
        &before,
        &after,
        "gdim_request_latency_ns",
        &[("endpoint", "search")],
    );
    m.insert("server.latency_mean_us", latency.mean() / 1e3);
    let records = value_delta(&before, &after, "gdim_wal_records_total");
    m.insert("wal.records", records);
    m.insert(
        "wal.bytes_per_record",
        if records > 0.0 {
            value_delta(&before, &after, "gdim_wal_bytes") / records
        } else {
            0.0
        },
    );
    let wal_p50 = |name: &str| hist_delta(&before, &after, name, &[]).p50() as f64 / 1e3;
    m.insert("wal.append_p50_us", wal_p50("gdim_wal_append_ns"));
    m.insert("wal.fsync_p50_us", wal_p50("gdim_wal_fsync_ns"));

    if w.kind == Kind::LargeExact {
        m.insert(
            "core.scan_fused16_us_per_query",
            fused16_us_per_query(served, &search_request(w))?,
        );
    }
    if w.kind == Kind::MidRw {
        write_probes(served, w, seed, &mut m)?;
    }
    m.insert("bench.trace_phase_s", phase_start.elapsed().as_secs_f64());

    let attempted = attempted + outcome.attempted;
    let failed = failed + outcome.failed;
    m.insert("error_frac", failed as f64 / attempted.max(1) as f64);
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
        ledgers: outcome.ledgers,
    })
}
