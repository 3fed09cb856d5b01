//! The per-worker `/search` result cache
//! (`gdim::server::result_cache`): a body is stored on its second miss
//! and then answers exactly what the search answers — hits and every
//! work counter — for the snapshot it was stored under; a publish of any kind moves answers
//! to the new snapshot; two indexes never share an answer; over-cap
//! bodies and answers and refused bodies bypass the table; and a hit's
//! body is `write_response` of the search's answer with the hit's own
//! timings.
//!
//! Servers here run one worker, so every connection of a test lands
//! on one thread and one table. The hit / miss counters are
//! process-wide, so every test holds [`LOCK`] while it searches.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use gdim::core::SearchStats;
use gdim::datagen::{chem_db, ChemConfig};
use gdim::obs::StageTimes;
use gdim::prelude::*;
use gdim::server::parse_json;
use gdim::server::result_cache::{self, RESULT_CACHE_MAX_ENTRY};
use gdim::server::wire::{graph_to_json, request_to_json, response_from_json, write_response};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(hits, misses)` so far in this process.
fn counts() -> (u64, u64) {
    let registry = gdim::obs::global();
    (
        registry
            .counter("gdim_result_cache_hits_total", "", &[])
            .get(),
        registry
            .counter("gdim_result_cache_misses_total", "", &[])
            .get(),
    )
}

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    chem_db(n, &ChemConfig::default(), seed)
}

fn index(n: usize, seed: u64) -> ShardedIndex {
    ShardedIndex::build(
        chem(n, seed),
        ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(10)),
    )
}

fn one_worker() -> ServerConfig {
    ServerConfig::new().with_workers(1)
}

/// The `/search` body for an inline graph, in the shape every encoder
/// here writes.
fn body(q: &Graph, req: &SearchRequest) -> String {
    let Json::Obj(mut fields) = request_to_json(req) else {
        unreachable!("request_to_json returns an object");
    };
    fields.insert(
        0,
        (
            "query".to_string(),
            Json::obj([("graph", graph_to_json(q))]),
        ),
    );
    Json::Obj(fields).to_string_compact()
}

/// POSTs `body` to `path` on a fresh connection; the status and the
/// response body's bytes.
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, text) = reply.split_once("\r\n\r\n").expect("a response head");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, text.to_string())
}

fn search(addr: SocketAddr, body: &str) -> SearchResponse {
    let (status, text) = post(addr, "/search", body);
    assert_eq!(status, 200, "{text}");
    response_from_json(&parse_json(&text).unwrap()).unwrap()
}

/// Hits as `(id, distance bits)` plus the whole stats with their
/// timings zeroed: all of an answer but its timings.
fn work(r: &SearchResponse) -> String {
    let hits: Vec<(u32, u64)> = r
        .hits
        .iter()
        .map(|h| (h.id.get(), h.distance.to_bits()))
        .collect();
    format!("{hits:?} {:?}", untimed(&r.stats))
}

/// `stats` with `match_time`, `wall_time` and `stages` zeroed.
fn untimed(stats: &SearchStats) -> SearchStats {
    SearchStats {
        match_time: Duration::ZERO,
        wall_time: Duration::ZERO,
        stages: StageTimes::new(),
        ..*stats
    }
}

/// Sends `body` and holds the answer to `want`'s work; `hit` says
/// which side of the table it must come from.
fn expect(addr: SocketAddr, body: &str, want: &SearchResponse, hit: bool, what: &str) {
    let before = counts();
    let got = search(addr, body);
    assert_eq!(work(&got), work(want), "{what}");
    let after = counts();
    let delta = (after.0 - before.0, after.1 - before.1);
    assert_eq!(delta, if hit { (1, 0) } else { (0, 1) }, "{what}");
    if hit {
        assert_eq!(got.stats.match_time, Duration::ZERO, "{what}");
        let stages: Vec<_> = got.stats.stages.iter().map(|(s, _)| s).collect();
        assert_eq!(stages, [gdim::obs::Stage::Cache], "{what}");
    }
}

/// A body new to the table: it misses twice — a miss is stored only
/// when the same key missed a short while before — then hits.
fn expect_stored(addr: SocketAddr, body: &str, want: &SearchResponse, what: &str) {
    expect(addr, body, want, false, &format!("{what}, first"));
    expect(addr, body, want, false, &format!("{what}, second"));
    expect(addr, body, want, true, &format!("{what}, repeat"));
}

#[test]
fn first_and_repeated_bodies_equal_the_in_process_search() {
    let _serial = serial();
    let server = GdimServer::start(ServingHandle::new(index(24, 3)), one_worker()).unwrap();
    let snap = server.handle().snapshot();
    let rankers = [
        Ranker::Mapped,
        Ranker::Approx {
            ef: 16,
            verify: None,
        },
        Ranker::Refined { candidates: 6 },
        Ranker::Exact,
    ];
    let queries = chem(3, 91);
    for ranker in rankers {
        let req = SearchRequest::new(5).ranker(ranker);
        for (i, q) in queries.iter().enumerate() {
            let want = snap.search(q, &req).unwrap();
            let b = body(q, &req);
            expect_stored(server.addr(), &b, &want, &format!("{ranker:?} q{i}"));
        }
    }
    server.shutdown();
}

#[test]
fn a_repeat_after_a_publish_answers_from_the_new_snapshot() {
    let _serial = serial();
    let q = chem(1, 17).remove(0);
    let req = SearchRequest::new(4);
    let b = body(&q, &req);
    let insert = Json::obj([("graph", graph_to_json(&q))]).to_string_compact();
    // Every step must change the answer, or a stale hit could pass.
    let step = |server: &GdimServer, path: &str, payload: &str, before: &SearchResponse| {
        let (status, text) = post(server.addr(), path, payload);
        assert_eq!(status, 200, "{path}: {text}");
        let want = server.handle().snapshot().search(&q, &req).unwrap();
        assert_ne!(work(&want), work(before), "{path} changes the answer");
        expect_stored(server.addr(), &b, &want, &format!("after {path}"));
        (text, want)
    };

    let server = GdimServer::start(ServingHandle::new(index(24, 5)), one_worker()).unwrap();
    let first = server.handle().snapshot().search(&q, &req).unwrap();
    expect_stored(server.addr(), &b, &first, "before any write");
    let (ack, now) = step(&server, "/insert", &insert, &first);
    let id = parse_json(&ack)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    let remove = Json::obj([("id", Json::U64(id))]).to_string_compact();
    let (_, now) = step(&server, "/remove", &remove, &now);
    step(&server, "/rebuild", "{\"mode\":\"sync\"}", &now);
    server.shutdown();

    let dir = std::env::temp_dir().join(format!("gdim-result-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableHandle::create(&dir, index(24, 5), SyncPolicy::Always).unwrap();
    let server = GdimServer::start_durable(durable, one_worker()).unwrap();
    let first = server.handle().snapshot().search(&q, &req).unwrap();
    expect(server.addr(), &b, &first, false, "durable first");
    let (_, now) = step(&server, "/insert", &insert, &first);
    // A checkpoint publishes nothing: the snapshot, and so every answer
    // stored under it, stays.
    let (status, text) = post(server.addr(), "/checkpoint", "");
    assert_eq!(status, 200, "{text}");
    expect(server.addr(), &b, &now, true, "after /checkpoint");
    step(&server, "/rebuild", "", &now);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_indexes_served_from_one_thread_never_share_an_answer() {
    // A server's workers serve one handle; a thread serving two (here,
    // the test thread through the route's own cache call) is where a
    // snapshot id that was unique per handle only would collide.
    let _serial = serial();
    let handles = [
        ServingHandle::new(index(24, 5)),
        ServingHandle::new(index(24, 6)),
    ];
    let readers = handles.each_ref().map(ServingHandle::reader);
    let q = chem(1, 23).remove(0);
    let req = SearchRequest::new(5);
    let b = body(&q, &req);
    let wants = handles
        .each_ref()
        .map(|h| h.snapshot().search(&q, &req).unwrap());
    assert_ne!(work(&wants[0]), work(&wants[1]), "the indexes answer apart");
    for round in 0..3 {
        for (reader, want) in readers.iter().zip(&wants) {
            let (id, snap) = reader.current_with_id();
            let got = result_cache::answer(id, b.as_bytes(), || snap.search(&q, &req)).unwrap();
            assert_eq!(work(&got), work(want), "round {round}");
        }
    }
    // And over the wire, two servers fed one body.
    let servers = handles.map(|h| GdimServer::start(h, one_worker()).unwrap());
    for _ in 0..3 {
        for (server, want) in servers.iter().zip(&wants) {
            assert_eq!(work(&search(server.addr(), &b)), work(want));
        }
    }
}

#[test]
fn over_cap_bodies_and_answers_bypass_the_table() {
    let _serial = serial();
    let mut idx = index(24, 7);
    for g in chem(RESULT_CACHE_MAX_ENTRY + 100, 8) {
        idx.insert(g);
    }
    let server = GdimServer::start(ServingHandle::new(idx), one_worker()).unwrap();
    let snap = server.handle().snapshot();
    let req = SearchRequest::new(5);
    // Bodies whose key alone passes the cap: a long path, and an id
    // query padded with spaces.
    let n = RESULT_CACHE_MAX_ENTRY as u32;
    let path = Graph::from_parts(vec![0; n as usize], (1..n).map(|i| (i - 1, i, 0))).unwrap();
    let long = body(&path, &req);
    assert!(long.len() > RESULT_CACHE_MAX_ENTRY);
    let id0 = snap.id_for_seq(0).unwrap();
    let padded = format!(
        "{{\"query\": {{\"id\": {}}}, \"k\": 5{}}}",
        id0.get(),
        " ".repeat(RESULT_CACHE_MAX_ENTRY)
    );
    let id0 = snap.graph(id0).unwrap().clone();
    // An answer past the cap: every row, at least a byte a hit.
    let q = chem(1, 29).remove(0);
    let all = SearchRequest::new(usize::MAX);
    let wide = body(&q, &all);
    assert!(wide.len() < 400);
    let wide_want = snap.search(&q, &all).unwrap();
    assert!(wide_want.hits.len() > RESULT_CACHE_MAX_ENTRY);
    for (b, want) in [
        (&long, snap.search(&path, &req).unwrap()),
        (&padded, snap.search(&id0, &req).unwrap()),
        (&wide, wide_want),
    ] {
        for round in 0..3 {
            expect(server.addr(), b, &want, false, &format!("round {round}"));
        }
    }
    // The same query with a small answer is stored.
    let small = body(&q, &req);
    let want = snap.search(&q, &req).unwrap();
    expect_stored(server.addr(), &small, &want, "small");
    server.shutdown();
}

#[test]
fn a_refused_body_is_never_cached() {
    let _serial = serial();
    let server = GdimServer::start(ServingHandle::new(index(24, 9)), one_worker()).unwrap();
    let bad_edge = "{\"query\":{\"graph\":{\"v\":[0,0],\"e\":[[0,5,0]]}},\"k\":3}";
    let unknown_id = "{\"query\":{\"id\":4000000},\"k\":3}";
    for (b, status) in [(bad_edge, 400), (unknown_id, 404)] {
        for round in 0..3 {
            let before = counts();
            let (got, text) = post(server.addr(), "/search", b);
            assert_eq!(got, status, "round {round}: {text}");
            let after = counts();
            assert_eq!((after.0 - before.0, after.1 - before.1), (0, 1), "{b}");
        }
    }
    server.shutdown();
}

#[test]
fn a_hit_body_is_write_response_of_the_search_with_its_own_timings() {
    let _serial = serial();
    let server = GdimServer::start(ServingHandle::new(index(24, 11)), one_worker()).unwrap();
    let q = chem(1, 31).remove(0);
    for req in [
        SearchRequest::new(6),
        SearchRequest::new(3).ranker(Ranker::Refined { candidates: 5 }),
    ] {
        let b = body(&q, &req);
        for _ in 0..2 {
            let (status, _) = post(server.addr(), "/search", &b);
            assert_eq!(status, 200);
        }
        let before = counts();
        let (status, text) = post(server.addr(), "/search", &b);
        assert_eq!(status, 200);
        assert_eq!(counts().0, before.0 + 1, "the repeat is a hit");
        let hit = response_from_json(&parse_json(&text).unwrap()).unwrap();
        let mut want = server.handle().snapshot().search(&q, &req).unwrap();
        want.stats.match_time = hit.stats.match_time;
        want.stats.wall_time = hit.stats.wall_time;
        want.stats.stages = hit.stats.stages;
        let mut encoded = String::new();
        write_response(&want, &mut encoded);
        assert_eq!(text, encoded);
    }
    server.shutdown();
}
