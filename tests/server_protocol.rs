//! End-to-end protocol contract of the network serving layer (PR 7):
//! a real [`GdimServer`] on an ephemeral port, driven by raw TCP
//! clients — the happy path, keep-alive reuse, oversized bodies, torn
//! requests, unknown routes, and concurrent clients — with every
//! served answer pinned **bit-identical** to the in-process
//! [`ServingHandle`] answer for the same query.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

use gdim::prelude::*;
use gdim::server::wire::response_from_json;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn start_server(n: usize, seed: u64) -> GdimServer {
    let index = ShardedIndex::build(
        chem(n, seed),
        ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(10)),
    );
    let cfg = ServerConfig::new().with_workers(4);
    GdimServer::start(ServingHandle::new(index), cfg).expect("bind ephemeral port")
}

fn search_body(id: u32, k: usize) -> Json {
    Json::obj([
        ("query", Json::obj([("id", Json::U64(id as u64))])),
        ("k", Json::U64(k as u64)),
    ])
}

/// Reads exactly one HTTP response off `stream` (head + sized body);
/// returns `(status, connection_header, body)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "EOF before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => content_length = value.trim().parse().unwrap(),
            "connection" => connection = value.trim().to_string(),
            _ => {}
        }
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    (status, connection, String::from_utf8(body).unwrap())
}

fn post_bytes(path: &str, body: &str, extra_headers: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n{extra_headers}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Every served hit must equal the in-process answer bit for bit.
fn assert_bit_identical(served_json: &Json, snap: &ShardedIndex, id: u32, k: usize) {
    let served = response_from_json(served_json).expect("parse served response");
    let local = snap
        .search(snap.graph(GraphId(id)).unwrap(), &SearchRequest::new(k))
        .unwrap();
    assert_eq!(served.hits.len(), local.hits.len(), "hit count, query {id}");
    for (a, b) in served.hits.iter().zip(&local.hits) {
        assert_eq!(a.id, b.id, "hit id, query {id}");
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "distance bits, query {id}"
        );
    }
}

#[test]
fn served_answers_are_bit_identical_to_the_serving_handle() {
    let server = start_server(20, 11);
    let snap = server.handle().snapshot();
    let mut client = Client::connect(server.addr()).unwrap();
    for seq in [0u64, 7, 19] {
        let id = snap.id_for_seq(seq).unwrap().get();
        let (status, j) = client.post("/search", &search_body(id, 5)).unwrap();
        assert_eq!(status, 200, "{j:?}");
        assert_bit_identical(&j, &snap, id, 5);
    }
    server.shutdown();
}

#[test]
fn keep_alive_carries_multiple_requests_on_one_connection() {
    let server = start_server(16, 12);
    let snap = server.handle().snapshot();
    let id = snap.id_for_seq(3).unwrap().get();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Two requests back to back on the same socket.
    for round in 0..2 {
        let body = search_body(id, 3).to_string_compact();
        stream.write_all(&post_bytes("/search", &body, "")).unwrap();
        let (status, connection, payload) = read_one_response(&mut stream);
        assert_eq!(status, 200, "round {round}");
        assert_eq!(connection, "keep-alive", "round {round}");
        let j = gdim::server::parse_json(&payload).unwrap();
        assert_bit_identical(&j, &snap, id, 3);
    }
    // `Connection: close` is honored: the reply says close and the
    // server hangs up.
    let body = search_body(id, 3).to_string_compact();
    stream
        .write_all(&post_bytes("/search", &body, "connection: close\r\n"))
        .unwrap();
    let (status, connection, _) = read_one_response(&mut stream);
    assert_eq!((status, connection.as_str()), (200, "close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after a closed exchange");
    server.shutdown();
}

#[test]
fn oversized_declared_bodies_answer_413_without_reading_them() {
    let server = start_server(12, 13);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Declare 2 MiB (over the 1 MiB default cap) but send nothing —
    // the refusal must come from the declaration alone.
    stream
        .write_all(b"POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: 2097152\r\n\r\n")
        .unwrap();
    let (status, connection, payload) = read_one_response(&mut stream);
    assert_eq!(status, 413);
    assert_eq!(connection, "close");
    let j = gdim::server::parse_json(&payload).unwrap();
    assert_eq!(
        j.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("body_too_large")
    );
    server.shutdown();
}

#[test]
fn torn_requests_answer_400_torn_request() {
    let server = start_server(12, 14);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Half a request head, then EOF on the write side.
    stream
        .write_all(b"POST /search HTTP/1.1\r\ncontent-le")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let (status, _, payload) = read_one_response(&mut stream);
    assert_eq!(status, 400);
    let j = gdim::server::parse_json(&payload).unwrap();
    assert_eq!(
        j.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("torn_request")
    );
    server.shutdown();
}

#[test]
fn unknown_routes_answer_404_with_a_stable_code() {
    let server = start_server(12, 15);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /no/such/route HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (status, _, payload) = read_one_response(&mut stream);
    assert_eq!(status, 404);
    let j = gdim::server::parse_json(&payload).unwrap();
    assert_eq!(
        j.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_route")
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_bit_identical_answers() {
    let server = start_server(24, 16);
    let snap = server.handle().snapshot();
    let addr = server.addr();
    let ids: Vec<u32> = (0..24).map(|s| snap.id_for_seq(s).unwrap().get()).collect();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let ids = ids.clone();
            let snap = snap.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..10 {
                    let id = ids[(t * 7 + round * 3) % ids.len()];
                    let (status, j) = client.post("/search", &search_body(id, 4)).unwrap();
                    assert_eq!(status, 200, "thread {t} round {round}: {j:?}");
                    assert_bit_identical(&j, &snap, id, 4);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_without_dropping_a_full_request() {
    let server = start_server(12, 17);
    let snap = server.handle().snapshot();
    let id = snap.id_for_seq(0).unwrap().get();
    let mut client = Client::connect(server.addr()).unwrap();
    // A request right before the drain still answers.
    let (status, _) = client.post("/search", &search_body(id, 3)).unwrap();
    assert_eq!(status, 200);
    let (status, j) = client.post("/shutdown", &Json::Null).unwrap();
    assert_eq!(
        (status, j.get("stopping").and_then(Json::as_bool)),
        (200, Some(true))
    );
    server.wait();
    server.shutdown(); // must not hang
}

/// `(id, distance bits)` of every hit, in rank order.
fn hit_bits(resp: &SearchResponse) -> Vec<(u32, u64)> {
    resp.hits
        .iter()
        .map(|h| (h.id.get(), h.distance.to_bits()))
        .collect()
}

#[test]
fn request_sizes_past_the_index_answer_like_the_whole_index() {
    // `ef`, `k`, `candidates` and `verify` are caller input. Past the
    // index they change nothing but what the answer echoes: a beam as
    // wide as a shard's graph keeps every node, and a selector never
    // holds more than the live rows. Each answer is asked in process
    // and over the wire, and the two must agree bit for bit.
    let mut index = ShardedIndex::build(
        chem(24, 29),
        ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(10)),
    );
    for seq in [2u64, 15] {
        let dead = index.id_for_seq(seq).unwrap();
        assert!(index.remove(dead).unwrap());
    }
    let (n, live) = (index.len(), index.live_len());
    let server = GdimServer::start(
        ServingHandle::new(index),
        ServerConfig::new().with_workers(2),
    )
    .expect("bind ephemeral port");
    let snap = server.handle().snapshot();
    let id = snap.id_for_seq(3).unwrap();
    let query = snap.graph(id).unwrap().clone();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut answer = |req: SearchRequest| -> SearchResponse {
        let local = snap.search(&query, &req).unwrap();
        let mut body = gdim::server::wire::request_to_json(&req);
        let Json::Obj(pairs) = &mut body else {
            unreachable!("a request serializes to an object")
        };
        pairs.push((
            "query".into(),
            Json::obj([("id", Json::U64(id.get() as u64))]),
        ));
        let (status, j) = client.post("/search", &body).unwrap();
        assert_eq!(status, 200, "{req:?}: {j:?}");
        let served = response_from_json(&j).expect("parse served response");
        assert_eq!(hit_bits(&served), hit_bits(&local), "{req:?}");
        assert_eq!(served.stats.ef, local.stats.ef, "{req:?}");
        assert_eq!(
            served.stats.beam_visited, local.stats.beam_visited,
            "{req:?}"
        );
        local
    };
    let approx = |ef| SearchRequest::new(10).ranker(Ranker::Approx { ef, verify: None });
    let at_n = answer(approx(n));
    for ef in [1usize << 40, usize::MAX] {
        let wide = answer(approx(ef));
        assert_eq!(hit_bits(&wide), hit_bits(&at_n), "ef = {ef}");
        assert_eq!(
            wide.stats.beam_visited, at_n.stats.beam_visited,
            "ef = {ef}"
        );
        assert_eq!(wide.stats.ef, ef, "stats.ef echoes the request");
    }
    for ranker in [
        Ranker::Mapped,
        Ranker::Refined {
            candidates: usize::MAX,
        },
        Ranker::Approx {
            ef: 8,
            verify: Some(usize::MAX),
        },
    ] {
        let all = answer(SearchRequest::new(usize::MAX).ranker(ranker));
        assert_eq!(all.hits.len(), live, "{ranker:?}: every live row");
    }
    let (status, _) = client.get("/health").unwrap();
    assert_eq!(status, 200, "the server keeps serving");
    server.shutdown();
}
