//! Serving over the network: build a sharded index, stand up
//! [`GdimServer`] on an ephemeral loopback port, and speak to it with
//! the bundled [`Client`] — searches (single and batch), a live
//! insert, stats, and a graceful drain. The whole stack is hand-rolled
//! HTTP/1.1 + JSON over `std::net`; no dependencies appear.
//!
//! ```sh
//! cargo run --release --example server_quickstart
//! ```

use gdim::prelude::*;
use gdim::server::wire::{graph_to_json, response_from_json};

fn main() -> std::io::Result<()> {
    // Build: 80 molecule-like graphs over 2 shards, one shared
    // dimension selection.
    let cfg = gdim::datagen::ChemConfig::default();
    let db = gdim::datagen::chem_db(80, &cfg, 7);
    let index = ShardedIndex::build(
        db,
        ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(32)),
    );
    let handle = ServingHandle::new(index);

    // Serve: `:0` picks a free port; `addr()` reports it.
    let server = GdimServer::start(handle.clone(), ServerConfig::default())?;
    println!("serving on http://{}", server.addr());

    let mut client = Client::connect(server.addr())?;

    // A top-5 search for database graph id 3 (ids come from /stats,
    // /insert answers, or the CLI; the composed id of the 4th inserted
    // graph is resolvable through the snapshot's sequence numbers).
    let id = handle.snapshot().id_for_seq(3).unwrap().get();
    let body = Json::obj([
        ("query", Json::obj([("id", Json::U64(id as u64))])),
        ("k", Json::U64(5)),
    ]);
    let (status, reply) = client.post("/search", &body)?;
    assert_eq!(status, 200);
    let resp = response_from_json(&reply).expect("well-formed response");
    println!("\ntop-5 for graph {id} over the wire:");
    print!("{}", resp.hit_table());
    println!("{}\n", resp.stats);

    // The served answer is bit-identical to the in-process one.
    let snap = handle.snapshot();
    let local = snap
        .search(snap.graph(GraphId(id)).unwrap(), &SearchRequest::new(5))
        .unwrap();
    assert!(resp
        .hits
        .iter()
        .zip(&local.hits)
        .all(|(a, b)| a.id == b.id && a.distance.to_bits() == b.distance.to_bits()));
    println!("served hits == in-process hits, bit for bit");

    // Batch: several queries in one request, each answered as `/search`
    // answers it.
    let ids: Vec<u32> = (0..4).map(|s| snap.id_for_seq(s).unwrap().get()).collect();
    let queries = Json::Arr(
        ids.iter()
            .map(|&i| Json::obj([("id", Json::U64(i as u64))]))
            .collect(),
    );
    let (status, reply) = client.post(
        "/search_batch",
        &Json::obj([("queries", queries), ("k", Json::U64(3))]),
    )?;
    assert_eq!(status, 200);
    let batch = reply.get("responses").and_then(Json::as_arr).unwrap().len();
    println!("batch of {batch} queries answered query by query");

    // Live insert over the wire: ship a graph, get its id back.
    let extra = gdim::datagen::chem_db(1, &cfg, 99).pop().unwrap();
    let (status, reply) = client.post("/insert", &Json::obj([("graph", graph_to_json(&extra))]))?;
    assert_eq!(status, 200);
    println!(
        "inserted a new graph as id {}",
        reply.get("id").and_then(Json::as_u64).unwrap()
    );

    let (_, stats) = client.get("/stats")?;
    println!(
        "stats: {} live graphs, {} requests served",
        stats.get("live_graphs").and_then(Json::as_u64).unwrap(),
        stats.get("requests").and_then(Json::as_u64).unwrap()
    );

    // Graceful drain: stop accepting, finish in-flight work, join.
    server.request_shutdown();
    server.wait();
    server.shutdown();
    println!("drained and stopped");
    Ok(())
}
