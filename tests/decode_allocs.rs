//! Decoding a `/search` body builds its query graph in blocks sized
//! once: both wire decoders — the one-pass `wire::decode_search` and
//! the tree's `wire::graph_from_json` — count the graph's vertices and
//! edges before they build it, so no vector grows while it is read.
//!
//! The counting allocator below is this binary's global allocator; it
//! counts only on a thread that asked it to, so the test harness's own
//! threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gdim::datagen::{chem_db, connected_edge_subgraph, ChemConfig};
use gdim::prelude::*;
use gdim::server::parse_json;
use gdim::server::wire::{decode_search, graph_from_json, graph_to_json, request_to_json};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = REALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the reallocations it made on this thread.
fn reallocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    REALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, REALLOCS.with(Cell::get))
}

/// The `/search` body of `q`, its graph's keys in `graph_keys` order.
fn body(q: &Graph, graph_keys: [&'static str; 2]) -> String {
    let Json::Obj(graph) = graph_to_json(q) else {
        unreachable!("graph_to_json returns an object");
    };
    let graph = graph_keys.map(|k| {
        let (_, v) = graph.iter().find(|(key, _)| key == k).unwrap();
        (k, v.clone())
    });
    let Json::Obj(mut fields) = request_to_json(&SearchRequest::new(10)) else {
        unreachable!("request_to_json returns an object");
    };
    fields.insert(
        0,
        (
            "query".to_string(),
            Json::obj([("graph", Json::obj(graph))]),
        ),
    );
    Json::Obj(fields).to_string_compact()
}

#[test]
fn decoded_chem_bodies_build_their_graphs_with_no_reallocation() {
    // Fresh molecules and connected parts of them: the end-to-end
    // benchmark's query-pool recipe.
    let db = chem_db(300, &ChemConfig::default(), 42);
    let parts: Vec<Graph> = (db.iter().enumerate())
        .map(|(i, g)| connected_edge_subgraph(g, 0.8, i as u64))
        .collect();
    for (i, q) in db.iter().chain(&parts).enumerate() {
        for keys in [["v", "e"], ["e", "v"]] {
            let text = body(q, keys);
            let (decoded, n) = reallocs(|| decode_search(text.as_bytes()));
            let (_, g) = decoded.expect("a compact body decodes in one pass");
            assert_eq!(&g, q, "graph {i} {keys:?}");
            assert_eq!(n, 0, "one-pass decode of graph {i} {keys:?}");
            let tree = parse_json(&text).unwrap();
            let graph = tree.get("query").and_then(|j| j.get("graph")).unwrap();
            let (g, n) = reallocs(|| graph_from_json(graph).unwrap());
            assert_eq!(&g, q, "graph {i} {keys:?}");
            assert_eq!(n, 0, "tree decode of graph {i} {keys:?}");
        }
    }
}
