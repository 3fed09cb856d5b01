//! The wire schema: conversions between the typed serving API
//! (`SearchRequest` / `SearchResponse` / `SearchStats` / `Graph`) and
//! [`Json`] values — **bit-faithful** in both directions, so a served
//! answer parsed back equals the in-process one, hit for hit, distance
//! bit for distance bit (pinned by round-trip proptests).
//!
//! The two directions are built differently, on purpose:
//!
//! * **Responses stream.** The server answers `/search` and
//!   `/search_batch` with [`write_response`] /
//!   [`write_batch_response`], which append the body's bytes straight
//!   from the `SearchResponse` into the connection's buffer — no
//!   [`Json`] tree, no allocation once the buffer has grown.
//!   [`response_to_json`] is the **reference**: the encoder must emit
//!   exactly the bytes `response_to_json(r).to_string_compact()` emits
//!   (a proptest in `tests/wire_roundtrip.rs` holds it to that, field
//!   order, `null` distances and the `stages` guard included), and both
//!   format every number and string with the one set of formatters in
//!   [`crate::json`].
//! * **Requests build a tree.** A body is parsed into a [`Json`] value
//!   and decoded by [`request_from_json`] / [`query_from_json`] — one
//!   decoder, shared with everything else that reads the schema. With
//!   the parser linear that costs ~5 µs on a served search; a second,
//!   typed decoder could save at most that.
//!
//! Schema summary (all keys lowercase):
//!
//! ```text
//! graph     {"v": [vlabel, ...], "e": [[u, v, elabel], ...]}
//! query     {"id": 3} | {"graph": <graph>}
//! request   {"query": <query>, "k": 10, "ranker": "mapped" | "exact"
//!            | {"refined": {"candidates": 20}}
//!            | {"approx": {"ef": 64, "verify": null | n}},
//!            "mapping": "binary" | "weighted", "budget": null | n}
//! response  {"hits": [{"id": 3, "distance": 0.0}, ...],
//!            "stats": <stats>}
//! stats     every `SearchStats` counter by field name; durations in
//!            nanoseconds (`match_time_ns`, `wall_time_ns`); `kernel`
//!            a name string or null
//! error     {"error": {"code": "...", "message": "..."}}
//! ```
//!
//! Absent request fields take the [`SearchRequest`] defaults, so
//! `{"query": {"id": 0}}` is a complete request.

use gdim_core::scan::KernelKind;
use gdim_core::{
    GdimError, Graph, GraphId, Hit, MappingKind, Ranker, SearchRequest, SearchResponse, SearchStats,
};
use gdim_graph::GraphBuilder;
use std::time::Duration;

use crate::json::{write_bool, write_f64, write_str, write_u64, Json};

/// A malformed (well-formed JSON, wrong shape) wire value; the message
/// names the offending key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire value: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(what: &str) -> WireError {
    WireError(what.to_string())
}

/// What a search request ran against: a database graph addressed by
/// id, or an inline query graph shipped in the request body.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Query with database graph `id` (the common case for skewed
    /// self-similarity traffic; saves shipping the graph).
    Id(GraphId),
    /// Query with an inline graph.
    Graph(Graph),
}

/// Serializes a graph as `{"v": [...], "e": [[u, v, label], ...]}`.
pub fn graph_to_json(g: &Graph) -> Json {
    let v = Json::Arr(g.vlabels().iter().map(|&l| Json::U64(l as u64)).collect());
    let e = Json::Arr(
        g.edges()
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::U64(e.u as u64),
                    Json::U64(e.v as u64),
                    Json::U64(e.label as u64),
                ])
            })
            .collect(),
    );
    Json::obj([("v", v), ("e", e)])
}

/// Parses a graph; rejects out-of-range endpoints and duplicate edges.
pub fn graph_from_json(j: &Json) -> Result<Graph, WireError> {
    let vlabels: Vec<u32> = j
        .get("v")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("graph.v must be an array of vertex labels"))?
        .iter()
        .map(|l| {
            l.as_u64()
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| bad("graph.v entries must be u32 labels"))
        })
        .collect::<Result<_, _>>()?;
    let mut b = GraphBuilder::with_vertices(vlabels);
    let edges = j
        .get("e")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("graph.e must be an array of [u, v, label] triples"))?;
    for e in edges {
        let t = e
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| bad("graph.e entries must be [u, v, label] triples"))?;
        let idx = |i: usize| -> Result<u32, WireError> {
            t[i].as_u64()
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| bad("graph.e entries must be u32 triples"))
        };
        b.edge(idx(0)?, idx(1)?, idx(2)?)
            .map_err(|e| bad(&format!("graph.e: {e:?}")))?;
    }
    Ok(b.build())
}

/// Serializes a query spec.
pub fn query_to_json(q: &QuerySpec) -> Json {
    match q {
        QuerySpec::Id(id) => Json::obj([("id", Json::U64(id.get() as u64))]),
        QuerySpec::Graph(g) => Json::obj([("graph", graph_to_json(g))]),
    }
}

/// Parses a query spec: exactly one of `id` / `graph`.
pub fn query_from_json(j: &Json) -> Result<QuerySpec, WireError> {
    match (j.get("id"), j.get("graph")) {
        (Some(id), None) => {
            let id = id
                .as_u64()
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| bad("query.id must be a u32 graph id"))?;
            Ok(QuerySpec::Id(GraphId(id)))
        }
        (None, Some(g)) => Ok(QuerySpec::Graph(graph_from_json(g)?)),
        _ => Err(bad("query must carry exactly one of \"id\" / \"graph\"")),
    }
}

/// Serializes the request options (everything but the query spec).
pub fn request_to_json(req: &SearchRequest) -> Json {
    let ranker = match req.ranker {
        Ranker::Mapped => Json::Str("mapped".into()),
        Ranker::Exact => Json::Str("exact".into()),
        Ranker::Refined { candidates } => Json::obj([(
            "refined",
            Json::obj([("candidates", Json::U64(candidates as u64))]),
        )]),
        Ranker::Approx { ef, verify } => Json::obj([(
            "approx",
            Json::obj([
                ("ef", Json::U64(ef as u64)),
                ("verify", verify.map_or(Json::Null, |v| Json::U64(v as u64))),
            ]),
        )]),
        // `Ranker` is non-exhaustive: a ranker this crate does not
        // know has no faithful wire form; ship its debug name so the
        // peer rejects it loudly instead of silently re-ranking.
        ref other => Json::Str(format!("{other:?}")),
    };
    let mapping = match req.mapping {
        MappingKind::Weighted => "weighted",
        // Binary, and the on-the-wire default for any future mapping
        // (`MappingKind` is non-exhaustive).
        _ => "binary",
    };
    Json::obj([
        ("k", Json::U64(req.k as u64)),
        ("ranker", ranker),
        ("mapping", Json::Str(mapping.into())),
        ("budget", req.budget.map_or(Json::Null, Json::U64)),
    ])
}

/// Parses request options from the body object; absent keys keep the
/// [`SearchRequest`] defaults.
pub fn request_from_json(j: &Json) -> Result<SearchRequest, WireError> {
    let mut req = SearchRequest::default();
    if let Some(k) = j.get("k") {
        req.k = k
            .as_usize()
            .ok_or_else(|| bad("k must be a non-negative integer"))?;
    }
    if let Some(r) = j.get("ranker") {
        req.ranker = match r {
            Json::Str(s) if s == "mapped" => Ranker::Mapped,
            Json::Str(s) if s == "exact" => Ranker::Exact,
            Json::Obj(_) if r.get("refined").is_some() => {
                let candidates = r
                    .get("refined")
                    .and_then(|r| r.get("candidates"))
                    .and_then(Json::as_usize)
                    .ok_or_else(|| bad("ranker.refined.candidates must be an integer"))?;
                Ranker::Refined { candidates }
            }
            Json::Obj(_) if r.get("approx").is_some() => {
                let a = r.get("approx").expect("guarded");
                let ef = a
                    .get("ef")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| bad("ranker.approx.ef must be an integer"))?;
                let verify =
                    match a.get("verify") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(v.as_usize().ok_or_else(|| {
                            bad("ranker.approx.verify must be an integer or null")
                        })?),
                    };
                Ranker::Approx { ef, verify }
            }
            _ => return Err(bad(
                "ranker must be \"mapped\", \"exact\", {\"refined\": ...}, or {\"approx\": ...}",
            )),
        };
    }
    if let Some(m) = j.get("mapping") {
        req.mapping = match m.as_str() {
            Some("binary") => MappingKind::Binary,
            Some("weighted") => MappingKind::Weighted,
            _ => return Err(bad("mapping must be \"binary\" or \"weighted\"")),
        };
    }
    match j.get("budget") {
        None => {}
        Some(Json::Null) => req.budget = None,
        Some(b) => {
            req.budget = Some(
                b.as_u64()
                    .ok_or_else(|| bad("budget must be an integer or null"))?,
            )
        }
    }
    Ok(req)
}

/// Serializes stats; durations go as integer nanoseconds so they
/// round-trip exactly.
pub fn stats_to_json(s: &SearchStats) -> Json {
    let mut fields = vec![
        ("candidates_scanned", Json::U64(s.candidates_scanned as u64)),
        ("early_abandoned", Json::U64(s.early_abandoned as u64)),
        ("tombstones_skipped", Json::U64(s.tombstones_skipped as u64)),
        ("words_scanned", Json::U64(s.words_scanned as u64)),
        ("epoch", Json::U64(s.epoch)),
        ("live_graphs", Json::U64(s.live_graphs as u64)),
        ("vf2_calls", Json::U64(s.vf2_calls as u64)),
        ("vf2_pruned", Json::U64(s.vf2_pruned as u64)),
        ("mcs_calls", Json::U64(s.mcs_calls as u64)),
        ("match_time_ns", Json::U64(duration_ns(s.match_time))),
        ("wall_time_ns", Json::U64(duration_ns(s.wall_time))),
        (
            "kernel",
            s.kernel
                .map_or(Json::Null, |k| Json::Str(k.name().to_string())),
        ),
        ("fused_batch", Json::Bool(s.fused_batch)),
        ("approximate", Json::Bool(s.approximate)),
        ("ef", Json::U64(s.ef as u64)),
        ("beam_visited", Json::U64(s.beam_visited as u64)),
    ];
    // Stage timings travel as an object of non-zero stages only, and
    // the key is omitted entirely when nothing was timed — older
    // clients never see it, quiet stats stay quiet.
    if !s.stages.is_empty() {
        fields.push((
            "stages",
            Json::Obj(
                s.stages
                    .iter()
                    .map(|(stage, ns)| (stage.name().to_string(), Json::U64(ns)))
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

/// `Duration` → whole nanoseconds, saturating at `u64::MAX` (584
/// years; a wall time cannot reach it).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Parses stats (absent keys default to zero/none, so older servers
/// stay readable if fields are added).
pub fn stats_from_json(j: &Json) -> Result<SearchStats, WireError> {
    let count = |key: &str| -> Result<usize, WireError> {
        match j.get(key) {
            None => Ok(0),
            Some(v) => v
                .as_usize()
                .ok_or_else(|| bad(&format!("stats.{key} must be an integer"))),
        }
    };
    let ns = |key: &str| -> Result<Duration, WireError> {
        match j.get(key) {
            None => Ok(Duration::ZERO),
            Some(v) => v
                .as_u64()
                .map(Duration::from_nanos)
                .ok_or_else(|| bad(&format!("stats.{key} must be integer nanoseconds"))),
        }
    };
    let kernel = match j.get("kernel") {
        None | Some(Json::Null) => None,
        Some(k) => Some(
            k.as_str()
                .and_then(KernelKind::parse)
                .ok_or_else(|| bad("stats.kernel must be a known kernel name or null"))?,
        ),
    };
    Ok(SearchStats {
        candidates_scanned: count("candidates_scanned")?,
        early_abandoned: count("early_abandoned")?,
        tombstones_skipped: count("tombstones_skipped")?,
        words_scanned: count("words_scanned")?,
        epoch: j
            .get("epoch")
            .map_or(Ok(0), |v| v.as_u64().ok_or_else(|| bad("stats.epoch")))?,
        live_graphs: count("live_graphs")?,
        vf2_calls: count("vf2_calls")?,
        vf2_pruned: count("vf2_pruned")?,
        mcs_calls: count("mcs_calls")?,
        match_time: ns("match_time_ns")?,
        wall_time: ns("wall_time_ns")?,
        kernel,
        fused_batch: j.get("fused_batch").map_or(Ok(false), |v| {
            v.as_bool().ok_or_else(|| bad("stats.fused_batch"))
        })?,
        approximate: j.get("approximate").map_or(Ok(false), |v| {
            v.as_bool().ok_or_else(|| bad("stats.approximate"))
        })?,
        ef: count("ef")?,
        beam_visited: count("beam_visited")?,
        stages: stages_from_json(j.get("stages"))?,
    })
}

/// Parses the optional `stages` object. Unknown stage names are
/// skipped (a newer server may time stages this build doesn't know),
/// absence reads as all-zero.
fn stages_from_json(j: Option<&Json>) -> Result<gdim_obs::StageTimes, WireError> {
    let mut stages = gdim_obs::StageTimes::new();
    let Some(j) = j else {
        return Ok(stages);
    };
    let pairs = match j {
        Json::Obj(pairs) => pairs,
        _ => return Err(bad("stats.stages must be an object")),
    };
    for (name, v) in pairs {
        let ns = v
            .as_u64()
            .ok_or_else(|| bad(&format!("stats.stages.{name} must be integer nanoseconds")))?;
        if let Some(stage) = gdim_obs::Stage::parse(name) {
            stages.add_ns(stage, ns);
        }
    }
    Ok(stages)
}

/// Serializes a full response as a tree. The server does not call
/// this — it streams with [`write_response`] — but it defines the bytes
/// that encoder must produce, and clients and tests that want a
/// [`Json`] value use it.
pub fn response_to_json(resp: &SearchResponse) -> Json {
    let hits = Json::Arr(
        resp.hits
            .iter()
            .map(|h| {
                Json::obj([
                    ("id", Json::U64(h.id.get() as u64)),
                    ("distance", Json::F64(h.distance)),
                ])
            })
            .collect(),
    );
    Json::obj([("hits", hits), ("stats", stats_to_json(&resp.stats))])
}

/// Appends `"key":value` for each counter, comma-separated.
fn write_counters<'a>(fields: impl IntoIterator<Item = (&'a str, u64)>, out: &mut String) {
    for (i, (key, value)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(key, out);
        out.push(':');
        write_u64(value, out);
    }
}

/// Appends the wire form of `resp` to `out`: byte for byte what
/// `response_to_json(resp).to_string_compact()` returns, written
/// without building the tree. This is the encoder the server runs.
pub fn write_response(resp: &SearchResponse, out: &mut String) {
    out.push_str("{\"hits\":[");
    for (i, h) in resp.hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        write_u64(h.id.get() as u64, out);
        out.push_str(",\"distance\":");
        write_f64(h.distance, out);
        out.push('}');
    }
    out.push_str("],\"stats\":{");
    let s = &resp.stats;
    write_counters(
        [
            ("candidates_scanned", s.candidates_scanned as u64),
            ("early_abandoned", s.early_abandoned as u64),
            ("tombstones_skipped", s.tombstones_skipped as u64),
            ("words_scanned", s.words_scanned as u64),
            ("epoch", s.epoch),
            ("live_graphs", s.live_graphs as u64),
            ("vf2_calls", s.vf2_calls as u64),
            ("vf2_pruned", s.vf2_pruned as u64),
            ("mcs_calls", s.mcs_calls as u64),
            ("match_time_ns", duration_ns(s.match_time)),
            ("wall_time_ns", duration_ns(s.wall_time)),
        ],
        out,
    );
    out.push_str(",\"kernel\":");
    match s.kernel {
        Some(k) => write_str(k.name(), out),
        None => out.push_str("null"),
    }
    out.push_str(",\"fused_batch\":");
    write_bool(s.fused_batch, out);
    out.push_str(",\"approximate\":");
    write_bool(s.approximate, out);
    out.push(',');
    write_counters(
        [("ef", s.ef as u64), ("beam_visited", s.beam_visited as u64)],
        out,
    );
    // Same guard as `stats_to_json`: no key at all when nothing was timed.
    if !s.stages.is_empty() {
        out.push_str(",\"stages\":{");
        write_counters(s.stages.iter().map(|(stage, ns)| (stage.name(), ns)), out);
        out.push('}');
    }
    out.push_str("}}");
}

/// Appends the `/search_batch` body, `{"responses":[…]}`, each element
/// written by [`write_response`].
pub fn write_batch_response(responses: &[SearchResponse], out: &mut String) {
    out.push_str("{\"responses\":[");
    for (i, r) in responses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_response(r, out);
    }
    out.push_str("]}");
}

/// Parses a full response.
pub fn response_from_json(j: &Json) -> Result<SearchResponse, WireError> {
    let hits = j
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("response.hits must be an array"))?
        .iter()
        .map(|h| {
            let id = h
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| bad("hit.id must be a u32"))?;
            let distance = h
                .get("distance")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("hit.distance must be a number"))?;
            Ok(Hit {
                id: GraphId(id),
                distance,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let stats = match j.get("stats") {
        None => SearchStats::default(),
        Some(s) => stats_from_json(s)?,
    };
    Ok(SearchResponse { hits, stats })
}

/// The wire error body: `{"error": {"code", "message"}}`.
pub fn error_body(code: &str, message: &str) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("code", Json::Str(code.to_string())),
            ("message", Json::Str(message.to_string())),
        ]),
    )])
}

/// The HTTP status a [`GdimError`] answers with: caller faults are
/// 4xx (404 for addressing a graph that does not exist, 409 for a
/// rebuild race, 400 otherwise), server faults 500. Pinned by a unit
/// test below — changing a mapping is a wire-contract change.
pub fn gdim_error_status(e: &GdimError) -> u16 {
    match e {
        GdimError::GraphOutOfRange { .. } => 404,
        GdimError::StaleRebuild { .. } => 409,
        _ if e.is_caller_fault() => 400,
        _ => 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn chem(n: usize, seed: u64) -> Vec<Graph> {
        gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed)
    }

    #[test]
    fn graphs_round_trip_exactly() {
        for g in chem(8, 11) {
            let j = graph_to_json(&g);
            let back = graph_from_json(&parse(&j.to_string_compact()).unwrap()).unwrap();
            assert_eq!(back.vlabels(), g.vlabels());
            assert_eq!(back.edges(), g.edges());
        }
    }

    #[test]
    fn a_body_sized_graph_decodes_in_linear_time() {
        // ~50,000 `[u,v,l]` triples is what fits under the default 1 MiB
        // body cap; a duplicate check that scanned every earlier edge
        // made this one request cost ~10⁹ comparisons on a worker.
        let (n, span) = (1_000u32, 50u32);
        let mut body = format!("{{\"v\": [{}], \"e\": [", vec!["0"; n as usize].join(","));
        for u in 0..n {
            for d in 1..=span {
                body.push_str(&format!("[{u},{},{}],", (u + d) % n, d % 3));
            }
        }
        let duplicate = format!("{body}[1,0,9]]}}");
        body.pop();
        body.push_str("]}");
        assert!(body.len() < crate::http::DEFAULT_MAX_BODY_BYTES);
        let (j, dup) = (parse(&body).unwrap(), parse(&duplicate).unwrap());
        let t = std::time::Instant::now();
        let g = graph_from_json(&j).unwrap();
        assert!(
            graph_from_json(&dup).is_err(),
            "the 50,001st edge repeats the first"
        );
        let took = t.elapsed();
        assert_eq!(g.edge_count(), (n * span) as usize);
        assert!(took.as_millis() < 500, "two 50k-edge decodes took {took:?}");
    }

    #[test]
    fn malformed_graphs_are_rejected() {
        for bad_graph in [
            "{}",
            "{\"v\": [0], \"e\": [[0, 5, 0]]}", // endpoint out of range
            "{\"v\": [0, 1], \"e\": [[0, 1]]}", // not a triple
            "{\"v\": [0, 1], \"e\": [[0, 0, 1]]}", // self loop
            "{\"v\": \"x\", \"e\": []}",        // labels not an array
            "{\"v\": [0, 1], \"e\": [[0, 1, 1], [1, 0, 2]]}", // duplicate edge
        ] {
            let j = parse(bad_graph).unwrap();
            assert!(graph_from_json(&j).is_err(), "{bad_graph}");
        }
    }

    #[test]
    fn requests_round_trip_and_default() {
        let reqs = [
            SearchRequest::default(),
            SearchRequest::new(0),
            SearchRequest::new(7)
                .ranker(Ranker::Exact)
                .mapping(MappingKind::Weighted)
                .budget(12345),
            SearchRequest::new(3).ranker(Ranker::Refined { candidates: 9 }),
            SearchRequest::new(8).ranker(Ranker::Approx {
                ef: 64,
                verify: None,
            }),
            SearchRequest::new(5)
                .ranker(Ranker::Approx {
                    ef: 128,
                    verify: Some(40),
                })
                .mapping(MappingKind::Weighted),
        ];
        for req in reqs {
            let j = parse(&request_to_json(&req).to_string_compact()).unwrap();
            assert_eq!(request_from_json(&j).unwrap(), req);
        }
        // An empty object is a complete request: all defaults.
        let empty = parse("{}").unwrap();
        assert_eq!(request_from_json(&empty).unwrap(), SearchRequest::default());
    }

    #[test]
    fn query_specs_round_trip_and_reject_ambiguity() {
        let byid = QuerySpec::Id(GraphId(42));
        let j = parse(&query_to_json(&byid).to_string_compact()).unwrap();
        assert_eq!(query_from_json(&j).unwrap(), byid);
        let g = chem(1, 3).pop().unwrap();
        let inline = QuerySpec::Graph(g);
        let j = parse(&query_to_json(&inline).to_string_compact()).unwrap();
        match (query_from_json(&j).unwrap(), inline) {
            (QuerySpec::Graph(a), QuerySpec::Graph(b)) => {
                assert_eq!(a.vlabels(), b.vlabels());
                assert_eq!(a.edges(), b.edges());
            }
            other => panic!("wrong spec kind: {other:?}"),
        }
        for ambiguous in ["{}", "{\"id\": 1, \"graph\": {\"v\": [], \"e\": []}}"] {
            assert!(query_from_json(&parse(ambiguous).unwrap()).is_err());
        }
    }

    #[test]
    fn responses_round_trip_bit_faithfully() {
        let resp = SearchResponse {
            hits: vec![
                Hit {
                    id: GraphId(0),
                    distance: 0.0,
                },
                Hit {
                    id: GraphId(9),
                    distance: 1.0 / 3.0,
                },
                Hit {
                    id: GraphId(7),
                    distance: f64::from_bits(0x3FD5555555555557),
                },
            ],
            stats: SearchStats {
                candidates_scanned: 90,
                early_abandoned: 4,
                tombstones_skipped: 6,
                words_scanned: 360,
                epoch: 3,
                live_graphs: 94,
                vf2_calls: 11,
                vf2_pruned: 13,
                mcs_calls: 2,
                match_time: Duration::from_nanos(123_456_789),
                wall_time: Duration::from_nanos(987_654_321),
                kernel: Some(KernelKind::Unrolled),
                fused_batch: true,
                approximate: true,
                ef: 64,
                beam_visited: 512,
                stages: {
                    let mut s = gdim_obs::StageTimes::new();
                    s.add_ns(gdim_obs::Stage::AnnBeam, 700_000);
                    s.add_ns(gdim_obs::Stage::Refine, 41);
                    s
                },
            },
        };
        let wire = response_to_json(&resp).to_string_compact();
        let back = response_from_json(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back.hits.len(), resp.hits.len());
        for (a, b) in back.hits.iter().zip(&resp.hits) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "bit-faithful");
        }
        let (s, t) = (&back.stats, &resp.stats);
        assert_eq!(
            (
                s.candidates_scanned,
                s.early_abandoned,
                s.tombstones_skipped,
                s.words_scanned
            ),
            (
                t.candidates_scanned,
                t.early_abandoned,
                t.tombstones_skipped,
                t.words_scanned
            )
        );
        assert_eq!(
            (
                s.epoch,
                s.live_graphs,
                s.vf2_calls,
                s.vf2_pruned,
                s.mcs_calls
            ),
            (
                t.epoch,
                t.live_graphs,
                t.vf2_calls,
                t.vf2_pruned,
                t.mcs_calls
            )
        );
        assert_eq!(s.match_time, t.match_time);
        assert_eq!(s.wall_time, t.wall_time);
        assert_eq!(s.kernel, t.kernel);
        assert_eq!(s.fused_batch, t.fused_batch);
        assert_eq!(
            (s.approximate, s.ef, s.beam_visited),
            (t.approximate, t.ef, t.beam_visited)
        );
        assert_eq!(s.stages, t.stages, "stage timings round-trip exactly");
        assert!(wire.contains("\"stages\":{\"ann_beam\":700000,\"refine\":41}"));
    }

    /// An old client predating the approximate tier speaks the same
    /// protocol: its requests carry no `approx` spelling and its
    /// response parser may drop the new stats keys — both sides must
    /// keep working (the wire contract is additive-only).
    #[test]
    fn old_client_payloads_still_parse() {
        // A request exactly as a pre-ANN client would send it.
        let old_req = "{\"k\": 7, \"ranker\": {\"refined\": {\"candidates\": 12}}, \
             \"mapping\": \"weighted\", \"budget\": 900}";
        let req = request_from_json(&parse(old_req).unwrap()).unwrap();
        assert_eq!(
            req,
            SearchRequest::new(7)
                .ranker(Ranker::Refined { candidates: 12 })
                .mapping(MappingKind::Weighted)
                .budget(900)
        );
        // A response as an old server would emit it: no approximate /
        // ef / beam_visited keys. They default off.
        let old_resp = "{\"hits\": [{\"id\": 3, \"distance\": 0.25}], \
             \"stats\": {\"candidates_scanned\": 4, \"mcs_calls\": 1}}";
        let resp = response_from_json(&parse(old_resp).unwrap()).unwrap();
        assert!(!resp.stats.approximate);
        assert_eq!(resp.stats.ef, 0);
        assert_eq!(resp.stats.beam_visited, 0);
        assert_eq!(resp.hits.len(), 1);
    }

    #[test]
    fn gdim_error_statuses_are_pinned() {
        use std::io;
        let table: [(GdimError, u16); 11] = [
            (GdimError::GraphOutOfRange { id: 1, len: 0 }, 404),
            (
                GdimError::DimensionOutOfRange {
                    id: 0,
                    num_features: 0,
                },
                400,
            ),
            (
                GdimError::WeightsMismatch {
                    expected: 1,
                    got: 2,
                },
                400,
            ),
            (GdimError::ShardOutOfRange { id: 9, shards: 2 }, 400),
            (GdimError::StaleRebuild { missed: 3 }, 409),
            (GdimError::Io(io::Error::other("x")), 500),
            (GdimError::Corrupt("x".into()), 500),
            (
                GdimError::UnsupportedVersion {
                    found: 9,
                    supported: 2,
                },
                500,
            ),
            // Durability faults indict the server's disk state, never
            // the request.
            (
                GdimError::TornLog {
                    trusted: 8,
                    total: 20,
                    detail: "x".into(),
                },
                500,
            ),
            (
                GdimError::CorruptCheckpoint {
                    generation: 3,
                    detail: "x".into(),
                },
                500,
            ),
            (GdimError::DurablePoisoned { detail: "x".into() }, 500),
        ];
        for (err, status) in table {
            assert_eq!(gdim_error_status(&err), status, "{}", err.code());
        }
    }

    #[test]
    fn error_bodies_carry_code_and_message() {
        let j = error_body("graph_out_of_range", "graph id 9 out of range");
        let e = j.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("graph_out_of_range"));
        assert!(e.get("message").unwrap().as_str().unwrap().contains('9'));
    }
}
