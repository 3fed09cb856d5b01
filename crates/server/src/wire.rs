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
//! * **Requests try one pass first.** The server reads a `/search` or
//!   `/insert` body with [`decode_search`] / `decode_insert`: one
//!   left-to-right walk over the bytes straight into a
//!   `SearchRequest` and a `Graph`, no [`Json`] tree. They accept only
//!   the compact shape every encoder in this workspace writes (inline
//!   query graph, keys in any order and each at most once, no
//!   whitespace, no escapes) and *decline* anything else; the server
//!   then parses the body into a tree and runs [`request_from_json`] /
//!   [`query_from_json`] / [`graph_from_json`], which stay the
//!   **reference** and the only source of errors. Whenever a one-pass
//!   decoder returns, the tree decoders return the same values for the
//!   same bytes (proptests below hold it to that, on generated bodies
//!   and on byte-mutated ones). A served-shape `/search` body decodes
//!   2.3–3.2× faster in one pass than through the tree
//!   (`serve_baseline`'s `wire` block gates ≥ 2×); most of what is left
//!   is the `GraphBuilder` build both paths share.
//!
//! Schema summary (all keys lowercase):
//!
//! ```text
//! graph     {"v": [vlabel, ...], "e": [[u, v, elabel], ...]}
//! query     {"id": 3} | {"graph": <graph>}
//! request   {"query": <query>, "k": 10, "ranker": "mapped" | "exact"
//!            | {"refined": {"candidates": 20}}
//!            | {"approx": {"ef": 64, "verify": null | n}},
//!            "mapping": "binary" | "weighted"}
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
    // Older clients send `"budget": null`. A number is refused rather
    // than ignored: exact and refined ranking run at the index's own δ
    // budget, and a client that asked for another must not silently
    // get it.
    match j.get("budget") {
        None | Some(Json::Null) => {}
        Some(_) => {
            return Err(bad(
                "budget is no longer accepted: exact and refined ranking use the index's δ budget",
            ))
        }
    }
    Ok(req)
}

/// Decodes a compact `/search` body in one pass, with no [`Json`]
/// tree: `{"query":{"graph":<graph>}}` plus any of `k`, `ranker` and
/// `mapping`, keys in any order, each at most once, no whitespace and
/// no string escapes.
///
/// `None` means *declined*, not *malformed*: whitespace, an `id`
/// query, `"budget"`, an unknown or repeated key, a number that is not
/// a plain integer in range, or a graph its builder refuses. The caller
/// then reads the body with [`crate::json::parse`], [`request_from_json`]
/// and [`query_from_json`], which accept it or say what is wrong.
/// Whenever this returns, those decoders return the same request and
/// graph for the same bytes.
pub fn decode_search(body: &[u8]) -> Option<(SearchRequest, Graph)> {
    let (mut graph, mut k, mut ranker, mut mapping) = (None, None, None, None);
    Compact::whole(body, |r| {
        r.object(|r, key| match key {
            b"query" => once(&mut graph, r.graph_object()?),
            b"k" => once(&mut k, r.usize()?),
            b"ranker" => once(&mut ranker, r.ranker()?),
            b"mapping" => once(&mut mapping, r.mapping()?),
            _ => None,
        })
    })?;
    let mut req = SearchRequest::default();
    req.k = k.unwrap_or(req.k);
    req.ranker = ranker.unwrap_or(req.ranker);
    req.mapping = mapping.unwrap_or(req.mapping);
    Some((req, graph?))
}

/// Decodes a compact `/insert` body, `{"graph":<graph>}`, in one pass —
/// the graph reader [`decode_search`] uses, under the same rule: `None`
/// declines, and a returned graph is the one [`graph_from_json`] builds.
pub(crate) fn decode_insert(body: &[u8]) -> Option<Graph> {
    Compact::whole(body, Compact::graph_object)
}

/// Fills `slot`; declines a key seen before (the tree decoders read its
/// first value, and the one-pass path does not guess).
fn once<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    slot.replace(value).is_none().then_some(())
}

/// The cursor of the one-pass decoders over a compact body, read left
/// to right once. Every method returns `None` to decline.
struct Compact<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Compact<'a> {
    /// Reads all of `body` with `value`; declines trailing bytes.
    fn whole<T>(body: &'a [u8], value: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let mut r = Compact { bytes: body, at: 0 };
        let v = value(&mut r)?;
        (r.at == body.len()).then_some(v)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.next()? == b).then_some(())
    }

    /// A string with no escape: the bytes between the quotes. Callers
    /// only compare them with ASCII names, so a control character or a
    /// non-ASCII byte never matches — it declines, and every accepted
    /// body is ASCII.
    fn string(&mut self) -> Option<&'a [u8]> {
        self.eat(b'"')?;
        let rest = &self.bytes[self.at..];
        let len = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
        (rest[len] == b'"').then_some(())?;
        self.at += len + 1;
        Some(&rest[..len])
    }

    /// A run of digits as a `u64`, declining past `u64::MAX` and on a
    /// leading sign. A fraction or exponent (read as a float by the
    /// tree parser, refused by the tree decoders) starts with a byte no
    /// container accepts after a value, so it declines there.
    fn u64(&mut self) -> Option<u64> {
        let start = self.at;
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.at += 1;
        }
        (self.at > start).then_some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// `{"key":value,…}`: `member` gets each key and reads its value.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &'a [u8]) -> Option<()>) -> Option<()> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Some(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            member(self, key)?;
            match self.next()? {
                b',' => {}
                b'}' => return Some(()),
                _ => return None,
            }
        }
    }

    /// `[item,…]`: `item` reads each element.
    fn items(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.at += 1;
            return Some(());
        }
        loop {
            item(self)?;
            match self.next()? {
                b',' => {}
                b']' => return Some(()),
                _ => return None,
            }
        }
    }

    /// `[u,v,label]`.
    fn triple(&mut self) -> Option<[u32; 3]> {
        self.eat(b'[')?;
        let u = self.u32()?;
        self.eat(b',')?;
        let v = self.u32()?;
        self.eat(b',')?;
        let label = self.u32()?;
        self.eat(b']')?;
        Some([u, v, label])
    }

    /// `{"v":[…],"e":[…]}` in either order, built with the
    /// [`GraphBuilder`] calls [`graph_from_json`] makes; declines where
    /// the builder refuses an edge. Every encoder here writes `v` first,
    /// and then each edge goes straight into the builder; edges that
    /// come before `v` wait in a buffer.
    fn graph(&mut self) -> Option<Graph> {
        let (mut builder, mut early, mut seen_e) = (None, Vec::new(), None);
        self.object(|r, key| match key {
            b"v" => {
                // Labels hold no nested array: the commas before the
                // first `]` size the vector exactly.
                let rest = &r.bytes[r.at..];
                let end = rest.iter().position(|&b| b == b']').unwrap_or(rest.len());
                let mut vlabels =
                    Vec::with_capacity(1 + rest[..end].iter().filter(|&&b| b == b',').count());
                r.items(|r| {
                    vlabels.push(r.u32()?);
                    Some(())
                })?;
                once(&mut builder, GraphBuilder::with_vertices(vlabels))
            }
            b"e" => {
                once(&mut seen_e, ())?;
                r.items(|r| {
                    let [u, v, label] = r.triple()?;
                    match &mut builder {
                        Some(b) => b.edge(u, v, label).ok(),
                        None => {
                            early.push([u, v, label]);
                            Some(())
                        }
                    }
                })
            }
            _ => None,
        })?;
        let (mut b, ()) = (builder?, seen_e?);
        for [u, v, label] in early {
            b.edge(u, v, label).ok()?;
        }
        Some(b.build())
    }

    /// `{"graph":<graph>}`: an `/insert` body, and a `/search` query.
    fn graph_object(&mut self) -> Option<Graph> {
        let mut graph = None;
        self.object(|r, key| match key {
            b"graph" => once(&mut graph, r.graph()?),
            _ => None,
        })?;
        graph
    }

    /// `"mapped"`, `"exact"`, `{"refined":{"candidates":n}}`, or
    /// `{"approx":{"ef":n}}` with an optional `"verify":null|n`.
    fn ranker(&mut self) -> Option<Ranker> {
        if self.peek()? == b'"' {
            return match self.string()? {
                b"mapped" => Some(Ranker::Mapped),
                b"exact" => Some(Ranker::Exact),
                _ => None,
            };
        }
        let mut ranker = None;
        self.object(|r, key| {
            let parsed = match key {
                b"refined" => {
                    let mut candidates = None;
                    r.object(|r, key| match key {
                        b"candidates" => once(&mut candidates, r.usize()?),
                        _ => None,
                    })?;
                    Ranker::Refined {
                        candidates: candidates?,
                    }
                }
                b"approx" => {
                    let (mut ef, mut verify) = (None, None);
                    r.object(|r, key| match key {
                        b"ef" => once(&mut ef, r.usize()?),
                        b"verify" => once(&mut verify, r.null_or_usize()?),
                        _ => None,
                    })?;
                    Ranker::Approx {
                        ef: ef?,
                        verify: verify.flatten(),
                    }
                }
                _ => return None,
            };
            once(&mut ranker, parsed)
        })?;
        ranker
    }

    fn null_or_usize(&mut self) -> Option<Option<usize>> {
        if self.bytes[self.at..].starts_with(b"null") {
            self.at += 4;
            return Some(None);
        }
        self.usize().map(Some)
    }

    fn mapping(&mut self) -> Option<MappingKind> {
        match self.string()? {
            b"binary" => Some(MappingKind::Binary),
            b"weighted" => Some(MappingKind::Weighted),
            _ => None,
        }
    }
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
    use crate::json::tests::{mutate, COMPACT_BODIES, CORPUS};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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
                .mapping(MappingKind::Weighted),
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
        // A request exactly as a pre-ANN client would send it, with
        // the `"budget": null` every older encoder emitted.
        let old_req = "{\"k\": 7, \"ranker\": {\"refined\": {\"candidates\": 12}}, \
             \"mapping\": \"weighted\", \"budget\": null}";
        let req = request_from_json(&parse(old_req).unwrap()).unwrap();
        assert_eq!(
            req,
            SearchRequest::new(7)
                .ranker(Ranker::Refined { candidates: 12 })
                .mapping(MappingKind::Weighted)
        );
        // A budget it asked for is refused, not silently replaced by
        // the index's own.
        let with_budget = old_req.replace("null", "900");
        assert!(request_from_json(&parse(&with_budget).unwrap()).is_err());
        // A response as an old server would emit it: no approximate /
        // ef / beam_visited keys. They default off.
        let old_resp = "{\"hits\": [{\"id\": 3, \"distance\": 0.25}], \
             \"stats\": {\"candidates_scanned\": 4, \"mcs_calls\": 1}}";
        let resp = response_from_json(&parse(old_resp).unwrap()).unwrap();
        assert!(!resp.stats.approximate);
        assert_eq!(resp.stats.ef, 0);
        assert_eq!(resp.stats.beam_visited, 0);
        assert_eq!(resp.hits.len(), 1);
        // A response exactly as a server from before batches were
        // answered query by query writes it: its stats carry a
        // `fused_batch` key this build no longer has, and skips.
        let older = "{\"hits\":[{\"id\":3,\"distance\":0.25}],\"stats\":{\
             \"candidates_scanned\":4,\"early_abandoned\":0,\"tombstones_skipped\":0,\
             \"words_scanned\":8,\"epoch\":0,\"live_graphs\":4,\"vf2_calls\":2,\
             \"vf2_pruned\":1,\"mcs_calls\":0,\"match_time_ns\":1500,\"wall_time_ns\":9000,\
             \"kernel\":\"avx2\",\"fused_batch\":true,\"approximate\":false,\"ef\":0,\
             \"beam_visited\":0,\"stages\":{\"map\":1500,\"scan\":700}}}";
        let resp = response_from_json(&parse(older).unwrap()).unwrap();
        assert_eq!(resp.hits[0].id, GraphId(3));
        assert_eq!(resp.stats.candidates_scanned, 4);
        assert_eq!(resp.stats.kernel, Some(KernelKind::Avx2));
        assert_eq!(resp.stats.wall_time, Duration::from_nanos(9000));
    }

    /// Keys and strings the wire decoders branch on.
    const KEYS: [&str; 14] = [
        "v",
        "e",
        "id",
        "graph",
        "query",
        "k",
        "ranker",
        "mapping",
        "budget",
        "refined",
        "candidates",
        "approx",
        "ef",
        "verify",
    ];
    const WORDS: [&str; 5] = ["mapped", "exact", "binary", "weighted", "x"];

    /// A JSON tree of depth ≤ `depth` drawn from `words`, one node per
    /// word (an exhausted source yields `null`).
    fn arbitrary_json(words: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
        let Some(w) = words.next() else {
            return Json::Null;
        };
        let pick = (w >> 8) as usize;
        match w % 8 {
            0 => Json::Null,
            1 => Json::Bool(pick.is_multiple_of(2)),
            2 => Json::U64([0, 1, 2, 3, u32::MAX as u64, 1 << 32, u64::MAX][pick % 7]),
            3 => Json::I64(-1 - (pick % 3) as i64),
            4 => Json::F64([0.5, -0.0, 1e300, f64::NAN][pick % 4]),
            5 => Json::Str(WORDS[pick % WORDS.len()].into()),
            6 if depth > 0 => Json::Arr(
                (0..pick % 5)
                    .map(|_| arbitrary_json(words, depth - 1))
                    .collect(),
            ),
            7 if depth > 0 => Json::Obj(
                (0..pick % 5)
                    .map(|i| {
                        let key = KEYS[(pick / 5 + 3 * i) % KEYS.len()].to_string();
                        (key, arbitrary_json(words, depth - 1))
                    })
                    .collect(),
            ),
            _ => Json::U64(pick as u64 % 4),
        }
    }

    fn nodes(j: &Json) -> usize {
        1 + match j {
            Json::Arr(items) => items.iter().map(nodes).sum(),
            Json::Obj(pairs) => pairs.iter().map(|(_, v)| nodes(v)).sum(),
            _ => 0,
        }
    }

    /// Replaces node `*n` (in preorder) of `j` by `with`.
    fn replace_nth(j: &mut Json, n: &mut usize, with: &mut Option<Json>) {
        if *n == 0 {
            if let Some(w) = with.take() {
                *j = w;
            }
            return;
        }
        *n -= 1;
        match j {
            Json::Arr(items) => items.iter_mut().for_each(|c| replace_nth(c, n, with)),
            Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, c)| replace_nth(c, n, with)),
            _ => {}
        }
    }

    /// A valid `/search` body: options plus an inline query graph.
    fn valid_body() -> Json {
        let req = SearchRequest::new(5)
            .ranker(Ranker::Approx {
                ef: 64,
                verify: Some(9),
            })
            .mapping(MappingKind::Weighted);
        let Json::Obj(mut pairs) = request_to_json(&req) else {
            unreachable!("requests encode as objects")
        };
        let query = query_to_json(&QuerySpec::Graph(chem(1, 3).remove(0)));
        pairs.push(("query".into(), query));
        Json::Obj(pairs)
    }

    /// What the server answers for `text` on the tree path: the
    /// `/search` request and query, or the error as text.
    fn tree_search(text: &str) -> Result<(SearchRequest, QuerySpec), String> {
        let j = parse(text).map_err(|e| e.to_string())?;
        let req = request_from_json(&j).map_err(|e| e.to_string())?;
        let query = j.get("query").ok_or("missing \"query\"")?;
        Ok((req, query_from_json(query).map_err(|e| e.to_string())?))
    }

    /// The same for an `/insert` body.
    fn tree_insert(text: &str) -> Result<Graph, String> {
        let j = parse(text).map_err(|e| e.to_string())?;
        let graph = j.get("graph").ok_or("missing \"graph\"")?;
        graph_from_json(graph).map_err(|e| e.to_string())
    }

    /// Decline-or-equal: where a one-pass decoder returns, the tree
    /// decoders return the same values for the same bytes (so where
    /// they fail, it declined). Returns which decoders returned.
    fn decline_or_equal(text: &str) -> Result<[bool; 2], TestCaseError> {
        let search = decode_search(text.as_bytes());
        let insert = decode_insert(text.as_bytes());
        let accepted = [search.is_some(), insert.is_some()];
        if let Some((req, g)) = search {
            prop_assert_eq!(
                Ok((req, QuerySpec::Graph(g))),
                tree_search(text),
                "{}",
                text
            );
        }
        if let Some(g) = insert {
            prop_assert_eq!(Ok(g), tree_insert(text), "{}", text);
        }
        Ok(accepted)
    }

    #[test]
    fn compact_bodies_decode_in_one_pass_and_the_rest_decline() {
        let graph = "{\"v\":[0,1,2],\"e\":[[0,1,1],[1,2,0]]}";
        let search = |fields: &str| format!("{{\"query\":{{\"graph\":{graph}}}{fields}}}");
        let accepted = [
            search(""),
            search(",\"k\":10,\"ranker\":\"mapped\",\"mapping\":\"binary\""),
            search(",\"ranker\":\"exact\",\"k\":0,\"mapping\":\"weighted\""),
            search(",\"ranker\":{\"refined\":{\"candidates\":20}}"),
            search(",\"ranker\":{\"approx\":{\"ef\":64}}"),
            search(",\"ranker\":{\"approx\":{\"verify\":null,\"ef\":64}}"),
            search(",\"ranker\":{\"approx\":{\"ef\":64,\"verify\":9}},\"k\":007"),
            format!("{{\"k\":3,\"query\":{{\"graph\":{graph}}}}}"),
            "{\"query\":{\"graph\":{\"e\":[[1,0,4]],\"v\":[4294967295,0]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[],\"e\":[]}}}".into(),
        ];
        for body in &accepted {
            assert_eq!(decline_or_equal(body).unwrap(), [true, false], "{body}");
        }
        let insert = format!("{{\"graph\":{graph}}}");
        assert_eq!(decline_or_equal(&insert).unwrap(), [false, true]);
        for g in chem(8, 11) {
            let body = query_to_json(&QuerySpec::Graph(g.clone())).to_string_compact();
            assert_eq!(decode_insert(body.as_bytes()), Some(g));
        }
        let declined = [
            String::new(),
            "{}".into(),
            search(" "),
            format!("{{\"query\": {{\"graph\":{graph}}}}}"),
            "{\"query\":{\"id\":3}}".into(),
            search(",\"budget\":null"),
            search(",\"extra\":1"),
            search(",\"k\":1,\"k\":2"),
            search(",\"k\":1.5"),
            search(",\"k\":1e2"),
            search(",\"k\":-1"),
            search(",\"k\":18446744073709551616"),
            search(",\"k\":\"3\""),
            search(",\"ranker\":\"fast\""),
            search(",\"ranker\":{}"),
            search(",\"ranker\":{\"refined\":{\"candidates\":1},\"approx\":{\"ef\":1}}"),
            search(",\"ranker\":{\"approx\":{\"ef\":1,\"x\":1}}"),
            search(",\"mapping\":\"bin\\u0061ry\""),
            search("}"),
            "{\"query\":{\"graph\":{\"v\":[0,1],\"e\":[[0,1,0],[1,0,1]]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[0],\"e\":[[0,5,0]]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[0,1],\"e\":[[0,0,1]]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[4294967296],\"e\":[]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[0,1],\"e\":[[0,1]]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[0,1],\"e\":[],\"e\":[]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[0,1]}}}".into(),
            "{\"query\":{\"graph\":{\"v\":[0,1],\"e\":[]},\"id\":1}}".into(),
            format!("{{\"graph\":{graph},\"graph\":{graph}}}"),
        ];
        for body in &declined {
            assert_eq!(decline_or_equal(body).unwrap(), [false, false], "{body}");
        }
        assert_eq!(
            decode_search(b"{\"query\":{\"graph\":{\"v\":[\xff]}}}"),
            None
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Compact `/search` and `/insert` bodies with one to three
        /// characters replaced, inserted or deleted: each one-pass
        /// decoder declines or returns what the tree decoders return.
        #[test]
        fn mutated_compact_bodies_decline_or_decode_like_the_tree(
            doc in CORPUS.len() - COMPACT_BODIES..CORPUS.len(),
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..=3),
        ) {
            decline_or_equal(&mutate(CORPUS[doc], &edits))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Arbitrary depth-bounded JSON trees, and a valid `/search`
        /// body with one node replaced by such a tree: the graph, query
        /// and request decoders answer `Ok` or a `WireError`, never
        /// panic, and what they accept survives its own encode → decode.
        /// The compact bytes of each also go through the one-pass
        /// decoders, which decline or return what the tree decoders do.
        #[test]
        fn hostile_wire_values_decode_or_fail_typed(
            mutated in any::<bool>(),
            words in prop::collection::vec(any::<u64>(), 1..48),
            at in any::<prop::sample::Index>(),
        ) {
            let mut words = words.into_iter();
            let body = if mutated {
                let mut body = valid_body();
                let mut n = at.index(nodes(&body));
                replace_nth(&mut body, &mut n, &mut Some(arbitrary_json(&mut words, 2)));
                body
            } else {
                arbitrary_json(&mut words, 4)
            };
            let query = body.get("query").unwrap_or(&body);
            let graph = query.get("graph").unwrap_or(query);
            for j in [&body, query, graph] {
                if let Ok(g) = graph_from_json(j) {
                    prop_assert_eq!(graph_from_json(&graph_to_json(&g)), Ok(g));
                }
                if let Ok(q) = query_from_json(j) {
                    prop_assert_eq!(query_from_json(&query_to_json(&q)), Ok(q));
                }
                if let Ok(r) = request_from_json(j) {
                    prop_assert_eq!(request_from_json(&request_to_json(&r)), Ok(r));
                }
                decline_or_equal(&j.to_string_compact())?;
            }
        }
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
