//! The server runtime: a `TcpListener` acceptor feeding a
//! [`WorkerPool`] of connection handlers, routing the wire protocol
//! onto a [`ServingHandle`].
//!
//! # Threading model
//!
//! One **acceptor** thread blocks in `accept()` and hands each
//! connection to a fixed pool of workers (`gdim-exec`'s
//! [`WorkerPool`]); a worker owns the connection for its whole
//! keep-alive lifetime. Each worker creates its own [`Reader`] per
//! connection — `Reader` is deliberately not `Sync`, and the one-time
//! cost (an atomic load and an `Arc` clone) is amortized over every
//! request the connection carries. Searches answer from the reader's
//! lock-free snapshot; admin endpoints go through the handle's writer
//! path and publish a fresh snapshot.
//!
//! # Repeated searches
//!
//! Each worker keeps a small table of the `/search` answers it served
//! ([`crate::result_cache`]), keyed by the raw body bytes and stamped
//! with the process-unique id of the snapshot its reader returned
//! ([`Reader::current_with_id`]); a body is stored on its second miss.
//! A stored body is answered before it is decoded: no decode, map,
//! scan or merge. The answer carries the stored hits and every work counter
//! of the search; `match_time_ns` is 0, `wall_time_ns` is the lookup,
//! and the lookup is the one engine stage, `cache`. Every publish
//! stamps a new id, so after a write or a rebuild an older entry
//! misses, and the body's next store replaces it.
//! `/search_batch` is not cached.
//!
//! `/rebuild` runs [`ShardedIndex::rebuild`] under that writer lock —
//! on the request's own worker (`mode: sync`) or on one named
//! `gdim-rebuild` thread (`mode: background`, one at a time). Searches
//! keep answering from the published snapshot throughout; writes wait
//! for the build, which is applied where it is computed, so no write
//! lands in between (see [`gdim_shard::serving`]).
//!
//! # Graceful shutdown
//!
//! `POST /shutdown` (or [`GdimServer::request_shutdown`]) only flips a
//! flag and wakes [`GdimServer::wait`] — a handler cannot join the
//! pool it runs on. The owner then calls [`GdimServer::shutdown`],
//! which stops the acceptor (waking its blocking `accept` with a
//! self-connection), lets in-flight requests finish, and joins every
//! worker. Idle keep-alive connections notice within one read-timeout
//! tick and close.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gdim_core::{GdimError, Graph, GraphId, SearchRequest, SearchResponse};
use gdim_exec::WorkerPool;
use gdim_obs::{Counter, Stage, Trace};
use gdim_shard::{DurableHandle, Reader, ServingHandle, ShardedIndex};

use crate::http::{
    response_bytes, write_response_bytes, HeadParser, HttpError, Method, RequestHead,
    DEFAULT_MAX_BODY_BYTES,
};
use crate::json::{parse, Json};
use crate::metrics::{endpoint_index, error_log_line, slow_log_line, ServerMetrics, ENDPOINTS};
use crate::result_cache;
use crate::wire::{
    decode_insert, decode_search, error_body, gdim_error_status, graph_from_json, query_from_json,
    request_from_json, write_batch_response, write_response, QuerySpec, WireError,
};

/// Socket read timeout — how often idle connections poll the shutdown
/// flag, i.e. the worst-case drain latency.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server knobs. `Default` binds an ephemeral loopback port with a
/// small worker pool — the configuration the tests and the load
/// harness use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Connection-handler threads (each serves one connection at a
    /// time, so this bounds concurrent connections). A server started
    /// with `0` runs, and reports, one.
    pub workers: usize,
    /// Slow-query threshold in milliseconds: requests at or over it
    /// are counted, kept in the slow-query ring, and logged to stderr
    /// with their per-stage breakdown. `0` disables slow logging.
    pub slow_ms: u64,
    /// Stage-trace sampling: record per-stage histograms and ring
    /// entries for every Nth request (`1` = all; slow requests are
    /// always recorded regardless).
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 16);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            slow_ms: 250,
            trace_sample: 1,
        }
    }
}

impl ServerConfig {
    /// The default configuration.
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the slow-query threshold (`0` disables slow logging).
    pub fn with_slow_ms(mut self, slow_ms: u64) -> Self {
        self.slow_ms = slow_ms;
        self
    }

    /// Sets the stage-trace sampling cadence (min 1 = every request).
    pub fn with_trace_sample(mut self, every_n: u64) -> Self {
        self.trace_sample = every_n.max(1);
        self
    }
}

/// The shutdown latch: a flag plus a condvar so [`GdimServer::wait`]
/// can sleep instead of spin.
#[derive(Default)]
struct Latch {
    requested: AtomicBool,
    lock: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn request(&self) {
        self.requested.store(true, Ordering::Release);
        let mut flagged = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        *flagged = true;
        self.cv.notify_all();
    }

    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    fn wait(&self) {
        let mut flagged = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*flagged {
            flagged = self.cv.wait(flagged).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Monotonic serving counters, reported by `GET /stats`.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    /// Requests answered with a 4xx/5xx (application-level).
    error_responses: AtomicU64,
    /// Connections torn down by an HTTP parse error.
    protocol_errors: AtomicU64,
}

/// Everything a connection handler needs, shared across the pool.
struct Ctx {
    handle: ServingHandle,
    /// Durable mode ([`GdimServer::start_durable`]): mutations route
    /// through the write-ahead log and only ack once on disk.
    durable: Option<DurableHandle>,
    cfg: ServerConfig,
    latch: Latch,
    counters: Counters,
    /// Per-server observability: labeled counters/histograms, the
    /// slow-query ring, request-id generation. See [`crate::metrics`].
    metrics: ServerMetrics,
    /// The thread running the last background rebuild, if any (one at
    /// a time; a second `mode: background` request while it runs
    /// answers `409`).
    rebuild: Mutex<Option<JoinHandle<()>>>,
}

impl Ctx {
    fn stopping(&self) -> bool {
        self.latch.is_requested()
    }
}

/// A running server: the acceptor thread, the worker pool, and the
/// address it bound. See the [module docs](self) for the lifecycle.
pub struct GdimServer {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool<TcpStream>>>,
}

impl GdimServer {
    /// Binds `cfg.addr` and starts serving `handle`. Returns once the
    /// listener is live — `addr()` is immediately connectable.
    pub fn start(handle: ServingHandle, cfg: ServerConfig) -> io::Result<GdimServer> {
        Self::start_inner(handle, None, cfg)
    }

    /// Binds `cfg.addr` and starts serving a [`DurableHandle`] in
    /// **durable mode**: `/insert` and `/remove` append to the
    /// write-ahead log (fsynced per the handle's
    /// [`SyncPolicy`](gdim_shard::SyncPolicy)) before they apply, and
    /// only answer `200` once both happened. How much a `200`
    /// guarantees follows the policy: under `SyncPolicy::Always` an
    /// acked mutation survives any crash; under `EveryN(n)` (group
    /// commit) or `Never` the ack precedes the fsync, so a crash can
    /// lose up to the last `n - 1` (resp. all unsynced) acked
    /// mutations in exchange for throughput. `/checkpoint` folds the
    /// log into a new generation; `/rebuild` checkpoints before
    /// acking (background rebuilds are refused: a rebuild reassigns
    /// ids, so its only durable form is the synchronous
    /// rebuild-then-checkpoint).
    pub fn start_durable(durable: DurableHandle, cfg: ServerConfig) -> io::Result<GdimServer> {
        Self::start_inner(durable.serving().clone(), Some(durable), cfg)
    }

    fn start_inner(
        handle: ServingHandle,
        durable: Option<DurableHandle>,
        cfg: ServerConfig,
    ) -> io::Result<GdimServer> {
        // `workers` is a public field, so `with_workers`' clamp can be
        // bypassed: clamp here, where the pool and `/stats` read it.
        let cfg = ServerConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::new(cfg.slow_ms, cfg.trace_sample);
        let ctx = Arc::new(Ctx {
            handle,
            durable,
            cfg,
            latch: Latch::default(),
            counters: Counters::default(),
            metrics,
            rebuild: Mutex::new(None),
        });
        let pool = {
            let ctx = Arc::clone(&ctx);
            Arc::new(WorkerPool::new(
                ctx.cfg.workers,
                "gdim-serve",
                move |stream| handle_connection(&ctx, stream),
            ))
        };
        let acceptor = {
            let ctx = Arc::clone(&ctx);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("gdim-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if ctx.stopping() {
                            break; // the wake-up self-connection lands here
                        }
                        match stream {
                            Ok(s) => {
                                ctx.counters.connections.fetch_add(1, Ordering::Relaxed);
                                if pool.submit(s).is_err() {
                                    break; // pool is draining
                                }
                            }
                            Err(_) => continue, // transient accept failure
                        }
                    }
                })
                .expect("spawn acceptor thread")
        };
        Ok(GdimServer {
            addr,
            ctx,
            acceptor: Some(acceptor),
            pool: Some(pool),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving handle — the in-process view of the same index the
    /// server answers from (used by tests to pin bit-identity).
    pub fn handle(&self) -> &ServingHandle {
        &self.ctx.handle
    }

    /// The durable handle when running in durable mode
    /// ([`GdimServer::start_durable`]), else `None`.
    pub fn durable(&self) -> Option<&DurableHandle> {
        self.ctx.durable.as_ref()
    }

    /// Blocks until shutdown is requested — by `POST /shutdown` from
    /// the network or [`GdimServer::request_shutdown`] from another
    /// thread. Follow with [`GdimServer::shutdown`] to actually drain.
    pub fn wait(&self) {
        self.ctx.latch.wait();
    }

    /// Requests shutdown without blocking (wakes [`GdimServer::wait`]).
    pub fn request_shutdown(&self) {
        self.ctx.latch.request();
    }

    /// Stops accepting, drains in-flight requests, joins the acceptor
    /// and every worker, and reaps any background rebuild. Idempotent
    /// with [`GdimServer::request_shutdown`]; also run by `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.ctx.latch.request();
        if let Some(acceptor) = self.acceptor.take() {
            // A blocking accept() only notices the flag on its next
            // connection — hand it one.
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
        if let Some(pool) = self.pool.take() {
            // The acceptor held the only other Arc and is joined, so
            // the pool is uniquely ours again.
            if let Some(pool) = Arc::into_inner(pool) {
                pool.drain_join();
            }
        }
        let task = self
            .ctx
            .rebuild
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(task) = task {
            let _ = task.join();
        }
    }
}

impl Drop for GdimServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Serves one connection for its whole keep-alive lifetime.
fn handle_connection(ctx: &Ctx, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let reader = ctx.handle.reader();
    // Every buffer a request needs lives as long as the connection, so
    // a keep-alive request allocates none of them once they have grown:
    // what was read, the response body, and head + body as one slice
    // for the single `write_all`.
    let mut inbox = Inbox::default();
    let mut text = String::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        match read_request(&mut stream, &mut inbox, ctx) {
            Ok(Some(head)) => {
                ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
                let m = &ctx.metrics;
                // Echo the client's request id or mint one; either way
                // every response (and every log line about it) carries
                // it in `X-Gdim-Request-Id`.
                let rid = match head.header("x-gdim-request-id") {
                    Some(id) if !id.is_empty() && id.len() <= 64 => {
                        m.skip_request_id();
                        sanitize_request_id(id)
                    }
                    _ => m.next_request_id(),
                };
                let ep = endpoint_index(head.path.split('?').next().unwrap_or(""));
                let mut obs = ReqTrace {
                    trace: Trace::start(),
                    approximate: false,
                };
                m.in_flight.add(1);
                let (status, payload) = route(ctx, &reader, &head, &inbox.body, &mut obs);
                if status >= 400 {
                    ctx.counters.error_responses.fetch_add(1, Ordering::Relaxed);
                }
                if status >= 500 {
                    if let Payload::Json(j) = &payload {
                        eprintln!("{}", error_log_line(&rid, ENDPOINTS[ep], status, j));
                    }
                }
                let keep = head.keep_alive && !ctx.stopping();
                let ser = std::time::Instant::now();
                text.clear();
                let content_type = payload.write(&mut text);
                out.clear();
                write_response_bytes(
                    &mut out,
                    status,
                    content_type,
                    &text,
                    keep,
                    &[("x-gdim-request-id", &rid)],
                );
                obs.trace.record(Stage::Serialize, ser.elapsed());
                let write_ok = stream.write_all(&out).is_ok();
                if let Some(slow) = m.observe(
                    ep,
                    status,
                    rid,
                    obs.trace.elapsed(),
                    *obs.trace.stages(),
                    obs.approximate,
                ) {
                    eprintln!("{}", slow_log_line(&slow));
                }
                m.in_flight.sub(1);
                if !write_ok || !keep {
                    return;
                }
            }
            Ok(None) => return, // clean close (EOF between requests, or drain)
            Err(e) => {
                ctx.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let body = error_body(e.code(), &e.to_string()).to_string_compact();
                let _ = stream.write_all(&response_bytes(e.status(), &body, false));
                return;
            }
        }
    }
}

/// What a connection has read and not yet answered. The vectors keep
/// their capacity from one request to the next.
#[derive(Default)]
struct Inbox {
    /// Bytes read past the current request (the start of a pipelined
    /// next one); they carry over to the next `read_request`.
    carry: Vec<u8>,
    /// The head parser, reset by each completed head.
    parser: HeadParser,
    /// The current request's body.
    body: Vec<u8>,
}

/// Reads one full request: returns its head and leaves its body in
/// `inbox.body`. `Ok(None)` means the connection ended cleanly before a
/// request started — EOF between keep-alive requests, or shutdown while
/// idle. Head and body may arrive in one segment or in many; nothing
/// here depends on how the peer split its writes.
fn read_request(
    stream: &mut TcpStream,
    inbox: &mut Inbox,
    ctx: &Ctx,
) -> Result<Option<RequestHead>, HttpError> {
    let Inbox {
        carry,
        parser,
        body,
    } = inbox;
    let mut started = false;
    let mut chunk = [0u8; 8 * 1024];
    let head = loop {
        if !carry.is_empty() {
            started = true;
            let (used, done) = parser.feed(carry)?;
            carry.drain(..used);
            if let Some(head) = done {
                break head;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if started {
                    Err(HttpError::Torn)
                } else {
                    Ok(None)
                };
            }
            Ok(n) => {
                started = true;
                let (used, done) = parser.feed(&chunk[..n])?;
                if let Some(head) = done {
                    carry.extend_from_slice(&chunk[used..n]);
                    break head;
                }
                debug_assert_eq!(used, n, "incomplete heads consume everything");
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if ctx.stopping() {
                    // Mid-head: the request is torn by the drain; idle:
                    // just close.
                    return if started {
                        Err(HttpError::Torn)
                    } else {
                        Ok(None)
                    };
                }
            }
            Err(_) => {
                return if started {
                    Err(HttpError::Torn)
                } else {
                    Ok(None)
                };
            }
        }
    };
    if head.content_length > DEFAULT_MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge {
            declared: head.content_length,
            limit: DEFAULT_MAX_BODY_BYTES,
        });
    }
    let need = head.content_length;
    let from_carry = need.min(carry.len());
    body.clear();
    body.extend(carry.drain(..from_carry));
    while body.len() < need {
        let want = (need - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::Torn),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if ctx.stopping() {
                    return Err(HttpError::Torn);
                }
            }
            Err(_) => return Err(HttpError::Torn),
        }
    }
    Ok(Some(head))
}

/// An application-level error reply: status + stable code + message.
struct ApiError {
    status: u16,
    code: String,
    message: String,
}

impl ApiError {
    fn new(status: u16, code: &str, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code: code.to_string(),
            message: message.into(),
        }
    }
}

impl From<GdimError> for ApiError {
    fn from(e: GdimError) -> Self {
        ApiError::new(gdim_error_status(&e), e.code(), e.to_string())
    }
}

impl From<WireError> for ApiError {
    fn from(e: WireError) -> Self {
        ApiError::new(400, "bad_request", e.to_string())
    }
}

/// A response body, not yet encoded: search answers stay typed so the
/// connection loop can stream them into its buffer
/// ([`write_response`]); the admin endpoints and every error build a
/// small [`Json`] tree; `GET /metrics` is preformatted Prometheus text.
enum Payload {
    Search(SearchResponse),
    Batch(Vec<SearchResponse>),
    Json(Json),
    Text(String),
}

impl Payload {
    /// Appends the encoded body to `out` and returns its content type.
    fn write(&self, out: &mut String) -> &'static str {
        match self {
            Payload::Search(resp) => write_response(resp, out),
            Payload::Batch(responses) => write_batch_response(responses, out),
            Payload::Json(j) => j.write(out),
            Payload::Text(t) => {
                out.push_str(t);
                return "text/plain; version=0.0.4";
            }
        }
        "application/json"
    }
}

/// Per-request observation state threaded through the dispatcher: the
/// stage trace, plus whether the answer used the approximate ranker
/// (surfaced in the slow-query ring).
struct ReqTrace {
    trace: Trace,
    approximate: bool,
}

/// Client-supplied request ids go verbatim into response headers and
/// log lines; strip anything that could break either.
fn sanitize_request_id(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_graphic() && c != '"' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Dispatches one request; always produces a `(status, body)` pair.
fn route(
    ctx: &Ctx,
    reader: &Reader,
    head: &RequestHead,
    body: &[u8],
    obs: &mut ReqTrace,
) -> (u16, Payload) {
    let path = head.path.split('?').next().unwrap_or("");
    if path == "/metrics" {
        // Text, not JSON — handled before the JSON dispatcher.
        if head.method != Method::Get {
            let body = error_body("method_not_allowed", "/metrics requires GET");
            return (405, Payload::Json(body));
        }
        let snap = reader.current();
        let text = ctx.metrics.render(snap.epoch(), &snap.shard_live_lens());
        return (200, Payload::Text(text));
    }
    match dispatch(ctx, reader, head, body, obs) {
        Ok(payload) => (200, payload),
        Err(e) => (e.status, Payload::Json(error_body(&e.code, &e.message))),
    }
}

/// Parses the body as a JSON object (empty bodies read as `{}` so
/// bodiless POSTs like `/rebuild` work).
fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    if body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "bad_json", "request body is not UTF-8"))?;
    parse(text).map_err(|e| ApiError::new(400, "bad_json", e.to_string()))
}

/// Reads a `/search` body: in one pass when it has the compact
/// shape ([`decode_search`]), else — counted in `fallback` — as a JSON
/// tree, whose decoders accept it or produce the error.
fn read_search(body: &[u8], fallback: &Counter) -> Result<(SearchRequest, QuerySpec), ApiError> {
    if let Some((req, g)) = decode_search(body) {
        return Ok((req, QuerySpec::Graph(g)));
    }
    fallback.inc();
    let j = parse_body(body)?;
    let req = request_from_json(&j)?;
    let query = j
        .get("query")
        .ok_or_else(|| ApiError::new(400, "bad_request", "missing \"query\""))?;
    Ok((req, query_from_json(query)?))
}

/// Reads an `/insert` body the same way ([`decode_insert`], else the
/// tree).
fn read_insert(body: &[u8], fallback: &Counter) -> Result<Graph, ApiError> {
    if let Some(g) = decode_insert(body) {
        return Ok(g);
    }
    fallback.inc();
    let j = parse_body(body)?;
    let graph = j
        .get("graph")
        .ok_or_else(|| ApiError::new(400, "bad_request", "missing \"graph\""))?;
    Ok(graph_from_json(graph)?)
}

/// Resolves a query spec against one snapshot: id queries borrow the
/// stored graph, inline queries use the shipped one.
fn resolve<'a>(snap: &'a ShardedIndex, spec: &'a QuerySpec) -> Result<&'a Graph, GdimError> {
    match spec {
        QuerySpec::Id(id) => snap.graph(*id),
        QuerySpec::Graph(g) => Ok(g),
    }
}

fn dispatch(
    ctx: &Ctx,
    reader: &Reader,
    head: &RequestHead,
    body: &[u8],
    obs: &mut ReqTrace,
) -> Result<Payload, ApiError> {
    // Route on the path first so a known path with the wrong method
    // answers 405, not 404.
    let path = head.path.split('?').next().unwrap_or("");
    let expected = match path {
        "/health" | "/stats" => Method::Get,
        "/search" | "/search_batch" | "/insert" | "/remove" | "/rebuild" | "/checkpoint"
        | "/shutdown" => Method::Post,
        _ => {
            return Err(ApiError::new(
                404,
                "unknown_route",
                format!("no route for {}", head.path),
            ))
        }
    };
    if head.method != expected {
        return Err(ApiError::new(
            405,
            "method_not_allowed",
            format!("{} requires {}", path, expected.as_str()),
        ));
    }
    let json = match path {
        "/health" => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("version", Json::U64(ctx.handle.version())),
        ])),
        "/stats" => {
            let snap = reader.current();
            let rebuild_in_flight = ctx
                .rebuild
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .is_some_and(|t| !t.is_finished());
            let c = &ctx.counters;
            let mut fields = vec![
                ("version", Json::U64(ctx.handle.version())),
                ("epoch", Json::U64(snap.epoch())),
                ("graphs", Json::U64(snap.len() as u64)),
                ("live_graphs", Json::U64(snap.live_len() as u64)),
                ("shards", Json::U64(snap.shard_count() as u64)),
                ("dimensions", Json::U64(snap.p() as u64)),
                ("workers", Json::U64(ctx.cfg.workers as u64)),
                (
                    "connections",
                    Json::U64(c.connections.load(Ordering::Relaxed)),
                ),
                ("requests", Json::U64(c.requests.load(Ordering::Relaxed))),
                (
                    "error_responses",
                    Json::U64(c.error_responses.load(Ordering::Relaxed)),
                ),
                (
                    "protocol_errors",
                    Json::U64(c.protocol_errors.load(Ordering::Relaxed)),
                ),
                ("rebuild_in_flight", Json::Bool(rebuild_in_flight)),
                ("durable", Json::Bool(ctx.durable.is_some())),
            ];
            fields.extend(ctx.metrics.stats_json());
            if let Some(d) = &ctx.durable {
                // Lock-free mirrors: stats stay responsive even while
                // a checkpoint holds the durable lock for a full save.
                fields.push(("generation", Json::U64(d.generation())));
                fields.push(("wal_records", Json::U64(d.wal_records())));
                fields.push(("wal_bytes", Json::U64(d.wal_bytes())));
            }
            Ok(Json::obj(fields))
        }
        "/search" => {
            let (id, snap) = reader.current_with_id();
            let resp = result_cache::answer(id, body, || {
                let fallback = &ctx.metrics.decode_fallback;
                let (req, spec) = obs
                    .trace
                    .time(Stage::Parse, || read_search(body, fallback))?;
                Ok::<_, ApiError>(snap.search(resolve(&snap, &spec)?, &req)?)
            })?;
            obs.trace.absorb(&resp.stats.stages);
            obs.approximate = resp.stats.approximate;
            return Ok(Payload::Search(resp));
        }
        "/search_batch" => {
            let j = obs.trace.time(Stage::Parse, || parse_body(body))?;
            let req: SearchRequest = request_from_json(&j)?;
            let specs = j
                .get("queries")
                .and_then(Json::as_arr)
                .ok_or_else(|| ApiError::new(400, "bad_request", "missing \"queries\" array"))?
                .iter()
                .map(query_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            let snap = reader.current();
            // Every spec resolves before any search runs, so an unknown
            // id fails the whole request.
            let graphs = specs
                .iter()
                .map(|s| resolve(&snap, s))
                .collect::<Result<Vec<_>, _>>()?;
            let responses = graphs
                .into_iter()
                .map(|g| snap.search(g, &req))
                .collect::<Result<Vec<_>, _>>()?;
            for r in &responses {
                obs.trace.absorb(&r.stats.stages);
                obs.approximate |= r.stats.approximate;
            }
            return Ok(Payload::Batch(responses));
        }
        "/insert" => {
            let fallback = &ctx.metrics.decode_fallback;
            let g = obs
                .trace
                .time(Stage::Parse, || read_insert(body, fallback))?;
            // In durable mode the record hits the log before the
            // index — under SyncPolicy::Always a 200 means it is on
            // disk; group-commit policies ack before the fsync and
            // can lose the last unsynced acks in a crash.
            let id = match &ctx.durable {
                Some(d) => d.insert(g)?,
                None => ctx.handle.insert(g),
            };
            Ok(Json::obj([
                ("id", Json::U64(id.get() as u64)),
                ("version", Json::U64(ctx.handle.version())),
            ]))
        }
        "/remove" => {
            let j = obs.trace.time(Stage::Parse, || parse_body(body))?;
            let id = j
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| ApiError::new(400, "bad_request", "missing or bad \"id\""))?;
            let removed = match &ctx.durable {
                Some(d) => d.remove(GraphId(id))?,
                None => ctx.handle.remove(GraphId(id))?,
            };
            Ok(Json::obj([
                ("removed", Json::Bool(removed)),
                ("version", Json::U64(ctx.handle.version())),
            ]))
        }
        "/rebuild" => {
            let j = parse_body(body)?;
            let mode = match j.get("mode") {
                None => "sync",
                Some(m) => m.as_str().ok_or_else(|| {
                    ApiError::new(
                        400,
                        "bad_request",
                        "mode must be \"sync\" or \"background\"",
                    )
                })?,
            };
            match mode {
                "sync" => {
                    // Durable rebuild reassigns ids, so it cannot be
                    // logged — it checkpoints before acking instead.
                    if let Some(d) = &ctx.durable {
                        let generation = d.rebuild()?;
                        return Ok(Payload::Json(Json::obj([
                            ("swapped", Json::Bool(true)),
                            ("version", Json::U64(ctx.handle.version())),
                            ("generation", Json::U64(generation)),
                        ])));
                    }
                    ctx.handle.write(ShardedIndex::rebuild);
                    Ok(Json::obj([
                        ("swapped", Json::Bool(true)),
                        ("version", Json::U64(ctx.handle.version())),
                    ]))
                }
                "background" => {
                    if ctx.durable.is_some() {
                        return Err(ApiError::new(
                            400,
                            "bad_request",
                            "durable mode only supports mode: \"sync\" (a rebuild must \
                             checkpoint before it can be acked)",
                        ));
                    }
                    let mut slot = ctx.rebuild.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.as_ref().is_some_and(|t| !t.is_finished()) {
                        return Err(ApiError::new(
                            409,
                            "rebuild_in_flight",
                            "a background rebuild is already running",
                        ));
                    }
                    if let Some(done) = slot.take() {
                        let _ = done.join();
                    }
                    let handle = ctx.handle.clone();
                    let rebuild = std::thread::Builder::new()
                        .name("gdim-rebuild".to_string())
                        .spawn(move || handle.write(ShardedIndex::rebuild))
                        .map_err(GdimError::from)?;
                    *slot = Some(rebuild);
                    Ok(Json::obj([("started", Json::Bool(true))]))
                }
                other => Err(ApiError::new(
                    400,
                    "bad_request",
                    format!("unknown rebuild mode {other:?}"),
                )),
            }
        }
        "/checkpoint" => {
            let Some(d) = &ctx.durable else {
                return Err(ApiError::new(
                    400,
                    "not_durable",
                    "the server is not running in --durable mode",
                ));
            };
            let generation = d.checkpoint()?;
            Ok(Json::obj([
                ("generation", Json::U64(generation)),
                ("wal_records", Json::U64(d.wal_records())),
            ]))
        }
        "/shutdown" => {
            ctx.latch.request();
            Ok(Json::obj([("stopping", Json::Bool(true))]))
        }
        _ => unreachable!("path was matched above"),
    };
    json.map(Payload::Json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use gdim_core::IndexOptions;
    use gdim_shard::ShardedOptions;

    fn serving_handle(n: usize, seed: u64) -> ServingHandle {
        let db = gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed);
        let idx = ShardedIndex::build(
            db,
            ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(8)),
        );
        ServingHandle::new(idx)
    }

    fn start(n: usize, seed: u64) -> GdimServer {
        let cfg = ServerConfig::new().with_workers(2);
        GdimServer::start(serving_handle(n, seed), cfg).expect("bind ephemeral port")
    }

    fn search_body(id: u32, k: usize) -> Json {
        Json::obj([
            ("query", Json::obj([("id", Json::U64(id as u64))])),
            ("k", Json::U64(k as u64)),
        ])
    }

    #[test]
    fn served_hits_are_bit_identical_to_in_process() {
        let server = start(24, 5);
        let mut client = Client::connect(server.addr()).unwrap();
        // Global ids are composed (shard ⊕ local row), not dense —
        // resolve real ids through the insertion sequence numbers.
        let snap0 = server.handle().snapshot();
        let ids: Vec<u32> = [0u64, 13, 23]
            .iter()
            .map(|&seq| snap0.id_for_seq(seq).unwrap().get())
            .collect();
        for id in ids {
            let (status, j) = client.post("/search", &search_body(id, 5)).unwrap();
            assert_eq!(status, 200, "{j:?}");
            let served = crate::wire::response_from_json(&j).unwrap();
            let snap = server.handle().snapshot();
            let local = snap
                .search(snap.graph(GraphId(id)).unwrap(), &SearchRequest::new(5))
                .unwrap();
            assert_eq!(served.hits.len(), local.hits.len());
            for (a, b) in served.hits.iter().zip(&local.hits) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
        }

        // The same query shipped inline: compact and with keys
        // reordered (the one-pass decoder), with whitespace, with
        // `"budget": null` or with `"mapping": "binary"` (the tree):
        // every spelling answers the in-process hits.
        let g = snap0.graph(snap0.id_for_seq(13).unwrap()).unwrap().clone();
        let local = snap0.search(&g, &SearchRequest::new(5)).unwrap();
        let bits = |hits: &[gdim_core::Hit]| -> Vec<(GraphId, u64)> {
            hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
        };
        let Json::Obj(graph) = crate::wire::graph_to_json(&g) else {
            unreachable!("graphs encode as objects")
        };
        let body = |graph: Vec<(String, Json)>, fields: &[(&str, Json)]| {
            let query = Json::obj([("graph", Json::Obj(graph))]);
            let mut body = vec![("query".to_string(), query)];
            body.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
            Json::Obj(body).to_string_compact()
        };
        let compact = body(graph.clone(), &[("k", Json::U64(5))]);
        let reordered = {
            let rev: Vec<_> = graph.iter().rev().cloned().collect();
            let query = Json::obj([("graph", Json::Obj(rev))]);
            Json::obj([("k", Json::U64(5)), ("query", query)]).to_string_compact()
        };
        for text in [
            compact.clone(),
            compact.replace(',', ", ").replace(':', ": "),
            reordered,
            body(
                graph.clone(),
                &[("k", Json::U64(5)), ("budget", Json::Null)],
            ),
            body(
                graph.clone(),
                &[("k", Json::U64(5)), ("mapping", Json::Str("binary".into()))],
            ),
        ] {
            let (status, j) = client.post_text("/search", &text).unwrap();
            assert_eq!(status, 200, "{text}: {j:?}");
            let served = crate::wire::response_from_json(&j).unwrap();
            assert_eq!(bits(&served.hits), bits(&local.hits), "{text}");
        }

        // Malformed inline queries answer exactly what the tree decoders
        // always answered: status, code and message.
        let with_edge = |extra: Json| {
            let mut graph = graph.clone();
            if let Some((_, Json::Arr(edges))) = graph.iter_mut().find(|(key, _)| key == "e") {
                edges.push(extra);
            }
            body(graph, &[("k", Json::U64(5))])
        };
        let e0 = g.edges()[0];
        let n = g.vertex_count() as u64;
        let triple =
            |u: u64, v: u64, l: u64| Json::Arr(vec![Json::U64(u), Json::U64(v), Json::U64(l)]);
        for (text, message) in [
            (
                with_edge(triple(e0.v as u64, e0.u as u64, 1)),
                format!("graph.e: ParallelEdge({}, {})", e0.u, e0.v),
            ),
            (
                with_edge(triple(0, n, 0)),
                format!("graph.e: UnknownVertex({n})"),
            ),
            (
                body(graph.clone(), &[("k", Json::F64(1.5))]),
                "k must be a non-negative integer".to_string(),
            ),
            (
                body(graph.clone(), &[("ranker", Json::Str("fast".into()))]),
                "ranker must be \"mapped\", \"exact\", {\"refined\": ...}, or {\"approx\": ...}"
                    .to_string(),
            ),
            (
                body(graph.clone(), &[("mapping", Json::Str("weighted".into()))]),
                "mapping must be \"binary\": ranking is binary, the weighted distance is not served"
                    .to_string(),
            ),
        ] {
            let (status, j) = client.post_text("/search", &text).unwrap();
            assert_eq!(status, 400, "{text}: {j:?}");
            let error = j.get("error").unwrap();
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("bad_request")
            );
            assert_eq!(
                error.get("message").and_then(Json::as_str),
                Some(format!("malformed wire value: {message}").as_str()),
            );
        }
        server.shutdown();
    }

    #[test]
    fn zero_workers_serve_as_one_and_stats_say_so() {
        let cfg = ServerConfig {
            workers: 0,
            ..ServerConfig::new()
        };
        let server = GdimServer::start(serving_handle(12, 5), cfg).expect("bind ephemeral port");
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, stats) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(1));
        let id = server.handle().snapshot().id_for_seq(3).unwrap().get();
        let (status, j) = client.post("/search", &search_body(id, 3)).unwrap();
        assert_eq!(status, 200, "{j:?}");
        assert_eq!(crate::wire::response_from_json(&j).unwrap().hits.len(), 3);
        server.shutdown();
    }

    #[test]
    fn approx_ranker_serves_over_the_wire_and_says_so() {
        let server = start(24, 5);
        let mut client = Client::connect(server.addr()).unwrap();
        let snap = server.handle().snapshot();
        let id = snap.id_for_seq(3).unwrap().get();
        // ef far above n: the beam is exhaustive, so even the inexact
        // ranker must reproduce the in-process answer bit for bit.
        let mut body = search_body(id, 5);
        if let Json::Obj(fields) = &mut body {
            fields.push((
                "ranker".into(),
                Json::obj([("approx", Json::obj([("ef", Json::U64(64))]))]),
            ));
        }
        let (status, j) = client.post("/search", &body).unwrap();
        assert_eq!(status, 200, "{j:?}");
        let served = crate::wire::response_from_json(&j).unwrap();
        assert!(served.stats.approximate, "stats must admit inexactness");
        assert_eq!(served.stats.ef, 64);
        assert!(served.stats.beam_visited > 0);
        let req = SearchRequest::new(5).ranker(gdim_core::Ranker::Approx {
            ef: 64,
            verify: None,
        });
        let local = snap.search(snap.graph(GraphId(id)).unwrap(), &req).unwrap();
        assert_eq!(served.hits.len(), local.hits.len());
        for (a, b) in served.hits.iter().zip(&local.hits) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        server.shutdown();
    }

    #[test]
    fn batch_endpoint_answers_each_query_like_in_process_search() {
        let server = start(24, 6);
        let mut client = Client::connect(server.addr()).unwrap();
        let snap = server.handle().snapshot();
        let ids: Vec<u32> = (0..4u64)
            .map(|seq| snap.id_for_seq(seq).unwrap().get())
            .collect();
        let queries = Json::Arr(
            ids.iter()
                .map(|&id| Json::obj([("id", Json::U64(id as u64))]))
                .collect(),
        );
        let body = Json::obj([("queries", queries), ("k", Json::U64(3))]);
        let (status, j) = client.post("/search_batch", &body).unwrap();
        assert_eq!(status, 200, "{j:?}");
        let served: Vec<_> = j.get("responses").and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(served.len(), ids.len());
        for (sj, &id) in served.iter().zip(&ids) {
            let s = crate::wire::response_from_json(sj).unwrap();
            let local = snap
                .search(snap.graph(GraphId(id)).unwrap(), &SearchRequest::new(3))
                .unwrap();
            assert_eq!(s.hits.len(), local.hits.len());
            for (a, b) in s.hits.iter().zip(&local.hits) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
        }
        // One unknown id fails the whole batch, as it fails `/search`.
        let queries = Json::Arr(
            [ids[0], 9999]
                .iter()
                .map(|&id| Json::obj([("id", Json::U64(id as u64))]))
                .collect(),
        );
        let body = Json::obj([("queries", queries), ("k", Json::U64(3))]);
        let (status, j) = client.post("/search_batch", &body).unwrap();
        assert_eq!(status, 404, "{j:?}");
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("graph_out_of_range")
        );
        server.shutdown();
    }

    #[test]
    fn admin_cycle_insert_remove_rebuild_reflects_in_stats() {
        let server = start(16, 7);
        let mut client = Client::connect(server.addr()).unwrap();
        let (_, stats0) = client.get("/stats").unwrap();
        let live0 = stats0.get("live_graphs").and_then(Json::as_u64).unwrap();

        // Insert a copy of graph 0 (fetched locally for the test).
        let g = server
            .handle()
            .snapshot()
            .graph(GraphId(0))
            .unwrap()
            .clone();
        let (status, j) = client
            .post(
                "/insert",
                &Json::obj([("graph", crate::wire::graph_to_json(&g))]),
            )
            .unwrap();
        assert_eq!(status, 200, "{j:?}");
        let new_id = j.get("id").and_then(Json::as_u64).unwrap() as u32;

        let (_, stats1) = client.get("/stats").unwrap();
        assert_eq!(
            stats1.get("live_graphs").and_then(Json::as_u64).unwrap(),
            live0 + 1
        );

        // Remove it again; removing twice reports false.
        let rm = Json::obj([("id", Json::U64(new_id as u64))]);
        let (status, j) = client.post("/remove", &rm).unwrap();
        assert_eq!(
            (status, j.get("removed").and_then(Json::as_bool)),
            (200, Some(true))
        );
        let (status, j) = client.post("/remove", &rm).unwrap();
        assert_eq!(
            (status, j.get("removed").and_then(Json::as_bool)),
            (200, Some(false))
        );

        // A sync rebuild compacts the tombstone away and bumps epoch.
        let (status, j) = client
            .post("/rebuild", &Json::obj([("mode", Json::Str("sync".into()))]))
            .unwrap();
        assert_eq!(status, 200, "{j:?}");
        assert_eq!(j.get("swapped").and_then(Json::as_bool), Some(true));
        let (_, stats2) = client.get("/stats").unwrap();
        assert_eq!(
            stats2.get("live_graphs").and_then(Json::as_u64).unwrap(),
            live0
        );
        assert_eq!(
            stats2.get("graphs").and_then(Json::as_u64).unwrap(),
            live0,
            "rebuild compacts tombstones"
        );
        server.shutdown();
    }

    #[test]
    fn unknown_routes_and_wrong_methods_answer_typed_errors() {
        let server = start(12, 8);
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, j) = client.get("/nope").unwrap();
        assert_eq!(status, 404);
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unknown_route")
        );
        let (status, j) = client.get("/search").unwrap();
        assert_eq!(status, 405);
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("method_not_allowed")
        );
        // A graph id past the database answers 404 with the GdimError code.
        let (status, j) = client.post("/search", &search_body(9999, 3)).unwrap();
        assert_eq!(status, 404, "{j:?}");
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("graph_out_of_range")
        );
        // A per-request MCS budget is refused: exact ranking runs at
        // the index's δ budget only.
        let with_budget = Json::obj([
            ("query", Json::obj([("id", Json::U64(0))])),
            ("ranker", Json::Str("exact".into())),
            ("budget", Json::U64(5)),
        ]);
        let (status, j) = client.post("/search", &with_budget).unwrap();
        assert_eq!(status, 400, "{j:?}");
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_unblocks_wait_and_drains() {
        let server = start(12, 9);
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let (status, j) = client.post("/shutdown", &Json::Null).unwrap();
            assert_eq!(status, 200);
            assert_eq!(j.get("stopping").and_then(Json::as_bool), Some(true));
        });
        server.wait(); // returns once the POST landed
        waiter.join().unwrap();
        server.shutdown(); // drains without hanging
    }

    #[test]
    fn durable_mode_acks_survive_reopen_and_checkpoint_rolls_generations() {
        use gdim_shard::{DurableHandle, SyncPolicy};
        let dir = std::env::temp_dir().join(format!("gdim-srv-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = gdim_datagen::chem_db(12, &gdim_datagen::ChemConfig::default(), 11);
        let extra = db[0].clone();
        let idx = ShardedIndex::build(
            db,
            ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(8)),
        );
        let durable = DurableHandle::create(&dir, idx, SyncPolicy::Always).unwrap();
        let cfg = ServerConfig::new().with_workers(2);
        let server = GdimServer::start_durable(durable, cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        // /checkpoint works only in durable mode and rolls the generation.
        let (status, j) = client.post("/checkpoint", &Json::Null).unwrap();
        assert_eq!(status, 200, "{j:?}");
        assert_eq!(j.get("generation").and_then(Json::as_u64), Some(1));

        // An acked insert is in the log; /stats reports durable state.
        let (status, j) = client
            .post(
                "/insert",
                &Json::obj([("graph", crate::wire::graph_to_json(&extra))]),
            )
            .unwrap();
        assert_eq!(status, 200, "{j:?}");
        let id = j.get("id").and_then(Json::as_u64).unwrap() as u32;
        let (_, stats) = client.get("/stats").unwrap();
        assert_eq!(stats.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("wal_records").and_then(Json::as_u64), Some(1));

        // Background rebuilds are refused in durable mode.
        let (status, j) = client
            .post(
                "/rebuild",
                &Json::obj([("mode", Json::Str("background".into()))]),
            )
            .unwrap();
        assert_eq!(status, 400, "{j:?}");

        let want = server.handle().snapshot();
        server.shutdown();

        // Reopening recovers the acked insert bit-identically.
        let (reopened, report) = DurableHandle::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(report.wal_records, 1);
        let got = reopened.serving().snapshot();
        assert_eq!(got.live_len(), want.live_len());
        assert_eq!(got.graph(GraphId(id)).unwrap(), &extra);
        let q = got.graph(GraphId(id)).unwrap().clone();
        let a = want.search(&q, &SearchRequest::new(5)).unwrap();
        let b = got.search(&q, &SearchRequest::new(5)).unwrap();
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!((x.id, x.distance.to_bits()), (y.id, y.distance.to_bits()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_background_rebuild_is_one_named_thread_and_one_at_a_time() {
        let server = start(16, 13);
        let mut client = Client::connect(server.addr()).unwrap();
        let bg = Json::obj([("mode", Json::Str("background".into()))]);
        // Holding the writer lock keeps the rebuild thread waiting in
        // `ServingHandle::write`, so it is certainly still running.
        server.handle().write(|_| {
            let (status, j) = client.post("/rebuild", &bg).unwrap();
            assert_eq!(status, 200, "{j:?}");
            assert_eq!(j.get("started").and_then(Json::as_bool), Some(true));
            let (status, j) = client.post("/rebuild", &bg).unwrap();
            assert_eq!(status, 409, "{j:?}");
            let (_, stats) = client.get("/stats").unwrap();
            assert_eq!(
                stats.get("rebuild_in_flight").and_then(Json::as_bool),
                Some(true)
            );
        });
        let rebuild = server.ctx.rebuild.lock().unwrap().take().unwrap();
        assert_eq!(rebuild.thread().name(), Some("gdim-rebuild"));
        rebuild.join().unwrap();
        let (_, stats) = client.get("/stats").unwrap();
        assert_eq!(stats.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stats.get("rebuild_in_flight").and_then(Json::as_bool),
            Some(false)
        );
        server.shutdown();
    }

    #[test]
    fn checkpoint_without_durable_mode_is_a_typed_400() {
        let server = start(8, 12);
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, j) = client.post("/checkpoint", &Json::Null).unwrap();
        assert_eq!(status, 400);
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("not_durable")
        );
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_parseable_exposition() {
        let server = start(24, 13);
        let mut client = Client::connect(server.addr()).unwrap();
        let snap = server.handle().snapshot();
        let id = snap.id_for_seq(0).unwrap().get();
        let (status, _) = client.post("/search", &search_body(id, 5)).unwrap();
        assert_eq!(status, 200);
        let (status, text) = client.get_text("/metrics").unwrap();
        assert_eq!(status, 200);
        let expo = gdim_obs::expo::parse(&text).expect("exposition parses");
        assert_eq!(expo.type_of("gdim_requests_total"), Some("counter"));
        assert_eq!(expo.type_of("gdim_request_latency_ns"), Some("histogram"));
        assert_eq!(expo.type_of("gdim_stage_ns"), Some("histogram"));
        assert_eq!(expo.type_of("gdim_in_flight_requests"), Some("gauge"));
        assert!(
            expo.value("gdim_requests_total", &[("endpoint", "search")])
                .unwrap()
                >= 1.0
        );
        assert!(expo.value("gdim_uptime_ns", &[]).unwrap() > 0.0);
        assert_eq!(expo.value("gdim_live_graphs", &[]), Some(24.0));
        // Resident memory is exported where the kernel reports it.
        if std::path::Path::new("/proc/self/status").exists() {
            assert_eq!(expo.type_of("gdim_process_resident_bytes"), Some("gauge"));
            assert!(expo.value("gdim_process_resident_bytes", &[]).unwrap() > 1e6);
        } else {
            assert_eq!(expo.type_of("gdim_process_resident_bytes"), None);
        }
        let hist = expo
            .histogram("gdim_request_latency_ns", &[("endpoint", "search")])
            .expect("search latency histogram reconstructs");
        assert!(hist.p50() > 0, "a real request landed in a real bucket");
        // Every serving endpoint is pre-registered — a scraper sees
        // the full catalogue even before traffic arrives.
        for ep in ["search_batch", "insert", "remove", "checkpoint"] {
            assert!(
                expo.value("gdim_requests_total", &[("endpoint", ep)])
                    .is_some(),
                "missing eager series for {ep}"
            );
        }
        // An id query is outside the one-pass shape: the search above
        // was read through the tree and counted. A compact inline query
        // is not counted; the same body with whitespace is, once.
        assert_eq!(
            expo.type_of("gdim_wire_decode_fallback_total"),
            Some("counter")
        );
        let mut fallbacks = || {
            let (_, text) = client.get_text("/metrics").unwrap();
            let expo = gdim_obs::expo::parse(&text).expect("exposition parses");
            expo.value("gdim_wire_decode_fallback_total", &[]).unwrap()
        };
        assert_eq!(fallbacks(), 1.0);
        let g =
            crate::wire::query_to_json(&QuerySpec::Graph(snap.graph(GraphId(id)).unwrap().clone()));
        let compact = Json::obj([("query", g), ("k", Json::U64(5))]).to_string_compact();
        let pretty = compact.replace(',', ",\n  ").replace(':', ": ");
        for (text, want) in [(&compact, 1.0), (&pretty, 2.0)] {
            let (status, j) = Client::connect(server.addr())
                .unwrap()
                .post_text("/search", text)
                .unwrap();
            assert_eq!(status, 200, "{j:?}");
            assert_eq!(fallbacks(), want, "{text}");
        }
        // The first body twice more, on the same connection and so on
        // the same worker thread: its second miss stores it, and the
        // third request is answered from that thread's result cache,
        // timed as its one `cache` stage. The same query with another
        // `k` is a new body: it runs the search, and maps its query
        // from the thread's map cache. The counters are process-wide
        // and other tests search too, so they are only seen to rise.
        let counts = |client: &mut Client| {
            let (_, text) = client.get_text("/metrics").unwrap();
            let expo = gdim_obs::expo::parse(&text).expect("exposition parses");
            let names = [
                "gdim_result_cache_hits_total",
                "gdim_result_cache_misses_total",
                "gdim_map_cache_hits_total",
                "gdim_map_cache_misses_total",
            ];
            for name in names {
                assert_eq!(expo.type_of(name), Some("counter"), "{name}");
            }
            let cache_stage = expo.histogram("gdim_stage_ns", &[("stage", "cache")]);
            (names.map(|n| expo.value(n, &[]).unwrap()), cache_stage)
        };
        let (status, _) = client.post("/search", &search_body(id, 5)).unwrap();
        assert_eq!(status, 200);
        let (before, _) = counts(&mut client);
        let (status, j) = client.post("/search", &search_body(id, 5)).unwrap();
        assert_eq!(status, 200);
        let stats = j.get("stats").unwrap();
        assert_eq!(stats.get("match_time_ns").and_then(Json::as_u64), Some(0));
        match stats.get("stages") {
            Some(Json::Obj(stages)) => {
                assert_eq!(stages.len(), 1, "{stages:?}");
                assert_eq!(stages[0].0, "cache");
            }
            other => panic!("a hit times its lookup: {other:?}"),
        }
        let (hit, cache_stage) = counts(&mut client);
        assert!(hit[0] > before[0], "the repeat is a result-cache hit");
        assert!(cache_stage.expect("cache stage exported").p50() > 0);
        let (status, _) = client.post("/search", &search_body(id, 6)).unwrap();
        assert_eq!(status, 200);
        let (after, _) = counts(&mut client);
        assert!(after[1] > hit[1], "a new body misses");
        assert!(after[2] > hit[2], "and maps its query from the map cache");
        // Wrong method answers a typed 405, like every other route.
        let (status, j) = client.post("/metrics", &Json::Null).unwrap();
        assert_eq!(status, 405, "{j:?}");
        server.shutdown();
    }

    #[test]
    fn responses_carry_request_ids_and_echo_client_supplied_ones() {
        use std::io::{Read as _, Write as _};
        let server = start(8, 14);
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(
            b"GET /health HTTP/1.1\r\nhost: t\r\nx-gdim-request-id: my-trace-7\r\n\
              content-length: 0\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        assert!(
            reply.contains("x-gdim-request-id: my-trace-7\r\n"),
            "client id must be echoed, got:\n{reply}"
        );
        // Without a client id the server mints one: 8-hex boot, dash, seq.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(
            b"GET /health HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        let line = reply
            .lines()
            .find(|l| l.starts_with("x-gdim-request-id: "))
            .expect("generated id header present");
        let id = line.trim_start_matches("x-gdim-request-id: ").trim();
        let (boot, seq) = id.split_once('-').expect("boot-seq shape");
        assert_eq!(boot.len(), 8);
        assert!(u64::from_str_radix(seq, 16).is_ok());
        server.shutdown();
    }

    #[test]
    fn stats_reports_uptime_per_endpoint_latency_and_slowest_requests() {
        let server = start(16, 15);
        let mut client = Client::connect(server.addr()).unwrap();
        let snap = server.handle().snapshot();
        let id = snap.id_for_seq(1).unwrap().get();
        for _ in 0..3 {
            let (status, _) = client.post("/search", &search_body(id, 3)).unwrap();
            assert_eq!(status, 200);
        }
        let (status, stats) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        assert!(stats.get("uptime_ns").and_then(Json::as_u64).unwrap() > 0);
        let search = stats
            .get("endpoints")
            .and_then(|e| e.get("search"))
            .expect("per-endpoint block for search");
        assert_eq!(search.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(search.get("errors").and_then(Json::as_u64), Some(0));
        assert!(search.get("p50_ns").and_then(Json::as_u64).unwrap() > 0);
        // The ring saw the searches; the slow-query log lists them
        // slowest-first with their ids and stage breakdowns.
        let slow = stats.get("slow_queries").and_then(Json::as_arr).unwrap();
        assert!(!slow.is_empty());
        let entry = slow
            .iter()
            .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("search"))
            .expect("a search in the ring");
        assert!(entry.get("id").and_then(Json::as_str).is_some());
        assert!(entry.get("wall_ns").and_then(Json::as_u64).unwrap() > 0);
        assert!(entry.get("stages").is_some());
        server.shutdown();
    }

    #[test]
    fn a_body_sized_string_is_refused_quickly_and_starves_nobody() {
        // The largest body the default cap admits, all of it one JSON
        // string: valid JSON, not a request. It must cost the worker
        // milliseconds (it cost ~23 s when the string scanner was
        // quadratic) and the other worker must keep answering.
        let server = start(8, 16);
        let addr = server.addr();
        let poster = std::thread::spawn(move || {
            let body = Json::Str("x".repeat(DEFAULT_MAX_BODY_BYTES - 2));
            let mut client = Client::connect(addr).unwrap();
            let t = std::time::Instant::now();
            let (status, j) = client.post("/search", &body).unwrap();
            (status, j, t.elapsed())
        });
        let mut client = Client::connect(addr).unwrap();
        let mut health_checks = 0;
        while !poster.is_finished() || health_checks == 0 {
            let (status, _) = client.get("/health").unwrap();
            assert_eq!(status, 200);
            health_checks += 1;
        }
        let (status, j, took) = poster.join().unwrap();
        assert_eq!(status, 400, "{j:?}");
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        assert!(
            took < Duration::from_secs(2),
            "the 1 MiB body took {took:?}"
        );
        server.shutdown();
    }

    #[test]
    fn a_request_split_across_two_writes_is_answered_like_one_write() {
        // `Client` sends head and body in one write; the server must
        // not come to depend on that.
        use std::io::{Read as _, Write as _};
        let server = start(16, 17);
        let id = server.handle().snapshot().id_for_seq(2).unwrap().get();
        let body = search_body(id, 4).to_string_compact();
        let head = format!(
            "POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        let exchange = |gap: Option<Duration>| {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.set_nodelay(true).unwrap();
            match gap {
                Some(gap) => {
                    raw.write_all(head.as_bytes()).unwrap();
                    std::thread::sleep(gap);
                    raw.write_all(body.as_bytes()).unwrap();
                }
                None => raw.write_all(format!("{head}{body}").as_bytes()).unwrap(),
            }
            let mut reply = String::new();
            raw.read_to_string(&mut reply).unwrap();
            let (reply_head, reply_body) = reply.split_once("\r\n\r\n").expect("head terminator");
            let status = reply_head.lines().next().unwrap().to_string();
            let hits = parse(reply_body).unwrap().get("hits").cloned();
            (status, hits)
        };
        let one_write = exchange(None);
        assert_eq!(one_write.0, "HTTP/1.1 200 OK");
        assert_eq!(
            one_write
                .1
                .as_ref()
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(exchange(Some(Duration::from_millis(20))), one_write);
        server.shutdown();
    }

    #[test]
    fn oversized_bodies_are_refused_with_413() {
        // The declared length alone decides: the head claims one byte
        // over the cap and no body is ever sent.
        use std::io::{Read as _, Write as _};
        let server = start(8, 10);
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let head = format!(
            "POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        raw.write_all(head.as_bytes()).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        let (reply_head, reply_body) = reply.split_once("\r\n\r\n").expect("head terminator");
        assert!(reply_head.starts_with("HTTP/1.1 413"), "{reply_head}");
        assert_eq!(
            parse(reply_body)
                .unwrap()
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("body_too_large")
        );
        server.shutdown();
    }
}
