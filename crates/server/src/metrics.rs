//! Per-server observability state: labeled request counters, latency
//! and per-stage histograms, the in-flight gauge, the slow-query ring,
//! and request-id generation — everything `GET /metrics` and the
//! enriched `GET /stats` read from.
//!
//! ## Counter reset semantics
//!
//! Every counter and histogram here is **process-lifetime**: it starts
//! at zero when the server boots and is never reset by rebuilds,
//! checkpoints, or epoch swaps. Scrapers should treat restarts (a
//! counter going backwards) the way Prometheus does — as a new
//! process generation. The `boot` component of request ids changes on
//! every boot for the same reason, so ids from different generations
//! never collide in downstream logs.
//!
//! All hot-path recording is lock-free (relaxed atomics); the only
//! locks are taken at registration time (once, at boot) and on the
//! rare error path where a new `{endpoint, status}` error series first
//! appears.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use gdim_obs::{
    global, Counter, Gauge, Histogram, Registry, RequestRecord, RequestRing, Stage, StageTimes,
    STAGE_COUNT,
};

use crate::json::Json;

/// The endpoint labels, in routing order. Index into this array is the
/// index into every per-endpoint instrument vector; unknown paths land
/// on the final `"other"` slot so scrapes of bogus paths still count.
pub(crate) const ENDPOINTS: [&str; 11] = [
    "health",
    "stats",
    "metrics",
    "search",
    "search_batch",
    "insert",
    "remove",
    "rebuild",
    "checkpoint",
    "shutdown",
    "other",
];

/// Index of the catch-all `"other"` endpoint label.
pub(crate) const EP_OTHER: usize = ENDPOINTS.len() - 1;

/// Maps a request path (`"/search"`) to its [`ENDPOINTS`] index.
pub(crate) fn endpoint_index(path: &str) -> usize {
    let name = path.strip_prefix('/').unwrap_or(path);
    ENDPOINTS
        .iter()
        .position(|e| *e == name)
        .unwrap_or(EP_OTHER)
}

/// One server's observability state. Shared by every worker thread via
/// the connection context; all recording methods take `&self`.
pub(crate) struct ServerMetrics {
    /// The server-local registry rendered first by `GET /metrics`
    /// (the process-wide [`global`] registry is appended after it).
    registry: Registry,
    /// `gdim_requests_total{endpoint=…}`, indexed like [`ENDPOINTS`].
    requests: Vec<Arc<Counter>>,
    /// Per-endpoint error-response tallies for `/stats` (the labeled
    /// per-status breakdown lives in the registry as
    /// `gdim_error_responses_total{endpoint,status}`).
    errors: Vec<AtomicU64>,
    /// `gdim_request_latency_ns{endpoint=…}`, wall time per request.
    latency: Vec<Arc<Histogram>>,
    /// `gdim_stage_ns{stage=…}`, indexed by [`Stage::index`].
    stage_ns: Vec<Arc<Histogram>>,
    /// `gdim_in_flight_requests` — incremented before routing,
    /// decremented after the response bytes are written.
    pub(crate) in_flight: Arc<Gauge>,
    /// `gdim_slow_requests_total` — requests at or over the slow
    /// threshold.
    slow: Arc<Counter>,
    /// `gdim_uptime_ns` — refreshed at scrape time.
    uptime: Arc<Gauge>,
    /// `gdim_index_epoch` / `gdim_live_graphs` /
    /// `gdim_shard_imbalance_milli` — index-shape gauges refreshed at
    /// scrape time from the current snapshot.
    epoch: Arc<Gauge>,
    live: Arc<Gauge>,
    imbalance: Arc<Gauge>,
    /// Recent completed requests; `slowest()` powers the slow-query
    /// log in `/stats`.
    pub(crate) ring: RequestRing,
    /// Server boot instant — the zero point for `uptime_ns`.
    pub(crate) started: Instant,
    /// Per-boot discriminator baked into generated request ids.
    boot: u32,
    /// Monotonic request sequence (id generation + trace sampling).
    seq: AtomicU64,
    /// Slow threshold in ns (`ServerConfig::slow_ms`).
    slow_ns: u64,
    /// Record stage histograms + ring for every Nth request (1 = all).
    sample: u64,
}

impl ServerMetrics {
    /// Builds the full instrument set. Every `{endpoint}` series is
    /// registered eagerly so the first scrape already shows all
    /// families at zero — scrapers never have to special-case a cold
    /// server.
    pub(crate) fn new(slow_ms: u64, ring_capacity: usize, trace_sample: u64) -> ServerMetrics {
        let registry = Registry::new();
        let mut requests = Vec::with_capacity(ENDPOINTS.len());
        let mut errors = Vec::with_capacity(ENDPOINTS.len());
        let mut latency = Vec::with_capacity(ENDPOINTS.len());
        for ep in ENDPOINTS {
            requests.push(registry.counter(
                "gdim_requests_total",
                "Requests handled, by endpoint (process-lifetime, resets on restart)",
                &[("endpoint", ep)],
            ));
            errors.push(AtomicU64::new(0));
            latency.push(registry.histogram(
                "gdim_request_latency_ns",
                "Request wall time from head parse to response write (ns)",
                &[("endpoint", ep)],
            ));
        }
        let mut stage_ns = Vec::with_capacity(STAGE_COUNT);
        for stage in Stage::ALL {
            stage_ns.push(registry.histogram(
                "gdim_stage_ns",
                "Time spent per query pipeline stage (ns)",
                &[("stage", stage.name())],
            ));
        }
        let boot = {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or(Duration::ZERO)
                .as_nanos() as u64;
            (nanos ^ (u64::from(std::process::id()) << 32)) as u32
        };
        ServerMetrics {
            requests,
            errors,
            latency,
            stage_ns,
            in_flight: registry.gauge(
                "gdim_in_flight_requests",
                "Requests currently being routed or written",
                &[],
            ),
            slow: registry.counter(
                "gdim_slow_requests_total",
                "Requests at or over the slow-query threshold",
                &[],
            ),
            uptime: registry.gauge("gdim_uptime_ns", "Time since server boot (ns)", &[]),
            epoch: registry.gauge("gdim_index_epoch", "Current index generation", &[]),
            live: registry.gauge("gdim_live_graphs", "Live graphs across all shards", &[]),
            imbalance: registry.gauge(
                "gdim_shard_imbalance_milli",
                "Largest shard over mean shard size, in thousandths (1000 = balanced)",
                &[],
            ),
            registry,
            ring: RequestRing::new(ring_capacity),
            started: Instant::now(),
            boot,
            seq: AtomicU64::new(0),
            slow_ns: slow_ms.saturating_mul(1_000_000),
            sample: trace_sample.max(1),
        }
    }

    /// A fresh request id: `{boot:08x}-{seq:x}`. Unique within a boot,
    /// and the boot component keeps ids from colliding across
    /// restarts.
    pub(crate) fn next_request_id(&self) -> String {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{:x}", self.boot, seq)
    }

    /// Advances the request sequence without minting an id: a request
    /// that brought its own id still counts for trace sampling.
    pub(crate) fn skip_request_id(&self) {
        self.seq.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed request: counters + latency always;
    /// stage histograms and the slow-query ring on the sampling
    /// cadence (plus always for slow requests, so the ring never
    /// misses the requests it exists to catch). Returns the record if
    /// the request crossed the slow threshold, so the caller can log
    /// it.
    pub(crate) fn observe(
        &self,
        ep: usize,
        status: u16,
        id: String,
        wall: Duration,
        stages: StageTimes,
        approximate: bool,
    ) -> Option<RequestRecord> {
        let wall_ns = wall.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.requests[ep].inc();
        self.latency[ep].record(wall_ns);
        if status >= 400 {
            self.errors[ep].fetch_add(1, Ordering::Relaxed);
            // Rare path: first sight of an {endpoint, status} pair
            // registers the series (one lock), later hits are a map
            // walk + relaxed add.
            self.registry
                .counter(
                    "gdim_error_responses_total",
                    "Error responses, by endpoint and HTTP status",
                    &[("endpoint", ENDPOINTS[ep]), ("status", &status.to_string())],
                )
                .inc();
        }
        let slow = self.slow_ns > 0 && wall_ns >= self.slow_ns;
        if slow {
            self.slow.inc();
        }
        let seq = self.seq.load(Ordering::Relaxed);
        let sampled = self.sample == 1 || seq.is_multiple_of(self.sample);
        if sampled || slow {
            for (stage, ns) in stages.iter() {
                self.stage_ns[stage.index()].record(ns);
            }
            let record = RequestRecord {
                id,
                endpoint: ENDPOINTS[ep],
                status,
                wall_ns,
                stages,
                approximate,
                seq: 0,
            };
            let slow_copy = slow.then(|| record.clone());
            self.ring.push(record);
            return slow_copy;
        }
        None
    }

    /// Renders the full Prometheus exposition: scrape-time gauges are
    /// refreshed first, then this server's registry, then the
    /// process-wide registry (WAL, checkpoint, shard-scan metrics).
    pub(crate) fn render(&self, epoch: u64, shard_lens: &[usize]) -> String {
        self.refresh_gauges(epoch, shard_lens);
        let mut out = self.registry.render();
        out.push_str(&global().render());
        out
    }

    /// Updates the scrape-time gauges (uptime, index shape).
    fn refresh_gauges(&self, epoch: u64, shard_lens: &[usize]) {
        let uptime = self.started.elapsed().as_nanos().min(i64::MAX as u128) as i64;
        self.uptime.set(uptime);
        self.epoch.set(epoch.min(i64::MAX as u64) as i64);
        let live: usize = shard_lens.iter().sum();
        self.live.set(live.min(i64::MAX as usize) as i64);
        self.imbalance.set(imbalance_milli(shard_lens));
    }

    /// `/stats` view: per-endpoint request/error counts and latency
    /// quantiles for endpoints that saw traffic, plus uptime and the
    /// slow-query log.
    pub(crate) fn stats_json(&self) -> Vec<(&'static str, Json)> {
        let uptime = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut endpoints: Vec<(String, Json)> = Vec::new();
        for (i, name) in ENDPOINTS.iter().enumerate() {
            let total = self.requests[i].get();
            if total == 0 {
                continue;
            }
            let snap = self.latency[i].snapshot();
            endpoints.push((
                (*name).to_string(),
                Json::obj([
                    ("requests", Json::U64(total)),
                    ("errors", Json::U64(self.errors[i].load(Ordering::Relaxed))),
                    ("p50_ns", Json::U64(snap.p50())),
                    ("p90_ns", Json::U64(snap.p90())),
                    ("p99_ns", Json::U64(snap.p99())),
                    ("p999_ns", Json::U64(snap.p999())),
                ]),
            ));
        }
        let slow: Vec<Json> = self
            .ring
            .slowest(8)
            .into_iter()
            .map(|r| request_record_json(&r))
            .collect();
        vec![
            ("uptime_ns", Json::U64(uptime)),
            ("slow_requests", Json::U64(self.slow.get())),
            ("trace_dropped", Json::U64(self.ring.dropped())),
            ("endpoints", Json::Obj(endpoints)),
            ("slow_queries", Json::Arr(slow)),
        ]
    }
}

/// Largest shard over mean shard size, in thousandths. 1000 means
/// perfectly balanced; an empty or all-empty index reads 1000 too
/// (nothing is imbalanced about nothing).
pub(crate) fn imbalance_milli(shard_lens: &[usize]) -> i64 {
    let total: usize = shard_lens.iter().sum();
    if shard_lens.is_empty() || total == 0 {
        return 1000;
    }
    let max = *shard_lens.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / shard_lens.len() as f64;
    (max / mean * 1000.0).round() as i64
}

/// A [`RequestRecord`] as the JSON object `/stats` exposes in
/// `slow_queries`.
pub(crate) fn request_record_json(r: &RequestRecord) -> Json {
    let stages: Vec<(String, Json)> = r
        .stages
        .iter()
        .map(|(s, ns)| (s.name().to_string(), Json::U64(ns)))
        .collect();
    Json::obj([
        ("id", Json::Str(r.id.clone())),
        ("endpoint", Json::Str(r.endpoint.to_string())),
        ("status", Json::U64(u64::from(r.status))),
        ("wall_ns", Json::U64(r.wall_ns)),
        ("approximate", Json::Bool(r.approximate)),
        ("stages", Json::Obj(stages)),
    ])
}

/// The one-line slow-query log format. Kept a pure function so tests
/// can pin the layout the runbook greps for.
pub(crate) fn slow_log_line(r: &RequestRecord) -> String {
    format!(
        "gdim-server: slow request id={} endpoint={} status={} wall_ns={} stages=[{}]",
        r.id, r.endpoint, r.status, r.wall_ns, r.stages
    )
}

/// The one-line 5xx error log format: carries the request id that the
/// client received in `X-Gdim-Request-Id`, so a log line and a client
/// error report are joinable on the id.
pub(crate) fn error_log_line(id: &str, endpoint: &str, status: u16, body: &Json) -> String {
    format!(
        "gdim-server: error id={id} endpoint={endpoint} status={status} body={}",
        body.to_string_compact()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_index_maps_known_paths_and_catches_all() {
        assert_eq!(ENDPOINTS[endpoint_index("/search")], "search");
        assert_eq!(ENDPOINTS[endpoint_index("/metrics")], "metrics");
        assert_eq!(ENDPOINTS[endpoint_index("/nope")], "other");
        assert_eq!(ENDPOINTS[endpoint_index("/")], "other");
    }

    #[test]
    fn observe_counts_and_flags_slow_requests() {
        let m = ServerMetrics::new(1, 8, 1); // slow at 1ms
        let ep = endpoint_index("/search");
        let fast = m.observe(
            ep,
            200,
            m.next_request_id(),
            Duration::from_micros(10),
            StageTimes::new(),
            false,
        );
        assert!(fast.is_none());
        let mut stages = StageTimes::new();
        stages.add(Stage::Scan, Duration::from_millis(2));
        let slow = m.observe(
            ep,
            200,
            m.next_request_id(),
            Duration::from_millis(2),
            stages,
            false,
        );
        let slow = slow.expect("2ms crosses the 1ms threshold");
        assert_eq!(slow.endpoint, "search");
        assert!(slow_log_line(&slow).contains("scan="));
        assert_eq!(m.requests[ep].get(), 2);
        assert_eq!(m.slow.get(), 1);
        assert_eq!(m.ring.slowest(4).len(), 2, "sampled records hit the ring");
    }

    #[test]
    fn error_responses_register_labeled_series() {
        let m = ServerMetrics::new(0, 8, 1); // slow logging off
        let ep = endpoint_index("/insert");
        m.observe(
            ep,
            409,
            m.next_request_id(),
            Duration::from_micros(5),
            StageTimes::new(),
            false,
        );
        assert_eq!(m.errors[ep].load(Ordering::Relaxed), 1);
        let text = m.render(0, &[]);
        assert!(
            text.contains("gdim_error_responses_total{endpoint=\"insert\",status=\"409\"} 1"),
            "missing labeled error series in:\n{text}"
        );
    }

    #[test]
    fn imbalance_is_1000_when_balanced_or_empty() {
        assert_eq!(imbalance_milli(&[]), 1000);
        assert_eq!(imbalance_milli(&[0, 0]), 1000);
        assert_eq!(imbalance_milli(&[5, 5, 5]), 1000);
        assert_eq!(imbalance_milli(&[30, 10, 20]), 1500);
    }

    #[test]
    fn request_ids_are_unique_and_boot_scoped() {
        let m = ServerMetrics::new(0, 8, 1);
        let a = m.next_request_id();
        let b = m.next_request_id();
        assert_ne!(a, b);
        let boot = a.split('-').next().unwrap();
        assert_eq!(boot.len(), 8);
        assert!(b.starts_with(boot));
    }

    #[test]
    fn error_log_line_is_joinable_on_the_id() {
        let body = Json::obj([("error", Json::Str("boom".into()))]);
        let line = error_log_line("cafe0001-2a", "search", 500, &body);
        assert_eq!(
            line,
            "gdim-server: error id=cafe0001-2a endpoint=search status=500 \
             body={\"error\":\"boom\"}"
        );
    }
}
