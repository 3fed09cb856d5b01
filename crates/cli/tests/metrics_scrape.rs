//! Observability smoke: boot the real `gdim serve` binary, drive real
//! traffic, scrape `GET /metrics`, and prove the exposition is valid
//! Prometheus text with the full metric catalogue — latency histograms
//! for every serving endpoint, stage timings, and the scrape-time
//! gauges. Also exercises `gdim metrics` and `gdim top` as a user
//! would run them. This is the test CI's `obs-smoke` job runs.

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gdim_server::{Client, Json};

mod serve_child;
use serve_child::ServeChild;

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn spawn_server(addr: &str) -> ServeChild {
    let child = Command::new(env!("CARGO_BIN_EXE_gdim"))
        .args([
            "serve",
            "--synthetic",
            "16",
            "--dimensions",
            "12",
            "--shards",
            "2",
            "--addr",
            addr,
            "--slow-ms",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gdim serve");
    ServeChild(child)
}

fn wait_healthy(addr: &str, child: &mut Child) -> Client {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("server exited before becoming healthy: {status}");
        }
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.get("/health"), Ok((200, _))) {
                return c;
            }
        }
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn gdim(addr: &str, subcommand: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gdim"))
        .args([subcommand, "--addr", addr])
        .output()
        .expect("run gdim");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn real_server_scrape_has_the_full_catalogue() {
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = spawn_server(&addr);
    let mut client = wait_healthy(&addr, &mut child);

    // Real traffic across the endpoints the acceptance bar names.
    let search = Json::obj([
        ("query", Json::obj([("id", Json::U64(0))])),
        ("k", Json::U64(5)),
    ]);
    for _ in 0..3 {
        let (status, j) = client.post("/search", &search).unwrap();
        assert_eq!(status, 200, "{j:?}");
    }
    let batch = Json::obj([
        (
            "queries",
            Json::Arr(vec![
                Json::obj([("id", Json::U64(1))]),
                Json::obj([("id", Json::U64(2))]),
            ]),
        ),
        ("k", Json::U64(3)),
    ]);
    let (status, _) = client.post("/search_batch", &batch).unwrap();
    assert_eq!(status, 200);
    let (status, j) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    assert!(j.get("uptime_ns").and_then(Json::as_u64).unwrap() > 0);

    // Scrape over the wire and parse with the workspace's own parser —
    // exactly what a Prometheus-compatible scraper would see.
    let (status, text) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    let expo = gdim_obs::expo::parse(&text).expect("valid Prometheus text exposition");
    for family in [
        "gdim_requests_total",
        "gdim_request_latency_ns",
        "gdim_stage_ns",
        "gdim_in_flight_requests",
        "gdim_uptime_ns",
        "gdim_live_graphs",
        "gdim_slow_requests_total",
        "gdim_result_cache_hits_total",
        "gdim_result_cache_misses_total",
        "gdim_map_cache_hits_total",
        "gdim_map_cache_misses_total",
    ] {
        assert!(expo.type_of(family).is_some(), "missing family {family}");
    }
    // The three identical bodies: two misses store the answer, the
    // third is a hit.
    let result_hits = expo.value("gdim_result_cache_hits_total", &[]).unwrap();
    assert!(result_hits >= 1.0, "result cache hits {result_hits}");
    // Latency histograms exist for every serving endpoint, with real
    // samples where we sent traffic.
    for ep in ["search", "search_batch", "insert", "remove", "checkpoint"] {
        let hist = expo
            .histogram("gdim_request_latency_ns", &[("endpoint", ep)])
            .unwrap_or_else(|e| panic!("no latency histogram for {ep}: {e}"));
        if ep == "search" {
            assert!(hist.count >= 3, "search saw {} samples", hist.count);
            assert!(hist.p50() > 0);
        }
    }
    // Per-stage timing made it from the core search into the scrape.
    let scan = expo
        .histogram("gdim_stage_ns", &[("stage", "scan")])
        .unwrap();
    let map = expo
        .histogram("gdim_stage_ns", &[("stage", "map")])
        .unwrap();
    assert!(scan.count + map.count > 0, "stage timings recorded");

    // The CLI front-ends on the same scrape.
    let (ok, raw) = gdim(&addr, "metrics");
    assert!(ok);
    assert!(
        gdim_obs::expo::parse(&raw).is_ok(),
        "gdim metrics output parses"
    );
    let (ok, top) = gdim(&addr, "top");
    assert!(ok);
    assert!(top.contains("endpoint"), "{top}");
    assert!(top.contains("search"), "{top}");
    assert!(top.contains("cache hits   result"), "{top}");

    let (ok, _) = gdim(&addr, "stop");
    assert!(ok);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "server never drained");
        std::thread::sleep(Duration::from_millis(25));
    }
}
