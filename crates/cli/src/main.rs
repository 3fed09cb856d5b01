//! `gdim` — the command line for the serving stack.
//!
//! Server side:
//!
//! ```text
//! gdim build --out DIR (--synthetic N | --db FILE) [--shards S] [--dimensions P] [--seed S]
//! gdim serve (--index DIR | --synthetic N | --db FILE) [--addr HOST:PORT] [--workers W] ...
//! ```
//!
//! Client side (all take `--addr`, default `127.0.0.1:7171`):
//!
//! ```text
//! gdim search (--id N | --query FILE) [--k K]
//!             [--ranker mapped|exact|refined:C|approx:EF[:C]]
//!             [--mapping binary|weighted] [--budget B] [--json]
//! gdim insert --graph FILE        # inserts every graph in the gSpan file
//! gdim remove --id N
//! gdim rebuild [--background]
//! gdim checkpoint
//! gdim stats
//! gdim metrics
//! gdim top
//! gdim stop
//! ```
//!
//! Observability: `gdim metrics` dumps the raw Prometheus text
//! exposition from `GET /metrics` (pipe it anywhere a scraper would
//! go); `gdim top` renders the same scrape as a human summary —
//! per-endpoint request counts and latency quantiles, per-stage
//! timings, and an ASCII latency histogram for the busiest endpoint.
//! `gdim serve --slow-ms N` tunes the server's slow-query threshold
//! (requests at or over it are logged to stderr with their request id
//! and per-stage breakdown; `0` disables).
//!
//! Durability: `gdim serve --durable DIR` logs every `/insert` and
//! `/remove` to a write-ahead log inside `DIR` before acking (fsync
//! policy via `--fsync always|group:N|off`), `gdim checkpoint` folds
//! the log into a new snapshot generation, and
//! `gdim recover --verify DIR` replays a durable directory offline and
//! reports its health without serving.
//!
//! Graph files use the gSpan text format (`t # i` / `v id label` /
//! `e u v label` lines) that `gdim-graph`'s io module reads and
//! writes. Argument parsing is hand-rolled like the bench binaries —
//! the workspace takes no dependencies for it.

use std::process::ExitCode;

use gdim_core::{IndexOptions, MappingKind, Ranker, SearchRequest};
use gdim_graph::{io as graph_io, Graph};
use gdim_server::wire::{graph_to_json, response_from_json};
use gdim_server::{Client, GdimServer, Json, ServerConfig};
use gdim_shard::{DurableHandle, ServingHandle, ShardedIndex, ShardedOptions, SyncPolicy};

const DEFAULT_ADDR: &str = "127.0.0.1:7171";

const USAGE: &str = "usage: gdim <command> [options]

commands:
  build     build an index and save it to a directory
              --out DIR  (--synthetic N | --db FILE)
              [--shards S=4] [--dimensions P=32] [--seed S=42]
  serve     serve an index over HTTP (stop it with `gdim stop`)
              (--index DIR | --synthetic N | --db FILE | --durable DIR)
              [--addr HOST:PORT=127.0.0.1:7171] [--workers W]
              [--shards S=4] [--dimensions P=32] [--seed S=42]
              [--durable DIR] [--fsync always|group:N|off]
              [--slow-ms N=250] (0 turns slow-query logging off)
              with --durable: mutations ack only once logged to DIR;
              an existing durable DIR reopens (recovering acked
              writes), a fresh one is seeded from the other source
              flags
  search    top-k search against a running server
              (--id N | --query FILE) [--k K=10]
              [--ranker mapped|exact|refined:C|approx:EF[:C]]
              [--mapping binary|weighted]
              [--budget B] [--json] [--addr HOST:PORT]
  insert    insert every graph from a gSpan file; prints assigned ids
              --graph FILE [--addr HOST:PORT]
  remove    tombstone a graph        --id N [--addr HOST:PORT]
  rebuild   compact/rebuild the index  [--background] [--addr HOST:PORT]
  checkpoint  fold the write-ahead log into a new snapshot generation
              (durable servers only)   [--addr HOST:PORT]
  recover   verify a durable directory offline: replay the log, report
              generation / records / tail health  --verify DIR
  stats     print serving counters     [--addr HOST:PORT]
  metrics   dump the raw Prometheus text exposition [--addr HOST:PORT]
  top       human summary of the metrics scrape: per-endpoint latency
              quantiles, stage timings, latency histogram
              [--addr HOST:PORT]
  stop      gracefully stop the server [--addr HOST:PORT]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "build" => cmd_build(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "search" => cmd_search(&args[1..]),
        "insert" => cmd_insert(&args[1..]),
        "remove" => cmd_remove(&args[1..]),
        "rebuild" => cmd_rebuild(&args[1..]),
        "checkpoint" => cmd_checkpoint(&args[1..]),
        "recover" => cmd_recover(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "stop" => cmd_stop(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gdim: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag cursor: `--flag value` pairs plus boolean flags.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], boolean: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument {arg:?}"));
            }
            if boolean.contains(&arg.as_str()) {
                pairs.push((arg.clone(), None));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value"))?
                    .clone();
                pairs.push((arg.clone(), Some(value)));
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: bad value {v:?}")))
            .transpose()
    }
}

fn read_gspan(path: &str) -> Result<Vec<Graph>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let db = graph_io::parse_db(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if db.is_empty() {
        return Err(format!("{path} holds no graphs"));
    }
    Ok(db)
}

/// Loads or builds the database named by `--index` / `--db` /
/// `--synthetic`, returning the index.
fn load_index(flags: &Flags) -> Result<ShardedIndex, String> {
    if let Some(dir) = flags.get("--index") {
        return ShardedIndex::load_dir(dir).map_err(|e| format!("loading {dir}: {e}"));
    }
    let db = if let Some(path) = flags.get("--db") {
        read_gspan(path)?
    } else if let Some(n) = flags.num::<usize>("--synthetic")? {
        let seed = flags.num::<u64>("--seed")?.unwrap_or(42);
        gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed)
    } else {
        return Err("give one of --index DIR, --db FILE, --synthetic N".to_string());
    };
    let shards = flags.num::<usize>("--shards")?.unwrap_or(4);
    let dimensions = flags.num::<usize>("--dimensions")?.unwrap_or(32);
    eprintln!(
        "building index: {} graphs, {shards} shards, {dimensions} dimensions...",
        db.len()
    );
    Ok(ShardedIndex::build(
        db,
        ShardedOptions::new(shards).with_index(IndexOptions::default().with_dimensions(dimensions)),
    ))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let out = flags
        .get("--out")
        .ok_or("build needs --out DIR")?
        .to_string();
    let index = load_index(&flags)?;
    index
        .save_dir(&out)
        .map_err(|e| format!("saving {out}: {e}"))?;
    println!(
        "saved {} graphs ({} shards, {} dimensions) to {out}",
        index.len(),
        index.shard_count(),
        index.p()
    );
    Ok(())
}

/// Parses `--fsync always|group:N|off` (default: fsync every record —
/// the strict "an ack is on disk" contract).
fn sync_policy(flags: &Flags) -> Result<SyncPolicy, String> {
    match flags.get("--fsync") {
        None | Some("always") => Ok(SyncPolicy::Always),
        Some("off") => Ok(SyncPolicy::Never),
        Some(v) => match v.strip_prefix("group:").map(str::parse) {
            Some(Ok(n)) if n > 0 => Ok(SyncPolicy::EveryN(n)),
            _ => Err(format!("--fsync: bad value {v:?} (always|group:N|off)")),
        },
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let mut cfg = ServerConfig::new().with_addr(flags.get("--addr").unwrap_or(DEFAULT_ADDR));
    if let Some(w) = flags.num::<usize>("--workers")? {
        cfg = cfg.with_workers(w);
    }
    if let Some(ms) = flags.num::<u64>("--slow-ms")? {
        cfg = cfg.with_slow_ms(ms);
    }
    let server = if let Some(dir) = flags.get("--durable") {
        let policy = sync_policy(&flags)?;
        let durable = if DurableHandle::exists(dir) {
            let (durable, report) =
                DurableHandle::open(dir, policy).map_err(|e| format!("recovering {dir}: {e}"))?;
            println!("recovered {dir}: {report}");
            durable
        } else {
            let index = load_index(&flags)?;
            DurableHandle::create(dir, index, policy)
                .map_err(|e| format!("creating durable dir {dir}: {e}"))?
        };
        let snap = durable.serving().snapshot();
        println!(
            "durable serving: {} graphs ({} live), generation {}, {} log record(s)",
            snap.len(),
            snap.live_len(),
            durable.generation(),
            durable.wal_records()
        );
        GdimServer::start_durable(durable, cfg).map_err(|e| format!("binding: {e}"))?
    } else {
        let index = load_index(&flags)?;
        println!(
            "serving {} graphs ({} shards)",
            index.len(),
            index.shard_count()
        );
        GdimServer::start(ServingHandle::new(index), cfg).map_err(|e| format!("binding: {e}"))?
    };
    println!(
        "listening on http://{} — stop with `gdim stop --addr {}`",
        server.addr(),
        server.addr()
    );
    server.wait();
    println!("shutdown requested; draining...");
    server.shutdown();
    println!("bye");
    Ok(())
}

fn connect(flags: &Flags) -> Result<Client, String> {
    let addr = flags.get("--addr").unwrap_or(DEFAULT_ADDR);
    Client::connect(addr)
        .map_err(|e| format!("connecting to {addr}: {e} (is `gdim serve` running?)"))
}

/// Runs a request and fails with the server's error message on a
/// non-200 answer.
fn expect_ok(reply: std::io::Result<(u16, Json)>) -> Result<Json, String> {
    let (status, body) = reply.map_err(|e| format!("request failed: {e}"))?;
    if status == 200 {
        return Ok(body);
    }
    let code = body
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let message = body
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("");
    Err(format!("server answered {status} {code}: {message}"))
}

/// Parses the `--ranker` spelling: `mapped`, `exact`, `refined:C`, or
/// the approximate tier `approx:EF` / `approx:EF:C` (the second
/// number turns on exact verification of the top C beam candidates).
fn parse_ranker(r: &str) -> Result<Ranker, String> {
    match r {
        "mapped" => Ok(Ranker::Mapped),
        "exact" => Ok(Ranker::Exact),
        _ => {
            if let Some(c) = r.strip_prefix("refined:") {
                return match c.parse() {
                    Ok(candidates) => Ok(Ranker::Refined { candidates }),
                    Err(_) => Err(format!("--ranker: bad value {r:?}")),
                };
            }
            let Some(spec) = r.strip_prefix("approx:") else {
                return Err(format!("--ranker: bad value {r:?}"));
            };
            let (ef, verify) = match spec.split_once(':') {
                None => (spec.parse().ok(), None),
                Some((ef, c)) => match c.parse() {
                    Ok(c) => (ef.parse().ok(), Some(c)),
                    Err(_) => (None, None),
                },
            };
            match ef {
                Some(ef) => Ok(Ranker::Approx { ef, verify }),
                None => Err(format!("--ranker: bad value {r:?}")),
            }
        }
    }
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["--json"])?;
    let query = match (flags.num::<u32>("--id")?, flags.get("--query")) {
        (Some(id), None) => Json::obj([("id", Json::U64(id as u64))]),
        (None, Some(path)) => {
            let db = read_gspan(path)?;
            Json::obj([("graph", graph_to_json(&db[0]))])
        }
        _ => return Err("give exactly one of --id N / --query FILE".to_string()),
    };
    // Build the typed request locally so flag validation matches the
    // server's, then ship its JSON form.
    let mut req = SearchRequest::new(flags.num::<usize>("--k")?.unwrap_or(10));
    if let Some(r) = flags.get("--ranker") {
        req = req.ranker(parse_ranker(r)?);
    }
    if let Some(m) = flags.get("--mapping") {
        req = req.mapping(match m {
            "binary" => MappingKind::Binary,
            "weighted" => MappingKind::Weighted,
            _ => return Err(format!("--mapping: bad value {m:?}")),
        });
    }
    if let Some(b) = flags.num::<u64>("--budget")? {
        req = req.budget(b);
    }
    let mut body = gdim_server::wire::request_to_json(&req);
    if let Json::Obj(pairs) = &mut body {
        pairs.push(("query".to_string(), query));
    }
    let mut client = connect(&flags)?;
    let reply = expect_ok(client.post("/search", &body))?;
    if flags.has("--json") {
        println!("{}", reply.to_string_compact());
        return Ok(());
    }
    let resp = response_from_json(&reply).map_err(|e| format!("bad response: {e}"))?;
    print!("{}", resp.hit_table());
    println!("{}", resp.stats);
    Ok(())
}

fn cmd_insert(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let path = flags.get("--graph").ok_or("insert needs --graph FILE")?;
    let db = read_gspan(path)?;
    let mut client = connect(&flags)?;
    for g in &db {
        let body = Json::obj([("graph", graph_to_json(g))]);
        let reply = expect_ok(client.post("/insert", &body))?;
        let id = reply.get("id").and_then(Json::as_u64).unwrap_or(0);
        println!("inserted id {id}");
    }
    Ok(())
}

fn cmd_remove(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let id = flags.num::<u32>("--id")?.ok_or("remove needs --id N")?;
    let mut client = connect(&flags)?;
    let reply = expect_ok(client.post("/remove", &Json::obj([("id", Json::U64(id as u64))])))?;
    match reply.get("removed").and_then(Json::as_bool) {
        Some(true) => println!("removed {id}"),
        _ => println!("{id} was already gone"),
    }
    Ok(())
}

fn cmd_rebuild(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["--background"])?;
    let mode = if flags.has("--background") {
        "background"
    } else {
        "sync"
    };
    let mut client = connect(&flags)?;
    let body = Json::obj([("mode", Json::Str(mode.to_string()))]);
    let reply = expect_ok(client.post("/rebuild", &body))?;
    if mode == "background" {
        println!("background rebuild started (watch `gdim stats`)");
    } else if reply.get("swapped").and_then(Json::as_bool) == Some(true) {
        println!("rebuilt and swapped in");
    } else {
        println!("rebuild was cancelled");
    }
    Ok(())
}

fn cmd_checkpoint(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let mut client = connect(&flags)?;
    let reply = expect_ok(client.post("/checkpoint", &Json::Null))?;
    let generation = reply.get("generation").and_then(Json::as_u64).unwrap_or(0);
    println!("checkpointed: now at generation {generation}");
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let dir = flags.get("--verify").ok_or("recover needs --verify DIR")?;
    let report = DurableHandle::verify(dir).map_err(|e| format!("verifying {dir}: {e}"))?;
    println!("{dir}: {report}");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let mut client = connect(&flags)?;
    let reply = expect_ok(client.get("/stats"))?;
    if let Json::Obj(pairs) = &reply {
        for (key, value) in pairs {
            println!("{key:>18}  {}", value.to_string_compact());
        }
        Ok(())
    } else {
        Err("malformed /stats body".to_string())
    }
}

/// Fetches `GET /metrics` as raw text, failing on non-200.
fn fetch_metrics(flags: &Flags) -> Result<String, String> {
    let mut client = connect(flags)?;
    let (status, text) = client
        .get_text("/metrics")
        .map_err(|e| format!("request failed: {e}"))?;
    if status != 200 {
        return Err(format!("server answered {status} for /metrics"));
    }
    Ok(text)
}

/// Writes to stdout treating a closed pipe as success — these
/// subcommands exist to be piped into `grep`/`head`, and `println!`
/// would panic when the reader hangs up early.
fn print_pipeable(text: &str) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing stdout: {e}")),
    }
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    print_pipeable(&fetch_metrics(&flags)?)
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let text = fetch_metrics(&flags)?;
    let expo = gdim_obs::expo::parse(&text).map_err(|e| format!("bad exposition: {e}"))?;
    print_pipeable(&render_top(&expo))
}

/// Renders the scrape as a terminal summary. Pure so tests can feed
/// it a canned exposition.
fn render_top(expo: &gdim_obs::Exposition) -> String {
    use gdim_obs::expo::human_ns;
    use std::fmt::Write as _;
    let gauge = |name: &str| expo.value(name, &[]).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "uptime {}   in-flight {}   live graphs {}   epoch {}",
        human_ns(gauge("gdim_uptime_ns") as u64),
        gauge("gdim_in_flight_requests"),
        gauge("gdim_live_graphs"),
        gauge("gdim_index_epoch"),
    );
    // Endpoints come from the scrape itself, so the CLI needs no
    // compiled-in endpoint list and stays compatible across servers.
    let mut endpoints: Vec<(&str, f64)> = expo
        .samples
        .iter()
        .filter(|s| s.name == "gdim_requests_total" && s.value > 0.0)
        .filter_map(|s| s.label("endpoint").map(|ep| (ep, s.value)))
        .collect();
    endpoints.sort_by(|a, b| b.1.total_cmp(&a.1));
    if endpoints.is_empty() {
        let _ = writeln!(out, "\nno requests served yet");
        return out;
    }
    let _ = writeln!(
        out,
        "\n{:<14} {:>10} {:>9} {:>9} {:>9}",
        "endpoint", "requests", "p50", "p99", "p999"
    );
    for (ep, requests) in &endpoints {
        let Ok(snap) = expo.histogram("gdim_request_latency_ns", &[("endpoint", ep)]) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{ep:<14} {requests:>10} {:>9} {:>9} {:>9}",
            human_ns(snap.p50()),
            human_ns(snap.p99()),
            human_ns(snap.p999()),
        );
    }
    let mut stages: Vec<(&str, gdim_obs::HistogramSnapshot)> = expo
        .samples
        .iter()
        .filter(|s| s.name == "gdim_stage_ns_count" && s.value > 0.0)
        .filter_map(|s| s.label("stage"))
        .filter_map(|st| {
            expo.histogram("gdim_stage_ns", &[("stage", st)])
                .ok()
                .map(|h| (st, h))
        })
        .collect();
    stages.sort_by_key(|(_, h)| std::cmp::Reverse(h.p50()));
    if !stages.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<14} {:>10} {:>9} {:>9}",
            "stage", "samples", "p50", "p99"
        );
        for (stage, snap) in &stages {
            let _ = writeln!(
                out,
                "{stage:<14} {:>10} {:>9} {:>9}",
                snap.count,
                human_ns(snap.p50()),
                human_ns(snap.p99()),
            );
        }
    }
    // The busiest endpoint gets the full latency distribution.
    let busiest = endpoints[0].0;
    if let Ok(snap) = expo.histogram("gdim_request_latency_ns", &[("endpoint", busiest)]) {
        let _ = writeln!(out, "\nlatency distribution — {busiest} (ns):");
        out.push_str(&gdim_obs::ascii_histogram(&snap, 40));
    }
    out
}

fn cmd_stop(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let mut client = connect(&flags)?;
    expect_ok(client.post("/shutdown", &Json::Null))?;
    println!("server is draining");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranker_spellings_parse_and_reject() {
        assert_eq!(parse_ranker("mapped").unwrap(), Ranker::Mapped);
        assert_eq!(parse_ranker("exact").unwrap(), Ranker::Exact);
        assert_eq!(
            parse_ranker("refined:20").unwrap(),
            Ranker::Refined { candidates: 20 }
        );
        assert_eq!(
            parse_ranker("approx:64").unwrap(),
            Ranker::Approx {
                ef: 64,
                verify: None
            }
        );
        assert_eq!(
            parse_ranker("approx:128:40").unwrap(),
            Ranker::Approx {
                ef: 128,
                verify: Some(40)
            }
        );
        for bad in ["", "appro", "approx:", "approx:x", "approx:8:", "refined:"] {
            assert!(parse_ranker(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn top_renders_a_scrape_without_a_server() {
        // Synthesize a scrape the way the server does: record into a
        // registry, render, parse — then render_top must summarize it.
        let registry = gdim_obs::Registry::new();
        registry
            .gauge("gdim_uptime_ns", "up", &[])
            .set(5_000_000_000);
        registry.gauge("gdim_live_graphs", "live", &[]).set(24);
        let requests = registry.counter("gdim_requests_total", "reqs", &[("endpoint", "search")]);
        let latency =
            registry.histogram("gdim_request_latency_ns", "lat", &[("endpoint", "search")]);
        let stage = registry.histogram("gdim_stage_ns", "stage", &[("stage", "scan")]);
        for v in [120_000u64, 250_000, 900_000] {
            requests.inc();
            latency.record(v);
            stage.record(v / 2);
        }
        let expo = gdim_obs::expo::parse(&registry.render()).unwrap();
        let top = render_top(&expo);
        assert!(top.contains("uptime 5s"), "{top}");
        assert!(top.contains("live graphs 24"), "{top}");
        assert!(top.contains("search"), "{top}");
        assert!(top.contains("scan"), "{top}");
        assert!(top.contains("latency distribution — search"), "{top}");
    }

    #[test]
    fn top_with_no_traffic_says_so() {
        let registry = gdim_obs::Registry::new();
        registry.counter("gdim_requests_total", "reqs", &[("endpoint", "search")]);
        let expo = gdim_obs::expo::parse(&registry.render()).unwrap();
        assert!(render_top(&expo).contains("no requests served yet"));
    }
}
