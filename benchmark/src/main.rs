//! `gdim-e2e` — one served-search benchmark at engine scale, with a
//! per-layer budget. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --repeat 2 [--seed N] [--seconds S] [--smoke]
//! ```

mod env;
mod gate;
mod gen;
mod layers;
mod load;
mod reference;
mod repeat;
mod setup;
mod spec;
mod stats;
mod trace;

use std::time::Duration;

use layers::Metrics;
use load::{Job, Ledger, Plan};
use reference::Reference;
use setup::Served;
use spec::{Kind, Workload, END_TO_END, PER_LAYER, RECALL_FLOOR, SETUP_REPEATS, WORKLOAD_NAMES};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: gdim-e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      gdim-e2e --repeat <sets> [--seed N] [--seconds S] [--smoke]",
        WORKLOAD_NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite());
                args.seconds.is_some()
            }
            "--trace" => {
                args.trace = value == "1";
                value == "0" || value == "1"
            }
            "--repeat" => {
                args.repeat = value.parse().unwrap_or(0);
                args.repeat >= 2
            }
            _ => false,
        };
        if !ok {
            usage();
        }
    }
    args
}

/// What one run found, ready to print.
struct RunResult {
    metrics: Metrics,
    stream_hash: u64,
    attempted: u64,
    failed: u64,
}

/// The gates every run passes before it measures anything.
fn pre_gates(served: &Served, w: &Workload) -> Result<Option<f64>, String> {
    let index = served.server.handle().snapshot();
    gate::bit_identity(served.addr, w, &served.pool, &index)?;
    if w.kind != Kind::LargeApprox {
        return Ok(None);
    }
    let recall = gate::recall_at_k(w, &served.pool, &index)?;
    if recall < RECALL_FLOOR {
        return Err(format!("recall_at_10 {recall} is below {RECALL_FLOOR}"));
    }
    Ok(Some(recall))
}

/// Shuts the server down and, on the durable workload, reopens the
/// directory to count acked writes that did not survive.
fn finish(served: Served, ledgers: &[Ledger]) -> Result<u64, String> {
    let Served {
        server,
        durable_dir,
        ..
    } = served;
    server.shutdown();
    let Some(dir) = durable_dir else {
        return Ok(0);
    };
    match gate::acked_writes_lost(&dir.0, ledgers)? {
        0 => Ok(0),
        n => Err(format!("{n} acked write(s) lost after reopen")),
    }
}

fn run_end_to_end(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<RunResult, String> {
    let reference = Reference::new();
    let gap = spec::reference_gap(smoke);
    // The reference loop runs before, between and after the set-ups,
    // as it does around the measured windows.
    let reference_rate = || {
        reference
            .rate(env::clients(), 2 * gap)
            .map_err(|e| format!("reference loop: {e}"))
    };
    let mut setup_rates = vec![reference_rate()?];
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPEATS {
        drop(served.take()); // drains the previous server first
        let s = setup::setup(w, false)?;
        setup_s.push(s.times.total_s);
        served = Some(s);
        setup_rates.push(reference_rate()?);
    }
    // Set-up is mostly compute that stays in the caches; when the box
    // slows it does not slow quite as much as the reference loop (0.44,
    // 0.71 and 1.1 of its swing, in log terms, on the three occasions
    // the baseline box changed pace), hence the exponent.
    let setup_speed = (stats::mean(&setup_rates) / reference::REFERENCE_OPS_S).powf(0.75);
    let served = served.expect("SETUP_REPEATS is at least 1");
    pre_gates(&served, w)?;

    let windows = spec::windows(smoke);
    let plan = Plan {
        warmup: Duration::from_secs_f64(if smoke { 0.3 } else { 1.0 }),
        gap,
        window: Duration::from_secs_f64(seconds / windows as f64),
        windows,
    };
    let index = served.server.handle().snapshot();
    let job = Job {
        addr: served.addr,
        workload: w,
        seed,
        pool: &served.pool,
        plan,
    };
    let mut outcome = load::run(job, env::clients(), &index, &reference)
        .map_err(|e| format!("reference loop: {e}"))?;
    drop(index);
    let summary = stats::summarize(
        &mut outcome.windows,
        plan.window.as_secs_f64(),
        &outcome.reference_ops_s,
        reference::REFERENCE_OPS_S,
    );
    let stream_hash = gen::stream_hash(w, seed, &served.pool);
    finish(served, &outcome.ledgers)?;

    eprintln!(
        "samples: search {} over {} windows, writes {}; window spread {:.3}; set-ups {:?}",
        summary.search_samples,
        windows,
        outcome.write_ns.len(),
        summary.window_spread_frac,
        setup_s
    );
    eprintln!(
        "windows: {:.0?} ops/s, search p50 {:.0?} us",
        summary.window_throughputs, summary.window_p50_us
    );
    eprintln!(
        "as the clock read them: {:.1} ops/s, search p50 {:.1} us, p99 {:.1} us; machine speed {:.3} \
         (reference loop {:.0?} ops/s); set-up {:.3} s at machine speed^0.75 {:.3} ({:.0?} ops/s)",
        summary.raw_throughput_ops_s,
        summary.raw_search_p50_us,
        summary.raw_search_p99_us,
        summary.machine_speed,
        outcome.reference_ops_s,
        stats::median(&setup_s),
        setup_speed,
        setup_rates
    );
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_s) * setup_speed);
    metrics.insert("throughput_ops_s", summary.throughput_ops_s);
    metrics.insert("search_p50_us", summary.search_p50_us);
    metrics.insert("search_p99_us", summary.search_p99_us);
    metrics.insert("rss_peak_mb", env::rss_peak_mb() - reference.resident_mb());
    Ok(RunResult {
        metrics,
        stream_hash,
        attempted: outcome.attempted,
        failed: outcome.failed,
    })
}

fn run_traced(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<RunResult, String> {
    let reference = Reference::new();
    let served = setup::setup(w, w.kind == Kind::SmallHot)?;
    let recall = pre_gates(&served, w)?;
    let mut traced = layers::run(
        &served,
        w,
        seed,
        &layers::Phases {
            seconds,
            windows: spec::windows(smoke),
            gap: spec::reference_gap(smoke),
            trace_requests: spec::trace_requests(smoke),
        },
        &reference,
    )?;
    let m = &mut traced.metrics;
    let t = &served.times;
    m.insert("bench.setup_once_s", t.total_s);
    m.insert("mining.mine_s", t.mine_s);
    m.insert("mining.features", t.features as f64);
    m.insert("core.delta_s", t.delta_s);
    m.insert("core.delta_pairs", t.delta_pairs as f64);
    m.insert("core.select_s", t.select_s);
    m.insert("shard.build_s", t.build_s);
    m.insert("core.bulk_insert_us_per_graph", t.bulk_insert_us_per_graph);
    m.insert("core.ann_build_s", t.ann_build_s);
    m.insert("shard.durable_create_s", t.durable_create_s);
    m.insert("recall_at_10", recall.unwrap_or(0.0));
    if let Some(base) = &served.base_index {
        let (precision, mcs_calls) = gate::precision_at_k(&served.pool, base)?;
        eprintln!("precision_at_10 over {mcs_calls} MCS calls");
        m.insert("precision_at_10", precision);
    }
    let stream_hash = gen::stream_hash(w, seed, &served.pool);
    m.insert("acked_writes_lost", finish(served, &traced.ledgers)? as f64);
    Ok(RunResult {
        metrics: traced.metrics,
        stream_hash,
        attempted: traced.attempted,
        failed: traced.failed,
    })
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with exactly the metrics of `names`; a per-layer metric the run did
/// not produce reads 0.
fn result_line(r: &RunResult, names: &[(&'static str, &'static str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = r.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        eprintln!("{name:<36} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        fields.join(",")
    ))
}

fn main() {
    let args = parse_args();
    let default_seconds = if args.smoke { 2.0 } else { 10.0 };
    let seconds = args.seconds.unwrap_or(default_seconds);
    if args.repeat > 0 {
        std::process::exit(repeat::run(args.repeat, args.seed, seconds, args.smoke));
    }
    let Some(w) = args
        .workload
        .as_deref()
        .and_then(|name| Workload::named(name, args.smoke))
    else {
        usage()
    };

    let run = if args.trace {
        run_traced(&w, args.seed, seconds, args.smoke)
    } else {
        run_end_to_end(&w, args.seed, seconds, args.smoke)
    };
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let lines = run.and_then(|r| {
        if r.attempted == 0 {
            return Err("no request was attempted".to_string());
        }
        let env = env::block(w.name, args.seed, w.rows, r.stream_hash, args.smoke);
        Ok((env, result_line(&r, &names)?))
    });
    match lines {
        Ok((env, line)) => {
            println!("{{\"env\":{env}}}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("gdim-e2e: {}: {e}", w.name);
            std::process::exit(1);
        }
    }
}
