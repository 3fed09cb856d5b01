//! `--repeat N`: the acceptance check. Runs every workload `N` times
//! as fresh child processes (end-to-end and traced), alternating the
//! workload order between sets, prints the sets side by side, and
//! fails if an end-to-end metric of a later set differs from the first
//! by more than its bound or a count that must repeat exactly does not.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use gdim::server::{parse_json, Json};

use crate::spec::{END_TO_END, WORKLOAD_NAMES};

/// Traced-run counts that depend only on the inputs, so two runs of
/// one commit and seed must agree to the last digit.
const EXACT_COUNTS: [&str; 5] = [
    "recall_at_10",
    "precision_at_10",
    "core.vf2_calls_per_query",
    "core.scan_words_per_query",
    "core.ann_beam_visited_per_query",
];

type RunMetrics = BTreeMap<String, f64>;

/// Runs one child and returns the metrics of its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let j = parse_json(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if j.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err(format!(
            "{workload} (trace {trace}) had failed requests: {last}"
        ));
    }
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        return Err(format!("{workload}: no metrics in {last}"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs the sets and prints the comparison; the process exit code.
pub fn run(sets: usize, seed: u64, seconds: f64, smoke: bool) -> i32 {
    // results[workload][set] = (end-to-end metrics, traced metrics)
    let mut results: BTreeMap<&str, Vec<(RunMetrics, RunMetrics)>> = BTreeMap::new();
    for set in 0..sets {
        let mut order = WORKLOAD_NAMES.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            eprintln!("set {set}: {workload}");
            let pair = child(workload, seed, seconds, false, smoke)
                .and_then(|e2e| Ok((e2e, child(workload, seed, seconds, true, smoke)?)));
            match pair {
                Ok(pair) => results.entry(workload).or_default().push(pair),
                Err(e) => {
                    eprintln!("gdim-e2e --repeat: {e}");
                    return 1;
                }
            }
        }
    }

    let mut agree = true;
    let heads: Vec<String> = (0..sets)
        .map(|s| format!("{:>14}", format!("set {s}")))
        .collect();
    println!(
        "{:<18} {:<32} {} {:>9} {:>7}",
        "workload",
        "metric",
        heads.join(" "),
        "worst",
        "bound"
    );
    for workload in WORKLOAD_NAMES {
        let runs = &results[workload];
        for (name, _, _, bound) in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.0[name]).collect();
            let worst = values[1..]
                .iter()
                .map(|v| (v - values[0]).abs() / values[0])
                .fold(0.0, f64::max);
            let ok = worst <= bound;
            agree &= ok;
            print_row(
                workload,
                name,
                &values,
                &format!("{:>8.1}%", worst * 100.0),
                bound,
                ok,
            );
        }
        for name in EXACT_COUNTS {
            let values: Vec<f64> = runs.iter().map(|r| r.1[name]).collect();
            let ok = values.iter().all(|v| *v == values[0]);
            agree &= ok;
            print_row(
                workload,
                name,
                &values,
                if ok { "    exact" } else { "  differs" },
                0.0,
                ok,
            );
        }
    }
    println!("{}", if agree { "sets agree" } else { "sets DISAGREE" });
    i32::from(!agree)
}

fn print_row(workload: &str, name: &str, values: &[f64], worst: &str, bound: f64, ok: bool) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:>14.4}")).collect();
    println!(
        "{workload:<18} {name:<32} {} {worst} {:>6.0}% {}",
        cells.join(" "),
        bound * 100.0,
        if ok { "ok" } else { "FAIL" }
    );
}
