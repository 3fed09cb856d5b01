//! The one gate behind every committed `BENCH_*.json` row, shared by
//! the four `*_baseline` binaries: one flag parser ([`Args`]), one
//! snapshot reader/writer ([`read_snapshot`], [`write_snapshot`]), one
//! set of timers ([`median_ns`], [`paired_min_ns`], [`ns_per_call`],
//! [`quantile`]) and one verdict ([`Gate`]).
//!
//! A [`Gate`] prints one line per check as it is made, naming the row
//! by its section and key fields, then the gated key:
//!
//! ```text
//! bench-smoke binary_scan n=10000 binary_speedup: fresh 22.58 vs committed 18.33 (floor 4.582) .. ok
//! ```
//!
//! It fails the run when a check failed, when a baseline was given
//! but no committed row matched the run (nothing was gated), or when a
//! matched committed row lacks a gated key. It exits only after every
//! verdict has printed, so one log shows every regression.

use std::io::{self, Write};
use std::time::Instant;

use gdim_server::{parse_json, Json};

/// The flags of a `*_baseline` binary.
pub struct Args {
    /// `--out PATH`: where the fresh snapshot is written.
    pub out: String,
    /// `--baseline PATH`: the committed snapshot to gate against.
    pub baseline: Option<Json>,
    /// `--smoke`: CI's smaller sizes, for a binary whose CI run and
    /// committed file use different ones.
    pub smoke: bool,
}

impl Args {
    /// Reads the process arguments. `--smoke` is accepted only when
    /// `has_smoke`; any other argument, or a baseline that cannot be
    /// read, prints the usage line and exits 2.
    pub fn parse(default_out: &str, has_smoke: bool) -> Args {
        let mut args = Args {
            out: default_out.to_string(),
            baseline: None,
            smoke: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut rest = &argv[..];
        while let [flag, tail @ ..] = rest {
            rest = match (flag.as_str(), tail) {
                ("--smoke", _) if has_smoke => {
                    args.smoke = true;
                    tail
                }
                ("--out", [path, tail @ ..]) => {
                    args.out = path.clone();
                    tail
                }
                ("--baseline", [path, tail @ ..]) => {
                    let snapshot = read_snapshot(path).unwrap_or_else(|e| usage(&e, has_smoke));
                    args.baseline = Some(snapshot);
                    tail
                }
                _ => usage(&format!("bad argument {flag}"), has_smoke),
            };
        }
        args
    }
}

fn usage(error: &str, has_smoke: bool) -> ! {
    let smoke = if has_smoke { " [--smoke]" } else { "" };
    eprintln!("{error}\nusage: [--out PATH] [--baseline PATH]{smoke}");
    std::process::exit(2)
}

/// Reads a committed snapshot with the server's own JSON parser.
pub fn read_snapshot(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Writes `snapshot` in the committed files' layout: one top-level key
/// per line, one row per line inside an array of rows, and the members
/// of each object named in `blocks` one per line.
pub fn write_snapshot(path: &str, snapshot: &Json, blocks: &[&str]) {
    let Json::Obj(fields) = snapshot else {
        panic!("a snapshot is a JSON object");
    };
    let lines = |items: Vec<String>, open: char, close: char| {
        format!("{open}\n    {}\n  {close}", items.join(",\n    "))
    };
    let top: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Arr(rows) if rows.iter().all(|r| matches!(r, Json::Obj(_))) => {
                    lines(rows.iter().map(inline).collect(), '[', ']')
                }
                Json::Obj(members) if blocks.contains(&key.as_str()) => {
                    lines(members.iter().map(member).collect(), '{', '}')
                }
                other => inline(other),
            };
            format!("  \"{key}\": {value}")
        })
        .collect();
    let text = format!("{{\n{}\n}}\n", top.join(",\n"));
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// `"key": value` on one line.
fn member((key, value): &(String, Json)) -> String {
    format!("\"{key}\": {}", inline(value))
}

/// One value on one line, spaced like the committed files.
fn inline(value: &Json) -> String {
    let join = |items: Vec<String>| items.join(", ");
    match value {
        Json::Arr(items) => format!("[{}]", join(items.iter().map(inline).collect())),
        Json::Obj(pairs) => format!("{{{}}}", join(pairs.iter().map(member).collect())),
        scalar => scalar.to_string_compact(),
    }
}

/// A count as a snapshot number.
pub fn int(x: usize) -> Json {
    Json::U64(x as u64)
}

/// `x` rounded to `places` decimals, as a snapshot number.
pub fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::F64((x * scale).round() / scale)
}

/// How a fresh value is held against its committed one.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// Fresh ≥ this fraction of committed.
    AtLeast(f64),
    /// Fresh ≤ this multiple of committed.
    AtMost(f64),
    /// Fresh equals committed: counts fixed by the seeds, not the box.
    Equal,
}

/// The verdicts of one run; see the module docs.
pub struct Gate<W: Write = io::Stderr> {
    name: &'static str,
    out: W,
    baseline: Option<Json>,
    compared: usize,
    failed: usize,
}

impl Gate {
    /// A gate printing to stderr, against `baseline` if one was given.
    pub fn new(name: &'static str, baseline: Option<Json>) -> Gate {
        Gate::to(io::stderr(), name, baseline)
    }

    /// Prints the closing verdict and exits 1 if the run failed.
    pub fn exit(self) {
        if !self.finish().0 {
            std::process::exit(1);
        }
    }
}

impl<W: Write> Gate<W> {
    /// A gate printing to `out`.
    pub fn to(out: W, name: &'static str, baseline: Option<Json>) -> Gate<W> {
        Gate {
            name,
            out,
            baseline,
            compared: 0,
            failed: 0,
        }
    }

    fn verdict(&mut self, label: &str, detail: &str, ok: Option<bool>) {
        let word = match ok {
            Some(true) => "ok",
            Some(false) => "FAIL",
            None => "ungated",
        };
        self.failed += usize::from(ok == Some(false));
        writeln!(self.out, "{} {label}: {detail} .. {word}", self.name).expect("print a verdict");
    }

    /// Holds the fresh row against its committed row by `checks`: each
    /// names a key of both rows and its [`Rule`]. The committed row is,
    /// under `section` (the whole snapshot when empty), the object whose
    /// `keys` equal `fresh`'s. An array may lack it — the baseline
    /// measured other sizes — and nothing is checked; a single object
    /// that does not match fails, since the binary measures only that
    /// one workload. Without a baseline nothing is checked.
    pub fn compare(&mut self, section: &str, keys: &[&str], fresh: &Json, checks: &[(&str, Rule)]) {
        let Some(baseline) = &self.baseline else {
            return;
        };
        let same = |row: &&Json| {
            keys.iter()
                .all(|&k| row.get(k).is_some() && row.get(k) == fresh.get(k))
        };
        let committed = match Some(baseline)
            .filter(|_| section.is_empty())
            .or(baseline.get(section))
        {
            Some(Json::Arr(rows)) => match rows.iter().find(same) {
                Some(row) => row.clone(),
                None => return,
            },
            Some(row) if same(&row) => row.clone(),
            _ => return self.verdict(section, "no committed row for this workload", Some(false)),
        };
        let show = |v: &Json| v.as_str().map_or_else(|| v.to_string(), str::to_string);
        let at: String = keys
            .iter()
            .filter_map(|&k| Some(format!(" {k}={}", show(fresh.get(k)?))))
            .collect();
        for &(key, rule) in checks {
            self.compared += 1;
            let label = format!("{section}{at} {key}");
            let got = fresh
                .get(key)
                .and_then(Json::as_f64)
                .expect("fresh gated value");
            let Some(want) = committed.get(key).and_then(Json::as_f64) else {
                self.verdict(label.trim_start(), "committed value missing", Some(false));
                continue;
            };
            let (bound, ok) = match rule {
                Rule::AtLeast(frac) => (format!("floor {}", num(want * frac)), got >= want * frac),
                Rule::AtMost(mult) => (format!("ceiling {}", num(want * mult)), got <= want * mult),
                Rule::Equal => ("equal".to_string(), got == want),
            };
            let detail = format!("fresh {} vs committed {} ({bound})", num(got), num(want));
            self.verdict(label.trim_start(), &detail, Some(ok));
        }
    }

    /// A same-run check: `value` must reach `floor`.
    pub fn floor(&mut self, label: &str, value: f64, floor: f64) {
        let detail = format!("{} (floor {})", num(value), num(floor));
        self.verdict(label, &detail, Some(value >= floor));
    }

    /// A same-run check: `value` must not exceed `ceiling`.
    pub fn ceiling(&mut self, label: &str, value: f64, ceiling: f64) {
        let detail = format!("{} (ceiling {})", num(value), num(ceiling));
        self.verdict(label, &detail, Some(value <= ceiling));
    }

    /// A value printed but, for the stated reason, not gated.
    pub fn ungated(&mut self, label: &str, value: f64, why: &str) {
        self.verdict(label, &format!("{} ({why})", num(value)), None);
    }

    /// The closing verdict: whether the run passed, and the sink.
    pub fn finish(mut self) -> (bool, W) {
        if self.baseline.is_some() && self.compared == 0 {
            self.verdict(
                "baseline",
                "no row overlaps, nothing was gated",
                Some(false),
            );
        }
        let summary = match self.failed {
            0 => "every check passed".to_string(),
            n => format!("{n} check(s) FAILED"),
        };
        writeln!(self.out, "{}: {summary}", self.name).expect("print the summary");
        (self.failed == 0, self.out)
    }
}

/// A number at four significant digits (integers whole).
fn num(x: f64) -> String {
    if x.fract() == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

/// Median wall time (ns) of `reps` runs of `f`.
pub fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut times: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Interleaved best-of-`reps` wall times (ns) for a gated A/B pair.
/// Alternating single reps of each side keeps burst noise (VM steal
/// time, frequency excursions) from landing on only one side of a
/// ratio, and the minimum — unlike the median — discards every
/// disturbed rep, estimating the undisturbed cost of each side.
pub fn paired_min_ns<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u64, u64) {
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(t.elapsed().as_nanos() as u64);
    }
    (best_a, best_b)
}

/// Mean nanoseconds per call of `f`: the fastest of five batches of
/// `iters` calls.
pub fn ns_per_call<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of an ascending sample (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0;
    };
    sorted[((last as f64 * q).round() as usize).min(last)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Json {
        parse_json(text).unwrap()
    }

    /// Whether the gate passed, and the lines it printed.
    fn run(baseline: &str, checks: impl FnOnce(&mut Gate<Vec<u8>>)) -> (bool, Vec<String>) {
        let baseline = Some(baseline).filter(|b| !b.is_empty()).map(json);
        let mut gate = Gate::to(Vec::new(), "t", baseline);
        checks(&mut gate);
        let (passed, out) = gate.finish();
        let log = String::from_utf8(out).unwrap();
        (passed, log.lines().map(str::to_string).collect())
    }

    #[test]
    fn floor_ceiling_and_equality_verdicts() {
        let committed = r#"{"qps": 100, "p99": 100, "nodes": 7}"#;
        let compare = |key: &str, fresh: f64, rule| {
            let fresh = Json::Obj(vec![(key.to_string(), Json::F64(fresh))]);
            run(committed, |g| g.compare("", &[], &fresh, &[(key, rule)])).0
        };
        assert!(compare("qps", 25.0, Rule::AtLeast(0.25)));
        assert!(!compare("qps", 24.9, Rule::AtLeast(0.25)));
        assert!(compare("p99", 400.0, Rule::AtMost(4.0)));
        assert!(!compare("p99", 401.0, Rule::AtMost(4.0)));
        assert!(compare("nodes", 7.0, Rule::Equal));
        assert!(!compare("nodes", 8.0, Rule::Equal));
        assert!(run("", |g| g.floor("f", 2.5, 2.5)).0);
        assert!(!run("", |g| g.floor("f", 2.4, 2.5)).0);
        assert!(run("", |g| g.ceiling("c", 4.0, 4.0)).0);
        assert!(!run("", |g| g.ceiling("c", 4.1, 4.0)).0);
        assert!(run("", |g| g.ungated("u", 0.1, "why")).0);
    }

    #[test]
    fn no_overlap_and_a_missing_committed_key_fail() {
        assert!(run("", |_| {}).0, "no baseline, nothing to overlap");
        let (passed, log) = run("{}", |_| {});
        assert!(!passed && log[0].contains("nothing was gated"), "{log:?}");
        let rows = r#"{"rows": [{"n": 1, "q": 8, "qps": 9}], "map": {"q": 64, "qps": 9}}"#;
        let gate = |section, keys: &[&str], fresh: &str, key| {
            run(rows, |g| {
                g.compare(section, keys, &json(fresh), &[(key, Rule::Equal)])
            })
        };
        let (passed, log) = gate("rows", &["n", "q"], r#"{"n": 2, "q": 8, "qps": 9}"#, "qps");
        assert!(!passed && log[0].contains("nothing was gated"), "{log:?}");
        let (passed, log) = gate("map", &["q"], r#"{"q": 32, "qps": 9}"#, "qps");
        assert!(!passed && log[0].contains("no committed row"), "{log:?}");
        let (passed, log) = gate("rows", &["n", "q"], r#"{"n": 1, "q": 8, "p99": 9}"#, "p99");
        assert!(!passed, "{log:?}");
        assert_eq!(
            log[0],
            "t rows n=1 q=8 p99: committed value missing .. FAIL"
        );
    }

    #[test]
    fn every_verdict_prints_before_the_run_fails() {
        let (passed, log) = run(r#"{"qps": 100}"#, |g| {
            let fresh = json(r#"{"qps": 1}"#);
            g.compare("", &[], &fresh, &[("qps", Rule::AtLeast(0.25))]);
            g.floor("second", 3.0, 2.5);
            g.ceiling("third", 5.0, 4.0);
        });
        assert!(!passed);
        assert_eq!(log[0], "t qps: fresh 1 vs committed 100 (floor 25) .. FAIL");
        assert_eq!(log[1], "t second: 3 (floor 2.500) .. ok");
        assert_eq!(log[2], "t third: 5 (ceiling 4) .. FAIL");
        assert_eq!(log[3], "t: 2 check(s) FAILED");
        assert_eq!(log.len(), 4, "{log:?}");
    }

    /// Each committed snapshot parses through the shared reader and
    /// gates its binary's `--smoke` run (serve has no `--smoke`: its CI
    /// sizes are its defaults). A case is the binary, the section (empty
    /// for the whole file) and a fresh row whose last key is gated.
    #[test]
    fn committed_snapshots_gate_their_smoke_runs() {
        let cases = [
            r#"scan binary_scan {"n": 10000, "binary_speedup": 1}"#,
            r#"scan map_query {"queries": 64, "dimensions": 128, "extensions": 1}"#,
            r#"scan mcs {"graphs": 48, "node_budget": 16384, "nodes": 1}"#,
            r#"ann ann {"workload": "zipf", "n": 100000, "ef": 16, "ann_qps": 1}"#,
            r#"wal  {"append_rps_nosync": 1}"#,
            r#"serve  {"p99_us": 1}"#,
        ];
        for case in cases {
            let [bin, section, fresh] = case.splitn(3, ' ').collect::<Vec<_>>()[..] else {
                unreachable!()
            };
            let path = format!("{}/../../BENCH_{bin}.json", env!("CARGO_MANIFEST_DIR"));
            let mut gate = Gate::to(Vec::new(), "t", Some(read_snapshot(&path).unwrap()));
            let fresh = json(fresh);
            let Json::Obj(fields) = &fresh else {
                unreachable!()
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let (keys, gated) = keys.split_at(keys.len() - 1);
            gate.compare(section, keys, &fresh, &[(gated[0], Rule::AtLeast(0.0))]);
            let (passed, log) = gate.finish();
            assert!(passed, "{bin}: {}", String::from_utf8_lossy(&log));
        }
    }

    #[test]
    fn snapshots_keep_the_committed_layout() {
        let want = "{\n  \"rows\": [\n    {\"n\": 1},\n    {\"n\": 2, \"x\": 0.25}\n  ],\n  \
                    \"cpu\": {\"kernels\": [\"a\", null]},\n  \"wire\": {\n    \"a\": 1,\n    \
                    \"b\": 2.5\n  }\n}\n";
        let path = std::env::temp_dir().join(format!("gdim-gate-{}.json", std::process::id()));
        write_snapshot(path.to_str().unwrap(), &json(want), &["wire"]);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text, want);
    }
}
