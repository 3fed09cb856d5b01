//! What the benchmark runs and what it reports: the four workloads,
//! their sizes, and the metric tables `BENCHMARK.json` mirrors (a unit
//! test keeps the two in step).

use gdim::core::Ranker;

/// Requests ask for the top 10, like the paper's §6.
pub const K: usize = 10;
/// Beam width of `chem_large_approx`.
pub const APPROX_EF: usize = 32;
/// Dimensions `p` selected by DSPM.
pub const DIMENSIONS: usize = 128;
pub const SHARDS: usize = 2;
/// Closed-loop clients never exceed this, whatever the core count.
pub const MAX_CLIENTS: usize = 4;
/// Set-ups per `--trace 0` run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Measured windows per run; a timing is the mean of the windows.
pub const WINDOWS: usize = 20;
/// Served answers compared bit for bit with the in-process answer.
pub const GATE_PROBES: usize = 32;
/// Queries behind `recall_at_10`, and its floor.
pub const RECALL_QUERIES: usize = 200;
pub const RECALL_FLOOR: f64 = 0.95;
/// Queries behind `precision_at_10`.
pub const PRECISION_QUERIES: usize = 25;

/// Measured windows per load phase at full or `--smoke` scale.
pub fn windows(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        WINDOWS
    }
}

/// How long the reference loop gets before and after every window.
pub fn reference_gap(smoke: bool) -> std::time::Duration {
    std::time::Duration::from_millis(if smoke { 100 } else { 125 })
}

/// Requests of the traced phase. A count, not a time, so that the
/// counters the phase reports repeat exactly for a seed.
pub fn trace_requests(smoke: bool) -> usize {
    if smoke {
        200
    } else {
        2000
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SmallHot,
    LargeExact,
    LargeApprox,
    MidRw,
}

/// One workload at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Graphs the DSPM build runs over.
    pub base: usize,
    /// Rows served: `base` built plus `rows - base` bulk-inserted.
    pub rows: usize,
    /// Distinct queries in the pool.
    pub pool: usize,
}

pub const WORKLOAD_NAMES: [&str; 4] = [
    "chem_small_hot",
    "chem_large_exact",
    "chem_large_approx",
    "chem_mid_rw",
];

impl Workload {
    /// The workload called `name` at full or `--smoke` scale.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        let at = WORKLOAD_NAMES.iter().position(|n| *n == name)?;
        let (kind, rows, pool) = [
            (Kind::SmallHot, 600, 1_024),
            (Kind::LargeExact, 16_000, 16_384),
            (Kind::LargeApprox, 16_000, 16_384),
            (Kind::MidRw, 8_000, 4_096),
        ][at];
        let name = WORKLOAD_NAMES[at];
        Some(if smoke {
            Workload {
                name,
                kind,
                base: 32,
                rows: 532,
                pool: pool.min(512),
            }
        } else {
            Workload {
                name,
                kind,
                base: 48,
                rows,
                pool,
            }
        })
    }

    pub fn ranker(&self) -> Ranker {
        match self.kind {
            Kind::LargeApprox => Ranker::Approx {
                ef: APPROX_EF,
                verify: None,
            },
            _ => Ranker::Mapped,
        }
    }

    pub fn durable(&self) -> bool {
        self.kind == Kind::MidRw
    }

    /// Rows tombstoned during set-up (the newest ones), so that the
    /// read-write workload scans through a mask from its first request
    /// and the traced phase sees the same mask in every run.
    pub fn pre_removed(&self) -> usize {
        if self.kind == Kind::MidRw {
            self.rows / 20
        } else {
            0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// Printed by every `--trace 0` run, for every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("throughput_ops_s", "1/s", Better::Higher, 0.25),
    ("search_p50_us", "us", Better::Lower, 0.25),
    ("search_p99_us", "us", Better::Lower, 0.25),
    ("rss_peak_mb", "MB", Better::Lower, 0.20),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

/// Printed by every `--trace 1` run. A metric whose layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // What a user sees, but on one workload only or 0 on the baseline,
    // so the contract's end-to-end list cannot carry it.
    ("write_p50_us", "us", Better::Lower),
    ("write_p90_us", "us", Better::Lower),
    ("error_frac", "frac", Better::Lower),
    ("recall_at_10", "frac", Better::Higher),
    ("precision_at_10", "frac", Better::Higher),
    ("acked_writes_lost", "count", Better::Lower),
    // mining / core::delta / core::dspm / build -> setup_s
    ("mining.mine_s", "s", Better::Lower),
    ("mining.features", "count", Better::Lower),
    ("core.delta_s", "s", Better::Lower),
    ("core.delta_pairs", "count", Better::Lower),
    ("core.select_s", "s", Better::Lower),
    ("shard.build_s", "s", Better::Lower),
    ("core.bulk_insert_us_per_graph", "us", Better::Lower),
    ("core.ann_build_s", "s", Better::Lower),
    ("shard.durable_create_s", "s", Better::Lower),
    // server (http / json / wire / socket)
    ("server.rtt_p50_us", "us", Better::Lower),
    ("server.http_parse_us", "us", Better::Lower),
    ("server.json_parse_us", "us", Better::Lower),
    ("server.wire_decode_us", "us", Better::Lower),
    ("server.wire_encode_us", "us", Better::Lower),
    ("client.decode_us", "us", Better::Lower),
    ("server.request_bytes", "bytes", Better::Lower),
    ("server.response_bytes", "bytes", Better::Lower),
    ("server.stage_parse_us", "us", Better::Lower),
    ("server.stage_serialize_us", "us", Better::Lower),
    ("server.latency_mean_us", "us", Better::Lower),
    ("server.unaccounted_us", "us", Better::Lower),
    ("server.unaccounted_frac", "frac", Better::Lower),
    // core::query / core::featurespace (+ graph::vf2)
    ("core.map_query_p50_us", "us", Better::Lower),
    ("core.vf2_calls_per_query", "count", Better::Lower),
    ("core.vf2_pruned_frac", "frac", Better::Higher),
    // core::scan + kernels
    ("core.scan_p50_us", "us", Better::Lower),
    ("core.scan_words_per_query", "count", Better::Lower),
    ("core.scan_ns_per_row", "ns", Better::Lower),
    ("core.tombstones_skipped_per_query", "count", Better::Lower),
    ("core.scan_weighted_p50_us", "us", Better::Lower),
    ("core.scan_fused16_us_per_query", "us", Better::Lower),
    // core::ann
    ("core.ann_beam_p50_us", "us", Better::Lower),
    ("core.ann_beam_visited_per_query", "count", Better::Lower),
    // shard
    ("shard.search_p50_us", "us", Better::Lower),
    ("shard.stage_map_us", "us", Better::Lower),
    ("shard.stage_scan_us", "us", Better::Lower),
    ("shard.stage_ann_beam_us", "us", Better::Lower),
    ("shard.stage_merge_us", "us", Better::Lower),
    ("shard.fanout_overhead_us", "us", Better::Lower),
    ("shard.insert_p50_us", "us", Better::Lower),
    ("shard.insert_owned_p50_us", "us", Better::Lower),
    ("shard.publish_overhead_us", "us", Better::Lower),
    ("shard.remove_p50_us", "us", Better::Lower),
    ("shard.durable_insert_p50_us", "us", Better::Lower),
    // wal
    ("wal.append_p50_us", "us", Better::Lower),
    ("wal.fsync_p50_us", "us", Better::Lower),
    ("wal.bytes_per_record", "bytes", Better::Lower),
    ("wal.records", "count", Better::Lower),
    // bench (harness health) and the sample counts behind the
    // percentiles above
    ("bench.trace_overhead_frac", "frac", Better::Lower),
    ("bench.window_spread_frac", "frac", Better::Lower),
    ("bench.load_throughput_ops_s", "1/s", Better::Higher),
    ("bench.load_search_p50_us", "us", Better::Lower),
    ("bench.machine_speed", "frac", Better::Higher),
    ("bench.search_samples", "count", Better::Higher),
    ("bench.write_samples", "count", Better::Higher),
    ("bench.trace_requests", "count", Better::Higher),
    ("bench.trace_spans", "count", Better::Higher),
    ("bench.layer_write_samples", "count", Better::Higher),
    // self times of the trace's two bookkeeping spans
    ("bench.request_self_us", "us", Better::Lower),
    ("bench.replay_self_us", "us", Better::Lower),
    // time the trace run itself took, by phase
    ("bench.setup_once_s", "s", Better::Lower),
    ("bench.trace_phase_s", "s", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use gdim::server::{parse_json, Json};

    fn better_str(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} in {j}"))
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the program prints: they must name the same things.
    #[test]
    fn benchmark_json_mirrors_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .to_vec()
        };

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text(w, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOAD_NAMES);

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text(j, "name"), name);
            assert_eq!(text(j, "unit"), unit, "{name}");
            assert_eq!(text(j, "better"), better_str(better), "{name}");
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(j, "name"), *name);
            assert_eq!(text(j, "unit"), *unit, "{name}");
            assert_eq!(text(j, "better"), better_str(*better), "{name}");
        }
    }

    #[test]
    fn every_workload_name_resolves_at_both_scales() {
        for name in WORKLOAD_NAMES {
            let full = Workload::named(name, false).expect("full");
            let smoke = Workload::named(name, true).expect("smoke");
            assert_eq!(full.name, name);
            assert!(smoke.rows < full.rows && smoke.base < smoke.rows);
            assert!(full.base < full.rows);
        }
        assert!(Workload::named("nope", false).is_none());
    }

    #[test]
    fn metric_names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup");
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3 && m.3 <= 0.25));
    }
}
