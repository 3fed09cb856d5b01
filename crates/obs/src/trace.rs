//! Per-request stage attribution: where a query's wall time went.
//!
//! The pipeline vocabulary is fixed ([`Stage`]): cache → parse → map
//! → ann_beam/scan → refine → merge → serialize. A request carries a
//! bounded, `Copy` [`StageTimes`] vector (one `u64` of nanoseconds per
//! stage — no allocation, rides inside `SearchStats`), and the
//! serving layer wraps it in a [`Trace`] that also knows
//! when the request started.

use std::fmt;
use std::time::{Duration, Instant};

/// Number of pipeline stages ([`Stage::ALL`]).
pub const STAGE_COUNT: usize = 8;

/// One stage of the query pipeline. Stages are attribution, never
/// semantics: a request touches only the stages its ranker runs
/// (e.g. `AnnBeam` replaces `Scan` for the approximate tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A `/search` answered from the server's result cache: the lookup
    /// that replaced parse, map, scan and merge (server side).
    Cache,
    /// HTTP body + wire-schema decode (server side).
    Parse,
    /// VF2 feature matching of the query into the dimension space.
    Map,
    /// The bounded top-k vector scan (mapped/refined rankers).
    Scan,
    /// The proximity-graph beam walk (approximate ranker).
    AnnBeam,
    /// Exact MCS re-ranking (refined / verified-approx / exact).
    Refine,
    /// Selecting the answer from every shard's hits.
    Merge,
    /// Response JSON encode + write (server side).
    Serialize,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Cache,
        Stage::Parse,
        Stage::Map,
        Stage::Scan,
        Stage::AnnBeam,
        Stage::Refine,
        Stage::Merge,
        Stage::Serialize,
    ];

    /// The stable snake_case name (wire and metric label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Cache => "cache",
            Stage::Parse => "parse",
            Stage::Map => "map",
            Stage::Scan => "scan",
            Stage::AnnBeam => "ann_beam",
            Stage::Refine => "refine",
            Stage::Merge => "merge",
            Stage::Serialize => "serialize",
        }
    }

    /// Parses a [`Stage::name`] back (wire decode).
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The stage's index into [`StageTimes`]' backing array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Nanoseconds per stage: the bounded per-request stage vector.
///
/// `Copy` and allocation-free so it can live inside `SearchStats`
/// without changing that type's cost model; merging two requests'
/// vectors sums per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    ns: [u64; STAGE_COUNT],
}

impl StageTimes {
    /// All-zero stage times.
    pub fn new() -> StageTimes {
        StageTimes::default()
    }

    /// Adds a duration to one stage (saturating).
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.add_ns(stage, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds whole nanoseconds to one stage (saturating).
    #[inline]
    pub fn add_ns(&mut self, stage: Stage, ns: u64) {
        let slot = &mut self.ns[stage.index()];
        *slot = slot.saturating_add(ns);
    }

    /// Nanoseconds attributed to `stage`.
    #[inline]
    pub fn get_ns(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Folds another request's stage times in (per-stage saturating
    /// sums).
    pub fn merge(&mut self, other: &StageTimes) {
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            *a = a.saturating_add(*b);
        }
    }

    /// Sum over all stages, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Whether every stage is zero (nothing was attributed).
    pub fn is_empty(&self) -> bool {
        self.ns.iter().all(|&n| n == 0)
    }

    /// The non-zero stages in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL.into_iter().filter_map(|s| match self.get_ns(s) {
            0 => None,
            ns => Some((s, ns)),
        })
    }
}

impl fmt::Display for StageTimes {
    /// Compact `stage=duration` pairs for the non-zero stages, in
    /// pipeline order — the slow-query log's breakdown field.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (stage, ns) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{}={:.1?}", stage.name(), Duration::from_nanos(ns))?;
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// A cheap span timer for one request: stage times plus the request's
/// origin instant. The serving layer owns one per request; the index
/// layers below stamp [`StageTimes`] into their stats and the trace
/// [`absorb`](Trace::absorb)s them.
#[derive(Debug)]
pub struct Trace {
    stages: StageTimes,
    origin: Instant,
}

impl Trace {
    /// Starts the request clock.
    pub fn start() -> Trace {
        Trace {
            stages: StageTimes::new(),
            origin: Instant::now(),
        }
    }

    /// Times a closure and attributes it to `stage`.
    #[inline]
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.stages.add(stage, t.elapsed());
        out
    }

    /// Attributes an externally measured duration to `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, d: Duration) {
        self.stages.add(stage, d);
    }

    /// Folds stage times measured by a lower layer in.
    pub fn absorb(&mut self, other: &StageTimes) {
        self.stages.merge(other);
    }

    /// The accumulated stage vector.
    pub fn stages(&self) -> &StageTimes {
        &self.stages
    }

    /// Time since [`Trace::start`].
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_roundtrip_and_cover_all() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        assert_eq!(Stage::parse("nope"), None);
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
    }

    #[test]
    fn stage_times_accumulate_merge_and_render() {
        let mut a = StageTimes::new();
        assert!(a.is_empty());
        a.add(Stage::Map, Duration::from_micros(120));
        a.add_ns(Stage::Scan, 1_000);
        a.add_ns(Stage::Scan, 500);
        assert_eq!(a.get_ns(Stage::Scan), 1_500);
        let mut b = StageTimes::new();
        b.add_ns(Stage::Scan, 100);
        b.add_ns(Stage::Merge, u64::MAX); // saturates, never panics
        b.add_ns(Stage::Merge, 1);
        a.merge(&b);
        assert_eq!(a.get_ns(Stage::Scan), 1_600);
        assert_eq!(a.get_ns(Stage::Merge), u64::MAX);
        let line = a.to_string();
        assert!(line.contains("map=") && line.contains("scan="), "{line}");
        assert!(!line.contains("parse="), "zero stages are elided: {line}");
        assert_eq!(StageTimes::new().to_string(), "(none)");
        assert_eq!(a.iter().count(), 3);
        assert_eq!(a.total_ns(), u64::MAX); // saturating total
    }

    #[test]
    fn trace_times_closures_and_absorbs() {
        let mut t = Trace::start();
        let v = t.time(Stage::Parse, || 41 + 1);
        assert_eq!(v, 42);
        let mut lower = StageTimes::new();
        lower.add_ns(Stage::Scan, 999);
        t.absorb(&lower);
        assert_eq!(t.stages().get_ns(Stage::Scan), 999);
        assert!(t.elapsed() >= Duration::ZERO);
    }
}
