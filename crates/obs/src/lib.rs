//! # gdim-obs — the observability substrate of the serving stack
//!
//! Zero-dependency (std-only) metrics for a system whose whole point
//! is a fast hot path: every primitive here is built so that
//! *recording* costs a handful of relaxed atomic operations and
//! *reading* never blocks a writer.
//!
//! * [`metrics`] — the lock-free primitives: [`Counter`] and [`Gauge`]
//!   (single relaxed atomics) and the fixed-bucket log₂-scale
//!   [`Histogram`] whose [`HistogramSnapshot`]s merge exactly across
//!   shards/threads and estimate p50/p90/p99/p999.
//! * [`trace`] — per-request stage attribution: the [`Stage`] pipeline
//!   vocabulary (cache → parse → map → ann_beam/scan → refine → merge
//!   → serialize), the bounded `Copy` [`StageTimes`] vector that rides
//!   inside `SearchStats`, and the cheap [`Trace`] span timer.
//! * [`ring`] — a bounded non-blocking ring of recently completed
//!   [`RequestRecord`]s (request id, endpoint, status, wall time,
//!   stage breakdown): the store behind the slow-query log. Writers
//!   never wait — a contended slot drops the record and counts it.
//! * [`registry`] — named metric families with labels (endpoint,
//!   stage, shard, code), registered once and recorded lock-free
//!   thereafter; [`registry::global`] is the process-wide registry the
//!   WAL and checkpoint layers record into.
//! * [`expo`] — the Prometheus **text exposition** renderer
//!   (hand-rolled like the server's `json.rs`), a parser for the same
//!   format (used by the CLI's `gdim top` and the CI scrape smoke
//!   test), and an ASCII histogram renderer for terminals.
//!
//! The cost contract, pinned by the serve-bench overhead gate: idle
//! instrumentation is free (no background threads, no allocation after
//! registration), and a hot request pays a bounded handful of
//! `Ordering::Relaxed` atomic adds plus one optional ring push.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod metrics;
pub mod registry;
pub mod ring;
pub mod trace;

pub use expo::{ascii_histogram, Exposition, Sample};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{global, Registry};
pub use ring::{RequestRecord, RequestRing};
pub use trace::{Stage, StageTimes, Trace, STAGE_COUNT};
