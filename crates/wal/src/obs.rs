//! The WAL's process-wide metrics, recorded into
//! [`gdim_obs::global`]'s registry so any server in the process can
//! scrape them without threading a handle down to the writer.
//!
//! Registration happens once (behind a `OnceLock`); the append/sync
//! hot paths afterwards touch only relaxed atomics, preserving the
//! writer's latency profile.

use std::sync::{Arc, OnceLock};

use gdim_obs::{global, Counter, Gauge, Histogram};

/// The cached instrument handles.
pub(crate) struct WalMetrics {
    /// Latency of one [`WalWriter::append`](crate::WalWriter::append)
    /// call (framing + write + policy sync), in ns.
    pub append_ns: Arc<Histogram>,
    /// Latency of the `fsync` (`sync_data`) calls alone, in ns.
    pub fsync_ns: Arc<Histogram>,
    /// Current log length in bytes (tracks truncation on reopen).
    pub bytes: Arc<Gauge>,
    /// Records appended over the process lifetime, across all logs.
    pub records: Arc<Counter>,
}

/// The singleton handles (registered in the global registry on first
/// use).
pub(crate) fn wal_metrics() -> &'static WalMetrics {
    static M: OnceLock<WalMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = global();
        WalMetrics {
            append_ns: g.histogram(
                "gdim_wal_append_ns",
                "Latency of WAL append calls, framing + write + policy sync (ns)",
                &[],
            ),
            fsync_ns: g.histogram(
                "gdim_wal_fsync_ns",
                "Latency of WAL fsync (sync_data) calls (ns)",
                &[],
            ),
            bytes: g.gauge(
                "gdim_wal_bytes",
                "Current write-ahead log length in bytes",
                &[],
            ),
            records: g.counter(
                "gdim_wal_records_total",
                "Records appended to write-ahead logs this process",
                &[],
            ),
        }
    })
}
