//! The write path's process-wide metrics, recorded into
//! [`gdim_obs::global`]'s registry (the way the WAL's series are) so
//! any server in the process exposes them on `/metrics` without a
//! handle threaded down to the writer.
//!
//! Registration happens once (behind a `OnceLock`); a mutation
//! afterwards touches only relaxed atomics.

use std::sync::{Arc, OnceLock};

use gdim_obs::{global, Counter, Histogram};

/// The cached instrument handles.
pub(crate) struct WriteMetrics {
    /// Time a mutation waited for the [`ServingHandle`](crate::ServingHandle)
    /// master lock, in ns (`lock="master"`).
    pub master_wait_ns: Arc<Histogram>,
    /// Time a mutation waited for the [`DurableHandle`](crate::DurableHandle)
    /// lock — the one that serializes durable writers across log →
    /// fsync → apply — in ns (`lock="durable"`).
    pub durable_wait_ns: Arc<Histogram>,
    /// Master lock acquired → snapshot version bumped, in ns: the
    /// mutation itself (mapping, copy-on-write of the owning shard)
    /// plus the publish.
    pub publish_ns: Arc<Histogram>,
    /// Rows whose per-row heap state (graph, inserted feature row) a
    /// copy-on-write shard clone physically copied. Exact: counted
    /// where the clone happens, only when it happens.
    pub rows_copied: Arc<Counter>,
    /// Time the durable lock is held folding the log into a new
    /// checkpoint generation — the stall mutations see — in ns.
    pub checkpoint_ns: Arc<Histogram>,
}

/// The singleton handles (registered in the global registry on first
/// use).
pub(crate) fn write_metrics() -> &'static WriteMetrics {
    static M: OnceLock<WriteMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = global();
        let wait = |lock| {
            g.histogram(
                "gdim_writer_lock_wait_ns",
                "Time a mutation waited for a writer lock (ns)",
                &[("lock", lock)],
            )
        };
        WriteMetrics {
            master_wait_ns: wait("master"),
            durable_wait_ns: wait("durable"),
            publish_ns: g.histogram(
                "gdim_publish_ns",
                "Mutation + publish, master lock acquired to version bumped (ns)",
                &[],
            ),
            rows_copied: g.counter(
                "gdim_publish_rows_copied_total",
                "Rows whose per-row heap state a copy-on-write shard clone copied",
                &[],
            ),
            checkpoint_ns: g.histogram(
                "gdim_checkpoint_ns",
                "Latency of durable checkpoint folds, lock held (ns)",
                &[],
            ),
        }
    })
}
