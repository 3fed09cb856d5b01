//! # gdim-exec — the workspace's shared parallel-execution runtime
//!
//! Every parallel kernel in the workspace (exact MCS ranking, δ-matrix
//! construction, DSPM weight/distance updates, DSPMap sub-blocks, the
//! shard split) fans work out the same way: split an index space into
//! tasks, run them on a scoped thread pool, and reassemble results **in
//! task order** so output is byte-identical regardless of thread count.
//! This crate is the single home for that scaffolding; nothing outside
//! it fans work out over threads or touches `std::sync::mpsc` directly.
//! (One long job — a served index rebuild — is a plain named thread
//! its caller spawns and joins; it needs no primitive of its own.)
//!
//! The primitives:
//!
//! * [`ExecConfig`] — the one knob callers thread through their
//!   configuration structs (`0` = all available cores);
//! * [`map_tasks`] — `results[i] = f(i)`, deterministic order;
//! * [`flat_map_tasks`] — per-task `Vec`s concatenated in task order
//!   (the shape of condensed-triangle row fills);
//! * [`map_chunks`] — fixed-size index chunks, flattened in index order
//!   (the shape of per-item kernels with cheap items);
//! * [`WorkerPool`] — a fixed pool of dedicated threads looping one
//!   handler over queued jobs (the shape of a server's connection
//!   handlers).
//!
//! Determinism contract: when `f` is pure, every function here returns
//! the same bytes for every thread budget, including `threads = 1`
//! (which runs inline on the caller's thread, with no channel or spawn
//! overhead).
//!
//! ```
//! use gdim_exec::{map_tasks, ExecConfig};
//!
//! let squares = map_tasks(&ExecConfig::new(4), 10, |i| i * i);
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

/// The machine's core count, probed once per process.
/// `std::thread::available_parallelism` re-reads cgroup quota files on
/// every call (tens of microseconds under containers), which would
/// dominate a small fan-out if paid per call.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |t| t.get()))
}

/// The parallelism budget for one engine invocation.
///
/// `threads == 0` (the [`Default`]) means "all available cores". The
/// same value is threaded from `IndexOptions` down through every
/// config struct so callers control parallelism in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Worker-thread budget; `0` = all available cores.
    pub threads: usize,
}

impl ExecConfig {
    /// A budget of exactly `threads` workers (`0` = all cores).
    pub const fn new(threads: usize) -> Self {
        ExecConfig { threads }
    }

    /// Strictly serial execution (inline on the caller's thread).
    pub const fn serial() -> Self {
        ExecConfig { threads: 1 }
    }

    /// The resolved worker count for `tasks` units of work: the budget
    /// (or core count when `0`), never more than `tasks`, never zero.
    pub fn effective_threads(&self, tasks: usize) -> usize {
        let budget = if self.threads > 0 {
            self.threads
        } else {
            available_cores()
        };
        budget.min(tasks).max(1)
    }
}

/// Scoped workers spawned by this crate's fan-outs, process-wide.
static WORKERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How many scoped worker threads [`map_tasks`] / [`fill_tasks`] (and
/// everything built on them) have spawned in this process so far. A
/// code path that must stay on its caller's thread — a single search —
/// is tested by this counter not moving.
pub fn workers_spawned() -> u64 {
    WORKERS_SPAWNED.load(Ordering::Relaxed)
}

/// `results[i] = task(i)` for `i in 0..tasks`, computed on up to
/// [`ExecConfig::effective_threads`] scoped workers. Output order is
/// task order regardless of scheduling.
pub fn map_tasks<T, F>(cfg: &ExecConfig, tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = cfg.effective_threads(tasks);
    if workers <= 1 {
        return (0..tasks).map(task).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    WORKERS_SPAWNED.fetch_add(workers as u64, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let task = &task;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                // The receiver lives for the whole scope; send only
                // fails if the collector below panicked, and then the
                // scope is unwinding anyway.
                let _ = tx.send((i, task(i)));
            });
        }
        drop(tx);
        for (i, out) in rx {
            slots[i] = Some(out);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task index sent exactly once"))
        .collect()
}

/// Runs `task(i)` for each task, concatenating the returned `Vec`s in
/// task order — the natural shape for condensed-triangle row fills,
/// where row `i` contributes a variable-length run.
pub fn flat_map_tasks<T, F>(cfg: &ExecConfig, tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    let parts = map_tasks(cfg, tasks, task);
    // Reserve the exact total up front so growth doubling never
    // re-copies the data. For fixed-layout outputs whose offsets are
    // known a priori (condensed triangles), prefer [`fill_tasks`],
    // which keeps peak memory at ~1x the output size.
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Fixed-layout variant of [`flat_map_tasks`]: when every task's
/// output position is known a priori, each task's `Vec` is copied into
/// a `total`-sized preallocated buffer at `offset(i)` **as it
/// arrives** and freed immediately — peak memory stays at ~1x the
/// output plus in-flight rows, matching a hand-rolled scatter fill.
/// This is the primitive behind the condensed δ/distance triangles,
/// the workspace's largest allocations.
///
/// Each task's output must fit `offset(i)..offset(i) + len` within
/// `total` without overlapping other tasks; the buffer is seeded with
/// `init` (slots outside every task's range keep it).
pub fn fill_tasks<T, F, O>(
    cfg: &ExecConfig,
    tasks: usize,
    total: usize,
    init: T,
    offset: O,
    task: F,
) -> Vec<T>
where
    T: Send + Clone,
    F: Fn(usize) -> Vec<T> + Sync,
    O: Fn(usize) -> usize,
{
    let workers = cfg.effective_threads(tasks);
    let mut out = vec![init; total];
    if workers <= 1 {
        for i in 0..tasks {
            let part = task(i);
            let start = offset(i);
            out[start..start + part.len()].clone_from_slice(&part);
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<T>)>();
    WORKERS_SPAWNED.fetch_add(workers as u64, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let task = &task;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let _ = tx.send((i, task(i)));
            });
        }
        drop(tx);
        for (i, part) in rx {
            let start = offset(i);
            out[start..start + part.len()].clone_from_slice(&part);
        }
    });
    out
}

/// Splits `0..items` into `chunk`-sized ranges, runs `task` per range,
/// and flattens results in index order. Use for per-item kernels cheap
/// enough that per-item scheduling would dominate.
///
/// Each task must return exactly one element per index of its range;
/// the concatenation then lines up with `0..items`.
pub fn map_chunks<T, F>(cfg: &ExecConfig, items: usize, chunk: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let chunk = chunk.max(1);
    let tasks = items.div_ceil(chunk);
    let out = flat_map_tasks(cfg, tasks, |t| {
        let start = t * chunk;
        task(start..(start + chunk).min(items))
    });
    debug_assert_eq!(
        out.len(),
        items,
        "map_chunks task returned a wrong-sized chunk"
    );
    out
}

/// A fixed pool of dedicated worker threads consuming jobs from a
/// shared queue — the shape of a network server's connection handlers,
/// where jobs arrive over time (unlike [`map_tasks`], whose task count
/// is known up front) and each may run for a long, unknown while.
///
/// Every worker runs the same handler. Shutdown is
/// [`WorkerPool::drain_join`] (or a drop): the queue closes, workers
/// finish every already-submitted job, then exit and are joined. A
/// long-lived job (say, a keep-alive connection loop) that must wind
/// down early polls a flag of its owner's.
///
/// Jobs are `FnOnce`-free by design: the pool is for homogeneous work
/// (one handler, many job values), which keeps it allocation-free per
/// submit beyond the channel node.
pub struct WorkerPool<T: Send + 'static> {
    tx: Option<mpsc::Sender<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> std::fmt::Debug for WorkerPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads (at least 1), each looping `handler`
    /// over jobs pulled from the shared queue. `name` labels the
    /// threads (`{name}-{i}`) for debuggers and panic messages.
    pub fn new<F>(workers: usize, name: &str, handler: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<T>();
        // `mpsc::Receiver` is single-consumer; the workers share it
        // behind a mutex, holding the lock only across the blocking
        // `recv` (not while running the handler), so job dispatch
        // serializes but job execution does not.
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // A poisoned queue mutex means another worker
                        // panicked *while receiving* (the lock never
                        // covers handler runs); the queue itself is
                        // still sound, so keep serving.
                        let job = rx
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .recv();
                        match job {
                            Ok(job) => handler(job),
                            Err(_) => break, // queue closed and empty
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers: handles,
        }
    }

    /// Queues one job. Returns the job back if the pool is already
    /// draining (after [`WorkerPool::drain_join`] began) so the caller
    /// can dispose of it deliberately.
    pub fn submit(&self, job: T) -> Result<(), T> {
        match &self.tx {
            Some(tx) => tx.send(job).map_err(|mpsc::SendError(job)| job),
            None => Err(job),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Graceful shutdown: closes the queue (new [`WorkerPool::submit`]s
    /// fail), lets the workers drain every already-queued job, then
    /// joins them. A worker panic is resumed on the caller after the
    /// remaining workers are joined.
    pub fn drain_join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.tx.take(); // close the queue; workers exit once drained
        let mut panicked = None;
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                panicked = Some(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        // An implicitly dropped pool still drains and joins —
        // dropping a server must not leak running threads. `shutdown`
        // is idempotent: after `drain_join`, `workers` is already
        // empty.
        if !std::thread::panicking() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_tasks_orders_results_across_thread_budgets() {
        let serial = map_tasks(&ExecConfig::serial(), 100, |i| i * 3);
        for threads in [2, 4, 8] {
            let parallel = map_tasks(&ExecConfig::new(threads), 100, |i| i * 3);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        assert_eq!(serial[41], 123);
    }

    #[test]
    fn flat_map_tasks_concatenates_in_task_order() {
        // Variable-length rows, like condensed-triangle fills.
        let rows = |i: usize| (0..i).map(|j| (i, j)).collect::<Vec<_>>();
        let serial = flat_map_tasks(&ExecConfig::serial(), 20, rows);
        let parallel = flat_map_tasks(&ExecConfig::new(8), 20, rows);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 19 * 20 / 2);
        assert_eq!(serial[0], (1, 0));
    }

    #[test]
    fn map_chunks_covers_every_index_once() {
        for (items, chunk) in [(0usize, 4usize), (1, 4), (7, 3), (64, 8), (65, 8)] {
            let got = map_chunks(&ExecConfig::new(4), items, chunk, |r| {
                r.map(|i| i as u64).collect()
            });
            assert_eq!(got, (0..items as u64).collect::<Vec<_>>(), "items={items}");
        }
    }

    #[test]
    fn fill_tasks_scatters_at_offsets_for_any_thread_budget() {
        // Condensed-triangle layout: row i of an n×n upper triangle.
        let n = 20usize;
        let total = n * (n - 1) / 2;
        let row_start = |i: usize| i * (2 * n - i - 1) / 2;
        let row = |i: usize| (i + 1..n).map(|j| (i * 100 + j) as u64).collect::<Vec<_>>();
        let serial = fill_tasks(&ExecConfig::serial(), n - 1, total, 0u64, row_start, row);
        for threads in [2usize, 8] {
            let parallel = fill_tasks(
                &ExecConfig::new(threads),
                n - 1,
                total,
                0u64,
                row_start,
                row,
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Matches the flat concatenation of the same rows.
        let flat = flat_map_tasks(&ExecConfig::new(4), n - 1, row);
        assert_eq!(serial, flat);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let got: Vec<u32> = map_tasks(&ExecConfig::default(), 0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(ExecConfig::new(8).effective_threads(3), 3);
        assert_eq!(ExecConfig::new(2).effective_threads(100), 2);
        assert_eq!(ExecConfig::serial().effective_threads(100), 1);
        assert!(ExecConfig::new(0).effective_threads(100) >= 1);
        assert_eq!(ExecConfig::new(4).effective_threads(0), 1);
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new(4, "test-pool", move |job: usize| {
                done.fetch_add(job, Ordering::SeqCst);
            })
        };
        assert_eq!(pool.workers(), 4);
        for job in 0..100 {
            pool.submit(job).unwrap();
        }
        pool.drain_join();
        assert_eq!(done.load(Ordering::SeqCst), 99 * 100 / 2);
    }

    #[test]
    fn worker_pool_drain_finishes_queued_jobs_before_joining() {
        // More jobs than workers: drain_join must not drop the queue's
        // tail. The gate holds the first jobs mid-flight until every
        // job is queued and the drain has begun.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(std::sync::Mutex::new(gate_rx));
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            let gate_rx = Arc::clone(&gate_rx);
            WorkerPool::new(2, "drain-pool", move |first: bool| {
                if first {
                    gate_rx.lock().unwrap().recv().ok();
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        pool.submit(true).unwrap();
        pool.submit(true).unwrap();
        for _ in 0..20 {
            pool.submit(false).unwrap();
        }
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        pool.drain_join();
        assert_eq!(done.load(Ordering::SeqCst), 22);
    }

    #[test]
    fn worker_pool_submit_fails_once_its_workers_are_gone() {
        // Every worker exits on a panicking job: the queue then has no
        // consumer, and a submit hands the job back instead of queueing
        // it where nothing will ever run it.
        let pool = WorkerPool::new(1, "gone-pool", |job: u8| {
            assert_ne!(job, 0, "job 0 kills its worker");
        });
        pool.submit(0).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.submit(1).is_ok() {
            assert!(
                std::time::Instant::now() < deadline,
                "the worker never exited"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.submit(7), Err(7));
        // The worker's panic resumes on whoever reaps the pool.
        let reaped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.drain_join()));
        assert!(reaped.is_err());
    }

    #[test]
    fn dropping_a_worker_pool_joins_without_leaking() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            let pool = WorkerPool::new(3, "drop-pool", move |_: u8| {
                done.fetch_add(1, Ordering::SeqCst);
            });
            for _ in 0..10 {
                pool.submit(1).unwrap();
            }
            // Implicit drop: drains, joins.
        }
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn every_worker_stays_busy_on_slow_tasks() {
        // Not a strict scheduling assertion — just checks the pool
        // actually runs tasks concurrently (work stealing by counter).
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let _ = map_tasks(&ExecConfig::new(4), 16, |i| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            concurrent.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(peak.load(Ordering::SeqCst) >= 2, "no concurrency observed");
    }
}
