//! The closed loop: `C` clients, one keep-alive connection and one
//! thread each, every client sending its next request only after the
//! previous reply was parsed.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gdim::graph::Graph;
use gdim::server::Json;
use gdim::shard::ShardedIndex;

use crate::gen::{
    insert_body, insert_graphs, remove_body, search_body, search_request, Op, Stream,
};
use crate::reference::Reference;
use crate::setup::connect;
use crate::spec::{Kind, Workload, K, MAX_CLIENTS};
use crate::stats::Window;

/// The timeline of a load phase: a warm-up, then `windows` measured
/// windows, each preceded by a gap in which the clients pause and the
/// reference loop runs; one more gap follows the last window.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub gap: Duration,
    pub window: Duration,
    pub windows: usize,
}

/// Where a moment falls on a [`Plan`]'s timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    Warmup,
    /// In a gap that ends `.0` after the phase started.
    Gap(Duration),
    Window(usize),
    Done,
}

impl Plan {
    /// When gap `i` starts, counted from the start of the phase.
    pub fn gap_start(&self, i: usize) -> Duration {
        self.warmup + (self.gap + self.window) * i as u32
    }

    pub fn position(&self, since_start: Duration) -> Position {
        let Some(measured) = since_start.checked_sub(self.warmup) else {
            return Position::Warmup;
        };
        let period = self.gap + self.window;
        let i = (measured.as_nanos() / period.as_nanos().max(1)) as usize;
        if i >= self.windows {
            Position::Done
        } else if measured - period * (i as u32) < self.gap {
            Position::Gap(self.gap_start(i) + self.gap)
        } else {
            Position::Window(i)
        }
    }
}

/// The writes one client was acked for, in order.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `(id, index into the client's insert graphs)`.
    pub inserted: Vec<(u32, usize)>,
    pub removed: Vec<u32>,
    /// The graphs `inserted` indexes.
    pub graphs: Vec<Graph>,
}

/// Everything the clients of one load phase saw, merged.
#[derive(Debug, Default)]
pub struct Outcome {
    pub windows: Vec<Window>,
    /// `/insert` and `/remove` latencies over all measured windows, ns.
    pub write_ns: Vec<u64>,
    /// Requests sent, warm-up included; each is ok or failed.
    pub attempted: u64,
    pub failed: u64,
    pub ledgers: Vec<Ledger>,
    /// Reference operations per second in each of the `windows + 1`
    /// gaps.
    pub reference_ops_s: Vec<f64>,
}

/// The ids client `client` may remove before it has inserted anything:
/// its slice of the bulk-loaded rows, disjoint from every other
/// client's.
fn owned_ids(w: &Workload, index: &ShardedIndex, client: usize) -> VecDeque<u32> {
    let per_client = (w.rows - w.base) / MAX_CLIENTS / 2;
    let first = w.base + client * per_client;
    (first..first + per_client)
        .filter_map(|seq| index.id_for_seq(seq as u64))
        .map(|id| id.get())
        .collect()
}

fn hits_len(j: &Json) -> usize {
    j.get("hits")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

/// What every client of one load phase shares.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub addr: SocketAddr,
    pub workload: &'a Workload,
    pub seed: u64,
    pub pool: &'a [Graph],
    pub plan: Plan,
}

struct ClientRun {
    windows: Vec<Window>,
    write_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    ledger: Ledger,
}

fn run_client(job: Job, client: usize, mut owned: VecDeque<u32>, t_start: Instant) -> ClientRun {
    let Job {
        addr,
        workload: w,
        seed,
        pool,
        plan,
    } = job;
    let mut run = ClientRun {
        windows: vec![Window::default(); plan.windows],
        write_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        ledger: Ledger::default(),
    };
    if w.kind == Kind::MidRw {
        run.ledger.graphs = insert_graphs(seed, client);
    }
    let req = search_request(w);
    let mut stream = Stream::new(w, seed, client);
    let mut conn = connect(addr);
    loop {
        match plan.position(t_start.elapsed()) {
            Position::Done => break,
            // The machine belongs to the reference loop now.
            Position::Gap(ends) => {
                std::thread::sleep(ends.saturating_sub(t_start.elapsed()));
                continue;
            }
            Position::Warmup | Position::Window(_) => {}
        }
        let mut op = stream.next_op();
        // A client that owns nothing searches instead; the pre-assigned
        // slice is sized so that this does not happen at full scale.
        let remove_id = owned.front().copied();
        if op == Op::Remove && remove_id.is_none() {
            op = Op::Search(0);
        }
        let (path, body) = match op {
            Op::Search(q) => ("/search", search_body(&pool[q], &req)),
            Op::Insert(i) => ("/insert", insert_body(&run.ledger.graphs[i])),
            Op::Remove => ("/remove", remove_body(remove_id.expect("checked above"))),
        };
        run.attempted += 1;
        let sent = Instant::now();
        let reply = match conn.as_mut() {
            Ok(c) => c.post(path, &body),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        let done = Instant::now();
        let ok = match (&reply, op) {
            (Ok((200, j)), Op::Search(_)) => hits_len(j) == K,
            (Ok((200, j)), Op::Insert(i)) => match j.get("id").and_then(Json::as_u64) {
                Some(id) => {
                    run.ledger.inserted.push((id as u32, i));
                    owned.push_back(id as u32);
                    true
                }
                None => false,
            },
            (Ok((200, j)), Op::Remove) => {
                // Acked either way: the id is dead now.
                let id = owned.pop_front().expect("checked above");
                run.ledger.removed.push(id);
                j.get("removed").and_then(Json::as_bool) == Some(true)
            }
            _ => false,
        };
        if !ok {
            run.failed += 1;
            if reply.is_err() {
                conn = connect(addr);
            }
            continue;
        }
        // A reply that arrives outside a window belongs to none.
        let Position::Window(at) = plan.position(done - t_start) else {
            continue;
        };
        let window = &mut run.windows[at];
        window.ok += 1;
        let ns = (done - sent).as_nanos() as u64;
        match op {
            Op::Search(_) => window.search_ns.push(ns),
            Op::Insert(_) | Op::Remove => run.write_ns.push(ns),
        }
    }
    run
}

/// Drives `clients` closed-loop clients for `plan`, runs the reference
/// loop in the gaps, and merges what the clients saw. `index` is the
/// served snapshot before any write.
pub fn run(
    job: Job,
    clients: usize,
    index: &ShardedIndex,
    reference: &Reference,
) -> std::io::Result<Outcome> {
    let (w, plan) = (job.workload, job.plan);
    let t_start = Instant::now();
    let mut reference_ops_s = Vec::with_capacity(plan.windows + 1);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| -> std::io::Result<_> {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let owned = if w.kind == Kind::MidRw {
                    owned_ids(w, index, client)
                } else {
                    VecDeque::new()
                };
                scope.spawn(move || run_client(job, client, owned, t_start))
            })
            .collect();
        for gap in 0..=plan.windows {
            // A request in flight when the gap opens gets a moment to
            // finish before the reference loop takes the machine.
            let start = plan.gap_start(gap) + plan.gap / 10;
            std::thread::sleep(start.saturating_sub(t_start.elapsed()));
            reference_ops_s.push(reference.rate(clients, plan.gap * 8 / 10)?);
        }
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect())
    })?;
    let mut out = Outcome {
        windows: vec![Window::default(); plan.windows],
        reference_ops_s,
        ..Outcome::default()
    };
    for run in runs {
        for (merged, w) in out.windows.iter_mut().zip(run.windows) {
            merged.search_ns.extend(w.search_ns);
            merged.ok += w.ok;
        }
        out.write_ns.extend(run.write_ns);
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.ledgers.push(run.ledger);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timeline_alternates_gaps_and_windows() {
        let ms = Duration::from_millis;
        let plan = Plan {
            warmup: ms(100),
            gap: ms(20),
            window: ms(50),
            windows: 2,
        };
        assert_eq!(plan.position(ms(0)), Position::Warmup);
        assert_eq!(plan.position(ms(99)), Position::Warmup);
        assert_eq!(plan.position(ms(100)), Position::Gap(ms(120)));
        assert_eq!(plan.position(ms(120)), Position::Window(0));
        assert_eq!(plan.position(ms(169)), Position::Window(0));
        assert_eq!(plan.position(ms(170)), Position::Gap(ms(190)));
        assert_eq!(plan.position(ms(190)), Position::Window(1));
        assert_eq!(plan.position(ms(240)), Position::Done);
        assert_eq!(plan.gap_start(2), ms(240));
    }
}
