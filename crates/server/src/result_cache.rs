//! The per-worker `/search` result cache: a body this worker thread
//! answered before, under the same snapshot, is answered from a small
//! table of its earlier answers, before the body is decoded — no
//! decode, map, scan or merge.
//!
//! An answer is a function of the snapshot and the request alone, and
//! the body bytes fix the request; so the key is the body bytes, the
//! entry's stamp is the process-unique id of the snapshot the request's
//! [`Reader`](gdim_shard::Reader) returned
//! ([`Reader::current_with_id`](gdim_shard::Reader::current_with_id)),
//! and a hit returns the hits and every work counter the search
//! returned. Any publish — an insert, a remove, a rebuild —
//! stamps a new id, so an older entry misses and is replaced when its
//! body is stored again, or ages out; two servers in one process never
//! share an id. Only a hit's timings are its own: `match_time` is 0,
//! `wall_time` is the lookup, and `stages` holds that lookup as its one
//! [`Stage::Cache`] entry.
//!
//! A miss is stored only when the same key missed a short while before
//! (it is still among the last misses, [`RESULT_CACHE_SEEN`] slots), so
//! traffic that does not repeat — a cycle over more bodies than the
//! table holds, a snapshot that changes every few requests — pays a
//! hash and a probe and stores nothing, and on skewed traffic bodies
//! seen once do not evict hot ones. The table holds 352 answers, only
//! `/search` uses it, and an entry whose body and hits pass
//! [`RESULT_CACHE_MAX_ENTRY`] bytes is not stored: a long body or a
//! `k = usize::MAX` answer runs uncached. Keys are hashed with the fast
//! non-keyed hash of the map cache: bodies crafted to collide only
//! evict each other, since a probe compares at most
//! [`RESULT_CACHE_WAYS`] keys.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gdim_core::cache::{Miss, SetAssoc};
use gdim_core::{Hit, SearchResponse, SearchStats};
use gdim_obs::{Counter, Stage, StageTimes};

/// Sets of each worker thread's result table. With
/// [`RESULT_CACHE_WAYS`] ways each it holds 352 answers.
pub const RESULT_CACHE_SETS: usize = 44;

/// Ways per set, least recently used evicted first.
pub const RESULT_CACHE_WAYS: usize = 8;

/// Largest stored entry, its body plus 16 B a hit, in bytes. A body
/// that alone passes it is looked up nowhere and counted as a miss.
pub const RESULT_CACHE_MAX_ENTRY: usize = 1024;

/// Slots of the filter a miss passes before it is stored: each holds
/// the key hash and snapshot of the last miss that landed in it, and a
/// miss is stored only when its own are already there.
pub const RESULT_CACHE_SEEN: usize = 512;

/// One worker thread's answers: a [`SetAssoc`] of
/// [`RESULT_CACHE_SETS`] × [`RESULT_CACHE_WAYS`] entries, each a body
/// and its answer — the hits and the stats with every timing zero —
/// stamped with the snapshot's id.
///
/// Requested bytes at capacity: 352 slots of 240 B (84,480 B), the miss
/// filter (8,192 B), and per entry its body and 16 B a hit. Over the
/// end-to-end benchmark's `chem_small_hot` bodies (1,024 chem queries,
/// 230 B on average, top 10 of 600 rows) a full table holds 230,839 B
/// requested (counting allocator, each body stored through one
/// thread). A Zipf(1.0) stream over those bodies hits 80.5 % of the
/// time (78.8 % when every miss is stored: bodies seen once evict hot
/// ones); 8 ways hit ~1 point more than 4 in the same bytes.
struct ResultCache {
    table: SetAssoc<SearchResponse>,
    /// Per slot, the key hash and snapshot of the last miss that landed
    /// in it ([`RESULT_CACHE_SEEN`]).
    seen: Box<[(u64, u64)]>,
}

impl ResultCache {
    fn new() -> ResultCache {
        ResultCache {
            table: SetAssoc::new(RESULT_CACHE_SETS, RESULT_CACHE_WAYS),
            seen: vec![(0, 0); RESULT_CACHE_SEEN].into_boxed_slice(),
        }
    }

    /// Stores `resp` as the answer to `body` under `snapshot`, where
    /// `miss` is the table's miss of it, if the same key missed a short
    /// while before and the entry fits.
    fn put(&mut self, miss: Miss, snapshot: u64, body: &[u8], resp: &SearchResponse) {
        let key = (miss.hash(), snapshot);
        let seen = &mut self.seen[(miss.hash() >> 16) as usize % RESULT_CACHE_SEEN];
        if std::mem::replace(seen, key) != key
            || body.len() + resp.hits.len() * size_of::<Hit>() > RESULT_CACHE_MAX_ENTRY
        {
            return;
        }
        let stats = SearchStats {
            match_time: Duration::ZERO,
            wall_time: Duration::ZERO,
            stages: StageTimes::new(),
            ..resp.stats
        };
        let hits = resp.hits.clone();
        self.table
            .insert(miss, body, snapshot, SearchResponse { hits, stats });
    }
}

thread_local! {
    /// Allocated on the thread's first `/search`.
    static RESULTS: RefCell<Option<ResultCache>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's table.
fn with_table<R>(f: impl FnOnce(&mut ResultCache) -> R) -> R {
    RESULTS.with(|cell| f(cell.borrow_mut().get_or_insert_with(ResultCache::new)))
}

/// `gdim_result_cache_hits_total` and `gdim_result_cache_misses_total`.
fn counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static C: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    C.get_or_init(|| {
        let registry = gdim_obs::global();
        (
            registry.counter(
                "gdim_result_cache_hits_total",
                "/search requests answered from the worker's result cache",
                &[],
            ),
            registry.counter(
                "gdim_result_cache_misses_total",
                "/search requests that ran the search (over-cap bodies included)",
                &[],
            ),
        )
    })
}

/// Answers a `/search` body under snapshot `snapshot`: from this
/// thread's table when it holds the answer, else by running `search`,
/// whose answer is stored if the same key missed a short while before
/// and the entry fits. An error is never stored.
///
/// `snapshot` must be the [`Reader::current_with_id`] id of the
/// snapshot `search` searches, and `search` must decode `body` and
/// nothing else. The server's `/search` route is built on it; a thread
/// that serves several handles can call it for each.
///
/// [`Reader::current_with_id`]: gdim_shard::Reader::current_with_id
pub fn answer<E>(
    snapshot: u64,
    body: &[u8],
    search: impl FnOnce() -> Result<SearchResponse, E>,
) -> Result<SearchResponse, E> {
    let t0 = Instant::now();
    let (hits, misses) = counters();
    let mut miss = None;
    if body.len() <= RESULT_CACHE_MAX_ENTRY {
        match with_table(|t| t.table.get(body, snapshot).cloned()) {
            Ok(mut resp) => {
                hits.inc();
                let lookup = t0.elapsed();
                resp.stats.wall_time = lookup;
                resp.stats.stages.add(Stage::Cache, lookup);
                return Ok(resp);
            }
            Err(m) => miss = Some(m),
        }
    }
    misses.inc();
    let resp = search()?;
    if let Some(miss) = miss {
        with_table(|t| t.put(miss, snapshot, body, &resp));
    }
    Ok(resp)
}
