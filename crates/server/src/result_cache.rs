//! The per-worker `/search` result cache: a body this worker thread
//! answered before, under the same snapshot, is answered from a small
//! table of its earlier answers, before the body is decoded — no
//! decode, map, scan or merge.
//!
//! An answer is a function of the snapshot and the request alone, and
//! the body bytes fix the request; so the key is the process-unique id
//! of the snapshot the request's [`Reader`](gdim_shard::Reader) returned
//! ([`Reader::current_with_id`](gdim_shard::Reader::current_with_id))
//! plus the body bytes, and a hit returns the hits and every work
//! counter the search returned. Any publish — an insert, a remove, a
//! rebuild, an install — stamps a new id, so older entries can no
//! longer be reached and age out; two servers in one process never
//! share one. Only a hit's timings are its own: `match_time` is 0,
//! `wall_time` is the lookup, and `stages` holds that lookup as its one
//! [`Stage::Cache`] entry.
//!
//! A miss is stored only when the same key missed a short while before
//! (its hash is still among the last misses, [`RESULT_CACHE_SEEN`]
//! slots), so traffic that does not repeat — a cycle over more bodies
//! than the table holds, a snapshot that changes every few requests —
//! pays a hash and a probe and stores nothing, and on skewed traffic
//! bodies seen once do not evict hot ones. Only 200 answers are
//! stored, only `/search` uses the table, and an entry (key plus
//! answer) over [`RESULT_CACHE_MAX_ENTRY`] bytes is not stored: a long
//! body or a `k = usize::MAX` answer runs uncached. The key is hashed
//! with the fast non-keyed hash of the map cache: bodies crafted to
//! collide only evict each other, since a probe compares at most
//! [`RESULT_CACHE_WAYS`] entries.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gdim_core::cache::{key_hash, put_varint, take_varint, SetAssoc};
use gdim_core::scan::KernelKind;
use gdim_core::{GraphId, Hit, SearchResponse, SearchStats};
use gdim_obs::{Counter, Stage, StageTimes};

/// Sets of each worker thread's result table. With
/// [`RESULT_CACHE_WAYS`] ways each it holds 352 answers.
pub const RESULT_CACHE_SETS: usize = 44;

/// Ways per set, least recently used evicted first.
pub const RESULT_CACHE_WAYS: usize = 8;

/// Largest stored entry, key plus answer, in bytes. A body whose key
/// alone passes it is looked up nowhere and counted as a miss.
pub const RESULT_CACHE_MAX_ENTRY: usize = 1024;

/// Slots of the filter a miss passes before it is stored: each holds
/// the hash of the last miss that landed in it, and a miss is stored
/// only when its hash is already there.
pub const RESULT_CACHE_SEEN: usize = 512;

/// One worker thread's answers: a [`SetAssoc`] of
/// [`RESULT_CACHE_SETS`] × [`RESULT_CACHE_WAYS`] heap blocks, each the
/// entry's key then its answer.
///
/// A key is its own length (2 bytes, little-endian), the snapshot id
/// as a varint, then the body bytes, so equal keys mean the same
/// snapshot and the same body, and the answer is exact. An answer is
/// the work counters as varints, the kernel and the approximate flag as
/// a byte each, then per hit its id and whether it ties the previous
/// hit's distance, then the distance's 8 bytes unless it does.
///
/// Requested bytes at capacity: 352 slots of 16 B (5,632 B), the miss
/// filter (4,096 B), the key buffer (1,184 B) and one block per entry.
/// Over the end-to-end benchmark's `chem_small_hot` bodies (1,024 chem
/// queries, 229 B on average, top 10 of 600 rows) a block averages
/// 325 B, its answer ~93 B of it, and a full table holds 125,233 B
/// requested (counting allocator, each body stored through one
/// thread), under 128 KiB. A Zipf(1.0) stream over those bodies hits
/// 80.5 % of the time (78.8 % when every miss is stored: bodies seen
/// once evict hot ones). Keys packed two digits to a byte would fit
/// 480 entries, but packing costs ~0.3 µs a request, more than the
/// extra hits save; 8 ways hit ~1 point more than 4 in the same bytes.
struct ResultCache {
    table: SetAssoc<Box<[u8]>>,
    /// Per slot, the hash of the last miss that landed in it
    /// ([`RESULT_CACHE_SEEN`]).
    seen: Box<[u64]>,
    /// The current request's key, then the answer being stored.
    buf: Vec<u8>,
}

impl ResultCache {
    fn new() -> ResultCache {
        ResultCache {
            table: SetAssoc::new(RESULT_CACHE_SETS, RESULT_CACHE_WAYS),
            seen: vec![0; RESULT_CACHE_SEEN].into_boxed_slice(),
            buf: Vec::with_capacity(RESULT_CACHE_MAX_ENTRY + 160),
        }
    }

    /// The stored answer to `body` under `snapshot`, timings zero.
    fn get(&mut self, snapshot: u64, body: &[u8]) -> Option<(Vec<Hit>, SearchStats)> {
        let hash = self.key(snapshot, body)?;
        let key = &self.buf[..];
        let block = self
            .table
            .get(hash, |b| b.len() > key.len() && b[..key.len()] == *key)?;
        Some(read_answer(&block[key.len()..]))
    }

    /// Stores `resp` as the answer to `body` under `snapshot`, if the
    /// key missed a short while before and the entry fits.
    fn put(&mut self, snapshot: u64, body: &[u8], resp: &SearchResponse) {
        let Some(hash) = self.key(snapshot, body) else {
            return;
        };
        let seen = &mut self.seen[(hash >> 16) as usize % RESULT_CACHE_SEEN];
        if std::mem::replace(seen, hash) != hash {
            return;
        }
        if write_answer(resp, &mut self.buf) {
            self.table.insert(hash, Box::from(&self.buf[..]));
        }
    }

    /// Writes the key of `body` under `snapshot` into `buf` and returns
    /// its hash; `None` if the key would pass
    /// [`RESULT_CACHE_MAX_ENTRY`].
    fn key(&mut self, snapshot: u64, body: &[u8]) -> Option<u64> {
        let buf = &mut self.buf;
        buf.clear();
        // The length, a snapshot id of up to ten bytes, the body.
        if 2 + 10 + body.len() > RESULT_CACHE_MAX_ENTRY {
            return None;
        }
        buf.extend_from_slice(&[0, 0]);
        put_varint(buf, snapshot);
        buf.extend_from_slice(body);
        let len = buf.len() as u16;
        buf[..2].copy_from_slice(&len.to_le_bytes());
        Some(key_hash(buf))
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
    if let Some((hit_list, mut stats)) = with_table(|t| t.get(snapshot, body)) {
        hits.inc();
        let lookup = t0.elapsed();
        stats.wall_time = lookup;
        stats.stages.add(Stage::Cache, lookup);
        return Ok(SearchResponse {
            hits: hit_list,
            stats,
        });
    }
    misses.inc();
    let resp = search()?;
    with_table(|t| t.put(snapshot, body, &resp));
    Ok(resp)
}

/// The byte a kernel is stored as (0 is none).
fn kernel_byte(kernel: Option<KernelKind>) -> u8 {
    match kernel {
        None => 0,
        Some(KernelKind::Scalar) => 1,
        Some(KernelKind::Unrolled) => 2,
        Some(KernelKind::Avx2) => 3,
        Some(KernelKind::Avx512) => 4,
    }
}

/// Appends `resp`'s answer (see [`ResultCache`]) to the key in `buf`;
/// `false` once the entry passes [`RESULT_CACHE_MAX_ENTRY`].
fn write_answer(resp: &SearchResponse, buf: &mut Vec<u8>) -> bool {
    let s = &resp.stats;
    for x in [
        s.candidates_scanned,
        s.tombstones_skipped,
        s.words_scanned,
        s.live_graphs,
        s.vf2_calls,
        s.vf2_pruned,
        s.mcs_calls,
        s.ef,
        s.beam_visited,
        resp.hits.len(),
    ] {
        put_varint(buf, x as u64);
    }
    put_varint(buf, s.epoch);
    buf.push(kernel_byte(s.kernel));
    buf.push(u8::from(s.approximate));
    let mut previous = None;
    for h in &resp.hits {
        let bits = h.distance.to_bits();
        let tie = previous == Some(bits);
        put_varint(buf, u64::from(h.id.get()) << 1 | u64::from(tie));
        if !tie {
            buf.extend_from_slice(&bits.to_le_bytes());
        }
        previous = Some(bits);
        if buf.len() > RESULT_CACHE_MAX_ENTRY {
            return false;
        }
    }
    buf.len() <= RESULT_CACHE_MAX_ENTRY
}

/// Reads an answer [`write_answer`] wrote: the hits and the stats, all
/// timings zero.
fn read_answer(mut bytes: &[u8]) -> (Vec<Hit>, SearchStats) {
    fn varint(bytes: &mut &[u8]) -> u64 {
        take_varint(bytes).expect("a stored answer is whole")
    }
    let [candidates_scanned, tombstones_skipped, words_scanned, live_graphs, vf2_calls, vf2_pruned, mcs_calls, ef, beam_visited, count] =
        [(); 10].map(|()| varint(&mut bytes) as usize);
    let epoch = varint(&mut bytes);
    let (flags, mut bytes) = bytes.split_at(2);
    let kernel = [
        None,
        Some(KernelKind::Scalar),
        Some(KernelKind::Unrolled),
        Some(KernelKind::Avx2),
        Some(KernelKind::Avx512),
    ][usize::from(flags[0])];
    let mut distance = 0.0;
    let hits = (0..count)
        .map(|_| {
            let tagged = varint(&mut bytes);
            if tagged & 1 == 0 {
                let (bits, rest) = bytes.split_at(8);
                distance = f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8 bytes")));
                bytes = rest;
            }
            Hit {
                id: GraphId((tagged >> 1) as u32),
                distance,
            }
        })
        .collect();
    let stats = SearchStats {
        candidates_scanned,
        tombstones_skipped,
        words_scanned,
        epoch,
        live_graphs,
        vf2_calls,
        vf2_pruned,
        mcs_calls,
        match_time: Duration::ZERO,
        wall_time: Duration::ZERO,
        kernel,
        approximate: flags[1] != 0,
        ef,
        beam_visited,
        stages: StageTimes::new(),
    };
    (hits, stats)
}
