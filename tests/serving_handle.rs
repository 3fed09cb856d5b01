//! Concurrency contract of the serving runtime (gdim-shard): reader
//! threads keep answering searches from published snapshots while a
//! background rebuild runs and while a writer mutates — the search
//! path never blocks on either (readers only ever touch an atomic
//! version check plus, on a version change, one pointer-clone lock).
//! Publishes are atomic: every search answers against exactly one
//! snapshot.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gdim::prelude::*;
use proptest::prelude::*;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn build(db: Vec<Graph>, shards: usize) -> ShardedIndex {
    ShardedIndex::build(
        db,
        ShardedOptions::new(shards).with_index(IndexOptions::default().with_dimensions(24)),
    )
}

/// Readers search continuously while a full rebuild (re-mine →
/// re-select → re-split) runs under the writer lock on its own thread
/// — the shape of the server's background `/rebuild`; the rebuild
/// publishes once, atomically, and every answer — before and after —
/// is well-formed and self-consistent. The searches overlap the
/// rebuild by construction: each reader loops until it has finished.
#[test]
fn readers_search_through_a_background_rebuild_without_blocking() {
    let db = chem(48, 7);
    let handle = ServingHandle::new(build(db.clone(), 4));
    let v0 = handle.version();
    let searches_during_rebuild = AtomicUsize::new(0);
    let rebuild_running = AtomicBool::new(true);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let reader = handle.reader();
            let db = &db;
            let (counter, running) = (&searches_during_rebuild, &rebuild_running);
            scope.spawn(move || {
                let mut i = 0usize;
                // At least one search always runs; then keep serving
                // until the rebuild ends.
                loop {
                    let q = &db[(i * 7) % db.len()];
                    let resp = reader.search(q, &SearchRequest::new(3)).unwrap();
                    assert_eq!(resp.hits[0].distance, 0.0, "self-query ranks first");
                    assert!(resp.hits.len() <= 3);
                    counter.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    if !running.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        // The rebuild runs on its own thread under the writer lock;
        // the readers keep counting searches the whole time.
        let (handle, running) = (&handle, &rebuild_running);
        scope.spawn(move || {
            handle.write(ShardedIndex::rebuild);
            running.store(false, Ordering::Relaxed);
        });
    });

    assert!(
        searches_during_rebuild.load(Ordering::Relaxed) >= 3,
        "every reader must have served at least once during the rebuild"
    );
    assert_eq!(handle.version(), v0 + 1, "one rebuild, one publish");
    let rebuilt = handle.snapshot();
    assert_eq!(rebuilt.epoch(), 1);
    // The rebuilt index equals a fresh sharded build over the same
    // graphs (full rebuilds re-run the identical global pipeline).
    let fresh = build(db.clone(), 4);
    for q in db.iter().take(3) {
        let req = SearchRequest::new(5);
        let a: Vec<(u64, f64)> = rebuilt
            .search(q, &req)
            .unwrap()
            .hits
            .iter()
            .map(|h| (rebuilt.seq_of(h.id).unwrap(), h.distance))
            .collect();
        let b: Vec<(u64, f64)> = fresh
            .search(q, &req)
            .unwrap()
            .hits
            .iter()
            .map(|h| (fresh.seq_of(h.id).unwrap(), h.distance))
            .collect();
        assert_eq!(a, b);
    }
}

/// A writer streams inserts (each a copy-on-write of one shard + a
/// publish) while readers search; every search answers against one
/// coherent snapshot, and the final snapshot holds every insert.
#[test]
fn concurrent_inserts_and_reads_stay_coherent() {
    let base = chem(20, 11);
    let extra = chem(10, 1234);
    let handle = ServingHandle::new(build(base.clone(), 2));
    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let reader = handle.reader();
            let base = &base;
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = reader.current();
                    let n_before = snapshot.live_len();
                    let resp = snapshot
                        .search(&base[i % base.len()], &SearchRequest::new(4))
                        .unwrap();
                    // One coherent snapshot: the answer reports
                    // exactly the rows that snapshot holds.
                    assert_eq!(resp.stats.live_graphs, n_before);
                    assert_eq!(resp.hits[0].distance, 0.0);
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        for g in &extra {
            // Force the interleaving: a search completes between any
            // two inserts (ten inserts take less time than a reader
            // thread needs to start).
            let seen = served.load(Ordering::Relaxed);
            while served.load(Ordering::Relaxed) == seen {
                std::thread::yield_now();
            }
            let gid = handle.insert(g.clone());
            // The published snapshot already contains the insert.
            assert_eq!(handle.snapshot().graph(gid).unwrap(), g);
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(served.load(Ordering::Relaxed) > 0);
    let finale = handle.snapshot();
    assert_eq!(finale.live_len(), base.len() + extra.len());
    // Readers that refreshed at the end see every inserted graph rank
    // itself first.
    let reader = handle.reader();
    for g in &extra {
        let resp = reader.search(g, &SearchRequest::new(1)).unwrap();
        assert_eq!(resp.hits[0].distance, 0.0);
    }
}

/// Reader snapshot caching: the steady state reuses the cached `Arc`
/// (no publish → same snapshot pointer); a publish moves every reader
/// to the new snapshot on its next search.
#[test]
fn readers_cache_snapshots_until_a_publish() {
    let handle = ServingHandle::new(build(chem(12, 13), 2));
    let reader = handle.reader();
    let a = reader.current();
    let b = reader.current();
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "steady state reuses the cache"
    );
    let before = handle.version();
    handle.insert(chem(1, 99).remove(0));
    assert_eq!(handle.version(), before + 1);
    let c = reader.current();
    assert!(
        !std::sync::Arc::ptr_eq(&a, &c),
        "publish refreshes the reader"
    );
    assert_eq!(c.live_len(), a.live_len() + 1);
}

/// No-op and failed mutations publish nothing: readers are never
/// forced to refetch an identical snapshot, and `version()` counts
/// only effective publishes.
#[test]
fn noop_and_failed_mutations_do_not_publish() {
    let handle = ServingHandle::new(build(chem(8, 21), 2));
    let gid = handle.snapshot().id_for_seq(0).unwrap();
    assert!(handle.remove(gid).unwrap());
    let v = handle.version();
    assert!(!handle.remove(gid).unwrap(), "already tombstoned");
    assert!(handle.remove(GraphId(u32::MAX)).is_err());
    assert_eq!(handle.version(), v, "no-ops and failures must not publish");
    // An effective mutation still publishes exactly once.
    handle.insert(chem(1, 5).remove(0));
    assert_eq!(handle.version(), v + 1);
}

// ------------------------------------------------ snapshot isolation

/// One served mutation of the isolation stream.
#[derive(Clone)]
enum Op {
    Ins(Graph),
    Rem(GraphId),
}

/// An owned index that applied `ops` to its own copy of `base` — never
/// published, never shared with the handle's chain of snapshots.
fn replayed(base: &ShardedIndex, ops: &[Op]) -> ShardedIndex {
    let mut owned = base.clone();
    for op in ops {
        match op {
            Op::Ins(g) => {
                owned.insert(g.clone());
            }
            Op::Rem(id) => assert!(owned.remove(*id).unwrap()),
        }
    }
    owned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A publish shares the shard with the snapshot before it, so the
    /// bug classes are a stale or aliased tail and an off-by-one at the
    /// seal. Stream ~500 inserts and removes through a handle on a
    /// 2-shard index (≥ 3 sealed chunks per shard), keep snapshots from
    /// random points and from both sides of every seal, and only then —
    /// with hundreds of later publishes on top — require each one to be
    /// exactly the owned index that applied the same prefix: answers,
    /// sizes, every graph, and every shard's snapshot bytes.
    #[test]
    fn retained_snapshots_equal_the_owned_index_of_their_prefix(seed in 0u64..1000) {
        use gdim::core::chunked::CHUNK;
        let base = build(chem(16, seed), 2);
        let pool = chem(2 * 3 * CHUNK + 40, !seed);
        let handle = ServingHandle::new(base.clone());
        let mut ops: Vec<Op> = Vec::new();
        let mut live: Vec<GraphId> = Vec::new();
        let mut retained: Vec<(usize, std::sync::Arc<ShardedIndex>)> = Vec::new();
        let mut next = 0usize;
        let mut step = seed;
        while next < pool.len() {
            step = step.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = step >> 33;
            if pick % 4 == 0 && !live.is_empty() {
                let id = live.swap_remove((pick / 4) as usize % live.len());
                prop_assert!(handle.remove(id).unwrap());
                ops.push(Op::Rem(id));
            } else {
                let g = pool[next].clone();
                next += 1;
                let id = handle.insert(g.clone());
                live.push(id);
                ops.push(Op::Ins(g));
                // Both sides of a seal in the shard that just grew.
                let snap = handle.snapshot();
                let rows = snap.shard(snap.split_id(id).0).unwrap().len();
                if matches!(rows % CHUNK, 0 | 1) || rows % CHUNK == CHUNK - 1 {
                    retained.push((ops.len(), snap));
                    continue;
                }
            }
            if pick % 61 == 0 {
                retained.push((ops.len(), handle.snapshot()));
            }
        }
        let last = handle.snapshot();
        for s in 0..2 {
            prop_assert!(last.shard(ShardId(s)).unwrap().len() >= 3 * CHUNK, "shard {}", s);
        }
        prop_assert!(retained.len() >= 18, "three snapshots per seal: {}", retained.len());
        retained.push((ops.len(), last));

        // The refined ranker reads candidate graphs by id (MCS is the
        // slow part of this test, hence one query and three candidates).
        let queries: Vec<&Graph> = pool.iter().step_by(97).collect();
        let scan = SearchRequest::new(5);
        let refined = SearchRequest::new(3).ranker(Ranker::Refined { candidates: 3 });
        for (prefix, snap) in &retained {
            let owned = replayed(&base, &ops[..*prefix]);
            prop_assert_eq!(snap.len(), owned.len(), "prefix {}", prefix);
            prop_assert_eq!(snap.live_len(), owned.live_len(), "prefix {}", prefix);
            for s in 0..2u32 {
                let (a, b) = (snap.shard(ShardId(s)).unwrap(), owned.shard(ShardId(s)).unwrap());
                prop_assert!(a.to_bytes() == b.to_bytes(), "prefix {} shard {}", prefix, s);
                for local in 0..=a.len() {
                    let id = snap.compose_id(ShardId(s), local);
                    prop_assert_eq!(snap.graph(id).ok(), owned.graph(id).ok(), "prefix {} id {}", prefix, id);
                    prop_assert_eq!(snap.seq_of(id).ok(), owned.seq_of(id).ok());
                }
            }
            let pairs = queries.iter().map(|q| (q, &scan));
            for (q, req) in pairs.chain([(&queries[0], &refined)]) {
                let (a, b) = (snap.search(q, req).unwrap(), owned.search(q, req).unwrap());
                prop_assert_eq!(a.hits, b.hits, "prefix {} {:?}", prefix, req);
            }
        }
    }
}
