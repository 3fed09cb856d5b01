//! Equivalence contract of the dynamic index, stated against the type
//! that owns the lifecycle: a one-shard [`ShardedIndex`] (whose composed
//! ids are plain row ids) grown by online `insert` and rebuilt must be
//! **bit-identical** to `GraphIndex::build` over the same final graph
//! set — hits and order, binary and weighted mappings, every thread
//! budget — and `remove` + rebuild must match building without the
//! removed graphs. Before a rebuild, tombstoned rows must never
//! surface from any ranker. The staleness thresholds of the
//! [`RebuildPolicy`] are pinned on the way.

use proptest::prelude::*;

use gdim::prelude::*;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn opts(threads: usize) -> IndexOptions {
    IndexOptions::default()
        .with_dimensions(16)
        .with_threads(threads)
}

fn one_shard(db: Vec<Graph>, opts: IndexOptions) -> ShardedIndex {
    ShardedIndex::build(db, ShardedOptions::new(1).with_index(opts))
}

/// Hits of one response as raw `(id, distance)` pairs.
fn pairs(resp: SearchResponse) -> Vec<(u32, f64)> {
    resp.hits.iter().map(|h| (h.id.get(), h.distance)).collect()
}

fn hits(idx: &ShardedIndex, q: &Graph, req: &SearchRequest) -> Vec<(u32, f64)> {
    pairs(idx.search(q, req).unwrap())
}

fn flat_hits(idx: &GraphIndex, q: &Graph, req: &SearchRequest) -> Vec<(u32, f64)> {
    pairs(idx.search(q, req).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Grow a base index by `insert` until the rebuild policy trips —
    /// at exactly `max_inserts`, not before — rebuild, and compare
    /// against a fresh batch build over the same final graph set:
    /// answers must agree bit-for-bit for both mappings, the mapped and
    /// refined rankers, and threads 1/2/8.
    #[test]
    fn insert_grown_index_equals_fresh_build(seed in 0u64..500) {
        let base = chem(10, seed);
        let extra = chem(4, seed.wrapping_mul(7) ^ 0xD15C);
        let queries = chem(2, !seed);
        let mut all = base.clone();
        all.extend(extra.iter().cloned());
        for threads in [1usize, 2, 8] {
            let opts = opts(threads).with_rebuild_policy(RebuildPolicy {
                max_inserts: extra.len(),
                max_tombstone_frac: 0.25,
            });
            let mut grown = one_shard(base.clone(), opts.clone());
            for (j, g) in extra.iter().enumerate() {
                prop_assert!(grown.stale_shards().is_empty(), "{} inserts", j);
                let id = grown.insert(g.clone());
                prop_assert_eq!(id.index(), base.len() + j);
            }
            prop_assert_eq!(grown.stale_shards(), vec![ShardId(0)], "policy must trip at max_inserts");
            grown.rebuild();
            prop_assert_eq!(grown.epoch(), 1);
            prop_assert!(grown.stale_shards().is_empty());
            let shard = grown.shard(ShardId(0)).unwrap();
            prop_assert_eq!(shard.pending_inserts(), 0);

            let fresh = GraphIndex::build(all.clone(), opts);
            // The same selection: the dimensions' DFS codes, column by column.
            prop_assert!(shard.mapped().codes().eq(fresh.mapped().codes()));
            prop_assert_eq!(shard.weights(), fresh.weights());
            for q in all.iter().take(3).chain(&queries) {
                for mapping in [MappingKind::Binary, MappingKind::Weighted] {
                    let req = SearchRequest::new(6).mapping(mapping);
                    prop_assert_eq!(
                        hits(&grown, q, &req),
                        flat_hits(&fresh, q, &req),
                        "threads {}, mapping {:?}", threads, mapping
                    );
                }
                let req = SearchRequest::new(4)
                    .ranker(Ranker::Refined { candidates: 8 });
                prop_assert_eq!(hits(&grown, q, &req), flat_hits(&fresh, q, &req));
            }
        }
    }

    /// `remove` + rebuild equals building without the removed graphs
    /// (later ids shift down, so compare answers, which carry the
    /// compacted ids of both sides). The shard is stale exactly when
    /// the dead fraction is strictly above the policy's 0.25.
    #[test]
    fn remove_then_rebuild_equals_build_without_removed(seed in 0u64..500, kill in 1usize..5) {
        let db = chem(12, seed ^ 0xBEE5);
        let dead: Vec<usize> = (0..db.len()).filter(|i| (i * 31 + seed as usize) % 12 < kill).collect();
        let survivors: Vec<Graph> = db
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, g)| g.clone())
            .collect();
        let mut pruned = one_shard(db.clone(), opts(2));
        for &i in &dead {
            prop_assert!(pruned.remove(GraphId(i as u32)).unwrap());
        }
        prop_assert_eq!(!pruned.stale_shards().is_empty(), dead.len() * 4 > db.len());
        pruned.rebuild();
        let fresh = GraphIndex::build(survivors.clone(), opts(2));
        prop_assert_eq!(pruned.len(), fresh.len());
        prop_assert_eq!(pruned.live_len(), fresh.len());
        prop_assert_eq!(pruned.epoch(), 1);
        let shard = pruned.shard(ShardId(0)).unwrap();
        prop_assert!(shard.mapped().codes().eq(fresh.mapped().codes()));
        for q in db.iter().take(4) {
            for ranker in [Ranker::Mapped, Ranker::Exact] {
                let req = SearchRequest::new(5).ranker(ranker);
                prop_assert_eq!(
                    hits(&pruned, q, &req),
                    flat_hits(&fresh, q, &req),
                    "ranker {:?}", ranker
                );
            }
        }
    }

    /// Between a remove and the rebuild, tombstoned rows never appear
    /// in hits — any ranker, any mapping — and the scan counters keep
    /// accounting for every row.
    #[test]
    fn tombstoned_rows_never_surface_before_the_rebuild(seed in 0u64..500) {
        let db = chem(15, seed.wrapping_add(99));
        let mut idx = one_shard(db.clone(), opts(2));
        let dead: Vec<u32> = (0..15u32).filter(|i| (i * 7 + seed as u32).is_multiple_of(5)).collect();
        for &i in &dead {
            prop_assert!(idx.remove(GraphId(i)).unwrap());
        }
        prop_assert!(!dead.is_empty());
        let live = 15 - dead.len();
        for q in db.iter().take(4) {
            for (ranker, mapping) in [
                (Ranker::Mapped, MappingKind::Binary),
                (Ranker::Mapped, MappingKind::Weighted),
                (Ranker::Refined { candidates: 15 }, MappingKind::Binary),
                (Ranker::Exact, MappingKind::Binary),
            ] {
                let req = SearchRequest::new(15).ranker(ranker).mapping(mapping);
                let resp = idx.search(q, &req).unwrap();
                for h in &resp.hits {
                    prop_assert!(!dead.contains(&h.id.get()), "{:?}: dead {} in hits", ranker, h.id);
                }
                prop_assert_eq!(resp.hits.len(), live, "{:?}", ranker);
                prop_assert_eq!(resp.stats.live_graphs, live);
                if matches!(ranker, Ranker::Mapped) {
                    prop_assert_eq!(resp.stats.tombstones_skipped, dead.len());
                    prop_assert_eq!(
                        resp.stats.candidates_scanned
                            + resp.stats.early_abandoned
                            + resp.stats.tombstones_skipped,
                        15
                    );
                }
            }
        }
    }

    /// Before any rebuild, an inserted graph is served from exactly
    /// its query mapping: its stored vector equals `map_query`, a
    /// self-query ranks it first at distance 0, and a save/load round
    /// trip of the dirty shard answers identically.
    #[test]
    fn pre_rebuild_inserts_serve_consistently(seed in 0u64..500) {
        let base = chem(10, seed ^ 0xF00D);
        let extra = chem(3, seed.wrapping_mul(13) + 5);
        let mut idx = one_shard(base, opts(1));
        for g in &extra {
            let id = idx.insert(g.clone());
            let shard = idx.shard(ShardId(0)).unwrap();
            prop_assert_eq!(shard.mapped().vector(id.index()), shard.map_query(g));
            // The inserted graph scores distance 0 against itself (an
            // older graph with an identical vector may win the id
            // tie-break, but the 0-distance band must include it).
            let resp = idx.search(g, &SearchRequest::new(idx.len())).unwrap();
            prop_assert_eq!(resp.hits[0].distance, 0.0);
            let own = resp.hits.iter().find(|h| h.id == id).expect("inserted id present");
            prop_assert_eq!(own.distance, 0.0);
        }
        prop_assert_eq!(idx.epoch(), 0, "no rebuild ran");
        idx.remove(GraphId(11)).unwrap(); // one inserted row dies too
        let back = GraphIndex::from_bytes(&idx.shard(ShardId(0)).unwrap().to_bytes()).unwrap();
        for q in extra.iter() {
            for ranker in [Ranker::Mapped, Ranker::Exact] {
                let req = SearchRequest::new(6).ranker(ranker);
                prop_assert_eq!(
                    hits(&idx, q, &req),
                    flat_hits(&back, q, &req),
                    "ranker {:?}", ranker
                );
            }
        }
    }
}
