//! Equivalence contract of the sharded index (gdim-shard): a
//! [`ShardedIndex`] must answer **bit-identically** to a single
//! [`GraphIndex`] over the same database — hits, order, distances —
//! for every ranker, mapping, shard count ∈ {1, 2, 8}, and thread
//! budget ∈ {1, 2, 8}, including after online insert/remove, after
//! per-shard (compaction) rebuilds, and after a full re-mine rebuild.
//! Sharded hits are translated through each row's sequence number,
//! which by construction equals the row id of the unsharded index
//! grown by the same operations. Also pins the manifest save → load →
//! save byte-identical round trip, and the same equivalence on a
//! 2-shard index grown by `insert` to a few hundred rows per shard.

use proptest::prelude::*;

use gdim::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const THREADS: [usize; 3] = [1, 2, 8];

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn opts() -> IndexOptions {
    IndexOptions::default().with_dimensions(16)
}

/// Requests covering the ranker × mapping spectrum. The approximate
/// ranker is included with `ef` far above the database sizes used
/// here: the beams are exhaustive at that width, so even the one
/// deliberately inexact ranker must answer bit-identically to the
/// unsharded index in these tests.
fn requests() -> Vec<SearchRequest> {
    vec![
        SearchRequest::new(6),
        SearchRequest::new(6).mapping(MappingKind::Weighted),
        SearchRequest::new(4).ranker(Ranker::Refined { candidates: 7 }),
        SearchRequest::new(4).ranker(Ranker::Exact),
        SearchRequest::new(6).ranker(Ranker::Approx {
            ef: 64,
            verify: None,
        }),
        SearchRequest::new(4)
            .ranker(Ranker::Approx {
                ef: 64,
                verify: Some(7),
            })
            .mapping(MappingKind::Weighted),
    ]
}

/// A sharded response's hits as `(seq, distance)` — the sharded row's
/// sequence number is exactly the id the unsharded index gives the
/// same row.
fn by_seq(idx: &ShardedIndex, resp: &SearchResponse) -> Vec<(u64, f64)> {
    resp.hits
        .iter()
        .map(|h| (idx.seq_of(h.id).unwrap(), h.distance))
        .collect()
}

/// An unsharded response's hits as `(id, distance)`, the same
/// coordinates.
fn by_id(resp: &SearchResponse) -> Vec<(u64, f64)> {
    resp.hits
        .iter()
        .map(|h| (h.id.get() as u64, h.distance))
        .collect()
}

fn sharded_hits(idx: &ShardedIndex, q: &Graph, req: &SearchRequest) -> Vec<(u64, f64)> {
    by_seq(idx, &idx.search(q, req).unwrap())
}

fn flat_hits(idx: &GraphIndex, q: &Graph, req: &SearchRequest) -> Vec<(u64, f64)> {
    by_id(&idx.search(q, req).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fresh build: every shard count and thread budget answers every
    /// request bit-identically to the unsharded index.
    #[test]
    fn fresh_build_matches_unsharded_for_all_shard_and_thread_counts(seed in 0u64..500) {
        let db = chem(14, seed);
        let queries = chem(2, !seed);
        let mut flat = GraphIndex::build(db.clone(), opts());
        for shards in SHARD_COUNTS {
            let mut sharded = ShardedIndex::build(
                db.clone(),
                ShardedOptions::new(shards).with_index(opts()),
            );
            prop_assert_eq!(sharded.shard_count(), shards);
            prop_assert_eq!(sharded.len(), flat.len());
            for threads in THREADS {
                sharded.set_exec(ExecConfig::new(threads));
                flat.set_exec(ExecConfig::new(threads));
                for q in queries.iter().chain(db.iter().take(2)) {
                    for req in requests() {
                        prop_assert_eq!(
                            sharded_hits(&sharded, q, &req),
                            flat_hits(&flat, q, &req),
                            "shards {}, threads {}, {:?}", shards, threads, req
                        );
                    }
                }
                // Batch answers equal single answers, query for query.
                let req = SearchRequest::new(5);
                let batch = sharded.search_batch(&queries, &req).unwrap();
                for (q, resp) in queries.iter().zip(&batch) {
                    let single = sharded.search(q, &req).unwrap();
                    prop_assert_eq!(&single.hits, &resp.hits);
                }
            }
        }
    }

    /// Online churn: the same inserts and removes applied to both
    /// sides stay bit-identical — before any rebuild, after per-shard
    /// compaction rebuilds (which must not change answers at all), and
    /// after a full re-mine rebuild, whose unsharded reference is a
    /// fresh build over the live graphs.
    #[test]
    fn churned_index_matches_unsharded_through_rebuilds(seed in 0u64..500) {
        let base = chem(12, seed);
        let extra = chem(5, seed.wrapping_mul(31) ^ 0xBEEF);
        let queries = chem(2, !seed);
        let policy = RebuildPolicy { max_inserts: 3, max_tombstone_frac: 0.2 };
        let build_opts = opts().with_rebuild_policy(policy);
        for shards in SHARD_COUNTS {
            let mut flat = GraphIndex::build(base.clone(), build_opts.clone());
            let mut sharded = ShardedIndex::build(
                base.clone(),
                ShardedOptions::new(shards).with_index(build_opts.clone()),
            );
            // Inserts: routed to the least-loaded shard, but the row's
            // sequence number always equals the unsharded id.
            for g in &extra {
                let flat_id = flat.insert(g.clone());
                let gid = sharded.insert(g.clone());
                prop_assert_eq!(sharded.seq_of(gid).unwrap(), flat_id.get() as u64);
            }
            // Removes: one base row, one inserted row.
            let dead = [2u64, base.len() as u64 + 1];
            for &seq in &dead {
                let gid = sharded.id_for_seq(seq).unwrap();
                prop_assert!(sharded.remove(gid).unwrap());
                prop_assert!(flat.remove(GraphId(seq as u32)).unwrap());
            }
            prop_assert_eq!(sharded.live_len(), flat.live_len());
            for q in &queries {
                for req in requests() {
                    prop_assert_eq!(
                        sharded_hits(&sharded, q, &req),
                        flat_hits(&flat, q, &req),
                        "pre-rebuild, shards {}, {:?}", shards, req
                    );
                }
            }
            // Per-shard compaction: only dirty shards rebuild, against
            // the retained global selection — answers must not move
            // (the unsharded side does nothing).
            prop_assert!(!sharded.stale_shards().is_empty(), "policy must trip");
            let rebuilt = sharded.rebuild_stale_shards();
            prop_assert!(rebuilt > 0);
            prop_assert!(sharded.stale_shards().is_empty());
            prop_assert!(sharded.epoch() >= 1, "compaction advances the shard epoch");
            for q in &queries {
                for req in requests() {
                    prop_assert_eq!(
                        sharded_hits(&sharded, q, &req),
                        flat_hits(&flat, q, &req),
                        "post-compaction, shards {}, {:?}", shards, req
                    );
                }
            }
            // Full rebuild: re-mine over the live graphs (same sequence
            // order), bit-identical to building them afresh.
            sharded.rebuild();
            let live = flat
                .graphs()
                .enumerate()
                .filter(|&(i, _)| !flat.tombstones().is_dead(i))
                .map(|(_, g)| g.clone())
                .collect();
            let flat = GraphIndex::build(live, build_opts.clone());
            prop_assert_eq!(sharded.len(), flat.len());
            prop_assert_eq!(sharded.live_len(), sharded.len());
            for q in queries.iter().chain(extra.iter().take(1)) {
                for req in requests() {
                    prop_assert_eq!(
                        sharded_hits(&sharded, q, &req),
                        flat_hits(&flat, q, &req),
                        "post-full-rebuild, shards {}, {:?}", shards, req
                    );
                }
            }
        }
    }

    /// Persistence: save_dir → load_dir → save_dir reproduces every
    /// file byte-identically, and the reloaded index answers exactly
    /// like the saved one — including for a dirty (inserted + removed)
    /// index.
    #[test]
    fn manifest_roundtrip_is_byte_identical(seed in 0u64..500) {
        let base = chem(10, seed);
        let mut sharded = ShardedIndex::build(
            base.clone(),
            ShardedOptions::new(3).with_index(opts()),
        );
        for g in chem(2, seed ^ 0xF00D) {
            sharded.insert(g);
        }
        let gid = sharded.id_for_seq(4).unwrap();
        prop_assert!(sharded.remove(gid).unwrap());

        let root = std::env::temp_dir().join(format!(
            "gdim_shard_roundtrip_{}_{seed}",
            std::process::id()
        ));
        let dir_a = root.join("a");
        let dir_b = root.join("b");
        sharded.save_dir(&dir_a).unwrap();
        let mut reloaded = ShardedIndex::load_dir(&dir_a).unwrap();
        reloaded.save_dir(&dir_b).unwrap();
        // Byte-identical: the manifest and every shard file.
        let mut names: Vec<String> = std::fs::read_dir(&dir_a)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        prop_assert_eq!(names.len(), 1 + sharded.shard_count());
        for name in &names {
            let a = std::fs::read(dir_a.join(name)).unwrap();
            let b = std::fs::read(dir_b.join(name)).unwrap();
            prop_assert_eq!(a, b, "file {} drifted across the round trip", name);
        }
        // Identical answers (the exec budget is serving-machine state).
        reloaded.set_exec(*sharded.exec());
        prop_assert_eq!(reloaded.shard_count(), sharded.shard_count());
        prop_assert_eq!(reloaded.live_len(), sharded.live_len());
        for q in base.iter().take(2) {
            for req in requests() {
                prop_assert_eq!(
                    sharded_hits(&reloaded, q, &req),
                    sharded_hits(&sharded, q, &req),
                    "{:?}", req
                );
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn composed_ids_route_and_bad_ids_are_typed_errors() {
    let db = chem(10, 77);
    let mut idx = ShardedIndex::build(db, ShardedOptions::new(4).with_index(opts()));
    assert_eq!(idx.shard_bits(), 2);
    // Every row's composed id resolves to its own graph and seq.
    for seq in 0..10u64 {
        let gid = idx.id_for_seq(seq).unwrap();
        assert_eq!(idx.seq_of(gid).unwrap(), seq);
        let (s, local) = idx.split_id(gid);
        assert_eq!(idx.compose_id(s, local), gid);
    }
    // Unknown ids and shards are errors, not panics.
    assert!(matches!(
        idx.graph(GraphId(u32::MAX)),
        Err(GdimError::GraphOutOfRange { .. })
    ));
    assert!(matches!(
        idx.remove(GraphId(u32::MAX)),
        Err(GdimError::GraphOutOfRange { .. })
    ));
    assert!(matches!(
        idx.shard(ShardId(9)),
        Err(GdimError::ShardOutOfRange { id: 9, shards: 4 })
    ));
    assert!(matches!(
        idx.rebuild_shard(ShardId(9)),
        Err(GdimError::ShardOutOfRange { .. })
    ));
}

#[test]
fn shard_rebuild_snapshot_goes_stale_on_later_mutation() {
    let db = chem(10, 99);
    let mut idx = ShardedIndex::build(db, ShardedOptions::new(2).with_index(opts()));
    let gid = idx.id_for_seq(0).unwrap();
    idx.remove(gid).unwrap();
    let (owner, _) = idx.split_id(gid);

    // A mutation in the same shard after the snapshot: refused.
    let task = idx.spawn_shard_rebuild(owner).unwrap();
    idx.remove(idx.id_for_seq(1).unwrap()).unwrap(); // seq 1 lives in shard 0 too
    match idx.install_shard(task) {
        Err(GdimError::StaleRebuild { .. }) => {}
        other => panic!("expected StaleRebuild, got {other:?}"),
    }

    // A quiet shard installs: tombstones compact away, answers stay.
    let q = idx
        .shard_graphs(ShardId(1))
        .unwrap()
        .next()
        .unwrap()
        .clone();
    let before = sharded_hits(&idx, &q, &SearchRequest::new(5));
    let task = idx.spawn_shard_rebuild(owner).unwrap();
    assert!(idx.install_shard(task).unwrap());
    assert_eq!(idx.shard(owner).unwrap().tombstone_count(), 0);
    assert_eq!(sharded_hits(&idx, &q, &SearchRequest::new(5)), before);

    // Full-rebuild snapshots are invalidated by any later event too,
    // and a refused install changes nothing.
    let epoch = idx.epoch();
    let task = idx.spawn_rebuild();
    idx.insert(chem(1, 5)[0].clone());
    match idx.install(task) {
        Err(GdimError::StaleRebuild { missed: 1 }) => {}
        other => panic!("expected StaleRebuild, got {other:?}"),
    }
    assert_eq!(idx.epoch(), epoch, "nothing installed");
    // A quiet index installs the snapshot: the next epoch answers, with
    // every pending insert folded in.
    let task = idx.spawn_rebuild();
    assert!(idx.install(task).unwrap());
    assert_eq!(idx.epoch(), epoch + 1);
    assert!(idx.stale_shards().is_empty());
    let resp = idx.search(&q, &SearchRequest::new(3)).unwrap();
    assert_eq!(resp.hits[0].distance, 0.0);
    assert_eq!(resp.stats.epoch, epoch + 1);

    // Cancellation before the build starts yields Ok(false). The race
    // is legal: the build may already have passed its last poll. Either
    // way the index stays consistent.
    let task = idx.spawn_rebuild();
    task.cancel();
    let installed = idx.install(task).unwrap();
    assert_eq!(idx.epoch(), epoch + 1 + installed as u64);
}

#[test]
fn set_exec_survives_a_background_install() {
    // The exec budget is a knob of the serving machine, not snapshot
    // state: changing it while a rebuild runs must not be reverted by
    // installing it (nor does it count as a mutation, so the install
    // is not refused).
    let mut idx = ShardedIndex::build(chem(8, 39), ShardedOptions::new(1).with_index(opts()));
    let task = idx.spawn_rebuild();
    idx.set_exec(ExecConfig::new(5));
    assert!(idx.install(task).unwrap());
    assert_eq!(idx.epoch(), 1);
    assert_eq!(idx.exec().threads, 5);
    assert_eq!(idx.shard(ShardId(0)).unwrap().exec().threads, 5);
}

#[test]
fn empty_database_shards_and_serves() {
    let idx = ShardedIndex::build(Vec::new(), ShardedOptions::new(4).with_index(opts()));
    assert!(idx.is_empty());
    assert_eq!(idx.shard_count(), 4);
    let q = chem(1, 1).remove(0);
    for req in requests() {
        let resp = idx.search(&q, &req).unwrap();
        assert!(resp.hits.is_empty(), "{req:?}");
    }
}

/// The scan-backed rankers (no exhaustive-beam assumption, no O(n)
/// MCS fan-out), for the tests that pin stats or run at real sizes.
fn scan_requests() -> Vec<SearchRequest> {
    vec![
        SearchRequest::new(5),
        SearchRequest::new(7).mapping(MappingKind::Weighted),
        SearchRequest::new(3).ranker(Ranker::Refined { candidates: 10 }),
    ]
}

#[test]
fn small_shards_match_unsharded_answers() {
    // 40 rows over 4 shards: the per-shard legs must merge to exactly
    // the unsharded answer with every row accounted for.
    let db = chem(40, 11);
    let opts = IndexOptions::default().with_dimensions(24);
    let flat = GraphIndex::build(db.clone(), opts.clone());
    let sharded = ShardedIndex::build(db.clone(), ShardedOptions::new(4).with_index(opts));
    for req in scan_requests() {
        for q in db.iter().step_by(9) {
            assert_eq!(
                sharded_hits(&sharded, q, &req),
                flat_hits(&flat, q, &req),
                "legs diverged for {req:?}"
            );
            let stats = sharded.search(q, &req).unwrap().stats;
            assert_eq!(stats.kernel, Some(selected_kernel()));
            assert_eq!(
                stats.candidates_scanned + stats.early_abandoned + stats.tombstones_skipped,
                sharded.len(),
                "stats identity for {req:?}"
            );
        }
    }
}

#[test]
fn small_shards_respect_tombstones() {
    let db = chem(30, 11);
    let opts = IndexOptions::default().with_dimensions(20);
    let mut sharded =
        ShardedIndex::build(db.clone(), ShardedOptions::new(3).with_index(opts.clone()));
    let mut flat = GraphIndex::build(db.clone(), opts);
    // Remove the same rows on both sides (seq == unsharded id).
    for seq in [0u64, 7, 13] {
        let id = sharded.id_for_seq(seq).unwrap();
        sharded.remove(id).unwrap();
        flat.remove(GraphId(seq as u32)).unwrap();
    }
    let req = SearchRequest::new(6);
    assert_eq!(
        sharded_hits(&sharded, &db[7], &req),
        flat_hits(&flat, &db[7], &req)
    );
    let stats = sharded.search(&db[7], &req).unwrap().stats;
    assert_eq!(stats.tombstones_skipped, 3);
    assert_eq!(
        stats.candidates_scanned + stats.early_abandoned + stats.tombstones_skipped,
        sharded.len()
    );
}

#[test]
fn single_shard_is_the_unsharded_index() {
    // One shard has nothing to scatter or merge across: same hits,
    // same work counters as the bare index.
    let db = chem(20, 11);
    let opts = IndexOptions::default().with_dimensions(16);
    let flat = GraphIndex::build(db.clone(), opts.clone());
    let one = ShardedIndex::build(db.clone(), ShardedOptions::new(1).with_index(opts));
    for req in scan_requests() {
        let (a, b) = (
            one.search(&db[3], &req).unwrap(),
            flat.search(&db[3], &req).unwrap(),
        );
        assert_eq!(a.hits, b.hits, "{req:?}");
        assert_eq!(a.stats.candidates_scanned, b.stats.candidates_scanned);
        assert_eq!(a.stats.early_abandoned, b.stats.early_abandoned);
        assert_eq!(a.stats.words_scanned, b.stats.words_scanned);
    }
}

#[test]
fn growing_by_insert_keeps_answers_bit_identical() {
    // A 2-shard index grown by `insert` past 512 rows — hundreds of
    // rows per shard, the shape served requests take: hits equal an
    // unsharded index fed the same inserts, for `search` and
    // `search_batch`.
    let base = chem(40, 5);
    let extra = chem(512, 6);
    let queries = chem(3, 7);
    let mut flat = GraphIndex::build(base.clone(), opts());
    let mut sharded = ShardedIndex::build(base, ShardedOptions::new(2).with_index(opts()));
    let mut feed = extra.into_iter();
    for target in [256, 524] {
        while sharded.len() < target {
            let g = feed.next().expect("enough graphs to reach the target");
            flat.insert(g.clone());
            sharded.insert(g);
        }
        assert_eq!(sharded.len(), flat.len());
        for threads in [1usize, 2] {
            sharded.set_exec(ExecConfig::new(threads));
            flat.set_exec(ExecConfig::new(threads));
            for req in scan_requests() {
                for q in &queries {
                    assert_eq!(
                        sharded_hits(&sharded, q, &req),
                        flat_hits(&flat, q, &req),
                        "rows {target}, threads {threads}, {req:?}"
                    );
                }
                let batch = sharded.search_batch(&queries, &req).unwrap();
                let want = flat.search_batch(&queries, &req).unwrap();
                for (got, want) in batch.iter().zip(&want) {
                    assert_eq!(
                        by_seq(&sharded, got),
                        by_id(want),
                        "batch, rows {target}, threads {threads}, {req:?}"
                    );
                }
            }
        }
    }
}
