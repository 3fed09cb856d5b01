//! Serving-layer contract tests for the typed search API: the
//! filter-then-verify ranker's equivalence to the exact reference, the
//! persistence round trip, deterministic tie-breaking, and the
//! well-formedness of every edge-case request.

use proptest::prelude::*;

use gdim::prelude::*;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn index(n: usize, seed: u64, p: usize) -> GraphIndex {
    GraphIndex::build(chem(n, seed), IndexOptions::default().with_dimensions(p))
}

/// Every stats field but the timings: the work an answer did.
fn work(stats: &gdim::core::search::SearchStats) -> String {
    format!(
        "{:?}",
        gdim::core::search::SearchStats {
            match_time: std::time::Duration::ZERO,
            wall_time: std::time::Duration::ZERO,
            stages: Default::default(),
            ..*stats
        }
    )
}

fn hit_pairs(resp: &SearchResponse) -> Vec<(u32, f64)> {
    resp.hits.iter().map(|h| (h.id.get(), h.distance)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `Refined { candidates: n }` re-ranks the *entire* database with
    /// the exact dissimilarity, so it must equal the `Exact` ranker
    /// hit-for-hit — on any seeded chem database, for seen and unseen
    /// queries alike.
    #[test]
    fn refined_over_all_candidates_equals_exact(seed in 0u64..1000, k in 1usize..8) {
        let n = 12;
        let idx = index(n, seed, 15);
        let exact_req = SearchRequest::new(k).ranker(Ranker::Exact);
        let refined_req = SearchRequest::new(k).ranker(Ranker::Refined { candidates: n });
        let unseen = chem(2, seed ^ 0xdead);
        let queries: Vec<&Graph> = idx.graphs().take(2).chain(&unseen).collect();
        for q in queries {
            let exact = idx.search(q, &exact_req).unwrap();
            let refined = idx.search(q, &refined_req).unwrap();
            prop_assert_eq!(hit_pairs(&refined), hit_pairs(&exact));
            prop_assert_eq!(refined.stats.mcs_calls, n);
        }
    }
}

#[test]
fn save_load_roundtrip_yields_byte_identical_hits() {
    let idx = index(25, 42, 20);
    let path = std::env::temp_dir().join(format!("gdim-search-api-{}.idx", std::process::id()));
    idx.save(&path).expect("save");
    let loaded = GraphIndex::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let queries = chem(4, 7);
    // Approx rides with ef covering the whole store, so its beam is
    // exhaustive and the saved/loaded answers must also agree — and
    // both sides build the same deterministic proximity graph, so the
    // final byte-stability check covers the persisted ANN section.
    let reqs = [
        SearchRequest::new(6),
        SearchRequest::new(6).ranker(Ranker::Refined { candidates: 10 }),
        SearchRequest::new(6).ranker(Ranker::Exact),
        SearchRequest::new(6).ranker(Ranker::Approx {
            ef: 25,
            verify: None,
        }),
    ];
    for q in &queries {
        for req in &reqs {
            let a = idx.search(q, req).unwrap();
            let b = loaded.search(q, req).unwrap();
            // Byte-identical: compare the exact f64 bit patterns.
            let bits = |r: &SearchResponse| -> Vec<(u32, u64)> {
                r.hits
                    .iter()
                    .map(|h| (h.id.get(), h.distance.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&a), bits(&b), "{:?}", req.ranker);
        }
    }
    // And the serialized form itself is stable across the round trip.
    assert_eq!(idx.to_bytes(), loaded.to_bytes());
}

#[test]
fn edge_case_requests_are_well_formed() {
    let idx = index(10, 5, 12);
    let q = chem(1, 99).remove(0);
    let rankers = [
        Ranker::Mapped,
        Ranker::Exact,
        Ranker::Refined { candidates: 0 },
        Ranker::Refined { candidates: 500 },
        Ranker::Approx {
            ef: 0,
            verify: None,
        },
        Ranker::Approx {
            ef: 64,
            verify: Some(500),
        },
    ];
    // k = 0: empty hits, no work charged to MCS beyond the candidates.
    for r in rankers {
        let resp = idx.search(&q, &SearchRequest::new(0).ranker(r)).unwrap();
        assert!(resp.hits.is_empty(), "{r:?}");
    }
    // k > n: clamped to the database size, still sorted.
    for r in rankers {
        let resp = idx
            .search(&q, &SearchRequest::new(1_000_000).ranker(r))
            .unwrap();
        assert!(resp.hits.len() <= idx.len(), "{r:?}");
        for w in resp.hits.windows(2) {
            assert!(
                w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].id < w[1].id),
                "{r:?}: not sorted by (distance, id)"
            );
        }
    }
    // Empty database: every request answers with zero hits.
    let empty = GraphIndex::build(Vec::new(), IndexOptions::default());
    for r in rankers {
        let resp = empty.search(&q, &SearchRequest::new(5).ranker(r)).unwrap();
        assert!(resp.hits.is_empty(), "{r:?}");
    }
    let batch = empty
        .search_batch(std::slice::from_ref(&q), &SearchRequest::new(3))
        .unwrap();
    assert_eq!(batch.len(), 1);
    assert!(batch[0].hits.is_empty());
}

#[test]
fn tie_breaking_is_stable_by_id_and_batch_agrees() {
    // Duplicate every graph: each pair maps to identical vectors, so
    // every distance ties and the order must fall back to ascending id.
    let mut db = chem(12, 31);
    let dup = db.clone();
    db.extend(dup);
    let idx = GraphIndex::build(db, IndexOptions::default().with_dimensions(15));
    let queries = chem(3, 77);
    let req = SearchRequest::new(24);
    for q in &queries {
        let hits = idx.search(q, &req).unwrap().hits;
        for w in hits.windows(2) {
            assert!(
                w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].id < w[1].id),
                "tie not broken by ascending id"
            );
        }
        // Graph i and its duplicate i+12 tie exactly; i must rank first.
        let pos = |id: u32| hits.iter().position(|h| h.id.get() == id).unwrap();
        for i in 0..12u32 {
            assert!(pos(i) < pos(i + 12), "duplicate {i} ranked before original");
        }
    }
    // Batch and single-query paths agree for every thread budget.
    for threads in [1usize, 2, 8] {
        let idx_t = GraphIndex::build(
            idx.graphs().cloned().collect(),
            IndexOptions::default()
                .with_dimensions(15)
                .with_threads(threads),
        );
        let batch = idx_t.search_batch(&queries, &req).unwrap();
        for (q, resp) in queries.iter().zip(&batch) {
            let single = idx_t.search(q, &req).unwrap();
            assert_eq!(single.hits, resp.hits, "threads = {threads}");
            assert_eq!(
                work(&single.stats),
                work(&resp.stats),
                "threads = {threads}"
            );
        }
    }
}

#[test]
fn load_rejects_non_index_files() {
    let path = std::env::temp_dir().join(format!("gdim-not-an-index-{}", std::process::id()));
    std::fs::write(&path, b"t # 0\nv 0 1\n").unwrap();
    let err = GraphIndex::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, GdimError::Corrupt(_)), "{err}");
    let missing = GraphIndex::load("/nonexistent/gdim.idx").unwrap_err();
    assert!(matches!(missing, GdimError::Io(_)), "{missing}");
}

/// A v4 snapshot written by an earlier build of the encoder, with
/// tombstones, a pending insert and an ANN section (pinned byte for
/// byte by `gdim-core`'s persist tests).
const SNAPSHOT: &[u8] = include_bytes!("../crates/core/tests/fixtures/v4-small.idx");

/// Where the fixture's ANN section keeps each neighbor list: per
/// `(node, layer)` in file order, the byte offset of its `u32` count,
/// the owner node and the layer's cap (`2·m` on layer 0, `m` above,
/// with `m` read from the section). The section is the last thing in
/// the file, so its start is the file length minus its own.
fn snapshot_ann_lists() -> Vec<(usize, u32, usize)> {
    let idx = GraphIndex::from_bytes(SNAPSHOT).expect("the fixture loads");
    let ann = idx.ann_if_built().expect("the fixture carries a graph");
    let levels = ann.levels();
    let lists: Vec<(u32, usize, usize)> = (0..levels.len() as u32)
        .flat_map(|node| (0..=levels[node as usize] as usize).map(move |layer| (node, layer)))
        .map(|(node, layer)| (node, layer, ann.neighbors(node, layer).len()))
        .collect();
    let bytes: usize = lists.iter().map(|&(_, _, len)| 4 + 4 * len).sum();
    // flag u8 · m, ef_construction, seed u64 · entry u32 · built_n
    // u64 · one level byte per node, then the lists.
    let first = SNAPSHOT.len() - bytes;
    let flag = first - (1 + 3 * 8 + 4 + 8 + levels.len());
    assert_eq!(SNAPSHOT[flag], 1, "the ANN flag precedes the graph");
    let m = u64::from_le_bytes(SNAPSHOT[flag + 1..flag + 9].try_into().unwrap()) as usize;
    let mut at = first;
    let mut out = Vec::new();
    for (node, layer, len) in lists {
        out.push((at, node, if layer == 0 { 2 * m } else { m }));
        at += 4 + 4 * len;
    }
    assert_eq!(at, SNAPSHOT.len());
    out
}

fn list_len(at: usize) -> usize {
    u32::from_le_bytes(SNAPSHOT[at..at + 4].try_into().unwrap()) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Hostile snapshots — arbitrary bytes, arbitrary bytes behind a
    /// valid magic and version, the fixture with one byte flipped, or
    /// with one 4-byte-aligned 4- or 8-byte window rewritten to a
    /// boundary or random value — load an index that answers a mapped
    /// and an approximate search, or fail with a typed error; never
    /// panic.
    #[test]
    fn hostile_snapshots_load_or_fail_typed(
        kind in 0u8..4,
        junk in prop::collection::vec(any::<u8>(), 0..128),
        at in any::<prop::sample::Index>(),
        wide in any::<bool>(),
        pick in 0usize..7,
        word in any::<u64>(),
    ) {
        let bytes = match kind {
            0 => junk,
            1 => [&SNAPSHOT[..12], &junk].concat(),
            2 => {
                let mut b = SNAPSHOT.to_vec();
                b[at.index(SNAPSHOT.len())] ^= (word >> 8) as u8 | 1;
                b
            }
            _ => {
                let width = if wide { 8 } else { 4 };
                let off = 4 * at.index((SNAPSHOT.len() - width) / 4 + 1);
                let mut old = [0u8; 8];
                old[..width].copy_from_slice(&SNAPSHOT[off..off + width]);
                let old = u64::from_le_bytes(old);
                let len = SNAPSHOT.len() as u64;
                let new = [0, 1, u64::MAX, len, old.wrapping_add(1), old.wrapping_sub(1), word][pick];
                let mut b = SNAPSHOT.to_vec();
                b[off..off + width].copy_from_slice(&new.to_le_bytes()[..width]);
                b
            }
        };
        match GraphIndex::from_bytes(&bytes) {
            Ok(idx) => {
                let q = chem(1, 5).remove(0);
                let approx = Ranker::Approx { ef: 16, verify: None };
                for ranker in [Ranker::Mapped, approx] {
                    let req = SearchRequest::new(3).ranker(ranker);
                    prop_assert!(idx.search(&q, &req).is_ok(), "kind {}: {:?}", kind, ranker);
                }
            }
            Err(e) => prop_assert!(
                matches!(e, GdimError::Corrupt(_) | GdimError::UnsupportedVersion { .. }),
                "kind {}: unexpected error {:?}", kind, e
            ),
        }
    }
}

/// Every ANN neighbor list of the fixture, in turn made to hold its
/// owner or grown one past its layer's cap (every id in range, none the
/// owner), fails to load with `Corrupt`.
#[test]
fn hostile_ann_lists_are_corrupt() {
    let lists = snapshot_ann_lists();
    let nodes = lists.last().expect("a graph of ten nodes").1 + 1;
    let mut self_links = 0;
    for &(at, node, cap) in &lists {
        let len = list_len(at);
        if len > 0 {
            // The list's first neighbor becomes its owner.
            let mut b = SNAPSHOT.to_vec();
            b[at + 4..at + 8].copy_from_slice(&node.to_le_bytes());
            let err = GraphIndex::from_bytes(&b).err();
            assert!(
                matches!(err, Some(GdimError::Corrupt(_))),
                "self-link at {at}: {err:?}"
            );
            self_links += 1;
        }
        let other = (node + 1) % nodes;
        let mut b = SNAPSHOT.to_vec();
        b[at..at + 4].copy_from_slice(&(cap as u32 + 1).to_le_bytes());
        let extra = (len..=cap).flat_map(|_| other.to_le_bytes());
        b.splice(at + 4..at + 4, extra);
        let err = GraphIndex::from_bytes(&b).err();
        assert!(
            matches!(err, Some(GdimError::Corrupt(_))),
            "overlong list at {at}: {err:?}"
        );
    }
    assert!(self_links > 0, "the fixture has non-empty lists");
}
