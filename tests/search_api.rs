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
        SearchRequest::new(6).mapping(MappingKind::Weighted),
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
            assert_eq!(
                idx_t.search(q, &req).unwrap().hits,
                resp.hits,
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
