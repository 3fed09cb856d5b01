//! Contract tests for the approximate serving tier (`Ranker::Approx`):
//! the one deliberately inexact ranker must still be *safe* — hits are
//! always live rows carrying genuine kernel distances, stats admit
//! `approximate: true`, tombstoned and edge-case requests stay
//! well-formed — and with `verify` enabled its answers are
//! bit-identical to [`Ranker::Refined`] over the same candidate set.

use proptest::prelude::*;

use gdim::core::bitset::weighted_sq_xor_words;
use gdim::prelude::*;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn index(n: usize, seed: u64, p: usize) -> GraphIndex {
    GraphIndex::build(chem(n, seed), IndexOptions::default().with_dimensions(p))
}

fn approx(k: usize, ef: usize) -> SearchRequest {
    SearchRequest::new(k).ranker(Ranker::Approx { ef, verify: None })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the beam does, its output is trustworthy: every hit is
    /// a live (never tombstoned) row, every distance is exactly the
    /// kernel distance of that row, order is strict by `(distance,
    /// id)`, and stats say `approximate`. The same holds for the
    /// library's beam keyed by the weighted ablation distance.
    #[test]
    fn approx_hits_are_live_rows_with_genuine_distances(
        seed in 0u64..500,
        k in 1usize..8,
        ef in 1usize..48,
    ) {
        let mut idx = index(20, seed, 16);
        // Tombstone a third of the rows, including ones the graph has
        // already folded in.
        for id in [1u32, 7, 13, 16, 19, 4, 10] {
            idx.remove(GraphId(id)).unwrap();
        }
        let queries = chem(2, !seed);
        for q in &queries {
            let qvec = idx.map_query(q);
            let resp = idx.search(q, &approx(k, ef)).unwrap();
            prop_assert!(resp.stats.approximate);
            prop_assert_eq!(resp.stats.ef, ef);
            let served = resp.hits.iter().map(|h| (h.id.get(), h.distance)).collect();
            let (weighted, _) = idx.approx_scan_premapped(&qvec, k, ef, MappingKind::Weighted);
            for (mapping, hits) in [(MappingKind::Binary, served), (MappingKind::Weighted, weighted)] {
                prop_assert!(hits.len() <= k);
                for w in hits.windows(2) {
                    prop_assert!(
                        w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                        "not sorted by (distance, id)"
                    );
                }
                for &(id, distance) in &hits {
                    prop_assert!(
                        !idx.tombstones().is_dead(id as usize),
                        "dead row {} surfaced", id
                    );
                    let want = match mapping {
                        MappingKind::Weighted => weighted_sq_xor_words(
                            qvec.words(),
                            idx.mapped().store().row(id as usize),
                            idx.weighted_w_sq(),
                        )
                        .sqrt(),
                        _ => idx.mapped().distance_to(&qvec, id as usize),
                    };
                    prop_assert_eq!(
                        distance.to_bits(),
                        want.to_bits(),
                        "fabricated {:?} distance for row {}", mapping, id
                    );
                }
            }
        }
    }

    /// With `ef` covering the whole store the beam is exhaustive (the
    /// database is small enough that layer 0 never trims), so
    /// `Approx { verify: Some(c) }` sees the same candidate set as
    /// `Refined { candidates: c }` and must answer bit-identically —
    /// the acceptance contract for the verification tier.
    #[test]
    fn verified_approx_equals_refined_bit_for_bit(
        seed in 0u64..500,
        k in 1usize..6,
        c in 1usize..12,
    ) {
        let n = 18; // ≤ 2m + 1, so the layer-0 graph stays complete
        let idx = index(n, seed, 16);
        let queries = chem(3, seed ^ 0xA11C);
        for q in queries.iter().chain(idx.graphs().take(2)) {
            let approx_req = SearchRequest::new(k)
                .ranker(Ranker::Approx { ef: n, verify: Some(c) });
            let refined_req = SearchRequest::new(k)
                .ranker(Ranker::Refined { candidates: c });
            let a = idx.search(q, &approx_req).unwrap();
            let r = idx.search(q, &refined_req).unwrap();
            let bits = |resp: &SearchResponse| -> Vec<(u32, u64)> {
                resp.hits
                    .iter()
                    .map(|h| (h.id.get(), h.distance.to_bits()))
                    .collect()
            };
            prop_assert_eq!(bits(&a), bits(&r), "verify must equal Refined");
            prop_assert_eq!(a.stats.mcs_calls, r.stats.mcs_calls);
            prop_assert!(a.stats.approximate && !r.stats.approximate);
        }
    }
}

#[test]
fn edge_cases_are_well_formed() {
    let idx = index(10, 5, 12);
    let q = chem(1, 99).remove(0);
    // k = 0 answers empty without touching (or building) the graph.
    assert!(idx.search(&q, &approx(0, 32)).unwrap().hits.is_empty());
    // k > n clamps; ef = 0 still answers (the beam floor is k).
    let resp = idx.search(&q, &approx(1_000_000, 0)).unwrap();
    assert!(resp.hits.len() <= idx.len());
    // Empty database: zero hits, stats still honest.
    let empty = GraphIndex::build(Vec::new(), IndexOptions::default());
    let resp = empty.search(&q, &approx(5, 16)).unwrap();
    assert!(resp.hits.is_empty());
    assert!(resp.stats.approximate);
}

#[test]
fn pending_inserts_are_served_exactly_until_rebuild() {
    // One shard: composed ids are row ids, and the sharded index owns
    // the rebuild that ends the pending tail.
    let mut idx = ShardedIndex::build(
        chem(16, 8),
        ShardedOptions::new(1).with_index(IndexOptions::default().with_dimensions(14)),
    );
    // Force the graph before inserting: the new rows land in the
    // pending tail, outside the built graph.
    let s0 = ShardId(0);
    idx.shard(s0).unwrap().ann();
    let extra = chem(3, 4242);
    let ids: Vec<GraphId> = extra.iter().map(|g| idx.insert(g.clone())).collect();
    let built = idx.shard(s0).unwrap().ann_if_built().unwrap().built_n();
    assert_eq!(built, 16, "inserts must not rebuild the graph");
    // Self-queries must surface the inserted row at distance 0: the
    // tail is scanned exactly, so a pending row can never be missed
    // (an older row with an identical mapped vector may win the id
    // tiebreak, so the pending row is asserted present, not first).
    for (g, id) in extra.iter().zip(&ids) {
        let resp = idx.search(g, &approx(1, 8)).unwrap();
        assert_eq!(resp.hits[0].distance, 0.0);
        assert!(resp.stats.candidates_scanned >= extra.len());
        let wide = idx.search(g, &approx(19, 64)).unwrap();
        assert!(wide.hits.iter().any(|h| h.id == *id));
    }
    // A tombstoned pending row disappears immediately.
    idx.remove(ids[0]).unwrap();
    let resp = idx.search(&extra[0], &approx(16, 64)).unwrap();
    assert!(resp.hits.iter().all(|h| h.id != ids[0]));
    // Rebuild folds the tail in and drops the stale graph.
    idx.rebuild();
    assert!(
        idx.shard(s0).unwrap().ann_if_built().is_none(),
        "rebuild must invalidate"
    );
    let resp = idx.search(&extra[1], &approx(1, 32)).unwrap();
    assert_eq!(resp.hits[0].distance, 0.0);
}
