//! Equivalence contract of the optimized online query path (PR 3):
//! the flat SoA scan kernel must select and order **exactly** the hits
//! of the naive full-sort reference scan, and the code-tree query
//! mapping must set exactly the bits of the brute-force VF2 loop — for
//! the binary distance and the weighted ablation, every edge-case `k`,
//! and every thread budget.

use proptest::prelude::*;

use gdim::core::featurespace::STEPS_PER_SIZE;
use gdim::core::query::weighted_w_sq;
use gdim::prelude::*;

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

/// Small dense graphs over two vertex and two edge labels: triangles
/// are frequent, so the mined codes carry backward edges.
fn synth(n: usize, seed: u64) -> Vec<Graph> {
    let cfg = gdim::datagen::SynthConfig {
        avg_edges: 12.0,
        density: 0.6,
        num_vlabels: 2,
        num_elabels: 2,
    };
    gdim::datagen::synth_db(n, &cfg, seed)
}

/// `a` and `b` side by side in one (disconnected) graph.
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let shift = a.vertex_count() as u32;
    let labels = a.vlabels().iter().chain(b.vlabels()).copied().collect();
    let edges = (a.edges().iter().map(|e| (e.u, e.v, e.label))).chain(
        b.edges()
            .iter()
            .map(|e| (e.u + shift, e.v + shift, e.label)),
    );
    Graph::from_parts(labels, edges).unwrap()
}

/// `g` with every vertex label moved by `dv` and every edge label by `de`.
fn relabelled(g: &Graph, dv: u32, de: u32) -> Graph {
    Graph::from_parts(
        g.vlabels().iter().map(|l| l + dv).collect(),
        g.edges().iter().map(|e| (e.u, e.v, e.label + de)),
    )
    .unwrap()
}

/// The code-tree mapping of every query, in order on this thread (so
/// one scratch serves graphs of wildly different sizes back to back),
/// against the unpruned per-feature VF2 loop. Returns whether any
/// query crossed the step budget.
fn assert_tree_equals_unpruned(mapped: &MappedDatabase, queries: &[Graph]) -> bool {
    let mut crossed = false;
    for (i, q) in queries.iter().enumerate() {
        let (bits, stats) = mapped.map_query_with_stats(q);
        assert_eq!(
            bits,
            mapped.map_query_unpruned(q),
            "query {i} (|V| = {}, |E| = {})",
            q.vertex_count(),
            q.edge_count()
        );
        assert_eq!(stats.vf2_calls + stats.vf2_pruned, mapped.p(), "query {i}");
        let budget = STEPS_PER_SIZE * (q.vertex_count() + q.edge_count());
        assert!(stats.extensions <= budget + 1, "query {i}: {stats:?}");
        crossed |= stats.extensions > budget;
    }
    crossed
}

/// The naive pre-optimization scan: full ranking (sorted over all `n`
/// entries) truncated to `k` — what the mapped top-k did before
/// the bounded kernel. `ranking` / `ranking_with` are kept in-tree as
/// reference implementations precisely for this comparison.
fn naive_topk(mapped: &MappedDatabase, qvec: &Bitset, k: usize) -> Vec<(u32, f64)> {
    let mut full = mapped.ranking(qvec);
    full.truncate(k);
    full
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scan kernel == naive reference, hits and order, for both
    /// mappings and all edge-case `k`.
    #[test]
    fn scan_kernel_equals_naive_ranking(seed in 0u64..500, p in 8usize..40) {
        let n = 30;
        let db = chem(n, seed);
        let feats = mine(&db, &MinerConfig::new(Support::Relative(0.1)).with_max_edges(4));
        let space = FeatureSpace::build(db.len(), feats);
        let m = space.num_features();
        let selected: Vec<u32> = (0..m.min(p) as u32).collect();
        let weights: Vec<f64> = (0..selected.len()).map(|r| ((r * 13 + 7) % 10) as f64 / 10.0).collect();
        let mapped = MappedDatabase::new(&space, &selected).unwrap();
        let w_sq = weighted_w_sq(&weights);
        for qi in [0usize, 7, 19] {
            let qvec = mapped.map_query(&db[qi]);
            for k in [0usize, 1, n, n + 5] {
                let fast = mapped.scan_topk_masked(&qvec, k, None).0;
                let naive = naive_topk(&mapped, &qvec, k);
                prop_assert_eq!(&fast, &naive, "binary, query {}, k {}", qi, k);
                let fast = mapped.scan_topk_with_masked(&qvec, k, &w_sq, None).0;
                let mut naive = mapped.ranking_with(&qvec, &w_sq);
                naive.truncate(k);
                prop_assert_eq!(&fast, &naive, "weighted, query {}, k {}", qi, k);
            }
        }
    }

    /// Code-tree query mapping is bit-identical to the
    /// unpruned per-feature VF2 loop, and the pruning counters add up.
    #[test]
    fn pruned_mapping_is_bit_identical(seed in 0u64..500) {
        let db = chem(18, seed);
        let idx = GraphIndex::build(db, IndexOptions::default().with_dimensions(30));
        let unseen = chem(3, !seed);
        for q in idx.graphs().take(3).chain(&unseen) {
            let (bits, stats) = idx.map_query_with_stats(q);
            prop_assert_eq!(&bits, &idx.mapped().map_query_unpruned(q));
            prop_assert_eq!(stats.vf2_calls + stats.vf2_pruned, idx.p());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One search over the DFS-code prefix tree ≡ one VF2 test per
    /// feature: on chem and on cyclic synthetic graphs, over the full
    /// mined space and over a selection whose prefixes were not
    /// selected, for ordinary queries and for every degenerate shape a
    /// client can send — including a star big enough that the search
    /// gives up and hands over to VF2 — and the same for the row an
    /// online insert of each of them stores.
    #[test]
    fn code_tree_mapping_is_bit_identical(seed in 0u64..500) {
        for (db, unseen, cyclic_data) in [
            (chem(16, seed), chem(3, !seed), false),
            (synth(16, seed), synth(3, !seed), true),
        ] {
            let feats = mine(&db, &MinerConfig::new(Support::Relative(0.2)).with_max_edges(4));
            let space = FeatureSpace::build(db.len(), feats);
            let feats = space.features();
            let all: Vec<u32> = (0..feats.len() as u32).collect();
            // A chain l–c–l–c over one bond label blows up on a star of
            // l leaves around c: its l–c–l prefix has n² embeddings
            // there and none reaches a second c.
            let chain = feats.iter().position(|f| {
                let c = &f.code.0;
                c.len() >= 3
                    && (0..3).all(|i| (c[i].from, c[i].to) == (i as u32, i as u32 + 1))
                    && (c[0].elabel, c[0].elabel) == (c[1].elabel, c[2].elabel)
                    && (c[0].from_label, c[0].to_label) == (c[1].to_label, c[2].to_label)
            });
            let chain = chain.expect("both generators mine such a chain at every seed");
            // Every other feature of two or more edges (and the chain):
            // no one-edge prefix is a column.
            let some: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&r| feats[r as usize].graph.edge_count() >= 2)
                .enumerate()
                .filter(|&(i, r)| i % 2 == 0 || r as usize == chain)
                .map(|(_, r)| r)
                .collect();
            prop_assert!(some.len() >= 3);

            let edge = &feats[chain].code.0[0];
            let (leaf, bond, centre) = (edge.from_label, edge.elabel, edge.to_label);
            let star = |n: u32| {
                let labels = std::iter::once(centre).chain((0..n).map(|_| leaf)).collect();
                Graph::from_parts(labels, (1..=n).map(|i| (0, i, bond))).unwrap()
            };
            let mut queries = vec![
                star(800),
                Graph::from_parts(vec![centre], []).unwrap(),
                db[0].clone(),
                Graph::from_parts(vec![], []).unwrap(),
                star(800),
                Graph::from_parts(vec![centre, leaf, leaf], []).unwrap(),
                star(1),
                disjoint_union(&db[1], &unseen[0]),
                relabelled(&db[2], 1000, 0),
                relabelled(&db[2], 0, 1000),
                disjoint_union(&relabelled(&db[3], 1000, 1000), &db[3]),
            ];
            queries.extend(db.iter().skip(4).take(3).cloned());
            queries.extend(unseen);
            // A graph known to hold a feature with a backward DFS edge
            // (4-edge chem patterns rarely have a ring to close).
            let cyclic = feats.iter().position(|f| f.code.0.iter().any(|e| !e.is_forward()));
            prop_assert!(cyclic.is_some() || !cyclic_data, "dense synth graphs mine a cycle");
            let full = MappedDatabase::new(&space, &all).unwrap();
            let part = MappedDatabase::new(&space, &some).unwrap();
            if let Some(r) = cyclic {
                let holder = &db[feats[r].support[0] as usize];
                prop_assert!(full.map_query(holder).get(r), "the cyclic feature must be found");
                queries.push(holder.clone());
            }
            for mapped in [&full, &part] {
                let crossed = assert_tree_equals_unpruned(mapped, &queries);
                prop_assert!(crossed, "the 800-leaf star must cross the step budget");
            }
            let roots = part
                .codes()
                .iter()
                .map(|c| c.0[0].from_label)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            prop_assert!(
                part.mapper().node_count() > part.p() + roots,
                "the selection must leave internal-only prefixes"
            );

            // An online insert is a query mapping: the row it stores
            // equals the unpruned mapping too — for every shape above,
            // the star that hands over to VF2 included (an index with
            // every mined feature as a dimension holds the chain).
            let mut opts = IndexOptions::default()
                .with_dimensions(usize::MAX)
                .with_min_support(Support::Relative(0.2));
            opts.max_pattern_edges = 4;
            let mut idx = GraphIndex::build(db, opts);
            prop_assert_eq!(idx.p(), feats.len());
            prop_assert!(assert_tree_equals_unpruned(idx.mapped(), &queries[..1]));
            for q in &queries {
                let id = idx.insert(q.clone());
                prop_assert_eq!(
                    idx.mapped().vector(id.index()),
                    idx.mapped().map_query_unpruned(q),
                    "|V| = {}, |E| = {}", q.vertex_count(), q.edge_count()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The serving layer on top of the kernel: `Mapped` and `Refined`
    /// search hits are byte-identical to the naive reference scan for
    /// every thread budget, and batch answers equal single answers. The
    /// library's weighted scan over the same index equals its naive
    /// reference too.
    #[test]
    fn search_rankers_equal_naive_scan_for_any_thread_budget(seed in 0u64..500) {
        let n = 20;
        let db = chem(n, seed ^ 0xbeef);
        let queries = chem(3, seed.wrapping_mul(31) + 1);
        for threads in [1usize, 2, 8] {
            let idx = GraphIndex::build(
                db.clone(),
                IndexOptions::default().with_dimensions(24).with_threads(threads),
            );
            for q in idx.graphs().take(2).chain(&queries) {
                let qvec = idx.map_query(q);
                let resp = idx.search(q, &SearchRequest::new(6)).unwrap();
                let got: Vec<(u32, f64)> =
                    resp.hits.iter().map(|h| (h.id.get(), h.distance)).collect();
                prop_assert_eq!(&got, &naive_topk(idx.mapped(), &qvec, 6), "threads {}", threads);
                // The weighted ablation scans the same binary vectors
                // with the DSPM-derived weights; rebuild that reference
                // through the public reference scan.
                let mut naive = idx.mapped().ranking_with(&qvec, &weighted_reference_w_sq(&idx));
                naive.truncate(6);
                let (got, _) = idx.mapped().scan_topk_with_masked(
                    &qvec,
                    6,
                    idx.weighted_w_sq(),
                    Some(idx.tombstones()),
                );
                prop_assert_eq!(&got, &naive, "threads {}, weighted", threads);
            }
            // Refined candidate generation rides the same kernel: with
            // candidates == n every candidate is verified, so it must
            // equal the Exact ranker hit-for-hit.
            let q = &queries[0];
            let refined = idx
                .search(q, &SearchRequest::new(4).ranker(Ranker::Refined { candidates: n }))
                .unwrap();
            let exact = idx
                .search(q, &SearchRequest::new(4).ranker(Ranker::Exact))
                .unwrap();
            prop_assert_eq!(refined.hits, exact.hits);

            // Batch answers equal single answers.
            let req = SearchRequest::new(5);
            let batch = idx.search_batch(&queries, &req).unwrap();
            for (q, resp) in queries.iter().zip(&batch) {
                let single = idx.search(q, &req).unwrap();
                prop_assert_eq!(&single.hits, &resp.hits, "threads {}", threads);
            }
        }
    }
}

/// Deterministic word soup (splitmix64) for the store-level
/// proptest.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The naive reference of a store scan: every live row's squared
/// distance, sorted by `(distance, id)`, cut to `k`, and only then
/// divided by `scale` and square-rooted.
fn naive_store_topk(
    live: &[u32],
    sq: impl Fn(u32) -> f64,
    scale: f64,
    k: usize,
) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = live.iter().map(|&i| (i, sq(i))).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter()
        .map(|(i, d)| (i, (d / scale).sqrt()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A store scan selects and orders exactly the hits of a naive sort
    /// of the live rows — for every available kernel, binary (XOR
    /// popcount over `p`) and weighted, masked and unmasked stores,
    /// and the edge cases that stress the chunked scan: row counts
    /// off/at/past 8- and 64-row boundaries and past two 256-row
    /// chunks, strides 1–5, `k` of 0 and larger than the store, dead
    /// rows sprinkled through the chunks' mask words, and an all-dead
    /// store. Masked scans never surface a dead row, and the work
    /// counters keep the scan-stats identity.
    #[test]
    fn store_scans_equal_a_naive_sort_of_live_rows(
        seed in 0u64..500,
        n_pick in 0u64..8,
        bits_pick in 0u64..4,
        k_pick in 0u64..4,
    ) {
        use gdim::core::scan::{available_kernels, KernelKind, ScanPlan, Tombstones, VectorStore};

        let n = [0usize, 1, 7, 8, 9, 64, 130, 600][n_pick as usize];
        let bits = [1usize, 64, 256, 300][bits_pick as usize];
        let k = [0usize, 1, 5, 200][k_pick as usize];
        let mut rng = seed ^ ((n as u64) << 32) ^ ((bits as u64) << 16);
        let stride = bits.div_ceil(64);
        let mut store = VectorStore::zeros(n, bits);
        for row in 0..n {
            for bit in 0..bits {
                if mix(&mut rng).is_multiple_of(3) {
                    store.set(row, bit);
                }
            }
        }
        let queries: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                let mut q: Vec<u64> = (0..stride).map(|_| mix(&mut rng)).collect();
                if !bits.is_multiple_of(64) {
                    if let Some(last) = q.last_mut() {
                        *last &= (1u64 << (bits % 64)) - 1;
                    }
                }
                q
            })
            .collect();
        let w_sq: Vec<f64> = (0..bits).map(|b| ((b * 7 + 3) % 11) as f64 / 11.0).collect();

        // Unmasked, sprinkled-dead (hits chunk interiors and mask-word
        // boundaries), and all-dead tombstone shapes.
        let mut sprinkled = Tombstones::all_live(n);
        for i in 0..n {
            if mix(&mut rng).is_multiple_of(4) {
                sprinkled.mark_dead(i);
            }
        }
        let mut all_dead = Tombstones::all_live(n);
        for i in 0..n {
            all_dead.mark_dead(i);
        }
        let masks: [Option<&Tombstones>; 3] = [None, Some(&sprinkled), Some(&all_dead)];

        for dead in masks {
            let live: Vec<u32> = (0..n as u32)
                .filter(|&i| !dead.is_some_and(|t| t.is_dead(i as usize)))
                .collect();
            for q in &queries {
                let popcount = |i: u32| -> f64 {
                    q.iter()
                        .zip(store.row(i as usize))
                        .map(|(a, b)| (a ^ b).count_ones())
                        .sum::<u32>() as f64
                };
                let weighted = store.weighted_sq_distances(q, &w_sq);
                let binary_want = naive_store_topk(&live, popcount, bits as f64, k);
                let weighted_want = naive_store_topk(&live, |i| weighted[i as usize], 1.0, k);
                for kernel in available_kernels() {
                    let plan = ScanPlan { dead, kernel, ..ScanPlan::new(q, k) };
                    let weighted_plan = ScanPlan { weights: Some(w_sq.as_slice()), ..plan };
                    for (what, plan, want) in [
                        ("binary", plan, &binary_want),
                        ("weighted", weighted_plan, &weighted_want),
                    ] {
                        let (hits, stats) = store.scan(&plan);
                        prop_assert_eq!(&hits, want,
                            "{} kernel {} masked {}", what, kernel, dead.is_some());
                        // The scan-stats identity covers scans that
                        // actually ran; k = 0 and all-dead stores
                        // short-circuit without touching rows.
                        if k > 0 && !live.is_empty() {
                            prop_assert_eq!(
                                stats.vectors_scanned + stats.early_abandoned
                                    + stats.tombstones_skipped,
                                n,
                                "{} stats identity (kernel {})", what, kernel
                            );
                            prop_assert_eq!(stats.tombstones_skipped, n - live.len());
                        }
                        for &(id, _) in &hits {
                            prop_assert!(
                                !dead.is_some_and(|t| t.is_dead(id as usize)),
                                "masked {} scan surfaced dead row {}", what, id
                            );
                        }
                    }
                    // The weighted loop is one loop whatever the kernel:
                    // its work counters equal the scalar reference's.
                    prop_assert_eq!(
                        store.scan(&weighted_plan),
                        store.scan(&ScanPlan { kernel: KernelKind::Scalar, ..weighted_plan }),
                        "weighted kernel {}", kernel
                    );
                }
            }
        }
    }
}

/// The squared per-dimension weights of the weighted ablation scan:
/// the index's DSPM weights over the selected
/// dimensions, squared and normalized (mirrors the index-internal
/// derivation so the reference scan sees identical weights).
fn weighted_reference_w_sq(idx: &GraphIndex) -> Vec<f64> {
    let raw: Vec<f64> = idx.weights().iter().map(|w| w * w).collect();
    let total: f64 = raw.iter().sum();
    if total > 0.0 {
        raw.iter().map(|x| x / total).collect()
    } else {
        vec![1.0 / idx.p().max(1) as f64; idx.p()]
    }
}

#[test]
fn stats_counters_add_up_across_rankers() {
    let db = chem(25, 9);
    let idx = GraphIndex::build(db, IndexOptions::default().with_dimensions(20));
    let q = idx.graph(2).unwrap().clone();
    for (req, expect_scan) in [
        (SearchRequest::new(5), true),
        (
            SearchRequest::new(5).ranker(Ranker::Refined { candidates: 8 }),
            true,
        ),
        (SearchRequest::new(5).ranker(Ranker::Exact), false),
    ] {
        let resp = idx.search(&q, &req).unwrap();
        let s = &resp.stats;
        if expect_scan {
            assert_eq!(s.candidates_scanned, idx.len(), "{req:?}");
            assert_eq!(s.vf2_calls + s.vf2_pruned, idx.p());
            assert!(s.words_scanned > 0);
        } else {
            assert_eq!(s.candidates_scanned, 0);
            assert_eq!(s.words_scanned, 0);
            assert_eq!(s.vf2_calls, 0);
        }
    }
}
