//! Shared workload of the scan gates: the synthetic vector stores and
//! the naive full-sort baseline used by the `scan_baseline` binary
//! (which records the committed `BENCH_scan.json` snapshot) and by
//! `ann_baseline`.

use gdim_core::scan::{available_kernels, selected_kernel, ScanPlan, ScanStats, VectorStore};
use gdim_core::Bitset;
use gdim_server::Json;

/// The kernel families available on this machine and the one runtime
/// detection selected, printed and returned as a snapshot's `cpu` key,
/// so a committed number is never compared against a run on a
/// different instruction set blindly.
pub fn cpu_kernels() -> Json {
    let names: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
    let selected = selected_kernel().name();
    eprintln!(
        "cpu kernels: available [{}], selected {selected}",
        names.join(", ")
    );
    let names = names.iter().map(|k| Json::Str(k.to_string())).collect();
    Json::obj([
        ("available_kernels", Json::Arr(names)),
        ("selected_kernel", Json::Str(selected.into())),
    ])
}

/// One query through [`VectorStore::scan`] on the selected kernel —
/// the kernel side of every kernel-vs-naive comparison (binary for
/// `weights = None`, weighted otherwise).
pub fn scan_one(
    store: &VectorStore,
    words: &[u64],
    k: usize,
    weights: Option<&[f64]>,
) -> (Vec<(u32, f64)>, ScanStats) {
    store.scan(&ScanPlan {
        weights,
        ..ScanPlan::new(words, k)
    })
}

/// Deterministic splitmix64 — no RNG dependency in the hot setup.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` synthetic `bits`-bit vectors with ~25% density, plus a query.
pub fn synth(n: usize, bits: usize, seed: u64) -> (VectorStore, Bitset) {
    let mut state = seed;
    let mut store = VectorStore::zeros(n, bits);
    for i in 0..n {
        for b in 0..bits {
            if splitmix(&mut state).is_multiple_of(4) {
                store.set(i, b);
            }
        }
    }
    let mut q = Bitset::zeros(bits);
    for b in 0..bits {
        if splitmix(&mut state).is_multiple_of(4) {
            q.set(b);
        }
    }
    (store, q)
}

/// Naive weighted reference: every row's full squared distance
/// ([`VectorStore::weighted_sq_distances`]), full sort, truncate —
/// the weighted counterpart of [`naive_fullsort_topk`].
pub fn naive_weighted_topk(
    store: &VectorStore,
    q: &Bitset,
    w_sq: &[f64],
    k: usize,
) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = store
        .weighted_sq_distances(q.words(), w_sq)
        .into_iter()
        .enumerate()
        .map(|(i, sq)| (i as u32, sq.sqrt()))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// The pre-PR-3 baseline scan: materialize every `(id, distance)`,
/// sort all `n` entries, truncate to `k`.
pub fn naive_fullsort_topk(store: &VectorStore, q: &Bitset, k: usize) -> Vec<(u32, f64)> {
    let p = store.bits().max(1) as f64;
    let mut all: Vec<(u32, f64)> = (0..store.len())
        .map(|i| {
            let h: u32 = q
                .words()
                .iter()
                .zip(store.row(i))
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            (i as u32, (h as f64 / p).sqrt())
        })
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Splits a store into `shards` contiguous sub-stores (the shape a
/// `ShardedIndex` hands the scan leg), plus each sub-store's global
/// row offset — the inputs of a scatter-gather scan measurement.
pub fn split_store(store: &VectorStore, shards: usize) -> Vec<(u64, VectorStore)> {
    let shards = shards.max(1);
    let n = store.len();
    (0..shards)
        .map(|s| {
            let (start, end) = (s * n / shards, (s + 1) * n / shards);
            let rows: Vec<u32> = (start as u32..end as u32).collect();
            (start as u64, store.gather(&rows))
        })
        .collect()
}

/// `n` synthetic `bits`-bit vectors with **neighbor structure**: rows
/// are noisy copies of `clusters` random centers (`flips` bits flipped
/// per row). Uniform random vectors concentrate all pairwise distances
/// and are the adversarial no-structure case for a proximity graph;
/// mapped chem/zipf stores look like this clustered shape instead, so
/// the ANN benchmarks measure on it.
pub fn synth_clustered(
    n: usize,
    bits: usize,
    clusters: usize,
    flips: usize,
    seed: u64,
) -> VectorStore {
    let clusters = clusters.max(1);
    let mut state = seed;
    let centers: Vec<Vec<u64>> = (0..clusters)
        .map(|_| {
            (0..bits.div_ceil(64))
                .map(|_| splitmix(&mut state))
                .collect()
        })
        .collect();
    let mut store = VectorStore::zeros(0, bits);
    let tail_mask = if bits.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (bits % 64)) - 1
    };
    for _ in 0..n {
        let c = &centers[(splitmix(&mut state) % clusters as u64) as usize];
        let mut words = c.clone();
        for _ in 0..flips {
            let b = (splitmix(&mut state) % bits as u64) as usize;
            words[b / 64] ^= 1 << (b % 64);
        }
        if let Some(last) = words.last_mut() {
            *last &= tail_mask;
        }
        store.push_row(&Bitset::from_words(words, bits));
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_baseline_agrees_with_the_kernel() {
        let (store, q) = synth(500, 256, 7);
        let naive = naive_fullsort_topk(&store, &q, 10);
        let (fast, _) = scan_one(&store, q.words(), 10, None);
        assert_eq!(naive, fast);
    }

    #[test]
    fn naive_weighted_baseline_agrees_with_the_kernel() {
        let (store, q) = synth(400, 256, 8);
        let w_sq: Vec<f64> = (0..256).map(|i| ((i % 7) + 1) as f64 / 256.0).collect();
        let naive = naive_weighted_topk(&store, &q, &w_sq, 10);
        let (fast, _) = scan_one(&store, q.words(), 10, Some(&w_sq));
        assert_eq!(naive, fast);
    }

    #[test]
    fn split_store_partitions_every_row_in_order() {
        let (store, _) = synth(103, 256, 9);
        let parts = split_store(&store, 8);
        assert_eq!(parts.len(), 8);
        let total: usize = parts.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 103);
        for (offset, sub) in &parts {
            for i in 0..sub.len() {
                assert_eq!(sub.vector(i), store.vector(*offset as usize + i));
            }
        }
    }
}
