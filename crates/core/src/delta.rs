//! The pairwise dissimilarity engine: computes `δ_ij` for all graph
//! pairs of `DG` (the input of the least-squares objective, Eq. 4),
//! fanned out row-by-row on the shared [`gdim_exec`] runtime. A shared,
//! lock-protected on-demand cache ([`SharedDelta`]) backs DSPMap, whose
//! recursive partitions only ever need sub-blocks of the full matrix —
//! that is exactly why its cost stays linear in `n`.

use gdim_exec::ExecConfig;
use gdim_graph::fxhash::FxHashMap;
use gdim_graph::{delta, Dissimilarity, Graph, McsOptions};
use parking_lot::RwLock;

/// Configuration shared by every δ computation.
#[derive(Debug, Clone)]
pub struct DeltaConfig {
    /// Which dissimilarity (δ1 or δ2; §6 uses δ2 = [`Dissimilarity::AvgNorm`]).
    pub kind: Dissimilarity,
    /// MCS search options (budget, pre-checks).
    pub mcs: McsOptions,
    /// Parallelism budget for matrix/sub-block fills.
    pub exec: ExecConfig,
}

impl Default for DeltaConfig {
    /// Matrix-scale default: the MCS node budget is capped at 16 384.
    /// Measured on the 120 pairs of `chem_db(16, .., 42)` (10–20-vertex
    /// molecules): 82 pairs stop at this budget, Σ|E(mcs)| is 787
    /// against 866 at [`McsOptions::default`]'s 500,000 nodes (where 25
    /// pairs still stop), so δ2 reads 0.040 higher per pair on average
    /// (at most 0.29), for ≈ 1.2 ms per pair serially against ≈ 14 ms
    /// (2-vCPU x86-64). Databases imply `O(n²)` pairs; an unbounded
    /// kernel would make every index build hostage to the hardest pair.
    /// Pass a custom [`McsOptions`] for exact-at-any-cost matrices.
    fn default() -> Self {
        DeltaConfig {
            kind: Dissimilarity::default(),
            mcs: McsOptions {
                node_budget: 16_384,
                ..Default::default()
            },
            exec: ExecConfig::default(),
        }
    }
}

/// Symmetric `n × n` dissimilarity matrix, condensed upper-triangle
/// storage (diagonal is implicitly zero).
#[derive(Debug, Clone)]
pub struct DeltaMatrix {
    n: usize,
    vals: Vec<f64>,
}

impl DeltaMatrix {
    /// Computes δ for every pair of `db` in parallel. Row `i` of the
    /// upper triangle is one task; [`gdim_exec::fill_tasks`] copies
    /// each row to its offset in the condensed layout as it arrives —
    /// so the result is byte-identical for any thread budget.
    pub fn compute(db: &[Graph], cfg: &DeltaConfig) -> Self {
        let n = db.len();
        if n < 2 {
            return DeltaMatrix {
                n,
                vals: Vec::new(),
            };
        }
        let vals = gdim_exec::fill_tasks(
            &cfg.exec,
            n - 1,
            n * (n - 1) / 2,
            0.0,
            |i| Self::row_start(n, i),
            |i| {
                (i + 1..n)
                    .map(|j| delta(cfg.kind, &db[i], &db[j], &cfg.mcs))
                    .collect()
            },
        );
        DeltaMatrix { n, vals }
    }

    #[inline]
    fn row_start(n: usize, i: usize) -> usize {
        // Σ_{r<i} (n−1−r) = i·n − i(i+1)/2 − i... expanded directly:
        i * (2 * n - i - 1) / 2
    }

    /// Number of graphs.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// δ(i, j); zero on the diagonal.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.vals[Self::row_start(self.n, a) + (b - a - 1)]
    }

    /// Mean dissimilarity over all pairs (0 when `n < 2`).
    pub fn mean(&self) -> f64 {
        if self.vals.is_empty() {
            0.0
        } else {
            self.vals.iter().sum::<f64>() / self.vals.len() as f64
        }
    }

    /// The condensed values (upper triangle, row-major).
    pub fn condensed(&self) -> &[f64] {
        &self.vals
    }
}

/// An on-demand, thread-safe δ cache over a graph database. DSPMap's
/// recursive `Computec` calls [`SharedDelta::submatrix`] for each
/// partition; pairs are computed at most once across the whole run, in
/// [`DeltaMatrix`]'s orientation (`δ(db[min], db[max])`): under a node
/// budget the MCS search may visit a different tree with its arguments
/// swapped, so a value must not depend on the order ids arrive in.
pub struct SharedDelta<'a> {
    db: &'a [Graph],
    cfg: DeltaConfig,
    cache: RwLock<FxHashMap<u64, f64>>,
}

impl<'a> SharedDelta<'a> {
    /// Creates an empty cache over `db`.
    pub fn new(db: &'a [Graph], cfg: DeltaConfig) -> Self {
        SharedDelta {
            db,
            cfg,
            cache: RwLock::new(FxHashMap::default()),
        }
    }

    #[inline]
    fn key(i: u32, j: u32) -> u64 {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        (a as u64) << 32 | b as u64
    }

    /// δ between database graphs `i` and `j`, uncached, in the matrix's
    /// orientation.
    fn compute(&self, i: u32, j: u32) -> f64 {
        let (a, b) = (i.min(j) as usize, i.max(j) as usize);
        delta(self.cfg.kind, &self.db[a], &self.db[b], &self.cfg.mcs)
    }

    /// δ between database graphs `i` and `j`, computing and caching on miss.
    pub fn get(&self, i: u32, j: u32) -> f64 {
        if i == j {
            return 0.0;
        }
        let key = Self::key(i, j);
        if let Some(&v) = self.cache.read().get(&key) {
            return v;
        }
        let v = self.compute(i, j);
        self.cache.write().insert(key, v);
        v
    }

    /// Dense sub-block for the given graph ids (in their given order),
    /// computing missing pairs in parallel.
    pub fn submatrix(&self, ids: &[u32]) -> DeltaMatrix {
        let b = ids.len();
        // Collect missing pairs.
        let mut missing: Vec<(u32, u32)> = Vec::new();
        {
            let cache = self.cache.read();
            for x in 0..b {
                for y in x + 1..b {
                    let key = Self::key(ids[x], ids[y]);
                    if ids[x] != ids[y] && !cache.contains_key(&key) {
                        missing.push((ids[x], ids[y]));
                    }
                }
            }
        }
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            // Chunk so every configured worker gets work even for small
            // sub-blocks, capped at 8 pairs per task so heterogeneous
            // MCS costs still load-balance on large ones.
            let workers = self.cfg.exec.effective_threads(missing.len());
            let chunk = missing.len().div_ceil(workers).clamp(1, 8);
            let computed = gdim_exec::map_chunks(&self.cfg.exec, missing.len(), chunk, |range| {
                missing[range]
                    .iter()
                    .map(|&(i, j)| (Self::key(i, j), self.compute(i, j)))
                    .collect()
            });
            let mut cache = self.cache.write();
            for (k, v) in computed {
                cache.insert(k, v);
            }
        }
        let cache = self.cache.read();
        let mut vals = Vec::with_capacity(b * (b.max(1) - 1) / 2);
        for x in 0..b {
            for y in x + 1..b {
                if ids[x] == ids[y] {
                    vals.push(0.0);
                } else {
                    vals.push(cache[&Self::key(ids[x], ids[y])]);
                }
            }
        }
        DeltaMatrix { n: b, vals }
    }

    /// Number of distinct pairs computed so far.
    pub fn computed_pairs(&self) -> usize {
        self.cache.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Vec<Graph> {
        let tri = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap();
        let p3 = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0)]).unwrap();
        let p4 = Graph::from_parts(vec![0; 4], [(0, 1, 0), (1, 2, 0), (2, 3, 0)]).unwrap();
        let alien = Graph::from_parts(vec![9, 9], [(0, 1, 7)]).unwrap();
        vec![tri, p3, p4, alien]
    }

    #[test]
    fn matrix_matches_direct_computation() {
        let db = db();
        let cfg = DeltaConfig {
            exec: ExecConfig::new(2),
            ..Default::default()
        };
        let m = DeltaMatrix::compute(&db, &cfg);
        for i in 0..db.len() {
            for j in 0..db.len() {
                let want = if i == j {
                    0.0
                } else {
                    delta(cfg.kind, &db[i], &db[j], &cfg.mcs)
                };
                assert_eq!(m.get(i, j), want, "({i},{j})");
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn known_values() {
        let db = db();
        let m = DeltaMatrix::compute(&db, &DeltaConfig::default());
        // tri vs p3: mcs = 2 edges; δ2 = 1 − 4/5.
        assert!((m.get(0, 1) - (1.0 - 4.0 / 5.0)).abs() < 1e-12);
        // alien shares nothing.
        assert_eq!(m.get(0, 3), 1.0);
    }

    #[test]
    fn single_and_empty_databases() {
        let one = vec![db().remove(0)];
        let m = DeltaMatrix::compute(&one, &DeltaConfig::default());
        assert_eq!(m.n(), 1);
        assert_eq!(m.get(0, 0), 0.0);
        let empty: Vec<Graph> = Vec::new();
        let m0 = DeltaMatrix::compute(&empty, &DeltaConfig::default());
        assert_eq!(m0.n(), 0);
    }

    #[test]
    fn shared_delta_caches() {
        let db = db();
        let sd = SharedDelta::new(&db, DeltaConfig::default());
        let v1 = sd.get(0, 1);
        let v2 = sd.get(1, 0);
        assert_eq!(v1, v2);
        assert_eq!(sd.computed_pairs(), 1);
        let sub = sd.submatrix(&[0, 1, 2]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sd.computed_pairs(), 3);
        let full = DeltaMatrix::compute(&db, &DeltaConfig::default());
        for x in 0..3 {
            for y in 0..3 {
                assert_eq!(sub.get(x, y), full.get(x, y));
            }
        }
    }

    /// Under a budget, `mcs_edges(a, b)` and `mcs_edges(b, a)` may visit
    /// different trees; the cache must answer in the matrix's
    /// orientation whatever order the ids come in.
    #[test]
    fn reversed_ids_give_the_matrix_values() {
        let db = gdim_datagen::chem_db(12, &gdim_datagen::ChemConfig::default(), 42);
        let cfg = DeltaConfig {
            mcs: McsOptions {
                node_budget: 1_024,
                ..Default::default()
            },
            ..Default::default()
        };
        let full = DeltaMatrix::compute(&db, &cfg);
        let n = db.len();
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        let sub = SharedDelta::new(&db, cfg.clone()).submatrix(&reversed);
        let sd = SharedDelta::new(&db, cfg);
        for x in 0..n {
            for y in 0..n {
                assert_eq!(sub.get(x, y), full.get(n - 1 - x, n - 1 - y), "({x},{y})");
                assert_eq!(sd.get(y as u32, x as u32), full.get(x, y), "get({y},{x})");
            }
        }
    }

    #[test]
    fn submatrix_respects_id_order() {
        let db = db();
        let sd = SharedDelta::new(&db, DeltaConfig::default());
        let sub = sd.submatrix(&[2, 0]);
        let full = DeltaMatrix::compute(&db, &DeltaConfig::default());
        assert_eq!(sub.get(0, 1), full.get(2, 0));
    }
}
