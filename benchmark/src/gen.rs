//! Inputs: the fixed fixtures (database, query pool) and the
//! per-`--seed` request streams.
//!
//! The database and the query pool come from a constant fixture seed,
//! so runs with different `--seed`s measure the same index against the
//! same set of queries and their numbers can be compared; `--seed`
//! decides which query each client sends when (Zipf draws, cycle
//! order, operation mix, the graphs inserted). The program under test
//! only ever receives the generated graphs and requests.

use gdim::core::SearchRequest;
use gdim::datagen::{chem_db, connected_edge_subgraph, ChemConfig};
use gdim::graph::Graph;
use gdim::server::wire::{graph_to_json, request_to_json};
use gdim::server::Json;

use crate::spec::{Kind, Workload, K, MAX_CLIENTS};

/// Seed of the fixtures; see the module comment for why it is fixed.
const FIXTURE_SEED: u64 = 42;
const BULK_SALT: u64 = 0x6275_6c6b;
const FRESH_SALT: u64 = 0x6672_6573;
const INSERT_SALT: u64 = 0x696e_7365;
/// Requests per client stream that [`stream_hash`] folds.
const HASHED_REQUESTS: usize = 2048;
/// Fresh graphs each `chem_mid_rw` client may insert before reusing
/// one; far more than a run sends.
const INSERTS_PER_CLIENT: usize = 1024;

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The graphs DSPM is built over.
pub fn base_graphs(w: &Workload) -> Vec<Graph> {
    chem_db(w.base, &ChemConfig::default(), FIXTURE_SEED)
}

/// The graphs bulk-inserted after the build (a seed disjoint from the
/// base's).
pub fn bulk_graphs(w: &Workload) -> Vec<Graph> {
    chem_db(
        w.rows - w.base,
        &ChemConfig::default(),
        FIXTURE_SEED ^ BULK_SALT,
    )
}

/// The query pool: even slots hold an 80 % connected edge-subgraph of
/// a database graph (strided over base + bulk), odd slots a fresh
/// molecule the database has never seen.
pub fn query_pool(w: &Workload, base: &[Graph], bulk: &[Graph]) -> Vec<Graph> {
    let db_len = base.len() + bulk.len();
    let fresh = chem_db(
        w.pool / 2 + 1,
        &ChemConfig::default(),
        FIXTURE_SEED ^ FRESH_SALT,
    );
    (0..w.pool)
        .map(|i| {
            if i % 2 == 0 {
                let at = (i / 2) * db_len / (w.pool / 2).max(1);
                let g = if at < base.len() {
                    &base[at]
                } else {
                    &bulk[at - base.len()]
                };
                connected_edge_subgraph(g, 0.8, FIXTURE_SEED ^ i as u64)
            } else {
                fresh[i / 2].clone()
            }
        })
        .collect()
}

/// One request of a client stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `/search` with pool query `.0`.
    Search(usize),
    /// `/insert` of the client's fresh graph `.0`.
    Insert(usize),
    /// `/remove` of the oldest id the client owns.
    Remove,
}

/// Zipf(1.0) over `0..n` by inverse CDF: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The endless request stream of one closed-loop client.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    rng: Rng,
    pool: usize,
    zipf: Option<Zipf>,
    /// `chem_large_*`: a seeded permutation of the pool, walked in
    /// order from this client's offset.
    order: Vec<u32>,
    cursor: usize,
    inserts: usize,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64, client: usize) -> Stream {
        // Every client of a run shares the permutation, so the cycle
        // visits each query once before any repeats.
        let order = if matches!(w.kind, Kind::LargeExact | Kind::LargeApprox) {
            let mut perm: Vec<u32> = (0..w.pool as u32).collect();
            let mut rng = Rng::new(seed ^ 0x6f72_6465);
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            perm
        } else {
            Vec::new()
        };
        Stream {
            kind: w.kind,
            rng: Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (client as u64 + 1)),
            pool: w.pool,
            zipf: (w.kind == Kind::SmallHot).then(|| Zipf::new(w.pool)),
            cursor: client * w.pool / MAX_CLIENTS,
            order,
            inserts: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::SmallHot => {
                let zipf = self.zipf.as_ref().expect("small_hot has a zipf");
                Op::Search(zipf.sample(&mut self.rng))
            }
            Kind::LargeExact | Kind::LargeApprox => {
                let q = self.order[self.cursor % self.pool] as usize;
                self.cursor += 1;
                Op::Search(q)
            }
            Kind::MidRw => {
                let u = self.rng.next_f64();
                if u < 0.90 {
                    Op::Search(self.rng.below(self.pool))
                } else if u < 0.95 {
                    self.inserts += 1;
                    Op::Insert((self.inserts - 1) % INSERTS_PER_CLIENT)
                } else {
                    Op::Remove
                }
            }
        }
    }
}

/// The fresh graphs client `client` inserts on `chem_mid_rw`.
pub fn insert_graphs(seed: u64, client: usize) -> Vec<Graph> {
    chem_db(
        INSERTS_PER_CLIENT,
        &ChemConfig::default(),
        seed ^ INSERT_SALT ^ ((client as u64 + 1) << 32),
    )
}

/// The `/search` body for an inline query graph.
pub fn search_body(g: &Graph, req: &SearchRequest) -> Json {
    let Json::Obj(mut fields) = request_to_json(req) else {
        unreachable!("request_to_json returns an object");
    };
    fields.insert(
        0,
        (
            "query".to_string(),
            Json::obj([("graph", graph_to_json(g))]),
        ),
    );
    Json::Obj(fields)
}

pub fn insert_body(g: &Graph) -> Json {
    Json::obj([("graph", graph_to_json(g))])
}

pub fn remove_body(id: u32) -> Json {
    Json::obj([("id", Json::U64(u64::from(id)))])
}

pub fn search_request(w: &Workload) -> SearchRequest {
    SearchRequest::new(K).ranker(w.ranker())
}

/// FNV-1a over the first requests of all [`MAX_CLIENTS`] client
/// streams (path and body bytes; a remove contributes its path only,
/// since its id is whatever the server acked). Printed with every
/// result: equal hashes mean the same requests were on offer.
pub fn stream_hash(w: &Workload, seed: u64, pool: &[Graph]) -> u64 {
    let req = search_request(w);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for client in 0..MAX_CLIENTS {
        let mut stream = Stream::new(w, seed, client);
        let inserts = if w.kind == Kind::MidRw {
            insert_graphs(seed, client)
        } else {
            Vec::new()
        };
        for _ in 0..HASHED_REQUESTS {
            match stream.next_op() {
                Op::Search(q) => {
                    fold(b"/search");
                    fold(search_body(&pool[q], &req).to_string_compact().as_bytes());
                }
                Op::Insert(i) => {
                    fold(b"/insert");
                    fold(insert_body(&inserts[i]).to_string_compact().as_bytes());
                }
                Op::Remove => fold(b"/remove"),
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOAD_NAMES;

    fn smoke(name: &str) -> (Workload, Vec<Graph>) {
        let w = Workload::named(name, true).expect("workload");
        let pool = query_pool(&w, &base_graphs(&w), &bulk_graphs(&w));
        (w, pool)
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_another_stream() {
        for name in WORKLOAD_NAMES {
            let (w, pool) = smoke(name);
            let a = stream_hash(&w, 7, &pool);
            assert_eq!(a, stream_hash(&w, 7, &pool), "{name}: seed 7 twice");
            assert_ne!(a, stream_hash(&w, 8, &pool), "{name}: seed 7 vs 8");
        }
    }

    #[test]
    fn pool_alternates_subgraphs_and_fresh_molecules() {
        let (w, pool) = smoke("chem_small_hot");
        assert_eq!(pool.len(), w.pool);
        assert!(pool.iter().all(|g| g.edge_count() >= 1));
        // Fixtures ignore --seed: a second build is identical.
        assert!(pool == query_pool(&w, &base_graphs(&w), &bulk_graphs(&w)));
        let base = base_graphs(&w);
        assert!(gdim::graph::vf2::is_subgraph_iso(&pool[0], &base[0]));
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1024);
        let mut rng = Rng::new(3);
        let mut counts = vec![0usize; 1024];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(1024) = 7.51: rank 0 draws 13.3 %, rank 1 half of that.
        assert!((12_300..14_300).contains(&counts[0]), "{}", counts[0]);
        assert!((5_900..7_400).contains(&counts[1]), "{}", counts[1]);
        assert!(counts[0] > counts[9] && counts[9] > counts[500]);
    }

    #[test]
    fn large_streams_visit_every_query_once_per_cycle() {
        let (w, _) = smoke("chem_large_exact");
        let mut stream = Stream::new(&w, 11, 1);
        let mut seen = vec![false; w.pool];
        for _ in 0..w.pool {
            let Op::Search(q) = stream.next_op() else {
                panic!("large streams only search");
            };
            assert!(!seen[q], "query {q} repeated inside one cycle");
            seen[q] = true;
        }
    }

    #[test]
    fn rw_mix_is_ninety_five_five() {
        let (w, _) = smoke("chem_mid_rw");
        let mut stream = Stream::new(&w, 5, 0);
        let (mut s, mut i, mut r) = (0, 0, 0);
        for _ in 0..20_000 {
            match stream.next_op() {
                Op::Search(_) => s += 1,
                Op::Insert(_) => i += 1,
                Op::Remove => r += 1,
            }
        }
        assert!((17_700..18_300).contains(&s), "{s} searches");
        assert!((850..1_150).contains(&i) && (850..1_150).contains(&r));
    }
}
