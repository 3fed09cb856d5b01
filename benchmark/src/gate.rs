//! The correctness gate: a run that fails any of these prints no
//! metrics and exits non-zero.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;

use gdim::core::{GraphId, Ranker, SearchRequest};
use gdim::graph::Graph;
use gdim::server::wire::response_from_json;
use gdim::shard::{DurableHandle, ShardedIndex, SyncPolicy};

use crate::gen::{search_body, search_request};
use crate::load::Ledger;
use crate::setup::connect;
use crate::spec::{Workload, GATE_PROBES, K, PRECISION_QUERIES, RECALL_QUERIES};

/// `count` pool queries spread evenly over the pool.
fn strided(pool: &[Graph], count: usize) -> impl Iterator<Item = &Graph> {
    let count = count.min(pool.len());
    (0..count).map(move |i| &pool[i * pool.len() / count])
}

/// Served answers must equal the in-process `ShardedIndex::search`
/// answers: same ids, same distance bits.
pub fn bit_identity(
    addr: SocketAddr,
    w: &Workload,
    pool: &[Graph],
    index: &ShardedIndex,
) -> Result<(), String> {
    let req = search_request(w);
    let mut client = connect(addr).map_err(|e| format!("gate connect: {e}"))?;
    for (i, q) in strided(pool, GATE_PROBES).enumerate() {
        let (status, j) = client
            .post("/search", &search_body(q, &req))
            .map_err(|e| format!("gate probe {i}: {e}"))?;
        if status != 200 {
            return Err(format!("gate probe {i}: status {status}: {j}"));
        }
        let served = response_from_json(&j).map_err(|e| format!("gate probe {i}: {e}"))?;
        let local = index.search(q, &req).map_err(|e| e.to_string())?;
        let same = served.hits.len() == local.hits.len()
            && served
                .hits
                .iter()
                .zip(&local.hits)
                .all(|(a, b)| a.id == b.id && a.distance.to_bits() == b.distance.to_bits());
        if !same {
            return Err(format!(
                "gate probe {i}: served {:?} != in-process {:?}",
                served.hits, local.hits
            ));
        }
    }
    Ok(())
}

/// Share of approximate hits whose distance is within the exact k-th
/// distance, over `RECALL_QUERIES` fixed queries. Repeats exactly.
pub fn recall_at_k(w: &Workload, pool: &[Graph], index: &ShardedIndex) -> Result<f64, String> {
    let exact_req = SearchRequest::new(K);
    let approx_req = search_request(w);
    let (mut good, mut total) = (0usize, 0usize);
    for q in strided(pool, RECALL_QUERIES) {
        let exact = index.search(q, &exact_req).map_err(|e| e.to_string())?;
        let approx = index.search(q, &approx_req).map_err(|e| e.to_string())?;
        let Some(kth) = exact.hits.last().map(|h| h.distance) else {
            continue;
        };
        total += exact.hits.len();
        good += approx.hits.iter().filter(|h| h.distance <= kth).count();
    }
    Ok(good as f64 / total.max(1) as f64)
}

/// The paper's §6 quality measure on the base index: overlap of the
/// `mapped` top-k with the `Ranker::Exact` (MCS) top-k. Returns the
/// mean overlap share and the MCS calls it cost. Repeats exactly.
pub fn precision_at_k(pool: &[Graph], base: &ShardedIndex) -> Result<(f64, usize), String> {
    let k = K.min(base.len());
    let mapped_req = SearchRequest::new(k);
    let exact_req = SearchRequest::new(k).ranker(Ranker::Exact);
    let (mut overlap, mut total, mut mcs_calls) = (0usize, 0usize, 0usize);
    for q in strided(pool, PRECISION_QUERIES) {
        let mapped = base.search(q, &mapped_req).map_err(|e| e.to_string())?;
        let exact = base.search(q, &exact_req).map_err(|e| e.to_string())?;
        mcs_calls += exact.stats.mcs_calls;
        total += exact.hits.len();
        let exact_ids = exact.ids();
        overlap += mapped
            .hits
            .iter()
            .filter(|h| exact_ids.contains(&h.id))
            .count();
    }
    Ok((overlap as f64 / total.max(1) as f64, mcs_calls))
}

/// Reopens the durable directory after shutdown and counts acked
/// inserts whose id does not return the same live graph, plus acked
/// removes that are still live.
pub fn acked_writes_lost(dir: &Path, ledgers: &[Ledger]) -> Result<u64, String> {
    let (handle, _report) =
        DurableHandle::open(dir, SyncPolicy::Always).map_err(|e| format!("reopen: {e}"))?;
    let index = handle.serving().snapshot();
    let is_live = |id: u32| -> bool {
        let (shard, local) = index.split_id(GraphId(id));
        index
            .shard(shard)
            .is_ok_and(|s| local < s.len() && !s.tombstones().is_dead(local))
    };
    let mut lost = 0;
    for ledger in ledgers {
        // An id this client inserted and later removed must be dead.
        let mut expect: BTreeMap<u32, Option<&Graph>> = BTreeMap::new();
        for &(id, at) in &ledger.inserted {
            expect.insert(id, Some(&ledger.graphs[at]));
        }
        for &id in &ledger.removed {
            expect.insert(id, None);
        }
        for (id, want) in expect {
            let kept = match want {
                Some(g) => is_live(id) && index.graph(GraphId(id)).is_ok_and(|have| have == g),
                None => !is_live(id),
            };
            lost += u64::from(!kept);
        }
    }
    Ok(lost)
}
