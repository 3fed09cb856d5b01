//! Query-quality evaluation: runs the query workload over a mapped
//! database and scores it with the paper's three measures against the
//! exact ground truth, exactly mirroring §6's protocol (approximate
//! top-k from the mapped space vs exact top-k from the graph
//! dissimilarity; query time split into feature matching + scan).

use std::time::{Duration, Instant};

use gdim_core::{kendall_tau_topk, precision, rank_distance_inv, FeatureSpace, MappedDatabase};
use gdim_graph::Graph;

/// Aggregated quality/time numbers for one algorithm on one workload.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Mean precision per k of the sweep.
    pub precision: Vec<f64>,
    /// Mean top-k Kendall's tau per k.
    pub tau: Vec<f64>,
    /// Mean inverse rank distance per k.
    pub rank_dist: Vec<f64>,
    /// Mean end-to-end query time (feature matching + scan).
    pub query_time: Duration,
    /// Mean feature-matching (VF2) share of the query time.
    pub match_time: Duration,
}

/// Evaluates a feature selection over a query workload.
///
/// `truth[qi]` must be the **full** exact ranking for query `qi`.
pub fn evaluate_selection(
    space: &FeatureSpace,
    selection: &[u32],
    queries: &[Graph],
    truth: &[Vec<u32>],
    ks: &[usize],
) -> EvalResult {
    let mapped =
        MappedDatabase::new(space, selection).expect("selection ids come from the same space");
    evaluate_mapped(&mapped, None, queries, truth, ks)
}

/// Evaluates a prebuilt mapped database over a query workload, ranked
/// by the binary distance (`w_sq = None`) or by the weighted ablation
/// under the given squared per-dimension weights.
pub fn evaluate_mapped(
    mapped: &MappedDatabase,
    w_sq: Option<&[f64]>,
    queries: &[Graph],
    truth: &[Vec<u32>],
    ks: &[usize],
) -> EvalResult {
    assert_eq!(queries.len(), truth.len(), "one ground truth per query");
    let kmax = ks.iter().copied().max().unwrap_or(1);
    let mut precision_acc = vec![0.0; ks.len()];
    let mut tau_acc = vec![0.0; ks.len()];
    let mut rd_acc = vec![0.0; ks.len()];
    let mut match_total = Duration::ZERO;
    let mut query_total = Duration::ZERO;

    for (q, exact_full) in queries.iter().zip(truth) {
        let t0 = Instant::now();
        let qvec = mapped.map_query(q);
        let t_match = t0.elapsed();
        let k = kmax.min(mapped.len());
        let (hits, _) = match w_sq {
            None => mapped.scan_topk_masked(&qvec, k, None),
            Some(w_sq) => mapped.scan_topk_with_masked(&qvec, k, w_sq, None),
        };
        let approx: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
        let t_all = t0.elapsed();
        match_total += t_match;
        query_total += t_all;

        for (ki, &k) in ks.iter().enumerate() {
            let k = k.min(approx.len()).min(exact_full.len());
            precision_acc[ki] += precision(&approx[..k], &exact_full[..k]);
            tau_acc[ki] += kendall_tau_topk(&approx, exact_full, k);
            rd_acc[ki] += rank_distance_inv(&approx, exact_full, k);
        }
    }

    let nq = queries.len().max(1) as f64;
    EvalResult {
        precision: precision_acc.iter().map(|x| x / nq).collect(),
        tau: tau_acc.iter().map(|x| x / nq).collect(),
        rank_dist: rd_acc.iter().map(|x| x / nq).collect(),
        query_time: query_total / queries.len().max(1) as u32,
        match_time: match_total / queries.len().max(1) as u32,
    }
}

/// Scores an arbitrary ranker (e.g. the fingerprint benchmark) given
/// its full rankings per query.
pub fn evaluate_rankings(
    rankings: &[Vec<u32>],
    truth: &[Vec<u32>],
    ks: &[usize],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    assert_eq!(rankings.len(), truth.len());
    let mut p_acc = vec![0.0; ks.len()];
    let mut t_acc = vec![0.0; ks.len()];
    let mut r_acc = vec![0.0; ks.len()];
    for (approx, exact_full) in rankings.iter().zip(truth) {
        for (ki, &k) in ks.iter().enumerate() {
            let k = k.min(approx.len()).min(exact_full.len());
            p_acc[ki] += precision(&approx[..k], &exact_full[..k]);
            t_acc[ki] += kendall_tau_topk(approx, exact_full, k);
            r_acc[ki] += rank_distance_inv(approx, exact_full, k);
        }
    }
    let n = rankings.len().max(1) as f64;
    (
        p_acc.iter().map(|x| x / n).collect(),
        t_acc.iter().map(|x| x / n).collect(),
        r_acc.iter().map(|x| x / n).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{exact_rankings, prepare, Dataset};

    #[test]
    fn perfect_selection_on_self_queries() {
        // Using database graphs themselves as queries: the mapped space
        // ranks each graph first (distance 0), so precision@1 is 1.
        let prep = prepare(Dataset::chem(15, 0, 6), 0.2, 3);
        let db = &prep.dataset.db;
        let queries: Vec<_> = db[..5].to_vec();
        let truth = exact_rankings(db, &queries);
        let selection: Vec<u32> = (0..prep.space.num_features() as u32).collect();
        let res = evaluate_selection(&prep.space, &selection, &queries, &truth, &[1, 3]);
        assert_eq!(res.precision.len(), 2);
        assert!(res.precision[0] > 0.99, "p@1 = {}", res.precision[0]);
        assert!(res.query_time >= res.match_time);
    }

    #[test]
    fn ranking_evaluator_scores_truth_perfectly() {
        let truth = vec![vec![0u32, 1, 2, 3, 4], vec![4u32, 3, 2, 1, 0]];
        let (p, t, r) = evaluate_rankings(&truth, &truth, &[2, 4]);
        assert_eq!(p, vec![1.0, 1.0]);
        assert!(t.iter().all(|&x| x > 0.0));
        assert_eq!(r, vec![2.0, 4.0]);
    }
}
