//! The feature space `F` of §4–5: mined features, the binary matrix
//! `[y_ir]` as bitset rows, and the two inverted lists of §5.1.2 —
//! `IF_r` (graphs containing feature `f_r`) and `IG_i` (features
//! contained in graph `g_i`).
//!
//! **Unseen graphs** (queries, online inserts) are mapped onto a
//! feature set by one loop, [`ContainmentDag::map_query`], which keeps
//! the VF2 "feature matching time" (the paper's Exp-4 cost component)
//! down three ways:
//!
//! * every feature is compiled once into a [`vf2::Pattern`], and the
//!   graph being mapped is prepared once per call, so a test is only
//!   the search itself;
//! * the plan's counts and label histograms are a free prescreen: if a
//!   feature needs a label the graph lacks, no isomorphism test runs;
//! * the containment partial order `f ⊆ f′` over the feature set,
//!   computed once with VF2 on the tiny feature graphs: features are
//!   matched in topological order, and once `f ⊄ q` is known every
//!   supergraph of `f` is skipped without a VF2 call
//!   (anti-monotonicity, generalizing gSpan parent pruning to feature
//!   subsets where the gSpan parent was not selected).

use gdim_graph::fxhash::{FxHashMap, FxHashSet};
use gdim_graph::vf2::{self, Pattern};
use gdim_graph::Graph;
use gdim_mining::Feature;

use crate::bitset::Bitset;

/// Per-query counters of the feature-matching leg: how many VF2
/// subgraph-isomorphism tests actually ran and how many were avoided
/// by the containment DAG and the invariant prescreen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// VF2 calls performed.
    pub vf2_calls: usize,
    /// VF2 calls skipped (absent sub-feature or failed invariant).
    pub vf2_pruned: usize,
}

/// The containment partial order `f_i ⊆ f_j` over a feature set,
/// precomputed once so query mapping can skip VF2 calls: a feature
/// whose (necessarily smaller) contained feature is already known
/// absent from the query cannot be present either.
///
/// Built at index-build time and **rebuilt deterministically on
/// load** — it is derived state, never persisted (see
/// [`crate::persist`]). Construction prescreens candidate pairs with
/// [`Pattern::may_embed_in`] and the anti-monotone support-list relation
/// (`f_i ⊆ f_j ⟹ sup(f_j) ⊆ sup(f_i)`) before running VF2 on the tiny
/// feature graphs, and stores the transitive reduction (a parent
/// implied by another parent adds no pruning power). It owns the
/// compiled plans of its features, so it is immutable and held behind
/// an `Arc` by its users: cloning an index shares it.
#[derive(Debug, Default)]
pub struct ContainmentDag {
    /// Column evaluation order: ascending `(edges, vertices, column)`,
    /// so every feature is evaluated after all features it contains.
    order: Vec<u32>,
    /// `parents[j]` = columns whose feature is contained in feature
    /// `j` (transitively reduced).
    parents: Vec<Vec<u32>>,
    /// The compiled matching plan of each column's feature; its
    /// histograms are the free query prescreen.
    plans: Vec<Pattern>,
}

impl ContainmentDag {
    /// Compiles `features` and builds the DAG over them (one VF2
    /// containment test per prescreen- and support-plausible ordered
    /// pair).
    pub fn build(features: &[Feature]) -> Self {
        let plans: Vec<Pattern> = features.iter().map(|f| Pattern::new(&f.graph)).collect();
        let mut order: Vec<u32> = (0..features.len() as u32).collect();
        order.sort_by_key(|&c| {
            let f = &features[c as usize];
            (f.graph.edge_count(), f.graph.vertex_count(), c)
        });
        // `(i, j)` ∈ contains ⟺ f_i ⊆ f_j, over pairs that survive the
        // prescreens (i strictly before j in evaluation order).
        let mut contains: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); features.len()];
        let mut scratch = vf2::Scratch::default();
        for (pos, &j) in order.iter().enumerate() {
            let fj = &features[j as usize];
            let mut target = scratch.target(&fj.graph);
            let mut direct: Vec<u32> = Vec::new();
            for &i in &order[..pos] {
                let plan = &plans[i as usize];
                // The support test is anti-monotonicity on the database:
                // every graph containing f_j must contain any f_i ⊆ f_j.
                if plan.may_embed_in(&target)
                    && sorted_subset(&fj.support, &features[i as usize].support)
                    && plan.is_in(&mut target)
                {
                    contains.insert((i, j));
                    direct.push(i);
                }
            }
            // Transitive reduction: drop a parent contained in another
            // parent — its absence is already implied.
            let reduced: Vec<u32> = direct
                .iter()
                .copied()
                .filter(|&i| !parents_cover(&contains, &direct, i))
                .collect();
            parents[j as usize] = reduced;
        }
        ContainmentDag {
            order,
            parents,
            plans,
        }
    }

    /// Maps a graph onto `features` (the same slice the DAG was built
    /// over; its compiled plans do the matching): bit `r` set iff
    /// `f_r ⊆ q`, bit-identical to testing every feature with VF2,
    /// with the DAG and the histogram prescreen skipping calls whose
    /// answer is already forced. `q` is prepared once for all columns.
    pub fn map_query(&self, features: &[Feature], q: &Graph) -> (Bitset, MatchStats) {
        debug_assert_eq!(features.len(), self.plans.len());
        let mut scratch = vf2::Scratch::default();
        let mut target = scratch.target(q);
        let mut bits = Bitset::zeros(self.plans.len());
        let mut stats = MatchStats::default();
        'cols: for &col in &self.order {
            let c = col as usize;
            for &parent in &self.parents[c] {
                if !bits.get(parent as usize) {
                    stats.vf2_pruned += 1;
                    continue 'cols;
                }
            }
            if !self.plans[c].may_embed_in(&target) {
                stats.vf2_pruned += 1;
                continue;
            }
            stats.vf2_calls += 1;
            if self.plans[c].is_in(&mut target) {
                bits.set(c);
            }
        }
        (bits, stats)
    }

    /// Direct (transitively reduced) contained-feature columns of
    /// column `j`.
    pub fn parents(&self, j: usize) -> &[u32] {
        &self.parents[j]
    }

    /// Total containment edges kept after transitive reduction.
    pub fn edge_count(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }
}

/// Whether another member of `direct` contains column `i` (making the
/// edge from `i` transitively implied).
fn parents_cover(contains: &FxHashSet<(u32, u32)>, direct: &[u32], i: u32) -> bool {
    direct
        .iter()
        .any(|&other| other != i && contains.contains(&(i, other)))
}

/// Whether sorted id list `sub` is a subset of sorted id list `sup`.
fn sorted_subset(sub: &[u32], sup: &[u32]) -> bool {
    let mut it = sup.iter();
    'outer: for &x in sub {
        for &y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

/// The multidimensional feature space built over a graph database.
///
/// Immutable once built: a [`GraphIndex`](crate::index::GraphIndex)
/// holds it behind an `Arc` and records the rows of graphs inserted
/// online beside it, not in it.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    n_graphs: usize,
    features: Vec<Feature>,
    /// `rows[i]` = bitset of features contained in graph `i` (binary `y_i`).
    rows: Vec<Bitset>,
    /// `IG_i`: sorted feature ids contained in graph `i`.
    ig: Vec<Vec<u32>>,
}

impl FeatureSpace {
    /// Builds the space from gSpan output (`features[r].support` becomes
    /// `IF_r` directly — no isomorphism tests are repeated).
    pub fn build(n_graphs: usize, features: Vec<Feature>) -> Self {
        let mut rows = vec![Bitset::zeros(features.len()); n_graphs];
        let mut ig = vec![Vec::new(); n_graphs];
        for (r, f) in features.iter().enumerate() {
            for &gid in &f.support {
                rows[gid as usize].set(r);
                ig[gid as usize].push(r as u32);
            }
        }
        FeatureSpace {
            n_graphs,
            features,
            rows,
            ig,
        }
    }

    /// Number of graphs `n = |DG|`.
    #[inline]
    pub fn num_graphs(&self) -> usize {
        self.n_graphs
    }

    /// Number of features `m = |F|`.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// The mined features.
    #[inline]
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Binary vector `y_i` of graph `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &Bitset {
        &self.rows[i]
    }

    /// Inverted list `IF_r` (sorted graph ids containing feature `r`).
    #[inline]
    pub fn if_list(&self, r: usize) -> &[u32] {
        &self.features[r].support
    }

    /// Inverted list `IG_i` (sorted feature ids contained in graph `i`).
    #[inline]
    pub fn ig_list(&self, i: usize) -> &[u32] {
        &self.ig[i]
    }

    /// `|sup(f_r)|`.
    #[inline]
    pub fn support_count(&self, r: usize) -> usize {
        self.features[r].support.len()
    }

    /// Restricts the space to a subset of graphs (new dense ids follow
    /// `graph_ids` order) keeping **all** features — used by DSPMap,
    /// whose partitions re-run DSPM on sub-databases. Features with
    /// empty restricted support are retained (weight updates handle
    /// them); callers can check [`FeatureSpace::support_count`].
    pub fn restrict_graphs(&self, graph_ids: &[u32]) -> FeatureSpace {
        let remap: FxHashMap<u32, u32> = graph_ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        let features: Vec<Feature> = self
            .features
            .iter()
            .map(|f| {
                let mut support: Vec<u32> = f
                    .support
                    .iter()
                    .filter_map(|g| remap.get(g).copied())
                    .collect();
                support.sort_unstable();
                Feature {
                    graph: f.graph.clone(),
                    code: f.code.clone(),
                    support,
                }
            })
            .collect();
        FeatureSpace::build(graph_ids.len(), features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdim_graph::vf2::is_subgraph_iso;
    use gdim_mining::{mine, MinerConfig, Support};

    fn tiny_db() -> Vec<Graph> {
        let tri = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap();
        let path = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0)]).unwrap();
        let other = Graph::from_parts(vec![1, 1], [(0, 1, 5)]).unwrap();
        vec![tri, path, other]
    }

    fn space() -> (Vec<Graph>, FeatureSpace) {
        let db = tiny_db();
        let feats = mine(&db, &MinerConfig::new(Support::Absolute(1)));
        let space = FeatureSpace::build(db.len(), feats);
        (db, space)
    }

    /// `q` mapped onto the whole space, the way an online insert does it.
    fn map_full(s: &FeatureSpace, q: &Graph) -> Bitset {
        ContainmentDag::build(s.features())
            .map_query(s.features(), q)
            .0
    }

    #[test]
    fn inverted_lists_are_consistent() {
        let (_, s) = space();
        for r in 0..s.num_features() {
            for &gid in s.if_list(r) {
                assert!(s.row(gid as usize).get(r));
                assert!(s.ig_list(gid as usize).contains(&(r as u32)));
            }
        }
        for i in 0..s.num_graphs() {
            assert_eq!(s.row(i).count_ones() as usize, s.ig_list(i).len());
        }
    }

    #[test]
    fn map_query_agrees_with_db_rows() {
        // Mapping a database graph as a "query" must reproduce its row.
        let (db, s) = space();
        for (i, g) in db.iter().enumerate() {
            assert_eq!(&map_full(&s, g), s.row(i), "graph {i}");
        }
    }

    #[test]
    fn map_unseen_query() {
        let (_, s) = space();
        // A 4-path contains the edge and the 2-path but not the triangle.
        let q = Graph::from_parts(vec![0; 4], [(0, 1, 0), (1, 2, 0), (2, 3, 0)]).unwrap();
        let bits = map_full(&s, &q);
        for (r, f) in s.features().iter().enumerate() {
            assert_eq!(
                bits.get(r),
                is_subgraph_iso(&f.graph, &q),
                "feature {r}: {:?}",
                f.graph
            );
        }
        assert!(bits.count_ones() >= 2);
    }

    #[test]
    fn restrict_graphs_remaps_supports() {
        let (_, s) = space();
        let sub = s.restrict_graphs(&[2, 0]);
        assert_eq!(sub.num_graphs(), 2);
        assert_eq!(sub.num_features(), s.num_features());
        // Graph 2 (the label-1 edge) is now id 0.
        for r in 0..s.num_features() {
            let had = s.if_list(r).contains(&2);
            assert_eq!(sub.if_list(r).contains(&0), had);
            let had0 = s.if_list(r).contains(&0);
            assert_eq!(sub.if_list(r).contains(&1), had0);
        }
    }

    #[test]
    fn containment_dag_maps_bit_identically_to_brute_force() {
        let db = gdim_datagen::chem_db(20, &gdim_datagen::ChemConfig::default(), 5);
        let feats = mine(
            &db,
            &MinerConfig::new(Support::Relative(0.2)).with_max_edges(4),
        );
        assert!(feats.len() > 4);
        let dag = ContainmentDag::build(&feats);
        let queries = gdim_datagen::chem_db(4, &gdim_datagen::ChemConfig::default(), 77);
        for q in db.iter().take(3).chain(&queries) {
            let (bits, stats) = dag.map_query(&feats, q);
            for (r, f) in feats.iter().enumerate() {
                assert_eq!(bits.get(r), is_subgraph_iso(&f.graph, q), "feature {r}");
            }
            assert_eq!(stats.vf2_calls + stats.vf2_pruned, feats.len());
        }
    }

    #[test]
    fn containment_dag_edges_point_from_subfeatures() {
        // Hand-built features: edge ⊆ path ⊆ triangle, plus an
        // unrelated labeled edge. Use supports consistent with the
        // anti-monotone relation (sup shrinks as features grow).
        let edge = Graph::from_parts(vec![0; 2], [(0, 1, 0)]).unwrap();
        let path = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0)]).unwrap();
        let tri = Graph::from_parts(vec![0; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap();
        let other = Graph::from_parts(vec![1, 1], [(0, 1, 5)]).unwrap();
        let feats: Vec<Feature> = [
            (tri, vec![0]),
            (edge, vec![0, 1, 2]),
            (other, vec![3]),
            (path, vec![0, 1]),
        ]
        .into_iter()
        .map(|(graph, support)| {
            let code = gdim_graph::dfscode::min_dfs_code(&graph);
            Feature {
                graph,
                code,
                support,
            }
        })
        .collect();
        let dag = ContainmentDag::build(&feats);
        // Triangle's only direct parent is the path (edge is implied).
        assert_eq!(dag.parents(0), &[3]);
        assert_eq!(dag.parents(1), &[] as &[u32]);
        assert_eq!(dag.parents(2), &[] as &[u32]);
        assert_eq!(dag.parents(3), &[1]);
        assert_eq!(dag.edge_count(), 2);
    }

    #[test]
    fn parent_pruning_never_changes_results() {
        // Compare the DAG mapping against brute-force VF2 over all
        // features on a query where many parents are absent.
        let (_, s) = space();
        let q = Graph::from_parts(vec![1, 1, 1], [(0, 1, 5), (1, 2, 5)]).unwrap();
        let bits = map_full(&s, &q);
        for (r, f) in s.features().iter().enumerate() {
            assert_eq!(bits.get(r), is_subgraph_iso(&f.graph, &q));
        }
    }
}
