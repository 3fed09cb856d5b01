//! Subgraph isomorphism (subgraph *monomorphism*) in the style of VF2
//! [Cordella et al., TPAMI 2004], the algorithm the paper uses for
//! feature matching at query time (§6, Exp-4).
//!
//! Semantics are **non-induced**: an embedding maps pattern vertices
//! injectively onto target vertices such that every pattern edge maps to
//! a target edge with the same label and endpoint labels; extra target
//! edges between mapped vertices are allowed. This matches the
//! containment relation `f ⊆ g` used throughout the paper (and by gSpan,
//! whose frequent patterns are counted with the same semantics).
//!
//! The matcher orders pattern vertices most-constrained-first (each new
//! vertex is adjacent to an already-mapped one whenever the pattern is
//! connected), generates candidates from a mapped anchor's adjacency, and
//! prunes with label histograms and degree bounds.
//!
//! Everything that depends only on the pattern is compiled once into a
//! [`Pattern`]; everything that depends only on the target is computed
//! once per [`Scratch::target`]. A caller that tests many patterns
//! against one graph (query mapping: the index's dimensions against a
//! query) or one pattern set against many graphs (bulk insert) pays the
//! set-up once. The free functions ([`is_subgraph_iso`] and friends)
//! compile both halves per call.

use std::ops::Range;

use crate::graph::Graph;
use crate::{VLabel, VertexId};

/// Whether `pattern` is subgraph-isomorphic to `target` (`pattern ⊆ target`).
pub fn is_subgraph_iso(pattern: &Graph, target: &Graph) -> bool {
    let mut found = false;
    for_each_embedding(pattern, target, |_| {
        found = true;
        false // stop at the first embedding
    });
    found
}

/// The first embedding found, as `map[pattern_vertex] = target_vertex`.
pub fn find_embedding(pattern: &Graph, target: &Graph) -> Option<Vec<VertexId>> {
    embeddings(pattern, target, 1).pop()
}

/// Number of distinct embeddings, stopping early once `cap` is reached
/// (embedding counts can be exponential; `cap = usize::MAX` for all).
pub fn count_embeddings(pattern: &Graph, target: &Graph, cap: usize) -> usize {
    let mut count = 0usize;
    if cap > 0 {
        for_each_embedding(pattern, target, |_| {
            count += 1;
            count < cap
        });
    }
    count
}

/// All embeddings (up to `cap`), each as `map[pattern_vertex] = target_vertex`.
pub fn embeddings(pattern: &Graph, target: &Graph, cap: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    if cap > 0 {
        for_each_embedding(pattern, target, |map| {
            out.push(map.to_vec());
            out.len() < cap
        });
    }
    out
}

/// One uncompiled test: both halves built for this call, the prescreen,
/// then the search.
fn for_each_embedding(pattern: &Graph, target: &Graph, visit: impl FnMut(&[VertexId]) -> bool) {
    let plan = Pattern::new(pattern);
    let mut scratch = Scratch::default();
    let mut target = scratch.target(target);
    if plan.may_embed_in(&target) {
        plan.for_each_embedding(&mut target, visit);
    }
}

/// Whether `a` and `b` are isomorphic.
///
/// With equal vertex and edge counts, a monomorphism is edge- and
/// vertex-bijective, hence an isomorphism; one direction suffices.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && is_subgraph_iso(a, b)
}

const UNMAPPED: VertexId = VertexId::MAX;

/// A pattern graph compiled for matching: the plan one subgraph
/// isomorphism test follows, built once and run against any number of
/// targets.
///
/// **Precomputed here, from the pattern alone:** the matching order
/// (highest-degree vertex first, then most-already-placed-neighbours
/// first, ties by degree then id); for each depth of that order the
/// vertex's label, its degree, and its *anchors* — the neighbours
/// placed earlier, with the connecting edge labels, all depths
/// flattened into one slice; and the vertex- and edge-label histograms
/// with the vertex and edge counts, which make the free
/// [`Pattern::may_embed_in`] prescreen.
///
/// **Per target, in [`Scratch::target`]:** the target's own two
/// histograms, and the `map` / `used` buffers of the search, which are
/// handed back clean after every test and so are shared by all
/// patterns tried against that target.
///
/// A compiled pattern holds no reference to the graph it was built
/// from and is immutable: share it behind an `Arc` freely.
#[derive(Debug, Clone)]
pub struct Pattern {
    edges: usize,
    /// Vertex-label histogram, sorted by label.
    vlabels: Vec<(u32, u32)>,
    /// Edge-label histogram, sorted by label.
    elabels: Vec<(u32, u32)>,
    /// One step per pattern vertex, in matching order.
    steps: Vec<Step>,
    /// Every step's anchors, back to back: `(pattern_neighbor, edge_label)`
    /// for the neighbors already mapped when the step's vertex is matched.
    anchors: Vec<(VertexId, u32)>,
}

#[derive(Debug, Clone)]
struct Step {
    vertex: VertexId,
    label: VLabel,
    degree: usize,
    anchors: Range<usize>,
}

/// The reusable per-target half of a match: label histograms of the
/// current target and the search's `map` / `used` buffers. One scratch
/// serves any sequence of targets — [`Scratch::target`] re-sizes it.
#[derive(Debug, Default)]
pub struct Scratch {
    vlabels: Vec<(u32, u32)>,
    elabels: Vec<(u32, u32)>,
    /// `map[pattern_vertex] = target_vertex` for the vertices placed so far.
    map: Vec<VertexId>,
    /// `used[target_vertex]`; all `false` between searches.
    used: Vec<bool>,
}

/// A target graph prepared for matching, borrowing a [`Scratch`].
#[derive(Debug)]
pub struct Target<'a> {
    graph: &'a Graph,
    scratch: &'a mut Scratch,
}

impl Scratch {
    /// Prepares `graph` as the target of the following tests: its label
    /// histograms are computed once, here.
    pub fn target<'a>(&'a mut self, graph: &'a Graph) -> Target<'a> {
        histogram(&mut self.vlabels, graph.vlabels().iter().copied());
        histogram(&mut self.elabels, graph.edges().iter().map(|e| e.label));
        self.used.clear();
        self.used.resize(graph.vertex_count(), false);
        Target {
            graph,
            scratch: self,
        }
    }
}

impl Pattern {
    /// Compiles `pattern`.
    pub fn new(pattern: &Graph) -> Self {
        let n = pattern.vertex_count();
        let mut placed = vec![false; n];
        let mut steps = Vec::with_capacity(n);
        let mut anchors = Vec::with_capacity(pattern.edge_count());
        for pv in matching_order(pattern) {
            let start = anchors.len();
            anchors.extend(
                pattern
                    .neighbors(pv)
                    .iter()
                    .filter(|n| placed[n.to as usize])
                    .map(|n| (n.to, n.elabel)),
            );
            placed[pv as usize] = true;
            steps.push(Step {
                vertex: pv,
                label: pattern.vlabel(pv),
                degree: pattern.degree(pv),
                anchors: start..anchors.len(),
            });
        }
        Pattern {
            edges: pattern.edge_count(),
            vlabels: pattern.vlabel_counts(),
            elabels: pattern.elabel_counts(),
            steps,
            anchors,
        }
    }

    /// The free prescreen: whether the target has enough vertices,
    /// edges, and enough of every vertex and edge label to hold the
    /// pattern at all (necessary, not sufficient). The searches below
    /// are complete without it; run it first to skip the hopeless ones.
    pub fn may_embed_in(&self, target: &Target<'_>) -> bool {
        self.steps.len() <= target.graph.vertex_count()
            && self.edges <= target.graph.edge_count()
            && histogram_dominates(&self.vlabels, &target.scratch.vlabels)
            && histogram_dominates(&self.elabels, &target.scratch.elabels)
    }

    /// Whether the pattern is subgraph-isomorphic to the target (a
    /// search; see [`Pattern::may_embed_in`]).
    pub fn is_in(&self, target: &mut Target<'_>) -> bool {
        let mut found = false;
        self.for_each_embedding(target, |_| {
            found = true;
            false // stop at the first embedding
        });
        found
    }

    /// Depth-first search over partial mappings. `visit` is called with
    /// the complete mapping (`map[pattern_vertex] = target_vertex`) for
    /// every embedding; returning `false` stops the whole search.
    pub fn for_each_embedding(
        &self,
        target: &mut Target<'_>,
        mut visit: impl FnMut(&[VertexId]) -> bool,
    ) {
        let scratch = &mut *target.scratch;
        scratch.map.clear();
        scratch.map.resize(self.steps.len(), UNMAPPED);
        self.step(0, target.graph, scratch, &mut visit);
    }

    fn step(
        &self,
        depth: usize,
        target: &Graph,
        scratch: &mut Scratch,
        visit: &mut impl FnMut(&[VertexId]) -> bool,
    ) -> bool {
        let Some(step) = self.steps.get(depth) else {
            return visit(&scratch.map);
        };
        let fits = |scratch: &Scratch, tv: VertexId| {
            !scratch.used[tv as usize]
                && target.vlabel(tv) == step.label
                && target.degree(tv) >= step.degree
        };
        let mut extend = |scratch: &mut Scratch, tv: VertexId| {
            scratch.map[step.vertex as usize] = tv;
            scratch.used[tv as usize] = true;
            let keep_going = self.step(depth + 1, target, scratch, visit);
            scratch.used[tv as usize] = false;
            scratch.map[step.vertex as usize] = UNMAPPED;
            keep_going
        };
        match self.anchors[step.anchors.clone()].split_first() {
            // Candidates come from the image of one mapped pattern
            // neighbor; every other mapped neighbor must be joined to the
            // candidate by a target edge with the right label.
            Some((&(anchor, elabel), rest)) => {
                for nb in target.neighbors(scratch.map[anchor as usize]) {
                    if nb.elabel == elabel
                        && fits(scratch, nb.to)
                        && rest.iter().all(|&(nbr, el)| {
                            target.edge_label(scratch.map[nbr as usize], nb.to) == Some(el)
                        })
                        && !extend(scratch, nb.to)
                    {
                        return false;
                    }
                }
            }
            // First vertex of a (new) component: try every unused target vertex.
            None => {
                for tv in 0..target.vertex_count() as VertexId {
                    if fits(scratch, tv) && !extend(scratch, tv) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Pattern-vertex matching order: start at the highest-degree vertex,
/// then repeatedly pick the unplaced vertex with the most already-placed
/// neighbors (most-constrained first), tie-breaking by degree then id.
/// Guarantees connected patterns extend along edges at every step.
fn matching_order(pattern: &Graph) -> Vec<VertexId> {
    let n = pattern.vertex_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut placed_nbrs = vec![0usize; n];
    for _ in 0..n {
        let next = (0..n)
            .filter(|&v| !placed[v])
            .max_by_key(|&v| {
                (
                    placed_nbrs[v],
                    pattern.degree(v as VertexId),
                    usize::MAX - v,
                )
            })
            .expect("unplaced vertex exists");
        placed[next] = true;
        order.push(next as VertexId);
        for nb in pattern.neighbors(next as VertexId) {
            placed_nbrs[nb.to as usize] += 1;
        }
    }
    order
}

/// Fills `out` with the `(label, count)` histogram of `labels`, sorted
/// by label — [`Graph::vlabel_counts`] into a reused allocation.
fn histogram(out: &mut Vec<(u32, u32)>, labels: impl Iterator<Item = u32>) {
    out.clear();
    out.extend(labels.map(|l| (l, 1)));
    out.sort_unstable();
    out.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

/// True when every label's count in `small` is ≤ its count in `large`.
/// Both histograms are sorted by label.
fn histogram_dominates(small: &[(u32, u32)], large: &[(u32, u32)]) -> bool {
    let mut j = 0;
    for &(label, count) in small {
        while j < large.len() && large[j].0 < label {
            j += 1;
        }
        if j >= large.len() || large[j].0 != label || large[j].1 < count {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn triangle(l: u32) -> Graph {
        Graph::from_parts(vec![l; 3], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]).unwrap()
    }

    fn path(labels: &[u32], elabels: &[u32]) -> Graph {
        let edges: Vec<_> = elabels
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u32, i as u32 + 1, l))
            .collect();
        Graph::from_parts(labels.to_vec(), edges).unwrap()
    }

    #[test]
    fn single_edge_in_triangle() {
        let p = path(&[1, 1], &[0]);
        assert!(is_subgraph_iso(&p, &triangle(1)));
        // 3 edges × 2 orientations = 6 embeddings.
        assert_eq!(count_embeddings(&p, &triangle(1), usize::MAX), 6);
    }

    #[test]
    fn vertex_labels_must_match() {
        let p = path(&[1, 2], &[0]);
        assert!(!is_subgraph_iso(&p, &triangle(1)));
    }

    #[test]
    fn edge_labels_must_match() {
        let p = path(&[1, 1], &[9]);
        assert!(!is_subgraph_iso(&p, &triangle(1)));
    }

    #[test]
    fn non_induced_semantics() {
        // Path 0-1-2 embeds into a triangle even though the triangle has
        // the extra chord (0,2): non-induced matching.
        let p = path(&[1, 1, 1], &[0, 0]);
        assert!(is_subgraph_iso(&p, &triangle(1)));
    }

    #[test]
    fn pattern_larger_than_target_fails_fast() {
        let p = path(&[1, 1, 1, 1], &[0, 0, 0]);
        let t = path(&[1, 1], &[0]);
        assert!(!is_subgraph_iso(&p, &t));
    }

    #[test]
    fn triangle_not_in_path() {
        let t = path(&[1, 1, 1, 1], &[0, 0, 0]);
        assert!(!is_subgraph_iso(&triangle(1), &t));
    }

    #[test]
    fn embedding_maps_edges_correctly() {
        let p = path(&[3, 4, 5], &[7, 8]);
        let t = Graph::from_parts(vec![5, 4, 3, 9], [(2, 1, 7), (1, 0, 8), (0, 3, 1)]).unwrap();
        let m = find_embedding(&p, &t).expect("embedding exists");
        for e in p.edges() {
            assert_eq!(
                t.edge_label(m[e.u as usize], m[e.v as usize]),
                Some(e.label)
            );
        }
        for (pv, &tv) in m.iter().enumerate() {
            assert_eq!(p.vlabel(pv as u32), t.vlabel(tv));
        }
    }

    #[test]
    fn disconnected_pattern() {
        let p = Graph::from_parts(vec![1, 1, 2, 2], [(0, 1, 0), (2, 3, 5)]).unwrap();
        let t = Graph::from_parts(vec![1, 1, 2, 2, 7], [(0, 1, 0), (2, 3, 5), (3, 4, 1)]).unwrap();
        assert!(is_subgraph_iso(&p, &t));
        // Components can't overlap: labels differ, so 2 × 2 orientations.
        assert_eq!(count_embeddings(&p, &t, usize::MAX), 4);
    }

    #[test]
    fn isomorphism_detects_equal_and_unequal() {
        let a = path(&[1, 2, 3], &[5, 6]);
        let b = path(&[3, 2, 1], &[6, 5]); // same path written backwards
        assert!(are_isomorphic(&a, &b));
        let c = path(&[1, 2, 3], &[6, 5]);
        assert!(!are_isomorphic(&a, &c));
    }

    #[test]
    fn count_respects_cap() {
        let p = path(&[1, 1], &[0]);
        assert_eq!(count_embeddings(&p, &triangle(1), 4), 4);
        assert_eq!(count_embeddings(&p, &triangle(1), 0), 0);
    }

    #[test]
    fn empty_pattern_matches_once() {
        let p = Graph::from_parts(vec![], []).unwrap();
        let t = triangle(1);
        assert_eq!(count_embeddings(&p, &t, usize::MAX), 1);
        assert!(is_subgraph_iso(&p, &t));
    }

    #[test]
    fn embeddings_are_injective() {
        let p = path(&[1, 1, 1], &[0, 0]);
        for m in embeddings(&p, &triangle(1), usize::MAX) {
            let mut seen = m.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), m.len());
        }
    }

    #[test]
    fn prescreen_is_necessary_not_sufficient() {
        let tri = triangle(0);
        let p3 = path(&[0, 0, 0], &[0, 0]);
        let other = path(&[1, 1], &[5]);
        let mut scratch = Scratch::default();
        let t = scratch.target(&tri);
        assert!(Pattern::new(&p3).may_embed_in(&t)); // path ⊆ triangle is plausible
        assert!(Pattern::new(&tri).may_embed_in(&t));
        assert!(!Pattern::new(&other).may_embed_in(&t)); // label-1 vertices absent
        let t = scratch.target(&p3);
        assert!(!Pattern::new(&tri).may_embed_in(&t)); // fewer edges cannot hold more

        // Counts and labels fit, the structure does not.
        let star = Graph::from_parts(vec![0; 4], [(0, 1, 0), (0, 2, 0), (0, 3, 0)]).unwrap();
        let p4 = path(&[0, 0, 0, 0], &[0, 0, 0]);
        let mut t = scratch.target(&p4);
        assert!(Pattern::new(&star).may_embed_in(&t));
        assert!(!Pattern::new(&star).is_in(&mut t));
    }

    #[test]
    fn a_scratch_reused_across_targets_matches_fresh_scratches() {
        // Big target, small target, the big one again on one scratch:
        // stale `used` / `map` / histogram entries from an earlier target
        // must never leak into a later answer.
        let big = {
            // A 40-vertex ring of alternating labels with chords.
            let n = 40u32;
            let ring = (0..n).map(|i| (i, (i + 1) % n, i % 2));
            let chords = (0..n).step_by(5).map(|i| (i, (i + 7) % n, 2));
            Graph::from_parts((0..n).map(|i| i % 3).collect(), ring.chain(chords)).unwrap()
        };
        let small = path(&[0, 1, 2], &[0, 1]);
        let patterns = [
            path(&[0, 1], &[0]),
            path(&[0, 1, 2], &[0, 1]),
            path(&[0, 1, 2, 0, 1], &[0, 1, 0, 1]),
            path(&[2, 0], &[2]),
            triangle(0),
            Graph::from_parts(vec![0, 1, 2, 1], [(0, 1, 0), (1, 2, 1), (0, 3, 2)]).unwrap(),
            Graph::from_parts(vec![0, 1, 0, 1], [(0, 1, 0), (2, 3, 0)]).unwrap(),
            Graph::from_parts(vec![], []).unwrap(),
        ];
        let plans: Vec<Pattern> = patterns.iter().map(Pattern::new).collect();
        let bits = |scratch: &mut Scratch, g: &Graph| -> Vec<bool> {
            let mut t = scratch.target(g);
            plans.iter().map(|p| p.is_in(&mut t)).collect()
        };
        let fresh: Vec<Vec<bool>> = [&big, &small, &big]
            .map(|g| bits(&mut Scratch::default(), g))
            .to_vec();
        assert!(fresh[0].contains(&true) && fresh[0].contains(&false));
        assert_ne!(fresh[0], fresh[1]);
        let mut shared = Scratch::default();
        let reused: Vec<Vec<bool>> = [&big, &small, &big].map(|g| bits(&mut shared, g)).to_vec();
        assert_eq!(reused, fresh);
        for (p, &hit) in patterns.iter().zip(&fresh[0]) {
            assert_eq!(hit, is_subgraph_iso(p, &big));
        }
    }
}
