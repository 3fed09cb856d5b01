//! The allocation-per-call VF2 matcher this crate shipped before the
//! compiled [`gdim_graph::vf2::Pattern`], kept verbatim as the reference
//! the proptests compare the compiled matcher against: same matching
//! order, same candidate order, so embeddings must agree *in order*.
//! It lives under `tests/` (not in a `#[cfg(test)]` module of the
//! library) because integration tests link the library without
//! `cfg(test)`; it uses only the public `Graph` API.

use gdim_graph::{Graph, VertexId};

/// Reference `pattern ⊆ target`.
pub fn is_subgraph_iso(pattern: &Graph, target: &Graph) -> bool {
    !embeddings(pattern, target, 1).is_empty()
}

/// Reference embedding list (up to `cap`), in enumeration order.
pub fn embeddings(pattern: &Graph, target: &Graph, cap: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    if cap == 0 {
        return out;
    }
    if let Some(mut m) = Matcher::new(pattern, target) {
        m.search(&mut |map| {
            out.push(map.to_vec());
            out.len() < cap
        });
    }
    out
}

struct Matcher<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    /// Pattern vertices in matching order.
    order: Vec<VertexId>,
    /// For each position in `order`: pattern neighbors already mapped when
    /// this vertex is matched, as `(pattern_neighbor, edge_label)`.
    mapped_neighbors: Vec<Vec<(VertexId, u32)>>,
    map: Vec<VertexId>,
    used: Vec<bool>,
}

const UNMAPPED: VertexId = VertexId::MAX;

impl<'a> Matcher<'a> {
    /// Returns `None` when cheap global invariants already rule out any
    /// embedding (size or label-histogram violations).
    fn new(pattern: &'a Graph, target: &'a Graph) -> Option<Self> {
        if pattern.vertex_count() > target.vertex_count()
            || pattern.edge_count() > target.edge_count()
        {
            return None;
        }
        if !histogram_dominates(&pattern.vlabel_counts(), &target.vlabel_counts())
            || !histogram_dominates(&pattern.elabel_counts(), &target.elabel_counts())
        {
            return None;
        }
        let order = matching_order(pattern);
        let mut placed = vec![false; pattern.vertex_count()];
        let mut mapped_neighbors = Vec::with_capacity(order.len());
        for &pv in &order {
            let anchors: Vec<(VertexId, u32)> = pattern
                .neighbors(pv)
                .iter()
                .filter(|n| placed[n.to as usize])
                .map(|n| (n.to, n.elabel))
                .collect();
            placed[pv as usize] = true;
            mapped_neighbors.push(anchors);
        }
        Some(Matcher {
            pattern,
            target,
            order,
            mapped_neighbors,
            map: vec![UNMAPPED; pattern.vertex_count()],
            used: vec![false; target.vertex_count()],
        })
    }

    /// Depth-first search over partial mappings. `visit` is called with
    /// the complete mapping for every embedding; returning `false` stops
    /// the whole search.
    fn search(&mut self, visit: &mut dyn FnMut(&[VertexId]) -> bool) -> bool {
        self.step(0, visit)
    }

    fn step(&mut self, depth: usize, visit: &mut dyn FnMut(&[VertexId]) -> bool) -> bool {
        if depth == self.order.len() {
            return visit(&self.map);
        }
        let pv = self.order[depth];
        let pl = self.pattern.vlabel(pv);
        let pdeg = self.pattern.degree(pv);
        let anchors = std::mem::take(&mut self.mapped_neighbors[depth]);

        let keep_going = if let Some(&(anchor, elabel)) = anchors.first() {
            // Candidates come from the image of one mapped pattern neighbor.
            let tv_anchor = self.map[anchor as usize];
            let mut ok = true;
            let nbrs = self.target.neighbors(tv_anchor).to_vec();
            for nb in nbrs {
                let tv = nb.to;
                if nb.elabel != elabel
                    || self.used[tv as usize]
                    || self.target.vlabel(tv) != pl
                    || self.target.degree(tv) < pdeg
                {
                    continue;
                }
                if !self.consistent(&anchors[1..], tv) {
                    continue;
                }
                if !self.extend(depth, pv, tv, visit) {
                    ok = false;
                    break;
                }
            }
            ok
        } else {
            // First vertex of a (new) component: try every unused target vertex.
            let mut ok = true;
            for tv in 0..self.target.vertex_count() as VertexId {
                if self.used[tv as usize]
                    || self.target.vlabel(tv) != pl
                    || self.target.degree(tv) < pdeg
                {
                    continue;
                }
                if !self.extend(depth, pv, tv, visit) {
                    ok = false;
                    break;
                }
            }
            ok
        };
        self.mapped_neighbors[depth] = anchors;
        keep_going
    }

    /// All remaining mapped pattern neighbors must be connected to `tv`
    /// by a target edge with the right label.
    fn consistent(&self, rest: &[(VertexId, u32)], tv: VertexId) -> bool {
        rest.iter()
            .all(|&(nbr, el)| self.target.edge_label(self.map[nbr as usize], tv) == Some(el))
    }

    fn extend(
        &mut self,
        depth: usize,
        pv: VertexId,
        tv: VertexId,
        visit: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.map[pv as usize] = tv;
        self.used[tv as usize] = true;
        let cont = self.step(depth + 1, visit);
        self.used[tv as usize] = false;
        self.map[pv as usize] = UNMAPPED;
        cont
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
