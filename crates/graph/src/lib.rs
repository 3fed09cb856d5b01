//! # gdim-graph — labeled-graph substrate
//!
//! Undirected labeled graphs and the costly graph operations that the
//! DS-preserved-mapping paper (Zhu, Yu, Qin; PVLDB 8(1), 2014) builds on:
//!
//! * [`Graph`] / [`GraphBuilder`] — simple undirected graphs with vertex
//!   and edge labels, the unit stored in a graph database `DG`.
//! * [`vf2`] — non-induced subgraph isomorphism (subgraph monomorphism),
//!   used to test whether a dimension/feature `f` is contained in a graph
//!   (`f ⊆ g`), exactly the role VF2 plays in the paper's query pipeline.
//! * [`dfscode`] — gSpan-style DFS codes and minimum (canonical) codes,
//!   the canonical form used by the frequent-subgraph miner.
//! * [`mcs`] — maximum common subgraph (edge count) via anytime
//!   branch-and-bound, the NP-hard kernel inside both dissimilarities.
//! * [`dissimilarity`] — the paper's δ1 (Eq. 1) and δ2 (Eq. 2).
//!
//! The crate is deliberately free of dependencies. Graphs are read and
//! written as text in the gSpan format implemented in [`io`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dfscode;
pub mod dissimilarity;
pub mod fxhash;
pub mod graph;
pub mod io;
pub mod mcs;
pub mod vf2;

pub use dissimilarity::{delta, Dissimilarity};
pub use graph::{Edge, Graph, GraphBuilder, GraphError, Neighbor};
pub use mcs::{mcs_edges, McsOptions, McsOutcome};

/// Vertex label. Labels are small dense integers; datasets interning
/// strings should map them to `u32` once at load time.
pub type VLabel = u32;
/// Edge label.
pub type ELabel = u32;
/// Vertex identifier, dense in `0..graph.vertex_count()`.
pub type VertexId = u32;
