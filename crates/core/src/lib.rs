//! # gdim-core — DS-preserved mapping for online graph search
//!
//! The paper's primary contribution (Zhu, Yu, Qin; PVLDB 8(1), 2014):
//! map every graph of a database `DG` — and any unseen query — onto a
//! small multidimensional space whose dimensions are frequent subgraphs,
//! such that Euclidean distance in the mapped space approximates the
//! MCS-based graph dissimilarity (**distance-preserving**), including
//! for graphs never seen at index time (**structure-preserving**).
//!
//! Pipeline:
//!
//! 1. Mine candidate features `F` with gSpan (`gdim-mining`).
//! 2. Build a [`FeatureSpace`] (binary matrix + inverted lists `IF`/`IG`,
//!    §5.1.2).
//! 3. Compute the pairwise dissimilarity matrix ([`delta`], §2).
//! 4. Run [`dspm`](dspm()) (Algorithms 1–4) — or [`dspmap`](dspmap())
//!    (Algorithms 5–7) for large databases — to select the `p` dimensions.
//! 5. Build a [`MappedDatabase`] and answer top-k similarity queries by
//!    mapping the query with VF2 and scanning the vectors ([`query`]).
//!
//! The serving surface over that pipeline is [`index::GraphIndex`]:
//! typed [`search::SearchRequest`] / [`search::SearchResponse`] top-k
//! search with pluggable rankers (mapped scan, exact MCS, two-phase
//! filter-then-verify), [`error::GdimError`] instead of panics on the
//! query path, versioned binary persistence ([`persist`]), and **live
//! updates** — online insert/remove with tombstoned rows and
//! epoch-stamped rebuilds (see the [`index`] module docs).
//!
//! Quality is evaluated with the paper's three measures
//! ([`measures`]: precision, top-k Kendall's tau, inverse rank
//! distance), against an 881-bit dictionary [`fingerprint`] benchmark
//! ranking (the PubChem-fingerprint substitute).
//!
//! ```
//! use gdim_core::prelude::*;
//! use gdim_mining::{mine, MinerConfig, Support};
//!
//! let db = gdim_datagen::chem_db(60, &gdim_datagen::ChemConfig::default(), 7);
//! let features = mine(&db, &MinerConfig::new(Support::Relative(0.1)).with_max_edges(4));
//! let space = FeatureSpace::build(db.len(), features);
//! let delta = DeltaMatrix::compute(&db, &DeltaConfig::default());
//! let result = dspm(&space, &delta, &DspmConfig::new(32));
//! let mapped = MappedDatabase::new(&space, &result.selected).unwrap();
//! let (hits, _) = mapped.scan_topk_masked(&mapped.map_query(&db[0]), 5, None);
//! assert_eq!(hits[0].0, 0); // the graph itself is its own best match
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gdim_exec as exec;

pub mod ann;
pub mod bitset;
pub mod chunked;
pub mod correlation;
pub mod delta;
pub mod dspm;
pub mod dspmap;
pub mod error;
pub mod featurespace;
pub mod fingerprint;
pub mod index;
pub mod measures;
pub mod persist;
pub mod query;
pub mod scan;
pub mod search;

/// One-stop imports for downstream users.
pub mod prelude {
    pub use crate::ann::{AnnIndex, AnnParams, AnnScanStats};
    pub use crate::bitset::Bitset;
    pub use crate::correlation::{correlation_score, jaccard};
    pub use crate::delta::{DeltaConfig, DeltaMatrix, SharedDelta};
    pub use crate::dspm::{dspm, DspmConfig, DspmResult};
    pub use crate::dspmap::{dspmap, DspmapConfig};
    pub use crate::error::GdimError;
    pub use crate::featurespace::{CodeTree, FeatureSpace, MatchStats};
    pub use crate::fingerprint::{FingerprintIndex, FINGERPRINT_BITS};
    pub use crate::index::{GraphIndex, IndexOptions, RebuildPolicy, SelectionStrategy};
    pub use crate::measures::{kendall_tau_topk, precision, rank_distance_inv};
    pub use crate::query::{
        exact_ranking, exact_ranking_among, exact_topk, MappedDatabase, MappingKind,
    };
    pub use crate::scan::{
        available_kernels, selected_kernel, KernelKind, ScanPlan, ScanStats, Tombstones, TopK,
        VectorStore,
    };
    pub use crate::search::{GraphId, Hit, Ranker, SearchRequest, SearchResponse, SearchStats};
    pub use gdim_exec::ExecConfig;
    pub use gdim_graph::{Dissimilarity, Graph, McsOptions};
}

pub use prelude::*;
