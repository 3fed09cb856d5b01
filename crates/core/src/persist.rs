//! Versioned binary persistence for [`GraphIndex`]: build once, serve
//! from disk.
//!
//! Layout of the current format, **v3** (all integers little-endian,
//! lengths as `u64`):
//!
//! ```text
//! magic    8 B   b"GDIMIDX\0"
//! version  u32   3
//! δ kind   u8    0 = δ1 (MaxNorm), 1 = δ2 (AvgNorm)
//! precheck u8    MCS containment pre-check flag
//! budget   u64   MCS node budget
//! reserved u8    must be 0 (an index stores binary vectors;
//!                weighted requests are served from derived weights)
//! stats    mined_features u64 · dimensions u64 · used_dspmap u8 ·
//!          delta_pairs u64 · three phase times as nanos u64
//! db       n u64, then per graph: |V| u64 · vlabels u32* ·
//!          |E| u64 · (u, v, label) u32³ per edge
//! features m u64, then per feature: pattern graph (as above) ·
//!          code len u64 · (from, to, l_from, l_e, l_to) u32⁵ per edge ·
//!          support len u64 · graph ids u32*
//! selected p u64 · feature ids u32*
//! weights  len u64 · IEEE-754 bit patterns u64*
//! -- tail (dynamic-index state + build options) ---------------------
//! options  min_support tag u8 (0 = relative, 1 = absolute) ·
//!          value u64 (f64 bits when relative) ·
//!          max_pattern_edges u64 · requested dimensions u64 ·
//!          strategy tag u8 (0 = DSPM, 1 = DSPMap, 2 = auto) ·
//!          strategy param u64 (0 / partition size / threshold) ·
//!          seed u64 · rebuild max_inserts u64 ·
//!          rebuild max_tombstone_frac f64 bits
//! epoch    u64   rebuild generation
//! pending  u64   inserts accumulated since the last rebuild
//! tombs    count u64 · strictly ascending dead graph ids u32*
//! -- ANN section (optional proximity graph) -------------------------
//! ann flag u8    0 = no graph persisted, 1 = present
//! ann      (when present) m u64 · ef_construction u64 · seed u64 ·
//!          entry u32 · built_n u64 · per-node level u8* ·
//!          per node, per layer 0..=level: count u32 · neighbor u32*
//! ```
//!
//! The tail exists because the index is **dynamic**: removed graphs
//! are persisted with their tombstone (ids must stay stable across a
//! save/load), the epoch survives restarts, and the retained build
//! options let the owner of a reloaded index rebuild it with exactly
//! the pipeline that produced it.
//!
//! **What `features` holds.** An index keeps its `p` dimensions, not
//! the `m` features they were selected from, so the encoder writes
//! exactly the dimensions: `p` feature records in column order, each
//! support the ascending ids of the rows whose vector has that column
//! set (build-time rows and online inserts alike), `selected = 0, 1,
//! …, p − 1`, and `p` weights. A file written while an index still
//! retained its mined space holds all `m` mined features, the ids of
//! the selected ones among them and `m` weights; the decoder reads
//! both the same way — it keeps the features `selected` names, in that
//! order, with their weights, and discards the rest — so there is one
//! layout and one decoder.
//!
//! v3 is the only format read or written: a header stamped 1 or 2
//! answers [`GdimError::UnsupportedVersion`] (nothing outside this
//! repository ever wrote those). The ANN graph is the one piece of
//! *derived* state that **is** persisted when present: unlike the scan
//! store it costs O(n·ef_construction) distance evaluations to
//! rebuild, so a serving restart should not have to re-pay the build
//! to keep its latency budget.
//!
//! Derived state — the flat
//! [`VectorStore`](crate::scan::VectorStore) of mapped vectors (row
//! `i` has column `c` set iff `i` is in dimension `c`'s support), the
//! [`CodeTree`](crate::featurespace::CodeTree) that maps queries and
//! inserts (a prefix tree over the dimensions' DFS codes), and the
//! weighted scan weights —
//! is **not** persisted: it is rebuilt deterministically on load,
//! which keeps the format small and makes a reloaded index answer
//! byte-identically to the one that was saved, grown and tombstoned
//! or not. The exec budget
//! is deliberately not persisted either — core counts belong to the
//! serving machine, not the index file
//! ([`GraphIndex::set_exec`](crate::index::GraphIndex::set_exec)).
//!
//! The bytes are written and read with the shared [`gdim_wal::codec`]
//! (graphs at `u64` width). Every count above — `n`, `m`, `p`, a
//! length, `built_n`, an ANN degree — obeys the count rule of
//! [`Reader::count`](gdim_wal::codec::Reader::count); the stats are
//! plain counters. Every structural defect surfaces as
//! [`GdimError::Corrupt`] (or [`GdimError::UnsupportedVersion`] for
//! any other format version), never a panic.
//!
//! **Role in the durable layout.** Under a `--durable` directory
//! (`gdim_shard::durable`) an index file is one shard's snapshot
//! inside a `gen-NNNNNN/` checkpoint, beside a write-ahead log
//! (`wal-NNNNNN.log`) holding the mutations acked after the checkpoint
//! was cut; opening the directory loads the newest complete generation
//! through this module and replays the log suffix on top. Every save
//! ([`GraphIndex::save`](crate::index::GraphIndex::save)) is crash-safe
//! (temp file → fsync → rename → fsync parent directory).

use gdim_graph::dfscode::{DfsCode, DfsEdge};
use gdim_graph::{Dissimilarity, McsOptions};
use gdim_mining::{Feature, Support};
use gdim_wal::codec::{
    put_count, put_f64, put_graph, put_u32, put_u64, put_u8, CodecError, Reader, Width,
};

use crate::delta::DeltaConfig;
use crate::error::GdimError;
use crate::index::{GraphIndex, IndexOptions, IndexStats, RebuildPolicy, SelectionStrategy};
use crate::scan::Tombstones;

pub(crate) const MAGIC: [u8; 8] = *b"GDIMIDX\0";
/// The one format version this build reads and writes.
pub(crate) const VERSION: u32 = 3;
/// The width of every count in the format (an ANN degree excepted).
const W: Width = Width::U64;

// ---------------------------------------------------------------- write

/// One feature record. `support` is passed beside the feature because
/// the index keeps it as a store column; `f.support` is whatever the
/// feature was mined or loaded with and misses the online inserts.
fn put_feature(buf: &mut Vec<u8>, f: &Feature, support: &[u32]) {
    put_graph(buf, &f.graph, W);
    put_count(buf, f.code.len(), W);
    for e in &f.code.0 {
        for v in [e.from, e.to, e.from_label, e.elabel, e.to_label] {
            put_u32(buf, v);
        }
    }
    put_count(buf, support.len(), W);
    for &gid in support {
        put_u32(buf, gid);
    }
}

/// Serializes an index (format documented in the module docs).
pub(crate) fn encode(index: &GraphIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_head(index, &mut buf);
    encode_dimensions(index, &mut buf);
    encode_tail(index, &mut buf);
    encode_ann(index, &mut buf);
    buf
}

/// The head: header + stats + graphs (everything up to `features`).
fn encode_head(index: &GraphIndex, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC);
    put_u32(buf, VERSION);

    let cfg = index.delta_config();
    put_u8(
        buf,
        match cfg.kind {
            Dissimilarity::MaxNorm => 0,
            Dissimilarity::AvgNorm => 1,
        },
    );
    put_u8(buf, cfg.mcs.containment_precheck as u8);
    put_u64(buf, cfg.mcs.node_budget);
    // Reserved byte. A built index always stores binary vectors — the
    // weighted mapping is served from the same vectors via the derived
    // DSPM weights, never baked into the mapped database — so there
    // is nothing to record here.
    put_u8(buf, 0);

    let stats = index.stats();
    put_u64(buf, stats.mined_features as u64);
    put_u64(buf, stats.dimensions as u64);
    put_u8(buf, stats.used_dspmap as u8);
    put_u64(buf, stats.delta_pairs as u64);
    for t in [stats.mining_time, stats.delta_time, stats.selection_time] {
        put_u64(buf, t.as_nanos().min(u64::MAX as u128) as u64);
    }

    put_count(buf, index.len(), W);
    for g in index.graphs() {
        put_graph(buf, g, W);
    }
}

/// The `features` / `selected` / `weights` sections: the index's `p`
/// dimensions, each with its store column as support, selected
/// `0..p` (see "What `features` holds" in the module docs).
fn encode_dimensions(index: &GraphIndex, buf: &mut Vec<u8>) {
    let mapped = index.mapped();
    let mut supports = vec![Vec::new(); mapped.p()];
    for i in 0..mapped.len() {
        for col in mapped.vector(i).iter_ones() {
            supports[col].push(i as u32);
        }
    }
    put_count(buf, mapped.p(), W);
    for (f, support) in mapped.features().iter().zip(&supports) {
        put_feature(buf, f, support);
    }
    put_count(buf, mapped.p(), W);
    for col in 0..mapped.p() {
        put_u32(buf, col as u32);
    }
    put_count(buf, index.weights().len(), W);
    for &w in index.weights() {
        put_f64(buf, w);
    }
}

/// The tail: retained build options + dynamic state (see the module
/// docs).
fn encode_tail(index: &GraphIndex, buf: &mut Vec<u8>) {
    let opts = index.options();
    match opts.min_support {
        Support::Relative(tau) => {
            put_u8(buf, 0);
            put_f64(buf, tau);
        }
        Support::Absolute(s) => {
            put_u8(buf, 1);
            put_u64(buf, s as u64);
        }
    }
    put_u64(buf, opts.max_pattern_edges as u64);
    put_u64(buf, opts.dimensions as u64);
    let (tag, param) = match opts.strategy {
        SelectionStrategy::Dspm => (0, 0),
        SelectionStrategy::Dspmap { partition_size } => (1, partition_size),
        SelectionStrategy::Auto { threshold } => (2, threshold),
    };
    put_u8(buf, tag);
    put_u64(buf, param as u64);
    put_u64(buf, opts.seed);
    put_u64(buf, opts.rebuild.max_inserts as u64);
    put_f64(buf, opts.rebuild.max_tombstone_frac);
    put_u64(buf, index.epoch());
    put_u64(buf, index.pending_inserts() as u64);
    let dead = index.tombstones().dead_ids();
    put_count(buf, dead.len(), W);
    for id in dead {
        put_u32(buf, id);
    }
}

/// The ANN section: the proximity graph, **iff one was built** —
/// saving never forces the O(n·ef_construction) build, it only keeps
/// a graph the serving path already paid for.
fn encode_ann(index: &GraphIndex, buf: &mut Vec<u8>) {
    let Some(ann) = index.ann_if_built() else {
        put_u8(buf, 0);
        return;
    };
    put_u8(buf, 1);
    let params = ann.params();
    put_u64(buf, params.m as u64);
    put_u64(buf, params.ef_construction as u64);
    put_u64(buf, params.seed);
    put_u32(buf, ann.entry());
    put_count(buf, ann.built_n(), W);
    buf.extend_from_slice(ann.levels());
    for layers in ann.links() {
        for list in layers {
            put_count(buf, list.len(), Width::U32);
            for &nb in list {
                put_u32(buf, nb);
            }
        }
    }
}

// ----------------------------------------------------------------- read

/// A feature record written by [`put_feature`].
fn feature(r: &mut Reader) -> Result<Feature, CodecError> {
    let graph = r.graph(W)?;
    let code = r.list(W, 20, |r| {
        Ok(DfsEdge {
            from: r.u32()?,
            to: r.u32()?,
            from_label: r.u32()?,
            elabel: r.u32()?,
            to_label: r.u32()?,
        })
    })?;
    let support = r.list(W, 4, Reader::u32)?;
    Ok(Feature {
        graph,
        code: DfsCode(code),
        support,
    })
}

/// Deserializes an index written by [`encode`], rebuilding derived
/// state deterministically.
pub(crate) fn decode(bytes: &[u8]) -> Result<GraphIndex, GdimError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(GdimError::Corrupt("bad magic (not a gdim index)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(GdimError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = match r.u8()? {
        0 => Dissimilarity::MaxNorm,
        1 => Dissimilarity::AvgNorm,
        other => {
            return Err(GdimError::Corrupt(format!(
                "dissimilarity tag {other} unknown"
            )))
        }
    };
    let containment_precheck = r.flag()?;
    let node_budget = r.u64()?;
    match r.u8()? {
        0 => {}
        other => {
            return Err(GdimError::Corrupt(format!(
                "reserved byte is {other}, expected 0"
            )))
        }
    }
    // Stats are plain counters, not element counts: they are not held
    // to the count rule (`delta_pairs` is quadratic in `n` and
    // legitimately exceeds the file size at scale).
    let stats = IndexStats {
        mined_features: r.u64()? as usize,
        dimensions: r.u64()? as usize,
        used_dspmap: r.flag()?,
        delta_pairs: r.u64()? as usize,
        mining_time: std::time::Duration::from_nanos(r.u64()?),
        delta_time: std::time::Duration::from_nanos(r.u64()?),
        selection_time: std::time::Duration::from_nanos(r.u64()?),
    };

    // A graph takes at least its two counts; a feature its graph's two
    // plus its code's and its support's.
    let db = r.list(W, 16, |r| r.graph(W))?;
    let n = db.len();
    let features = r.list(W, 32, feature)?;
    let selected = r.list(W, 4, Reader::u32)?;
    let weights = r.list(W, 8, Reader::f64)?;

    let delta = DeltaConfig {
        kind,
        mcs: McsOptions {
            node_budget,
            containment_precheck,
        },
        ..DeltaConfig::default()
    };
    // The tail: build options + dynamic state.
    let min_support = match r.u8()? {
        0 => Support::Relative(r.f64()?),
        1 => Support::Absolute(r.u64()? as usize),
        other => {
            return Err(GdimError::Corrupt(format!("support tag {other} unknown")));
        }
    };
    let max_pattern_edges = r.u64()? as usize;
    let dimensions = r.u64()? as usize;
    let strategy_tag = r.u8()?;
    let strategy_param = r.u64()? as usize;
    let strategy = match strategy_tag {
        0 => SelectionStrategy::Dspm,
        1 => SelectionStrategy::Dspmap {
            partition_size: strategy_param,
        },
        2 => SelectionStrategy::Auto {
            threshold: strategy_param,
        },
        other => {
            return Err(GdimError::Corrupt(format!("strategy tag {other} unknown")));
        }
    };
    let seed = r.u64()?;
    let rebuild = RebuildPolicy {
        max_inserts: r.u64()? as usize,
        max_tombstone_frac: r.f64()?,
    };
    let opts = IndexOptions {
        dimensions,
        min_support,
        max_pattern_edges,
        strategy,
        delta,
        seed,
        rebuild,
    };
    let epoch = r.u64()?;
    let pending = r.u64()? as usize;
    let dead = r.list(W, 4, Reader::u32)?;
    if let Some(w) = dead.windows(2).find(|w| w[1] <= w[0]) {
        return Err(GdimError::Corrupt(format!(
            "tombstone ids not strictly ascending at {}",
            w[1]
        )));
    }
    let mut tombstones = Tombstones::all_live(n);
    for id in dead {
        if id as usize >= n {
            return Err(GdimError::Corrupt(format!(
                "tombstone id {id} out of {n} graphs"
            )));
        }
        tombstones.mark_dead(id as usize);
    }
    // The ANN section: an optional persisted proximity graph (absent,
    // it rebuilds lazily on the first approximate query).
    let ann = if r.flag()? {
        let params = crate::ann::AnnParams::default()
            .with_m(r.u64()? as usize)
            .with_ef_construction(r.u64()? as usize)
            .with_seed(r.u64()?);
        let entry = r.u32()?;
        // A node takes at least its level byte and its layer-0 degree.
        let built_n = r.count(W, 5)?;
        if built_n > n {
            return Err(GdimError::Corrupt(format!(
                "ANN graph covers {built_n} rows but the store has {n}"
            )));
        }
        let levels = r.take(built_n)?.to_vec();
        let links = (levels.iter())
            .map(|&level| {
                (0..=level)
                    .map(|_| r.list(Width::U32, 4, Reader::u32))
                    .collect()
            })
            .collect::<Result<_, CodecError>>()?;
        Some(
            crate::ann::AnnIndex::from_parts(params, entry, levels, links)
                .map_err(|e| GdimError::Corrupt(format!("inconsistent ANN graph: {e}")))?,
        )
    } else {
        None
    };
    r.finish()?;

    let index = GraphIndex::from_parts(
        db, features, selected, weights, opts, stats, epoch, tombstones, pending,
    )
    // Structurally valid bytes can still describe an inconsistent
    // index (selected id outside the space, wrong weights length);
    // from a file, that is corruption too.
    .map_err(|e| GdimError::Corrupt(format!("inconsistent index payload: {e}")))?;
    if let Some(ann) = ann {
        index.set_ann(ann);
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexOptions;
    use crate::query::MappingKind;
    use crate::search::{Ranker, SearchRequest};
    use gdim_graph::Graph;

    fn index(n: usize, seed: u64) -> GraphIndex {
        let db = gdim_datagen::chem_db(n, &gdim_datagen::ChemConfig::default(), seed);
        GraphIndex::build(db, IndexOptions::default().with_dimensions(20))
    }

    /// `a` and `b` answer every ranker under both mappings identically.
    fn assert_same_answers<'q>(
        a: &GraphIndex,
        b: &GraphIndex,
        queries: impl IntoIterator<Item = &'q Graph>,
    ) {
        let approx = Ranker::Approx {
            ef: 30,
            verify: None,
        };
        let refined = Ranker::Refined { candidates: 6 };
        for q in queries {
            for ranker in [Ranker::Mapped, Ranker::Exact, refined, approx] {
                for mapping in [MappingKind::Binary, MappingKind::Weighted] {
                    let req = SearchRequest::new(6).ranker(ranker).mapping(mapping);
                    let (a, b) = (a.search(q, &req).unwrap(), b.search(q, &req).unwrap());
                    assert_eq!(a.hits, b.hits, "{ranker:?}, {mapping:?}");
                }
            }
        }
    }

    /// A snapshot written by an earlier build of this encoder: 10
    /// graphs built with 8 dimensions, an ANN graph over them, then one
    /// insert (pending) and two removes (tombstones). A round trip
    /// cannot see a change made the same way to the encoder and the
    /// decoder; a file written before the change can.
    const FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v3-small.idx");

    #[test]
    fn committed_v3_fixture_reencodes_byte_identically() {
        let idx = GraphIndex::from_bytes(FIXTURE).unwrap();
        assert_eq!((idx.len(), idx.p()), (11, 8));
        assert_eq!(idx.pending_inserts(), 1);
        assert_eq!(idx.tombstones().dead_ids(), vec![1, 6]);
        assert_eq!(idx.ann_if_built().map(|a| a.built_n()), Some(10));
        // The three phase times (nanos at offsets 48, 56, 64) come back
        // verbatim.
        let nanos = |at: usize| u64::from_le_bytes(FIXTURE[at..at + 8].try_into().unwrap());
        let s = idx.stats();
        assert_eq!(
            [s.mining_time, s.delta_time, s.selection_time].map(|t| t.as_nanos() as u64),
            [nanos(48), nanos(56), nanos(64)]
        );
        assert!(nanos(56) > 0);
        assert_eq!(idx.to_bytes(), FIXTURE);
    }

    #[test]
    fn bytes_roundtrip_is_lossless_and_stable() {
        let idx = index(18, 5);
        let bytes = idx.to_bytes();
        let back = GraphIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert!(back.graphs().eq(idx.graphs()));
        assert!(back.mapped().codes().eq(idx.mapped().codes()));
        assert_eq!(back.weights(), idx.weights());
        assert_eq!(back.dissimilarity(), idx.dissimilarity());
        assert_eq!(back.stats().mined_features, idx.stats().mined_features);
        // Re-encoding the reload reproduces the bytes exactly.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn reloaded_index_answers_identically() {
        let idx = index(16, 7);
        let back = GraphIndex::from_bytes(&idx.to_bytes()).unwrap();
        let queries = gdim_datagen::chem_db(3, &gdim_datagen::ChemConfig::default(), 99);
        assert_same_answers(&idx, &back, &queries);
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let idx = index(6, 9);
        let mut bytes = idx.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            GraphIndex::from_bytes(&bytes),
            Err(GdimError::Corrupt(_))
        ));
        let mut bytes = idx.to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            GraphIndex::from_bytes(&bytes),
            Err(GdimError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            })
        ));
    }

    #[test]
    fn truncation_and_trailing_garbage_are_corrupt() {
        let idx = index(6, 11);
        let bytes = idx.to_bytes();
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    GraphIndex::from_bytes(&bytes[..cut]),
                    Err(GdimError::Corrupt(_))
                ),
                "cut at {cut}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            GraphIndex::from_bytes(&longer),
            Err(GdimError::Corrupt(_))
        ));
    }

    #[test]
    fn quadratic_delta_pairs_stat_survives_reload() {
        // delta_pairs = n(n-1)/2 exceeds the file size at realistic
        // database scale; the decoder must not apply the element-count
        // sanity cap to plain counters. Patch the persisted stat to a
        // value far beyond the file length and reload.
        let idx = index(6, 13);
        let mut bytes = idx.to_bytes();
        // Layout: magic 8 + version 4 + kind 1 + precheck 1 + budget 8
        // + mapping 1 = 23; mined_features u64 @23, dimensions u64 @31,
        // used_dspmap u8 @39, delta_pairs u64 @40.
        let huge: u64 = 1_999_000;
        assert!(huge > bytes.len() as u64);
        bytes[40..48].copy_from_slice(&huge.to_le_bytes());
        let back = GraphIndex::from_bytes(&bytes).expect("counters bypass the length cap");
        assert_eq!(back.stats().delta_pairs, huge as usize);
    }

    #[test]
    fn inconsistent_payload_surfaces_as_corrupt() {
        // Structurally parseable bytes whose selected ids point outside
        // the feature space must be Corrupt, not DimensionOutOfRange —
        // callers quarantine index files by matching on Corrupt.
        let idx = index(8, 15);
        let p = idx.p();
        let wn = idx.weights().len();
        assert!(p > 0);
        let mut bytes = idx.to_bytes();
        // The selected ids are the p u32s immediately before the
        // weights block (8-byte count + 8 bytes per weight), which is
        // followed by the options/dynamic-state tail.
        let mut tail = Vec::new();
        encode_tail(&idx, &mut tail);
        let mut ann = Vec::new();
        encode_ann(&idx, &mut ann);
        let sel_start = bytes.len() - ann.len() - tail.len() - (8 + 8 * wn) - 4 * p;
        bytes[sel_start..sel_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match GraphIndex::from_bytes(&bytes) {
            Err(GdimError::Corrupt(msg)) => {
                assert!(msg.contains("inconsistent"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_feature_code_that_is_not_its_graphs_is_corrupt() {
        // The mapper walks a feature's DFS code, not its graph: a
        // snapshot whose code names a vertex the graph lacks, skips a
        // DFS index or spells other labels must not load (and must not
        // panic or mis-map later). Mutate one field of one code edge
        // of an otherwise valid snapshot.
        let idx = index(12, 15);
        let bytes = idx.to_bytes();
        let f = (idx.mapped().features().iter())
            .find(|f| f.code.len() >= 2)
            .expect("a two-edge feature is selected");
        // The feature's record starts with its graph; its code follows
        // an 8-byte count, 20 bytes per edge.
        let mut graph = Vec::new();
        put_graph(&mut graph, &f.graph, W);
        let mut record = Vec::new();
        put_feature(&mut record, f, &f.support); // fresh build: as mined
        let at = (0..bytes.len() - record.len())
            .find(|&i| bytes[i..].starts_with(&record))
            .expect("the record is in the snapshot");
        let field = |edge: usize, word: usize| at + graph.len() + 8 + 20 * edge + 4 * word;
        let last = f.code.len() - 1;
        for (what, offset, value) in [
            (
                "a vertex the graph lacks",
                field(last, 0),
                f.graph.vertex_count() as u32,
            ),
            ("a skipped DFS index", field(1, 1), f.code.0[1].to + 1),
            ("another edge label", field(0, 3), f.code.0[0].elabel + 1),
        ] {
            let mut bad = bytes.clone();
            bad[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            match GraphIndex::from_bytes(&bad) {
                Err(GdimError::Corrupt(msg)) => assert!(msg.contains("code"), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = GraphIndex::build(Vec::new(), IndexOptions::default());
        let back = GraphIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.to_bytes(), idx.to_bytes());
    }

    #[test]
    fn older_format_versions_are_unsupported() {
        let idx = index(6, 17);
        for old in [1u32, 2] {
            let mut bytes = idx.to_bytes();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            match GraphIndex::from_bytes(&bytes) {
                Err(GdimError::UnsupportedVersion {
                    found,
                    supported: 3,
                }) => assert_eq!(found, old),
                other => panic!("version {old}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn dirty_index_roundtrips_tombstones_epoch_and_options() {
        let db = gdim_datagen::chem_db(14, &gdim_datagen::ChemConfig::default(), 19);
        let extra = gdim_datagen::chem_db(3, &gdim_datagen::ChemConfig::default(), 91);
        let built = GraphIndex::build(
            db,
            IndexOptions::default()
                .with_dimensions(18)
                .with_rebuild_policy(crate::index::RebuildPolicy {
                    max_inserts: 7,
                    max_tombstone_frac: 0.5,
                }),
        );
        // Reassembled at epoch 1, so a non-zero epoch is exercised.
        let mut idx = GraphIndex::from_parts(
            built.graphs().cloned().collect(),
            built.mapped().features().to_vec(),
            (0..built.p() as u32).collect(),
            built.weights().to_vec(),
            built.options().clone(),
            built.stats().clone(),
            1,
            Tombstones::all_live(built.len()),
            0,
        )
        .unwrap();
        for g in &extra {
            idx.insert(g.clone());
        }
        idx.remove(crate::search::GraphId(2)).unwrap();
        idx.remove(crate::search::GraphId(15)).unwrap(); // an inserted row
        let bytes = idx.to_bytes();
        // The feature count follows the head: the p dimensions, not
        // the m features they were selected from.
        let mut head = Vec::new();
        encode_head(&idx, &mut head);
        let count = u64::from_le_bytes(bytes[head.len()..head.len() + 8].try_into().unwrap());
        assert_eq!(count as usize, idx.p());
        assert!(idx.p() < idx.stats().mined_features);
        let back = GraphIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.stats().mined_features, idx.stats().mined_features);
        assert_eq!(back.epoch(), 1);
        assert_eq!(back.pending_inserts(), 3);
        assert_eq!(back.tombstone_count(), 2);
        assert_eq!(back.tombstones().dead_ids(), vec![2, 15]);
        assert_eq!(back.options().rebuild.max_inserts, 7);
        assert_eq!(back.len(), idx.len());
        // Byte-stable re-encode, and identical answers — including for
        // a query that *is* an inserted graph.
        assert_eq!(back.to_bytes(), bytes);
        assert_same_answers(&idx, &back, extra.iter().chain([idx.graph(2).unwrap()]));
        let own = back.search(&extra[0], &SearchRequest::new(17)).unwrap();
        assert_eq!(own.hits.len(), 15, "every live row, no dead one");
        assert!(own.hits.iter().all(|h| ![2, 15].contains(&h.id.get())));
    }

    #[test]
    fn a_snapshot_that_still_holds_the_mined_space_loads_and_answers_identically() {
        // A v3 file in the shape written while an index retained its
        // mined space — all m features with supports over every row,
        // the selected ids among them, m weights — built by hand
        // around the head, tail and ANN section of an index grown past
        // a chunk seal and tombstoned on both sides of the build line.
        let db = gdim_datagen::chem_db(14, &gdim_datagen::ChemConfig::default(), 29);
        let extra = gdim_datagen::chem_db(40, &gdim_datagen::ChemConfig::default(), 92);
        let mut idx = GraphIndex::build(db.clone(), IndexOptions::default().with_dimensions(18));
        for g in &extra {
            idx.insert(g.clone());
        }
        for id in [2, 15, 53] {
            idx.remove(crate::search::GraphId(id)).unwrap();
        }
        idx.ann();
        let opts = idx.options();
        let mined = gdim_mining::mine(
            &db,
            &gdim_mining::MinerConfig::new(opts.min_support).with_max_edges(opts.max_pattern_edges),
        );
        let (m, p) = (mined.len(), idx.p());
        assert_eq!(m, idx.stats().mined_features);
        assert!(m > p);
        let selected: Vec<u32> = (idx.mapped().codes())
            .map(|code| mined.iter().position(|f| &f.code == code).unwrap() as u32)
            .collect();
        let mut weights = vec![0.5; m];
        for (&r, &w) in selected.iter().zip(idx.weights()) {
            weights[r as usize] = w;
        }
        let mut bytes = Vec::new();
        encode_head(&idx, &mut bytes);
        put_count(&mut bytes, m, W);
        for f in &mined {
            let inserted = (0..extra.len())
                .filter(|&j| gdim_graph::vf2::is_subgraph_iso(&f.graph, &extra[j]))
                .map(|j| (db.len() + j) as u32);
            let support: Vec<u32> = f.support.iter().copied().chain(inserted).collect();
            put_feature(&mut bytes, f, &support);
        }
        put_count(&mut bytes, p, W);
        for &r in &selected {
            put_u32(&mut bytes, r);
        }
        put_count(&mut bytes, m, W);
        for &w in &weights {
            put_f64(&mut bytes, w);
        }
        encode_tail(&idx, &mut bytes);
        encode_ann(&idx, &mut bytes);

        // The decoder keeps the selected features and discards the
        // rest: the loaded index is the index that would have written
        // the file, byte for byte in today's shape, answer for answer.
        let old = GraphIndex::from_bytes(&bytes).unwrap();
        assert_eq!((old.p(), old.weights()), (p, idx.weights()));
        let today = idx.to_bytes();
        assert_eq!(old.to_bytes(), today);
        assert_eq!(GraphIndex::from_bytes(&today).unwrap().to_bytes(), today);
        assert_same_answers(&old, &idx, extra.iter().take(3).chain(&db[..2]));
    }

    #[test]
    fn corrupt_tail_is_a_typed_error() {
        let mut idx = index(8, 21);
        idx.remove(crate::search::GraphId(3)).unwrap();
        let good = idx.to_bytes();
        // Tombstone id out of range: the 4 bytes before the trailing
        // ANN flag are the only dead id; overwrite with an absurd one.
        let mut bad = good.clone();
        let at = bad.len() - 5;
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            GraphIndex::from_bytes(&bad),
            Err(GdimError::Corrupt(_))
        ));
        // Unknown strategy tag inside the tail.
        let mut tail = Vec::new();
        encode_tail(&idx, &mut tail);
        let mut ann = Vec::new();
        encode_ann(&idx, &mut ann);
        let body_len = good.len() - ann.len() - tail.len();
        // Tail layout: tag u8 + u64 + u64 + u64 = 25 bytes before the
        // strategy tag.
        let mut bad = good.clone();
        bad[body_len + 25] = 9;
        assert!(matches!(
            GraphIndex::from_bytes(&bad),
            Err(GdimError::Corrupt(_))
        ));
    }

    #[test]
    fn ann_graph_persists_and_roundtrips() {
        let idx = index(30, 23);
        // A clean save carries no graph (flag 0): the save path never
        // forces the build, and a reload rebuilds lazily when asked.
        let cold = GraphIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert!(cold.ann_if_built().is_none());
        // Force the build and save again: the graph rides along.
        idx.ann();
        let bytes = idx.to_bytes();
        let back = GraphIndex::from_bytes(&bytes).unwrap();
        let (a, b) = (idx.ann_if_built().unwrap(), back.ann_if_built().unwrap());
        assert_eq!(a.entry(), b.entry());
        assert_eq!(a.levels(), b.levels());
        assert_eq!(a.links(), b.links());
        assert_eq!(back.to_bytes(), bytes);
        let req = SearchRequest::new(5).ranker(Ranker::Approx {
            ef: 30,
            verify: None,
        });
        let q = idx.graph(7).unwrap().clone();
        let fresh = idx.search(&q, &req).unwrap();
        let warm = back.search(&q, &req).unwrap();
        assert_eq!(fresh.hits, warm.hits);
        assert!(warm.stats.approximate);
        // Mangling the ANN section is typed corruption, not a panic.
        let mut bad = bytes.clone();
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            GraphIndex::from_bytes(&bad),
            Err(GdimError::Corrupt(_))
        ));
    }
}
