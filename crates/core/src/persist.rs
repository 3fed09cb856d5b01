//! Versioned binary persistence for [`GraphIndex`]: build once, serve
//! from disk.
//!
//! Layout of the current format, **v4** (all integers little-endian,
//! lengths as `u64`):
//!
//! ```text
//! magic    8 B   b"GDIMIDX\0"
//! version  u32   4
//! δ kind   u8    0 = δ1 (MaxNorm), 1 = δ2 (AvgNorm)
//! precheck u8    MCS containment pre-check flag
//! budget   u64   MCS node budget
//! stats    mined_features u64 · used_dspmap u8 · delta_pairs u64 ·
//!          three phase times as nanos u64
//! db       n u64, then per graph: |V| u64 · vlabels u32* ·
//!          |E| u64 · (u, v, label) u32³ per edge
//! dims     p u64, then per dimension: code len u64 ·
//!          (from, to, l_from, l_e, l_to) u32⁵ per edge
//! rows     n × ⌈p/64⌉ store words u64, row-major, tombstoned rows
//!          included; every bit at or above p is 0
//! weights  p IEEE-754 bit patterns u64, column order
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
//! ann      (when present) m u64 · ef_construction u64 · seed u64
//!          (always the build's constants 16 · 100 · 0x9D1A77C45EED0001;
//!          any other value is corrupt) ·
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
//! **What `dims` and `rows` hold.** Exactly what the index holds: its
//! `p` dimensions — each a DFS code, whose pattern graph is
//! [`DfsCode::to_graph`] — and one binary vector per row over them,
//! the words of the scan [`VectorStore`] as they are. A dimension's
//! support is its store column, so no support list is written, and
//! the `m` mined features the dimensions were chosen from are not
//! part of the index (only their count, in the stats).
//!
//! v4 is the only format read or written: a header stamped 1, 2 or 3
//! answers [`GdimError::UnsupportedVersion`] (nothing outside this
//! repository ever wrote those). The ANN graph is persisted when
//! present: it costs O(n·ef_construction) distance evaluations to
//! rebuild, so a serving restart should not have to re-pay the build
//! to keep its latency budget.
//!
//! Derived state — the [`CodeTree`](crate::featurespace::CodeTree)
//! that maps queries and inserts (a prefix tree over the dimensions'
//! DFS codes) and the weighted scan weights — is **not** persisted: it
//! is rebuilt deterministically on load, so a reloaded index answers
//! byte-identically to the one that was saved, grown and tombstoned or
//! not. The exec budget is deliberately not persisted either — core
//! counts belong to the serving machine, not the index file
//! ([`GraphIndex::set_exec`](crate::index::GraphIndex::set_exec)).
//!
//! The bytes are written and read with the shared [`gdim_wal::codec`]
//! (graphs at `u64` width). Every count above — `n`, `p`, a length,
//! `built_n`, an ANN degree — obeys the count rule of
//! [`Reader::count`](gdim_wal::codec::Reader::count); the stats are
//! plain counters, and the row and weight sections take their lengths
//! from `n` and `p`. Every structural defect surfaces as
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
use gdim_mining::Support;
use gdim_wal::codec::{
    put_count, put_f64, put_graph, put_u32, put_u64, put_u8, CodecError, Reader, Width,
};

use crate::ann;
use crate::delta::DeltaConfig;
use crate::error::GdimError;
use crate::index::{GraphIndex, IndexOptions, IndexStats, RebuildPolicy, SelectionStrategy};
use crate::scan::{Tombstones, VectorStore};

pub(crate) const MAGIC: [u8; 8] = *b"GDIMIDX\0";
/// The one format version this build reads and writes.
pub(crate) const VERSION: u32 = 4;
/// The width of every count in the format (an ANN degree excepted).
const W: Width = Width::U64;

// ---------------------------------------------------------------- write

/// Serializes an index (format documented in the module docs).
pub(crate) fn encode(index: &GraphIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_head(index, &mut buf);
    encode_dimensions(index, &mut buf);
    encode_tail(index, &mut buf);
    encode_ann(index, &mut buf);
    buf
}

/// The head: header + stats + graphs (everything up to `dims`).
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

    let stats = index.stats();
    put_u64(buf, stats.mined_features as u64);
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

/// The `dims` / `rows` / `weights` sections: the index's `p` codes,
/// its store words and its `p` weights (see "What `dims` and `rows`
/// hold" in the module docs).
fn encode_dimensions(index: &GraphIndex, buf: &mut Vec<u8>) {
    let mapped = index.mapped();
    put_count(buf, mapped.p(), W);
    for code in mapped.codes() {
        put_count(buf, code.len(), W);
        for e in &code.0 {
            for v in [e.from, e.to, e.from_label, e.elabel, e.to_label] {
                put_u32(buf, v);
            }
        }
    }
    let store = mapped.store();
    for i in 0..store.len() {
        for &w in store.row(i) {
            put_u64(buf, w);
        }
    }
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
    put_u64(buf, ann::M as u64);
    put_u64(buf, ann::EF_CONSTRUCTION as u64);
    put_u64(buf, ann::SEED);
    put_u32(buf, ann.entry());
    put_count(buf, ann.built_n(), W);
    buf.extend_from_slice(ann.levels());
    for (node, &level) in ann.levels().iter().enumerate() {
        for layer in 0..=level as usize {
            let list = ann.neighbors(node as u32, layer);
            put_count(buf, list.len(), Width::U32);
            for &nb in list {
                put_u32(buf, nb);
            }
        }
    }
}

// ----------------------------------------------------------------- read

/// A DFS code written by [`encode_dimensions`] (checked for form when
/// the code tree is built).
fn code(r: &mut Reader) -> Result<DfsCode, CodecError> {
    let edges = r.list(W, 20, |r| {
        Ok(DfsEdge {
            from: r.u32()?,
            to: r.u32()?,
            from_label: r.u32()?,
            elabel: r.u32()?,
            to_label: r.u32()?,
        })
    })?;
    Ok(DfsCode(edges))
}

/// `len` little-endian `u64`s (a `len` that overflowed, `None`, is
/// corrupt). The bytes are taken first, so the vector is bounded by
/// the input.
fn words(r: &mut Reader, len: Option<usize>) -> Result<Vec<u64>, GdimError> {
    let bytes = len
        .and_then(|len| len.checked_mul(8))
        .ok_or_else(|| GdimError::Corrupt("section length overflows".into()))?;
    Ok(r.take(bytes)?
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .collect())
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
    // Stats are plain counters, not element counts: they are not held
    // to the count rule (`delta_pairs` is quadratic in `n` and
    // legitimately exceeds the file size at scale).
    let mut stats = IndexStats {
        mined_features: r.u64()? as usize,
        used_dspmap: r.flag()?,
        delta_pairs: r.u64()? as usize,
        mining_time: std::time::Duration::from_nanos(r.u64()?),
        delta_time: std::time::Duration::from_nanos(r.u64()?),
        selection_time: std::time::Duration::from_nanos(r.u64()?),
        ..IndexStats::default()
    };

    // A graph takes at least its two counts, a code its one.
    let db = r.list(W, 16, |r| r.graph(W))?;
    let n = db.len();
    let codes = r.list(W, 8, code)?;
    let p = codes.len();
    stats.dimensions = p;
    let store = VectorStore::from_words(n, p, words(&mut r, n.checked_mul(p.div_ceil(64)))?)?;
    let weights = words(&mut r, Some(p))?
        .into_iter()
        .map(f64::from_bits)
        .collect();

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
        // Every graph is built with the same three constants; a file
        // that names others holds a graph this build cannot produce.
        let params = [r.u64()?, r.u64()?, r.u64()?];
        if params != [ann::M as u64, ann::EF_CONSTRUCTION as u64, ann::SEED] {
            return Err(GdimError::Corrupt(format!(
                "ANN parameters {params:?} are not this build's"
            )));
        }
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
            ann::AnnIndex::from_parts(entry, levels, links)
                .map_err(|e| GdimError::Corrupt(format!("inconsistent ANN graph: {e}")))?,
        )
    } else {
        None
    };
    r.finish()?;

    let index = GraphIndex::from_parts(
        db, codes, store, weights, opts, stats, epoch, tombstones, pending,
    )
    // Structurally valid bytes can still describe an inconsistent
    // index (a code that spells no graph); from a file, that is
    // corruption too.
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

    /// `a` and `b` answer every ranker identically, and rank
    /// identically under the weighted ablation (scan and beam), whose
    /// weights the snapshot carries.
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
        let weighted = |idx: &GraphIndex, q: &Graph| {
            let qvec = idx.map_query(q);
            let dead = Some(idx.tombstones());
            let scan = idx
                .mapped()
                .scan_topk_with_masked(&qvec, 6, idx.weighted_w_sq(), dead);
            let beam = idx.approx_scan_premapped(&qvec, 6, 30, MappingKind::Weighted);
            (scan.0, beam.0)
        };
        for q in queries {
            for ranker in [Ranker::Mapped, Ranker::Exact, refined, approx] {
                let req = SearchRequest::new(6).ranker(ranker);
                let (a, b) = (a.search(q, &req).unwrap(), b.search(q, &req).unwrap());
                assert_eq!(a.hits, b.hits, "{ranker:?}");
            }
            assert_eq!(weighted(a, q), weighted(b, q));
        }
    }

    /// A snapshot written by an earlier build of this encoder: 10
    /// graphs built with 8 dimensions, an ANN graph over them, then one
    /// insert (pending) and two removes (tombstones). A round trip
    /// cannot see a change made the same way to the encoder and the
    /// decoder; a file written before the change can.
    const FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v4-small.idx");

    /// Where the `dims`, `rows` and `weights` sections of `idx`'s
    /// snapshot start, and where each code's first edge sits.
    fn sections(idx: &GraphIndex) -> (usize, usize, usize, Vec<usize>) {
        let mut head = Vec::new();
        encode_head(idx, &mut head);
        let dims = head.len();
        let mut at = dims + 8;
        let mut edges = Vec::new();
        for code in idx.mapped().codes() {
            edges.push(at + 8);
            at += 8 + 20 * code.len();
        }
        let weights = at + 8 * idx.len() * idx.mapped().store().stride();
        (dims, at, weights, edges)
    }

    #[test]
    fn committed_v4_fixture_reencodes_byte_identically() {
        let idx = GraphIndex::from_bytes(FIXTURE).unwrap();
        assert_eq!((idx.len(), idx.p()), (11, 8));
        assert_eq!(idx.stats().dimensions, 8);
        assert_eq!(idx.pending_inserts(), 1);
        assert_eq!(idx.tombstones().dead_ids(), vec![1, 6]);
        assert_eq!(idx.ann_if_built().map(|a| a.built_n()), Some(10));
        // The three phase times (nanos at offsets 39, 47, 55) come back
        // verbatim.
        let nanos = |at: usize| u64::from_le_bytes(FIXTURE[at..at + 8].try_into().unwrap());
        let s = idx.stats();
        assert_eq!(
            [s.mining_time, s.delta_time, s.selection_time].map(|t| t.as_nanos() as u64),
            [nanos(39), nanos(47), nanos(55)]
        );
        assert!(nanos(47) > 0);
        // Every row, the tombstoned ones included, is its store words.
        let (_, rows, weights, _) = sections(&idx);
        let words: Vec<u64> = (0..idx.len())
            .flat_map(|i| idx.mapped().store().row(i).to_vec())
            .collect();
        let stored: Vec<u64> = FIXTURE[rows..weights]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(stored, words);
        assert_eq!(idx.to_bytes(), FIXTURE);
    }

    #[test]
    fn bytes_roundtrip_is_lossless_and_stable() {
        let idx = index(18, 5);
        let bytes = idx.to_bytes();
        let back = GraphIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert!(back.graphs().eq(idx.graphs()));
        assert_eq!(back.mapped().codes(), idx.mapped().codes());
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
        // = 22; mined_features u64 @22, used_dspmap u8 @30,
        // delta_pairs u64 @31.
        let huge: u64 = 1_999_000;
        assert!(huge > bytes.len() as u64);
        bytes[31..39].copy_from_slice(&huge.to_le_bytes());
        let back = GraphIndex::from_bytes(&bytes).expect("counters bypass the length cap");
        assert_eq!(back.stats().delta_pairs, huge as usize);
    }

    #[test]
    fn inconsistent_payload_surfaces_as_corrupt() {
        // Structurally parseable bytes whose code spells no graph (its
        // second edge skips a DFS index) must be Corrupt — callers
        // quarantine index files by matching on Corrupt.
        let idx = GraphIndex::from_bytes(FIXTURE).unwrap();
        let (_, _, _, edges) = sections(&idx);
        let col = (idx.mapped().codes().iter())
            .position(|c| c.len() >= 2 && c.0[1].is_forward())
            .expect("a two-edge path dimension");
        let to = edges[col] + 20 + 4;
        let mut bytes = FIXTURE.to_vec();
        bytes[to..to + 4].copy_from_slice(&(idx.mapped().codes()[col].0[1].to + 1).to_le_bytes());
        match GraphIndex::from_bytes(&bytes) {
            Err(GdimError::Corrupt(msg)) => {
                assert!(msg.contains("inconsistent"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_feature_code_that_is_not_its_graphs_is_corrupt() {
        // A dimension is stored as its code alone: a code that spells
        // no graph (an edge from a vertex it never placed, a loop, a
        // vertex relabelled) must not load, and must not panic or
        // mis-map later. Mutate one field of one code edge.
        let idx = GraphIndex::from_bytes(FIXTURE).unwrap();
        let (_, _, _, edges) = sections(&idx);
        let col = (idx.mapped().codes().iter())
            .position(|c| c.len() >= 2)
            .expect("a two-edge dimension");
        let code = &idx.mapped().codes()[col];
        let field = |edge: usize, word: usize| edges[col] + 20 * edge + 4 * word;
        let last = code.len() - 1;
        for (what, offset, value) in [
            (
                "a vertex never placed",
                field(last, 0),
                code.vertex_count() as u32,
            ),
            ("a loop", field(1, 1), code.0[1].from),
            ("a relabelled vertex", field(1, 2), code.0[1].from_label + 1),
        ] {
            let mut bad = FIXTURE.to_vec();
            bad[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            match GraphIndex::from_bytes(&bad) {
                Err(GdimError::Corrupt(msg)) => assert!(msg.contains("code"), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn v4_rows_that_break_their_rules_are_corrupt() {
        // A row word with a bit at or above p, and a row section one
        // word short: each is Corrupt, not a panic and not an index.
        let idx = GraphIndex::from_bytes(FIXTURE).unwrap();
        assert!(!idx.p().is_multiple_of(64));
        let (_, rows, _, _) = sections(&idx);
        let mut stray = FIXTURE.to_vec();
        stray[rows + 7] |= 0x80; // bit 63 of row 0
        let short = [&FIXTURE[..rows], &FIXTURE[rows + 8..]].concat();
        for (what, bytes, says) in [
            ("a bit at or above p", stray, "at or above p"),
            ("a short row section", short, ""),
        ] {
            match GraphIndex::from_bytes(&bytes) {
                Err(GdimError::Corrupt(msg)) => assert!(msg.contains(says), "{what}: {msg}"),
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
        for old in [1u32, 2, 3] {
            let mut bytes = idx.to_bytes();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            match GraphIndex::from_bytes(&bytes) {
                Err(GdimError::UnsupportedVersion {
                    found,
                    supported: 4,
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
            built.mapped().codes().to_vec(),
            built.mapped().store().clone(),
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
        // The dimension count follows the head: the p dimensions, not
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
        assert_eq!(idx.ann_if_built().unwrap(), back.ann_if_built().unwrap());
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
        // So is a section that names other construction parameters
        // (m, ef_construction, seed) than the ones every graph is
        // built with.
        let mut section = Vec::new();
        encode_ann(&idx, &mut section);
        let params = bytes.len() - section.len() + 1;
        for field in 0..3 {
            let mut bad = bytes.clone();
            bad[params + 8 * field] ^= 1;
            match GraphIndex::from_bytes(&bad) {
                Err(GdimError::Corrupt(e)) => assert!(e.contains("ANN parameters"), "{e}"),
                other => panic!("field {field}: {other:?}"),
            }
        }
    }
}
