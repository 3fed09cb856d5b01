//! The mutation schema the durable serving layer logs: one
//! [`WalRecord`] per acked mutation, encoded as a WAL frame payload.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! tag       u8     1 = Insert, 2 = Remove
//! -- Insert --
//! nv        u32    vertex count
//! vlabels   nv × u32
//! ne        u32    edge count
//! edges     ne × (u u32, v u32, label u32)
//! -- Remove --
//! id        u32    composed GraphId being tombstoned
//! ```
//!
//! The graph is [`codec::put_graph`](crate::codec::put_graph) at
//! `u32` width. Decoding is paranoid: a count is trusted only once the
//! bytes behind it exist ([`Reader::count`]), trailing bytes are an
//! error, and a rebuilt graph re-validates the simple-graph invariants
//! (no self-loops, no parallel edges). A CRC-valid frame whose payload
//! fails here means the log was written by something else — the
//! durable layer surfaces that as a corrupt log, never a panic.

use gdim_graph::{Graph, GraphError};

use crate::codec::{put_graph, put_u32, CodecError, Reader, Width};

/// One durable mutation, as logged before it is applied and acked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert this graph into the index (replayed through the same
    /// deterministic placement as the original call).
    Insert(Graph),
    /// Tombstone the graph with this composed id. Replay is
    /// idempotent: removing an already-absent id is a no-op.
    Remove(u32),
}

/// Why a WAL payload failed to decode as a [`WalRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The payload ended before the field being read.
    UnexpectedEof {
        /// Byte offset within the payload where more bytes were needed.
        at: usize,
    },
    /// The first byte named no known record type.
    UnknownTag(u8),
    /// Bytes remained after the record's last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The edge list violated the simple-graph invariants.
    BadGraph(GraphError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::UnexpectedEof { at } => {
                write!(f, "record payload ended unexpectedly at byte {at}")
            }
            RecordError::UnknownTag(t) => write!(f, "unknown record tag {t}"),
            RecordError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after record")
            }
            RecordError::BadGraph(e) => write!(f, "record holds an invalid graph: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<CodecError> for RecordError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(at) | CodecError::Count(at, _) => {
                RecordError::UnexpectedEof { at }
            }
            CodecError::Flag(_, byte) => RecordError::UnknownTag(byte),
            CodecError::Graph(e) => RecordError::BadGraph(e),
            CodecError::Trailing(extra) => RecordError::TrailingBytes { extra },
        }
    }
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;

impl WalRecord {
    /// Encodes the record as a WAL frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Insert(g) => WalRecord::encode_insert(g),
            WalRecord::Remove(id) => {
                let mut buf = vec![TAG_REMOVE];
                put_u32(&mut buf, *id);
                buf
            }
        }
    }

    /// The payload of `WalRecord::Insert(g)`, encoded from a borrow —
    /// the write path logs a graph it is about to hand to the index and
    /// has no reason to copy it first.
    pub fn encode_insert(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 8 + 4 * g.vertex_count() + 12 * g.edge_count());
        buf.push(TAG_INSERT);
        put_graph(&mut buf, g, Width::U32);
        buf
    }

    /// Decodes a WAL frame payload. Garbage cannot request absurd
    /// buffers even when its CRC happens to check out: see the
    /// [module docs](self).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, RecordError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_INSERT => WalRecord::Insert(r.graph(Width::U32)?),
            TAG_REMOVE => WalRecord::Remove(r.u32()?),
            t => return Err(RecordError::UnknownTag(t)),
        };
        r.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdim_graph::GraphBuilder;
    use proptest::prelude::*;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.vertex(3);
        let c = b.vertex(1);
        let d = b.vertex(4);
        b.edge(a, c, 7).unwrap();
        b.edge(c, d, 2).unwrap();
        b.build()
    }

    #[test]
    fn insert_roundtrips() {
        let g = sample_graph();
        let rec = WalRecord::Insert(g.clone());
        assert_eq!(WalRecord::encode_insert(&g), rec.encode());
        let decoded = WalRecord::decode(&rec.encode()).unwrap();
        match decoded {
            WalRecord::Insert(h) => assert_eq!(h, g),
            other => panic!("decoded {other:?}"),
        }
    }

    /// The literal payloads: a round trip cannot see a change made the
    /// same way to the encoder and the decoder; these can.
    #[test]
    fn payload_bytes_are_pinned() {
        #[rustfmt::skip]
        let insert = [
            1, // tag
            3, 0, 0, 0, // nv
            3, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, // vlabels
            2, 0, 0, 0, // ne
            0, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, // (0, 1, 7)
            1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, // (1, 2, 2)
        ];
        assert_eq!(WalRecord::Insert(sample_graph()).encode(), insert);
        assert_eq!(WalRecord::encode_insert(&sample_graph()), insert);
        assert_eq!(WalRecord::Remove(0x8000_0005).encode(), [2, 5, 0, 0, 0x80]);
    }

    #[test]
    fn remove_roundtrips() {
        let rec = WalRecord::Remove(0x8000_0005);
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new().build();
        let rec = WalRecord::Insert(g);
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn unknown_tag_is_typed() {
        assert_eq!(
            WalRecord::decode(&[9, 0, 0, 0, 0]),
            Err(RecordError::UnknownTag(9))
        );
    }

    #[test]
    fn empty_payload_is_eof_not_panic() {
        assert_eq!(
            WalRecord::decode(&[]),
            Err(RecordError::UnexpectedEof { at: 0 })
        );
    }

    #[test]
    fn truncated_fields_are_eof_not_panic() {
        let full = WalRecord::Insert(sample_graph()).encode();
        for cut in 0..full.len() {
            let err = WalRecord::decode(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, RecordError::UnexpectedEof { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        // Claims u32::MAX vertices with a 1-byte body: the count check
        // must reject it before reserving anything.
        let mut payload = vec![TAG_INSERT];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.push(0);
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(RecordError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = WalRecord::Remove(3).encode();
        bytes.push(0);
        assert_eq!(
            WalRecord::decode(&bytes),
            Err(RecordError::TrailingBytes { extra: 1 })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary payloads, and valid `Insert` / `Remove` payloads
        /// with one byte flipped, one `u32` field rewritten to a
        /// boundary or random value, or cut / extended, decode to a
        /// record or a typed error, never a panic; a record that
        /// decodes survives its own encode → decode.
        #[test]
        fn hostile_payloads_decode_or_fail_typed(
            kind in 0u8..4,
            junk in prop::collection::vec(any::<u8>(), 0..64),
            at in any::<prop::sample::Index>(),
            pick in 0usize..7,
            word in any::<u64>(),
        ) {
            let valid = match word % 2 {
                0 => WalRecord::Insert(sample_graph()).encode(),
                _ => WalRecord::Remove(word as u32).encode(),
            };
            let bytes = match kind {
                0 => junk,
                1 => {
                    let mut b = valid.clone();
                    b[at.index(valid.len())] ^= (word >> 8) as u8 | 1;
                    b
                }
                // Every field after the tag is a u32 at 1 + 4i.
                2 => {
                    let off = 1 + 4 * at.index((valid.len() - 1) / 4);
                    let old = u32::from_le_bytes(valid[off..off + 4].try_into().unwrap());
                    let len = valid.len() as u32;
                    let new = [0, 1, u32::MAX, len, old.wrapping_add(1), old.wrapping_sub(1), word as u32][pick];
                    let mut b = valid.clone();
                    b[off..off + 4].copy_from_slice(&new.to_le_bytes());
                    b
                }
                _ => [&valid[..at.index(valid.len() + 1)], &junk].concat(),
            };
            if let Ok(rec) = WalRecord::decode(&bytes) {
                prop_assert_eq!(WalRecord::decode(&rec.encode()), Ok(rec));
            }
        }
    }

    #[test]
    fn invalid_graphs_are_typed() {
        // A self-loop edge (0,0).
        let mut payload = vec![TAG_INSERT];
        payload.extend_from_slice(&1u32.to_le_bytes()); // nv = 1
        payload.extend_from_slice(&5u32.to_le_bytes()); // vlabel
        payload.extend_from_slice(&1u32.to_le_bytes()); // ne = 1
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(RecordError::BadGraph(_))
        ));
    }
}
