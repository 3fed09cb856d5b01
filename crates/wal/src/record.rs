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
//! Decoding is paranoid: counts are checked against the bytes actually
//! present *before* any allocation, trailing bytes are an error, and a
//! rebuilt graph re-validates the simple-graph invariants (no
//! self-loops, no parallel edges). A CRC-valid frame whose payload
//! fails here means the log was written by something else — the
//! durable layer surfaces that as a corrupt log, never a panic.

use gdim_graph::{Graph, GraphError};

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

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// Cursor over a record payload with EOF-checked little-endian reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        if self.bytes.len() - self.pos < n {
            return Err(RecordError::UnexpectedEof { at: self.pos });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl WalRecord {
    /// Encodes the record as a WAL frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Insert(g) => WalRecord::encode_insert(g),
            WalRecord::Remove(id) => {
                let mut buf = Vec::with_capacity(5);
                buf.push(TAG_REMOVE);
                buf.extend_from_slice(&id.to_le_bytes());
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
        buf.extend_from_slice(&(g.vertex_count() as u32).to_le_bytes());
        for &l in g.vlabels() {
            buf.extend_from_slice(&l.to_le_bytes());
        }
        buf.extend_from_slice(&(g.edge_count() as u32).to_le_bytes());
        for e in g.edges() {
            buf.extend_from_slice(&e.u.to_le_bytes());
            buf.extend_from_slice(&e.v.to_le_bytes());
            buf.extend_from_slice(&e.label.to_le_bytes());
        }
        buf
    }

    /// Decodes a WAL frame payload. Counts are validated against the
    /// bytes present before any allocation, so garbage cannot request
    /// absurd buffers even when its CRC happens to check out.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, RecordError> {
        let mut c = Cursor::new(payload);
        let record = match c.u8()? {
            TAG_INSERT => {
                let nv = c.u32()? as usize;
                // Compare in u64: `nv * 4` can overflow usize on
                // 32-bit targets, which would let CRC-valid garbage
                // slip past this guard into a multi-GiB allocation.
                if (c.remaining() as u64) < nv as u64 * 4 {
                    return Err(RecordError::UnexpectedEof { at: c.pos });
                }
                let mut vlabels = Vec::with_capacity(nv);
                for _ in 0..nv {
                    vlabels.push(c.u32()?);
                }
                let ne = c.u32()? as usize;
                if (c.remaining() as u64) < ne as u64 * 12 {
                    return Err(RecordError::UnexpectedEof { at: c.pos });
                }
                let mut edges = Vec::with_capacity(ne);
                for _ in 0..ne {
                    let u = c.u32()?;
                    let v = c.u32()?;
                    let l = c.u32()?;
                    edges.push((u, v, l));
                }
                let graph = Graph::from_parts(vlabels, edges).map_err(RecordError::BadGraph)?;
                WalRecord::Insert(graph)
            }
            TAG_REMOVE => WalRecord::Remove(c.u32()?),
            t => return Err(RecordError::UnknownTag(t)),
        };
        if c.remaining() > 0 {
            return Err(RecordError::TrailingBytes {
                extra: c.remaining(),
            });
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdim_graph::GraphBuilder;

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
