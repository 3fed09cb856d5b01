//! The one byte codec behind every durable format: the v3 index
//! snapshot (`gdim_core::persist`), the shard MANIFEST
//! (`gdim_shard::manifest`) and WAL record payloads
//! ([`record`](crate::record)). Each of those modules owns only its
//! section order, tags, version and semantic checks.
//!
//! All integers are little-endian. The `put_*` writers append to a
//! `Vec<u8>`; one [`Reader`] reads the bytes back, bounds-checking
//! every read, so a decoder built on it fails with a typed
//! [`CodecError`] on truncated or hostile input and never panics.
//!
//! **The count rule.** An element count is read only through
//! [`Reader::count`]. It refuses any count whose elements, each at
//! least `min_bytes` long on the wire, cannot fit in the unread bytes.
//! So the `Vec::with_capacity(count)` that follows ([`Reader::list`])
//! is bounded by the input before the first element is read. Plain
//! counters, such as a statistic or an id, are plain integer reads.

use gdim_graph::{Graph, GraphError};

/// Width of a count field: the snapshot writes `u64` counts, WAL
/// records `u32` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// A 4-byte count.
    U32,
    /// An 8-byte count.
    U64,
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (a `u64`).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends an element count of the given width.
pub fn put_count(buf: &mut Vec<u8>, n: usize, width: Width) {
    match width {
        Width::U32 => put_u32(buf, n as u32),
        Width::U64 => put_u64(buf, n as u64),
    }
}

/// Appends a graph: `|V|` · vertex labels `u32*` · `|E|` ·
/// `(u, v, label)` `u32³` per edge, both counts of `width`.
pub fn put_graph(buf: &mut Vec<u8>, g: &Graph, width: Width) {
    put_count(buf, g.vertex_count(), width);
    for &l in g.vlabels() {
        put_u32(buf, l);
    }
    put_count(buf, g.edge_count(), width);
    for e in g.edges() {
        put_u32(buf, e.u);
        put_u32(buf, e.v);
        put_u32(buf, e.label);
    }
}

/// Why bytes failed to decode; offsets are into the whole input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside the field at this offset.
    Truncated(usize),
    /// The count at this offset (the second value) claimed more
    /// elements than the unread bytes can hold ([`Reader::count`]).
    Count(usize, u64),
    /// The flag byte at this offset (the second value) was neither 0
    /// nor 1.
    Flag(usize, u8),
    /// A graph's edges break the simple-graph invariants.
    Graph(GraphError),
    /// This many bytes remained after the last field.
    Trailing(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated(at) => write!(f, "input ends inside the field at offset {at}"),
            CodecError::Count(at, n) => write!(f, "count {n} at offset {at} overruns the input"),
            CodecError::Flag(at, byte) => write!(f, "flag byte {byte} at offset {at} not 0/1"),
            CodecError::Graph(e) => write!(f, "invalid graph: {e}"),
            CodecError::Trailing(extra) => write!(f, "{extra} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated(self.pos));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A byte that must be 0 (`false`) or 1 (`true`).
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            byte => Err(CodecError::Flag(at, byte)),
        }
    }

    /// An element count of `width` whose elements each take at least
    /// `min_bytes ≥ 1` bytes: refused unless `count · min_bytes` fits
    /// in the unread bytes, so reserving `count` elements is bounded by
    /// the input.
    pub fn count(&mut self, width: Width, min_bytes: usize) -> Result<usize, CodecError> {
        assert!(min_bytes > 0, "a count needs a positive element size");
        let at = self.pos;
        let count = match width {
            Width::U32 => self.u32()? as u64,
            Width::U64 => self.u64()?,
        };
        if count as u128 * min_bytes as u128 > (self.buf.len() - self.pos) as u128 {
            return Err(CodecError::Count(at, count));
        }
        Ok(count as usize)
    }

    /// A [`count`](Reader::count) followed by that many elements, each
    /// read by `elem`, into a vector reserved once at the exact count.
    pub fn list<T, E: From<CodecError>>(
        &mut self,
        width: Width,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(width, min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A graph written by [`put_graph`] with the same `width`.
    pub fn graph(&mut self, width: Width) -> Result<Graph, CodecError> {
        let vlabels = self.list(width, 4, Reader::u32)?;
        let edges = self.list(width, 12, |r| Ok((r.u32()?, r.u32()?, r.u32()?)))?;
        Graph::from_parts(vlabels, edges).map_err(CodecError::Graph)
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(CodecError::Trailing(extra)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdim_graph::GraphBuilder;

    #[test]
    fn graphs_round_trip_at_both_widths() {
        let mut b = GraphBuilder::new();
        let (a, c) = (b.vertex(3), b.vertex(1));
        b.edge(a, c, 7).unwrap();
        let g = b.build();
        for (width, len) in [(Width::U32, 4 + 8 + 4 + 12), (Width::U64, 8 + 8 + 8 + 12)] {
            let mut buf = Vec::new();
            put_graph(&mut buf, &g, width);
            assert_eq!(buf.len(), len);
            let mut r = Reader::new(&buf);
            assert_eq!(r.graph(width).unwrap(), g);
            r.finish().unwrap();
        }
    }

    #[test]
    fn a_count_is_refused_unless_its_elements_fit() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0; 8]);
        // Two 4-byte elements fit in 8 bytes; two 5-byte ones do not.
        assert_eq!(Reader::new(&buf).count(Width::U64, 4), Ok(2));
        assert_eq!(
            Reader::new(&buf).count(Width::U64, 5),
            Err(CodecError::Count(0, 2))
        );
        // A count whose product overflows u64 is refused, not wrapped.
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).count(Width::U64, 12).is_err());
    }

    #[test]
    fn short_reads_flags_and_trailing_bytes_are_typed() {
        let mut r = Reader::new(&[1, 2, 0, 0]);
        assert!(r.flag().unwrap());
        assert_eq!(r.flag(), Err(CodecError::Flag(1, 2)));
        assert_eq!(r.u32(), Err(CodecError::Truncated(2)));
        assert_eq!(r.finish(), Err(CodecError::Trailing(2)));
    }
}
