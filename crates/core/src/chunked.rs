//! [`ChunkedVec`]: the append-only row container that makes
//! [`GraphIndex: Clone`](crate::index::GraphIndex) cost
//! O(rows / [`CHUNK`] + tail) for per-row state whose elements own heap
//! memory (the graphs).
//!
//! Rows live in **sealed chunks** of exactly [`CHUNK`] elements behind
//! `Arc`s plus one **open tail** of fewer than [`CHUNK`]. A push goes
//! to the tail; the push that fills it seals it. Elements are never
//! modified or removed, so a clone can share every sealed chunk with
//! its source — it copies the chunk *pointers* and deep-copies only the
//! tail — and dropping either of the two frees a tail, not the rows.

use std::sync::Arc;

/// Rows per sealed chunk. A clone deep-copies the open tail — on
/// average `CHUNK / 2` rows at ~1.45 µs each for a chem-sized graph
/// (~16 allocations: ~0.8 µs to copy, ~0.65 µs to free later) — and
/// `rows / CHUNK` chunk pointers (~10 ns each, and again on drop).
/// Measured as served-insert minus owned-insert p50 on a 2-core box, at
/// 4,000 / 16,000 rows per shard: 64 → 57 / 120 µs, 32 → 30 / 88 µs,
/// 16 → 27 / 95 µs (the 16,000-row figures are mostly the flat words a
/// shard also copies). 32 sits on the flat part of that curve. A
/// constant, not a knob.
pub const CHUNK: usize = 32;

/// An append-only sequence with structurally shared clones (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct ChunkedVec<T> {
    /// Full chunks, each exactly [`CHUNK`] long, shared between clones.
    sealed: Vec<Arc<[T]>>,
    /// The open chunk: fewer than [`CHUNK`] rows, owned (copied by a
    /// clone).
    tail: Vec<T>,
}

impl<T: Clone> Clone for ChunkedVec<T> {
    /// Chunk pointers plus a deep copy of the tail, into a buffer with
    /// room for the rest of the chunk (the clone is about to be pushed
    /// to; an exact-fit tail would be reallocated by that push).
    fn clone(&self) -> Self {
        let mut tail = Vec::with_capacity(CHUNK);
        tail.extend_from_slice(&self.tail);
        ChunkedVec {
            sealed: self.sealed.clone(),
            tail,
        }
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> ChunkedVec<T> {
    /// Appends one row, sealing the tail when this push fills it.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == CHUNK {
            self.sealed.push(std::mem::take(&mut self.tail).into());
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether no row was pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Row `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match self.sealed.get(i / CHUNK) {
            Some(chunk) => Some(&chunk[i % CHUNK]),
            None => self.tail.get(i - self.sealed.len() * CHUNK),
        }
    }

    /// All rows in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.sealed
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(&self.tail)
    }

    /// Rows in the open tail — exactly the rows a clone deep-copies.
    #[inline]
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The sealed chunks, for the sharing assertions: a clone's chunks
    /// are `Arc::ptr_eq` to its source's.
    #[cfg(test)]
    pub(crate) fn sealed_chunks(&self) -> &[Arc<[T]>] {
        &self.sealed
    }
}

impl<T> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkedVec::default();
        for value in iter {
            out.push(value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_len_iter_agree_with_a_vec_across_seals() {
        let mut rows = ChunkedVec::default();
        let mut reference = Vec::new();
        assert!(rows.is_empty());
        for i in 0..(3 * CHUNK + 5) {
            assert_eq!(rows.len(), i);
            assert_eq!(rows.get(i), None, "one past the end at {i}");
            rows.push(vec![i]);
            reference.push(vec![i]);
            // The seal itself is the off-by-one risk: check both sides
            // of every boundary, not just the end state.
            assert_eq!(rows.get(i), Some(&vec![i]));
            assert_eq!(rows.get(i / 2), reference.get(i / 2));
            assert_eq!(rows.tail_len(), (i + 1) % CHUNK);
            assert_eq!(rows.sealed_chunks().len(), (i + 1) / CHUNK);
        }
        assert!(rows.iter().eq(reference.iter()));
        let collected: ChunkedVec<Vec<usize>> = reference.iter().cloned().collect();
        assert!(collected.iter().eq(reference.iter()));
        assert_eq!(collected.sealed_chunks().len(), 3);
    }

    #[test]
    fn a_clone_shares_sealed_chunks_and_owns_its_tail() {
        let mut a: ChunkedVec<String> = (0..2 * CHUNK + 3).map(|i| i.to_string()).collect();
        let b = a.clone();
        assert_eq!(b.sealed_chunks().len(), 2);
        for (x, y) in a.sealed_chunks().iter().zip(b.sealed_chunks()) {
            assert!(Arc::ptr_eq(x, y));
        }
        // Growing the source — through a seal — never shows in the clone.
        for i in 0..CHUNK {
            a.push(format!("new {i}"));
        }
        assert_eq!(b.len(), 2 * CHUNK + 3);
        assert_eq!(b.get(2 * CHUNK + 3), None);
        assert_eq!(b.get(2 * CHUNK + 2), Some(&(2 * CHUNK + 2).to_string()));
        assert_eq!(a.len(), 3 * CHUNK + 3);
        assert_eq!(a.get(2 * CHUNK + 3).unwrap(), "new 0");
        assert!(Arc::ptr_eq(&a.sealed_chunks()[1], &b.sealed_chunks()[1]));
    }
}
