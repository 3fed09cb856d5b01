//! The fixed-size table behind the served path's per-thread caches —
//! the map cache ([`CodeTree::map_query_cached`]) and the server's
//! `/search` result cache: `sets × ways` slots, each set kept most
//! recently used first, the least recently used way evicted.
//!
//! The table only places entries. A caller hashes its key with
//! [`key_hash`], and matches and encodes entries itself, so an entry
//! can pack its key and its answer into one heap block.
//!
//! [`CodeTree::map_query_cached`]: crate::featurespace::CodeTree::map_query_cached

use std::hash::Hasher;

use gdim_graph::fxhash::FxHasher;

/// The hash [`SetAssoc`] places a key's bytes by.
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(key);
    h.finish()
}

/// Appends `x` to `out` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Reads an LEB128 varint [`put_varint`] wrote from the front of
/// `bytes` and advances past it; `None` if `bytes` ends inside it or
/// it runs past ten bytes.
pub fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = bytes.split_first()?;
        *bytes = rest;
        x |= u64::from(b & 0x7f).checked_shl(shift)?;
        if b < 0x80 {
            return Some(x);
        }
    }
    None
}

/// A set-associative table of `E`s (see the [module docs](self)).
#[derive(Debug)]
pub struct SetAssoc<E> {
    slots: Box<[Option<E>]>,
    ways: usize,
}

impl<E> SetAssoc<E> {
    /// An empty table of `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// If `sets` or `ways` is 0.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "a table has at least one slot");
        SetAssoc {
            slots: (0..sets * ways).map(|_| None).collect(),
            ways,
        }
    }

    /// The set `hash` places into, picked by its high 32 bits.
    fn set(&mut self, hash: u64) -> &mut [Option<E>] {
        let sets = (self.slots.len() / self.ways) as u64;
        let at = (((hash >> 32) * sets) >> 32) as usize;
        &mut self.slots[at * self.ways..][..self.ways]
    }

    /// The entry of `hash`'s set that `is` accepts, made the set's most
    /// recently used.
    pub fn get(&mut self, hash: u64, mut is: impl FnMut(&E) -> bool) -> Option<&E> {
        let ways = self.set(hash);
        let way = ways.iter().position(|e| e.as_ref().is_some_and(&mut is))?;
        ways[..=way].rotate_right(1);
        ways[0].as_ref()
    }

    /// Puts `entry` first in `hash`'s set, evicting the set's least
    /// recently used entry when the set is full.
    pub fn insert(&mut self, hash: u64, entry: E) {
        let ways = self.set(hash);
        ways.rotate_right(1);
        ways[0] = Some(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_back_to_back() {
        let xs = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut buf = Vec::new();
        for &x in &xs {
            put_varint(&mut buf, x);
        }
        assert_eq!(buf.len(), 1 + 1 + 1 + 2 + 2 + 5 + 10);
        let mut at = &buf[..];
        for &x in &xs {
            assert_eq!(take_varint(&mut at), Some(x));
        }
        assert!(at.is_empty());
        assert_eq!(take_varint(&mut &[0x80u8][..]), None, "ends inside");
    }

    #[test]
    fn a_set_keeps_its_most_recent_ways_and_evicts_the_least_recent() {
        let mut t = SetAssoc::new(1, 3);
        for x in 0..3u32 {
            t.insert(7, x);
        }
        // Touching 0 makes 1 the least recently used.
        assert_eq!(t.get(7, |&e| e == 0), Some(&0));
        t.insert(7, 3);
        assert_eq!(t.get(7, |&e| e == 1), None);
        for x in [0, 2, 3] {
            assert_eq!(t.get(7, |&e| e == x), Some(&x));
        }
    }

    #[test]
    fn every_hash_lands_in_a_set_and_sets_are_independent() {
        let mut t = SetAssoc::new(5, 1);
        for h in [0, 12_345, 1 << 63, u64::MAX] {
            t.insert(h, h);
            assert_eq!(t.get(h, |&e| e == h), Some(&h));
        }
        // Five sets of one way: 12,345 shares set 0 with 0 (its high
        // half is 0) and evicted it; the other two have sets of their own.
        assert_eq!(t.get(0, |&e| e == 0), None);
        for h in [12_345, 1 << 63, u64::MAX] {
            assert_eq!(t.get(h, |&e| e == h), Some(&h));
        }
    }
}
