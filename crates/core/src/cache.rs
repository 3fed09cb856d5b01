//! The fixed-size table behind the served path's per-thread caches —
//! the map cache ([`CodeTree::map_query_cached`]) and the server's
//! `/search` result cache: `sets × ways` slots, each set kept most
//! recently used first, the least recently used way evicted.
//!
//! An entry is a key's bytes, a typed value and the value's stamp. The
//! table hashes and compares keys itself, and each slot keeps its key's
//! hash inline, so a probe reads the key bytes of a matching way only.
//! A stamp, taken from [`stamp`], names what the value was derived from
//! (a code tree, a snapshot): a lookup under another stamp misses, and
//! the next store for that key replaces the stale value in its way.
//!
//! [`CodeTree::map_query_cached`]: crate::featurespace::CodeTree::map_query_cached

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

use gdim_graph::fxhash::FxHasher;

/// A process-unique stamp: no other call returns the same value.
pub fn stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Appends `x` to `out` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// The hash a key is placed and first compared by.
fn hash(key: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(key);
    h.finish()
}

/// A lookup that missed: where its key goes, for [`SetAssoc::insert`].
#[derive(Debug, Clone, Copy)]
pub struct Miss {
    hash: u64,
}

impl Miss {
    /// The missed key's hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

#[derive(Debug)]
struct Slot<V> {
    hash: u64,
    stamp: u64,
    key: Box<[u8]>,
    value: V,
}

/// A set-associative table of `V`s keyed by bytes (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct SetAssoc<V> {
    slots: Box<[Option<Slot<V>>]>,
    ways: usize,
}

impl<V> SetAssoc<V> {
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

    /// The index of the set `hash` places into, picked by its high 32
    /// bits.
    fn set_of(&self, hash: u64) -> usize {
        let sets = (self.slots.len() / self.ways) as u64;
        (((hash >> 32) * sets) >> 32) as usize
    }

    /// `hash`'s set and the way in it holding `key`, if one does.
    fn find(&mut self, hash: u64, key: &[u8]) -> (&mut [Option<Slot<V>>], Option<usize>) {
        let at = self.set_of(hash);
        let ways = &mut self.slots[at * self.ways..][..self.ways];
        let way = ways
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.hash == hash && *s.key == *key));
        (ways, way)
    }

    /// The value stored for `key` under `stamp`, made its set's most
    /// recently used; on a miss, where [`SetAssoc::insert`] puts `key`.
    pub fn get(&mut self, key: &[u8], stamp: u64) -> Result<&V, Miss> {
        let hash = hash(key);
        match self.find(hash, key) {
            (ways, Some(way)) if ways[way].as_ref().is_some_and(|s| s.stamp == stamp) => {
                ways[..=way].rotate_right(1);
                Ok(&ways[0].as_ref().expect("the way just found").value)
            }
            _ => Err(Miss { hash }),
        }
    }

    /// Stores `value` for `key` under `stamp` first in its set, where
    /// `miss` is what [`SetAssoc::get`] of `key` returned. A stale value
    /// of `key` is replaced in its way; otherwise the set's least
    /// recently used entry is evicted when the set is full.
    pub fn insert(&mut self, miss: Miss, key: &[u8], stamp: u64, value: V) {
        let hash = miss.hash;
        let (ways, way) = self.find(hash, key);
        let way = way.unwrap_or(ways.len() - 1);
        ways[..=way].rotate_right(1);
        ways[0] = Some(Slot {
            hash,
            stamp,
            key: key.into(),
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads the varint [`put_varint`] wrote at the front of `bytes`.
    fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
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

    /// Stores `value` for `key` under `stamp`.
    fn put<V>(t: &mut SetAssoc<V>, key: &[u8], stamp: u64, value: V) {
        let miss = t.get(key, stamp).err().expect("a miss");
        t.insert(miss, key, stamp, value);
    }

    /// The entries holding `key`.
    fn entries<V>(t: &SetAssoc<V>, key: &[u8]) -> usize {
        t.slots.iter().flatten().filter(|s| *s.key == *key).count()
    }

    #[test]
    fn varints_round_trip_back_to_back() {
        // Back to back they stay apart: keys built of them are
        // prefix-free.
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
    }

    #[test]
    fn a_set_keeps_its_most_recent_ways_and_evicts_the_least_recent() {
        let mut t = SetAssoc::new(1, 3);
        for x in 0..3u8 {
            put(&mut t, &[x], 1, x);
        }
        // Touching 0 makes 1 the least recently used.
        assert_eq!(t.get(&[0], 1).ok(), Some(&0));
        put(&mut t, &[3], 1, 3);
        assert!(t.get(&[1], 1).is_err());
        for x in [0, 2, 3] {
            assert_eq!(t.get(&[x], 1).ok(), Some(&x));
        }
        // A lookup under another stamp leaves the order as it was: 0,
        // looked up before 2 and 3, is evicted next.
        assert!(t.get(&[0], 2).is_err());
        put(&mut t, &[4], 1, 4);
        assert!(t.get(&[0], 1).is_err());
    }

    #[test]
    fn every_hash_lands_in_a_set_and_sets_are_independent() {
        let t = SetAssoc::<()>::new(5, 1);
        // 12,345's high half is 0, like 0's.
        let sets = [0, 12_345, 1 << 63, u64::MAX].map(|h| t.set_of(h));
        assert_eq!(sets, [0, 0, 2, 4]);
        // One way per set: each set keeps the last key placed into it.
        let mut t = SetAssoc::new(5, 1);
        let mut last = [None; 5];
        for x in 0..64u8 {
            put(&mut t, &[x], 1, x);
            last[t.set_of(hash(&[x]))] = Some(x);
        }
        for x in 0..64u8 {
            let kept = last[t.set_of(hash(&[x]))] == Some(x);
            assert_eq!(t.get(&[x], 1).ok(), kept.then_some(&x), "{x}");
        }
    }

    #[test]
    fn two_keys_in_one_slot_never_answer_for_each_other() {
        let mut t = SetAssoc::new(1, 1);
        put(&mut t, b"a", 1, 'a');
        assert!(t.get(b"b", 1).is_err());
        put(&mut t, b"b", 1, 'b');
        assert!(t.get(b"a", 1).is_err());
        assert_eq!(t.get(b"b", 1).ok(), Some(&'b'));
        // Placed under "b"'s hash, "a" still answers only for "a": the
        // key bytes are compared, not just the hashes.
        let miss = t.get(b"b", 2).unwrap_err();
        t.insert(miss, b"a", 1, 'a');
        assert!(t.get(b"b", 1).is_err());
        assert_eq!(entries(&t, b"a"), 1);
    }

    #[test]
    fn a_store_after_a_stamp_mismatch_replaces_the_stale_entry() {
        let mut t = SetAssoc::new(1, 2);
        put(&mut t, b"key", 1, 10);
        put(&mut t, b"other", 1, 20);
        // The stale entry is the most recently used: a store that
        // evicted the least recently used way would drop "other".
        assert_eq!(t.get(b"key", 1).ok(), Some(&10));
        let miss = t.get(b"key", 2).expect_err("another stamp misses");
        t.insert(miss, b"key", 2, 11);
        assert_eq!(entries(&t, b"key"), 1);
        assert_eq!(t.get(b"key", 2).ok(), Some(&11));
        assert!(t.get(b"key", 1).is_err());
        // The replacement took the stale way, not the other key's.
        assert_eq!(t.get(b"other", 1).ok(), Some(&20));
    }
}
