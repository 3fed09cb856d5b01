//! Fixed-length bitsets: the binary feature vectors `y_i` of §4 and the
//! fingerprints of the benchmark ranker. Hot operations are the word-wise
//! set-algebra counts used by distances (XOR/AND popcounts).

/// A fixed-length bitset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bitset {
    len: usize,
    words: Vec<u64>,
}

impl Bitset {
    /// All-zero bitset of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitset {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds a bitset directly from its word representation — the
    /// constructor the flat [`VectorStore`](crate::scan::VectorStore)
    /// uses to materialize a row as a standalone vector. `words` must
    /// hold exactly `len.div_ceil(64)` words; bits past `len` in the
    /// last word are cleared so equality and hashing stay canonical.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count must match len");
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Bitset { len, words }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `|self ∧ other|`.
    pub fn and_count(&self, other: &Bitset) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// `|self ∨ other|`.
    pub fn or_count(&self, other: &Bitset) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones())
            .sum()
    }

    /// `|self ⊕ other|` — the Hamming distance, i.e. `p·d²` for the
    /// paper's normalized Euclidean distance over binary vectors.
    pub fn xor_count(&self, other: &Bitset) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Weighted squared distance: `Σ_{i ∈ self ⊕ other} w[i]²`, the
    /// kernel of the weighted-mapping ablation and of `Computeobj`.
    /// Word-blocked: zero XOR words are skipped wholesale and each
    /// non-zero word walks its own 64-weight block, so the common
    /// sparse-difference case never touches most of `w_sq`.
    pub fn weighted_sq_xor(&self, other: &Bitset, w_sq: &[f64]) -> f64 {
        debug_assert_eq!(self.len, other.len);
        debug_assert!(w_sq.len() >= self.len);
        weighted_sq_xor_words(&self.words, &other.words, w_sq)
    }

    /// Raw words (read-only).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The word-level accumulation behind [`Bitset::weighted_sq_xor`],
/// shared with the flat scan kernel and the ANN beam, so every path
/// adds the same weights in the same order and therefore produces bit-identical sums. `w_sq`
/// must cover every bit index addressable by the shorter word slice.
#[inline]
pub fn weighted_sq_xor_words(a: &[u64], b: &[u64], w_sq: &[f64]) -> f64 {
    let mut total = 0.0;
    for (wi, (x, y)) in a.iter().zip(b).enumerate() {
        let mut x = x ^ y;
        if x == 0 {
            continue;
        }
        let block = &w_sq[wi * 64..];
        while x != 0 {
            let bit = x.trailing_zeros() as usize;
            x &= x - 1;
            total += block[bit];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitset::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn set_algebra_counts() {
        let mut a = Bitset::zeros(100);
        let mut b = Bitset::zeros(100);
        for i in [1, 5, 70, 99] {
            a.set(i);
        }
        for i in [5, 70, 80] {
            b.set(i);
        }
        assert_eq!(a.and_count(&b), 2);
        assert_eq!(a.or_count(&b), 5);
        assert_eq!(a.xor_count(&b), 3);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitset::zeros(200);
        for i in [3, 64, 65, 199] {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![3, 64, 65, 199]);
    }

    #[test]
    fn weighted_sq_xor_matches_manual() {
        let mut a = Bitset::zeros(5);
        let mut b = Bitset::zeros(5);
        a.set(0);
        a.set(2);
        b.set(2);
        b.set(4);
        let w_sq = [1.0, 10.0, 100.0, 1000.0, 0.25];
        // Symmetric difference = {0, 4}.
        assert_eq!(a.weighted_sq_xor(&b, &w_sq), 1.25);
    }

    #[test]
    fn from_words_roundtrips_and_masks_the_tail() {
        let mut b = Bitset::zeros(130);
        for i in [0, 63, 64, 129] {
            b.set(i);
        }
        assert_eq!(b.words().len(), 3);
        let rebuilt = Bitset::from_words(b.words().to_vec(), 130);
        assert_eq!(rebuilt, b);
        // Garbage above `len` in the last word is cleared.
        let dirty = Bitset::from_words(vec![0, 0, u64::MAX], 130);
        assert_eq!(dirty.count_ones(), 2);
        assert!(dirty.get(128) && dirty.get(129));
    }

    #[test]
    fn empty_bitset() {
        let b = Bitset::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }
}
