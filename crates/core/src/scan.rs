//! The flat sequential-scan kernel of the online query path.
//!
//! The paper answers a top-k query by mapping the query onto the `p`
//! selected dimensions and then *sequentially scanning* all database
//! vectors (§6: "we sequentially scan all vectors in the mapped
//! multidimensional space"). This module makes that scan as cheap as
//! the layout allows:
//!
//! * [`VectorStore`] — one contiguous row-major word matrix (structure
//!   of arrays): row `i` is the `stride` words of vector `i`, so a
//!   full scan is a single linear walk over one allocation instead of
//!   a pointer chase through `n` heap-allocated [`Bitset`] values.
//! * [`TopK`] — a bounded selector (fixed-size max-heap of keys that
//!   carry their row id, so ties break by id) replacing the full
//!   `n`-entry sort: `O(n + k log k)` instead of `O(n log n)`, and its
//!   worst kept key is the *bound* the kernels prune against.
//! * [`VectorStore::scan`] — the **one scan entry point**. A
//!   [`ScanPlan`] value names the query, `k`, the distance (binary
//!   or weighted), the tombstone mask and the kernel family; `scan`
//!   picks the loop:
//!   * *binary* (`weights: None`) ranks by the integer XOR popcount
//!     `h = |y_q ⊕ y_g|` and defers the `√(h/p)` normalization to the
//!     final `k` hits, which is sound because `h ↦ √(h/p)` is strictly
//!     monotone (for any realistic `p`, two distinct popcounts never
//!     collide after the square root);
//!   * *weighted* (`weights: Some(w_sq)`) accumulates the
//!     per-dimension squared weights word-blocked, in the same
//!     addition order as the naive
//!     [`weighted_sq_xor`](crate::bitset::Bitset::weighted_sq_xor) (so
//!     sums are bit-identical), with **early abandon**: once a row's
//!     running squared distance exceeds the current k-th bound it can
//!     never enter the answer, so its remaining words are skipped.
//!
//!   Either loop is one pass over the whole store on the calling
//!   thread.
//!
//! Every scan reports [`ScanStats`] (vectors fully scanned, rows
//! abandoned early, words touched) so the serving layer can prove the
//! savings per request. A snapshot stores the store's words as they are
//! (see [`crate::persist`]).
//!
//! ## Kernel families
//!
//! The binary loop walks the store [`CHUNK`] rows at a time and hands
//! the query each chunk in one [`gdim_kernels::hamming_chunk`] call: every
//! row's distance plus a candidate mask of the rows strictly below the
//! query's k-th bound, compared in registers. Tombstoned rows leave the
//! mask a 64-row word at a time, and only the surviving bits reach the
//! selector, in ascending row order, each re-checked against the bound
//! as it tightens inside the chunk. While a selector is still filling,
//! [`gdim_kernels::fill_cut`] first narrows the chunk to the rows at or
//! below its own k-th live distance, so a filling selector is offered
//! about `k` rows, not a chunk. Both come in four families
//! ([`KernelKind`]): the scalar loop (the always-available reference),
//! a portable loop with the stride fixed at compile time, and AVX2 and
//! AVX-512 variants selected at runtime via `is_x86_feature_detected!`.
//! All kernels are **bit-identical** — Hamming popcounts are exact
//! integers — so distances (and hits) never depend on the kernel.
//! [`ScanPlan::new`] picks [`selected_kernel`]; equivalence tests and
//! benches pin [`ScanPlan::kernel`] explicitly. The weighted loop is
//! this module's own and goes one row at a time whatever the kernel,
//! so its hits and its work counters are the same for every kind.
//!
//! ## Dynamic stores
//!
//! A **dynamic** index (online [`insert`](crate::index::GraphIndex::insert) /
//! [`remove`](crate::index::GraphIndex::remove)) extends the contract
//! two ways:
//!
//! * [`VectorStore::push_row`] appends one vector in place, so an
//!   insert costs an `O(stride)` copy instead of a store rebuild;
//! * removed rows are **tombstoned**, not compacted (ids must stay
//!   stable until the next epoch rebuild): a plan's
//!   [`dead`](ScanPlan::dead) mask makes the loops skip dead rows
//!   before they reach the selector. A mask with no dead rows is
//!   dropped up front, so a tombstone-free index never reads it, and
//!   masked and unmasked scans are the same loop, so live-row
//!   accumulation order (and therefore every distance) stays
//!   bit-identical.

use crate::bitset::{weighted_sq_xor_words, Bitset};
use crate::error::GdimError;

pub use gdim_kernels::{available_kernels, hamming_row, selected_kernel, KernelKind};
use gdim_kernels::{fill_cut, hamming_chunk, CHUNK, CHUNK_WORDS};

/// One scan request — the argument of [`VectorStore::scan`]. A plain
/// value: build it with [`ScanPlan::new`] and set the remaining
/// fields with struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub struct ScanPlan<'a> {
    /// The query vector's words (`stride` long).
    pub query: &'a [u64],
    /// Answers wanted (clamped to the live row count).
    pub k: usize,
    /// `None`: binary (Hamming) distance. `Some(w_sq)`: weighted
    /// distance under these squared per-dimension weights
    /// (`w_sq.len() ≥ p`).
    pub weights: Option<&'a [f64]>,
    /// Rows to skip; `None` scans every row.
    pub dead: Option<&'a Tombstones>,
    /// The kernel family (all kinds are bit-identical; `Scalar` is
    /// the reference).
    pub kernel: KernelKind,
}

impl<'a> ScanPlan<'a> {
    /// A binary, unmasked plan on [`selected_kernel`].
    pub fn new(query: &'a [u64], k: usize) -> Self {
        ScanPlan {
            query,
            k,
            weights: None,
            dead: None,
            kernel: selected_kernel(),
        }
    }
}

/// A flat row-major word matrix holding `n` fixed-length binary
/// vectors: the scan-friendly storage of the mapped database `DM`.
#[derive(Debug, PartialEq, Eq)]
pub struct VectorStore {
    n: usize,
    bits: usize,
    stride: usize,
    words: Vec<u64>,
}

impl Clone for VectorStore {
    /// Copies the words into a buffer with room for one more row. The
    /// store is cloned by a copy-on-write publish whose next step is
    /// usually [`VectorStore::push_row`]; into an exact-fit copy that
    /// push reallocates — the words copied a second time, into a
    /// doubled buffer, on every served insert.
    fn clone(&self) -> Self {
        let mut words = Vec::with_capacity(self.words.len() + self.stride);
        words.extend_from_slice(&self.words);
        VectorStore { words, ..*self }
    }
}

/// Work counters for one scan, the observability half of the kernel
/// contract (surfaced per request through
/// [`SearchStats`](crate::search::SearchStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Vectors whose distance was fully evaluated (early-abandoned
    /// rows are **not** counted here — see
    /// [`ScanStats::early_abandoned`]).
    pub vectors_scanned: usize,
    /// Vectors abandoned before their last word because the running
    /// distance already exceeded the k-th bound.
    pub early_abandoned: usize,
    /// Total 64-bit words read across all rows.
    pub words_scanned: usize,
    /// Rows skipped because a [`Tombstones`] mask marked them dead
    /// (always 0 for the unmasked kernels). Whenever a scan ran,
    /// `vectors_scanned + early_abandoned + tombstones_skipped` equals
    /// the store size.
    pub tombstones_skipped: usize,
}

/// A row liveness mask for a dynamic store: removed rows are marked
/// dead here (ids stay stable) and the masked scan kernels skip them.
/// The mask is cleared by the next epoch rebuild, which compacts the
/// database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tombstones {
    words: Vec<u64>,
    len: usize,
    dead: usize,
}

impl Tombstones {
    /// An all-live mask over `n` rows.
    pub fn all_live(n: usize) -> Self {
        Tombstones {
            words: vec![0; n.div_ceil(64)],
            len: n,
            dead: 0,
        }
    }

    /// Number of rows tracked (live + dead).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are tracked at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dead rows.
    #[inline]
    pub fn dead_count(&self) -> usize {
        self.dead
    }

    /// Number of live rows.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.len - self.dead
    }

    /// Dead fraction `dead / len` (0 for an empty mask).
    pub fn dead_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.dead as f64 / self.len as f64
        }
    }

    /// Whether row `i` is dead.
    #[inline]
    pub fn is_dead(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The dead bits of rows `start..start + len` (`start` a multiple
    /// of 64, `len ≤` [`CHUNK`]), row `start + r` at bit `r % 64` of
    /// word `r / 64`.
    fn window(&self, start: usize, len: usize) -> [u64; CHUNK_WORDS] {
        debug_assert!(start.is_multiple_of(64) && len <= CHUNK && start + len <= self.len);
        core::array::from_fn(|w| {
            let bits = self.words.get(start / 64 + w).copied().unwrap_or(0);
            match len.saturating_sub(64 * w) {
                rest if rest >= 64 => bits,
                rest => bits & ((1u64 << rest) - 1),
            }
        })
    }

    /// Tracks one more row, live.
    pub fn push_live(&mut self) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
    }

    /// Marks row `i` dead; returns whether it was live before (`false`
    /// = the row was already tombstoned, and nothing changed).
    ///
    /// # Panics
    /// If `i` is out of range — callers bounds-check first (the
    /// serving path maps a bad id to a typed error).
    pub fn mark_dead(&mut self, i: usize) -> bool {
        assert!(i < self.len, "tombstone index {i} out of {}", self.len);
        if self.is_dead(i) {
            return false;
        }
        self.words[i / 64] |= 1 << (i % 64);
        self.dead += 1;
        true
    }

    /// The dead row ids, ascending.
    pub fn dead_ids(&self) -> Vec<u32> {
        (0..self.len)
            .filter(|&i| self.is_dead(i))
            .map(|i| i as u32)
            .collect()
    }

    /// The live row ids, ascending.
    pub fn live_ids(&self) -> Vec<u32> {
        (0..self.len)
            .filter(|&i| !self.is_dead(i))
            .map(|i| i as u32)
            .collect()
    }
}

impl VectorStore {
    /// An all-zero store of `n` vectors of `bits` bits each.
    pub fn zeros(n: usize, bits: usize) -> Self {
        let stride = bits.div_ceil(64);
        VectorStore {
            n,
            bits,
            stride,
            words: vec![0; n * stride],
        }
    }

    /// Builds a store from same-length bitset rows.
    ///
    /// # Panics
    /// If the rows disagree on length.
    pub fn from_bitsets(rows: &[Bitset]) -> Self {
        let bits = rows.first().map_or(0, Bitset::len);
        let mut store = VectorStore::zeros(rows.len(), bits);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), bits, "row {i} length mismatch");
            let start = i * store.stride;
            store.words[start..start + store.stride].copy_from_slice(row.words());
        }
        store
    }

    /// A store of `n` rows of `bits` bits read back from their words,
    /// `stride` per row, row-major — what a snapshot holds. A wrong word
    /// count, or a bit set at or above `bits`, is
    /// [`GdimError::Corrupt`].
    pub(crate) fn from_words(n: usize, bits: usize, words: Vec<u64>) -> Result<Self, GdimError> {
        let stride = bits.div_ceil(64);
        if Some(words.len()) != n.checked_mul(stride) {
            return Err(GdimError::Corrupt(format!(
                "{} store words for {n} rows of {bits} bits",
                words.len()
            )));
        }
        if !bits.is_multiple_of(64) {
            let stray = !0u64 << (bits % 64);
            if let Some(i) = (0..n).find(|i| words[(i + 1) * stride - 1] & stray != 0) {
                return Err(GdimError::Corrupt(format!(
                    "row {i} sets a bit at or above p = {bits}"
                )));
            }
        }
        Ok(VectorStore {
            n,
            bits,
            stride,
            words,
        })
    }

    /// Sets bit `bit` of row `row`.
    #[inline]
    pub fn set(&mut self, row: usize, bit: usize) {
        debug_assert!(row < self.n && bit < self.bits);
        self.words[row * self.stride + bit / 64] |= 1 << (bit % 64);
    }

    /// Appends one vector to the store — the scan-side cost of an
    /// online insert: an `O(stride)` word copy, no rebuild, no
    /// reallocation beyond amortized `Vec` growth.
    ///
    /// # Panics
    /// If `row` disagrees with the store's vector length.
    pub fn push_row(&mut self, row: &Bitset) {
        assert_eq!(row.len(), self.bits, "pushed row length mismatch");
        self.words.extend_from_slice(row.words());
        self.n += 1;
    }

    /// Number of vectors `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bits per vector (`p`).
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The words of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// The store holding the rows `rows` of this one, in that order —
    /// what a shard split or a compaction keeps of a store.
    ///
    /// # Panics
    /// If an id is not a row of the store.
    pub fn gather(&self, rows: &[u32]) -> VectorStore {
        let mut words = Vec::with_capacity(rows.len() * self.stride);
        for &i in rows {
            words.extend_from_slice(self.row(i as usize));
        }
        VectorStore {
            n: rows.len(),
            words,
            ..*self
        }
    }

    /// Row `i` materialized as a standalone [`Bitset`].
    pub fn vector(&self, i: usize) -> Bitset {
        Bitset::from_words(self.row(i).to_vec(), self.bits)
    }

    /// The one scan entry point: answers `plan.query` with its `k`
    /// nearest live rows as `(id, distance)` ascending by
    /// `(distance, id)`, plus the scan's work counters.
    ///
    /// * **Distance** — `plan.weights = None` ranks by the integer XOR
    ///   popcount `h` and reports `√(h/p)` (the square root is taken
    ///   for the returned hits only); `Some(w_sq)` ranks by the
    ///   weighted distance `√(Σ_{i ∈ q ⊕ g} w_sq[i])`, accumulated in
    ///   exactly the order of [`Bitset::weighted_sq_xor`]
    ///   (bit-identical sums) and **early-abandoning** a row once its
    ///   running sum strictly exceeds the current k-th bound — sound
    ///   because the per-word contributions are non-negative.
    /// * **Mask** — `plan.dead` rows never reach the selector and are
    ///   counted in [`ScanStats::tombstones_skipped`]; `k`
    ///   clamps to the live row count. A mask with no dead rows is
    ///   treated as `None` and never read.
    /// * **Shape** — one pass over the whole store on the calling
    ///   thread. Every `plan.kernel` returns bit-identical hits (the
    ///   weighted loop does not use it).
    pub fn scan(&self, plan: &ScanPlan<'_>) -> (Vec<(u32, f64)>, ScanStats) {
        let ScanPlan {
            query,
            weights,
            kernel,
            ..
        } = *plan;
        let mask = plan.dead.filter(|t| t.dead_count() > 0);
        if let Some(t) = mask {
            debug_assert_eq!(t.len(), self.n, "mask covers a different store");
        }
        let live = mask.map_or(self.n, Tombstones::live_count);
        let k = plan.k.min(live);
        if k == 0 || self.stride == 0 {
            // Nothing to select, or p = 0 (every distance is 0; ids
            // break the ties). Dead rows are reported either way, so
            // `scanned + abandoned + skipped == n` holds for monitoring
            // whenever any row was looked at.
            let hits: Vec<(u32, f64)> = (0..self.n)
                .filter(|&i| !mask.is_some_and(|t| t.is_dead(i)))
                .take(k)
                .map(|i| (i as u32, 0.0))
                .collect();
            let stats = ScanStats {
                vectors_scanned: if k == 0 { 0 } else { live },
                tombstones_skipped: self.n - live,
                ..ScanStats::default()
            };
            return (hits, stats);
        }
        match weights {
            None => {
                // Every live row is evaluated in full.
                let stats = ScanStats {
                    vectors_scanned: live,
                    early_abandoned: 0,
                    words_scanned: live * self.stride,
                    tombstones_skipped: self.n - live,
                };
                let sel = self.binary_scan(query, k, mask, kernel);
                (Self::binary_hits(sel, self.bits), stats)
            }
            Some(w_sq) => {
                debug_assert!(w_sq.len() >= self.bits);
                let (sel, stats) = self.weighted_scan(query, k, w_sq, mask);
                (Self::weighted_hits(sel), stats)
            }
        }
    }

    /// Final normalization of the binary selection: `h ↦ √(h/p)` on
    /// the `k` kept hits only.
    fn binary_hits(sel: TopK<u64>, bits: usize) -> Vec<(u32, f64)> {
        let p = bits.max(1) as f64;
        sel.into_sorted()
            .into_iter()
            .map(|key| (key as u32, ((key >> 32) as f64 / p).sqrt()))
            .collect()
    }

    /// Final normalization of the weighted selection: `sq ↦ √sq` on
    /// the `k` kept hits only.
    fn weighted_hits(sel: TopK<(OrdF64, u32)>) -> Vec<(u32, f64)> {
        sel.into_sorted()
            .into_iter()
            .map(|(OrdF64(sq), id)| (id, sq.sqrt()))
            .collect()
    }

    /// Naive reference for the weighted [`VectorStore::scan`]: every row's
    /// full squared distance, in row order, with no selection — the
    /// baseline the equivalence tests and benches compare against.
    pub fn weighted_sq_distances(&self, query: &[u64], w_sq: &[f64]) -> Vec<f64> {
        (0..self.n)
            .map(|i| weighted_sq_xor_words(query, self.row(i), w_sq))
            .collect()
    }

    /// The binary scan: a selector over raw integer popcounts (not yet
    /// normalized). The store goes [`CHUNK`] rows at a time; each chunk
    /// is one [`hamming_chunk`] call against the k-th key (`u32::MAX`
    /// while the selector fills), and only the surviving live rows
    /// reach the selector, in ascending row order.
    fn binary_scan(
        &self,
        query: &[u64],
        k: usize,
        mask: Option<&Tombstones>,
        kernel: KernelKind,
    ) -> TopK<u64> {
        let mut sel = TopK::new(k);
        let bound_of = |sel: &TopK<u64>| sel.bound().map_or(u32::MAX, |key| (key >> 32) as u32);
        let mut dist = [0u32; CHUNK];
        let mut cand = [0u64; CHUNK_WORDS];
        for c in (0..self.n).step_by(CHUNK) {
            let len = CHUNK.min(self.n - c);
            let rows = &self.words[c * self.stride..(c + len) * self.stride];
            let dead = mask.map_or([0; CHUNK_WORDS], |t| t.window(c, len));
            let mut bound = bound_of(&sel);
            hamming_chunk(kernel, query, rows, bound, &mut dist, &mut cand);
            for (word, d) in cand.iter_mut().zip(&dead) {
                *word &= !d;
            }
            if bound == u32::MAX {
                fill_cut(kernel, &mut dist, &mut cand, k);
            }
            for (w, &word) in cand.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let r = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // The chunk was compared against the bound it
                    // started with. A candidate at or above the
                    // current one would follow the kept row with that
                    // distance, so it never touches the heap; a kept
                    // offer refreshes the bound.
                    let key = u64::from(dist[r]) << 32 | u64::from((c + r) as u32);
                    if dist[r] < bound && sel.offer(key) {
                        bound = bound_of(&sel);
                    }
                }
            }
        }
        sel
    }

    /// The weighted scan, one row at a time: every live row
    /// accumulates its squared weighted distance word by word (bits
    /// low-to-high — the naive order, so sums are bit-identical) and is
    /// abandoned as soon as its running total strictly exceeds the k-th
    /// bound (∞ while the selector fills) with words still unread.
    fn weighted_scan(
        &self,
        query: &[u64],
        k: usize,
        w_sq: &[f64],
        mask: Option<&Tombstones>,
    ) -> (TopK<(OrdF64, u32)>, ScanStats) {
        let mut sel = TopK::new(k);
        let mut stats = ScanStats::default();
        for i in 0..self.n {
            if mask.is_some_and(|t| t.is_dead(i)) {
                stats.tombstones_skipped += 1;
            } else {
                self.weighted_row(query, i, w_sq, &mut sel, &mut stats);
            }
        }
        (sel, stats)
    }

    /// The weighted step of the query over row `i` (see
    /// [`VectorStore::weighted_scan`]). Kept out of line:
    /// inlined into the scan loop, a single 100k-row scan at p = 256
    /// measures 20–40 % slower (p = 128: no difference).
    #[inline(never)]
    fn weighted_row(
        &self,
        query: &[u64],
        i: usize,
        w_sq: &[f64],
        sel: &mut TopK<(OrdF64, u32)>,
        stats: &mut ScanStats,
    ) {
        let bound = sel.bound().map_or(f64::INFINITY, |(OrdF64(b), _)| b);
        let row = self.row(i);
        let last = self.stride - 1;
        let mut total = 0.0f64;
        for (w, (&q, &r)) in query.iter().zip(row).enumerate() {
            let block = &w_sq[w * 64..];
            let mut x = q ^ r;
            while x != 0 {
                let bit = x.trailing_zeros() as usize;
                x &= x - 1;
                total += block[bit];
            }
            if total > bound && w < last {
                stats.words_scanned += w + 1;
                stats.early_abandoned += 1;
                return;
            }
        }
        stats.words_scanned += self.stride;
        stats.vectors_scanned += 1;
        sel.offer((OrdF64(total), i as u32));
    }
}

/// A total-order `f64` key (via [`f64::total_cmp`]) for the bounded
/// selector — the same comparator the naive reference sort uses, so
/// kernel and reference break ties identically.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded top-k selection: a fixed-size max-heap that keeps the `k`
/// smallest keys seen so far. A key carries its row id, so keys are
/// distinct and ties break by id: the binary scan packs `(h, id)` into
/// one `u64` (`h << 32 | id`, one integer compare per heap step), the
/// weighted scan uses `(OrdF64, u32)`. An offer that cannot beat the
/// current worst kept key is rejected in `O(1)`, so selecting `k` from
/// `n` costs `O(n + k log k)` comparisons instead of the `O(n log n)`
/// full sort it replaces.
#[derive(Debug, Clone)]
pub struct TopK<K: Ord + Copy> {
    k: usize,
    heap: std::collections::BinaryHeap<K>,
}

impl<K: Ord + Copy> TopK<K> {
    /// A selector keeping the `k` smallest keys.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// The worst key currently kept, available once the selector is
    /// full — the pruning bound: any candidate above this key can never
    /// be selected.
    #[inline]
    pub fn bound(&self) -> Option<K> {
        if self.heap.len() == self.k {
            self.heap.peek().copied()
        } else {
            None
        }
    }

    /// Offers a key; returns whether it was kept.
    #[inline]
    pub fn offer(&mut self, key: K) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(key);
            return true;
        }
        let mut worst = self.heap.peek_mut().expect("full selector is non-empty");
        let kept = key < *worst;
        if kept {
            *worst = key;
        }
        kept
    }

    /// The kept keys, ascending.
    pub fn into_sorted(self) -> Vec<K> {
        self.heap.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One query through [`VectorStore::scan`].
    fn scan1(
        s: &VectorStore,
        q: &[u64],
        k: usize,
        weights: Option<&[f64]>,
        dead: Option<&Tombstones>,
        kernel: KernelKind,
    ) -> (Vec<(u32, f64)>, ScanStats) {
        s.scan(&ScanPlan {
            weights,
            dead,
            kernel,
            ..ScanPlan::new(q, k)
        })
    }

    fn store_from_bits(rows: &[&[usize]], bits: usize) -> VectorStore {
        let mut s = VectorStore::zeros(rows.len(), bits);
        for (i, row) in rows.iter().enumerate() {
            for &b in *row {
                s.set(i, b);
            }
        }
        s
    }

    #[test]
    fn topk_selector_keeps_k_smallest_with_id_ties() {
        let mut sel: TopK<(u32, u32)> = TopK::new(3);
        for key in [(5, 0), (1, 9), (5, 1), (1, 2), (7, 3), (0, 4)] {
            sel.offer(key);
        }
        assert_eq!(sel.into_sorted(), vec![(0, 4), (1, 2), (1, 9)]);
    }

    #[test]
    fn zero_k_selector_rejects_everything() {
        let mut sel: TopK<(u32, u32)> = TopK::new(0);
        assert!(!sel.offer((1, 1)));
        assert!(sel.into_sorted().is_empty());
        assert!(TopK::<(u32, u32)>::new(0).bound().is_none());
    }

    #[test]
    fn binary_query_matches_hand_computed_distances() {
        // 130 bits → 3 words per row, so the multi-word path runs.
        let s = store_from_bits(&[&[0, 65, 129], &[0], &[1, 2, 3, 64, 128], &[]], 130);
        let q = Bitset::from_words(vec![1, 0, 0], 130); // bit 0 set
        let (hits, stats) = scan1(&s, q.words(), 4, None, None, selected_kernel());
        // Hamming distances to q: row0 = 2, row1 = 0, row2 = 6, row3 = 1.
        let p = 130f64;
        assert_eq!(hits[0], (1, 0.0));
        assert_eq!(hits[1], (3, (1.0 / p).sqrt()));
        assert_eq!(hits[2], (0, (2.0 / p).sqrt()));
        assert_eq!(hits[3], (2, (6.0 / p).sqrt()));
        assert_eq!(stats.vectors_scanned + stats.early_abandoned, 4);
    }

    #[test]
    fn binary_query_bounded_k_equals_truncated_full_scan() {
        let rows: Vec<Vec<usize>> = (0..40).map(|i| (0..i % 13).collect()).collect();
        let refs: Vec<&[usize]> = rows.iter().map(Vec::as_slice).collect();
        let s = store_from_bits(&refs, 200);
        let q = Bitset::zeros(200);
        let (full, _) = scan1(&s, q.words(), 40, None, None, selected_kernel());
        for k in [0usize, 1, 7, 40, 45] {
            let (hits, _) = scan1(&s, q.words(), k, None, None, selected_kernel());
            assert_eq!(hits, &full[..k.min(40)], "k = {k}");
        }
    }

    #[test]
    fn weighted_query_abandons_rows_under_a_tight_bound() {
        // Row 0 is the query itself (bound 0 after one offer); every
        // other row differs in word 0, so each is abandoned there
        // instead of walking all 4 words.
        let far: Vec<usize> = (0..200).collect();
        let s = store_from_bits(&[&[], &far, &far, &far], 220);
        let q = Bitset::zeros(220);
        let w_sq = vec![1.0; 220];
        let (hits, stats) = scan1(&s, q.words(), 1, Some(&w_sq), None, selected_kernel());
        assert_eq!(hits, vec![(0, 0.0)]);
        assert_eq!(stats.early_abandoned, 3);
        assert_eq!(stats.vectors_scanned, 1);
        // Row 0 read fully (4 words); rows 1–3 abandoned after word 0.
        assert_eq!(stats.words_scanned, 4 + 3);
    }

    #[test]
    fn weighted_query_equals_naive_sums_bit_for_bit() {
        let rows: Vec<Vec<usize>> = (0..25)
            .map(|i| (0..150).filter(|b| (b * 7 + i) % 5 == 0).collect())
            .collect();
        let refs: Vec<&[usize]> = rows.iter().map(Vec::as_slice).collect();
        let s = store_from_bits(&refs, 150);
        let mut q = Bitset::zeros(150);
        for b in (0..150).step_by(3) {
            q.set(b);
        }
        let w_sq: Vec<f64> = (0..150).map(|b| 1.0 / (b + 1) as f64).collect();
        let naive = s.weighted_sq_distances(q.words(), &w_sq);
        let (hits, _) = scan1(&s, q.words(), 25, Some(&w_sq), None, selected_kernel());
        for (id, d) in hits {
            assert_eq!(d, naive[id as usize].sqrt(), "row {id}");
        }
    }

    #[test]
    fn empty_store_and_zero_bits_are_well_formed() {
        let s = VectorStore::zeros(0, 100);
        assert!(s.is_empty());
        assert!(scan1(&s, &[0; 2], 5, None, None, selected_kernel())
            .0
            .is_empty());
        // p = 0: every distance is 0, ids break the ties.
        let z = VectorStore::zeros(3, 0);
        let (hits, _) = scan1(&z, &[], 3, None, None, selected_kernel());
        assert_eq!(hits, vec![(0, 0.0), (1, 0.0), (2, 0.0)]);
        let (hits, _) = scan1(&z, &[], 2, Some(&[]), None, selected_kernel());
        assert_eq!(hits, vec![(0, 0.0), (1, 0.0)]);
    }

    #[test]
    fn push_row_appends_and_scans_identically_to_batch_build() {
        let mut a = Bitset::zeros(130);
        a.set(0);
        a.set(129);
        let mut b = Bitset::zeros(130);
        b.set(65);
        let batch = VectorStore::from_bitsets(&[a.clone(), b.clone()]);
        let mut grown = VectorStore::zeros(0, 130);
        grown.push_row(&a);
        grown.push_row(&b);
        assert_eq!(grown, batch);
        let q = Bitset::zeros(130);
        assert_eq!(
            scan1(&grown, q.words(), 2, None, None, selected_kernel()),
            scan1(&batch, q.words(), 2, None, None, selected_kernel())
        );
    }

    #[test]
    fn masked_scan_equals_unmasked_scan_of_live_rows() {
        let rows: Vec<Vec<usize>> = (0..30)
            .map(|i| (0..130).filter(|b| (b * 3 + i) % 7 == 0).collect())
            .collect();
        let refs: Vec<&[usize]> = rows.iter().map(Vec::as_slice).collect();
        let s = store_from_bits(&refs, 130);
        let mut q = Bitset::zeros(130);
        for b in (0..130).step_by(4) {
            q.set(b);
        }
        let mut dead = Tombstones::all_live(30);
        for i in [0usize, 7, 8, 29] {
            assert!(dead.mark_dead(i));
        }
        let w_sq: Vec<f64> = (0..130).map(|b| 1.0 / (b + 2) as f64).collect();
        for k in [0usize, 1, 5, 26, 40] {
            let (hits, stats) = scan1(&s, q.words(), k, None, Some(&dead), selected_kernel());
            let (whits, wstats) = scan1(
                &s,
                q.words(),
                k,
                Some(&w_sq),
                Some(&dead),
                selected_kernel(),
            );
            for (id, _) in hits.iter().chain(&whits) {
                assert!(!dead.is_dead(*id as usize), "dead row {id} in hits (k={k})");
            }
            assert_eq!(hits.len(), k.min(26), "k = {k}");
            if k > 0 {
                assert_eq!(stats.tombstones_skipped, 4);
                assert_eq!(
                    stats.vectors_scanned + stats.early_abandoned + stats.tombstones_skipped,
                    30
                );
                assert_eq!(
                    wstats.vectors_scanned + wstats.early_abandoned + wstats.tombstones_skipped,
                    30
                );
            }
            // Reference: a store holding only the live rows, with ids
            // remapped back — distances and relative order must match.
            let live_refs: Vec<&[usize]> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| !dead.is_dead(*i))
                .map(|(_, r)| r.as_slice())
                .collect();
            let live_store = store_from_bits(&live_refs, 130);
            let live_ids = dead.live_ids();
            let (ref_hits, _) = scan1(&live_store, q.words(), k, None, None, selected_kernel());
            let remapped: Vec<(u32, f64)> = ref_hits
                .into_iter()
                .map(|(id, d)| (live_ids[id as usize], d))
                .collect();
            assert_eq!(hits, remapped, "k = {k}");
        }
    }

    #[test]
    fn all_dead_store_still_reports_its_tombstones() {
        // No live rows: the kernel scans nothing, but the skipped rows
        // are still accounted for — the stats identity `scanned +
        // abandoned + skipped == n` must hold for monitoring even when
        // the answer is empty.
        let s = store_from_bits(&[&[0], &[1], &[2]], 130);
        let mut dead = Tombstones::all_live(3);
        for i in 0..3 {
            dead.mark_dead(i);
        }
        let q = Bitset::zeros(130);
        let (hits, stats) = scan1(&s, q.words(), 5, None, Some(&dead), selected_kernel());
        assert!(hits.is_empty());
        assert_eq!(stats.tombstones_skipped, 3);
        assert_eq!(stats.vectors_scanned + stats.early_abandoned, 0);
        let (whits, wstats) = scan1(
            &s,
            q.words(),
            5,
            Some(&[1.0; 130]),
            Some(&dead),
            selected_kernel(),
        );
        assert!(whits.is_empty());
        assert_eq!(wstats.tombstones_skipped, 3);
    }

    #[test]
    fn masked_scan_without_dead_rows_is_the_unmasked_kernel() {
        let s = store_from_bits(&[&[0, 65], &[1], &[2, 64]], 130);
        let q = Bitset::zeros(130);
        let empty = Tombstones::all_live(3);
        for mask in [None, Some(&empty)] {
            let (hits, stats) = scan1(&s, q.words(), 2, None, mask, selected_kernel());
            assert_eq!(
                (hits, stats),
                scan1(&s, q.words(), 2, None, None, selected_kernel())
            );
        }
    }

    #[test]
    fn tombstones_track_push_mark_and_fraction() {
        let mut t = Tombstones::all_live(0);
        assert!(t.is_empty());
        assert_eq!(t.dead_fraction(), 0.0);
        for _ in 0..70 {
            t.push_live(); // crosses the word boundary
        }
        assert_eq!((t.len(), t.live_count(), t.dead_count()), (70, 70, 0));
        assert!(t.mark_dead(69));
        assert!(!t.mark_dead(69), "double remove changes nothing");
        assert!(t.mark_dead(0));
        assert_eq!(t.dead_count(), 2);
        assert_eq!(t.dead_ids(), vec![0, 69]);
        assert_eq!(t.live_ids().len(), 68);
        assert!((t.dead_fraction() - 2.0 / 70.0).abs() < 1e-12);
        t.push_live();
        assert!(!t.is_dead(70));
        assert_eq!(t.len(), 71);
    }

    /// Deterministic pseudo-random store for kernel cross-checks.
    fn random_store(n: usize, bits: usize, seed: u64) -> VectorStore {
        let stride = bits.div_ceil(64);
        let mut s = VectorStore::zeros(n, bits);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for i in 0..n {
            for w in 0..stride {
                let mut word = next();
                if w == stride - 1 && !bits.is_multiple_of(64) {
                    word &= (1u64 << (bits % 64)) - 1;
                }
                for b in 0..64 {
                    if word >> b & 1 == 1 {
                        s.set(i, w * 64 + b);
                    }
                }
            }
        }
        s
    }

    #[test]
    fn every_kernel_matches_the_scalar_scan_bit_for_bit() {
        // n = 23 is one short chunk; 3·CHUNK + 37 is three full chunks
        // and a tail that is not a multiple of 8 or 64. The widths cover
        // strides 1–5, the served stride 2 (p = 128) among them, and an
        // odd word tail (150 bits).
        let big = 3 * CHUNK + 37;
        let shapes = [(23, 150)]
            .into_iter()
            .chain([64, 128, 150, 256, 320].map(|bits| (big, bits)));
        for (n, bits) in shapes {
            let s = random_store(n, bits, 7 + bits as u64);
            let qs = random_store(3, bits, 99);
            let queries: Vec<&[u64]> = (0..3).map(|i| qs.row(i)).collect();
            let mut dead = Tombstones::all_live(n);
            if n < 64 {
                for i in [1usize, 20, 21, 22] {
                    dead.mark_dead(i);
                }
            } else {
                // Both sides of the word boundaries at rows 64 and 448,
                // a fully dead word (rows 640..704) and the last row.
                for i in [62usize, 63, 64, 65, 447, 448].into_iter().chain(640..704) {
                    dead.mark_dead(i);
                }
                dead.mark_dead(n - 1);
            }
            let w_sq: Vec<f64> = (0..bits).map(|b| 1.0 / (b + 3) as f64).collect();
            for k in [1usize, 10, n] {
                for mask in [None, Some(&dead)] {
                    let at = format!("n {n}, bits {bits}, k {k}, masked {}", mask.is_some());
                    let reference: Vec<_> = queries
                        .iter()
                        .map(|q| scan1(&s, q, k, None, mask, KernelKind::Scalar))
                        .collect();
                    let wref = scan1(&s, queries[0], k, Some(&w_sq), mask, KernelKind::Scalar);
                    for kernel in available_kernels() {
                        for (q, want) in queries.iter().zip(&reference) {
                            let got = scan1(&s, q, k, None, mask, kernel);
                            assert_eq!(&got, want, "binary kernel {kernel}, {at}");
                        }
                        let got = scan1(&s, queries[0], k, Some(&w_sq), mask, kernel);
                        assert_eq!(got, wref, "weighted kernel {kernel}, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_bitsets_roundtrips_rows() {
        let mut a = Bitset::zeros(70);
        a.set(3);
        a.set(69);
        let b = Bitset::zeros(70);
        let s = VectorStore::from_bitsets(&[a.clone(), b.clone()]);
        assert_eq!(s.vector(0), a);
        assert_eq!(s.vector(1), b);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.bits(), 70);
    }
}
