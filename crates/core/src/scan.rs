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
//! * [`TopK`] — a bounded selector (fixed-size max-heap keyed by
//!   `(distance, id)`) replacing the full `n`-entry sort: `O(n + k log
//!   k)` instead of `O(n log n)`, and its worst kept entry is the
//!   *bound* the kernels prune against.
//! * [`VectorStore::scan`] — the **one scan entry point**. A
//!   [`ScanPlan`] value names the queries, `k`, the distance (binary
//!   or weighted), the tombstone mask, the kernel family and the exec
//!   budget; `scan` picks the loop:
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
//!     never enter the answer, so its remaining words are skipped;
//!   * every plan runs the same range loops (below); one query is the
//!     smallest batch and always exactly one range, so a single scan
//!     stays on the calling thread.
//!
//! Every scan reports [`ScanStats`] (vectors fully scanned, rows
//! abandoned early, words touched) so the serving layer can prove the
//! savings per request. The store is **derived state**: it is rebuilt
//! deterministically from the feature space on index load and is never
//! persisted (see [`crate::persist`]).
//!
//! ## Kernel families
//!
//! The scan is memory-bound, so the binary loop hands the store to
//! [`gdim_kernels`] eight rows at a time
//! ([`hamming_block8_multi_pruned`]: every query's eight distances,
//! already compared against that query's k-th bound) and a range's
//! last `< 8` rows one by one ([`hamming_row_kernel`]), each in four
//! families ([`KernelKind`]): the scalar loop (the always-available
//! reference), a portable interleaved block, and AVX2 and AVX-512
//! variants selected at runtime via `is_x86_feature_detected!`. The
//! weighted loop is this module's own, in 4-row blocks once the
//! selectors are full. All kernels are **bit-identical** — Hamming
//! popcounts are exact integers, and the weighted block form
//! accumulates every row's weights in the same per-row order as the
//! scalar walk, so distances (and hits) never depend on the kernel.
//! [`ScanPlan::new`] picks [`selected_kernel`]; equivalence tests and
//! benches pin [`ScanPlan::kernel`] explicitly. (In the weighted loop
//! of a non-scalar kind, the early-abandon check inside a 4-row block
//! compares against the bound held at block entry; the bound only ever
//! tightens, so a stale bound abandons strictly fewer rows — every
//! abandoned row is one the scalar walk would also have abandoned, and
//! every extra fully-computed row is rejected by the selector. Hits
//! stay bit-identical; only the work counters may differ from the
//! scalar trace.)
//!
//! ## Fused multi-query scan
//!
//! A plan answers **all of its queries in one pass**
//! over the store: per row (or 8-row block), every query's distance is
//! computed while the row's words are hot in cache, each feeding its
//! own bounded [`TopK`] — amortizing the store's memory traffic across
//! the batch. Execution parallelism fans out over **row ranges** (not
//! queries): each range keeps per-query partial selectors, merged
//! afterwards by offering the later ranges' kept `(key, id)` pairs
//! into the first range's selectors — an order-independent reduction,
//! so results are byte-identical for every thread budget. Per-query hits are
//! bit-identical to independent single-query scans; with more than one
//! range the weighted work counters can be higher than a single scan's
//! (each range re-fills its own selector before its bound starts
//! pruning), but the [`ScanStats`] identity still holds per query.
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
use gdim_exec::ExecConfig;

pub use gdim_kernels::{
    available_kernels, hamming_block8_multi_pruned, hamming_row_kernel, selected_kernel, KernelKind,
};

/// Minimum rows per exec-parallel range of a fused scan: below this,
/// per-range selector setup would dominate the scan itself, so small
/// stores run as a single range regardless of the thread budget.
pub const MIN_ROWS_PER_RANGE: usize = 256;

/// How many contiguous row ranges a scan of `queries` queries over `n`
/// rows splits into: a single query always gets exactly one (it never
/// spawns); a batch gets up to [`ExecConfig::effective_threads`], none
/// smaller than [`MIN_ROWS_PER_RANGE`] rows (except the last
/// remainder).
fn scan_ranges(n: usize, queries: usize, exec: &ExecConfig) -> usize {
    if queries < 2 {
        1
    } else {
        exec.effective_threads(n.div_ceil(MIN_ROWS_PER_RANGE).max(1))
    }
}

/// One scan request — the argument of [`VectorStore::scan`]. A plain
/// value: build it with [`ScanPlan::new`] and set the remaining
/// fields with struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub struct ScanPlan<'a> {
    /// The query vectors' words (each `stride` long), answered
    /// together in one pass over the store.
    pub queries: &'a [&'a [u64]],
    /// Answers wanted per query (clamped to the live row count).
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
    /// Bounds the row-range fan-out of a batch (two or more queries).
    pub exec: ExecConfig,
}

impl<'a> ScanPlan<'a> {
    /// A binary, unmasked, serial plan on [`selected_kernel`].
    pub fn new(queries: &'a [&'a [u64]], k: usize) -> Self {
        ScanPlan {
            queries,
            k,
            weights: None,
            dead: None,
            kernel: selected_kernel(),
            exec: ExecConfig::serial(),
        }
    }
}

/// One row range of a fused scan: per query, the range's selector and
/// its work counters.
type RangeScan<K> = Vec<(TopK<K>, ScanStats)>;

/// The cross-range reduction of a fused scan: folds every later
/// range's kept `(key, id)` pairs into the first range's selectors
/// (order-independent, so results are byte-identical for every thread
/// budget; one range — every single query — is finished as it stands)
/// and sums the ranges' work counters.
fn reduce_ranges<K: Ord + Copy>(
    parts: Vec<RangeScan<K>>,
    finish: impl Fn(TopK<K>) -> Vec<(u32, f64)>,
) -> Vec<(Vec<(u32, f64)>, ScanStats)> {
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("a scan has at least one range");
    for part in parts {
        for ((sel, stats), (other, other_stats)) in acc.iter_mut().zip(part) {
            for (key, id) in other.heap {
                sel.offer(key, id);
            }
            stats.merge(&other_stats);
        }
    }
    acc.into_iter()
        .map(|(sel, stats)| (finish(sel), stats))
        .collect()
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

impl ScanStats {
    /// Accumulates another scan's counters into this one — the
    /// reduction a fused scan applies across its row ranges (every
    /// field is a plain sum, so the identity over the store size is
    /// preserved).
    pub fn merge(&mut self, other: &ScanStats) {
        self.vectors_scanned += other.vectors_scanned;
        self.early_abandoned += other.early_abandoned;
        self.words_scanned += other.words_scanned;
        self.tombstones_skipped += other.tombstones_skipped;
    }
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

    /// The one scan entry point: answers every query of `plan` with
    /// its `k` nearest live rows as `(id, distance)` ascending by
    /// `(distance, id)`, one `(hits, stats)` pair per query in query
    /// order.
    ///
    /// * **Distance** — `plan.weights = None` ranks by the integer XOR
    ///   popcount `h` and reports `√(h/p)` (the square root is taken
    ///   for the returned hits only); `Some(w_sq)` ranks by the
    ///   weighted distance `√(Σ_{i ∈ q ⊕ g} w_sq[i])`, accumulated in
    ///   exactly the order of [`Bitset::weighted_sq_xor`]
    ///   (bit-identical sums) and **early-abandoning** a row once its
    ///   running sum strictly exceeds the current k-th bound — sound
    ///   because the per-word contributions are non-negative.
    /// * **Mask** — `plan.dead` rows are skipped before the distance
    ///   loop and counted in [`ScanStats::tombstones_skipped`]; `k`
    ///   clamps to the live row count. A mask with no dead rows is
    ///   treated as `None` and never read.
    /// * **Shape** — one pass over the store, per row block every
    ///   query's distance computed while the words are hot in cache,
    ///   `plan.exec` fanning a batch out over row ranges (never
    ///   queries). One query is one range on the calling thread. Every
    ///   `plan.kernel` returns bit-identical hits; a weighted scan on a
    ///   non-scalar kind abandons against the bound held at 4-row block
    ///   entry, so its work counters — never its hits, never the stats
    ///   identity — may differ from the scalar trace. At one range a
    ///   batch's per-query trace is exactly the single scan's; with
    ///   more ranges the work counters can exceed it, each range
    ///   re-filling its own selector before its bound prunes.
    pub fn scan(&self, plan: &ScanPlan<'_>) -> Vec<(Vec<(u32, f64)>, ScanStats)> {
        let ScanPlan {
            queries,
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
            return vec![(hits, stats); queries.len()];
        }
        let ranges = scan_ranges(self.n, queries.len(), &plan.exec);
        let range = |t: usize| (t * self.n / ranges, (t + 1) * self.n / ranges);
        match weights {
            None => {
                let parts = gdim_exec::map_tasks(&plan.exec, ranges, |t| {
                    let (start, end) = range(t);
                    self.binary_fused_range(queries, k, start, end, mask, kernel)
                });
                reduce_ranges(parts, |sel| Self::binary_hits(sel, self.bits))
            }
            Some(w_sq) => {
                debug_assert!(w_sq.len() >= self.bits);
                let parts = gdim_exec::map_tasks(&plan.exec, ranges, |t| {
                    let (start, end) = range(t);
                    self.weighted_fused_range(queries, k, w_sq, start, end, mask, kernel)
                });
                reduce_ranges(parts, Self::weighted_hits)
            }
        }
    }

    /// Final normalization of the binary selection: `h ↦ √(h/p)` on
    /// the `k` kept hits only.
    fn binary_hits(sel: TopK<u32>, bits: usize) -> Vec<(u32, f64)> {
        let p = bits.max(1) as f64;
        sel.into_sorted()
            .into_iter()
            .map(|(h, id)| (id, (h as f64 / p).sqrt()))
            .collect()
    }

    /// Final normalization of the weighted selection: `sq ↦ √sq` on
    /// the `k` kept hits only.
    fn weighted_hits(sel: TopK<OrdF64>) -> Vec<(u32, f64)> {
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

    /// One row range of a fused binary scan: per-query selectors over
    /// raw integer popcounts (not yet normalized) plus the range's work
    /// counters (identical for every query — binary stats are analytic
    /// in the range's live count).
    fn binary_fused_range(
        &self,
        queries: &[&[u64]],
        k: usize,
        start: usize,
        end: usize,
        mask: Option<&Tombstones>,
        kernel: KernelKind,
    ) -> RangeScan<u32> {
        let qn = queries.len();
        let mut out: RangeScan<u32> = (0..qn)
            .map(|_| (TopK::new(k), ScanStats::default()))
            .collect();
        // Buffers reused across blocks: h8s[j] is query j's eight
        // block distances, cands[j] its candidate-row bitmask,
        // bounds[j] the current k-th key the kernel prunes against
        // (`u32::MAX` while selector j is still filling). One kernel
        // dispatch per 8-row block serves every query; blocks where no
        // query has a candidate (the common case once selectors fill)
        // skip the offer loop entirely.
        let mut h8s: Vec<[u32; 8]> = vec![[0u32; 8]; qn];
        let mut cands: Vec<u8> = vec![0u8; qn];
        let mut bounds: Vec<u32> = vec![u32::MAX; qn];
        // A candidate above the cached bound never touches the heap; a
        // kept offer refreshes the bound.
        let offer = |sel: &mut TopK<u32>, bound: &mut u32, h: u32, id: usize| {
            if h <= *bound && sel.offer(h, id as u32) {
                *bound = sel.bound().map_or(u32::MAX, |&(b, _)| b);
            }
        };
        let mut dead_in_range = 0usize;
        let mut i = start;
        while i + 8 <= end {
            let block = &self.words[i * self.stride..(i + 8) * self.stride];
            let dead8 = mask.map_or(0u8, |t| {
                (0..8).fold(0, |m, r| m | (t.is_dead(i + r) as u8) << r)
            });
            dead_in_range += dead8.count_ones() as usize;
            let any = hamming_block8_multi_pruned(
                kernel,
                queries,
                block,
                self.stride,
                &bounds,
                &mut h8s,
                &mut cands,
            );
            if any {
                for (j, &m) in cands.iter().enumerate() {
                    let mut live_cands = m & !dead8;
                    while live_cands != 0 {
                        let r = live_cands.trailing_zeros() as usize;
                        live_cands &= live_cands - 1;
                        offer(&mut out[j].0, &mut bounds[j], h8s[j][r], i + r);
                    }
                }
            }
            i += 8;
        }
        while i < end {
            if mask.is_some_and(|t| t.is_dead(i)) {
                dead_in_range += 1;
            } else {
                let row = self.row(i);
                for (j, q) in queries.iter().enumerate() {
                    let h = hamming_row_kernel(kernel, q, row);
                    offer(&mut out[j].0, &mut bounds[j], h, i);
                }
            }
            i += 1;
        }
        let live_in_range = (end - start) - dead_in_range;
        for (_, stats) in &mut out {
            *stats = ScanStats {
                vectors_scanned: live_in_range,
                early_abandoned: 0,
                words_scanned: live_in_range * self.stride,
                tombstones_skipped: dead_in_range,
            };
        }
        out
    }

    /// One row range of a fused weighted scan, in blocks of 4 rows —
    /// of 1 row while the selectors fill (same `k`, same live rows:
    /// they fill together), for the scalar kernel, and for the last
    /// `< 4` rows — each handed to [`VectorStore::weighted_block`] once
    /// per query.
    #[allow(clippy::too_many_arguments)]
    fn weighted_fused_range(
        &self,
        queries: &[&[u64]],
        k: usize,
        w_sq: &[f64],
        start: usize,
        end: usize,
        mask: Option<&Tombstones>,
        kernel: KernelKind,
    ) -> RangeScan<OrdF64> {
        let mut out: RangeScan<OrdF64> = queries
            .iter()
            .map(|_| (TopK::new(k), ScanStats::default()))
            .collect();
        let blocked = !matches!(kernel, KernelKind::Scalar);
        let mut to_fill = k;
        let mut i = start;
        while i < end {
            let rows = if blocked && to_fill == 0 && i + 4 <= end {
                4
            } else {
                1
            };
            let mut live = [false; 4];
            for (r, l) in live.iter_mut().take(rows).enumerate() {
                *l = !mask.is_some_and(|t| t.is_dead(i + r));
            }
            let alive = live.iter().filter(|&&l| l).count();
            to_fill = to_fill.saturating_sub(alive);
            for (query, (sel, stats)) in queries.iter().zip(&mut out) {
                stats.tombstones_skipped += rows - alive;
                if alive == 0 {
                    continue;
                }
                if rows == 4 {
                    self.weighted_block(query, i, live, w_sq, sel, stats);
                } else {
                    self.weighted_block(query, i, [live[0]], w_sq, sel, stats);
                }
            }
            i += rows;
        }
        out
    }

    /// The weighted step of one query over rows `i..i + R`: every live
    /// row accumulates its squared weighted distance word by word (bits
    /// low-to-high — the naive order, so sums are bit-identical for
    /// every block size) and is abandoned as soon as its running total
    /// strictly exceeds the k-th bound held at block entry (∞ while the
    /// selector fills) with words still unread. The bound only
    /// tightens, so a block-stale bound abandons a subset of what the
    /// row-by-row trace abandons, and every extra fully-summed row is
    /// rejected by the selector. Kept out of line: inlined into the
    /// range loop, a single 100k-row scan measures ~20 % slower.
    #[inline(never)]
    fn weighted_block<const R: usize>(
        &self,
        query: &[u64],
        i: usize,
        live: [bool; R],
        w_sq: &[f64],
        sel: &mut TopK<OrdF64>,
        stats: &mut ScanStats,
    ) {
        let b0 = sel.bound().map_or(f64::INFINITY, |&(OrdF64(b), _)| b);
        let base = i * self.stride;
        let last = self.stride - 1;
        let mut active = live;
        let mut totals = [0.0f64; R];
        let mut touched = [0usize; R];
        for (w, &q) in query.iter().enumerate() {
            let block = &w_sq[w * 64..];
            for j in 0..R {
                if !active[j] {
                    continue;
                }
                let mut x = q ^ self.words[base + j * self.stride + w];
                while x != 0 {
                    let bit = x.trailing_zeros() as usize;
                    x &= x - 1;
                    totals[j] += block[bit];
                }
                touched[j] = w + 1;
                if totals[j] > b0 && w < last {
                    active[j] = false;
                }
            }
        }
        for j in 0..R {
            if !live[j] {
                continue;
            }
            stats.words_scanned += touched[j];
            if active[j] {
                stats.vectors_scanned += 1;
                sel.offer(OrdF64(totals[j]), (i + j) as u32);
            } else {
                stats.early_abandoned += 1;
            }
        }
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

/// Bounded top-k selection over `(key, id)` pairs: a fixed-size
/// max-heap that keeps the `k` smallest pairs seen so far. An offer
/// that cannot beat the current worst kept pair is rejected in `O(1)`,
/// so selecting `k` from `n` costs `O(n + k log k)` comparisons
/// instead of the `O(n log n)` full sort it replaces.
#[derive(Debug, Clone)]
pub struct TopK<K: Ord + Copy> {
    k: usize,
    heap: std::collections::BinaryHeap<(K, u32)>,
}

impl<K: Ord + Copy> TopK<K> {
    /// A selector keeping the `k` smallest `(key, id)` pairs.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// The worst pair currently kept, available once the selector is
    /// full — the pruning bound: any candidate strictly above this key
    /// can never be selected.
    #[inline]
    pub fn bound(&self) -> Option<&(K, u32)> {
        if self.heap.len() == self.k {
            self.heap.peek()
        } else {
            None
        }
    }

    /// Offers a pair; returns whether it was kept.
    #[inline]
    pub fn offer(&mut self, key: K, id: u32) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push((key, id));
            return true;
        }
        let mut worst = self.heap.peek_mut().expect("full selector is non-empty");
        let kept = (key, id) < *worst;
        if kept {
            *worst = (key, id);
        }
        kept
    }

    /// The kept pairs, ascending by `(key, id)`.
    pub fn into_sorted(self) -> Vec<(K, u32)> {
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
            ..ScanPlan::new(&[q], k)
        })
        .remove(0)
    }

    /// A whole batch through [`VectorStore::scan`].
    fn scan_fused(
        s: &VectorStore,
        queries: &[&[u64]],
        k: usize,
        weights: Option<&[f64]>,
        dead: Option<&Tombstones>,
        exec: &ExecConfig,
    ) -> Vec<(Vec<(u32, f64)>, ScanStats)> {
        s.scan(&ScanPlan {
            weights,
            dead,
            exec: *exec,
            ..ScanPlan::new(queries, k)
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
        let mut sel: TopK<u32> = TopK::new(3);
        for (key, id) in [(5, 0), (1, 9), (5, 1), (1, 2), (7, 3), (0, 4)] {
            sel.offer(key, id);
        }
        assert_eq!(sel.into_sorted(), vec![(0, 4), (1, 2), (1, 9)]);
    }

    #[test]
    fn zero_k_selector_rejects_everything() {
        let mut sel: TopK<u32> = TopK::new(0);
        assert!(!sel.offer(1, 1));
        assert!(sel.into_sorted().is_empty());
        assert!(TopK::<u32>::new(0).bound().is_none());
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
        // 150 bits → stride 3 (odd word tail for AVX2); n = 23 leaves
        // a 3-row tail after the 4-row blocks.
        let s = random_store(23, 150, 7);
        let q = random_store(1, 150, 99);
        let mut dead = Tombstones::all_live(23);
        for i in [1usize, 20, 21, 22] {
            dead.mark_dead(i); // tombstones inside the unrolled tail
        }
        let w_sq: Vec<f64> = (0..150).map(|b| 1.0 / (b + 3) as f64).collect();
        for k in [1usize, 4, 23] {
            for mask in [None, Some(&dead)] {
                let reference = scan1(&s, q.row(0), k, None, mask, KernelKind::Scalar);
                let wref = scan1(&s, q.row(0), k, Some(&w_sq), mask, KernelKind::Scalar);
                for kernel in available_kernels() {
                    let got = scan1(&s, q.row(0), k, None, mask, kernel);
                    assert_eq!(got, reference, "binary kernel {kernel}, k {k}");
                    let (whits, wstats) = scan1(&s, q.row(0), k, Some(&w_sq), mask, kernel);
                    assert_eq!(whits, wref.0, "weighted kernel {kernel}, k {k}");
                    // Weighted block abandons against a per-block
                    // stale bound, so counters may differ from the
                    // scalar trace — but the identity must hold.
                    assert_eq!(
                        wstats.vectors_scanned + wstats.early_abandoned + wstats.tombstones_skipped,
                        23,
                        "weighted kernel {kernel}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_scan_equals_independent_single_scans() {
        let s = random_store(37, 130, 3);
        let queries_store = random_store(5, 130, 42);
        let queries: Vec<&[u64]> = (0..5).map(|i| queries_store.row(i)).collect();
        let mut dead = Tombstones::all_live(37);
        for i in [0usize, 13, 36] {
            dead.mark_dead(i);
        }
        let w_sq: Vec<f64> = (0..130)
            .map(|b| ((b * 11 + 5) % 17) as f64 / 17.0)
            .collect();
        let exec = ExecConfig::serial();
        for k in [0usize, 1, 6, 40] {
            for mask in [None, Some(&dead)] {
                let fused = scan_fused(&s, &queries, k, None, mask, &exec);
                let wfused = scan_fused(&s, &queries, k, Some(&w_sq), mask, &exec);
                for (j, q) in queries.iter().enumerate() {
                    assert_eq!(
                        fused[j],
                        scan1(&s, q, k, None, mask, selected_kernel()),
                        "binary query {j}, k {k}"
                    );
                    // One range ⇒ the fused weighted trace is exactly
                    // the single-scan trace, stats included.
                    assert_eq!(
                        wfused[j],
                        scan1(&s, q, k, Some(&w_sq), mask, selected_kernel()),
                        "weighted query {j}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_scan_is_thread_invariant() {
        // n = 2048 spans multiple `MIN_ROWS_PER_RANGE` ranges, so the
        // range merge actually runs at threads > 1.
        let s = random_store(2048, 70, 11);
        let queries_store = random_store(3, 70, 5);
        let queries: Vec<&[u64]> = (0..3).map(|i| queries_store.row(i)).collect();
        let mut dead = Tombstones::all_live(2048);
        for i in (0..2048).step_by(7) {
            dead.mark_dead(i);
        }
        let w_sq: Vec<f64> = (0..70).map(|b| 1.0 / (b + 1) as f64).collect();
        let serial = ExecConfig::serial();
        let expect_b = scan_fused(&s, &queries, 9, None, Some(&dead), &serial);
        let expect_w = scan_fused(&s, &queries, 9, Some(&w_sq), Some(&dead), &serial);
        for threads in [2usize, 8] {
            let exec = ExecConfig::new(threads);
            let got_b = scan_fused(&s, &queries, 9, None, Some(&dead), &exec);
            let got_w = scan_fused(&s, &queries, 9, Some(&w_sq), Some(&dead), &exec);
            for j in 0..queries.len() {
                // Hits are byte-identical for every thread budget; the
                // binary stats even match exactly (they are analytic).
                assert_eq!(got_b[j], expect_b[j], "binary query {j}, threads {threads}");
                assert_eq!(
                    got_w[j].0, expect_w[j].0,
                    "weighted query {j}, threads {threads}"
                );
                let ws = got_w[j].1;
                assert_eq!(
                    ws.vectors_scanned + ws.early_abandoned + ws.tombstones_skipped,
                    2048,
                    "weighted stats identity, query {j}, threads {threads}"
                );
                // Each single-query scan must agree with the fused one.
                assert_eq!(
                    got_b[j].0,
                    scan1(&s, queries[j], 9, None, Some(&dead), selected_kernel()).0
                );
            }
        }
    }

    #[test]
    fn a_single_query_never_splits_ranges() {
        // n = 2048 would split into 8 ranges for a batch; one query
        // stays one range, so even the weighted work counters (which
        // grow with the range count) match the serial plan exactly.
        let s = random_store(2048, 70, 11);
        let q = random_store(1, 70, 5);
        let mut dead = Tombstones::all_live(2048);
        for i in (0..2048).step_by(7) {
            dead.mark_dead(i);
        }
        let w_sq: Vec<f64> = (0..70).map(|b| 1.0 / (b + 1) as f64).collect();
        for weights in [None, Some(w_sq.as_slice())] {
            for mask in [None, Some(&dead)] {
                let serial = scan_fused(&s, &[q.row(0)], 9, weights, mask, &ExecConfig::serial());
                let wide = scan_fused(&s, &[q.row(0)], 9, weights, mask, &ExecConfig::new(8));
                assert_eq!(
                    wide,
                    serial,
                    "weighted {} masked {}",
                    weights.is_some(),
                    mask.is_some()
                );
            }
        }
    }

    #[test]
    fn fused_scan_handles_exactly_k_live_rows_and_empty_batches() {
        let s = random_store(10, 70, 2);
        let queries_store = random_store(2, 70, 8);
        let queries: Vec<&[u64]> = (0..2).map(|i| queries_store.row(i)).collect();
        let exec = ExecConfig::serial();
        // Exactly k live rows: every live row is a hit.
        let mut dead = Tombstones::all_live(10);
        for i in [0usize, 2, 4, 6, 8, 9] {
            dead.mark_dead(i);
        }
        let fused = scan_fused(&s, &queries, 4, None, Some(&dead), &exec);
        for (j, q) in queries.iter().enumerate() {
            assert_eq!(
                fused[j],
                scan1(&s, q, 4, None, Some(&dead), selected_kernel())
            );
            assert_eq!(fused[j].0.len(), 4, "query {j}");
        }
        // All rows dead: empty hits, full tombstone accounting.
        let mut all_dead = Tombstones::all_live(10);
        for i in 0..10 {
            all_dead.mark_dead(i);
        }
        for (hits, stats) in scan_fused(&s, &queries, 3, None, Some(&all_dead), &exec) {
            assert!(hits.is_empty());
            assert_eq!(stats.tombstones_skipped, 10);
        }
        // No queries at all: no answers, no work.
        assert!(scan_fused(&s, &[], 3, None, None, &exec).is_empty());
        assert!(scan_fused(&s, &[], 3, Some(&[1.0; 70]), None, &exec).is_empty());
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
