//! # gdim-kernels — width-optimized scan kernels
//!
//! The online phase of the paper's pipeline is a linear scan over the
//! flat SoA vector store: per row, XOR the query words against the row
//! words and popcount. The scan hands this crate one query and a
//! **chunk** of up to [`CHUNK`] rows at a time ([`hamming_chunk`]); the
//! kernel writes every row's distance and a candidate bitmask of the
//! rows strictly below the caller's k-th bound, compared in registers
//! with no per-row branch. Four families, all **bit-identical** to the
//! scalar reference loop:
//!
//! - [`KernelKind::Scalar`] — the row-at-a-time [`hamming_row`] loop,
//!   always available as the reference.
//! - [`KernelKind::Unrolled`] — the portable loop with the stride fixed
//!   at compile time for strides 1–4, so the word loop unrolls and the
//!   query stays in registers.
//! - [`KernelKind::Avx2`] — 8 rows per step at strides 2 and 4 (p = 128
//!   and 256), rows in 256-bit registers, counted through a
//!   `target_feature(enable = "avx2")` intrinsic popcount (the
//!   nibble-LUT `_mm256_shuffle_epi8` + `_mm256_sad_epu8` reduction);
//!   other strides run the portable loop compiled with the hardware
//!   `popcnt`. Selected at runtime via `is_x86_feature_detected!`;
//!   never chosen on other architectures or under `--cfg gdim_portable`.
//! - [`KernelKind::Avx512`] — 16 rows per step at strides 2 and 4, rows
//!   in 512-bit registers, the single-instruction `vpopcntq`
//!   (`AVX512VPOPCNTDQ`) and the bound compare into a mask register.
//!   Same runtime gating and fallback as AVX2.
//!
//! Hamming distances are exact integer counts, so every kernel returns
//! the same `u32` for the same row — callers may freely mix kernels
//! without changing results. [`selected_kernel`] picks the best
//! available kernel once per process; tests and benches that compare
//! kernels pass a [`KernelKind`] explicitly.
//!
//! This crate deliberately holds the only `unsafe` in the workspace
//! (`gdim-core` keeps `#![forbid(unsafe_code)]`): the intrinsic paths
//! live in one small module per family behind runtime feature
//! detection.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;
use std::sync::OnceLock;

/// Which scan-kernel implementation services a query.
///
/// All kinds produce bit-identical Hamming distances; they differ only
/// in throughput. Stamped into `SearchStats::kernel` so served stats
/// say which path ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Row-at-a-time `u64` XOR + `count_ones` — the reference loop.
    Scalar,
    /// Portable row loop, the stride a compile-time constant for
    /// strides 1–4.
    Unrolled,
    /// 8 rows per step in 256-bit AVX2 registers, nibble-LUT popcount.
    Avx2,
    /// 16 rows per step in 512-bit registers, `vpopcntq` popcount and
    /// mask-register bound compares.
    Avx512,
}

impl KernelKind {
    /// Stable lowercase name (`scalar` / `unrolled` / `avx2` /
    /// `avx512`) — the spelling response stats carry over the wire.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Unrolled => "unrolled",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Parse a [`name`](Self::name) back into a kind (ASCII
    /// case-insensitive). Returns `None` for unknown spellings.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        [
            KernelKind::Scalar,
            KernelKind::Unrolled,
            KernelKind::Avx2,
            KernelKind::Avx512,
        ]
        .into_iter()
        .find(|k| s.eq_ignore_ascii_case(k.name()))
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runtime check: can the AVX2 kernel run here (`AVX2` + `POPCNT`)?
/// Always `false` off x86_64 and under `--cfg gdim_portable` (the
/// pinned portable build).
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(all(target_arch = "x86_64", not(gdim_portable))))]
    {
        false
    }
}

/// Runtime check: can the AVX-512 kernel run here? Requires what the
/// AVX2 kernel does plus `AVX512F` and `AVX512VPOPCNTDQ`; always
/// `false` off x86_64 and under `--cfg gdim_portable`.
pub fn avx512_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
    {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(all(target_arch = "x86_64", not(gdim_portable))))]
    {
        false
    }
}

/// Every kernel runnable on the current CPU/build, reference first.
pub fn available_kernels() -> Vec<KernelKind> {
    let mut v = vec![KernelKind::Scalar, KernelKind::Unrolled];
    if avx2_available() {
        v.push(KernelKind::Avx2);
    }
    if avx512_available() {
        v.push(KernelKind::Avx512);
    }
    v
}

/// The kernel the scan leg uses by default: the best available one,
/// decided once per process from what the CPU/build supports.
pub fn selected_kernel() -> KernelKind {
    static SELECTED: OnceLock<KernelKind> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        if avx512_available() {
            KernelKind::Avx512
        } else if avx2_available() {
            KernelKind::Avx2
        } else {
            KernelKind::Unrolled
        }
    })
}

/// Scalar reference: Hamming distance between two equal-length word
/// rows. Every other kernel must agree with this loop bit-for-bit.
#[inline]
pub fn hamming_row(query: &[u64], row: &[u64]) -> u32 {
    debug_assert_eq!(query.len(), row.len());
    query
        .iter()
        .zip(row.iter())
        .map(|(&q, &r)| (q ^ r).count_ones())
        .sum()
}

/// Rows one [`hamming_chunk`] call compares. At p = 128 a chunk is
/// 4 KiB, so it stays in L1 while every query of a fused batch reads
/// it; and one call per 256 rows leaves the per-call work (dispatch,
/// tombstone words, the candidate walk) a small share of the scan.
pub const CHUNK: usize = 256;

/// Words of a chunk's candidate mask: row `r` is bit `r % 64` of word
/// `r / 64`.
pub const CHUNK_WORDS: usize = CHUNK / 64;

/// The scan's hot step: one query against a chunk of rows. `rows` holds
/// `n ≤ CHUNK` rows row-major, `query.len()` words each. Writes every
/// row's distance to `dist[..n]` and sets `cand` to the rows whose
/// distance is **strictly below** `bound` (bits at and above `n`
/// clear). A caller keeping a bounded top-k selector passes its current
/// k-th key (`u32::MAX` while it fills): offered in ascending id order,
/// a row at exactly the bound comes after the kept row with that key,
/// so it can never displace it, and the strict compare is
/// selection-identical to offering every row.
///
/// # Panics
/// If the query is empty, `rows` is not a whole number of rows, or it
/// holds more than [`CHUNK`] of them.
#[inline]
pub fn hamming_chunk(
    kernel: KernelKind,
    query: &[u64],
    rows: &[u64],
    bound: u32,
    dist: &mut [u32; CHUNK],
    cand: &mut [u64; CHUNK_WORDS],
) {
    let stride = query.len();
    assert!(
        stride > 0 && rows.len().is_multiple_of(stride) && rows.len() / stride <= CHUNK,
        "a chunk is at most {CHUNK} whole rows of {stride} words, not {} words",
        rows.len()
    );
    *cand = [0; CHUNK_WORDS];
    match kernel {
        KernelKind::Scalar => return rows_from::<0>(query, rows, 0, bound, dist, cand),
        KernelKind::Unrolled => {}
        KernelKind::Avx2 =>
        {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if avx2::chunk_checked(query, rows, bound, dist, cand) {
                return;
            }
        }
        KernelKind::Avx512 =>
        {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if avx512::chunk_checked(query, rows, bound, dist, cand) {
                return;
            }
        }
    }
    // `Unrolled`, or an intrinsic kind the CPU/build lacks.
    portable_from(query, rows, 0, bound, dist, cand);
}

/// The fill cut: a selector that is not yet full must not be offered a
/// whole chunk. Given a chunk's distances as [`hamming_chunk`] wrote
/// them and its live rows `cand`, narrows `cand` to the live rows at or
/// below the chunk's k-th smallest live distance `d`: at least `k` rows
/// of the chunk beat anything above `d`, so no such row can be
/// selected (`k ≥ 1`). Leaves `cand` as is when it holds at most `k`
/// rows, and overwrites the distances of the rows outside it with
/// `u32::MAX`.
/// Distances are small integers, so `d` is found exactly by counting
/// passes (rows at or below a trial value) bisecting between the
/// chunk's smallest and largest live distance; the intrinsic kinds run
/// the passes in vector registers.
#[inline]
pub fn fill_cut(
    kernel: KernelKind,
    dist: &mut [u32; CHUNK],
    cand: &mut [u64; CHUNK_WORDS],
    k: usize,
) {
    match kernel {
        KernelKind::Scalar | KernelKind::Unrolled => {}
        KernelKind::Avx2 =>
        {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if avx2::fill_cut_checked(dist, cand, k) {
                return;
            }
        }
        KernelKind::Avx512 =>
        {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if avx512::fill_cut_checked(dist, cand, k) {
                return;
            }
        }
    }
    fill_cut_body(dist, cand, k);
}

/// [`fill_cut`]'s one body, compiled once per family. Fixed-length
/// loops throughout, so the compiler vectorizes every pass.
#[inline(always)]
fn fill_cut_body(dist: &mut [u32; CHUNK], cand: &mut [u64; CHUNK_WORDS], k: usize) {
    debug_assert!(k > 0, "a cut for an empty selection");
    if cand.iter().map(|w| w.count_ones() as usize).sum::<usize>() <= k {
        return;
    }
    for (&word, rows) in cand.iter().zip(dist.chunks_exact_mut(64)) {
        if word == 0 {
            rows.fill(u32::MAX);
            continue;
        }
        let mut out = !word;
        while out != 0 {
            rows[out.trailing_zeros() as usize] = u32::MAX;
            out &= out - 1;
        }
    }
    let dist: &[u32; CHUNK] = dist;
    let mut lo = dist.iter().copied().fold(u32::MAX, u32::min);
    // The largest live distance: `u32::MAX` wraps to 0.
    let mut hi = dist.iter().map(|&h| h.wrapping_add(1)).fold(0, u32::max) - 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_or_below(dist, mid) >= k as u32 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    for (word, rows) in cand.iter_mut().zip(dist.chunks_exact(64)) {
        let rows: &[u32; 64] = rows.try_into().expect("64-row word");
        let mut keep = 0u64;
        for (b, &h) in rows.iter().enumerate() {
            keep |= u64::from(h <= lo) << b;
        }
        *word &= keep;
    }
}

/// Rows of a chunk at or below distance `t`.
#[inline(always)]
fn at_or_below(dist: &[u32; CHUNK], t: u32) -> u32 {
    dist.iter().map(|&h| u32::from(h <= t)).sum()
}

/// The portable loop over rows `from..` of a chunk: one row at a time,
/// the candidate bit set from the compare without a branch. `S > 0`
/// fixes the stride at compile time; `S = 0` reads it from the query.
#[inline(always)]
fn rows_from<const S: usize>(
    query: &[u64],
    rows: &[u64],
    from: usize,
    bound: u32,
    dist: &mut [u32; CHUNK],
    cand: &mut [u64; CHUNK_WORDS],
) {
    let stride = if S == 0 { query.len() } else { S };
    let query = &query[..stride];
    for (r, row) in rows.chunks_exact(stride).enumerate().skip(from) {
        let h = hamming_row(query, row);
        dist[r] = h;
        cand[r / 64] |= u64::from(h < bound) << (r % 64);
    }
}

/// [`rows_from`] at the chunk's stride, constant where it is 1–4. The
/// intrinsic families finish their chunks here too, compiled with the
/// hardware `popcnt` they enable.
#[inline(always)]
fn portable_from(
    query: &[u64],
    rows: &[u64],
    from: usize,
    bound: u32,
    dist: &mut [u32; CHUNK],
    cand: &mut [u64; CHUNK_WORDS],
) {
    match query.len() {
        1 => rows_from::<1>(query, rows, from, bound, dist, cand),
        2 => rows_from::<2>(query, rows, from, bound, dist, cand),
        3 => rows_from::<3>(query, rows, from, bound, dist, cand),
        4 => rows_from::<4>(query, rows, from, bound, dist, cand),
        _ => rows_from::<0>(query, rows, from, bound, dist, cand),
    }
}

#[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
mod avx2 {
    //! The AVX2 chunk kernel. The popcount is the nibble-LUT form
    //! (Muła): split each byte into nibbles, table-lookup per-nibble
    //! bit counts with `_mm256_shuffle_epi8`, then horizontally sum
    //! bytes into the four u64 lanes with `_mm256_sad_epu8`. Exact
    //! integer counts — bit-identical to `count_ones`.
    #![allow(unsafe_code)]

    use super::{CHUNK, CHUNK_WORDS};
    use core::arch::x86_64::*;

    /// Per-nibble popcount LUT, replicated across both 128-bit lanes
    /// (`_mm256_shuffle_epi8` shuffles within lanes).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcount256(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 0
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 1
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Per-word popcounts of the four words at `p` XOR the query.
    ///
    /// # Safety
    /// The CPU supports AVX2 and `p..p + 4` are readable words.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor_popcount(p: *const u64, qv: __m256i) -> __m256i {
        popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(p as *const __m256i),
            qv,
        ))
    }

    /// Horizontal reduction of four per-lane u64 count vectors into
    /// the four row totals, entirely in registers: pairwise lane sums
    /// via unpack, then cross-lane combine via `permute2x128`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sum4_epi64_vec(x0: __m256i, x1: __m256i, x2: __m256i, x3: __m256i) -> __m256i {
        // s01 = [x0.q0+q1, x1.q0+q1 | x0.q2+q3, x1.q2+q3], s23 alike.
        let s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(x0, x1), _mm256_unpackhi_epi64(x0, x1));
        let s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(x2, x3), _mm256_unpackhi_epi64(x2, x3));
        let lo = _mm256_permute2x128_si256(s01, s23, 0x20);
        let hi = _mm256_permute2x128_si256(s01, s23, 0x31);
        _mm256_add_epi64(lo, hi)
    }

    /// Row totals of two count vectors that hold two 2-word rows each
    /// (`[r0.w0, r0.w1, r1.w0, r1.w1]`, `[r2.., r3..]`), in row order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sum2x2_epi64_vec(x01: __m256i, x23: __m256i) -> __m256i {
        // Unpack pairs word 0s and word 1s as [r0, r2 | r1, r3].
        let s = _mm256_add_epi64(
            _mm256_unpacklo_epi64(x01, x23),
            _mm256_unpackhi_epi64(x01, x23),
        );
        _mm256_permute4x64_epi64::<0b11_01_10_00>(s)
    }

    /// Rows `r..r + 8` done: `lo` / `hi` hold their distances as u64
    /// lanes in row order. Packs them to eight u32, stores them and ORs
    /// the `h < bound` lanes into the mask. Distances are at most
    /// 64 · stride, far below 2^31, so the signed compare against the
    /// bound clamped to `i32::MAX` is exact.
    ///
    /// # Safety
    /// The CPU supports AVX2 and `r + 8 ≤ CHUNK`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn finish8(
        lo: __m256i,
        hi: __m256i,
        bound: __m256i,
        r: usize,
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
    ) {
        // [r0, r4, r1, r5, r2, r6, r3, r7] as dwords, then row order.
        let d = _mm256_permutevar8x32_epi32(
            _mm256_blend_epi32::<0b1010_1010>(lo, _mm256_slli_epi64::<32>(hi)),
            _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7),
        );
        // SAFETY: r + 8 ≤ CHUNK bounds the eight-dword store.
        _mm256_storeu_si256(dist.as_mut_ptr().add(r) as *mut __m256i, d);
        let m = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(bound, d))) as u8;
        cand[r / 64] |= u64::from(m) << (r % 64);
    }

    /// # Safety
    /// The CPU supports AVX2 and POPCNT, `query` is not empty, and
    /// `rows` holds at most `CHUNK` rows of `query.len()` words.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn chunk(
        query: &[u64],
        rows: &[u64],
        bound: u32,
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
    ) {
        let stride = query.len();
        let n = rows.len() / stride;
        let bv = _mm256_set1_epi32(bound.min(i32::MAX as u32) as i32);
        let mut r = 0;
        if stride == 2 {
            // SAFETY: the query has two words.
            let qv = _mm256_broadcastsi128_si256(_mm_loadu_si128(query.as_ptr() as *const __m128i));
            while r + 8 <= n {
                // SAFETY: rows r..r + 8 are 16 words inside `rows`.
                let p = rows.as_ptr().add(r * 2);
                let lo = sum2x2_epi64_vec(xor_popcount(p, qv), xor_popcount(p.add(4), qv));
                let hi = sum2x2_epi64_vec(xor_popcount(p.add(8), qv), xor_popcount(p.add(12), qv));
                finish8(lo, hi, bv, r, dist, cand);
                r += 8;
            }
        } else if stride == 4 {
            // SAFETY: the query has four words.
            let qv = _mm256_loadu_si256(query.as_ptr() as *const __m256i);
            while r + 8 <= n {
                // SAFETY: rows r..r + 8 are 32 words inside `rows`.
                let p = rows.as_ptr().add(r * 4);
                let lo = sum4_epi64_vec(
                    xor_popcount(p, qv),
                    xor_popcount(p.add(4), qv),
                    xor_popcount(p.add(8), qv),
                    xor_popcount(p.add(12), qv),
                );
                let hi = sum4_epi64_vec(
                    xor_popcount(p.add(16), qv),
                    xor_popcount(p.add(20), qv),
                    xor_popcount(p.add(24), qv),
                    xor_popcount(p.add(28), qv),
                );
                finish8(lo, hi, bv, r, dist, cand);
                r += 8;
            }
        }
        super::portable_from(query, rows, r, bound, dist, cand);
    }

    /// [`super::fill_cut`] with the counting passes in AVX2 registers.
    #[target_feature(enable = "avx2,popcnt")]
    fn fill_cut(dist: &mut [u32; CHUNK], cand: &mut [u64; CHUNK_WORDS], k: usize) {
        super::fill_cut_body(dist, cand, k);
    }

    /// Safe entry: `false` when the CPU lacks AVX2, otherwise the cut
    /// is done.
    #[inline]
    pub fn fill_cut_checked(
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
        k: usize,
    ) -> bool {
        if !super::avx2_available() {
            return false;
        }
        // SAFETY: AVX2 and POPCNT were just verified at runtime.
        unsafe { fill_cut(dist, cand, k) };
        true
    }

    /// Safe entry: `false` when the CPU lacks AVX2 (the caller falls
    /// back to the portable loop), otherwise the chunk is done.
    #[inline]
    pub fn chunk_checked(
        query: &[u64],
        rows: &[u64],
        bound: u32,
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
    ) -> bool {
        debug_assert!(!query.is_empty() && rows.len() / query.len() <= CHUNK);
        if !super::avx2_available() {
            return false;
        }
        // SAFETY: AVX2 and POPCNT were just verified at runtime; the
        // row shape was asserted by `hamming_chunk`, the only caller.
        unsafe { chunk(query, rows, bound, dist, cand) };
        true
    }
}

#[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
mod avx512 {
    //! The AVX-512 chunk kernel at full 512-bit width: 16 rows per
    //! step, the single-instruction `vpopcntq` (`AVX512VPOPCNTDQ`), the
    //! row sums packed to sixteen u32 by one two-source permute, and
    //! the bound compared with `vpcmpud` into a mask register. Exact
    //! integer counts — bit-identical to `count_ones`.
    #![allow(unsafe_code)]

    use super::{CHUNK, CHUNK_WORDS};
    use core::arch::x86_64::*;

    /// Per-word popcounts of the eight words at `p` XOR the query.
    ///
    /// # Safety
    /// The CPU supports AVX-512F and VPOPCNTDQ, and `p..p + 8` are
    /// readable words.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn xor_popcount(p: *const u64, qv: __m512i) -> __m512i {
        _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p as *const _), qv))
    }

    /// Per 128-bit lane `i`, the word-pair sums of rows `i` of `x` and
    /// `i` of `y` for count vectors holding four 2-word rows each:
    /// `[x0, y0, x1, y1, x2, y2, x3, y3]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn pair_sums(x: __m512i, y: __m512i) -> __m512i {
        _mm512_add_epi64(_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y))
    }

    /// The distances of the eight 4-word rows at `p`, as u64 lanes
    /// `[r0, r2, r1, r3, r4, r6, r5, r7]`: `pair_sums` of two 2-row
    /// vectors gives half-row sums `[r0a, r2a | r0b, r2b | r1a, r3a |
    /// r1b, r3b]`, and adding the a and b 128-bit lanes of two such
    /// sums leaves whole rows.
    ///
    /// # Safety
    /// The CPU supports AVX-512F and VPOPCNTDQ, and `p..p + 32` are
    /// readable words.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn quad_sums(p: *const u64, qv: __m512i) -> __m512i {
        let s01 = pair_sums(xor_popcount(p, qv), xor_popcount(p.add(8), qv));
        let s23 = pair_sums(xor_popcount(p.add(16), qv), xor_popcount(p.add(24), qv));
        _mm512_add_epi64(
            _mm512_shuffle_i64x2::<0b10_00_10_00>(s01, s23),
            _mm512_shuffle_i64x2::<0b11_01_11_01>(s01, s23),
        )
    }

    /// Rows `r..r + 16` done: `lo` / `hi` hold rows `r..r + 8` and
    /// `r + 8..r + 16` as u64 lanes, row `j` at dword `idx[j]` of
    /// `lo:hi`. Packs them to sixteen u32 in row order, stores them and
    /// ORs the `h < bound` lanes into the mask.
    ///
    /// # Safety
    /// The CPU supports AVX-512F and `r + 16 ≤ CHUNK`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn finish16(
        lo: __m512i,
        hi: __m512i,
        idx: __m512i,
        bound: __m512i,
        r: usize,
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
    ) {
        let d = _mm512_permutex2var_epi32(lo, idx, hi);
        // SAFETY: r + 16 ≤ CHUNK bounds the sixteen-dword store.
        _mm512_storeu_si512(dist.as_mut_ptr().add(r) as *mut _, d);
        let m = _mm512_cmplt_epu32_mask(d, bound);
        cand[r / 64] |= u64::from(m) << (r % 64);
    }

    /// # Safety
    /// The CPU supports AVX2, POPCNT, AVX-512F and VPOPCNTDQ, `query`
    /// is not empty, and `rows` holds at most `CHUNK` rows of
    /// `query.len()` words.
    #[target_feature(enable = "avx2,popcnt,avx512f,avx512vpopcntdq")]
    unsafe fn chunk(
        query: &[u64],
        rows: &[u64],
        bound: u32,
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
    ) {
        let stride = query.len();
        let n = rows.len() / stride;
        let bv = _mm512_set1_epi32(bound as i32);
        let mut r = 0;
        if stride == 2 {
            // `pair_sums` of rows 0–3 and 4–7 puts row j at u64 lane
            // 2j (j < 4) or 2(j − 4) + 1.
            let idx = _mm512_setr_epi32(0, 4, 8, 12, 2, 6, 10, 14, 16, 20, 24, 28, 18, 22, 26, 30);
            // SAFETY: the query has two words.
            let qv = _mm512_broadcast_i32x4(_mm_loadu_si128(query.as_ptr() as *const __m128i));
            while r + 16 <= n {
                // SAFETY: rows r..r + 16 are 32 words inside `rows`.
                let p = rows.as_ptr().add(r * 2);
                let lo = pair_sums(xor_popcount(p, qv), xor_popcount(p.add(8), qv));
                let hi = pair_sums(xor_popcount(p.add(16), qv), xor_popcount(p.add(24), qv));
                finish16(lo, hi, idx, bv, r, dist, cand);
                r += 16;
            }
        } else if stride == 4 {
            // `quad_sums` puts row j of its eight at u64 lane
            // 0, 2, 1, 3, 4, 6, 5, 7.
            let idx = _mm512_setr_epi32(0, 4, 2, 6, 8, 12, 10, 14, 16, 20, 18, 22, 24, 28, 26, 30);
            // SAFETY: the query has four words.
            let qv = _mm512_broadcast_i64x4(_mm256_loadu_si256(query.as_ptr() as *const __m256i));
            while r + 16 <= n {
                // SAFETY: rows r..r + 16 are 64 words inside `rows`.
                let p = rows.as_ptr().add(r * 4);
                finish16(
                    quad_sums(p, qv),
                    quad_sums(p.add(32), qv),
                    idx,
                    bv,
                    r,
                    dist,
                    cand,
                );
                r += 16;
            }
        }
        super::portable_from(query, rows, r, bound, dist, cand);
    }

    /// [`super::fill_cut`] with the counting passes in 512-bit registers.
    #[target_feature(enable = "avx2,popcnt,avx512f,avx512vpopcntdq")]
    fn fill_cut(dist: &mut [u32; CHUNK], cand: &mut [u64; CHUNK_WORDS], k: usize) {
        super::fill_cut_body(dist, cand, k);
    }

    /// Safe entry: `false` when the CPU lacks the features, otherwise
    /// the cut is done.
    #[inline]
    pub fn fill_cut_checked(
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
        k: usize,
    ) -> bool {
        if !super::avx512_available() {
            return false;
        }
        // SAFETY: every enabled feature was just verified at runtime.
        unsafe { fill_cut(dist, cand, k) };
        true
    }

    /// Safe entry: `false` when the CPU lacks the features (the caller
    /// falls back to the portable loop), otherwise the chunk is done.
    #[inline]
    pub fn chunk_checked(
        query: &[u64],
        rows: &[u64],
        bound: u32,
        dist: &mut [u32; CHUNK],
        cand: &mut [u64; CHUNK_WORDS],
    ) -> bool {
        debug_assert!(!query.is_empty() && rows.len() / query.len() <= CHUNK);
        if !super::avx512_available() {
            return false;
        }
        // SAFETY: every enabled feature was just verified at runtime;
        // the row shape was asserted by `hamming_chunk`, the only
        // caller.
        unsafe { chunk(query, rows, bound, dist, cand) };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word soup (splitmix64).
    fn words(n: usize, mut seed: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn every_kernel_matches_the_scalar_row_on_every_chunk_shape() {
        for stride in 1usize..=6 {
            let p = 64 * stride as u32;
            let query = words(stride, 0xabcd ^ stride as u64);
            let store = words(CHUNK * stride, 0x1234 + stride as u64);
            let reference: Vec<u32> = store
                .chunks_exact(stride)
                .map(|row| hamming_row(&query, row))
                .collect();
            for n in 0..=CHUNK {
                let rows = &store[..n * stride];
                // "Prune everything", 1, a bound straddling the real
                // distances, "prune nothing" at p + 1 and at MAX.
                let mid = words(1, (stride * 1000 + n) as u64)[0] as u32 % (p + 2);
                for bound in [0, 1, mid, p + 1, u32::MAX] {
                    let mut want = [0u64; CHUNK_WORDS];
                    for (r, &h) in reference[..n].iter().enumerate() {
                        want[r / 64] |= u64::from(h < bound) << (r % 64);
                    }
                    for kernel in available_kernels() {
                        let mut dist = [u32::MAX; CHUNK];
                        let mut cand = [!0u64; CHUNK_WORDS];
                        hamming_chunk(kernel, &query, rows, bound, &mut dist, &mut cand);
                        let at = format!("kernel {kernel}, stride {stride}, n {n}, bound {bound}");
                        assert_eq!(cand, want, "{at}");
                        assert_eq!(dist[..n], reference[..n], "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_cuts_a_filling_chunk_at_its_kth_live_distance() {
        for p in [1u32, 64, 128, 320] {
            for n in [0usize, 1, 9, 10, 11, 64, 100, 255, CHUNK] {
                let soup = words(CHUNK + CHUNK_WORDS, (p as usize * 7919 + n) as u64);
                let dist: [u32; CHUNK] = core::array::from_fn(|r| soup[r] as u32 % (p + 1));
                // Rows past n and a scatter of dead rows are not live.
                let live: [u64; CHUNK_WORDS] = core::array::from_fn(|w| {
                    let in_range = match n.saturating_sub(64 * w) {
                        rest if rest >= 64 => !0,
                        rest => (1u64 << rest) - 1,
                    };
                    in_range & (soup[CHUNK + w] | soup[CHUNK + w] >> 1)
                });
                let mut sorted: Vec<u32> = (0..CHUNK)
                    .filter(|&r| live[r / 64] >> (r % 64) & 1 == 1)
                    .map(|r| dist[r])
                    .collect();
                sorted.sort_unstable();
                for k in [1usize, 10, 1 + soup[0] as usize % CHUNK, CHUNK] {
                    let want: [u64; CHUNK_WORDS] = match sorted.get(k) {
                        // More than k live rows: keep those at or
                        // below the k-th smallest live distance.
                        Some(_) => core::array::from_fn(|w| {
                            (0..64).fold(0, |m, b| {
                                m | u64::from(dist[64 * w + b] <= sorted[k - 1]) << b
                            }) & live[w]
                        }),
                        None => live,
                    };
                    for kernel in available_kernels() {
                        let (mut d, mut cand) = (dist, live);
                        fill_cut(kernel, &mut d, &mut cand, k);
                        let at = format!("kernel {kernel}, p {p}, n {n}, k {k}");
                        assert_eq!(cand, want, "{at}");
                        for r in (0..CHUNK).filter(|&r| live[r / 64] >> (r % 64) & 1 == 1) {
                            assert_eq!(d[r], dist[r], "{at}, live row {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a chunk is at most")]
    fn a_chunk_longer_than_chunk_rows_is_refused() {
        let rows = vec![0u64; 2 * (CHUNK + 1)];
        hamming_chunk(
            selected_kernel(),
            &[0, 0],
            &rows,
            0,
            &mut [0; CHUNK],
            &mut [0; CHUNK_WORDS],
        );
    }

    #[test]
    fn names_round_trip_and_selection_is_available() {
        for k in [
            KernelKind::Scalar,
            KernelKind::Unrolled,
            KernelKind::Avx2,
            KernelKind::Avx512,
        ] {
            assert_eq!(KernelKind::parse(k.name()), Some(k));
            assert_eq!(KernelKind::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(KernelKind::parse("neon"), None);
        assert!(available_kernels().contains(&selected_kernel()));
    }
}
