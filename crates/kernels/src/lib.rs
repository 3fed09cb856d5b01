//! # gdim-kernels — width-optimized scan kernels
//!
//! The online phase of the paper's pipeline is a linear scan over the
//! flat SoA vector store: per row, XOR the query words against the row
//! words and popcount. That scan is memory-bound, so the kernels here
//! widen per-row compute two ways while staying **bit-identical** to
//! the scalar reference loop:
//!
//! - [`KernelKind::Unrolled`] — a portable chunked-`u64` kernel that
//!   processes the **8 rows of a block** inside one word loop,
//!   interleaving their XOR+popcount so each query word is loaded once
//!   per block instead of once per row.
//! - [`KernelKind::Avx2`] — the same 8-row block, the block's rows
//!   held in 256-bit registers across every query of a fused scan and
//!   counted through a `target_feature(enable = "avx2")` intrinsic
//!   popcount (the nibble-LUT `_mm256_shuffle_epi8` +
//!   `_mm256_sad_epu8` reduction).
//!   Selected at runtime via `is_x86_feature_detected!`; never chosen
//!   on other architectures or under `--cfg gdim_portable`.
//! - [`KernelKind::Avx512`] — the AVX2 shape with the shuffle popcount
//!   replaced by the single-instruction `vpopcntq`
//!   (`AVX512VPOPCNTDQ`+`VL`, staying at 256-bit width so no 512-bit
//!   frequency licensing applies) and the fused prune compare done in
//!   mask registers. Same runtime gating as AVX2.
//! - [`KernelKind::Scalar`] — the original row-at-a-time loop, always
//!   available as the reference and fallback.
//!
//! Hamming distances are exact integer counts, so every kernel returns
//! the same `u32` for the same row — callers may freely mix kernels
//! without changing results. [`selected_kernel`] picks the best
//! available kernel once per process; tests and benches that compare
//! kernels pass a [`KernelKind`] explicitly.
//!
//! This crate deliberately holds the only `unsafe` in the workspace
//! (`gdim-core` keeps `#![forbid(unsafe_code)]`): the intrinsic paths
//! live in one small module behind runtime feature detection.

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
    /// Portable interleaved block kernel (8 rows per word loop).
    Unrolled,
    /// Block kernel with AVX2 256-bit intrinsic popcount.
    Avx2,
    /// AVX2 block shape with the `vpopcntq` single-instruction
    /// popcount and mask-register prune compares (256-bit VL width).
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

/// Runtime check: can the AVX2 kernel run here? Always `false` off
/// x86_64 and under `--cfg gdim_portable` (the pinned portable build).
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(gdim_portable))))]
    {
        false
    }
}

/// Runtime check: can the AVX-512 kernel run here? Requires
/// `AVX512F`+`VL` (256-bit forms) and `AVX512VPOPCNTDQ`; always
/// `false` off x86_64 and under `--cfg gdim_portable`.
pub fn avx512_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
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

/// Bitmask (bits 0..8) of block rows whose distance is strictly below
/// `bound` — the portable form of the AVX2 in-register compare.
#[inline]
fn prune_mask8(h: &[u32; 8], bound: u32) -> u8 {
    h.iter()
        .enumerate()
        .fold(0u8, |m, (r, &v)| m | (((v < bound) as u8) << r))
}

/// The portable 8-row block: the eight accumulations interleaved
/// inside a single word loop, so each query word is loaded once per
/// block.
#[inline]
fn block8_portable(q: &[u64], block: &[u64], stride: usize) -> [u32; 8] {
    debug_assert_eq!(q.len(), stride);
    let mut h = [0u32; 8];
    for (w, &qw) in q.iter().enumerate() {
        for (r, hr) in h.iter_mut().enumerate() {
            *hr += (qw ^ block[r * stride + w]).count_ones();
        }
    }
    h
}

/// The fused scan's hot step: every query's distances against an
/// **8-row block** with per-query **bound pruning**, in one dispatch.
/// For each query `j`, `cand[j]` is set to the bitmask of rows whose
/// distance is strictly below `bounds[j]`, and `out[j]` is only
/// guaranteed to be written when that mask is non-zero. Returns
/// whether any query has any candidate row, so callers can skip their
/// offer loop for the (overwhelmingly common, once selectors fill)
/// all-pruned block. Callers maintaining a bounded top-k selector
/// pass the current k-th key (or `u32::MAX` while the selector is
/// filling); a row at exactly the bound can never displace an earlier
/// row with the same key, so the strict compare is
/// selection-identical to offering every row. On AVX2 the block's
/// rows stay resident in registers across all queries and the compare
/// happens in registers too — the no-candidate case touches no memory
/// beyond the mask byte.
#[inline]
pub fn hamming_block8_multi_pruned(
    kernel: KernelKind,
    queries: &[&[u64]],
    block: &[u64],
    stride: usize,
    bounds: &[u32],
    out: &mut [[u32; 8]],
    cand: &mut [u8],
) -> bool {
    debug_assert_eq!(queries.len(), out.len());
    debug_assert_eq!(queries.len(), bounds.len());
    debug_assert_eq!(queries.len(), cand.len());
    debug_assert_eq!(block.len(), 8 * stride);
    match kernel {
        KernelKind::Scalar | KernelKind::Unrolled => {}
        // Strides 1 and 3 have no register shape, and the portable
        // block beats counting them row by row with intrinsics.
        KernelKind::Avx2 | KernelKind::Avx512 if stride < 4 && stride != 2 => {}
        KernelKind::Avx2 => {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if let Some(any) =
                avx2::hamming_block8_multi_pruned_checked(queries, block, stride, bounds, out, cand)
            {
                return any;
            }
        }
        KernelKind::Avx512 => {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if let Some(any) = avx512::hamming_block8_multi_pruned_checked(
                queries, block, stride, bounds, out, cand,
            ) {
                return any;
            }
        }
    }
    // `Scalar` row by row; otherwise the portable block (`Unrolled`, a
    // stride without a register shape, or an intrinsic kind the
    // CPU/build lacks).
    let mut any = false;
    for (((q, &b), o), c) in queries
        .iter()
        .zip(bounds.iter())
        .zip(out.iter_mut())
        .zip(cand.iter_mut())
    {
        *o = if kernel == KernelKind::Scalar {
            core::array::from_fn(|j| hamming_row(q, &block[j * stride..(j + 1) * stride]))
        } else {
            block8_portable(q, block, stride)
        };
        *c = prune_mask8(o, b);
        any |= *c != 0;
    }
    any
}

/// Dispatch the single-row kernel (used for the last rows of a range,
/// fewer than a block). `Avx2` / `Avx512` silently degrade to the
/// scalar loop when the CPU/build lacks them, so the kind is safe to
/// pass through from configuration.
#[inline]
pub fn hamming_row_kernel(kernel: KernelKind, query: &[u64], row: &[u64]) -> u32 {
    match kernel {
        KernelKind::Scalar | KernelKind::Unrolled => hamming_row(query, row),
        KernelKind::Avx2 => {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if let Some(h) = avx2::hamming_row_checked(query, row) {
                return h;
            }
            hamming_row(query, row)
        }
        KernelKind::Avx512 => {
            #[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
            if let Some(h) = avx512::hamming_row_checked(query, row) {
                return h;
            }
            hamming_row(query, row)
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
mod avx2 {
    //! AVX2 intrinsic kernels. The popcount is the nibble-LUT form
    //! (Muła): split each byte into nibbles, table-lookup per-nibble
    //! bit counts with `_mm256_shuffle_epi8`, then horizontally sum
    //! bytes into the four u64 lanes with `_mm256_sad_epu8`. Exact
    //! integer counts — bit-identical to `count_ones`.
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    /// Per-nibble popcount LUT, replicated across both 128-bit lanes
    /// (`_mm256_shuffle_epi8` shuffles within lanes).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount256(v: __m256i) -> __m256i {
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

    /// # Safety
    /// Caller must guarantee the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hamming_row_avx2(query: &[u64], row: &[u64]) -> u32 {
        debug_assert_eq!(query.len(), row.len());
        let n = query.len();
        let mut acc = _mm256_setzero_si256();
        let mut w = 0usize;
        while w + 4 <= n {
            // SAFETY: w + 4 <= n bounds both unaligned 4-word loads.
            let q = _mm256_loadu_si256(query.as_ptr().add(w) as *const __m256i);
            let r = _mm256_loadu_si256(row.as_ptr().add(w) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(q, r)));
            w += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut h = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
        while w < n {
            h += (query[w] ^ row[w]).count_ones();
            w += 1;
        }
        h
    }

    /// Horizontal reduction of four per-lane u64 count vectors into
    /// the four row totals, entirely in registers: pairwise lane sums
    /// via unpack, then cross-lane combine via `permute2x128`. Avoids
    /// four separate store-to-stack reductions per block.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum4_epi64_vec(
        x0: __m256i,
        x1: __m256i,
        x2: __m256i,
        x3: __m256i,
    ) -> __m256i {
        // s01 = [x0.q0+q1, x1.q0+q1 | x0.q2+q3, x1.q2+q3], s23 alike.
        let s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(x0, x1), _mm256_unpackhi_epi64(x0, x1));
        let s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(x2, x3), _mm256_unpackhi_epi64(x2, x3));
        let lo = _mm256_permute2x128_si256(s01, s23, 0x20);
        let hi = _mm256_permute2x128_si256(s01, s23, 0x31);
        _mm256_add_epi64(lo, hi)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes_to_u32x4(t: __m256i) -> [u32; 4] {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, t);
        [
            lanes[0] as u32,
            lanes[1] as u32,
            lanes[2] as u32,
            lanes[3] as u32,
        ]
    }

    /// Row totals of two count vectors that hold two 2-word rows each
    /// (`[r0.w0, r0.w1, r1.w0, r1.w1]`, `[r2.., r3..]`), in row order.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum2x2_epi64_vec(x01: __m256i, x23: __m256i) -> __m256i {
        // Unpack pairs word 0s and word 1s as [r0, r2 | r1, r3].
        let s = _mm256_add_epi64(
            _mm256_unpacklo_epi64(x01, x23),
            _mm256_unpackhi_epi64(x01, x23),
        );
        _mm256_permute4x64_epi64::<0b11_01_10_00>(s)
    }

    /// The prune step of one query over one 8-row block: per-lane
    /// `h < bound` compare in registers (counts and bounds both fit
    /// i64, so the signed compare is exact); distances are stored only
    /// when some row survives. Returns whether any did.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn prune8(
        t_lo: __m256i,
        t_hi: __m256i,
        bound: u32,
        out: &mut [u32; 8],
        cand: &mut u8,
    ) -> bool {
        let bv = _mm256_set1_epi64x(bound as i64);
        let m_lo = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, t_lo)));
        let m_hi = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, t_hi)));
        *cand = (m_lo | (m_hi << 4)) as u8;
        if *cand != 0 {
            let lo = lanes_to_u32x4(t_lo);
            let hi = lanes_to_u32x4(t_hi);
            *out = [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]];
        }
        *cand != 0
    }

    /// # Safety
    /// Caller must guarantee the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hamming_block8_multi_pruned_avx2(
        queries: &[&[u64]],
        block: &[u64],
        stride: usize,
        bounds: &[u32],
        out: &mut [[u32; 8]],
        cand: &mut [u8],
    ) -> bool {
        let mut any = false;
        let p = block.as_ptr();
        if stride == 4 {
            // SAFETY: stride == 4 means block holds 32 words, bounding
            // all eight unaligned row loads.
            let r0 = _mm256_loadu_si256(p as *const __m256i);
            let r1 = _mm256_loadu_si256(p.add(4) as *const __m256i);
            let r2 = _mm256_loadu_si256(p.add(8) as *const __m256i);
            let r3 = _mm256_loadu_si256(p.add(12) as *const __m256i);
            let r4 = _mm256_loadu_si256(p.add(16) as *const __m256i);
            let r5 = _mm256_loadu_si256(p.add(20) as *const __m256i);
            let r6 = _mm256_loadu_si256(p.add(24) as *const __m256i);
            let r7 = _mm256_loadu_si256(p.add(28) as *const __m256i);
            // Index-based walk with unchecked accesses: the zip of
            // four slices costs four pointer updates per query, which
            // is measurable at 64 queries per 8 rows.
            for j in 0..queries.len() {
                // SAFETY: j < queries.len() == bounds/out/cand len
                // (asserted by the dispatching wrapper).
                let q = *queries.get_unchecked(j);
                debug_assert_eq!(q.len(), 4);
                // SAFETY: each query row has exactly stride (4) words.
                let qv = _mm256_loadu_si256(q.as_ptr() as *const __m256i);
                let t_lo = sum4_epi64_vec(
                    popcount256(_mm256_xor_si256(r0, qv)),
                    popcount256(_mm256_xor_si256(r1, qv)),
                    popcount256(_mm256_xor_si256(r2, qv)),
                    popcount256(_mm256_xor_si256(r3, qv)),
                );
                let t_hi = sum4_epi64_vec(
                    popcount256(_mm256_xor_si256(r4, qv)),
                    popcount256(_mm256_xor_si256(r5, qv)),
                    popcount256(_mm256_xor_si256(r6, qv)),
                    popcount256(_mm256_xor_si256(r7, qv)),
                );
                any |= prune8(
                    t_lo,
                    t_hi,
                    *bounds.get_unchecked(j),
                    out.get_unchecked_mut(j),
                    cand.get_unchecked_mut(j),
                );
            }
        } else if stride == 2 {
            // 128-bit signatures: two rows per vector, the query in
            // both halves.
            // SAFETY: stride == 2 means block holds 16 words, bounding
            // all four unaligned two-row loads.
            let r01 = _mm256_loadu_si256(p as *const __m256i);
            let r23 = _mm256_loadu_si256(p.add(4) as *const __m256i);
            let r45 = _mm256_loadu_si256(p.add(8) as *const __m256i);
            let r67 = _mm256_loadu_si256(p.add(12) as *const __m256i);
            for j in 0..queries.len() {
                // SAFETY: j < queries.len() == bounds/out/cand len
                // (asserted by the dispatching wrapper).
                let q = *queries.get_unchecked(j);
                debug_assert_eq!(q.len(), 2);
                // SAFETY: each query row has exactly stride (2) words.
                let qv = _mm256_broadcastsi128_si256(_mm_loadu_si128(q.as_ptr() as *const __m128i));
                let t_lo = sum2x2_epi64_vec(
                    popcount256(_mm256_xor_si256(r01, qv)),
                    popcount256(_mm256_xor_si256(r23, qv)),
                );
                let t_hi = sum2x2_epi64_vec(
                    popcount256(_mm256_xor_si256(r45, qv)),
                    popcount256(_mm256_xor_si256(r67, qv)),
                );
                any |= prune8(
                    t_lo,
                    t_hi,
                    *bounds.get_unchecked(j),
                    out.get_unchecked_mut(j),
                    cand.get_unchecked_mut(j),
                );
            }
        } else {
            for (((q, &b), o), c) in queries
                .iter()
                .zip(bounds.iter())
                .zip(out.iter_mut())
                .zip(cand.iter_mut())
            {
                *o = core::array::from_fn(|r| {
                    hamming_row_avx2(q, &block[r * stride..(r + 1) * stride])
                });
                *c = super::prune_mask8(o, b);
                any |= *c != 0;
            }
        }
        any
    }

    /// Safe entry for the pruned fused block kernel: `None` when the
    /// CPU lacks AVX2 (caller falls back to portable), otherwise the
    /// kernel's any-candidate flag.
    #[inline]
    pub fn hamming_block8_multi_pruned_checked(
        queries: &[&[u64]],
        block: &[u64],
        stride: usize,
        bounds: &[u32],
        out: &mut [[u32; 8]],
        cand: &mut [u8],
    ) -> Option<bool> {
        if super::avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            Some(unsafe {
                hamming_block8_multi_pruned_avx2(queries, block, stride, bounds, out, cand)
            })
        } else {
            None
        }
    }

    /// Safe entry for the single-row AVX2 kernel; see
    /// [`hamming_block8_multi_pruned_checked`].
    #[inline]
    pub fn hamming_row_checked(query: &[u64], row: &[u64]) -> Option<u32> {
        if super::avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            Some(unsafe { hamming_row_avx2(query, row) })
        } else {
            None
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(gdim_portable)))]
mod avx512 {
    //! AVX-512 intrinsic kernels at 256-bit `VL` width: the AVX2 block
    //! shapes with the nibble-LUT popcount replaced by the
    //! single-instruction `vpopcntq` (`AVX512VPOPCNTDQ`), and the
    //! fused prune compare done with `vpcmpuq` into mask registers.
    //! Staying at 256 bits keeps the row/register layout identical to
    //! the AVX2 module and avoids 512-bit frequency licensing. Exact
    //! integer counts — bit-identical to `count_ones`.
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must guarantee the CPU supports the `FEATURES` set.
    #[target_feature(enable = "avx2,avx512f,avx512vl,avx512vpopcntdq")]
    unsafe fn hamming_row_avx512(query: &[u64], row: &[u64]) -> u32 {
        debug_assert_eq!(query.len(), row.len());
        let n = query.len();
        let mut acc = _mm256_setzero_si256();
        let mut w = 0usize;
        while w + 4 <= n {
            // SAFETY: w + 4 <= n bounds both unaligned 4-word loads.
            let q = _mm256_loadu_si256(query.as_ptr().add(w) as *const __m256i);
            let r = _mm256_loadu_si256(row.as_ptr().add(w) as *const __m256i);
            acc = _mm256_add_epi64(acc, _mm256_popcnt_epi64(_mm256_xor_si256(q, r)));
            w += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut h = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
        while w < n {
            h += (query[w] ^ row[w]).count_ones();
            w += 1;
        }
        h
    }

    /// The prune step of one query over one 8-row block: `h < bound`
    /// per lane, straight into mask registers; distances are stored
    /// only when some row survives. Returns whether any did.
    #[inline]
    #[target_feature(enable = "avx2,avx512f,avx512vl,avx512vpopcntdq")]
    unsafe fn prune8(
        t_lo: __m256i,
        t_hi: __m256i,
        bound: u32,
        out: &mut [u32; 8],
        cand: &mut u8,
    ) -> bool {
        let bv = _mm256_set1_epi64x(bound as i64);
        *cand = _mm256_cmplt_epu64_mask(t_lo, bv) | (_mm256_cmplt_epu64_mask(t_hi, bv) << 4);
        if *cand != 0 {
            let lo = super::avx2::lanes_to_u32x4(t_lo);
            let hi = super::avx2::lanes_to_u32x4(t_hi);
            *out = [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]];
        }
        *cand != 0
    }

    /// # Safety
    /// Caller must guarantee the CPU supports the `FEATURES` set.
    #[target_feature(enable = "avx2,avx512f,avx512vl,avx512vpopcntdq")]
    unsafe fn hamming_block8_multi_pruned_avx512(
        queries: &[&[u64]],
        block: &[u64],
        stride: usize,
        bounds: &[u32],
        out: &mut [[u32; 8]],
        cand: &mut [u8],
    ) -> bool {
        let mut any = false;
        let p = block.as_ptr();
        if stride == 4 {
            // SAFETY: stride == 4 means block holds 32 words, bounding
            // all eight unaligned row loads.
            let r0 = _mm256_loadu_si256(p as *const __m256i);
            let r1 = _mm256_loadu_si256(p.add(4) as *const __m256i);
            let r2 = _mm256_loadu_si256(p.add(8) as *const __m256i);
            let r3 = _mm256_loadu_si256(p.add(12) as *const __m256i);
            let r4 = _mm256_loadu_si256(p.add(16) as *const __m256i);
            let r5 = _mm256_loadu_si256(p.add(20) as *const __m256i);
            let r6 = _mm256_loadu_si256(p.add(24) as *const __m256i);
            let r7 = _mm256_loadu_si256(p.add(28) as *const __m256i);
            for j in 0..queries.len() {
                // SAFETY: j < queries.len() == bounds/out/cand len
                // (asserted by the dispatching wrapper).
                let q = *queries.get_unchecked(j);
                debug_assert_eq!(q.len(), 4);
                // SAFETY: each query row has exactly stride (4) words.
                let qv = _mm256_loadu_si256(q.as_ptr() as *const __m256i);
                let t_lo = super::avx2::sum4_epi64_vec(
                    _mm256_popcnt_epi64(_mm256_xor_si256(r0, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r1, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r2, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r3, qv)),
                );
                let t_hi = super::avx2::sum4_epi64_vec(
                    _mm256_popcnt_epi64(_mm256_xor_si256(r4, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r5, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r6, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r7, qv)),
                );
                any |= prune8(
                    t_lo,
                    t_hi,
                    *bounds.get_unchecked(j),
                    out.get_unchecked_mut(j),
                    cand.get_unchecked_mut(j),
                );
            }
        } else if stride == 2 {
            // 128-bit signatures: two rows per vector, the query in
            // both halves.
            // SAFETY: stride == 2 means block holds 16 words, bounding
            // all four unaligned two-row loads.
            let r01 = _mm256_loadu_si256(p as *const __m256i);
            let r23 = _mm256_loadu_si256(p.add(4) as *const __m256i);
            let r45 = _mm256_loadu_si256(p.add(8) as *const __m256i);
            let r67 = _mm256_loadu_si256(p.add(12) as *const __m256i);
            for j in 0..queries.len() {
                // SAFETY: j < queries.len() == bounds/out/cand len
                // (asserted by the dispatching wrapper).
                let q = *queries.get_unchecked(j);
                debug_assert_eq!(q.len(), 2);
                // SAFETY: each query row has exactly stride (2) words.
                let qv = _mm256_broadcastsi128_si256(_mm_loadu_si128(q.as_ptr() as *const __m128i));
                let t_lo = super::avx2::sum2x2_epi64_vec(
                    _mm256_popcnt_epi64(_mm256_xor_si256(r01, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r23, qv)),
                );
                let t_hi = super::avx2::sum2x2_epi64_vec(
                    _mm256_popcnt_epi64(_mm256_xor_si256(r45, qv)),
                    _mm256_popcnt_epi64(_mm256_xor_si256(r67, qv)),
                );
                any |= prune8(
                    t_lo,
                    t_hi,
                    *bounds.get_unchecked(j),
                    out.get_unchecked_mut(j),
                    cand.get_unchecked_mut(j),
                );
            }
        } else {
            for (((q, &b), o), c) in queries
                .iter()
                .zip(bounds.iter())
                .zip(out.iter_mut())
                .zip(cand.iter_mut())
            {
                *o = core::array::from_fn(|r| {
                    hamming_row_avx512(q, &block[r * stride..(r + 1) * stride])
                });
                *c = super::prune_mask8(o, b);
                any |= *c != 0;
            }
        }
        any
    }

    /// Safe entry for the pruned fused block kernel: `None` when the
    /// CPU lacks the features (caller falls back to portable),
    /// otherwise the kernel's any-candidate flag.
    #[inline]
    pub fn hamming_block8_multi_pruned_checked(
        queries: &[&[u64]],
        block: &[u64],
        stride: usize,
        bounds: &[u32],
        out: &mut [[u32; 8]],
        cand: &mut [u8],
    ) -> Option<bool> {
        if super::avx512_available() {
            // SAFETY: the FEATURES set was just verified at runtime.
            Some(unsafe {
                hamming_block8_multi_pruned_avx512(queries, block, stride, bounds, out, cand)
            })
        } else {
            None
        }
    }

    /// Safe entry for the single-row AVX-512 kernel; see
    /// [`hamming_block8_multi_pruned_checked`].
    #[inline]
    pub fn hamming_row_checked(query: &[u64], row: &[u64]) -> Option<u32> {
        if super::avx512_available() {
            // SAFETY: the FEATURES set was just verified at runtime.
            Some(unsafe { hamming_row_avx512(query, row) })
        } else {
            None
        }
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
    fn every_kernel_matches_the_scalar_reference() {
        for stride in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31] {
            let query = words(stride, 0xabcd ^ stride as u64);
            let block = words(4 * stride, 0x1234 + stride as u64);
            let reference: [u32; 4] =
                core::array::from_fn(|j| hamming_row(&query, &block[j * stride..(j + 1) * stride]));
            for kernel in available_kernels() {
                for j in 0..4 {
                    assert_eq!(
                        hamming_row_kernel(kernel, &query, &block[j * stride..(j + 1) * stride]),
                        reference[j],
                        "kernel {kernel}, stride {stride}, row {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_fused_kernel_matches_reference_and_bound_semantics() {
        for stride in [0usize, 1, 2, 3, 4, 5, 8, 13] {
            let block = words(8 * stride, 0x99 + stride as u64);
            for qn in [0usize, 1, 2, 7, 16] {
                let queries: Vec<Vec<u64>> = (0..qn)
                    .map(|i| words(stride, 0xbead + (i * 17 + stride) as u64))
                    .collect();
                let qrefs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
                let reference: Vec<[u32; 8]> = qrefs
                    .iter()
                    .map(|q| {
                        core::array::from_fn(|j| {
                            hamming_row(q, &block[j * stride..(j + 1) * stride])
                        })
                    })
                    .collect();
                // Per-query bounds spanning "prune everything" (0),
                // "prune nothing" (MAX), and values straddling the
                // real distances so some rows survive.
                let bounds: Vec<u32> = (0..qn)
                    .map(|j| match j % 4 {
                        0 => 0,
                        1 => u32::MAX,
                        2 => reference[j].iter().copied().min().unwrap_or(0),
                        _ => reference[j].iter().copied().max().unwrap_or(0).max(1),
                    })
                    .collect();
                let want_cand: Vec<u8> = (0..qn)
                    .map(|j| prune_mask8(&reference[j], bounds[j]))
                    .collect();
                let want_any = want_cand.iter().any(|&m| m != 0);
                for kernel in available_kernels() {
                    let mut out = vec![[u32::MAX; 8]; qn];
                    let mut cand = vec![0xffu8; qn];
                    let any = hamming_block8_multi_pruned(
                        kernel, &qrefs, &block, stride, &bounds, &mut out, &mut cand,
                    );
                    assert_eq!(any, want_any, "kernel {kernel}, stride {stride}, qn {qn}");
                    assert_eq!(cand, want_cand, "kernel {kernel}, stride {stride}, qn {qn}");
                    for j in 0..qn {
                        // Distances are only contracted for rows the
                        // candidate mask kept.
                        for r in 0..8 {
                            if (cand[j] >> r) & 1 == 1 {
                                assert_eq!(
                                    out[j][r], reference[j][r],
                                    "kernel {kernel}, stride {stride}, qn {qn}, q {j}, row {r}"
                                );
                            }
                        }
                    }
                }
            }
        }
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
