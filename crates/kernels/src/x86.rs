//! AVX2 kernels (x86_64). The only `unsafe` in the workspace's compute
//! path lives here, and it is confined to two obligations:
//!
//! 1. **ISA availability** — every `#[target_feature(enable = "avx2")]`
//!    function is reached only through [`crate::backend`], which verified
//!    `is_x86_feature_detected!("avx2")` at dispatch time.
//! 2. **In-bounds loads** — `_mm256_loadu_ps` reads 8 floats at offsets
//!    `i*8` with `i < len/8`, so every read stays inside the slice;
//!    remainder elements go through the shared safe tail. The tile's safe
//!    wrapper checks that every query and row has the one length the
//!    chunk count is derived from.
//!
//! Determinism: `_mm256_mul_ps` / `_mm256_add_ps` (never FMA) round each
//! lane exactly like the scalar multiply-then-add. The single-pair
//! kernels spill the accumulator and reduce it with the scalar backend's
//! own left-to-right helper. The tile reduces four accumulators at once
//! without leaving registers: a 4×8 transpose turns "lane `l` of
//! accumulator `r`" into "element `r` of vector `l`", and seven vertical
//! adds `((((((l0+l1)+l2)+l3)+l4)+l5)+l6)+l7` then perform, in each
//! element, literally the additions of [`crate::scalar::sum_lanes`] in
//! its order — a transpose moves values, it never rounds — so every tile
//! result is bitwise the single-pair kernel's.

#![allow(unsafe_code)]

use crate::scalar::{dot_tail, l2_tail, sum_lanes, LANES};
use std::arch::x86_64::{
    __m128, __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
    _mm256_mul_ps, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_sub_ps,
    _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm_add_ps, _mm_storeu_ps,
};

pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: dispatch verified AVX2 (module docs, obligation 1).
    unsafe { pair_avx2::<false>(a, b) }
}

pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: dispatch verified AVX2 (module docs, obligation 1).
    unsafe { pair_avx2::<true>(a, b) }
}

pub fn dot_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    check_tile(queries, rows, out);
    // SAFETY: dispatch verified AVX2 (obligation 1); `check_tile`
    // verified the equal lengths obligation 2 rests on.
    unsafe { tile_avx2::<false>(queries, rows, out) }
}

pub fn l2_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    check_tile(queries, rows, out);
    // SAFETY: as in `dot_tile`.
    unsafe { tile_avx2::<true>(queries, rows, out) }
}

/// The tile's in-bounds precondition: one output quad per query, and
/// every query and row exactly as long as `rows[0]`.
fn check_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &[[f32; 4]]) {
    assert_eq!(queries.len(), out.len(), "one output quad per query");
    let len = rows[0].len();
    assert!(rows.iter().chain(queries).all(|v| v.len() == len), "tile of mismatched lengths");
}

/// One product term of the reduction: `a·b` for the dot product,
/// `(a−b)²` for the squared distance.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn term<const L2: bool>(a: __m256, b: __m256) -> __m256 {
    if L2 {
        let d = _mm256_sub_ps(a, b);
        _mm256_mul_ps(d, d)
    } else {
        _mm256_mul_ps(a, b)
    }
}

#[inline]
fn tail<const L2: bool>(sum: f32, a: &[f32], b: &[f32], done: usize) -> f32 {
    if L2 {
        l2_tail(sum, a, b, done)
    } else {
        dot_tail(sum, a, b, done)
    }
}

#[target_feature(enable = "avx2")]
unsafe fn pair_avx2<const L2: bool>(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len().min(b.len()) / LANES;
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let off = i * LANES;
        // SAFETY: off + 8 <= chunks * 8 <= both lengths (obligation 2).
        let va = unsafe { _mm256_loadu_ps(a.as_ptr().add(off)) };
        let vb = unsafe { _mm256_loadu_ps(b.as_ptr().add(off)) };
        acc = _mm256_add_ps(acc, term::<L2>(va, vb));
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 floats, the width of a 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    tail::<L2>(sum_lanes(lanes), a, b, chunks * LANES)
}

/// Walks the queries two at a time through the 2×4 micro-kernel (eight
/// live accumulators hide the add latency four cannot); an odd last
/// query takes the same kernel at Q = 1.
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2<const L2: bool>(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    let mut pairs = queries.chunks_exact(2);
    let mut outs = out.chunks_exact_mut(2);
    for (qs, os) in pairs.by_ref().zip(outs.by_ref()) {
        // SAFETY: the caller upholds this function's own obligations.
        os.copy_from_slice(&unsafe { micro_avx2::<L2, 2>([qs[0], qs[1]], rows) });
    }
    if let ([q], [o]) = (pairs.remainder(), outs.into_remainder()) {
        // SAFETY: as above.
        [*o] = unsafe { micro_avx2::<L2, 1>([*q], rows) };
    }
}

/// The Q×4 micro-kernel: `Q·4` accumulators over one pass of the shared
/// dimension, each row chunk loaded once and used by every query.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn micro_avx2<const L2: bool, const Q: usize>(
    queries: [&[f32]; Q],
    rows: [&[f32]; 4],
) -> [[f32; 4]; Q] {
    let chunks = rows[0].len() / LANES;
    let mut acc = [[_mm256_setzero_ps(); 4]; Q];
    for i in 0..chunks {
        let off = i * LANES;
        // SAFETY: off + 8 <= chunks * 8 <= len, the length `check_tile`
        // verified every query and row to have (obligation 2).
        let vr = unsafe {
            [
                _mm256_loadu_ps(rows[0].as_ptr().add(off)),
                _mm256_loadu_ps(rows[1].as_ptr().add(off)),
                _mm256_loadu_ps(rows[2].as_ptr().add(off)),
                _mm256_loadu_ps(rows[3].as_ptr().add(off)),
            ]
        };
        for q in 0..Q {
            // SAFETY: as above.
            let vq = unsafe { _mm256_loadu_ps(queries[q].as_ptr().add(off)) };
            for r in 0..4 {
                acc[q][r] = _mm256_add_ps(acc[q][r], term::<L2>(vq, vr[r]));
            }
        }
    }
    let done = chunks * LANES;
    let mut out = [[0.0f32; 4]; Q];
    for q in 0..Q {
        // SAFETY: `out[q]` is exactly 4 floats, the width of a 128-bit store.
        unsafe { _mm_storeu_ps(out[q].as_mut_ptr(), ordered_lane_sums(acc[q])) };
        for r in 0..4 {
            out[q][r] = tail::<L2>(out[q][r], queries[q], rows[r], done);
        }
    }
    out
}

/// Element `r` of the result is `sum_lanes` of accumulator `r`: the 4×8
/// transpose gathers lane `l` of all four accumulators into one 128-bit
/// vector `l`, and the vectors are added in lane order 0, 1, …, 7.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ordered_lane_sums(acc: [__m256; 4]) -> __m128 {
    // Per 128-bit half h ∈ {0, 4}: t0 = a0[h] a1[h] a0[h+1] a1[h+1],
    // t1 = a0[h+2] a1[h+2] a0[h+3] a1[h+3]; t2, t3 likewise for a2, a3.
    let t0 = _mm256_unpacklo_ps(acc[0], acc[1]);
    let t1 = _mm256_unpackhi_ps(acc[0], acc[1]);
    let t2 = _mm256_unpacklo_ps(acc[2], acc[3]);
    let t3 = _mm256_unpackhi_ps(acc[2], acc[3]);
    // `lXY` holds lane X of a0..a3 in its low half and lane Y in its high.
    let l04 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let l15 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let l26 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let l37 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let mut sum = _mm256_castps256_ps128(l04);
    sum = _mm_add_ps(sum, _mm256_castps256_ps128(l15));
    sum = _mm_add_ps(sum, _mm256_castps256_ps128(l26));
    sum = _mm_add_ps(sum, _mm256_castps256_ps128(l37));
    sum = _mm_add_ps(sum, _mm256_extractf128_ps::<1>(l04));
    sum = _mm_add_ps(sum, _mm256_extractf128_ps::<1>(l15));
    sum = _mm_add_ps(sum, _mm256_extractf128_ps::<1>(l26));
    _mm_add_ps(sum, _mm256_extractf128_ps::<1>(l37))
}
