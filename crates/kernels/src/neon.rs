//! NEON kernels (aarch64). NEON is a mandatory AArch64 feature, so the
//! `unsafe` here carries only the in-bounds obligation: `vld1q_f32`
//! reads 4 floats at offsets `i*8` and `i*8 + 4` with `i < len/8`, so
//! every read stays inside the slice; remainder elements go through the
//! shared safe tail.
//!
//! Determinism: two 4-lane quads emulate the fixed 8-lane accumulator —
//! `vmulq_f32` / `vaddq_f32` (never `vfmaq`) round each lane exactly
//! like the scalar multiply-then-add, both quads are spilled into one
//! 8-float array in lane order, and the same left-to-right reduction as
//! the scalar backend finishes the sum. Results are bitwise-identical to
//! [`crate::scalar`].
//!
//! The Q×4 tile is expressed through the single-pair kernels above
//! ([`crate::scalar::tile_by_pairs`]): no aarch64 runner exists to
//! execute a register-blocked NEON tile, so none is shipped.

#![allow(unsafe_code)]

use crate::scalar::{dot_tail, l2_tail, sum_lanes, tile_by_pairs, LANES};
use std::arch::aarch64::{
    float32x4_t, vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32, vsubq_f32,
};

#[inline]
fn spill(lo: float32x4_t, hi: float32x4_t) -> [f32; LANES] {
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` holds exactly two 128-bit quads.
    unsafe {
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
    }
    lanes
}

pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / LANES;
    // SAFETY: NEON is mandatory on aarch64; loads stay in bounds
    // (module docs).
    unsafe {
        let (mut lo, mut hi) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
        for i in 0..chunks {
            let off = i * LANES;
            let (ap, bp) = (a.as_ptr().add(off), b.as_ptr().add(off));
            lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(ap), vld1q_f32(bp)));
            hi = vaddq_f32(hi, vmulq_f32(vld1q_f32(ap.add(4)), vld1q_f32(bp.add(4))));
        }
        dot_tail(sum_lanes(spill(lo, hi)), a, b, chunks * LANES)
    }
}

pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / LANES;
    // SAFETY: NEON is mandatory on aarch64; loads stay in bounds
    // (module docs).
    unsafe {
        let (mut lo, mut hi) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
        for i in 0..chunks {
            let off = i * LANES;
            let (ap, bp) = (a.as_ptr().add(off), b.as_ptr().add(off));
            let dl = vsubq_f32(vld1q_f32(ap), vld1q_f32(bp));
            let dh = vsubq_f32(vld1q_f32(ap.add(4)), vld1q_f32(bp.add(4)));
            lo = vaddq_f32(lo, vmulq_f32(dl, dl));
            hi = vaddq_f32(hi, vmulq_f32(dh, dh));
        }
        l2_tail(sum_lanes(spill(lo, hi)), a, b, chunks * LANES)
    }
}

pub fn dot_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    tile_by_pairs(dot, queries, rows, out);
}

pub fn l2_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    tile_by_pairs(l2, queries, rows, out);
}
