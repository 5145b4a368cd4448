//! Portable reference kernels in the fixed 8-lane reduction order.
//!
//! These are both the fallback backend and the ground truth the SIMD
//! paths are tested against: every other backend must return bitwise
//! the same `f32` for the same inputs. Lane `l` accumulates elements
//! `l, l+8, l+16, …`; lane sums combine left to right; remainder
//! elements append sequentially. No FMA anywhere — multiply and add stay
//! separate IEEE operations so vector and scalar hardware round
//! identically.

/// Width of the fixed reduction: one 256-bit AVX2 register or eight
/// scalar accumulators.
pub(crate) const LANES: usize = 8;

/// Appends the elementwise-product tail `a[done..] · b[done..]` to the
/// combined lane sum, one element at a time.
#[inline]
pub(crate) fn dot_tail(mut sum: f32, a: &[f32], b: &[f32], done: usize) -> f32 {
    for i in done..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Appends the squared-difference tail to the combined lane sum.
#[inline]
pub(crate) fn l2_tail(mut sum: f32, a: &[f32], b: &[f32], done: usize) -> f32 {
    for i in done..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Combines eight lane partial sums left to right — the one order every
/// backend's reduction reproduces.
#[inline]
pub(crate) fn sum_lanes(lanes: [f32; LANES]) -> f32 {
    let mut sum = lanes[0];
    for &l in &lanes[1..] {
        sum += l;
    }
    sum
}

/// Reference dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / LANES;
    let mut lanes = [0.0f32; LANES];
    for i in 0..chunks {
        let off = i * LANES;
        for l in 0..LANES {
            lanes[l] += a[off + l] * b[off + l];
        }
    }
    dot_tail(sum_lanes(lanes), a, b, chunks * LANES)
}

/// Reference squared L2 distance.
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / LANES;
    let mut lanes = [0.0f32; LANES];
    for i in 0..chunks {
        let off = i * LANES;
        for l in 0..LANES {
            let d = a[off + l] - b[off + l];
            lanes[l] += d * d;
        }
    }
    l2_tail(sum_lanes(lanes), a, b, chunks * LANES)
}

/// The tile signature expressed through a backend's single-pair kernel:
/// `out[q][r] = pair(queries[q], rows[r])`. The scalar backend tiles with
/// this; AVX2 has a register-blocked tile of its own.
#[inline]
pub(crate) fn tile_by_pairs(
    pair: fn(&[f32], &[f32]) -> f32,
    queries: &[&[f32]],
    rows: [&[f32]; 4],
    out: &mut [[f32; 4]],
) {
    assert_eq!(queries.len(), out.len(), "one output quad per query");
    for (q, o) in queries.iter().zip(out) {
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(q.len(), row.len(), "tile of mismatched lengths");
            o[r] = pair(q, row);
        }
    }
}

/// Reference dot tile: `out[q][r] = dot(queries[q], rows[r])`.
pub fn dot_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    tile_by_pairs(dot, queries, rows, out);
}

/// Reference squared-L2 tile: `out[q][r] = l2(queries[q], rows[r])`.
pub fn l2_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    tile_by_pairs(l2, queries, rows, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_l2_basic_values() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let b = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 165.0);
        // Σ (a-b)² = 64+36+16+4+0+4+16+36+64 = 240
        assert_eq!(l2(&a, &b), 240.0);
    }
}
