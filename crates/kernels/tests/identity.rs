//! The determinism contract, property-tested: whatever backend the
//! process dispatched to (AVX2 here on x86_64 CI, scalar on other targets
//! and under `SUBMOD_KERNELS=scalar`), every kernel must return
//! **bitwise-identical** `f32`s to the scalar reference — across lengths
//! 0–257, misaligned slice starts, and denormal/extreme magnitudes. The
//! tile micro-kernel is held to the single-pair scalar reference for
//! every dimension 0–67 and every query count and row remainder, and
//! the batch drivers built on it to their one-query, one-row scalar
//! scans.

use proptest::prelude::*;
use submod_kernels::{
    batch_top_k, cosine_top_k_gather, dot, dot_scores, dot_tile, l2_argmin, l2_distance_squared,
    l2_tile, scalar, TopK, TopKBlock,
};

/// Values spanning the nasty corners: denormals, huge magnitudes that
/// overflow products to ±inf, zeros, and ordinary mid-range floats.
fn arb_element() -> impl Strategy<Value = f32> {
    (0u8..13, -100.0f32..100.0).prop_map(|(corner, ordinary)| match corner {
        0 => 0.0,
        1 => -0.0,
        2 => f32::MIN_POSITIVE,           // smallest normal
        3 => f32::MIN_POSITIVE / 64.0,    // denormal
        4 => -f32::MIN_POSITIVE / 1024.0, // tiny negative denormal
        5 => 3.0e38,                      // near f32::MAX
        6 => -2.9e38,
        7 => 1.0e-38,
        _ => ordinary,
    })
}

/// A pair of equal-length vectors (length 0–257) plus a misalignment
/// offset 0–7: the kernels see `&buf[offset..offset + len]`, so the
/// SIMD loads start at every possible 4-byte (mis)alignment.
fn arb_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, usize)> {
    (0usize..=257, 0usize..8).prop_flat_map(|(len, offset)| {
        (
            proptest::collection::vec(arb_element(), len + offset),
            proptest::collection::vec(arb_element(), len + offset),
            Just(offset),
        )
    })
}

/// Deterministic pseudo-random values in `[-1, 1)` (keeps the matrix
/// strategies small: one seed instead of a vector per element).
fn lcg(seed: u64) -> impl FnMut() -> f32 {
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dispatched `dot` == scalar reference, bit for bit.
    #[test]
    fn dot_is_bitwise_identical_to_scalar((a, b, offset) in arb_pair()) {
        let (a, b) = (&a[offset..], &b[offset..]);
        prop_assert_eq!(dot(a, b).to_bits(), scalar::dot(a, b).to_bits());
    }

    /// Dispatched `l2_distance_squared` == scalar reference, bit for bit.
    #[test]
    fn l2_is_bitwise_identical_to_scalar((a, b, offset) in arb_pair()) {
        let (a, b) = (&a[offset..], &b[offset..]);
        prop_assert_eq!(
            l2_distance_squared(a, b).to_bits(),
            scalar::l2(a, b).to_bits()
        );
    }

    /// Every tile result equals the single-pair scalar kernel, bit for
    /// bit: every dimension 0..=67 (no chunk, whole chunks, every tail
    /// length), every query count 0..=5 (empty, the odd Q = 1 epilogue,
    /// pairs, pairs plus one), misaligned query and row starts, and the
    /// corner magnitudes (denormals, ±0, products overflowing to ±inf).
    #[test]
    fn tiles_are_bitwise_identical_to_single_pairs(
        (queries, rows, dim, nq, offset) in (0usize..=67, 0usize..=5, 0usize..8).prop_flat_map(
            |(dim, nq, offset)| (
                proptest::collection::vec(arb_element(), nq * dim + offset),
                proptest::collection::vec(arb_element(), 4 * dim + offset),
                Just(dim),
                Just(nq),
                Just(offset),
            )
        )
    ) {
        let queries: Vec<&[f32]> =
            (0..nq).map(|q| &queries[offset + q * dim..offset + (q + 1) * dim]).collect();
        let quad: [&[f32]; 4] =
            std::array::from_fn(|r| &rows[offset + r * dim..offset + (r + 1) * dim]);
        let mut dots = vec![[f32::NAN; 4]; nq];
        let mut dists = vec![[f32::NAN; 4]; nq];
        dot_tile(&queries, quad, &mut dots);
        l2_tile(&queries, quad, &mut dists);
        for q in 0..nq {
            for r in 0..4 {
                prop_assert_eq!(dots[q][r].to_bits(), scalar::dot(queries[q], quad[r]).to_bits());
                prop_assert_eq!(dists[q][r].to_bits(), scalar::l2(queries[q], quad[r]).to_bits());
            }
        }
    }

    /// The row-scanning drivers — `dot_scores`, `l2_argmin` — equal their
    /// scalar scans for every query-block and row-tile remainder.
    #[test]
    fn dot_scores_and_l2_argmin_match_scalar_scans(
        dim in 1usize..=19,
        nq in 0usize..=35,
        n in 1usize..=13,
        seed in 0u64..1024,
    ) {
        let mut next = lcg(seed);
        let queries: Vec<f32> = (0..nq * dim).map(|_| next()).collect();
        // Duplicate rows, so the first-minimum tie-break is exercised.
        let mut rows: Vec<f32> = (0..n * dim).map(|_| next()).collect();
        if n > 2 {
            rows.copy_within(0..dim, (n - 1) * dim);
        }
        let queries: Vec<&[f32]> = queries.chunks_exact(dim).collect();
        let scores = dot_scores(&queries, &rows, dim);
        let nearest = l2_argmin(&queries, &rows, dim);
        prop_assert_eq!(scores.len(), nq * n);
        for (qi, q) in queries.iter().enumerate() {
            let mut best = (0u32, f32::INFINITY);
            for r in 0..n {
                let row = &rows[r * dim..(r + 1) * dim];
                prop_assert_eq!(scores[qi * n + r].to_bits(), scalar::dot(q, row).to_bits());
                let d = scalar::l2(q, row);
                if d < best.1 {
                    best = (r as u32, d);
                }
            }
            prop_assert_eq!(nearest[qi].0, best.0);
            prop_assert_eq!(nearest[qi].1.to_bits(), best.1.to_bits());
        }
    }

    /// The gathered drivers — `cosine_top_k_gather` and a `TopKBlock`
    /// scored group by group — equal a scalar scan of the same candidates.
    #[test]
    fn gathered_top_k_matches_scalar_scans(
        dim in 1usize..=19,
        n in 1usize..=40,
        k in 0usize..8,
        picks in proptest::collection::vec(0usize..40, 0..30),
        seed in 0u64..1024,
    ) {
        let mut next = lcg(seed);
        let rows: Vec<f32> = (0..n * dim).map(|_| next()).collect();
        let norms: Vec<f32> = rows.chunks_exact(dim).map(|r| scalar::dot(r, r).sqrt()).collect();
        let queries: Vec<f32> = (0..3 * dim).map(|_| next()).collect();
        let queries: Vec<&[f32]> = queries.chunks_exact(dim).collect();
        // Distinct candidate ids in arbitrary order; the first is excluded.
        let mut ids: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let turn = picks.len() % ids.len().max(1);
        ids.rotate_left(turn);
        let exclude = ids.first().copied().unwrap_or(u32::MAX);
        let reference = |q: &[f32]| {
            let qn = scalar::dot(q, q).sqrt();
            let mut heap = TopK::new(k);
            for &id in ids.iter().filter(|&&id| id != exclude) {
                let i = id as usize;
                let denom = norms[i] * qn;
                let sim = if denom <= f32::MIN_POSITIVE {
                    0.0
                } else {
                    scalar::dot(q, &rows[i * dim..(i + 1) * dim]) / denom
                };
                heap.offer(id, sim);
            }
            heap.into_sorted()
        };
        let bits = |hits: &[(u32, f32)]| -> Vec<(u32, u32)> {
            hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
        };

        let single = cosine_top_k_gather(&rows, &norms, dim, &ids, queries[0], k, exclude);
        prop_assert_eq!(bits(&single), bits(&reference(queries[0])));

        // Queries 0 and 2 see the candidates in two pieces, query 1 never.
        let excludes = [exclude; 3];
        let mut block = TopKBlock::new(&queries, &excludes, dim, k);
        let (front, back) = ids.split_at(ids.len() / 2);
        block.score_rows(&rows, &norms, dim, back, &[2, 0]);
        block.score_rows(&rows, &norms, dim, front, &[0, 2]);
        let got = block.into_sorted();
        prop_assert_eq!(bits(&got[0]), bits(&reference(queries[0])));
        prop_assert!(got[1].is_empty());
        prop_assert_eq!(bits(&got[2]), bits(&reference(queries[2])));
    }

    /// `batch_top_k` over any matrix equals a per-query scalar scan:
    /// same ids, same similarities, same bits, regardless of how the
    /// query count and row count land on the block/tile boundaries.
    #[test]
    fn batch_top_k_is_bitwise_identical_to_scalar_scans(
        dim in 1usize..33,
        nq in 1usize..20,
        n in 1usize..40,
        k in 0usize..8,
        seed in 0u64..1024,
    ) {
        let mut next = lcg(seed);
        let queries: Vec<f32> = (0..nq * dim).map(|_| next()).collect();
        let rows: Vec<f32> = (0..n * dim).map(|_| next()).collect();
        let norms: Vec<f32> = rows.chunks_exact(dim).map(|r| scalar::dot(r, r).sqrt()).collect();
        let excludes: Vec<u32> = (0..nq as u32).collect();

        let batch = batch_top_k(&queries, &rows, &norms, dim, k, &excludes);
        for qi in 0..nq {
            let q = &queries[qi * dim..(qi + 1) * dim];
            let qn = scalar::dot(q, q).sqrt();
            let mut heap = TopK::new(k);
            for r in 0..n {
                if r as u32 == excludes[qi] {
                    continue;
                }
                let denom = norms[r] * qn;
                let sim = if denom <= f32::MIN_POSITIVE {
                    0.0
                } else {
                    scalar::dot(q, &rows[r * dim..(r + 1) * dim]) / denom
                };
                heap.offer(r as u32, sim);
            }
            let expect = heap.into_sorted();
            prop_assert_eq!(batch[qi].len(), expect.len());
            for (got, want) in batch[qi].iter().zip(&expect) {
                prop_assert_eq!(got.0, want.0, "query {} ids diverge", qi);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "query {} sims diverge", qi);
            }
        }
    }
}
