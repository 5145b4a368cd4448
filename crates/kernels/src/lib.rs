//! # submod_kernels — runtime-dispatched SIMD compute kernels
//!
//! The arithmetic floor of the workspace: every distance evaluation in the
//! k-NN graph build, IVF probe ranking, and k-means now funnels through
//! this crate. It provides explicit `std::arch` AVX2 SIMD on `x86_64`
//! with a safe scalar fallback (which every other target, `aarch64`
//! included, runs), selected **once per process** by runtime feature
//! detection, plus register-blocked batch
//! primitives that stream the row matrix once per *query block* instead of
//! once per query.
//!
//! ## Determinism contract
//!
//! Every kernel — scalar and AVX2 — accumulates in the **same fixed
//! 8-lane reduction order** and never uses FMA: lane `l` accumulates
//! elements `l, l+8, l+16, …` with a plain multiply-then-add, the eight
//! lane sums are combined left to right, and remainder elements are added
//! sequentially. Multiplication and addition of `f32` are IEEE-exact, so
//! the scalar and SIMD paths return **bitwise-identical** results for any
//! input (including denormals, infinities, and misaligned slices). The
//! property tests in `tests/identity.rs` pin this over lengths 0–257,
//! and every tile result against the single-pair kernels for dimensions
//! 0–67, every query count and row remainder. CI runs the kernel and k-NN
//! suites in release, where the intrinsics are inlined as shipped, under
//! both `SUBMOD_KERNELS=scalar` and the default dispatch. No selection
//! path calls a kernel, so the dispatch is not an axis of the facade's
//! invariance harness.
//!
//! ## One tile micro-kernel per backend
//!
//! Every batch primitive ([`batch_top_k`], [`TopKBlock`], [`dot_scores`],
//! [`l2_argmin`], [`cosine_top_k_gather`]) is tiled with one primitive per
//! backend per operation: [`dot_tile`] / [`l2_tile`] score Q queries × 4
//! rows per pass. On AVX2 the tile is a 2×4 register block — eight live
//! accumulators, each row chunk loaded once for both queries — and its
//! epilogue is a **transposed ordered reduction**: the four accumulators
//! of a query are transposed in registers so that vector `l` holds lane
//! `l` of all four, and the vectors are added in lane order
//! `((((((l0+l1)+l2)+l3)+l4)+l5)+l6)+l7`. A transpose only moves values;
//! the seven vertical adds are, element by element, exactly the seven
//! scalar adds of the single-pair reduction in the same order, so each of
//! the Q·4 results is bitwise the single-pair [`dot`] /
//! [`l2_distance_squared`] — four reductions for the price of one, with no
//! spill to memory. Scalar expresses the same tile signature through its
//! single-pair kernels. Top-k selection is
//! offer-order-independent ([`TopK`] keeps the k best under a strict
//! total order on `(score, id)`), so a batch primitive may visit rows in
//! whatever order tiles best (a short last tile repeats its final row
//! instead of taking a second code path) and still return what a
//! one-query scan does.
//!
//! ## Dispatch policy
//!
//! The backend resolves once (first kernel call) from the
//! `SUBMOD_KERNELS` environment variable:
//!
//! - `scalar` — force the portable fallback;
//! - `auto`, unset, or any other value — detect at runtime: AVX2 when the
//!   CPU reports it, scalar otherwise (and on every non-`x86_64` target).
//!
//! [`backend`] reports the resolved choice, at the cost of one atomic
//! load per call, so two calls in one process never disagree.
//! [`Backend::name`] is what the `kernels.backend` info entry of
//! `submod_obs` and the bench output print.
//!
//! ## Layout conventions
//!
//! Matrices are dense row-major `f32` slices (`n × dim`), matching
//! `submod_knn::Embeddings::as_flat`. Norms are precomputed by the caller
//! and hoisted out of every inner loop.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod scalar;
mod topk;

#[cfg(target_arch = "x86_64")]
mod x86;

pub use batch::{batch_top_k, cosine_top_k_gather, dot_scores, l2_argmin, TopKBlock};
pub use topk::TopK;

use std::sync::OnceLock;

/// A scored row: `(row index, score)` — cosine similarity for the top-k
/// kernels, squared L2 distance for [`l2_argmin`].
pub type Scored = (u32, f32);

/// The instruction-set backend a kernel call executes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Backend {
    /// Portable scalar loops in the fixed 8-lane reduction order.
    Scalar,
    /// 256-bit AVX2 vectors (x86_64, runtime-detected).
    Avx2,
}

impl Backend {
    /// Human-readable backend name (`"scalar"`, `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

/// The backend every kernel in this process dispatches to, resolved once
/// from `SUBMOD_KERNELS` (see the crate docs for the policy).
pub fn backend() -> Backend {
    *BACKEND.get_or_init(|| {
        let resolved = match std::env::var("SUBMOD_KERNELS").as_deref().map(str::trim) {
            Ok("scalar") => Backend::Scalar,
            _ => detect(),
        };
        // An identity fact, not a tally: every metrics export and trace
        // header says which ISA the kernel numbers were measured on, and
        // no `reset_metrics` between phases can wipe it.
        submod_obs::set_info("kernels.backend", resolved.name());
        resolved
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Backend {
    if std::arch::is_x86_feature_detected!("avx2") {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Backend {
    Backend::Scalar
}

type PairFn = fn(&[f32], &[f32]) -> f32;
type TileFn = fn(&[&[f32]], [&[f32]; 4], &mut [[f32; 4]]);

/// One backend's micro-kernels: a single-pair and a Q×4-tile primitive
/// per operation, nothing else.
pub(crate) struct Kernels {
    pub(crate) dot: PairFn,
    pub(crate) l2: PairFn,
    pub(crate) dot_tile: TileFn,
    pub(crate) l2_tile: TileFn,
}

/// The resolved backend's micro-kernels.
pub(crate) fn kernels() -> &'static Kernels {
    static SCALAR: Kernels = Kernels {
        dot: scalar::dot,
        l2: scalar::l2,
        dot_tile: scalar::dot_tile,
        l2_tile: scalar::l2_tile,
    };
    #[cfg(target_arch = "x86_64")]
    static AVX2: Kernels =
        Kernels { dot: x86::dot, l2: x86::l2, dot_tile: x86::dot_tile, l2_tile: x86::l2_tile };
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => &AVX2,
        _ => &SCALAR,
    }
}

/// Dot product of two equal-length vectors in the fixed 8-lane reduction
/// order.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// ```
/// assert_eq!(submod_kernels::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    (kernels().dot)(a, b)
}

/// Squared Euclidean distance between two equal-length vectors in the
/// fixed 8-lane reduction order.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn l2_distance_squared(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance of mismatched lengths");
    (kernels().l2)(a, b)
}

/// Euclidean norm (`sqrt(dot(a, a))`).
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// The tile micro-kernel every batch primitive is built from:
/// `out[q][r] = dot(queries[q], rows[r])` for Q queries × 4 rows in one
/// pass, each result bitwise-identical to the single-pair [`dot`] (see
/// the crate docs for the transposed ordered reduction).
///
/// # Panics
///
/// Panics if `out.len() != queries.len()` or any query or row differs in
/// length from the others.
#[inline]
pub fn dot_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    (kernels().dot_tile)(queries, rows, out);
}

/// The squared-L2 tile: `out[q][r] = l2_distance_squared(queries[q],
/// rows[r])`, bitwise-identical to the single-pair kernel.
///
/// # Panics
///
/// Same conditions as [`dot_tile`].
#[inline]
pub fn l2_tile(queries: &[&[f32]], rows: [&[f32]; 4], out: &mut [[f32; 4]]) {
    (kernels().l2_tile)(queries, rows, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_resolves_once_and_names() {
        let b = backend();
        assert_eq!(b, backend());
        assert!(["scalar", "avx2"].contains(&b.name()));
    }

    #[test]
    fn dot_matches_scalar_reference() {
        let a: Vec<f32> = (0..131).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..131).map(|i| (i as f32).cos()).collect();
        assert_eq!(dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
        assert_eq!(l2_distance_squared(&a, &b).to_bits(), scalar::l2(&a, &b).to_bits());
    }

    #[test]
    fn tiles_match_single_pairs() {
        let vecs: Vec<Vec<f32>> =
            (0..7).map(|r| (0..67).map(|i| ((i + r) as f32 * 0.3).cos()).collect()).collect();
        let quad = [&vecs[0][..], &vecs[1][..], &vecs[2][..], &vecs[3][..]];
        let queries = [&vecs[4][..], &vecs[5][..], &vecs[6][..]];
        let (mut d, mut l) = ([[0.0f32; 4]; 3], [[0.0f32; 4]; 3]);
        dot_tile(&queries, quad, &mut d);
        l2_tile(&queries, quad, &mut l);
        for q in 0..3 {
            for r in 0..4 {
                assert_eq!(d[q][r].to_bits(), dot(queries[q], quad[r]).to_bits());
                assert_eq!(l[q][r].to_bits(), l2_distance_squared(queries[q], quad[r]).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn tile_rejects_mismatched_lengths() {
        let (long, short) = ([0.0f32; 16], [0.0f32; 8]);
        dot_tile(&[&long], [&short, &short, &short, &short], &mut [[0.0; 4]]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(norm(&[]), 0.0);
        assert_eq!(l2_distance_squared(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
