//! Pins the kernel `TopK` pop order to the workspace's argmax contract.
//!
//! `submod_kernels::TopK` and [`argmax_prefers`] below are two
//! implementations of one documented order — higher score first, score
//! ties (including `-0.0` vs `+0.0`, which compare *equal*) toward the
//! smaller id, NaN excluded at the boundary. The k-NN search paths rank
//! with the heap, and the distributed drivers pop `submod_core`'s
//! addressable queue, whose order this is, so any divergence (a NaN
//! swallowed as a tie, or a `total_cmp` that ranks `-0.0` below `+0.0`)
//! silently breaks the cross-driver determinism contract. The proptest
//! feeds both sides adversarial scores — signed zeros, exact duplicates,
//! extremes — and demands identical output.

use proptest::prelude::*;
use submod_kernels::TopK;

/// `true` when the `challenger` `(id, score)` pair beats the `incumbent`:
/// larger score first, smaller id on score ties. Scores compare with plain
/// `>` / `==`, so `-0.0` and `+0.0` tie and fall through to the id; a NaN
/// never beats and is never beaten.
fn argmax_prefers(incumbent: (u64, f64), challenger: (u64, f64)) -> bool {
    challenger.1 > incumbent.1 || (challenger.1 == incumbent.1 && challenger.0 < incumbent.0)
}

#[test]
fn argmax_prefers_is_the_pq_order() {
    assert!(argmax_prefers((1, 1.0), (9, 2.0)));
    assert!(!argmax_prefers((1, 1.0), (9, 0.5)));
    assert!(argmax_prefers((9, 1.0), (1, 1.0)));
    assert!(!argmax_prefers((1, 1.0), (9, 1.0)));
    // NaN neither beats nor is beaten.
    assert!(!argmax_prefers((1, 1.0), (0, f64::NAN)));
    assert!(!argmax_prefers((1, f64::NAN), (0, f64::NAN)));
}

/// Reference top-k: repeated argmax over the remaining offers using
/// `argmax_prefers` verbatim (`f32` scores widen to `f64` losslessly, so
/// `>` / `==` behave identically in both widths).
fn argmax_topk(offers: &[(u32, f32)], k: usize) -> Vec<(u32, f32)> {
    let mut remaining: Vec<(u64, f64, usize)> = offers
        .iter()
        .enumerate()
        .map(|(pos, &(id, score))| (u64::from(id), f64::from(score), pos))
        .collect();
    let mut result = Vec::new();
    while result.len() < k && !remaining.is_empty() {
        let mut best = 0;
        for i in 1..remaining.len() {
            let (bid, bscore, _) = remaining[best];
            let (cid, cscore, _) = remaining[i];
            if argmax_prefers((bid, bscore), (cid, cscore)) {
                best = i;
            }
        }
        let (_, _, pos) = remaining.swap_remove(best);
        result.push(offers[pos]);
    }
    result
}

/// Scores chosen to stress every edge of the order: both signed zeros,
/// exact duplicates from a tiny set, subnormals, and extremes (a picker
/// index maps onto the fixed palette; the last arm draws a fresh float).
fn adversarial_score() -> impl Strategy<Value = f32> {
    ((0u8..10), -1.0f32..1.0f32).prop_map(|(pick, fresh)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => 0.5,
        5 => f32::MAX,
        6 => f32::MIN_POSITIVE,
        7 => -f32::MIN_POSITIVE,
        8 => f32::MIN,
        _ => fresh,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The heap's drained order equals repeated `argmax_prefers`
    /// selection, value bits included, on duplicate-heavy inputs with a
    /// tiny id range (maximal tie pressure).
    #[test]
    fn topk_matches_argmax_reference(
        offers in proptest::collection::vec((0u32..16, adversarial_score()), 0..48),
        k in 0usize..12,
    ) {
        let mut top = TopK::new(k);
        for &(id, score) in &offers {
            top.offer(id, score);
        }
        let heap_order = top.into_sorted();
        let reference = argmax_topk(&offers, k);
        prop_assert_eq!(heap_order.len(), reference.len());
        for (h, r) in heap_order.iter().zip(reference.iter()) {
            prop_assert_eq!(h.0, r.0, "ids diverge: heap {:?} vs argmax {:?}", heap_order, reference);
            // Contract equality on the score: `==`, under which -0.0 and
            // +0.0 are the same value. Two offers with equal id AND equal
            // score are interchangeable under the contract, so the zero
            // sign bit may legitimately differ between implementations;
            // every other f32 value has a unique bit pattern, so this is
            // bit-exact everywhere the contract distinguishes entries.
            prop_assert_eq!(
                h.1, r.1,
                "scores diverge: heap {:?} vs argmax {:?}", heap_order, reference
            );
        }
    }
}

#[test]
fn signed_zeros_tie_toward_the_smaller_id() {
    // -0.0 == +0.0 under the contract: the id decides, not the sign bit.
    let mut top = TopK::new(1);
    top.offer(7, 0.0);
    top.offer(3, -0.0);
    let kept = top.into_sorted();
    assert_eq!(kept.len(), 1);
    assert_eq!(kept[0].0, 3, "smaller id must win the ±0.0 tie");

    let mut both = TopK::new(2);
    both.offer(7, 0.0);
    both.offer(3, -0.0);
    let ids: Vec<u32> = both.into_sorted().iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, vec![3, 7], "±0.0 entries must sort by id");

    assert!(argmax_prefers((7, 0.0), (3, -0.0)));
    assert!(!argmax_prefers((3, -0.0), (7, 0.0)));
}

#[test]
#[should_panic(expected = "must not be NaN")]
fn nan_offers_are_rejected_at_the_boundary() {
    let mut top = TopK::new(4);
    top.offer(0, f32::NAN);
}
