//! A fixed-capacity top-k tracker shared by every search path.
//!
//! Lives here (not in `submod_knn`) so the single-query and batch
//! kernels select results with literally the same code: a min-heap by
//! score with ties breaking toward the larger index, so smaller indices
//! win the kept set and the final ordering is fully deterministic. The
//! order is a strict total one on `(score, id)`, so the kept set depends
//! on the offers alone, never on the order they arrive in — which is what
//! lets the batch kernels visit rows in whatever order tiles best.

use crate::Scored;
use std::cmp::Ordering;

/// A fixed-capacity top-k tracker (min-heap by score, tie-break by
/// larger index so smaller indices win overall).
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    // (score, id): the *worst* kept entry sits at heap[0].
    heap: Vec<(f32, u32)>,
    /// The score an offer must reach to possibly be kept: `-∞` while the
    /// heap is filling, the worst kept score once it is full (`+∞` at
    /// `k == 0`). Read by the inlined reject in [`Self::offer`].
    floor: f32,
}

impl TopK {
    /// A tracker keeping the `k` best offers.
    pub fn new(k: usize) -> Self {
        let floor = if k == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
        TopK { k, heap: Vec::with_capacity(k), floor }
    }

    /// `true` if `a` ranks strictly ahead of `b`: higher score, or equal
    /// score with smaller id.
    ///
    /// This is the dataflow `argmax_prefers` contract verbatim — plain
    /// `>`/`==` on the score so `-0.0` and `+0.0` tie and fall through to
    /// the id, never `total_cmp` (which would rank them). Sound because
    /// NaN is excluded at the [`Self::offer`] boundary; the old
    /// `partial_cmp(..).unwrap_or(Equal)` silently treated a NaN offer as
    /// a tie and corrupted the heap order instead.
    fn better(a: (f32, u32), b: (f32, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// `true` if `a` is worse than `b` (lower score, or equal score with
    /// larger id).
    fn worse(a: (f32, u32), b: (f32, u32)) -> bool {
        Self::better(b, a)
    }

    /// The score below which [`Self::offer`] rejects outright.
    #[inline]
    pub(crate) fn floor(&self) -> f32 {
        self.floor
    }

    /// Offers one candidate; kept only if it beats the current worst.
    ///
    /// A score strictly below the worst kept one is rejected by a single
    /// inlined comparison — in a k-NN scan that is nearly every offer —
    /// and only ties and improvements reach the heap.
    ///
    /// # Panics
    ///
    /// Panics if `score` is NaN — the one input the pop-order contract
    /// cannot rank (cf. `AddressablePq`, which asserts the same at its
    /// boundary).
    #[inline]
    pub fn offer(&mut self, id: u32, score: f32) {
        // NaN compares false and falls through to the assertion.
        if score < self.floor {
            return;
        }
        self.insert(id, score);
    }

    fn insert(&mut self, id: u32, score: f32) {
        assert!(!score.is_nan(), "scores offered to TopK must not be NaN");
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push((score, id));
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if Self::worse(self.heap[i], self.heap[parent]) {
                    self.heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if Self::worse(self.heap[0], (score, id)) {
            self.heap[0] = (score, id);
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut worst = i;
                if l < self.heap.len() && Self::worse(self.heap[l], self.heap[worst]) {
                    worst = l;
                }
                if r < self.heap.len() && Self::worse(self.heap[r], self.heap[worst]) {
                    worst = r;
                }
                if worst == i {
                    break;
                }
                self.heap.swap(i, worst);
                i = worst;
            }
        }
        if self.heap.len() == self.k {
            self.floor = self.heap[0].0;
        }
    }

    /// Drains into `(id, score)` pairs sorted by descending score, ties
    /// toward the smaller index — the same order `better` ranks
    /// by, so the heap and the final sort can never disagree.
    pub fn into_sorted(self) -> Vec<Scored> {
        let mut entries = self.heap;
        entries.sort_by(|&a, &b| {
            if Self::better(a, b) {
                Ordering::Less
            } else if Self::better(b, a) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        });
        entries.into_iter().map(|(score, id)| (id, score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k_with_deterministic_ties() {
        let mut top = TopK::new(2);
        for (id, s) in [(3u32, 0.5f32), (1, 0.9), (2, 0.9), (0, 0.1)] {
            top.offer(id, s);
        }
        assert_eq!(top.into_sorted(), vec![(1, 0.9), (2, 0.9)]);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut top = TopK::new(0);
        top.offer(0, 1.0);
        assert!(top.into_sorted().is_empty());
    }
}
