/// Sentinel for "not in the heap" positions.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Arity of the heap. A 4-ary layout trades slightly more comparisons per
/// sift-down for half the tree depth and better cache behaviour, which
/// matters at the paper's scale (§3 estimates billions of queue entries).
const ARITY: usize = 4;

/// An addressable max-priority queue over dense node indices `0..n`.
///
/// This is the data structure behind the paper's Algorithm 2: all points
/// enter with their utility as priority, the maximum is popped repeatedly,
/// and neighbors' priorities are *decreased in place* via
/// [`Self::decrease_by`] — an operation binary heaps from `std` do not
/// support.
///
/// Ties are broken deterministically toward the smaller index so selections
/// are reproducible run-to-run.
///
/// ```
/// use submod_core::AddressablePq;
///
/// let mut pq = AddressablePq::with_priorities(vec![1.0, 5.0, 3.0]);
/// pq.decrease_by(1, 4.5); // node 1: 5.0 → 0.5
/// assert_eq!(pq.pop_max(), Some((2, 3.0)));
/// assert_eq!(pq.pop_max(), Some((0, 1.0)));
/// assert_eq!(pq.pop_max(), Some((1, 0.5)));
/// assert_eq!(pq.pop_max(), None);
/// ```
#[derive(Clone, Debug)]
pub struct AddressablePq {
    /// Heap slot → node index.
    heap: Vec<u32>,
    /// Node index → heap slot, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
    /// Node index → current priority (kept after removal for inspection).
    prio: Vec<f64>,
}

impl AddressablePq {
    /// Builds a queue containing every index `0..priorities.len()` with the
    /// given initial priorities, in O(n).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX − 1` priorities are supplied or any
    /// priority is NaN.
    pub fn with_priorities(priorities: Vec<f64>) -> Self {
        assert!(priorities.len() < NOT_IN_HEAP as usize, "priority queue too large");
        assert!(priorities.iter().all(|p| !p.is_nan()), "priorities must not be NaN");
        let n = priorities.len();
        let mut pq = AddressablePq {
            heap: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            prio: priorities,
        };
        // Standard Floyd heap construction.
        for slot in (0..n / ARITY + 1).rev() {
            if slot < n {
                pq.sift_down(slot);
            }
        }
        pq
    }

    /// Number of elements still in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns `true` if node `v` is still enqueued.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        (v as usize) < self.pos.len() && self.pos[v as usize] != NOT_IN_HEAP
    }

    /// Removes and returns the element with the largest priority (smallest
    /// index on ties).
    pub fn pop_max(&mut self) -> Option<(u32, f64)> {
        let (&top, _) = self.heap.split_first()?;
        let last = self.heap.pop().expect("non-empty heap has a last element");
        self.pos[top as usize] = NOT_IN_HEAP;
        if top != last {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some((top, self.prio[top as usize]))
    }

    /// Decreases the priority of node `v` by `amount` (Algorithm 2's
    /// `decrease_weight_by`). No-op if `v` has already been popped.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or NaN, or `v` was never enqueued.
    pub fn decrease_by(&mut self, v: u32, amount: f64) {
        assert!(amount >= 0.0, "decrease amount must be non-negative, got {amount}");
        self.prio[v as usize] -= amount;
        let slot = self.pos[v as usize];
        if slot != NOT_IN_HEAP {
            self.sift_down(slot as usize);
        }
    }

    /// `true` if element at index `a` orders strictly before (above) `b`.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (pa, pb) = (self.prio[a as usize], self.prio[b as usize]);
        pa > pb || (pa == pb && a < b)
    }

    fn sift_down(&mut self, mut slot: usize) {
        let node = self.heap[slot];
        loop {
            let first_child = slot * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let end = (first_child + ARITY).min(self.heap.len());
            let mut best = first_child;
            for child in first_child + 1..end {
                if self.before(self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if self.before(self.heap[best], node) {
                self.heap[slot] = self.heap[best];
                self.pos[self.heap[slot] as usize] = slot as u32;
                slot = best;
            } else {
                break;
            }
        }
        self.heap[slot] = node;
        self.pos[node as usize] = slot as u32;
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for (slot, &node) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[node as usize], slot as u32, "pos/heap mismatch");
            if slot > 0 {
                let parent = (slot - 1) / ARITY;
                assert!(
                    !self.before(node, self.heap[parent]),
                    "heap property violated at slot {slot}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_descending_priority_order() {
        let mut pq = AddressablePq::with_priorities(vec![0.5, 2.0, 1.5, 3.0, 0.1]);
        pq.check_invariants();
        let order: Vec<u32> = std::iter::from_fn(|| pq.pop_max().map(|(v, _)| v)).collect();
        assert_eq!(order, vec![3, 1, 2, 0, 4]);
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        let mut pq = AddressablePq::with_priorities(vec![1.0, 1.0, 1.0]);
        assert_eq!(pq.pop_max(), Some((0, 1.0)));
        assert_eq!(pq.pop_max(), Some((1, 1.0)));
        assert_eq!(pq.pop_max(), Some((2, 1.0)));
    }

    #[test]
    fn decrease_reorders() {
        let mut pq = AddressablePq::with_priorities(vec![5.0, 4.0, 3.0]);
        pq.decrease_by(0, 3.5);
        pq.check_invariants();
        assert_eq!(pq.prio[0], 1.5);
        assert_eq!(pq.pop_max(), Some((1, 4.0)));
    }

    #[test]
    fn decrease_after_pop_is_noop_for_heap() {
        let mut pq = AddressablePq::with_priorities(vec![5.0, 4.0]);
        assert_eq!(pq.pop_max(), Some((0, 5.0)));
        pq.decrease_by(0, 1.0); // popped: only the stored priority changes
        assert_eq!(pq.prio[0], 4.0);
        assert_eq!(pq.pop_max(), Some((1, 4.0)));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut pq = AddressablePq::with_priorities(vec![1.0, 2.0]);
        assert!(pq.contains(0) && pq.contains(1));
        pq.pop_max();
        assert!(!pq.contains(1));
        assert!(pq.contains(0));
        assert!(!pq.contains(7));
    }

    #[test]
    fn empty_queue_behaves() {
        let mut pq = AddressablePq::with_priorities(vec![]);
        assert!(pq.is_empty());
        assert_eq!(pq.len(), 0);
        assert_eq!(pq.pop_max(), None);
    }

    #[test]
    fn negative_priorities_are_allowed() {
        let mut pq = AddressablePq::with_priorities(vec![-1.0, -5.0, -0.5]);
        assert_eq!(pq.pop_max(), Some((2, -0.5)));
        pq.decrease_by(0, 10.0);
        assert_eq!(pq.pop_max(), Some((1, -5.0)));
        assert_eq!(pq.pop_max(), Some((0, -11.0)));
    }

    #[test]
    fn large_random_sequence_maintains_invariants() {
        // Deterministic xorshift so the test needs no rand dependency here.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 500;
        let priorities: Vec<f64> = (0..n).map(|_| (next() % 1000) as f64 / 10.0).collect();
        let mut pq = AddressablePq::with_priorities(priorities);
        pq.check_invariants();
        for _ in 0..2000 {
            let v = (next() % n as u64) as u32;
            if next() % 2 == 0 {
                if pq.contains(v) {
                    pq.decrease_by(v, (next() % 50) as f64 / 10.0);
                }
            } else {
                pq.pop_max();
            }
            pq.check_invariants();
        }
        // Drain: priorities must come out non-increasing.
        let mut last = f64::INFINITY;
        while let Some((_, p)) = pq.pop_max() {
            assert!(p <= last + 1e-12);
            last = p;
        }
    }
}
