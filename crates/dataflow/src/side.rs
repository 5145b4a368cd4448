//! Broadcast side-inputs: small driver-side values replicated to every
//! worker instead of shuffled.
//!
//! The engine-resident bounding pipeline (paper §5) joins each undecided
//! point's neighbor list against the *included* and *excluded* status
//! sets. Those sets are tiny next to the bound table (`O(k)` members and
//! a bitset over the ground set respectively), so shipping them to every
//! worker — Beam's side-input pattern — replaces the three-way shuffle
//! join with a broadcast hash join and keeps the bound table itself
//! sharded. The bytes replicated per broadcast are charged to the
//! pipeline's [`crate::PipelineMetrics::bytes_broadcast`] counter so
//! tests can assert the side inputs stayed small.

use crate::codec::Record;
use crate::Pipeline;
use std::sync::Arc;

/// An immutable value replicated to every worker of a pipeline.
///
/// Obtained from [`Pipeline::broadcast`]. Cloning is cheap (the payload is
/// shared); transforms capture the side input by clone and read it through
/// [`SideInput::get`].
///
/// ```
/// use submod_dataflow::Pipeline;
///
/// # fn main() -> Result<(), submod_dataflow::DataflowError> {
/// let p = Pipeline::new(2)?;
/// let thresholds = p.broadcast(vec![10u64, 20, 30]);
/// let pc = p.from_vec(vec![5u64, 15, 25, 35]);
/// let t = thresholds.clone();
/// let above = pc.filter(move |x| t.get().iter().any(|&b| *x >= b))?;
/// assert_eq!(above.count()?, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SideInput<T: Record> {
    data: Arc<Vec<T>>,
}

impl<T: Record> SideInput<T> {
    /// The broadcast records.
    pub fn get(&self) -> &[T] {
        &self.data
    }

    /// Number of broadcast records.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when nothing was broadcast.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A broadcast membership set over dense `u64` ids — the side-input shape
/// of the bounding pipeline's *included* / *excluded* status sets.
///
/// Backed by a bitset (one bit per id of the universe), so broadcasting a
/// status set over an `n`-point ground set costs `n / 8` bytes regardless
/// of how many members it has, and membership tests are O(1).
#[derive(Clone, Debug)]
pub struct BroadcastSet {
    words: Arc<Vec<u64>>,
    universe: usize,
}

impl BroadcastSet {
    /// Returns `true` when `id` is a member.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        let idx = id as usize;
        if idx >= self.universe {
            return false;
        }
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Bytes replicated to each worker for this set.
    fn broadcast_bytes(&self) -> u64 {
        (self.words.len() * size_of::<u64>()) as u64
    }
}

impl Pipeline {
    /// Broadcasts `data` to every worker as a [`SideInput`], charging its
    /// encoded size to [`crate::PipelineMetrics::bytes_broadcast`].
    ///
    /// Side inputs are for *small* values (solution sets, thresholds,
    /// per-class statistics); broadcasting something proportional to the
    /// ground set defeats the larger-than-memory design — the metrics
    /// counter exists so tests can prove that did not happen.
    pub fn broadcast<T: Record>(&self, data: Vec<T>) -> SideInput<T> {
        let bytes: u64 = data.iter().map(|r| r.approx_bytes() as u64).sum();
        self.ctx_arc().metrics.record_broadcast(bytes);
        SideInput { data: Arc::new(data) }
    }

    /// Broadcasts a membership set over ids `0..universe` as a bitset.
    ///
    /// # Panics
    ///
    /// Panics if a member id is `>= universe`.
    pub fn broadcast_set<I: IntoIterator<Item = u64>>(
        &self,
        universe: usize,
        members: I,
    ) -> BroadcastSet {
        let mut words = vec![0u64; universe.div_ceil(64)];
        for id in members {
            let idx = id as usize;
            assert!(idx < universe, "member {id} outside universe {universe}");
            words[idx / 64] |= 1 << (idx % 64);
        }
        self.broadcast_words(words, universe)
    }

    /// Broadcasts a pre-built bitset (`words[i / 64] >> (i % 64)` is bit
    /// `i`), e.g. the word array of a driver-side node set, without
    /// re-walking the members.
    pub fn broadcast_words(&self, words: Vec<u64>, universe: usize) -> BroadcastSet {
        assert!(
            words.len() >= universe.div_ceil(64),
            "bitset of {} words cannot cover a universe of {universe}",
            words.len()
        );
        let set = BroadcastSet { words: Arc::new(words), universe };
        self.ctx_arc().metrics.record_broadcast(set.broadcast_bytes());
        set
    }
}

#[cfg(test)]
mod tests {
    use crate::Pipeline;

    #[test]
    fn side_input_is_readable_from_transforms() {
        let p = Pipeline::new(3).unwrap();
        let lookup = p.broadcast(vec![(0u64, 5u64), (1, 7)]);
        let pc = p.from_vec(vec![0u64, 1, 0]);
        let l = lookup.clone();
        let mapped = p
            .from_vec(pc.collect().unwrap())
            .map(move |x| l.get().iter().find(|(k, _)| *k == x).map_or(0, |(_, v)| *v))
            .unwrap();
        let mut out = mapped.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![5, 5, 7]);
        assert_eq!(lookup.len(), 2);
        assert!(!lookup.is_empty());
    }

    #[test]
    fn broadcast_bytes_are_metered() {
        let p = Pipeline::new(2).unwrap();
        assert_eq!(p.metrics().bytes_broadcast, 0);
        p.broadcast((0u64..100).collect::<Vec<_>>());
        assert_eq!(p.metrics().bytes_broadcast, 800);
        p.broadcast_set(640, 0..10u64);
        assert_eq!(p.metrics().bytes_broadcast, 800 + 80);
    }

    #[test]
    fn broadcast_set_membership() {
        let p = Pipeline::new(2).unwrap();
        let set = p.broadcast_set(100, [0u64, 63, 64, 99]);
        for id in [0u64, 63, 64, 99] {
            assert!(set.contains(id), "{id} should be a member");
        }
        for id in [1u64, 62, 65, 98, 100, 1000] {
            assert!(!set.contains(id), "{id} should not be a member");
        }
        assert_eq!(set.broadcast_bytes(), 16);
    }

    #[test]
    fn broadcast_words_reuses_driver_bitsets() {
        let p = Pipeline::new(2).unwrap();
        let mut words = vec![0u64; 2];
        words[1] = 0b10; // id 65
        let set = p.broadcast_words(words, 128);
        assert!(set.contains(65));
        assert!(!set.contains(64));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn broadcast_set_rejects_out_of_universe_members() {
        let p = Pipeline::new(2).unwrap();
        p.broadcast_set(10, [10u64]);
    }
}
