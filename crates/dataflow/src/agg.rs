//! Whole-collection and per-key aggregations: folds, counts, extrema,
//! the budget-aware keyed combiner, and the distributed k-th largest
//! selection used by the bounding thresholds.

use crate::codec::Record;
use crate::pipeline::{Shard, ShardSink};
use crate::{DataflowError, PCollection};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::hash::Hash;

impl<T: Record> PCollection<T> {
    /// Folds every record into an accumulator per shard, then merges the
    /// shard accumulators — the engine's `Combine.globally`.
    ///
    /// `fold` must be consistent with `merge` (the usual commutative-monoid
    /// contract) for the result to be independent of sharding.
    ///
    /// # Errors
    ///
    /// Returns an error if a spilled shard cannot be read.
    pub fn aggregate<Acc, F, M>(&self, init: Acc, fold: F, merge: M) -> Result<Acc, DataflowError>
    where
        Acc: Clone + Send + Sync,
        F: Fn(Acc, T) -> Acc + Send + Sync,
        M: Fn(Acc, Acc) -> Acc + Send + Sync,
    {
        let partials: Vec<Acc> = self
            .ready_shards()?
            .par_iter()
            .map(|shard| {
                let mut acc = init.clone();
                // Manual fold because `for_each` borrows mutably.
                let mut slot = Some(acc);
                shard.for_each(|record| {
                    let cur = slot.take().expect("accumulator present");
                    slot = Some(fold(cur, record));
                    Ok(())
                })?;
                acc = slot.expect("accumulator present");
                Ok(acc)
            })
            .collect::<Result<_, DataflowError>>()?;
        Ok(partials.into_iter().fold(init, merge))
    }
}

impl PCollection<f64> {
    /// Sum of all records.
    ///
    /// # Errors
    ///
    /// Returns an error if a spilled shard cannot be read.
    pub fn sum(&self) -> Result<f64, DataflowError> {
        self.aggregate(0.0, |a, x| a + x, |a, b| a + b)
    }

    /// Minimum record, or `None` for an empty collection.
    ///
    /// # Errors
    ///
    /// Returns an error if a spilled shard cannot be read.
    pub fn min(&self) -> Result<Option<f64>, DataflowError> {
        self.aggregate(
            None,
            |a: Option<f64>, x| Some(a.map_or(x, |m| m.min(x))),
            |a, b| match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            },
        )
    }

    /// Maximum record, or `None` for an empty collection.
    ///
    /// # Errors
    ///
    /// Returns an error if a spilled shard cannot be read.
    pub fn max(&self) -> Result<Option<f64>, DataflowError> {
        self.aggregate(
            None,
            |a: Option<f64>, x| Some(a.map_or(x, |m| m.max(x))),
            |a, b| match (a, b) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
        )
    }

    /// The `k`-th largest record (1-based), computed with O(1) worker
    /// memory via bisection over the order-preserving bit representation of
    /// `f64` — at most 64 counting passes over the collection.
    ///
    /// The bounding algorithm uses this for its `U_max^k` / `U_min^k`
    /// thresholds (Lemmas 4.3 / 4.4) without ever materializing the utility
    /// vector on one machine.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0`, `k` exceeds the number of records, the
    /// collection contains NaN, or spill I/O fails.
    pub fn kth_largest(&self, k: u64) -> Result<f64, DataflowError> {
        let _span = submod_obs::span("dataflow.kth_largest");
        if k == 0 {
            return Err(DataflowError::invalid("k must be at least 1"));
        }
        // Fast path: when every shard is memory-resident after the
        // barrier, an `f64` shard *is* a contiguous column — the
        // bisection scans the slices directly instead of dispatching
        // each of its ~64 counting passes through the generic
        // clone-per-record aggregate fold. Identical math, identical
        // result, bit for bit.
        let shards = self.ready_shards()?;
        if shards.iter().all(|s| matches!(s, Shard::InMemory(_))) {
            let slices: Vec<&[f64]> = shards
                .iter()
                .map(|s| match s {
                    Shard::InMemory(v) => v.as_slice(),
                    Shard::Spilled(_) => unreachable!("checked all-resident"),
                })
                .collect();
            return kth_largest_slices(&slices, k);
        }
        let stats = self.aggregate(
            (0u64, u64::MAX, 0u64, false),
            |(count, lo, hi, nan), x| {
                if x.is_nan() {
                    (count, lo, hi, true)
                } else {
                    let o = ordered_bits(x);
                    (count + 1, lo.min(o), hi.max(o), nan)
                }
            },
            |(c1, l1, h1, n1), (c2, l2, h2, n2)| (c1 + c2, l1.min(l2), h1.max(h2), n1 || n2),
        )?;
        let (count, mut lo, mut hi, has_nan) = stats;
        if has_nan {
            return Err(DataflowError::invalid("kth_largest is undefined with NaN records"));
        }
        if k > count {
            return Err(DataflowError::invalid(format!(
                "k = {k} exceeds the {count} records in the collection"
            )));
        }
        // Largest threshold t with |{x : x ≥ t}| ≥ k. count_ge is
        // non-increasing in t, and the answer is attained at an element.
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let ge =
                self.aggregate(0u64, |a, x| a + u64::from(ordered_bits(x) >= mid), |a, b| a + b)?;
            if ge >= k {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Ok(from_ordered_bits(lo))
    }
}

impl<K, V> PCollection<(K, V)>
where
    K: Record + Ord + Hash + Eq,
    V: Record,
{
    /// Folds the values of each key into an accumulator with map-side
    /// combining — the engine's `Combine.perKey` with a partial-aggregation
    /// stage, the keyed analogue of [`PCollection::aggregate`].
    ///
    /// Each shard folds its records into a per-key table; when the table
    /// would exceed the worker's [`crate::MemoryBudget`] it is flushed as
    /// partial `(key, accumulator)` records (which spill to disk like any
    /// shuffle buffer), so a worker never holds more than one budget of
    /// accumulators no matter how many distinct keys pass through it. The
    /// partials are then shuffled and merged.
    ///
    /// Determinism: within a shard, each key's values fold in record
    /// order; partials merge in the shuffle's (shard, sequence) order. The
    /// result is bitwise-identical at any thread count. For `merge` to
    /// also make the result independent of *where* flushes land, it must
    /// be consistent with `fold` (the usual combiner contract); a key
    /// whose records all sit in one shard and never straddle a flush is
    /// folded exactly left-to-right.
    ///
    /// # Errors
    ///
    /// Returns an error if spill I/O fails.
    pub fn aggregate_per_key<Acc, F, M>(
        &self,
        init: Acc,
        fold: F,
        merge: M,
    ) -> Result<PCollection<(K, Acc)>, DataflowError>
    where
        Acc: Record,
        F: Fn(Acc, V) -> Acc + Send + Sync,
        M: Fn(Acc, Acc) -> Acc + Send + Sync + 'static,
    {
        let _span = submod_obs::span("dataflow.aggregate_per_key");
        let ctx = self.ctx().clone();
        // --- Map side: per-shard combiner tables, flushed on budget. ---
        let partial_groups: Vec<Vec<Shard<(K, Acc)>>> = self
            .ready_shards()?
            .par_iter()
            .map(|shard| {
                let mut sink = ShardSink::new(&ctx);
                let mut table: BTreeMap<K, Acc> = BTreeMap::new();
                let mut table_bytes = 0u64;
                shard.for_each(|(k, v)| {
                    let (old_bytes, acc) = match table.remove(&k) {
                        Some(acc) => ((k.approx_bytes() + acc.approx_bytes()) as u64, acc),
                        None => (0, init.clone()),
                    };
                    let acc = fold(acc, v);
                    let new_bytes = (k.approx_bytes() + acc.approx_bytes()) as u64;
                    table_bytes = table_bytes - old_bytes + new_bytes;
                    table.insert(k, acc);
                    // Peak tracking happens at the flush sites (and the
                    // shard tail below) where the table is at its
                    // largest, not per record on a shared atomic.
                    if ctx.budget.exceeded_by(table_bytes) {
                        ctx.metrics.observe_worker_bytes(table_bytes);
                        ctx.metrics.record_combiner_flush();
                        for entry in std::mem::take(&mut table) {
                            sink.push(entry)?;
                        }
                        table_bytes = 0;
                    }
                    Ok(())
                })?;
                ctx.metrics.observe_worker_bytes(table_bytes);
                for entry in table {
                    sink.push(entry)?;
                }
                sink.finish()
            })
            .collect::<Result<_, _>>()?;
        let partials = PCollection::from_parts(ctx, partial_groups.into_iter().flatten().collect());

        // --- Reduce side: merge the partials of each key in the
        // shuffle's deterministic (shard, sequence) order, fused onto
        // whatever consumes the result. ---
        partials.group_by_key()?.map(move |(k, accs)| {
            let mut iter = accs.into_iter();
            let first = iter.next().expect("groups are never empty");
            (k, iter.fold(first, &merge))
        })
    }
}

/// In-memory twin of the aggregate-based `kth_largest` bisection: one
/// validation scan over the contiguous `&[f64]` columns, then a single
/// quickselect over a scratch copy. `total_cmp` order is exactly the
/// `ordered_bits` order the bisection walks, and elements that compare
/// equal under it share one bit pattern, so the selected value matches
/// the bisection bit for bit — without the bisection's ~64 per-iteration
/// pool dispatches, which dominate small collections.
fn kth_largest_slices(slices: &[&[f64]], k: u64) -> Result<f64, DataflowError> {
    let mut count = 0u64;
    for slice in slices {
        for &x in *slice {
            if x.is_nan() {
                return Err(DataflowError::invalid("kth_largest is undefined with NaN records"));
            }
            count += 1;
        }
    }
    if k > count {
        return Err(DataflowError::invalid(format!(
            "k = {k} exceeds the {count} records in the collection"
        )));
    }
    let mut scratch: Vec<f64> = Vec::with_capacity(count as usize);
    for slice in slices {
        scratch.extend_from_slice(slice);
    }
    // The k-th largest (1-based) sits at ascending index `count - k`.
    let index = (count - k) as usize;
    let (_, kth, _) = scratch.select_nth_unstable_by(index, f64::total_cmp);
    Ok(*kth)
}

/// Maps `f64` to `u64` such that the unsigned order matches the total order
/// of the floats (negative numbers flip entirely, positives flip the sign
/// bit).
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

/// Inverse of [`ordered_bits`].
fn from_ordered_bits(o: u64) -> f64 {
    if o >> 63 == 1 {
        f64::from_bits(o ^ (1 << 63))
    } else {
        f64::from_bits(!o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryBudget, Pipeline};

    #[test]
    fn ordered_bits_preserve_order() {
        let values = [-1e300, -2.5, -0.0, 0.0, 1e-300, 2.5, 1e300];
        for pair in values.windows(2) {
            assert!(ordered_bits(pair[0]) <= ordered_bits(pair[1]), "{pair:?}");
        }
        for &v in &values {
            assert_eq!(from_ordered_bits(ordered_bits(v)), v);
        }
    }

    #[test]
    fn aggregate_counts_and_sums() {
        let p = Pipeline::new(4).unwrap();
        let pc = p.from_vec((1u64..=100).collect());
        let sum = pc.aggregate(0u64, |a, x| a + x, |a, b| a + b).unwrap();
        assert_eq!(sum, 5050);
    }

    #[test]
    fn float_extrema_and_sum() {
        let p = Pipeline::new(3).unwrap();
        let pc = p.from_vec(vec![3.0f64, -1.0, 2.5, 10.0, 0.0]);
        assert_eq!(pc.min().unwrap(), Some(-1.0));
        assert_eq!(pc.max().unwrap(), Some(10.0));
        assert!((pc.sum().unwrap() - 14.5).abs() < 1e-12);
        let empty = p.from_vec(Vec::<f64>::new());
        assert_eq!(empty.min().unwrap(), None);
        assert_eq!(empty.max().unwrap(), None);
    }

    #[test]
    fn kth_largest_matches_sorting() {
        let p = Pipeline::new(4).unwrap();
        let values: Vec<f64> = (0..500).map(|i| ((i * 37 % 501) as f64) / 7.0 - 30.0).collect();
        let pc = p.from_vec(values.clone());
        let mut sorted = values;
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for k in [1usize, 2, 10, 250, 499, 500] {
            let got = pc.kth_largest(k as u64).unwrap();
            assert_eq!(got, sorted[k - 1], "k = {k}");
        }
    }

    #[test]
    fn kth_largest_with_duplicates() {
        let p = Pipeline::new(2).unwrap();
        let pc = p.from_vec(vec![5.0f64, 5.0, 5.0, 1.0]);
        assert_eq!(pc.kth_largest(1).unwrap(), 5.0);
        assert_eq!(pc.kth_largest(3).unwrap(), 5.0);
        assert_eq!(pc.kth_largest(4).unwrap(), 1.0);
    }

    #[test]
    fn kth_largest_argument_validation() {
        let p = Pipeline::new(2).unwrap();
        let pc = p.from_vec(vec![1.0f64, 2.0]);
        assert!(pc.kth_largest(0).is_err());
        assert!(pc.kth_largest(3).is_err());
        let with_nan = p.from_vec(vec![1.0f64, f64::NAN]);
        assert!(with_nan.kth_largest(1).is_err());
    }

    #[test]
    fn kth_largest_with_negatives_and_spills() {
        let p =
            Pipeline::builder().workers(2).memory_budget(MemoryBudget::bytes(256)).build().unwrap();
        let values: Vec<f64> = (0..2000).map(|i| (i as f64) - 1000.0).collect();
        // Route through a transform so the data lands in budget-checked
        // sinks (a raw `from_vec` shard is exempt from the budget).
        let pc = p.from_vec(values).map(|x| x).unwrap();
        assert_eq!(pc.kth_largest(1).unwrap(), 999.0);
        assert_eq!(pc.kth_largest(2000).unwrap(), -1000.0);
        assert_eq!(pc.kth_largest(1000).unwrap(), 0.0);
        assert!(p.metrics().bytes_spilled > 0);
    }

    #[test]
    fn aggregate_per_key_sums_match_a_sequential_fold() {
        let p = Pipeline::new(4).unwrap();
        let records: Vec<(u64, u64)> = (0..1000).map(|i| (i % 13, i)).collect();
        let mut combined = p
            .from_vec(records.clone())
            .aggregate_per_key(0u64, |a, v| a + v, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        combined.sort_unstable();
        let mut folded = BTreeMap::new();
        for (k, v) in records {
            *folded.entry(k).or_insert(0u64) += v;
        }
        assert_eq!(combined, folded.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn aggregate_per_key_counts_under_tiny_budget() {
        let p =
            Pipeline::builder().workers(3).memory_budget(MemoryBudget::bytes(256)).build().unwrap();
        let records: Vec<(u64, u64)> = (0..20_000).map(|i| (i % 500, 1)).collect();
        let mut out = p
            .from_vec(records)
            .aggregate_per_key(0u64, |a, v| a + v, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        out.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..500).map(|k| (k, 40)).collect();
        assert_eq!(out, expected);
        let m = p.metrics();
        assert!(m.combiner_flushes > 0, "tiny budget must flush the combiner table");
    }

    #[test]
    fn aggregate_per_key_folds_values_in_record_order() {
        // A single shard, order-sensitive accumulator: the fold must see
        // values exactly in record order.
        let p = Pipeline::new(1).unwrap();
        let records: Vec<(u64, u64)> = vec![(1, 10), (2, 5), (1, 20), (1, 30), (2, 6)];
        let mut out = p
            .from_vec(records)
            .aggregate_per_key(
                Vec::new(),
                |mut a: Vec<u64>, v| {
                    a.push(v);
                    a
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap()
            .collect()
            .unwrap();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out, vec![(1, vec![10, 20, 30]), (2, vec![5, 6])]);
    }

    #[test]
    fn aggregate_per_key_empty_collection() {
        let p = Pipeline::new(2).unwrap();
        let pc = p.from_vec(Vec::<(u64, u64)>::new());
        assert_eq!(
            pc.aggregate_per_key(0u64, |a, v| a + v, |a, b| a + b).unwrap().count().unwrap(),
            0
        );
    }
}
