//! The distributed collection abstraction.

use crate::codec::Record;
use crate::pipeline::{Ctx, Shard, ShardSink};
use crate::DataflowError;
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// The emit callback a fused pass pushes records into.
type Emit<'a, T> = &'a mut dyn FnMut(T) -> Result<(), DataflowError>;

/// Executes one deferred per-shard pass: streams the source shard through
/// the composed operator chain into `emit`, returning how many records
/// entered the chain.
type RunFn<T> = Box<dyn Fn(Emit<'_, T>) -> Result<u64, DataflowError> + Send + Sync>;

/// A deferred per-shard operator chain: the composition of every
/// `map`/`filter`/`flat_map` applied since the last materialized shard,
/// executed as **one pass** when the collection hits a barrier
/// (collect/count/aggregate/shuffle). The result is cached so chains that
/// build on an already-executed collection (the greedy engine re-derives
/// its pool table every step) never re-run upstream stages.
pub(crate) struct FusedUnit<T: Record> {
    ctx: Arc<Ctx>,
    run: RunFn<T>,
    /// Number of chained operators, recorded in the
    /// `dataflow.fused_stage_ops` histogram at execution.
    ops: u32,
    cache: Mutex<Option<Vec<Shard<T>>>>,
}

impl<T: Record> FusedUnit<T> {
    /// Streams the unit's records into `emit` without materializing them
    /// (used when a further operator fuses on top). Reads the cache when
    /// the unit already executed; otherwise runs the chain directly —
    /// no metrics or spans, those belong to [`FusedUnit::execute`].
    fn stream(&self, emit: Emit<'_, T>) -> Result<u64, DataflowError> {
        let cached = self.cache.lock().expect("fused cache").clone();
        if let Some(shards) = cached {
            let mut entered = 0u64;
            for shard in &shards {
                shard.for_each(|record| {
                    entered += 1;
                    emit(record)
                })?;
            }
            return Ok(entered);
        }
        (self.run)(emit)
    }

    /// Executes the chain into budget-checked shards (spilling like any
    /// transform output), caching the result. One obs span + one
    /// `stages_fused` tick per actual execution.
    fn execute(&self) -> Result<Vec<Shard<T>>, DataflowError> {
        let mut cache = self.cache.lock().expect("fused cache");
        if let Some(shards) = cache.as_ref() {
            return Ok(shards.clone());
        }
        let _span = submod_obs::span_full("dataflow.fused_stage");
        let mut sink = ShardSink::new(&self.ctx);
        let entered = (self.run)(&mut |record| sink.push(record))?;
        let shards = sink.finish()?;
        self.ctx.metrics.record_processed(entered);
        self.ctx.metrics.record_fused_stage(u64::from(self.ops));
        *cache = Some(shards.clone());
        Ok(shards)
    }
}

impl<T: Record> std::fmt::Debug for FusedUnit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedUnit").field("ops", &self.ops).finish_non_exhaustive()
    }
}

/// One slice of a collection: a materialized shard or a pending fused
/// chain over one.
#[derive(Clone, Debug)]
pub(crate) enum Segment<T: Record> {
    Ready(Shard<T>),
    Fused(Arc<FusedUnit<T>>),
}

/// An immutable, sharded, possibly disk-resident collection of records —
/// the engine's analogue of Beam's `PCollection` (§5 of the paper:
/// *"A PCollection represents an immutable, conceptually infinitely-sized
/// set of elements. The set does not need to fit into DRAM."*).
///
/// Collections are cheap to clone (shards are shared). With fusion on
/// (the default; see `SUBMOD_FUSION` and
/// [`crate::PipelineBuilder::fusion`]), chained per-shard transforms
/// defer into a single pass per shard executed at the next barrier, so
/// records cross the codec/spill boundary once per *stage* instead of
/// once per *operator*. Any worker whose output buffer would exceed the
/// pipeline's [`crate::MemoryBudget`] spills it to disk.
///
/// ```
/// use submod_dataflow::Pipeline;
///
/// # fn main() -> Result<(), submod_dataflow::DataflowError> {
/// let p = Pipeline::new(2)?;
/// let pc = p.from_vec(vec![1u64, 2, 3, 4]);
/// let odd_squares = pc.filter(|x| x % 2 == 1)?.map(|x| x * x)?;
/// let mut out = odd_squares.collect()?;
/// out.sort_unstable();
/// assert_eq!(out, vec![1, 9]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PCollection<T: Record> {
    ctx: Arc<Ctx>,
    segments: Vec<Segment<T>>,
}

impl<T: Record> PCollection<T> {
    pub(crate) fn from_parts(ctx: Arc<Ctx>, shards: Vec<Shard<T>>) -> Self {
        PCollection { ctx, segments: shards.into_iter().map(Segment::Ready).collect() }
    }

    pub(crate) fn ctx(&self) -> &Arc<Ctx> {
        &self.ctx
    }

    /// Number of shards backing the collection.
    pub fn num_shards(&self) -> usize {
        self.segments.len()
    }

    /// Materialized shards, executing (and caching) any pending fused
    /// chains — the barrier primitive every consuming operation goes
    /// through. Fused segments execute in parallel.
    pub(crate) fn ready_shards(&self) -> Result<Vec<Shard<T>>, DataflowError> {
        if self.segments.iter().all(|s| matches!(s, Segment::Ready(_))) {
            return Ok(self
                .segments
                .iter()
                .map(|s| match s {
                    Segment::Ready(shard) => shard.clone(),
                    Segment::Fused(_) => unreachable!("checked all-ready"),
                })
                .collect());
        }
        let groups: Vec<Vec<Shard<T>>> = self
            .segments
            .par_iter()
            .map(|segment| match segment {
                Segment::Ready(shard) => Ok(vec![shard.clone()]),
                Segment::Fused(unit) => unit.execute(),
            })
            .collect::<Result<_, _>>()?;
        Ok(groups.into_iter().flatten().collect())
    }

    /// Forces any pending fused chains to execute, returning a collection
    /// of materialized shards. A no-op (cheap shard clones) when nothing
    /// is pending.
    ///
    /// # Errors
    ///
    /// Returns an error if executing a fused chain or spilling fails.
    pub fn materialize(&self) -> Result<PCollection<T>, DataflowError> {
        Ok(PCollection {
            ctx: self.ctx.clone(),
            segments: self.ready_shards()?.into_iter().map(Segment::Ready).collect(),
        })
    }

    /// Counts records; a barrier (executes pending fused chains), after
    /// which the count reads from shard metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if executing a fused chain or spilling fails.
    pub fn count(&self) -> Result<u64, DataflowError> {
        Ok(self.ready_shards()?.iter().map(|s| s.len() as u64).sum())
    }

    /// Materializes every record into one vector.
    ///
    /// Intended for tests and *small* results (e.g. per-round statistics);
    /// defeats the larger-than-memory design if called on big collections.
    ///
    /// # Errors
    ///
    /// Returns an error if a spilled shard cannot be read.
    pub fn collect(&self) -> Result<Vec<T>, DataflowError> {
        let shards = self.ready_shards()?;
        let mut out = Vec::with_capacity(shards.iter().map(Shard::len).sum());
        for shard in &shards {
            shard.for_each(|r| {
                out.push(r);
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Applies `f` to every record, producing a new collection. With
    /// fusion on, the work defers into the shard's operator chain; the
    /// closure must therefore own its captures (`'static`) — use
    /// [`PCollection::map_eager`] for borrow-capturing closures.
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn map<U, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        if !self.ctx.fusion {
            return self.map_eager(f);
        }
        Ok(self.compose(move |record, emit: Emit<'_, U>| emit(f(record))))
    }

    /// Eager, non-deferring `map`: executes immediately via a full
    /// per-shard pass, so `f` may borrow from the caller's stack. Used
    /// where the mapped table is materialized right away anyway (e.g. the
    /// greedy engine's phase-persistent pool table).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn map_eager<U, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T) -> U + Send + Sync,
    {
        self.transform_shards("map", |record, sink| sink.push(f(record)))
    }

    /// Keeps the records for which `predicate` returns `true`.
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn filter<F>(&self, predicate: F) -> Result<PCollection<T>, DataflowError>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        if !self.ctx.fusion {
            return self.transform_shards("filter", |record, sink| {
                if predicate(&record) {
                    sink.push(record)
                } else {
                    Ok(())
                }
            });
        }
        Ok(self.compose(
            move |record, emit: Emit<'_, T>| {
                if predicate(&record) {
                    emit(record)
                } else {
                    Ok(())
                }
            },
        ))
    }

    /// Applies `f` to every record and flattens the results — the engine's
    /// `ParDo`. This is how the bounding pipeline fans out neighbor lists
    /// into `(neighbor, node, similarity)` triples (§5).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn flat_map<U, I, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        if !self.ctx.fusion {
            return self.transform_shards("flat_map", |record, sink| {
                for out in f(record) {
                    sink.push(out)?;
                }
                Ok(())
            });
        }
        Ok(self.compose(move |record, emit: Emit<'_, U>| {
            for out in f(record) {
                emit(out)?;
            }
            Ok(())
        }))
    }

    /// Eager, non-deferring `flat_map`: executes immediately via a full
    /// per-shard pass, so `f` may borrow from the caller's stack (the
    /// scoring pipeline fans out borrowed adjacency lists this way).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn flat_map_eager<U, I, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync,
    {
        self.transform_shards("flat_map", |record, sink| {
            for out in f(record) {
                sink.push(out)?;
            }
            Ok(())
        })
    }

    /// Concatenates two collections of the same pipeline without moving
    /// data (§4.4: *"A union can be implemented without materializing all
    /// data in memory"*). Pending fused chains on either side carry over
    /// untouched — a union never re-encodes or re-executes its inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the collections belong to different pipelines.
    pub(crate) fn union(&self, other: &PCollection<T>) -> Result<PCollection<T>, DataflowError> {
        if !Arc::ptr_eq(&self.ctx, &other.ctx) {
            return Err(DataflowError::invalid(
                "cannot union collections from different pipelines",
            ));
        }
        let mut segments = self.segments.clone();
        segments.extend(other.segments.iter().cloned());
        Ok(PCollection { ctx: self.ctx.clone(), segments })
    }

    /// Defers `body` onto every segment's operator chain: each output
    /// segment is a [`FusedUnit`] that will stream its source through the
    /// composed chain in one pass at the next barrier.
    fn compose<U, B>(&self, body: B) -> PCollection<U>
    where
        U: Record,
        B: Fn(T, Emit<'_, U>) -> Result<(), DataflowError> + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let segments = self
            .segments
            .iter()
            .map(|segment| {
                let body = Arc::clone(&body);
                let unit = match segment {
                    Segment::Ready(shard) => {
                        let shard = shard.clone();
                        FusedUnit {
                            ctx: self.ctx.clone(),
                            ops: 1,
                            cache: Mutex::new(None),
                            run: Box::new(move |emit| {
                                let mut entered = 0u64;
                                shard.for_each(|record| {
                                    entered += 1;
                                    body(record, &mut *emit)
                                })?;
                                Ok(entered)
                            }),
                        }
                    }
                    Segment::Fused(prev) => {
                        let prev = Arc::clone(prev);
                        FusedUnit {
                            ctx: self.ctx.clone(),
                            ops: prev.ops.saturating_add(1),
                            cache: Mutex::new(None),
                            run: Box::new(move |emit| {
                                prev.stream(&mut |record| body(record, &mut *emit))
                            }),
                        }
                    }
                };
                Segment::Fused(Arc::new(unit))
            })
            .collect();
        PCollection { ctx: self.ctx.clone(), segments }
    }

    /// Shared eager shard-parallel transform driver. `op` names the
    /// transform in per-op registry counters (`dataflow.op.<op>.records`),
    /// flushed once per shard. A barrier: pending fused chains execute
    /// first.
    fn transform_shards<U, F>(
        &self,
        op: &'static str,
        body: F,
    ) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T, &mut ShardSink<'_, U>) -> Result<(), DataflowError> + Send + Sync,
    {
        let _span = submod_obs::span_full(match op {
            "map" => "dataflow.map",
            "filter" => "dataflow.filter",
            _ => "dataflow.flat_map",
        });
        let op_records = submod_obs::counter(&format!("dataflow.op.{op}.records"));
        let ctx = &self.ctx;
        let shards = self.ready_shards()?;
        let shard_groups: Vec<Vec<Shard<U>>> = shards
            .par_iter()
            .map(|shard| {
                let mut sink = ShardSink::new(ctx);
                let mut processed = 0u64;
                shard.for_each(|record| {
                    processed += 1;
                    body(record, &mut sink)
                })?;
                ctx.metrics.record_processed(processed);
                op_records.add(processed);
                sink.finish()
            })
            .collect::<Result<_, _>>()?;
        Ok(PCollection::from_parts(self.ctx.clone(), shard_groups.into_iter().flatten().collect()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{MemoryBudget, Pipeline};

    fn pipeline() -> Pipeline {
        Pipeline::new(3).unwrap()
    }

    #[test]
    fn map_transforms_all_records() {
        let p = pipeline();
        let pc = p.from_vec((0u64..100).collect());
        let mut out = pc.map(|x| x + 1).unwrap().collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, (1u64..=100).collect::<Vec<_>>());
    }

    #[test]
    fn filter_keeps_matching() {
        let p = pipeline();
        let pc = p.from_vec((0u64..100).collect());
        assert_eq!(pc.filter(|x| x % 10 == 0).unwrap().count().unwrap(), 10);
    }

    #[test]
    fn flat_map_expands_and_contracts() {
        let p = pipeline();
        let pc = p.from_vec(vec![1u64, 2, 3]);
        let expanded = pc.flat_map(|x| (0..x).map(move |i| (x, i)).collect::<Vec<_>>()).unwrap();
        assert_eq!(expanded.count().unwrap(), 6);
        let none = pc.flat_map(|_| Vec::<u64>::new()).unwrap();
        assert_eq!(none.count().unwrap(), 0);
    }

    #[test]
    fn union_concatenates() {
        let p = pipeline();
        let a = p.from_vec(vec![1u64, 2]);
        let b = p.from_vec(vec![3u64]);
        let u = a.union(&b).unwrap();
        let mut out = u.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn union_across_pipelines_is_an_error() {
        let p1 = pipeline();
        let p2 = pipeline();
        let a = p1.from_vec(vec![1u64]);
        let b = p2.from_vec(vec![2u64]);
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn spilled_transforms_roundtrip() {
        let p =
            Pipeline::builder().workers(2).memory_budget(MemoryBudget::bytes(128)).build().unwrap();
        let pc = p.from_vec((0u64..5000).collect());
        let mapped = pc.map(|x| x * 3).unwrap();
        let mut out = mapped.collect().unwrap();
        assert!(p.metrics().bytes_spilled > 0, "expected spills under 128-byte budget");
        out.sort_unstable();
        assert_eq!(out.len(), 5000);
        assert_eq!(out[4999], 4999 * 3);
        // A second pass over spilled shards also works.
        assert_eq!(mapped.filter(|x| x % 2 == 0).unwrap().count().unwrap(), 2500);
    }

    #[test]
    fn records_processed_metric_accumulates_eagerly() {
        let p = Pipeline::builder().workers(3).fusion(false).build().unwrap();
        let pc = p.from_vec((0u64..50).collect());
        pc.map(|x| x).unwrap();
        pc.filter(|_| true).unwrap();
        assert_eq!(p.metrics().records_processed, 100);
    }

    #[test]
    fn fused_chain_runs_once_per_shard_at_the_barrier() {
        let p = Pipeline::builder().workers(3).fusion(true).build().unwrap();
        let pc = p.from_vec((0u64..100).collect());
        let chained = pc.map(|x| x + 1).unwrap().filter(|x| x % 2 == 0).unwrap().map(|x| x * 10);
        let chained = chained.unwrap();
        // Nothing ran yet: no records processed before the barrier.
        assert_eq!(p.metrics().records_processed, 0);
        assert_eq!(p.metrics().stages_fused, 0);
        let mut out = chained.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, (1u64..=100).filter(|x| x % 2 == 0).map(|x| x * 10).collect::<Vec<_>>());
        let m = p.metrics();
        // One fused stage per shard, and the 100 inputs entered exactly
        // one pass (not one per operator).
        assert_eq!(m.stages_fused, 3);
        assert_eq!(m.records_processed, 100);
    }

    #[test]
    fn fused_results_are_cached_across_barriers() {
        let p = Pipeline::builder().workers(2).fusion(true).build().unwrap();
        let pc = p.from_vec((0u64..40).collect());
        let mapped = pc.map(|x| x + 1).unwrap();
        assert_eq!(mapped.count().unwrap(), 40);
        let stages_after_first = p.metrics().stages_fused;
        // Re-consuming the same collection reads the cache.
        assert_eq!(mapped.count().unwrap(), 40);
        assert_eq!(mapped.collect().unwrap().len(), 40);
        assert_eq!(p.metrics().stages_fused, stages_after_first);
        // Chaining on top of the cached result streams from the cache.
        assert_eq!(mapped.map(|x| x * 2).unwrap().count().unwrap(), 40);
        assert_eq!(p.metrics().stages_fused, stages_after_first + 2);
    }

    #[test]
    fn fusion_on_and_off_agree() {
        let build = |fusion: bool| {
            let p = Pipeline::builder().workers(3).fusion(fusion).build().unwrap();
            let pc = p.from_vec((0u64..500).collect());
            pc.map(|x| x * 7)
                .unwrap()
                .filter(|x| x % 3 != 0)
                .unwrap()
                .flat_map(|x| vec![x, x + 1])
                .unwrap()
                .collect()
                .unwrap()
        };
        assert_eq!(build(true), build(false));
    }
}
