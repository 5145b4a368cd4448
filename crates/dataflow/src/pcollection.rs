//! The distributed collection abstraction.

use crate::codec::Record;
use crate::pipeline::{Ctx, Shard, ShardSink};
use crate::DataflowError;
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// The emit callback a fused pass pushes records into.
type Emit<'a, T> = &'a mut dyn FnMut(T) -> Result<(), DataflowError>;

/// Executes one deferred per-shard pass: streams the source shards through
/// the composed operator chain into `emit`, returning how many records
/// entered the chain.
type RunFn<T> = Arc<dyn Fn(Emit<'_, T>) -> Result<u64, DataflowError> + Send + Sync>;

/// What a [`FusedUnit`] holds: its pending chain until the first barrier,
/// the shards that chain produced after it.
#[derive(Clone)]
enum UnitState<T: Record> {
    Pending(RunFn<T>),
    Executed(Vec<Shard<T>>),
}

/// A deferred per-shard operator chain: the composition of every
/// `map`/`filter`/`flat_map` applied since the last materialized shard,
/// executed as **one pass** when the collection hits a barrier
/// (collect/count/aggregate/shuffle). Executing swaps the chain for its
/// output shards, which drops the chain's closures and, with them, every
/// upstream unit they held: a loop that keeps deriving a table from the
/// last executed one holds one table, not its history.
pub(crate) struct FusedUnit<T: Record> {
    ctx: Arc<Ctx>,
    /// Number of chained operators since the last executed input,
    /// recorded in the `dataflow.fused_stage_ops` histogram at execution.
    ops: u32,
    state: Mutex<UnitState<T>>,
}

impl<T: Record> FusedUnit<T> {
    /// A one-operator unit that streams `shards` through `body`.
    fn over_shards<S, B>(ctx: Arc<Ctx>, shards: Vec<Shard<S>>, body: Arc<B>) -> Self
    where
        S: Record,
        B: Fn(S, Emit<'_, T>) -> Result<(), DataflowError> + Send + Sync + 'static,
    {
        FusedUnit {
            ctx,
            ops: 1,
            state: Mutex::new(UnitState::Pending(Arc::new(move |emit| {
                stream_shards(&shards, |record| body(record, &mut *emit))
            }))),
        }
    }

    /// The unit's current state; shards and chain are shared, not copied,
    /// and the lock is not held while the caller uses them.
    fn state(&self) -> UnitState<T> {
        self.state.lock().expect("fused unit").clone()
    }

    /// Streams the unit's records into `emit` without materializing them
    /// (used when a further operator fuses on top of a pending unit).
    /// Runs the chain directly — no metrics or spans, those belong to
    /// [`FusedUnit::execute`].
    fn stream(&self, emit: Emit<'_, T>) -> Result<u64, DataflowError> {
        match self.state() {
            UnitState::Pending(run) => run(emit),
            UnitState::Executed(shards) => stream_shards(&shards, emit),
        }
    }

    /// Executes the chain into budget-checked shards (spilling like any
    /// transform output) and keeps the shards in place of the chain. One
    /// obs span + one `stages_fused` tick per actual execution.
    fn execute(&self) -> Result<Vec<Shard<T>>, DataflowError> {
        let mut state = self.state.lock().expect("fused unit");
        let run = match &*state {
            UnitState::Pending(run) => Arc::clone(run),
            UnitState::Executed(shards) => return Ok(shards.clone()),
        };
        let _span = submod_obs::span("dataflow.fused_stage");
        let mut sink = ShardSink::new(&self.ctx);
        let entered = run(&mut |record| sink.push(record))?;
        let shards = sink.finish()?;
        self.ctx.metrics.record_processed(entered);
        self.ctx.metrics.record_fused_stage(u64::from(self.ops));
        *state = UnitState::Executed(shards.clone());
        Ok(shards)
    }
}

/// Streams every record of `shards` through `f`, returning how many
/// entered.
fn stream_shards<T: Record>(
    shards: &[Shard<T>],
    mut f: impl FnMut(T) -> Result<(), DataflowError>,
) -> Result<u64, DataflowError> {
    let mut entered = 0u64;
    for shard in shards {
        shard.for_each(|record| {
            entered += 1;
            f(record)
        })?;
    }
    Ok(entered)
}

impl<T: Record> std::fmt::Debug for FusedUnit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedUnit").field("ops", &self.ops).finish_non_exhaustive()
    }
}

/// One slice of a collection: a materialized shard or a fused chain over
/// one, pending or executed.
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
/// Collections are cheap to clone (shards are shared). Chained per-shard
/// transforms defer into a single pass per shard executed at the next
/// barrier, so records cross the codec/spill boundary once per *stage*
/// instead of once per *operator*; an executed stage keeps its output
/// shards and releases its input. Any worker whose output buffer would
/// exceed the pipeline's [`crate::MemoryBudget`] spills it to disk.
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

    /// Materialized shards, executing any pending fused chains (each unit
    /// keeps its output) — the barrier primitive every consuming operation
    /// goes through. Fused segments execute in parallel.
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
    /// of materialized shards — an explicit barrier: when it returns,
    /// every output shard exists in memory or as a spill file. A no-op
    /// (cheap shard clones) when nothing is pending.
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

    /// Applies `f` to every record, producing a new collection. The work
    /// defers into the shard's operator chain; the closure must therefore
    /// own its captures (`'static`) — use [`PCollection::map_eager`] for
    /// borrow-capturing closures.
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn map<U, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
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
        self.transform_shards("dataflow.map", |record, sink| sink.push(f(record)))
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
        self.transform_shards("dataflow.flat_map", |record, sink| {
            for out in f(record) {
                sink.push(out)?;
            }
            Ok(())
        })
    }

    /// Defers `body` onto every segment's operator chain: each output
    /// segment is a [`FusedUnit`] that will stream its source through the
    /// composed chain in one pass at the next barrier. A unit that already
    /// executed is a source like a ready shard: the new chain starts over
    /// its shards and holds no edge to the unit itself.
    fn compose<U, B>(&self, body: B) -> PCollection<U>
    where
        U: Record,
        B: Fn(T, Emit<'_, U>) -> Result<(), DataflowError> + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let ctx = &self.ctx;
        let segments = self
            .segments
            .iter()
            .map(|segment| {
                let body = Arc::clone(&body);
                let unit = match segment {
                    Segment::Ready(shard) => {
                        FusedUnit::over_shards(ctx.clone(), vec![shard.clone()], body)
                    }
                    Segment::Fused(prev) => match prev.state() {
                        UnitState::Executed(shards) => {
                            FusedUnit::over_shards(ctx.clone(), shards, body)
                        }
                        UnitState::Pending(_) => {
                            let prev = Arc::clone(prev);
                            FusedUnit {
                                ctx: ctx.clone(),
                                ops: prev.ops.saturating_add(1),
                                state: Mutex::new(UnitState::Pending(Arc::new(move |emit| {
                                    prev.stream(&mut |record| body(record, &mut *emit))
                                }))),
                            }
                        }
                    },
                };
                Segment::Fused(Arc::new(unit))
            })
            .collect();
        PCollection { ctx: self.ctx.clone(), segments }
    }

    /// Shared eager shard-parallel transform driver, timed as the span
    /// `span_name`. A barrier: pending fused chains execute first.
    fn transform_shards<U, F>(
        &self,
        span_name: &'static str,
        body: F,
    ) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T, &mut ShardSink<'_, U>) -> Result<(), DataflowError> + Send + Sync,
    {
        let _span = submod_obs::span(span_name);
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
                sink.finish()
            })
            .collect::<Result<_, _>>()?;
        Ok(PCollection::from_parts(self.ctx.clone(), shard_groups.into_iter().flatten().collect()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{MemoryBudget, Pipeline};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        let p = Pipeline::new(3).unwrap();
        let pc = p.from_vec((0u64..50).collect());
        pc.map_eager(|x| x).unwrap();
        pc.flat_map_eager(Some).unwrap();
        assert_eq!(p.metrics().records_processed, 100);
    }

    #[test]
    fn fused_chain_runs_once_per_shard_at_the_barrier() {
        let p = Pipeline::new(3).unwrap();
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
    fn fused_results_are_kept_across_barriers() {
        let p = Pipeline::new(2).unwrap();
        let pc = p.from_vec((0u64..40).collect());
        let mapped = pc.map(|x| x + 1).unwrap();
        assert_eq!(mapped.count().unwrap(), 40);
        let stages_after_first = p.metrics().stages_fused;
        // Re-consuming the same collection reads the executed shards.
        assert_eq!(mapped.count().unwrap(), 40);
        assert_eq!(mapped.collect().unwrap().len(), 40);
        assert_eq!(p.metrics().stages_fused, stages_after_first);
        // A chain on top of the executed collection starts over its shards.
        assert_eq!(mapped.map(|x| x * 2).unwrap().count().unwrap(), 40);
        assert_eq!(p.metrics().stages_fused, stages_after_first + 2);
    }

    #[test]
    fn deferred_and_eager_chains_agree() {
        let p = Pipeline::new(3).unwrap();
        let pc = p.from_vec((0u64..500).collect());
        let deferred = pc
            .map(|x| x * 7)
            .unwrap()
            .filter(|x| x % 3 != 0)
            .unwrap()
            .flat_map(|x| vec![x, x + 1])
            .unwrap()
            .collect()
            .unwrap();
        let eager = pc
            .map_eager(|x| x * 7)
            .unwrap()
            .flat_map_eager(|x| (x % 3 != 0).then_some(x))
            .unwrap()
            .flat_map_eager(|x| vec![x, x + 1])
            .unwrap()
            .collect()
            .unwrap();
        let reference: Vec<u64> =
            (0u64..500).map(|x| x * 7).filter(|x| x % 3 != 0).flat_map(|x| [x, x + 1]).collect();
        assert_eq!(deferred, eager);
        assert_eq!(deferred, reference);
    }

    /// A token owned by one stage's closure; counts how many are alive.
    struct Token(Arc<AtomicUsize>);

    impl Token {
        fn new(alive: &Arc<AtomicUsize>) -> Self {
            alive.fetch_add(1, Ordering::Relaxed);
            Token(Arc::clone(alive))
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn reassigning_loop_releases_every_executed_stage() {
        const STEPS: u64 = 10_000;
        let alive = Arc::new(AtomicUsize::new(0));
        let p = Pipeline::new(2).unwrap();
        let mut table = p.from_vec((0u64..1000).collect());
        for _ in 0..STEPS {
            let token = Token::new(&alive);
            table = table
                .map(move |x| {
                    std::hint::black_box(&token);
                    x + 1
                })
                .unwrap();
            assert_eq!(table.count().unwrap(), 1000);
        }
        assert!(
            alive.load(Ordering::Relaxed) <= 2,
            "{} of {STEPS} stage closures still alive",
            alive.load(Ordering::Relaxed)
        );
        assert_eq!(table.collect().unwrap().iter().max(), Some(&(999 + STEPS)));
        // Dropping the table must not walk a chain as deep as the loop.
        drop(table);
        assert_eq!(alive.load(Ordering::Relaxed), 0);
    }
}
