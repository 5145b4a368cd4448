//! Pipeline construction and shard plumbing.

use crate::codec::Record;
use crate::memory::{MemoryBudget, MetricsInner, PipelineMetrics};
use crate::spill::{write_spill, SpillFile, SpillReader, SpillStore};
use crate::{DataflowError, PCollection};
use std::path::PathBuf;
use std::sync::Arc;

/// Internal pipeline state shared by every [`PCollection`] derived from it.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub workers: usize,
    pub budget: MemoryBudget,
    pub metrics: MetricsInner,
    pub spill: SpillStore,
}

impl Ctx {
    /// Writes `records` to a fresh spill file and records the spill in the
    /// pipeline's metrics.
    pub fn spill_records<T: Record>(&self, records: &[T]) -> Result<SpillFile, DataflowError> {
        let file = write_spill(self.spill.fresh_path(), records)?;
        self.metrics.record_spill(file.bytes);
        Ok(file)
    }
}

/// A Beam-style dataflow pipeline with `w` simulated workers, each holding
/// at most a fixed number of buffered bytes before spilling to disk.
///
/// The paper implements bounding and scoring "using the Apache Beam
/// programming model" (§5) so that *"the set does not need to fit into
/// DRAM"*. [`Pipeline`] reproduces that substrate: transforms process
/// shards in parallel, shuffles hash-partition records across workers, and
/// every worker-side buffer is accounted against the [`MemoryBudget`].
///
/// ```
/// use submod_dataflow::{MemoryBudget, Pipeline};
///
/// # fn main() -> Result<(), submod_dataflow::DataflowError> {
/// let pipeline = Pipeline::builder().workers(4).memory_budget(MemoryBudget::mib(8)).build()?;
/// let numbers = pipeline.from_vec((0u64..1000).collect());
/// let doubled = numbers.map(|x| x * 2)?;
/// assert_eq!(doubled.count()?, 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Pipeline {
    ctx: Arc<Ctx>,
}

impl Pipeline {
    /// Starts configuring a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The shared pipeline state.
    pub(crate) fn ctx_arc(&self) -> &Arc<Ctx> {
        &self.ctx
    }

    /// Creates a pipeline with `workers` workers and no memory limit.
    ///
    /// # Errors
    ///
    /// Returns an error if the spill directory cannot be created or
    /// `workers == 0`.
    pub fn new(workers: usize) -> Result<Self, DataflowError> {
        Self::builder().workers(workers).build()
    }

    /// Number of simulated workers (shuffle buckets).
    pub fn workers(&self) -> usize {
        self.ctx.workers
    }

    /// The per-worker memory budget.
    pub fn budget(&self) -> MemoryBudget {
        self.ctx.budget
    }

    /// A snapshot of the pipeline's resource counters.
    pub fn metrics(&self) -> PipelineMetrics {
        self.ctx.metrics.snapshot()
    }

    /// Charges `bytes` of worker-resident state a transform closure builds
    /// outside the engine's own buffers (e.g. a per-group working set
    /// inside [`PCollection::flat_map`]) to
    /// [`PipelineMetrics::peak_worker_bytes`], so the peak covers what a
    /// worker really held.
    pub fn observe_worker_bytes(&self, bytes: u64) {
        self.ctx.metrics.observe_worker_bytes(bytes);
    }

    /// Creates a collection from an in-memory vector, splitting it into one
    /// shard per worker.
    pub fn from_vec<T: Record>(&self, data: Vec<T>) -> PCollection<T> {
        let shard_count = self.ctx.workers.max(1);
        let chunk = data.len().div_ceil(shard_count).max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut data = data;
        while !data.is_empty() {
            let rest = data.split_off(chunk.min(data.len()));
            shards.push(Shard::InMemory(Arc::new(data)));
            data = rest;
        }
        PCollection::from_parts(self.ctx.clone(), shards)
    }

    /// Creates a collection of `count` records produced by `generate(i)`
    /// without ever materializing more than one worker budget in memory —
    /// the entry point for *virtual* (larger-than-memory) datasets.
    ///
    /// # Errors
    ///
    /// Returns an error if spilling fails.
    pub fn generate<T, F>(&self, count: u64, generate: F) -> Result<PCollection<T>, DataflowError>
    where
        T: Record,
        F: Fn(u64) -> T + Send + Sync,
    {
        use rayon::prelude::*;
        let shard_count = (self.ctx.workers.max(1)) as u64;
        let per_shard = count.div_ceil(shard_count).max(1);
        let ranges: Vec<(u64, u64)> = (0..shard_count)
            .map(|s| (s * per_shard, ((s + 1) * per_shard).min(count)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let shard_groups: Vec<Vec<Shard<T>>> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut sink = ShardSink::new(&self.ctx);
                for i in lo..hi {
                    sink.push(generate(i))?;
                }
                sink.finish()
            })
            .collect::<Result<_, _>>()?;
        Ok(PCollection::from_parts(self.ctx.clone(), shard_groups.into_iter().flatten().collect()))
    }
}

/// Builder for [`Pipeline`] (see [`Pipeline::builder`]).
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    workers: Option<usize>,
    budget: Option<MemoryBudget>,
    spill_dir: Option<PathBuf>,
}

impl PipelineBuilder {
    /// Sets the number of simulated workers (default: available CPUs).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the per-worker memory budget (default: unlimited).
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the directory spill files are created under (default: the
    /// system temporary directory).
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error if `workers == 0` or the spill directory cannot be
    /// created.
    pub fn build(self) -> Result<Pipeline, DataflowError> {
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(4));
        if workers == 0 {
            return Err(DataflowError::invalid("pipeline must have at least one worker"));
        }
        let base = self.spill_dir.unwrap_or_else(std::env::temp_dir);
        let spill = SpillStore::create(&base)?;
        Ok(Pipeline {
            ctx: Arc::new(Ctx {
                workers,
                budget: self.budget.unwrap_or_default(),
                metrics: MetricsInner::default(),
                spill,
            }),
        })
    }
}

/// One shard of a collection: a resident vector or a spill file.
#[derive(Debug, Clone)]
pub(crate) enum Shard<T: Record> {
    InMemory(Arc<Vec<T>>),
    Spilled(SpillFile),
}

impl<T: Record> Shard<T> {
    pub fn len(&self) -> usize {
        match self {
            Shard::InMemory(v) => v.len(),
            Shard::Spilled(f) => f.count,
        }
    }

    /// Streams every record of the shard through `f`.
    pub fn for_each<F>(&self, mut f: F) -> Result<(), DataflowError>
    where
        F: FnMut(T) -> Result<(), DataflowError>,
    {
        match self {
            Shard::InMemory(v) => {
                for record in v.iter() {
                    f(record.clone())?;
                }
                Ok(())
            }
            Shard::Spilled(file) => {
                let mut reader = SpillReader::<T>::open(file)?;
                while let Some(record) = reader.next_record()? {
                    f(record)?;
                }
                Ok(())
            }
        }
    }
}

/// Accumulates output records against the worker budget, spilling full
/// buffers to disk.
pub(crate) struct ShardSink<'a, T: Record> {
    ctx: &'a Ctx,
    buffer: Vec<T>,
    buffer_bytes: u64,
    shards: Vec<Shard<T>>,
}

impl<'a, T: Record> ShardSink<'a, T> {
    pub fn new(ctx: &'a Ctx) -> Self {
        ShardSink { ctx, buffer: Vec::new(), buffer_bytes: 0, shards: Vec::new() }
    }

    pub fn push(&mut self, record: T) -> Result<(), DataflowError> {
        self.buffer_bytes += record.approx_bytes() as u64;
        self.buffer.push(record);
        // `buffer_bytes` only grows between spills, so the peak-bytes
        // gauge is observed where the maximum is attained — in `spill`
        // and `finish` — keeping the shared atomic off this per-record
        // path.
        if self.ctx.budget.exceeded_by(self.buffer_bytes) {
            self.spill()?;
        }
        Ok(())
    }

    // Kept out of `push`, which runs per record and rarely spills.
    #[cold]
    fn spill(&mut self) -> Result<(), DataflowError> {
        self.ctx.metrics.observe_worker_bytes(self.buffer_bytes);
        if self.buffer.is_empty() {
            return Ok(());
        }
        let file = self.ctx.spill_records(&self.buffer)?;
        self.shards.push(Shard::Spilled(file));
        self.buffer.clear();
        self.buffer_bytes = 0;
        Ok(())
    }

    pub fn finish(mut self) -> Result<Vec<Shard<T>>, DataflowError> {
        self.ctx.metrics.observe_worker_bytes(self.buffer_bytes);
        if !self.buffer.is_empty() {
            self.shards.push(Shard::InMemory(Arc::new(std::mem::take(&mut self.buffer))));
        }
        Ok(std::mem::take(&mut self.shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_workers() {
        assert!(Pipeline::builder().workers(0).build().is_err());
        let p = Pipeline::builder().workers(3).build().unwrap();
        assert_eq!(p.workers(), 3);
    }

    #[test]
    fn from_vec_splits_into_worker_shards() {
        let p = Pipeline::new(4).unwrap();
        let pc = p.from_vec((0u64..10).collect());
        assert_eq!(pc.num_shards(), 4);
        assert_eq!(pc.count().unwrap(), 10);
    }

    #[test]
    fn from_vec_empty() {
        let p = Pipeline::new(4).unwrap();
        let pc = p.from_vec(Vec::<u64>::new());
        assert_eq!(pc.count().unwrap(), 0);
        assert!(pc.collect().unwrap().is_empty());
    }

    #[test]
    fn generate_produces_all_records() {
        let p = Pipeline::new(3).unwrap();
        let pc = p.generate(100, |i| i * i).unwrap();
        let mut all = pc.collect().unwrap();
        all.sort_unstable();
        assert_eq!(all.len(), 100);
        assert_eq!(all[99], 99 * 99);
    }

    #[test]
    fn generate_with_tiny_budget_spills() {
        let p =
            Pipeline::builder().workers(2).memory_budget(MemoryBudget::bytes(256)).build().unwrap();
        let pc = p.generate(1000, |i| i).unwrap();
        assert_eq!(pc.count().unwrap(), 1000);
        let metrics = p.metrics();
        assert!(metrics.bytes_spilled > 0, "tiny budget must force spills");
        assert!(metrics.peak_worker_bytes <= 256 + 64, "budget roughly respected");
        let mut all = pc.collect().unwrap();
        all.sort_unstable();
        assert_eq!(all, (0u64..1000).collect::<Vec<_>>());
    }
}
