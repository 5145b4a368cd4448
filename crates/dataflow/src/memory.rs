//! Per-worker memory budgets and pipeline-wide metrics.
//!
//! The entire point of the paper's systems design is that **no machine ever
//! holds the full subset (or ground set) in DRAM**. The engine enforces
//! that claim mechanically: every worker buffers output against a byte
//! budget and spills the buffer to disk when it would overflow.
//! [`PipelineMetrics`] records spills, shuffled records, and the peak
//! buffer size so tests can assert the budget held.

use std::sync::atomic::{AtomicU64, Ordering};

/// Memory budget granted to each (simulated) worker, in bytes.
///
/// ```
/// use submod_dataflow::MemoryBudget;
///
/// let budget = MemoryBudget::bytes(64 * 1024);
/// assert_eq!(budget.per_worker_bytes(), 64 * 1024);
/// assert!(!budget.is_unlimited());
/// assert!(MemoryBudget::unlimited().is_unlimited());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    per_worker: u64,
}

impl MemoryBudget {
    /// A budget of `bytes` per worker.
    pub const fn bytes(bytes: u64) -> Self {
        MemoryBudget { per_worker: bytes }
    }

    /// A budget of `mib` mebibytes per worker.
    pub const fn mib(mib: u64) -> Self {
        MemoryBudget { per_worker: mib * 1024 * 1024 }
    }

    /// No limit: workers never spill.
    pub const fn unlimited() -> Self {
        MemoryBudget { per_worker: u64::MAX }
    }

    /// The per-worker limit in bytes.
    pub const fn per_worker_bytes(&self) -> u64 {
        self.per_worker
    }

    /// Returns `true` if the budget never forces spills.
    pub const fn is_unlimited(&self) -> bool {
        self.per_worker == u64::MAX
    }

    /// Returns `true` if a buffer of `bytes` exceeds the budget.
    pub const fn exceeded_by(&self, bytes: u64) -> bool {
        bytes > self.per_worker
    }
}

impl Default for MemoryBudget {
    /// Defaults to unlimited (spill only when asked to).
    fn default() -> Self {
        MemoryBudget::unlimited()
    }
}

/// Live counters shared by all workers of a pipeline.
#[derive(Debug, Default)]
pub(crate) struct MetricsInner {
    pub records_processed: AtomicU64,
    pub records_shuffled: AtomicU64,
    pub bytes_spilled: AtomicU64,
    pub spill_files: AtomicU64,
    pub stages_fused: AtomicU64,
    pub peak_worker_bytes: AtomicU64,
    pub external_merges: AtomicU64,
    pub bytes_broadcast: AtomicU64,
    pub combiner_flushes: AtomicU64,
}

impl MetricsInner {
    /// Records one spill file of `bytes` bytes.
    pub fn record_spill(&self, bytes: u64) {
        self.bytes_spilled.fetch_add(bytes, Ordering::Relaxed);
        self.spill_files.fetch_add(1, Ordering::Relaxed);
        submod_obs::counter!("dataflow.spill.bytes_written").add(bytes);
        submod_obs::counter!("dataflow.spill.files").incr();
        submod_obs::histogram!("dataflow.spill.file_bytes").record(bytes);
    }

    /// Records the execution of one fused operator stage of `ops`
    /// chained transforms.
    pub fn record_fused_stage(&self, ops: u64) {
        self.stages_fused.fetch_add(1, Ordering::Relaxed);
        submod_obs::counter!("dataflow.stages_fused").incr();
        submod_obs::histogram!("dataflow.fused_stage_ops").record(ops);
    }

    pub fn record_broadcast(&self, bytes: u64) {
        self.bytes_broadcast.fetch_add(bytes, Ordering::Relaxed);
        submod_obs::counter!("dataflow.broadcast.bytes").add(bytes);
    }

    pub fn observe_worker_bytes(&self, bytes: u64) {
        self.peak_worker_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn record_processed(&self, records: u64) {
        self.records_processed.fetch_add(records, Ordering::Relaxed);
        submod_obs::counter!("dataflow.records_processed").add(records);
    }

    pub fn record_shuffled(&self, records: u64) {
        self.records_shuffled.fetch_add(records, Ordering::Relaxed);
        submod_obs::counter!("dataflow.records_shuffled").add(records);
    }

    pub fn record_external_merge(&self) {
        self.external_merges.fetch_add(1, Ordering::Relaxed);
        submod_obs::counter!("dataflow.external_merges").incr();
    }

    pub fn record_combiner_flush(&self) {
        self.combiner_flushes.fetch_add(1, Ordering::Relaxed);
        submod_obs::counter!("dataflow.combiner_flushes").incr();
    }

    pub fn snapshot(&self) -> PipelineMetrics {
        // `observe_worker_bytes` runs per record, so the registry mirror
        // happens here, at read granularity, instead of on the hot path.
        submod_obs::gauge!("dataflow.worker_bytes_peak")
            .fetch_max(self.peak_worker_bytes.load(Ordering::Relaxed));
        PipelineMetrics {
            records_processed: self.records_processed.load(Ordering::Relaxed),
            records_shuffled: self.records_shuffled.load(Ordering::Relaxed),
            bytes_spilled: self.bytes_spilled.load(Ordering::Relaxed),
            spill_files: self.spill_files.load(Ordering::Relaxed),
            stages_fused: self.stages_fused.load(Ordering::Relaxed),
            peak_worker_bytes: self.peak_worker_bytes.load(Ordering::Relaxed),
            external_merges: self.external_merges.load(Ordering::Relaxed),
            bytes_broadcast: self.bytes_broadcast.load(Ordering::Relaxed),
            combiner_flushes: self.combiner_flushes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a pipeline's resource counters.
///
/// Obtained from [`crate::Pipeline::metrics`]. The "larger-than-memory"
/// integration tests assert `peak_worker_bytes` stays within the configured
/// budget while `bytes_spilled > 0` proves the spill path actually ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Records consumed by map-like transforms.
    pub records_processed: u64,
    /// Records moved through a shuffle (group / co-group).
    pub records_shuffled: u64,
    /// Total bytes written to spill files.
    pub bytes_spilled: u64,
    /// Number of spill files created.
    pub spill_files: u64,
    /// Number of fused operator stages executed (see
    /// [`crate::PCollection::map`] — chained transforms run as one pass).
    pub stages_fused: u64,
    /// Largest in-flight buffer any worker held, in bytes.
    pub peak_worker_bytes: u64,
    /// Number of groupings that needed an external sort-merge.
    pub external_merges: u64,
    /// Bytes replicated to workers as broadcast side-inputs.
    pub bytes_broadcast: u64,
    /// Number of map-side combiner tables flushed early by the budget
    /// (see [`crate::PCollection::aggregate_per_key`]).
    pub combiner_flushes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_constructors() {
        assert_eq!(MemoryBudget::mib(2).per_worker_bytes(), 2 * 1024 * 1024);
        assert!(MemoryBudget::unlimited().is_unlimited());
        assert_eq!(MemoryBudget::default(), MemoryBudget::unlimited());
    }

    #[test]
    fn exceeded_by_compares_strictly() {
        let b = MemoryBudget::bytes(100);
        assert!(!b.exceeded_by(100));
        assert!(b.exceeded_by(101));
        assert!(!MemoryBudget::unlimited().exceeded_by(u64::MAX - 1));
    }

    #[test]
    fn metrics_accumulate() {
        let inner = MetricsInner::default();
        inner.record_spill(100);
        inner.record_spill(50);
        inner.observe_worker_bytes(10);
        inner.observe_worker_bytes(500);
        inner.observe_worker_bytes(20);
        inner.record_fused_stage(3);
        let snap = inner.snapshot();
        assert_eq!(snap.bytes_spilled, 150);
        assert_eq!(snap.spill_files, 2);
        assert_eq!(snap.peak_worker_bytes, 500);
        assert_eq!(snap.stages_fused, 1);
    }
}
