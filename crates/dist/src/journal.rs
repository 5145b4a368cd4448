//! Journaled checkpoint/resume for the selection stack.
//!
//! Every journaled entry point runs its algorithm's one run function with
//! a [`submod_journal`] write-ahead log: the run writes a
//! [`Record::RunStart`] header first, then one record per completed unit
//! of work (a greedy round, a bounding cycle), fsyncing at each boundary,
//! and a [`Record::RunComplete`] at the end.
//!
//! On restart with the same journal path, the valid prefix is replayed —
//! a torn tail from a crash mid-append is truncated first — and the run
//! continues from the last complete boundary. Replayed rounds restore
//! the pool, the cumulative stats, and the per-round bookkeeping exactly,
//! so a resumed run selects a **bitwise-identical** subset (ids, order,
//! and objective-value bits) to one that never died. The run header
//! carries a configuration fingerprint; resuming against a journal
//! written by a different configuration is refused rather than spliced.
//!
//! The fingerprint covers everything that determines the subset (n, k,
//! seed, rounds, machines, schedule, ground-set hash, bounding mode) and
//! deliberately excludes the driver kind and the dataflow winner-batch
//! width: both drivers select identical subsets by construction, so a
//! run may crash under one driver and resume under the other. The crash
//! suite pins the run header's algorithm tags and fingerprints, so
//! journals written by earlier builds keep resuming. The two greedy entry points
//! still return `(report, stats)`, though the stats also ride on the
//! report, because the repo benchmark's adapter destructures the tuple.

use crate::config::BoundingMode;
use crate::{
    BoundingConfig, DeltaSchedule, DistError, DistGreedyConfig, DistGreedyReport, Driver,
    GreedyStats, PipelineConfig, PipelineOutcome,
};
use std::collections::VecDeque;
use std::path::Path;
use submod_core::{NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::Pipeline;
use submod_journal::{BoundingSnapshot, GreedySnapshot, Journal, Record};

/// Algorithm tags stored in [`Record::RunStart`]. Tag 2 belonged to a
/// journaled GreeDi and is not reused.
const ALGO_GREEDY: u64 = 1;
const ALGO_PIPELINE: u64 = 3;

/// An open run journal: the append handle plus the queue of records
/// replayed from a previous attempt, consumed front to back as the
/// algorithms re-reach their boundaries.
pub(crate) struct RunJournal {
    journal: Journal,
    pending: VecDeque<Record>,
}

impl RunJournal {
    /// Opens `path` for this run. A missing (or header-only) journal
    /// starts fresh by appending `start`; an existing journal is
    /// replayed, its torn tail truncated, and its own run header checked
    /// against `start` — a mismatch means the journal belongs to a
    /// different run configuration and is refused.
    pub(crate) fn open(path: &Path, start: &Record) -> Result<RunJournal, DistError> {
        if path.exists() {
            let (replayed, journal) = submod_journal::open_resume(path)?;
            let mut pending: VecDeque<Record> = replayed.records.into_iter().collect();
            match pending.front() {
                Some(Record::RunStart { .. }) => {
                    let first = pending.pop_front().expect("front was just matched");
                    if &first != start {
                        return Err(DistError::config(format!(
                            "journal {} was written by a different run configuration \
                             (recorded header {first:?}, this run {start:?})",
                            path.display()
                        )));
                    }
                    Ok(RunJournal { journal, pending })
                }
                Some(_) => Err(DistError::config(format!(
                    "journal {} does not begin with a run header",
                    path.display()
                ))),
                None => {
                    let mut fresh = RunJournal { journal, pending };
                    fresh.append_sync(start)?;
                    Ok(fresh)
                }
            }
        } else {
            let mut journal = Journal::create(path)?;
            journal.append(start)?;
            journal.sync()?;
            Ok(RunJournal { journal, pending: VecDeque::new() })
        }
    }

    /// Appends one record and forces it to disk — the boundary commit.
    pub(crate) fn append_sync(&mut self, record: &Record) -> Result<(), DistError> {
        self.journal.append(record)?;
        self.journal.sync()?;
        Ok(())
    }

    /// Pops the pending greedy-round record for `round`, if the replayed
    /// prefix reached that boundary.
    pub(crate) fn take_greedy_round(&mut self, round: usize) -> Option<Record> {
        match self.pending.front() {
            Some(Record::GreedyRound { round: r, .. }) if *r == round as u64 => {
                self.pending.pop_front()
            }
            _ => None,
        }
    }

    /// Pops the next pending bounding-cycle record, if any.
    pub(crate) fn take_bounding_cycle(&mut self) -> Option<Record> {
        match self.pending.front() {
            Some(Record::BoundingCycle { .. }) => self.pending.pop_front(),
            _ => None,
        }
    }

    /// Pops the pending bounding-done record, if any.
    pub(crate) fn take_bounding_done(&mut self) -> Option<Record> {
        match self.pending.front() {
            Some(Record::BoundingDone { .. }) => self.pending.pop_front(),
            _ => None,
        }
    }

    /// Closes the run: consumes a replayed [`Record::RunComplete`] if the
    /// previous attempt already finished, otherwise appends one.
    pub(crate) fn finish(&mut self) -> Result<(), DistError> {
        if matches!(self.pending.front(), Some(Record::RunComplete)) {
            self.pending.pop_front();
            return Ok(());
        }
        self.append_sync(&Record::RunComplete)
    }
}

/// The journal snapshot of cumulative [`GreedyStats`].
pub(crate) fn snapshot_greedy(stats: &GreedyStats, bytes_broadcast: u64) -> GreedySnapshot {
    GreedySnapshot {
        rounds: stats.rounds as u64,
        steps: stats.steps as u64,
        peak_round_bytes: stats.peak_round_bytes,
        peak_step_winners: stats.peak_step_winners as u64,
        winners_collected: stats.winners_collected as u64,
        peak_state_bytes: stats.peak_state_bytes,
        bytes_broadcast,
    }
}

/// Restores cumulative [`GreedyStats`] from a journal snapshot.
pub(crate) fn restore_greedy(snap: &GreedySnapshot) -> GreedyStats {
    GreedyStats {
        rounds: snap.rounds as usize,
        steps: snap.steps as usize,
        peak_round_bytes: snap.peak_round_bytes,
        peak_step_winners: snap.peak_step_winners as usize,
        winners_collected: snap.winners_collected as usize,
        peak_state_bytes: snap.peak_state_bytes,
        bytes_broadcast: snap.bytes_broadcast,
    }
}

/// The journal snapshot of cumulative [`crate::BoundingStats`].
pub(crate) fn snapshot_bounding(stats: &crate::BoundingStats) -> BoundingSnapshot {
    BoundingSnapshot {
        passes: stats.passes as u64,
        peak_pass_bytes: stats.peak_pass_bytes,
        peak_candidates: stats.peak_candidates as u64,
        peak_state_bytes: stats.peak_state_bytes,
    }
}

/// Restores cumulative [`crate::BoundingStats`] from a journal snapshot.
pub(crate) fn restore_bounding(snap: &BoundingSnapshot) -> crate::BoundingStats {
    crate::BoundingStats {
        passes: snap.passes as usize,
        peak_pass_bytes: snap.peak_pass_bytes,
        peak_candidates: snap.peak_candidates as usize,
        peak_state_bytes: snap.peak_state_bytes,
    }
}

/// Order-insensitive hash of the canonical (deduplicated) ground-set
/// ids: a commutative sum of per-id splitmix images. Equal sets hash
/// equal in any order without materializing a sorted copy — the hash is
/// recomputed on every journaled run, so it must stay cheap next to a
/// selection round, not just correct.
fn ground_hash(ground: &[NodeId]) -> u64 {
    fn splitmix(z: u64) -> u64 {
        submod_obs::format::splitmix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
    if ground.windows(2).all(|w| w[0].raw() < w[1].raw()) {
        // Sorted and duplicate-free (the common 0..n ground set): fold
        // directly, no allocation.
        return ground
            .iter()
            .fold(0u64, |acc, v| acc.wrapping_add(splitmix(v.raw())))
            .wrapping_add(ground.len() as u64);
    }
    let mut ids: Vec<u64> = ground.iter().map(|v| v.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    let len = ids.len() as u64;
    ids.into_iter().fold(0u64, |acc, id| acc.wrapping_add(splitmix(id))).wrapping_add(len)
}

fn put(bytes: &mut Vec<u8>, v: u64) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

/// Everything about a greedy configuration that determines the selected
/// subset. The winner-batch width is deliberately absent: resident and
/// batched dataflow phases at any width certify identical pops.
fn encode_greedy_config(bytes: &mut Vec<u8>, config: &DistGreedyConfig) {
    put(bytes, config.machines as u64);
    put(bytes, config.rounds as u64);
    put(bytes, u64::from(config.adaptive));
    put(bytes, config.seed);
    match config.schedule {
        DeltaSchedule::Linear { gamma } => {
            put(bytes, 1);
            put(bytes, gamma.to_bits());
        }
        DeltaSchedule::Geometric => {
            put(bytes, 2);
            put(bytes, 0);
        }
    }
    match &config.adversarial_first_round {
        Some(solution) => {
            put(bytes, solution.len() as u64 + 1);
            for v in solution {
                put(bytes, v.raw());
            }
        }
        None => put(bytes, 0),
    }
}

fn encode_bounding_config(bytes: &mut Vec<u8>, config: &BoundingConfig) {
    put(bytes, config.max_cycles as u64);
    match config.mode {
        BoundingMode::Exact => {
            put(bytes, 1);
        }
        BoundingMode::Approximate { p, strategy, seed } => {
            put(bytes, 2);
            put(bytes, p.to_bits());
            put(
                bytes,
                match strategy {
                    crate::SamplingStrategy::Uniform => 1,
                    crate::SamplingStrategy::Weighted => 2,
                },
            );
            put(bytes, seed);
        }
    }
}

fn run_start(
    algorithm: u64,
    fingerprint_body: &[u8],
    n: usize,
    k: usize,
    seed: u64,
    machines: usize,
    rounds: usize,
) -> Record {
    let mut bytes = Vec::with_capacity(fingerprint_body.len() + 40);
    for v in [algorithm, n as u64, k as u64, seed, machines as u64, rounds as u64] {
        put(&mut bytes, v);
    }
    bytes.extend_from_slice(fingerprint_body);
    Record::RunStart {
        fingerprint: submod_obs::format::fnv1a64(&bytes),
        algorithm,
        n: n as u64,
        k: k as u64,
        seed,
        machines: machines as u64,
        rounds: rounds as u64,
    }
}

fn greedy_start(
    graph: &SimilarityGraph,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
) -> Record {
    let mut body = Vec::new();
    encode_greedy_config(&mut body, config);
    put(&mut body, ground_hash(ground));
    run_start(ALGO_GREEDY, &body, graph.num_nodes(), k, config.seed, config.machines, config.rounds)
}

/// Opens the journal at `path` for the run `start` describes, runs `body`
/// against it, and closes the run.
fn journaled<T>(
    path: &Path,
    start: &Record,
    body: impl FnOnce(&mut RunJournal) -> Result<T, DistError>,
) -> Result<T, DistError> {
    let mut journal = RunJournal::open(path, start)?;
    let result = body(&mut journal)?;
    journal.finish()?;
    Ok(result)
}

/// [`crate::distributed_greedy`] with a write-ahead journal at
/// `journal_path`: each completed round is committed to the journal, and
/// a rerun against the same path resumes from the last complete round,
/// selecting a bitwise-identical subset.
///
/// The stats also ride on the report; the tuple stays until the repo
/// benchmark, which destructures it, is re-versioned.
///
/// # Errors
///
/// Same conditions as [`crate::distributed_greedy`], plus journal I/O
/// failures and a refused resume when the journal at `journal_path` was
/// written by a different run configuration.
pub fn distributed_greedy_journaled(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
    journal_path: &Path,
) -> Result<(DistGreedyReport, GreedyStats), DistError> {
    let report = journaled(journal_path, &greedy_start(graph, ground, k, config), |journal| {
        crate::multiround::run(Driver::InMemory, graph, objective, ground, k, config, Some(journal))
    })?;
    let stats = report.stats;
    Ok((report, stats))
}

/// [`distributed_greedy_journaled`] on the dataflow driver, with the same
/// `(report, stats)` tuple. The journal format and fingerprint are
/// driver-agnostic: a run may crash under one driver and resume under the
/// other.
///
/// # Errors
///
/// Same conditions as [`distributed_greedy_journaled`], plus spill I/O
/// failures.
pub fn distributed_greedy_dataflow_journaled(
    pipeline: &Pipeline,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
    journal_path: &Path,
) -> Result<(DistGreedyReport, GreedyStats), DistError> {
    let driver = Driver::Dataflow(pipeline);
    let report = journaled(journal_path, &greedy_start(graph, ground, k, config), |journal| {
        crate::multiround::run(driver, graph, objective, ground, k, config, Some(journal))
    })?;
    let stats = report.stats;
    Ok((report, stats))
}

fn pipeline_start(graph: &SimilarityGraph, k: usize, config: &PipelineConfig) -> Record {
    let mut body = Vec::new();
    match &config.bounding {
        Some(bounding) => {
            put(&mut body, 1);
            encode_bounding_config(&mut body, bounding);
        }
        None => put(&mut body, 0),
    }
    encode_greedy_config(&mut body, &config.greedy);
    run_start(
        ALGO_PIPELINE,
        &body,
        graph.num_nodes(),
        k,
        config.greedy.seed,
        config.greedy.machines,
        config.greedy.rounds,
    )
}

/// [`crate::select_subset`] with a write-ahead journal covering the whole
/// pipeline: the run header, every bounding cycle, the bounding outcome,
/// every greedy round, and the completion marker live in one file, so a
/// crash anywhere in the pipeline resumes from the last boundary and
/// produces a bitwise-identical selection.
///
/// # Errors
///
/// Same conditions as [`crate::select_subset`], plus journal I/O failures
/// and a refused resume on a configuration mismatch.
pub fn select_subset_journaled(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    config: &PipelineConfig,
    journal_path: &Path,
) -> Result<PipelineOutcome, DistError> {
    journaled(journal_path, &pipeline_start(graph, k, config), |journal| {
        crate::pipeline::run(graph, objective, k, config, Some(journal))
    })
}
