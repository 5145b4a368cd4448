//! The multi-round distributed greedy algorithm (paper §4.4),
//! engine-resident.
//!
//! Each round keys the surviving candidate pool across `m` machines with
//! a deterministic hash ([`crate::engine::MachineKeying`]); every machine
//! then runs the centralized priority-queue greedy over its partition
//! (cross-partition edges are ignored — the information loss the
//! multi-round structure exists to repair), each pop's neighbours
//! receiving Algorithm 2's priority decrease; the winners are accounted
//! step-major, one pop per machine per step. The union of
//! the machine selections is the next round's pool, so the pool shrinks
//! from `n` toward `k` along the [`DeltaSchedule`], and a machine holds
//! one round-1 partition — `n/m` points in expectation (the hash keying
//! balances binomially, not exactly) — the §2 systems contrast with
//! GreeDi's `m·k`-point merge.
//!
//! Both drivers run this one round loop over a shared backend
//! (`MachineGreedyBackend`); the crate docs give what each driver holds.
//!
//! With [`DistGreedyConfig::adaptive`] the partition count drops as the
//! pool shrinks, so machines stay full and late rounds approach the
//! centralized algorithm — the §6.4 worst-case repair.
//!
//! GreeDi runs this same loop; only the round plan (`round_plan`) differs.
//!
//! [`DeltaSchedule`]: crate::DeltaSchedule

use crate::engine::{
    machine_select, DataflowGreedyBackend, InMemoryGreedyBackend, MachineGreedyBackend,
    MachineKeying,
};
use crate::journal::RunJournal;
use crate::{DeltaSchedule, DistError, DistGreedyConfig, Driver, PartitionStyle};
use std::sync::Arc;
use submod_core::{
    validate_instance, NodeId, NodeSet, PairwiseObjective, Selection, SimilarityGraph,
};
use submod_dataflow::Pipeline;
use submod_journal::Record;

/// Per-round execution statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Candidate-pool size entering the round.
    pub input_size: usize,
    /// The round's Δ pool target from the schedule.
    pub target: usize,
    /// Partitions actually used this round.
    pub partitions: usize,
    /// Candidate-pool size leaving the round.
    pub output_size: usize,
}

/// The result of a multi-round distributed greedy run.
#[derive(Clone, Debug)]
pub struct DistGreedyReport {
    /// The final `k`-point selection, scored on the *full* graph.
    pub selection: Selection,
    /// Per-round statistics, one entry per configured round.
    pub rounds: Vec<RoundStats>,
    /// The driver-side memory accounting of the run.
    pub stats: GreedyStats,
}

/// Driver-side memory accounting for one multi-round greedy run — the §5
/// larger-than-memory claim, greedy edition.
///
/// The *driver* is the process orchestrating the rounds. What
/// distinguishes the drivers is `peak_round_bytes`, the largest per-round
/// materialization: the in-memory driver keys the whole pool into
/// per-machine priority queues (`O(pool)` per round), while the
/// engine-resident dataflow driver only ever collects the per-step winner
/// rows (`O(machines)` per step, `O(candidates)` per round — `candidates`
/// being the round's selected points). Persistent driver state is the
/// round's winner set and order: `O(round output)`.
///
/// The final trim of an oversized last pool is not a round and is not
/// charged here: on both drivers it runs on the driver after the rounds,
/// holding a dense node index (4 B per graph node) plus the pool and its
/// queue (24 B per pool node) while it runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Steps executed across all rounds, step `t` of a round being the
    /// `t`-th pop of every machine that had one.
    pub steps: usize,
    /// Peak bytes of per-round driver-side materializations (keyed pool
    /// and queues for the in-memory driver; collected winner rows alone
    /// for the dataflow driver).
    pub peak_round_bytes: u64,
    /// Largest single-step winner collection (bounded by the machine
    /// count).
    pub peak_step_winners: usize,
    /// Winner rows collected across the whole run.
    pub winners_collected: usize,
    /// Peak bytes of persistent driver state: the round's winner bitset,
    /// the ordered winner list, and the round statistics.
    pub peak_state_bytes: u64,
    /// Bytes replicated to workers as broadcast side-inputs (previous
    /// winners and survivor bitsets; 0 for the in-memory driver).
    pub bytes_broadcast: u64,
}

impl GreedyStats {
    fn observe_round(
        &mut self,
        round_bytes: u64,
        steps: usize,
        peak_step_winners: usize,
        winners: usize,
        state_bytes: u64,
    ) {
        self.rounds += 1;
        self.steps += steps;
        self.peak_round_bytes = self.peak_round_bytes.max(round_bytes);
        self.peak_step_winners = self.peak_step_winners.max(peak_step_winners);
        self.winners_collected += winners;
        self.peak_state_bytes = self.peak_state_bytes.max(state_bytes);
        // Mirror into the metrics registry — the workspace-wide source of
        // truth `experiments ltm` reads; the struct keeps its exact
        // per-run semantics for the driver-contrast tests.
        submod_obs::counter!("greedy.rounds").incr();
        submod_obs::counter!("greedy.steps").add(steps as u64);
        submod_obs::counter!("greedy.winners_collected").add(winners as u64);
        submod_obs::gauge!("greedy.peak_round_bytes").fetch_max(round_bytes);
        submod_obs::gauge!("greedy.peak_step_winners").fetch_max(peak_step_winners as u64);
        submod_obs::gauge!("greedy.peak_state_bytes").fetch_max(state_bytes);
    }
}

fn validate(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
) -> Result<(), DistError> {
    if let DeltaSchedule::Linear { gamma } = config.schedule {
        if !gamma.is_finite() {
            return Err(DistError::config(format!("Δ-schedule γ must be finite, got {gamma}")));
        }
    }
    validate_instance(graph, objective, k)?;
    for &v in ground {
        if v.index() >= graph.num_nodes() {
            return Err(submod_core::CoreError::NodeOutOfBounds {
                node: v.raw(),
                num_nodes: graph.num_nodes(),
            }
            .into());
        }
    }
    Ok(())
}

/// Round `round`'s target, partition count, journaled seed and keying, for
/// a pool of `pool_len` of the run's `n0` distinct points on `n` nodes. A
/// Δ-schedule round hashes the pool over `m` partitions (fewer when
/// adaptive; round 1 forced when adversarial); GreeDi's one round keeps
/// `k` points on each of its `m` machines (target `m·k`), and the final
/// trim of that union is its merge.
fn round_plan(
    config: &DistGreedyConfig,
    n: usize,
    n0: usize,
    k: usize,
    round: usize,
    pool_len: usize,
) -> (usize, usize, u64, MachineKeying) {
    let (m, seed) = (config.machines, config.seed);
    if let Some(style) = config.greedi {
        let keying = match style {
            PartitionStyle::Arbitrary => {
                MachineKeying::Contiguous { chunk: (n as u64).div_ceil(m as u64).max(1) }
            }
            PartitionStyle::Random => {
                MachineKeying::Hash { seed: seed ^ 0x0006_EED1, machines: m as u64 }
            }
        };
        return (k.saturating_mul(m), m, seed, keying);
    }
    let target = config.schedule.target(n0, k, round, config.rounds);
    let partitions = match pool_len {
        0 => 1,
        _ if config.adaptive => pool_len.div_ceil(n0.div_ceil(m).max(1)).clamp(1, m),
        _ => m.min(pool_len),
    };
    let (seed, machines) = (seed ^ (round as u64) << 32, partitions as u64);
    let keying = match (&config.adversarial_first_round, round) {
        (Some(solution), 1) => {
            let forced = Arc::new(NodeSet::from_members(n, solution.iter().copied()));
            MachineKeying::HashForced { seed, machines, forced }
        }
        _ => MachineKeying::Hash { seed, machines },
    };
    (target, partitions, seed, keying)
}

/// Tops `chosen` up to `k` points with the best not-yet-chosen
/// candidates by utility (descending, id tie-break) — the shared safety
/// net for degenerate pools, used by both the round driver and the
/// pipeline completion.
pub(crate) fn fill_by_utility(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    chosen: &mut Vec<NodeId>,
    candidates: &[NodeId],
    k: usize,
) {
    if chosen.len() >= k {
        return;
    }
    let members = NodeSet::from_members(graph.num_nodes(), chosen.iter().copied());
    let mut spare: Vec<NodeId> =
        candidates.iter().copied().filter(|&v| !members.contains(v)).collect();
    spare.sort_by(|&a, &b| objective.utility(b).total_cmp(&objective.utility(a)).then(a.cmp(&b)));
    // A ground set may repeat an id; its copies are adjacent now.
    spare.dedup();
    chosen.extend(spare.into_iter().take(k - chosen.len()));
}

/// Closes a run: trims an oversized pool with one greedy pass (GreeDi's
/// merge), keeps a pool of exactly `k` in its step-major order, tops up an
/// undersized one by utility, and scores the result on the full graph.
/// Runs on the driver over the final pool (`O(k)` after a Δ-schedule,
/// GreeDi's `m·k`-point union) — identical input on both drivers, hence
/// identical output.
fn finalize(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    mut pool: Vec<NodeId>,
    k: usize,
) -> Result<Selection, DistError> {
    if pool.len() > k {
        pool = machine_select(graph, objective, &mut pool, k);
    }
    // Degenerate partitions may have under-filled the budget.
    fill_by_utility(graph, objective, &mut pool, ground, k);
    let value = objective.evaluate(graph, &pool);
    Ok(Selection::new(pool, Vec::new(), value))
}

/// The shared round driver. The backend runs each round's phase in one
/// call; everything around it — the round plan (targets, partition
/// counts, keying), winner accounting, and the final trim — is common
/// code, which is what guarantees in-memory/dataflow equality.
///
/// With a journal, every completed round is committed (append + fsync)
/// before the next begins, and rounds the journal already holds are
/// replayed instead of executed: the pool, cumulative stats, and
/// per-round bookkeeping are restored from the records, the backend's
/// pool is rebuilt at the replay→live transition, and the remaining
/// rounds run exactly as an uninterrupted run would.
fn run_multiround(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
    backend: &mut dyn MachineGreedyBackend,
    mut journal: Option<&mut RunJournal>,
) -> Result<DistGreedyReport, DistError> {
    let _span = submod_obs::span("greedy.run");
    let n = graph.num_nodes();
    // The distinct ground ids: a ground set with duplicates holds fewer
    // points than its length.
    let n0 = backend.pool_len();
    if k > n0 {
        return Err(submod_core::CoreError::BudgetTooLarge { budget: k, available: n0 }.into());
    }

    let mut stats = GreedyStats::default();
    let mut pool_len = n0;
    let mut rounds = Vec::with_capacity(config.rounds);
    let mut final_pool: Vec<NodeId> = Vec::new();
    // While rounds replay from the journal the backend's pool is stale;
    // `replayed_pool` carries the journal's pool until the first live
    // round restores it into the backend. Broadcast bytes accumulated
    // before the crash live only in the journal, so the backend's delta
    // is offset by the last replayed snapshot.
    let mut replayed_pool: Option<Vec<u64>> = None;
    let mut broadcast_base = 0u64;

    for round in 1..=config.rounds {
        if let Some(j) = journal.as_deref_mut() {
            if let Some(Record::GreedyRound {
                input_size,
                target,
                partitions,
                stats: snapshot,
                selected,
                ..
            }) = j.take_greedy_round(round)
            {
                stats = crate::journal::restore_greedy(&snapshot);
                broadcast_base = snapshot.bytes_broadcast;
                rounds.push(RoundStats {
                    round,
                    input_size: input_size as usize,
                    target: target as usize,
                    partitions: partitions as usize,
                    output_size: selected.len(),
                });
                pool_len = selected.len();
                final_pool = selected.iter().map(|&v| NodeId::new(v)).collect();
                replayed_pool = Some(selected);
                continue;
            }
        }
        if let Some(pool) = replayed_pool.take() {
            backend.restore_pool(&pool)?;
        }
        let (target, partitions, seed, keying) = round_plan(config, n, n0, k, round, pool_len);
        let quota = target.div_ceil(partitions);
        let round_span = submod_obs::span("greedy.round");
        let outcome = backend.phase(keying, partitions, n, quota)?;
        drop(round_span);
        let state_bytes = (size_of_val(outcome.members.words())
            + outcome.selected.len() * size_of::<u64>()
            + (rounds.len() + 1) * size_of::<RoundStats>()) as u64;
        stats.observe_round(
            outcome.driver_bytes,
            outcome.steps,
            outcome.peak_step_winners,
            outcome.selected.len(),
            state_bytes,
        );
        rounds.push(RoundStats {
            round,
            input_size: pool_len,
            target,
            partitions,
            output_size: outcome.selected.len(),
        });
        if let Some(j) = journal.as_deref_mut() {
            j.append_sync(&Record::GreedyRound {
                round: round as u64,
                input_size: pool_len as u64,
                target: target as u64,
                partitions: partitions as u64,
                seed,
                stats: crate::journal::snapshot_greedy(
                    &stats,
                    broadcast_base + backend.bytes_broadcast(),
                ),
                selected: outcome.selected.iter().map(|v| v.raw()).collect(),
            })?;
            // Only journaled runs host the injected crash: the abort is
            // specified to land right after a round's fsync, the state a
            // resume has to recover from.
            submod_obs::faults::maybe_crash_after_round(round as u64);
        }
        pool_len = outcome.selected.len();
        final_pool = outcome.selected;
    }
    stats.bytes_broadcast = broadcast_base + backend.bytes_broadcast();
    submod_obs::gauge!("greedy.bytes_broadcast").fetch_max(stats.bytes_broadcast);

    let selection = finalize(graph, objective, ground, final_pool, k)?;
    Ok(DistGreedyReport { selection, rounds, stats })
}

/// Runs the multi-round distributed greedy algorithm over `ground`.
///
/// The returned selection always has exactly `k` distinct points; its
/// objective value is re-evaluated on the full graph (partition-local
/// accounting discards cross-partition edges and would overcount).
///
/// # Errors
///
/// Returns an error if the objective does not match the graph, `k`
/// exceeds the number of distinct ground ids, a ground id is out of
/// bounds, or a [`DeltaSchedule::Linear`] γ is not finite.
pub fn distributed_greedy(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
) -> Result<DistGreedyReport, DistError> {
    run(Driver::InMemory, graph, objective, ground, k, config, None)
}

/// [`distributed_greedy`] on the dataflow engine: the scored pool lives
/// in a [`submod_dataflow::PCollection`] and partition assignment is the
/// same deterministic keyed transform. A round whose largest partition
/// fits `pipeline`'s per-worker budget is grouped by machine once and
/// every machine's priority-queue greedy runs inside its worker; a round
/// that does not fit falls back to one engine scan per τ-certified batch
/// of winners ([`DistGreedyConfig::winner_batch`]). Either way the driver
/// only collects winner rows and threshold candidates, which the report's
/// [`GreedyStats::peak_round_bytes`] meters.
///
/// The selection and rounds are **identical** to [`distributed_greedy`]'s
/// by construction: both drivers share the round loop, the keying, the
/// priority arithmetic, and the tie order.
///
/// # Errors
///
/// Same conditions as [`distributed_greedy`], plus spill I/O failures.
pub fn distributed_greedy_dataflow(
    pipeline: &Pipeline,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
) -> Result<DistGreedyReport, DistError> {
    run(Driver::Dataflow(pipeline), graph, objective, ground, k, config, None)
}

/// The one greedy run, of the multi-round algorithm and of GreeDi alike:
/// checks the instance, builds the driver's backend, and runs the shared
/// round loop, journaled when a journal is given.
pub(crate) fn run(
    driver: Driver<'_>,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
    journal: Option<&mut RunJournal>,
) -> Result<DistGreedyReport, DistError> {
    validate(graph, objective, ground, k, config)?;
    match driver {
        Driver::InMemory => {
            let mut backend = InMemoryGreedyBackend::new(graph, objective, ground);
            run_multiround(graph, objective, ground, k, config, &mut backend, journal)
        }
        Driver::Dataflow(pipeline) => {
            let batch = config.winner_batch;
            let mut backend = DataflowGreedyBackend::new(pipeline, graph, objective, ground, batch);
            run_multiround(graph, objective, ground, k, config, &mut backend, journal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use submod_core::{greedy_select, GraphBuilder};

    fn ring_instance(n: usize) -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u64 {
            b.add_undirected(v, (v + 1) % n as u64, 0.6).unwrap();
        }
        let graph = b.build();
        let utilities: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 * 0.5 / n as f32).collect();
        let objective = PairwiseObjective::from_alpha(0.8, utilities).unwrap();
        (graph, objective)
    }

    fn ground(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn single_partition_single_round_equals_centralized() {
        let (graph, objective) = ring_instance(40);
        let config = DistGreedyConfig::new(1, 1).unwrap().seed(9);
        let report = distributed_greedy(&graph, &objective, &ground(40), 10, &config).unwrap();
        let central = greedy_select(&graph, &objective, 10).unwrap();
        assert_eq!(report.selection.selected(), central.selected());
        assert!((report.selection.objective_value() - central.objective_value()).abs() < 1e-9);
    }

    #[test]
    fn returns_exactly_k_unique_points() {
        let (graph, objective) = ring_instance(60);
        for (machines, rounds) in [(3usize, 1usize), (4, 3), (8, 8), (60, 2)] {
            let config = DistGreedyConfig::new(machines, rounds).unwrap().seed(1);
            let report = distributed_greedy(&graph, &objective, &ground(60), 12, &config).unwrap();
            assert_eq!(report.selection.len(), 12, "{machines}x{rounds}");
            let mut ids: Vec<u64> = report.selection.selected().iter().map(|v| v.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 12, "{machines}x{rounds} duplicates");
            assert_eq!(report.rounds.len(), rounds);
        }
    }

    #[test]
    fn round_stats_are_coherent() {
        let (graph, objective) = ring_instance(80);
        let config = DistGreedyConfig::new(4, 4).unwrap().seed(3);
        let report = distributed_greedy(&graph, &objective, &ground(80), 8, &config).unwrap();
        for (i, stats) in report.rounds.iter().enumerate() {
            assert_eq!(stats.round, i + 1);
            assert!(stats.partitions >= 1 && stats.partitions <= 4);
            assert!(stats.target >= 8);
            assert!(stats.output_size <= stats.input_size);
        }
        assert_eq!(report.rounds.last().unwrap().target, 8);
    }

    #[test]
    fn adaptive_uses_fewer_partitions_late() {
        let (graph, objective) = ring_instance(100);
        let config = DistGreedyConfig::new(10, 6).unwrap().adaptive(true).seed(2);
        let report = distributed_greedy(&graph, &objective, &ground(100), 10, &config).unwrap();
        let first = report.rounds.first().unwrap().partitions;
        let last = report.rounds.last().unwrap().partitions;
        assert!(last < first, "adaptive must shrink partitions ({first} -> {last})");
        // A pool that fits one machine uses exactly one partition.
        let config = DistGreedyConfig::new(10, 1).unwrap().adaptive(true);
        let partitions = |pool_len| super::round_plan(&config, 100, 100, 1, 1, pool_len).1;
        assert_eq!(partitions(10), 1);
        assert_eq!(partitions(95), 10);
        assert_eq!(partitions(35), 4);
    }

    #[test]
    fn adversarial_first_round_concentrates_then_recovers() {
        let (graph, objective) = ring_instance(60);
        let central = greedy_select(&graph, &objective, 6).unwrap();
        let config = DistGreedyConfig::new(6, 6)
            .unwrap()
            .seed(4)
            .adversarial_first_round(central.selected().to_vec());
        let report = distributed_greedy(&graph, &objective, &ground(60), 6, &config).unwrap();
        assert_eq!(report.selection.len(), 6);
        assert!(
            report.selection.objective_value() > central.objective_value() * 0.8,
            "multi-round must recover most of the adversarial loss"
        );
    }

    #[test]
    fn seed_determinism() {
        let (graph, objective) = ring_instance(50);
        let config = DistGreedyConfig::new(5, 3).unwrap().seed(11);
        let a = distributed_greedy(&graph, &objective, &ground(50), 10, &config).unwrap();
        let b = distributed_greedy(&graph, &objective, &ground(50), 10, &config).unwrap();
        assert_eq!(a.selection.selected(), b.selection.selected());
    }

    #[test]
    fn validation_errors() {
        let (graph, objective) = ring_instance(10);
        let config = DistGreedyConfig::new(2, 1).unwrap();
        assert!(distributed_greedy(&graph, &objective, &ground(10), 11, &config).is_err());
        let bad = vec![NodeId::new(99)];
        assert!(distributed_greedy(&graph, &objective, &bad, 1, &config).is_err());
    }

    /// Both drivers count a ground set's distinct ids, not its length, and
    /// reject a γ that no clamp can bring into range.
    #[test]
    fn duplicate_ground_ids_and_non_finite_gamma_are_rejected() {
        let (graph, objective) = ring_instance(6);
        let pipeline = Pipeline::new(2).unwrap();
        let run = |ground: &[NodeId], k: usize, config: &DistGreedyConfig| {
            let mem = distributed_greedy(&graph, &objective, ground, k, config);
            let df = distributed_greedy_dataflow(&pipeline, &graph, &objective, ground, k, config);
            [mem.map(|r| r.selection), df.map(|r| r.selection)]
        };
        let config = DistGreedyConfig::new(2, 2).unwrap();
        for result in run(&[NodeId::new(0); 3], 3, &config) {
            assert!(
                matches!(
                    result,
                    Err(DistError::Core(submod_core::CoreError::BudgetTooLarge {
                        budget: 3,
                        available: 1
                    }))
                ),
                "{result:?}"
            );
        }
        let doubled: Vec<NodeId> = (0..12).map(|i| NodeId::new(i / 2)).collect();
        for machines in 1..=6 {
            let config = DistGreedyConfig::new(machines, 3).unwrap().seed(machines as u64);
            for selection in run(&doubled, 6, &config) {
                let mut ids = selection.unwrap().selected().to_vec();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), 6, "{machines} machines: duplicate or missing points");
            }
        }
        for gamma in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = config.clone().schedule(DeltaSchedule::Linear { gamma });
            for result in run(&ground(6), 3, &config) {
                assert!(matches!(result, Err(DistError::InvalidConfig { .. })), "γ = {gamma}");
            }
        }
    }

    #[test]
    fn dataflow_variant_is_bitwise_identical() {
        let (graph, objective) = ring_instance(60);
        let config = DistGreedyConfig::new(4, 3).unwrap().seed(5);
        let mem = distributed_greedy(&graph, &objective, &ground(60), 12, &config).unwrap();
        let pipeline = Pipeline::new(3).unwrap();
        let df =
            distributed_greedy_dataflow(&pipeline, &graph, &objective, &ground(60), 12, &config)
                .unwrap();
        assert_eq!(df.selection.selected(), mem.selection.selected());
        assert_eq!(
            df.selection.objective_value().to_bits(),
            mem.selection.objective_value().to_bits()
        );
        assert_eq!(df.rounds, mem.rounds);
    }

    #[test]
    fn stats_contrast_the_two_drivers() {
        let (graph, objective) = ring_instance(80);
        let config = DistGreedyConfig::new(4, 3).unwrap().seed(7);
        let mem = distributed_greedy(&graph, &objective, &ground(80), 10, &config).unwrap();
        let pipeline = Pipeline::new(3).unwrap();
        let df =
            distributed_greedy_dataflow(&pipeline, &graph, &objective, &ground(80), 10, &config)
                .unwrap();
        let (mem_stats, df_stats) = (mem.stats, df.stats);
        assert_eq!(df.selection.selected(), mem.selection.selected());
        assert_eq!(mem_stats.rounds, df_stats.rounds);
        assert_eq!(mem_stats.steps, df_stats.steps);
        assert_eq!(mem_stats.winners_collected, df_stats.winners_collected);
        // The in-memory driver pays for the keyed pool; the dataflow
        // driver only for winner rows.
        assert!(mem_stats.peak_round_bytes > df_stats.peak_round_bytes);
        let max_round_output =
            df.rounds.iter().map(|r| r.output_size).max().expect("at least one round");
        assert_eq!(
            df_stats.peak_round_bytes,
            (max_round_output * size_of::<(u64, u64, f64)>()) as u64,
            "dataflow round bytes must be winner rows only"
        );
        assert!(df_stats.bytes_broadcast > 0, "winners and survivors must broadcast");
        assert_eq!(mem_stats.bytes_broadcast, 0);
    }

    /// `winner_batch(0)` is width 1: on a pipeline too small for any
    /// partition, both run the batched fallback to the same selection and
    /// the same `GreedyStats`.
    #[test]
    fn a_zero_winner_batch_is_a_batch_of_one() {
        let _lock = crate::engine::tests::batched_lock();
        let (graph, objective) = ring_instance(60);
        let run = |batch| {
            let pipeline = Pipeline::builder()
                .workers(3)
                .memory_budget(submod_dataflow::MemoryBudget::bytes(47))
                .build()
                .unwrap();
            let config = DistGreedyConfig::new(4, 3).unwrap().seed(5).winner_batch(batch);
            assert_eq!(config.winner_batch, 1);
            let batched = submod_obs::counter("greedy.phases_batched").value();
            let report = distributed_greedy_dataflow(
                &pipeline,
                &graph,
                &objective,
                &ground(60),
                12,
                &config,
            )
            .unwrap();
            assert!(submod_obs::counter("greedy.phases_batched").value() > batched);
            (report.selection.selected().to_vec(), report.stats)
        };
        assert_eq!(run(0), run(1));
    }
}
