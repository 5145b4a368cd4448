//! The only file of the benchmark that names an item of the workspace.
//!
//! Every workload, probe and check reaches the crates under test through
//! the functions and re-exports below, so an API change in the workspace
//! (ROADMAP's `SelectionRun` collapse, say) is a change to this file and
//! to nothing else in the benchmark. Public items used:
//!
//! - prelude: `build_knn_graph`, `KnnBackend`, `Embeddings`,
//!   `NearestNeighbors`, `SimilarityGraph`, `NodeId`, `PairwiseObjective`,
//!   `greedy_select`, `select_subset`, `PipelineConfig`, `BoundingConfig`,
//!   `SamplingStrategy`, `DistGreedyConfig`, `bound_in_memory`,
//!   `bound_dataflow`, `distributed_greedy`, `distributed_greedy_dataflow`,
//!   `Pipeline`, `MemoryBudget`, `SelectionInstance`
//! - `submod_data::{ClusteredDataset, CoarseClassifier, PerturbedDataset,
//!   margin_utilities}`, `submod_knn::ExactKnn`
//! - `submod_dist::distributed_greedy_dataflow_journaled`
//! - `submod_kernels::{batch_top_k, backend}`
//! - `submod_journal::{Journal, Record, GreedySnapshot, replay}`
//! - `submod_exec::{set_num_threads, parallel_map}`
//! - `submod_obs::{span, set_mode, take_spans, snapshot, reset_metrics,
//!   chrome_trace_json, TraceMode, SpanEvent, SpanGuard, MetricsSnapshot}`

use std::error::Error;
use std::path::Path;
use submod_select::prelude::*;
use submod_select::{
    submod_data, submod_dist, submod_exec, submod_kernels, submod_knn, submod_obs,
};

pub use submod_select::prelude::{Embeddings, PairwiseObjective, SimilarityGraph};
pub use submod_select::submod_obs::{MetricsSnapshot, SpanEvent, SpanGuard};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// The objective's α on every workload (β = 1 − α).
const ALPHA: f64 = 0.9;
/// Neighbours per point in every k-NN graph (the paper's 10-NN).
pub const KNN_K: usize = 10;
/// Logical dataflow workers on every dataflow workload.
pub const DATAFLOW_WORKERS: usize = 8;

/// A selection reduced to what the checks compare: ids in pick order and
/// the value the driver reported for them.
#[derive(Clone, Debug, PartialEq)]
pub struct Picked {
    pub ids: Vec<u64>,
    pub value: f64,
}

fn picked(selection: &Selection) -> Picked {
    Picked {
        ids: selection.selected().iter().map(|v| v.raw()).collect(),
        value: selection.objective_value(),
    }
}

/// A bounding outcome reduced to what the cross-driver check compares.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounded {
    pub included: Vec<u64>,
    pub remaining: Vec<u64>,
    pub decided_frac: f64,
}

fn bounded(outcome: &BoundingOutcome, n: usize) -> Bounded {
    Bounded {
        included: outcome.included.iter().map(|v| v.raw()).collect(),
        remaining: outcome.remaining.iter().map(|v| v.raw()).collect(),
        decided_frac: outcome.decision_fraction(n),
    }
}

/// Seeds of the two randomised phases, both derived from `--seed`.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSeeds {
    pub bounding: u64,
    pub greedy: u64,
}

// --------------------------------------------------------------------------
// Inputs
// --------------------------------------------------------------------------

/// Gaussian-mixture embeddings with the margin utilities of a coarse
/// classifier fitted on a 10 % sample — `build_instance` without its
/// k-NN graph and without its on-disk cache.
pub fn embeddings_and_utilities(
    classes: usize,
    points_per_class: usize,
    dim: usize,
    seed: u64,
) -> Res<(Embeddings, Vec<f32>, Vec<u32>)> {
    let data = ClusteredDataset::generate(classes, points_per_class, dim, 0.25, seed)?;
    let classifier = CoarseClassifier::fit(&data, 0.10, 0.05, 0.5, seed ^ 0xA11CE)?;
    let utilities = submod_data::margin_utilities(&classifier, data.embeddings())?;
    Ok((data.embeddings().clone(), utilities, data.labels().to_vec()))
}

/// The symmetrised 10-NN cosine graph, built with the backend the
/// library picks for this size and never read from the disk cache.
pub fn knn_graph(embeddings: &Embeddings, seed: u64) -> Res<SimilarityGraph> {
    Ok(build_knn_graph(embeddings, KNN_K, &KnnBackend::auto(embeddings.len()), seed)?)
}

/// The Perturbed-ImageNet analogue: every base point expanded into
/// `factor` noisy copies, materialised as one graph with its utilities.
pub fn perturbed_instance(
    base_graph: &SimilarityGraph,
    base_embeddings: &Embeddings,
    base_utilities: Vec<f32>,
    base_labels: Vec<u32>,
    factor: u64,
    seed: u64,
) -> Res<(SimilarityGraph, Vec<f32>)> {
    let base = SelectionInstance {
        graph: base_graph.clone(),
        utilities: base_utilities,
        embeddings: base_embeddings.clone(),
        labels: base_labels,
    };
    Ok(PerturbedDataset::new(&base, factor, 0.05, seed)?.materialize(factor)?)
}

pub fn objective(utilities: Vec<f32>) -> Res<PairwiseObjective> {
    Ok(PairwiseObjective::from_alpha(ALPHA, utilities)?)
}

pub fn num_nodes(graph: &SimilarityGraph) -> usize {
    graph.num_nodes()
}

pub fn num_edges(graph: &SimilarityGraph) -> usize {
    graph.num_undirected_edges()
}

pub fn graph_bytes(graph: &SimilarityGraph) -> usize {
    graph.memory_bytes()
}

/// Neighbour ids of `v`, ascending.
pub fn neighbors(graph: &SimilarityGraph, v: usize) -> &[u32] {
    graph.neighbors(NodeId::from_index(v))
}

/// The sub-instance induced by the first `n` nodes (layer probes that
/// would take too long on the whole workload run on this).
pub fn prefix_instance(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    n: usize,
) -> Res<(SimilarityGraph, PairwiseObjective)> {
    let nodes: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    Ok((graph.induced_subgraph(&nodes), self::objective(objective.utilities()[..n].to_vec())?))
}

pub fn write_store(graph: &SimilarityGraph, path: &Path) -> Res<()> {
    Ok(graph.write_store(path)?)
}

/// Opens a store file as a validated read-only mapping.
pub fn open_store(path: &Path) -> Res<SimilarityGraph> {
    Ok(SimilarityGraph::open_store(path)?)
}

// --------------------------------------------------------------------------
// Selection
// --------------------------------------------------------------------------

fn everyone(graph: &SimilarityGraph) -> Vec<NodeId> {
    (0..graph.num_nodes()).map(NodeId::from_index).collect()
}

fn bounding_config(seed: u64) -> Res<BoundingConfig> {
    Ok(BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, seed)?)
}

fn greedy_config(machines: usize, rounds: usize, seed: u64) -> Res<DistGreedyConfig> {
    Ok(DistGreedyConfig::new(machines, rounds)?.adaptive(true).seed(seed))
}

pub fn evaluate(graph: &SimilarityGraph, objective: &PairwiseObjective, ids: &[u64]) -> f64 {
    let subset: Vec<NodeId> = ids.iter().map(|&v| NodeId::new(v)).collect();
    objective.evaluate(graph, &subset)
}

/// Centralised greedy (Algorithm 2): the quality reference.
pub fn central_greedy(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
) -> Res<Picked> {
    Ok(picked(&greedy_select(graph, objective, k)?))
}

/// The paper's full in-memory pipeline: approximate bounding (p = 0.3,
/// uniform), then adaptive multi-round greedy over the undecided points.
pub fn select_in_memory(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    rounds: usize,
    seeds: PhaseSeeds,
) -> Res<(Picked, Option<Bounded>)> {
    let config = PipelineConfig::with_bounding(
        bounding_config(seeds.bounding)?,
        greedy_config(machines, rounds, seeds.greedy)?,
    );
    let outcome = select_subset(graph, objective, k, &config)?;
    let bounding = outcome.bounding.as_ref().map(|b| bounded(b, graph.num_nodes()));
    Ok((picked(&outcome.selection), bounding))
}

/// Multi-round greedy over the whole ground set, in-memory driver.
pub fn greedy_in_memory(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    rounds: usize,
    seed: u64,
) -> Res<Picked> {
    let config = greedy_config(machines, rounds, seed)?;
    let report = distributed_greedy(graph, objective, &everyone(graph), k, &config)?;
    Ok(picked(&report.selection))
}

pub fn bound_in_memory_driver(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    seed: u64,
) -> Res<Bounded> {
    let outcome = bound_in_memory(graph, objective, k, &bounding_config(seed)?)?;
    Ok(bounded(&outcome, graph.num_nodes()))
}

/// A dataflow engine of [`DATAFLOW_WORKERS`] workers. `budget_bytes`
/// bounds each worker's buffers (spilling under `spill_dir`); `None`
/// is `Pipeline::new`, unlimited and never spilling.
pub struct Engine(Pipeline);

impl Engine {
    pub fn new(budget_bytes: Option<u64>, spill_dir: &Path) -> Res<Engine> {
        Ok(Engine(match budget_bytes {
            None => Pipeline::new(DATAFLOW_WORKERS)?,
            Some(bytes) => Pipeline::builder()
                .workers(DATAFLOW_WORKERS)
                .memory_budget(MemoryBudget::bytes(bytes))
                .spill_dir(spill_dir)
                .build()?,
        }))
    }

    /// Largest buffer any worker held, in bytes.
    pub fn worker_bytes_peak(&self) -> u64 {
        self.0.metrics().peak_worker_bytes
    }

    pub fn bound(
        &self,
        graph: &SimilarityGraph,
        objective: &PairwiseObjective,
        k: usize,
        seed: u64,
    ) -> Res<Bounded> {
        let outcome = bound_dataflow(&self.0, graph, objective, k, &bounding_config(seed)?)?;
        Ok(bounded(&outcome, graph.num_nodes()))
    }

    /// Multi-round greedy over the whole ground set with the greedy
    /// configuration exactly as `DistGreedyConfig::new(..).adaptive(true)`
    /// constructs it — whatever the library's default stepping is.
    pub fn greedy_default(
        &self,
        graph: &SimilarityGraph,
        objective: &PairwiseObjective,
        k: usize,
        machines: usize,
        rounds: usize,
        seed: u64,
    ) -> Res<Picked> {
        let config = greedy_config(machines, rounds, seed)?;
        let report =
            distributed_greedy_dataflow(&self.0, graph, objective, &everyone(graph), k, &config)?;
        Ok(picked(&report.selection))
    }

    /// The larger-than-memory deployment: 64 certified winners per engine
    /// pass and every round boundary committed to a write-ahead journal.
    #[allow(clippy::too_many_arguments)]
    pub fn greedy_journaled(
        &self,
        graph: &SimilarityGraph,
        objective: &PairwiseObjective,
        k: usize,
        machines: usize,
        rounds: usize,
        seed: u64,
        journal: &Path,
    ) -> Res<Picked> {
        let config = greedy_config(machines, rounds, seed)?.winner_batch(64);
        let (report, _stats) = submod_dist::distributed_greedy_dataflow_journaled(
            &self.0,
            graph,
            objective,
            &everyone(graph),
            k,
            &config,
            journal,
        )?;
        Ok(picked(&report.selection))
    }

    /// Layer probe: `map → filter → collect` over `(u64, f64)` rows.
    pub fn probe_fused(&self, rows: Vec<(u64, f64)>) -> Res<usize> {
        let out = self
            .0
            .from_vec(rows)
            .map(|(key, x)| (key, x * 0.5 + 1.0))?
            .filter(|&(key, _)| key % 4 != 0)?
            .collect()?;
        Ok(out.len())
    }

    /// Layer probe: `group_by_key` of `(u64, f64)` rows; returns the
    /// number of groups.
    pub fn probe_group_by_key(&self, rows: Vec<(u64, f64)>) -> Res<u64> {
        Ok(self.0.from_vec(rows).group_by_key()?.count()?)
    }

    /// Layer probe: distributed selection of the `k`-th largest value.
    pub fn probe_kth_largest(&self, values: Vec<f64>, k: u64) -> Res<f64> {
        Ok(self.0.from_vec(values).kth_largest(k)?)
    }
}

// --------------------------------------------------------------------------
// Layer probes outside the engine
// --------------------------------------------------------------------------

pub fn kernel_backend_name() -> &'static str {
    submod_kernels::backend().name()
}

/// One `batch_top_k` call: the top `k` rows by cosine for each query.
/// Returns the number of results so the call cannot be optimised away.
pub fn batch_top_k(queries: &[f32], rows: &Embeddings, n_rows: usize, k: usize) -> usize {
    let dim = rows.dim();
    let hits = submod_kernels::batch_top_k(
        queries,
        &rows.as_flat()[..n_rows * dim],
        &rows.norms()[..n_rows],
        dim,
        k,
        &[],
    );
    hits.iter().map(Vec::len).sum()
}

/// Exact top-`k` neighbour ids of the indexed points `queries`.
pub fn exact_neighbors(embeddings: &Embeddings, queries: &[usize], k: usize) -> Res<Vec<Vec<u32>>> {
    let index = submod_knn::ExactKnn::build(embeddings.clone())?;
    let rows: Vec<&[f32]> = queries.iter().map(|&q| embeddings.row(q)).collect();
    let excludes: Vec<u32> = queries.iter().map(|&q| q as u32).collect();
    let hits = index.search_batch_excluding(&rows, k, &excludes);
    Ok(hits.into_iter().map(|list| list.into_iter().map(|(id, _)| id).collect()).collect())
}

pub fn set_threads(threads: usize) {
    submod_exec::set_num_threads(threads);
}

/// `tasks` empty tasks through the work-stealing pool.
pub fn empty_parallel_tasks(tasks: usize) -> usize {
    submod_exec::parallel_map((0..tasks).collect::<Vec<usize>>(), std::hint::black_box).len()
}

/// An open write-ahead journal and a greedy-round record carrying
/// `winners` ids, the shape the journaled driver appends per round.
pub struct JournalProbe {
    journal: submod_journal::Journal,
    record: submod_journal::Record,
}

impl JournalProbe {
    pub fn create(path: &Path, winners: usize) -> Res<JournalProbe> {
        let record = submod_journal::Record::GreedyRound {
            round: 1,
            input_size: winners as u64 * 4,
            target: winners as u64,
            partitions: DATAFLOW_WORKERS as u64,
            seed: 1,
            stats: submod_journal::GreedySnapshot::default(),
            selected: (0..winners as u64).collect(),
        };
        Ok(JournalProbe { journal: submod_journal::Journal::create(path)?, record })
    }

    pub fn append(&mut self) -> Res<()> {
        Ok(self.journal.append(&self.record)?)
    }
}

/// What a journal file holds, as the replay check needs it.
pub struct Replayed {
    pub records: usize,
    pub torn_bytes: u64,
    pub greedy_rounds: usize,
    pub starts_with_run_start: bool,
    pub ends_with_run_complete: bool,
}

pub fn replay_journal(path: &Path) -> Res<Replayed> {
    use submod_journal::Record;
    let replay = submod_journal::replay(path)?;
    Ok(Replayed {
        records: replay.records.len(),
        torn_bytes: replay.torn_bytes,
        greedy_rounds: replay
            .records
            .iter()
            .filter(|r| matches!(r, Record::GreedyRound { .. }))
            .count(),
        starts_with_run_start: matches!(replay.records.first(), Some(Record::RunStart { .. })),
        ends_with_run_complete: matches!(replay.records.last(), Some(Record::RunComplete)),
    })
}

// --------------------------------------------------------------------------
// Observability
// --------------------------------------------------------------------------

pub fn span(name: &'static str) -> SpanGuard {
    submod_obs::span(name)
}

/// Turns coarse span recording on or off for the whole process.
pub fn set_tracing(on: bool) {
    submod_obs::set_mode(if on {
        submod_obs::TraceMode::Spans
    } else {
        submod_obs::TraceMode::Off
    });
}

pub fn take_spans() -> Vec<SpanEvent> {
    submod_obs::take_spans()
}

pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    submod_obs::chrome_trace_json(events)
}

pub fn reset_metrics() {
    submod_obs::reset_metrics();
}

pub fn metrics_snapshot() -> MetricsSnapshot {
    submod_obs::snapshot()
}
