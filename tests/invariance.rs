//! The invariance harness: every selection path selects the same bits
//! under every runtime setting that is not an input of the selection.
//!
//! Five axes: pool threads {1, 2, 8}, trace mode {off, spans}, fault plan
//! {off, transient-io}, graph backing {owned, mapped} and the dataflow
//! worker budget {unlimited, starved below a one-row partition}. Their
//! product is 48 runs; `ROWS` is a pairwise covering array of six (each
//! thread count with one row and its complement), so every two levels of
//! every two axes meet in some row, which `rows_cover_every_pair_of_levels`
//! checks.
//!
//! Each row sets its levels in-process, then runs bounding (exact,
//! approximate-uniform, approximate-weighted), the adaptive multi-round
//! greedy and the journaled multi-round greedy on both drivers, plus
//! GreeDi in both partition styles and `select_subset` (in-memory only),
//! over a seeded random graph and a graph of duplicate points. GreeDi is
//! one round plan of the multi-round loop and runs on the dataflow driver
//! in `submod_dist`'s own tests, but only `greedi` (in memory) is public:
//! a public dataflow GreeDi would add an entry point. It asserts:
//! - in the row, the dataflow driver's output equals the in-memory one's;
//! - across rows, every output and the in-memory driver's stats equal
//!   row 1's, and the dataflow driver's stats equal those of the first
//!   row with the same budget (the budget picks the dataflow greedy's
//!   path, and the batched path meters its scans, not resident rows);
//! - each level took effect: tracing recorded nested spans and a fused
//!   engine stage (and, over a mapped graph, the store's write and
//!   open), transient-io retried, and greedy phases ran batched exactly
//!   when starved.
//!
//! Kernel dispatch is not an axis: no selection path calls a kernel. The
//! kernel and k-NN suites run under both dispatches instead.
//!
//! Trace mode and the fault plan are process-wide, so one test runs the
//! rows one after another.

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use submod_select::prelude::*;
use submod_select::submod_dist::{
    distributed_greedy_dataflow_journaled, distributed_greedy_journaled, DistGreedyReport,
    GreediReport, MergeStats, RoundStats,
};
use submod_select::submod_exec::with_threads;
use submod_select::submod_obs::faults::{self, FaultMode, FaultPlan};
use submod_select::submod_obs::{self, TraceMode};
use Backing::{Mapped, Owned};
use Budget::{Starved, Unlimited};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Backing {
    Owned,
    Mapped,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Budget {
    Unlimited,
    Starved,
}

impl Budget {
    /// Starved is one byte below the 48 B a resident partition row costs
    /// (`submod_dist`'s crate docs, "The driver memory model"), so no
    /// partition fits a worker.
    fn memory(self) -> MemoryBudget {
        match self {
            Unlimited => MemoryBudget::unlimited(),
            Starved => MemoryBudget::bytes(47),
        }
    }
}

/// One row's levels: threads, trace mode, fault mode, backing, budget.
#[derive(Clone, Copy)]
struct Row(usize, TraceMode, FaultMode, Backing, Budget);

const THREADS: [usize; 3] = [1, 2, 8];
const TRACES: [TraceMode; 2] = [TraceMode::Off, TraceMode::Spans];
const FAULTS: [FaultMode; 2] = [FaultMode::Off, FaultMode::TransientIo];
const BACKINGS: [Backing; 2] = [Owned, Mapped];
const BUDGETS: [Budget; 2] = [Unlimited, Starved];

const ROWS: [Row; 6] = [
    Row(1, TraceMode::Off, FaultMode::Off, Owned, Starved),
    Row(1, TraceMode::Spans, FaultMode::TransientIo, Mapped, Unlimited),
    Row(2, TraceMode::Off, FaultMode::Off, Mapped, Unlimited),
    Row(2, TraceMode::Spans, FaultMode::TransientIo, Owned, Starved),
    Row(8, TraceMode::Off, FaultMode::TransientIo, Owned, Unlimited),
    Row(8, TraceMode::Spans, FaultMode::Off, Mapped, Starved),
];

impl Row {
    /// The row's level index on each axis (`None` for a level off the
    /// axis).
    fn levels(self) -> [Option<usize>; 5] {
        fn index<T: PartialEq>(axis: &[T], level: T) -> Option<usize> {
            axis.iter().position(|l| *l == level)
        }
        let Row(threads, trace, faults, backing, budget) = self;
        [
            index(&THREADS, threads),
            index(&TRACES, trace),
            index(&FAULTS, faults),
            index(&BACKINGS, backing),
            index(&BUDGETS, budget),
        ]
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Row(threads, trace, faults, backing, budget) = self;
        write!(
            f,
            "threads={threads} trace={trace:?} faults={faults:?} backing={backing:?} \
             budget={budget:?}"
        )
    }
}

#[test]
fn rows_cover_every_pair_of_levels() {
    let sizes = [THREADS.len(), TRACES.len(), FAULTS.len(), BACKINGS.len(), BUDGETS.len()];
    for row in ROWS {
        assert!(row.levels().iter().all(Option::is_some), "a level off its axis in [{row}]");
    }
    for a in 0..sizes.len() {
        for b in a + 1..sizes.len() {
            for (la, lb) in (0..sizes[a]).flat_map(|la| (0..sizes[b]).map(move |lb| (la, lb))) {
                assert!(
                    ROWS.iter().any(|row| {
                        let levels = row.levels();
                        levels[a] == Some(la) && levels[b] == Some(lb)
                    }),
                    "no row pairs level {la} of axis {a} with level {lb} of axis {b}"
                );
            }
        }
    }
}

type Instance = (&'static str, SimilarityGraph, PairwiseObjective);

/// A seeded sparse random graph: three draws of a neighbor per node.
fn random_instance(n: usize, seed: u64) -> Instance {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u64 {
        for _ in 0..3 {
            let w = next() % n as u64;
            if w != v {
                b.add_undirected(v, w, 0.05 + (next() % 900) as f32 / 1000.0).expect("edge");
            }
        }
    }
    let utilities: Vec<f32> = (0..n).map(|_| 0.1 + (next() % 900) as f32 / 1000.0).collect();
    ("random", b.build(), PairwiseObjective::from_alpha(0.85, utilities).expect("objective"))
}

/// Duplicate points: groups of clones with identical utilities and
/// identical neighborhoods, so gains tie everywhere and only the id
/// tie-break decides.
fn duplicates_instance(groups: usize, clones: usize) -> Instance {
    let n = groups * clones;
    let mut b = GraphBuilder::new(n);
    for g in 0..groups {
        let base = (g * clones) as u64;
        let next = (((g + 1) % groups) * clones) as u64;
        for i in 0..clones as u64 {
            for j in 0..clones as u64 {
                if i < j {
                    b.add_undirected(base + i, base + j, 0.75).expect("edge");
                }
                if next != base {
                    b.add_undirected(base + i, next + j, 0.25).expect("edge");
                }
            }
        }
    }
    let utilities: Vec<f32> = (0..n).map(|i| 0.4 + ((i / clones) % 2) as f32 * 0.3).collect();
    ("duplicates", b.build(), PairwiseObjective::from_alpha(0.7, utilities).expect("objective"))
}

/// Writes `graph` to a store and maps it back.
fn mapped_copy(graph: &SimilarityGraph, name: &str) -> SimilarityGraph {
    let path =
        std::env::temp_dir().join(format!("submod-invariance-{}-{name}.csr", std::process::id()));
    graph.write_store(&path).expect("write store");
    let mapped = SimilarityGraph::open_store(&path).expect("open store");
    std::fs::remove_file(&path).expect("remove store"); // the mapping keeps it readable
    assert!(mapped.is_mapped(), "{name}: the store was not mapped");
    mapped
}

/// Selected ids in order plus the objective value's exact bits.
type Fingerprint = (Vec<u64>, u64);

fn fingerprint(selection: &Selection) -> Fingerprint {
    (selection.selected().iter().map(|v| v.raw()).collect(), selection.objective_value().to_bits())
}

#[derive(Debug, PartialEq)]
enum Output {
    Bounding(BoundingOutcome),
    Greedy(Fingerprint, Vec<RoundStats>),
    Greedi(Fingerprint, MergeStats),
    Pipeline(Fingerprint, Option<BoundingOutcome>),
}

#[derive(Debug, PartialEq)]
enum Stats {
    Bounding(BoundingStats),
    Greedy(GreedyStats),
    None,
}

/// What one selection path returned on one driver.
#[derive(Debug, PartialEq)]
struct Run {
    output: Output,
    stats: Stats,
}

/// A bounding outcome without its stats, which differ between the
/// drivers: every decision field.
fn decisions(outcome: BoundingOutcome) -> BoundingOutcome {
    BoundingOutcome { stats: BoundingStats::default(), ..outcome }
}

fn bounding_run(outcome: BoundingOutcome) -> Run {
    let stats = Stats::Bounding(outcome.stats);
    Run { output: Output::Bounding(decisions(outcome)), stats }
}

fn greedy_run(report: DistGreedyReport) -> Run {
    let output = Output::Greedy(fingerprint(&report.selection), report.rounds);
    Run { output, stats: Stats::Greedy(report.stats) }
}

fn greedi_run(report: GreediReport) -> Run {
    Run { output: Output::Greedi(fingerprint(&report.selection), report.merge), stats: Stats::None }
}

/// One selection path on one instance: the in-memory run and, where the
/// path has one, the dataflow run.
struct PathRuns {
    name: String,
    mem: Run,
    df: Option<Run>,
}

/// Runs every selection path over `graph` on both drivers.
fn run_paths(
    (instance, graph, objective): (&str, &SimilarityGraph, &PairwiseObjective),
    budget: Budget,
    journal: &Path,
) -> Vec<PathRuns> {
    let n = graph.num_nodes();
    let k = n / 6;
    let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let pipeline =
        || Pipeline::builder().workers(2).memory_budget(budget.memory()).build().expect("pipeline");
    let mut paths = Vec::new();
    let mut push = |name: String, mem: Run, df: Option<Run>| {
        paths.push(PathRuns { name, mem, df });
    };

    for (path, config) in [
        ("bounding exact", Ok(BoundingConfig::exact())),
        ("bounding uniform", BoundingConfig::approximate(0.5, SamplingStrategy::Uniform, 3)),
        ("bounding weighted", BoundingConfig::approximate(0.4, SamplingStrategy::Weighted, 9)),
    ] {
        let name = format!("{instance}: {path}");
        let config = config.expect("bounding config");
        let mem = bound_in_memory(graph, objective, k, &config).expect(&name);
        let df = bound_dataflow(&pipeline(), graph, objective, k, &config).expect(&name);
        push(name, bounding_run(mem), Some(bounding_run(df)));
    }

    let name = format!("{instance}: adaptive multi-round");
    let config = DistGreedyConfig::new(6, 4).expect("config").seed(11).adaptive(true);
    let mem = distributed_greedy(graph, objective, &ground, k, &config).expect(&name);
    let df = distributed_greedy_dataflow(&pipeline(), graph, objective, &ground, k, &config)
        .expect(&name);
    push(name, greedy_run(mem), Some(greedy_run(df)));

    for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
        let name = format!("{instance}: GreeDi {style:?}");
        let mem = greedi(graph, objective, k, 4, style, 5).expect(&name);
        push(name, greedi_run(mem), None);
    }

    // Geometric targets and a narrow winner batch, so a starved run
    // certifies few winners per scan and invalidates often.
    let name = format!("{instance}: journaled multi-round");
    let config = DistGreedyConfig::new(3, 3)
        .expect("config")
        .seed(5)
        .schedule(DeltaSchedule::Geometric)
        .winner_batch(4);
    let fresh_journal = || {
        let _ = std::fs::remove_file(journal);
        journal
    };
    let (mem, _) =
        distributed_greedy_journaled(graph, objective, &ground, k, &config, fresh_journal())
            .expect(&name);
    let (df, _) = distributed_greedy_dataflow_journaled(
        &pipeline(),
        graph,
        objective,
        &ground,
        k,
        &config,
        fresh_journal(),
    )
    .expect(&name);
    fresh_journal();
    push(name, greedy_run(mem), Some(greedy_run(df)));

    let name = format!("{instance}: select_subset");
    let config = PipelineConfig::with_bounding(
        BoundingConfig::approximate(0.4, SamplingStrategy::Uniform, 2).expect("bounding config"),
        DistGreedyConfig::new(4, 3).expect("config").seed(17).adaptive(true),
    );
    let outcome = select_subset(graph, objective, k, &config).expect(&name);
    let output = Output::Pipeline(fingerprint(&outcome.selection), outcome.bounding.map(decisions));
    push(name, Run { output, stats: Stats::None }, None);
    paths
}

/// Runs one row: sets its levels, runs every path on every instance,
/// checks the drivers agree and that each level took effect.
fn run_row(row: Row, instances: &[Instance]) -> Vec<PathRuns> {
    let Row(threads, trace, fault_mode, backing, budget) = row;
    // Rate 1: every instrumented I/O operation fails once and succeeds
    // on its retry.
    let _plan = faults::override_plan(FaultPlan { mode: fault_mode, seed: 0xFA17, rate: 1.0 });
    let counter = |name: &str| submod_obs::counter(name).value();
    let (retries, batched) = (counter("faults.retries"), counter("greedy.phases_batched"));
    let journal =
        std::env::temp_dir().join(format!("submod-invariance-{}.wal", std::process::id()));
    submod_obs::take_spans();
    submod_obs::set_mode(trace);
    let paths: Vec<PathRuns> = with_threads(threads, || {
        let mut paths = Vec::new();
        for (name, graph, objective) in instances {
            let mapped = (backing == Mapped).then(|| mapped_copy(graph, name));
            let graph = mapped.as_ref().unwrap_or(graph);
            paths.extend(run_paths((name, graph, objective), budget, &journal));
        }
        paths
    });
    submod_obs::set_mode(TraceMode::Off);

    for path in &paths {
        if let Some(df) = &path.df {
            assert_eq!(df.output, path.mem.output, "{}: the drivers diverged", path.name);
        }
    }
    let spans = submod_obs::take_spans();
    if trace == TraceMode::Spans {
        assert!(spans.iter().any(|s| s.parent != 0), "tracing recorded no nested span");
        let mut expected = vec!["dataflow.fused_stage"];
        if backing == Mapped {
            expected.extend(["store.write", "store.open"]);
        }
        for name in expected {
            assert!(spans.iter().any(|s| s.name == name), "tracing recorded no {name} span");
        }
    }
    let retried = counter("faults.retries") > retries;
    assert_eq!(retried, fault_mode == FaultMode::TransientIo, "faults.retries rose: {retried}");
    let batched = counter("greedy.phases_batched") - batched;
    assert_eq!(batched > 0, budget == Starved, "{batched} greedy phases ran batched");
    paths
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic")
}

#[test]
fn every_path_selects_the_same_bits_in_every_row() {
    let instances = [random_instance(24, 7), duplicates_instance(6, 5)];
    let mut done: Vec<(Row, Vec<PathRuns>)> = Vec::new();
    for row in ROWS {
        let paths = panic::catch_unwind(AssertUnwindSafe(|| run_row(row, &instances)))
            .unwrap_or_else(|payload| panic!("[{row}] {}", panic_message(&*payload)));
        let same_budget = done.iter().find(|(earlier, _)| earlier.4 == row.4);
        for (i, path) in paths.iter().enumerate() {
            if let Some((first, reference)) = done.first() {
                assert_eq!(path.mem, reference[i].mem, "{}: [{row}] vs [{first}]", path.name);
            }
            if let Some((earlier, reference)) = same_budget {
                assert_eq!(path.df, reference[i].df, "{}: [{row}] vs [{earlier}]", path.name);
            }
        }
        done.push((row, paths));
    }
}
