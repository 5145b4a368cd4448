//! The four workloads: what each builds from the seed before the clock
//! starts, and the public calls its timed repetition makes.
//!
//! Sizes are set for the 2-core runner so that one repetition takes about
//! a second and a whole run, with its repeated set-up, about half a minute
//! (README, "Resizing"). `--smoke` divides every point count by 20.

use crate::adapter::{
    self, Bounded, Embeddings, Engine, PairwiseObjective, PhaseSeeds, Picked, Res, SimilarityGraph,
};
use crate::trace::ROOT_SPAN;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EmbedKnn,
    GraphMem,
    DfDefault,
    DfLtm,
}

/// Per-worker byte budget of the larger-than-memory workload.
pub const LTM_WORKER_BUDGET: u64 = 32 * 1024;

pub struct Sizes {
    pub classes: usize,
    pub points_per_class: usize,
    /// Noisy copies per base point (`graph-mem` only; 1 elsewhere).
    pub factor: u64,
    pub machines: usize,
    pub rounds: usize,
    /// `knn.recall_at_10` recorded when this benchmark was defined, less
    /// the 0.01 a run may fall short by.
    pub recall_floor: f64,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::EmbedKnn, Kind::GraphMem, Kind::DfDefault, Kind::DfLtm];

    /// The workload's name in `BENCHMARK.json` ([`Kind::ALL`] is in the
    /// order of [`crate::spec::WORKLOADS`]).
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn sizes(self, smoke: bool) -> Sizes {
        let size = |classes, points_per_class, factor, machines, rounds, recall_floor| Sizes {
            classes,
            points_per_class,
            factor,
            machines,
            rounds,
            recall_floor,
        };
        // Recall floors: the lowest `knn.recall_at_10` of seeds 1 to 5 at
        // the commit that defined the benchmark (0.7745, 0.6254, 0.8070,
        // 0.7745), less 0.01, rounded down.
        let mut sizes = match self {
            // 30 000 × 64-d CIFAR-like points.
            Kind::EmbedKnn => size(100, 300, 1, 8, 4, 0.76),
            // ImageNet-like base of 10 000 points, ten copies each: 100 000 nodes.
            Kind::GraphMem => size(1000, 10, 10, 16, 8, 0.61),
            // 7 000 points: lockstep stepping costs O(n²) engine work.
            Kind::DfDefault => size(100, 70, 1, 8, 4, 0.79),
            // 30 000 points, enough for more than a hundred spill files.
            Kind::DfLtm => size(100, 300, 1, 8, 4, 0.76),
        };
        if smoke {
            sizes.points_per_class = sizes.points_per_class.div_ceil(20);
        }
        sizes
    }
}

const DIM: usize = 64;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Every seed a workload uses, derived from `--seed` alone.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub data: u64,
    pub knn: u64,
    pub perturb: u64,
    pub phases: PhaseSeeds,
    pub probes: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let stream = |i: u64| splitmix64(splitmix64(seed) ^ i);
        Seeds {
            data: stream(1),
            knn: stream(2),
            perturb: stream(3),
            phases: PhaseSeeds { bounding: stream(4), greedy: stream(5) },
            probes: stream(6),
        }
    }
}

/// One k-NN graph build as seen from outside: wall clock and the
/// registry's query and candidate counters across the call.
#[derive(Clone, Copy, Debug)]
pub struct KnnStats {
    pub secs: f64,
    pub queries: u64,
    /// Rows scored by a kernel (blocked scans plus gathered candidates).
    pub rows_scanned: u64,
}

pub fn rows_scanned(snapshot: &adapter::MetricsSnapshot) -> u64 {
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    counter("kernels.batch_top_k.row_scans") + counter("kernels.gather_top_k.candidates")
}

fn knn_build(embeddings: &Embeddings, seed: u64) -> Res<(SimilarityGraph, KnnStats)> {
    let before = adapter::metrics_snapshot();
    let start = Instant::now();
    let graph = adapter::knn_graph(embeddings, seed)?;
    let secs = start.elapsed().as_secs_f64();
    let after = adapter::metrics_snapshot();
    let queries =
        |s: &adapter::MetricsSnapshot| s.counters.get("knn.search.queries").copied().unwrap_or(0);
    let stats = KnnStats {
        secs,
        queries: queries(&after) - queries(&before),
        rows_scanned: rows_scanned(&after) - rows_scanned(&before),
    };
    Ok((graph, stats))
}

/// A graph written to the CSR store during set-up.
pub struct StoreFile {
    pub path: PathBuf,
    pub write_s: f64,
}

/// Everything a workload's repetitions read, built by [`setup`].
pub struct Prepared {
    pub kind: Kind,
    pub sizes: Sizes,
    pub seeds: Seeds,
    /// The embeddings the workload's k-NN graph is built from (the base
    /// points on `graph-mem`).
    pub embeddings: Embeddings,
    pub objective: PairwiseObjective,
    /// The k-NN graph of `embeddings` when it differs from the graph
    /// selected on (`graph-mem`).
    pub base_graph: Option<SimilarityGraph>,
    /// The graph selected on, when set-up holds it on the heap.
    pub graph: Option<SimilarityGraph>,
    /// The graph selected on, when set-up left it in a store file only.
    pub store: Option<StoreFile>,
    /// The set-up's k-NN build (`None` when the build is in the timed region).
    pub knn: Option<KnnStats>,
    pub n: usize,
    pub scratch: PathBuf,
}

impl Prepared {
    /// Budgets of the selections one repetition makes, in order.
    pub fn budgets(&self) -> Vec<usize> {
        match self.kind {
            Kind::GraphMem => vec![self.n / 10, self.n / 2],
            _ => vec![self.n / 10],
        }
    }

    pub fn spill_dir(&self) -> PathBuf {
        self.scratch.join("spill")
    }
}

/// Builds a workload's inputs from the seed. Untimed by the repetitions;
/// its own wall clock is the `setup_s` metric.
pub fn setup(kind: Kind, smoke: bool, seed: u64, scratch: &Path) -> Res<Prepared> {
    let sizes = kind.sizes(smoke);
    let seeds = Seeds::derive(seed);
    let (embeddings, utilities, labels) =
        adapter::embeddings_and_utilities(sizes.classes, sizes.points_per_class, DIM, seeds.data)?;
    let mut prepared = Prepared {
        kind,
        n: embeddings.len(),
        objective: adapter::objective(utilities.clone())?,
        embeddings,
        sizes,
        seeds,
        base_graph: None,
        graph: None,
        store: None,
        knn: None,
        scratch: scratch.to_path_buf(),
    };
    if kind == Kind::EmbedKnn {
        return Ok(prepared);
    }

    let (graph, knn) = knn_build(&prepared.embeddings, seeds.knn)?;
    prepared.knn = Some(knn);
    match kind {
        Kind::EmbedKnn => unreachable!("returned above"),
        Kind::GraphMem => {
            let (perturbed, perturbed_utilities) = adapter::perturbed_instance(
                &graph,
                &prepared.embeddings,
                utilities,
                labels,
                prepared.sizes.factor,
                seeds.perturb,
            )?;
            prepared.n = adapter::num_nodes(&perturbed);
            prepared.objective = adapter::objective(perturbed_utilities)?;
            prepared.base_graph = Some(graph);
            prepared.graph = Some(perturbed);
        }
        Kind::DfDefault => prepared.graph = Some(graph),
        Kind::DfLtm => {
            let path = scratch.join("graph.store");
            let start = Instant::now();
            adapter::write_store(&graph, &path)?;
            prepared.store = Some(StoreFile { path, write_s: start.elapsed().as_secs_f64() });
            // The heap copy is dropped here: repetitions see the file only.
        }
    }
    Ok(prepared)
}

/// What one repetition produced, for the checks and the ledger.
pub struct RepOut {
    /// Wall clock of the timed region.
    pub secs: f64,
    /// One selection per entry of [`Prepared::budgets`].
    pub picks: Vec<Picked>,
    pub bounded: Option<Bounded>,
    /// The graph selected on, when the repetition itself built or opened it.
    pub graph: Option<SimilarityGraph>,
    pub knn: Option<KnnStats>,
    pub worker_bytes_peak: u64,
    pub journal: Option<PathBuf>,
}

/// Numbers the journal files of a process: a journaled run against an
/// existing file would resume it instead of running.
static NEXT_JOURNAL: AtomicUsize = AtomicUsize::new(0);

/// One timed repetition: the workload's public calls, one selection at a
/// time, each under a `bench.*` harness span (a no-op unless tracing).
pub fn rep(p: &Prepared) -> Res<RepOut> {
    let k = p.n / 10;
    let Sizes { machines, rounds, .. } = p.sizes;
    let mut out = RepOut {
        secs: 0.0,
        picks: Vec::new(),
        bounded: None,
        graph: None,
        knn: None,
        worker_bytes_peak: 0,
        journal: None,
    };
    let start = Instant::now();
    let root = adapter::span(ROOT_SPAN);
    match p.kind {
        Kind::EmbedKnn => {
            let (graph, knn) = {
                let _span = adapter::span("bench.knn");
                knn_build(&p.embeddings, p.seeds.knn)?
            };
            let _span = adapter::span("bench.select");
            let (picked, bounded) = adapter::select_in_memory(
                &graph,
                &p.objective,
                k,
                machines,
                rounds,
                p.seeds.phases,
            )?;
            out.picks.push(picked);
            out.bounded = bounded;
            out.graph = Some(graph);
            out.knn = Some(knn);
        }
        Kind::GraphMem => {
            let graph = p.graph.as_ref().expect("graph-mem holds its graph");
            {
                let _span = adapter::span("bench.select");
                let (picked, bounded) = adapter::select_in_memory(
                    graph,
                    &p.objective,
                    k,
                    machines,
                    rounds,
                    p.seeds.phases,
                )?;
                out.picks.push(picked);
                out.bounded = bounded;
            }
            let _span = adapter::span("bench.greedy");
            out.picks.push(adapter::greedy_in_memory(
                graph,
                &p.objective,
                p.n / 2,
                machines,
                rounds,
                p.seeds.phases.greedy,
            )?);
        }
        Kind::DfDefault => {
            let graph = p.graph.as_ref().expect("graph-df-default holds its graph");
            let engine = Engine::new(None, &p.spill_dir())?;
            {
                let _span = adapter::span("bench.bound");
                out.bounded =
                    Some(engine.bound(graph, &p.objective, k, p.seeds.phases.bounding)?);
            }
            {
                let _span = adapter::span("bench.greedy");
                out.picks.push(engine.greedy_default(
                    graph,
                    &p.objective,
                    k,
                    machines,
                    rounds,
                    p.seeds.phases.greedy,
                )?);
            }
            out.worker_bytes_peak = engine.worker_bytes_peak();
        }
        Kind::DfLtm => {
            let store = p.store.as_ref().expect("graph-df-ltm has a store file");
            let index = NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed);
            let journal = p.scratch.join(format!("run-{index}.wal"));
            let graph = {
                let _span = adapter::span("bench.open_store");
                adapter::open_store(&store.path)?
            };
            let engine = Engine::new(Some(LTM_WORKER_BUDGET), &p.spill_dir())?;
            {
                let _span = adapter::span("bench.bound");
                out.bounded =
                    Some(engine.bound(&graph, &p.objective, k, p.seeds.phases.bounding)?);
            }
            {
                let _span = adapter::span("bench.greedy");
                out.picks.push(engine.greedy_journaled(
                    &graph,
                    &p.objective,
                    k,
                    machines,
                    rounds,
                    p.seeds.phases.greedy,
                    &journal,
                )?);
            }
            out.worker_bytes_peak = engine.worker_bytes_peak();
            out.graph = Some(graph);
            out.journal = Some(journal);
        }
    }
    drop(root);
    out.secs = start.elapsed().as_secs_f64();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_come_from_the_spec() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["embed-knn", "graph-mem", "graph-df-default", "graph-df-ltm"]);
        assert_eq!(Kind::from_name("graph-df-ltm"), Some(Kind::DfLtm));
        assert_eq!(Kind::from_name("all"), None);
    }

    #[test]
    fn seeds_differ_per_phase_and_per_run_seed() {
        let a = Seeds::derive(1);
        let b = Seeds::derive(2);
        let of =
            |s: Seeds| [s.data, s.knn, s.perturb, s.phases.bounding, s.phases.greedy, s.probes];
        let mut all: Vec<u64> = of(a).into_iter().chain(of(b)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12);
        assert_eq!(of(a), of(Seeds::derive(1)));
    }

    #[test]
    fn smoke_sizes_are_a_twentieth() {
        for kind in Kind::ALL {
            let (full, smoke) = (kind.sizes(false), kind.sizes(true));
            assert_eq!(smoke.points_per_class, full.points_per_class.div_ceil(20));
            assert_eq!(smoke.classes, full.classes);
        }
    }
}
