//! Distributed bounding (paper §4.1–§4.3, §5): decide as much of the
//! target subset as possible *before* running any greedy algorithm.
//!
//! For the pairwise objective, two per-point bounds on the marginal
//! utility (in priority units `u − (β/α)·Σ s`) bracket every possible
//! completion:
//!
//! - `U_min(v)`: every not-yet-excluded neighbor counts against `v` — the
//!   worst case (Def. 4.1).
//! - `U_max(v)`: only definitely-included neighbors count — the best case
//!   (Def. 4.2).
//!
//! A *grow* pass includes every point whose worst case beats the k-th
//! largest best case (Lemma 4.3); a *shrink* pass excludes every point
//! whose best case loses to the k-th largest worst case (Lemma 4.4).
//! Decisions sharpen both bounds, so the passes alternate to a fixpoint.
//!
//! The approximate variant (§4.3, Theorem 4.6) estimates the k-th-largest
//! thresholds from a `p`-fraction sample instead of a global sort; the
//! sample membership is a deterministic per-node hash coin so the
//! in-memory and dataflow drivers agree bit for bit.
//!
//! # The engine-resident §5 pipeline
//!
//! [`bound_dataflow`] keeps the per-node bound table **inside the engine
//! for its whole life**: the included/excluded status sets are broadcast
//! to workers as bitset side-inputs ([`submod_dataflow::BroadcastSet`]),
//! each worker derives `U_min`/`U_max`/`U_exp` for its shard of the
//! undecided points, the threshold sample is an engine-side filter over
//! that sharded table, thresholds come from the engine's O(1)-memory
//! distributed `kth_largest`, and the include/exclude candidate filters
//! run as engine transforms too. Only the **candidates** — the points
//! that beat a threshold — ever reach the driver, so per-pass driver
//! allocations are `O(candidates)`, not `O(undecided)`; the persistent
//! driver state is the `O(k + undecided)` decision bookkeeping the §5
//! design budgets for. [`BoundingStats`] meters both so tests can assert
//! the claim. Both drivers share the same decision code and the same
//! coins, so their outcomes are **identical** — the larger-than-memory
//! suite asserts equality under crushing budgets.
//!
//! [`bound_in_memory`] keeps every node's two penalty sums across passes
//! and re-derives only the *dirty* undecided nodes — those with a
//! neighbour whose status changed since the sums were taken — each whole
//! and in adjacency order, so every bound matches a full re-derivation
//! bit for bit. `U_exp` is rebuilt from the cached sums every pass, since
//! `q` moves. The first pass (also the first after a journal resume)
//! derives everything.

use crate::config::BoundingMode;
use crate::journal::RunJournal;
use crate::{check_instance, BoundingConfig, DistError, Driver, SamplingStrategy};
use submod_core::{NodeId, NodeSet, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{PCollection, Pipeline};
use submod_journal::Record;

/// The result of a bounding run.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundingOutcome {
    /// Points proven to belong to the subset, ascending by id.
    pub included: Vec<NodeId>,
    /// Number of points proven to be outside the subset.
    pub excluded_count: usize,
    /// Undecided points (the greedy phase's ground set), ascending by id.
    pub remaining: Vec<NodeId>,
    /// Number of grow passes executed.
    pub grow_rounds: usize,
    /// Number of shrink passes executed.
    pub shrink_rounds: usize,
    /// Budget still open after bounding: `k − |included|`.
    pub k_remaining: usize,
    /// The driver-side memory accounting of the run. It differs between
    /// the drivers, so cross-driver checks compare every field but this.
    pub stats: BoundingStats,
}

impl BoundingOutcome {
    /// Returns `true` when bounding decided the entire subset.
    pub fn is_complete(&self) -> bool {
        self.k_remaining == 0
    }

    /// Fraction of an `n`-point ground set that was decided either way.
    pub fn decision_fraction(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        (self.included.len() + self.excluded_count) as f64 / n as f64
    }
}

/// Driver-side memory accounting for one bounding run — the §5
/// larger-than-memory claim as numbers instead of prose.
///
/// The *driver* is the process orchestrating the passes. Its persistent
/// state (`peak_state_bytes`) is the included/excluded bitsets plus the
/// undecided list: `O(k + undecided)` on the dataflow driver. The
/// in-memory driver also keeps every node's penalty pair (16 B per node)
/// and the two status bitsets it derived them against, so its state is
/// `O(n)`. What distinguishes the drivers per pass is `peak_pass_bytes`,
/// the largest *per-pass* materialization: the in-memory driver builds
/// the full bound table (`O(undecided)` per pass), while the
/// engine-resident dataflow driver only ever collects the candidate lists
/// (`O(candidates)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundingStats {
    /// Grow + shrink passes executed.
    pub passes: usize,
    /// Peak bytes of per-pass driver-side materializations (bound tables,
    /// samples, candidate lists, and the dirty list with the two bitsets
    /// that found it for the in-memory driver; candidate lists alone for
    /// the dataflow driver).
    pub peak_pass_bytes: u64,
    /// Largest candidate list any single pass handed the decision code.
    pub peak_candidates: usize,
    /// Peak bytes of persistent driver state: the included/excluded
    /// bitsets plus the undecided id list, and for the in-memory driver
    /// the penalty cache and its two status snapshots.
    pub peak_state_bytes: u64,
}

impl BoundingStats {
    fn observe_pass(&mut self, pass_bytes: u64, candidates: usize, state_bytes: u64) {
        self.passes += 1;
        self.peak_pass_bytes = self.peak_pass_bytes.max(pass_bytes);
        self.peak_candidates = self.peak_candidates.max(candidates);
        self.peak_state_bytes = self.peak_state_bytes.max(state_bytes);
        // Mirror into the metrics registry — the workspace-wide source of
        // truth `experiments ltm` reads; the struct keeps its exact
        // per-run semantics for the driver-contrast tests.
        submod_obs::counter!("bounding.passes").incr();
        submod_obs::gauge!("bounding.peak_pass_bytes").fetch_max(pass_bytes);
        submod_obs::gauge!("bounding.peak_candidates").fetch_max(candidates as u64);
        submod_obs::gauge!("bounding.peak_state_bytes").fetch_max(state_bytes);
        submod_obs::histogram!("bounding.pass_candidates").record(candidates as u64);
    }
}

/// The derived per-point bound values for one pass (Defs. 4.1, 4.2, 4.5):
///
/// - `umin = u − (β/α)·min_penalty` (every non-excluded neighbor counts),
/// - `umax = u − (β/α)·max_penalty` (only included neighbors count),
/// - `uexp = u − (β/α)·(max_penalty + q·(min_penalty − max_penalty))`
///   with `q = k_rem/|undecided|` — the *expected* utility under a
///   uniform-random completion, the statistic the approximate shrink
///   decides on.
#[derive(Clone, Copy, Debug)]
struct Derived {
    node: u64,
    umin: f64,
    umax: f64,
    uexp: f64,
}

/// Ratio of undecided points the approximate shrink keeps per open
/// budget slot: exclusions cut the pool to ≈ `SAFETY_POOL_FACTOR · k`
/// expected-best candidates, leaving the greedy phase a margin for the
/// expectation being wrong (Theorem 4.6 prices the residual risk).
const SAFETY_POOL_FACTOR: usize = 3;

/// The two neighbour sums behind the §4 bounds of one undecided point:
/// `(min_penalty, max_penalty)`, the similarity to every non-excluded
/// neighbour and to every included one. **The** shared kernel: both
/// drivers accumulate in adjacency order, so every `f64` matches bit for
/// bit — and a node whose neighbours kept their status keeps its sums.
fn penalties<FInc, FExc>(
    graph: &SimilarityGraph,
    node: u64,
    included: FInc,
    not_excluded: FExc,
) -> (f64, f64)
where
    FInc: Fn(u64) -> bool,
    FExc: Fn(u64) -> bool,
{
    let mut min_penalty = 0.0f64;
    let mut max_penalty = 0.0f64;
    for (w, s) in graph.edges(NodeId::new(node)) {
        if not_excluded(w.raw()) {
            min_penalty += f64::from(s);
        }
        if included(w.raw()) {
            max_penalty += f64::from(s);
        }
    }
    (min_penalty, max_penalty)
}

/// The §4 bounds of one point from its [`penalties`] and this pass's
/// completion ratio `q` — the same expressions on both drivers.
fn bounds(
    objective: &PairwiseObjective,
    node: u64,
    q: f64,
    (min_penalty, max_penalty): (f64, f64),
) -> Derived {
    let ratio = objective.ratio();
    let u = objective.utility(NodeId::new(node));
    Derived {
        node,
        umin: u - ratio * min_penalty,
        umax: u - ratio * max_penalty,
        uexp: u - ratio * (max_penalty + q * (min_penalty - max_penalty)),
    }
}

/// Adds one pass's work to the bounding counters: `nodes` re-derived, and
/// `edges` adjacency entries walked to find and re-derive them.
fn count_derived(nodes: usize, edges: u64) {
    submod_obs::counter!("bounding.dirty_nodes").add(nodes as u64);
    submod_obs::counter!("bounding.edges_walked").add(edges);
}

/// Adjacency entries of `nodes`: what deriving all of them walks.
fn degree_sum(graph: &SimilarityGraph, nodes: &[NodeId]) -> u64 {
    nodes.iter().map(|&v| graph.degree(v) as u64).sum()
}

/// Mutable bounding state shared by both drivers.
struct State {
    included: NodeSet,
    excluded: NodeSet,
    k: usize,
}

impl State {
    fn k_remaining(&self) -> usize {
        self.k - self.included.len()
    }

    fn undecided(&self, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(NodeId::from_index)
            .filter(|&v| !self.included.contains(v) && !self.excluded.contains(v))
            .collect()
    }

    /// Persistent driver bytes: two bitsets plus the undecided id list.
    fn state_bytes(&self, undecided_len: usize) -> u64 {
        let words = self.included.words().len() + self.excluded.words().len();
        (words * size_of::<u64>() + undecided_len * size_of::<u64>()) as u64
    }
}

/// splitmix64 over (seed, salt, node): the deterministic sampling coin in
/// `[0, 1)`. Order-independent, so the dataflow driver reproduces it.
/// Delegates to the engine's canonical coin.
fn sample_coin(seed: u64, salt: u64, node: u64) -> f64 {
    submod_dataflow::sample_coin(seed ^ salt.rotate_left(17), node)
}

/// Whether `node` is in the threshold-estimation sample of this pass.
fn in_sample(
    mode: &BoundingMode,
    pass: u64,
    phase: u64,
    node: u64,
    utility: f64,
    mean_utility: f64,
) -> bool {
    match *mode {
        BoundingMode::Exact => true,
        BoundingMode::Approximate { p, strategy, seed } => {
            let probability = match strategy {
                SamplingStrategy::Uniform => p,
                SamplingStrategy::Weighted => {
                    // Utility-proportional inclusion, normalized so the
                    // expected sample size stays ≈ p·n.
                    if mean_utility > 0.0 {
                        (p * utility / mean_utility).clamp(0.0, 1.0)
                    } else {
                        p
                    }
                }
            };
            sample_coin(seed, pass << 8 | phase, node) < probability
        }
    }
}

/// Index (1-based) of the order statistic used as the threshold: the
/// `k`-th largest for exact bounding, its unbiased `p`-sample analogue
/// `⌈p·k⌉` for approximate bounding.
fn threshold_index(mode: &BoundingMode, k_effective: usize, sample_len: usize) -> usize {
    let index = match *mode {
        BoundingMode::Exact => k_effective,
        BoundingMode::Approximate { p, .. } => ((p * k_effective as f64).ceil() as usize).max(1),
    };
    index.min(sample_len)
}

/// The `index`-th largest value of `values` (1-based), or `None` when the
/// sample is empty. Pure selection — both drivers feed it identical f64s.
fn kth_largest_in_memory(values: &mut [f64], index: usize) -> Option<f64> {
    if values.is_empty() || index == 0 {
        return None;
    }
    let index = index.min(values.len());
    // `total_cmp` is a total order, so the element selected at `index - 1`
    // is the one a full descending sort puts there, bit for bit.
    Some(*values.select_nth_unstable_by(index - 1, |a, b| b.total_cmp(a)).1)
}

/// One grow or shrink pass, parameterized over everything that differs
/// between the two directions. `candidates` are the `(node, statistic)`
/// pairs that beat the pass threshold — the only per-pass data a backend
/// may hand the driver.
#[derive(Clone, Copy, Debug)]
struct PassSpec {
    /// Pass counter (salts the sampling coin).
    pass: u64,
    /// Coin salt: 0 = grow, 1 = shrink.
    phase: u64,
    /// Budget the threshold index is computed from (`k_rem` for grow and
    /// exact shrink, `SAFETY_POOL_FACTOR·k_rem` for approximate shrink).
    k_effective: usize,
    /// Completion ratio `k_rem / |undecided|` for `U_exp`.
    q: f64,
    /// Exact (lemma-grade) or approximate (expectation-grade) decisions.
    exact: bool,
    /// Grow pass (`true`) or shrink pass (`false`).
    grow: bool,
}

impl PassSpec {
    /// The statistic sampled for threshold estimation.
    fn sample_stat(&self, d: &Derived) -> f64 {
        if self.grow {
            // Grow thresholds on the best case U_max (Lemma 4.3).
            d.umax
        } else if self.exact {
            // Exact shrink thresholds on the worst case U_min (Lemma 4.4).
            d.umin
        } else {
            // Approximate shrink thresholds on the expectation (Def. 4.5).
            d.uexp
        }
    }

    /// The statistic a candidate is judged by.
    fn candidate_stat(&self, d: &Derived) -> f64 {
        if self.grow {
            d.umin
        } else if self.exact {
            d.umax
        } else {
            d.uexp
        }
    }

    /// Whether a point with candidate statistic `stat` beats `threshold`.
    fn beats(&self, stat: f64, threshold: f64) -> bool {
        if self.grow {
            stat > threshold
        } else {
            stat < threshold
        }
    }
}

/// Grow decision (Lemma 4.3): candidates best-first, capped at the open
/// budget. Shared verbatim by both drivers — outcome equality follows.
fn decide_grow(mut candidates: Vec<(u64, f64)>, k_remaining: usize) -> Vec<u64> {
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    candidates.into_iter().take(k_remaining).map(|(node, _)| node).collect()
}

/// Shrink decision, worst candidates first, never shrinking the pool
/// below the open budget.
///
/// Exact mode is Lemma 4.4 verbatim: a point is excluded when its *best*
/// case `U_max` loses to the k-th largest *worst* case `U_min`. The
/// approximate mode decides on the expected utility `U_exp` (Def. 4.5)
/// against the sampled `⌈SAFETY·k⌉`-th largest `U_exp`: expectation-level
/// cuts are what let approximate bounding discard the bulk of a
/// near-duplicate-heavy ground set (§6.3) where the worst-case lemma
/// stalls, at the probabilistic price Theorem 4.6 quantifies.
fn decide_shrink(mut candidates: Vec<(u64, f64)>, max_excludable: usize) -> Vec<u64> {
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    candidates.into_iter().take(max_excludable).map(|(node, _)| node).collect()
}

/// What a backend hands the driver after one pass: the candidate list and
/// the bytes the pass materialized driver-side to produce it.
struct PassResult {
    candidates: Vec<(u64, f64)>,
    driver_bytes: u64,
}

/// A bounding execution backend: everything pass-specific that differs
/// between the in-memory reference and the dataflow engine. The decision
/// code downstream is shared, which is what guarantees identical
/// outcomes.
trait PassBackend {
    fn run_pass(
        &mut self,
        state: &State,
        undecided: &[NodeId],
        spec: PassSpec,
    ) -> Result<PassResult, DistError>;

    /// Driver bytes the backend keeps from one pass to the next.
    fn state_bytes(&self) -> u64 {
        0
    }
}

/// The in-memory reference: materializes the full bound table on the
/// driver every pass (`O(undecided)` driver bytes — the baseline the
/// engine-resident driver is measured against), from penalty sums it
/// keeps across passes and re-derives only where a neighbour's status
/// changed.
struct InMemoryBackend<'a> {
    graph: &'a SimilarityGraph,
    objective: &'a PairwiseObjective,
    mode: BoundingMode,
    mean_utility: f64,
    /// Every node's [`penalties`] as last derived (16 B per node), valid
    /// for every undecided node once the first pass has filled it. Empty
    /// until then — also after a journal resume, since it is not
    /// journaled.
    penalties: Vec<(f64, f64)>,
    /// The included and excluded sets the penalties were derived
    /// against.
    derived_against: (NodeSet, NodeSet),
}

/// Dirty nodes one derive task takes; a pass with no more than this
/// derives inline and enters no parallel region.
const DERIVE_CHUNK: usize = 4096;

impl<'a> InMemoryBackend<'a> {
    fn new(
        graph: &'a SimilarityGraph,
        objective: &'a PairwiseObjective,
        mode: BoundingMode,
    ) -> Self {
        InMemoryBackend {
            graph,
            objective,
            mode,
            mean_utility: mean_utility(objective, graph.num_nodes()),
            penalties: Vec::new(),
            derived_against: (NodeSet::new(0), NodeSet::new(0)),
        }
    }

    /// The undecided nodes to re-derive, ascending, and the adjacency
    /// entries walked to find them: the neighbours of every node whose
    /// status changed since the cache was derived. The changed nodes mark
    /// them, which finds every stale node when the graph is symmetric (a
    /// node's in-neighbours are its neighbours). On the first pass, on an
    /// asymmetric graph, or once the changed nodes outnumber the undecided
    /// ones (so re-deriving all of these walks no more), it is every
    /// undecided node.
    fn dirty(&self, state: &State, undecided: &[NodeId]) -> (Vec<NodeId>, u64) {
        let (included, excluded) = (state.included.words(), state.excluded.words());
        let (was_included, was_excluded) =
            (self.derived_against.0.words(), self.derived_against.1.words());
        let changed: Vec<u64> = (0..was_included.len())
            .map(|i| (included[i] ^ was_included[i]) | (excluded[i] ^ was_excluded[i]))
            .collect();
        let changed_len: usize = changed.iter().map(|w| w.count_ones() as usize).sum();
        if self.penalties.is_empty() || changed_len >= undecided.len() || !self.graph.is_symmetric()
        {
            return (undecided.to_vec(), 0);
        }
        let mut marked = NodeSet::new(self.graph.num_nodes());
        let mut walked = 0u64;
        for (i, &word) in changed.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let c = NodeId::from_index(i * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
                let neighbors = self.graph.neighbors(c);
                walked += neighbors.len() as u64;
                neighbors.iter().for_each(|&w| _ = marked.insert(NodeId::new(w.into())));
            }
        }
        (undecided.iter().copied().filter(|&v| marked.contains(v)).collect(), walked)
    }
}

impl PassBackend for InMemoryBackend<'_> {
    fn run_pass(
        &mut self,
        state: &State,
        undecided: &[NodeId],
        spec: PassSpec,
    ) -> Result<PassResult, DistError> {
        let (dirty, found_walked) = self.dirty(state, undecided);
        count_derived(dirty.len(), found_walked + degree_sum(self.graph, &dirty));
        let graph = self.graph;
        let derive = |chunk: &[NodeId]| -> Vec<(f64, f64)> {
            chunk
                .iter()
                .map(|&v| {
                    penalties(
                        graph,
                        v.raw(),
                        |w| state.included.contains(NodeId::new(w)),
                        |w| !state.excluded.contains(NodeId::new(w)),
                    )
                })
                .collect()
        };
        let fresh = if dirty.len() <= DERIVE_CHUNK {
            derive(&dirty)
        } else {
            submod_exec::parallel_map(dirty.chunks(DERIVE_CHUNK).collect(), derive).concat()
        };
        self.penalties.resize(graph.num_nodes(), (0.0, 0.0));
        for (&v, pair) in dirty.iter().zip(fresh) {
            self.penalties[v.index()] = pair;
        }
        self.derived_against = (state.included.clone(), state.excluded.clone());

        let derived: Vec<Derived> = undecided
            .iter()
            .map(|&v| bounds(self.objective, v.raw(), spec.q, self.penalties[v.index()]))
            .collect();
        let mut sample: Vec<f64> = derived
            .iter()
            .filter(|d| {
                in_sample(
                    &self.mode,
                    spec.pass,
                    spec.phase,
                    d.node,
                    self.objective.utility(NodeId::new(d.node)),
                    self.mean_utility,
                )
            })
            .map(|d| spec.sample_stat(d))
            .collect();
        let index = threshold_index(&self.mode, spec.k_effective, sample.len());
        let candidates: Vec<(u64, f64)> = match kth_largest_in_memory(&mut sample, index) {
            Some(threshold) => derived
                .iter()
                .filter(|d| spec.beats(spec.candidate_stat(d), threshold))
                .map(|d| (d.node, spec.candidate_stat(d)))
                .collect(),
            None => Vec::new(),
        };
        // The table, the sample and the candidates, plus the dirty list
        // and the two bitsets (changed, marked) that found it.
        let driver_bytes = (derived.len() * size_of::<Derived>()
            + sample.len() * size_of::<f64>()
            + candidates.len() * size_of::<(u64, f64)>()
            + dirty.len() * size_of::<NodeId>()
            + 2 * size_of_val(state.included.words())) as u64;
        Ok(PassResult { candidates, driver_bytes })
    }

    fn state_bytes(&self) -> u64 {
        (size_of_val(self.penalties.as_slice())
            + size_of_val(self.derived_against.0.words())
            + size_of_val(self.derived_against.1.words())) as u64
    }
}

/// The engine-resident driver (§5): the bound table is born, lives, and
/// dies inside the dataflow engine. Per pass it
///
/// 1. broadcasts the included/excluded bitsets as side-inputs,
/// 2. streams the undecided ids into the engine
///    ([`Pipeline::generate`], so even the source respects worker
///    budgets) and derives the bounds shard-locally,
/// 3. filters the threshold sample engine-side with the shared coin and
///    selects the threshold with the distributed `kth_largest`,
/// 4. filters the candidates engine-side,
///
/// and collects **only the candidates** — per-pass driver bytes are
/// `O(candidates)`, never `O(undecided)`.
struct DataflowBackend<'a> {
    pipeline: &'a Pipeline,
    graph: &'a SimilarityGraph,
    objective: &'a PairwiseObjective,
    mode: BoundingMode,
    mean_utility: f64,
}

/// One engine-resident bound-table row:
/// `(node, umin, umax, uexp, utility)`.
type BoundRow = (u64, f64, f64, f64, f64);

impl DataflowBackend<'_> {
    /// The engine-resident bound table for one pass. Rows carry the
    /// node's utility as a fifth column so the downstream sample and
    /// candidate filters are capture-free (and hence fuse onto the
    /// table): `(node, umin, umax, uexp, utility)`.
    fn derived_table(
        &self,
        state: &State,
        undecided: &[NodeId],
        spec: PassSpec,
    ) -> Result<PCollection<BoundRow>, DistError> {
        let n = self.graph.num_nodes();
        let included = self.pipeline.broadcast_words(state.included.words().to_vec(), n);
        let excluded = self.pipeline.broadcast_words(state.excluded.words().to_vec(), n);
        let graph = self.graph;
        let objective = self.objective;
        let source =
            self.pipeline.generate(undecided.len() as u64, move |i| undecided[i as usize].raw())?;
        // Eager: the kernels borrow the graph and objective, and the
        // table is the pass's materialization point anyway.
        let table = source.map_eager(move |v| {
            let sums = penalties(graph, v, |w| included.contains(w), |w| !excluded.contains(w));
            let d = bounds(objective, v, spec.q, sums);
            (d.node, d.umin, d.umax, d.uexp, objective.utility(NodeId::new(d.node)))
        })?;
        Ok(table)
    }
}

impl PassBackend for DataflowBackend<'_> {
    fn run_pass(
        &mut self,
        state: &State,
        undecided: &[NodeId],
        spec: PassSpec,
    ) -> Result<PassResult, DistError> {
        let table = self.derived_table(state, undecided, spec)?;
        // The engine derives every undecided node each pass.
        count_derived(undecided.len(), degree_sum(self.graph, undecided));
        let unpack = |(node, umin, umax, uexp, _u): &(u64, f64, f64, f64, f64)| Derived {
            node: *node,
            umin: *umin,
            umax: *umax,
            uexp: *uexp,
        };

        // Threshold sample: an engine-side filter with the shared coin.
        // The row carries its utility, so the filter captures only `Copy`
        // values and fuses onto the table.
        let mode = self.mode;
        let mean_utility = self.mean_utility;
        let sample = table
            .filter(move |r| in_sample(&mode, spec.pass, spec.phase, r.0, r.4, mean_utility))?;
        let stats = sample.map(move |r| spec.sample_stat(&unpack(&r)))?;
        let sample_len = stats.count()? as usize;
        let index = threshold_index(&self.mode, spec.k_effective, sample_len);
        if index == 0 || sample_len == 0 {
            return Ok(PassResult { candidates: Vec::new(), driver_bytes: 0 });
        }
        // The threshold is an order statistic of the sampled statistic;
        // the engine's `kth_largest` (bit-bisection over counting passes,
        // O(1) worker memory) lands exactly on the attained element, so
        // the value matches the in-memory sort bit for bit.
        let threshold = stats.kth_largest(index as u64)?;

        // Candidate filter: engine-side; only survivors reach the driver.
        let candidates: Vec<(u64, f64)> = table
            .filter(move |r| {
                let d = unpack(r);
                spec.beats(spec.candidate_stat(&d), threshold)
            })?
            .map(move |r| {
                let d = unpack(&r);
                (d.node, spec.candidate_stat(&d))
            })?
            .collect()?;
        let driver_bytes = (candidates.len() * size_of::<(u64, f64)>()) as u64;
        Ok(PassResult { candidates, driver_bytes })
    }
}

fn mean_utility(objective: &PairwiseObjective, n: usize) -> f64 {
    objective.utilities().iter().map(|&u| f64::from(u)).sum::<f64>() / (n.max(1)) as f64
}

/// Runs bounding entirely in memory.
///
/// # Errors
///
/// Returns an error if the objective does not match the graph or `k`
/// exceeds the ground set.
pub fn bound_in_memory(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    config: &BoundingConfig,
) -> Result<BoundingOutcome, DistError> {
    run(Driver::InMemory, graph, objective, k, config, None)
}

/// Runs bounding on the dataflow engine with the bound table
/// engine-resident end to end (see the module docs): broadcast status
/// side-inputs, shard-local derive, engine-side sampling and candidate
/// filters, distributed threshold selection, and every worker buffer held
/// to the pipeline's memory budget. The outcome's
/// [`BoundingStats::peak_pass_bytes`] covers only the collected candidate
/// lists.
///
/// The outcome's decisions are identical to [`bound_in_memory`]'s by
/// construction.
///
/// # Errors
///
/// Returns an error if the objective does not match the graph, `k`
/// exceeds the ground set, or spill I/O fails.
pub fn bound_dataflow(
    pipeline: &Pipeline,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    config: &BoundingConfig,
) -> Result<BoundingOutcome, DistError> {
    run(Driver::Dataflow(pipeline), graph, objective, k, config, None)
}

/// The one bounding run: checks the instance, builds the driver's
/// backend, and runs the shared grow/shrink loop, journaled when a
/// journal is given.
pub(crate) fn run(
    driver: Driver<'_>,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    config: &BoundingConfig,
    journal: Option<&mut RunJournal>,
) -> Result<BoundingOutcome, DistError> {
    check_instance(graph, objective, k)?;
    match driver {
        Driver::InMemory => {
            let mut backend = InMemoryBackend::new(graph, objective, config.mode);
            run_bounding(graph, k, config, &mut backend, journal)
        }
        Driver::Dataflow(pipeline) => {
            let mut backend = DataflowBackend {
                pipeline,
                graph,
                objective,
                mode: config.mode,
                mean_utility: mean_utility(objective, graph.num_nodes()),
            };
            run_bounding(graph, k, config, &mut backend, journal)
        }
    }
}

/// Rebuilds a [`NodeSet`] from the journal's dense word representation.
fn nodeset_from_words(n: usize, words: &[u64]) -> NodeSet {
    let mut set = NodeSet::new(n);
    for (index, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            set.insert(NodeId::from_index(index * 64 + bit));
            bits &= bits - 1;
        }
    }
    set
}

/// The shared grow/shrink driver. The backend produces per-pass candidate
/// lists; everything downstream — thresholds already applied, the sorted
/// capped decisions, the state updates — is common code, which is what
/// guarantees in-memory/dataflow equality.
///
/// With a journal, every completed grow+shrink cycle is committed
/// (append + fsync) and a final [`Record::BoundingDone`] captures the
/// post-processed outcome. On resume, replayed cycles restore the
/// decision state, counters, and cumulative stats; a replayed
/// `BoundingDone` short-circuits the whole phase.
fn run_bounding(
    graph: &SimilarityGraph,
    k: usize,
    config: &BoundingConfig,
    backend: &mut dyn PassBackend,
    mut journal: Option<&mut RunJournal>,
) -> Result<BoundingOutcome, DistError> {
    let _span = submod_obs::span("bound.run");
    let n = graph.num_nodes();
    let mut state = State { included: NodeSet::new(n), excluded: NodeSet::new(n), k };
    let mut stats = BoundingStats::default();
    let mut grow_rounds = 0usize;
    let mut shrink_rounds = 0usize;
    let mut pass = 0u64;
    let exact = config.is_exact();

    // Replay: restore the last committed cycle boundary. A cycle whose
    // record says `changed == false` is the fixpoint — an uninterrupted
    // run stops right after it, so the live loop is skipped entirely.
    let mut start_cycle = 0usize;
    let mut at_fixpoint = false;
    if let Some(j) = journal.as_deref_mut() {
        while let Some(Record::BoundingCycle {
            cycle,
            changed,
            grow_rounds: grow,
            shrink_rounds: shrink,
            pass: pass_count,
            stats: snapshot,
            included,
            excluded_words,
        }) = j.take_bounding_cycle()
        {
            state.included = NodeSet::from_members(n, included.iter().map(|&v| NodeId::new(v)));
            state.excluded = nodeset_from_words(n, &excluded_words);
            grow_rounds = grow as usize;
            shrink_rounds = shrink as usize;
            pass = pass_count;
            stats = crate::journal::restore_bounding(&snapshot);
            start_cycle = cycle as usize;
            at_fixpoint = !changed;
        }
        if let Some(Record::BoundingDone {
            grow_rounds: grow,
            shrink_rounds: shrink,
            k_remaining,
            included,
            excluded_words,
        }) = j.take_bounding_done()
        {
            // The previous attempt finished bounding: the record already
            // carries the post-processed final state.
            let done = State {
                included: NodeSet::from_members(n, included.iter().map(|&v| NodeId::new(v))),
                excluded: nodeset_from_words(n, &excluded_words),
                k,
            };
            return Ok(BoundingOutcome {
                included: included.iter().map(|&v| NodeId::new(v)).collect(),
                excluded_count: done.excluded.len(),
                remaining: done.undecided(n),
                grow_rounds: grow as usize,
                shrink_rounds: shrink as usize,
                k_remaining: k_remaining as usize,
                stats,
            });
        }
    }

    for cycle in start_cycle..config.max_cycles {
        if at_fixpoint {
            break;
        }
        if state.k_remaining() == 0 {
            break;
        }
        let mut changed = false;

        // --- Grow pass (Lemma 4.3). ---
        let undecided = state.undecided(n);
        if undecided.is_empty() {
            break;
        }
        grow_rounds += 1;
        pass += 1;
        let k_rem = state.k_remaining();
        let spec = PassSpec {
            pass,
            phase: 0,
            k_effective: k_rem,
            q: completion_ratio(k_rem, undecided.len()),
            exact,
            grow: true,
        };
        let result = {
            let _pass_span = submod_obs::span("bound.pass.grow");
            backend.run_pass(&state, &undecided, spec)?
        };
        stats.observe_pass(
            result.driver_bytes,
            result.candidates.len(),
            state.state_bytes(undecided.len()) + backend.state_bytes(),
        );
        for node in decide_grow(result.candidates, k_rem) {
            state.included.insert(NodeId::new(node));
            changed = true;
        }
        if state.k_remaining() == 0 {
            break;
        }

        // --- Shrink pass (Lemma 4.4 exactly; Def. 4.5 under sampling). ---
        let undecided = state.undecided(n);
        if undecided.is_empty() {
            break;
        }
        shrink_rounds += 1;
        pass += 1;
        let k_rem = state.k_remaining();
        // The exact threshold is the k-th largest worst case; the
        // approximate one keeps a SAFETY_POOL_FACTOR·k expected-best pool.
        let k_effective = if exact { k_rem } else { SAFETY_POOL_FACTOR * k_rem };
        let spec = PassSpec {
            pass,
            phase: 1,
            k_effective,
            q: completion_ratio(k_rem, undecided.len()),
            exact,
            grow: false,
        };
        let result = {
            let _pass_span = submod_obs::span("bound.pass.shrink");
            backend.run_pass(&state, &undecided, spec)?
        };
        stats.observe_pass(
            result.driver_bytes,
            result.candidates.len(),
            state.state_bytes(undecided.len()) + backend.state_bytes(),
        );
        let max_excludable = undecided.len().saturating_sub(k_rem);
        for node in decide_shrink(result.candidates, max_excludable) {
            state.excluded.insert(NodeId::new(node));
            changed = true;
        }

        if let Some(j) = journal.as_deref_mut() {
            j.append_sync(&Record::BoundingCycle {
                cycle: (cycle + 1) as u64,
                changed,
                grow_rounds: grow_rounds as u64,
                shrink_rounds: shrink_rounds as u64,
                pass,
                stats: crate::journal::snapshot_bounding(&stats),
                included: state.included.iter().map(|v| v.raw()).collect(),
                excluded_words: state.excluded.words().to_vec(),
            })?;
            submod_obs::faults::maybe_crash_after_round((cycle + 1) as u64);
        }

        if !changed {
            break;
        }
    }

    // A complete bounding (budget fully included) has implicitly decided
    // every still-open point *out* of the subset.
    if state.k_remaining() == 0 {
        for v in state.undecided(n) {
            state.excluded.insert(v);
        }
    }
    let included: Vec<NodeId> = state.included.iter().collect();
    let remaining = state.undecided(n);
    let k_remaining = state.k_remaining();
    if let Some(j) = journal {
        j.append_sync(&Record::BoundingDone {
            grow_rounds: grow_rounds as u64,
            shrink_rounds: shrink_rounds as u64,
            k_remaining: k_remaining as u64,
            included: included.iter().map(|v| v.raw()).collect(),
            excluded_words: state.excluded.words().to_vec(),
        })?;
    }
    Ok(BoundingOutcome {
        excluded_count: state.excluded.len(),
        included,
        remaining,
        grow_rounds,
        shrink_rounds,
        k_remaining,
        stats,
    })
}

/// The uniform-completion ratio `q = k_rem / |undecided|` of Def. 4.5.
fn completion_ratio(k_remaining: usize, undecided_len: usize) -> f64 {
    if undecided_len == 0 {
        0.0
    } else {
        (k_remaining as f64 / undecided_len as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use submod_core::GraphBuilder;

    /// The outcome without its driver-dependent stats.
    fn decisions(outcome: BoundingOutcome) -> BoundingOutcome {
        BoundingOutcome { stats: BoundingStats::default(), ..outcome }
    }

    fn figure1_instance() -> (SimilarityGraph, PairwiseObjective) {
        // The paper's Figure 1 layout: two similar pairs plus two loners.
        let mut b = GraphBuilder::new(6);
        b.add_undirected(0, 1, 0.8).unwrap();
        b.add_undirected(2, 3, 0.7).unwrap();
        b.add_undirected(1, 2, 0.3).unwrap();
        let graph = b.build();
        let objective =
            PairwiseObjective::from_alpha(0.7, vec![0.9, 0.6, 0.8, 0.5, 0.75, 0.1]).unwrap();
        (graph, objective)
    }

    #[test]
    fn exact_bounding_is_sound_on_figure_1() {
        let (graph, objective) = figure1_instance();
        let outcome = bound_in_memory(&graph, &objective, 3, &BoundingConfig::exact()).unwrap();
        // Sound inclusions must appear in the centralized greedy solution.
        let central = submod_core::greedy_select(&graph, &objective, 3).unwrap();
        for v in &outcome.included {
            assert!(central.selected().contains(v), "included {v} not in greedy solution");
        }
        // Sound exclusions must not.
        let undecided: std::collections::HashSet<u64> =
            outcome.remaining.iter().map(|v| v.raw()).collect();
        for v in central.selected() {
            assert!(
                outcome.included.contains(v) || undecided.contains(&v.raw()),
                "greedy pick {v} was excluded"
            );
        }
        assert_eq!(outcome.k_remaining, 3 - outcome.included.len());
        assert!(outcome.decision_fraction(6) > 0.0);
    }

    #[test]
    fn bookkeeping_adds_up() {
        let (graph, objective) = figure1_instance();
        let outcome = bound_in_memory(&graph, &objective, 3, &BoundingConfig::exact()).unwrap();
        assert_eq!(
            outcome.included.len() + outcome.excluded_count + outcome.remaining.len(),
            graph.num_nodes()
        );
        assert!(outcome.remaining.len() >= outcome.k_remaining);
        assert!(outcome.remaining.windows(2).all(|w| w[0] < w[1]), "remaining sorted");
        assert!(outcome.included.windows(2).all(|w| w[0] < w[1]), "included sorted");
    }

    #[test]
    fn approximate_bounding_is_deterministic_per_seed() {
        let (graph, objective) = figure1_instance();
        let config = BoundingConfig::approximate(0.6, SamplingStrategy::Uniform, 5).unwrap();
        let a = bound_in_memory(&graph, &objective, 3, &config).unwrap();
        let b = bound_in_memory(&graph, &objective, 3, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_and_uniform_sampling_both_run() {
        let (graph, objective) = figure1_instance();
        for strategy in [SamplingStrategy::Uniform, SamplingStrategy::Weighted] {
            let config = BoundingConfig::approximate(0.5, strategy, 7).unwrap();
            let outcome = bound_in_memory(&graph, &objective, 3, &config).unwrap();
            assert!(outcome.remaining.len() >= outcome.k_remaining);
        }
    }

    #[test]
    fn dataflow_matches_in_memory_exactly() {
        let (graph, objective) = figure1_instance();
        let pipeline = Pipeline::new(3).unwrap();
        for config in [
            BoundingConfig::exact(),
            BoundingConfig::approximate(0.5, SamplingStrategy::Uniform, 3).unwrap(),
            BoundingConfig::approximate(0.5, SamplingStrategy::Weighted, 3).unwrap(),
        ] {
            let mem = bound_in_memory(&graph, &objective, 3, &config).unwrap();
            let df = bound_dataflow(&pipeline, &graph, &objective, 3, &config).unwrap();
            assert_eq!(decisions(mem), decisions(df));
        }
    }

    #[test]
    fn dataflow_driver_collects_only_candidates() {
        let (graph, objective) = figure1_instance();
        let pipeline = Pipeline::new(3).unwrap();
        let config = BoundingConfig::exact();
        let mem = bound_in_memory(&graph, &objective, 3, &config).unwrap();
        let df = bound_dataflow(&pipeline, &graph, &objective, 3, &config).unwrap();
        let (mem_stats, df_stats) = (mem.stats, df.stats);
        assert_eq!(decisions(mem), decisions(df));
        assert_eq!(mem_stats.passes, df_stats.passes);
        assert_eq!(mem_stats.peak_candidates, df_stats.peak_candidates);
        // The in-memory driver pays for the full table; the dataflow
        // driver only for candidate lists.
        assert!(mem_stats.peak_pass_bytes > df_stats.peak_pass_bytes);
        assert_eq!(
            df_stats.peak_pass_bytes,
            (df_stats.peak_candidates * size_of::<(u64, f64)>()) as u64
        );
        // The status side-inputs were broadcast and metered.
        assert!(pipeline.metrics().bytes_broadcast > 0);
    }

    #[test]
    fn validation_errors() {
        let (graph, objective) = figure1_instance();
        assert!(bound_in_memory(&graph, &objective, 7, &BoundingConfig::exact()).is_err());
        let wrong = PairwiseObjective::from_alpha(0.7, vec![1.0; 4]).unwrap();
        assert!(bound_in_memory(&graph, &wrong, 2, &BoundingConfig::exact()).is_err());
    }

    #[test]
    fn zero_budget_is_complete_immediately() {
        let (graph, objective) = figure1_instance();
        let outcome = bound_in_memory(&graph, &objective, 0, &BoundingConfig::exact()).unwrap();
        assert!(outcome.is_complete());
        assert!(outcome.included.is_empty());
    }

    /// A seeded graph over `n` nodes: undirected, or with every edge from
    /// the lower id to the higher, so no in-neighbour is a neighbour and
    /// marking through a changed node's own edges would miss every stale
    /// node.
    fn seeded_instance(
        n: usize,
        directed: bool,
        seed: u64,
    ) -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(n);
        let mut s = seed;
        for _ in 0..4 * n {
            s = submod_dataflow::mix_seed_key(s, 1);
            let (v, w) = ((s >> 8) % n as u64, (s >> 40) % n as u64);
            let weight = (s % 7) as f32 / 8.0;
            if v != w {
                let _ = if directed {
                    b.add_directed(v.min(w), v.max(w), weight)
                } else {
                    b.add_undirected(v, w, weight)
                };
            }
        }
        let utilities =
            (0..n as u64).map(|i| (submod_dataflow::mix_seed_key(seed, i) % 5) as f32 / 4.0);
        (b.build(), PairwiseObjective::from_alpha(0.8, utilities.collect()).unwrap())
    }

    /// Every undecided node with a neighbour whose status changed since
    /// the last pass is dirty. When the changed nodes mark their
    /// neighbours (few changes, a symmetric graph) those are the
    /// only dirty nodes; otherwise every undecided node is.
    #[test]
    fn dirty_nodes_are_those_with_a_changed_neighbour() {
        for directed in [false, true] {
            let (graph, objective) = seeded_instance(90, directed, 3);
            assert_eq!(graph.is_symmetric(), !directed);
            let n = graph.num_nodes();
            let mut backend = InMemoryBackend::new(&graph, &objective, BoundingMode::Exact);
            let mut state = State { included: NodeSet::new(n), excluded: NodeSet::new(n), k: 40 };
            let spec =
                PassSpec { pass: 1, phase: 0, k_effective: 5, q: 0.5, exact: true, grow: true };
            let mut s = 17u64;
            for decisions in [80usize, 1, 3, 0, 12, 2] {
                let undecided = state.undecided(n);
                backend.run_pass(&state, &undecided, spec).unwrap();
                let before = (state.included.clone(), state.excluded.clone());
                for i in 0..decisions {
                    s = submod_dataflow::mix_seed_key(s, 2);
                    let v = undecided[s as usize % undecided.len()];
                    if state.included.contains(v) || state.excluded.contains(v) {
                        continue;
                    }
                    if i % 2 == 0 {
                        state.included.insert(v)
                    } else {
                        state.excluded.insert(v)
                    };
                }
                let changed = |w: &u32| {
                    let w = NodeId::new((*w).into());
                    state.included.contains(w) != before.0.contains(w)
                        || state.excluded.contains(w) != before.1.contains(w)
                };
                let undecided = state.undecided(n);
                let changed_count = n - undecided.len() - before.0.len() - before.1.len();
                let expected: Vec<NodeId> = if directed || changed_count >= undecided.len() {
                    undecided.clone()
                } else {
                    let stale = |v: &NodeId| graph.neighbors(*v).iter().any(changed);
                    undecided.iter().copied().filter(stale).collect()
                };
                assert_eq!(backend.dirty(&state, &undecided).0, expected, "{directed} {decisions}");
            }
        }
    }

    /// The cached in-memory passes decide exactly what the dataflow
    /// driver, which re-derives every node every pass, decides — on graphs
    /// symmetric and not.
    #[test]
    fn cached_bounds_match_full_rederivation() {
        let pipeline = Pipeline::new(3).unwrap();
        for (directed, seed) in [(false, 1u64), (false, 2), (true, 3), (true, 4)] {
            let (graph, objective) = seeded_instance(120, directed, seed);
            for config in [
                BoundingConfig::exact(),
                BoundingConfig::approximate(0.5, SamplingStrategy::Uniform, seed).unwrap(),
            ] {
                let mem = bound_in_memory(&graph, &objective, 20, &config).unwrap();
                let df = bound_dataflow(&pipeline, &graph, &objective, 20, &config).unwrap();
                assert_eq!(mem.stats.passes, df.stats.passes);
                assert_eq!(mem.stats.peak_candidates, df.stats.peak_candidates);
                assert_eq!(decisions(mem), decisions(df), "{directed} {seed}");
            }
        }
    }
}
