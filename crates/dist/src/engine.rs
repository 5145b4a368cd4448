//! The shared per-machine greedy execution backend (paper §4.4 made
//! engine-resident, the greedy counterpart of bounding's `PassBackend`).
//!
//! Partition assignment is a deterministic keyed transform
//! ([`MachineKeying`]): the machine of a node depends only on the keying
//! parameters and the node id, never on sharding, scheduling, or a
//! driver-side permutation. Every machine then runs the centralized
//! priority-queue greedy of `submod_core` on its own partition, with no
//! coordination inside a phase: each pop's still-unselected same-machine
//! neighbours lose `(β/α)·s(winner, ·)` priority (Algorithm 2's decrease).
//! The phase's outcome lists the pops **step-major** — step `t` holds the
//! `t`-th pop of every machine that had one, ascending by machine — which
//! is an accounting order only, since machines never interact.
//!
//! Everything backend-specific hides behind [`MachineGreedyBackend`],
//! whose [`MachineGreedyBackend::phase`] runs a whole phase in one call:
//!
//! - [`InMemoryGreedyBackend`] keys the pool into per-machine local
//!   shards and [`AddressablePq`]s on the driver — the `O(pool)` baseline.
//! - [`DataflowGreedyBackend`] keeps the scored pool inside the engine as
//!   a `(machine, (node, priority))` collection and runs each phase
//!   partition-resident or, when a partition does not fit a worker,
//!   batched through an [`Overlay`] (the crate docs give both rules).
//!
//! Both backends run the same arithmetic in the same order — priorities
//! seed from the utility, every decrease is the single subtraction
//! `p − (β/α)·s(winner, v)` (the graph stores each edge once per
//! direction, deduplicated), and every pop is the addressable queue's over
//! a machine's rows ascending by id — larger priority first, smaller id on
//! ties — so the drivers select **bitwise identical** subsets.

use crate::DistError;
use std::sync::Arc;
use submod_core::{AddressablePq, NodeId, NodeSet, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{DataflowError, PCollection, Pipeline, SideInput};

/// Deterministic machine assignment — the keyed transform both drivers
/// share.
#[derive(Clone, Debug)]
pub(crate) enum MachineKeying {
    /// splitmix64 of `(seed, node)` modulo the machine count.
    Hash {
        /// Mixer seed (varies per round so draws are uncorrelated).
        seed: u64,
        /// Machine count the hash is reduced into.
        machines: u64,
    },
    /// [`MachineKeying::Hash`] with a forced set pinned to machine 0 —
    /// the §6.4 adversarial first round.
    HashForced {
        /// Mixer seed for the unforced nodes.
        seed: u64,
        /// Machine count the hash is reduced into.
        machines: u64,
        /// Nodes concentrated on machine 0.
        forced: Arc<NodeSet>,
    },
    /// Contiguous id chunks of `chunk` nodes — the "arbitrary"
    /// partitions of GreeDi's round plan.
    Contiguous {
        /// Nodes per machine.
        chunk: u64,
    },
}

impl MachineKeying {
    /// The machine that owns node `v`.
    #[inline]
    pub(crate) fn machine_of(&self, v: u64) -> u64 {
        match self {
            MachineKeying::Hash { seed, machines } => {
                submod_dataflow::mix_seed_key(*seed, v) % *machines
            }
            MachineKeying::HashForced { seed, machines, forced } => {
                if forced.contains(NodeId::new(v)) {
                    0
                } else {
                    submod_dataflow::mix_seed_key(*seed, v) % *machines
                }
            }
            MachineKeying::Contiguous { chunk } => v / *chunk,
        }
    }
}

/// A per-machine greedy execution backend: everything that differs
/// between the in-memory reference and the dataflow engine. The round
/// loop, Δ-schedule bookkeeping, and winner accounting downstream are
/// shared, which is what guarantees identical outcomes.
pub(crate) trait MachineGreedyBackend {
    /// Nodes currently in the pool.
    fn pool_len(&self) -> usize;

    /// Runs one phase over a graph of `n` nodes: keys the pool into
    /// `machines` partitions, seeds every candidate's priority with its
    /// utility, runs every machine to `quota` pops (or until its partition
    /// is empty), and keeps only the winners in the pool. The outcome's
    /// `driver_bytes` include what the keying materialized on the driver
    /// (the in-memory baseline pays `O(pool)` there; the engine-resident
    /// backend pays nothing).
    fn phase(
        &mut self,
        keying: MachineKeying,
        machines: usize,
        n: usize,
        quota: usize,
    ) -> Result<PhaseOutcome, DistError>;

    /// Replaces the pool wholesale — the journal-resume entry point. The
    /// ids arrive in the journal's pop order; the backend canonicalizes
    /// (sorts and deduplicates) so the restored pool is exactly the pool
    /// an uninterrupted run would carry into the next round.
    fn restore_pool(&mut self, pool: &[u64]) -> Result<(), DistError>;

    /// Broadcast bytes shipped to workers so far (0 for the in-memory
    /// reference).
    fn bytes_broadcast(&self) -> u64;
}

/// The winners of one phase in selection order (step-major, ascending by
/// machine within a step) plus the step accounting.
pub(crate) struct PhaseOutcome {
    /// Winners in selection order. With one machine this is exactly the
    /// centralized Algorithm-2 pop order.
    pub selected: Vec<NodeId>,
    /// The same winners as a membership set.
    pub members: NodeSet,
    /// Steps that produced at least one winner.
    pub steps: usize,
    /// Largest single-step winner collection.
    pub peak_step_winners: usize,
    /// Driver bytes the phase materialized: the keyed pool, if the
    /// backend keys on the driver, plus every collected row.
    pub driver_bytes: u64,
}

/// Sorted, deduplicated raw ids — the dataflow backend's pool, element
/// for element the members of the in-memory backend's pool bitset, in
/// the same order.
fn canonical_pool(ground: &[NodeId]) -> Vec<u64> {
    let mut pool: Vec<u64> = ground.iter().map(|v| v.raw()).collect();
    pool.sort_unstable();
    pool.dedup();
    pool
}

/// Driver bytes of one collected row: a winner `(machine, (t, node))`
/// or a scanned candidate `(machine, node, priority)`.
const WINNER_ROW_BYTES: usize = size_of::<(u64, u64, f64)>();

/// One machine's domestic adjacency as a local CSR over its ascending
/// bucket `nodes`: row `l` keeps, in order, the `(local target, weight)`
/// edges of `nodes[l]` that stay in the bucket — so a winner's row makes
/// the decreases of its global row, bit for bit, minus other machines'.
struct LocalShard {
    nodes: Vec<u64>,
    offsets: Vec<u64>,
    edges: Vec<(u32, f32)>,
}

impl LocalShard {
    /// The shards of disjoint ascending `buckets`, `local(b, nodes, x)`
    /// giving neighbour `x`'s index in bucket `b` if it has one, for every
    /// `x` that `marks(b, x)` admits. A first pass marks, one bit per entry
    /// walked; the arrays are then sized on the calling thread (a pool
    /// worker's malloc arena keeps its pages after a phase: 1 MiB more RSS
    /// on `graph-mem`); a second pass visits only the marks. Both passes
    /// run in parallel.
    fn build<M, F>(graph: &SimilarityGraph, buckets: Vec<Vec<u64>>, marks: M, local: F) -> Vec<Self>
    where
        M: Fn(usize, u64) -> bool + Sync,
        F: Fn(usize, &[u64], u64) -> Option<u32> + Sync,
    {
        let (csr, neighbors, weights) = graph.csr_parts();
        let row = |v: u64| csr[v as usize] as usize..csr[v as usize + 1] as usize;
        let marked =
            submod_exec::parallel_map(buckets.iter().enumerate().collect(), |(b, nodes)| {
                let walked: usize = nodes.iter().map(|&v| row(v).len()).sum();
                let mut kept = vec![0u64; walked.div_ceil(64)];
                for (i, &x) in nodes.iter().flat_map(|&v| &neighbors[row(v)]).enumerate() {
                    kept[i / 64] |= u64::from(marks(b, x.into())) << (i % 64);
                }
                submod_obs::counter!("greedy.edges_walked").add(walked as u64);
                kept
            });
        let sized = |(nodes, kept): (Vec<u64>, Vec<u64>)| {
            let entries = kept.iter().map(|w| w.count_ones() as usize).sum();
            let offsets = Vec::with_capacity(nodes.len() + 1);
            (LocalShard { nodes, offsets, edges: Vec::with_capacity(entries) }, kept)
        };
        let mut shards: Vec<_> = buckets.into_iter().zip(marked).map(sized).collect();
        submod_exec::parallel_map(shards.iter_mut().enumerate().collect(), |(b, (shard, kept))| {
            let (LocalShard { nodes, offsets, edges }, mut end) = (shard, 0);
            offsets.push(0);
            for &v in nodes.iter() {
                let (row, first, mut j) = (row(v), end, end);
                end += row.len();
                while j < end {
                    let word = kept[j / 64] >> (j % 64);
                    j += if word == 0 { 64 - j % 64 } else { word.trailing_zeros() as usize };
                    if word != 0 && j < end {
                        let e = row.start + j - first;
                        if let Some(l) = local(b, nodes, neighbors[e].into()) {
                            edges.push((l, weights[e]));
                        }
                        j += 1;
                    }
                }
                offsets.push(edges.len() as u64);
            }
            submod_obs::counter!("greedy.edges_local").add(edges.len() as u64);
        });
        shards.into_iter().map(|(shard, _)| shard).collect()
    }

    /// The shard of machine `m`'s ascending bucket under `keying`, as a
    /// worker builds it: the first pass marks the neighbours the keying puts
    /// on `m` (an upper bound on the entries unless the pool is the whole
    /// graph), and only those search the bucket.
    fn partition(graph: &SimilarityGraph, nodes: Vec<u64>, keying: &MachineKeying, m: u64) -> Self {
        let local = |_, nodes: &[u64], x| nodes.binary_search(&x).ok().map(|l| l as u32);
        Self::build(graph, vec![nodes], |_, x| keying.machine_of(x) == m, local).remove(0)
    }

    /// The shards of disjoint ascending `buckets`, through a dense node →
    /// position table over the buckets laid end to end (4 B per graph node,
    /// dropped on return): a neighbour is in a bucket iff its position is.
    fn indexed(graph: &SimilarityGraph, buckets: Vec<Vec<u64>>) -> Vec<Self> {
        let (mut slots, mut starts) = (vec![u32::MAX; graph.num_nodes()], vec![0]);
        for bucket in &buckets {
            let start = *starts.last().expect("starts at 0");
            (start..).zip(bucket).for_each(|(l, &v)| slots[v as usize] = l);
            starts.push(start + bucket.len() as u32);
        }
        let position = |b: usize, x: u64| slots[x as usize].wrapping_sub(starts[b]);
        let marks = |b, x| position(b, x) < starts[b + 1] - starts[b];
        Self::build(graph, buckets, marks, |b, _, x| Some(position(b, x)))
    }
}

/// Runs one machine to completion: up to `quota` pops off `pq`, each
/// winner walking its `shard` row so every still-enqueued neighbour loses
/// `(β/α)·s` (Algorithm 2's decrease). Returns the winners in pop order —
/// the `t`-th entry is the machine's step-`t` winner.
///
/// This is the only pop/decrease loop of the distributed drivers: the
/// in-memory and resident phases and the final trim (GreeDi's merge is
/// the trim of its one round) all run it.
fn run_machine(shard: &LocalShard, pq: &mut AddressablePq, ratio: f64, quota: usize) -> Vec<u64> {
    let mut sequence = Vec::with_capacity(quota.min(shard.nodes.len()));
    for _ in 0..quota {
        let Some((local, _priority)) = pq.pop_max() else { break };
        sequence.push(shard.nodes[local as usize]);
        let row =
            shard.offsets[local as usize] as usize..shard.offsets[local as usize + 1] as usize;
        for &(l, s) in &shard.edges[row] {
            // `contains` is false for popped nodes.
            if pq.contains(l) {
                pq.decrease_by(l, ratio * f64::from(s));
            }
        }
    }
    sequence
}

/// Greedy over a single pool on the driver — the final trim of the round
/// loop, which for GreeDi is its merge: `pool` sorted ascending,
/// priorities seeded from the utilities, then [`run_machine`] for `quota`
/// pops over the pool's shard. Pops with negative priority count like any other, as
/// in `greedy_select`; so do ties, which break toward the smaller id.
/// `pool` holds distinct ids. Returns the winners in pop order. Its bytes
/// (a 4 B-per-graph-node index, dropped before the first pop, then the
/// shard plus 24 B per pool node) are outside `GreedyStats` and
/// `MergeStats`, whose docs say why.
pub(crate) fn machine_select(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    pool: &mut [NodeId],
    quota: usize,
) -> Vec<NodeId> {
    pool.sort_unstable();
    if quota == 0 || pool.is_empty() {
        return Vec::new();
    }
    let shard = LocalShard::indexed(graph, vec![pool.iter().map(|v| v.raw()).collect()]).remove(0);
    let mut queue =
        AddressablePq::with_priorities(pool.iter().map(|&v| objective.utility(v)).collect());
    run_machine(&shard, &mut queue, objective.ratio(), quota).into_iter().map(NodeId::new).collect()
}

/// Reassembles per-machine pop sequences (ascending by machine) into a
/// phase's step-major outcome: step `t` collects the `t`-th pop of every
/// machine that still had one, and the driver is charged one winner row
/// per pop.
fn step_major(n: usize, sequences: &[Vec<u64>]) -> PhaseOutcome {
    let mut outcome = PhaseOutcome {
        selected: Vec::new(),
        members: NodeSet::new(n),
        steps: 0,
        peak_step_winners: 0,
        driver_bytes: 0,
    };
    let longest = sequences.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..longest {
        let before = outcome.selected.len();
        for sequence in sequences {
            if let Some(&node) = sequence.get(step) {
                outcome.selected.push(NodeId::new(node));
                outcome.members.insert(NodeId::new(node));
            }
        }
        outcome.steps += 1;
        outcome.peak_step_winners = outcome.peak_step_winners.max(outcome.selected.len() - before);
    }
    outcome.driver_bytes = (outcome.selected.len() * WINNER_ROW_BYTES) as u64;
    outcome
}

/// The in-memory reference: buckets and per-machine priority queues live
/// on the driver (`O(pool)` per phase — the baseline the engine-resident
/// driver is measured against). Buckets are ascending by id, so the
/// queue's smaller-local-index tie-break is a smaller-node-id tie-break.
pub(crate) struct InMemoryGreedyBackend<'a> {
    graph: &'a SimilarityGraph,
    objective: &'a PairwiseObjective,
    /// The pool as a bitset: the buckets and shards a phase builds from
    /// it are the `O(pool)` part.
    pool: NodeSet,
}

impl<'a> InMemoryGreedyBackend<'a> {
    pub(crate) fn new(
        graph: &'a SimilarityGraph,
        objective: &'a PairwiseObjective,
        ground: &[NodeId],
    ) -> Self {
        InMemoryGreedyBackend {
            graph,
            objective,
            pool: NodeSet::from_members(graph.num_nodes(), ground.iter().copied()),
        }
    }
}

impl MachineGreedyBackend for InMemoryGreedyBackend<'_> {
    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn phase(
        &mut self,
        keying: MachineKeying,
        machines: usize,
        n: usize,
        quota: usize,
    ) -> Result<PhaseOutcome, DistError> {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); machines];
        for v in self.pool.iter().map(NodeId::raw) {
            buckets[keying.machine_of(v) as usize].push(v);
        }
        let (graph, objective) = (self.graph, self.objective);
        let queues: Vec<AddressablePq> = buckets
            .iter()
            .map(|bucket| {
                AddressablePq::with_priorities(
                    bucket.iter().map(|&v| objective.utility(NodeId::new(v))).collect(),
                )
            })
            .collect();
        let shards = LocalShard::indexed(graph, buckets);
        // Buckets (8 B/node) plus queue state (8 B priority + two 4 B
        // heap slots per node) — the O(pool) driver materialization.
        let keyed = self.pool.len() * (size_of::<u64>() + size_of::<f64>() + 2 * size_of::<u32>());
        // Machines never interact within a phase (disjoint buckets and
        // queues, decreases never cross a machine), so each runs its whole
        // pop/decrease sequence independently: one coarse-grained
        // `parallel_map` region per phase.
        let ratio = objective.ratio();
        let sequences =
            submod_exec::parallel_map(shards.iter().zip(queues).collect(), |(shard, mut queue)| {
                run_machine(shard, &mut queue, ratio, quota)
            });
        let outcome = step_major(n, &sequences);
        self.pool = outcome.members.clone();
        Ok(PhaseOutcome { driver_bytes: keyed as u64 + outcome.driver_bytes, ..outcome })
    }

    fn restore_pool(&mut self, pool: &[u64]) -> Result<(), DistError> {
        self.pool =
            NodeSet::from_members(self.graph.num_nodes(), pool.iter().map(|&v| NodeId::new(v)));
        Ok(())
    }

    fn bytes_broadcast(&self) -> u64 {
        0
    }
}

/// The engine-resident driver: the scored pool is born, lives, and dies
/// inside the dataflow engine as a `(machine, (node, priority))`
/// collection, and the driver collects **only winner rows** — never
/// `O(partition)`. A phase runs one of two ways, chosen per round by
/// [`Self::partitions_fit`], never by a setting:
///
/// - **resident** ([`Self::phase_resident`]): every partition fits one
///   worker, so the table is grouped by machine once and each worker runs
///   its machines' queues to completion — one shuffle and one parallel
///   map per round, the paper's §5 deployment;
/// - **batched** ([`Self::phase_batched`]): the over-budget fallback, one
///   engine scan per batch of the pops its shipped rows certify.
///
/// Both select exactly what the in-memory backend selects.
pub(crate) struct DataflowGreedyBackend<'a> {
    pipeline: &'a Pipeline,
    graph: &'a SimilarityGraph,
    objective: &'a PairwiseObjective,
    pool: PCollection<u64>,
    /// Driver-side pool length (maintained across phases so the round
    /// loop never counts the engine-resident collection).
    pool_len: usize,
    broadcast_base: u64,
    /// Rows each shard of a batched scan ships at least, and the rank of
    /// sweep 1's threshold τ (at least 1).
    winner_batch: usize,
}

/// Bytes one partition row costs the worker that runs its machine
/// resident, besides its shard entries: the grouped `(node, priority)` row
/// (16 B), the bucket's node id (8 B), the queue's priority plus heap and
/// position slots (8 + 4 + 4 B), and the shard's row offset (8 B).
const RESIDENT_BYTES_PER_ROW: u64 = 48;

/// Bytes of one shard entry: a `u32` local target and an `f32` weight.
const SHARD_BYTES_PER_ENTRY: u64 = 8;

/// One scored-pool row: `(machine, (node, priority))`.
type ScoredRow = (u64, (u64, f64));

/// A scored row as a scan ships it: `(machine, node, priority)`.
type Candidate = (u64, u64, f64);

/// A free [`Overlay`] slot (no graph has `u64::MAX` nodes).
const EMPTY: u64 = u64::MAX;

/// The [`Overlay`] event of a winner leaving its pool (similarities are
/// never negative).
const LEAVES: f32 = -1.0;

/// The winners and discounts since the table's last rewrite, as every
/// worker holds them: `(node, event)` slots under a fixed multiplicative
/// hash with linear probing (no `RandomState`), an event being a discount
/// weight or [`LEAVES`], plus the machines at quota. Slots never move, so
/// a node's events lie along its probe run in pop order, and a row no
/// winner touched costs one short probe.
struct Overlay {
    /// Slot keys, [`EMPTY`] when free; a power of two, at most half full.
    nodes: Vec<u64>,
    events: Vec<f32>,
    len: usize,
    /// Machines at quota, whose rows are all dead.
    done: Vec<bool>,
}

impl Overlay {
    fn new(machines: usize) -> Self {
        Overlay { nodes: vec![EMPTY; 2], events: vec![0.0; 2], len: 0, done: vec![false; machines] }
    }

    /// Resident bytes once `more` events are added.
    fn bytes_with(&self, more: usize) -> u64 {
        let slots = self.nodes.len().max((2 * (self.len + more)).next_power_of_two());
        (slots * (size_of::<u64>() + size_of::<f32>()) + self.done.len()) as u64
    }

    fn home(&self, node: u64) -> usize {
        (node.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.nodes.len() - 1)
    }

    fn push(&mut self, node: u64, event: f32) {
        if 2 * (self.len + 1) > self.nodes.len() {
            // Re-insert from an empty slot on: no probe run crosses it, so
            // every node's events keep their order.
            let start = self.nodes.iter().position(|&n| n == EMPTY).expect("half empty");
            let size = 2 * self.nodes.len();
            let mut nodes = std::mem::replace(&mut self.nodes, vec![EMPTY; size]);
            let mut events = std::mem::replace(&mut self.events, vec![0.0; size]);
            nodes.rotate_left(start);
            events.rotate_left(start);
            self.len = 0;
            for (node, event) in nodes.into_iter().zip(events).filter(|s| s.0 != EMPTY) {
                self.push(node, event);
            }
        }
        let mut slot = self.home(node);
        while self.nodes[slot] != EMPTY {
            slot = (slot + 1) & (self.nodes.len() - 1);
        }
        (self.nodes[slot], self.events[slot]) = (node, event);
        self.len += 1;
    }

    /// A row's corrected priority, or `None` for a dead row: `p` minus
    /// `ratio · w` for each of the node's discounts in pop order — the
    /// subtractions, in order, of a rewrite after every batch.
    #[inline]
    fn correct(&self, machine: u64, node: u64, mut p: f64, ratio: f64) -> Option<f64> {
        if self.done[machine as usize] {
            return None;
        }
        let mut slot = self.home(node);
        while self.nodes[slot] != EMPTY {
            if self.nodes[slot] == node {
                if self.events[slot] == LEAVES {
                    return None;
                }
                p -= ratio * f64::from(self.events[slot]);
            }
            slot = (slot + 1) & (self.nodes.len() - 1);
        }
        Some(p)
    }
}

/// One engine scan of `table` through `overlay`: the live rows per
/// machine, every shard's rows ≥ (IEEE) its running floor — the
/// `batch`-th largest of the rows it kept so far, re-derived at `limit` —
/// and the proof floor. A floor never exceeds its shard's final
/// `batch`-th largest, nor that the global τ, so the shards reject rows on
/// one comparison, like `TopK::offer`, and still ship every live row ≥ τ.
/// A shard rejects only rows below its floor, which only rises, so no
/// live row ≥ the proof floor, the largest final floor, stays behind; it
/// is −∞ when every live row came back.
fn scan(
    table: &PCollection<ScoredRow>,
    overlay: &Overlay,
    ratio: f64,
    batch: usize,
) -> Result<(Vec<u64>, Vec<Candidate>, f64), DistError> {
    let init = (vec![0u64; overlay.done.len()], Vec::new(), f64::NEG_INFINITY, 2 * batch);
    let (live, top, floor, _) = table.aggregate(
        init,
        |(mut live, mut top, mut floor, mut limit), (machine, (v, p))| {
            if let Some(p) = overlay.correct(machine, v, p, ratio) {
                live[machine as usize] += 1;
                if p >= floor {
                    top.push((machine, v, p));
                }
                if top.len() >= limit {
                    floor = keep_top(&mut top, batch);
                    limit = 2 * top.len().max(batch);
                }
            }
            (live, top, floor, limit)
        },
        |(mut live, mut top, floor, limit), (more_live, more, more_floor, _)| {
            live.iter_mut().zip(more_live).for_each(|(a, b)| *a += b);
            top.extend(more);
            (live, top, floor.max(more_floor), limit)
        },
    )?;
    let complete = top.len() as u64 == live.iter().sum::<u64>();
    Ok((live, top, if complete { f64::NEG_INFINITY } else { floor }))
}

/// The `k`-th largest priority of `rows` (which it reorders), taken in
/// `f64::total_cmp` order like `kth_largest`, bit for bit.
fn kth(rows: &mut [Candidate], k: usize) -> f64 {
    rows.select_nth_unstable_by(k - 1, |a, b| b.2.total_cmp(&a.2)).1 .2
}

/// Keeps the rows ≥ (IEEE) the `k`-th largest priority and returns it.
fn keep_top(rows: &mut Vec<Candidate>, k: usize) -> f64 {
    let kth = kth(rows, k);
    rows.retain(|r| r.2 >= kth);
    kth
}

impl<'a> DataflowGreedyBackend<'a> {
    pub(crate) fn new(
        pipeline: &'a Pipeline,
        graph: &'a SimilarityGraph,
        objective: &'a PairwiseObjective,
        ground: &[NodeId],
        winner_batch: usize,
    ) -> Self {
        let ids = canonical_pool(ground);
        let pool_len = ids.len();
        let pool = pipeline.from_vec(ids);
        let broadcast_base = pipeline.metrics().bytes_broadcast;
        DataflowGreedyBackend {
            pipeline,
            graph,
            objective,
            pool,
            pool_len,
            broadcast_base,
            winner_batch,
        }
    }

    /// Whether the largest partition of this phase, run resident, fits
    /// one worker: `rows × RESIDENT_BYTES_PER_ROW` plus
    /// `SHARD_BYTES_PER_ENTRY` per same-machine neighbour (exact when the
    /// pool is the whole graph, an upper bound otherwise) against the
    /// pipeline's per-worker budget. The largest partition holds at least
    /// the mean (pigeonhole), so an unlimited budget, or a mean that is
    /// already over, decides without looking; otherwise one
    /// `aggregate_per_key` pass sums the partitions exactly.
    fn partitions_fit(
        &self,
        table: &PCollection<ScoredRow>,
        keying: &MachineKeying,
        machines: usize,
    ) -> Result<bool, DistError> {
        let budget = self.pipeline.budget();
        let mean_rows = (self.pool_len as u64).div_ceil(machines as u64);
        let mut footprint = mean_rows * RESIDENT_BYTES_PER_ROW;
        if !budget.is_unlimited() && !budget.exceeded_by(footprint) {
            let (graph, keying) = (self.graph.clone(), keying.clone());
            footprint = table
                .map(move |(machine, (v, _))| {
                    let same = |&&x: &&u32| keying.machine_of(x.into()) == machine;
                    let entries = graph.neighbors(NodeId::new(v)).iter().filter(same).count();
                    (machine, RESIDENT_BYTES_PER_ROW + SHARD_BYTES_PER_ENTRY * entries as u64)
                })?
                .aggregate_per_key(0u64, |bytes, row| bytes + row, |a, b| a + b)?
                .aggregate(0u64, |largest, (_, bytes)| largest.max(bytes), u64::max)?;
        }
        submod_obs::gauge!("greedy.partition_footprint_peak").fetch_max(footprint);
        Ok(!budget.exceeded_by(footprint))
    }

    /// The partition-resident pass: groups the table by machine and runs
    /// every machine's queue to completion inside its worker — the same
    /// [`run_machine`] loop as the in-memory driver, over a shard the
    /// worker builds from the shared (owned or mapped) graph. Workers emit
    /// `(machine, (t, node))` for the machine's `t`-th pop; the driver
    /// collects only those rows.
    fn phase_resident(
        &self,
        table: &PCollection<ScoredRow>,
        keying: &MachineKeying,
        n: usize,
        quota: usize,
    ) -> Result<PhaseOutcome, DistError> {
        let _span = submod_obs::span("greedy.resident_pass");
        let (pipeline, graph, keying, ratio) =
            (self.pipeline.clone(), self.graph.clone(), keying.clone(), self.objective.ratio());
        let mut rows: Vec<(u64, (u64, u64))> = table
            .group_by_key()?
            .flat_map(move |(machine, mut group)| {
                // Ascending by node id, so the queue's smaller-local-index
                // tie-break is the in-memory bucket's.
                group.sort_unstable_by_key(|&(node, _)| node);
                let (bucket, priorities): (Vec<u64>, Vec<f64>) = group.into_iter().unzip();
                let shard = LocalShard::partition(&graph, bucket, &keying, machine);
                let (rows, entries) = (shard.nodes.len() as u64, shard.edges.len() as u64);
                pipeline.observe_worker_bytes(
                    rows * RESIDENT_BYTES_PER_ROW + entries * SHARD_BYTES_PER_ENTRY,
                );
                let mut queue = AddressablePq::with_priorities(priorities);
                run_machine(&shard, &mut queue, ratio, quota)
                    .into_iter()
                    .enumerate()
                    .map(move |(t, node)| (machine, (t as u64, node)))
            })?
            .collect()?;
        rows.sort_unstable();
        let sequences: Vec<Vec<u64>> = rows
            .chunk_by(|a, b| a.0 == b.0)
            .map(|machine| machine.iter().map(|&(_, (_, node))| node).collect())
            .collect();
        Ok(step_major(n, &sequences))
    }

    /// Adds shipped events and the machines now at quota to `overlay`,
    /// charging its resident size to the worker peak.
    fn record(&self, overlay: &mut Overlay, events: SideInput<(u64, f32)>, done: Vec<u64>) {
        events.get().iter().for_each(|&(node, event)| overlay.push(node, event));
        self.pipeline.broadcast(done).get().iter().for_each(|&m| overlay.done[m as usize] = true);
        self.pipeline.observe_worker_bytes(overlay.bytes_with(0));
        submod_obs::gauge!("greedy.overlay_bytes_peak").fetch_max(overlay.bytes_with(0));
    }

    /// Folds `overlay` into the table in one fused pass — dead rows drop
    /// out, live rows take their discounts — and `materialize()`s it, which
    /// also cuts the chain's ancestry.
    fn rewrite(
        &self,
        table: &PCollection<ScoredRow>,
        overlay: Overlay,
    ) -> Result<PCollection<ScoredRow>, DistError> {
        submod_obs::counter!("greedy.overlay_rewrites").incr();
        let (overlay, ratio) = (Arc::new(overlay), self.objective.ratio());
        let table = table.flat_map(move |(machine, (v, p))| {
            overlay.correct(machine, v, p, ratio).map(|p| (machine, (v, p)))
        })?;
        Ok(table.materialize()?)
    }

    /// The batched pass: each engine [`scan`] ships every live row ≥ its
    /// proof floor, and the driver replays each machine's shipped rows
    /// from an [`AddressablePq`] in its pop order, certifying a
    /// pop while its corrected priority stays ≥ the floor (every row left
    /// in the engine started below it and only decreases). Sweep 1 pops the
    /// rows ≥ τ, the batch-th largest shipped priority; sweep 2 goes on down
    /// to the floor while the scan's overlay events fit a fresh [`Overlay`]
    /// within the worker budget. Each winner's row is walked once, for its
    /// events and its discounts; the winners reach the table through the
    /// overlay.
    fn phase_batched(
        &self,
        mut table: PCollection<ScoredRow>,
        keying: &MachineKeying,
        machines: usize,
        n: usize,
        quota: usize,
    ) -> Result<PhaseOutcome, DistError> {
        let (ratio, batch, budget) =
            (self.objective.ratio(), self.winner_batch, self.pipeline.budget());
        // Per-machine pop sequences, reassembled step-major at the end:
        // machine `m`'s `t`-th pop is its step-`t` winner, exactly like
        // the in-memory phase.
        let mut sequences: Vec<Vec<u64>> = vec![Vec::new(); machines];
        let (mut overlay, fresh) = (Overlay::new(machines), Overlay::new(machines));
        let (mut table_rows, mut driver_bytes) = (self.pool_len as u64, 0u64);
        let mut live_rows = if quota > 0 { table_rows } else { 0 };
        while live_rows > 0 {
            let (mut live, mut candidates, floor) = scan(&table, &overlay, ratio, batch)?;
            debug_assert_eq!(live.iter().sum::<u64>(), live_rows, "scan disagrees with replay");
            submod_obs::counter!("greedy.batch_scans").incr();
            let scan_bytes = (candidates.len() * WINNER_ROW_BYTES) as u64;
            submod_obs::gauge!("greedy.scan_bytes_peak").fetch_max(scan_bytes);
            driver_bytes += scan_bytes;
            // When every live row came back ≥ τ, the replay is the rest of
            // the phase: sweep 1 takes it whole and no overlay follows.
            let tau = kth(&mut candidates, batch.min(live_rows as usize));
            let all = floor == f64::NEG_INFINITY && candidates.iter().all(|c| c.2 >= tau);
            let tau = if all { floor } else { tau };
            candidates.sort_unstable_by_key(|&(m, v, _)| (m, v));
            // Ascending ids, so the queue's smaller-index tie-break is the
            // in-memory bucket's; the last field holds the pop a sweep
            // stopped at, with its priority.
            let mut replays: Vec<_> = candidates
                .chunk_by(|a, b| a.0 == b.0)
                .map(|group| {
                    let (ids, priorities): (Vec<u64>, _) =
                        group.iter().map(|&(_, v, p)| (v, p)).unzip();
                    (group[0].0, ids, AddressablePq::with_priorities(priorities), None)
                })
                .collect();
            let mut events: Vec<(u64, f32)> = Vec::new();
            for (threshold, capped) in [(tau, false), (floor, true)] {
                for (machine, ids, queue, held) in &mut replays {
                    let pops = &mut sequences[*machine as usize];
                    while pops.len() < quota {
                        let Some((l, p)) = held.take().or_else(|| queue.pop_max()) else { break };
                        let (winner, mark) = (ids[l as usize], events.len());
                        if p >= threshold {
                            events.push((winner, LEAVES));
                            for (x, s) in self.graph.edges(NodeId::new(winner)) {
                                if keying.machine_of(x.raw()) == *machine {
                                    events.push((x.raw(), s));
                                }
                            }
                        }
                        if p < threshold
                            || capped && budget.exceeded_by(fresh.bytes_with(events.len()))
                        {
                            events.truncate(mark);
                            *held = Some((l, p));
                            break;
                        }
                        // Discounts in pop order: the subtractions the
                        // overlay then replays.
                        for &(x, s) in &events[mark + 1..] {
                            if let Ok(j) = ids.binary_search(&x) {
                                queue.decrease_by(j as u32, ratio * f64::from(s));
                            }
                        }
                        pops.push(winner);
                        live[*machine as usize] -= 1;
                    }
                }
            }
            let mut newly_done: Vec<u64> = Vec::new();
            for &(machine, ..) in &replays {
                if sequences[machine as usize].len() == quota {
                    newly_done.push(machine);
                    live[machine as usize] = 0;
                }
            }
            // Every candidate's machine is live (machines at quota are
            // masked), and its first pop has priority ≥ τ with no discount
            // applied yet, so it is certified: a batch always has winners.
            if events.is_empty() {
                return Err(DistError::Dataflow(DataflowError::InvalidArgument {
                    detail: format!("internal invariant: a batch at τ = {tau} certified no pop"),
                }));
            }
            let scanned = std::mem::replace(&mut live_rows, live.iter().sum());
            if live_rows == 0 {
                break;
            }
            // The overlay rides to every worker, so it may not outgrow one;
            // and a table of mostly dead rows is cheaper rewritten.
            let events = self.pipeline.broadcast(events);
            if budget.exceeded_by(overlay.bytes_with(events.len())) || table_rows > 2 * scanned {
                let full = std::mem::replace(&mut overlay, Overlay::new(machines));
                table = self.rewrite(&table, full)?;
                table_rows = scanned;
            }
            self.record(&mut overlay, events, newly_done);
        }
        // The batched driver pays for every row the scans shipped.
        Ok(PhaseOutcome { driver_bytes, ..step_major(n, &sequences) })
    }
}

impl MachineGreedyBackend for DataflowGreedyBackend<'_> {
    fn pool_len(&self) -> usize {
        self.pool_len
    }

    fn phase(
        &mut self,
        keying: MachineKeying,
        machines: usize,
        n: usize,
        quota: usize,
    ) -> Result<PhaseOutcome, DistError> {
        let (keyed, objective) = (keying.clone(), self.objective.clone());
        // The fit check and the phase read the table (a batched phase once
        // per scan), so it is derived once and materialized.
        let table = self
            .pool
            .map(move |v| (keyed.machine_of(v), (v, objective.utility(NodeId::new(v)))))?
            .materialize()?;
        let outcome = if self.partitions_fit(&table, &keying, machines)? {
            submod_obs::counter!("greedy.phases_resident").incr();
            self.phase_resident(&table, &keying, n, quota)?
        } else {
            submod_obs::counter!("greedy.phases_batched").incr();
            self.phase_batched(table, &keying, machines, n, quota)?
        };
        let keep =
            self.pipeline.broadcast_words(outcome.members.words().to_vec(), self.graph.num_nodes());
        self.pool = self.pool.filter(move |&v| keep.contains(v))?;
        self.pool_len = self.pool.count()? as usize;
        Ok(outcome)
    }

    fn restore_pool(&mut self, pool: &[u64]) -> Result<(), DistError> {
        let mut ids = pool.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.pool_len = ids.len();
        self.pool = self.pipeline.from_vec(ids);
        Ok(())
    }

    fn bytes_broadcast(&self) -> u64 {
        self.pipeline.metrics().bytes_broadcast - self.broadcast_base
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use submod_core::GraphBuilder;

    fn instance(n: usize) -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u64 {
            b.add_undirected(v, (v + 1) % n as u64, 0.4).unwrap();
            b.add_undirected(v, (v + 5) % n as u64, 0.2).unwrap();
        }
        let graph = b.build();
        let utilities: Vec<f32> = (0..n).map(|i| 0.2 + ((i * 7) % 31) as f32 / 31.0).collect();
        (graph, PairwiseObjective::from_alpha(0.85, utilities).unwrap())
    }

    fn ground(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn keying_is_deterministic_and_in_range() {
        let forced = Arc::new(NodeSet::from_members(10, [NodeId::new(7)]));
        let keyings = [
            MachineKeying::Hash { seed: 3, machines: 4 },
            MachineKeying::HashForced { seed: 3, machines: 4, forced },
            MachineKeying::Contiguous { chunk: 3 },
        ];
        for keying in &keyings {
            for v in 0..10u64 {
                let m = keying.machine_of(v);
                assert_eq!(m, keying.machine_of(v));
                assert!(m < 4, "machine {m} out of range for node {v}");
            }
        }
        // The forced node lands on machine 0 regardless of its hash.
        assert_eq!(keyings[1].machine_of(7), 0);
        assert_eq!(keyings[2].machine_of(5), 1);
    }

    /// `backend`'s phase over the 30-node instance under a fixed 4-machine
    /// hash keying; the phase leaves only its winners in the pool.
    fn hashed_phase(backend: &mut dyn MachineGreedyBackend, quota: usize) -> PhaseOutcome {
        let keying = MachineKeying::Hash { seed: 7, machines: 4 };
        let outcome = backend.phase(keying, 4, 30, quota).unwrap();
        assert_eq!(backend.pool_len(), outcome.selected.len(), "pool after quota {quota}");
        outcome
    }

    /// A pipeline whose budget is below a one-row partition, so every
    /// phase over a non-empty pool takes the over-budget fallback.
    fn starved_pipeline() -> Pipeline {
        let budget = submod_dataflow::MemoryBudget::bytes(RESIDENT_BYTES_PER_ROW - 1);
        Pipeline::builder().workers(3).memory_budget(budget).build().unwrap()
    }

    /// The tests that run the batched path, in any module, hold this lock,
    /// so the process-wide `greedy.*` metrics they read (a delta, or a
    /// gauge since `reset_metrics`) belong to one run.
    pub(crate) fn batched_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The in-memory, resident and batched phases pop the same winners in
    /// the same step-major order. The resident pass collects exactly the
    /// in-memory phase's winner rows; the in-memory phase also pays 24 B
    /// per pool node for its keyed buckets and queues.
    #[test]
    fn phases_agree_across_backends() {
        let _lock = batched_lock();
        let (graph, objective) = instance(30);
        let ground = ground(30);
        let batch = crate::DistGreedyConfig::DEFAULT_WINNER_BATCH;
        for quota in [0usize, 1, 3, 8, 50] {
            let mem =
                hashed_phase(&mut InMemoryGreedyBackend::new(&graph, &objective, &ground), quota);
            let pipeline = Pipeline::new(3).unwrap();
            let resident = hashed_phase(
                &mut DataflowGreedyBackend::new(&pipeline, &graph, &objective, &ground, batch),
                quota,
            );
            let winner_rows = (mem.selected.len() * WINNER_ROW_BYTES) as u64;
            assert_eq!(mem.driver_bytes, 30 * 24 + winner_rows, "quota {quota}");
            assert_eq!(resident.driver_bytes, winner_rows, "quota {quota}");
            for width in [1usize, 2, 3, 8, 64] {
                let pipeline = starved_pipeline();
                let batched = hashed_phase(
                    &mut DataflowGreedyBackend::new(&pipeline, &graph, &objective, &ground, width),
                    quota,
                );
                for (path, outcome) in [("resident", &resident), ("batched", &batched)] {
                    let at = format!("{path}, width {width}, quota {quota}");
                    assert_eq!(outcome.selected, mem.selected, "{at}");
                    assert_eq!(outcome.members, mem.members, "{at}");
                    assert_eq!(outcome.steps, mem.steps, "{at}");
                    assert_eq!(outcome.peak_step_winners, mem.peak_step_winners, "{at}");
                }
            }
        }
    }

    /// Three machines of six nodes: four "top" nodes of utility 1 joined by
    /// 0.9-weight edges and two "low" nodes of utility 0.05. With a batch of
    /// one, τ is the tied top priority, every machine's first pop is
    /// certified, and its discounts push every other top candidate below
    /// τ — so each batch certifies exactly one pop per machine, and the
    /// loop advances only because a first pop is always certified.
    #[test]
    fn a_first_pop_is_always_certified() {
        let _lock = batched_lock();
        let mut b = GraphBuilder::new(18);
        for base in [0u64, 6, 12] {
            for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)] {
                b.add_undirected(base + i, base + j, 0.9).unwrap();
            }
        }
        let graph = b.build();
        let utilities = (0..18).map(|i| if i % 6 < 4 { 1.0 } else { 0.05 }).collect();
        let objective = PairwiseObjective::from_alpha(0.85, utilities).unwrap();
        let keying = || MachineKeying::Contiguous { chunk: 6 };
        let pipeline = starved_pipeline();
        let mut df = DataflowGreedyBackend::new(&pipeline, &graph, &objective, &ground(18), 1);
        let scans = submod_obs::counter("greedy.batch_scans").value();
        let batched = df.phase(keying(), 3, 18, 4).unwrap();
        assert_eq!(submod_obs::counter("greedy.batch_scans").value() - scans, 4);
        let mut mem = InMemoryGreedyBackend::new(&graph, &objective, &ground(18));
        let reference = mem.phase(keying(), 3, 18, 4).unwrap();
        assert_eq!(batched.selected, reference.selected);
        assert_eq!((batched.steps, reference.steps), (4, 4));
        let firsts: Vec<u64> = batched.selected.iter().map(|v| v.raw()).collect();
        assert_eq!(firsts, [0, 6, 12, 1, 7, 13, 2, 8, 14, 3, 9, 15]);
    }

    /// Sweep 2 at work, on an instance without priority ties: B = 4 and a
    /// budget that holds sweep 1's events but not those of every pop down
    /// to the proof floor. The scans certify more than B pops each on
    /// average, the overlay never outgrows the budget, and the phase pops
    /// what the in-memory phase pops.
    #[test]
    fn sweep_two_certifies_below_tau_within_the_overlay_budget() {
        let _lock = batched_lock();
        let n = 240u64;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            for (hop, weight) in [(1, 0.31), (7, 0.17), (29, 0.05)] {
                b.add_undirected(v, (v + hop) % n, weight + v as f32 * 1e-4).unwrap();
            }
        }
        let graph = b.build();
        // 37 is prime to 240: distinct utilities.
        let utilities = (0..n).map(|i| 0.5 + ((i * 37) % n) as f32 / n as f32).collect();
        let objective = PairwiseObjective::from_alpha(0.85, utilities).unwrap();
        let keying = || MachineKeying::Hash { seed: 3, machines: 2 };
        let budget = submod_dataflow::MemoryBudget::bytes(1024);
        let pipeline = Pipeline::builder().workers(3).memory_budget(budget).build().unwrap();
        let mut df = DataflowGreedyBackend::new(&pipeline, &graph, &objective, &ground(240), 4);
        submod_obs::reset_metrics();
        let batched = df.phase(keying(), 2, 240, 60).unwrap();
        let scans = submod_obs::counter("greedy.batch_scans").value();
        let overlay = submod_obs::gauge("greedy.overlay_bytes_peak").value();
        let mut mem = InMemoryGreedyBackend::new(&graph, &objective, &ground(240));
        let reference = mem.phase(keying(), 2, 240, 60).unwrap();
        assert_eq!(batched.selected, reference.selected);
        assert_eq!((batched.steps, batched.peak_step_winners), (60, 2));
        let pops = batched.selected.len() as u64;
        assert!(scans * 4 < pops, "{scans} scans of B = 4 certified {pops} pops");
        assert!(0 < overlay && overlay <= 1024, "overlay peak {overlay} over 1 KiB");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-scan selection — per-shard top-`batch` with ties, merged,
        /// then `keep_top` — returns the same τ bits and the same candidate
        /// set as `kth_largest(min(batch, rows))` and a `p >= τ` filter, on
        /// the adversarial palette (the extremes, a denormal, ties), on
        /// all-equal rows, and on signed zeros leading the order, over 1–24
        /// shards, with and without spills.
        #[test]
        fn one_scan_selects_like_kth_largest_and_filter(
            picks in proptest::collection::vec(0usize..12, 1..160),
            shards in 1usize..25,
            batch_pick in 0usize..4,
            mode in 0usize..3,
            spilled in any::<bool>(),
        ) {
            const PALETTE: [f64; 10] = [
                -0.0, 0.0, f64::MIN_POSITIVE / 2.0, f64::MAX, f64::MIN, f64::INFINITY,
                f64::NEG_INFINITY, 1.0, -1.0, 0.5,
            ];
            const ZEROS_FIRST: [f64; 6] =
                [-0.0, 0.0, -0.0, -f64::MIN_POSITIVE / 2.0, -1.0, f64::NEG_INFINITY];
            let rows: Vec<ScoredRow> = picks
                .iter()
                .enumerate()
                .map(|(i, &pick)| {
                    let p = match (mode, pick) {
                        (1, _) => 0.25,
                        (2, pick) => ZEROS_FIRST[pick % ZEROS_FIRST.len()],
                        (_, pick) if pick < PALETTE.len() => PALETTE[pick],
                        _ => i as f64 / 7.0,
                    };
                    (i as u64 % 3, (i as u64, p))
                })
                .collect();
            let batch = [1, 2, 64, rows.len() + 1][batch_pick];
            let budget = if spilled { 64 } else { u64::MAX };
            // `from_vec` cuts one shard per worker.
            let pipeline = Pipeline::builder()
                .workers(shards)
                .memory_budget(submod_dataflow::MemoryBudget::bytes(budget))
                .build()
                .unwrap();
            let n = rows.len();
            let table = pipeline.from_vec(rows.clone()).map(|row| row).unwrap();

            let k = batch.min(n);
            let tau = table.map(|(_, (_, p))| p).unwrap().kth_largest(k as u64).unwrap();
            let mut expected: Vec<Candidate> = table
                .filter(move |&(_, (_, p))| p >= tau)
                .unwrap()
                .collect()
                .unwrap()
                .into_iter()
                .map(|(m, (v, p))| (m, v, p))
                .collect();
            expected.sort_unstable_by_key(|&(m, v, _)| (m, v));

            let (live, mut candidates, floor) = scan(&table, &Overlay::new(3), 1.0, batch).unwrap();
            prop_assert_eq!(live.iter().sum::<u64>(), n as u64);
            let shipped: std::collections::HashSet<u64> = candidates.iter().map(|c| c.1).collect();
            for &(_, (v, p)) in rows.iter().filter(|&&(_, (_, p))| p >= floor) {
                prop_assert!(shipped.contains(&v), "row {} at {} ≥ floor {} unshipped", v, p, floor);
            }
            prop_assert!(floor <= tau, "proof floor {} above τ {}", floor, tau);
            prop_assert_eq!(keep_top(&mut candidates, k).to_bits(), tau.to_bits());
            candidates.sort_unstable_by_key(|&(m, v, _)| (m, v));
            let bits = |rows: &[Candidate]| -> Vec<(u64, u64, u64)> {
                rows.iter().map(|&(m, v, p)| (m, v, p.to_bits())).collect()
            };
            prop_assert_eq!(bits(&candidates), bits(&expected));
        }

        /// Every row the overlay corrects takes exactly its node's events in
        /// push order — across the table's growth, with a few nodes' long
        /// probe runs wrapping around its end — and a machine at quota
        /// reads dead. An event of 0 is a removal.
        #[test]
        fn overlay_applies_each_nodes_events_in_order(
            events in proptest::collection::vec((0u64..8, 0u32..20), 0..300),
        ) {
            let weight = |e: u32| if e == 0 { LEAVES } else { e as f32 / 7.3 };
            let mut overlay = Overlay::new(2);
            for &(node, event) in &events {
                overlay.push(node, weight(event));
            }
            overlay.done[1] = true;
            for node in 0..8u64 {
                let mut expected = Some(1.5f64);
                for &(_, event) in events.iter().filter(|&&(n, _)| n == node) {
                    expected = expected
                        .filter(|_| event != 0)
                        .map(|p| p - 0.3 * f64::from(weight(event)));
                }
                let got = overlay.correct(0, node, 1.5, 0.3);
                prop_assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits));
                prop_assert_eq!(overlay.correct(1, node, 1.5, 0.3), None);
            }
        }
    }

    #[test]
    fn phase_exhausts_small_buckets() {
        let (graph, objective) = instance(9);
        let ground = ground(9);
        let mut mem = InMemoryGreedyBackend::new(&graph, &objective, &ground);
        let outcome = mem.phase(MachineKeying::Contiguous { chunk: 3 }, 3, 9, 100).unwrap();
        // Quota far above the bucket size: every machine empties after 3
        // steps and the phase stops.
        assert_eq!(outcome.steps, 3);
        assert_eq!(outcome.selected.len(), 9);
        assert_eq!(outcome.members.len(), 9);
    }

    /// The trim as it was before it shared [`run_machine`]: the centralized
    /// greedy over the pool's induced subgraph with the pool's utilities.
    fn induced_subgraph_select(
        graph: &SimilarityGraph,
        objective: &PairwiseObjective,
        pool: &mut [NodeId],
        quota: usize,
    ) -> Vec<NodeId> {
        pool.sort_unstable();
        let quota = quota.min(pool.len());
        if quota == 0 {
            return Vec::new();
        }
        let local_graph = graph.induced_subgraph(pool);
        let utilities = pool.iter().map(|&v| objective.utility(v) as f32).collect();
        let local = PairwiseObjective::new(objective.alpha(), objective.beta(), utilities).unwrap();
        let picks = submod_core::greedy_select(&local_graph, &local, quota).unwrap();
        picks.selected().iter().map(|&l| pool[l.index()]).collect()
    }

    /// `graph` reopened from a store file, as a mapped graph.
    fn mapped(graph: &SimilarityGraph) -> SimilarityGraph {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "submod-trim-{}-{}.csr",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        graph.write_store(&path).unwrap();
        let mapped = SimilarityGraph::open_store(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(mapped.is_mapped());
        mapped
    }

    /// A pool whose members all neighbour each other heavily: with the
    /// whole pool as quota, the later pops have negative priority and are
    /// still taken, in the reference's order.
    #[test]
    fn a_full_quota_trim_pops_negative_priorities() {
        let mut b = GraphBuilder::new(8);
        for v in 0..6u64 {
            for w in v + 1..6 {
                b.add_undirected(v, w, 0.9).unwrap();
            }
        }
        b.add_undirected(5, 7, 0.3).unwrap();
        let graph = b.build();
        let utilities = vec![0.5, 0.4, 0.5, 0.1, 0.3, 0.2, 0.9, 0.6];
        let objective = PairwiseObjective::from_alpha(0.3, utilities).unwrap();
        let pool = [4u64, 0, 2, 5, 1, 3].map(NodeId::new);
        let picks = machine_select(&graph, &objective, &mut pool.clone(), pool.len());
        assert_eq!(picks, induced_subgraph_select(&graph, &objective, &mut pool.clone(), 6));
        let ids: Vec<u64> = picks.iter().map(|v| v.raw()).collect();
        assert_eq!(ids, [0, 2, 1, 4, 5, 3]);
        let last_priority = 0.1 - objective.ratio() * 0.9 * 5.0;
        assert!(last_priority < 0.0, "the last pop must have negative priority");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The trim picks what the centralized greedy over the pool's
        /// induced subgraph picks, in the same order: on unsorted pools,
        /// with tied utilities and weights, with diversity strong enough
        /// that a full quota pops negative priorities, at pool sizes 0, 1
        /// and more, at quotas 0, 1, |pool| − 1 and |pool|, on owned and
        /// mapped graphs.
        #[test]
        fn trim_picks_like_greedy_over_the_induced_subgraph(
            n in 1usize..40,
            edges in proptest::collection::vec((0u64..40, 0u64..40, 0usize..4), 0..160),
            utility_picks in proptest::collection::vec(0usize..5, 40),
            members in proptest::collection::vec(any::<bool>(), 40),
            shuffle in any::<u64>(),
            size_pick in 0usize..4,
            quota_pick in 0usize..4,
            alpha_pick in 0usize..3,
            mmap in any::<bool>(),
        ) {
            const WEIGHTS: [f32; 4] = [0.0, 0.25, 0.5, 1.0];
            const UTILITIES: [f32; 5] = [0.0, 0.1, 0.5, 0.5, 1.0];
            let mut b = GraphBuilder::new(n);
            for &(v, w, weight) in &edges {
                let (v, w) = (v % n as u64, w % n as u64);
                if v != w {
                    b.add_undirected(v, w, WEIGHTS[weight]).unwrap();
                }
            }
            let graph = if mmap { mapped(&b.build()) } else { b.build() };
            let utilities = (0..n).map(|i| UTILITIES[utility_picks[i]]).collect();
            let alpha = [0.2, 0.5, 0.9][alpha_pick];
            let objective = PairwiseObjective::from_alpha(alpha, utilities).unwrap();

            let mut pool: Vec<NodeId> =
                (0..n).filter(|&i| members[i]).map(NodeId::from_index).collect();
            pool.truncate([0, 1, n, n][size_pick]);
            let mut state = shuffle;
            for i in (1..pool.len()).rev() {
                state = submod_dataflow::mix_seed_key(state, i as u64);
                pool.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let quota = [0, 1, pool.len().saturating_sub(1), pool.len()][quota_pick];

            let expected = induced_subgraph_select(&graph, &objective, &mut pool.clone(), quota);
            let picks = machine_select(&graph, &objective, &mut pool, quota);
            prop_assert_eq!(picks, expected);
        }

        /// Every shard row is its node's global row filtered to the node's
        /// bucket, in adjacency order, with the same weight bits — for the
        /// in-memory build (every bucket through one dense table), a
        /// worker's build (one bucket under the keying) and the trim's
        /// single bucket; on owned and mapped graphs with directed edges,
        /// under all three keyings, over pools thinned by earlier rounds.
        #[test]
        fn shard_rows_are_global_rows_filtered_to_the_bucket(
            n in 1usize..48,
            edges in proptest::collection::vec((0u64..48, 0u64..48, 0usize..4, any::<bool>()), 0..200),
            in_pool in proptest::collection::vec(any::<bool>(), 48),
            forced in proptest::collection::vec(any::<bool>(), 48),
            keying_pick in 0usize..3,
            machines in 1u64..5,
            seed in any::<u64>(),
            mmap in any::<bool>(),
        ) {
            const WEIGHTS: [f32; 4] = [0.0, 0.1, 1.0 / 3.0, 1.0];
            let mut b = GraphBuilder::new(n);
            for &(v, w, weight, directed) in &edges {
                let (v, w) = (v % n as u64, w % n as u64);
                if v != w && directed {
                    b.add_directed(v, w, WEIGHTS[weight]).unwrap();
                } else if v != w {
                    b.add_undirected(v, w, WEIGHTS[weight]).unwrap();
                }
            }
            let graph = if mmap { mapped(&b.build()) } else { b.build() };
            let keying = match keying_pick {
                0 => MachineKeying::Hash { seed, machines },
                1 => {
                    let forced = (0..n).filter(|&i| forced[i]).map(NodeId::from_index);
                    let forced = Arc::new(NodeSet::from_members(n, forced));
                    MachineKeying::HashForced { seed, machines, forced }
                }
                _ => MachineKeying::Contiguous { chunk: (n as u64).div_ceil(machines) },
            };
            let pool: Vec<u64> = (0..n as u64).filter(|&v| in_pool[v as usize]).collect();
            let mut buckets = vec![Vec::new(); machines as usize];
            for &v in &pool {
                buckets[keying.machine_of(v) as usize].push(v);
            }
            let expected = |bucket: &[u64]| -> Vec<Vec<(u32, u32)>> {
                let local = |x: NodeId| bucket.binary_search(&x.raw()).ok().map(|l| l as u32);
                let row = |v: u64| graph.edges(NodeId::new(v));
                let kept = |v| row(v).filter_map(|(x, s)| Some((local(x)?, s.to_bits()))).collect();
                bucket.iter().map(|&v| kept(v)).collect()
            };
            let rows = |shard: &LocalShard| -> Vec<Vec<(u32, u32)>> {
                let row = |l: usize| shard.offsets[l] as usize..shard.offsets[l + 1] as usize;
                let bits = |l| shard.edges[row(l)].iter().map(|&(t, s)| (t, s.to_bits())).collect();
                (0..shard.nodes.len()).map(bits).collect()
            };

            let shards = LocalShard::indexed(&graph, buckets.clone());
            for (m, (shard, bucket)) in shards.iter().zip(&buckets).enumerate() {
                prop_assert_eq!(&shard.nodes, bucket);
                prop_assert_eq!(rows(shard), expected(bucket));
                let worker = LocalShard::partition(&graph, bucket.clone(), &keying, m as u64);
                prop_assert_eq!(rows(&worker), expected(bucket));
            }
            let trim = LocalShard::indexed(&graph, vec![pool.clone()]).remove(0);
            prop_assert_eq!(rows(&trim), expected(&pool));
        }
    }
}
