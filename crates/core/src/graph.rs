use crate::store::{self, GraphError};
use crate::{CoreError, NodeId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// A compact CSR (compressed sparse row) similarity graph.
///
/// Nodes are dense indices `0..n`; each node stores a sorted list of
/// `(neighbor, similarity)` pairs. The paper (§6) builds a 10-nearest-
/// neighbor cosine-similarity graph and symmetrizes it; [`SimilarityGraph`]
/// is that structure, and [`GraphBuilder`] the way to construct it from an
/// edge stream.
///
/// The objective treats edges as *undirected*: a symmetric graph stores both
/// directions and [`crate::PairwiseObjective::evaluate`] counts each
/// undirected edge once.
///
/// # Backings
///
/// The CSR arrays live behind one of two backings, invisible to every
/// consumer: **owned** heap vectors (the result of [`GraphBuilder::build`])
/// or a **memory-mapped** read-only store file ([`Self::open_store`]). The
/// on-disk form is what makes selection *larger than memory*: the arrays
/// stay in the page cache, many shards share one immutable mapping, and
/// opening a prebuilt graph is O(validation), not O(rebuild). Both backings
/// expose bit-identical arrays, so selections are bitwise-equal regardless
/// of where the graph lives (see `crates/dist/tests/store_differential.rs`).
///
/// Either backing sits behind an `Arc`, so a clone is O(1): it bumps one
/// reference count and shares the arrays. That is how a dataflow closure,
/// which must own its captures, takes the graph along.
///
/// Neighbor ids are stored as dense `u32` (4 B/edge instead of 8) — the
/// node count is capped at `u32::MAX`, far beyond what a single mapping
/// holds in practice.
///
/// ```
/// use submod_core::{GraphBuilder, NodeId};
///
/// # fn main() -> Result<(), submod_core::CoreError> {
/// let mut builder = GraphBuilder::new(3);
/// builder.add_undirected(0, 1, 0.5)?;
/// builder.add_directed(1, 2, 0.25)?;
/// let graph = builder.build().symmetrized();
///
/// assert_eq!(graph.num_nodes(), 3);
/// assert_eq!(graph.degree(NodeId::new(1)), 2);
/// assert!(graph.is_symmetric());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SimilarityGraph {
    backing: Backing,
    /// [`Self::is_symmetric`]: set by the constructions that guarantee
    /// it, otherwise checked on first use and kept.
    symmetric: OnceLock<bool>,
}

/// Where the CSR arrays live. Either way they sit behind an [`Arc`], so a
/// clone shares them: the distributed backends and the dataflow closures
/// hand every shard the same arrays or the same mapping.
#[derive(Clone, Debug)]
enum Backing {
    /// `(offsets, neighbors, weights)`, moved in from their builder.
    Owned(Arc<(Vec<u64>, Vec<u32>, Vec<f32>)>),
    Mapped(Arc<submod_mman::CsrView>),
}

impl PartialEq for SimilarityGraph {
    /// Structural equality on the CSR arrays — a mapped graph equals the
    /// owned graph it was written from.
    fn eq(&self, other: &Self) -> bool {
        self.csr_parts() == other.csr_parts()
    }
}

impl SimilarityGraph {
    /// A graph over `backing` whose symmetry is not known yet.
    fn from_backing(backing: Backing) -> Self {
        SimilarityGraph { backing, symmetric: OnceLock::new() }
    }

    /// An owned graph over CSR arrays, moved (not copied) behind an [`Arc`].
    fn owned(offsets: Vec<u64>, neighbors: Vec<u32>, weights: Vec<f32>) -> Self {
        Self::from_backing(Backing::Owned(Arc::new((offsets, neighbors, weights))))
    }

    /// The raw CSR triple `(offsets, neighbors, weights)`, whichever
    /// backing holds it.
    #[inline]
    fn parts(&self) -> (&[u64], &[u32], &[f32]) {
        match &self.backing {
            Backing::Owned(csr) => (&csr.0, &csr.1, &csr.2),
            Backing::Mapped(m) => (m.offsets(), m.neighbors(), m.weights()),
        }
    }

    /// Row bounds of node `v` as `start..end` into the edge arrays.
    #[inline]
    fn row(&self, v: NodeId) -> std::ops::Range<usize> {
        let offsets = self.parts().0;
        offsets[v.index()] as usize..offsets[v.index() + 1] as usize
    }

    /// Number of nodes in the ground set.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parts().0.len() - 1
    }

    /// Number of stored directed edges.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.parts().1.len()
    }

    /// Number of undirected edges in a symmetric graph (directed count / 2).
    ///
    /// Only meaningful when [`Self::is_symmetric`] holds.
    #[inline]
    pub fn num_undirected_edges(&self) -> usize {
        self.num_directed_edges() / 2
    }

    /// Out-degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.row(v).len()
    }

    /// Dense neighbor ids of node `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let r = self.row(v);
        &self.parts().1[r]
    }

    /// Similarity weights aligned with [`Self::neighbors`].
    #[inline]
    pub fn weights(&self, v: NodeId) -> &[f32] {
        let r = self.row(v);
        &self.parts().2[r]
    }

    /// Iterates `(neighbor, similarity)` pairs of node `v`.
    #[inline]
    pub fn edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        self.neighbors(v)
            .iter()
            .map(|&w| NodeId::new(u64::from(w)))
            .zip(self.weights(v).iter().copied())
    }

    /// Sum of similarity weights incident to `v` (its *weighted degree*).
    ///
    /// This is the `Σ_j s(v, j)` term of the minimum utility (Def. 4.1) and
    /// of the monotonicity offset δ (Appendix A).
    pub fn weighted_degree(&self, v: NodeId) -> f64 {
        self.weights(v).iter().map(|&w| f64::from(w)).sum()
    }

    /// Maximum weighted degree over all nodes (0.0 for an empty graph).
    pub fn max_weighted_degree(&self) -> f64 {
        (0..self.num_nodes())
            .map(|i| self.weighted_degree(NodeId::from_index(i)))
            .fold(0.0, f64::max)
    }

    /// Minimum degree `k_g` over all nodes (Theorem 4.6's exponent).
    pub fn min_degree(&self) -> usize {
        (0..self.num_nodes()).map(|i| self.degree(NodeId::from_index(i))).min().unwrap_or(0)
    }

    /// Average degree over all nodes.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.num_directed_edges() as f64 / self.num_nodes() as f64
    }

    /// Returns the weight of edge `(v, w)` if present.
    pub fn edge_weight(&self, v: NodeId, w: NodeId) -> Option<f32> {
        let target = u32::try_from(w.raw()).ok()?;
        let nbrs = self.neighbors(v);
        nbrs.binary_search(&target).ok().map(|pos| self.weights(v)[pos])
    }

    /// Returns `true` if every edge `(v, w)` has a matching `(w, v)` with the
    /// same weight.
    ///
    /// [`Self::symmetrized`] and builders fed only
    /// [`GraphBuilder::add_undirected`] are symmetric by construction and
    /// answer at once; any other graph is checked on the first call and
    /// remembers the answer.
    pub fn is_symmetric(&self) -> bool {
        *self.symmetric.get_or_init(|| {
            (0..self.num_nodes()).all(|i| {
                let v = NodeId::from_index(i);
                self.edges(v).all(|(w, s)| self.edge_weight(w, v) == Some(s))
            })
        })
    }

    /// Returns the symmetric closure: the union of both edge directions,
    /// keeping the larger weight when both directions exist with different
    /// weights.
    ///
    /// This mirrors the paper's §6 step "we symmetrize the graph, such that
    /// datapoints have a varying amount of, but at least k, neighbors".
    ///
    /// Linear in the edge count: rows are already sorted, so the transpose
    /// (one counting pass, one fill in source order) has sorted rows too,
    /// and each output row is a two-way merge of a row with its transpose.
    /// The transpose is never whole: it is built for one stripe of target
    /// nodes at a time (up to `TRANSPOSE_STRIPES` of them, each at least
    /// `MIN_STRIPE_EDGES` in-edges), so on a large graph the scratch is
    /// an eighth of the edge arrays rather than a second copy of them.
    pub fn symmetrized(&self) -> SimilarityGraph {
        self.symmetrized_in_stripes(MIN_STRIPE_EDGES)
    }

    /// [`Self::symmetrized`] with the stripe floor as a parameter (tests
    /// lower it to drive small graphs through many stripes).
    fn symmetrized_in_stripes(&self, min_stripe_edges: usize) -> SimilarityGraph {
        let n = self.num_nodes();
        let (offsets, neighbors, weights) = self.parts();

        // In-degree prefix sums, then stripes of consecutive target nodes
        // holding about `budget` in-edges each.
        let mut t_offsets = vec![0usize; n + 1];
        for &w in neighbors {
            t_offsets[w as usize + 1] += 1;
        }
        for v in 0..n {
            t_offsets[v + 1] += t_offsets[v];
        }
        let budget = neighbors.len().div_ceil(TRANSPOSE_STRIPES).max(min_stripe_edges);
        let mut stripes: Vec<std::ops::Range<usize>> = Vec::with_capacity(TRANSPOSE_STRIPES + 1);
        let mut lo = 0;
        for v in 0..n {
            if t_offsets[v + 1] - t_offsets[lo] >= budget || v + 1 == n {
                stripes.push(lo..v + 1);
                lo = v + 1;
            }
        }

        // Walks the closure row by row (`None` closes a row): for each
        // stripe, transposes the edges that point into it (filling in
        // ascending source order leaves every transposed row sorted by
        // source id), then merges each of its rows with its in-edges.
        let mut scratch: (Vec<u32>, Vec<f32>) = Default::default();
        let mut cursor = vec![0usize; n];
        let mut walk = |sink: &mut dyn FnMut(Option<(u32, f32)>)| {
            for stripe in &stripes {
                let base = t_offsets[stripe.start];
                let in_edges = t_offsets[stripe.end] - base;
                scratch.0.resize(in_edges, 0);
                scratch.1.resize(in_edges, 0.0);
                for v in stripe.clone() {
                    cursor[v] = t_offsets[v] - base;
                }
                for v in 0..n {
                    for e in offsets[v] as usize..offsets[v + 1] as usize {
                        let w = neighbors[e] as usize;
                        if stripe.contains(&w) {
                            scratch.0[cursor[w]] = v as u32;
                            scratch.1[cursor[w]] = weights[e];
                            cursor[w] += 1;
                        }
                    }
                }
                for v in stripe.clone() {
                    let out = offsets[v] as usize..offsets[v + 1] as usize;
                    let inc = t_offsets[v] - base..t_offsets[v + 1] - base;
                    merge_rows(
                        (&neighbors[out.clone()], &weights[out]),
                        (&scratch.0[inc.clone()], &scratch.1[inc]),
                        |w, s| sink(Some((w, s))),
                    );
                    sink(None);
                }
            }
        };

        // Twice: once to size the arrays exactly (a guess of 2E would
        // leave an already symmetric graph holding twice its bytes), once
        // to fill them. The sink sees `None` at the end of every row.
        let mut total = 0usize;
        walk(&mut |edge| total += usize::from(edge.is_some()));
        let mut out_offsets: Vec<u64> = Vec::with_capacity(n + 1);
        let mut out_neighbors: Vec<u32> = Vec::with_capacity(total);
        let mut out_weights: Vec<f32> = Vec::with_capacity(total);
        out_offsets.push(0);
        walk(&mut |edge| match edge {
            Some((w, s)) => {
                out_neighbors.push(w);
                out_weights.push(s);
            }
            None => out_offsets.push(out_neighbors.len() as u64),
        });
        Self::from_built_parts(out_offsets, out_neighbors, out_weights, true)
    }

    /// Exposes the raw CSR arrays `(offsets, neighbors, weights)` for
    /// serialization. Offsets are `u64` file offsets and neighbors dense
    /// `u32` ids — exactly the on-disk store section types, whichever
    /// backing currently holds them.
    pub fn csr_parts(&self) -> (&[u64], &[u32], &[f32]) {
        self.parts()
    }

    /// Rebuilds an owned graph from raw CSR arrays produced by
    /// [`Self::csr_parts`].
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the arrays violate any CSR invariant
    /// (offsets not monotone or out of range, mismatched lengths,
    /// self-loops, invalid weights, or unsorted neighbor rows) — the same
    /// validation a store file passes at open.
    pub fn from_csr_parts(
        offsets: Vec<u64>,
        neighbors: Vec<u32>,
        weights: Vec<f32>,
    ) -> Result<Self, GraphError> {
        if offsets.is_empty() {
            return Err(GraphError::NonMonotoneOffsets { node: 0 });
        }
        store::validate_csr(&offsets, &neighbors, &weights)?;
        Ok(SimilarityGraph::owned(offsets, neighbors, weights))
    }

    /// Logical size of the CSR arrays in bytes, independent of backing.
    ///
    /// For an owned graph this is heap memory; for a mapped graph it is
    /// the page-cache footprint if every page were resident (the "graph
    /// bytes" the larger-than-memory experiment compares RSS against).
    pub fn memory_bytes(&self) -> usize {
        let (offsets, neighbors, weights) = self.parts();
        std::mem::size_of_val(offsets)
            + std::mem::size_of_val(neighbors)
            + std::mem::size_of_val(weights)
    }

    /// Process-heap bytes held by this graph: [`Self::memory_bytes`] when
    /// owned, 0 when the arrays live in a read-only file mapping.
    pub fn heap_bytes(&self) -> usize {
        match &self.backing {
            Backing::Owned(_) => self.memory_bytes(),
            Backing::Mapped(_) => 0,
        }
    }

    /// `true` when the CSR arrays are backed by a read-only store mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// Writes this graph as an on-disk store file (see [`crate::store`]).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] on I/O failure.
    pub fn write_store(&self, path: &Path) -> Result<(), GraphError> {
        let (offsets, neighbors, weights) = self.parts();
        store::write_store(path, offsets, neighbors, weights, self.is_symmetric())
    }

    /// Opens a store file as a read-only memory-mapped graph.
    ///
    /// Zero-copy: the CSR arrays are served straight from the mapping
    /// after a full validation sweep.
    ///
    /// # Errors
    ///
    /// Returns a typed [`GraphError`] for every malformed-file mode:
    /// a bad header, truncation, checksum mismatch, non-monotone or
    /// out-of-bounds offsets, out-of-bounds/unsorted/self-loop neighbor
    /// rows, and NaN/infinite/negative weights. Never panics on bad input.
    pub fn open_store(path: &Path) -> Result<Self, GraphError> {
        let mapped = store::open_store(path)?;
        Ok(SimilarityGraph::from_backing(Backing::Mapped(Arc::new(mapped))))
    }

    /// Builds the subgraph induced by `nodes`, relabeling to local dense
    /// indices `0..nodes.len()` in the given order.
    ///
    /// Edges to nodes outside `nodes` are discarded — exactly the
    /// information loss the distributed greedy algorithm (paper §4.4)
    /// incurs when it partitions the ground set ("we discard any
    /// neighborhood relation across partitions").
    ///
    /// Returns the local graph; `nodes[local]` recovers the global id.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> SimilarityGraph {
        let local: HashMap<NodeId, u32> =
            nodes.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        let mut offsets: Vec<u64> = Vec::with_capacity(nodes.len() + 1);
        let mut neighbors: Vec<u32> = Vec::new();
        let mut weights: Vec<f32> = Vec::new();
        offsets.push(0);
        for &v in nodes {
            let start = neighbors.len();
            for (w, s) in self.edges(v) {
                if let Some(&lw) = local.get(&w) {
                    neighbors.push(lw);
                    weights.push(s);
                }
            }
            // Re-sort locally: global neighbor order does not imply local order.
            let mut pairs: Vec<(u32, f32)> =
                neighbors[start..].iter().copied().zip(weights[start..].iter().copied()).collect();
            pairs.sort_by_key(|&(id, _)| id);
            for (slot, (id, s)) in pairs.into_iter().enumerate() {
                neighbors[start + slot] = id;
                weights[start + slot] = s;
            }
            offsets.push(neighbors.len() as u64);
        }
        SimilarityGraph::owned(offsets, neighbors, weights)
    }

    fn from_directed_edges_internal(
        num_nodes: usize,
        mut edges: Vec<(NodeId, NodeId, f32)>,
        symmetric: bool,
    ) -> SimilarityGraph {
        assert!(
            num_nodes as u64 <= u64::from(u32::MAX),
            "num_nodes {num_nodes} exceeds the u32 neighbor id space"
        );
        edges.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.total_cmp(&a.2)));
        // Deduplicate keeping the max weight (first after the sort above).
        edges.dedup_by_key(|e| (e.0, e.1));

        let mut offsets = vec![0u64; num_nodes + 1];
        for &(v, _, _) in &edges {
            offsets[v.index() + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors: Vec<u32> = Vec::with_capacity(edges.len());
        let mut weights: Vec<f32> = Vec::with_capacity(edges.len());
        for (_, w, s) in edges {
            neighbors.push(w.raw() as u32);
            weights.push(s);
        }
        Self::from_built_parts(offsets, neighbors, weights, symmetric)
    }

    /// Wraps freshly built (valid by construction) CSR arrays, recording
    /// whether the construction guarantees symmetry.
    fn from_built_parts(
        offsets: Vec<u64>,
        neighbors: Vec<u32>,
        weights: Vec<f32>,
        symmetric: bool,
    ) -> Self {
        let graph = SimilarityGraph::owned(offsets, neighbors, weights);
        if symmetric {
            let _ = graph.symmetric.set(true);
        }
        graph
    }
}

/// At most how many stripes of target nodes
/// [`SimilarityGraph::symmetrized`] transposes one at a time: its scratch
/// is `1/TRANSPOSE_STRIPES` of the edge arrays, paid for with that many
/// sequential scans of them.
const TRANSPOSE_STRIPES: usize = 8;

/// In-edges a stripe holds at least (4 MiB of scratch): a graph smaller
/// than this is transposed whole, in one scan.
const MIN_STRIPE_EDGES: usize = 1 << 19;

/// Merges two neighbor rows sorted by id into their union in id order,
/// handing each `(neighbor, weight)` to `emit`; a neighbor present in
/// both rows keeps the larger weight (by `total_cmp`, as the edge-stream
/// builder dedups).
#[inline]
fn merge_rows(a: (&[u32], &[f32]), b: (&[u32], &[f32]), mut emit: impl FnMut(u32, f32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.0.len() || j < b.0.len() {
        let x = a.0.get(i).copied().unwrap_or(u32::MAX);
        let y = b.0.get(j).copied().unwrap_or(u32::MAX);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => emit(x, a.1[i]),
            std::cmp::Ordering::Greater => emit(y, b.1[j]),
            std::cmp::Ordering::Equal => {
                emit(x, if a.1[i].total_cmp(&b.1[j]).is_ge() { a.1[i] } else { b.1[j] });
            }
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

/// Incremental builder for [`SimilarityGraph`].
///
/// Collects an edge stream, validates it (finite non-negative weights, no
/// self-loops, ids in bounds), deduplicates parallel edges keeping the
/// largest weight, and produces the CSR form.
///
/// ```
/// use submod_core::GraphBuilder;
///
/// # fn main() -> Result<(), submod_core::CoreError> {
/// let mut builder = GraphBuilder::new(4);
/// builder.add_undirected(0, 1, 0.9)?;
/// builder.add_undirected(0, 1, 0.4)?; // duplicate: max weight wins
/// let graph = builder.build();
/// assert_eq!(graph.num_directed_edges(), 2);
/// assert_eq!(graph.weights(submod_core::NodeId::new(0)), &[0.9]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, f32)>,
    /// Whether an edge came in through [`Self::add_directed`].
    directed: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` exceeds the `u32` neighbor id space.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes as u64 <= u64::from(u32::MAX),
            "num_nodes {num_nodes} exceeds the u32 neighbor id space"
        );
        GraphBuilder { num_nodes, edges: Vec::new(), directed: false }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges added so far (before deduplication).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn validate(&self, v: u64, w: u64, weight: f32) -> Result<(), CoreError> {
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(CoreError::InvalidWeight { weight });
        }
        if v == w {
            return Err(CoreError::SelfLoop { node: v });
        }
        for node in [v, w] {
            if node as usize >= self.num_nodes {
                return Err(CoreError::NodeOutOfBounds { node, num_nodes: self.num_nodes });
            }
        }
        Ok(())
    }

    /// Adds a directed edge `v → w` with similarity `weight`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight is not a finite non-negative number,
    /// the edge is a self-loop, or an endpoint is out of bounds.
    pub fn add_directed(&mut self, v: u64, w: u64, weight: f32) -> Result<&mut Self, CoreError> {
        self.validate(v, w, weight)?;
        self.edges.push((NodeId::new(v), NodeId::new(w), weight));
        self.directed = true;
        Ok(self)
    }

    /// Adds both directions `v ↔ w` with similarity `weight`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::add_directed`].
    pub fn add_undirected(&mut self, v: u64, w: u64, weight: f32) -> Result<&mut Self, CoreError> {
        self.validate(v, w, weight)?;
        self.edges.push((NodeId::new(v), NodeId::new(w), weight));
        self.edges.push((NodeId::new(w), NodeId::new(v), weight));
        Ok(self)
    }

    /// Finishes the build, consuming the accumulated edges.
    pub fn build(&mut self) -> SimilarityGraph {
        SimilarityGraph::from_directed_edges_internal(
            self.num_nodes,
            std::mem::take(&mut self.edges),
            !std::mem::take(&mut self.directed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diamond() -> SimilarityGraph {
        // 0-1, 1-2, 2-3, 3-0 ring plus a 0-2 chord.
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 0.1).unwrap();
        b.add_undirected(1, 2, 0.2).unwrap();
        b.add_undirected(2, 3, 0.3).unwrap();
        b.add_undirected(3, 0, 0.4).unwrap();
        b.add_undirected(0, 2, 0.5).unwrap();
        b.build()
    }

    fn temp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("submod-graph-test-{}-{name}.csr", std::process::id()))
    }

    #[test]
    fn csr_layout_is_sorted_per_node() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_directed_edges(), 10);
        assert_eq!(g.num_undirected_edges(), 5);
        assert_eq!(g.neighbors(NodeId::new(0)), &[1, 2, 3]);
        assert_eq!(g.weights(NodeId::new(0)), &[0.1, 0.5, 0.4]);
    }

    #[test]
    fn weighted_degree_sums_similarities() {
        let g = diamond();
        let wd = g.weighted_degree(NodeId::new(0));
        assert!((wd - 1.0).abs() < 1e-6, "0.1 + 0.5 + 0.4 = 1.0, got {wd}");
        assert!((g.max_weighted_degree() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn min_and_avg_degree() {
        let g = diamond();
        assert_eq!(g.min_degree(), 2);
        assert!((g.avg_degree() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn symmetry_detection() {
        let g = diamond();
        assert!(g.is_symmetric());
        let mut b = GraphBuilder::new(3);
        b.add_directed(0, 1, 0.5).unwrap();
        let asym = b.build();
        assert!(!asym.is_symmetric());
        assert!(asym.symmetrized().is_symmetric());
    }

    /// The graphs that are symmetric by construction skip the check; a
    /// copy that has to run it agrees.
    #[test]
    fn symmetry_known_by_construction_passes_the_check() {
        let checked = |g: &SimilarityGraph| {
            let (o, n, w) = g.csr_parts();
            SimilarityGraph::from_csr_parts(o.to_vec(), n.to_vec(), w.to_vec()).unwrap()
        };
        // Undirected edges added twice with different weights, in both
        // orientations; directed edges with conflicting reverse weights.
        let mut undirected = GraphBuilder::new(5);
        let mut directed = GraphBuilder::new(5);
        let mut s = 11u64;
        for _ in 0..40 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (v, w, weight) = ((s >> 33) % 5, (s >> 13) % 5, ((s >> 50) % 8) as f32 / 8.0);
            if v != w {
                undirected.add_undirected(v, w, weight).unwrap();
                directed.add_directed(v, w, weight).unwrap();
            }
        }
        let directed = directed.build();
        assert!(!checked(&directed).is_symmetric());
        for g in
            [undirected.build(), directed.symmetrized(), GraphBuilder::new(3).build(), diamond()]
        {
            assert!(g.is_symmetric());
            assert!(checked(&g).is_symmetric());
        }
    }

    #[test]
    fn symmetrize_unions_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_directed(0, 1, 0.5).unwrap();
        b.add_directed(1, 0, 0.7).unwrap(); // conflicting back edge: max wins
        b.add_directed(1, 2, 0.2).unwrap();
        let g = b.build().symmetrized();
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(0.7));
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(0)), Some(0.7));
        assert_eq!(g.edge_weight(NodeId::new(2), NodeId::new(1)), Some(0.2));
        assert_eq!(g.num_undirected_edges(), 2);
    }

    #[test]
    fn symmetrize_is_the_same_in_one_stripe_or_many() {
        // A seeded directed graph: asymmetric weights, reciprocal pairs,
        // rows without out-edges (odd ids) and without in-edges.
        let n = 60u64;
        let (mut directed, mut closure) = (GraphBuilder::new(60), GraphBuilder::new(60));
        let mut s = 7u64;
        for _ in 0..400 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (v, w) = (((s >> 33) % n) & !1, (s >> 13) % n);
            if v != w {
                let weight = ((s >> 50) % 8) as f32 / 8.0;
                directed.add_directed(v, w, weight).unwrap();
                closure.add_undirected(v, w, weight).unwrap();
            }
        }
        let (directed, reference) = (directed.build(), closure.build());
        for min_stripe_edges in [1, 9, MIN_STRIPE_EDGES] {
            let closed = directed.symmetrized_in_stripes(min_stripe_edges);
            assert_eq!(closed.csr_parts(), reference.csr_parts(), "floor {min_stripe_edges}");
        }
        assert_eq!(GraphBuilder::new(0).build().symmetrized().num_nodes(), 0);
        assert_eq!(GraphBuilder::new(3).build().symmetrized(), GraphBuilder::new(3).build());
    }

    #[test]
    fn duplicate_edges_keep_max_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_directed(0, 1, 0.3).unwrap();
        b.add_directed(0, 1, 0.9).unwrap();
        b.add_directed(0, 1, 0.5).unwrap();
        let g = b.build();
        assert_eq!(g.num_directed_edges(), 1);
        assert_eq!(g.weights(NodeId::new(0)), &[0.9]);
    }

    #[test]
    fn rejects_invalid_input() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_directed(0, 0, 0.5).unwrap_err(), CoreError::SelfLoop { node: 0 });
        assert_eq!(
            b.add_directed(0, 5, 0.5).unwrap_err(),
            CoreError::NodeOutOfBounds { node: 5, num_nodes: 3 }
        );
        assert!(matches!(b.add_directed(0, 1, -1.0).unwrap_err(), CoreError::InvalidWeight { .. }));
        assert!(matches!(
            b.add_directed(0, 1, f32::NAN).unwrap_err(),
            CoreError::InvalidWeight { .. }
        ));
    }

    #[test]
    fn induced_subgraph_drops_cross_edges() {
        let g = diamond();
        // Take {0, 2, 3}: edges 0-2 (0.5), 2-3 (0.3), 3-0 (0.4) survive; 0-1 and 1-2 drop.
        let nodes = [NodeId::new(3), NodeId::new(0), NodeId::new(2)];
        let sub = g.induced_subgraph(&nodes);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_undirected_edges(), 3);
        // local 0 = global 3, local 1 = global 0, local 2 = global 2.
        assert_eq!(sub.edge_weight(NodeId::new(0), NodeId::new(1)), Some(0.4));
        assert_eq!(sub.edge_weight(NodeId::new(1), NodeId::new(2)), Some(0.5));
        assert_eq!(sub.edge_weight(NodeId::new(0), NodeId::new(2)), Some(0.3));
        assert!(sub.is_symmetric());
    }

    #[test]
    fn induced_subgraph_of_disjoint_nodes_is_edgeless() {
        let g = diamond();
        let sub = g.induced_subgraph(&[NodeId::new(1)]);
        assert_eq!(sub.num_nodes(), 1);
        assert_eq!(sub.num_directed_edges(), 0);
    }

    #[test]
    fn empty_graph_behaves() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(NodeId::new(4)), 0);
        assert_eq!(g.min_degree(), 0);
        assert!(g.is_symmetric());
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn csr_parts_roundtrip() {
        let g = diamond();
        let (offsets, neighbors, weights) = g.csr_parts();
        let rebuilt =
            SimilarityGraph::from_csr_parts(offsets.to_vec(), neighbors.to_vec(), weights.to_vec())
                .unwrap();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_csr_parts_rejects_inconsistent_arrays() {
        // Wrong terminal offset.
        assert!(SimilarityGraph::from_csr_parts(vec![0, 2], vec![1], vec![0.5]).is_err());
        // Self-loop.
        assert!(SimilarityGraph::from_csr_parts(vec![0, 1], vec![0], vec![0.5]).is_err());
        // Out-of-bounds neighbor.
        assert!(SimilarityGraph::from_csr_parts(vec![0, 1], vec![9], vec![0.5]).is_err());
        // Negative weight.
        assert!(SimilarityGraph::from_csr_parts(vec![0, 1, 1], vec![1], vec![-0.5]).is_err());
        // Unsorted neighbor row.
        assert!(
            SimilarityGraph::from_csr_parts(vec![0, 2, 2, 2], vec![2, 1], vec![0.5, 0.5]).is_err()
        );
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(2)), Some(0.5));
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(3)), None);
        // An id outside the u32 encoding can never be present.
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(u64::MAX)), None);
    }

    #[test]
    fn store_roundtrip_is_exact_and_mapped() {
        let g = diamond();
        let path = temp_store("roundtrip");
        g.write_store(&path).unwrap();
        let mapped = SimilarityGraph::open_store(&path).unwrap();
        assert!(mapped.is_mapped());
        assert!(!g.is_mapped());
        assert_eq!(mapped, g);
        assert_eq!(mapped.csr_parts(), g.csr_parts());
        assert_eq!(mapped.heap_bytes(), 0);
        assert_eq!(g.heap_bytes(), g.memory_bytes());
        assert_eq!(mapped.memory_bytes(), g.memory_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_graph_store_roundtrip() {
        let g = GraphBuilder::new(3).build();
        let path = temp_store("empty");
        g.write_store(&path).unwrap();
        let mapped = SimilarityGraph::open_store(&path).unwrap();
        assert_eq!(mapped, g);
        assert_eq!(mapped.num_directed_edges(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_graph_shares_one_mapping_across_clones() {
        let g = diamond();
        let path = temp_store("clones");
        g.write_store(&path).unwrap();
        let mapped = SimilarityGraph::open_store(&path).unwrap();
        let clone = mapped.clone();
        // Clones alias the same mapping: identical slices at identical addresses.
        assert_eq!(mapped.csr_parts().1.as_ptr(), clone.csr_parts().1.as_ptr());
        let _ = std::fs::remove_file(&path);
    }
}
