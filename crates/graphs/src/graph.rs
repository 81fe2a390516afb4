//! Compact undirected graph representation.
//!
//! The balancing algorithms in `dlb-core` iterate over *neighbourhoods*
//! (the gather, degrees) and over *edges* (pairwise flows). [`Graph`]
//! stores only the CSR adjacency: every undirected edge `(u, v)` with
//! `u < v` is node `u`'s **upper slot** `v`, so the canonical edge list is
//! a walk over the upper slots ([`Graph::edges`]) rather than a second
//! array. Graphs are immutable after construction; dynamic-network models
//! (Section 5 of the paper) are modelled as sequences of immutable graphs.

use std::fmt;

/// Errors raised while constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The graph's node count.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied. The balancing model has no use for
    /// self-loops (a node never transfers load to itself), so they are
    /// rejected rather than silently dropped.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// The requested graph has zero nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected, simple graph in CSR form — the only store of
/// its edges.
///
/// Node identifiers are `u32` (the literature's instances are at most a few
/// million nodes; `u32` halves the memory traffic of the hot edge loops
/// compared to `usize`).
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists, length `2m`.
    neighbors: Vec<u32>,
    /// Cached maximum degree `δ`.
    max_degree: u32,
    /// Cached minimum degree.
    min_degree: u32,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("max_degree", &self.max_degree)
            .finish()
    }
}

impl Graph {
    /// Builds a graph on `n` nodes from an iterator of undirected edges.
    ///
    /// Duplicate edges are merged (the graph is simple); self-loops and
    /// out-of-range endpoints are errors.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(n)?;
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Finishes a graph on `n` nodes from its neighbour rows, emitted in
    /// node order: `row(v, buf)` appends `v`'s neighbours to `buf`.
    /// `slots` (the expected `2m`) sizes the buffers up front.
    ///
    /// This is the structured generators' path: a row that arrives
    /// unsorted is sorted in place (a torus emits only its wrap rows out
    /// of order), so there is no global sort, no edge array and no degree
    /// or cursor array. Validation is `O(m)`: out-of-range and self-loop
    /// neighbours are the usual [`GraphError`]s; a repeated neighbour
    /// panics, and so (with debug assertions on) does a row without its
    /// mirror entry.
    pub(crate) fn from_rows<F>(n: usize, slots: usize, mut row: F) -> Result<Graph, GraphError>
    where
        F: FnMut(u32, &mut Vec<u32>),
    {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(slots);
        let (mut min_degree, mut max_degree) = (usize::MAX, 0);
        offsets.push(0);
        for v in 0..n as u32 {
            let start = neighbors.len();
            row(v, &mut neighbors);
            let r = &mut neighbors[start..];
            if !r.is_sorted_by(|a, b| a < b) {
                r.sort_unstable();
                assert!(r.is_sorted_by(|a, b| a < b), "row {v} repeats a neighbour");
            }
            if let Some(&last) = r.last() {
                if last as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: last, n });
                }
            }
            if r.binary_search(&v).is_ok() {
                return Err(GraphError::SelfLoop { node: v });
            }
            min_degree = min_degree.min(r.len());
            max_degree = max_degree.max(r.len());
            offsets.push(neighbors.len());
        }
        let g = Graph {
            offsets,
            neighbors,
            max_degree: max_degree as u32,
            min_degree: min_degree as u32,
        };
        debug_assert!(
            g.nodes()
                .all(|v| g.neighbors(v).iter().all(|&u| g.has_edge(u, v))),
            "neighbour rows are not symmetric"
        );
        Ok(g)
    }

    /// CSR fill from a canonical edge list: `u < v`, sorted, no
    /// duplicates, every endpoint `< n`. Filling row by row in edge order
    /// leaves every row ascending — a row's lower neighbours arrive with
    /// their own (earlier) edges, its upper ones in the order of its own
    /// edges. The list is consumed: the CSR keeps no copy of it.
    fn from_canonical_edges(n: usize, edges: Vec<(u32, u32)>) -> Graph {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        let (mut min_degree, mut max_degree) = (usize::MAX, 0);
        for v in 0..n {
            let d = offsets[v + 1];
            min_degree = min_degree.min(d);
            max_degree = max_degree.max(d);
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; offsets[n]];
        for &(u, v) in &edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        debug_assert!(
            (0..n).all(|v| neighbors[offsets[v]..offsets[v + 1]].is_sorted_by(|a, b| a < b)),
            "canonical fill left a row unsorted"
        );
        Graph {
            offsets,
            neighbors,
            max_degree: max_degree as u32,
            min_degree: min_degree as u32,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Maximum degree `δ` over all nodes (0 for an edgeless graph).
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Minimum degree over all nodes.
    #[inline]
    pub fn min_degree(&self) -> u32 {
        self.min_degree
    }

    /// Sorted slice of neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Start of `v`'s neighbour slots in the CSR arrays.
    ///
    /// `neighbors(v)[i]` lives in global CSR slot `neighbor_offset(v) + i`;
    /// per-slot side arrays (such as the precomputed edge weights of
    /// [`crate::weights`]) are indexed with exactly this offset.
    #[inline]
    pub fn neighbor_offset(&self, v: u32) -> usize {
        self.offsets[v as usize]
    }

    /// The canonical edge list, read off the CSR: each undirected edge
    /// once as `(u, v)` with `u < v`, in lexicographic order — node `u`
    /// ascending, then its upper slots (the sorted neighbours `v > u`).
    /// The `k`-th item is edge index `k` wherever an edge index is used
    /// ([`Graph::edge_subgraph`]). Nothing is stored: an analysis that
    /// indexes or shuffles edges collects this into its own `Vec`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.nodes().flat_map(move |u| {
            let row = self.neighbors(u);
            row[row.partition_point(|&v| v < u)..]
                .iter()
                .map(move |&v| (u, v))
        })
    }

    /// The flat CSR adjacency array (all neighbour lists concatenated,
    /// length `2m`). Node `v`'s neighbours occupy slots
    /// `neighbor_offset(v) .. neighbor_offset(v) + degree(v)`; kernels
    /// that already know a node's offset and degree (e.g. from a
    /// [`crate::structure::GatherPlan`] degree run) index this directly
    /// and skip the per-node offsets lookup.
    #[inline]
    pub fn neighbor_slots(&self) -> &[u32] {
        &self.neighbors
    }

    /// Whether `(u, v)` is an edge. `O(log δ)` via binary search.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u as usize >= self.n() || v as usize >= self.n() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.n() as u32
    }

    /// Sum of all degrees; equals `2m` (handshake lemma).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns the subgraph on the same node set keeping exactly the edges
    /// for which `keep(edge_index, (u, v))` returns `true`.
    ///
    /// This is the primitive the dynamic-network model (paper Section 5) is
    /// built on: `G_k` is a per-round edge subset of a ground graph.
    pub fn edge_subgraph<F>(&self, mut keep: F) -> Graph
    where
        F: FnMut(usize, (u32, u32)) -> bool,
    {
        // A filtered canonical list is still sorted and simple.
        let kept: Vec<(u32, u32)> = self
            .edges()
            .enumerate()
            .filter(|&(k, e)| keep(k, e))
            .map(|(_, e)| e)
            .collect();
        Graph::from_canonical_edges(self.n(), kept)
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        self.degree_sum() as f64 / self.n() as f64
    }
}

/// The adjacency the diffusion gather walks: CSR rows `0..rows()`, each a
/// neighbour list of node ids, plus the degree of every id a row can
/// name. A [`Graph`] is the square case (every node is a row). A shard's
/// [`LocalCsr`](crate::partition::LocalCsr) has its owned nodes as rows
/// and also knows the degrees of its halo, which are ids but not rows.
///
/// The gather plan ([`GatherPlan`](crate::structure::GatherPlan)) and the
/// engine's kernels are generic over this trait; every method is a plain
/// forward on `Graph`, so the graph instantiation compiles to the same
/// code as before.
pub trait Csr {
    /// Number of rows: the nodes a gather can evaluate.
    fn rows(&self) -> usize;

    /// Degree of node `v`, for every id a row can name.
    fn degree(&self, v: u32) -> u32;

    /// Largest degree over every id a row can name.
    fn max_degree(&self) -> u32;

    /// Smallest degree over every id a row can name.
    fn min_degree(&self) -> u32;

    /// Neighbour list of row `v`, in CSR slot order.
    fn neighbors(&self, v: u32) -> &[u32];

    /// Offset of row `v`'s first slot in [`Csr::neighbor_slots`].
    fn neighbor_offset(&self, v: u32) -> usize;

    /// All rows' neighbour lists, concatenated.
    fn neighbor_slots(&self) -> &[u32];
}

impl Csr for Graph {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.n()
    }

    #[inline(always)]
    fn degree(&self, v: u32) -> u32 {
        Graph::degree(self, v)
    }

    #[inline(always)]
    fn max_degree(&self) -> u32 {
        Graph::max_degree(self)
    }

    #[inline(always)]
    fn min_degree(&self) -> u32 {
        Graph::min_degree(self)
    }

    #[inline(always)]
    fn neighbors(&self, v: u32) -> &[u32] {
        Graph::neighbors(self, v)
    }

    #[inline(always)]
    fn neighbor_offset(&self, v: u32) -> usize {
        Graph::neighbor_offset(self, v)
    }

    #[inline(always)]
    fn neighbor_slots(&self) -> &[u32] {
        Graph::neighbor_slots(self)
    }
}

/// Incremental builder for [`Graph`].
///
/// Collects edges (deduplicating at [`GraphBuilder::build`] time), validates
/// endpoints eagerly so errors point at the offending call site.
#[derive(Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n ≥ 1` nodes.
    pub fn new(n: usize) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        Ok(GraphBuilder {
            n,
            edges: Vec::new(),
        })
    }

    /// Creates a builder with preallocated capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Result<Self, GraphError> {
        let mut b = Self::new(n)?;
        b.edges.reserve(m);
        Ok(b)
    }

    /// Adds the undirected edge `{u, v}`. Order does not matter; duplicates
    /// are merged when the graph is built.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<&mut Self, GraphError> {
        if u as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(self)
    }

    /// Finalizes the CSR structure.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_canonical_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = Graph::from_edges(5, [(4, 0), (2, 0), (0, 1), (3, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.max_degree(), 4);
        for v in 1..5 {
            assert_eq!(g.neighbors(v), &[0]);
        }
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 3, n: 3 });
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(GraphBuilder::new(0).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_node_graph_is_valid() {
        let g = Graph::from_edges(1, std::iter::empty()).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 7));
    }

    #[test]
    fn has_edge_binary_search_on_high_degree_star() {
        // Regression pin for the O(log δ) `has_edge`: the hub of a star
        // has a huge sorted neighbour row, and `binary_search` must agree
        // with membership at every position — first, last, middle, and
        // absent values (the classic off-by-one spots of a hand-rolled
        // scan-to-search conversion).
        let n = 50_001u32;
        let g = Graph::from_edges(n as usize, (1..n).map(|v| (0, v))).unwrap();
        assert_eq!(g.degree(0), n - 1);
        for v in [1, 2, n / 2, n - 2, n - 1] {
            assert!(g.has_edge(0, v), "hub → {v}");
            assert!(g.has_edge(v, 0), "{v} → hub");
        }
        // Leaves are not adjacent to each other, and out-of-range nodes
        // are never adjacent.
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(n - 1, n - 2));
        assert!(!g.has_edge(0, n));
        assert!(!g.has_edge(n, 0));
    }

    #[test]
    fn edge_list_canonical() {
        let g = Graph::from_edges(4, [(3, 1), (2, 0), (1, 0)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn handshake_lemma() {
        let g = triangle();
        assert_eq!(g.degree_sum(), 2 * g.m());
        let total: u32 = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(total as usize, 2 * g.m());
    }

    #[test]
    fn edge_subgraph_keeps_selected() {
        let g = triangle();
        let h = g.edge_subgraph(|_, (u, v)| (u, v) != (0, 2));
        assert_eq!(h.n(), 3);
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
        assert!(!h.has_edge(0, 2));
    }

    #[test]
    fn edge_subgraph_empty_keep() {
        let g = triangle();
        let h = g.edge_subgraph(|_, _| false);
        assert_eq!(h.m(), 0);
        assert_eq!(h.max_degree(), 0);
    }

    /// `from_rows` over fixed per-node rows.
    fn rows_graph(rows: &[&[u32]]) -> Result<Graph, GraphError> {
        let slots = rows.iter().map(|r| r.len()).sum();
        Graph::from_rows(rows.len(), slots, |v, buf| {
            buf.extend_from_slice(rows[v as usize])
        })
    }

    #[test]
    fn from_rows_sorts_rows_and_matches_builder() {
        // Node 0's row arrives out of order, as a torus wrap row does.
        let g = rows_graph(&[&[3, 1], &[0, 2], &[1, 3], &[0, 2]]).unwrap();
        let reference = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g, reference);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            [(0, 1), (0, 3), (1, 2), (2, 3)]
        );
        assert_eq!((g.min_degree(), g.max_degree()), (2, 2));
    }

    #[test]
    fn from_rows_rejects_empty_graph() {
        assert_eq!(rows_graph(&[]).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn from_rows_rejects_out_of_range() {
        let err = rows_graph(&[&[1], &[0, 2]]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2, n: 2 });
    }

    #[test]
    fn from_rows_rejects_self_loop() {
        let err = rows_graph(&[&[1], &[0, 1], &[]]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    #[should_panic(expected = "row 0 repeats a neighbour")]
    fn from_rows_rejects_duplicate_neighbour() {
        let _ = rows_graph(&[&[1, 1], &[0]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "neighbour rows are not symmetric")]
    fn from_rows_rejects_asymmetric_rows_in_debug() {
        let _ = rows_graph(&[&[1, 2], &[0], &[]]);
    }

    #[test]
    fn builder_caches_min_degree() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        assert_eq!((g.min_degree(), g.max_degree()), (1, 3));
        assert_eq!(g.edge_subgraph(|_, e| e != (0, 3)).min_degree(), 0);
    }

    #[test]
    fn avg_degree_triangle() {
        assert!((triangle().avg_degree() - 2.0).abs() < 1e-12);
    }
}
