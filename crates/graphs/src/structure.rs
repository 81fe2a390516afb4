//! Degree-structure analysis for the engine's kernel dispatch.
//!
//! The diffusion gather is one sparse sweep over the CSR adjacency, and
//! its shape is decided entirely by the *degree sequence*: a torus is a
//! single run of degree-4 nodes, a binary tree is a handful of long
//! degree runs, a preferential-attachment graph is an irregular tail.
//! [`GatherPlan`] materializes that structure once per graph as a list of
//! maximal [`DegreeRun`]s — contiguous node ranges of equal degree — so a
//! dispatcher can select a fixed-degree unrolled kernel per run instead of
//! branching per node.
//!
//! Each run also carries the CSR offset of its first node (`base`).
//! Because CSR offsets are prefix sums of degrees, every node inside a
//! run of degree `d` sits at `base + (v − start)·d` — the kernel never
//! touches the offsets array inside a run, which is what makes the inner
//! loop a pure stride over two flat slices.
//!
//! Each run also records the largest degree among its nodes' neighbours.
//! Algorithm 1 divides each edge's transfer by `k·max(dᵥ, dᵤ)`; when no
//! neighbour of a run has a higher degree than the run itself, every slot
//! of the run has the same divisor `k·d` ([`DegreeRun::uniform_divisor`]),
//! and the kernel broadcasts it instead of deriving one per slot. Every
//! run of a regular graph (torus, hypercube) qualifies.
//!
//! Plans are cheap (one `O(m)` pass over the adjacency, `O(n)` on regular
//! graphs, whose neighbour degrees are known; one small `Vec`) and the
//! engine memoizes them per graph fingerprint alongside its shard
//! plans, so dynamic-topology runners pay the analysis only when the
//! graph actually changes.

use crate::graph::Csr;

/// A maximal contiguous range of nodes `start..end` sharing one degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeRun {
    /// First node of the run.
    pub start: u32,
    /// One past the last node of the run.
    pub end: u32,
    /// Common degree of every node in `start..end`.
    pub degree: u32,
    /// CSR offset of `start`'s first neighbour slot; node `v` in the run
    /// has its slots at `base + (v − start)·degree`.
    pub base: usize,
    /// Largest degree among the neighbours of the run's nodes (0 when
    /// the run's nodes are isolated).
    pub neighbor_max_degree: u32,
}

impl DegreeRun {
    /// Number of nodes in the run.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the run is empty (never true for runs built by
    /// [`GatherPlan::build`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether every slot of the run has the same divisor `k·degree`: no
    /// neighbour of the run's nodes has a higher degree than they do.
    pub fn uniform_divisor(&self) -> bool {
        self.neighbor_max_degree <= self.degree
    }
}

/// Coarse classification of a plan, for reporting and bench metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeStructure {
    /// Every node has the same degree (torus, hypercube, cycle, complete).
    Regular {
        /// The uniform degree.
        degree: u32,
    },
    /// Few long runs (trees, grids with boundary rows): run-specialized
    /// kernels still amortize their dispatch.
    RunBlocks {
        /// Number of maximal degree runs.
        runs: usize,
    },
    /// Degrees alternate node-to-node; dispatch degenerates to per-node
    /// work and the scalar-shaped path dominates.
    Irregular {
        /// Number of maximal degree runs.
        runs: usize,
    },
}

/// Minimum average run length for a multi-run plan to still count as
/// [`DegreeStructure::RunBlocks`].
const MIN_BLOCK_RUN: usize = 16;

/// The per-graph iteration schedule consumed by the kernel dispatcher:
/// maximal degree runs in ascending node order, covering `0..n` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherPlan {
    n: usize,
    runs: Vec<DegreeRun>,
}

impl GatherPlan {
    /// Scans the degree sequence and the neighbours' degrees and
    /// materializes the maximal-run schedule over the rows of `g` (every
    /// node of a [`Graph`](crate::Graph), the owned rows of a shard's
    /// [`LocalCsr`](crate::partition::LocalCsr)). One pass, `O(m)`;
    /// `O(n)` when every id has the same degree.
    pub fn build<G: Csr>(g: &G) -> GatherPlan {
        let n = g.rows();
        let regular = g.min_degree() == g.max_degree();
        let mut runs: Vec<DegreeRun> = Vec::new();
        for v in 0..n as u32 {
            let d = g.degree(v);
            let nbr_max = if regular {
                d
            } else {
                g.neighbors(v)
                    .iter()
                    .map(|&u| g.degree(u))
                    .max()
                    .unwrap_or(0)
            };
            match runs.last_mut() {
                Some(run) if run.degree == d => {
                    run.end = v + 1;
                    run.neighbor_max_degree = run.neighbor_max_degree.max(nbr_max);
                }
                _ => runs.push(DegreeRun {
                    start: v,
                    end: v + 1,
                    degree: d,
                    base: g.neighbor_offset(v),
                    neighbor_max_degree: nbr_max,
                }),
            }
        }
        GatherPlan { n, runs }
    }

    /// Row count of the CSR the plan was built from (a graph's `n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The maximal degree runs, ascending by node, covering `0..n`.
    pub fn runs(&self) -> &[DegreeRun] {
        &self.runs
    }

    /// Index of the run containing node `v` (binary search; `v < n`).
    pub fn run_index(&self, v: u32) -> usize {
        debug_assert!((v as usize) < self.n, "node {v} out of range");
        self.runs.partition_point(|r| r.end <= v)
    }

    /// Classifies the plan: regular / run-blocked / irregular.
    pub fn structure(&self) -> DegreeStructure {
        match self.runs.len() {
            0 | 1 => DegreeStructure::Regular {
                degree: self.runs.first().map_or(0, |r| r.degree),
            },
            k if self.n / k >= MIN_BLOCK_RUN => DegreeStructure::RunBlocks { runs: k },
            k => DegreeStructure::Irregular { runs: k },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Graph};

    /// Shared invariants: runs are non-empty, contiguous, cover `0..n`,
    /// agree with the per-node degrees, and carry correct CSR bases.
    fn check_invariants(g: &Graph, plan: &GatherPlan) {
        assert_eq!(plan.n(), g.n());
        let mut cursor = 0u32;
        for run in plan.runs() {
            assert_eq!(run.start, cursor, "runs must be contiguous");
            assert!(!run.is_empty());
            assert_eq!(run.base, g.neighbor_offset(run.start));
            let nbr_max = (run.start..run.end)
                .flat_map(|v| g.neighbors(v).iter().map(|&u| g.degree(u)))
                .max()
                .unwrap_or(0);
            assert_eq!(run.neighbor_max_degree, nbr_max, "run {run:?}");
            for v in run.start..run.end {
                assert_eq!(g.degree(v), run.degree, "node {v}");
                assert_eq!(
                    run.base + (v - run.start) as usize * run.degree as usize,
                    g.neighbor_offset(v),
                    "stride offset for node {v}"
                );
            }
            cursor = run.end;
        }
        assert_eq!(cursor as usize, g.n(), "runs must cover 0..n");
        // Adjacent runs have distinct degrees — runs are maximal.
        for w in plan.runs().windows(2) {
            assert_ne!(w[0].degree, w[1].degree, "runs must be maximal");
        }
        for v in g.nodes() {
            let r = &plan.runs()[plan.run_index(v)];
            assert!(r.start <= v && v < r.end, "run_index({v})");
        }
    }

    #[test]
    fn torus_is_one_regular_run() {
        let g = topology::torus2d(6, 7);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert_eq!(plan.runs().len(), 1);
        assert_eq!(plan.structure(), DegreeStructure::Regular { degree: 4 });
    }

    #[test]
    fn hypercube_and_cycle_are_regular() {
        for (g, d) in [
            (topology::hypercube(5), 5),
            (topology::cycle(9), 2),
            (topology::complete(6), 5),
        ] {
            let plan = GatherPlan::build(&g);
            check_invariants(&g, &plan);
            assert_eq!(plan.structure(), DegreeStructure::Regular { degree: d });
        }
    }

    #[test]
    fn star_splits_into_hub_and_leaf_runs() {
        let g = topology::star(50);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert_eq!(plan.runs().len(), 2);
        assert_eq!(plan.runs()[0].degree, 49);
        assert_eq!(plan.runs()[0].len(), 1);
        assert_eq!(plan.runs()[1].degree, 1);
        assert_eq!(plan.runs()[1].len(), 49);
    }

    #[test]
    fn runs_record_their_neighbors_max_degree() {
        // (graph, per run: (degree, neighbour max degree)).
        let cases = [
            (topology::torus2d(6, 7), vec![(4, 4)]),
            (topology::hypercube(5), vec![(5, 5)]),
            (topology::star(50), vec![(49, 1), (1, 49)]),
            (topology::path(10), vec![(1, 2), (2, 2), (1, 2)]),
            (
                Graph::from_edges(6, [(0, 1), (1, 2)]).unwrap(),
                vec![(1, 2), (2, 1), (1, 2), (0, 0)],
            ),
        ];
        for (g, want) in cases {
            let plan = GatherPlan::build(&g);
            check_invariants(&g, &plan);
            let got: Vec<(u32, u32)> = plan
                .runs()
                .iter()
                .map(|r| (r.degree, r.neighbor_max_degree))
                .collect();
            assert_eq!(got, want, "{g:?}");
            for r in plan.runs() {
                assert_eq!(r.uniform_divisor(), r.neighbor_max_degree <= r.degree);
            }
        }
        // A binary tree's internal nodes (degree 3) neighbour only
        // degree ≤ 3 nodes; its leaves neighbour a higher-degree parent.
        let g = topology::binary_tree(31);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        for r in plan.runs() {
            assert_eq!(r.uniform_divisor(), r.degree >= 3, "{r:?}");
        }
    }

    #[test]
    fn path_has_endpoint_runs() {
        let g = topology::path(10);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        let degs: Vec<u32> = plan.runs().iter().map(|r| r.degree).collect();
        assert_eq!(degs, vec![1, 2, 1]);
    }

    #[test]
    fn isolated_nodes_form_degree_zero_runs() {
        // Nodes 5..10 are never mentioned by an edge — degree 0.
        let g = Graph::from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        let last = plan.runs().last().unwrap();
        assert_eq!(last.degree, 0);
        assert_eq!(last.len(), 5);
    }

    #[test]
    fn irregular_classification_kicks_in_for_short_runs() {
        // Alternate degrees node-to-node: wheel's rim is uniform, so build
        // a custom comb — spine node i additionally hangs a leaf.
        let mut b = crate::GraphBuilder::new(12).unwrap();
        for i in 0..5u32 {
            b.add_edge(i, i + 1).unwrap();
            b.add_edge(i, 6 + i).unwrap();
        }
        let g = b.build();
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert!(matches!(
            plan.structure(),
            DegreeStructure::Irregular { .. }
        ));
    }

    #[test]
    fn grid_is_run_blocked_at_scale() {
        let g = topology::grid2d(40, 40);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert!(matches!(
            plan.structure(),
            DegreeStructure::RunBlocks { .. }
        ));
    }

    #[test]
    fn edgeless_graph_plan_is_degenerate_regular() {
        let g = Graph::from_edges(3, []).unwrap();
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert_eq!(plan.runs().len(), 1);
        assert_eq!(plan.structure(), DegreeStructure::Regular { degree: 0 });
    }
}
