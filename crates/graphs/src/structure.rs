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
//! The same pass also finds **lane blocks**: every 8-aligned block of 8
//! consecutive nodes that lies inside one run of degree `1..=32`. A lane
//! kernel gathers such a block slot by slot across its 8 nodes, and the
//! plan records per block a `u32` slot mask ([`GatherPlan::lane_mask`]): bit
//! `j` is set when lane `i`'s `j`-th neighbour is lane 0's `j`-th
//! neighbour plus `i`, for every lane, so the 8 loads of slot `j` are one
//! contiguous slice of the load vector. Detection reads the CSR alone,
//! never a topology tag, so a shard's
//! [`LocalCsr`](crate::partition::LocalCsr) gets masks too. Every slot of
//! an interior torus block is contiguous; on a hypercube every slot that
//! flips a bit ≥ 3 is, and the three slots flipping bits 0–2 (in the
//! middle of each row) are not.
//!
//! Plans are cheap (one `O(m)` pass over the adjacency; a `Vec` of runs
//! and 4 bytes of mask per 8 nodes) and the engine memoizes them per
//! graph fingerprint alongside its shard plans, so dynamic-topology
//! runners pay the analysis only when the graph actually changes.

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

/// Nodes per lane block: 8-aligned, so a block never straddles a
/// statistics reduction block or a pool chunk.
pub const LANE_BLOCK: u32 = 8;

/// Largest degree a lane block holds (one mask bit per slot).
pub const MAX_LANE_DEGREE: u32 = u32::BITS;

/// The per-graph iteration schedule consumed by the kernel dispatcher:
/// maximal degree runs in ascending node order, covering `0..n` exactly,
/// plus the slot mask of every lane block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherPlan {
    n: usize,
    runs: Vec<DegreeRun>,
    /// Slot mask per 8-aligned node block (`v / LANE_BLOCK`); 0 for a
    /// block that is no lane block.
    lane_masks: Vec<u32>,
}

/// The slot mask of the lane block of degree `d` starting at node `v0`:
/// bit `j` is set when `neighbors(v0 + i)[j] == neighbors(v0)[j] + i` for
/// every lane `i`.
fn lane_mask<G: Csr>(g: &G, v0: u32, d: u32) -> u32 {
    let first = g.neighbor_offset(v0);
    let slots = &g.neighbor_slots()[first..first + (LANE_BLOCK * d) as usize];
    let (row0, rest) = slots.split_at(d as usize);
    let mut mask = u32::MAX >> (u32::BITS - d);
    for (row, i) in rest.chunks_exact(d as usize).zip(1..) {
        for (j, (&u, &u0)) in row.iter().zip(row0).enumerate() {
            if u.checked_sub(u0) != Some(i) {
                mask &= !(1 << j);
            }
        }
    }
    mask
}

impl GatherPlan {
    /// Scans the degree sequence and the neighbours' degrees and
    /// materializes the maximal-run schedule over the rows of `g` (every
    /// node of a [`Graph`](crate::Graph), the owned rows of a shard's
    /// [`LocalCsr`](crate::partition::LocalCsr)), with the slot mask of
    /// every lane block. One pass, `O(m)`.
    pub fn build<G: Csr>(g: &G) -> GatherPlan {
        let n = g.rows();
        let regular = g.min_degree() == g.max_degree();
        let mut runs: Vec<DegreeRun> = Vec::new();
        let mut lane_masks = vec![0u32; n / LANE_BLOCK as usize];
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
            // The block ending at `v` is a lane block when the run
            // holding `v` began at or before the block's first node.
            if (v + 1).is_multiple_of(LANE_BLOCK) && (1..=MAX_LANE_DEGREE).contains(&d) {
                let v0 = v + 1 - LANE_BLOCK;
                if runs.last().is_some_and(|r| r.start <= v0) {
                    lane_masks[(v0 / LANE_BLOCK) as usize] = lane_mask(g, v0, d);
                }
            }
        }
        GatherPlan {
            n,
            runs,
            lane_masks,
        }
    }

    /// Row count of the CSR the plan was built from (a graph's `n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The maximal degree runs, ascending by node, covering `0..n`.
    pub fn runs(&self) -> &[DegreeRun] {
        &self.runs
    }

    /// The slot mask of the lane block starting at `v0`, an 8-aligned
    /// node inside one run of degree `1..=32` (see the module docs).
    #[inline]
    pub fn lane_mask(&self, v0: u32) -> u32 {
        debug_assert!(v0.is_multiple_of(LANE_BLOCK), "lane blocks are 8-aligned");
        self.lane_masks[(v0 / LANE_BLOCK) as usize]
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
    use crate::partition::{Partition, ShardPlan};
    use crate::{topology, Graph};

    /// Shared invariants: runs are non-empty, contiguous, cover `0..n`,
    /// agree with the per-node degrees, and carry correct CSR bases; the
    /// lane blocks are exactly the 8-aligned blocks inside one run of
    /// degree `1..=32`, and each mask bit is set exactly when its slot is
    /// `+i` across the block's lanes.
    fn check_invariants<G: Csr>(g: &G, plan: &GatherPlan) {
        assert_eq!(plan.n(), g.rows());
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
        assert_eq!(cursor as usize, g.rows(), "runs must cover 0..n");
        // Adjacent runs have distinct degrees — runs are maximal.
        for w in plan.runs().windows(2) {
            assert_ne!(w[0].degree, w[1].degree, "runs must be maximal");
        }
        for v in 0..g.rows() as u32 {
            let r = &plan.runs()[plan.run_index(v)];
            assert!(r.start <= v && v < r.end, "run_index({v})");
        }
        let mut want = Vec::new();
        for v0 in (0..g.rows() as u32 / LANE_BLOCK).map(|b| b * LANE_BLOCK) {
            let r = &plan.runs()[plan.run_index(v0)];
            let d = r.degree;
            if v0 + LANE_BLOCK > r.end || !(1..=MAX_LANE_DEGREE).contains(&d) {
                assert_eq!(plan.lane_mask(v0), 0, "no lane block at {v0}");
                continue;
            }
            let mut mask = 0;
            for j in 0..d as usize {
                let u0 = g.neighbors(v0)[j];
                if (0..LANE_BLOCK).all(|i| g.neighbors(v0 + i)[j] == u0 + i) {
                    mask |= 1 << j;
                }
            }
            want.push((v0, mask));
        }
        assert_eq!(lane_blocks(plan), want, "lane blocks and their masks");
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

    /// Every lane block of `plan`, ascending: its first node and its
    /// slot mask.
    fn lane_blocks(plan: &GatherPlan) -> Vec<(u32, u32)> {
        plan.runs()
            .iter()
            .filter(|r| (1..=MAX_LANE_DEGREE).contains(&r.degree))
            .flat_map(|r| {
                let first = r.start.next_multiple_of(LANE_BLOCK);
                (first..r.end.saturating_sub(LANE_BLOCK - 1)).step_by(LANE_BLOCK as usize)
            })
            .map(|v0| (v0, plan.lane_mask(v0)))
            .collect()
    }

    /// The masks of the plan's lane blocks, ascending.
    fn masks(plan: &GatherPlan) -> Vec<u32> {
        lane_blocks(plan)
            .into_iter()
            .map(|(_, mask)| mask)
            .collect()
    }

    /// Slots of a 16-column torus row, sorted: `[v−16, v−1, v+1, v+16]`
    /// inside a row, so slots 0 and 3 are `+i` across every block; the
    /// column wrap of lane 0 (first block) or lane 7 (second block)
    /// breaks slots 1 and 2. Rows 0 and 15 also wrap vertically, which
    /// moves the contiguous pair to slots 2–3 and 0–1.
    #[test]
    fn torus_lane_blocks_mark_the_rows_without_a_wrap() {
        let g = topology::torus2d(16, 16);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        let mut want = vec![0b1100; 2];
        want.extend([0b1001; 28]);
        want.extend([0b0011; 2]);
        assert_eq!(masks(&plan), want);
        // A 24-column row has a block touching neither column wrap: all
        // four slots are contiguous there.
        let g = topology::torus2d(3, 24);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert_eq!(
            masks(&plan),
            [0b1100, 0b1111, 0b1100, 0b1001, 0b1111, 0b1001, 0b0011, 0b1111, 0b0011]
        );
    }

    /// A 17×11 grid's interior runs hold 9 nodes; an 8-aligned block
    /// fits in rows 2, 5, 10 and 13, and no boundary run holds one.
    #[test]
    fn grid_lane_blocks_sit_in_interior_runs() {
        let g = topology::grid2d(17, 11);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert_eq!(
            lane_blocks(&plan),
            [(24, 0b1111), (56, 0b1111), (112, 0b1111), (144, 0b1111)]
        );
    }

    /// A hypercube row flips its set bits high→low, then its clear bits
    /// low→high. Across a block the bits ≥ 3 agree, so every slot that
    /// flips one is `+i`; the three slots flipping bits 0–2 sit in the
    /// middle, after the block's `popcount(v0 >> 3)` lower slots.
    #[test]
    fn hypercube_lane_blocks_gather_the_low_bits_by_index() {
        let g = topology::hypercube(3);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        assert_eq!(lane_blocks(&plan), [(0, 0)]);
        let g = topology::hypercube(7);
        let plan = GatherPlan::build(&g);
        check_invariants(&g, &plan);
        let want: Vec<(u32, u32)> = (0..16u32)
            .map(|b| (8 * b, 0x7f & !(0b111 << b.count_ones())))
            .collect();
        assert_eq!(lane_blocks(&plan), want);
    }

    /// A range shard's local CSR keeps its owned rows in order and sorts
    /// its halo by global id, so each shard of an 8×16 torus sees the
    /// global masks of its rows.
    #[test]
    fn local_csr_lane_blocks_follow_the_global_masks() {
        let g = topology::torus2d(8, 16);
        let shard_plan = ShardPlan::build(&g, &Partition::range(g.n(), 2));
        let want = [
            [
                0b1100, 0b1100, 0b1001, 0b1001, 0b1001, 0b1001, 0b1001, 0b1001,
            ],
            [
                0b1001, 0b1001, 0b1001, 0b1001, 0b1001, 0b1001, 0b0011, 0b0011,
            ],
        ];
        for (s, want) in want.iter().enumerate() {
            let csr = shard_plan.local_csr(&g, s);
            let plan = GatherPlan::build(&csr);
            check_invariants(&csr, &plan);
            assert_eq!(masks(&plan), want, "shard {s}");
        }
    }

    /// Relabelled by a fixed permutation, a torus keeps its degrees (one
    /// run, every block a lane block) but loses every contiguous slot.
    #[test]
    fn a_relabelled_torus_has_no_contiguous_slot() {
        let g = topology::torus2d(16, 16);
        // A Fisher–Yates shuffle driven by a fixed LCG.
        let mut label: Vec<u32> = (0..g.n() as u32).collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in (1..label.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            label.swap(i, (state >> 33) as usize % (i + 1));
        }
        let relabel = |v: u32| label[v as usize];
        let h = Graph::from_edges(g.n(), g.edges().map(|(u, v)| (relabel(u), relabel(v)))).unwrap();
        let plan = GatherPlan::build(&h);
        check_invariants(&h, &plan);
        assert_eq!(lane_blocks(&plan).len(), 32);
        assert!(masks(&plan).iter().all(|&m| m == 0), "{:?}", masks(&plan));
    }
}
