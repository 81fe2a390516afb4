//! Property-based tests for the graph substrate.

use dlb_graphs::partition::{Partition, PartitionSpec, ShardPlan};
use dlb_graphs::{matching, topology, traversal, Csr, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: arbitrary (possibly duplicated) edge list over `n` nodes.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec(
            (0u32..n as u32, 0u32..n as u32).prop_filter("no self-loops", |(u, v)| u != v),
            0..80,
        );
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn builder_invariants((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        // Handshake.
        prop_assert_eq!(g.degree_sum(), 2 * g.m());
        // Neighbour lists sorted, no self entries, symmetric.
        for v in g.nodes() {
            let neigh = g.neighbors(v);
            for w in neigh.windows(2) {
                prop_assert!(w[0] < w[1], "unsorted/duplicate neighbour");
            }
            for &u in neigh {
                prop_assert!(u != v);
                prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
            }
        }
        // Canonical edge list, read off the CSR: m pairs, u < v, strictly
        // increasing, each an edge.
        let list: Vec<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(list.len(), g.degree_sum() / 2);
        for w in list.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &(u, v) in &list {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
        // Every input edge is present.
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn edge_subgraph_is_monotone((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        let h = g.edge_subgraph(|k, _| k % 2 == 0);
        let kept = g.edges().step_by(2);
        prop_assert_eq!(&h, &Graph::from_edges(n, kept).expect("valid edges"));
        prop_assert!(h.m() <= g.m());
        prop_assert_eq!(h.n(), g.n());
        for (u, v) in h.edges() {
            prop_assert!(g.has_edge(u, v));
        }
        prop_assert!(h.max_degree() <= g.max_degree());
    }

    #[test]
    fn bfs_symmetry_of_connectivity((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        let d0 = traversal::bfs_distances(&g, 0);
        for v in 1..n as u32 {
            let dv = traversal::bfs_distances(&g, v);
            // Reachability (and distance) is symmetric in undirected graphs.
            prop_assert_eq!(d0[v as usize], dv[0]);
        }
    }

    #[test]
    fn components_partition_nodes((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        let (labels, count) = traversal::components(&g);
        // Labels are canonical (smallest node of component labels itself).
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), count);
        for &root in &distinct {
            prop_assert_eq!(labels[root as usize], root);
        }
        // Edges never cross components.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    #[test]
    fn greedy_matching_maximal_and_valid((n, edges) in arb_edge_list(), seed in 0u64..500) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        let mut rng = StdRng::seed_from_u64(seed);
        let m = matching::random_greedy_matching(&g, &mut rng);
        let mut used = vec![false; n];
        for &(u, v) in m.pairs() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(!used[u as usize] && !used[v as usize]);
            used[u as usize] = true;
            used[v as usize] = true;
        }
        prop_assert!(m.is_maximal(&g));
    }

    #[test]
    fn random_regular_really_regular(half_n in 3usize..24, d in 2usize..6, seed in 0u64..100) {
        let n = 2 * half_n; // even n keeps n·d even for odd d
        prop_assume!(d < n);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = topology::random_regular(n, d, &mut rng);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v) as usize, d);
        }
    }

    #[test]
    fn builder_rejects_bad_input(n in 1usize..10, v in 0u32..20) {
        let mut b = GraphBuilder::new(n).expect("n >= 1");
        if (v as usize) < n {
            prop_assert!(b.add_edge(v, v).is_err(), "self-loop accepted");
        } else {
            prop_assert!(b.add_edge(0, v).is_err(), "out-of-range accepted");
        }
    }

    #[test]
    fn diameter_at_most_n_minus_one((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        if let Some(d) = traversal::diameter(&g) {
            prop_assert!((d as usize) < n);
        } else {
            prop_assert!(!traversal::is_connected(&g));
        }
    }

    /// Partition invariants over random graphs × shard counts (including
    /// `shards = 1` and `shards > n`): every node covered exactly once,
    /// the max-imbalance bound `max shard ≤ ⌈n/shards⌉` respected by the
    /// BFS partitioner (range sizes differ by ≤ 1, an even tighter bound),
    /// and the reported edge cut equal to a brute-force recount.
    #[test]
    fn partition_invariants((n, edges) in arb_edge_list(), shards in 1usize..60) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        for spec in [PartitionSpec::Range { shards }, PartitionSpec::Bfs { shards }] {
            let p = spec.build(&g);
            prop_assert_eq!(p.n(), n);
            prop_assert_eq!(p.shards(), shards);

            // Coverage: each node owned exactly once (owner vector and
            // member lists agree).
            let mut seen = vec![0usize; n];
            for (s, members) in p.member_lists().into_iter().enumerate() {
                for v in members {
                    prop_assert_eq!(p.owner_of(v), s);
                    seen[v as usize] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "{:?}: coverage broken", spec);

            // Balance bound.
            prop_assert!(
                p.max_shard_size() <= p.size_bound(),
                "{:?}: {} > {}", spec, p.max_shard_size(), p.size_bound()
            );
            if matches!(spec, PartitionSpec::Range { .. }) {
                let (min_nonempty, max) = (
                    (0..shards).map(|s| p.shard_size(s)).filter(|&s| s > 0).min().unwrap_or(0),
                    p.max_shard_size(),
                );
                prop_assert!(max - min_nonempty <= 1, "range sizes differ by > 1");
            }

            // Edge cut = brute-force recount over the edge list.
            let brute = g
                .edges()
                .filter(|&(u, v)| p.owner_of(u) != p.owner_of(v))
                .count();
            prop_assert_eq!(p.edge_cut(&g), brute, "{:?}: edge cut mismatch", spec);
        }
    }

    /// Shard-plan invariants on the same instances: views cover all nodes,
    /// interior nodes have owned-only neighbourhoods, halos are exactly
    /// the remote neighbours of the boundary, halo totals add up, and the
    /// local CSR maps back onto the global one.
    #[test]
    fn shard_plan_invariants((n, edges) in arb_edge_list(), shards in 1usize..20) {
        let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        let p = Partition::bfs(&g, shards);
        let plan = ShardPlan::build(&g, &p);
        prop_assert_eq!(plan.edge_cut(), p.edge_cut(&g));
        let mut covered = 0usize;
        let mut halo_sum = 0usize;
        let mut interior_sum = 0usize;
        for (s, view) in plan.views().iter().enumerate() {
            covered += view.owned().len();
            halo_sum += view.halo().len();
            interior_sum += view.interior().len();
            for &v in view.interior() {
                for &u in g.neighbors(v) {
                    prop_assert_eq!(p.owner_of(u), view.shard());
                }
            }
            for &v in view.boundary() {
                prop_assert!(g.neighbors(v).iter().any(|&u| p.owner_of(u) != view.shard()));
            }
            let mut expect_halo: Vec<u32> = view
                .boundary()
                .iter()
                .flat_map(|&v| g.neighbors(v).iter().copied())
                .filter(|&u| p.owner_of(u) != view.shard())
                .collect();
            expect_halo.sort_unstable();
            expect_halo.dedup();
            prop_assert_eq!(view.halo(), &expect_halo[..]);
            let csr = plan.local_csr(&g, s);
            for (row, &v) in view.owned().iter().enumerate() {
                let mut neigh: Vec<u32> = csr
                    .neighbors(row as u32)
                    .iter()
                    .map(|&lid| view.global_of(lid))
                    .collect();
                neigh.sort_unstable();
                prop_assert_eq!(&neigh[..], g.neighbors(v));
                prop_assert!(csr.neighbors(row as u32).iter().copied().eq(plan.local_row(&g, s, row)));
            }
        }
        prop_assert_eq!(covered, n);
        prop_assert_eq!(plan.halo_total(), halo_sum);
        prop_assert_eq!(plan.interior_total(), interior_sum);
    }
}
