//! Adversarial-shape equivalence tests for the kernel dispatch layer:
//! every [`KernelKind`] must reproduce the per-node `node_new_load`
//! reference bit-for-bit on graphs chosen to stress the dispatcher's
//! edges — degree-0 nodes (empty runs), stars (one long leaf run plus a
//! hub whose degree matches no unrolled variant), degree runs that do
//! not tile the 8-wide lane chunks, and shard counts exceeding `n`.
//!
//! These complement `engine_properties.rs` (random graphs, all 16
//! protocols): here the *graphs* are adversarial and the reference is
//! the protocol's own scalar gather, exercised per node.

use dlb_core::continuous::{ContinuousDiffusion, GeneralizedDiffusion};
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::{Backend, Engine, Protocol, StatsMode};
use dlb_core::KernelKind;
use dlb_graphs::{topology, Graph, PartitionSpec};

/// Graphs chosen to stress the dispatcher: regular (torus, hypercube,
/// complete), mixed-run (star, binary tree, path), lane-remainder
/// degrees (complete(10): degree 9 = 8 + 1), and isolated nodes
/// (explicit edge lists with unreferenced ids).
fn adversarial_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("torus2d_5x7", topology::torus2d(5, 7)),
        ("cycle_17", topology::cycle(17)),
        ("hypercube_5", topology::hypercube(5)),
        ("complete_10", topology::complete(10)),
        ("star_64", topology::star(64)),
        ("binary_tree_21", topology::binary_tree(21)),
        ("path_11", topology::path(11)),
        (
            // Nodes 3..9 isolated: the plan must cover them with a
            // degree-0 run and the kernels must pass loads through.
            "isolated_tail",
            Graph::from_edges(9, [(0, 1), (1, 2)]).unwrap(),
        ),
        (
            // Degree runs of length 5 — shorter than the 8-wide lane
            // chunks and not aligned to any unrolled width.
            "comb_12",
            {
                let mut b = dlb_graphs::GraphBuilder::new(12).unwrap();
                for i in 0..6u32 {
                    if i + 1 < 6 {
                        b.add_edge(i, i + 1).unwrap();
                    }
                    b.add_edge(i, 6 + i).unwrap();
                }
                b.build()
            },
        ),
    ]
}

fn f64_loads(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 131 + 17) % 4099) as f64 / 7.0)
        .collect()
}

fn i64_loads(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i * 1009 + 7) % 50_000) as i64).collect()
}

/// One serial engine round per kernel kind, compared bitwise against the
/// protocol's own per-node gather (`node_new_load` over the snapshot).
fn assert_kernels_match_reference<P, M>(graph_name: &str, make: M, init: &[P::Load])
where
    P: Protocol + Sync,
    P::Load: PartialEq + std::fmt::Debug,
    M: Fn() -> P,
{
    let protocol = make();
    let reference: Vec<P::Load> = (0..protocol.n())
        .map(|v| protocol.node_new_load(init, v as u32))
        .collect();
    for kind in KernelKind::ALL {
        let mut engine = Engine::serial(make()).with_kernel(kind);
        let mut loads = init.to_vec();
        engine.round(&mut loads);
        assert_eq!(
            reference,
            loads,
            "{graph_name}: {} kernel diverged from node_new_load ({})",
            kind.name(),
            make().name()
        );
    }
}

#[test]
fn continuous_kernels_match_per_node_reference_on_adversarial_shapes() {
    for (name, g) in adversarial_graphs() {
        let init = f64_loads(g.n());
        assert_kernels_match_reference(name, || ContinuousDiffusion::new(&g), &init);
    }
}

#[test]
fn generalized_kernels_match_per_node_reference_on_adversarial_shapes() {
    for (name, g) in adversarial_graphs() {
        let init = f64_loads(g.n());
        assert_kernels_match_reference(name, || GeneralizedDiffusion::new(&g, 6.0), &init);
    }
}

#[test]
fn discrete_kernels_match_per_node_reference_on_adversarial_shapes() {
    for (name, g) in adversarial_graphs() {
        let init = i64_loads(g.n());
        assert_kernels_match_reference(name, || DiscreteDiffusion::new(&g), &init);
    }
}

/// Multi-round kernel × backend equivalence on the adversarial shapes,
/// with shard counts exceeding `n` — the parallel path the single-round
/// serial check above cannot see (list gathers over shard interiors and
/// boundaries, halo frames on the message backend).
#[test]
fn kernel_backend_cross_product_stays_bit_identical_with_excess_shards() {
    for (name, g) in adversarial_graphs() {
        let init = f64_loads(g.n());
        let mut reference = init.clone();
        Engine::serial(ContinuousDiffusion::new(&g))
            .with_kernel(KernelKind::Scalar)
            .rounds(&mut reference, 5);
        let backends = [
            Backend::Pool { threads: 3 },
            Backend::Message {
                partition: PartitionSpec::Range { shards: g.n() + 5 },
                resident: false,
            },
            Backend::Message {
                partition: PartitionSpec::Bfs { shards: 4 },
                resident: false,
            },
        ];
        for kind in KernelKind::ALL {
            for backend in backends {
                let mut engine =
                    Engine::with_backend(ContinuousDiffusion::new(&g), backend).with_kernel(kind);
                let mut loads = init.clone();
                engine.rounds(&mut loads, 5);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&reference),
                    bits(&loads),
                    "{name}: {backend:?} with the {} kernel diverged",
                    kind.name()
                );
            }
        }
    }
}

/// Degree-0 nodes must round-trip their load exactly — including the
/// i64 path, whose lift/lower crosses an i128 accumulator.
#[test]
fn isolated_nodes_pass_loads_through_unchanged() {
    let g = Graph::from_edges(7, [(0, 1)]).unwrap();
    for kind in KernelKind::ALL {
        let mut loads = vec![5i64, -3, 1 << 55, -(1 << 55), 0, 42, i64::MAX / 2];
        let expected = {
            let mut e = loads.clone();
            // Only the edge's endpoints move: floor((5 - (-3))/4) = 2.
            e[0] -= 2;
            e[1] += 2;
            e
        };
        // Stats off: the Φ sweep would square the 2^55-scale loads, and
        // this test is about the kernel path, not the statistics.
        Engine::serial(DiscreteDiffusion::new(&g))
            .with_kernel(kind)
            .with_stats_mode(StatsMode::Off)
            .round(&mut loads);
        assert_eq!(expected, loads, "{} kernel", kind.name());
    }
}
