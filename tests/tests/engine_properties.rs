//! Engine-level property tests: for **every** `Protocol` implementation in
//! the workspace, all four executor backends — serial, pool,
//! message-passing, and process (both range and BFS partitions, including
//! shard counts exceeding `n`) — must produce bit-identical load vectors
//! **and per-round statistics** on arbitrary graphs, initial loads, and
//! thread counts — the structural guarantee the unified engine owes the
//! paper's determinism story. For the message and process backends this
//! additionally pins that shard-local workers fed only their owned values
//! and halo batches (or the coordinator's precomputed values, for
//! protocols without a gather spec) reconstruct the shared-memory rounds
//! exactly.
//!
//! Randomized protocols participate too: their RNG lives inside the
//! protocol and `begin_round` runs before the gather fans out, so equal
//! seeds mean equal rounds regardless of executor.
//!
//! The kernel dispatch layer adds a third axis: every [`KernelKind`]
//! (scalar reference, unrolled) must match the serial **scalar**
//! gather bit-for-bit on every backend — the lane-block kernel is a
//! speed story only, never a results story.

use dlb_baselines::{
    ChebyshevContinuous, FirstOrderContinuous, FirstOrderDiscrete, MatchingExchangeContinuous,
    MatchingExchangeDiscrete, MatchingKind, SecondOrderContinuous, SequentialComparator,
};
use dlb_core::continuous::{ContinuousDiffusion, GeneralizedDiffusion};
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::{Backend, Engine, Protocol};
use dlb_core::heterogeneous::{HeterogeneousDiffusion, HeterogeneousDiscreteDiffusion};
use dlb_core::random_partner::{RandomPartnerContinuous, RandomPartnerDiscrete};
use dlb_core::KernelKind;
use dlb_graphs::PartitionSpec;
use dlb_graphs::{topology, Graph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u8..5, 6usize..40).prop_map(|(family, n)| match family {
        0 => topology::cycle(n),
        1 => topology::star(n),
        2 => topology::binary_tree(n),
        3 => topology::wheel(n.max(4)),
        _ => topology::grid2d(3, n / 3),
    })
}

fn graph_and_loads() -> impl Strategy<Value = (Graph, Vec<f64>, usize)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.n();
        (
            Just(g),
            proptest::collection::vec(0.0f64..10_000.0, n),
            2usize..9,
        )
    })
}

fn graph_and_tokens() -> impl Strategy<Value = (Graph, Vec<i64>, usize)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.n();
        (
            Just(g),
            proptest::collection::vec(0i64..1_000_000, n),
            2usize..9,
        )
    })
}

/// Runs `rounds` rounds on one engine, collecting the per-round
/// statistics alongside the final loads.
fn run_collecting<P: Protocol>(
    mut engine: Engine<P>,
    init: &[P::Load],
    rounds: usize,
) -> (Vec<P::Load>, Vec<Option<P::Stats>>) {
    let mut loads = init.to_vec();
    let stats = (0..rounds).map(|_| engine.round(&mut loads)).collect();
    (loads, stats)
}

/// Runs `rounds` rounds on every backend — serial, pool, and the message
/// backend (shard-isolated workers over channels, range and BFS
/// partitions with one shard count near the thread count and one
/// exceeding `n`, legacy and resident dispatch) — from
/// the same state and asserts bitwise equality of the final vectors *and*
/// of every round's statistics. The reference is the serial engine with
/// the **scalar** kernel; the backend sweep then runs at the default
/// kernel, and a second sweep crosses every [`KernelKind`] with one
/// backend of each executor family.
fn assert_bit_identical<P, M>(make: M, init: &[P::Load], threads: usize, rounds: usize)
where
    P: Protocol + Sync,
    P::Stats: PartialEq + std::fmt::Debug,
    M: Fn() -> P,
{
    let (serial, serial_stats) = run_collecting(
        Engine::serial(make()).with_kernel(KernelKind::Scalar),
        init,
        rounds,
    );
    let name = make().name();

    let partitions = [threads + 1, init.len() + 3] // incl. shards > n
        .into_iter()
        .flat_map(|shards| {
            [
                PartitionSpec::Range { shards },
                PartitionSpec::Bfs { shards },
            ]
        });
    let mut backends = vec![Backend::Pool { threads }];
    for resident in [false, true] {
        backends.extend(partitions.clone().map(|partition| Backend::Message {
            partition,
            resident,
        }));
    }
    for backend in backends {
        let (loads, stats) = run_collecting(Engine::with_backend(make(), backend), init, rounds);
        assert_eq!(
            serial, loads,
            "{name}: serial and {backend:?} loads diverged at {threads} threads"
        );
        assert_eq!(
            serial_stats, stats,
            "{name}: serial and {backend:?} statistics diverged at {threads} threads"
        );
    }

    // The kernel axis: every flavour × one backend per executor family
    // must reproduce the scalar serial reference bit-for-bit.
    let kernel_backends = [
        Backend::Serial,
        Backend::Pool { threads },
        Backend::Message {
            partition: PartitionSpec::Range {
                shards: threads + 1,
            },
            resident: false,
        },
    ];
    for kind in KernelKind::ALL {
        for backend in kernel_backends {
            let engine = Engine::with_backend(make(), backend).with_kernel(kind);
            let (loads, stats) = run_collecting(engine, init, rounds);
            assert_eq!(
                serial,
                loads,
                "{name}: scalar serial and {backend:?} loads diverged with the {} kernel",
                kind.name()
            );
            assert_eq!(
                serial_stats,
                stats,
                "{name}: scalar serial and {backend:?} statistics diverged with the {} kernel",
                kind.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alg1_continuous_serial_parallel_identical((g, loads, threads) in graph_and_loads()) {
        assert_bit_identical(|| ContinuousDiffusion::new(&g), &loads, threads, 6);
    }

    #[test]
    fn alg1_generalized_serial_parallel_identical((g, loads, threads) in graph_and_loads()) {
        assert_bit_identical(|| GeneralizedDiffusion::new(&g, 6.0), &loads, threads, 6);
    }

    #[test]
    fn alg1_discrete_serial_parallel_identical((g, tokens, threads) in graph_and_tokens()) {
        assert_bit_identical(|| DiscreteDiffusion::new(&g), &tokens, threads, 6);
    }

    #[test]
    fn heterogeneous_serial_parallel_identical((g, loads, threads) in graph_and_loads()) {
        let caps: Vec<f64> = (0..g.n()).map(|i| 0.5 + (i % 5) as f64).collect();
        assert_bit_identical(|| HeterogeneousDiffusion::new(&g, caps.clone()), &loads, threads, 6);
    }

    #[test]
    fn heterogeneous_discrete_serial_parallel_identical(
        (g, tokens, threads) in graph_and_tokens()
    ) {
        let caps: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
        assert_bit_identical(
            || HeterogeneousDiscreteDiffusion::new(&g, caps.clone()),
            &tokens,
            threads,
            6,
        );
    }

    #[test]
    fn random_partner_continuous_serial_parallel_identical(
        (g, loads, threads) in graph_and_loads(),
        seed in 0u64..1_000_000,
    ) {
        let n = g.n(); // graph only provides the node count here
        assert_bit_identical(|| RandomPartnerContinuous::new(n, seed), &loads, threads, 6);
    }

    #[test]
    fn random_partner_discrete_serial_parallel_identical(
        (g, tokens, threads) in graph_and_tokens(),
        seed in 0u64..1_000_000,
    ) {
        let n = g.n();
        assert_bit_identical(|| RandomPartnerDiscrete::new(n, seed), &tokens, threads, 6);
    }

    #[test]
    fn fos_serial_parallel_identical((g, loads, threads) in graph_and_loads()) {
        assert_bit_identical(|| FirstOrderContinuous::new(&g), &loads, threads, 6);
    }

    #[test]
    fn fos_discrete_serial_parallel_identical((g, tokens, threads) in graph_and_tokens()) {
        assert_bit_identical(|| FirstOrderDiscrete::new(&g), &tokens, threads, 6);
    }

    #[test]
    fn sos_serial_parallel_identical((g, loads, threads) in graph_and_loads()) {
        assert_bit_identical(|| SecondOrderContinuous::with_beta(&g, 1.7), &loads, threads, 6);
    }

    #[test]
    fn chebyshev_serial_parallel_identical((g, loads, threads) in graph_and_loads()) {
        assert_bit_identical(|| ChebyshevContinuous::with_gamma(&g, 0.9), &loads, threads, 6);
    }

    #[test]
    fn matching_exchange_serial_parallel_identical(
        (g, loads, threads) in graph_and_loads(),
        seed in 0u64..1_000_000,
    ) {
        assert_bit_identical(
            || MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, seed),
            &loads,
            threads,
            6,
        );
    }

    #[test]
    fn matching_exchange_discrete_serial_parallel_identical(
        (g, tokens, threads) in graph_and_tokens(),
        seed in 0u64..1_000_000,
    ) {
        assert_bit_identical(
            || MatchingExchangeDiscrete::new(&g, MatchingKind::GreedyMaximal, seed),
            &tokens,
            threads,
            6,
        );
    }

    #[test]
    fn greedy_sequential_serial_parallel_identical(
        (g, loads, threads) in graph_and_loads(),
        seed in 0u64..1_000_000,
    ) {
        // The whole round materializes in begin_round (the chain replay IS
        // the protocol); the gather just reads the result buffer, so every
        // backend must agree trivially — worth pinning precisely because
        // the kernel's data dependence is unlike every other protocol's.
        use dlb_core::seq::AdaptiveOrder;
        assert_bit_identical(
            || SequentialComparator::new(&g, AdaptiveOrder::Random, seed),
            &loads,
            threads,
            4,
        );
    }

    #[test]
    fn conservation_exact_for_discrete_protocols((g, tokens, threads) in graph_and_tokens()) {
        let total: i128 = tokens.iter().map(|&t| t as i128).sum();
        let mut loads = tokens.clone();
        let mut engine = Engine::parallel(DiscreteDiffusion::new(&g), threads);
        for _ in 0..10 {
            engine.round(&mut loads);
        }
        let after: i128 = loads.iter().map(|&t| t as i128).sum();
        prop_assert_eq!(total, after, "token conservation violated");
    }
}

// ---------------------------------------------------------------------------
// Process backend: every protocol, deterministic
// ---------------------------------------------------------------------------
//
// The process backend spawns one OS worker per shard, so it runs outside
// the proptest sweeps (24 cases × a backend list would fork hundreds of
// process fleets). One deterministic fixture per protocol is the right
// trade: the wire codec is itself property-tested in `dlb-wire`, and the
// serialization path these tests pin is value-shape-independent — every
// owned load and halo value crosses the socket as a raw bit pattern in
// both round modes, so bit-identity on one trajectory proves the codec
// preserves bits on all of them.

/// Serial (scalar kernel) vs `Backend::Process` over Unix sockets: final
/// loads AND every round's statistics must be bitwise identical.
fn assert_process_identical<P, M>(make: M, init: &[P::Load], rounds: usize)
where
    P: Protocol + Sync,
    P::Stats: PartialEq + std::fmt::Debug,
    M: Fn() -> P,
{
    let (serial, serial_stats) = run_collecting(
        Engine::serial(make()).with_kernel(KernelKind::Scalar),
        init,
        rounds,
    );
    let name = make().name();
    for partition in [
        PartitionSpec::Range { shards: 3 },
        PartitionSpec::Bfs { shards: 3 },
    ] {
        let backend = Backend::Process {
            partition,
            transport: dlb_core::Transport::Unix,
        };
        let (loads, stats) = run_collecting(Engine::with_backend(make(), backend), init, rounds);
        assert_eq!(
            serial, loads,
            "{name}: serial and {backend:?} loads diverged"
        );
        assert_eq!(
            serial_stats, stats,
            "{name}: serial and {backend:?} statistics diverged"
        );
    }
}

/// Deterministic fixture shared by the process sweep: a 2-D grid (mixed
/// degrees exercise the kernel plan) and loads with bit-rich mantissas.
fn process_fixture() -> (Graph, Vec<f64>, Vec<i64>) {
    let g = topology::grid2d(4, 5);
    let loads: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i as f64) * 13.7).collect();
    let tokens: Vec<i64> = (0..g.n()).map(|i| (i as i64 * 977) % 4021).collect();
    (g, loads, tokens)
}

#[test]
fn process_backend_bit_identical_all_protocols() {
    let (g, loads, tokens) = process_fixture();
    let n = g.n();
    let caps: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
    let icaps: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();

    assert_process_identical(|| ContinuousDiffusion::new(&g), &loads, 4);
    assert_process_identical(|| GeneralizedDiffusion::new(&g, 6.0), &loads, 4);
    assert_process_identical(|| DiscreteDiffusion::new(&g), &tokens, 4);
    assert_process_identical(|| HeterogeneousDiffusion::new(&g, caps.clone()), &loads, 4);
    assert_process_identical(
        || HeterogeneousDiscreteDiffusion::new(&g, icaps.clone()),
        &tokens,
        4,
    );
    assert_process_identical(|| RandomPartnerContinuous::new(n, 42), &loads, 4);
    assert_process_identical(|| RandomPartnerDiscrete::new(n, 42), &tokens, 4);
    assert_process_identical(|| FirstOrderContinuous::new(&g), &loads, 4);
    assert_process_identical(|| FirstOrderDiscrete::new(&g), &tokens, 4);
    assert_process_identical(|| SecondOrderContinuous::with_beta(&g, 1.7), &loads, 4);
    assert_process_identical(|| ChebyshevContinuous::with_gamma(&g, 0.9), &loads, 4);
    assert_process_identical(
        || MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 42),
        &loads,
        4,
    );
    assert_process_identical(
        || MatchingExchangeContinuous::new(&g, MatchingKind::GreedyMaximal, 42),
        &loads,
        4,
    );
    assert_process_identical(
        || MatchingExchangeDiscrete::new(&g, MatchingKind::Proposal, 42),
        &tokens,
        4,
    );
    assert_process_identical(
        || MatchingExchangeDiscrete::new(&g, MatchingKind::GreedyMaximal, 42),
        &tokens,
        4,
    );
    assert_process_identical(
        || SequentialComparator::new(&g, dlb_core::seq::AdaptiveOrder::Random, 42),
        &loads,
        4,
    );
}

/// Shards exceeding `n` (empty shards on the wire) and every kernel
/// flavour on the worker side still reproduce the serial trajectory.
#[test]
fn process_backend_edge_shapes_bit_identical() {
    let (g, loads, _) = process_fixture();
    let (serial, serial_stats) = run_collecting(
        Engine::serial(ContinuousDiffusion::new(&g)).with_kernel(KernelKind::Scalar),
        &loads,
        4,
    );
    let backend = Backend::Process {
        partition: PartitionSpec::Range { shards: g.n() + 3 },
        transport: dlb_core::Transport::Unix,
    };
    let (got, got_stats) = run_collecting(
        Engine::with_backend(ContinuousDiffusion::new(&g), backend),
        &loads,
        4,
    );
    assert_eq!(serial, got, "shards > n over the wire diverged");
    assert_eq!(serial_stats, got_stats);

    for kind in KernelKind::ALL {
        let backend = Backend::Process {
            partition: PartitionSpec::Bfs { shards: 3 },
            transport: dlb_core::Transport::Unix,
        };
        let engine = Engine::with_backend(ContinuousDiffusion::new(&g), backend).with_kernel(kind);
        let (got, got_stats) = run_collecting(engine, &loads, 4);
        assert_eq!(
            serial,
            got,
            "process backend with the {} kernel diverged",
            kind.name()
        );
        assert_eq!(serial_stats, got_stats);
    }
}
