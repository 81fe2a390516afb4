//! Sharded-backend integration suite: the partitioned backends — message
//! (declared shard-resident) and process — split the node set into
//! shards, and each must keep cross-backend bit-identity through the
//! dynamics drivers, memoize its shard plans across dynamic graph
//! switches, and report shard metrics consistent with the partition
//! module's brute-force counts.
//!
//! (The shared-memory pool backend rides along in the dynamics-driver
//! rows. Per-protocol serial ≡ partitioned identity over random
//! instances lives in `engine_properties.rs`; the message backend's
//! channel-layer exchange and comm accounting live in
//! `message_backend.rs`.)

use dlb_core::engine::{Backend, Engine, StatsMode};
use dlb_core::potential::phi;
use dlb_core::Transport;
use dlb_dynamics::runner::DynamicContinuousDiffusion;
use dlb_dynamics::{
    run_dynamic_continuous, run_dynamic_continuous_on, run_dynamic_discrete,
    run_dynamic_discrete_on, IidSubgraphSequence, PeriodicSequence, StaticSequence,
};
use dlb_graphs::partition::{PartitionSpec, ShardPlan};
use dlb_graphs::topology;

/// The partitioned backends, each over the given partition: message
/// declared shard-resident, and one OS process per shard over Unix
/// sockets.
fn sharded(partition: PartitionSpec) -> [Backend; 2] {
    [
        Backend::Message {
            partition,
            resident: true,
        },
        Backend::Process {
            partition,
            transport: Transport::Unix,
        },
    ]
}

#[test]
fn dynamic_continuous_identical_across_backends() {
    let ground = topology::hypercube(5); // n = 32
    let init: Vec<f64> = (0..32).map(|i| ((i * 13 + 5) % 37) as f64).collect();

    let mut serial_seq = IidSubgraphSequence::new(ground.clone(), 0.6, 42);
    let mut serial = init.clone();
    let a = run_dynamic_continuous(&mut serial_seq, &mut serial, f64::NEG_INFINITY, 12, false);

    let mut backends = vec![Backend::Pool { threads: 3 }];
    backends.extend(sharded(PartitionSpec::Bfs { shards: 4 }));
    backends.extend(sharded(PartitionSpec::Range { shards: 6 }));
    for backend in backends {
        let mut seq = IidSubgraphSequence::new(ground.clone(), 0.6, 42);
        let mut loads = init.clone();
        let b =
            run_dynamic_continuous_on(backend, &mut seq, &mut loads, f64::NEG_INFINITY, 12, false);
        assert_eq!(a.rounds, b.rounds, "{backend:?}");
        assert_eq!(
            a.final_phi.to_bits(),
            b.final_phi.to_bits(),
            "{backend:?}: final Φ diverged"
        );
        assert_eq!(serial, loads, "{backend:?}: loads diverged");
    }
}

#[test]
fn dynamic_discrete_identical_across_backends() {
    let ground = topology::torus2d(5, 5);
    let init: Vec<i64> = (0..25).map(|i| ((i * 977 + 31) % 4001) as i64).collect();

    let mut serial_seq = IidSubgraphSequence::new(ground.clone(), 0.7, 7);
    let mut serial = init.clone();
    let a = run_dynamic_discrete(&mut serial_seq, &mut serial, 0, 15, false);

    for backend in sharded(PartitionSpec::Bfs { shards: 5 }) {
        let mut seq = IidSubgraphSequence::new(ground.clone(), 0.7, 7);
        let mut loads = init.clone();
        let b = run_dynamic_discrete_on(backend, &mut seq, &mut loads, 0, 15, false);
        assert_eq!(a.rounds, b.rounds, "{backend:?}");
        assert_eq!(a.final_phi_hat, b.final_phi_hat, "{backend:?}");
        assert_eq!(serial, loads, "{backend:?}");
    }
}

#[test]
fn shard_plans_memoized_per_distinct_graph() {
    // A periodic schedule alternating two graphs must build exactly two
    // plans, no matter how many rounds run — the fingerprint cache
    // re-resolves per round (the version bumps) but only ever builds per
    // distinct graph.
    for backend in sharded(PartitionSpec::Bfs { shards: 4 }) {
        let a = topology::torus2d(4, 4);
        let b = topology::grid2d(4, 4);
        let mut seq = PeriodicSequence::new(vec![a, b]);
        let mut engine = Engine::with_backend(DynamicContinuousDiffusion::new(&mut seq), backend);
        let mut loads: Vec<f64> = (0..16).map(|i| (i % 5) as f64 * 3.0).collect();
        engine.rounds(&mut loads, 10);
        let metrics = engine
            .shard_metrics()
            .expect("partitioned engine has metrics");
        assert_eq!(
            metrics.plans_built, 2,
            "{backend:?}: one plan per distinct graph"
        );
        assert_eq!(metrics.shards, 4, "{backend:?}");
    }
}

#[test]
fn shard_metrics_match_partition_brute_force() {
    let g = topology::torus2d(8, 8);
    let spec = PartitionSpec::Bfs { shards: 4 };
    let partition = spec.build(&g);
    let plan = ShardPlan::build(&g, &partition);

    for backend in sharded(spec) {
        let mut seq = StaticSequence::new(g.clone());
        let mut engine = Engine::with_backend(DynamicContinuousDiffusion::new(&mut seq), backend);
        let mut loads = vec![0.0; 64];
        loads[0] = 640.0;
        engine.round(&mut loads);
        let metrics = engine.shard_metrics().expect("metrics");
        assert_eq!(metrics.edge_cut, partition.edge_cut(&g), "{backend:?}");
        assert_eq!(metrics.edge_cut, plan.edge_cut(), "{backend:?}");
        assert_eq!(metrics.halo, plan.halo_total(), "{backend:?}");
        assert_eq!(metrics.interior, plan.interior_total(), "{backend:?}");
        // A 4-way cut of a connected torus must actually cut something,
        // and a reasonable tiling keeps some tile interiors exchange-free
        // (a 4×4 torus tile has a 2×2 interior).
        assert!(metrics.edge_cut > 0, "{backend:?}");
        assert!(metrics.halo > 0, "{backend:?}");
        assert!(metrics.interior > 0, "{backend:?}");
    }
}

#[test]
fn stats_modes_remain_observers_on_the_sharded_backend() {
    // StatsMode must not perturb partitioned trajectories either, and
    // the convergence drivers' on-demand Φ fallback must agree.
    let g = topology::torus2d(6, 6);
    let init: Vec<f64> = (0..36).map(|i| ((i * 7 + 1) % 23) as f64).collect();
    for backend in sharded(PartitionSpec::Bfs { shards: 4 }) {
        let run = |mode: StatsMode| {
            let mut seq = StaticSequence::new(g.clone());
            let mut engine =
                Engine::with_backend(DynamicContinuousDiffusion::new(&mut seq), backend)
                    .with_stats_mode(mode);
            let mut loads = init.clone();
            engine.rounds(&mut loads, 9);
            let phi_on_demand = engine.potential(&loads);
            (loads, phi_on_demand)
        };
        let (full, phi_full) = run(StatsMode::Full);
        for mode in [StatsMode::Off, StatsMode::PhiOnly, StatsMode::EveryK(4)] {
            let (loads, phi_mode) = run(mode);
            assert_eq!(full, loads, "{backend:?} {mode:?}");
            assert_eq!(
                phi_full.to_bits(),
                phi_mode.to_bits(),
                "{backend:?} {mode:?}"
            );
        }
        // Sanity: the run actually balanced something.
        assert!(phi_full < phi(&init), "{backend:?}");
    }
}
