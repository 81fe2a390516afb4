//! Message-backend integration suite: shard-isolated rounds over channels
//! must reproduce every shared-memory trajectory bit for bit — through
//! the dynamics drivers, the scenario runner, and dynamic-graph plan
//! memoization — while the communication accounting stays consistent
//! with the partition module's brute-force counts.
//!
//! (Per-protocol serial ≡ message identity of loads and per-round stats
//! over random instances lives in `engine_properties.rs`; the
//! worker-panic barrier-safety test lives with the engine's unit tests;
//! this file covers the layers above the bare engine plus the
//! channel-layer exchange property.)

use dlb_core::engine::{Backend, Engine, StatsMode};
use dlb_core::potential::phi;
use dlb_dynamics::runner::DynamicContinuousDiffusion;
use dlb_dynamics::{
    run_dynamic_continuous, run_dynamic_continuous_on, run_dynamic_discrete,
    run_dynamic_discrete_on, IidSubgraphSequence, PeriodicSequence, StaticSequence,
};
use dlb_graphs::partition::{Partition, PartitionSpec, ShardPlan};
use dlb_graphs::{topology, Graph};
use dlb_workloads::{ExecSpec, Scenario, ScenarioRunner};
use proptest::prelude::*;

fn message(shards: usize) -> Backend {
    Backend::Message {
        partition: PartitionSpec::Bfs { shards },
        resident: false,
    }
}

#[test]
fn dynamic_continuous_identical_on_the_message_backend() {
    let ground = topology::hypercube(5); // n = 32
    let init: Vec<f64> = (0..32).map(|i| ((i * 13 + 5) % 37) as f64).collect();

    let mut serial_seq = IidSubgraphSequence::new(ground.clone(), 0.6, 42);
    let mut serial = init.clone();
    let a = run_dynamic_continuous(&mut serial_seq, &mut serial, f64::NEG_INFINITY, 12, false);

    for backend in [
        message(4),
        Backend::Message {
            partition: PartitionSpec::Range { shards: 7 },
            resident: false,
        },
    ] {
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
fn dynamic_discrete_identical_on_the_message_backend() {
    let ground = topology::torus2d(5, 5);
    let init: Vec<i64> = (0..25).map(|i| ((i * 977 + 31) % 4001) as i64).collect();

    let mut serial_seq = IidSubgraphSequence::new(ground.clone(), 0.7, 7);
    let mut serial = init.clone();
    let a = run_dynamic_discrete(&mut serial_seq, &mut serial, 0, 15, false);

    let mut seq = IidSubgraphSequence::new(ground, 0.7, 7);
    let mut loads = init;
    let b = run_dynamic_discrete_on(message(5), &mut seq, &mut loads, 0, 15, false);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.final_phi_hat, b.final_phi_hat);
    assert_eq!(serial, loads);
}

#[test]
fn message_plans_memoized_per_distinct_graph() {
    // A periodic schedule alternating two graphs must build (and
    // broadcast) exactly two exchange plans no matter how many rounds
    // run, and every round must still account its communication.
    let a = topology::torus2d(4, 4);
    let b = topology::grid2d(4, 4);
    let mut seq = PeriodicSequence::new(vec![a, b]);
    let mut engine = Engine::message(
        DynamicContinuousDiffusion::new(&mut seq),
        PartitionSpec::Bfs { shards: 4 },
    );
    let mut loads: Vec<f64> = (0..16).map(|i| (i % 5) as f64 * 3.0).collect();
    for _ in 0..10 {
        engine.round(&mut loads);
        let comm = engine.comm_metrics().expect("comm recorded per round");
        let metrics = engine.shard_metrics().expect("plan resolved");
        assert_eq!(
            comm.values_sent, metrics.halo,
            "per-round exchange must equal the current plan's halo"
        );
    }
    let metrics = engine.shard_metrics().expect("metrics");
    assert_eq!(metrics.plans_built, 2, "one plan per distinct graph");
    assert_eq!(metrics.shards, 4);
}

#[test]
fn static_sequence_on_message_backend_builds_one_plan() {
    let g = topology::torus2d(6, 6);
    let mut seq = StaticSequence::new(g);
    let mut engine = Engine::message(
        DynamicContinuousDiffusion::new(&mut seq),
        PartitionSpec::Range { shards: 6 },
    );
    let mut loads = vec![0.0; 36];
    loads[0] = 360.0;
    engine.rounds(&mut loads, 8);
    let metrics = engine.shard_metrics().expect("metrics");
    // The graph is cloned per round but structurally identical: the
    // fingerprint cache must dedupe it to a single plan.
    assert_eq!(metrics.plans_built, 1);
}

#[test]
fn comm_metrics_match_partition_brute_force() {
    let g = topology::torus2d(8, 8);
    let spec = PartitionSpec::Bfs { shards: 4 };
    let partition = spec.build(&g);
    let plan = ShardPlan::build(&g, &partition);

    let mut seq = StaticSequence::new(g.clone());
    let mut engine = Engine::message(DynamicContinuousDiffusion::new(&mut seq), spec);
    let mut loads = vec![0.0; 64];
    loads[0] = 640.0;
    engine.round(&mut loads);
    let comm = engine.comm_metrics().expect("comm");
    // Every halo entry crosses the boundary exactly once per round, as
    // one value inside one batched message per (source, destination)
    // shard pair.
    assert_eq!(comm.values_sent, plan.halo_total());
    assert_eq!(comm.halo_bytes, plan.halo_total() * 8);
    let pairs: usize = plan.views().iter().map(|v| v.halo_groups().len()).sum();
    assert_eq!(comm.messages, pairs);
    let max_send: usize = (0..plan.views().len())
        .map(|s| {
            plan.views()
                .iter()
                .flat_map(|v| v.halo_groups())
                .filter(|(src, _)| *src == s)
                .map(|(_, ids)| ids.len())
                .sum::<usize>()
        })
        .max()
        .unwrap();
    assert_eq!(comm.max_shard_values_sent, max_send);
    assert!(comm.messages > 0 && comm.values_sent > 0);
    // The comm volume is the halo, and a tile interior stays local.
    let metrics = engine.shard_metrics().expect("metrics");
    assert_eq!(metrics.halo, plan.halo_total());
    assert!(metrics.interior > 0);
}

#[test]
fn message_builtin_matches_its_serial_twin() {
    // `bursty-torus-message` is `bursty-torus` on shard-isolated
    // workers; everything but the name, backend, and comm totals must
    // agree bit for bit.
    let msg = Scenario::builtin("bursty-torus-message")
        .unwrap()
        .run()
        .unwrap();
    let serial = Scenario::builtin("bursty-torus").unwrap().run().unwrap();
    assert_eq!(msg.backend, "message");
    assert_eq!(msg.rounds, serial.rounds);
    let a: Vec<u64> = serial.phi_trace.iter().map(|p| p.to_bits()).collect();
    let b: Vec<u64> = msg.phi_trace.iter().map(|p| p.to_bits()).collect();
    assert_eq!(a, b);
    let comm = msg.comm.expect("message run reports comm totals");
    // Fixed graph ⇒ a constant per-round halo: totals divide evenly.
    assert_eq!(comm.values_sent % msg.rounds as u64, 0);
    assert!(serial.comm.is_none());
}

#[test]
fn message_scenario_files_round_trip_and_run() {
    let sc = Scenario::builtin("bursty-torus-message").unwrap();
    let toml = sc.to_toml();
    assert!(toml.contains("backend = \"message\""), "{toml}");
    assert!(toml.contains("shards = 8"), "{toml}");
    assert!(toml.contains("partition = \"bfs\""), "{toml}");
    assert!(!toml.contains("threads"), "message spec carries no threads");
    assert_eq!(Scenario::from_toml(&toml).unwrap(), sc);
    assert_eq!(Scenario::from_jsonl(&sc.to_jsonl()).unwrap(), sc);
}

#[test]
fn scenario_exec_override_onto_message_matches_reference() {
    let sc = Scenario::builtin("zipf-hypercube-drain").unwrap();
    let reference = ScenarioRunner::new(sc.clone()).run().unwrap();
    let run = ScenarioRunner::new(sc)
        .with_exec(ExecSpec::Message {
            partition: PartitionSpec::Range { shards: 6 },
            resident: false,
        })
        .run()
        .unwrap();
    assert_eq!(run.backend, "message");
    assert_eq!(reference.rounds, run.rounds);
    let a: Vec<u64> = reference.phi_trace.iter().map(|p| p.to_bits()).collect();
    let b: Vec<u64> = run.phi_trace.iter().map(|p| p.to_bits()).collect();
    assert_eq!(a, b, "Φ trace diverged");
    assert_eq!(reference.final_total.to_bits(), run.final_total.to_bits());
}

#[test]
fn scenario_trajectories_identical_across_exec_overrides() {
    let sc = Scenario::builtin("bursty-torus").unwrap();
    let reference = ScenarioRunner::new(sc.clone()).run().unwrap();
    assert_eq!(reference.backend, "serial");
    for exec in [
        ExecSpec::Pool { threads: 2 },
        ExecSpec::Message {
            partition: PartitionSpec::Range { shards: 8 },
            resident: false,
        },
        ExecSpec::Message {
            partition: PartitionSpec::Bfs { shards: 5 },
            resident: true,
        },
        ExecSpec::Process {
            partition: PartitionSpec::Bfs { shards: 3 },
            transport: dlb_core::Transport::Unix,
        },
    ] {
        let run = ScenarioRunner::new(sc.clone())
            .with_exec(exec)
            .run()
            .unwrap();
        assert_eq!(run.backend, exec.name());
        assert_eq!(reference.rounds, run.rounds, "{exec:?}");
        let a: Vec<u64> = reference.phi_trace.iter().map(|p| p.to_bits()).collect();
        let b: Vec<u64> = run.phi_trace.iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b, "{exec:?}: Φ trace diverged");
        assert_eq!(
            reference.final_total.to_bits(),
            run.final_total.to_bits(),
            "{exec:?}"
        );
    }
}

#[test]
fn stats_modes_remain_observers_on_the_message_backend() {
    let g = topology::torus2d(6, 6);
    let init: Vec<f64> = (0..36).map(|i| ((i * 7 + 1) % 23) as f64).collect();
    let run = |mode: StatsMode| {
        let mut seq = StaticSequence::new(g.clone());
        let mut engine = Engine::message(
            DynamicContinuousDiffusion::new(&mut seq),
            PartitionSpec::Bfs { shards: 4 },
        )
        .with_stats_mode(mode);
        let mut loads = init.clone();
        engine.rounds(&mut loads, 9);
        let phi_on_demand = engine.potential(&loads);
        (loads, phi_on_demand)
    };
    let (full, phi_full) = run(StatsMode::Full);
    for mode in [StatsMode::Off, StatsMode::PhiOnly, StatsMode::EveryK(4)] {
        let (loads, phi_mode) = run(mode);
        assert_eq!(full, loads, "{mode:?}");
        assert_eq!(phi_full.to_bits(), phi_mode.to_bits(), "{mode:?}");
    }
    assert!(phi_full < phi(&init));
}

// ---------------------------------------------------------------------------
// Resident dispatch: after the seeding round each worker is sent only the
// owned values that changed since the results it returned last round. The
// trajectory must stay bit-identical to serial in every mode, and the
// transfer counters must show the owned-in direction collapsed to the
// seeding round plus sparse deltas.
// ---------------------------------------------------------------------------

fn resident(partition: PartitionSpec) -> Backend {
    Backend::Message {
        partition,
        resident: true,
    }
}

#[test]
fn resident_stats_modes_and_dynamic_graphs_stay_identical() {
    // Dynamic graphs force plan rebroadcasts, and with them full
    // reseeds, between delta rounds; every stats mode must still
    // reproduce the serial per-round stats and final loads bit for bit.
    let ground = topology::hypercube(5); // n = 32
    let init: Vec<f64> = (0..32).map(|i| ((i * 13 + 5) % 37) as f64).collect();
    for mode in [
        StatsMode::Full,
        StatsMode::PhiOnly,
        StatsMode::EveryK(3),
        StatsMode::Off,
    ] {
        let mut serial_seq = IidSubgraphSequence::new(ground.clone(), 0.6, 42);
        let mut serial_engine =
            Engine::serial(DynamicContinuousDiffusion::new(&mut serial_seq)).with_stats_mode(mode);
        let mut serial_loads = init.clone();
        let serial_stats: Vec<_> = (0..12)
            .map(|_| serial_engine.round(&mut serial_loads))
            .collect();

        let mut seq = IidSubgraphSequence::new(ground.clone(), 0.6, 42);
        let mut engine = Engine::with_backend(
            DynamicContinuousDiffusion::new(&mut seq),
            resident(PartitionSpec::Bfs { shards: 4 }),
        )
        .with_stats_mode(mode);
        let mut loads = init.clone();
        let stats: Vec<_> = (0..12).map(|_| engine.round(&mut loads)).collect();
        assert_eq!(serial_stats, stats, "{mode:?}: per-round stats diverged");
        assert_eq!(serial_loads, loads, "{mode:?}: final loads diverged");
    }
}

#[test]
fn resident_rounds_ship_only_changed_owned_values() {
    // Round 1 seeds every shard; later rounds send exactly the owned
    // values the caller changed between rounds, and results come back
    // every round as one collect.
    let g = topology::torus2d(6, 6); // n = 36
    let mut seq = StaticSequence::new(g.clone());
    let mut engine = Engine::with_backend(
        DynamicContinuousDiffusion::new(&mut seq),
        resident(PartitionSpec::Bfs { shards: 4 }),
    )
    .with_stats_mode(StatsMode::EveryK(3));
    let mut serial_seq = StaticSequence::new(g);
    let mut serial = Engine::serial(DynamicContinuousDiffusion::new(&mut serial_seq))
        .with_stats_mode(StatsMode::EveryK(3));
    let init: Vec<f64> = (0..36).map(|i| ((i * 7 + 1) % 23) as f64).collect();
    let (mut loads, mut reference) = (init.clone(), init);
    for round in 1..=9usize {
        // A workload touching `round % 4` nodes between rounds.
        for v in 0..round % 4 {
            loads[v * 9] += 1.5;
            reference[v * 9] += 1.5;
        }
        let stats = engine.round(&mut loads);
        assert_eq!(stats, serial.round(&mut reference), "round {round}");
        let comm = engine.comm_metrics().expect("comm recorded per round");
        let (owned_in, deltas) = if round == 1 { (36, 0) } else { (0, round % 4) };
        assert_eq!(comm.owned_values_in, owned_in, "round {round}");
        assert_eq!(comm.delta_values, deltas, "round {round}");
        assert_eq!(comm.owned_values_out, 36, "round {round}");
        assert_eq!(comm.collects, 1, "round {round}");
        let halo = engine.shard_metrics().expect("plan resolved").halo;
        assert_eq!(comm.values_sent, halo, "halo traffic is mode-independent");
    }
    assert_eq!(loads, reference);
}

#[test]
fn resident_builtin_matches_serial_twin_with_transfer_accounting() {
    // `bursty-torus-resident` is the driven-workload regime on resident
    // dispatch: the trajectory must match `bursty-torus` (serial) and
    // `bursty-torus-message` (legacy) bit for bit, while the transfer
    // counters show the owned-in direction collapsed to the seed round
    // plus sparse deltas.
    let serial = Scenario::builtin("bursty-torus").unwrap().run().unwrap();
    let legacy = Scenario::builtin("bursty-torus-message")
        .unwrap()
        .run()
        .unwrap();
    let res = Scenario::builtin("bursty-torus-resident")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(res.backend, "message");
    assert!(res.resident, "report records the resident setting");
    assert!(!legacy.resident);
    assert_eq!(res.rounds, serial.rounds);
    let bits = |r: &dlb_workloads::ScenarioReport| -> Vec<u64> {
        r.phi_trace.iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(bits(&serial), bits(&res), "Φ trace diverged from serial");
    assert_eq!(bits(&legacy), bits(&res), "Φ trace diverged from legacy");
    assert_eq!(serial.final_total.to_bits(), res.final_total.to_bits());

    let comm = res.comm.expect("resident run reports comm totals");
    let legacy_comm = legacy.comm.expect("legacy run reports comm totals");
    // Halo traffic is identical — residency changes coordinator
    // transfer, not the shard-to-shard exchange.
    assert_eq!(comm.values_sent, legacy_comm.values_sent);
    assert_eq!(comm.messages, legacy_comm.messages);
    // Legacy rounds re-ship every owned slice; resident dispatch ships
    // them exactly once (256-node torus, one static plan) and sends
    // sparse deltas afterwards. Results come back every round.
    assert_eq!(legacy_comm.owned_values_in, 256 * legacy.rounds as u64);
    assert_eq!(comm.owned_values_in, 256);
    assert!(comm.delta_values > 0, "driven workload sends deltas");
    assert_eq!(comm.owned_values_out, legacy_comm.owned_values_out);
    assert_eq!(comm.collects, res.rounds as u64);
    assert_eq!(legacy_comm.delta_values, 0);
    assert_eq!(legacy_comm.collects, 0);
}

#[test]
fn resident_rounds_validate_and_run_under_faults() {
    // Recovery re-homes shards from the coordinator's round-start
    // snapshot, which resident rounds hold like legacy ones: a fault
    // plan validates, runs and recovers onto the legacy trajectory.
    let resident_exec = ExecSpec::Message {
        partition: PartitionSpec::Bfs { shards: 8 },
        resident: true,
    };
    let faulty = Scenario::builtin("churn-shards-message").unwrap();
    faulty.clone().with_exec(resident_exec).validate().unwrap();
    let legacy = ScenarioRunner::new(faulty.clone()).run().unwrap();
    let res = ScenarioRunner::new(faulty)
        .with_exec(resident_exec)
        .run()
        .unwrap();
    assert!(res.resident);
    assert_eq!(res.rounds, legacy.rounds);
    let bits = |r: &dlb_workloads::ScenarioReport| -> Vec<u64> {
        r.phi_trace.iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(bits(&legacy), bits(&res), "Φ trace diverged under faults");
    assert_eq!(legacy.final_total.to_bits(), res.final_total.to_bits());
    let faults = res.faults.expect("fault totals reported");
    assert!(
        faults.faults_injected > 0 && faults.recoveries > 0,
        "{faults:?}"
    );
}

// ---------------------------------------------------------------------------
// Channel-layer property: the batched exchange, served purely from
// sender-local data, reconstructs exactly the halo segment that
// `ShardView::assemble` packs from the global vector (the local-gather ≡
// global-gather shape, applied to the wire protocol).
// ---------------------------------------------------------------------------

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u8..5, 6usize..40).prop_map(|(family, n)| match family {
        0 => topology::cycle(n),
        1 => topology::star(n),
        2 => topology::binary_tree(n),
        3 => topology::wheel(n.max(4)),
        _ => topology::grid2d(3, n / 3),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_exchange_reconstructs_the_assembled_halo(
        g in arb_graph(),
        shards in 1usize..12,
        strategy_sel in 0u8..2,
    ) {
        let partition = if strategy_sel == 1 {
            Partition::bfs(&g, shards)
        } else {
            Partition::range(g.n(), shards)
        };
        let plan = ShardPlan::build(&g, &partition);
        // Distinct value per node so any misdelivery is visible.
        let global: Vec<f64> = (0..g.n()).map(|i| (i * i + 7) as f64 / 3.0).collect();
        // Every shard's private store: the assemble() pack of its view —
        // senders must serve requests from their *owned* segment alone.
        let locals: Vec<Vec<f64>> = plan
            .views()
            .iter()
            .map(|v| {
                let mut out = Vec::new();
                v.assemble(&global, &mut out);
                out
            })
            .collect();
        for view in plan.views() {
            let expected = &locals[view.shard()][view.owned().len()..];
            let mut received: Vec<Option<f64>> = vec![None; view.halo().len()];
            for (src, ids) in view.halo_groups() {
                let src_view = &plan.views()[src];
                for &v in &ids {
                    // Sender-side: the value comes out of src's owned
                    // segment, addressed by its own local index.
                    let row = src_view
                        .owned()
                        .binary_search(&v)
                        .expect("sender owns every value it posts");
                    let value = locals[src][row];
                    // Receiver-side: scattered into the halo slot.
                    let slot = view.halo().binary_search(&v).expect("halo id indexed");
                    prop_assert!(
                        received[slot].is_none(),
                        "halo value delivered twice"
                    );
                    received[slot] = Some(value);
                }
            }
            for (slot, value) in received.iter().enumerate() {
                let value = value.expect("halo slot never delivered");
                prop_assert_eq!(
                    value.to_bits(),
                    expected[slot].to_bits(),
                    "halo slot {} diverged from the global gather",
                    slot
                );
            }
        }
    }
}
