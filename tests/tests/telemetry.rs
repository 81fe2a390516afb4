//! Telemetry invariants: arming the recorder must never perturb a run.
//!
//! The observability acceptance for the subsystem: final loads, Φ traces,
//! per-round statistics, communication counters, and fault counters are
//! **bit-identical with telemetry armed vs off on every backend** — the
//! recorder is a pure observer, and `Telemetry::Off` is a no-op branch
//! rather than a dynamic call. The suite also pins the shard worker's
//! span protocol: each worker round arrives as a well-nested
//! recv-halo → gather-interior sequence on the worker's own lane (fill
//! the owned and halo frame, then gather the owned rows), with the
//! coordinator's per-shard scatter spans and its plan span on the engine
//! lane.

use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::engine::{Backend, Engine, StatsMode};
use dlb_core::telemetry::{Phase, Telemetry, ENGINE_LANE};
use dlb_graphs::{topology, Graph, PartitionSpec};
use dlb_workloads::{Scenario, TelemetrySpec};
use proptest::prelude::*;

const SHARDS: usize = 4;

fn backends() -> [(&'static str, Backend); 3] {
    [
        ("serial", Backend::Serial),
        ("pool", Backend::Pool { threads: 3 }),
        (
            "message",
            Backend::Message {
                partition: PartitionSpec::Range { shards: SHARDS },
                resident: false,
            },
        ),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u8..4, 8usize..40).prop_map(|(family, n)| match family {
        0 => topology::cycle(n),
        1 => topology::wheel(n),
        2 => topology::grid2d(4, n / 4),
        _ => topology::binary_tree(n),
    })
}

fn graph_and_loads() -> impl Strategy<Value = (Graph, Vec<f64>, usize)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.n();
        (
            Just(g),
            proptest::collection::vec(0.0f64..10_000.0, n),
            2usize..8,
        )
    })
}

/// Everything a run can observe, collected bit-exactly.
type Observed = (
    Vec<u64>,                      // final loads (bits)
    Vec<u64>,                      // per-round Φ (bits)
    Option<(usize, usize, usize)>, // comm: messages, values, bytes
    (u64, u64, u64),               // fault counters
);

fn observe(g: &Graph, init: &[f64], rounds: usize, backend: Backend, tel: Telemetry) -> Observed {
    let mut engine = Engine::with_backend(ContinuousDiffusion::new(g), backend)
        .with_stats_mode(StatsMode::Full)
        .with_telemetry(tel);
    let mut loads = init.to_vec();
    let mut phis = Vec::with_capacity(rounds);
    let mut comm: Option<(usize, usize, usize)> = None;
    for _ in 0..rounds {
        let s = engine.round(&mut loads).expect("full stats every round");
        phis.push(s.phi_after.to_bits());
        if let Some(c) = engine.comm_metrics() {
            let t = comm.get_or_insert((0, 0, 0));
            t.0 += c.messages;
            t.1 += c.values_sent;
            t.2 += c.halo_bytes;
        }
    }
    let fs = engine.fault_stats();
    (
        loads.iter().map(|x| x.to_bits()).collect(),
        phis,
        comm,
        (fs.faults_injected, fs.recoveries, fs.rehomed_values),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: loads, Φ, stats, comm and fault counters
    /// are bit-identical with telemetry on vs off on the serial, pool and
    /// message backends. The armed ring is deliberately tiny (64 events) so
    /// wraparound — the drop path — is exercised inside the property too.
    #[test]
    fn armed_recording_never_perturbs_any_backend(
        (g, init, rounds) in graph_and_loads()
    ) {
        for (name, backend) in backends() {
            let off = observe(&g, &init, rounds, backend, Telemetry::Off);
            let armed = Telemetry::armed(SHARDS, 64);
            let on = observe(&g, &init, rounds, backend, armed.clone());
            prop_assert_eq!(&off, &on, "telemetry perturbed the {} backend", name);
            let rec = armed.recorder().expect("armed handle keeps its recorder");
            prop_assert!(rec.recorded() > 0, "{}: nothing recorded", name);
        }
    }
}

#[test]
fn message_worker_spans_are_well_nested_per_round() {
    let g = topology::torus2d(8, 8);
    let partition = PartitionSpec::Range { shards: SHARDS };
    let tel = Telemetry::armed(SHARDS, 1 << 12);
    let mut engine = Engine::with_backend(
        ContinuousDiffusion::new(&g),
        Backend::Message {
            partition,
            resident: false,
        },
    )
    .with_telemetry(tel.clone());
    let mut loads = vec![0.0f64; g.n()];
    loads[0] = 6400.0;
    let rounds = 5u64;
    for _ in 0..rounds {
        engine.round(&mut loads);
    }
    let events = tel.recorder().unwrap().events();

    let worker_order = [Phase::RecvHalo, Phase::GatherInterior];
    for shard in 0..SHARDS as u32 {
        for round in 1..=rounds {
            let lane: Vec<_> = events
                .iter()
                .filter(|e| e.lane == shard && e.round == round)
                .collect();
            let phases: Vec<Phase> = lane.iter().map(|e| e.phase).collect();
            assert_eq!(
                phases, worker_order,
                "shard {shard} round {round}: worker phases out of protocol order"
            );
            // Well-nested at the sequence level: each span begins at or
            // after the previous one ended — the worker's round is
            // strictly sequential, so its spans never overlap.
            for w in lane.windows(2) {
                assert!(
                    w[1].start_ns >= w[0].start_ns + w[0].dur_ns,
                    "shard {shard} round {round}: {:?} overlaps {:?}",
                    w[1].phase,
                    w[0].phase
                );
            }
        }
    }
    // The coordinator's side of the round rides the engine lane: one
    // dispatch and one result scatter per shard every round, one plan
    // build in round 1 (the shard plan; the workers build their own
    // gather plans, and the graph never changes, so steady-state rounds
    // emit no plan spans), and the stats reduction for every full-stats
    // round.
    let engine_lane: Vec<_> = events.iter().filter(|e| e.lane == ENGINE_LANE).collect();
    let plans: Vec<u64> = engine_lane
        .iter()
        .filter(|e| e.phase == Phase::Plan)
        .map(|e| e.round)
        .collect();
    assert_eq!(
        plans,
        vec![1],
        "plan spans must be the shard plan build of round 1 only"
    );
    for round in 1..=rounds {
        let scatters = engine_lane
            .iter()
            .filter(|e| e.phase == Phase::ScatterOwned && e.round == round)
            .count();
        assert_eq!(
            scatters,
            2 * SHARDS,
            "round {round}: dispatch + result scatter per shard"
        );
        assert_eq!(
            engine_lane
                .iter()
                .filter(|e| e.phase == Phase::Stats && e.round == round)
                .count(),
            1,
            "round {round}: one stats span"
        );
    }
}

#[test]
fn traced_fault_scenario_matches_untraced_run_exactly() {
    // The fault-injected builtin drives worker panics, halo drops and
    // recovery re-homing; arming telemetry must not change one bit of the
    // trajectory or one unit of any counter, while the trace itself gains
    // the fault-recovery phase.
    let sc = Scenario::builtin("churn-shards-message").unwrap();
    let plain = sc.clone().run().unwrap();
    let traced = sc.with_telemetry(TelemetrySpec::default()).run().unwrap();

    let bits = |r: &dlb_workloads::ScenarioReport| -> Vec<u64> {
        r.phi_trace.iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(
        bits(&plain),
        bits(&traced),
        "Φ trace diverged under tracing"
    );
    assert_eq!(plain.rounds, traced.rounds);
    assert_eq!(plain.final_total.to_bits(), traced.final_total.to_bits());

    let (pf, tf) = (plain.faults.unwrap(), traced.faults.unwrap());
    assert_eq!(pf.faults_injected, tf.faults_injected);
    assert_eq!(pf.recoveries, tf.recoveries);
    assert_eq!(pf.rehomed_values, tf.rehomed_values);

    let (pc, tc) = (plain.comm.unwrap(), traced.comm.unwrap());
    assert_eq!(pc.messages, tc.messages);
    assert_eq!(pc.values_sent, tc.values_sent);
    assert_eq!(pc.halo_bytes, tc.halo_bytes);

    let t = traced.telemetry.expect("traced run reports totals");
    assert!(t.spans > 0);
    assert!(
        t.phases.iter().any(|(p, ..)| p == "fault-recovery"),
        "fault recovery left no spans: {:?}",
        t.phases
    );
    assert!(t.busy_imbalance_mean.is_some(), "shard lanes present");
}
