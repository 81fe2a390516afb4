//! Failure injection over the dynamic-network machinery: total outages,
//! matching-only degradation, and heavy churn must never lose load, never
//! increase the potential, and must still converge when the sequence is
//! connected on average.
//!
//! The second half covers the executor fault layer: random seeded
//! [`FaultPlan`]s (killed workers, dropped/duplicated/reordered halo
//! batches, held-back dispatches) on both links of the shard runtime —
//! the message backend under legacy and resident dispatch, and the
//! process backend — must be recovered **exactly** — conservation holds
//! on every intermediate round, Φ never increases across degraded
//! rounds, and once the faults drain the load vector is bit-identical to
//! a fault-free run — plus
//! shard-level fail/recover churn ([`ShardChurnSequence`]), where a
//! failed shard freezes in place and rejoins without losing a bit.

use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::Backend;
use dlb_core::{potential, Engine, FaultKind, FaultPlan};
use dlb_dynamics::{
    run_dynamic_continuous, run_dynamic_discrete, ChurnSchedule, GraphSequence,
    IidSubgraphSequence, MarkovChurnSequence, MatchingOnlySequence, OutageSequence,
    ShardChurnSequence, StaticSequence,
};
use dlb_graphs::{topology, Graph, PartitionSpec};
use proptest::prelude::*;

#[test]
fn outage_rounds_freeze_state_exactly() {
    let ground = topology::hypercube(4);
    // Every round is an outage: nothing may change, ever.
    let mut seq = OutageSequence::new(StaticSequence::new(ground), 1);
    let mut loads: Vec<f64> = (0..16).map(|i| (i * 7 % 13) as f64).collect();
    let before = loads.clone();
    let out = run_dynamic_continuous(&mut seq, &mut loads, f64::NEG_INFINITY, 50, false);
    assert_eq!(out.rounds, 50);
    assert_eq!(loads, before, "outage rounds mutated the state");
}

#[test]
fn heavy_churn_conserves_discrete_tokens_exactly() {
    let ground = topology::torus2d(5, 5);
    let mut seq = MarkovChurnSequence::new(ground, 0.6, 0.2, 99); // mostly down
    let mut loads: Vec<i64> = (0..25).map(|i| ((i * 331) % 10_000) as i64).collect();
    let total = potential::total_discrete(&loads);
    let out = run_dynamic_discrete(&mut seq, &mut loads, 0, 500, false);
    assert!(!out.converged); // target 0 unreachable
    assert_eq!(potential::total_discrete(&loads), total);
}

#[test]
fn intermittent_outages_only_delay_convergence() {
    let ground = topology::hypercube(4);
    let mut loads_clean = vec![0.0; 16];
    loads_clean[0] = 1600.0;
    let target = 1e-6 * potential::phi(&loads_clean);

    let mut clean_seq = StaticSequence::new(ground.clone());
    let clean = run_dynamic_continuous(
        &mut clean_seq,
        &mut loads_clean.clone(),
        target,
        100_000,
        false,
    );

    let mut faulty_seq = OutageSequence::new(StaticSequence::new(ground), 3);
    let faulty = run_dynamic_continuous(
        &mut faulty_seq,
        &mut loads_clean.clone(),
        target,
        100_000,
        false,
    );

    assert!(clean.converged && faulty.converged);
    // With every 3rd round dead, the slowdown is exactly the 3/2 stretch
    // (outage rounds are no-ops). Allow rounding slack.
    assert!(
        faulty.rounds >= clean.rounds && faulty.rounds <= clean.rounds * 3 / 2 + 2,
        "clean {} vs faulty {}",
        clean.rounds,
        faulty.rounds
    );
}

#[test]
fn matching_only_degradation_still_converges() {
    let ground = topology::complete(16);
    let mut seq = MatchingOnlySequence::new(ground, 3);
    let mut loads = vec![0.0; 16];
    loads[0] = 1600.0;
    let target = 1e-4 * potential::phi(&loads);
    let out = run_dynamic_continuous(&mut seq, &mut loads, target, 100_000, false);
    assert!(out.converged, "matching-only sequence failed to converge");
}

#[test]
fn mostly_dead_network_still_converges_eventually() {
    let ground = topology::torus2d(4, 4);
    let mut seq = IidSubgraphSequence::new(ground, 0.15, 5); // 85% of edges dead per round
    let mut loads = vec![0.0; 16];
    loads[0] = 1600.0;
    let target = 1e-4 * potential::phi(&loads);
    let out = run_dynamic_continuous(&mut seq, &mut loads, target, 1_000_000, false);
    assert!(out.converged, "sparse random subgraphs failed to converge");
    // Load conserved through all the churn.
    assert!((loads.iter().sum::<f64>() - 1600.0).abs() < 1e-8);
}

// ---------------------------------------------------------------------------
// Executor faults: seeded FaultPlans on the message and process backends
// ---------------------------------------------------------------------------

/// Legacy and resident message dispatch, and worker processes, over a
/// range partition into `shards`.
fn shard_backends(shards: usize) -> [Backend; 3] {
    let partition = PartitionSpec::Range { shards };
    [
        Backend::Message {
            partition,
            resident: false,
        },
        Backend::Message {
            partition,
            resident: true,
        },
        Backend::Process {
            partition,
            transport: dlb_core::Transport::Unix,
        },
    ]
}

/// A raw fault event for the strategy: `(round, shard, kind tag)`.
type RawEvent = (u64, usize, u8);

fn plan_from(events: &[RawEvent]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(round, shard, tag) in events {
        let kind = match tag {
            0 => FaultKind::Panic,
            1 => FaultKind::DropHalo,
            2 => FaultKind::DuplicateHalo,
            3 => FaultKind::ReorderHalo,
            _ => FaultKind::Delay { ms: 1 },
        };
        plan = plan.event(round, shard, kind);
    }
    plan
}

const FAULT_ROUNDS: usize = 6;

fn arb_fault_setup() -> impl Strategy<Value = (Graph, usize, Vec<RawEvent>)> {
    (0u8..3, 8usize..28, 2usize..5).prop_flat_map(|(family, n, shards)| {
        let g = match family {
            0 => topology::cycle(n),
            1 => topology::star(n),
            _ => topology::grid2d(4, n / 4),
        };
        let events =
            proptest::collection::vec((1..FAULT_ROUNDS as u64 + 1, 0..shards, 0u8..5), 0..6);
        (Just(g), Just(shards), events)
    })
}

/// Runs `rounds` rounds of `faulted` against `reference`, asserting the
/// three fault-tolerance invariants after **every** round: exact
/// conservation, Φ no worse than the round before, and bit-identity to
/// the fault-free trajectory (executor faults are recovered exactly, so
/// they never change the numbers — not even mid-recovery).
macro_rules! assert_faults_invisible {
    ($reference:expr, $faulted:expr, $loads:expr, $rounds:expr,
     $total:path, $phi:path, $tol:expr) => {{
        let mut ref_loads = $loads.clone();
        let mut f_loads = $loads.clone();
        let total0 = $total(&f_loads);
        let mut last_phi = $phi(&f_loads);
        for round in 0..$rounds {
            $reference.round(&mut ref_loads);
            $faulted.round(&mut f_loads);
            // Conservation on every intermediate round: exact for tokens,
            // float-rounding noise only for continuous loads.
            let total = $total(&f_loads);
            prop_assert!(
                (total - total0).abs() <= $tol,
                "conservation broke on round {}: {} vs {}",
                round + 1,
                total,
                total0
            );
            let phi = $phi(&f_loads);
            prop_assert!(
                phi <= last_phi + 1e-9 * last_phi.abs().max(1.0),
                "Φ increased across degraded round {}: {} -> {}",
                round + 1,
                last_phi,
                phi
            );
            last_phi = phi;
            for (v, (a, b)) in ref_loads.iter().zip(f_loads.iter()).enumerate() {
                prop_assert_eq!(
                    a,
                    b,
                    "node {} diverged on round {} under injected faults",
                    v,
                    round + 1
                );
            }
        }
    }};
}

fn total_continuous(loads: &[f64]) -> f64 {
    loads.iter().sum()
}

/// Discrete totals as `f64` for the shared macro (token sums are exact,
/// and the conversion loses nothing at these magnitudes).
fn total_tokens(loads: &[i64]) -> f64 {
    potential::total_discrete(loads) as f64
}

fn phi_tokens(loads: &[i64]) -> f64 {
    potential::phi_hat(loads) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_fault_plans_are_invisible_continuous(
        (g, shards, events) in arb_fault_setup(),
        seed in 0u64..1000,
    ) {
        let n = g.n();
        let loads: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + seed) % 101) as f64).collect();
        let plan = plan_from(&events);
        for backend in shard_backends(shards) {
            let mut reference = Engine::with_backend(ContinuousDiffusion::new(&g), Backend::Serial);
            let mut faulted = Engine::with_backend(ContinuousDiffusion::new(&g), backend)
                .with_faults(plan.clone());
            assert_faults_invisible!(
                reference, faulted, loads, FAULT_ROUNDS,
                total_continuous, potential::phi, 1e-6
            );
        }
    }

    #[test]
    fn random_fault_plans_are_invisible_discrete(
        (g, shards, events) in arb_fault_setup(),
        seed in 0u64..1000,
    ) {
        let n = g.n();
        let loads: Vec<i64> = (0..n).map(|i| ((i as u64 * 53 + seed) % 997) as i64).collect();
        let plan = plan_from(&events);
        for backend in shard_backends(shards) {
            let mut reference = Engine::with_backend(DiscreteDiffusion::new(&g), Backend::Serial);
            let mut faulted = Engine::with_backend(DiscreteDiffusion::new(&g), backend)
                .with_faults(plan.clone());
            assert_faults_invisible!(
                reference, faulted, loads, FAULT_ROUNDS,
                total_tokens, phi_tokens, 0.0
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-level fail/recover: churn that degrades the round graph
// ---------------------------------------------------------------------------

#[test]
fn shard_level_fail_recover_freezes_and_restores_exactly() {
    let ground = topology::torus2d(4, 4);
    let owners = PartitionSpec::Range { shards: 4 }
        .build(&ground)
        .owners()
        .to_vec();
    let mut seq = ShardChurnSequence::new(
        StaticSequence::new(ground),
        owners.clone(),
        ChurnSchedule::new(3, 2, 4, 7),
    );
    // A replica of the schedule tells the test which shard (if any) is
    // down on each round, in lockstep with the sequence's own draws.
    let mut replica = ChurnSchedule::new(3, 2, 4, 7);
    let mut loads: Vec<f64> = (0..16).map(|i| ((i * 131) % 97) as f64).collect();
    let total: f64 = loads.iter().sum();
    let mut last_phi = potential::phi(&loads);
    for round in 0..30 {
        let failed = replica.advance();
        let before = loads.clone();
        run_dynamic_continuous(&mut seq, &mut loads, f64::NEG_INFINITY, 1, false);
        if let Some(s) = failed {
            for (v, owner) in owners.iter().enumerate() {
                if *owner as usize == s {
                    assert_eq!(
                        loads[v].to_bits(),
                        before[v].to_bits(),
                        "round {round}: node {v} of failed shard {s} moved load"
                    );
                }
            }
        }
        let phi = potential::phi(&loads);
        assert!(
            phi <= last_phi + 1e-9,
            "round {round}: Φ increased across a fail/recover round"
        );
        last_phi = phi;
        assert!(
            (loads.iter().sum::<f64>() - total).abs() < 1e-9,
            "round {round}: churn lost load"
        );
    }
    assert!(
        replica.failures() >= 5,
        "the schedule never exercised churn"
    );
}

#[test]
fn shard_churn_conserves_discrete_tokens_exactly() {
    let ground = topology::hypercube(4);
    let owners = PartitionSpec::Bfs { shards: 3 }
        .build(&ground)
        .owners()
        .to_vec();
    let mut seq = ShardChurnSequence::new(
        StaticSequence::new(ground),
        owners,
        ChurnSchedule::new(2, 3, 3, 21),
    );
    let mut loads: Vec<i64> = (0..16).map(|i| ((i * 331) % 10_000) as i64).collect();
    let total = potential::total_discrete(&loads);
    let out = run_dynamic_discrete(&mut seq, &mut loads, 0, 200, false);
    assert!(!out.converged);
    assert_eq!(
        potential::total_discrete(&loads),
        total,
        "shard churn lost tokens"
    );
}

#[test]
fn potential_never_increases_under_any_churn() {
    let ground = topology::de_bruijn(4);
    let models: Vec<Box<dyn GraphSequence>> = vec![
        Box::new(IidSubgraphSequence::new(ground.clone(), 0.4, 1)),
        Box::new(MarkovChurnSequence::new(ground.clone(), 0.3, 0.3, 2)),
        Box::new(MatchingOnlySequence::new(ground.clone(), 3)),
        Box::new(OutageSequence::new(StaticSequence::new(ground), 2)),
    ];
    for mut seq in models {
        let mut loads: Vec<f64> = (0..16).map(|i| ((i * 31) % 47) as f64).collect();
        let mut last = potential::phi(&loads);
        for _ in 0..50 {
            let out = run_dynamic_continuous(seq.as_mut(), &mut loads, f64::NEG_INFINITY, 1, false);
            assert!(
                out.final_phi <= last + 1e-9,
                "{}: potential increased {last} -> {}",
                seq.name(),
                out.final_phi
            );
            last = out.final_phi;
        }
    }
}
