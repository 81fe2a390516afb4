//! End-to-end scenario subsystem invariants.
//!
//! * **Golden fixture** — `tests/golden/bursty_torus_6x6.toml` parses,
//!   round-trips through both writers, runs to its stop condition on
//!   serial and parallel engines with bit-identical Φ traces, and its
//!   pinned trace/total values never drift.
//! * **Conservation property** — for random graphs, workloads and round
//!   counts: `final = initial + Σinjected − Σconsumed` (exact for token
//!   scenarios, rounding-noise-tight for continuous ones), bit-identical
//!   across thread counts and stats modes.
//! * **Driver equivalence** — the dynamics drivers' pre-round hook
//!   (`run_dynamic_continuous_driven`) reproduces the scenario runner's
//!   trajectory exactly when fed the same workload.

use dlb_core::engine::StatsMode;
use dlb_core::init;
use dlb_dynamics::run_dynamic_continuous_driven;
use dlb_workloads::{
    DrainSpec, PatternSpec, PlacementSpec, ProtocolSpec, Scenario, ScenarioReport, ScenarioRunner,
    SequenceKind, SequenceSpec, StopSpec, TopologySpec, Workload, WorkloadCtx, WorkloadSpec,
};
use proptest::prelude::*;

const GOLDEN_TOML: &str = include_str!("golden/bursty_torus_6x6.toml");

fn trace_bits(report: &ScenarioReport) -> Vec<u64> {
    report.phi_trace.iter().map(|p| p.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// Golden fixture
// ---------------------------------------------------------------------------

/// Recorded from the fixture's pinning run; the trajectory is fully
/// deterministic (seeded workload, serial workload application, blocked
/// stats reductions), so these must reproduce bit for bit.
const GOLDEN_ROUNDS: usize = 48;
const GOLDEN_PHI_BITS: [(usize, u64); 4] = [
    (0, 0x4128085800000000),  // Φ₀ = 787500 (spike on 36 nodes, avg 25)
    (1, 0x411B3428EF1EA036),  // 445706.23351526575
    (24, 0x40EF35A0CAE3FC2E), // 63917.02476691488
    (48, 0x40C7D7625FD3C1D6), // 12206.768549413344
];
const GOLDEN_FINAL_TOTAL_BITS: u64 = 0x408F1938621F5507; // 995.1525309036086
const GOLDEN_INJECTED_BITS: u64 = 0x40B0E00000000001; // 4320.000000000001
const GOLDEN_CONSUMED_BITS: u64 = 0x40B080D8F3BC1560; // 4224.847469096392

#[test]
fn golden_fixture_parses_round_trips_and_pins_the_trajectory() {
    let scenario = Scenario::from_toml(GOLDEN_TOML).expect("fixture parses");
    assert_eq!(scenario.name, "golden-bursty-torus-6x6");
    assert_eq!(scenario.workloads.len(), 2);

    // The file round-trips through the writer.
    let rewritten = Scenario::from_toml(&scenario.to_toml()).expect("writer output parses");
    assert_eq!(scenario, rewritten, "TOML round trip");

    // The run is pinned bit for bit.
    let report = scenario.run().expect("fixture runs");
    assert_eq!(report.rounds, GOLDEN_ROUNDS);
    assert_eq!(report.phi_trace.len(), GOLDEN_ROUNDS + 1);
    for (k, bits) in GOLDEN_PHI_BITS {
        assert_eq!(
            report.phi_trace[k].to_bits(),
            bits,
            "Φ trace drifted at round {k}: got {:?}",
            report.phi_trace[k]
        );
    }
    assert_eq!(report.final_total.to_bits(), GOLDEN_FINAL_TOTAL_BITS);
    assert_eq!(report.injected_total.to_bits(), GOLDEN_INJECTED_BITS);
    assert_eq!(report.consumed_total.to_bits(), GOLDEN_CONSUMED_BITS);

    // Conservation holds (continuous: to rounding noise).
    assert!(
        report.conservation_relative_error() < 1e-12,
        "conservation error {}",
        report.conservation_error()
    );
}

#[test]
fn golden_fixture_is_bit_identical_on_parallel_engines() {
    let scenario = Scenario::from_toml(GOLDEN_TOML).unwrap();
    let serial = scenario.run().unwrap();
    for threads in [2usize, 3, 5] {
        let par = ScenarioRunner::new(scenario.clone())
            .with_threads(threads)
            .run()
            .unwrap();
        assert_eq!(trace_bits(&serial), trace_bits(&par), "threads = {threads}");
        assert_eq!(
            serial.final_total.to_bits(),
            par.final_total.to_bits(),
            "threads = {threads}"
        );
        assert_eq!(par.threads, threads);
    }
}

#[test]
fn golden_fixture_is_stats_mode_independent() {
    let scenario = Scenario::from_toml(GOLDEN_TOML).unwrap();
    let full = scenario.run().unwrap();
    for mode in [StatsMode::EveryK(5), StatsMode::PhiOnly, StatsMode::Off] {
        let lazy = ScenarioRunner::new(scenario.clone())
            .with_stats(mode)
            .run()
            .unwrap();
        assert_eq!(trace_bits(&full), trace_bits(&lazy), "{mode:?}");
        assert_eq!(
            full.injected_total.to_bits(),
            lazy.injected_total.to_bits(),
            "{mode:?}"
        );
        assert_eq!(
            full.consumed_total.to_bits(),
            lazy.consumed_total.to_bits(),
            "{mode:?}"
        );
    }
}

#[test]
fn golden_jsonl_report_carries_the_conservation_fields() {
    let report = Scenario::from_toml(GOLDEN_TOML).unwrap().run().unwrap();
    let jsonl = report.to_jsonl();
    let header = jsonl.lines().next().unwrap();
    assert!(header.contains("\"schema\": \"dlb-scenario/1\""));
    for field in [
        "initial_total",
        "final_total",
        "injected_total",
        "consumed_total",
        "conservation_error",
        "steady_phi_mean",
    ] {
        assert!(header.contains(field), "header lacks {field}: {header}");
    }
    assert_eq!(jsonl.lines().count(), report.rounds + 1);
}

// ---------------------------------------------------------------------------
// Dynamics-driver equivalence
// ---------------------------------------------------------------------------

/// The scenario runner and the dynamics drivers' pre-round hook are two
/// entry points to the same semantics: feeding the driver the scenario's
/// compiled workload must reproduce the scenario trajectory exactly.
#[test]
fn dynamic_driver_hook_matches_scenario_runner_bitwise() {
    let scenario = Scenario::new(
        "hooked",
        TopologySpec::Torus2d { rows: 5, cols: 5 },
        ProtocolSpec::Continuous,
    )
    .with_sequence(SequenceSpec {
        kind: SequenceKind::Iid { p: 0.7, seed: 23 },
        outage_every: None,
    })
    .with_init(init::Workload::Spike, 40.0, 9)
    .with_workload(WorkloadSpec::Arrivals {
        pattern: PatternSpec::Constant { per_round: 50.0 },
        placement: PlacementSpec::Zipf { s: 1.0, seed: 4 },
    })
    .with_workload(WorkloadSpec::Drain {
        model: DrainSpec::Proportional { fraction: 0.05 },
    })
    .with_stop(StopSpec::Rounds { rounds: 30 });

    let report = scenario.run().unwrap();

    // Reconstruct the same run through the dynamics driver's hook.
    let n = scenario.topology.n();
    let g = scenario.topology.build();
    let mut seq = scenario.sequence.as_ref().unwrap().build(g);
    let mut loads = init::continuous_loads(
        n,
        scenario.init.avg,
        scenario.init.dist,
        &mut dlb_tests::rng(9),
    );
    let ctx = WorkloadCtx {
        initial_total: loads.iter().sum(),
    };
    let mut workload =
        dlb_workloads::scenario::compile_workloads::<f64>(&scenario.workloads, n).unwrap();
    let out = run_dynamic_continuous_driven(
        &mut seq,
        &mut loads,
        f64::NEG_INFINITY,
        30,
        false,
        |round, l: &mut Vec<f64>| {
            workload.apply(round as u64, l, &ctx);
        },
    );
    assert_eq!(out.rounds, report.rounds);
    assert_eq!(
        out.final_phi.to_bits(),
        report.phi_final().to_bits(),
        "driver-hook trajectory diverged from the scenario runner"
    );
    assert_eq!(
        loads.iter().sum::<f64>().to_bits(),
        report.final_total.to_bits()
    );
}

// ---------------------------------------------------------------------------
// Conservation properties
// ---------------------------------------------------------------------------

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    (0u8..5, 4usize..36, 2usize..6).prop_map(|(family, n, side)| match family {
        0 => TopologySpec::Cycle { n },
        1 => TopologySpec::Complete { n },
        2 => TopologySpec::Grid2d {
            rows: side,
            cols: side + 1,
        },
        3 => TopologySpec::Hypercube {
            dim: side as u32, // 2..6
        },
        _ => TopologySpec::Torus2d {
            rows: side + 1,
            cols: side + 2,
        },
    })
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (0u8..4, 0.0f64..200.0, 0u64..1000, 1u64..10, 1u64..10).prop_map(
        |(kind, rate, seed, on, off)| match kind {
            0 => WorkloadSpec::Arrivals {
                pattern: PatternSpec::Constant { per_round: rate },
                placement: if seed % 2 == 0 {
                    PlacementSpec::Zipf { s: 1.1, seed }
                } else {
                    PlacementSpec::Uniform
                },
            },
            1 => WorkloadSpec::Arrivals {
                pattern: PatternSpec::Bursty {
                    high: rate,
                    low: 0.0,
                    on_rounds: on,
                    off_rounds: off,
                },
                placement: PlacementSpec::Uniform,
            },
            2 => WorkloadSpec::Drain {
                model: DrainSpec::FixedCapacity {
                    per_node: rate / 20.0,
                },
            },
            _ => WorkloadSpec::Drain {
                model: DrainSpec::Proportional {
                    fraction: rate / 250.0, // < 0.8
                },
            },
        },
    )
}

fn arb_workloads() -> impl Strategy<Value = Vec<WorkloadSpec>> {
    proptest::collection::vec(arb_workload(), 0..4)
}

fn scenario_of(
    topology: TopologySpec,
    protocol: ProtocolSpec,
    workloads: Vec<WorkloadSpec>,
    rounds: usize,
    seed: u64,
) -> Scenario {
    let mut s = Scenario::new("prop", topology, protocol)
        .with_init(init::Workload::UniformRandom, 50.0, seed)
        .with_stop(StopSpec::Rounds { rounds });
    for w in workloads {
        s = s.with_workload(w);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Continuous scenarios conserve load to floating-point noise and are
    /// bit-identical across thread counts and stats modes.
    #[test]
    fn continuous_scenarios_conserve_and_replay(
        topology in arb_topology(),
        workloads in arb_workloads(),
        rounds in 1usize..25,
        seed in 0u64..1000,
        threads in 2usize..5,
    ) {
        let sc = scenario_of(topology, ProtocolSpec::Continuous, workloads, rounds, seed);
        let report = sc.run().unwrap();
        prop_assert_eq!(report.rounds, rounds);
        prop_assert!(
            report.conservation_relative_error() < 1e-9,
            "conservation error {}", report.conservation_error()
        );
        // Per-round conservation: Δtotal ≡ injected − consumed (checked
        // against the recorded per-round totals).
        let mut prev = report.initial_total;
        for r in &report.records {
            let expected = prev + r.injected - r.consumed;
            let scale = prev.abs().max(1.0);
            prop_assert!(
                (r.total - expected).abs() / scale < 1e-9,
                "round {}: total {} vs expected {}", r.round, r.total, expected
            );
            prev = r.total;
        }
        let par = ScenarioRunner::new(sc.clone()).with_threads(threads).run().unwrap();
        prop_assert_eq!(trace_bits(&report), trace_bits(&par));
        let lazy = ScenarioRunner::new(sc).with_stats(StatsMode::Off).run().unwrap();
        prop_assert_eq!(trace_bits(&report), trace_bits(&lazy));
    }

    /// Token scenarios conserve **exactly**, every round.
    #[test]
    fn discrete_scenarios_conserve_exactly(
        topology in arb_topology(),
        workloads in arb_workloads(),
        rounds in 1usize..25,
        seed in 0u64..1000,
        threads in 2usize..5,
    ) {
        let sc = scenario_of(topology, ProtocolSpec::Discrete, workloads, rounds, seed);
        let report = sc.run().unwrap();
        prop_assert_eq!(report.conservation_error(), 0.0);
        let mut prev = report.initial_total;
        for r in &report.records {
            prop_assert_eq!(
                r.total, prev + r.injected - r.consumed,
                "round {}: exact token conservation violated", r.round
            );
            prop_assert_eq!(r.total.fract(), 0.0, "non-integral token total");
            prev = r.total;
        }
        let par = ScenarioRunner::new(sc).with_threads(threads).run().unwrap();
        prop_assert_eq!(trace_bits(&report), trace_bits(&par));
    }

    /// Heterogeneous scenarios (capacity-weighted Φ_c) conserve too.
    #[test]
    fn heterogeneous_scenarios_conserve(
        topology in arb_topology(),
        workloads in arb_workloads(),
        rounds in 1usize..20,
        ratio in 1.0f64..8.0,
    ) {
        let sc = scenario_of(
            topology,
            ProtocolSpec::Heterogeneous {
                capacities: dlb_workloads::CapacitySpec::TwoTier {
                    fast_fraction: 0.25,
                    ratio,
                },
            },
            workloads,
            rounds,
            1,
        );
        let report = sc.run().unwrap();
        prop_assert!(
            report.conservation_relative_error() < 1e-9,
            "conservation error {}", report.conservation_error()
        );
    }
}
