//! Multi-block statistics bit-identity.
//!
//! Round statistics reduce in fixed [`REDUCE_BLOCK`]-node blocks combined
//! in block order (see `dlb_core::potential`). The serial and pool
//! executors compute each block's first-pass partials inside the gather;
//! every other backend drives the same per-node and per-slot steps over
//! the coordinator's vectors. These tests use a graph of `3·REDUCE_BLOCK + 17`
//! nodes whose degree runs end mid-block, so block boundaries, pool chunk
//! boundaries and degree-run boundaries all disagree — and assert that
//! every backend, thread count, kernel and stats mode reports the loads,
//! round statistics and runner records of the serial executor, bit for
//! bit — and that the divisors the kernels derive from degrees give the
//! loads and statistics of a gather against a per-slot divisor table.

use dlb_core::continuous::{ContinuousDiffusion, GeneralizedDiffusion};
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::{Backend, Engine, FlowTally, Protocol, StatsMode, TokenTally};
use dlb_core::heterogeneous::HeterogeneousDiffusion;
use dlb_core::kernels::KernelKind;
use dlb_core::model::{DiscreteRoundStats, RoundStats};
use dlb_core::potential::{self, REDUCE_BLOCK};
use dlb_core::Transport;
use dlb_graphs::weights::csr_divisors;
use dlb_graphs::{Graph, GraphBuilder, PartitionSpec};
use dlb_workloads::scenario::compile_workloads;
use dlb_workloads::{
    run_driven, DrainSpec, PatternSpec, PlacementSpec, RoundRecord, ScenarioLoad, StopSpec,
    Workload, WorkloadSpec,
};

const ROUNDS: usize = 4;

const MODES: [StatsMode; 4] = [
    StatsMode::Full,
    StatsMode::EveryK(3),
    StatsMode::PhiOnly,
    StatsMode::Off,
];

/// A 100×100 grid (degree runs 2/3/4 that change every row) with a star
/// attached: hub `10_000`, leaves up to `3·REDUCE_BLOCK + 16`. The hub and
/// the leaf run both start mid-block, and the last block holds 17 nodes.
fn grid_with_star() -> Graph {
    let side = 100u32;
    let n = 3 * REDUCE_BLOCK as u32 + 17;
    let mut b = GraphBuilder::new(n as usize).unwrap();
    for v in 0..side * side {
        let (r, c) = (v / side, v % side);
        if c + 1 < side {
            b.add_edge(v, v + 1).unwrap();
        }
        if r + 1 < side {
            b.add_edge(v, v + side).unwrap();
        }
    }
    let hub = side * side;
    b.add_edge(hub - 1, hub).unwrap();
    for leaf in hub + 1..n {
        b.add_edge(hub, leaf).unwrap();
    }
    b.build()
}

/// Every backend under test, labelled, including the pool at 1, 2, 3
/// and 5 threads (1 takes the serial executor; the others cut the 4
/// blocks into chunks of different shapes).
fn backends() -> Vec<(String, Backend)> {
    let mut out: Vec<(String, Backend)> = [1, 2, 3, 5]
        .iter()
        .map(|&threads| (format!("pool{threads}"), Backend::Pool { threads }))
        .collect();
    for resident in [false, true] {
        out.push((
            format!("message(resident={resident})"),
            Backend::Message {
                partition: PartitionSpec::Range { shards: 3 },
                resident,
            },
        ));
    }
    if worker_available() {
        out.push((
            "process".into(),
            Backend::Process {
                partition: PartitionSpec::Bfs { shards: 2 },
                transport: Transport::Unix,
            },
        ));
    } else {
        eprintln!(
            "block_stats: no dlb-shard-worker binary found, skipping the process \
             backend (build it with `cargo build -p dlb-worker` or set DLB_WORKER_BIN)"
        );
    }
    out
}

/// Whether a `dlb-shard-worker` binary is where
/// `dlb_core::process::worker_binary` looks for one: at `DLB_WORKER_BIN`,
/// or next to the test executable.
fn worker_available() -> bool {
    if let Some(path) = std::env::var_os("DLB_WORKER_BIN") {
        return std::path::Path::new(&path).is_file();
    }
    let exe = std::env::current_exe().expect("current_exe");
    exe.ancestors()
        .skip(1)
        .take(3)
        .any(|dir| dir.join("dlb-shard-worker").is_file())
}

fn continuous_loads(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7919 + 13) % 10_007) as f64 / 3.0)
        .collect()
}

fn token_loads(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i * 7919 + 13) % 10_007) as i64).collect()
}

/// Loads and per-round stats bits of `ROUNDS` plain rounds.
fn drive<P, S: Eq + std::fmt::Debug>(
    mut engine: Engine<P>,
    mut loads: Vec<P::Load>,
    bits: impl Fn(&P::Stats) -> S,
) -> (Vec<P::Load>, Vec<Option<S>>)
where
    P: Protocol,
{
    let resident = matches!(engine.backend(), Backend::Message { resident: true, .. });
    if resident {
        engine.resident_begin(&loads);
    }
    let mut trace = Vec::new();
    for _ in 0..ROUNDS {
        let stats = if resident {
            engine.round_resident()
        } else {
            engine.round(&mut loads)
        };
        trace.push(stats.as_ref().map(&bits));
    }
    if resident {
        loads = engine.resident_end();
    }
    (loads, trace)
}

fn round_bits(s: &RoundStats) -> [u64; 5] {
    [
        s.phi_before.to_bits(),
        s.phi_after.to_bits(),
        s.active_edges as u64,
        s.total_flow.to_bits(),
        s.max_flow.to_bits(),
    ]
}

fn discrete_bits(s: &DiscreteRoundStats) -> DiscreteRoundStats {
    *s
}

fn float_bits(loads: &[f64]) -> Vec<u64> {
    loads.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn graph_spans_four_blocks_with_runs_ending_mid_block() {
    let g = grid_with_star();
    assert_eq!(g.n(), 3 * REDUCE_BLOCK + 17);
    let plan = dlb_graphs::GatherPlan::build(&g);
    let mid_block = plan
        .runs()
        .iter()
        .filter(|r| !(r.end as usize).is_multiple_of(REDUCE_BLOCK))
        .count();
    assert!(mid_block > 10, "only {mid_block} runs end mid-block");
}

#[test]
fn continuous_stats_are_bit_identical_across_backends_kernels_and_modes() {
    let g = grid_with_star();
    let init = continuous_loads(g.n());
    for mode in MODES {
        let reference = drive(
            Engine::serial(ContinuousDiffusion::new(&g))
                .with_kernel(KernelKind::Scalar)
                .with_stats_mode(mode),
            init.clone(),
            round_bits,
        );
        for kind in KernelKind::ALL {
            let serial = drive(
                Engine::serial(ContinuousDiffusion::new(&g))
                    .with_kernel(kind)
                    .with_stats_mode(mode),
                init.clone(),
                round_bits,
            );
            assert_eq!(
                float_bits(&serial.0),
                float_bits(&reference.0),
                "serial {kind:?} {mode:?}"
            );
            assert_eq!(serial.1, reference.1, "serial {kind:?} {mode:?} stats");
            for (name, backend) in backends() {
                let got = drive(
                    Engine::with_backend(ContinuousDiffusion::new(&g), backend)
                        .with_kernel(kind)
                        .with_stats_mode(mode),
                    init.clone(),
                    round_bits,
                );
                assert_eq!(
                    float_bits(&got.0),
                    float_bits(&reference.0),
                    "{name} {kind:?} {mode:?}: loads"
                );
                assert_eq!(got.1, reference.1, "{name} {kind:?} {mode:?}: stats");
            }
        }
    }
}

#[test]
fn discrete_stats_are_bit_identical_across_backends_kernels_and_modes() {
    let g = grid_with_star();
    let init = token_loads(g.n());
    for mode in MODES {
        let reference = drive(
            Engine::serial(DiscreteDiffusion::new(&g))
                .with_kernel(KernelKind::Scalar)
                .with_stats_mode(mode),
            init.clone(),
            discrete_bits,
        );
        for kind in KernelKind::ALL {
            for (name, backend) in backends() {
                let got = drive(
                    Engine::with_backend(DiscreteDiffusion::new(&g), backend)
                        .with_kernel(kind)
                        .with_stats_mode(mode),
                    init.clone(),
                    discrete_bits,
                );
                assert_eq!(got.0, reference.0, "{name} {kind:?} {mode:?}: loads");
                assert_eq!(got.1, reference.1, "{name} {kind:?} {mode:?}: stats");
            }
        }
    }
}

/// Upper slots `(u, v, slot)` with `v > u` of the nodes in block `b`, in
/// the tally's order: nodes ascending, each node's slots in CSR order.
fn block_upper_slots(g: &Graph, b: usize) -> Vec<(usize, usize, usize)> {
    let lo = b * REDUCE_BLOCK;
    let hi = (lo + REDUCE_BLOCK).min(g.n());
    let mut out = Vec::new();
    for u in lo as u32..hi as u32 {
        let off = g.neighbor_offset(u);
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if v > u {
                out.push((u as usize, v as usize, off + i));
            }
        }
    }
    out
}

/// One continuous round against a per-slot divisor table — the
/// formulation the degree-derived divisors replace — with its
/// [`RoundStats`] bits in the block order of `dlb_core::potential`.
fn table_round_f64(g: &Graph, table: &[f64], snap: &[f64]) -> (Vec<f64>, [u64; 5]) {
    let new: Vec<f64> = g
        .nodes()
        .map(|v| {
            let lv = snap[v as usize];
            let off = g.neighbor_offset(v);
            let mut acc = lv;
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                acc += (snap[u as usize] - lv) / table[off + i];
            }
            acc
        })
        .collect();
    let mut tally = FlowTally::default();
    for b in 0..g.n().div_ceil(REDUCE_BLOCK) {
        let block = FlowTally::from_flows(
            block_upper_slots(g, b)
                .into_iter()
                .map(|(u, v, slot)| (snap[v] - snap[u]).abs() / table[slot]),
        );
        tally = FlowTally {
            active: tally.active + block.active,
            total: tally.total + block.total,
            max: tally.max.max(block.max),
        };
    }
    let stats = tally.stats(potential::phi(snap), potential::phi(&new));
    (new, round_bits(&stats))
}

/// The token twin of [`table_round_f64`].
fn table_round_i64(g: &Graph, table: &[i64], snap: &[i64]) -> (Vec<i64>, DiscreteRoundStats) {
    let new: Vec<i64> = g
        .nodes()
        .map(|v| {
            let lv = snap[v as usize] as i128;
            let off = g.neighbor_offset(v);
            let mut acc = lv;
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let (lu, c) = (snap[u as usize] as i128, table[off + i] as i128);
                if lu > lv {
                    acc += (lu - lv) / c;
                } else if lv > lu {
                    acc -= (lv - lu) / c;
                }
            }
            i64::try_from(acc).unwrap()
        })
        .collect();
    let tally = TokenTally::from_tokens((0..g.n().div_ceil(REDUCE_BLOCK)).flat_map(|b| {
        block_upper_slots(g, b).into_iter().map(|(u, v, slot)| {
            (snap[u] as i128 - snap[v] as i128).unsigned_abs() as u64 / table[slot] as u64
        })
    }));
    let stats = tally.stats(potential::phi_hat(snap), potential::phi_hat(&new));
    (new, stats)
}

/// Loads and stats of `ROUNDS` table rounds.
fn table_rounds<L: Clone, S>(
    init: &[L],
    round: impl Fn(&[L]) -> (Vec<L>, S),
) -> (Vec<L>, Vec<Option<S>>) {
    let mut loads = init.to_vec();
    let mut trace = Vec::new();
    for _ in 0..ROUNDS {
        let (next, stats) = round(&loads);
        loads = next;
        trace.push(Some(stats));
    }
    (loads, trace)
}

#[test]
fn derived_divisors_reproduce_the_per_slot_table_on_every_backend() {
    // Star leaves and grid boundary rows neighbour higher-degree nodes,
    // so their runs derive divisors per slot; grid interior rows divide
    // by one broadcast divisor.
    let g = grid_with_star();
    let plan = dlb_graphs::GatherPlan::build(&g);
    assert!(plan.runs().iter().any(|r| r.uniform_divisor()));
    assert!(plan.runs().iter().any(|r| !r.uniform_divisor()));
    let init = continuous_loads(g.n());
    for factor in [1.0, 1.5, 4.0, 7.0] {
        let table = csr_divisors(&g, factor);
        let (want_loads, want_stats) = table_rounds(&init, |s| table_round_f64(&g, &table, s));
        let mut cases = vec![("serial".to_string(), Backend::Serial)];
        cases.extend(backends());
        for kind in KernelKind::ALL {
            for (name, backend) in &cases {
                let got = drive(
                    Engine::with_backend(GeneralizedDiffusion::new(&g, factor), *backend)
                        .with_kernel(kind),
                    init.clone(),
                    round_bits,
                );
                assert_eq!(
                    float_bits(&got.0),
                    float_bits(&want_loads),
                    "{name} {kind:?} k = {factor}: loads"
                );
                assert_eq!(got.1, want_stats, "{name} {kind:?} k = {factor}: stats");
            }
        }
    }
    let table: Vec<i64> = csr_divisors(&g, 4.0)
        .into_iter()
        .map(|d| d as i64)
        .collect();
    let init = token_loads(g.n());
    let want = table_rounds(&init, |s| table_round_i64(&g, &table, s));
    let mut cases = vec![("serial".to_string(), Backend::Serial)];
    cases.extend(backends());
    for kind in KernelKind::ALL {
        for (name, backend) in &cases {
            let got = drive(
                Engine::with_backend(DiscreteDiffusion::new(&g), *backend).with_kernel(kind),
                init.clone(),
                discrete_bits,
            );
            assert_eq!(got, want, "{name} {kind:?}: tokens");
        }
    }
}

/// A bursty arrival stream plus a proportional drain: every record field
/// moves every round.
fn workload_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Arrivals {
            pattern: PatternSpec::Bursty {
                high: 5_000.0,
                low: 10.0,
                on_rounds: 2,
                off_rounds: 1,
            },
            placement: PlacementSpec::Zipf { s: 1.1, seed: 7 },
        },
        WorkloadSpec::Drain {
            model: DrainSpec::Proportional { fraction: 0.01 },
        },
    ]
}

fn record_bits(r: &RoundRecord) -> [u64; 7] {
    [
        r.round,
        r.injected.to_bits(),
        r.consumed.to_bits(),
        r.migrated.to_bits(),
        r.phi.to_bits(),
        r.imbalance.to_bits(),
        r.total.to_bits(),
    ]
}

fn runner_records<P>(mut engine: Engine<P>, mut loads: Vec<P::Load>) -> (Vec<u64>, Vec<[u64; 7]>)
where
    P: Protocol,
    P::Load: ScenarioLoad,
    P::Stats: dlb_workloads::runner::RoundLike,
    <P::Load as dlb_core::engine::LoadPotential>::Phi: dlb_workloads::runner::PhiLike,
{
    let n = engine.protocol().n();
    let mut workload = compile_workloads::<P::Load>(&workload_specs(), n);
    let workload = workload.as_mut().map(|w| w as &mut dyn Workload<P::Load>);
    let stop = StopSpec::Rounds { rounds: ROUNDS };
    let report = run_driven(&mut engine, &mut loads, workload, &stop, "block-stats");
    let trace = report.phi_trace.iter().map(|p| p.to_bits()).collect();
    let records = report.records.iter().map(record_bits).collect();
    (trace, records)
}

#[test]
fn runner_records_are_bit_identical_across_backends_and_modes() {
    let g = grid_with_star();
    for mode in MODES {
        let reference = runner_records(
            Engine::serial(ContinuousDiffusion::new(&g)).with_stats_mode(mode),
            continuous_loads(g.n()),
        );
        let tokens = runner_records(
            Engine::serial(DiscreteDiffusion::new(&g)).with_stats_mode(mode),
            token_loads(g.n()),
        );
        for (name, backend) in backends() {
            let got = runner_records(
                Engine::with_backend(ContinuousDiffusion::new(&g), backend).with_stats_mode(mode),
                continuous_loads(g.n()),
            );
            assert_eq!(got, reference, "{name} {mode:?}: continuous records");
            let got = runner_records(
                Engine::with_backend(DiscreteDiffusion::new(&g), backend).with_stats_mode(mode),
                token_loads(g.n()),
            );
            assert_eq!(got, tokens, "{name} {mode:?}: token records");
        }
    }
}

#[test]
fn round_summary_matches_an_on_demand_summary() {
    let g = grid_with_star();
    for (name, backend) in backends() {
        if matches!(backend, Backend::Message { resident: true, .. }) {
            continue; // resident rounds are covered by the runner test
        }
        let mut engine = Engine::with_backend(ContinuousDiffusion::new(&g), backend);
        let mut loads = continuous_loads(g.n());
        assert!(
            engine.round_summary().is_none(),
            "{name}: summary before a round"
        );
        engine.round(&mut loads);
        let fused = engine
            .round_summary()
            .expect("full-stats rounds keep a summary");
        let fresh = engine.summary(&loads);
        assert_eq!(fused.phi.to_bits(), fresh.phi.to_bits(), "{name}: phi");
        assert_eq!(fused.min.to_bits(), fresh.min.to_bits(), "{name}: min");
        assert_eq!(fused.max.to_bits(), fresh.max.to_bits(), "{name}: max");
        assert_eq!(
            fused.total.to_bits(),
            fresh.total.to_bits(),
            "{name}: total"
        );
        assert_eq!(
            fresh.phi.to_bits(),
            engine.potential(&loads).to_bits(),
            "{name}"
        );
        let mut off = Engine::with_backend(ContinuousDiffusion::new(&g), backend)
            .with_stats_mode(StatsMode::Off);
        let mut loads = continuous_loads(g.n());
        off.round(&mut loads);
        assert!(
            off.round_summary().is_none(),
            "{name}: stats-off rounds keep none"
        );
    }
}

#[test]
fn runner_records_of_a_protocol_without_gather_spec_agree_across_modes() {
    // No gather spec, so no engine round summary: Φ comes from the round's
    // stats on stats rounds (min, max and total from `Engine::extent`) and
    // from `Engine::summary` on stats-off rounds. Both must give the same
    // record bits; only `migrated` is zero without stats.
    let g = grid_with_star();
    let caps: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i % 3) as f64).collect();
    let phi_bits = |(trace, records): (Vec<u64>, Vec<[u64; 7]>)| {
        let kept: Vec<[u64; 3]> = records.iter().map(|r| [r[4], r[5], r[6]]).collect();
        (trace, kept)
    };
    let reference = phi_bits(runner_records(
        Engine::serial(HeterogeneousDiffusion::new(&g, caps.clone())),
        continuous_loads(g.n()),
    ));
    for mode in MODES {
        for threads in [1, 2] {
            let engine = Engine::with_backend(
                HeterogeneousDiffusion::new(&g, caps.clone()),
                Backend::Pool { threads },
            )
            .with_stats_mode(mode);
            assert!(engine.round_summary().is_none());
            let got = phi_bits(runner_records(engine, continuous_loads(g.n())));
            assert_eq!(got, reference, "pool{threads} {mode:?}");
        }
    }
}
