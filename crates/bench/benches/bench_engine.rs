//! Engine benchmark with a machine-readable perf trajectory.
//!
//! Groups on one torus instance (1M nodes by default), plus the
//! kernel comparison on its own instances:
//!
//! - **engine_round** — one full `Engine::round` under each [`StatsMode`]
//!   (`full`, `phionly`, `every10`, `off`), serial and pooled. The round
//!   is zero-copy double-buffered, so `off` measures the gather alone and
//!   the gap to `full` is exactly the statistics cost;
//! - **message_round** — one `Engine::round` on the message-passing
//!   backend (the shard runtime over its in-memory link: one worker
//!   thread per shard holding only its owned and halo values, which the
//!   coordinator sends as typed vectors). Each record carries the
//!   plan's `edge_cut` and `halo` size and the round's actual `messages`
//!   and `values_sent`, so the perf trajectory tracks communication
//!   volume alongside per-round ms; the gap to `engine_round`'s pool is
//!   the price of the ownership transfer plus the exchange itself. The
//!   `resident-*` variants run the same instances with resident
//!   dispatch (a steady round sends each worker only its changed owned
//!   values — none here, with no workload — while results still come
//!   back every round, which the bench asserts via the recorded
//!   `owned_values_in/out`, `delta_values` and `collects` counters) —
//!   the legacy-vs-resident gap within this group isolates the inbound
//!   half of the ownership-transfer tax;
//! - **process_round** — one `Engine::round` on the process backend
//!   (each shard a `dlb-shard-worker` OS process, all traffic framed
//!   `dlb-wire/3` over Unix sockets; `range2p`/`bfs8p` × `full`/`off`).
//!   Each record carries the framed `wire_bytes_out/in` the coordinator
//!   moved in the measured round; the gap to `message_round` on the same
//!   partition is the price of process isolation (serialization +
//!   syscalls in place of in-process channels);
//! - **fault_overhead** — one `Engine::round` (stats off) on the message
//!   backend with fault injection `absent` vs. `armed_idle`
//!   (a `FaultPlan` installed whose only event never fires). The round
//!   is the same either way — the plan only decides whether a failed
//!   shard is recovered — so the two rows should sit in each other's
//!   noise band;
//! - **telemetry_overhead** — one `Engine::round` (stats off) with the
//!   telemetry recorder `off` (the no-op branch, must sit in the noise
//!   band of the pre-telemetry trajectory) vs. `armed` (every per-phase
//!   span recorded into preallocated rings; acceptance: ≤ 5% over `off`
//!   on the 1M-node torus), serial and message backends;
//! - **kernel_gather** — the gather kernel's two shapes: one serial
//!   `Engine::round` (stats off — the gather alone) per [`KernelKind`]
//!   (`scalar`, the reference loop on every node | `unrolled`) on a
//!   degree-4 torus and a regular hypercube — both one run with one
//!   broadcast divisor, which `unrolled` gathers as 8-node lane blocks
//!   (every slot of an interior torus block one contiguous 8-load
//!   slice; on the hypercube every slot but the three low-bit ones) —
//!   and an irregular binary tree: its degree-3 internal nodes are one
//!   run of lane blocks, and its leaves, whose one neighbour has a
//!   higher degree, derive their divisor per slot in the reference
//!   loop. Same computation, same bits — the group measures exactly
//!   what the lane blocks buy;
//! - **thread_scaling** — one `Engine::round` (stats off) for every
//!   backend at every thread count `1..=available`: serial once,
//!   pool/message per count (shards = threads for the message rows).
//!   Each record carries `speedup_vs_serial`
//!   (serial median / variant median, computed after the run), making
//!   the scaling protocol a first-class part of the trajectory;
//! - **convergence_run** — a fixed-round end-to-end run through
//!   `run_continuous` (driver + on-demand `Φ` fallback included), the
//!   number the ROADMAP's speedup targets are stated against;
//! - **scenario_run** — a fixed-round online-workload run through
//!   `dlb_workloads::run_driven` (arrivals + drain applied between
//!   rounds, full per-round time series recorded): the cost of the
//!   scenario subsystem relative to a bare convergence run, plus the
//!   workload-application overhead itself (`no-workload` vs
//!   `bursty-drain` variants).
//!
//! - **graph_build** — topology construction, the setup cost every run
//!   pays before round 1: the direct-CSR `torus2d` and `hypercube`
//!   generators (rows emitted in order, no sort) against
//!   `Graph::from_edges` on the same torus's edge list in generator
//!   order, the `GraphBuilder` path (sort, dedup, degree count, fill)
//!   the torus took before.
//!
//! Every result is also appended to `BENCH_engine.json` at the repo root
//! (median/min ns per round, tagged with topology, `n`, threads, variant)
//! so the perf trajectory is tracked across PRs. Set `DLB_BENCH_QUICK=1`
//! for a small instance (CI smoke); set `DLB_THREADS` to cap the pool on
//! shared machines. Under `cargo test --benches` (`--test` flag) nothing
//! is written.
//!
//! [`StatsMode`]: dlb_core::engine::StatsMode

use criterion::{take_reports, Criterion};
use dlb_bench::perf_json::{self, PerfRecord};
use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::engine::{recommended_threads, Backend, Engine, IntoEngine, StatsMode};
use dlb_core::runner::run_continuous;
use dlb_core::{FaultKind, FaultPlan, KernelKind, Telemetry};
use dlb_graphs::{topology, Graph, PartitionSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

/// Metadata joined with the harness reports when emitting JSON.
struct Meta {
    group: &'static str,
    variant: String,
    rounds_per_iter: usize,
    threads: usize,
    /// Message variants: the plan's edge cut and halo size.
    edge_cut: Option<usize>,
    halo: Option<usize>,
    /// Message variants: per-round batched messages and values moved.
    messages: Option<usize>,
    values_sent: Option<usize>,
    /// Message variants: coordinator-transfer volume of the measured
    /// round (owned values in/out, routed deltas, collect phases) —
    /// zero owned values in on resident steady-state rounds.
    owned_values_in: Option<usize>,
    owned_values_out: Option<usize>,
    delta_values: Option<usize>,
    collects: Option<usize>,
    /// Process variants: framed `dlb-wire/3` bytes the coordinator wrote
    /// to / read from the worker sockets in the measured round.
    wire_bytes_out: Option<usize>,
    wire_bytes_in: Option<usize>,
    /// Groups running off the shared torus instance leave these `None`;
    /// `kernel_gather` benches its own per-topology instances.
    topology: Option<&'static str>,
    n: Option<usize>,
}

impl Meta {
    fn new(group: &'static str, variant: String, rounds_per_iter: usize, threads: usize) -> Meta {
        Meta {
            group,
            variant,
            rounds_per_iter,
            threads,
            edge_cut: None,
            halo: None,
            messages: None,
            values_sent: None,
            owned_values_in: None,
            owned_values_out: None,
            delta_values: None,
            collects: None,
            wire_bytes_out: None,
            wire_bytes_in: None,
            topology: None,
            n: None,
        }
    }
}

struct Instance {
    g: Graph,
    init: Vec<f64>,
    side: usize,
}

fn mode_name(mode: StatsMode) -> &'static str {
    match mode {
        StatsMode::Full => "full",
        StatsMode::EveryK(_) => "every10",
        StatsMode::PhiOnly => "phionly",
        StatsMode::Off => "off",
    }
}

fn pool_sizes() -> Vec<usize> {
    let avail = recommended_threads();
    [2usize, 4, 8]
        .into_iter()
        .filter(|&t| t <= 2 * avail)
        .collect()
}

fn engine_rounds(c: &mut Criterion, inst: &Instance, meta: &mut HashMap<String, Meta>) {
    let modes = [
        StatsMode::Full,
        StatsMode::PhiOnly,
        StatsMode::EveryK(10),
        StatsMode::Off,
    ];
    let mut group = c.benchmark_group("engine_round");

    for mode in modes {
        let variant = format!("serial/{}", mode_name(mode));
        meta.insert(
            format!("engine_round/{variant}"),
            Meta::new("engine_round", variant.clone(), 1, 1),
        );
        group.bench_function(variant, |b| {
            let mut engine = ContinuousDiffusion::new(&inst.g)
                .engine()
                .with_stats_mode(mode);
            let mut loads = inst.init.clone();
            b.iter(|| black_box(engine.round(&mut loads).map(|s| s.phi_after)));
        });
    }

    for threads in pool_sizes() {
        for mode in [StatsMode::Full, StatsMode::Off] {
            let variant = format!("pool{threads}/{}", mode_name(mode));
            meta.insert(
                format!("engine_round/{variant}"),
                Meta::new("engine_round", variant.clone(), 1, threads),
            );
            group.bench_function(variant, |b| {
                let mut engine = ContinuousDiffusion::new(&inst.g)
                    .engine_parallel(threads)
                    .with_stats_mode(mode);
                let mut loads = inst.init.clone();
                b.iter(|| black_box(engine.round(&mut loads).map(|s| s.phi_after)));
            });
        }
    }
    group.finish();
}

fn message_rounds(c: &mut Criterion, inst: &Instance, meta: &mut HashMap<String, Meta>) {
    let mut group = c.benchmark_group("message_round");
    let workers = pool_sizes().last().copied().unwrap_or(2);

    let mut specs = vec![PartitionSpec::Range {
        shards: workers.max(2),
    }];
    for shards in [workers.max(2), 4 * workers.max(2)] {
        specs.push(PartitionSpec::Bfs { shards });
    }
    for spec in specs {
        for mode in [StatsMode::Full, StatsMode::Off] {
            let variant = format!(
                "{}{}w/{}",
                spec.strategy_name(),
                spec.shards(),
                mode_name(mode)
            );
            let mut engine = ContinuousDiffusion::new(&inst.g)
                .engine_message(spec)
                .with_stats_mode(mode);
            let mut loads = inst.init.clone();
            // Warm one round so the exchange plan exists and the comm
            // metadata (messages, values moved — the numbers a
            // distributed transport would pay) rides along in the JSON.
            engine.round(&mut loads);
            let metrics = engine.shard_metrics().expect("plan derived");
            let comm = engine.comm_metrics().expect("comm recorded");
            let mut m = Meta::new("message_round", variant.clone(), 1, spec.shards());
            m.edge_cut = Some(metrics.edge_cut);
            m.halo = Some(metrics.halo);
            m.messages = Some(comm.messages);
            m.values_sent = Some(comm.values_sent);
            m.owned_values_in = Some(comm.owned_values_in);
            m.owned_values_out = Some(comm.owned_values_out);
            meta.insert(format!("message_round/{variant}"), m);
            group.bench_function(variant, |b| {
                b.iter(|| black_box(engine.round(&mut loads).map(|s| s.phi_after)));
            });
        }
    }

    // Resident dispatch: a steady-state round sends each worker only the
    // owned values that changed since its last results — none, with no
    // workload between rounds. The warmup runs the seed round plus one
    // steady round, so the recorded metadata is the per-round transfer
    // the timed iterations actually pay (zero owned values in and no
    // deltas; results still come back as one collect).
    let mut specs = vec![PartitionSpec::Range {
        shards: workers.max(2),
    }];
    for shards in [workers.max(2), 4 * workers.max(2)] {
        specs.push(PartitionSpec::Bfs { shards });
    }
    for spec in specs {
        for mode in [StatsMode::Full, StatsMode::Off] {
            let variant = format!(
                "resident-{}{}w/{}",
                spec.strategy_name(),
                spec.shards(),
                mode_name(mode)
            );
            let mut engine = Engine::with_backend(
                ContinuousDiffusion::new(&inst.g),
                Backend::Message {
                    partition: spec,
                    resident: true,
                },
            )
            .with_stats_mode(mode);
            let mut loads = inst.init.clone();
            engine.round(&mut loads); // seed round: ships owned slices once
            engine.round(&mut loads); // steady round: the shape being timed
            let metrics = engine.shard_metrics().expect("plan derived");
            let comm = engine.comm_metrics().expect("comm recorded");
            let mut m = Meta::new("message_round", variant.clone(), 1, spec.shards());
            m.edge_cut = Some(metrics.edge_cut);
            m.halo = Some(metrics.halo);
            m.messages = Some(comm.messages);
            m.values_sent = Some(comm.values_sent);
            m.owned_values_in = Some(comm.owned_values_in);
            m.owned_values_out = Some(comm.owned_values_out);
            m.delta_values = Some(comm.delta_values);
            m.collects = Some(comm.collects);
            // Asserted where the numbers are made: a steady resident
            // round with nothing changed sends no owned values in.
            assert_eq!(comm.owned_values_in, 0, "{variant}: owned values sent");
            assert_eq!(comm.delta_values, 0, "{variant}: unexpected deltas");
            assert_eq!(comm.collects, 1, "{variant}: one collect per round");
            meta.insert(format!("message_round/{variant}"), m);
            group.bench_function(variant, |b| {
                b.iter(|| black_box(engine.round(&mut loads).map(|s| s.phi_after)));
            });
        }
    }
    group.finish();
}

/// The process-backend round cost: one `Engine::round` with each shard a
/// real OS process and every byte crossing a `dlb-wire/3` Unix socket.
/// The gap to `message_round` on the same partition is the price of true
/// process isolation — serialization, syscalls and scheduler handoffs in
/// place of in-process channels. Each record carries the framed
/// `wire_bytes_out/in` the coordinator actually moved in the measured
/// round, so the trajectory tracks wire volume alongside per-round time.
fn process_rounds(c: &mut Criterion, inst: &Instance, meta: &mut HashMap<String, Meta>) {
    let mut group = c.benchmark_group("process_round");
    // Fixed shard counts (not CPU-derived): a process fleet is priced by
    // its wire traffic, and fixed fleets keep the trajectory comparable
    // across machines. Two processes bound the protocol floor; eight is
    // the scenario default (`--backend process`).
    for spec in [
        PartitionSpec::Range { shards: 2 },
        PartitionSpec::Bfs { shards: 8 },
    ] {
        for mode in [StatsMode::Full, StatsMode::Off] {
            let variant = format!(
                "{}{}p/{}",
                spec.strategy_name(),
                spec.shards(),
                mode_name(mode)
            );
            let mut engine = Engine::with_backend(
                ContinuousDiffusion::new(&inst.g),
                Backend::Process {
                    partition: spec,
                    transport: dlb_core::Transport::Unix,
                },
            )
            .with_stats_mode(mode);
            let mut loads = inst.init.clone();
            // Warm two rounds: the first broadcasts each worker its plan
            // frame (local CSR + divisor factor — a one-time cost), the
            // second is the steady shape being timed, so the per-round
            // wire metadata in the JSON excludes the plan broadcast.
            engine.round(&mut loads);
            engine.round(&mut loads);
            let metrics = engine.shard_metrics().expect("plan derived");
            let comm = engine.comm_metrics().expect("comm recorded");
            let mut m = Meta::new("process_round", variant.clone(), 1, spec.shards());
            m.edge_cut = Some(metrics.edge_cut);
            m.halo = Some(metrics.halo);
            m.messages = Some(comm.messages);
            m.values_sent = Some(comm.values_sent);
            m.wire_bytes_out = Some(comm.wire_bytes_out);
            m.wire_bytes_in = Some(comm.wire_bytes_in);
            meta.insert(format!("process_round/{variant}"), m);
            group.bench_function(variant, |b| {
                b.iter(|| black_box(engine.round(&mut loads).map(|s| s.phi_after)));
            });
        }
    }
    group.finish();
}

/// The fault-tolerance overhead check: one `Engine::round` (stats off) on
/// the message backend with no [`FaultPlan`] installed (`absent`) vs. a
/// plan armed whose single event sits at a round the run never reaches
/// (`armed_idle` — recovery armed, nothing ever fires). The coordinator
/// consults the plan once per round, so the gap is the price of that
/// lookup.
fn fault_overhead(c: &mut Criterion, inst: &Instance, meta: &mut HashMap<String, Meta>) {
    let threads = pool_sizes().last().copied().unwrap_or(2);
    let shards = threads.max(2);
    let partition = PartitionSpec::Range { shards };
    let idle_plan = FaultPlan::new().event(u64::MAX, 0, FaultKind::Panic);
    let mut group = c.benchmark_group("fault_overhead");
    for (arm, plan) in [("absent", None), ("armed_idle", Some(idle_plan))] {
        let variant = format!("message/{arm}");
        meta.insert(
            format!("fault_overhead/{variant}"),
            Meta::new("fault_overhead", variant.clone(), 1, shards),
        );
        let mut engine = ContinuousDiffusion::new(&inst.g)
            .engine_message(partition)
            .with_stats_mode(StatsMode::Off);
        engine.set_faults(plan);
        let mut loads = inst.init.clone();
        group.bench_function(variant, |b| {
            b.iter(|| {
                engine.round(&mut loads);
                black_box(loads[0])
            });
        });
    }
    group.finish();
}

/// The telemetry overhead check: one `Engine::round` (stats off) with the
/// recorder `off` (the default `Telemetry::Off` no-op branch — must stay
/// within measurement noise of the pre-telemetry trajectory) vs. `armed`
/// (preallocated ring buffers capturing every per-phase span). The
/// acceptance bound is armed ≤ 5% over off on the 1M-node torus: recording
/// is a monotonic clock read plus a ring push per phase, amortized over a
/// millisecond-scale round. Serial records engine-lane spans only; the
/// message backend adds per-shard lanes (the worst recording density).
fn telemetry_overhead(c: &mut Criterion, inst: &Instance, meta: &mut HashMap<String, Meta>) {
    let threads = pool_sizes().last().copied().unwrap_or(2);
    let shards = threads.max(2);
    let partition = PartitionSpec::Range { shards };
    let mut group = c.benchmark_group("telemetry_overhead");
    for (backend_name, backend, workers) in [
        ("serial", Backend::Serial, 1),
        (
            "message",
            Backend::Message {
                partition,
                resident: false,
            },
            shards,
        ),
    ] {
        for arm in ["off", "armed"] {
            let variant = format!("{backend_name}/{arm}");
            meta.insert(
                format!("telemetry_overhead/{variant}"),
                Meta::new("telemetry_overhead", variant.clone(), 1, workers),
            );
            let tel = match arm {
                "armed" => Telemetry::armed(shards, dlb_core::telemetry::DEFAULT_CAPACITY),
                _ => Telemetry::Off,
            };
            let mut engine = Engine::with_backend(ContinuousDiffusion::new(&inst.g), backend)
                .with_stats_mode(StatsMode::Off)
                .with_telemetry(tel);
            let mut loads = inst.init.clone();
            group.bench_function(variant, |b| {
                b.iter(|| {
                    engine.round(&mut loads);
                    black_box(loads[0])
                });
            });
        }
    }
    group.finish();
}

/// The kernel-dispatch comparison: serial rounds with statistics off, so
/// the measured time is the gather alone, per [`KernelKind`] and per
/// degree structure. Instances are sized below the main torus — the
/// group's job is relative flavour cost on each structure, not absolute
/// scale.
fn kernel_gather(c: &mut Criterion, quick: bool, meta: &mut HashMap<String, Meta>) {
    let side = if quick { 64 } else { 512 };
    let dim = if quick { 12 } else { 18 };
    let graphs: [(&'static str, Graph); 3] = [
        // Degree 4 everywhere: one run of lane blocks, all 4 slots
        // contiguous away from the column wraps.
        ("torus", topology::torus2d(side, side)),
        // Regular at degree `dim`: lane blocks whose low-bit slots are
        // gathered by index.
        ("hypercube", topology::hypercube(dim)),
        // Heap-ordered: a degree-3 run of lane blocks, then a run of
        // leaves that divide by their parent's degree — the reference
        // loop's half of `unrolled`.
        ("irregular", topology::binary_tree(side * side)),
    ];
    let mut group = c.benchmark_group("kernel_gather");
    for (name, g) in &graphs {
        let init: Vec<f64> = (0..g.n()).map(|i| ((i * 131 + 17) % 4099) as f64).collect();
        for kind in KernelKind::ALL {
            let variant = format!("{name}/{}", kind.name());
            let mut m = Meta::new("kernel_gather", variant.clone(), 1, 1);
            m.topology = Some(name);
            m.n = Some(g.n());
            meta.insert(format!("kernel_gather/{variant}"), m);
            group.bench_function(variant, |b| {
                let mut engine = ContinuousDiffusion::new(g)
                    .engine()
                    .with_kernel(kind)
                    .with_stats_mode(StatsMode::Off);
                let mut loads = init.clone();
                b.iter(|| {
                    engine.round(&mut loads);
                    black_box(loads[0])
                });
            });
        }
    }
    group.finish();
}

/// Topology construction: one graph build per iteration. `from_edges`
/// gets the torus edges in the order the generator visits them (right
/// and down neighbour per node), so it pays the same sort the builder
/// path paid.
fn graph_build(c: &mut Criterion, quick: bool, side: usize, meta: &mut HashMap<String, Meta>) {
    let dim = if quick { 12 } else { 18 };
    let idx = |r: usize, c: usize| (r * side + c) as u32;
    let torus_edges: Vec<(u32, u32)> = (0..side)
        .flat_map(|r| {
            (0..side).flat_map(move |c| {
                [
                    (idx(r, c), idx(r, (c + 1) % side)),
                    (idx(r, c), idx((r + 1) % side, c)),
                ]
            })
        })
        .collect();
    let n = side * side;
    let torus = || topology::torus2d(side, side);
    let cube = || topology::hypercube(dim);
    let from_edges = || Graph::from_edges(n, torus_edges.iter().copied()).unwrap();
    let builds: [(&str, &'static str, usize, &dyn Fn() -> Graph); 3] = [
        ("torus2d/direct", "torus2d", n, &torus),
        ("hypercube/direct", "hypercube", 1 << dim, &cube),
        ("torus2d/from_edges", "torus2d", n, &from_edges),
    ];
    let mut group = c.benchmark_group("graph_build");
    for (variant, topo, n, build) in builds {
        let mut m = Meta::new("graph_build", variant.to_string(), 1, 1);
        m.topology = Some(topo);
        m.n = Some(n);
        meta.insert(format!("graph_build/{variant}"), m);
        group.bench_function(variant, |b| b.iter(|| black_box(build())));
    }
    group.finish();
}

/// The thread-scaling protocol: every backend at every worker count from
/// 1 to the machine's available threads, stats off, on the shared torus
/// instance. `main` joins the records with `speedup_vs_serial` —
/// serial median over variant median — after the run.
fn thread_scaling(c: &mut Criterion, inst: &Instance, meta: &mut HashMap<String, Meta>) {
    let avail = recommended_threads().max(2);
    let mut group = c.benchmark_group("thread_scaling");
    let mut variants: Vec<(String, usize, Backend)> =
        vec![("serial/1t".to_string(), 1, Backend::Serial)];
    for t in 1..=avail {
        variants.push((format!("pool/{t}t"), t, Backend::Pool { threads: t }));
        variants.push((
            format!("message/{t}t"),
            t,
            Backend::Message {
                partition: PartitionSpec::Range { shards: t.max(2) },
                resident: false,
            },
        ));
    }
    for (variant, threads, backend) in variants {
        meta.insert(
            format!("thread_scaling/{variant}"),
            Meta::new("thread_scaling", variant.clone(), 1, threads),
        );
        let mut engine = Engine::with_backend(ContinuousDiffusion::new(&inst.g), backend)
            .with_stats_mode(StatsMode::Off);
        let mut loads = inst.init.clone();
        group.bench_function(variant, |b| {
            b.iter(|| {
                engine.round(&mut loads);
                black_box(loads[0])
            });
        });
    }
    group.finish();
}

fn convergence_runs(
    c: &mut Criterion,
    inst: &Instance,
    rounds: usize,
    meta: &mut HashMap<String, Meta>,
) {
    let modes = [
        StatsMode::Full,
        StatsMode::PhiOnly,
        StatsMode::EveryK(10),
        StatsMode::Off,
    ];
    let mut group = c.benchmark_group("convergence_run");

    let mut variants: Vec<(String, usize, StatsMode)> = modes
        .into_iter()
        .map(|m| (format!("serial/{}", mode_name(m)), 1usize, m))
        .collect();
    if let Some(&threads) = pool_sizes().last() {
        for mode in [StatsMode::Full, StatsMode::Off] {
            variants.push((format!("pool{threads}/{}", mode_name(mode)), threads, mode));
        }
    }

    for (variant, threads, mode) in variants {
        meta.insert(
            format!("convergence_run/{variant}"),
            Meta::new("convergence_run", variant.clone(), rounds, threads),
        );
        // Protocol, engine and pool are built once —
        // only the run itself is timed. The per-iteration `loads` reset
        // is a plain copy shared by every variant. EveryK's cadence keeps
        // rolling across iterations (rounds_run persists), which averages
        // to the same per-round work.
        let mut engine = if threads == 1 {
            ContinuousDiffusion::new(&inst.g).engine()
        } else {
            ContinuousDiffusion::new(&inst.g).engine_parallel(threads)
        }
        .with_stats_mode(mode);
        let mut loads = inst.init.clone();
        group.bench_function(variant, |b| {
            b.iter(|| {
                loads.copy_from_slice(&inst.init);
                // Unreachable target: the driver executes exactly `rounds`
                // rounds, convergence checks (and their on-demand Φ
                // fallback) included.
                black_box(run_continuous(
                    &mut engine,
                    &mut loads,
                    f64::NEG_INFINITY,
                    rounds,
                    false,
                ))
            });
        });
    }
    group.finish();
}

fn scenario_runs(
    c: &mut Criterion,
    inst: &Instance,
    rounds: usize,
    meta: &mut HashMap<String, Meta>,
) {
    use dlb_workloads::{run_driven, Arrivals, Compose, Drain, StopSpec, Workload};

    let stop = StopSpec::Rounds { rounds };
    let mut group = c.benchmark_group("scenario_run");
    // (variant, stats mode, with workload?)
    let variants: [(&str, StatsMode, bool); 3] = [
        ("serial/no-workload", StatsMode::Full, false),
        ("serial/bursty-drain", StatsMode::Full, true),
        ("serial/bursty-drain-off", StatsMode::Off, true),
    ];
    for (variant, mode, with_workload) in variants {
        meta.insert(
            format!("scenario_run/{variant}"),
            Meta::new("scenario_run", variant.to_string(), rounds, 1),
        );
        let mut engine = ContinuousDiffusion::new(&inst.g)
            .engine()
            .with_stats_mode(mode);
        // Per-node-scaled rates so quick and full instances stress the
        // same regime. Workload state (carries) rolls across iterations;
        // the per-round work is identical.
        let n = inst.g.n() as f64;
        let mut workload: Compose<f64> = Compose::new(vec![
            Box::new(Arrivals::bursty(2.0 * n, 0.0, 10, 10)),
            Box::new(Drain::proportional(0.01)),
        ]);
        let mut loads = inst.init.clone();
        group.bench_function(variant, |b| {
            b.iter(|| {
                loads.copy_from_slice(&inst.init);
                let w = with_workload.then_some(&mut workload as &mut dyn Workload<f64>);
                black_box(run_driven(&mut engine, &mut loads, w, &stop, "bench"))
            });
        });
    }
    group.finish();
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let quick = matches!(std::env::var("DLB_BENCH_QUICK"), Ok(v) if !v.is_empty() && v != "0");
    let side = if quick { 100 } else { 1000 };
    let conv_rounds = if quick { 10 } else { 25 };

    let g = topology::torus2d(side, side);
    let n = g.n();
    let init: Vec<f64> = (0..n).map(|i| ((i * 131 + 17) % 4099) as f64).collect();
    let inst = Instance { g, init, side };

    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(if quick { 100 } else { 500 }))
        .measurement_time(Duration::from_millis(if quick { 400 } else { 2500 }));

    let mut meta: HashMap<String, Meta> = HashMap::new();
    kernel_gather(&mut c, quick, &mut meta);
    graph_build(&mut c, quick, side, &mut meta);
    engine_rounds(&mut c, &inst, &mut meta);
    message_rounds(&mut c, &inst, &mut meta);
    process_rounds(&mut c, &inst, &mut meta);
    fault_overhead(&mut c, &inst, &mut meta);
    telemetry_overhead(&mut c, &inst, &mut meta);
    thread_scaling(&mut c, &inst, &mut meta);
    convergence_runs(&mut c, &inst, conv_rounds, &mut meta);
    scenario_runs(&mut c, &inst, conv_rounds, &mut meta);

    if test_mode {
        // `cargo test --benches` smoke-runs one iteration of everything;
        // don't overwrite the committed trajectory with junk timings.
        return;
    }

    let mut records: Vec<PerfRecord> = take_reports()
        .into_iter()
        .filter_map(|r| {
            let m = meta.get(&r.id)?;
            let per_round = m.rounds_per_iter as f64;
            Some(PerfRecord {
                id: r.id.clone(),
                group: m.group.to_string(),
                variant: m.variant.clone(),
                topology: m.topology.unwrap_or("torus2d").to_string(),
                n: m.n.unwrap_or(inst.side * inst.side),
                threads: m.threads,
                rounds_per_iter: m.rounds_per_iter,
                median_ns_per_round: r.median_ns / per_round,
                min_ns_per_round: r.min_ns / per_round,
                samples: r.samples,
                edge_cut: m.edge_cut,
                halo: m.halo,
                messages: m.messages,
                values_sent: m.values_sent,
                owned_values_in: m.owned_values_in,
                owned_values_out: m.owned_values_out,
                delta_values: m.delta_values,
                collects: m.collects,
                wire_bytes_out: m.wire_bytes_out,
                wire_bytes_in: m.wire_bytes_in,
                speedup_vs_serial: None,
            })
        })
        .collect();
    // Join the scaling protocol's speedups: serial median over variant
    // median, from the same run.
    let serial_median = records
        .iter()
        .find(|r| r.group == "thread_scaling" && r.variant == "serial/1t")
        .map(|r| r.median_ns_per_round);
    if let Some(serial_median) = serial_median {
        for r in &mut records {
            if r.group == "thread_scaling" && r.median_ns_per_round > 0.0 {
                r.speedup_vs_serial = Some(serial_median / r.median_ns_per_round);
            }
        }
    }
    assert!(
        !records.is_empty(),
        "bench produced no records (filter excluded everything?)"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    perf_json::write(path, "engine", quick, recommended_threads(), &records)
        .expect("write BENCH_engine.json");
    println!("wrote {} records to {path}", records.len());
}
