//! Process-backend integration suite: shards as OS processes speaking
//! `dlb-wire/3` over real sockets.
//!
//! (Per-protocol serial ≡ process bit-identity lives in
//! `engine_properties.rs`; codec round-trips and truncation at every
//! byte boundary are property-tested inside `dlb-wire`. This file covers
//! what only a live fleet can: the TCP transport, wire-level comm
//! accounting, worker death mid-round surfacing as a *typed* engine
//! error within bounded time (or, with a fault plan armed, a re-homed
//! shard and a respawned worker), handshake rejection of malformed peers,
//! corrupt-plan rejection, the worker's halo-group accounting, the size
//! and bytes of a shard-local plan, the diffusion check across graph
//! versions, and the scenario layer's gating of the new backend.)

use std::time::{Duration, Instant};

use dlb_core::continuous::{self, ContinuousDiffusion, GeneralizedDiffusion};
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::{Backend, Engine, EnginePhase, Protocol, StatsCtx};
use dlb_core::process::encode_plan_frame;
use dlb_core::{GatherSpec, KernelKind, Transport};
use dlb_dynamics::sequence::{GraphSequence, PeriodicSequence};
use dlb_graphs::{topology, Csr, Graph, GraphBuilder, PartitionSpec, ShardPlan};
use dlb_wire::{
    read_frame, read_hello, DoneFrame, Frame, GatherKernel, LoadType, LocalCsrPlan, PlanDefect,
    PlanFrame, RoundCmdFrame, RoundMode, WireError, WireListener, WireStream, MAGIC,
};
use rand::SeedableRng;

fn process(shards: usize, transport: Transport) -> Backend {
    Backend::Process {
        partition: PartitionSpec::Bfs { shards },
        transport,
    }
}

fn spike(n: usize) -> Vec<f64> {
    let mut loads = vec![1.0; n];
    loads[0] = n as f64 * 10.0;
    loads
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

#[test]
fn tcp_transport_matches_serial() {
    let g = topology::torus2d(6, 6);
    let mut serial = spike(g.n());
    let mut engine = Engine::serial(ContinuousDiffusion::new(&g));
    for _ in 0..5 {
        engine.round(&mut serial);
    }

    let mut loads = spike(g.n());
    let mut engine = Engine::with_backend(ContinuousDiffusion::new(&g), process(4, Transport::Tcp));
    for _ in 0..5 {
        engine.round(&mut loads);
    }
    assert_eq!(serial, loads, "TCP transport diverged from serial");

    let comm = engine.comm_metrics().expect("process rounds report comm");
    assert!(comm.wire_bytes_out > 0, "no framed bytes counted out");
    assert!(comm.wire_bytes_in > 0, "no framed bytes counted in");
    // The framed streams carry envelopes and round commands on top of
    // the value payloads, so wire bytes must exceed the value volume.
    assert!(
        comm.wire_bytes_out > comm.halo_bytes,
        "wire bytes ({}) should exceed raw halo value bytes ({})",
        comm.wire_bytes_out,
        comm.halo_bytes
    );
}

#[test]
fn worker_pids_exposed_only_on_process_backend() {
    let g = topology::torus2d(4, 4);
    let engine = Engine::with_backend(ContinuousDiffusion::new(&g), process(3, Transport::Unix));
    let pids = engine.process_worker_pids().expect("process backend");
    assert_eq!(pids.len(), 3);
    assert!(pids.iter().all(|&p| p > 0));

    let serial = Engine::serial(ContinuousDiffusion::new(&g));
    assert!(serial.process_worker_pids().is_none());
}

// ---------------------------------------------------------------------------
// Failure model: death is typed and bounded, never a deadlock
// ---------------------------------------------------------------------------

#[test]
fn killed_worker_mid_run_yields_typed_error_not_deadlock() {
    let g = topology::torus2d(6, 6);
    let mut loads = spike(g.n());
    let mut engine =
        Engine::with_backend(ContinuousDiffusion::new(&g), process(4, Transport::Unix));
    engine.try_round(&mut loads).expect("healthy round");

    engine.process_kill_worker(2);
    let t0 = Instant::now();
    let err = engine
        .try_round(&mut loads)
        .expect_err("round over a dead worker must fail");
    // The coordinator notices the closed socket well inside the wire
    // timeout; anything near a minute would be a stall, not detection.
    assert!(
        t0.elapsed() < Duration::from_secs(40),
        "death detection took {:?}",
        t0.elapsed()
    );
    assert_eq!(err.shard, 2);
    assert_eq!(err.phase, EnginePhase::Wire);

    // The worker stays marked dead: subsequent rounds fail fast on the
    // same typed error instead of re-timing-out.
    let t1 = Instant::now();
    let err = engine
        .try_round(&mut loads)
        .expect_err("dead worker stays dead");
    assert_eq!(err.shard, 2);
    assert_eq!(err.phase, EnginePhase::Wire);
    assert!(t1.elapsed() < Duration::from_secs(5));

    // Failed rounds still publish their comm metrics (the bytes spent on
    // the doomed round stay visible).
    assert!(engine.comm_metrics().is_some());
}

#[test]
fn armed_panic_fault_sigkills_a_worker_process_and_respawns_it() {
    use dlb_core::{FaultKind, FaultPlan};
    let g = topology::torus2d(6, 6);
    let rounds = 4;
    let mut serial = spike(g.n());
    Engine::serial(ContinuousDiffusion::new(&g)).rounds(&mut serial, rounds);

    let plan = FaultPlan::new().event(2, 1, FaultKind::Panic);
    let mut engine =
        Engine::with_backend(ContinuousDiffusion::new(&g), process(3, Transport::Unix))
            .with_faults(plan);
    let mut loads = spike(g.n());
    engine.round(&mut loads);
    let before = engine.process_worker_pids().expect("process backend");
    // Round 2 kills shard 1's worker before dispatch; the coordinator
    // re-homes its owned values from the snapshot and respawns it.
    engine.try_round(&mut loads).expect("recovered round");
    let after = engine.process_worker_pids().expect("process backend");
    assert_ne!(before[1], after[1], "shard 1 runs a new worker process");
    assert_eq!((before[0], before[2]), (after[0], after[2]));
    let owned_1 = PartitionSpec::Bfs { shards: 3 }.build(&g).shard_size(1) as u64;
    let stats = engine.fault_stats();
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.rehomed_values, owned_1);
    // The respawned worker serves the next rounds.
    engine.rounds(&mut loads, rounds - 2);
    assert_eq!(serial, loads, "recovery must be bit-identical to serial");
    assert_eq!(engine.fault_stats().recoveries, 1);

    // An armed plan also recovers a worker killed from outside.
    engine.process_kill_worker(0);
    let mut more = loads.clone();
    engine.round(&mut more);
    let mut reference = loads.clone();
    Engine::serial(ContinuousDiffusion::new(&g)).round(&mut reference);
    assert_eq!(reference, more);
    assert_eq!(engine.fault_stats().recoveries, 2);
}

// ---------------------------------------------------------------------------
// Handshake rejection: each corruption mode is a distinct typed error
// ---------------------------------------------------------------------------

/// Runs `run_worker` against a scripted fake coordinator and returns
/// what the worker returned. The server closure receives the accepted
/// stream *after* the worker's 16-byte hello has been consumed and
/// validated.
fn scripted_worker(server: impl FnOnce(&mut WireStream) + Send + 'static) -> Result<(), WireError> {
    let listener = WireListener::bind(Transport::Unix).expect("bind");
    let endpoint = listener.endpoint();
    let worker = std::thread::spawn(move || {
        let stream = WireStream::connect(&endpoint).expect("connect");
        dlb_core::run_worker(stream, 0)
    });
    let mut stream = listener.accept().expect("accept");
    let hello = read_hello(&mut stream).expect("worker sends a valid hello");
    assert_eq!(hello.shard, 0);
    server(&mut stream);
    worker.join().expect("worker thread")
}

/// [`scripted_worker`] for a coordinator the worker must reject: returns
/// the worker's error.
fn worker_against(server: impl FnOnce(&mut WireStream) + Send + 'static) -> WireError {
    scripted_worker(server).expect_err("worker must reject the scripted coordinator")
}

fn send(stream: &mut WireStream, frame: Frame) {
    use std::io::Write;
    stream.write_all(&frame.encode()).expect("write frame");
}

#[test]
fn handshake_bad_magic_is_typed() {
    use std::io::Write;
    let err = worker_against(|stream| {
        stream
            .write_all(b"NOPE\x01\x00\x00\x00\x01\x00\x00\x00")
            .unwrap();
    });
    match err {
        WireError::BadMagic { found } => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn handshake_version_mismatch_is_typed() {
    use std::io::Write;
    let err = worker_against(|stream| {
        let mut ack = [0u8; 12];
        ack[0..4].copy_from_slice(&MAGIC);
        ack[4..8].copy_from_slice(&99u32.to_le_bytes());
        ack[8..12].copy_from_slice(&1u32.to_le_bytes());
        stream.write_all(&ack).unwrap();
    });
    match err {
        WireError::VersionMismatch { ours, theirs } => {
            assert_eq!(ours, dlb_wire::WIRE_VERSION);
            assert_eq!(theirs, 99);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_frame_is_typed() {
    use std::io::Write;
    let err = worker_against(|stream| {
        dlb_wire::write_hello_ack(stream).unwrap();
        // A frame that declares a 64-byte Plan payload, delivers 3 bytes,
        // and hangs up: the worker must report the truncation with the
        // frame type it died inside.
        let plan_tag = 1u8;
        let mut partial = vec![plan_tag];
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(&[0, 1, 2]);
        stream.write_all(&partial).unwrap();
        let _ = stream.shutdown_write();
    });
    match err {
        WireError::Truncated { frame: Some(tag) } => assert_eq!(tag, 1),
        other => panic!("expected Truncated{{frame: Some(1)}}, got {other:?}"),
    }
}

#[test]
fn eof_between_frames_is_an_orderly_shutdown() {
    // A coordinator that completes the handshake and disappears is a
    // normal exit for the worker (EOF between frames), not an error.
    let listener = WireListener::bind(Transport::Unix).expect("bind");
    let endpoint = listener.endpoint();
    let worker = std::thread::spawn(move || {
        let stream = WireStream::connect(&endpoint).expect("connect");
        dlb_core::run_worker(stream, 7)
    });
    let mut stream = listener.accept().expect("accept");
    let hello = read_hello(&mut stream).expect("hello");
    assert_eq!(hello.shard, 7);
    dlb_wire::write_hello_ack(&mut stream).unwrap();
    drop(stream);
    worker
        .join()
        .expect("worker thread")
        .expect("clean EOF exit");
}

// ---------------------------------------------------------------------------
// Shard-local plans: validation and halo-group accounting
// ---------------------------------------------------------------------------

/// Shard 0 owns one node (frame position 0) of degree 2 whose two
/// neighbours sit on shards 1 and 2 (halo positions 1 and 2, degree 3).
fn one_row_plan() -> LocalCsrPlan {
    LocalCsrPlan::new(
        vec![2, 3, 3],
        vec![1, 2],
        vec![(1, vec![1]), (2, vec![2])],
        4.0f64.to_bits(),
    )
}

fn plan_frame(kernel: LocalCsrPlan) -> Frame {
    Frame::Plan(PlanFrame {
        seq: 1,
        shard: 0,
        load_type: LoadType::F64,
        owned: 1,
        kernel: Some(kernel),
    })
}

#[test]
fn worker_rejects_a_corrupt_local_plan_with_a_typed_error() {
    let resealed = |edit: fn(&mut LocalCsrPlan)| {
        let mut p = one_row_plan();
        edit(&mut p);
        LocalCsrPlan::new(p.degrees, p.slots, p.recv_groups, p.factor)
    };
    let mut tampered = one_row_plan();
    tampered.factor = 2.0f64.to_bits();
    let cases = [
        (
            resealed(|p| p.slots[1] = 3),
            PlanDefect::SlotOutOfRange { slot: 3, local: 3 },
        ),
        (
            resealed(|p| p.degrees[0] = 3),
            PlanDefect::DegreeSum {
                degree_sum: 3,
                slots: 2,
            },
        ),
        (
            resealed(|p| p.recv_groups[1].1[0] = 0),
            PlanDefect::RecvOutsideHalo { position: 0 },
        ),
        (
            tampered,
            PlanDefect::Fingerprint {
                expected: one_row_plan().fingerprint,
                actual: {
                    let mut p = one_row_plan();
                    p.factor = 2.0f64.to_bits();
                    p.content_fingerprint()
                },
            },
        ),
    ];
    for (plan, defect) in cases {
        let err = worker_against(move |stream| {
            dlb_wire::write_hello_ack(stream).unwrap();
            send(stream, plan_frame(plan));
        });
        match err {
            WireError::CorruptPlan(got) => assert_eq!(got, defect),
            other => panic!("expected CorruptPlan({defect:?}), got {other:?}"),
        }
    }
}

/// Sends one diffusion round of the [`one_row_plan`] shard: the command
/// announces `halos.len()` batches, each `(seq, src, value)`.
fn send_round(stream: &mut WireStream, seq: u64, owned: f64, halos: &[(u64, u32, f64)]) {
    send(
        stream,
        Frame::RoundCmd(RoundCmdFrame {
            seq,
            round: seq,
            mode: RoundMode::Diffusion,
            halo_batches: halos.len() as u32,
            kernel: GatherKernel::Unrolled,
        }),
    );
    send(
        stream,
        Frame::OwnedValues {
            seq,
            values: vec![owned.to_bits()],
        },
    );
    for &(batch_seq, src, value) in halos {
        send(
            stream,
            Frame::HaloBatch {
                seq: batch_seq,
                src,
                values: vec![value.to_bits()],
            },
        );
    }
}

#[test]
fn worker_refuses_rounds_with_missing_or_duplicate_halo_groups() {
    let outcome = scripted_worker(|stream| {
        dlb_wire::write_hello_ack(stream).unwrap();
        send(stream, plan_frame(one_row_plan()));
        let (lv, a, b) = (10.0f64, 3.0f64, 25.0f64);

        // A complete round computes Algorithm 1 for the one owned row:
        // both slots divide by 4·max(2, 3).
        send_round(stream, 1, lv, &[(1, 1, a), (1, 2, b)]);
        let want = lv + (a - lv) / 12.0 + (b - lv) / 12.0;
        assert_eq!(
            read_frame(stream).unwrap(),
            Frame::Results {
                seq: 1,
                values: vec![want.to_bits()]
            }
        );
        assert_eq!(
            read_frame(stream).unwrap(),
            Frame::Done(DoneFrame { seq: 1, ok: true })
        );

        // Missing group (shard 2's batch never comes), a duplicated
        // group (shard 1 twice), and a stale batch standing in for one:
        // each would leave last round's halo value in the frame, so the
        // worker must refuse the round rather than compute on it.
        let broken: [&[(u64, u32, f64)]; 3] = [
            &[(2, 1, a)],
            &[(3, 1, a), (3, 1, a)],
            &[(4, 1, a), (1, 2, b)],
        ];
        for (i, halos) in broken.into_iter().enumerate() {
            let seq = 2 + i as u64;
            send_round(stream, seq, lv, halos);
            assert_eq!(
                read_frame(stream).unwrap(),
                Frame::Done(DoneFrame { seq, ok: false }),
                "round {seq} with halo batches {halos:?}"
            );
        }

        // The stream stayed in step: the next complete round runs.
        send_round(stream, 5, lv, &[(5, 2, b), (5, 1, a)]);
        assert!(matches!(
            read_frame(stream).unwrap(),
            Frame::Results { seq: 5, .. }
        ));
        assert_eq!(
            read_frame(stream).unwrap(),
            Frame::Done(DoneFrame { seq: 5, ok: true })
        );
        send(stream, Frame::Exit);
    });
    outcome.expect("worker serves until Exit");
}

// ---------------------------------------------------------------------------
// Shard-local plans on a live fleet
// ---------------------------------------------------------------------------

/// Hubs of degree 8 and 10 linked to a degree-22 hub, each with leaves.
/// Under a three-way split the two smaller hubs are boundary rows whose
/// halo neighbour (the big hub) has the higher degree, so their slots
/// divide by different divisors across the cut.
fn hubs() -> Graph {
    let mut b = GraphBuilder::new(39).unwrap();
    let (a, c, big) = (0u32, 8u32, 18u32);
    for leaf in 1..8 {
        b.add_edge(a, leaf).unwrap();
    }
    for leaf in 9..18 {
        b.add_edge(c, leaf).unwrap();
    }
    for leaf in 19..39 {
        b.add_edge(big, leaf).unwrap();
    }
    b.add_edge(a, big).unwrap();
    b.add_edge(c, big).unwrap();
    b.build()
}

fn run_rounds<P: Protocol>(mut engine: Engine<P>, init: &[P::Load], rounds: usize) -> Vec<P::Load> {
    let mut loads = init.to_vec();
    for _ in 0..rounds {
        engine.round(&mut loads);
    }
    loads
}

fn assert_hubs_identical<P, M>(make: M, init: &[P::Load])
where
    P: Protocol + Sync,
    M: Fn() -> P,
{
    let serial = run_rounds(
        Engine::serial(make()).with_kernel(KernelKind::Scalar),
        init,
        5,
    );
    for partition in [
        PartitionSpec::Range { shards: 3 },
        PartitionSpec::Bfs { shards: 3 },
    ] {
        for kind in KernelKind::ALL {
            let backend = Backend::Process {
                partition,
                transport: Transport::Unix,
            };
            let engine = Engine::with_backend(make(), backend).with_kernel(kind);
            assert_eq!(
                serial,
                run_rounds(engine, init, 5),
                "{} over {partition:?} with the {} kernel diverged",
                make().name(),
                kind.name()
            );
        }
    }
}

#[test]
fn irregular_cut_bit_identical_for_both_load_types_and_kernels() {
    let g = hubs();
    // The cut really separates a hub from a higher-degree halo neighbour.
    let partition = PartitionSpec::Range { shards: 3 }.build(&g);
    assert_ne!(partition.owner_of(0), partition.owner_of(18));
    assert!(g.degree(18) > g.degree(0));

    let loads: Vec<f64> = (0..g.n())
        .map(|i| 1.0 + (i * 37 % 11) as f64 * 13.7)
        .collect();
    let tokens: Vec<i64> = (0..g.n()).map(|i| (i as i64 * 977) % 4021).collect();
    assert_hubs_identical(|| ContinuousDiffusion::new(&g), &loads);
    assert_hubs_identical(|| GeneralizedDiffusion::new(&g, 6.0), &loads);
    assert_hubs_identical(|| DiscreteDiffusion::new(&g), &tokens);
}

#[test]
fn plan_frame_ships_only_the_local_csr() {
    let g = topology::torus2d(32, 32);
    let spec = PartitionSpec::Bfs { shards: 2 };
    let mut loads = spike(g.n());
    let mut engine =
        Engine::with_backend(ContinuousDiffusion::new(&g), process(2, Transport::Unix));
    engine.round(&mut loads);
    let comm = engine.comm_metrics().expect("process rounds report comm");

    // Round 1 moves, per shard: the plan (a degree per local node, a
    // slot per owned CSR slot, a position per halo node), the owned
    // values and the halo values — plus a fixed header per frame.
    let plan = ShardPlan::build(&g, &spec.build(&g));
    let frame_headers = 256;
    let bound: usize = plan
        .views()
        .iter()
        .enumerate()
        .map(|(s, v)| {
            let csr = plan.local_csr(&g, s);
            4 * csr.len()
                + 4 * csr.neighbor_slots().len()
                + 4 * v.halo().len()
                + 8 * v.owned().len()
                + 8 * v.halo().len()
                + frame_headers
        })
        .sum();
    assert!(
        comm.wire_bytes_out <= bound,
        "round 1 wrote {} bytes, over the local-CSR bound {bound}",
        comm.wire_bytes_out
    );
    // A global edge list per shard would not fit in that bound.
    let edge_lists = 2 * 8 * g.m();
    assert!(
        comm.wire_bytes_out < edge_lists,
        "round 1 wrote {} bytes, as much as two edge lists ({edge_lists})",
        comm.wire_bytes_out
    );
}

#[test]
fn streamed_plan_frames_equal_the_encoded_local_csr_plan() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let graphs = [
        topology::torus2d(9, 7),
        hubs(),
        topology::gnp_connected(60, 0.08, &mut rng),
    ];
    for g in &graphs {
        for shards in 1..=8 {
            for spec in [
                PartitionSpec::Range { shards },
                PartitionSpec::Bfs { shards },
            ] {
                let plan = ShardPlan::build(g, &spec.build(g));
                for (s, view) in plan.views().iter().enumerate() {
                    // The reference: the on-demand local CSR, and recv
                    // positions found by searching the sorted halo.
                    let csr = plan.local_csr(g, s);
                    let owned = view.owned().len();
                    let recv_groups = view
                        .halo_groups()
                        .into_iter()
                        .map(|(src, ids)| {
                            let positions = ids
                                .iter()
                                .map(|h| (owned + view.halo().binary_search(h).unwrap()) as u32)
                                .collect();
                            (src as u32, positions)
                        })
                        .collect();
                    let kernel = LocalCsrPlan::new(
                        csr.degrees().to_vec(),
                        csr.neighbor_slots().to_vec(),
                        recv_groups,
                        4.0f64.to_bits(),
                    );
                    let frame = |kernel| {
                        Frame::Plan(PlanFrame {
                            seq: 3,
                            shard: s as u32,
                            load_type: LoadType::F64,
                            owned: owned as u32,
                            kernel,
                        })
                        .encode()
                    };
                    let spec = GatherSpec {
                        graph: g,
                        factor: 4.0f64,
                    };
                    let mut streamed = Vec::new();
                    encode_plan_frame(&mut streamed, &plan, s, 3, Some(spec));
                    assert_eq!(streamed, frame(Some(kernel)), "{spec:?} shard {s} of {g:?}");
                    streamed.clear();
                    encode_plan_frame::<f64>(&mut streamed, &plan, s, 3, None);
                    assert_eq!(streamed, frame(None), "{spec:?} shard {s} without a kernel");
                }
            }
        }
    }
}

/// Algorithm 1 over a periodic schedule of graphs, exposing its gather
/// spec (the dynamics crate's drivers do not), so the process backend
/// runs diffusion rounds on a graph that changes every round.
struct PeriodicDiffusion {
    seq: PeriodicSequence,
    g: Graph,
    version: u64,
}

impl PeriodicDiffusion {
    fn new(graphs: Vec<Graph>) -> PeriodicDiffusion {
        let g = graphs[0].clone();
        PeriodicDiffusion {
            seq: PeriodicSequence::new(graphs),
            g,
            version: 0,
        }
    }
}

impl Protocol for PeriodicDiffusion {
    type Load = f64;
    type Stats = ();

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "periodic-diffusion"
    }

    fn begin_round(&mut self, _snapshot: &[f64]) {
        self.g = self.seq.next_graph();
        self.version += 1;
    }

    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        continuous::node_new_load(&self.g, snapshot, v)
    }

    fn compute_stats(&mut self, _: &[f64], _: &[f64], _: &StatsCtx<'_>) {}

    fn current_graph(&self) -> Option<&Graph> {
        Some(&self.g)
    }

    fn graph_version(&self) -> u64 {
        self.version
    }

    fn gather_spec(&self) -> Option<GatherSpec<'_, f64>> {
        Some(GatherSpec {
            graph: &self.g,
            factor: 4.0,
        })
    }
}

#[test]
fn periodic_graphs_run_diffusion_rounds_bit_identical_to_serial() {
    let graphs = || vec![topology::torus2d(8, 8), topology::hypercube(6)];
    let loads = spike(64);
    let rounds = 7;
    let serial = run_rounds(
        Engine::serial(PeriodicDiffusion::new(graphs())),
        &loads,
        rounds,
    );

    let mut engine = Engine::with_backend(
        PeriodicDiffusion::new(graphs()),
        process(2, Transport::Unix),
    );
    let mut got = loads.clone();
    for round in 1..=rounds {
        engine.round(&mut got);
        // Halo batches are shipped only on diffusion rounds: the check
        // made for each new graph version found the spec's graph to be
        // the plan's graph.
        let comm = engine.comm_metrics().expect("process rounds report comm");
        assert!(comm.messages > 0, "round {round} ran precomputed");
    }
    assert_eq!(
        serial, got,
        "process diverged from serial over a periodic schedule"
    );
    let shard = engine.shard_metrics().expect("plan resolved");
    assert_eq!(shard.plans_built, 2, "one plan per distinct graph");
}

/// Partitions by one graph and gathers over another: the diffusion check
/// must refuse it on every round, not only on the round it was made.
struct MismatchedSpec {
    partitioned: Graph,
    gathered: Graph,
}

impl Protocol for MismatchedSpec {
    type Load = f64;
    type Stats = ();

    fn n(&self) -> usize {
        self.partitioned.n()
    }

    fn name(&self) -> &'static str {
        "mismatched-spec"
    }

    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        continuous::node_new_load(&self.gathered, snapshot, v)
    }

    fn compute_stats(&mut self, _: &[f64], _: &[f64], _: &StatsCtx<'_>) {}

    fn current_graph(&self) -> Option<&Graph> {
        Some(&self.partitioned)
    }

    fn gather_spec(&self) -> Option<GatherSpec<'_, f64>> {
        Some(GatherSpec {
            graph: &self.gathered,
            factor: 4.0,
        })
    }
}

#[test]
fn a_gather_graph_other_than_the_plan_graph_runs_precomputed_every_round() {
    let make = || MismatchedSpec {
        partitioned: topology::torus2d(8, 8),
        gathered: topology::hypercube(6),
    };
    let loads = spike(64);
    let rounds = 4;
    // The serial engine trusts the contract and would plan its gather by
    // the partitioned graph; the reference is plain diffusion on the
    // gathered one.
    let gathered = topology::hypercube(6);
    let serial = run_rounds(
        Engine::serial(ContinuousDiffusion::new(&gathered)),
        &loads,
        rounds,
    );

    let mut engine = Engine::with_backend(make(), process(2, Transport::Unix));
    let mut got = loads.clone();
    for round in 1..=rounds {
        engine.round(&mut got);
        let comm = engine.comm_metrics().expect("process rounds report comm");
        assert_eq!(comm.messages, 0, "round {round} shipped halo batches");
        assert_eq!(
            comm.owned_values_out, 64,
            "round {round} collected no results"
        );
    }
    assert_eq!(
        serial, got,
        "precomputed rounds diverged from diffusion on the gathered graph"
    );
}

// ---------------------------------------------------------------------------
// Scenario-layer gating
// ---------------------------------------------------------------------------

#[test]
fn scenario_executor_faults_on_the_process_backend_match_the_fault_free_trace() {
    use dlb_workloads::{ExecSpec, FaultsSpec, Scenario, ScenarioRunner, StopSpec};
    // Shard churn every 10 rounds, each failure also firing one executor
    // fault on the failed shard: a SIGKILLed worker, dropped halo
    // batches, a held-back dispatch.
    let sc = Scenario::builtin("bursty-torus-process")
        .expect("builtin")
        .with_stop(StopSpec::Rounds { rounds: 30 })
        .with_faults(FaultsSpec {
            every: 10,
            down: 3,
            seed: 5,
            panic: true,
            drop: true,
            delay_ms: Some(2),
            ..FaultsSpec::default()
        });
    sc.validate().expect("faults x process validates");
    let process = ScenarioRunner::new(sc.clone()).run().expect("process run");
    assert_eq!(process.backend, "process");
    // The serial replay runs the same churned round sequence with no
    // executor faults: recovery is exact, so the traces agree bit for
    // bit.
    let serial = ScenarioRunner::new(sc)
        .with_exec(ExecSpec::Serial)
        .run()
        .expect("serial replay");
    let bits = |r: &dlb_workloads::ScenarioReport| -> Vec<u64> {
        r.phi_trace.iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(process.rounds, serial.rounds);
    assert_eq!(
        bits(&serial),
        bits(&process),
        "Φ trace diverged under faults"
    );
    assert_eq!(serial.final_total.to_bits(), process.final_total.to_bits());
    let (pf, sf) = (process.faults.unwrap(), serial.faults.unwrap());
    assert!(
        pf.faults_injected > sf.faults_injected,
        "executor faults fired on top of the churn: {pf:?} vs {sf:?}"
    );
    assert!(pf.rehomed_values > sf.rehomed_values, "{pf:?} vs {sf:?}");
}

#[test]
fn scenario_toml_round_trips_process_backend() {
    use dlb_workloads::{ExecSpec, Scenario};
    for transport in [Transport::Unix, Transport::Tcp] {
        let sc = Scenario::builtin("bursty-torus")
            .expect("builtin")
            .with_exec(ExecSpec::Process {
                partition: PartitionSpec::Bfs { shards: 6 },
                transport,
            });
        let toml = sc.to_toml();
        assert!(toml.contains("backend = \"process\""), "{toml}");
        // The default transport is omitted so legacy files stay
        // byte-stable; tcp must be spelled out.
        assert_eq!(
            toml.contains("transport = \"tcp\""),
            transport == Transport::Tcp,
            "{toml}"
        );
        let back = Scenario::from_spec(&toml).expect("reparse");
        assert_eq!(back.exec, sc.exec, "exec spec did not round-trip");
    }
}

#[test]
fn scenario_builtin_process_runs_and_reports_wire_bytes() {
    use dlb_workloads::{Scenario, ScenarioRunner};
    // Trim the run: equivalence over the full trajectory is covered by
    // the CI matrix; here we only need a live fleet and its accounting.
    let sc = Scenario::builtin("bursty-torus-process")
        .expect("builtin")
        .with_stop(dlb_workloads::StopSpec::Rounds { rounds: 8 });
    let report = ScenarioRunner::new(sc).run().expect("run");
    assert_eq!(report.backend, "process");
    let comm = report.comm.expect("process runs report comm totals");
    assert!(comm.wire_bytes_out > 0);
    assert!(comm.wire_bytes_in > 0);
    let header = report.to_jsonl();
    let header = header.lines().next().unwrap().to_string();
    assert!(header.contains("\"comm_wire_bytes_out\""), "{header}");
    assert!(header.contains("\"comm_wire_bytes_in\""), "{header}");
}
