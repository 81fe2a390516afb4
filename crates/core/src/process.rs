//! The **process backend**: shards as OS processes over the `dlb-wire/3`
//! byte protocol.
//!
//! [`Backend::Process`](crate::engine::Backend::Process) runs the message
//! backend's round shape — plan broadcast, owned seed, halo batches,
//! results, `Done` barrier — with each shard served by a
//! `dlb-shard-worker` **process** instead of a thread, connected over a
//! pluggable byte transport ([`Transport`]: Unix domain sockets or TCP
//! loopback). Planning is reused wholesale: the coordinator derives the
//! same `MessagePlan` (shard views + [`ShardView::halo_groups`] exchange
//! schedule, memoized per graph fingerprint) the message backend uses,
//! so serialization is the only new moving part.
//!
//! ## Shard-local workers
//!
//! A worker holds only its shard. Its plan frame carries the owned node
//! count and, for diffusion sessions, the shard's [`LocalCsr`]: every
//! local node's global degree (owned, then halo), the owned rows'
//! neighbours as local frame positions in global CSR slot order, and the
//! halo fill order as frame positions. Its frame is a vector of
//! `owned + halo` loads; it never sees a global node id, an edge list or
//! an `n`-length vector. Owned values and results travel in owned order
//! (ascending global id, [`ShardView::owned`]), and the coordinator
//! scatters results by that list.
//!
//! The coordinator never builds that local CSR. Its shard plan holds the
//! exchange schedule and each node's rank in its owner's owned list, and
//! [`encode_plan_frame`] streams each shard's degrees, local slots
//! ([`ShardPlan::local_row`]), recv positions and content fingerprint
//! straight from the global graph into the worker's outbox. When a plan
//! changes, every shard's plan frame goes out before any round command,
//! so the workers decode, validate and install their plans in parallel.
//!
//! Steady rounds copy each value once per direction between the load
//! vectors and the socket: the coordinator encodes `owned-values` and
//! `halo-batch` payloads straight from the round-start snapshot into one
//! reused buffer per worker, the worker decodes them straight into its
//! frame and encodes its results straight from the gather, and the
//! coordinator decodes `results` straight into the output vector.
//!
//! ## Topology: hub-and-spoke
//!
//! The coordinator holds one socket per worker and no worker↔worker
//! connections exist. During a legacy round the coordinator owns the
//! round-start snapshot anyway, so it materializes each shard's halo
//! batches itself — one [`Frame::HaloBatch`] per `recv` group, byte-for-
//! byte the values a peer shard would have posted, and attributed to the
//! *source* shard in [`CommMetrics`] so the accounting stays comparable
//! with the message backend. A peer-to-peer mesh changes who writes the
//! frame, not the frame: it is the designed next step, not a redesign.
//!
//! ## Two round modes, one bit-identity proof
//!
//! Protocols exposing a [`Protocol::gather_spec`] (continuous, discrete
//! and generalized diffusion) run **[`RoundMode::Diffusion`]**: the plan
//! frame ships the local CSR and the divisor factor once, and the worker
//! process evaluates the gather kernel itself over its owned rows,
//! deriving each divisor from the shipped degrees — genuinely
//! distributed compute, bit-identical because the local CSR keeps the
//! global slot order and degrees, and every kernel flavour is pinned
//! bit-identical to the scalar reference. All other protocols run
//! **[`RoundMode::Precomputed`]**: their kernels close over arbitrary
//! protocol state (RNG streams, matching structures, per-round graphs)
//! that cannot cross a process boundary, so the coordinator evaluates
//! `node_new_load` itself and ships each shard its new owned values; the
//! worker stores them in its frame and reads its results back out of it.
//! Either way **every load value of every round crosses the wire twice**
//! (encode → decode in, encode → decode out), so the equivalence suite's
//! serial ≡ process assertion proves bit-identity *survives
//! serialization* for all protocols — the same honesty policy as the
//! message backend's full-exchange fallback.
//!
//! A worker validates every plan before it indexes anything
//! ([`LocalCsrPlan::validate`]) and answers a corrupt one with
//! [`WireError::CorruptPlan`]. A diffusion round runs only when its owned
//! seed matches and every recv group was filled exactly once; a stale,
//! missing or duplicated halo batch makes the worker answer
//! `Done { ok: false }` instead of computing on last round's halo.
//!
//! ## Failure model
//!
//! A worker that dies (crash, kill, OOM) closes its socket: the
//! coordinator sees EOF — typed as [`WireError::Closed`] /
//! [`WireError::Truncated`] — on its next read, or `EPIPE` on its next
//! write, and every blocking socket operation carries a deadline
//! ([`wire_timeout`], default 30 s, `DLB_WIRE_TIMEOUT_MS` override). In
//! the hub topology workers only ever wait on the coordinator, never on
//! each other, so a dead worker can never deadlock the barrier: the
//! round returns a typed `EngineError` naming the shard within the
//! timeout bound. There is no supervised respawn in this backend yet —
//! a dead worker fails every subsequent round with the same typed error
//! until the engine is rebuilt, so the scenario layer rejects `faults` on
//! the process backend.
//!
//! The wire format itself is specified in `docs/WIRE.md`; the operator's
//! view (spawning, transports, timeouts, kill semantics) is in the
//! repository `README.md` and the ARCHITECTURE "Process backend"
//! section.
//!
//! [`Protocol::gather_spec`]: crate::engine::Protocol::gather_spec
//! [`ShardView::halo_groups`]: dlb_graphs::partition::ShardView::halo_groups
//! [`ShardView::owned`]: dlb_graphs::partition::ShardView::owned
//! [`LocalCsr`]: dlb_graphs::partition::LocalCsr
//! [`LocalCsrPlan::validate`]: dlb_wire::LocalCsrPlan::validate
//! [`ShardPlan::local_row`]: dlb_graphs::partition::ShardPlan::local_row

use crate::engine::{CommMetrics, MessagePlan, PlanCache};
use crate::kernels::{gather_contiguous, DiffusionLoad, GatherSpec, KernelKind, NoStats};
use dlb_graphs::partition::{graph_fingerprint, LocalCsr, PartitionSpec, ShardPlan};
use dlb_graphs::structure::GatherPlan;
use dlb_graphs::Csr;
use dlb_telemetry::{Phase as SpanPhase, Telemetry};
use dlb_wire::{
    encode_values, plan_frame_mut, read_hello, read_hello_ack, values_frame_mut, write_hello,
    write_hello_ack, CountingStream, DoneFrame, Frame, FrameBuf, FrameView, GatherKernel, LoadType,
    PlanDefect, PlanFrame, RoundCmdFrame, RoundMode, Transport, ValueKind, WireError, WireListener,
    WireStream,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A load scalar that can cross the `dlb-wire/3` protocol: every value
/// is one raw little-endian 8-byte word, converted without rounding or
/// normalization so the process backend's bit-identity guarantee is
/// literal. Implemented by both engine load types (`f64`, `i64`); the
/// engine's `Protocol::Load` bound requires it, so every protocol can
/// run on [`Backend::Process`](crate::engine::Backend::Process).
pub trait WireLoad: DiffusionLoad + Default + PartialEq + std::fmt::Debug {
    /// The tag the plan frame declares so the worker instantiates the
    /// matching kernels.
    const LOAD_TYPE: LoadType;

    /// The value's wire word (bit pattern, not a numeric conversion).
    fn to_word(self) -> u64;

    /// Reconstructs the value from its wire word.
    fn from_word(word: u64) -> Self;
}

impl WireLoad for f64 {
    const LOAD_TYPE: LoadType = LoadType::F64;

    fn to_word(self) -> u64 {
        self.to_bits()
    }

    fn from_word(word: u64) -> f64 {
        f64::from_bits(word)
    }
}

impl WireLoad for i64 {
    const LOAD_TYPE: LoadType = LoadType::I64;

    fn to_word(self) -> u64 {
        self as u64
    }

    fn from_word(word: u64) -> i64 {
        word as i64
    }
}

/// Read/write deadline for every socket operation: 30 s unless
/// `DLB_WIRE_TIMEOUT_MS` overrides it. Like `DLB_THREADS` /
/// `DLB_KERNEL`, a set-but-invalid value panics instead of being
/// silently ignored.
pub fn wire_timeout() -> Duration {
    match std::env::var("DLB_WIRE_TIMEOUT_MS") {
        Ok(value) => match value.trim().parse::<u64>() {
            Ok(ms) if ms >= 1 => Duration::from_millis(ms),
            _ => panic!(
                "DLB_WIRE_TIMEOUT_MS must be a positive integer of milliseconds, \
                 got {value:?} (unset the variable for the 30s default)"
            ),
        },
        Err(_) => Duration::from_secs(30),
    }
}

/// Locates the `dlb-shard-worker` binary: `DLB_WORKER_BIN` when set
/// (strict: a set-but-missing path panics), otherwise siblings of the
/// current executable — which covers `cargo test` binaries
/// (`target/<profile>/deps/…`), examples (`target/<profile>/examples/…`)
/// and installed layouts where coordinator and worker sit side by side.
pub fn worker_binary() -> PathBuf {
    if let Ok(path) = std::env::var("DLB_WORKER_BIN") {
        let path = PathBuf::from(path);
        assert!(
            path.is_file(),
            "DLB_WORKER_BIN is set to {path:?}, which does not exist \
             (unset the variable to search next to the current executable)"
        );
        return path;
    }
    let exe = std::env::current_exe().expect("current_exe for worker discovery");
    for dir in exe.ancestors().skip(1).take(3) {
        let candidate = dir.join("dlb-shard-worker");
        if candidate.is_file() {
            return candidate;
        }
    }
    panic!(
        "dlb-shard-worker binary not found next to {exe:?}; \
         build it with `cargo build -p dlb-worker` (cargo test/bench builds \
         it automatically at the workspace root) or point DLB_WORKER_BIN at it"
    );
}

/// One spawned shard worker: its OS process and its framed connection.
struct Worker {
    child: Child,
    conn: CountingStream,
    /// Cleared on the first wire failure; later rounds fail fast on the
    /// same shard instead of timing out against a corpse.
    alive: bool,
    /// The round's outbound frames, encoded into one reused buffer and
    /// written with one call.
    outbox: Vec<u8>,
}

/// The process backend's coordinator: spawns one `dlb-shard-worker` per
/// shard at construction, keeps the framed connections for the engine's
/// lifetime, and drives the legacy round protocol over them. Mirrors
/// `MessageExec` with serialization in place of channels.
pub(crate) struct ProcessExec<L: WireLoad> {
    pub(crate) spec: PartitionSpec,
    pub(crate) transport: Transport,
    pub(crate) plans: PlanCache<Arc<MessagePlan>>,
    /// Fingerprint of the plan last broadcast; rounds re-ship plan
    /// frames only when it changes (dynamic graphs).
    broadcast_key: Option<u64>,
    /// The diffusion check's last answer, for the `(graph_version, plan
    /// key)` it was made under: whether the gather spec's graph is the
    /// plan's graph.
    diffusion_check: Option<((u64, u64), bool)>,
    workers: Vec<Worker>,
    pub(crate) last_comm: Option<CommMetrics>,
    round_seq: u64,
    /// Reused read buffer for the workers' replies.
    inbox: FrameBuf,
    /// Precomputed rounds' coordinator-evaluated owned values, reused.
    precomputed: Vec<L>,
}

impl<L: WireLoad> std::fmt::Debug for ProcessExec<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessExec")
            .field("spec", &self.spec)
            .field("transport", &self.transport)
            .field("shards", &self.workers.len())
            .field("plans_built", &self.plans.built)
            .finish()
    }
}

impl<L: WireLoad> ProcessExec<L> {
    /// Spawns the worker fleet and completes the handshakes. Panics on
    /// spawn/handshake failure (missing binary, dead child, version
    /// mismatch) — construction is the fail-fast moment, exactly like
    /// the thread backends' pool spawns.
    pub(crate) fn new(spec: PartitionSpec, transport: Transport) -> ProcessExec<L> {
        let shards = spec.shards();
        let timeout = wire_timeout();
        let listener = WireListener::bind(transport)
            .unwrap_or_else(|e| panic!("bind {} listener: {e}", transport.name()));
        let endpoint = listener.endpoint();
        let bin = worker_binary();
        let mut children: Vec<Option<Child>> = (0..shards)
            .map(|s| {
                let child = Command::new(&bin)
                    .arg("--shard")
                    .arg(s.to_string())
                    .arg("--connect")
                    .arg(&endpoint)
                    .spawn()
                    .unwrap_or_else(|e| panic!("spawn {bin:?} for shard {s}: {e}"));
                Some(child)
            })
            .collect();

        // Accept + handshake every worker, slotted by the shard id its
        // Hello announces (connection order is scheduler-dependent). The
        // deadline turns a worker that never dials in into a panic with
        // the child's exit status, not a hang.
        let deadline = Instant::now() + timeout;
        let mut conns: Vec<Option<CountingStream>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            let stream = accept_with_deadline(&listener, deadline, &mut children);
            let mut conn = CountingStream::new(stream);
            conn.stream()
                .set_read_timeout(Some(timeout))
                .expect("set accept read timeout");
            let hello = read_hello(&mut conn)
                .unwrap_or_else(|e| panic!("worker handshake on {endpoint}: {e}"));
            write_hello_ack(&mut conn).expect("write handshake ack");
            let s = hello.shard as usize;
            assert!(
                s < shards && conns[s].is_none(),
                "worker announced unexpected shard {s} (of {shards})"
            );
            conn.stream()
                .set_write_timeout(Some(timeout))
                .expect("set worker write timeout");
            conns[s] = Some(conn);
        }
        let workers = conns
            .into_iter()
            .zip(&mut children)
            .map(|(conn, child)| Worker {
                child: child.take().expect("child handle"),
                conn: conn.expect("every shard handshaken"),
                alive: true,
                outbox: Vec::new(),
            })
            .collect();
        ProcessExec {
            spec,
            transport,
            plans: PlanCache::new(),
            broadcast_key: None,
            diffusion_check: None,
            workers,
            last_comm: None,
            round_seq: 0,
            inbox: FrameBuf::new(),
            precomputed: Vec::new(),
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.workers.len()
    }

    /// OS process ids of the shard workers, in shard order — the
    /// operator's handle for inspection (`ps`, `/proc/<pid>`) and chaos
    /// drills.
    pub(crate) fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().map(|w| w.child.id()).collect()
    }

    /// Kills the given shard's worker process (SIGKILL) and reaps it.
    /// The next round on that shard fails with a typed error — the
    /// chaos-testing entry point behind
    /// [`Engine::process_kill_worker`](crate::engine::Engine::process_kill_worker).
    pub(crate) fn kill_worker(&mut self, shard: usize) {
        let w = &mut self.workers[shard];
        let _ = w.child.kill();
        let _ = w.child.wait();
        w.alive = false;
    }

    /// One legacy round over the wire. `gather_spec` selects diffusion
    /// mode (workers evaluate the shipped kernel, in flavour `kind`) when
    /// present and consistent with the current plan's graph, a check made
    /// once per `graph_version`; `precompute` is the coordinator-side
    /// kernel every other protocol's rounds are evaluated with. Returns
    /// the first failed shard.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round(
        &mut self,
        snapshot: &[L],
        out: &mut [L],
        gather_spec: Option<GatherSpec<'_, L>>,
        graph_version: u64,
        kind: KernelKind,
        precompute: &mut dyn FnMut(&[u32], &mut Vec<L>),
        tel: &Telemetry,
        round_no: u64,
    ) -> Result<(), usize> {
        let plan = self.plans.current().clone();
        let key = self.plans.current_key();
        assert_eq!(
            out.len(),
            plan.views().iter().map(|v| v.owned().len()).sum::<usize>(),
            "process plan node count must equal the load vector length"
        );
        self.round_seq += 1;
        let seq = self.round_seq;
        let shards = self.shards();
        let mut comm = CommMetrics {
            shards,
            ..CommMetrics::default()
        };
        // Diffusion mode requires the spec's graph to be the plan's
        // graph (same fingerprint): the worker gathers over the graph the
        // plan ships. A mismatch (a protocol gathering over a different
        // graph than it partitions by) falls back to precomputed rounds
        // rather than shipping an inconsistent plan. The fingerprint is a
        // pass over every edge, so its answer is kept for as long as the
        // protocol's `graph_version` and the plan stay put.
        let diffusion = match gather_spec {
            Some(spec) if !plan.full_exchange => match self.diffusion_check {
                Some((at, same)) if at == (graph_version, key) => same,
                _ => {
                    let same = graph_fingerprint(spec.graph) == key;
                    self.diffusion_check = Some(((graph_version, key), same));
                    same
                }
            },
            _ => false,
        };
        let mode = if diffusion {
            RoundMode::Diffusion
        } else {
            RoundMode::Precomputed
        };
        for w in &mut self.workers {
            w.conn.reset_counts();
        }

        // A changed plan goes out to every shard before any round data,
        // so each worker decodes, validates and installs its plan while
        // the coordinator is still writing the others'. Serialize spans
        // land on the shard's own telemetry lane: this encode/write is
        // that worker's inbound traffic.
        if self.broadcast_key != Some(key) {
            let kernel = gather_spec.filter(|_| diffusion);
            for s in 0..shards {
                let t0 = tel.start();
                let Worker {
                    conn,
                    alive,
                    outbox,
                    ..
                } = &mut self.workers[s];
                outbox.clear();
                encode_plan_frame(outbox, plan.shard_plan(), s, seq, kernel);
                if !(*alive && send(conn, alive, outbox)) {
                    self.fail_comm(comm);
                    return Err(s);
                }
                tel.record(s as u32, round_no, SpanPhase::Serialize, t0);
            }
            self.broadcast_key = Some(key);
        }

        // Dispatch: round command, owned seed, and — in diffusion mode —
        // the halo batches, per shard.
        let mut per_src_sent = vec![0usize; shards];
        for s in 0..shards {
            let t0 = tel.start();
            let view = &plan.views()[s];
            let recv = if diffusion { &plan.recv[s][..] } else { &[] };
            let Worker {
                conn,
                alive,
                outbox,
                ..
            } = &mut self.workers[s];
            let mut sent = *alive;
            if sent && !diffusion {
                // In precomputed mode the protocol kernel runs *here*, on
                // the coordinator; a panicking kernel becomes this
                // shard's typed error — parity with the other backends'
                // supervised gathers.
                let values = &mut self.precomputed;
                values.clear();
                sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    precompute(view.owned(), values)
                }))
                .is_ok();
            }
            if sent {
                outbox.clear();
                Frame::RoundCmd(RoundCmdFrame {
                    seq,
                    round: round_no,
                    mode,
                    halo_batches: recv.len() as u32,
                    kernel: match kind {
                        KernelKind::Scalar => GatherKernel::Scalar,
                        KernelKind::Unrolled => GatherKernel::Unrolled,
                    },
                })
                .encode_into(outbox);
                // Owned seed: round-start values in diffusion mode, the
                // coordinator-evaluated *new* values in precomputed mode —
                // both in the view's owned order.
                if diffusion {
                    let words = view.owned().iter().map(|&v| snapshot[v as usize].to_word());
                    encode_values(outbox, ValueKind::Owned, seq, words);
                } else {
                    let words = self.precomputed.iter().map(|v| v.to_word());
                    encode_values(outbox, ValueKind::Owned, seq, words);
                }
                for (src, ids) in recv {
                    let words = ids.iter().map(|&v| snapshot[v as usize].to_word());
                    encode_values(outbox, ValueKind::Halo { src: *src as u32 }, seq, words);
                }
                sent = send(conn, alive, outbox);
            }
            if !sent {
                self.fail_comm(comm);
                return Err(s);
            }
            comm.owned_values_in += view.owned().len();
            for (src, ids) in recv {
                comm.messages += 1;
                comm.values_sent += ids.len();
                per_src_sent[*src] += ids.len();
            }
            tel.record(s as u32, round_no, SpanPhase::Serialize, t0);
        }
        comm.max_shard_values_sent = per_src_sent.iter().copied().max().unwrap_or(0);

        // Collect: every worker answers Results + Done (or a lone
        // not-ok Done), and its results are decoded straight into `out`
        // by the view's owned list. Workers only ever wait on the
        // coordinator — all inbound frames for the round are already
        // written — so a dead worker is an EOF/timeout *here*, never a
        // stalled peer elsewhere: the barrier cannot deadlock.
        let mut failed: Option<usize> = None;
        'collect: for (s, view) in plan.views().iter().enumerate() {
            let t0 = tel.start();
            let owned = view.owned();
            let worker = &mut self.workers[s];
            let mut reported = false;
            loop {
                match self.inbox.read(&mut worker.conn) {
                    Ok(FrameView::Values(v))
                        if v.kind == ValueKind::Results
                            && v.seq == seq
                            && v.len() == owned.len() =>
                    {
                        for (&node, word) in owned.iter().zip(v.words()) {
                            out[node as usize] = L::from_word(word);
                        }
                        reported = true;
                    }
                    Ok(FrameView::Other(Frame::Done(DoneFrame { seq: got, ok }))) if got == seq => {
                        if !ok || !reported {
                            failed = Some(s);
                            break 'collect;
                        }
                        comm.owned_values_out += owned.len();
                        break;
                    }
                    // Stale frames from a previous failed attempt are
                    // drained, mirroring the message backend's seq dedup.
                    Ok(FrameView::Values(v)) if v.kind == ValueKind::Results && v.seq != seq => {
                        continue
                    }
                    Ok(FrameView::Other(Frame::Done(_))) => continue,
                    Ok(_) | Err(_) => {
                        worker.alive = false;
                        failed = Some(s);
                        break 'collect;
                    }
                }
            }
            tel.record(s as u32, round_no, SpanPhase::Deserialize, t0);
        }
        comm.halo_bytes = comm.values_sent * std::mem::size_of::<L>();
        self.fail_comm(comm);
        match failed {
            Some(shard) => Err(shard),
            None => Ok(()),
        }
    }

    /// Folds the wire byte counters into `comm` and publishes it as the
    /// round's metrics (also on failed rounds, so the bytes spent on a
    /// doomed round stay visible).
    fn fail_comm(&mut self, mut comm: CommMetrics) {
        for w in &self.workers {
            comm.wire_bytes_out += w.conn.bytes_out() as usize;
            comm.wire_bytes_in += w.conn.bytes_in() as usize;
        }
        self.last_comm = Some(comm);
    }
}

impl<L: WireLoad> Drop for ProcessExec<L> {
    fn drop(&mut self) {
        // Orderly shutdown: Exit frame, then EOF; escalate to SIGKILL if
        // a worker lingers so drop never hangs, and reap every child.
        for w in &mut self.workers {
            let _ = w.conn.write_all(&Frame::Exit.encode());
            let _ = w.conn.stream().shutdown_write();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for w in &mut self.workers {
            loop {
                match w.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Writes `bytes` to a worker's connection, marking the worker dead on
/// failure.
fn send(conn: &mut CountingStream, alive: &mut bool, bytes: &[u8]) -> bool {
    *alive &= conn.write_all(bytes).and_then(|()| conn.flush()).is_ok();
    *alive
}

/// Accepts one connection before `deadline`, polling the children so a
/// worker that died on startup (bad argv, missing libs) panics with its
/// exit status instead of timing the handshake out.
fn accept_with_deadline(
    listener: &WireListener,
    deadline: Instant,
    children: &mut [Option<Child>],
) -> WireStream {
    match listener {
        WireListener::Unix(l, _) => l.set_nonblocking(true).expect("listener nonblocking"),
        WireListener::Tcp(l) => l.set_nonblocking(true).expect("listener nonblocking"),
    }
    loop {
        match listener.accept() {
            Ok(stream) => {
                stream
                    .set_nonblocking(false)
                    .expect("restore blocking mode on accepted stream");
                return stream;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (s, child) in children.iter_mut().enumerate() {
                    if let Some(c) = child.as_mut() {
                        if let Ok(Some(status)) = c.try_wait() {
                            panic!("dlb-shard-worker for shard {s} exited at startup: {status}");
                        }
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "worker handshake timed out on {} (DLB_WIRE_TIMEOUT_MS bounds the wait)",
                    listener.endpoint()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("accept worker connection: {e}"),
        }
    }
}

/// Appends shard `s`'s plan frame to `buf`: its owned count, plus — when
/// the round runs diffusion mode (`kernel` present) — its local CSR over
/// the kernel's graph, its recv groups as local frame positions and the
/// divisor factor. The arrays are streamed from the global graph through
/// [`ShardPlan::local_row`] and never materialized; the bytes are exactly
/// `Frame::Plan(..).encode()` of the [`dlb_wire::LocalCsrPlan`] built from
/// [`ShardPlan::local_csr`] and [`ShardView::halo_groups`].
///
/// `kernel.graph` must be the graph `plan` was built from.
///
/// [`ShardView::halo_groups`]: dlb_graphs::partition::ShardView::halo_groups
pub fn encode_plan_frame<L: WireLoad>(
    buf: &mut Vec<u8>,
    plan: &ShardPlan,
    s: usize,
    seq: u64,
    kernel: Option<GatherSpec<'_, L>>,
) {
    let view = &plan.views()[s];
    let owned = view.owned().len();
    let Some(spec) = kernel else {
        let frame = Frame::Plan(PlanFrame {
            seq,
            shard: s as u32,
            load_type: L::LOAD_TYPE,
            owned: owned as u32,
            kernel: None,
        });
        return frame.encode_into(buf);
    };
    let g = spec.graph;
    let slots: usize = view.owned().iter().map(|&v| g.degree(v) as usize).sum();
    let groups = view.halo_groups();
    // Every array word plus the headers, group sources and list counts.
    buf.reserve(4 * (view.local_len() + slots + view.halo().len() + 2 * groups.len()) + 64);
    let mut w = plan_frame_mut(buf, seq, s as u32, L::LOAD_TYPE, owned as u32);
    w.list(view.local_len(), plan.local_degrees(g, s));
    w.list(slots, (0..owned).flat_map(|row| plan.local_row(g, s, row)));
    w.u32(groups.len() as u32);
    for (src, ids) in &groups {
        w.u32(*src as u32);
        let positions = ids
            .iter()
            .map(|&h| plan.local_id(s, h).expect("recv ids are halo nodes"));
        w.list(ids.len(), positions);
    }
    w.finish(spec.factor.to_word());
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker half of the protocol, called by the `dlb-shard-worker`
/// binary after it connects: performs the handshake, installs plans, and
/// serves rounds until `Exit` or EOF. Kept in the library (rather than
/// the binary crate) so the protocol logic next to the coordinator it
/// must mirror, and so tests can drive a worker over an in-process
/// socket pair.
///
/// Returns `Err` on a protocol violation, a corrupt plan
/// ([`WireError::CorruptPlan`]) or a transport failure; the binary maps
/// that to a nonzero exit. A kernel panic inside a round is caught and
/// reported as `Done { ok: false }` instead — the coordinator turns it
/// into a typed `EngineError` while the worker stays up.
pub fn run_worker(mut conn: WireStream, shard: u32) -> Result<(), WireError> {
    write_hello(&mut conn, shard)?;
    read_hello_ack(&mut conn)?;
    // The first plan frame declares the session's load type; everything
    // after is monomorphized on it. A coordinator that hangs up before
    // sending any frame (engine dropped without running a round) is an
    // orderly shutdown, same as EOF between rounds.
    let mut inbox = FrameBuf::new();
    let plan = match inbox.read(&mut conn) {
        Ok(FrameView::Other(Frame::Exit)) | Err(WireError::Closed) => return Ok(()),
        Ok(FrameView::Other(Frame::Plan(plan))) => plan,
        Ok(other) => return Err(protocol_violation(shard, "plan", &other)),
        Err(e) => return Err(e),
    };
    match plan.load_type {
        LoadType::F64 => worker_loop::<f64>(conn, shard, plan, inbox),
        LoadType::I64 => worker_loop::<i64>(conn, shard, plan, inbox),
    }
}

fn protocol_violation(shard: u32, expected: &str, got: &FrameView<'_>) -> WireError {
    eprintln!(
        "dlb-shard-worker[{shard}]: protocol violation: expected {expected}, got {}",
        got.kind_name()
    );
    WireError::UnknownFrame { kind: got.kind() }
}

/// A diffusion session's kernel: the shard's local CSR, its gather plan,
/// the typed divisor factor and the halo fill order.
struct ShardKernel<L> {
    csr: LocalCsr,
    plan: GatherPlan,
    factor: L,
    /// `(src shard, frame positions)` per recv group.
    recv_groups: Vec<(u32, Vec<u32>)>,
}

/// A worker's installed plan and its frame.
struct ShardState<L> {
    seq: u64,
    owned: usize,
    kernel: Option<ShardKernel<L>>,
    /// Owned values at positions `0..owned`, then (diffusion sessions)
    /// the halo: all a shard ever holds.
    frame: Vec<L>,
}

impl<L: WireLoad> ShardState<L> {
    /// Validates `plan` and builds the state it describes; a plan that
    /// would index outside the frame is refused before anything is
    /// allocated from it.
    fn install(shard: u32, plan: PlanFrame) -> Result<ShardState<L>, WireError> {
        plan.validate(shard).map_err(WireError::CorruptPlan)?;
        let owned = plan.owned as usize;
        let kernel = match plan.kernel {
            None => None,
            Some(k) => {
                let csr = LocalCsr::from_parts(owned, k.degrees, k.slots);
                Some(ShardKernel {
                    plan: GatherPlan::build(&csr),
                    csr,
                    factor: L::from_word(k.factor),
                    recv_groups: k.recv_groups,
                })
            }
        };
        let len = kernel.as_ref().map_or(owned, |k| k.csr.len());
        Ok(ShardState {
            seq: plan.seq,
            owned,
            kernel,
            frame: vec![L::default(); len],
        })
    }

    /// Reads the round's owned seed and its `cmd.halo_batches` halo
    /// batches straight into the frame. Every inbound frame of the round
    /// is drained, so a rejected round leaves the stream at a frame
    /// boundary. Returns whether the round may run: the seed matches the
    /// round and the plan, and in diffusion mode every recv group was
    /// filled exactly once — a stale, missing, duplicated or mis-sized
    /// batch would leave last round's halo in the frame.
    fn receive(
        &mut self,
        conn: &mut impl Read,
        inbox: &mut FrameBuf,
        shard: u32,
        cmd: &RoundCmdFrame,
    ) -> Result<bool, WireError> {
        let diffusion = cmd.mode == RoundMode::Diffusion;
        // The stream is ordered, so the installed plan is always the one
        // this command was built against (the coordinator writes every
        // shard's Plan before the first RoundCmd that uses it);
        // `self.seq` records when it arrived, not a per-round token.
        let mut ok = cmd.seq >= self.seq && (!diffusion || self.kernel.is_some());
        match inbox.read(conn)? {
            FrameView::Values(v) if v.kind == ValueKind::Owned => {
                if v.seq == cmd.seq && v.len() == self.owned {
                    for (slot, word) in self.frame[..self.owned].iter_mut().zip(v.words()) {
                        *slot = L::from_word(word);
                    }
                } else {
                    ok = false;
                }
            }
            other => return Err(protocol_violation(shard, "owned-values", &other)),
        }
        let groups = self.kernel.as_ref().map_or(&[][..], |k| &k.recv_groups[..]);
        let mut filled = vec![false; groups.len()];
        for _ in 0..cmd.halo_batches {
            let v = match inbox.read(conn)? {
                FrameView::Values(v) if matches!(v.kind, ValueKind::Halo { .. }) => v,
                other => return Err(protocol_violation(shard, "halo-batch", &other)),
            };
            let group = groups
                .iter()
                .position(|(src, _)| v.kind == ValueKind::Halo { src: *src });
            match group {
                Some(g) if v.seq == cmd.seq && !filled[g] && v.len() == groups[g].1.len() => {
                    for (&position, word) in groups[g].1.iter().zip(v.words()) {
                        self.frame[position as usize] = L::from_word(word);
                    }
                    filled[g] = true;
                }
                _ => ok = false,
            }
        }
        Ok(ok && (!diffusion || filled.iter().all(|&f| f)))
    }

    /// The round body: gathers the owned rows (diffusion) or reads the
    /// owned values back (precomputed), encoding each result straight
    /// into a `results` frame appended to `reply`.
    fn compute_into(&self, cmd: &RoundCmdFrame, reply: &mut Vec<u8>) {
        let owned = self.owned;
        let mut words = values_frame_mut(reply, ValueKind::Results, cmd.seq, owned);
        match (cmd.mode, &self.kernel) {
            (RoundMode::Diffusion, Some(k)) => {
                let spec = GatherSpec {
                    graph: &k.csr,
                    factor: k.factor,
                };
                let mut emit = |row: u32, value: L| words.set(row as usize, value.to_word());
                let rows = k.csr.rows() as u32;
                let kind = match cmd.kernel {
                    GatherKernel::Scalar => KernelKind::Scalar,
                    GatherKernel::Unrolled => KernelKind::Unrolled,
                };
                gather_contiguous(
                    kind,
                    &k.plan,
                    &spec,
                    &self.frame,
                    0,
                    rows,
                    &mut emit,
                    &mut NoStats,
                );
            }
            _ => {
                for (i, value) in self.frame[..owned].iter().enumerate() {
                    words.set(i, value.to_word());
                }
            }
        }
    }
}

fn worker_loop<L: WireLoad>(
    mut conn: WireStream,
    shard: u32,
    first_plan: PlanFrame,
    mut inbox: FrameBuf,
) -> Result<(), WireError> {
    let mut state = ShardState::<L>::install(shard, first_plan)?;
    let mut reply = Vec::new();
    loop {
        let cmd = match inbox.read(&mut conn) {
            Ok(FrameView::Other(Frame::RoundCmd(cmd))) => cmd,
            Ok(FrameView::Other(Frame::Plan(plan))) => {
                if plan.load_type != L::LOAD_TYPE {
                    return Err(WireError::CorruptPlan(PlanDefect::LoadTypeChanged));
                }
                state = ShardState::install(shard, plan)?;
                continue;
            }
            Ok(FrameView::Other(Frame::Exit)) | Err(WireError::Closed) => return Ok(()),
            Ok(other) => return Err(protocol_violation(shard, "round-cmd", &other)),
            Err(e) => return Err(e),
        };
        let ok = state.receive(&mut conn, &mut inbox, shard, &cmd)?;
        // A panic in the round body — kernel bug, poisoned values — is
        // caught and reported, keeping the worker serving.
        reply.clear();
        let computed = ok
            && std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.compute_into(&cmd, &mut reply)
            }))
            .is_ok();
        if !computed {
            reply.clear();
        }
        Frame::Done(DoneFrame {
            seq: cmd.seq,
            ok: computed,
        })
        .encode_into(&mut reply);
        conn.write_all(&reply).map_err(WireError::Io)?;
    }
}
