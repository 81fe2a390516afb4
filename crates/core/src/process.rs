//! The **process backend**: shards as OS processes over the `dlb-wire/3`
//! byte protocol — the socket `ShardLink` of the shard runtime.
//!
//! [`Backend::Process`](crate::engine::Backend::Process) runs the shard
//! runtime's round (see [`crate::shard`]) with each shard served by a
//! `dlb-shard-worker` **process**, connected over a pluggable byte
//! transport ([`Transport`]: Unix domain sockets or TCP loopback). The
//! coordinator, the plans, the diffusion check and the recovery rule are
//! the ones the in-memory link of [`Backend::Message`] uses; this module
//! adds the framing, the worker binary's loop and the fleet's process
//! management.
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
//! connections exist. The coordinator owns the round-start snapshot, so
//! it materializes each shard's halo batches itself — one
//! [`Frame::HaloBatch`] per `recv` group, byte-for-byte the values a peer
//! shard would have posted, and attributed to the *source* shard in
//! [`CommMetrics`].
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
//! serialization* for all protocols.
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
//! each other, so a dead worker can never deadlock the barrier.
//!
//! What happens next is the shard runtime's one recovery rule. Without a
//! fault plan the round returns a typed `EngineError` naming the shard
//! (phase `Wire`) within the timeout bound, and the dead worker fails
//! every later round the same way. With a [`FaultPlan`] armed the
//! coordinator re-homes the shard from its round-start snapshot, spawns
//! a new `dlb-shard-worker` that dials the listener the link keeps open,
//! handshakes it and sends it its plan; an injected
//! [`FaultKind::Panic`] is a real SIGKILL of the worker process.
//!
//! The wire format itself is specified in `docs/WIRE.md`; the operator's
//! view (spawning, transports, timeouts, kill semantics) is in the
//! repository `README.md` and the ARCHITECTURE "Shard runtime" section.
//!
//! [`Backend::Message`]: crate::engine::Backend::Message
//! [`Protocol::gather_spec`]: crate::engine::Protocol::gather_spec
//! [`FaultPlan`]: crate::faults::FaultPlan
//! [`FaultKind::Panic`]: crate::faults::FaultKind::Panic
//! [`ShardView::owned`]: dlb_graphs::partition::ShardView::owned
//! [`LocalCsr`]: dlb_graphs::partition::LocalCsr
//! [`LocalCsrPlan::validate`]: dlb_wire::LocalCsrPlan::validate
//! [`RoundMode::Diffusion`]: dlb_wire::RoundMode::Diffusion
//! [`RoundMode::Precomputed`]: dlb_wire::RoundMode::Precomputed
//! [`ShardPlan::local_row`]: dlb_graphs::partition::ShardPlan::local_row

use crate::engine::{CommMetrics, EnginePhase};
use crate::kernels::{DiffusionLoad, GatherSpec, KernelKind};
use crate::shard::{Dispatch, Reply, RoundFill, ShardLink, ShardState};
use dlb_graphs::partition::ShardPlan;
use dlb_telemetry::{Phase as SpanPhase, Telemetry};
use dlb_wire::{
    encode_values, plan_frame_mut, read_hello, read_hello_ack, values_frame_mut, write_hello,
    write_hello_ack, CountingStream, DoneFrame, Frame, FrameBuf, FrameView, GatherKernel, LoadType,
    PlanDefect, PlanFrame, RoundCmdFrame, Transport, ValueKind, WireError, WireListener,
    WireStream,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command};
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

/// The process backend's [`ShardLink`]: one `dlb-shard-worker` process
/// per shard, spawned at construction and connected over `transport`.
/// The listener stays open for the link's lifetime, so a dead worker can
/// be respawned and handshaken again.
pub(crate) struct WireLink {
    pub(crate) transport: Transport,
    listener: WireListener,
    bin: PathBuf,
    timeout: Duration,
    workers: Vec<Worker>,
    /// Reused read buffer for the workers' replies.
    inbox: FrameBuf,
}

impl std::fmt::Debug for WireLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireLink")
            .field("transport", &self.transport)
            .field("shards", &self.workers.len())
            .finish()
    }
}

impl WireLink {
    /// Spawns the worker fleet and completes the handshakes. Panics on
    /// spawn/handshake failure (missing binary, dead child, version
    /// mismatch) — construction is the fail-fast moment, exactly like
    /// the thread backends' spawns.
    pub(crate) fn spawn(shards: usize, transport: Transport) -> WireLink {
        let timeout = wire_timeout();
        let listener = WireListener::bind(transport)
            .unwrap_or_else(|e| panic!("bind {} listener: {e}", transport.name()));
        let bin = worker_binary();
        let mut children: Vec<Option<Child>> = (0..shards)
            .map(|s| Some(spawn_worker(&bin, &listener, s)))
            .collect();
        // Accept + handshake every worker, slotted by the shard id its
        // Hello announces (connection order is scheduler-dependent).
        let deadline = Instant::now() + timeout;
        let mut conns: Vec<Option<CountingStream>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            let (s, conn) = handshake(&listener, deadline, timeout, &mut children);
            assert!(
                s < shards && conns[s].is_none(),
                "worker announced unexpected shard {s} (of {shards})"
            );
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
        WireLink {
            transport,
            listener,
            bin,
            timeout,
            workers,
            inbox: FrameBuf::new(),
        }
    }

    /// OS process ids of the shard workers, in shard order — the
    /// operator's handle for inspection (`ps`, `/proc/<pid>`) and chaos
    /// drills.
    pub(crate) fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().map(|w| w.child.id()).collect()
    }
}

impl<L: WireLoad> ShardLink<L> for WireLink {
    const PHASE: EnginePhase = EnginePhase::Wire;

    fn shards(&self) -> usize {
        self.workers.len()
    }

    fn send_plan(
        &mut self,
        s: usize,
        plan: &ShardPlan,
        seq: u64,
        kernel: Option<GatherSpec<'_, L>>,
        tel: &Telemetry,
        round: u64,
    ) -> bool {
        // Serialize spans land on the shard's own telemetry lane: this
        // encode/write is that worker's inbound traffic.
        let t0 = tel.start();
        let Worker {
            conn,
            alive,
            outbox,
            ..
        } = &mut self.workers[s];
        if !*alive {
            return false;
        }
        outbox.clear();
        encode_plan_frame(outbox, plan, s, seq, kernel);
        let sent = send(conn, alive, outbox);
        tel.record(s as u32, round, SpanPhase::Serialize, t0);
        sent
    }

    fn send_round(&mut self, s: usize, d: &Dispatch<'_, L>, comm: &mut CommMetrics) -> bool {
        let t0 = d.tel.start();
        let Worker {
            conn,
            alive,
            outbox,
            ..
        } = &mut self.workers[s];
        if !*alive {
            return false;
        }
        outbox.clear();
        Frame::RoundCmd(RoundCmdFrame {
            seq: d.seq,
            round: d.round,
            mode: d.mode(),
            halo_batches: d.batches.len() as u32,
            kernel: match d.kind {
                KernelKind::Scalar => GatherKernel::Scalar,
                KernelKind::Unrolled => GatherKernel::Unrolled,
            },
        })
        .encode_into(outbox);
        // Owned seed: round-start values in diffusion mode, the
        // coordinator-evaluated *new* values in precomputed mode — both
        // in the view's owned order.
        match d.precomputed {
            Some(values) => {
                let words = values.iter().map(|v| v.to_word());
                encode_values(outbox, ValueKind::Owned, d.seq, words);
            }
            None => {
                let words = d.owned.iter().map(|&v| d.snapshot[v as usize].to_word());
                encode_values(outbox, ValueKind::Owned, d.seq, words);
            }
        }
        for &i in d.batches {
            let (src, ids) = &d.groups[i];
            let words = ids.iter().map(|&v| d.snapshot[v as usize].to_word());
            encode_values(outbox, ValueKind::Halo { src: *src as u32 }, d.seq, words);
        }
        comm.owned_values_in += d.owned.len();
        let sent = send(conn, alive, outbox);
        d.tel.record(s as u32, d.round, SpanPhase::Serialize, t0);
        sent
    }

    fn recv_round(
        &mut self,
        s: usize,
        seq: u64,
        owned: &[u32],
        out: &mut [L],
        comm: &mut CommMetrics,
        tel: &Telemetry,
        round: u64,
    ) -> Reply {
        // The worker answers Results + Done, or a lone not-ok Done; its
        // results are decoded straight into `out` by the owned list.
        let t0 = tel.start();
        let worker = &mut self.workers[s];
        let mut reported = false;
        let reply = loop {
            match self.inbox.read(&mut worker.conn) {
                Ok(FrameView::Values(v))
                    if v.kind == ValueKind::Results && v.seq == seq && v.len() == owned.len() =>
                {
                    for (&node, word) in owned.iter().zip(v.words()) {
                        out[node as usize] = L::from_word(word);
                    }
                    reported = true;
                }
                Ok(FrameView::Other(Frame::Done(DoneFrame { seq: got, ok }))) if got == seq => {
                    if !ok || !reported {
                        break Reply::Refused;
                    }
                    comm.owned_values_out += owned.len();
                    break Reply::Done;
                }
                Ok(_) | Err(_) => {
                    worker.alive = false;
                    break Reply::Lost;
                }
            }
        };
        tel.record(s as u32, round, SpanPhase::Deserialize, t0);
        reply
    }

    /// Kills the given shard's worker process (SIGKILL) and reaps it.
    fn kill(&mut self, s: usize) {
        let w = &mut self.workers[s];
        let _ = w.child.kill();
        let _ = w.child.wait();
        w.alive = false;
    }

    /// Kills what is left of shard `s`'s worker, spawns a new
    /// `dlb-shard-worker` and handshakes it on the kept listener.
    /// Panics if the new worker fails its handshake.
    fn respawn(&mut self, s: usize) {
        ShardLink::<L>::kill(self, s);
        let mut child = [Some(spawn_worker(&self.bin, &self.listener, s))];
        let deadline = Instant::now() + self.timeout;
        let (got, conn) = handshake(&self.listener, deadline, self.timeout, &mut child);
        assert_eq!(got, s, "respawned worker announced the wrong shard");
        self.workers[s] = Worker {
            child: child[0].take().expect("child handle"),
            conn,
            alive: true,
            outbox: std::mem::take(&mut self.workers[s].outbox),
        };
    }

    /// Folds the wire byte counters into `comm` (also on failed rounds,
    /// so the bytes spent on a doomed round stay visible) and resets
    /// them.
    fn count_bytes(&mut self, comm: &mut CommMetrics) {
        for w in &mut self.workers {
            comm.wire_bytes_out += w.conn.bytes_out() as usize;
            comm.wire_bytes_in += w.conn.bytes_in() as usize;
            w.conn.reset_counts();
        }
    }
}

impl Drop for WireLink {
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

/// Starts the worker process for shard `s`, dialing `listener`.
fn spawn_worker(bin: &PathBuf, listener: &WireListener, s: usize) -> Child {
    Command::new(bin)
        .arg("--shard")
        .arg(s.to_string())
        .arg("--connect")
        .arg(listener.endpoint())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin:?} for shard {s}: {e}"))
}

/// Accepts one worker and completes its handshake, returning the shard
/// its Hello announces and its connection, with read/write deadlines
/// set. The deadline turns a worker that never dials in into a panic
/// with the child's exit status, not a hang.
fn handshake(
    listener: &WireListener,
    deadline: Instant,
    timeout: Duration,
    children: &mut [Option<Child>],
) -> (usize, CountingStream) {
    let stream = accept_with_deadline(listener, deadline, children);
    let mut conn = CountingStream::new(stream);
    conn.stream()
        .set_read_timeout(Some(timeout))
        .expect("set accept read timeout");
    let hello = read_hello(&mut conn)
        .unwrap_or_else(|e| panic!("worker handshake on {}: {e}", listener.endpoint()));
    write_hello_ack(&mut conn).expect("write handshake ack");
    conn.stream()
        .set_write_timeout(Some(timeout))
        .expect("set worker write timeout");
    conn.reset_counts();
    (hello.shard as usize, conn)
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
/// into a typed `EngineError` (or a re-home) while the worker stays up.
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

/// Reads the round's owned seed and its `cmd.halo_batches` halo batches
/// straight into the frame. Every inbound frame of the round is drained,
/// so a refused round leaves the stream at a frame boundary.
fn receive<L: WireLoad>(
    state: &mut ShardState<L>,
    conn: &mut impl Read,
    inbox: &mut FrameBuf,
    shard: u32,
    cmd: &RoundCmdFrame,
) -> Result<RoundFill, WireError> {
    let mut fill = state.begin(cmd.seq, cmd.mode);
    match inbox.read(conn)? {
        FrameView::Values(v) if v.kind == ValueKind::Owned => {
            if v.seq != cmd.seq {
                fill.refuse();
            }
            state.fill_owned(&mut fill, v.words().map(L::from_word));
        }
        other => return Err(protocol_violation(shard, "owned-values", &other)),
    }
    for _ in 0..cmd.halo_batches {
        let v = match inbox.read(conn)? {
            FrameView::Values(v) if matches!(v.kind, ValueKind::Halo { .. }) => v,
            other => return Err(protocol_violation(shard, "halo-batch", &other)),
        };
        let ValueKind::Halo { src } = v.kind else {
            unreachable!("matched a halo batch above")
        };
        if v.seq != cmd.seq {
            fill.refuse();
        }
        state.fill_halo(&mut fill, src, v.words().map(L::from_word));
    }
    Ok(fill)
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
        let fill = receive(&mut state, &mut conn, &mut inbox, shard, &cmd)?;
        // The round body encodes each result straight into a `results`
        // frame. A panic in it — kernel bug, poisoned values — is caught
        // and reported, keeping the worker serving.
        reply.clear();
        let kind = match cmd.kernel {
            GatherKernel::Scalar => KernelKind::Scalar,
            GatherKernel::Unrolled => KernelKind::Unrolled,
        };
        let computed = fill.ready()
            && std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut words =
                    values_frame_mut(&mut reply, ValueKind::Results, cmd.seq, state.owned());
                state.compute(cmd.mode, kind, |rank, value| {
                    words.set(rank, value.to_word())
                });
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
