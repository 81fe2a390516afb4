//! The **shard runtime**: one shard worker, one hub coordinator, two
//! links.
//!
//! [`Backend::Message`](crate::engine::Backend::Message) and
//! [`Backend::Process`](crate::engine::Backend::Process) run the same
//! round. A coordinator (`ShardExec`) holds the round-start snapshot
//! and talks to one worker per shard over a `ShardLink`; workers never
//! talk to each other. Each round it
//!
//! 1. ships every shard its plan when the graph changed (owned count,
//!    plus the shard's local CSR when the round runs the diffusion
//!    kernel on the workers);
//! 2. ships each shard its owned values and, in diffusion mode, one halo
//!    batch per recv group, cut from the snapshot;
//! 3. collects each shard's results in owned order and scatters them
//!    into the output vector.
//!
//! The worker core is `ShardState`: it installs a plan, fills an
//! `owned + halo` frame, refuses the round unless every recv group was
//! filled exactly once, and gathers its owned rows with the local CSR.
//! Protocols without a [`GatherSpec`] over their current graph (the
//! engine's `kernel_spec`) cannot ship their kernel, so the coordinator
//! evaluates `node_new_load` itself (`precompute`) and the workers only
//! hold and return the values.
//!
//! The two links are the `dlb-wire/3` sockets of the process backend
//! (`WireLink`) and `ThreadLink`, which
//! moves typed `Vec`s to one thread per shard over one channel pair per
//! shard. A thread that exits drops its reply sender, so the coordinator
//! sees a dead thread the way it sees a socket EOF.
//!
//! ## Recovery
//!
//! With a [`FaultPlan`] armed the coordinator recovers every failed shard
//! the same way on both links. A shard fails when its link closes, when
//! it answers "not ok" or when its results have the wrong size. Its
//! owned values are then recomputed from the snapshot by `precompute`
//! (bit-identical: every kernel flavour is pinned to `node_new_load`),
//! and a dead worker is respawned and sent its plan again. The plan's
//! faults are injected by the coordinator: a panic kills the worker
//! before dispatch, a delay holds the shard's dispatch back, and
//! dropped, duplicated or reordered halo batches are written that way
//! into every receiver of the faulted shard's outbound batches. Without
//! a plan any failure is the round's typed error.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{CommMetrics, EnginePhase, PlanCache};
use crate::faults::{FaultKind, FaultPlan, FaultStats};
use crate::kernels::{gather_contiguous, GatherSpec, KernelKind, NoStats};
use crate::process::WireLoad;
use dlb_graphs::partition::{LocalCsr, PartitionSpec, ShardPlan, ShardView};
use dlb_graphs::structure::GatherPlan;
use dlb_graphs::{Csr, Graph};
use dlb_telemetry::{Phase as SpanPhase, Telemetry, ENGINE_LANE};
use dlb_wire::{LocalCsrPlan, PlanFrame, RoundMode, WireError};

/// The exchange schedule of one partition plan, memoized per distinct
/// graph: the [`ShardPlan`] plus each shard's recv groups.
#[derive(Debug)]
pub(crate) struct MessagePlan {
    /// One view per shard (owned lists in ascending global id) plus the
    /// locality metrics.
    pub(crate) plan: ShardPlan,
    /// `recv[s]` = [`ShardView::halo_groups`] of shard `s`: one halo
    /// batch per entry, `(src shard, global ids)`.
    pub(crate) recv: Vec<Vec<(usize, Vec<u32>)>>,
}

impl MessagePlan {
    /// The plan for `graph`, or the trivial range plan when the protocol
    /// exposes none.
    pub(crate) fn build(spec: &PartitionSpec, graph: Option<&Graph>, n: usize) -> MessagePlan {
        let plan = match graph {
            Some(g) => ShardPlan::build(g, &spec.build(g)),
            None => ShardPlan::trivial(n, spec.shards()),
        };
        let recv = plan.views().iter().map(ShardView::halo_groups).collect();
        MessagePlan { plan, recv }
    }

    pub(crate) fn views(&self) -> &[ShardView] {
        self.plan.views()
    }
}

// ---------------------------------------------------------------------------
// Worker core
// ---------------------------------------------------------------------------

/// A diffusion session's kernel: the shard's local CSR, its gather plan,
/// the typed divisor factor and the halo fill order.
struct ShardKernel<L> {
    csr: LocalCsr,
    plan: GatherPlan,
    factor: L,
    /// `(src shard, frame positions)` per recv group.
    recv_groups: Vec<(u32, Vec<u32>)>,
}

/// A worker's installed plan and its frame: the one shard worker core,
/// driven by the wire loop of `dlb-shard-worker` and by the thread
/// worker of [`ThreadLink`].
pub(crate) struct ShardState<L> {
    seq: u64,
    owned: usize,
    kernel: Option<ShardKernel<L>>,
    /// Owned values at positions `0..owned`, then (diffusion sessions)
    /// the halo: all a shard ever holds.
    frame: Vec<L>,
}

/// What one round has filled into a worker's frame so far.
pub(crate) struct RoundFill {
    ok: bool,
    diffusion: bool,
    /// One flag per recv group.
    filled: Vec<bool>,
}

impl RoundFill {
    /// Whether the round may run: nothing was refused and, in diffusion
    /// mode, every recv group was filled exactly once — a stale, missing,
    /// duplicated or mis-sized batch would leave last round's halo in the
    /// frame.
    pub(crate) fn ready(&self) -> bool {
        self.ok && (!self.diffusion || self.filled.iter().all(|&f| f))
    }

    /// Refuses the round.
    pub(crate) fn refuse(&mut self) {
        self.ok = false;
    }
}

impl<L: WireLoad> ShardState<L> {
    /// Validates `plan` and builds the state it describes; a plan that
    /// would index outside the frame is refused before anything is
    /// allocated from it.
    pub(crate) fn install(shard: u32, plan: PlanFrame) -> Result<ShardState<L>, WireError> {
        plan.validate(shard).map_err(WireError::CorruptPlan)?;
        let owned = plan.owned as usize;
        let kernel = plan.kernel.map(|k| {
            let csr = LocalCsr::from_parts(owned, k.degrees, k.slots);
            ShardKernel {
                plan: GatherPlan::build(&csr),
                csr,
                factor: L::from_word(k.factor),
                recv_groups: k.recv_groups,
            }
        });
        let len = kernel.as_ref().map_or(owned, |k| k.csr.len());
        Ok(ShardState {
            seq: plan.seq,
            owned,
            kernel,
            frame: vec![L::default(); len],
        })
    }

    /// Owned rows: the length of the owned values and of the results.
    pub(crate) fn owned(&self) -> usize {
        self.owned
    }

    /// Starts round `seq` in `mode`. The plan a link delivers first is
    /// the one the round was built against, so `self.seq` records when
    /// it arrived, not a per-round token.
    pub(crate) fn begin(&self, seq: u64, mode: RoundMode) -> RoundFill {
        let diffusion = mode == RoundMode::Diffusion;
        let groups = self.kernel.as_ref().map_or(0, |k| k.recv_groups.len());
        RoundFill {
            ok: seq >= self.seq && (!diffusion || self.kernel.is_some()),
            diffusion,
            filled: vec![false; groups],
        }
    }

    /// Writes the round's owned values (owned order) into the frame.
    pub(crate) fn fill_owned(
        &mut self,
        fill: &mut RoundFill,
        values: impl ExactSizeIterator<Item = L>,
    ) {
        if values.len() != self.owned {
            return fill.refuse();
        }
        for (slot, value) in self.frame[..self.owned].iter_mut().zip(values) {
            *slot = value;
        }
    }

    /// Writes `values[i]` at owned rank `ranks[i]`, on top of the owned
    /// values the frame already holds.
    pub(crate) fn apply_deltas(&mut self, fill: &mut RoundFill, ranks: &[u32], values: &[L]) {
        if ranks.len() != values.len() {
            return fill.refuse();
        }
        for (&rank, &value) in ranks.iter().zip(values) {
            match self.frame[..self.owned].get_mut(rank as usize) {
                Some(slot) => *slot = value,
                None => fill.refuse(),
            }
        }
    }

    /// Writes one halo batch from shard `src` into its recv group's frame
    /// positions; a batch no group expects, a second batch for a filled
    /// group or a batch of the wrong size refuses the round.
    pub(crate) fn fill_halo(
        &mut self,
        fill: &mut RoundFill,
        src: u32,
        values: impl ExactSizeIterator<Item = L>,
    ) {
        let groups = self.kernel.as_ref().map_or(&[][..], |k| &k.recv_groups[..]);
        match groups.iter().position(|(s, _)| *s == src) {
            Some(g) if !fill.filled[g] && values.len() == groups[g].1.len() => {
                for (&position, value) in groups[g].1.iter().zip(values) {
                    self.frame[position as usize] = value;
                }
                fill.filled[g] = true;
            }
            _ => fill.refuse(),
        }
    }

    /// The round body: gathers the owned rows (diffusion) or reads the
    /// owned values back (precomputed), calling `emit(rank, value)` once
    /// per owned row in ascending rank order.
    pub(crate) fn compute(
        &self,
        mode: RoundMode,
        kind: KernelKind,
        mut emit: impl FnMut(usize, L),
    ) {
        match (mode, &self.kernel) {
            (RoundMode::Diffusion, Some(k)) => {
                let spec = GatherSpec {
                    graph: &k.csr,
                    factor: k.factor,
                };
                let rows = k.csr.rows() as u32;
                let mut emit = |row: u32, value: L| emit(row as usize, value);
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
                for (rank, &value) in self.frame[..self.owned].iter().enumerate() {
                    emit(rank, value);
                }
            }
        }
    }

    /// Copies this round's results into the owned prefix, so the next
    /// round may send only the owned values that differ from them.
    fn keep(&mut self, results: &[L]) {
        self.frame[..self.owned].copy_from_slice(results);
    }
}

/// Shard `s`'s plan as a typed [`PlanFrame`]: the same contents
/// [`encode_plan_frame`](crate::process::encode_plan_frame) streams onto
/// the wire — its owned count and, when `kernel` is present, its local
/// CSR over the kernel's graph, recv positions and divisor factor.
pub(crate) fn plan_frame<L: WireLoad>(
    plan: &ShardPlan,
    s: usize,
    seq: u64,
    kernel: Option<GatherSpec<'_, L>>,
) -> PlanFrame {
    let view = &plan.views()[s];
    let owned = view.owned().len();
    let kernel = kernel.map(|spec| {
        let g = spec.graph;
        let degrees = plan.local_degrees(g, s).collect();
        let slots = (0..owned)
            .flat_map(|row| plan.local_row(g, s, row))
            .collect();
        let recv_groups = view
            .halo_groups()
            .into_iter()
            .map(|(src, ids)| {
                let positions = ids
                    .iter()
                    .map(|&h| plan.local_id(s, h).expect("recv ids are halo nodes"));
                (src as u32, positions.collect())
            })
            .collect();
        LocalCsrPlan::new(degrees, slots, recv_groups, spec.factor.to_word())
    });
    PlanFrame {
        seq,
        shard: s as u32,
        load_type: L::LOAD_TYPE,
        owned: owned as u32,
        kernel,
    }
}

// ---------------------------------------------------------------------------
// The link trait and the coordinator
// ---------------------------------------------------------------------------

/// One round as the coordinator ships it to one shard.
pub(crate) struct Dispatch<'a, L> {
    pub(crate) seq: u64,
    pub(crate) round: u64,
    pub(crate) kind: KernelKind,
    /// The round-start loads: the source of owned values (diffusion) and
    /// of every halo batch.
    pub(crate) snapshot: &'a [L],
    /// The shard's owned nodes, ascending global id.
    pub(crate) owned: &'a [u32],
    /// Coordinator-evaluated new owned values; `None` in diffusion mode.
    pub(crate) precomputed: Option<&'a [L]>,
    /// The shard's recv groups, `(src shard, global ids)`.
    pub(crate) groups: &'a [(usize, Vec<u32>)],
    /// The batches to write, as indices into `groups`, in write order.
    pub(crate) batches: &'a [usize],
    pub(crate) tel: &'a Telemetry,
}

impl<L> Dispatch<'_, L> {
    pub(crate) fn mode(&self) -> RoundMode {
        if self.precomputed.is_some() {
            RoundMode::Precomputed
        } else {
            RoundMode::Diffusion
        }
    }
}

/// How a shard answered a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Results scattered into the output vector.
    Done,
    /// The worker is alive but refused the round or sent results of the
    /// wrong size.
    Refused,
    /// The link is closed: the worker is dead.
    Lost,
}

/// The coordinator side of a shard fleet's connections: everything the
/// [`ShardExec`] round needs from a transport.
pub(crate) trait ShardLink<L: WireLoad> {
    /// The [`EnginePhase`] this link's failures surface under.
    const PHASE: EnginePhase;

    /// Shard workers in the fleet.
    fn shards(&self) -> usize;

    /// Ships shard `s` its plan. Returns `false` when the link is closed.
    fn send_plan(
        &mut self,
        s: usize,
        plan: &ShardPlan,
        seq: u64,
        kernel: Option<GatherSpec<'_, L>>,
        tel: &Telemetry,
        round: u64,
    ) -> bool;

    /// Ships shard `s` one round: command, owned values and the
    /// dispatch's halo batches. Counts the owned values it moved into
    /// `comm`. Returns `false` when the link is closed.
    fn send_round(&mut self, s: usize, round: &Dispatch<'_, L>, comm: &mut CommMetrics) -> bool;

    /// Receives shard `s`'s answer to round `seq` and scatters its
    /// results into `out` by the `owned` list.
    #[allow(clippy::too_many_arguments)]
    fn recv_round(
        &mut self,
        s: usize,
        seq: u64,
        owned: &[u32],
        out: &mut [L],
        comm: &mut CommMetrics,
        tel: &Telemetry,
        round: u64,
    ) -> Reply;

    /// Kills shard `s`'s worker; its next round fails as [`Reply::Lost`].
    fn kill(&mut self, s: usize);

    /// Replaces shard `s`'s dead worker with a fresh one (which has no
    /// plan yet).
    fn respawn(&mut self, s: usize);

    /// Adds the bytes the link moved since the last call to `comm`.
    fn count_bytes(&mut self, _comm: &mut CommMetrics) {}
}

/// The hub coordinator of both partitioned backends: memoized plans, the
/// plan broadcast, halo batches cut from the snapshot, result scatter
/// and fault recovery, over any [`ShardLink`].
#[derive(Debug)]
pub(crate) struct ShardExec<L, K> {
    pub(crate) spec: PartitionSpec,
    pub(crate) plans: PlanCache<Arc<MessagePlan>>,
    pub(crate) link: K,
    /// Fingerprint of the plan last broadcast; rounds re-ship plans only
    /// when it changes (dynamic graphs).
    broadcast_key: Option<u64>,
    pub(crate) last_comm: Option<CommMetrics>,
    /// Round-attempt counter stamped on every command, so a reply from
    /// an earlier attempt is never taken for this one.
    round_seq: u64,
    /// Precomputed rounds' coordinator-evaluated owned values, reused.
    precomputed: Vec<L>,
    /// One shard's batch write order, reused.
    batches: Vec<usize>,
}

/// What the coordinator injects into one shard on one round.
#[derive(Default, Clone, Copy)]
struct Injected {
    delay_ms: u64,
    drop: bool,
    duplicate: bool,
    reorder: bool,
}

impl<L: WireLoad, K: ShardLink<L>> ShardExec<L, K> {
    pub(crate) fn new(spec: PartitionSpec, link: K) -> ShardExec<L, K> {
        ShardExec {
            spec,
            plans: PlanCache::new(),
            link,
            broadcast_key: None,
            last_comm: None,
            round_seq: 0,
            precomputed: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// One round. `kernel` selects diffusion mode (workers evaluate the
    /// shipped kernel, in flavour `kind`) when present; the engine passes
    /// one only when its graph is the protocol's current graph, the graph
    /// the plan was built from. `precompute` is the coordinator-side
    /// kernel every other round — and every recovery — is evaluated
    /// with. With `faults` armed, the round's faults are injected and
    /// failed shards recovered, counted in `fault_stats` (see the module
    /// docs); otherwise the first failed shard is the error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round(
        &mut self,
        snapshot: &[L],
        out: &mut [L],
        kernel: Option<GatherSpec<'_, L>>,
        kind: KernelKind,
        precompute: &mut dyn FnMut(&[u32], &mut Vec<L>),
        faults: Option<&FaultPlan>,
        fault_stats: &mut FaultStats,
        tel: &Telemetry,
        round_no: u64,
    ) -> Result<(), usize> {
        let plan = self.plans.current().clone();
        let key = self.plans.current_key();
        assert_eq!(
            out.len(),
            plan.views().iter().map(|v| v.owned().len()).sum::<usize>(),
            "shard plan node count must equal the load vector length"
        );
        self.round_seq += 1;
        let seq = self.round_seq;
        let shards = self.link.shards();
        let mut comm = CommMetrics {
            shards,
            ..CommMetrics::default()
        };
        let diffusion = kernel.is_some();

        let mut injected = vec![Injected::default(); shards];
        let events = faults.into_iter().flat_map(|p| p.events_at(round_no));
        for event in events.filter(|e| e.shard < shards) {
            fault_stats.faults_injected += 1;
            let s = event.shard;
            match event.kind {
                FaultKind::Panic => self.link.kill(s),
                FaultKind::Delay { ms } => injected[s].delay_ms += ms,
                FaultKind::DropHalo => injected[s].drop = true,
                FaultKind::DuplicateHalo => injected[s].duplicate = true,
                FaultKind::ReorderHalo => injected[s].reorder = true,
            }
        }

        // Each shard's failure this round: `Refused` or `Lost`.
        let mut failed: Vec<Option<Reply>> = vec![None; shards];

        // A changed plan goes out to every shard before any round data,
        // so each worker installs its plan while the coordinator is still
        // writing the others'.
        if self.broadcast_key != Some(key) {
            for (s, failure) in failed.iter_mut().enumerate() {
                if !self
                    .link
                    .send_plan(s, &plan.plan, seq, kernel, tel, round_no)
                {
                    *failure = Some(Reply::Lost);
                }
            }
            self.broadcast_key = Some(key);
        }

        // Dispatch: round command, owned values (or precomputed new
        // values) and, in diffusion mode, the halo batches, per shard.
        let mut per_src_sent = vec![0usize; shards];
        let mut kernel_panic: Option<usize> = None;
        for (s, view) in plan.views().iter().enumerate() {
            if injected[s].delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(injected[s].delay_ms));
            }
            if failed[s].is_some() {
                continue;
            }
            let precomputed = if diffusion {
                None
            } else {
                // In precomputed mode the protocol kernel runs here, on
                // the coordinator; a panicking kernel fails the round
                // with this shard's typed error.
                let t0 = tel.start();
                let ran = self.precompute(precompute, view.owned());
                tel.record(ENGINE_LANE, round_no, SpanPhase::GatherInterior, t0);
                if !ran {
                    kernel_panic = Some(s);
                    break;
                }
                Some(&self.precomputed[..])
            };
            let groups: &[(usize, Vec<u32>)] = if diffusion { &plan.recv[s] } else { &[] };
            self.batches.clear();
            for (i, (src, _)) in groups.iter().enumerate() {
                if !injected[*src].drop {
                    self.batches.push(i);
                }
                if injected[*src].duplicate {
                    self.batches.push(i);
                }
            }
            if groups.iter().any(|(src, _)| injected[*src].reorder) {
                self.batches.reverse();
            }
            for &i in &self.batches {
                let (src, ids) = &groups[i];
                comm.messages += 1;
                comm.values_sent += ids.len();
                per_src_sent[*src] += ids.len();
            }
            let dispatch = Dispatch {
                seq,
                round: round_no,
                kind,
                snapshot,
                owned: view.owned(),
                precomputed,
                groups,
                batches: &self.batches,
                tel,
            };
            if !self.link.send_round(s, &dispatch, &mut comm) {
                failed[s] = Some(Reply::Lost);
            }
        }
        comm.max_shard_values_sent = per_src_sent.iter().copied().max().unwrap_or(0);

        // Collect: every dispatched shard answers, its results decoded or
        // copied straight into `out`. Workers only ever wait on the
        // coordinator — every inbound batch of the round is already
        // written — so a dead worker is a closed link *here*, never a
        // stalled peer elsewhere: the barrier cannot deadlock.
        let dispatched = kernel_panic.unwrap_or(shards);
        for (s, view) in plan.views().iter().enumerate().take(dispatched) {
            if failed[s].is_some() {
                continue;
            }
            let reply = self
                .link
                .recv_round(s, seq, view.owned(), out, &mut comm, tel, round_no);
            failed[s] = Some(reply).filter(|r| *r != Reply::Done);
        }
        let result = match (kernel_panic, faults) {
            (Some(s), _) => Err(s),
            (None, Some(_)) => self.recover(
                &plan,
                &failed,
                kernel,
                seq,
                precompute,
                fault_stats,
                out,
                tel,
                round_no,
            ),
            (None, None) => failed.iter().position(Option::is_some).map_or(Ok(()), Err),
        };
        comm.halo_bytes = comm.values_sent * std::mem::size_of::<L>();
        self.link.count_bytes(&mut comm);
        self.last_comm = Some(comm);
        result
    }

    /// Recovers every failed shard (with a fault plan armed): its owned
    /// values are recomputed from the snapshot by `precompute`, and a
    /// dead worker (`Reply::Lost`) is respawned and sent the
    /// current plan. A panicking `precompute` is the shard's error.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        plan: &MessagePlan,
        failed: &[Option<Reply>],
        kernel: Option<GatherSpec<'_, L>>,
        seq: u64,
        precompute: &mut dyn FnMut(&[u32], &mut Vec<L>),
        stats: &mut FaultStats,
        out: &mut [L],
        tel: &Telemetry,
        round_no: u64,
    ) -> Result<(), usize> {
        for (s, view) in plan.views().iter().enumerate() {
            let Some(reply) = failed[s] else { continue };
            let t0 = tel.start();
            if !self.precompute(precompute, view.owned()) {
                return Err(s);
            }
            for (&v, &value) in view.owned().iter().zip(&self.precomputed) {
                out[v as usize] = value;
            }
            if reply == Reply::Lost {
                self.link.respawn(s);
                self.link
                    .send_plan(s, &plan.plan, seq, kernel, tel, round_no);
            }
            stats.recoveries += 1;
            stats.rehomed_values += view.owned().len() as u64;
            tel.record(ENGINE_LANE, round_no, SpanPhase::FaultRecovery, t0);
        }
        Ok(())
    }

    /// Evaluates `precompute` over `owned` into `self.precomputed`;
    /// `false` when the kernel panicked.
    fn precompute(
        &mut self,
        precompute: &mut dyn FnMut(&[u32], &mut Vec<L>),
        owned: &[u32],
    ) -> bool {
        let values = &mut self.precomputed;
        values.clear();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| precompute(owned, values))).is_ok()
    }
}

// ---------------------------------------------------------------------------
// The in-memory link
// ---------------------------------------------------------------------------

/// A thread worker's round: the coordinator fills it, the worker answers
/// in it, and it travels back and forth so a steady round allocates
/// nothing.
struct Envelope<L> {
    seq: u64,
    round: u64,
    mode: RoundMode,
    kind: KernelKind,
    /// Owned values: the full slice in owned order or, with `deltas`,
    /// only those that differ from the results the worker kept in its
    /// owned prefix last round, each at the owned rank in `ranks`.
    values: Vec<L>,
    ranks: Vec<u32>,
    deltas: bool,
    /// Halo batches `(src, values)`; the first `halo_count` are this
    /// round's (the rest are spare buffers).
    halos: Vec<(u32, Vec<L>)>,
    halo_count: usize,
    /// Resident dispatch: keep the results in the owned prefix.
    keep: bool,
    results: Vec<L>,
    ok: bool,
    tel: Telemetry,
}

impl<L> Envelope<L> {
    fn new() -> Box<Envelope<L>> {
        Box::new(Envelope {
            seq: 0,
            round: 0,
            mode: RoundMode::Precomputed,
            kind: KernelKind::Scalar,
            values: Vec::new(),
            ranks: Vec::new(),
            deltas: false,
            halos: Vec::new(),
            halo_count: 0,
            keep: false,
            results: Vec::new(),
            ok: false,
            tel: Telemetry::Off,
        })
    }
}

/// Coordinator → thread worker.
enum ToShard<L> {
    Plan(PlanFrame),
    Round(Box<Envelope<L>>),
}

/// One live shard thread: its channels, its handle, and the envelope
/// while the coordinator holds it.
struct ThreadWorker<L> {
    tx: mpsc::Sender<ToShard<L>>,
    rx: mpsc::Receiver<Box<Envelope<L>>>,
    handle: JoinHandle<()>,
    envelope: Option<Box<Envelope<L>>>,
    /// Whether the worker's owned prefix holds `envelope.results`.
    kept: bool,
}

/// The in-memory [`ShardLink`]: one thread per shard and one channel
/// pair per thread, moving typed vectors with no encoding.
pub(crate) struct ThreadLink<L> {
    workers: Vec<Option<ThreadWorker<L>>>,
    /// [`Backend::Message`](crate::engine::Backend::Message)'s `resident`
    /// flag: diffusion rounds send each shard whose owned prefix holds
    /// its last results only the owned values that changed.
    pub(crate) resident: bool,
}

impl<L> std::fmt::Debug for ThreadLink<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLink")
            .field("shards", &self.workers.len())
            .field("resident", &self.resident)
            .finish()
    }
}

impl<L: WireLoad> ThreadLink<L> {
    pub(crate) fn spawn(shards: usize, resident: bool) -> ThreadLink<L> {
        ThreadLink {
            workers: (0..shards).map(|s| Some(spawn_thread(s))).collect(),
            resident,
        }
    }
}

fn spawn_thread<L: WireLoad>(shard: usize) -> ThreadWorker<L> {
    let (tx, rx_worker) = mpsc::channel();
    let (tx_worker, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("dlb-shard-{shard}"))
        .spawn(move || thread_worker::<L>(shard as u32, rx_worker, tx_worker))
        .expect("spawn shard worker thread");
    ThreadWorker {
        tx,
        rx,
        handle,
        envelope: Some(Envelope::new()),
        kept: false,
    }
}

/// The thread worker: serves rounds until its coordinator hangs up.
fn thread_worker<L: WireLoad>(
    shard: u32,
    rx: mpsc::Receiver<ToShard<L>>,
    tx: mpsc::Sender<Box<Envelope<L>>>,
) {
    let mut state: Option<ShardState<L>> = None;
    while let Ok(msg) = rx.recv() {
        let mut env = match msg {
            ToShard::Plan(plan) => {
                state = ShardState::install(shard, plan).ok();
                continue;
            }
            ToShard::Round(env) => env,
        };
        env.ok = state
            .as_mut()
            .is_some_and(|state| serve(state, shard, &mut env));
        if tx.send(env).is_err() {
            return;
        }
    }
}

/// One round of a thread worker: fill, gather, answer in the envelope.
fn serve<L: WireLoad>(state: &mut ShardState<L>, shard: u32, env: &mut Envelope<L>) -> bool {
    let tel = env.tel.clone();
    let t0 = tel.start();
    let mut fill = state.begin(env.seq, env.mode);
    if env.deltas {
        state.apply_deltas(&mut fill, &env.ranks, &env.values);
    } else {
        state.fill_owned(&mut fill, env.values.iter().copied());
    }
    for (src, values) in &env.halos[..env.halo_count] {
        state.fill_halo(&mut fill, *src, values.iter().copied());
    }
    tel.record(shard, env.round, SpanPhase::RecvHalo, t0);
    if !fill.ready() {
        return false;
    }
    let t0 = tel.start();
    let results = &mut env.results;
    results.clear();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        state.compute(env.mode, env.kind, |_, value| results.push(value))
    }));
    tel.record(shard, env.round, SpanPhase::GatherInterior, t0);
    if ran.is_err() {
        return false;
    }
    if env.keep {
        state.keep(&env.results);
    }
    true
}

impl<L: WireLoad> ShardLink<L> for ThreadLink<L> {
    const PHASE: EnginePhase = EnginePhase::Exchange;

    fn shards(&self) -> usize {
        self.workers.len()
    }

    fn send_plan(
        &mut self,
        s: usize,
        plan: &ShardPlan,
        seq: u64,
        kernel: Option<GatherSpec<'_, L>>,
        _tel: &Telemetry,
        _round: u64,
    ) -> bool {
        let Some(w) = self.workers[s].as_mut() else {
            return false;
        };
        w.kept = false;
        w.tx.send(ToShard::Plan(plan_frame(plan, s, seq, kernel)))
            .is_ok()
    }

    fn send_round(&mut self, s: usize, d: &Dispatch<'_, L>, comm: &mut CommMetrics) -> bool {
        let t0 = d.tel.start();
        let Some(w) = self.workers[s].as_mut() else {
            return false;
        };
        let mut env = w.envelope.take().unwrap_or_else(Envelope::new);
        env.deltas = self.resident && w.kept && d.precomputed.is_none();
        env.values.clear();
        let phase = if env.deltas {
            // The worker's owned prefix holds last round's results, which
            // are still in the envelope: send what differs from them.
            env.ranks.clear();
            let owned = d.owned.iter().map(|&v| d.snapshot[v as usize]);
            for (rank, (now, old)) in owned.zip(&env.results).enumerate() {
                if now.to_word() != old.to_word() {
                    env.ranks.push(rank as u32);
                    env.values.push(now);
                }
            }
            comm.delta_values += env.values.len();
            SpanPhase::DeltaScatter
        } else {
            match d.precomputed {
                Some(values) => env.values.extend_from_slice(values),
                None => env
                    .values
                    .extend(d.owned.iter().map(|&v| d.snapshot[v as usize])),
            }
            comm.owned_values_in += d.owned.len();
            SpanPhase::ScatterOwned
        };
        env.halo_count = d.batches.len();
        if env.halos.len() < env.halo_count {
            env.halos.resize_with(env.halo_count, || (0, Vec::new()));
        }
        for (slot, &i) in env.halos.iter_mut().zip(d.batches) {
            let (src, ids) = &d.groups[i];
            slot.0 = *src as u32;
            slot.1.clear();
            slot.1.extend(ids.iter().map(|&v| d.snapshot[v as usize]));
        }
        env.seq = d.seq;
        env.round = d.round;
        env.mode = d.mode();
        env.kind = d.kind;
        env.keep = self.resident;
        env.tel = d.tel.clone();
        w.kept = false;
        let sent = w.tx.send(ToShard::Round(env)).is_ok();
        d.tel.record(ENGINE_LANE, d.round, phase, t0);
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
        let Some(w) = self.workers[s].as_mut() else {
            return Reply::Lost;
        };
        let env = match w.rx.recv() {
            Ok(env) => env,
            Err(_) => {
                self.hang_up(s);
                return Reply::Lost;
            }
        };
        debug_assert_eq!(env.seq, seq, "one envelope per shard is in flight");
        let t0 = tel.start();
        let reply = if env.ok && env.results.len() == owned.len() {
            for (&v, &value) in owned.iter().zip(&env.results) {
                out[v as usize] = value;
            }
            comm.owned_values_out += owned.len();
            w.kept = env.keep && env.mode == RoundMode::Diffusion;
            Reply::Done
        } else {
            Reply::Refused
        };
        let phase = if self.resident {
            comm.collects = 1;
            SpanPhase::Collect
        } else {
            SpanPhase::ScatterOwned
        };
        tel.record(ENGINE_LANE, round, phase, t0);
        w.envelope = Some(env);
        reply
    }

    fn kill(&mut self, s: usize) {
        self.hang_up(s);
    }

    fn respawn(&mut self, s: usize) {
        self.hang_up(s);
        self.workers[s] = Some(spawn_thread(s));
    }
}

impl<L> ThreadLink<L> {
    /// Hangs up on shard `s`'s thread — its signal to return — and joins
    /// it.
    fn hang_up(&mut self, s: usize) {
        if let Some(w) = self.workers[s].take() {
            drop(w.tx);
            let _ = w.handle.join();
        }
    }
}

impl<L> Drop for ThreadLink<L> {
    fn drop(&mut self) {
        for s in 0..self.workers.len() {
            self.hang_up(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::encode_plan_frame;
    use dlb_graphs::topology;
    use dlb_wire::Frame;

    /// The thread link's typed plan is the wire link's streamed plan
    /// frame, decoded: the same owned count, local CSR, recv positions
    /// and fingerprint, so both links install the same worker state.
    #[test]
    fn typed_plan_frames_encode_to_the_streamed_bytes() {
        for g in [
            topology::torus2d(7, 5),
            topology::star(20),
            topology::path(9),
        ] {
            let spec = GatherSpec {
                graph: &g,
                factor: 4.0,
            };
            for partition in [
                PartitionSpec::Range { shards: 3 },
                PartitionSpec::Bfs { shards: 4 },
            ] {
                let plan = MessagePlan::build(&partition, Some(&g), g.n());
                for s in 0..partition.shards() {
                    for kernel in [Some(spec), None] {
                        let mut streamed = Vec::new();
                        encode_plan_frame(&mut streamed, &plan.plan, s, 9, kernel);
                        let typed = plan_frame(&plan.plan, s, 9, kernel);
                        assert_eq!(Frame::Plan(typed).encode(), streamed, "{g:?} shard {s}");
                    }
                }
            }
        }
    }
}
