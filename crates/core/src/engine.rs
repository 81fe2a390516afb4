//! The unified round engine: one [`Protocol`] abstraction and one
//! backend-generic executor ([`Backend::Serial`], [`Backend::Pool`],
//! [`Backend::Message`], [`Backend::Process`]), shared by every balancing
//! scheme in the workspace.
//!
//! ### The shape of a round (zero-copy, double-buffered)
//!
//! Every protocol in the paper — Algorithm 1 (continuous and discrete),
//! Algorithm 2's random partners, the heterogeneous extension, and the
//! first/second-order baselines — is the same object: a synchronous
//! transformation of a load vector whose quadratic potential the analysis
//! tracks. Executing one round always decomposes into
//!
//! 1. **begin** — protocol-specific per-round setup against the round-start
//!    loads ([`Protocol::begin_round`]): sample Algorithm 2's partners,
//!    draw a matching, advance a dynamic graph sequence, …;
//! 2. **gather** — every node's new load is computed independently from
//!    the round-start loads by [`Protocol::node_new_load`]. This is the hot
//!    loop, and the only step the executors differ on: the serial backend
//!    walks `0..n`, the pool backend splits the node range into contiguous
//!    chunks over a persistent [`WorkerPool`], and the two partitioned
//!    backends — message (one worker thread per shard) and process (one
//!    worker OS process per shard) — run the one shard runtime
//!    ([`crate::shard`]): each worker gathers its owned rows over its
//!    shard-local CSR, with boundary loads sent to it as batches cut from
//!    the snapshot (see [`Engine::shard_metrics`] and
//!    [`Engine::comm_metrics`]). Because all four evaluate the *same*
//!    kernel per node in the *same* per-node operation order, their
//!    results are **bit-identical** — the workspace's serial ≡ pool ≡
//!    message ≡ process invariant. The
//!    shared-memory backends write into the engine's **back
//!    buffer**, so the caller's vector doubles as the immutable snapshot:
//!    there is *no per-round `O(n)` snapshot copy*. After the gather the
//!    two buffers **swap** (`Vec::swap`, `O(1)`): the caller's vector now
//!    holds the new loads and the engine's back buffer holds the
//!    round-start snapshot for the hooks below;
//! 3. **finish** — cheap mandatory cross-round bookkeeping
//!    ([`Protocol::finish_round`]): advance the second-order scheme's
//!    `L^{t−1}` history, step Chebyshev's `ω` recurrence. Runs every
//!    round;
//! 4. **stats** (lazy) — per-round statistics
//!    ([`Protocol::compute_stats`]) run only on rounds the engine's
//!    [`StatsMode`] requests, through a [`StatsCtx`] that carries the
//!    executor's worker pool. For protocols with a
//!    [`Protocol::gather_spec`] the serial and pool executors fuse the
//!    first statistics pass into the gather: they gather one
//!    [`REDUCE_BLOCK`](crate::potential::REDUCE_BLOCK) block at a time,
//!    and the kernel feeds each block's sums, min/max and edge tally as
//!    it writes the block; one pooled second pass adds the squared
//!    deviations of both vectors. The other backends drive the same
//!    per-node and per-slot steps over the coordinator's vectors.
//!    The result is the round's totals; their [`LoadSummary`]
//!    (`Φ`, min, max, total) is what scenario
//!    runners record ([`Engine::round_summary`]). Every reduction follows
//!    the one block order of [`crate::potential`], so all backends report
//!    bit-identical statistics.
//!
//! Kernel inputs and outputs are byte-identical to the historical
//! copy-the-snapshot formulation, so the ping-pong refactor preserves the
//! engine ≡ legacy golden fixtures for loads exactly.
//!
//! The convergence drivers in [`crate::runner`] sit on top of [`Engine`]
//! through the [`ContinuousBalancer`]/[`DiscreteBalancer`] traits, which
//! the engine implements generically — so every scheme gets the serial
//! executor, the parallel executor, lazy statistics, and every driver for
//! free by implementing [`Protocol`] once. On rounds whose stats were
//! skipped, the drivers fall back to the balancer's on-demand potential
//! ([`Protocol::potential_of`]), which reuses the same blocked reduction —
//! convergence decisions are bit-for-bit independent of the [`StatsMode`].
//!
//! ### Threading
//!
//! [`WorkerPool`] keeps its threads alive across rounds (a round on a
//! large graph is microseconds of work per chunk; respawning OS threads
//! per round costs more than the gather itself). Worker counts come from
//! [`recommended_threads_cached`], which honours the `DLB_THREADS`
//! environment variable so nested contexts (benches under test runners,
//! engines inside Monte-Carlo workers) can cap oversubscription. Pools are
//! clamped to `n` workers — tiny graphs never spawn parked idle threads.
//!
//! [`ContinuousBalancer`]: crate::model::ContinuousBalancer
//! [`DiscreteBalancer`]: crate::model::DiscreteBalancer

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::sync::OnceLock;
use std::thread::JoinHandle;

use crate::faults::{FaultPlan, FaultStats};
use crate::kernels::{self, DiffusionLoad, GatherSpec, KernelKind};
use crate::potential::{self, BlockPartial};
use crate::process::{WireLink, WireLoad};
use crate::shard::{MessagePlan, ShardExec, ShardLink, ThreadLink};
use dlb_graphs::partition::{graph_fingerprint, PartitionSpec};
use dlb_graphs::{GatherPlan, Graph};
use dlb_telemetry::{
    CommCounters, FaultCounters, MetricsSnapshot, Phase as SpanPhase, ShardCounters, Telemetry,
    ENGINE_LANE,
};

/// One synchronous balancing scheme, expressed as a per-round gather.
///
/// Implementors hold the topology, any precomputed edge weights, the RNG
/// of randomized schemes, and any cross-round history. The engine owns the
/// back buffer and the execution strategy.
///
/// Thread-safety is *not* required of protocols in general: only
/// [`Engine::parallel`] needs `P: Sync` (the gather shares `&self` across
/// worker threads; [`Protocol::node_new_load`] is the only method called
/// concurrently). Purely serial protocols — including trait objects like
/// `Box<dyn GraphSequence>` held inside dynamic protocols — stay free of
/// `Send`/`Sync` bounds. Statistics closures handed to [`StatsCtx`] must
/// be `Sync`, but they capture only plain data (slices, graphs, divisor
/// tables), so this holds even for `!Sync` protocols.
pub trait Protocol {
    /// The load value type: `f64` for continuous schemes, `i64` tokens for
    /// discrete ones. (`'static` because the partitioned backends'
    /// long-lived shard workers own load buffers beyond any one round's
    /// borrows — trivially satisfied by the plain scalar load types.
    /// [`DiffusionLoad`] supplies the generic quotient/accumulate
    /// operations the gather kernel is written over; both
    /// scalar load types implement it.)
    type Load: Copy
        + Default
        + PartialEq
        + Send
        + Sync
        + std::fmt::Debug
        + LoadPotential
        + DiffusionLoad
        + WireLoad
        + 'static;

    /// Per-round statistics produced by [`Protocol::compute_stats`].
    type Stats;

    /// Number of nodes; load vectors must have exactly this length.
    fn n(&self) -> usize;

    /// Short protocol name for experiment tables.
    fn name(&self) -> &'static str;

    /// Per-round setup against the round-start snapshot: draw randomness,
    /// refresh per-round link structure, advance dynamic topologies.
    /// Default: nothing.
    fn begin_round(&mut self, snapshot: &[Self::Load]) {
        let _ = snapshot;
    }

    /// The gather kernel: node `v`'s load after this round, computed from
    /// the immutable round-start snapshot (plus state established in
    /// [`Protocol::begin_round`]).
    ///
    /// Must be a pure function of `(self, snapshot, v)` — it runs
    /// concurrently from worker threads in parallel mode, and the serial ≡
    /// parallel bit-identity guarantee relies on per-node determinism.
    fn node_new_load(&self, snapshot: &[Self::Load], v: u32) -> Self::Load;

    /// Cheap cross-round bookkeeping after the gather (advance the
    /// second-order history, step acceleration recurrences). Runs every
    /// round regardless of the engine's [`StatsMode`], with exclusive
    /// access to `self`. Default: nothing.
    fn finish_round(&mut self, snapshot: &[Self::Load], new_loads: &[Self::Load]) {
        let _ = (snapshot, new_loads);
    }

    /// Round statistics from the snapshot and the gathered loads. Called
    /// *only* on rounds whose [`StatsMode`] requests statistics; all
    /// potential sweeps and flow tallies should go through `ctx` so they
    /// parallelize over the executor's pool and honour
    /// [`StatsCtx::flows_wanted`].
    fn compute_stats(
        &mut self,
        snapshot: &[Self::Load],
        new_loads: &[Self::Load],
        ctx: &StatsCtx<'_>,
    ) -> Self::Stats;

    /// The scalar potential this protocol's stats report as the
    /// after-round potential, computed standalone. The convergence drivers
    /// call it (through the balancer traits) on rounds whose stats were
    /// skipped, so it **must** be bit-identical to the value
    /// [`Protocol::compute_stats`] would have reported for `loads`.
    /// Default: the unweighted `Φ`/`Φ̂` of the load type; protocols with a
    /// different potential (e.g. capacity-weighted `Φ_c`) must override.
    fn potential_of(
        &self,
        loads: &[Self::Load],
        ctx: &StatsCtx<'_>,
    ) -> <Self::Load as LoadPotential>::Phi {
        <Self::Load as LoadPotential>::potential(loads, ctx)
    }

    /// The graph the current round's gather is local to, if the protocol
    /// is graph-based. The message and process backends derive their
    /// shard plan (interior/boundary/halo sets, edge cut) from this graph;
    /// `None` (the default) makes them fall back to a locality-blind
    /// contiguous range plan without halo accounting (e.g. random-partner
    /// schemes, whose reads are not neighbourhood-local).
    ///
    /// Returning `Some(g)` is a **locality contract**, not just a hint:
    /// [`Protocol::node_new_load`] for node `v` must read the snapshot
    /// only at `v` and `v`'s neighbours in `g`. A shard worker's frame
    /// holds *only* its owned and halo values, so when the protocol's
    /// [`Protocol::gather_spec`] runs on the workers, a read outside
    /// `{v} ∪ N(v)` would see stale data. Protocols with wider reads must
    /// return `None`.
    ///
    /// Only meaningful after [`Protocol::begin_round`] has run for the
    /// round (dynamic protocols draw their graph there).
    fn current_graph(&self) -> Option<&Graph> {
        None
    }

    /// Monotone counter that changes whenever [`Protocol::current_graph`]
    /// *may* have started returning a different graph. Fixed-topology
    /// protocols keep the default constant `0`, so the engine derives its
    /// gather and shard plans exactly once and never re-examines the
    /// graph.
    ///
    /// Conservative over-bumping is allowed: each bump costs the engine
    /// one `O(m)` fingerprint pass to re-resolve the plan (memoized per
    /// *distinct* graph, so periodic schedules still reuse plans). The
    /// dynamic protocols bump every round — their `GraphSequence` already
    /// materializes a fresh `O(n + m)` graph per round, so the
    /// fingerprint adds a constant factor, not a new asymptotic cost.
    fn graph_version(&self) -> u64 {
        0
    }

    /// The canonical-gather descriptor, if this protocol's
    /// [`Protocol::node_new_load`] is *exactly* the quotient-accumulate
    /// diffusion loop `ℓᵥ + Σᵤ (ℓᵤ − ℓᵥ)/div(v,u)` over a fixed graph,
    /// with `div(v,u) = k·max(dᵥ, dᵤ)` ([`GatherSpec::divisor`]).
    /// Protocols returning `Some` opt into the engine's gather kernel
    /// (see [`crate::kernels`]) on every backend, on rounds where the
    /// spec's graph is the very object [`Protocol::current_graph`]
    /// reports (`std::ptr::eq`): the engine's plans are built from that
    /// graph. On other rounds the engine runs `node_new_load`.
    ///
    /// A protocol returning `Some` also opts into the engine's canonical
    /// statistics: on rounds that compute stats the engine runs the
    /// round's statistics pass itself (fused into the gather where it
    /// can) and keeps its [`LoadSummary`] for [`Engine::round_summary`].
    /// The crate's canonical protocols read the same numbers in
    /// [`Protocol::compute_stats`]. A protocol returning `Some` must
    /// therefore report the default potential
    /// ([`LoadPotential::potential`]).
    ///
    /// The default `None` keeps a protocol on its own `node_new_load`
    /// everywhere — correct for every scheme whose update is not the
    /// canonical loop (α-scaled first/second-order flows,
    /// capacity-weighted heterogeneous diffusion, matching exchanges,
    /// random partners, sequential chains).
    fn gather_spec(&self) -> Option<GatherSpec<'_, Self::Load>> {
        None
    }
}

use crate::potential::RoundTotals;
pub use crate::potential::{LoadPotential, LoadSummary};

/// Which statistics [`Engine::round`] computes per round.
///
/// Final loads and round counts are **bit-identical across all modes**:
/// statistics are observers, never inputs, and the convergence drivers'
/// on-demand `Φ` fallback reproduces the skipped `phi_after` exactly (same
/// blocked reduction). Modes only trade per-round bookkeeping cost for
/// observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Full statistics every round: both potentials and the flow tally.
    /// The default. For protocols with a [`Protocol::gather_spec`] the
    /// serial and pool executors compute the first pass (block sums,
    /// min/max, tally) inside the gather's memory pass and add one
    /// second pass; the order is the one in [`crate::potential`].
    #[default]
    Full,
    /// Full statistics on every `k`-th executed round (the engine's
    /// rounds `k`, `2k`, …, counted from construction); all other rounds
    /// skip statistics entirely and return `None`.
    EveryK(usize),
    /// Potentials only, every round: the `O(m)` flow tally is skipped and
    /// its fields report zero.
    PhiOnly,
    /// No statistics at all; every round returns `None`. Steady-state
    /// rounds are gather-only.
    Off,
}

impl StatsMode {
    /// The statistics level for executed round number `round` (1-based),
    /// or `None` when this round skips stats.
    fn level_for(self, round: u64) -> Option<StatsLevel> {
        match self {
            StatsMode::Full => Some(StatsLevel::Flows),
            StatsMode::EveryK(k) => {
                debug_assert!(k >= 1);
                round
                    .is_multiple_of(k.max(1) as u64)
                    .then_some(StatsLevel::Flows)
            }
            StatsMode::PhiOnly => Some(StatsLevel::PhiOnly),
            StatsMode::Off => None,
        }
    }
}

/// How much of the statistics a [`StatsCtx`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsLevel {
    /// Potentials and the per-edge flow tally.
    Flows,
    /// Potentials only; [`StatsCtx::graph_tally`], [`StatsCtx::flow_tally`]
    /// and [`StatsCtx::token_tally`] return zeroed tallies without
    /// evaluating the flow closure.
    PhiOnly,
}

/// Execution context for statistics computation: carries the executor's
/// worker pool (if any), the requested level, and — on engine rounds of a
/// protocol with a [`Protocol::gather_spec`] — the round's precomputed
/// statistics. All reductions follow the one block order defined in
/// [`crate::potential`] — bit-identical whether the partials are computed
/// serially, over the pool, or fused into the gather, at any thread count.
#[derive(Clone, Copy)]
pub struct StatsCtx<'a> {
    pool: Option<&'a WorkerPool>,
    level: StatsLevel,
    totals: Option<EngineTotals<'a>>,
}

/// The engine's `RoundTotals<L>` for one round, type-erased so the
/// context stays non-generic, with the addresses of the spec's adjacency
/// and the two vectors they were reduced from.
#[derive(Clone, Copy)]
struct EngineTotals<'a> {
    totals: &'a dyn std::any::Any,
    inputs: [(usize, usize); 3],
}

/// Address and length of a slice, to check that two slices are the same.
fn slice_id<T>(v: &[T]) -> (usize, usize) {
    (v.as_ptr() as usize, v.len())
}

impl std::fmt::Debug for StatsCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsCtx")
            .field("pool", &self.pool)
            .field("level", &self.level)
            .field("totals", &self.totals.is_some())
            .finish()
    }
}

impl<'a> StatsCtx<'a> {
    /// A pool-less full-statistics context, for standalone/off-engine
    /// statistics computation.
    pub fn serial() -> StatsCtx<'static> {
        StatsCtx {
            pool: None,
            level: StatsLevel::Flows,
            totals: None,
        }
    }

    fn new(pool: Option<&'a WorkerPool>, level: StatsLevel) -> Self {
        StatsCtx {
            pool,
            level,
            totals: None,
        }
    }

    /// The pool block partials fan out over, if any.
    pub(crate) fn pool(&self) -> Option<&'a WorkerPool> {
        self.pool
    }

    /// Whether the flow/token tally is wanted this round (`false` under
    /// [`StatsMode::PhiOnly`] — tallies then report zeros).
    pub fn flows_wanted(&self) -> bool {
        self.level == StatsLevel::Flows
    }

    /// The statistics of a canonical diffusion round — Algorithm 1's
    /// gather over `spec` from `snapshot` to `new_loads`: both potentials,
    /// the edge tally over `spec`'s divisors (zeroed unless
    /// [`StatsCtx::flows_wanted`]) and the new loads' summary.
    ///
    /// On engine rounds the engine has already computed them — fused into
    /// the gather's memory pass on the serial and pool executors — from
    /// this very spec and these very vectors, and this returns its
    /// numbers; otherwise it runs the same two passes here. Either way the
    /// reduction order is the one in [`crate::potential`], so the bits
    /// are the same.
    pub fn diffusion_totals<L: LoadPotential>(
        &self,
        spec: &GatherSpec<'_, L>,
        snapshot: &[L],
        new_loads: &[L],
    ) -> RoundTotals<L> {
        if let Some(e) = self.totals {
            if let Some(t) = e.totals.downcast_ref::<RoundTotals<L>>() {
                debug_assert_eq!(
                    e.inputs,
                    [
                        slice_id(spec.graph.neighbor_slots()),
                        slice_id(snapshot),
                        slice_id(new_loads)
                    ],
                    "the engine's round totals were reduced from other inputs"
                );
                return *t;
            }
        }
        let tally = self.flows_wanted().then_some(spec);
        let first = potential::first_pass(Some(snapshot), new_loads, tally, self.pool);
        potential::finish_round(first, snapshot, new_loads, self.pool)
    }

    /// Blocked (optionally pooled) `Φ` of a continuous vector.
    pub fn phi(&self, loads: &[f64]) -> f64 {
        potential::phi_with(loads, self.pool)
    }

    /// Blocked (optionally pooled) exact `Φ̂` of a token vector.
    pub fn phi_hat(&self, loads: &[i64]) -> u128 {
        potential::phi_hat_with(loads, self.pool)
    }

    /// Blocked (optionally pooled) sum `Σ_{i<n} f(i)` — the building block
    /// for weighted potentials.
    pub fn sum(&self, n: usize, f: impl Fn(usize) -> f64 + Sync) -> f64 {
        potential::blocked_reduce(
            n,
            self.pool,
            |b| {
                let (s, e) = potential::block_bounds(b, n);
                (s..e).map(&f).sum::<f64>()
            },
            |a, b| a + b,
            0.0,
        )
    }

    /// Tallies the transfer `amount(u, v, slot)` of every edge of `g` in
    /// the one reduction order of [`crate::potential`]: node blocks, and in
    /// each node `u` its CSR upper slots (neighbours `v > u`, sorted; `slot`
    /// is `v`'s CSR slot in `u`'s row), so each edge is tallied once, by
    /// the block of its lower endpoint — as the canonical protocols' fused
    /// tally is. Zeroed (without evaluating `amount`) when flows are not
    /// wanted.
    pub fn graph_tally<T: Tally>(
        &self,
        g: &Graph,
        amount: impl Fn(u32, u32, usize) -> T::Amount + Sync,
    ) -> T {
        self.blocked_tally(g.n(), |s, e, tally: &mut T| {
            for u in s as u32..e as u32 {
                potential::upper_slots(g, u, |v, slot| tally.add(amount(u, v, slot)));
            }
        })
    }

    /// Tallies `flow(k)` over a list of `m` links or pairs (random-partner
    /// links, matching pairs, greedy transfers) in blocks of list items;
    /// zeroed (without evaluating `flow`) when flows are not wanted. A
    /// graph's edges go through [`StatsCtx::graph_tally`] instead.
    pub fn flow_tally(&self, m: usize, flow: impl Fn(usize) -> f64 + Sync) -> FlowTally {
        self.blocked_tally(m, |s, e, tally: &mut FlowTally| {
            (s..e).for_each(|k| tally.add(flow(k)))
        })
    }

    /// The token twin of [`StatsCtx::flow_tally`].
    pub fn token_tally(&self, m: usize, tokens: impl Fn(usize) -> u64 + Sync) -> TokenTally {
        self.blocked_tally(m, |s, e, tally: &mut TokenTally| {
            (s..e).for_each(|k| tally.add(tokens(k)))
        })
    }

    /// Folds `block(start, end, tally)` over the blocks of `0..n` in block
    /// order, or returns a zeroed tally when flows are not wanted.
    fn blocked_tally<T: Tally>(&self, n: usize, block: impl Fn(usize, usize, &mut T) + Sync) -> T {
        if !self.flows_wanted() {
            return T::default();
        }
        potential::blocked_reduce(
            n,
            self.pool,
            |b| {
                let (s, e) = potential::block_bounds(b, n);
                let mut tally = T::default();
                block(s, e, &mut tally);
                tally
            },
            T::merge,
            T::default(),
        )
    }
}

/// The execution strategy of an [`Engine`] — plain data, so drivers,
/// scenario files, and benches can carry the choice declaratively and
/// build the executor at the last moment.
///
/// All four backends produce **bit-identical** loads, Φ traces, and
/// statistics for every protocol: they evaluate the same kernel per node
/// and reduce statistics in the same fixed block order; backends only
/// decide *which worker* computes a node, how its input values reach it
/// (shared snapshot vs. explicit messages), and what
/// locality/communication accounting is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded executor walking `0..n`.
    Serial,
    /// Flat index-range chunking over a persistent [`WorkerPool`].
    Pool {
        /// Worker count (`0` = [`recommended_threads_cached`]).
        threads: usize,
    },
    /// The deleted sharded executor. Not a backend: every constructor and
    /// validator rejects it with [`Backend::SHARDED_REMOVED`]. The variant
    /// is kept only because the end-to-end benchmark (`perfbench`) names
    /// it in two match patterns.
    Sharded {
        /// How the node set would be partitioned into shards.
        partition: PartitionSpec,
        /// Worker count.
        threads: usize,
    },
    /// Message-passing execution: the shard runtime ([`crate::shard`])
    /// over its in-memory link — one long-lived worker thread **per
    /// shard**, holding only its shard's owned and halo values. The
    /// coordinator sends each worker typed vectors over a channel: its
    /// owned values and one halo batch per neighbour shard (the
    /// [`dlb_graphs::partition::ShardView::halo_groups`] schedule), with
    /// per-round communication accounting via [`Engine::comm_metrics`].
    Message {
        /// How the node set is partitioned into shards (= workers).
        partition: PartitionSpec,
        /// Dispatch owned values **shard-resident**: on diffusion rounds,
        /// a worker that kept the results it returned last round in its
        /// owned prefix is sent only the owned values that changed since
        /// (bit-pattern compare), as `(owned rank, value)` deltas, not
        /// its whole owned slice. The first round, a new plan, a
        /// respawned worker and a worker that refused its last round get
        /// the full slice. The coordinator holds the snapshot and gets
        /// results back every round, so loads, stats and fault recovery
        /// are unchanged.
        resident: bool,
    },
    /// Distributed execution: the shard runtime over its socket link —
    /// one `dlb-shard-worker` **OS process** per shard, the same round
    /// framed as `dlb-wire/3` over a byte transport (Unix domain sockets
    /// or TCP loopback — see [`Transport`](dlb_wire::Transport) and
    /// `docs/WIRE.md`). Same partition planning, same coordinator, same
    /// bit-identical results; serialization is the only new moving part,
    /// and [`Engine::comm_metrics`] additionally reports the framed bytes
    /// that actually crossed the sockets. A worker that dies mid-round
    /// surfaces as a typed [`EngineError`] naming the shard (phase
    /// [`EnginePhase::Wire`]) within the wire timeout — never a deadlock
    /// — or, with a fault plan armed, is respawned while the coordinator
    /// re-homes its shard. See the `process` module docs for the failure
    /// model and round modes.
    Process {
        /// How the node set is partitioned into shards (= worker
        /// processes).
        partition: PartitionSpec,
        /// Byte transport the coordinator and workers rendezvous over.
        transport: dlb_wire::Transport,
    },
}

impl Backend {
    /// Why [`Backend::Sharded`] is rejected, and what to use instead: the
    /// one error text of every place that refuses it.
    pub const SHARDED_REMOVED: &'static str = "the sharded backend was removed: use \
         backend = \"pool\" (shared-memory parallelism, faster end to end) or \
         backend = \"message\" (partitioned execution with communication metrics)";

    /// The partition of the shard runtime's backends (message and
    /// process); `None` for every other backend.
    pub fn partition(&self) -> Option<PartitionSpec> {
        match *self {
            Backend::Message { partition, .. } | Backend::Process { partition, .. } => {
                Some(partition)
            }
            Backend::Serial | Backend::Pool { .. } | Backend::Sharded { .. } => None,
        }
    }

    /// Stable backend name (`serial`, `pool`, `message`, `process`) for
    /// reports and scenario files.
    ///
    /// ```
    /// use dlb_core::{Backend, Transport};
    /// use dlb_graphs::partition::PartitionSpec;
    ///
    /// assert_eq!(Backend::Serial.name(), "serial");
    /// assert_eq!(Backend::Pool { threads: 4 }.name(), "pool");
    /// let process = Backend::Process {
    ///     partition: PartitionSpec::Range { shards: 4 },
    ///     transport: Transport::Unix,
    /// };
    /// assert_eq!(process.name(), "process");
    /// ```
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Pool { .. } => "pool",
            Backend::Sharded { .. } => "sharded",
            Backend::Message { .. } => "message",
            Backend::Process { .. } => "process",
        }
    }
}

/// The phase of a round in which a worker failure surfaced (see
/// [`EngineError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// The pool backend's chunked gather.
    Gather,
    /// The message backend's round: a worker thread died or refused
    /// the round, or the coordinator's precompute kernel panicked.
    Exchange,
    /// The process backend's wire round: a worker process died (EOF /
    /// broken pipe), timed out, or reported a failed round body over
    /// `dlb-wire/3`, or the coordinator's precompute kernel panicked.
    Wire,
}

impl std::fmt::Display for EnginePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EnginePhase::Gather => "gather",
            EnginePhase::Exchange => "exchange",
            EnginePhase::Wire => "wire",
        })
    }
}

/// A typed worker failure from a fallible round ([`Engine::try_round`]):
/// which shard failed, on which engine round, in which phase. The
/// panicking [`Engine::round`] formats this into its panic message, so
/// even legacy callers see the shard and round instead of a bare
/// `"worker panicked"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineError {
    /// The shard whose worker failed. For the pool backend — which has
    /// chunks, not shards — this is the failed chunk (= worker) index.
    pub shard: usize,
    /// The 1-based engine round of the failed attempt (counting executed
    /// rounds since construction; a failed attempt does not advance the
    /// count, so a retry reports the same round number).
    pub round: u64,
    /// Where in the round the failure surfaced.
    pub phase: EnginePhase,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine worker panicked during {}: shard {}, round {}",
            self.phase, self.shard, self.round
        )
    }
}

impl std::error::Error for EngineError {}

/// Worker threads to use by default: `DLB_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
///
/// The environment override exists because "available parallelism" is the
/// wrong answer in nested contexts — engines inside Monte-Carlo workers,
/// benches under instrumented runners — where it oversubscribes the
/// machine and destabilizes measurements.
///
/// A set-but-invalid `DLB_THREADS` (zero, non-numeric, or empty) panics
/// with a descriptive message rather than silently falling back: a typo'd
/// override that is quietly ignored produces wrong-looking measurements
/// that are much harder to debug than an immediate error.
///
/// Re-reads the environment on every call; hot constructors should use
/// [`recommended_threads_cached`].
pub fn recommended_threads() -> usize {
    if let Ok(value) = std::env::var("DLB_THREADS") {
        let parsed = value.trim().parse::<usize>();
        match parsed {
            Ok(n) if n >= 1 => return n,
            Ok(_) => panic!("DLB_THREADS must be a positive integer, got \"0\" (unset the variable to use available parallelism)"),
            Err(_) => panic!("DLB_THREADS must be a positive integer, got {value:?} (unset the variable to use available parallelism)"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// [`recommended_threads`], resolved once per process and cached in a
/// `OnceLock`. Used by hot constructors ([`Engine::parallel`] with
/// `threads == 0`) so building many short-lived engines — Monte-Carlo
/// sweeps, experiment grids — doesn't re-parse the environment each time.
/// Later changes to `DLB_THREADS` are deliberately not observed; tests
/// that exercise the env var use the uncached function.
pub fn recommended_threads_cached() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(recommended_threads)
}

/// Splits `0..n` into `threads` contiguous chunks of near-equal length.
pub(crate) fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.clamp(1, n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// A task shipped to a pool worker. The closure is lifetime-erased to
/// `'static`; see the safety argument in [`WorkerPool::gather`].
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads for the parallel gather.
///
/// Threads are spawned once at construction and parked on a channel
/// between rounds, so per-round dispatch costs two channel hops per worker
/// instead of an OS thread spawn/join pair.
pub struct WorkerPool {
    senders: Vec<mpsc::Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.senders.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads ≥ 1` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = mpsc::channel::<Task>();
            let handle = std::thread::Builder::new()
                .name(format!("dlb-engine-{i}"))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        task();
                    }
                })
                .expect("spawn engine worker");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Fills `out[v] = kernel(v)` for every index, fanning contiguous
    /// chunks out across the pool and blocking until all chunks finish.
    ///
    /// Chunk boundaries never change results: every slot is written by the
    /// same `kernel(v)` evaluation regardless of which worker runs it.
    pub fn gather<L, K>(&self, out: &mut [L], kernel: K)
    where
        L: Send,
        K: Fn(u32) -> L + Sync,
    {
        self.gather_chunks(out, |start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = kernel((start + k) as u32);
            }
        });
    }

    /// Chunk-granular form of [`WorkerPool::gather`]: `fill(start, chunk)`
    /// must write every slot of `chunk`, where `chunk` is the contiguous
    /// sub-slice of `out` beginning at global index `start`. Batch gather
    /// kernels (degree-run dispatch, see [`crate::kernels`]) use this
    /// directly so each worker runs one planned sweep per chunk instead of
    /// `n` virtual calls.
    ///
    /// Chunk boundaries never change results as long as `fill` writes
    /// `chunk[i]` as a pure function of `start + i` — the same contract
    /// [`WorkerPool::gather`] imposes per node.
    pub fn gather_chunks<L, F>(&self, out: &mut [L], fill: F)
    where
        L: Send,
        F: Fn(usize, &mut [L]) + Sync,
    {
        if let Err(chunks) = self.try_gather_chunks(out, fill) {
            panic!("engine worker panicked during gather (chunk {})", chunks[0]);
        }
    }

    /// Fallible form of [`WorkerPool::gather_chunks`]: instead of
    /// panicking when a chunk's fill panics, returns the sorted indices
    /// of the failed chunks (chunk `i` covers the `i`-th contiguous range
    /// of `out`, handled by worker `i`). Slots of a failed chunk are
    /// left unwritten; the surviving chunks are always completed — the
    /// barrier is released either way.
    pub fn try_gather_chunks<L, F>(&self, out: &mut [L], fill: F) -> Result<(), Vec<usize>>
    where
        L: Send,
        F: Fn(usize, &mut [L]) + Sync,
    {
        let ranges = chunk_ranges(out.len(), self.threads());
        self.try_fill::<L, (), _>(&ranges, out, &mut [], |start, chunk, _| fill(start, chunk))
    }

    /// [`WorkerPool::try_gather_chunks`] with per-block statistics slots:
    /// with a non-empty `partials` (one slot per
    /// [`REDUCE_BLOCK`](crate::potential::REDUCE_BLOCK) block of `out`)
    /// every chunk covers whole blocks, and `fill(start, chunk, parts)`
    /// receives the chunk's slots, so a worker can reduce each block it
    /// just wrote. With an empty `partials` the chunks are the plain
    /// even split and `parts` is empty.
    pub(crate) fn try_gather_blocks<L, T, F>(
        &self,
        out: &mut [L],
        partials: &mut [T],
        fill: F,
    ) -> Result<(), Vec<usize>>
    where
        L: Send,
        T: Send,
        F: Fn(usize, &mut [L], &mut [T]) + Sync,
    {
        let n = out.len();
        let ranges = if partials.is_empty() {
            chunk_ranges(n, self.threads())
        } else {
            let block = potential::REDUCE_BLOCK;
            chunk_ranges(potential::num_blocks(n), self.threads())
                .into_iter()
                .map(|(b0, b1)| (b0 * block, (b1 * block).min(n)))
                .collect()
        };
        self.try_fill(&ranges, out, partials, fill)
    }

    /// Dispatches one task per range of `out` (`ranges` are contiguous,
    /// ascending and cover `out`; a block-aligned range also takes its
    /// blocks' slots of a non-empty `partials`) and blocks until all
    /// finish. Returns the sorted indices of the ranges whose fill
    /// panicked.
    fn try_fill<L, T, F>(
        &self,
        ranges: &[(usize, usize)],
        out: &mut [L],
        partials: &mut [T],
        fill: F,
    ) -> Result<(), Vec<usize>>
    where
        L: Send,
        T: Send,
        F: Fn(usize, &mut [L], &mut [T]) + Sync,
    {
        let (done_tx, done_rx) = mpsc::channel::<(usize, bool)>();
        let mut dispatched = 0usize;

        {
            let fill = &fill;
            let mut rest = &mut out[..];
            let mut rest_parts = &mut partials[..];
            let mut offset = 0usize;
            for (w, &(start, end)) in ranges.iter().enumerate() {
                let (chunk, tail) = rest.split_at_mut(end - offset);
                rest = tail;
                offset = end;
                let parts_len = if rest_parts.is_empty() {
                    0
                } else {
                    potential::num_blocks(end - start)
                };
                let (parts, parts_tail) = rest_parts.split_at_mut(parts_len);
                rest_parts = parts_tail;
                let done = done_tx.clone();
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        fill(start, chunk, parts);
                    }));
                    // Send after the chunk borrow ends; a panic in the
                    // fill must still signal completion or the caller
                    // would deadlock.
                    let _ = done.send((w, outcome.is_ok()));
                });
                // SAFETY: the task borrows `fill`, `chunk` and `parts`
                // (disjoint sub-slices of `out` and `partials`) and
                // `done`. All of them outlive the task: this function
                // blocks on `done_rx` below until every dispatched task
                // has sent its completion message, which each task does
                // only after its last use of the borrows. Sub-slices are
                // pairwise disjoint (`split_at_mut`), so no two workers
                // alias. The lifetime erasure to `'static` is therefore
                // sound.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
                self.senders[w]
                    .send(task)
                    .expect("engine worker exited early");
                dispatched += 1;
            }
        }

        let mut failed = Vec::new();
        for _ in 0..dispatched {
            let (w, ok) = done_rx.recv().expect("engine worker exited early");
            if !ok {
                failed.push(w);
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            failed.sort_unstable();
            Err(failed)
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join to avoid
        // leaking threads past the engine's lifetime.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The unified executor: owns a [`Protocol`], the ping-pong back buffer,
/// the [`StatsMode`], and the execution strategy (serial or
/// pooled-parallel).
///
/// `Engine` implements [`ContinuousBalancer`] / [`DiscreteBalancer`]
/// (depending on the protocol's load type), so it plugs directly into the
/// convergence drivers of [`crate::runner`] and the experiment harness.
///
/// [`ContinuousBalancer`]: crate::model::ContinuousBalancer
/// [`DiscreteBalancer`]: crate::model::DiscreteBalancer
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    protocol: P,
    /// The engine-owned half of the ping-pong buffer pair. Before a round
    /// it is scratch space the gather writes into; after the `O(1)` swap
    /// it holds the round-start snapshot the hooks read. The caller's
    /// vector is the other half.
    back: Vec<P::Load>,
    /// The executor strategy (serial walk, flat pool, or the shard
    /// runtime over threads or worker processes).
    ///
    /// The pool's gather fn pointer is instantiated in its constructor —
    /// the only place that knows `P: Sync` — so [`Engine::round`] needs
    /// no thread-safety bounds and serial-only protocols stay `?Sync`.
    exec: Exec<P>,
    /// Per-block first-pass statistics the serial and pool executors fill
    /// during a fused gather (scratch, reused across rounds).
    partials: Vec<BlockPartial<P::Load>>,
    /// The last round's load summary, when its statistics pass made one
    /// (see [`Engine::round_summary`]).
    summary: Option<LoadSummary<<P::Load as LoadPotential>::Phi>>,
    /// The kernel dispatcher: selected flavour plus memoized per-graph
    /// [`GatherPlan`]s, consulted by every backend.
    kernel: KernelState,
    /// Which rounds compute statistics.
    stats_mode: StatsMode,
    /// Rounds executed since construction (drives [`StatsMode::EveryK`]).
    rounds_run: u64,
    /// The armed fault-injection schedule, if any. `Some` — even of an
    /// empty plan — makes the partitioned backends recover failed shards
    /// instead of failing the round.
    faults: Option<FaultPlan>,
    /// Cumulative injection/recovery counters (see
    /// [`Engine::fault_stats`]).
    fault_stats: FaultStats,
    /// Span recording. [`Telemetry::Off`] (the default) keeps every
    /// instrumentation site a no-op enum branch — no clock read, no
    /// allocation — so untraced rounds run the exact legacy path.
    telemetry: Telemetry,
}

/// Monomorphized pooled-gather entry point stored by parallel engines.
/// The kernel selection is the flavour and the memoized [`GatherPlan`]
/// (`None` when the protocol has no [`kernel_spec`] — the gather then
/// runs `node_new_load`). The trailing pair asks for the
/// fused statistics pass: one [`BlockPartial`] slot per reduction block
/// (empty for none) and whether the tally is wanted. Errors are the
/// failed chunk indices (see [`WorkerPool::try_gather_chunks`]).
type GatherFn<P> = fn(
    &WorkerPool,
    &P,
    &[<P as Protocol>::Load],
    &mut [<P as Protocol>::Load],
    KernelKind,
    Option<&GatherPlan>,
    &mut [BlockPartial<<P as Protocol>::Load>],
    bool,
) -> Result<(), Vec<usize>>;

#[allow(clippy::too_many_arguments)]
fn pooled_gather<P: Protocol + Sync>(
    pool: &WorkerPool,
    protocol: &P,
    snapshot: &[P::Load],
    out: &mut [P::Load],
    kind: KernelKind,
    plan: Option<&GatherPlan>,
    partials: &mut [BlockPartial<P::Load>],
    flows: bool,
) -> Result<(), Vec<usize>> {
    pool.try_gather_blocks(out, partials, |start, chunk, parts| {
        gather_range(protocol, kind, plan, snapshot, start, chunk, parts, flows);
    })
}

/// Gathers the nodes `start .. start + out.len()`: the serial executor
/// calls it once on `0..n`, pool workers once per chunk. With a `plan`
/// (resolved only for a [`kernel_spec`]) the kernel runs; without one,
/// [`Protocol::node_new_load`] per node. A non-empty `partials` (one
/// slot per block; `start` then block-aligned, and a plan given) fuses
/// the first statistics pass into the gather: the range is gathered one
/// [`REDUCE_BLOCK`](potential::REDUCE_BLOCK) block at a time, and the
/// kernel feeds each block's partial as it finishes every node and (when
/// `flows`) every upper slot, so the first pass reads nothing the gather
/// has not just read.
#[allow(clippy::too_many_arguments)]
fn gather_range<P: Protocol>(
    protocol: &P,
    kind: KernelKind,
    plan: Option<&GatherPlan>,
    snapshot: &[P::Load],
    start: usize,
    out: &mut [P::Load],
    partials: &mut [BlockPartial<P::Load>],
    flows: bool,
) {
    let (Some(plan), Some(spec)) = (plan, kernel_spec(protocol)) else {
        debug_assert!(partials.is_empty(), "a fused gather needs a plan");
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = protocol.node_new_load(snapshot, (start + k) as u32);
        }
        return;
    };
    if partials.is_empty() {
        let sink = &mut kernels::NoStats;
        kernels::gather_span(kind, plan, &spec, snapshot, start as u32, out, sink);
        return;
    }
    debug_assert_eq!(
        start % potential::REDUCE_BLOCK,
        0,
        "chunks are block-aligned"
    );
    let blocks = out.chunks_mut(potential::REDUCE_BLOCK);
    for (b, (block, part)) in blocks.zip(partials).enumerate() {
        let lo = (start + b * potential::REDUCE_BLOCK) as u32;
        *part = BlockPartial::default();
        if flows {
            kernels::gather_span(kind, plan, &spec, snapshot, lo, block, part);
        } else {
            let mut sink = potential::NoTally(BlockPartial::default());
            kernels::gather_span(kind, plan, &spec, snapshot, lo, block, &mut sink);
            *part = sink.0;
        }
    }
}

/// The protocol's [`Protocol::gather_spec`] when its graph is the very
/// graph [`Protocol::current_graph`] reports, else `None`. This is the
/// one rule, on every backend, for when the kernel runs: plans (gather
/// and shard) are built from the current graph, so a spec over any other
/// graph would be gathered with another graph's plan. Such a protocol
/// runs its `node_new_load` instead.
pub(crate) fn kernel_spec<P: Protocol>(protocol: &P) -> Option<GatherSpec<'_, P::Load>> {
    let spec = protocol.gather_spec()?;
    std::ptr::eq(spec.graph, protocol.current_graph()?).then_some(spec)
}

/// Per-round locality/communication metrics of the message or process
/// backend's current plan (see [`Engine::shard_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Shards in the current plan.
    pub shards: usize,
    /// Edges crossing shards in the current plan.
    pub edge_cut: usize,
    /// Total halo entries (boundary loads a distributed backend would
    /// exchange per round).
    pub halo: usize,
    /// Total interior nodes (computable with no exchange).
    pub interior: usize,
    /// Distinct plans derived so far (1 for fixed topologies; counts
    /// fingerprint-cache misses for dynamic sequences).
    pub plans_built: u64,
}

/// How many memoized shard plans a message or process engine keeps before
/// evicting the oldest. Periodic schedules cycle within the cache; fully
/// random sequences (fresh graph every round) rebuild each round
/// regardless.
const SHARD_PLAN_CACHE: usize = 32;

/// Fingerprint key for the graph-free trivial plan.
const TRIVIAL_PLAN_KEY: u64 = 0;

/// Fingerprint-keyed, capped-FIFO memoization of per-graph execution
/// plans, shared by the message and process backends
/// (`T = Arc<MessagePlan>`) and the kernel dispatcher
/// (`T = Arc<GatherPlan>`): while the protocol's `graph_version` is
/// unchanged the cached entry is reused without touching the graph; on a
/// version change the graph is re-fingerprinted and either found in the
/// cache (periodic schedules) or a new entry is built. Build inputs
/// beyond the graph (e.g. the partition spec) live with the executor and
/// are captured by the `build` closure.
#[derive(Debug)]
pub(crate) struct PlanCache<T> {
    /// Memoized entries keyed by graph fingerprint, oldest first.
    entries: Vec<(u64, T)>,
    /// Index into `entries` of the entry in use (`usize::MAX` before the
    /// first refresh).
    current: usize,
    /// The protocol's `graph_version` the current entry was resolved for.
    cached_version: Option<u64>,
    pub(crate) built: u64,
}

impl<T> PlanCache<T> {
    pub(crate) fn new() -> Self {
        PlanCache {
            entries: Vec::new(),
            current: usize::MAX,
            cached_version: None,
            built: 0,
        }
    }

    /// Whether a current entry exists (false before the first round).
    pub(crate) fn resolved(&self) -> bool {
        self.current < self.entries.len()
    }

    pub(crate) fn current(&self) -> &T {
        &self.entries[self.current].1
    }

    /// Fingerprint key of the current entry (the process backend's plan
    /// broadcast key).
    pub(crate) fn current_key(&self) -> u64 {
        self.entries[self.current].0
    }

    /// Resolves the entry for the protocol's current graph, building via
    /// `build(graph, n)` on a cache miss.
    pub(crate) fn refresh<P: Protocol>(
        &mut self,
        protocol: &P,
        build: impl FnOnce(Option<&Graph>, usize) -> T,
    ) {
        let version = protocol.graph_version();
        if self.cached_version == Some(version) && self.resolved() {
            return;
        }
        let (key, graph) = match protocol.current_graph() {
            Some(g) => (graph_fingerprint(g), Some(g)),
            None => (TRIVIAL_PLAN_KEY, None),
        };
        let idx = match self.entries.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                if self.entries.len() >= SHARD_PLAN_CACHE {
                    self.entries.remove(0);
                }
                let entry = build(graph, protocol.n());
                self.entries.push((key, entry));
                self.built += 1;
                self.entries.len() - 1
            }
        };
        self.current = idx;
        self.cached_version = Some(version);
    }

    /// [`PlanCache::refresh`] under a `Plan` span on the engine lane,
    /// recorded only when the cache actually builds an entry.
    fn refresh_traced<P: Protocol>(
        &mut self,
        protocol: &P,
        tel: &Telemetry,
        round_no: u64,
        build: impl FnOnce(Option<&Graph>, usize) -> T,
    ) {
        let t_plan = tel.start();
        let built_before = self.built;
        self.refresh(protocol, build);
        if self.built > built_before {
            tel.record(ENGINE_LANE, round_no, SpanPhase::Plan, t_plan);
        }
    }
}

/// The engine's kernel dispatcher: the selected [`KernelKind`] and the
/// memoized per-graph [`GatherPlan`]s (same fingerprint cache as the
/// shard plans, so dynamic sequences that revisit graphs reuse their
/// degree analysis). Every backend consults it; protocols that expose no
/// [`Protocol::gather_spec`] never build a plan and keep their
/// `node_new_load` path.
#[derive(Debug)]
struct KernelState {
    kind: KernelKind,
    plans: PlanCache<std::sync::Arc<GatherPlan>>,
}

impl KernelState {
    fn new() -> Self {
        KernelState {
            kind: kernels::kernel_kind_cached(),
            plans: PlanCache::new(),
        }
    }

    /// Resolves the gather plan for the protocol's current graph (under a
    /// `Plan` span when one is built), or `None` when the protocol has no
    /// [`kernel_spec`]. The `Arc` is cloned out so the caller holds the
    /// plan independently of later cache evictions.
    fn resolve<P: Protocol>(
        &mut self,
        protocol: &P,
        tel: &Telemetry,
        round_no: u64,
    ) -> Option<Arc<GatherPlan>> {
        kernel_spec(protocol)?;
        self.plans
            .refresh_traced(protocol, tel, round_no, |graph, _n| {
                Arc::new(GatherPlan::build(graph.expect("graph checked above")))
            });
        Some(self.plans.current().clone())
    }
}

/// Per-round communication metrics of the message or process backend's
/// most recent round (see [`Engine::comm_metrics`]), counted once, by the
/// shard runtime's coordinator, for both links. This is the telemetry a
/// distributed deployment pays for real: the per-round exchange volume
/// that communication-aware diffusive balancers optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommMetrics {
    /// Shard workers in the round.
    pub shards: usize,
    /// Halo batches the coordinator wrote this round (one per ordered
    /// neighbour-shard pair with a nonempty exchange group on diffusion
    /// rounds; none on precomputed rounds). Each batch is attributed to
    /// the shard whose owned values it carries.
    pub messages: usize,
    /// Total load values carried by those batches.
    pub values_sent: usize,
    /// `values_sent` in bytes of the load type — the wire volume a
    /// distributed transport would move per round.
    pub halo_bytes: usize,
    /// Largest per-shard send volume (values) — the straggler bound on
    /// the exchange step.
    pub max_shard_values_sent: usize,
    /// Owned values the coordinator shipped **to** workers as full
    /// slices this round: round-start values on diffusion rounds, new
    /// values on precomputed rounds. `n` on legacy rounds; under
    /// resident dispatch only the slices of shards whose owned prefix
    /// does not hold their last results (zero in steady state).
    pub owned_values_in: usize,
    /// Owned values workers shipped **back** this round (their results):
    /// `n` on every round in which no shard failed.
    pub owned_values_out: usize,
    /// Changed owned values sent to resident workers as `(owned rank,
    /// value)` deltas this round.
    pub delta_values: usize,
    /// Result scatters recorded as a `collect` phase: 1 on every
    /// resident round, 0 on legacy rounds and on the process backend.
    pub collects: usize,
    /// Process backend only: framed `dlb-wire/3` bytes the coordinator
    /// actually **wrote** to worker sockets this round — envelopes
    /// included, measured at the socket, not reconstructed as
    /// `values × size_of`. Zero on the in-process backends, which move
    /// no bytes.
    pub wire_bytes_out: usize,
    /// Process backend only: framed wire bytes the coordinator **read**
    /// back from worker sockets this round.
    pub wire_bytes_in: usize,
}

/// The executor strategy of an engine, with everything monomorphized at
/// construction time.
#[derive(Debug)]
enum Exec<P: Protocol> {
    Serial,
    Pool {
        pool: WorkerPool,
        gather: GatherFn<P>,
    },
    Message(Box<ShardExec<<P as Protocol>::Load, ThreadLink<<P as Protocol>::Load>>>),
    Process(Box<ShardExec<<P as Protocol>::Load, WireLink>>),
}

impl<P: Protocol> Exec<P> {
    /// The pool backing statistics reductions, if any. The message and
    /// process backends fold their statistics on the coordinator
    /// (`None`): the blocked reductions are bit-identical with or
    /// without a pool, and their shard workers are round-scoped
    /// channel/socket servers, not a gather pool.
    fn stats_pool(&self) -> Option<&WorkerPool> {
        match self {
            Exec::Serial | Exec::Message(_) | Exec::Process(_) => None,
            Exec::Pool { pool, .. } => Some(pool),
        }
    }

    /// The partitioned backends' memoized exchange plans (`None` on the
    /// serial and pool backends).
    fn plans(&self) -> Option<&PlanCache<Arc<MessagePlan>>> {
        match self {
            Exec::Message(exec) => Some(&exec.plans),
            Exec::Process(exec) => Some(&exec.plans),
            Exec::Serial | Exec::Pool { .. } => None,
        }
    }

    /// Resolves the partitioned backends' exchange plan for the
    /// protocol's current graph — after [`Protocol::begin_round`], which
    /// draws a dynamic protocol's round graph — under a `Plan` span when
    /// the fingerprint cache builds a new one. A no-op on the serial and
    /// pool backends.
    fn refresh_plan(&mut self, protocol: &P, tel: &Telemetry, round_no: u64) {
        let (spec, plans) = match self {
            Exec::Message(exec) => (exec.spec, &mut exec.plans),
            Exec::Process(exec) => (exec.spec, &mut exec.plans),
            Exec::Serial | Exec::Pool { .. } => return,
        };
        plans.refresh_traced(protocol, tel, round_no, |graph, n| {
            Arc::new(MessagePlan::build(&spec, graph, n))
        });
    }
}

/// One round of a partitioned backend over either link: the shard
/// runtime's coordinator with the protocol's gather spec and its
/// `node_new_load` as the precompute kernel.
fn shard_round<P: Protocol, K: ShardLink<P::Load>>(
    exec: &mut ShardExec<P::Load, K>,
    protocol: &P,
    (snapshot, out): (&[P::Load], &mut [P::Load]),
    kind: KernelKind,
    (faults, fault_stats): (Option<&FaultPlan>, &mut FaultStats),
    tel: &Telemetry,
    round_no: u64,
) -> Result<(), EngineError> {
    exec.round(
        snapshot,
        out,
        kernel_spec(protocol),
        kind,
        &mut |nodes, values| {
            values.extend(nodes.iter().map(|&v| protocol.node_new_load(snapshot, v)))
        },
        faults,
        fault_stats,
        tel,
        round_no,
    )
    .map_err(|shard| EngineError {
        shard,
        round: round_no,
        phase: K::PHASE,
    })
}

impl<P: Protocol> Engine<P> {
    /// Serial executor for `protocol`.
    pub fn serial(protocol: P) -> Self {
        Engine::from_exec(protocol, Exec::Serial)
    }

    /// An engine around an already-built executor, with every other
    /// setting at its default.
    fn from_exec(protocol: P, exec: Exec<P>) -> Self {
        let n = protocol.n();
        Engine {
            protocol,
            back: vec![P::Load::default(); n],
            exec,
            partials: Vec::new(),
            summary: None,
            kernel: KernelState::new(),
            stats_mode: StatsMode::default(),
            rounds_run: 0,
            faults: None,
            fault_stats: FaultStats::default(),
            telemetry: Telemetry::Off,
        }
    }

    /// Parallel executor with an explicit worker count (`0` means
    /// [`recommended_threads_cached`]). A persistent worker pool is
    /// spawned once here and reused every round; it is clamped to `n`
    /// workers so tiny graphs never hold parked idle threads. Like every
    /// non-serial constructor, this is where thread-safety is demanded of
    /// a protocol.
    pub fn parallel(protocol: P, threads: usize) -> Self
    where
        P: Sync,
    {
        let threads = if threads == 0 {
            recommended_threads_cached()
        } else {
            threads
        };
        let n = protocol.n();
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            // A one-worker pool adds two channel hops per round for zero
            // parallelism; the serial executor is the same computation
            // (bit-identical by the engine invariant) without the fan-out
            // tax, so take it outright.
            return Engine::serial(protocol);
        }
        Engine::from_exec(
            protocol,
            Exec::Pool {
                pool: WorkerPool::new(threads),
                gather: pooled_gather::<P>,
            },
        )
    }

    /// Message-passing executor: one long-lived worker thread per shard,
    /// each holding only its shard's owned and halo values. This is the
    /// shard runtime (see [`crate::shard`]) over its in-memory link: the
    /// coordinator sends each worker its plan (the shard's local CSR),
    /// then every round its owned round-start values and one halo batch
    /// per neighbour shard (the [`ShardView::halo_groups`] schedule), cut
    /// from the snapshot; the worker gathers its owned rows and sends its
    /// results back. Per-round exchange volume is reported by
    /// [`Engine::comm_metrics`].
    ///
    /// Loads, Φ traces, and statistics are bit-identical to every other
    /// backend: the workers run the same kernel over a local CSR that
    /// keeps the global slot order and degrees, and statistics fold
    /// through the identical block-ordered [`StatsCtx`] reductions.
    /// Protocols without a [`Protocol::gather_spec`] cannot ship their
    /// kernel, so the coordinator evaluates their `node_new_load` and the
    /// workers return the values it sent. Protocol code never runs on a
    /// worker thread, so `P` need not be `Sync`.
    ///
    /// [`ShardView::halo_groups`]: dlb_graphs::partition::ShardView::halo_groups
    pub fn message(protocol: P, partition: PartitionSpec) -> Self {
        Engine::message_with(protocol, partition, false)
    }

    /// [`Engine::message`] with [`Backend::Message`]'s `resident`
    /// dispatch policy chosen explicitly.
    fn message_with(protocol: P, partition: PartitionSpec, resident: bool) -> Self {
        assert!(partition.shards() >= 1, "message backend needs >= 1 shard");
        let link = ThreadLink::spawn(partition.shards(), resident);
        let exec = ShardExec::new(partition, link);
        Engine::from_exec(protocol, Exec::Message(Box::new(exec)))
    }

    /// Process executor: one `dlb-shard-worker` **OS process** per shard,
    /// spawned here and connected over `transport` (the fleet lives for
    /// the engine's lifetime; [`Drop`] shuts it down and reaps every
    /// child). This is the shard runtime of [`Engine::message`] over the
    /// socket link: the same coordinator, plans and recovery, with every
    /// value framed as `dlb-wire/3` — see [`Backend::Process`] and the
    /// [`process`](crate::process) module docs.
    ///
    /// Like [`Engine::message`] this does not require `P: Sync`: the
    /// coordinator is single-threaded and the workers are separate
    /// processes. Panics if the worker binary cannot be found (build it
    /// with `cargo build -p dlb-worker`, or set `DLB_WORKER_BIN`) or a
    /// worker fails its handshake.
    ///
    /// ```no_run
    /// use dlb_core::continuous::ContinuousDiffusion;
    /// use dlb_core::{Engine, Transport};
    /// use dlb_graphs::partition::PartitionSpec;
    /// use dlb_graphs::topology;
    ///
    /// let g = topology::torus2d(8, 8);
    /// let mut loads = vec![1.0; 64];
    /// loads[0] = 640.0;
    /// let mut engine = Engine::process(
    ///     ContinuousDiffusion::new(&g),
    ///     PartitionSpec::Range { shards: 4 },
    ///     Transport::Unix,
    /// );
    /// engine.round(&mut loads);
    /// let comm = engine.comm_metrics().unwrap();
    /// assert!(comm.wire_bytes_out > 0);
    /// ```
    pub fn process(protocol: P, partition: PartitionSpec, transport: dlb_wire::Transport) -> Self {
        assert!(partition.shards() >= 1, "process backend needs >= 1 shard");
        let link = WireLink::spawn(partition.shards(), transport);
        let exec = ShardExec::new(partition, link);
        Engine::from_exec(protocol, Exec::Process(Box::new(exec)))
    }

    /// Builds the executor a [`Backend`] value describes. Protocols that
    /// cannot be `Sync` must call [`Engine::serial`] directly. Panics with
    /// [`Backend::SHARDED_REMOVED`] on [`Backend::Sharded`].
    pub fn with_backend(protocol: P, backend: Backend) -> Self
    where
        P: Sync,
    {
        match backend {
            Backend::Serial => Engine::serial(protocol),
            Backend::Pool { threads } => Engine::parallel(protocol, threads),
            Backend::Sharded { .. } => panic!("{}", Backend::SHARDED_REMOVED),
            Backend::Message {
                partition,
                resident,
            } => Engine::message_with(protocol, partition, resident),
            Backend::Process {
                partition,
                transport,
            } => Engine::process(protocol, partition, transport),
        }
    }

    /// Selects the gather kernel flavour, builder-style. The default is
    /// [`KernelKind::Unrolled`], overridable process-wide through the
    /// `DLB_KERNEL` environment variable (`scalar` | `unrolled`);
    /// this call overrides both. All flavours are bit-identical — the
    /// selection trades only speed.
    pub fn with_kernel(mut self, kind: KernelKind) -> Self {
        self.set_kernel(kind);
        self
    }

    /// Selects the gather kernel flavour for subsequent rounds.
    pub fn set_kernel(&mut self, kind: KernelKind) {
        self.kernel.kind = kind;
    }

    /// The gather kernel flavour in effect.
    pub fn kernel(&self) -> KernelKind {
        self.kernel.kind
    }

    /// Sets the statistics mode, builder-style.
    pub fn with_stats_mode(mut self, mode: StatsMode) -> Self {
        self.set_stats_mode(mode);
        self
    }

    /// Sets the statistics mode for subsequent rounds.
    pub fn set_stats_mode(&mut self, mode: StatsMode) {
        if let StatsMode::EveryK(k) = mode {
            assert!(k >= 1, "StatsMode::EveryK needs k >= 1");
        }
        self.stats_mode = mode;
    }

    /// The statistics mode in effect.
    pub fn stats_mode(&self) -> StatsMode {
        self.stats_mode
    }

    /// Arms a deterministic [`FaultPlan`], builder-style.
    ///
    /// With a plan armed — even an empty one — the message and process
    /// backends recover failed shards instead of failing the round: the
    /// coordinator injects the plan's faults (killing a worker, holding a
    /// shard's dispatch back, dropping, duplicating or reordering the
    /// halo batches it writes), and re-homes every shard whose worker
    /// died, refused the round or answered with the wrong number of
    /// values, recomputing its owned values from the round-start
    /// snapshot; a dead worker is respawned. Recovery is exact, so an
    /// armed engine's loads stay bit-identical to an unarmed one's.
    /// Without a plan every shard failure is the round's typed
    /// [`EngineError`]. The serial and pool backends have no shard
    /// workers, so they ignore the plan (pool kernel panics still
    /// surface through [`Engine::try_round`] either way).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.set_faults(Some(plan));
        self
    }

    /// Arms or disarms the fault plan for subsequent rounds (see
    /// [`Engine::with_faults`]).
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The armed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Cumulative fault-injection and recovery counters since
    /// construction (all zero when no plan was ever armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Arms span recording, builder-style. An armed engine records one
    /// typed span per round section — plan builds, per-shard gathers, the
    /// shard workers' halo-fill and gather phases, the coordinator's
    /// scatters and wire encode/decode, stats, fault recovery — into
    /// the handle's per-lane ring buffers. Recording never touches loads:
    /// armed rounds stay bit-identical to [`Telemetry::Off`] rounds, and
    /// `Off` (the default) is a no-op enum branch at every site.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// Arms or disarms span recording for subsequent rounds (see
    /// [`Engine::with_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle in effect.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// One unified read of every counter family this engine maintains:
    /// round count, message-backend communication volume, shard-plan
    /// locality, fault injection/recovery, and the recorder's own span
    /// accounting. Families a backend doesn't produce are `None` — the
    /// same availability rules as [`Engine::comm_metrics`] and
    /// [`Engine::shard_metrics`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let comm = self.comm_metrics().map(|c| CommCounters {
            shards: c.shards as u64,
            messages: c.messages as u64,
            values_sent: c.values_sent as u64,
            halo_bytes: c.halo_bytes as u64,
            max_shard_values_sent: c.max_shard_values_sent as u64,
            owned_values_in: c.owned_values_in as u64,
            owned_values_out: c.owned_values_out as u64,
            delta_values: c.delta_values as u64,
            collects: c.collects as u64,
        });
        let shard = self.shard_metrics().map(|s| ShardCounters {
            shards: s.shards as u64,
            edge_cut: s.edge_cut as u64,
            halo: s.halo as u64,
            interior: s.interior as u64,
            plans_built: s.plans_built,
        });
        let (spans_recorded, spans_dropped) = match self.telemetry.recorder() {
            Some(r) => (r.recorded(), r.dropped()),
            None => (0, 0),
        };
        MetricsSnapshot {
            rounds_run: self.rounds_run,
            comm,
            shard,
            faults: FaultCounters {
                faults_injected: self.fault_stats.faults_injected,
                recoveries: self.fault_stats.recoveries,
                rehomed_values: self.fault_stats.rehomed_values,
            },
            spans_recorded,
            spans_dropped,
        }
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol (reseeding, resets, diagnostics).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Consumes the engine, returning the protocol.
    pub fn into_protocol(self) -> P {
        self.protocol
    }

    /// Worker count (1 for the serial executor; the shard count for the
    /// message and process backends — one worker per shard).
    pub fn threads(&self) -> usize {
        match &self.exec {
            Exec::Message(exec) => exec.link.shards(),
            Exec::Process(exec) => ShardLink::<P::Load>::shards(&exec.link),
            other => other.stats_pool().map_or(1, WorkerPool::threads),
        }
    }

    /// The backend this engine executes with, reconstructed as the
    /// declarative [`Backend`] value (thread counts are the resolved,
    /// post-clamping ones).
    pub fn backend(&self) -> Backend {
        match &self.exec {
            Exec::Serial => Backend::Serial,
            Exec::Pool { pool, .. } => Backend::Pool {
                threads: pool.threads(),
            },
            Exec::Message(exec) => Backend::Message {
                partition: exec.spec,
                resident: exec.link.resident,
            },
            Exec::Process(exec) => Backend::Process {
                partition: exec.spec,
                transport: exec.link.transport,
            },
        }
    }

    /// Locality/communication metrics of the message or process
    /// backend's current plan: `None` for the serial and pool
    /// backends, and before the first round (plans are derived lazily
    /// against the round's graph).
    ///
    /// ```
    /// use dlb_core::continuous::ContinuousDiffusion;
    /// use dlb_core::Engine;
    /// use dlb_graphs::partition::PartitionSpec;
    /// use dlb_graphs::topology;
    ///
    /// let g = topology::torus2d(4, 4);
    /// let mut engine =
    ///     Engine::message(ContinuousDiffusion::new(&g), PartitionSpec::Range { shards: 2 });
    /// assert!(engine.shard_metrics().is_none()); // no round yet, no plan yet
    ///
    /// let mut loads = vec![1.0_f64; 16];
    /// engine.round(&mut loads);
    /// let metrics = engine.shard_metrics().unwrap();
    /// assert_eq!(metrics.shards, 2);
    /// assert!(metrics.halo > 0); // a split torus always crosses shards
    /// ```
    pub fn shard_metrics(&self) -> Option<ShardMetrics> {
        let plans = self.exec.plans().filter(|plans| plans.resolved())?;
        let plan = &plans.current().plan;
        Some(ShardMetrics {
            shards: plan.views().len(),
            edge_cut: plan.edge_cut(),
            halo: plan.halo_total(),
            interior: plan.interior_total(),
            plans_built: plans.built,
        })
    }

    /// Communication metrics of the message or process backend's most
    /// recent round (messages posted, values/bytes moved, largest
    /// per-shard send — plus, on the process backend, the framed
    /// `dlb-wire/3` bytes in `wire_bytes_out`/`wire_bytes_in`): `None`
    /// for every other backend, and before the first round.
    /// Shared-memory backends move no messages — their "exchange" is
    /// the snapshot swap — so only the communicating backends report
    /// here.
    ///
    /// ```
    /// use dlb_core::continuous::ContinuousDiffusion;
    /// use dlb_core::Engine;
    /// use dlb_graphs::partition::PartitionSpec;
    /// use dlb_graphs::topology;
    ///
    /// let g = topology::torus2d(4, 4);
    /// let mut engine =
    ///     Engine::message(ContinuousDiffusion::new(&g), PartitionSpec::Range { shards: 2 });
    /// assert!(engine.comm_metrics().is_none()); // nothing exchanged yet
    ///
    /// let mut loads = vec![1.0_f64; 16];
    /// engine.round(&mut loads);
    /// let comm = engine.comm_metrics().unwrap();
    /// assert_eq!(comm.values_sent, engine.shard_metrics().unwrap().halo);
    /// assert_eq!(comm.wire_bytes_out, 0); // in-process channels, no framing
    /// ```
    pub fn comm_metrics(&self) -> Option<CommMetrics> {
        match &self.exec {
            Exec::Message(exec) => exec.last_comm,
            Exec::Process(exec) => exec.last_comm,
            _ => None,
        }
    }

    /// OS process ids of the process backend's shard workers, in shard
    /// order (`None` on every other backend) — the operator's handle for
    /// `ps`/`/proc` inspection and for external chaos tooling.
    pub fn process_worker_pids(&self) -> Option<Vec<u32>> {
        match &self.exec {
            Exec::Process(exec) => Some(exec.link.worker_pids()),
            _ => None,
        }
    }

    /// Kills the given shard's worker process (SIGKILL) — the chaos-
    /// testing entry point proving the no-deadlock design. Without a
    /// [`FaultPlan`] armed, the next [`Engine::try_round`] returns a
    /// typed [`EngineError`] naming the shard (phase
    /// [`EnginePhase::Wire`]) within the wire timeout instead of hanging
    /// on a barrier, and so does every later round. With a plan armed
    /// (see [`Engine::with_faults`]) the next round re-homes the shard
    /// and respawns its worker instead. Panics on non-process backends.
    pub fn process_kill_worker(&mut self, shard: usize) {
        match &mut self.exec {
            Exec::Process(exec) => ShardLink::<P::Load>::kill(&mut exec.link, shard),
            _ => panic!("process_kill_worker needs the process backend"),
        }
    }

    /// On-demand potential of `loads` as this engine's protocol reports it
    /// in its statistics, computed over the engine's pool when parallel.
    /// Bit-identical to the `phi_after` a stats-computing round would
    /// report for the same vector — this is the convergence drivers'
    /// fallback for rounds whose stats were skipped.
    pub fn potential(&self, loads: &[P::Load]) -> <P::Load as LoadPotential>::Phi {
        let ctx = StatsCtx::new(self.exec.stats_pool(), StatsLevel::Flows);
        self.protocol.potential_of(loads, &ctx)
    }

    /// Executes one synchronous round.
    ///
    /// `loads` enters holding the round-start loads and leaves holding the
    /// new loads; internally the vector is **swapped** with the engine's
    /// back buffer, never copied (the caller's `Vec` identity/capacity may
    /// therefore change across rounds). Returns the round statistics when
    /// the engine's [`StatsMode`] computes them this round.
    pub fn round(&mut self, loads: &mut Vec<P::Load>) -> Option<P::Stats> {
        match self.try_round(loads) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Executes one synchronous round, returning a typed
    /// [`EngineError`] — shard, round, phase — instead of panicking when
    /// a worker's kernel fails. Same swap semantics as [`Engine::round`].
    ///
    /// On `Err` the caller's vector still holds the round-start loads
    /// (the swap never happened) and the engine's round counter does not
    /// advance; note [`Protocol::begin_round`] has already run, so a
    /// dynamic protocol's graph sequence has consumed the failed round's
    /// graph.
    pub fn try_round(&mut self, loads: &mut Vec<P::Load>) -> Result<Option<P::Stats>, EngineError> {
        assert_eq!(
            loads.len(),
            self.protocol.n(),
            "load vector length must equal n"
        );
        let round_no = self.rounds_run + 1;
        let level = self.stats_mode.level_for(round_no);
        self.summary = None;
        self.protocol.begin_round(loads);
        let fused;
        {
            let protocol = &self.protocol;
            let snapshot = &loads[..];
            let faults = self.faults.as_ref();
            let tel = &self.telemetry;
            // Resolve the kernel selection *after* begin_round: dynamic
            // protocols draw their round graph there, and the gather plan
            // must analyse that graph. A `Plan` span is emitted only when
            // the fingerprint cache actually built a new plan. Shard
            // workers build their own gather plans from their local CSRs,
            // so the partitioned backends resolve none here.
            let kind = self.kernel.kind;
            let plan = match self.exec {
                Exec::Serial | Exec::Pool { .. } => self.kernel.resolve(protocol, tel, round_no),
                Exec::Message(_) | Exec::Process(_) => None,
            };
            // Stats rounds with a plan (serial and pool, a kernel spec)
            // fuse the first statistics pass into the gather.
            fused = level.is_some() && plan.is_some();
            let flows = level == Some(StatsLevel::Flows);
            let blocks = if fused {
                potential::num_blocks(snapshot.len())
            } else {
                0
            };
            self.partials.clear();
            self.partials.resize(blocks, BlockPartial::default());
            // The message and process backends share one exchange plan.
            self.exec.refresh_plan(protocol, tel, round_no);
            match &mut self.exec {
                Exec::Serial => {
                    let t0 = tel.start();
                    gather_range(
                        protocol,
                        kind,
                        plan.as_deref(),
                        snapshot,
                        0,
                        &mut self.back,
                        &mut self.partials,
                        flows,
                    );
                    tel.record(ENGINE_LANE, round_no, SpanPhase::GatherInterior, t0);
                }
                Exec::Pool { pool, gather } => {
                    let t0 = tel.start();
                    gather(
                        pool,
                        protocol,
                        snapshot,
                        &mut self.back,
                        kind,
                        plan.as_deref(),
                        &mut self.partials,
                        flows,
                    )
                    .map_err(|chunks| EngineError {
                        shard: chunks[0],
                        round: round_no,
                        phase: EnginePhase::Gather,
                    })?;
                    tel.record(ENGINE_LANE, round_no, SpanPhase::GatherInterior, t0);
                }
                Exec::Message(exec) => shard_round(
                    exec,
                    protocol,
                    (snapshot, &mut self.back),
                    kind,
                    (faults, &mut self.fault_stats),
                    tel,
                    round_no,
                )?,
                Exec::Process(exec) => shard_round(
                    exec,
                    protocol,
                    (snapshot, &mut self.back),
                    kind,
                    (faults, &mut self.fault_stats),
                    tel,
                    round_no,
                )?,
            }
        }
        // O(1) ping-pong: the caller's vector becomes the back buffer
        // (holding the round-start snapshot), the gather output becomes
        // the caller's loads.
        std::mem::swap(loads, &mut self.back);
        self.rounds_run += 1;
        self.protocol.finish_round(&self.back, loads);
        Ok(level.map(|level| self.stats_pass(level, fused, loads)))
    }

    /// The statistics of the round that left `self.back` (snapshot) and
    /// `new_loads`, under a `stats` span. A canonical protocol's
    /// `RoundTotals` are computed here — from the partials the gather
    /// left in `self.partials` when `fused`, else by the same per-block
    /// function over the two vectors — handed to
    /// [`Protocol::compute_stats`], and kept as the round's
    /// [`LoadSummary`].
    fn stats_pass(&mut self, level: StatsLevel, fused: bool, new_loads: &[P::Load]) -> P::Stats {
        let t0 = self.telemetry.start();
        let pool = self.exec.stats_pool();
        let snapshot = &self.back[..];
        let spec = self.protocol.gather_spec();
        let totals = spec.as_ref().map(|spec| {
            let first = if fused {
                self.partials
                    .iter()
                    .fold(BlockPartial::default(), |acc, &p| acc.merge(p))
            } else {
                let tally = (level == StatsLevel::Flows).then_some(spec);
                potential::first_pass(Some(snapshot), new_loads, tally, pool)
            };
            potential::finish_round(first, snapshot, new_loads, pool)
        });
        let mut ctx = StatsCtx::new(pool, level);
        ctx.totals = totals
            .as_ref()
            .zip(spec.as_ref())
            .map(|(t, spec)| EngineTotals {
                totals: t as &dyn std::any::Any,
                inputs: [
                    slice_id(spec.graph.neighbor_slots()),
                    slice_id(snapshot),
                    slice_id(new_loads),
                ],
            });
        let stats = self.protocol.compute_stats(snapshot, new_loads, &ctx);
        self.summary = totals.map(|t| t.summary);
        self.telemetry
            .record(ENGINE_LANE, self.rounds_run, SpanPhase::Stats, t0);
        stats
    }

    /// The load summary — potential, min, max and total — of the loads
    /// the last round produced, when that round's statistics pass
    /// computed it (stats rounds of a protocol with a
    /// [`Protocol::gather_spec`]); `None` otherwise, and before any round.
    /// Use [`Engine::summary`] to compute one on demand.
    pub fn round_summary(&self) -> Option<LoadSummary<<P::Load as LoadPotential>::Phi>> {
        self.summary
    }

    /// The load summary of `loads`, computed now under a `stats` span:
    /// for a protocol with a [`Protocol::gather_spec`], one `Φ` pass (the
    /// first sweep yields total, min and max together); otherwise
    /// [`Protocol::potential_of`] plus one sweep for min, max and total.
    /// Bit-identical to the [`Engine::round_summary`] a stats round
    /// reports for the same vector.
    pub fn summary(&self, loads: &[P::Load]) -> LoadSummary<<P::Load as LoadPotential>::Phi> {
        let t0 = self.telemetry.start();
        let pool = self.exec.stats_pool();
        let summary = if self.protocol.gather_spec().is_some() {
            potential::summary_with(loads, pool)
        } else {
            let ctx = StatsCtx::new(pool, StatsLevel::Flows);
            let first = potential::first_pass(None, loads, None, pool);
            first.summary(self.protocol.potential_of(loads, &ctx))
        };
        self.telemetry
            .record(ENGINE_LANE, self.rounds_run, SpanPhase::Stats, t0);
        summary
    }

    /// Min, max and total of `loads` in one sweep under a `stats` span:
    /// the [`LoadSummary`] without its potential, for a caller that
    /// already has `Φ` (e.g. from the round's [`Protocol::Stats`]).
    pub fn extent(&self, loads: &[P::Load]) -> LoadSummary<()> {
        let t0 = self.telemetry.start();
        let first = potential::first_pass(None, loads, None, self.exec.stats_pool());
        self.telemetry
            .record(ENGINE_LANE, self.rounds_run, SpanPhase::Stats, t0);
        first.summary(())
    }

    /// Executes `k` rounds back to back and returns the *last* round's
    /// statistics (`None` when `k == 0` or the final round's stats were
    /// skipped by the [`StatsMode`]). Replaces the hand-rolled
    /// `for _ in 0..k { engine.round(&mut loads) }` loops that steady-state
    /// phases, tests and examples otherwise repeat.
    pub fn rounds(&mut self, loads: &mut Vec<P::Load>, k: usize) -> Option<P::Stats> {
        let mut last = None;
        for _ in 0..k {
            last = self.round(loads);
        }
        last
    }
}

/// Convenience constructors: `protocol.engine()` /
/// `protocol.engine_parallel(t)` instead of `Engine::serial(protocol)`.
pub trait IntoEngine: Protocol + Sized {
    /// Wraps the protocol in a serial [`Engine`].
    fn engine(self) -> Engine<Self> {
        Engine::serial(self)
    }

    /// Wraps the protocol in a parallel [`Engine`] (`0` threads means
    /// [`recommended_threads_cached`]).
    fn engine_parallel(self, threads: usize) -> Engine<Self>
    where
        Self: Sync,
    {
        Engine::parallel(self, threads)
    }

    /// Wraps the protocol in a message-passing [`Engine`] (see
    /// [`Engine::message`]).
    fn engine_message(self, partition: PartitionSpec) -> Engine<Self> {
        Engine::message(self, partition)
    }

    /// Wraps the protocol in whatever executor `backend` describes.
    fn engine_with(self, backend: Backend) -> Engine<Self>
    where
        Self: Sync,
    {
        Engine::with_backend(self, backend)
    }
}

impl<P: Protocol> IntoEngine for P {}

/// Accumulator for continuous per-round flow statistics, shared by the
/// protocols' `compute_stats` implementations.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowTally {
    /// Edges/links that carried a nonzero transfer.
    pub active: usize,
    /// Total load moved.
    pub total: f64,
    /// Largest single transfer.
    pub max: f64,
}

impl FlowTally {
    /// Tallies an iterator of per-edge transfer amounts — the linear form
    /// used by the reference (per-link) round implementations. Engine
    /// statistics go through [`StatsCtx::graph_tally`] or
    /// [`StatsCtx::flow_tally`] instead, whose blocked combine keeps
    /// serial and parallel stats bit-identical.
    pub fn from_flows(flows: impl IntoIterator<Item = f64>) -> Self {
        let mut tally = FlowTally::default();
        for w in flows {
            tally.add(w);
        }
        tally
    }

    /// Finishes the round's [`crate::model::RoundStats`].
    pub fn stats(self, phi_before: f64, phi_after: f64) -> crate::model::RoundStats {
        crate::model::RoundStats {
            phi_before,
            phi_after,
            active_edges: self.active,
            total_flow: self.total,
            max_flow: self.max,
        }
    }
}

/// A per-edge transfer accumulator — [`FlowTally`] or [`TokenTally`] —
/// that the blocked tallies of [`StatsCtx`] fold one block at a time.
pub trait Tally: Copy + Default + Send + Sync + std::fmt::Debug {
    /// One edge's transfer: load (`f64`) or whole tokens (`u64`).
    type Amount;

    /// Records one edge's transfer.
    fn add(&mut self, amount: Self::Amount);

    /// Combines two block partials (in block order: `self` is the prefix).
    fn merge(self, other: Self) -> Self;
}

impl Tally for FlowTally {
    type Amount = f64;

    /// Records one edge's transfer amount.
    #[inline]
    fn add(&mut self, w: f64) {
        if w > 0.0 {
            self.active += 1;
            self.total += w;
            // `max` starts at 0 and only ever takes positive values, so
            // this select is `f64::max` without its NaN handling.
            if w > self.max {
                self.max = w;
            }
        }
    }

    fn merge(self, other: Self) -> Self {
        FlowTally {
            active: self.active + other.active,
            total: self.total + other.total,
            max: self.max.max(other.max),
        }
    }
}

/// Accumulator for discrete per-round token statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenTally {
    /// Edges/links that carried at least one token.
    pub active: usize,
    /// Total tokens moved.
    pub total: u64,
    /// Largest single-edge token transfer.
    pub max: u64,
}

impl TokenTally {
    /// Tallies an iterator of per-edge token counts (reference rounds;
    /// engine statistics use [`StatsCtx::graph_tally`] or
    /// [`StatsCtx::token_tally`]).
    pub fn from_tokens(tokens: impl IntoIterator<Item = u64>) -> Self {
        let mut tally = TokenTally::default();
        for t in tokens {
            tally.add(t);
        }
        tally
    }

    /// Finishes the round's [`crate::model::DiscreteRoundStats`].
    pub fn stats(
        self,
        phi_hat_before: u128,
        phi_hat_after: u128,
    ) -> crate::model::DiscreteRoundStats {
        crate::model::DiscreteRoundStats {
            phi_hat_before,
            phi_hat_after,
            active_edges: self.active,
            total_tokens: self.total,
            max_tokens: self.max,
        }
    }
}

impl Tally for TokenTally {
    type Amount = u64;

    /// Records one edge's token count.
    #[inline]
    fn add(&mut self, t: u64) {
        if t > 0 {
            self.active += 1;
            self.total += t;
            self.max = self.max.max(t);
        }
    }

    /// Exact integer sums — order-free.
    fn merge(self, other: Self) -> Self {
        TokenTally {
            active: self.active + other.active,
            total: self.total + other.total,
            max: self.max.max(other.max),
        }
    }
}

impl<P> crate::model::ContinuousBalancer for Engine<P>
where
    P: Protocol<Load = f64, Stats = crate::model::RoundStats>,
{
    fn round(&mut self, loads: &mut Vec<f64>) -> Option<crate::model::RoundStats> {
        Engine::round(self, loads)
    }

    fn name(&self) -> &'static str {
        self.protocol.name()
    }

    fn current_phi(&self, loads: &[f64]) -> f64 {
        self.potential(loads)
    }
}

impl<P> crate::model::DiscreteBalancer for Engine<P>
where
    P: Protocol<Load = i64, Stats = crate::model::DiscreteRoundStats>,
{
    fn round(&mut self, loads: &mut Vec<i64>) -> Option<crate::model::DiscreteRoundStats> {
        Engine::round(self, loads)
    }

    fn name(&self) -> &'static str {
        self.protocol.name()
    }

    fn current_phi_hat(&self, loads: &[i64]) -> u128 {
        self.potential(loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind};

    /// Toy protocol: every node averages with its ring neighbours' parity
    /// sign — enough structure to detect chunking bugs.
    struct Toy {
        n: usize,
        rounds_begun: usize,
        rounds_finished: usize,
        /// A node whose kernel panics (none by default).
        bad: u32,
    }

    fn toy(n: usize) -> Toy {
        Toy {
            n,
            rounds_begun: 0,
            rounds_finished: 0,
            bad: u32::MAX,
        }
    }

    impl Protocol for Toy {
        type Load = f64;
        type Stats = usize;

        fn n(&self) -> usize {
            self.n
        }

        fn name(&self) -> &'static str {
            "toy"
        }

        fn begin_round(&mut self, _snapshot: &[f64]) {
            self.rounds_begun += 1;
        }

        fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
            assert!(v != self.bad, "injected failure");
            let v = v as usize;
            let left = snapshot[(v + self.n - 1) % self.n];
            let right = snapshot[(v + 1) % self.n];
            0.5 * snapshot[v] + 0.25 * left + 0.25 * right
        }

        fn finish_round(&mut self, _snapshot: &[f64], _new: &[f64]) {
            self.rounds_finished += 1;
        }

        fn compute_stats(&mut self, _snapshot: &[f64], _new: &[f64], _ctx: &StatsCtx<'_>) -> usize {
            self.rounds_begun
        }
    }

    #[test]
    fn serial_and_parallel_bit_identical() {
        let n = 257; // deliberately prime: uneven chunking
        let init: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 53) as f64 / 7.0).collect();

        let mut serial = init.clone();
        let mut s = Engine::serial(toy(n));
        s.rounds(&mut serial, 10);

        for threads in [1, 2, 3, 5, 16] {
            let mut par = init.clone();
            let mut p = Engine::parallel(toy(n), threads);
            p.rounds(&mut par, 10);
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    /// Diffusion over an explicit cycle graph, exposing its gather spec,
    /// so the partitioned backends ship the kernel to their workers and
    /// run a real batched halo exchange.
    struct GraphToy {
        g: dlb_graphs::Graph,
    }

    fn graph_toy(n: usize) -> GraphToy {
        GraphToy {
            g: dlb_graphs::topology::cycle(n),
        }
    }

    impl Protocol for GraphToy {
        type Load = f64;
        type Stats = u64;

        fn n(&self) -> usize {
            self.g.n()
        }

        fn name(&self) -> &'static str {
            "graph-toy"
        }

        fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
            kernels::gather_node(&self.gather_spec().expect("spec"), snapshot, v)
        }

        fn compute_stats(&mut self, _s: &[f64], new: &[f64], ctx: &StatsCtx<'_>) -> u64 {
            ctx.phi(new).to_bits()
        }

        fn current_graph(&self) -> Option<&dlb_graphs::Graph> {
            Some(&self.g)
        }

        fn gather_spec(&self) -> Option<GatherSpec<'_, f64>> {
            Some(GatherSpec {
                graph: &self.g,
                factor: 4.0,
            })
        }
    }

    #[test]
    fn message_backend_bit_identical_with_halo_exchange() {
        let n = 48;
        let init: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 41) as f64 / 3.0).collect();
        let mut serial = init.clone();
        let mut s = Engine::serial(graph_toy(n));
        let serial_stats: Vec<_> = (0..6).map(|_| s.round(&mut serial)).collect();

        for spec in [
            PartitionSpec::Range { shards: 1 },
            PartitionSpec::Range { shards: 4 },
            PartitionSpec::Bfs { shards: 6 },
            PartitionSpec::Range { shards: n + 5 }, // shards > n
        ] {
            let mut msg = init.clone();
            let mut e = Engine::message(graph_toy(n), spec);
            let msg_stats: Vec<_> = (0..6).map(|_| e.round(&mut msg)).collect();
            assert_eq!(serial, msg, "{spec:?}: loads diverged");
            assert_eq!(serial_stats, msg_stats, "{spec:?}: stats diverged");
            let comm = e.comm_metrics().expect("message rounds report comm");
            let metrics = e.shard_metrics().expect("plan derived");
            // Each halo entry is delivered exactly once per round, so the
            // round's exchanged values equal the plan's halo size.
            assert_eq!(comm.values_sent, metrics.halo, "{spec:?}");
            assert_eq!(comm.shards, spec.shards(), "{spec:?}");
            assert_eq!(
                comm.halo_bytes,
                comm.values_sent * std::mem::size_of::<f64>()
            );
            assert!(comm.max_shard_values_sent <= comm.values_sent);
            assert_eq!(metrics.plans_built, 1, "fixed graph derives one plan");
            if spec.shards() > 1 {
                assert!(comm.messages > 0, "{spec:?}: cut cycle must message");
            } else {
                assert_eq!(comm.messages, 0, "one shard has nobody to message");
            }
        }
    }

    #[test]
    fn sharded_backend_bit_identical_without_a_graph() {
        // Toy exposes no graph, so a partitioned backend runs on the
        // trivial range plan — results must still match the serial ones
        // at every shard count and partition spec, including shards > n.
        let n = 131;
        let init: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 29) as f64 / 3.0).collect();
        let mut serial = init.clone();
        Engine::serial(toy(n)).rounds(&mut serial, 8);

        for shards in [1usize, 2, 5, 200] {
            for partition in [
                PartitionSpec::Range { shards },
                PartitionSpec::Bfs { shards },
            ] {
                let mut sharded = init.clone();
                let mut e = Engine::message(toy(n), partition);
                e.rounds(&mut sharded, 8);
                assert_eq!(serial, sharded, "{partition:?}");
                let metrics = e.shard_metrics().expect("plan derived after a round");
                assert_eq!(metrics.shards, shards);
                assert_eq!(metrics.plans_built, 1, "trivial plan derived once");
                assert_eq!(metrics.halo, 0, "graph-free protocol has no halo info");
            }
        }
    }

    #[test]
    fn message_backend_without_a_graph_precomputes_on_the_coordinator() {
        // Toy exposes no gather spec, so its kernel cannot ship: the
        // coordinator evaluates it, every shard gets its new owned values
        // and returns them, and no halo batch moves.
        let n = 30;
        let init: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) % 17) as f64).collect();
        let mut serial = init.clone();
        Engine::serial(toy(n)).rounds(&mut serial, 5);

        for shards in [2usize, 5, 64] {
            let mut msg = init.clone();
            let mut e = Engine::message(toy(n), PartitionSpec::Range { shards });
            e.rounds(&mut msg, 5);
            assert_eq!(serial, msg, "shards = {shards}");
            let comm = e.comm_metrics().expect("comm recorded");
            assert_eq!(
                (comm.messages, comm.values_sent),
                (0, 0),
                "shards = {shards}"
            );
            assert_eq!(comm.owned_values_in, n, "shards = {shards}");
            assert_eq!(comm.owned_values_out, n, "shards = {shards}");
        }
    }

    #[test]
    fn comm_metrics_absent_off_the_message_backend() {
        let mut loads = vec![1.0, 2.0, 3.0, 4.0];
        let mut e = Engine::serial(toy(4));
        e.round(&mut loads);
        assert!(e.comm_metrics().is_none());
        let mut e = Engine::parallel(toy(4), 2);
        e.round(&mut loads);
        assert!(e.comm_metrics().is_none());
        // And before the first message round.
        let e = Engine::message(toy(4), PartitionSpec::Range { shards: 2 });
        assert!(e.comm_metrics().is_none());
    }

    /// Identity kernel that panics on one node. It has no gather spec,
    /// so on the partitioned backends the panic fires in the
    /// coordinator's precompute.
    struct PanickingToy {
        n: usize,
        bad: u32,
    }

    impl Protocol for PanickingToy {
        type Load = f64;
        type Stats = ();

        fn n(&self) -> usize {
            self.n
        }

        fn name(&self) -> &'static str {
            "panicking-toy"
        }

        fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
            assert!(v != self.bad, "injected failure");
            snapshot[v as usize]
        }

        fn compute_stats(&mut self, _s: &[f64], _n: &[f64], _ctx: &StatsCtx<'_>) {}
    }

    #[test]
    fn message_kernel_panic_propagates_without_deadlocking_the_barrier() {
        // The kernel panic surfaces as the round's error after every
        // dispatched worker has answered, so the next round finds the
        // workers idle and the links clean.
        let mut e = Engine::message(
            PanickingToy { n: 12, bad: 7 },
            PartitionSpec::Range { shards: 3 },
        );
        let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            e.round(&mut loads);
        }));
        assert!(result.is_err(), "kernel panic must propagate");
        // The round barrier completed (no deadlock) and the workers are
        // alive: a clean protocol on the same engine shape still runs.
        e.protocol_mut().bad = u32::MAX;
        let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let reference = loads.clone();
        e.round(&mut loads);
        assert_eq!(loads, reference, "identity kernel after recovery");
    }

    /// The message backend over `partition` under both dispatch policies.
    fn message_backends(partition: PartitionSpec) -> [Backend; 2] {
        [false, true].map(|resident| Backend::Message {
            partition,
            resident,
        })
    }

    /// Both links of the shard runtime over `partition`: the message
    /// backend under both dispatch policies, and the process backend.
    fn shard_backends(partition: PartitionSpec) -> [Backend; 3] {
        let [legacy, resident] = message_backends(partition);
        let process = Backend::Process {
            partition,
            transport: dlb_wire::Transport::Unix,
        };
        [legacy, resident, process]
    }

    #[test]
    fn try_round_reports_shard_round_and_phase() {
        // Pool: the failed chunk surfaces as a typed Gather error.
        let mut e = Engine::parallel(PanickingToy { n: 12, bad: 7 }, 3);
        let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let err = e.try_round(&mut loads).unwrap_err();
        assert_eq!(err.phase, EnginePhase::Gather);
        assert_eq!(err.round, 1);
        assert!(err.to_string().contains("round 1"), "{err}");

        // Message: the coordinator's precompute fails on shard 1's list.
        for backend in message_backends(PartitionSpec::Range { shards: 3 }) {
            let mut e = Engine::with_backend(PanickingToy { n: 12, bad: 7 }, backend);
            let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
            let err = e.try_round(&mut loads).unwrap_err();
            assert_eq!(
                err,
                EngineError {
                    shard: 1,
                    round: 1,
                    phase: EnginePhase::Exchange
                },
                "{backend:?}"
            );
            assert_eq!(
                err.to_string(),
                "engine worker panicked during exchange: shard 1, round 1"
            );
            // A failed round leaves the loads untouched and the counter
            // frozen, so a fixed protocol retries the same round number.
            assert_eq!(loads, (0..12).map(|i| i as f64).collect::<Vec<_>>());
            e.protocol_mut().bad = u32::MAX;
            let err = e.try_round(&mut loads); // identity kernel now
            assert!(err.is_ok(), "{backend:?}");
        }

        // A failure after the first round: the retry ships every shard
        // its values again, and the trajectory stays serial's.
        let n = 48;
        let init: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 41) as f64 / 3.0).collect();
        let mut serial = init.clone();
        Engine::serial(toy(n)).rounds(&mut serial, 3);
        for backend in message_backends(PartitionSpec::Range { shards: 4 }) {
            let mut e = Engine::with_backend(toy(n), backend);
            let mut loads = init.clone();
            e.round(&mut loads);
            e.protocol_mut().bad = 30; // owned by shard 2
            let err = e.try_round(&mut loads).unwrap_err();
            assert_eq!((err.shard, err.round), (2, 2), "{backend:?}");
            e.protocol_mut().bad = u32::MAX;
            e.rounds(&mut loads, 2);
            let comm = e.comm_metrics().expect("comm recorded");
            assert_eq!(comm.owned_values_in, n, "{backend:?}: precomputed rounds");
            assert_eq!(serial, loads, "{backend:?}: diverged after the failure");
        }
    }

    #[test]
    fn message_fault_injection_recovers_bit_identically() {
        let n = 48;
        let rounds = 8;
        let init: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 41) as f64 / 3.0).collect();
        let mut serial = init.clone();
        let mut s = Engine::serial(graph_toy(n));
        let serial_stats: Vec<_> = (0..rounds).map(|_| s.round(&mut serial)).collect();

        // One of every fault kind, across distinct rounds and shards, on
        // a cycle cut into four 12-node ranges: shard s sends its two
        // end nodes to shards s ± 1.
        let plan = FaultPlan::new()
            .event(2, 1, FaultKind::Panic)
            .event(3, 0, FaultKind::DropHalo)
            .event(4, 2, FaultKind::DuplicateHalo)
            .event(5, 3, FaultKind::ReorderHalo)
            .event(6, 1, FaultKind::Delay { ms: 30 });
        for backend in shard_backends(PartitionSpec::Range { shards: 4 }) {
            let resident = matches!(backend, Backend::Message { resident: true, .. });
            let mut faulted = init.clone();
            let mut e = Engine::with_backend(graph_toy(n), backend).with_faults(plan.clone());
            let pids = e.process_worker_pids();
            let mut faulted_stats = Vec::new();
            for round in 1..=rounds {
                faulted_stats.push(e.round(&mut faulted));
                // Round 2 kills shard 1 before its dispatch. Rounds 3
                // and 4 starve (drop) and double-feed (duplicate) shards
                // 1 and 3, which refuse. Resident dispatch sends full
                // owned slices only to shards that are new or refused
                // their last round; everyone else gets deltas.
                let expect = match (resident, round) {
                    (_, 2) if !resident => 36,
                    (false, _) | (true, 1) => n,
                    (true, 3) => 12,
                    (true, 4) | (true, 5) => 24,
                    (true, _) => 0,
                };
                let comm = e.comm_metrics().expect("comm recorded");
                assert_eq!(comm.owned_values_in, expect, "{backend:?} round {round}");
            }

            assert_eq!(serial, faulted, "{backend:?}: recovery must be exact");
            assert_eq!(
                serial_stats, faulted_stats,
                "{backend:?}: stats must survive faults"
            );
            let stats = e.fault_stats();
            assert_eq!(stats.faults_injected, 5);
            // Re-homed: shard 1 (killed), shards 1 and 3 (a dropped
            // batch each) and again 1 and 3 (a duplicated batch each).
            assert_eq!(stats.recoveries, 5, "{backend:?}");
            assert_eq!(stats.rehomed_values, 5 * 12, "{backend:?}");
            if let (Some(before), Some(after)) = (pids, e.process_worker_pids()) {
                assert_ne!(before[1], after[1], "the killed worker was respawned");
                assert_eq!(before[0], after[0]);
            }
        }
    }

    #[test]
    fn duplicated_batches_never_leak_into_later_rounds() {
        // Every shard is written every halo batch twice on round 1: each
        // worker refuses the round and is re-homed, and rounds 2..3 must
        // run clean on the same workers.
        let n = 32;
        let init: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) % 23) as f64).collect();
        let mut serial = init.clone();
        Engine::serial(graph_toy(n)).rounds(&mut serial, 3);

        let mut plan = FaultPlan::new();
        for shard in 0..4 {
            plan.push(FaultEvent {
                round: 1,
                shard,
                kind: FaultKind::DuplicateHalo,
            });
        }
        for backend in shard_backends(PartitionSpec::Range { shards: 4 }) {
            let mut faulted = init.clone();
            let mut e = Engine::with_backend(graph_toy(n), backend).with_faults(plan.clone());
            e.rounds(&mut faulted, 3);
            assert_eq!(
                serial, faulted,
                "{backend:?}: stale duplicates must be discarded"
            );
            let stats = e.fault_stats();
            assert_eq!(stats.faults_injected, 4);
            assert_eq!(stats.rehomed_values, n as u64, "{backend:?}");
        }
    }

    #[test]
    fn armed_empty_plan_changes_nothing_but_supervision() {
        let n = 40;
        let init: Vec<f64> = (0..n).map(|i| ((i * 7 + 2) % 19) as f64).collect();
        let mut serial = init.clone();
        Engine::serial(graph_toy(n)).rounds(&mut serial, 5);

        let backend = Backend::Message {
            partition: PartitionSpec::Range { shards: 4 },
            resident: false,
        };
        let mut loads = init.clone();
        let mut e = Engine::with_backend(graph_toy(n), backend).with_faults(FaultPlan::new());
        e.rounds(&mut loads, 5);
        assert_eq!(serial, loads);
        assert!(!e.fault_stats().any());
    }

    #[test]
    fn supervised_round_still_surfaces_genuine_kernel_panics() {
        // Recovery re-homes shards by running the protocol's kernel on
        // the coordinator; a kernel that panics there is a real bug, and
        // an armed (empty) plan still reports it.
        for backend in message_backends(PartitionSpec::Range { shards: 3 }) {
            let mut e = Engine::with_backend(PanickingToy { n: 12, bad: 7 }, backend)
                .with_faults(FaultPlan::new());
            let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
            let err = e.try_round(&mut loads).unwrap_err();
            assert_eq!(err.shard, 1, "{backend:?}");
            assert_eq!(err.phase, EnginePhase::Exchange);
            // The engine stays usable afterwards.
            e.protocol_mut().bad = u32::MAX;
            let reference = loads.clone();
            e.round(&mut loads);
            assert_eq!(loads, reference, "identity kernel after the failure");
            let comm = e.comm_metrics().expect("comm recorded");
            assert_eq!(comm.owned_values_in, 12, "{backend:?}");
        }
    }

    #[test]
    fn with_backend_builds_every_backend() {
        let backends = [
            Backend::Serial,
            Backend::Pool { threads: 3 },
            Backend::Message {
                partition: PartitionSpec::Bfs { shards: 3 },
                resident: false,
            },
        ];
        let mut reference = vec![1.0, 5.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0];
        Engine::serial(toy(8)).rounds(&mut reference, 5);
        for backend in backends {
            let mut e = Engine::with_backend(toy(8), backend);
            assert_eq!(e.backend().name(), backend.name());
            let mut loads = vec![1.0, 5.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0];
            e.rounds(&mut loads, 5);
            assert_eq!(loads, reference, "{}", backend.name());
        }
    }

    #[test]
    fn with_backend_rejects_the_removed_sharded_backend() {
        let sharded = Backend::Sharded {
            partition: PartitionSpec::Range { shards: 2 },
            threads: 2,
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            Engine::with_backend(toy(4), sharded);
        }))
        .expect_err("the sharded backend must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert_eq!(msg, Backend::SHARDED_REMOVED);
        assert!(
            msg.contains("\"pool\"") && msg.contains("\"message\""),
            "{msg}"
        );
    }

    #[test]
    fn shard_metrics_absent_off_the_partitioned_backends() {
        assert!(Engine::serial(toy(4)).shard_metrics().is_none());
        assert!(Engine::parallel(toy(4), 2).shard_metrics().is_none());
        // And before the first round even on the message backend (plans
        // are derived lazily against the round's graph).
        let e = Engine::message(toy(4), PartitionSpec::Range { shards: 2 });
        assert!(e.shard_metrics().is_none());
    }

    #[test]
    fn rounds_returns_last_stats_and_matches_single_rounds() {
        let mut a = Engine::serial(toy(16));
        let mut b = Engine::serial(toy(16));
        let mut la: Vec<f64> = (0..16).map(|i| (i % 7) as f64).collect();
        let mut lb = la.clone();
        let mut last = None;
        for _ in 0..5 {
            last = a.round(&mut la);
        }
        let batched = b.rounds(&mut lb, 5);
        assert_eq!(la, lb);
        assert_eq!(last, batched); // Toy stats = rounds begun
                                   // k = 0 is a no-op returning None.
        assert_eq!(b.rounds(&mut lb, 0), None);
        assert_eq!(la, lb);
        // Under EveryK the *last* round decides whether stats come back.
        let mut c = Engine::serial(toy(16)).with_stats_mode(StatsMode::EveryK(4));
        let mut lc: Vec<f64> = (0..16).map(|i| (i % 7) as f64).collect();
        assert!(c.rounds(&mut lc, 4).is_some()); // round 4: computed
        assert!(c.rounds(&mut lc, 3).is_none()); // round 7: skipped
    }

    #[test]
    fn hooks_run_once_per_round() {
        let mut e = Engine::parallel(toy(8), 4);
        let mut loads = vec![1.0; 8];
        for expected in 1..=5 {
            let count = e.round(&mut loads).expect("full stats by default");
            assert_eq!(count, expected);
            assert_eq!(e.protocol().rounds_finished, expected);
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        let mut e = Engine::parallel(toy(64), 8);
        let mut loads: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let sum: f64 = loads.iter().sum();
        for _ in 0..500 {
            e.round(&mut loads);
        }
        assert!((loads.iter().sum::<f64>() - sum).abs() < 1e-6);
        assert_eq!(e.threads(), 8);
    }

    #[test]
    fn more_threads_than_nodes_clamps_pool() {
        // n = 3 with 64 requested threads must not spawn 61 parked idle
        // workers: the pool is clamped to n.
        let mut e = Engine::parallel(toy(3), 64);
        assert_eq!(e.threads(), 3);
        let mut loads = vec![9.0, 0.0, 0.0];
        e.round(&mut loads);
        assert!((loads.iter().sum::<f64>() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn round_swaps_instead_of_copying() {
        // The zero-copy contract: after a round the caller's Vec is the
        // engine's former back buffer. Observable via pointer identity.
        let mut e = Engine::serial(toy(4));
        let mut loads = vec![1.0, 2.0, 3.0, 4.0];
        let before_ptr = loads.as_ptr();
        e.round(&mut loads);
        let after_ptr = loads.as_ptr();
        assert_ne!(before_ptr, after_ptr, "round must swap, not copy back");
        // Two rounds ping-pong back to the original allocation.
        e.round(&mut loads);
        assert_eq!(loads.as_ptr(), before_ptr);
    }

    #[test]
    fn stats_modes_skip_and_compute_as_documented() {
        let run = |mode: StatsMode| -> (Vec<f64>, Vec<Option<usize>>) {
            let mut e = Engine::serial(toy(16)).with_stats_mode(mode);
            let mut loads: Vec<f64> = (0..16).map(|i| (i % 5) as f64).collect();
            let stats: Vec<Option<usize>> = (0..6).map(|_| e.round(&mut loads)).collect();
            (loads, stats)
        };

        let (full_loads, full_stats) = run(StatsMode::Full);
        assert!(full_stats.iter().all(Option::is_some));

        let (off_loads, off_stats) = run(StatsMode::Off);
        assert!(off_stats.iter().all(Option::is_none));
        assert_eq!(full_loads, off_loads, "stats mode must not change loads");

        let (k_loads, k_stats) = run(StatsMode::EveryK(3));
        assert_eq!(full_loads, k_loads);
        let computed: Vec<bool> = k_stats.iter().map(Option::is_some).collect();
        assert_eq!(computed, vec![false, false, true, false, false, true]);

        let (p_loads, p_stats) = run(StatsMode::PhiOnly);
        assert_eq!(full_loads, p_loads);
        assert!(p_stats.iter().all(Option::is_some));
    }

    #[test]
    fn finish_round_runs_even_without_stats() {
        let mut e = Engine::serial(toy(8)).with_stats_mode(StatsMode::Off);
        let mut loads = vec![1.0; 8];
        for _ in 0..5 {
            assert!(e.round(&mut loads).is_none());
        }
        assert_eq!(e.protocol().rounds_finished, 5);
        assert_eq!(e.protocol().rounds_begun, 5);
    }

    /// Serializes the tests that read or write the `DLB_THREADS`
    /// environment variable: the harness runs tests on threads of one
    /// process, and `set_var` concurrent with `getenv` is a data race.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn zero_threads_means_auto() {
        let _guard = ENV_LOCK.lock().unwrap();
        let e = Engine::parallel(toy(4), 0);
        assert!(e.threads() >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (n, t) in [(10, 3), (7, 7), (5, 9), (100, 4), (1, 1), (0, 3)] {
            let ranges = chunk_ranges(n, t);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges not contiguous");
            }
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0u32; 16];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.gather(&mut out, |v| {
                assert!(v != 7, "injected failure");
                v
            });
        }));
        assert!(result.is_err(), "panic in kernel must propagate");
        // The pool must still work after a failed gather.
        let mut out2 = vec![0u32; 16];
        pool.gather(&mut out2, |v| v * 2);
        assert_eq!(out2[15], 30);
    }

    #[test]
    fn dlb_threads_env_is_respected() {
        // `recommended_threads` reads the environment on every call; the
        // write is serialized against the other env readers in this module
        // via ENV_LOCK (set_var concurrent with getenv is a data race).
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("DLB_THREADS", "3");
        let got = recommended_threads();
        std::env::remove_var("DLB_THREADS");
        assert_eq!(got, 3);
    }

    #[test]
    fn dlb_threads_invalid_values_are_rejected_loudly() {
        let _guard = ENV_LOCK.lock().unwrap();
        for bad in ["0", "abc", "", "  ", "-2", "1.5"] {
            std::env::set_var("DLB_THREADS", bad);
            let result = catch_unwind(recommended_threads);
            std::env::remove_var("DLB_THREADS");
            let err = result.expect_err(&format!("DLB_THREADS={bad:?} must be rejected"));
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
            assert!(
                msg.contains("DLB_THREADS must be a positive integer"),
                "unhelpful error for {bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn cached_threads_is_stable_and_positive() {
        let _guard = ENV_LOCK.lock().unwrap();
        let first = recommended_threads_cached();
        assert!(first >= 1);
        // The cache must not re-read the environment.
        std::env::set_var("DLB_THREADS", "63");
        let second = recommended_threads_cached();
        std::env::remove_var("DLB_THREADS");
        assert_eq!(first, second);
    }

    #[test]
    fn pool_with_one_thread_takes_the_serial_executor() {
        let _guard = ENV_LOCK.lock().unwrap();
        let e = Engine::parallel(toy(8), 1);
        assert!(matches!(e.exec, Exec::Serial));
        assert_eq!(e.backend(), Backend::Serial);
        // The clamp can also resolve to one worker: n == 1 graphs.
        let e = Engine::parallel(toy(1), 16);
        assert!(matches!(e.exec, Exec::Serial));
    }

    #[test]
    fn dlb_kernel_env_is_respected() {
        let _guard = ENV_LOCK.lock().unwrap();
        for (value, kind) in [
            ("scalar", KernelKind::Scalar),
            ("unrolled", KernelKind::Unrolled),
        ] {
            std::env::set_var("DLB_KERNEL", value);
            let got = KernelKind::from_env();
            std::env::remove_var("DLB_KERNEL");
            assert_eq!(got, kind, "DLB_KERNEL={value}");
        }
        // Unset: the default flavour.
        assert_eq!(KernelKind::from_env(), KernelKind::default());
    }

    #[test]
    fn dlb_kernel_invalid_values_are_rejected_loudly() {
        let _guard = ENV_LOCK.lock().unwrap();
        for bad in ["", "simd", "SIMD", "avx", "auto", " scalar"] {
            std::env::set_var("DLB_KERNEL", bad);
            let result = catch_unwind(KernelKind::from_env);
            std::env::remove_var("DLB_KERNEL");
            let err = result.expect_err(&format!("DLB_KERNEL={bad:?} must be rejected"));
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
            assert!(
                msg.contains("DLB_KERNEL must be"),
                "unhelpful error for {bad:?}: {msg}"
            );
        }
    }

    #[test]
    fn with_kernel_overrides_the_selection() {
        let mut e = Engine::serial(toy(4)).with_kernel(KernelKind::Scalar);
        assert_eq!(e.kernel(), KernelKind::Scalar);
        e.set_kernel(KernelKind::Unrolled);
        assert_eq!(e.kernel(), KernelKind::Unrolled);
    }

    #[test]
    fn pooled_stats_ctx_matches_serial_bitwise() {
        let pool = WorkerPool::new(3);
        let values: Vec<f64> = (0..20_000)
            .map(|i| ((i * 131 + 17) % 4099) as f64 / 7.0)
            .collect();
        let serial = StatsCtx::serial();
        let pooled = StatsCtx::new(Some(&pool), StatsLevel::Flows);
        assert_eq!(
            serial.phi(&values).to_bits(),
            pooled.phi(&values).to_bits(),
            "blocked phi must be pool-independent"
        );
        let tokens: Vec<i64> = (0..20_000).map(|i| ((i * 37) % 1009) as i64).collect();
        assert_eq!(serial.phi_hat(&tokens), pooled.phi_hat(&tokens));
        let flow = |k: usize| ((k * 7 + 1) % 13) as f64 / 3.0;
        let a = serial.flow_tally(20_000, flow);
        let b = pooled.flow_tally(20_000, flow);
        assert_eq!(a.active, b.active);
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
    }
}
