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
//!    backends — message (one shard-owning worker thread per shard) and
//!    process (one worker OS process per shard) — gather each shard
//!    interior-then-boundary with boundary loads crossing shards as
//!    batched messages (see [`Engine::shard_metrics`] and
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
use std::sync::OnceLock;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::faults::{FaultKind, FaultPlan, FaultStats};
use crate::kernels::{self, DiffusionLoad, GatherSpec, KernelKind};
use crate::potential::{self, BlockPartial};
use dlb_graphs::partition::{graph_fingerprint, PartitionSpec, ShardPlan, ShardView};
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
    /// discrete ones. (`'static` because the message-passing backend's
    /// long-lived shard workers own load buffers beyond any one round's
    /// borrows — trivially satisfied by the plain scalar load types.
    /// [`DiffusionLoad`] supplies the generic quotient/accumulate
    /// operations the specialized gather kernels are written over; both
    /// scalar load types implement it.)
    type Load: Copy
        + Default
        + PartialEq
        + Send
        + Sync
        + std::fmt::Debug
        + LoadPotential
        + DiffusionLoad
        + crate::process::WireLoad
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

    /// Whether [`Protocol::begin_round`] / [`Protocol::finish_round`]
    /// read the load *values* handed to them. The message backend's
    /// resident sessions use this as the collect gate: when the hooks
    /// are load-blind (graph draws, RNG advances, counters — or the
    /// default no-ops), a stats-off resident round needs no owned values
    /// on the coordinator at all, and [`Engine::round_resident`] skips
    /// the collect entirely. When `true` (the conservative default),
    /// every resident round collects so the hooks always see current
    /// values. Overriding to `false` while a hook does read loads would
    /// hand that hook stale values — the loads themselves stay
    /// bit-identical either way (only hook inputs are at stake), but a
    /// protocol with load-dependent hook state would diverge.
    fn hooks_read_loads(&self) -> bool {
        true
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
    /// contiguous range plan with a full exchange — still bit-identical,
    /// just without halo accounting (e.g. random-partner schemes, whose
    /// reads are not neighbourhood-local).
    ///
    /// Returning `Some(g)` is a **locality contract**, not just a hint:
    /// [`Protocol::node_new_load`] for node `v` must read the snapshot
    /// only at `v` and `v`'s neighbours in `g`. The message backend
    /// relies on it hard — a shard worker's frame holds *only* its owned
    /// and halo values, so a kernel reading outside `{v} ∪ N(v)` would
    /// see stale data. Protocols with wider reads must return `None`
    /// (the message backend then runs a full exchange).
    ///
    /// Only meaningful after [`Protocol::begin_round`] has run for the
    /// round (dynamic protocols draw their graph there).
    fn current_graph(&self) -> Option<&Graph> {
        None
    }

    /// Monotone counter that changes whenever [`Protocol::current_graph`]
    /// *may* have started returning a different graph. Fixed-topology
    /// protocols keep the default constant `0`, so a partitioned backend
    /// derives its plan exactly once and never re-examines the graph.
    ///
    /// Conservative over-bumping is allowed: each bump costs the backend
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
    /// with `div(v,u) = k·max(dᵥ, dᵤ)` ([`GatherSpec::divisor`]). Protocols returning
    /// `Some` opt into the engine's degree-specialized kernel dispatch
    /// (see [`crate::kernels`]); the spec's graph must be the same object
    /// [`Protocol::current_graph`] reports, valid for the current round.
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
    /// Potentials only; [`StatsCtx::flow_tally`]/[`StatsCtx::token_tally`]
    /// return zeroed tallies without evaluating the flow closure.
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
    pub(crate) fn diffusion_totals<L: LoadPotential>(
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

    /// Tallies `flow(k)` over `m` edges in blocked order, or returns a
    /// zeroed tally (without evaluating `flow`) when flows are not wanted.
    pub fn flow_tally(&self, m: usize, flow: impl Fn(usize) -> f64 + Sync) -> FlowTally {
        if !self.flows_wanted() {
            return FlowTally::default();
        }
        potential::blocked_reduce(
            m,
            self.pool,
            |b| {
                let (s, e) = potential::block_bounds(b, m);
                let mut tally = FlowTally::default();
                for k in s..e {
                    tally.add(flow(k));
                }
                tally
            },
            FlowTally::merge,
            FlowTally::default(),
        )
    }

    /// Tallies `tokens(k)` over `m` edges in blocked order, or returns a
    /// zeroed tally when flows are not wanted.
    pub fn token_tally(&self, m: usize, tokens: impl Fn(usize) -> u64 + Sync) -> TokenTally {
        if !self.flows_wanted() {
            return TokenTally::default();
        }
        potential::blocked_reduce(
            m,
            self.pool,
            |b| {
                let (s, e) = potential::block_bounds(b, m);
                let mut tally = TokenTally::default();
                for k in s..e {
                    tally.add(tokens(k));
                }
                tally
            },
            TokenTally::merge,
            TokenTally::default(),
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
    /// Message-passing execution: one long-lived worker **per shard**,
    /// each owning only its shard's loads. During a round no worker
    /// touches the global load vector — boundary loads travel as batched
    /// per-neighbour-shard messages over typed channels (the
    /// [`dlb_graphs::partition::ShardView::halo_groups`] schedule), with
    /// per-round communication accounting via [`Engine::comm_metrics`].
    /// The shared-memory rehearsal for a true distributed backend: after
    /// this, "distributed" is a transport swap, not a redesign.
    Message {
        /// How the node set is partitioned into shards (= workers).
        partition: PartitionSpec,
        /// Run rounds **shard-resident**: workers keep their owned loads
        /// across rounds, the coordinator ships only per-round workload
        /// deltas in and collects owned values back only when something
        /// needs them — a stats-on round, a caller reading loads, or
        /// session end. Steady-state rounds then move halo-sized, not
        /// `n`-sized, traffic. The flag is routing intent for
        /// runners/benches: they drive the engine through
        /// [`Engine::resident_begin`] / [`Engine::round_resident`]
        /// instead of [`Engine::round`]. Incompatible with an armed
        /// [`FaultPlan`] — recovery re-homes shards from the
        /// coordinator's round-start snapshot, which resident rounds
        /// deliberately don't hold.
        resident: bool,
    },
    /// Distributed execution: one `dlb-shard-worker` **OS process** per
    /// shard, exchanging the message backend's round protocol as
    /// `dlb-wire/2` frames over a byte transport (Unix domain sockets or
    /// TCP loopback — see [`Transport`](dlb_wire::Transport) and
    /// `docs/WIRE.md`). Same partition planning, same ordering contract,
    /// same bit-identical results; serialization is the only new moving
    /// part, and [`Engine::comm_metrics`] additionally reports the
    /// framed bytes that actually crossed the sockets. A worker that
    /// dies mid-round surfaces as a typed [`EngineError`] naming the
    /// shard (phase [`EnginePhase::Wire`]) within the wire timeout —
    /// never a deadlock. See the `process` module docs for the failure
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
    /// The message backend's exchange round.
    Exchange,
    /// The process backend's wire round: a worker process died (EOF /
    /// broken pipe), timed out, or reported a failed round body over
    /// `dlb-wire/2`.
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
    /// The executor strategy (serial walk, flat pool, message threads, or
    /// worker processes).
    ///
    /// The gather fn pointers inside are instantiated in the constructors
    /// — the only places that know `P: Sync` — so [`Engine::round`] needs
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
    /// The armed fault-injection schedule, if any. `None` keeps every
    /// backend on its exact legacy code path (no supervision polling);
    /// `Some` — even of an empty plan — runs the message backend
    /// supervised.
    faults: Option<FaultPlan>,
    /// Cumulative injection/recovery counters (see
    /// [`Engine::fault_stats`]).
    fault_stats: FaultStats,
    /// Span recording. [`Telemetry::Off`] (the default) keeps every
    /// instrumentation site a no-op enum branch — no clock read, no
    /// allocation — so untraced rounds run the exact legacy path.
    telemetry: Telemetry,
    /// Active resident message session, if any (see
    /// [`Engine::resident_begin`]). While `Some`, [`Engine::round`] is
    /// rejected — the caller's load vector is stale by construction.
    resident: Option<ResidentSession<P::Load>>,
}

/// Coordinator-side state of a resident message session.
#[derive(Debug)]
struct ResidentSession<L> {
    /// The coordinator's copy of the loads. Authoritative only when
    /// `fresh`; otherwise the workers' frames hold the truth and the
    /// mirror is a stale scratch vector awaiting the next collect.
    mirror: Vec<L>,
    /// Whether `mirror` currently equals the session's true loads
    /// (workers' values with `pending` folded in).
    fresh: bool,
    /// Workload deltas queued since the last round dispatch: already
    /// applied to `mirror` whenever it is fresh, not yet in any worker
    /// frame. Routed out with the next round command.
    pending: Vec<(u32, L)>,
}

/// Monomorphized pooled-gather entry point stored by parallel engines.
/// The kernel selection is the flavour and the memoized [`GatherPlan`]
/// (`None` when the protocol exposes no [`Protocol::gather_spec`] — the
/// gather then runs `node_new_load`). The trailing pair asks for the
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
    match (plan, protocol.gather_spec()) {
        (Some(plan), Some(spec)) => pool.try_gather_blocks(out, partials, |start, chunk, parts| {
            gather_blocks(kind, plan, &spec, snapshot, start, chunk, parts, flows);
        }),
        _ => pool.try_gather_blocks::<_, (), _>(out, &mut [], |start, chunk, _| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = protocol.node_new_load(snapshot, (start + k) as u32);
            }
        }),
    }
}

/// Gathers the nodes `start .. start + out.len()`. With a non-empty
/// `partials` (one slot per block; `start` then block-aligned) this is the
/// fused statistics pass of the serial and pool executors: the range is
/// gathered one [`REDUCE_BLOCK`](potential::REDUCE_BLOCK) block at a time,
/// and the kernel feeds each block's partial as it finishes every node
/// and (when `flows`) every upper slot, so the first pass reads nothing
/// the gather has not just read.
#[allow(clippy::too_many_arguments)]
fn gather_blocks<L: LoadPotential>(
    kind: KernelKind,
    plan: &GatherPlan,
    spec: &GatherSpec<'_, L>,
    snapshot: &[L],
    start: usize,
    out: &mut [L],
    partials: &mut [BlockPartial<L>],
    flows: bool,
) {
    if partials.is_empty() {
        let sink = &mut kernels::NoStats;
        kernels::gather_span(kind, plan, spec, snapshot, start as u32, out, sink);
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
            kernels::gather_span(kind, plan, spec, snapshot, lo, block, part);
        } else {
            let mut sink = potential::NoTally(BlockPartial::default());
            kernels::gather_span(kind, plan, spec, snapshot, lo, block, &mut sink);
            *part = sink.0;
        }
    }
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

/// Builds the [`ShardPlan`] for a graph (or the trivial range plan when
/// the protocol exposes none) — the `build` closure of both backends'
/// [`PlanCache`].
fn build_shard_plan(spec: &PartitionSpec, graph: Option<&Graph>, n: usize) -> ShardPlan {
    match graph {
        Some(g) => ShardPlan::build(g, &spec.build(g)),
        None => ShardPlan::trivial(n, spec.shards()),
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
    /// `Plan` span when one is built), or `None` when the protocol opts
    /// out of kernel dispatch (no [`GatherSpec`]) or exposes no graph to
    /// analyse. The `Arc` is cloned out so the caller holds the plan
    /// independently of later cache evictions.
    fn resolve<P: Protocol>(
        &mut self,
        protocol: &P,
        tel: &Telemetry,
        round_no: u64,
    ) -> Option<Arc<GatherPlan>> {
        if protocol.gather_spec().is_none() || protocol.current_graph().is_none() {
            return None;
        }
        self.plans
            .refresh_traced(protocol, tel, round_no, |graph, _n| {
                Arc::new(GatherPlan::build(graph.expect("graph checked above")))
            });
        Some(self.plans.current().clone())
    }
}

/// Per-round communication metrics of the message backend's most recent
/// round (see [`Engine::comm_metrics`]). This is the telemetry a
/// distributed deployment pays for real: the per-round exchange volume
/// that communication-aware diffusive balancers optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommMetrics {
    /// Shard workers in the round.
    pub shards: usize,
    /// Batched halo messages sent shard→shard this round (one per
    /// ordered neighbour-shard pair with a nonempty exchange group).
    pub messages: usize,
    /// Total load values carried by those messages.
    pub values_sent: usize,
    /// `values_sent` in bytes of the load type — the wire volume a
    /// distributed transport would move per round.
    pub halo_bytes: usize,
    /// Largest per-shard send volume (values) — the straggler bound on
    /// the exchange step.
    pub max_shard_values_sent: usize,
    /// Owned values the coordinator shipped **to** workers this round:
    /// `n` on legacy rounds (every shard's round-start slice) and on the
    /// resident seeding round; zero on resident steady-state rounds —
    /// the formerly hidden half of the ownership-transfer tax.
    pub owned_values_in: usize,
    /// Owned values workers shipped **back** this round: `n` on legacy
    /// rounds (results), `2n` on resident collect rounds (round-start
    /// snapshot + results, so stats stay bit-identical), zero on
    /// stats-off, read-free resident rounds.
    pub owned_values_out: usize,
    /// Workload delta assignments routed to resident workers this round.
    pub delta_values: usize,
    /// Collect operations folded into this round's metrics (an in-round
    /// collect, or an explicit [`Engine::resident_sync`] since the last
    /// round).
    pub collects: usize,
    /// Process backend only: framed `dlb-wire/2` bytes the coordinator
    /// actually **wrote** to worker sockets this round — envelopes
    /// included, measured at the socket, not reconstructed as
    /// `values × size_of`. Zero on the in-process backends, which move
    /// no bytes.
    pub wire_bytes_out: usize,
    /// Process backend only: framed wire bytes the coordinator **read**
    /// back from worker sockets this round.
    pub wire_bytes_in: usize,
}

/// One batched exchange group's id list. Shared (`Arc`) because every
/// list appears in two schedules — the receiver's `recv` and the mirror
/// entry in the sender's `send` — and because full-exchange plans post
/// the *same* owned block to every other shard: sharing keeps the
/// schedule `O(halo)` / `O(n)` instead of materializing per-pair copies.
type ExchangeIds = std::sync::Arc<Vec<u32>>;

/// The exchange schedule of one message-backend plan, wrapped around the
/// [`ShardPlan`] it was derived from and memoized per distinct graph
/// exactly like the kernel dispatcher's gather plans.
#[derive(Debug)]
pub(crate) struct MessagePlan {
    /// The underlying shard plan: one view per shard
    /// (interior/boundary classification and owned lists — the gather
    /// order within a shard) plus the locality metrics.
    plan: ShardPlan,
    /// `send[s]` = this shard's posting schedule: `(dest, global ids)`
    /// per neighbour shard, the mirror image of `recv[dest]`.
    send: Vec<Vec<(usize, ExchangeIds)>>,
    /// `recv[s]` = [`ShardView::halo_groups`] of shard `s` — one batched
    /// message expected per entry.
    pub(crate) recv: Vec<Vec<(usize, ExchangeIds)>>,
    /// True for graph-less protocols (trivial plan): reads are not
    /// neighbourhood-local, so every shard broadcasts its whole owned
    /// block to every other computing shard and the gather waits for the
    /// full exchange before computing anything.
    pub(crate) full_exchange: bool,
}

impl MessagePlan {
    pub(crate) fn build(spec: &PartitionSpec, graph: Option<&Graph>, n: usize) -> MessagePlan {
        let plan = build_shard_plan(spec, graph, n);
        let shards = plan.views().len();
        let full_exchange = graph.is_none();
        let recv: Vec<Vec<(usize, ExchangeIds)>> = if full_exchange {
            // Non-local reads: every computing shard needs the whole
            // vector, so its "halo" is every other shard's owned block —
            // one shared id list per source, not one copy per pair.
            let owned_blocks: Vec<ExchangeIds> = plan
                .views()
                .iter()
                .map(|v| std::sync::Arc::new(v.owned().to_vec()))
                .collect();
            plan.views()
                .iter()
                .map(|view| {
                    if view.owned().is_empty() {
                        return Vec::new(); // nothing to compute, receive nothing
                    }
                    plan.views()
                        .iter()
                        .filter(|src| src.shard() != view.shard() && !src.owned().is_empty())
                        .map(|src| (src.shard(), owned_blocks[src.shard()].clone()))
                        .collect()
                })
                .collect()
        } else {
            plan.views()
                .iter()
                .map(|v| {
                    v.halo_groups()
                        .into_iter()
                        .map(|(src, ids)| (src, std::sync::Arc::new(ids)))
                        .collect()
                })
                .collect()
        };
        let mut send: Vec<Vec<(usize, ExchangeIds)>> = vec![Vec::new(); shards];
        for (dest, groups) in recv.iter().enumerate() {
            for (src, ids) in groups {
                send[*src].push((dest, ids.clone()));
            }
        }
        MessagePlan {
            plan,
            send,
            recv,
            full_exchange,
        }
    }

    pub(crate) fn views(&self) -> &[ShardView] {
        self.plan.views()
    }
}

/// A lifetime-erased gather kernel shipped to a shard worker for one
/// round: `(frame, nodes, out)` appends one new load per listed node, in
/// list order. The list form lets a worker hand whole interior/boundary
/// batches to the planned run kernels ([`kernels::gather_list`]) instead
/// of paying a dynamic dispatch per node. See the safety argument at the
/// erasure site ([`make_message_kernel`]).
type MsgKernel<L> = Box<dyn Fn(&[L], &[u32], &mut Vec<L>) + Send + 'static>;

/// [`MsgKernel`] before the lifetime erasure: still borrowing the
/// protocol it wraps.
type BorrowedMsgKernel<'p, L> = Box<dyn Fn(&[L], &[u32], &mut Vec<L>) + Send + 'p>;

/// Wraps the protocol's gather for one round, erasing the `&P` borrow to
/// `'static`. With a resolved [`GatherPlan`] and a protocol-supplied
/// [`GatherSpec`], the kernel runs the planned batch gather (identical
/// lane order, so bit-identity holds); otherwise it falls back to
/// per-node `node_new_load`.
///
/// SAFETY (of the erasure, discharged by the caller protocol):
/// [`Engine::round`] blocks until every worker has reported its round
/// completion, and workers drop their kernel box *before* reporting — so
/// the borrow of `protocol` never outlives the `round` call that created
/// it. Same argument as [`WorkerPool::gather`]'s task erasure.
fn make_message_kernel<P: Protocol + Sync>(
    protocol: &P,
    kind: KernelKind,
    plan: Option<std::sync::Arc<GatherPlan>>,
) -> MsgKernel<P::Load> {
    let kernel: BorrowedMsgKernel<'_, P::Load> = match plan {
        Some(plan) if protocol.gather_spec().is_some() => Box::new(move |frame, nodes, out| {
            let spec = protocol
                .gather_spec()
                .expect("spec checked at kernel construction");
            kernels::gather_list(kind, &plan, &spec, frame, nodes, &mut |_, value| {
                out.push(value)
            });
        }),
        _ => Box::new(move |frame, nodes, out| {
            out.extend(nodes.iter().map(|&v| protocol.node_new_load(frame, v)));
        }),
    };
    unsafe { std::mem::transmute::<BorrowedMsgKernel<'_, P::Load>, MsgKernel<P::Load>>(kernel) }
}

/// How often a supervising coordinator's collect loop wakes to scan for
/// dead worker threads. Worker-side retransmit requests are governed by
/// the armed plan's [`FaultPlan::patience`] instead; unsupervised rounds
/// (no plan armed) never poll at all — they block exactly as before.
const SUPERVISE_POLL: Duration = Duration::from_millis(25);

/// How a round command establishes the shard's round-start owned values.
enum OwnedIn<L> {
    /// The coordinator supplies the full owned slice (ascending global
    /// id, parallel to the view's owned list) — every legacy round, and
    /// the seeding round of a resident session.
    Values(Vec<L>),
    /// Resident steady state: the worker's frame already holds the
    /// owned values from the previous round's scatter; apply only these
    /// workload deltas — `(global id, new value)` assignments — before
    /// posting halos.
    Deltas(Vec<(u32, L)>),
}

/// Whether (and how much) a round's report carries owned values back to
/// the coordinator.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CollectMode {
    /// Report nothing — resident steady state (stats off, no reader).
    None,
    /// Report the gathered new loads (every legacy round).
    New,
    /// Report the new loads **and** the round-start owned values
    /// (resident stats/collect rounds: `compute_stats` and load-reading
    /// hooks need both sides of the snapshot swap).
    Both,
}

/// One round's command to a shard worker.
struct RoundCmd<L> {
    /// The round's gather kernel (lifetime-erased; see
    /// [`make_message_kernel`]).
    kernel: MsgKernel<L>,
    /// Round-start owned values: a full slice, or resident deltas.
    owned: OwnedIn<L>,
    /// What the round report carries back.
    collect: CollectMode,
    /// Freed buffers riding back to the worker's free list (the
    /// coordinator returns the vectors it consumed from earlier reports,
    /// so steady-state rounds recycle instead of allocating).
    recycle: Vec<Vec<L>>,
    /// The coordinator's round-attempt sequence number. Halo batches and
    /// reports carry it so anything from a past attempt — a straggler's
    /// duplicate, a failed round's in-flight send — is discarded instead
    /// of being consumed by a later round.
    seq: u64,
    /// Faults injected into this worker this round (empty when no
    /// [`FaultPlan`] is armed — an empty `Vec` does not allocate).
    faults: Vec<FaultKind>,
    /// `Some(patience)` when supervision is on: how long to wait on a
    /// missing halo batch before asking the coordinator to retransmit
    /// it. `None` keeps the legacy blocking receive.
    nack_after: Option<Duration>,
    /// Span recording for this round. Workers spawn before the engine's
    /// telemetry can be armed, so the handle rides in with each command:
    /// an `Off` copy is a unit-variant move, an armed one costs one Arc
    /// increment per shard per round.
    telemetry: Telemetry,
    /// The engine round number the command executes (spans are tagged
    /// with it; the attempt-scoped `seq` stays the dedup key).
    round: u64,
}

/// Everything a shard worker can receive: plan updates and round
/// commands from the coordinator, batched halo values from peer shards.
enum ToWorker<L> {
    /// A new exchange schedule (sent before the round that first uses it).
    Plan(Arc<MessagePlan>),
    /// Execute one round.
    Round(Box<RoundCmd<L>>),
    /// Batched halo values from shard `src` for round attempt `seq`,
    /// parallel to the id list both sides derive from the current plan.
    Halo { src: u32, seq: u64, values: Vec<L> },
    /// Report the frame's current owned values (ascending global id) —
    /// a resident session's out-of-round sync (a caller reading loads,
    /// session end, or a plan change forcing a reseed).
    Collect { seq: u64 },
    /// Shut down the worker loop.
    Exit,
}

/// What one shard-worker round produced.
enum RoundOutcome<L> {
    /// Normal completion (whether or not the kernel succeeded): the
    /// worker reports and parks for the next round.
    Report {
        ok: bool,
        results: Vec<L>,
        /// Round-start owned values (ascending global id) — nonempty
        /// only under [`CollectMode::Both`].
        prev: Vec<L>,
        messages: usize,
        values_sent: usize,
    },
    /// The worker consumed `Exit` (or its channel closed) mid-round —
    /// the engine is going away. It must still report a failed round to
    /// release the coordinator's barrier, and then **terminate** rather
    /// than re-park: its own `peers` clone of its sender keeps the
    /// channel alive, so no disconnect (and no second `Exit`) would
    /// ever wake it again, and `MessageExec::drop`'s join would hang.
    Shutdown,
    /// An injected [`FaultKind::Panic`]: the worker thread dies *without
    /// reporting*, before posting any halo batch — modeling a crashed
    /// worker. The kernel box is dropped on the way out (thread-local
    /// destruction completes before `JoinHandle::is_finished` turns
    /// true, so the erased protocol borrow never outlives the round
    /// that is supervising it). The coordinator detects the death via
    /// the thread handle, recomputes the shard from its snapshot,
    /// retransmits the dead shard's outbound batches, and respawns.
    Die,
}

/// A shard worker's message to the coordinator.
enum FromWorker<L> {
    /// The round barrier report.
    Done(WorkerDone<L>),
    /// Answer to [`ToWorker::Collect`]: the frame's current owned
    /// values, ascending global id.
    Collected {
        shard: usize,
        seq: u64,
        values: Vec<L>,
    },
    /// Supervised receive timed out: shard `shard` is still missing the
    /// batch from `src` for round attempt `seq` — the coordinator
    /// rebuilds it from the round-start snapshot and retransmits.
    /// Receiver-side dedup makes a re-request for a merely-late batch
    /// harmless, so correctness is independent of timing.
    MissingHalo { shard: usize, src: usize, seq: u64 },
}

/// A shard worker's round report to the coordinator.
struct WorkerDone<L> {
    shard: usize,
    /// The round attempt this report answers (stale reports are
    /// discarded by the coordinator).
    seq: u64,
    /// False when the kernel panicked or a halo message was malformed;
    /// the coordinator surfaces this as an [`EngineError`] after the
    /// barrier.
    ok: bool,
    /// New loads of the owned nodes in gather order
    /// (interior-then-boundary, exactly the shard's compute order).
    /// Empty under [`CollectMode::None`].
    results: Vec<L>,
    /// Round-start owned values (ascending global id), captured after
    /// delta application — nonempty only under [`CollectMode::Both`].
    prev: Vec<L>,
    /// Halo messages this shard posted this round.
    messages: usize,
    /// Values carried by those messages.
    values_sent: usize,
}

/// Cap on a buffer free list (worker- and coordinator-side): enough to
/// cover a round's working set — halo posts in flight, results, the
/// collect capture — without hoarding `O(n)`-capacity vectors.
const MSG_FREE_CAP: usize = 8;

/// Pops a recycled buffer (cleared) from a free list, or allocates.
fn pooled<L>(free: &mut Vec<Vec<L>>) -> Vec<L> {
    match free.pop() {
        Some(mut v) => {
            v.clear();
            v
        }
        None => Vec::new(),
    }
}

/// Returns a spent buffer to a bounded free list (dropped when full).
fn recycle_into<L>(free: &mut Vec<Vec<L>>, v: Vec<L>) {
    if free.len() < MSG_FREE_CAP {
        free.push(v);
    }
}

/// One round of the shard worker, after its `Round` command arrived.
/// Returns the round report, or signals worker shutdown.
///
/// The phase order is the message-passing round shape — and it is also
/// what makes a kernel panic unable to deadlock the barrier: halo
/// messages carry round-*start* owned values, so every send completes
/// before the first kernel evaluation can run (and possibly panic).
///
/// 1. refresh the frame's owned slots from the round command;
/// 2. **post** boundary loads, batched per neighbour shard;
/// 3. gather **interior** nodes (owned reads only — overlaps the
///    receives); skipped under full exchange, where no node is
///    computable before the receives;
/// 4. **receive** the expected halo batches, scattering each into the
///    frame at the ids both sides derive from the plan;
/// 5. gather **boundary** nodes (halo reads now satisfied).
#[allow(clippy::too_many_arguments)]
fn message_worker_round<L: Copy>(
    shard: usize,
    plan: &MessagePlan,
    cmd: &mut RoundCmd<L>,
    frame: &mut [L],
    stash: &mut Vec<(u32, u64, Vec<L>)>,
    free: &mut Vec<Vec<L>>,
    rx: &mpsc::Receiver<ToWorker<L>>,
    peers: &RwLock<Vec<mpsc::Sender<ToWorker<L>>>>,
    supervisor: &mpsc::Sender<FromWorker<L>>,
) -> RoundOutcome<L> {
    let view = &plan.views()[shard];
    let mut ok = true;

    // Freed buffers riding back from the coordinator replenish the free
    // list before this round draws from it.
    for v in cmd.recycle.drain(..) {
        recycle_into(free, v);
    }

    // 0. Injected faults for this worker this round (the list is empty —
    // and free to scan — when no plan is armed).
    let mut drop_halos = false;
    let mut duplicate = false;
    let mut reorder = false;
    for fault in &cmd.faults {
        match *fault {
            FaultKind::Panic => return RoundOutcome::Die,
            FaultKind::Delay { ms } => std::thread::sleep(Duration::from_millis(ms)),
            FaultKind::DropHalo => drop_halos = true,
            FaultKind::DuplicateHalo => duplicate = true,
            FaultKind::ReorderHalo => reorder = true,
        }
    }

    // 1. Own this round's values: a full coordinator slice (legacy and
    // seeding rounds), or resident workload deltas applied on top of
    // the frame the previous round's scatter left behind.
    match std::mem::replace(&mut cmd.owned, OwnedIn::Deltas(Vec::new())) {
        OwnedIn::Values(values) => {
            debug_assert_eq!(values.len(), view.owned().len());
            for (&v, &value) in view.owned().iter().zip(&values) {
                frame[v as usize] = value;
            }
            recycle_into(free, values);
        }
        OwnedIn::Deltas(deltas) => {
            for &(v, value) in &deltas {
                frame[v as usize] = value;
            }
        }
    }

    // Collect rounds capture the round-start owned values (deltas
    // included) before the gather's scatter overwrites them — the
    // coordinator needs both sides of the snapshot swap for stats and
    // load-reading hooks.
    let mut prev: Vec<L> = Vec::new();
    if cmd.collect == CollectMode::Both {
        prev = pooled(free);
        prev.extend(view.owned().iter().map(|&v| frame[v as usize]));
    }

    // 2. Post boundary loads (round-start values — independent of any
    // later kernel outcome, so peers can never be starved by a panic).
    let tel = &cmd.telemetry;
    let lane = shard as u32;
    let mut messages = 0usize;
    let mut values_sent = 0usize;
    let t_post = tel.start();
    if !drop_halos {
        // One uncontended read-lock per round: the coordinator only
        // write-locks the peer table when it respawns a dead worker.
        let peers = peers.read().expect("peer table poisoned");
        let schedule = &plan.send[shard];
        for i in 0..schedule.len() {
            // ReorderHalo posts in reversed schedule order — semantically
            // invisible, since batches are keyed by source shard.
            let i = if reorder { schedule.len() - 1 - i } else { i };
            let (dest, ids) = &schedule[i];
            let mut values = pooled(free);
            values.extend(ids.iter().map(|&v| frame[v as usize]));
            if duplicate {
                messages += 1;
                values_sent += values.len();
                let _ = peers[*dest].send(ToWorker::Halo {
                    src: shard as u32,
                    seq: cmd.seq,
                    values: values.clone(),
                });
            }
            messages += 1;
            values_sent += values.len();
            // A dead peer means the round is already doomed; the
            // coordinator surfaces that through the missing Done (or
            // recovers it under supervision), not here.
            let _ = peers[*dest].send(ToWorker::Halo {
                src: shard as u32,
                seq: cmd.seq,
                values,
            });
        }
    }
    tel.record(lane, cmd.round, SpanPhase::PostHalo, t_post);

    let kernel = &cmd.kernel;
    let mut results = pooled(free);
    results.reserve(view.owned().len());
    let gather = |nodes: &[u32], results: &mut Vec<L>, frame: &[L], ok: &mut bool| {
        // Gather straight into the (pooled) report buffer — no
        // per-segment staging vector. A panicking kernel may leave a
        // partial tail, but a failed round's results are discarded
        // wholesale by the coordinator, so the tail is never read.
        if catch_unwind(AssertUnwindSafe(|| kernel(frame, nodes, results))).is_err() {
            *ok = false;
        }
    };

    // 3. Interior gather overlaps the halo receive (graph plans only:
    // interior nodes read owned values alone by construction).
    if !plan.full_exchange {
        let t0 = tel.start();
        gather(view.interior(), &mut results, frame, &mut ok);
        tel.record(lane, cmd.round, SpanPhase::GatherInterior, t0);
    }

    // 4. Receive the expected batches (early arrivals were stashed while
    // waiting for the round command). Batches are deduplicated per
    // source within the round, and matched by sequence tag: stale
    // batches (a past attempt's stragglers) are dropped, future ones
    // (defensive — the barrier should make them impossible) re-stashed.
    let recv_sched = &plan.recv[shard];
    let expected = recv_sched.len();
    let mut got = vec![false; expected];
    let mut received = 0usize;
    let deliver = |src: u32,
                   values: Vec<L>,
                   frame: &mut [L],
                   got: &mut [bool],
                   received: &mut usize,
                   free: &mut Vec<Vec<L>>,
                   ok: &mut bool| {
        match recv_sched.iter().position(|(s, _)| *s == src as usize) {
            Some(i) if got[i] => recycle_into(free, values), // duplicate batch: drop
            Some(i) => {
                got[i] = true;
                *received += 1;
                let ids = &recv_sched[i].1;
                if ids.len() == values.len() {
                    for (&v, &value) in ids.iter().zip(values.iter()) {
                        frame[v as usize] = value;
                    }
                } else {
                    *ok = false; // wrong batch size
                }
                // The sender's buffer stays with this worker: received
                // batches are the free list's steady-state refill.
                recycle_into(free, values);
            }
            None => {
                // Unscheduled source: count it toward the barrier (so the
                // round still completes and reports the failure) and fail.
                *received += 1;
                *ok = false;
            }
        }
    };
    let t_recv = tel.start();
    let pending = std::mem::take(stash);
    for (src, seq, values) in pending {
        match seq.cmp(&cmd.seq) {
            std::cmp::Ordering::Less => {} // stale: discard
            std::cmp::Ordering::Greater => stash.push((src, seq, values)),
            std::cmp::Ordering::Equal => {
                deliver(src, values, frame, &mut got, &mut received, free, &mut ok)
            }
        }
    }
    while received < expected {
        let msg = match cmd.nack_after {
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return RoundOutcome::Shutdown,
            },
            Some(patience) => match rx.recv_timeout(patience) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Ask the coordinator to retransmit whatever is still
                    // missing; it rebuilds any batch from its round-start
                    // snapshot. Repeats every `patience` until satisfied.
                    for (i, (src, _)) in recv_sched.iter().enumerate() {
                        if !got[i] {
                            let _ = supervisor.send(FromWorker::MissingHalo {
                                shard,
                                src: *src,
                                seq: cmd.seq,
                            });
                        }
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return RoundOutcome::Shutdown,
            },
        };
        match msg {
            ToWorker::Halo { src, seq, values } => match seq.cmp(&cmd.seq) {
                std::cmp::Ordering::Less => {} // stale: discard
                std::cmp::Ordering::Greater => stash.push((src, seq, values)),
                std::cmp::Ordering::Equal => {
                    deliver(src, values, frame, &mut got, &mut received, free, &mut ok)
                }
            },
            // Exit (engine dropped mid-round) or an unexpected command:
            // abandon the round and terminate rather than blocking
            // forever (or re-parking with no wake-up left).
            _ => return RoundOutcome::Shutdown,
        }
    }
    tel.record(lane, cmd.round, SpanPhase::RecvHalo, t_recv);

    // 5. Boundary gather (everything under full exchange).
    let t_bnd = tel.start();
    if plan.full_exchange {
        gather(view.owned(), &mut results, frame, &mut ok);
        debug_assert!(view.boundary().is_empty(), "trivial views have no boundary");
    } else {
        gather(view.boundary(), &mut results, frame, &mut ok);
    }
    tel.record(lane, cmd.round, SpanPhase::GatherBoundary, t_bnd);

    // 6. Scatter the new loads into the frame's owned slots: this is
    // what makes the frame *resident* — next round's halos and gathers
    // read current values with no coordinator refresh. Results arrive
    // in gather order (interior-then-boundary; owned order under full
    // exchange). Skipped on a failed round, which keeps the frame at
    // the round-start state the coordinator still knows about.
    if ok {
        if plan.full_exchange {
            for (&v, &value) in view.owned().iter().zip(results.iter()) {
                frame[v as usize] = value;
            }
        } else {
            let order = view.interior().iter().chain(view.boundary());
            for (&v, &value) in order.zip(results.iter()) {
                frame[v as usize] = value;
            }
        }
    }

    // 7. Report only what the coordinator asked for; unsent buffers stay
    // in the free list for the next round.
    let (results, prev) = match cmd.collect {
        CollectMode::None => {
            recycle_into(free, results);
            debug_assert!(prev.is_empty());
            (Vec::new(), Vec::new())
        }
        CollectMode::New => {
            debug_assert!(prev.is_empty());
            (results, Vec::new())
        }
        CollectMode::Both => (results, prev),
    };
    RoundOutcome::Report {
        ok,
        results,
        prev,
        messages,
        values_sent,
    }
}

/// The long-lived shard worker loop: parks on its channel between rounds,
/// holding its frame (the shard-local value store) across rounds.
fn message_worker<L: Copy + Default + Send + 'static>(
    shard: usize,
    n: usize,
    rx: mpsc::Receiver<ToWorker<L>>,
    peers: Arc<RwLock<Vec<mpsc::Sender<ToWorker<L>>>>>,
    done: mpsc::Sender<FromWorker<L>>,
) {
    // The shard's value store, addressed by global node id so the
    // protocol kernel (a global-index function) runs unchanged. Only the
    // owned and halo slots are ever written — its *information content*
    // is exactly the ShardView-local state; global addressing is the
    // price of reusing one kernel across 16 protocols instead of
    // reimplementing each over the local CSR. A respawned worker starts
    // from a default frame: no state transfer is needed, because every
    // slot a round's kernel reads is rewritten that round from the
    // coordinator's snapshot (owned values) and the halo exchange.
    let mut frame: Vec<L> = vec![L::default(); n];
    let mut plan: Option<Arc<MessagePlan>> = None;
    // Halo batches that arrived before this worker's round command (peer
    // shards may start a round earlier), tagged with their round-attempt
    // sequence so stale leftovers are discarded at the next round start.
    let mut stash: Vec<(u32, u64, Vec<L>)> = Vec::new();
    // Spent halo/report buffers recycled across rounds (fed by received
    // batches and the coordinator's `recycle` rides).
    let mut free: Vec<Vec<L>> = Vec::new();
    loop {
        let mut cmd = loop {
            match rx.recv() {
                Ok(ToWorker::Plan(p)) => plan = Some(p),
                Ok(ToWorker::Round(cmd)) => break cmd,
                Ok(ToWorker::Halo { src, seq, values }) => stash.push((src, seq, values)),
                Ok(ToWorker::Collect { seq }) => {
                    // Out-of-round sync: report the frame's current owned
                    // values (ascending global id). Only resident
                    // sessions send this, between rounds, so the frame
                    // is quiescent here.
                    let current = plan.as_ref().expect("plan precedes the first collect");
                    let view = &current.views()[shard];
                    let mut values = pooled(&mut free);
                    values.extend(view.owned().iter().map(|&v| frame[v as usize]));
                    if done
                        .send(FromWorker::Collected { shard, seq, values })
                        .is_err()
                    {
                        return;
                    }
                }
                Ok(ToWorker::Exit) | Err(_) => return,
            }
        };
        let current = plan.as_ref().expect("plan precedes the first round");
        let outcome = message_worker_round(
            shard, current, &mut cmd, &mut frame, &mut stash, &mut free, &rx, &peers, &done,
        );
        let seq = cmd.seq;
        // Drop the kernel before reporting: the coordinator's round
        // returns (releasing the protocol borrow) once every report is
        // in, so the erased borrow must be dead by then.
        drop(cmd);
        let (report, terminate) = match outcome {
            RoundOutcome::Report {
                ok,
                results,
                prev,
                messages,
                values_sent,
            } => (
                WorkerDone {
                    shard,
                    seq,
                    ok,
                    results,
                    prev,
                    messages,
                    values_sent,
                },
                false,
            ),
            // Shutdown mid-round: still release the coordinator's
            // barrier with a failed report, then terminate.
            RoundOutcome::Shutdown => (
                WorkerDone {
                    shard,
                    seq,
                    ok: false,
                    results: Vec::new(),
                    prev: Vec::new(),
                    messages: 0,
                    values_sent: 0,
                },
                true,
            ),
            // Injected crash: vanish without reporting. The kernel box
            // was just dropped above, and the thread's locals are fully
            // destroyed before `is_finished()` turns true — so the
            // supervisor's death detection doubles as proof the erased
            // protocol borrow is dead.
            RoundOutcome::Die => return,
        };
        if done.send(FromWorker::Done(report)).is_err() || terminate {
            return; // engine gone
        }
    }
}

/// The message backend's coordinator-side state: channels to the
/// long-lived shard workers and the memoized exchange plans.
struct MessageExec<L> {
    to_workers: Vec<mpsc::Sender<ToWorker<L>>>,
    from_workers: mpsc::Receiver<FromWorker<L>>,
    /// The coordinator's own clone of the workers' report sender. Kept
    /// for respawns — and so `from_workers` never observes a full
    /// disconnect even if every worker dies at once.
    done_tx: mpsc::Sender<FromWorker<L>>,
    /// The peer dispatch table workers post halo batches through, shared
    /// so a respawn can swap in the replacement's sender in place.
    peers: Arc<RwLock<Vec<mpsc::Sender<ToWorker<L>>>>>,
    handles: Vec<JoinHandle<()>>,
    /// Node count (respawned workers need it for their frame).
    n: usize,
    spec: PartitionSpec,
    plans: PlanCache<Arc<MessagePlan>>,
    /// Fingerprint of the plan last broadcast to the workers; a round
    /// only re-broadcasts when the current plan's fingerprint differs.
    broadcast_key: Option<u64>,
    /// The most recent round's communication metrics.
    last_comm: Option<CommMetrics>,
    /// Round-attempt counter stamped on every command, halo batch, and
    /// report. Incremented per attempt (not per *successful* round), so
    /// a retry after a failed attempt gets a fresh tag and any stale
    /// in-flight batch is discarded rather than consumed.
    round_seq: u64,
    /// Whether this executor was declared [`Backend::Message`] with
    /// `resident: true` (routing intent only — the resident session API
    /// works either way; see [`Engine::resident_begin`]).
    resident_backend: bool,
    /// Resident-session seeding state: the plan the worker frames
    /// currently hold owned values under, plus the owner map for delta
    /// routing. `None` until the session's first round (and after any
    /// [`Engine::resident_end`]).
    seeded: Option<ResidentSeed>,
    /// Coordinator-side buffer free list, fed by consumed report
    /// vectors; drawn on for owned dispatch slices and recycle rides.
    free: Vec<Vec<L>>,
}

/// What the worker frames are currently seeded under (resident sessions).
struct ResidentSeed {
    /// Fingerprint key of the seeded plan (mismatch with the current
    /// plan forces a collect-then-reseed).
    key: u64,
    /// The seeded plan itself, retained so a post-change collect can
    /// still scatter under the ownership the frames actually hold.
    plan: Arc<MessagePlan>,
    /// `owner[v]` = shard owning global node `v` (delta routing).
    owner: Vec<u32>,
}

impl<L> std::fmt::Debug for MessageExec<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageExec")
            .field("spec", &self.spec)
            .field("shards", &self.to_workers.len())
            .field("plans", &self.plans.entries.len())
            .field("plans_built", &self.plans.built)
            .finish()
    }
}

impl<L: Copy + Default + Send + 'static> MessageExec<L> {
    fn new(spec: PartitionSpec, n: usize, resident_backend: bool) -> MessageExec<L> {
        let shards = spec.shards();
        let (done_tx, from_workers) = mpsc::channel::<FromWorker<L>>();
        let mut to_workers = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel::<ToWorker<L>>();
            to_workers.push(tx);
            receivers.push(rx);
        }
        let peers = Arc::new(RwLock::new(to_workers.clone()));
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let peers = Arc::clone(&peers);
                let done = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("dlb-msg-{s}"))
                    .spawn(move || message_worker(s, n, rx, peers, done))
                    .expect("spawn message shard worker")
            })
            .collect();
        MessageExec {
            to_workers,
            from_workers,
            done_tx,
            peers,
            handles,
            n,
            spec,
            plans: PlanCache::new(),
            broadcast_key: None,
            last_comm: None,
            round_seq: 0,
            resident_backend,
            seeded: None,
            free: Vec::new(),
        }
    }

    fn shards(&self) -> usize {
        self.to_workers.len()
    }

    /// Replaces a dead shard worker with a fresh thread: a new channel
    /// is installed in the dispatch table and the shared peer table (so
    /// peers' next posts reach the replacement), and the current plan is
    /// re-sent. No state transfer is needed — the coordinator's snapshot
    /// is the authoritative store, and every slot a worker's kernel
    /// reads is rewritten each round from it.
    fn respawn(&mut self, shard: usize, plan: &Arc<MessagePlan>) {
        let (tx, rx) = mpsc::channel::<ToWorker<L>>();
        self.to_workers[shard] = tx.clone();
        self.peers.write().expect("peer table poisoned")[shard] = tx;
        let peers = Arc::clone(&self.peers);
        let done = self.done_tx.clone();
        let n = self.n;
        self.handles[shard] = std::thread::Builder::new()
            .name(format!("dlb-msg-{shard}"))
            .spawn(move || message_worker(shard, n, rx, peers, done))
            .expect("respawn message shard worker");
        self.to_workers[shard]
            .send(ToWorker::Plan(plan.clone()))
            .expect("freshly respawned worker must be alive");
    }

    /// One message-passing round: broadcast the plan if it changed,
    /// command every worker with its owned round-start values, collect
    /// the round barrier, and scatter the per-shard results into `out`.
    /// Returns the first failed shard on a kernel failure.
    ///
    /// With `faults` present the round runs **supervised**: the collect
    /// loop polls instead of blocking, retransmits missing halo batches
    /// on worker nacks (any batch is reconstructible from `snapshot` and
    /// the plan), and recovers dead workers — recompute the shard's
    /// owned values from the snapshot (bit-identical: the snapshot is a
    /// superset of any worker frame and the kernel is pure per node),
    /// retransmit the dead shard's outbound batches, respawn the thread.
    /// Recovery traffic is charged to the round's [`CommMetrics`].
    /// Without `faults` every receive is the legacy blocking path.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        kernels: impl Fn() -> MsgKernel<L>,
        snapshot: &[L],
        out: &mut [L],
        faults: Option<(&FaultPlan, u64)>,
        fault_stats: &mut FaultStats,
        tel: &Telemetry,
        round_no: u64,
    ) -> Result<(), usize> {
        let plan = self.plans.current().clone();
        let key = self.plans.entries[self.plans.current].0;
        assert_eq!(
            out.len(),
            plan.views().iter().map(|v| v.owned().len()).sum::<usize>(),
            "message plan node count must equal the load vector length"
        );
        self.round_seq += 1;
        let seq = self.round_seq;
        let shards = self.shards();
        let supervised = faults.is_some();
        let nack_after = faults.map(|(fault_plan, _)| fault_plan.patience());
        let mut shard_faults: Vec<Vec<FaultKind>> = vec![Vec::new(); shards];
        if let Some((fault_plan, round_no)) = faults {
            for event in fault_plan.events_at(round_no) {
                if event.shard < shards {
                    shard_faults[event.shard].push(event.kind);
                    fault_stats.faults_injected += 1;
                }
            }
        }

        let mut comm = CommMetrics {
            shards,
            ..CommMetrics::default()
        };
        // Dispatch: slice the snapshot into per-shard owned blocks and
        // command every worker — the coordinator half of the scatter.
        let t_dispatch = tel.start();
        let rebroadcast = self.broadcast_key != Some(key);
        for (s, pending_faults) in shard_faults.iter_mut().enumerate() {
            if rebroadcast
                && self.to_workers[s]
                    .send(ToWorker::Plan(plan.clone()))
                    .is_err()
            {
                // A worker found dead at dispatch (it died under a
                // previous engine's... never normally: deaths are
                // recovered in the round they happen). Defensive respawn
                // under supervision; without it, keep the legacy panic.
                assert!(supervised, "message worker exited early");
                self.respawn(s, &plan);
                fault_stats.recoveries += 1;
            }
            let mut owned = pooled(&mut self.free);
            owned.extend(
                plan.views()[s]
                    .owned()
                    .iter()
                    .map(|&v| snapshot[v as usize]),
            );
            comm.owned_values_in += owned.len();
            let cmd = ToWorker::Round(Box::new(RoundCmd {
                kernel: kernels(),
                owned: OwnedIn::Values(owned),
                collect: CollectMode::New,
                recycle: Vec::new(),
                seq,
                faults: std::mem::take(pending_faults),
                nack_after,
                telemetry: tel.clone(),
                round: round_no,
            }));
            if let Err(mpsc::SendError(cmd)) = self.to_workers[s].send(cmd) {
                assert!(supervised, "message worker exited early");
                self.respawn(s, &plan);
                fault_stats.recoveries += 1;
                self.to_workers[s]
                    .send(cmd)
                    .expect("respawned message worker exited early");
            }
        }
        self.broadcast_key = Some(key);
        tel.record(ENGINE_LANE, round_no, SpanPhase::ScatterOwned, t_dispatch);

        let mut results: Vec<Option<Vec<L>>> = (0..shards).map(|_| None).collect();
        let mut outstanding = shards;
        let mut failed: Option<usize> = None;
        while outstanding > 0 {
            let msg = if supervised {
                match self.from_workers.recv_timeout(SUPERVISE_POLL) {
                    Ok(msg) => msg,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Scan the silent shards for dead worker threads.
                        // `is_finished()` implies the thread's locals —
                        // including any round command left in its queue —
                        // are destroyed, so no erased kernel borrow
                        // survives past this round.
                        for (s, slot) in results.iter_mut().enumerate() {
                            if slot.is_none() && self.handles[s].is_finished() {
                                let t_recover = tel.start();
                                let view = &plan.views()[s];
                                // Re-home the dead shard: recompute its
                                // owned values from the snapshot (the
                                // injected-death path never reaches the
                                // kernel, so a genuine kernel panic here
                                // reproduces and fails the round).
                                let kernel = kernels();
                                let mut values: Vec<L> = Vec::new();
                                let computed = catch_unwind(AssertUnwindSafe(|| {
                                    let mut out = Vec::with_capacity(view.owned().len());
                                    if plan.full_exchange {
                                        kernel(snapshot, view.owned(), &mut out);
                                    } else {
                                        kernel(snapshot, view.interior(), &mut out);
                                        kernel(snapshot, view.boundary(), &mut out);
                                    }
                                    out
                                }));
                                match computed {
                                    Ok(out) => values = out,
                                    Err(_) => {
                                        failed.get_or_insert(s);
                                    }
                                }
                                // Retransmit the dead shard's outbound
                                // batches so its starved peers don't wait
                                // out their patience (receiver dedup makes
                                // any overlap with a nack-triggered
                                // retransmission harmless).
                                for (dest, ids) in &plan.send[s] {
                                    let halo: Vec<L> =
                                        ids.iter().map(|&v| snapshot[v as usize]).collect();
                                    comm.messages += 1;
                                    comm.values_sent += halo.len();
                                    let _ = self.to_workers[*dest].send(ToWorker::Halo {
                                        src: s as u32,
                                        seq,
                                        values: halo,
                                    });
                                }
                                fault_stats.recoveries += 1;
                                fault_stats.rehomed_values += view.owned().len() as u64;
                                self.respawn(s, &plan);
                                *slot = Some(values);
                                outstanding -= 1;
                                tel.record(
                                    ENGINE_LANE,
                                    round_no,
                                    SpanPhase::FaultRecovery,
                                    t_recover,
                                );
                            }
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("coordinator holds its own report sender")
                    }
                }
            } else {
                self.from_workers
                    .recv()
                    .expect("message worker exited early")
            };
            match msg {
                FromWorker::Done(report) => {
                    // Stale attempts and shards already recovered by the
                    // supervisor are discarded, not consumed.
                    if report.seq != seq || results[report.shard].is_some() {
                        continue;
                    }
                    if !report.ok {
                        failed.get_or_insert(report.shard);
                    }
                    comm.messages += report.messages;
                    comm.values_sent += report.values_sent;
                    comm.max_shard_values_sent = comm.max_shard_values_sent.max(report.values_sent);
                    comm.owned_values_out += report.results.len() + report.prev.len();
                    results[report.shard] = Some(report.results);
                    outstanding -= 1;
                }
                FromWorker::Collected { .. } => {
                    // Stale resident-sync answer — impossible between a
                    // synchronous collect and the next round, but cheap
                    // to tolerate.
                }
                FromWorker::MissingHalo {
                    shard,
                    src,
                    seq: want,
                } => {
                    if want != seq {
                        continue; // stale nack from a past attempt
                    }
                    // Rebuild the missing batch from the snapshot and
                    // retransmit it; charged as recovery traffic.
                    if let Some((_, ids)) = plan.recv[shard].iter().find(|(g, _)| *g == src) {
                        let t_recover = tel.start();
                        let values: Vec<L> = ids.iter().map(|&v| snapshot[v as usize]).collect();
                        comm.messages += 1;
                        comm.values_sent += values.len();
                        let _ = self.to_workers[shard].send(ToWorker::Halo {
                            src: src as u32,
                            seq,
                            values,
                        });
                        fault_stats.recoveries += 1;
                        tel.record(ENGINE_LANE, round_no, SpanPhase::FaultRecovery, t_recover);
                    }
                }
            }
        }
        comm.halo_bytes = comm.values_sent * std::mem::size_of::<L>();
        self.last_comm = Some(comm);
        if let Some(shard) = failed {
            return Err(shard);
        }

        // Gather half of the scatter: fold the per-shard results back
        // into the global vector. The spent report buffers feed the
        // coordinator's free list for the next round's owned dispatch.
        let t_scatter = tel.start();
        for (view, shard_results) in plan.views().iter().zip(results) {
            let shard_results = shard_results.expect("every shard reported");
            // Results arrive in the shard's gather order:
            // interior-then-boundary.
            let order = view.interior().iter().chain(view.boundary());
            debug_assert_eq!(shard_results.len(), view.owned().len());
            for (&v, &value) in order.zip(shard_results.iter()) {
                out[v as usize] = value;
            }
            recycle_into(&mut self.free, shard_results);
        }
        tel.record(ENGINE_LANE, round_no, SpanPhase::ScatterOwned, t_scatter);
        Ok(())
    }

    /// One **resident** round: no owned values travel in (a seeding
    /// round ships the mirror once; steady-state rounds ship only the
    /// routed workload deltas) and owned values travel back only under
    /// `collect` — [`CollectMode::Both`] scatters the round-start values
    /// into `prev_out` and the new loads into `mirror`. Never
    /// supervised: the engine rejects resident rounds under an armed
    /// fault plan, because recovery re-homes shards from a round-start
    /// snapshot the coordinator deliberately no longer holds.
    #[allow(clippy::too_many_arguments)]
    fn resident_round(
        &mut self,
        kernels: impl Fn() -> MsgKernel<L>,
        seed: bool,
        mirror: &mut [L],
        prev_out: &mut [L],
        pending: &mut Vec<(u32, L)>,
        collect: CollectMode,
        tel: &Telemetry,
        round_no: u64,
    ) -> Result<(), usize> {
        let plan = self.plans.current().clone();
        let key = self.plans.entries[self.plans.current].0;
        assert_eq!(
            mirror.len(),
            plan.views().iter().map(|v| v.owned().len()).sum::<usize>(),
            "message plan node count must equal the load vector length"
        );
        self.round_seq += 1;
        let seq = self.round_seq;
        let shards = self.shards();
        let mut comm = CommMetrics {
            shards,
            ..CommMetrics::default()
        };

        // Route the queued workload deltas by the owner map (deltas are
        // `(global id, value)` assignments — idempotent, so routing
        // cannot perturb bit-identity).
        let mut routed: Vec<Vec<(u32, L)>> = vec![Vec::new(); shards];
        if !seed {
            let owner = &self
                .seeded
                .as_ref()
                .expect("steady resident rounds follow a seeded round")
                .owner;
            comm.delta_values = pending.len();
            for (v, value) in pending.drain(..) {
                routed[owner[v as usize] as usize].push((v, value));
            }
        } else {
            // The seed slices below are drawn from the mirror, which
            // already folds every queued delta in.
            pending.clear();
        }

        // Dispatch: a compact command per worker — deltas (plus recycled
        // buffers) in steady state, full owned slices when seeding.
        let t_dispatch = tel.start();
        if self.broadcast_key != Some(key) {
            for tx in &self.to_workers {
                tx.send(ToWorker::Plan(plan.clone()))
                    .expect("message worker exited early");
            }
            self.broadcast_key = Some(key);
        }
        for (s, deltas) in routed.into_iter().enumerate() {
            let owned = if seed {
                let mut owned = pooled(&mut self.free);
                owned.extend(plan.views()[s].owned().iter().map(|&v| mirror[v as usize]));
                comm.owned_values_in += owned.len();
                OwnedIn::Values(owned)
            } else {
                OwnedIn::Deltas(deltas)
            };
            // Hand back as many buffers as this round's report will
            // consume, so steady-state collect rounds stay allocation-free.
            let rides = match collect {
                CollectMode::None => 0,
                CollectMode::New => 1,
                CollectMode::Both => 2,
            };
            let mut recycle = Vec::new();
            for _ in 0..rides {
                match self.free.pop() {
                    Some(v) => recycle.push(v),
                    None => break,
                }
            }
            let cmd = ToWorker::Round(Box::new(RoundCmd {
                kernel: kernels(),
                owned,
                collect,
                recycle,
                seq,
                faults: Vec::new(),
                nack_after: None,
                telemetry: tel.clone(),
                round: round_no,
            }));
            self.to_workers[s]
                .send(cmd)
                .expect("message worker exited early");
        }
        let dispatch_phase = if seed {
            SpanPhase::ScatterOwned
        } else {
            SpanPhase::DeltaScatter
        };
        tel.record(ENGINE_LANE, round_no, dispatch_phase, t_dispatch);
        if seed {
            self.seeded = Some(ResidentSeed {
                key,
                plan: plan.clone(),
                owner: build_owner_map(&plan, mirror.len()),
            });
        }

        // Barrier: always blocking — resident rounds are never
        // supervised.
        let mut reports: Vec<Option<WorkerDone<L>>> = (0..shards).map(|_| None).collect();
        let mut outstanding = shards;
        let mut failed: Option<usize> = None;
        while outstanding > 0 {
            match self
                .from_workers
                .recv()
                .expect("message worker exited early")
            {
                FromWorker::Done(report) => {
                    if report.seq != seq || reports[report.shard].is_some() {
                        continue;
                    }
                    if !report.ok {
                        failed.get_or_insert(report.shard);
                    }
                    comm.messages += report.messages;
                    comm.values_sent += report.values_sent;
                    comm.max_shard_values_sent = comm.max_shard_values_sent.max(report.values_sent);
                    comm.owned_values_out += report.results.len() + report.prev.len();
                    outstanding -= 1;
                    let shard = report.shard;
                    reports[shard] = Some(report);
                }
                FromWorker::Collected { .. } | FromWorker::MissingHalo { .. } => {
                    // Stale sync answers / nacks cannot occur on the
                    // unsupervised resident path; ignore defensively.
                }
            }
        }
        comm.halo_bytes = comm.values_sent * std::mem::size_of::<L>();
        if collect == CollectMode::Both {
            comm.collects = 1;
        }
        self.last_comm = Some(comm);
        if let Some(shard) = failed {
            return Err(shard);
        }

        // Collect half (stats/read rounds only): scatter the round-start
        // values into `prev_out` and the new loads into the mirror.
        if collect == CollectMode::Both {
            let t_collect = tel.start();
            for (view, report) in plan.views().iter().zip(reports) {
                let report = report.expect("every shard reported");
                debug_assert_eq!(report.prev.len(), view.owned().len());
                debug_assert_eq!(report.results.len(), view.owned().len());
                for (&v, &value) in view.owned().iter().zip(report.prev.iter()) {
                    prev_out[v as usize] = value;
                }
                let order = view.interior().iter().chain(view.boundary());
                for (&v, &value) in order.zip(report.results.iter()) {
                    mirror[v as usize] = value;
                }
                recycle_into(&mut self.free, report.prev);
                recycle_into(&mut self.free, report.results);
            }
            tel.record(ENGINE_LANE, round_no, SpanPhase::Collect, t_collect);
        }
        Ok(())
    }

    /// Out-of-round sync: collects every worker's current owned values
    /// into `out` (global order) under the **seeded** plan — the
    /// ownership the frames actually hold, which may lag the current
    /// plan across a graph change. Traffic is folded into the last
    /// round's [`CommMetrics`], where the next metrics read will see it.
    fn collect_resident(&mut self, out: &mut [L], tel: &Telemetry, round_no: u64) {
        let plan = self
            .seeded
            .as_ref()
            .expect("resident sync requires a seeded session")
            .plan
            .clone();
        self.round_seq += 1;
        let seq = self.round_seq;
        let t0 = tel.start();
        for tx in &self.to_workers {
            tx.send(ToWorker::Collect { seq })
                .expect("message worker exited early");
        }
        let mut outstanding = self.shards();
        while outstanding > 0 {
            match self
                .from_workers
                .recv()
                .expect("message worker exited early")
            {
                FromWorker::Collected {
                    shard,
                    seq: got,
                    values,
                } => {
                    if got != seq {
                        continue;
                    }
                    let view = &plan.views()[shard];
                    debug_assert_eq!(values.len(), view.owned().len());
                    for (&v, &value) in view.owned().iter().zip(values.iter()) {
                        out[v as usize] = value;
                    }
                    recycle_into(&mut self.free, values);
                    outstanding -= 1;
                }
                FromWorker::Done(_) | FromWorker::MissingHalo { .. } => {
                    // No round is in flight between resident rounds.
                }
            }
        }
        if let Some(c) = self.last_comm.as_mut() {
            c.owned_values_out += out.len();
            c.collects += 1;
        }
        tel.record(ENGINE_LANE, round_no, SpanPhase::Collect, t0);
    }
}

/// `owner[v]` = shard owning global node `v`, from the plan's views.
fn build_owner_map(plan: &MessagePlan, n: usize) -> Vec<u32> {
    let mut owner = vec![0u32; n];
    for view in plan.views() {
        for &v in view.owned() {
            owner[v as usize] = view.shard() as u32;
        }
    }
    owner
}

impl<L> Drop for MessageExec<L> {
    fn drop(&mut self) {
        for tx in &self.to_workers {
            let _ = tx.send(ToWorker::Exit);
        }
        self.to_workers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Monomorphized per-round kernel factory stored by message engines —
/// instantiated in the constructor, the only place that knows `P: Sync`.
/// The trailing pair is the round's kernel selection, exactly as in
/// [`GatherFn`].
type MessageKernelFn<P> =
    fn(&P, KernelKind, Option<std::sync::Arc<GatherPlan>>) -> MsgKernel<<P as Protocol>::Load>;

/// The executor strategy of an engine, with everything monomorphized at
/// construction time.
#[derive(Debug)]
enum Exec<P: Protocol> {
    Serial,
    Pool {
        pool: WorkerPool,
        gather: GatherFn<P>,
    },
    Message {
        exec: Box<MessageExec<<P as Protocol>::Load>>,
        make_kernel: MessageKernelFn<P>,
    },
    Process(Box<crate::process::ProcessExec<<P as Protocol>::Load>>),
}

impl<P: Protocol> Exec<P> {
    /// The pool backing statistics reductions, if any. The message and
    /// process backends fold their statistics on the coordinator
    /// (`None`): the blocked reductions are bit-identical with or
    /// without a pool, and their shard workers are round-scoped
    /// channel/socket servers, not a gather pool.
    fn stats_pool(&self) -> Option<&WorkerPool> {
        match self {
            Exec::Serial | Exec::Message { .. } | Exec::Process(_) => None,
            Exec::Pool { pool, .. } => Some(pool),
        }
    }

    /// The partitioned backends' memoized exchange plans (`None` on the
    /// serial and pool backends).
    fn plans(&self) -> Option<&PlanCache<Arc<MessagePlan>>> {
        match self {
            Exec::Message { exec, .. } => Some(&exec.plans),
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
            Exec::Message { exec, .. } => (exec.spec, &mut exec.plans),
            Exec::Process(exec) => (exec.spec, &mut exec.plans),
            Exec::Serial | Exec::Pool { .. } => return,
        };
        plans.refresh_traced(protocol, tel, round_no, |graph, n| {
            Arc::new(MessagePlan::build(&spec, graph, n))
        });
    }
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
            resident: None,
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
    /// each owning only its shard's loads. During a round the workers
    /// never read the global load vector — the coordinator hands each its
    /// owned round-start values, boundary loads cross shards as batched
    /// per-neighbour-shard messages over typed channels (the
    /// [`ShardView::halo_groups`] schedule), and each shard gathers
    /// interior-then-boundary locally. Per-round exchange volume is
    /// reported by [`Engine::comm_metrics`].
    ///
    /// Loads, Φ traces, and statistics are bit-identical to every other
    /// backend: the same pure kernel runs per node, each worker's frame
    /// holds exactly the snapshot values the kernel reads (owned + halo),
    /// and statistics fold through the identical block-ordered
    /// [`StatsCtx`] reductions. Protocols exposing no graph fall back to
    /// a full exchange (their reads are not neighbourhood-local), which
    /// the communication metrics make visible rather than hide.
    pub fn message(protocol: P, partition: PartitionSpec) -> Self
    where
        P: Sync,
    {
        assert!(partition.shards() >= 1, "message backend needs >= 1 shard");
        let n = protocol.n();
        Engine::from_exec(
            protocol,
            Exec::Message {
                exec: Box::new(MessageExec::new(partition, n, false)),
                make_kernel: make_message_kernel::<P>,
            },
        )
    }

    /// Message-passing executor declared **shard-resident** (see
    /// [`Backend::Message`]'s `resident` flag): identical to
    /// [`Engine::message`] except that [`Engine::backend`] reports
    /// `resident: true`, so runners and benches route rounds through the
    /// resident session API ([`Engine::resident_begin`] /
    /// [`Engine::round_resident`]) instead of [`Engine::round`].
    ///
    /// ```
    /// use dlb_core::continuous::ContinuousDiffusion;
    /// use dlb_core::{Backend, Engine};
    /// use dlb_graphs::partition::PartitionSpec;
    /// use dlb_graphs::topology;
    ///
    /// let g = topology::torus2d(4, 4);
    /// let mut engine = Engine::message_resident(
    ///     ContinuousDiffusion::new(&g),
    ///     PartitionSpec::Range { shards: 2 },
    /// );
    /// assert!(matches!(
    ///     engine.backend(),
    ///     Backend::Message { resident: true, .. }
    /// ));
    ///
    /// let mut loads = vec![1.0_f64; 16];
    /// loads[0] = 16.0;
    /// engine.resident_begin(&loads);      // loads now live on the workers
    /// engine.round_resident();
    /// let finals = engine.resident_end(); // collected back from the shards
    /// assert_eq!(finals.len(), 16);
    /// ```
    pub fn message_resident(protocol: P, partition: PartitionSpec) -> Self
    where
        P: Sync,
    {
        let mut engine = Engine::message(protocol, partition);
        if let Exec::Message { exec, .. } = &mut engine.exec {
            exec.resident_backend = true;
        }
        engine
    }

    /// Process executor: one `dlb-shard-worker` **OS process** per shard,
    /// spawned here and connected over `transport` (the fleet lives for
    /// the engine's lifetime; [`Drop`] shuts it down and reaps every
    /// child). Rounds run the message backend's exchange shape as
    /// `dlb-wire/2` frames — see [`Backend::Process`] and the
    /// [`process`](crate::process) module docs.
    ///
    /// Unlike the thread backends this does **not** require `P: Sync`:
    /// the coordinator is single-threaded and the workers are separate
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
        let n = protocol.n();
        let exec = crate::process::ProcessExec::new(partition, n, transport);
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
                resident: false,
            } => Engine::message(protocol, partition),
            Backend::Message {
                partition,
                resident: true,
            } => Engine::message_resident(protocol, partition),
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
    /// With a plan armed — even an empty one — the message backend runs
    /// **supervised**: worker deaths are detected and recovered (respawn
    /// and re-homing from the round-start snapshot), missing halo batches
    /// are retransmitted, and injected faults fire per the plan's
    /// schedule. Recovery is exact, so an armed engine's loads stay
    /// bit-identical to an unarmed one's. Without a plan every backend
    /// takes its legacy code path unchanged — absence is zero-cost. The
    /// serial, pool and process backends have no in-process shard
    /// workers to fault, so they ignore injection (pool kernel panics
    /// still surface through [`Engine::try_round`] either way).
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
    /// message workers' post/receive phases, stats, fault recovery — into
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
    /// message backend — one worker per shard).
    pub fn threads(&self) -> usize {
        match &self.exec {
            Exec::Message { exec, .. } => exec.shards(),
            Exec::Process(exec) => exec.shards(),
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
            Exec::Message { exec, .. } => Backend::Message {
                partition: exec.spec,
                resident: exec.resident_backend,
            },
            Exec::Process(exec) => Backend::Process {
                partition: exec.spec,
                transport: exec.transport,
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
    /// `dlb-wire/2` bytes in `wire_bytes_out`/`wire_bytes_in`): `None`
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
            Exec::Message { exec, .. } => exec.last_comm,
            Exec::Process(exec) => exec.last_comm,
            _ => None,
        }
    }

    /// OS process ids of the process backend's shard workers, in shard
    /// order (`None` on every other backend) — the operator's handle for
    /// `ps`/`/proc` inspection and for external chaos tooling.
    pub fn process_worker_pids(&self) -> Option<Vec<u32>> {
        match &self.exec {
            Exec::Process(exec) => Some(exec.worker_pids()),
            _ => None,
        }
    }

    /// Kills the given shard's worker process (SIGKILL) — the chaos-
    /// testing entry point proving the no-deadlock design: the next
    /// [`Engine::try_round`] returns a typed [`EngineError`] naming the
    /// shard (phase [`EnginePhase::Wire`]) within the wire timeout,
    /// instead of hanging on a barrier. Panics on non-process backends;
    /// there is no respawn — the engine stays typed-failed for that
    /// shard until rebuilt.
    pub fn process_kill_worker(&mut self, shard: usize) {
        match &mut self.exec {
            Exec::Process(exec) => exec.kill_worker(shard),
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
        assert!(
            self.resident.is_none(),
            "a resident session is active: drive rounds with round_resident() \
             or close the session with resident_end() first"
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
            // the fingerprint cache actually built a new plan.
            let kind = self.kernel.kind;
            let plan = self.kernel.resolve(protocol, tel, round_no);
            // Stats rounds of a canonical protocol on the shared-memory
            // executors fuse the first statistics pass into the gather.
            fused = level.is_some()
                && plan.is_some()
                && protocol.gather_spec().is_some()
                && matches!(self.exec, Exec::Serial | Exec::Pool { .. });
            let flows = level == Some(StatsLevel::Flows);
            let blocks = if fused {
                potential::num_blocks(snapshot.len())
            } else {
                0
            };
            self.partials.clear();
            self.partials.resize(blocks, BlockPartial::default());
            // The message and process backends share one exchange plan
            // (the wire round reuses the message schedule wholesale).
            self.exec.refresh_plan(protocol, tel, round_no);
            match &mut self.exec {
                Exec::Serial => match (plan.as_deref(), protocol.gather_spec()) {
                    (Some(plan), Some(spec)) => {
                        let t0 = tel.start();
                        gather_blocks(
                            kind,
                            plan,
                            &spec,
                            snapshot,
                            0,
                            &mut self.back,
                            &mut self.partials,
                            flows,
                        );
                        tel.record(ENGINE_LANE, round_no, SpanPhase::GatherInterior, t0);
                    }
                    _ => {
                        let t0 = tel.start();
                        for (v, slot) in self.back.iter_mut().enumerate() {
                            *slot = protocol.node_new_load(snapshot, v as u32);
                        }
                        tel.record(ENGINE_LANE, round_no, SpanPhase::GatherInterior, t0);
                    }
                },
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
                Exec::Message { exec, make_kernel } => {
                    let make_kernel = *make_kernel;
                    exec.round(
                        || make_kernel(protocol, kind, plan.clone()),
                        snapshot,
                        &mut self.back,
                        faults.map(|fault_plan| (fault_plan, round_no)),
                        &mut self.fault_stats,
                        tel,
                        round_no,
                    )
                    .map_err(|shard| EngineError {
                        shard,
                        round: round_no,
                        phase: EnginePhase::Exchange,
                    })?;
                }
                Exec::Process(exec) => {
                    // Fault injection targets in-process shard workers;
                    // the process backend's failure surface is real OS
                    // processes (kill via Engine::process_kill_worker),
                    // so injected executor faults are ignored here like
                    // on the serial/pool backends — the scenario layer
                    // rejects the combination outright.
                    exec.round(
                        snapshot,
                        &mut self.back,
                        protocol.gather_spec(),
                        &mut |nodes, out| {
                            out.extend(nodes.iter().map(|&v| protocol.node_new_load(snapshot, v)))
                        },
                        tel,
                        round_no,
                    )
                    .map_err(|shard| EngineError {
                        shard,
                        round: round_no,
                        phase: EnginePhase::Wire,
                    })?;
                }
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

    // -----------------------------------------------------------------
    // Resident message sessions
    // -----------------------------------------------------------------

    /// Opens a **resident session** on a message-backend engine: the
    /// shard workers take persistent ownership of their load slices, and
    /// subsequent [`Engine::round_resident`] calls ship only a compact
    /// command (plus any workload deltas queued through
    /// [`Engine::resident_apply`]) instead of copying all `n` owned
    /// values in and out every round. Owned values travel back only when
    /// something needs them — a stats-on round per the [`StatsMode`], a
    /// protocol whose hooks read loads ([`Protocol::hooks_read_loads`]),
    /// an explicit [`Engine::resident_sync`] / [`Engine::resident_loads`]
    /// read, or [`Engine::resident_end`] — so steady-state rounds move
    /// halo-sized, not `n`-sized, traffic. Loads and statistics stay
    /// bit-identical to [`Engine::round`] on every mode: the same kernel
    /// runs per node from the same frame values, and collect rounds
    /// reassemble the exact snapshot/new-loads pair the legacy swap
    /// produces.
    ///
    /// `loads` seeds the session; the workers receive it on the first
    /// resident round (plans resolve lazily against that round's graph).
    /// While a session is active [`Engine::round`] panics — the caller's
    /// vector would be stale by construction. Incompatible with an armed
    /// [`FaultPlan`]: supervised recovery re-homes shards from the
    /// coordinator's round-start snapshot, which resident rounds
    /// deliberately no longer hold.
    pub fn resident_begin(&mut self, loads: &[P::Load]) {
        assert!(
            matches!(self.exec, Exec::Message { .. }),
            "resident sessions need the message backend"
        );
        assert!(
            self.faults.is_none(),
            "resident sessions are incompatible with an armed FaultPlan"
        );
        assert!(
            self.resident.is_none(),
            "a resident session is already active"
        );
        assert_eq!(
            loads.len(),
            self.protocol.n(),
            "load vector length must equal n"
        );
        if let Exec::Message { exec, .. } = &mut self.exec {
            exec.seeded = None; // force a seed on the first round
        }
        self.resident = Some(ResidentSession {
            mirror: loads.to_vec(),
            fresh: true,
            pending: Vec::new(),
        });
    }

    /// Whether a resident session is active.
    pub fn resident_active(&self) -> bool {
        self.resident.is_some()
    }

    /// Queues workload deltas — `(node, new value)` assignments to the
    /// *round-start* loads of the next resident round. They are routed
    /// to the owning workers with the next round command (the
    /// delta-sized replacement for rewriting all owned values), exactly
    /// as if the caller had mutated the load vector before a legacy
    /// round.
    pub fn resident_apply(&mut self, deltas: &[(u32, P::Load)]) {
        let st = self.resident.as_mut().expect("no resident session active");
        for &(v, value) in deltas {
            assert!((v as usize) < st.mirror.len(), "delta node out of range");
            if st.fresh {
                st.mirror[v as usize] = value;
            }
            st.pending.push((v, value));
        }
    }

    /// Brings the session mirror up to date: collects the workers'
    /// current owned values if any steady-state round ran since the last
    /// collect (the traffic is folded into [`Engine::comm_metrics`]),
    /// then folds queued deltas in. A no-op when the mirror is fresh.
    pub fn resident_sync(&mut self) {
        let st = self.resident.as_mut().expect("no resident session active");
        if st.fresh {
            return;
        }
        let Exec::Message { exec, .. } = &mut self.exec else {
            unreachable!("resident sessions exist only on the message backend");
        };
        exec.collect_resident(&mut st.mirror, &self.telemetry, self.rounds_run);
        for &(v, value) in &st.pending {
            st.mirror[v as usize] = value;
        }
        st.fresh = true;
    }

    /// The session's current loads (syncing first if needed).
    pub fn resident_loads(&mut self) -> &[P::Load] {
        self.resident_sync();
        &self
            .resident
            .as_ref()
            .expect("no resident session active")
            .mirror
    }

    /// Closes the session and returns the final loads (collected from
    /// the workers if needed). The engine is a plain message-backend
    /// engine again: [`Engine::round`] works, with any vector.
    pub fn resident_end(&mut self) -> Vec<P::Load> {
        self.resident_sync();
        if let Exec::Message { exec, .. } = &mut self.exec {
            exec.seeded = None;
        }
        self.resident
            .take()
            .expect("no resident session active")
            .mirror
    }

    /// Executes one resident round (see [`Engine::resident_begin`]),
    /// panicking on worker failure like [`Engine::round`].
    pub fn round_resident(&mut self) -> Option<P::Stats> {
        match self.try_round_resident() {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Executes one resident round, returning a typed [`EngineError`]
    /// instead of panicking when a worker's kernel fails. On `Err` the
    /// workers' frames still hold the round-start values (the scatter
    /// never ran), the session stays open, and the round counter does
    /// not advance; as with [`Engine::try_round`],
    /// [`Protocol::begin_round`] has already consumed the failed
    /// round's graph.
    pub fn try_round_resident(&mut self) -> Result<Option<P::Stats>, EngineError> {
        assert!(
            self.faults.is_none(),
            "resident rounds are incompatible with an armed FaultPlan \
             (recovery needs the coordinator's round-start snapshot)"
        );
        let mut st = self
            .resident
            .take()
            .expect("no resident session active (call resident_begin first)");
        let round_no = self.rounds_run + 1;
        self.summary = None;
        let hooks = self.protocol.hooks_read_loads();
        let level = self.stats_mode.level_for(round_no);
        // The collect gate: stats rounds need the snapshot/new pair on
        // the coordinator; load-reading hooks need a fresh mirror every
        // round. Everything else stays worker-resident.
        let collect = if hooks || level.is_some() {
            CollectMode::Both
        } else {
            CollectMode::None
        };
        debug_assert!(
            !hooks || st.fresh,
            "hooks_read_loads implies an always-fresh mirror"
        );
        self.protocol.begin_round(&st.mirror);
        let outcome = {
            let protocol = &self.protocol;
            let tel = &self.telemetry;
            let kind = self.kernel.kind;
            let plan = self.kernel.resolve(protocol, tel, round_no);
            self.exec.refresh_plan(protocol, tel, round_no);
            let Exec::Message { exec, make_kernel } = &mut self.exec else {
                panic!("resident sessions need the message backend");
            };
            let key = exec.plans.current_key();
            let seed = exec.seeded.as_ref().map(|s| s.key) != Some(key);
            if seed && !st.fresh {
                // The graph — and with it the ownership map — changed
                // under a stale mirror: collect under the *old* plan
                // (the ownership the frames actually hold), fold queued
                // deltas, and let the dispatch below reseed.
                exec.collect_resident(&mut st.mirror, tel, round_no);
                for &(v, value) in &st.pending {
                    st.mirror[v as usize] = value;
                }
                st.fresh = true;
            }
            let make_kernel = *make_kernel;
            exec.resident_round(
                || make_kernel(protocol, kind, plan.clone()),
                seed,
                &mut st.mirror,
                &mut self.back,
                &mut st.pending,
                collect,
                tel,
                round_no,
            )
        };
        if let Err(shard) = outcome {
            self.resident = Some(st);
            return Err(EngineError {
                shard,
                round: round_no,
                phase: EnginePhase::Exchange,
            });
        }
        st.fresh = collect == CollectMode::Both;
        self.rounds_run += 1;
        // On collect rounds `back` holds the round-start snapshot and
        // the mirror holds the new loads — exactly the legacy swap
        // shape. On steady rounds both are stale, and the collect gate
        // guarantees the hooks never read them.
        self.protocol.finish_round(&self.back, &st.mirror);
        let stats = level.map(|lvl| self.stats_pass(lvl, false, &st.mirror));
        self.resident = Some(st);
        Ok(stats)
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
    fn engine_message(self, partition: PartitionSpec) -> Engine<Self>
    where
        Self: Sync,
    {
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
    /// statistics go through [`StatsCtx::flow_tally`] instead, whose
    /// blocked combine keeps serial and parallel stats bit-identical.
    pub fn from_flows(flows: impl IntoIterator<Item = f64>) -> Self {
        let mut tally = FlowTally::default();
        for w in flows {
            tally.add(w);
        }
        tally
    }

    /// Records one edge's transfer amount.
    #[inline]
    pub fn add(&mut self, w: f64) {
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

    /// Combines two block partials (in block order: `self` is the prefix).
    pub(crate) fn merge(self, other: Self) -> Self {
        FlowTally {
            active: self.active + other.active,
            total: self.total + other.total,
            max: self.max.max(other.max),
        }
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
    /// engine statistics use [`StatsCtx::token_tally`]).
    pub fn from_tokens(tokens: impl IntoIterator<Item = u64>) -> Self {
        let mut tally = TokenTally::default();
        for t in tokens {
            tally.add(t);
        }
        tally
    }

    /// Records one edge's token count.
    #[inline]
    pub fn add(&mut self, t: u64) {
        if t > 0 {
            self.active += 1;
            self.total += t;
            self.max = self.max.max(t);
        }
    }

    /// Combines two block partials (exact integer sums — order-free).
    pub(crate) fn merge(self, other: Self) -> Self {
        TokenTally {
            active: self.active + other.active,
            total: self.total + other.total,
            max: self.max.max(other.max),
        }
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
    use crate::faults::FaultEvent;

    /// Toy protocol: every node averages with its ring neighbours' parity
    /// sign — enough structure to detect chunking bugs.
    struct Toy {
        n: usize,
        rounds_begun: usize,
        rounds_finished: usize,
    }

    fn toy(n: usize) -> Toy {
        Toy {
            n,
            rounds_begun: 0,
            rounds_finished: 0,
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

    /// Toy protocol over an explicit cycle graph, so the message backend
    /// runs a real batched halo exchange instead of the full-exchange
    /// fallback.
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
            let mut acc = 0.5 * snapshot[v as usize];
            for &u in self.g.neighbors(v) {
                acc += 0.25 * snapshot[u as usize];
            }
            acc
        }

        fn compute_stats(&mut self, _s: &[f64], new: &[f64], ctx: &StatsCtx<'_>) -> u64 {
            ctx.phi(new).to_bits()
        }

        fn current_graph(&self) -> Option<&dlb_graphs::Graph> {
            Some(&self.g)
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
    fn message_backend_full_exchange_without_a_graph() {
        // Toy exposes no graph but reads ring neighbours, i.e. arbitrary
        // remote slots under a range split — exactly the case the
        // full-exchange fallback exists for.
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
            // k non-empty shards broadcast their owned blocks to the
            // k − 1 other computing shards.
            let k = shards.min(n);
            assert_eq!(comm.messages, k * (k - 1), "shards = {shards}");
            assert_eq!(comm.values_sent, n * (k - 1), "shards = {shards}");
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

    /// Kernel that panics on one node — for the barrier-safety test.
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
    fn message_worker_panic_propagates_without_deadlocking_the_barrier() {
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

    #[test]
    fn try_round_reports_shard_round_and_phase() {
        // Pool: the failed chunk surfaces as a typed Gather error.
        let mut e = Engine::parallel(PanickingToy { n: 12, bad: 7 }, 3);
        let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let err = e.try_round(&mut loads).unwrap_err();
        assert_eq!(err.phase, EnginePhase::Gather);
        assert_eq!(err.round, 1);
        assert!(err.to_string().contains("round 1"), "{err}");

        // Message: the failing worker's report carries its shard id.
        let mut e = Engine::message(
            PanickingToy { n: 12, bad: 7 },
            PartitionSpec::Range { shards: 3 },
        );
        let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let err = e.try_round(&mut loads).unwrap_err();
        assert_eq!(
            err,
            EngineError {
                shard: 1,
                round: 1,
                phase: EnginePhase::Exchange
            }
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
        assert!(err.is_ok());
    }

    #[test]
    fn message_fault_injection_recovers_bit_identically() {
        let n = 48;
        let rounds = 8;
        let init: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 41) as f64 / 3.0).collect();
        let mut serial = init.clone();
        let mut s = Engine::serial(graph_toy(n));
        let serial_stats: Vec<_> = (0..rounds).map(|_| s.round(&mut serial)).collect();

        // One of every fault kind, across distinct rounds and shards. The
        // delay (30 ms) exceeds the patience (25 ms), so starved peers
        // exercise the nack → retransmit path too.
        let plan = FaultPlan::new()
            .event(2, 1, FaultKind::Panic)
            .event(3, 0, FaultKind::DropHalo)
            .event(4, 2, FaultKind::DuplicateHalo)
            .event(5, 3, FaultKind::ReorderHalo)
            .event(6, 1, FaultKind::Delay { ms: 30 })
            .with_patience(Duration::from_millis(25));
        let mut faulted = init.clone();
        let mut e =
            Engine::message(graph_toy(n), PartitionSpec::Range { shards: 4 }).with_faults(plan);
        let faulted_stats: Vec<_> = (0..rounds).map(|_| e.round(&mut faulted)).collect();

        assert_eq!(serial, faulted, "recovery must be exact");
        assert_eq!(serial_stats, faulted_stats, "stats must survive faults");
        let stats = e.fault_stats();
        assert_eq!(stats.faults_injected, 5);
        assert!(
            stats.recoveries >= 2,
            "panic re-home and halo retransmits: {stats:?}"
        );
        // Exactly one worker died: shard 1 owns 48/4 = 12 values.
        assert_eq!(stats.rehomed_values, 12);
    }

    #[test]
    fn duplicated_batches_never_leak_into_later_rounds() {
        // Regression for the stale-batch hazard: every shard duplicates
        // every halo batch on round 1; rounds 2..3 must not consume any
        // leftover (sequence tags + per-round dedup discard them).
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
        let mut faulted = init.clone();
        let mut e =
            Engine::message(graph_toy(n), PartitionSpec::Range { shards: 4 }).with_faults(plan);
        e.rounds(&mut faulted, 3);
        assert_eq!(serial, faulted, "stale duplicates must be discarded");
        assert_eq!(e.fault_stats().faults_injected, 4);
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
        // Supervision must recover *injected* deaths, not mask real
        // kernel bugs: an armed (empty) plan still reports the panic.
        let mut e = Engine::message(
            PanickingToy { n: 12, bad: 7 },
            PartitionSpec::Range { shards: 3 },
        )
        .with_faults(FaultPlan::new().with_patience(Duration::from_millis(25)));
        let mut loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let err = e.try_round(&mut loads).unwrap_err();
        assert_eq!(err.shard, 1);
        assert_eq!(err.phase, EnginePhase::Exchange);
        // The engine stays usable afterwards.
        e.protocol_mut().bad = u32::MAX;
        let reference = loads.clone();
        e.round(&mut loads);
        assert_eq!(loads, reference, "identity kernel after the failure");
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
