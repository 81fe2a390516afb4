//! Declarative scenarios: one value that names everything an end-to-end
//! run needs — topology (or dynamic graph sequence), initial load
//! distribution, online workload, protocol, statistics mode, and stop
//! condition.
//!
//! A [`Scenario`] is plain data (every field `Clone + PartialEq`), so it
//! can be built programmatically, loaded from a TOML file (see
//! [`crate::parse`]), printed, diffed, and replayed — the experiment
//! configuration *is* the artifact. [`Scenario::run`] (in
//! [`crate::runner`]) turns it into a [`crate::report::ScenarioReport`].

use crate::workload::{
    zipf_weights, Arrivals, Compose, Drain, Placement, RatePattern, ScenarioLoad, Workload,
};
use dlb_core::engine::{Backend, StatsMode};
use dlb_core::init;
use dlb_dynamics::{
    GraphSequence, IidSubgraphSequence, MarkovChurnSequence, MatchingOnlySequence, OutageSequence,
    StaticSequence,
};
use dlb_graphs::PartitionSpec;
use dlb_graphs::{topology, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named topology family with its parameters — the fixed ground graph
/// of the scenario (dynamic models activate per-round subsets of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// Path `P_n`.
    Path {
        /// Node count.
        n: usize,
    },
    /// Cycle `C_n`.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// 2-D grid (open boundaries).
    Grid2d {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// 2-D torus (wrap-around).
    Torus2d {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Hypercube `Q_dim` (`n = 2^dim`).
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Star (node 0 is the hub).
    Star {
        /// Node count.
        n: usize,
    },
    /// Undirected de Bruijn on `2^dim` nodes.
    DeBruijn {
        /// Dimension.
        dim: u32,
    },
    /// Random `d`-regular graph (seeded).
    RandomRegular {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
        /// Construction seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Family name as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Path { .. } => "path",
            TopologySpec::Cycle { .. } => "cycle",
            TopologySpec::Grid2d { .. } => "grid2d",
            TopologySpec::Torus2d { .. } => "torus2d",
            TopologySpec::Hypercube { .. } => "hypercube",
            TopologySpec::Complete { .. } => "complete",
            TopologySpec::Star { .. } => "star",
            TopologySpec::DeBruijn { .. } => "debruijn",
            TopologySpec::RandomRegular { .. } => "random-regular",
        }
    }

    /// Node count of the built graph.
    pub fn n(&self) -> usize {
        match *self {
            TopologySpec::Path { n }
            | TopologySpec::Cycle { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Star { n }
            | TopologySpec::RandomRegular { n, .. } => n,
            TopologySpec::Grid2d { rows, cols } | TopologySpec::Torus2d { rows, cols } => {
                rows * cols
            }
            TopologySpec::Hypercube { dim } | TopologySpec::DeBruijn { dim } => 1usize << dim,
        }
    }

    /// Instantiates the graph.
    pub fn build(&self) -> Graph {
        match *self {
            TopologySpec::Path { n } => topology::path(n),
            TopologySpec::Cycle { n } => topology::cycle(n),
            TopologySpec::Grid2d { rows, cols } => topology::grid2d(rows, cols),
            TopologySpec::Torus2d { rows, cols } => topology::torus2d(rows, cols),
            TopologySpec::Hypercube { dim } => topology::hypercube(dim),
            TopologySpec::Complete { n } => topology::complete(n),
            TopologySpec::Star { n } => topology::star(n),
            TopologySpec::DeBruijn { dim } => topology::de_bruijn(dim),
            TopologySpec::RandomRegular { n, d, seed } => {
                topology::random_regular(n, d, &mut StdRng::seed_from_u64(seed))
            }
        }
    }
}

/// Which dynamic-network model activates per-round subgraphs of the
/// ground topology; `None` on the [`Scenario`] means a fixed network.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceSpec {
    /// The churn model.
    pub kind: SequenceKind,
    /// When set, every `k`-th round is a total communication outage
    /// (wraps the model in [`OutageSequence`]).
    pub outage_every: Option<usize>,
}

/// The concrete churn model of a [`SequenceSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SequenceKind {
    /// Every round uses the full ground graph (useful to pin the
    /// static-sequence ≡ fixed-network invariant from a scenario file).
    Static,
    /// Each ground edge kept i.i.d. with probability `p` per round.
    Iid {
        /// Keep probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Markov up/down edge churn.
    Markov {
        /// P(up → down) per round.
        p_fail: f64,
        /// P(down → up) per round.
        p_recover: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Each round activates only a random maximal matching.
    MatchingOnly {
        /// RNG seed.
        seed: u64,
    },
}

impl SequenceSpec {
    /// Model name as used in scenario files.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            SequenceKind::Static => "static",
            SequenceKind::Iid { .. } => "iid",
            SequenceKind::Markov { .. } => "markov",
            SequenceKind::MatchingOnly { .. } => "matching-only",
        }
    }

    /// Builds the runnable sequence over `ground`. Boxed (`+ Sync`) so the
    /// runner stays monomorphization-free and the parallel executor can
    /// share the protocol across workers.
    pub fn build(&self, ground: Graph) -> Box<dyn GraphSequence + Sync> {
        let inner: Box<dyn GraphSequence + Sync> = match self.kind {
            SequenceKind::Static => Box::new(StaticSequence::new(ground)),
            SequenceKind::Iid { p, seed } => Box::new(IidSubgraphSequence::new(ground, p, seed)),
            SequenceKind::Markov {
                p_fail,
                p_recover,
                seed,
            } => Box::new(MarkovChurnSequence::new(ground, p_fail, p_recover, seed)),
            SequenceKind::MatchingOnly { seed } => {
                Box::new(MatchingOnlySequence::new(ground, seed))
            }
        };
        match self.outage_every {
            Some(every) => Box::new(OutageSequence::new(inner, every)),
            None => inner,
        }
    }
}

/// Which balancing protocol the scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// Algorithm 1, continuous (divisible load).
    Continuous,
    /// Algorithm 1, discrete (integral tokens).
    Discrete,
    /// Capacity-weighted heterogeneous diffusion (fixed networks only).
    Heterogeneous {
        /// How node capacities are generated.
        capacities: CapacitySpec,
    },
}

impl ProtocolSpec {
    /// Protocol name as used in scenario files.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::Continuous => "continuous",
            ProtocolSpec::Discrete => "discrete",
            ProtocolSpec::Heterogeneous { .. } => "heterogeneous",
        }
    }
}

/// Deterministic capacity vectors for the heterogeneous protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacitySpec {
    /// All nodes capacity 1 (degenerates to homogeneous diffusion).
    Uniform,
    /// A `fast_fraction` of the nodes (lowest ids) have capacity `ratio`,
    /// the rest capacity 1 — the classic big.LITTLE cluster.
    TwoTier {
        /// Fraction of fast nodes in `(0, 1]`.
        fast_fraction: f64,
        /// Capacity multiple of the fast tier.
        ratio: f64,
    },
    /// Capacities ramp linearly from 1 to `ratio` across node ids.
    Ramp {
        /// Capacity of the last node.
        ratio: f64,
    },
}

impl CapacitySpec {
    /// Capacity spec name as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            CapacitySpec::Uniform => "uniform",
            CapacitySpec::TwoTier { .. } => "two-tier",
            CapacitySpec::Ramp { .. } => "ramp",
        }
    }

    /// Builds the capacity vector for `n` nodes.
    pub fn build(&self, n: usize) -> Vec<f64> {
        match *self {
            CapacitySpec::Uniform => vec![1.0; n],
            CapacitySpec::TwoTier {
                fast_fraction,
                ratio,
            } => {
                let fast = ((fast_fraction * n as f64).ceil() as usize).clamp(1, n);
                (0..n).map(|i| if i < fast { ratio } else { 1.0 }).collect()
            }
            CapacitySpec::Ramp { ratio } => {
                if n == 1 {
                    return vec![1.0];
                }
                (0..n)
                    .map(|i| 1.0 + (ratio - 1.0) * i as f64 / (n - 1) as f64)
                    .collect()
            }
        }
    }
}

/// Initial load distribution: one of `dlb_core::init`'s named
/// distributions, its average load, and the RNG seed for randomized ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitSpec {
    /// The named distribution.
    pub dist: init::Workload,
    /// Average load per node.
    pub avg: f64,
    /// Seed for randomized distributions.
    pub seed: u64,
}

impl InitSpec {
    /// Parses a distribution name (`spike`, `uniform`, `ramp`, `bimodal`,
    /// `balanced`).
    pub fn dist_from_name(name: &str) -> Result<init::Workload, String> {
        init::Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown init distribution {name:?}"))
    }
}

/// Per-round arrival rate, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// See [`RatePattern::Constant`].
    Constant {
        /// Total injected per round.
        per_round: f64,
    },
    /// See [`RatePattern::OnOff`].
    Bursty {
        /// Burst rate.
        high: f64,
        /// Idle rate.
        low: f64,
        /// Burst length (rounds).
        on_rounds: u64,
        /// Gap length (rounds).
        off_rounds: u64,
    },
    /// See [`RatePattern::Diurnal`].
    Diurnal {
        /// Mean rate.
        mean: f64,
        /// Relative swing.
        amplitude: f64,
        /// Period (rounds).
        period: u64,
    },
}

impl PatternSpec {
    fn compile(&self) -> RatePattern {
        match *self {
            PatternSpec::Constant { per_round } => RatePattern::Constant { per_round },
            PatternSpec::Bursty {
                high,
                low,
                on_rounds,
                off_rounds,
            } => RatePattern::OnOff {
                high,
                low,
                on_rounds,
                off_rounds,
            },
            PatternSpec::Diurnal {
                mean,
                amplitude,
                period,
            } => RatePattern::Diurnal {
                mean,
                amplitude,
                period,
            },
        }
    }

    /// Pattern name as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            PatternSpec::Constant { .. } => "constant",
            PatternSpec::Bursty { .. } => "bursty",
            PatternSpec::Diurnal { .. } => "diurnal",
        }
    }
}

/// Arrival placement, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// Spread evenly.
    Uniform,
    /// Zipf(`s`) hotspot skew through a seeded node permutation.
    Zipf {
        /// Skew exponent.
        s: f64,
        /// Permutation seed.
        seed: u64,
    },
    /// Fixed node.
    Hotspot {
        /// Target node id.
        node: u32,
    },
    /// Currently heaviest node (the adversary).
    MaxLoaded,
    /// Uniformly random node per round (seeded).
    RandomNode {
        /// RNG seed.
        seed: u64,
    },
}

impl PlacementSpec {
    fn compile(&self, n: usize) -> Placement {
        match *self {
            PlacementSpec::Uniform => Placement::Uniform,
            PlacementSpec::Zipf { s, seed } => Placement::Weighted(zipf_weights(n, s, seed)),
            PlacementSpec::Hotspot { node } => Placement::Hotspot(node),
            PlacementSpec::MaxLoaded => Placement::MaxLoaded,
            PlacementSpec::RandomNode { seed } => {
                Placement::RandomNode(StdRng::seed_from_u64(seed))
            }
        }
    }

    /// Placement name as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            PlacementSpec::Uniform => "uniform",
            PlacementSpec::Zipf { .. } => "zipf",
            PlacementSpec::Hotspot { .. } => "hotspot",
            PlacementSpec::MaxLoaded => "max-loaded",
            PlacementSpec::RandomNode { .. } => "random-node",
        }
    }
}

/// Service/consumption model, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum DrainSpec {
    /// Each node services up to `per_node` per round.
    FixedCapacity {
        /// Per-node capacity per round.
        per_node: f64,
    },
    /// Each node services `fraction` of its load per round.
    Proportional {
        /// Serviced fraction in `[0, 1]`.
        fraction: f64,
    },
}

impl DrainSpec {
    /// Model name as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            DrainSpec::FixedCapacity { .. } => "fixed-capacity",
            DrainSpec::Proportional { .. } => "proportional",
        }
    }
}

/// One workload component of a scenario, declaratively. Compiled into a
/// [`Workload`] by [`WorkloadSpec::compile`]; a scenario's list compiles
/// into a [`Compose`] applied in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Load arriving into the system.
    Arrivals {
        /// How much per round.
        pattern: PatternSpec,
        /// Where it lands.
        placement: PlacementSpec,
    },
    /// Load serviced out of the system.
    Drain {
        /// The consumption model.
        model: DrainSpec,
    },
}

impl WorkloadSpec {
    /// Spec kind as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Arrivals { .. } => "arrivals",
            WorkloadSpec::Drain { .. } => "drain",
        }
    }

    /// Compiles the spec into a runnable workload over `n` nodes.
    pub fn compile<L: ScenarioLoad>(&self, n: usize) -> Box<dyn Workload<L>> {
        match self {
            WorkloadSpec::Arrivals { pattern, placement } => {
                Box::new(Arrivals::new(pattern.compile(), placement.compile(n)))
            }
            WorkloadSpec::Drain { model } => Box::new(match *model {
                DrainSpec::FixedCapacity { per_node } => Drain::fixed_capacity(per_node),
                DrainSpec::Proportional { fraction } => Drain::proportional(fraction),
            }),
        }
    }
}

/// Compiles a scenario's workload list into one composed workload
/// (`None` when the list is empty — a pure convergence run).
pub fn compile_workloads<L: ScenarioLoad>(specs: &[WorkloadSpec], n: usize) -> Option<Compose<L>> {
    if specs.is_empty() {
        None
    } else {
        Some(Compose::new(specs.iter().map(|s| s.compile(n)).collect()))
    }
}

/// How a scenario executes: the engine [`Backend`] carried declaratively
/// (`backend = "serial" | "pool" | "message" | "process"` in
/// scenario files, with `threads`, `shards`, `partition = "range" |
/// "bfs"`, and `transport = "unix" | "tcp"` as applicable — the message
/// and process backends run one worker per shard, so they take
/// `shards`/`partition` but no `threads`, and only the process backend
/// takes `transport`). It is exactly `dlb_core`'s [`Backend`] — plain
/// `Copy` data, so scenarios stay printable, diffable, and replayable.
///
/// ```
/// use dlb_workloads::scenario::exec_spec_from_parts;
/// use dlb_core::engine::Backend;
/// use dlb_core::Transport;
/// use dlb_graphs::PartitionSpec;
///
/// // The scenario-file keys `backend = "process"`, `shards = 4`,
/// // `transport = "unix"` assemble into Backend::Process:
/// let exec = exec_spec_from_parts(
///     Some("process"), None, Some(4), None, None, Some("unix")).unwrap();
/// assert_eq!(exec, Backend::Process {
///     partition: PartitionSpec::Range { shards: 4 },
///     transport: Transport::Unix,
/// });
/// // ...and the gating rules reject nonsensical combinations:
/// assert!(exec_spec_from_parts(
///     Some("serial"), None, None, None, None, Some("tcp")).is_err());
/// // The removed sharded backend is refused with what to use instead:
/// assert_eq!(
///     exec_spec_from_parts(Some("sharded"), None, Some(4), None, None, None),
///     Err(Backend::SHARDED_REMOVED.to_string()));
/// ```
pub type ExecSpec = Backend;

/// Maps the legacy `threads` scalar onto an [`ExecSpec`]: `1` = the
/// serial executor (the historical default), anything else = the flat
/// pool (`0` = auto worker count). Scenario files without an explicit
/// `backend` key parse through this, and
/// [`crate::runner::ScenarioRunner::with_threads`] overrides through it.
pub fn exec_from_threads(threads: usize) -> ExecSpec {
    match threads {
        1 => ExecSpec::Serial,
        t => ExecSpec::Pool { threads: t },
    }
}

/// Parses a partition strategy name (`range`, `bfs`) into a
/// [`PartitionSpec`] over `shards ≥ 1`.
pub fn partition_from_name(name: &str, shards: usize) -> Result<PartitionSpec, String> {
    if shards == 0 {
        return Err("partitioned backends need shards >= 1".into());
    }
    match name {
        "range" => Ok(PartitionSpec::Range { shards }),
        "bfs" => Ok(PartitionSpec::Bfs { shards }),
        other => Err(format!(
            "unknown partition strategy {other:?} (expected range or bfs)"
        )),
    }
}

/// Validates an [`ExecSpec`] (shared by [`Scenario::validate`] and the
/// runner's override path, so a bad programmatic override errors instead
/// of panicking inside the engine constructor). The removed sharded
/// backend fails with [`Backend::SHARDED_REMOVED`].
pub fn validate_exec(exec: &ExecSpec) -> Result<(), String> {
    match exec {
        ExecSpec::Sharded { .. } => Err(Backend::SHARDED_REMOVED.into()),
        ExecSpec::Message { partition, .. } if partition.shards() == 0 => {
            Err("message backend needs shards >= 1".into())
        }
        ExecSpec::Process { partition, .. } if partition.shards() == 0 => {
            Err("process backend needs shards >= 1".into())
        }
        _ => Ok(()),
    }
}

/// Assembles an [`ExecSpec`] from the four declarative parts every entry
/// point exposes — the `backend`/`threads`/`shards`/`partition` keys of a
/// scenario file, or the CLI flags of the same names. This is the single
/// home of the gating rules (`shards`/`partition` only with the message
/// and process backends, `serial` is one thread, the message and process
/// backends have no `threads` knob at all — one worker per shard,
/// `partition` defaults to `range`, `threads` defaults to auto for pool,
/// `resident` is a message-backend-only knob, `transport` is a
/// process-backend-only knob defaulting to `unix`, and `sharded` is
/// refused with [`Backend::SHARDED_REMOVED`]), so file parsing and CLI
/// overrides cannot drift apart.
pub fn exec_spec_from_parts(
    backend: Option<&str>,
    threads: Option<usize>,
    shards: Option<usize>,
    partition: Option<&str>,
    resident: Option<bool>,
    transport: Option<&str>,
) -> Result<ExecSpec, String> {
    let reject_shard_keys = || -> Result<(), String> {
        if shards.is_some() || partition.is_some() {
            return Err(
                "shards/partition are only valid with backend = \"message\" or \"process\"".into(),
            );
        }
        if resident.is_some() {
            return Err("resident is only valid with backend = \"message\"".into());
        }
        if transport.is_some() {
            return Err("transport is only valid with backend = \"process\"".into());
        }
        Ok(())
    };
    let reject_resident = || -> Result<(), String> {
        if resident.is_some() {
            return Err("resident is only valid with backend = \"message\"".into());
        }
        Ok(())
    };
    let reject_transport = || -> Result<(), String> {
        if transport.is_some() {
            return Err("transport is only valid with backend = \"process\"".into());
        }
        Ok(())
    };
    match backend {
        None => {
            reject_shard_keys()?;
            Ok(exec_from_threads(threads.unwrap_or(1)))
        }
        Some("serial") => {
            reject_shard_keys()?;
            if threads.is_some_and(|t| t != 1) {
                return Err("backend \"serial\" runs one thread (drop the threads key or use backend = \"pool\")".into());
            }
            Ok(ExecSpec::Serial)
        }
        Some("pool") => {
            reject_shard_keys()?;
            Ok(ExecSpec::Pool {
                threads: threads.unwrap_or(0),
            })
        }
        Some("sharded") => Err(Backend::SHARDED_REMOVED.into()),
        Some("message") => {
            reject_transport()?;
            if threads.is_some() {
                return Err(
                    "backend \"message\" runs one worker per shard (drop the threads key)".into(),
                );
            }
            let shards = shards.ok_or("backend \"message\" needs shards")?;
            let partition = partition_from_name(partition.unwrap_or("range"), shards)?;
            Ok(ExecSpec::Message {
                partition,
                resident: resident.unwrap_or(false),
            })
        }
        Some("process") => {
            reject_resident()?;
            if threads.is_some() {
                return Err(
                    "backend \"process\" runs one worker process per shard (drop the threads key)"
                        .into(),
                );
            }
            // Unlike message, `shards` has a default: the
            // quickstart (`--backend process` alone) should just work,
            // and a fixed count keeps reports reproducible.
            let shards = shards.unwrap_or(8);
            let partition = partition_from_name(partition.unwrap_or("range"), shards)?;
            let transport = transport.unwrap_or("unix").parse::<dlb_core::Transport>()?;
            Ok(ExecSpec::Process {
                partition,
                transport,
            })
        }
        Some(other) => Err(format!(
            "unknown backend {other:?} (expected serial, pool, message, or process)"
        )),
    }
}

/// Declarative fault injection: shard-level fail/recover churn plus
/// optional executor-level faults, the `[faults]` section of a scenario
/// file and the `--faults` CLI flag.
///
/// Two orthogonal things are driven from one seeded schedule
/// ([`dlb_dynamics::ChurnSchedule`]): every `every` rounds one random
/// shard fails for `down` rounds — its nodes drop out of the round graph
/// (loads frozen, outage semantics on the cut; exact conservation and
/// Φ-monotonicity hold by construction) — and, per the enabled kind
/// flags, a deterministic executor [`dlb_core::FaultPlan`] fires worker
/// panics / dropped / duplicated / reordered halo batches / delays on
/// the same failure rounds. Executor faults are recovered bit-exactly by
/// the engine's shard re-homing and never change the trajectory; shard churn
/// *is* part of the (degraded) trajectory. Together they reproduce the
/// headline guarantee: the run matches a fault-free run over the same
/// effective round sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultsSpec {
    /// A shard failure starts every `every` rounds (when none is
    /// already down).
    pub every: usize,
    /// Each failure lasts `down` consecutive rounds.
    pub down: usize,
    /// Shard count the churn draws from; `0` derives it from the
    /// message or process backend's partition (and must match it when
    /// both are set explicitly).
    pub shards: usize,
    /// Seed of the churn schedule (which shard fails when).
    pub seed: u64,
    /// Kill the failed shard's worker on each failure round (message
    /// and process backends).
    pub panic: bool,
    /// Drop the failed shard's outgoing halo batches (message and
    /// process backends).
    pub drop: bool,
    /// Duplicate every halo batch of the failed shard (message and
    /// process backends).
    pub duplicate: bool,
    /// Reorder the failed shard's halo batches (message and process
    /// backends).
    pub reorder: bool,
    /// Hold the failed shard's dispatch back by this many milliseconds
    /// (message and process backends).
    pub delay_ms: Option<u64>,
}

impl Default for FaultsSpec {
    fn default() -> Self {
        FaultsSpec {
            every: 20,
            down: 3,
            shards: 0,
            seed: 1,
            panic: false,
            drop: false,
            duplicate: false,
            reorder: false,
            delay_ms: None,
        }
    }
}

impl FaultsSpec {
    /// Whether any executor-level fault kind is enabled (as opposed to
    /// pure shard churn).
    pub fn has_exec_kinds(&self) -> bool {
        self.panic || self.drop || self.duplicate || self.reorder || self.delay_ms.is_some()
    }

    /// The enabled executor fault kinds, in canonical order.
    pub fn exec_kinds(&self) -> Vec<dlb_core::FaultKind> {
        let mut kinds = Vec::new();
        if self.panic {
            kinds.push(dlb_core::FaultKind::Panic);
        }
        if self.drop {
            kinds.push(dlb_core::FaultKind::DropHalo);
        }
        if self.duplicate {
            kinds.push(dlb_core::FaultKind::DuplicateHalo);
        }
        if self.reorder {
            kinds.push(dlb_core::FaultKind::ReorderHalo);
        }
        if let Some(ms) = self.delay_ms {
            kinds.push(dlb_core::FaultKind::Delay { ms });
        }
        kinds
    }

    /// Resolves the churn shard count against the backend: an explicit
    /// `shards` wins (but must match a message or process partition),
    /// `0` derives from the partition.
    pub fn resolved_shards(&self, exec: &ExecSpec) -> Result<usize, String> {
        let backend_shards = exec.partition().map(|p| p.shards());
        match (self.shards, backend_shards) {
            (0, Some(s)) => Ok(s),
            (0, None) => {
                Err("faults need an explicit shards count on the serial/pool backends".into())
            }
            (s, Some(b)) if s != b => Err(format!(
                "faults shards ({s}) must match the backend's shard count ({b})"
            )),
            (s, _) => Ok(s),
        }
    }

    /// Replays the seeded churn schedule over `max_rounds` and compiles
    /// the executor [`dlb_core::FaultPlan`]: failure `i` (starting at
    /// round `T` on shard `s`) fires the `i mod k`-th of the `k` enabled
    /// kinds at round `T` on shard `s`. Deterministic — the same spec
    /// always arms the same plan, and the runner replays the same
    /// schedule for its churn counters.
    pub fn fault_plan(&self, shards: usize, max_rounds: usize) -> dlb_core::FaultPlan {
        let kinds = self.exec_kinds();
        let mut plan = dlb_core::FaultPlan::new();
        if kinds.is_empty() {
            return plan;
        }
        let mut sched = dlb_dynamics::ChurnSchedule::new(self.every, self.down, shards, self.seed);
        let mut failures = 0usize;
        for round in 1..=max_rounds as u64 {
            let before = sched.failures();
            let failed = sched.advance();
            if sched.failures() > before {
                let shard = failed.expect("a new failure names a shard");
                plan = plan.event(round, shard, kinds[failures % kinds.len()]);
                failures += 1;
            }
        }
        plan
    }

    /// Parses the CLI's compact `--faults` spec string, e.g.
    /// `"every=40,down=5,seed=7,panic,drop,delay=3"`: bare words enable
    /// executor fault kinds, `key=value` pairs set the churn numbers
    /// (`every`, `down`, `shards`, `seed`) or the delay (`delay`, in
    /// milliseconds). An empty string selects the defaults — pure shard
    /// churn with no executor faults.
    pub fn from_arg(spec: &str) -> Result<FaultsSpec, String> {
        let mut f = FaultsSpec::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                None => match part {
                    "panic" => f.panic = true,
                    "drop" => f.drop = true,
                    "duplicate" => f.duplicate = true,
                    "reorder" => f.reorder = true,
                    other => {
                        return Err(format!(
                            "unknown fault flag {other:?} (expected panic, drop, \
                             duplicate, or reorder)"
                        ))
                    }
                },
                Some((key, value)) => {
                    let num = || {
                        value
                            .trim()
                            .parse::<u64>()
                            .map_err(|_| format!("fault key {key} needs an integer, got {value:?}"))
                    };
                    match key.trim() {
                        "every" => f.every = num()? as usize,
                        "down" => f.down = num()? as usize,
                        "shards" => f.shards = num()? as usize,
                        "seed" => f.seed = num()?,
                        "delay" => f.delay_ms = Some(num()?),
                        other => {
                            return Err(format!(
                                "unknown fault key {other:?} (expected every, down, \
                                 shards, seed, or delay)"
                            ))
                        }
                    }
                }
            }
        }
        Ok(f)
    }
}

/// Span-recording spec: the `[telemetry]` section of a scenario file
/// (and what the scenarios example's `--trace` flag arms implicitly).
///
/// An enabled spec arms the engine with a [`dlb_telemetry::Telemetry`]
/// recorder — one ring-buffer lane per shard worker plus the engine lane
/// — so the run's report carries per-phase time totals and the per-shard
/// round-time imbalance, and the raw trace can be exported as
/// `dlb-trace/1` JSONL or a Chrome `trace_event` file. Recording never
/// touches loads: a traced run's trajectory is bit-identical to an
/// untraced one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Arm span recording for the run (`enabled = false` keeps the spec
    /// in the file but runs untraced).
    pub enabled: bool,
    /// Per-lane ring capacity: spans retained per lane before the oldest
    /// are overwritten (and counted as dropped).
    pub buffer: usize,
    /// Histogram bin count for the per-phase duration summaries.
    pub bins: usize,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            enabled: true,
            buffer: dlb_telemetry::DEFAULT_CAPACITY,
            bins: dlb_telemetry::DEFAULT_BINS,
        }
    }
}

impl TelemetrySpec {
    /// Shard-lane count the recorder needs under `exec`: the partition's
    /// shard count on the message/process backends, none on serial/pool
    /// (their spans all land on the engine lane).
    pub fn lanes(exec: &ExecSpec) -> usize {
        match exec {
            ExecSpec::Message { partition, .. } | ExecSpec::Process { partition, .. } => {
                partition.shards()
            }
            _ => 0,
        }
    }

    /// Builds the armed telemetry handle for `exec` (or
    /// [`dlb_telemetry::Telemetry::Off`] when the spec is disabled).
    pub fn armed(&self, exec: &ExecSpec) -> dlb_telemetry::Telemetry {
        if !self.enabled {
            return dlb_telemetry::Telemetry::Off;
        }
        dlb_telemetry::Telemetry::armed(Self::lanes(exec), self.buffer)
    }
}

/// When a scenario run ends.
#[derive(Debug, Clone, PartialEq)]
pub enum StopSpec {
    /// Exactly `rounds` rounds.
    Rounds {
        /// Round budget.
        rounds: usize,
    },
    /// Until the potential (Φ, or Φ̂ for discrete protocols) drops to
    /// `target`, capped at `max_rounds`.
    PhiBelow {
        /// Potential target.
        target: f64,
        /// Round budget.
        max_rounds: usize,
    },
    /// Until the potential is *steady*: over the last `window` rounds,
    /// `max(Φ) − min(Φ) ≤ tol · max(|mean(Φ)|, 1)`. This is the stop for
    /// arrival-rate vs. drain-rate regimes, where Φ plateaus at a
    /// workload-determined band instead of converging to a target.
    SteadyState {
        /// Trailing window length (rounds).
        window: usize,
        /// Relative band tolerance.
        tol: f64,
        /// Round budget.
        max_rounds: usize,
    },
}

impl StopSpec {
    /// The hard round budget of the condition.
    pub fn max_rounds(&self) -> usize {
        match *self {
            StopSpec::Rounds { rounds } => rounds,
            StopSpec::PhiBelow { max_rounds, .. } | StopSpec::SteadyState { max_rounds, .. } => {
                max_rounds
            }
        }
    }

    /// Condition name as used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            StopSpec::Rounds { .. } => "rounds",
            StopSpec::PhiBelow { .. } => "phi",
            StopSpec::SteadyState { .. } => "steady",
        }
    }
}

/// A complete, replayable description of one end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports, tables, `--name` lookup).
    pub name: String,
    /// The ground topology.
    pub topology: TopologySpec,
    /// Dynamic-network model over the topology; `None` = fixed network.
    pub sequence: Option<SequenceSpec>,
    /// The balancing protocol.
    pub protocol: ProtocolSpec,
    /// Initial load distribution.
    pub init: InitSpec,
    /// Online workload components, applied in order between rounds.
    pub workloads: Vec<WorkloadSpec>,
    /// Engine statistics mode.
    pub stats: StatsMode,
    /// Execution backend (serial / pool / message / process). Trajectories are
    /// bit-identical across backends; this only chooses the executor.
    pub exec: ExecSpec,
    /// Fault injection: shard fail/recover churn plus executor faults;
    /// `None` = fault-free.
    pub faults: Option<FaultsSpec>,
    /// Span recording: per-phase round tracing and trace export;
    /// `None` = untraced (the zero-cost default).
    pub telemetry: Option<TelemetrySpec>,
    /// Stop condition.
    pub stop: StopSpec,
}

impl Scenario {
    /// A minimal scenario: fixed network, no workload, full stats, serial
    /// executor, 100-round budget. Shape it with the `with_*` builders.
    pub fn new(name: impl Into<String>, topology: TopologySpec, protocol: ProtocolSpec) -> Self {
        Scenario {
            name: name.into(),
            topology,
            sequence: None,
            protocol,
            init: InitSpec {
                dist: init::Workload::Spike,
                avg: 100.0,
                seed: 1,
            },
            workloads: Vec::new(),
            stats: StatsMode::Full,
            exec: ExecSpec::Serial,
            faults: None,
            telemetry: None,
            stop: StopSpec::Rounds { rounds: 100 },
        }
    }

    /// Sets the dynamic-network model.
    pub fn with_sequence(mut self, sequence: SequenceSpec) -> Self {
        self.sequence = Some(sequence);
        self
    }

    /// Sets the initial load distribution.
    pub fn with_init(mut self, dist: init::Workload, avg: f64, seed: u64) -> Self {
        self.init = InitSpec { dist, avg, seed };
        self
    }

    /// Appends a workload component.
    pub fn with_workload(mut self, spec: WorkloadSpec) -> Self {
        self.workloads.push(spec);
        self
    }

    /// Sets the statistics mode.
    pub fn with_stats(mut self, stats: StatsMode) -> Self {
        self.stats = stats;
        self
    }

    /// Sets the executor from the legacy `threads` scalar (see
    /// [`exec_from_threads`]).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_exec(exec_from_threads(threads))
    }

    /// Sets the execution backend.
    pub fn with_exec(mut self, exec: ExecSpec) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the stop condition.
    pub fn with_stop(mut self, stop: StopSpec) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the fault-injection spec.
    pub fn with_faults(mut self, faults: FaultsSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the span-recording spec.
    pub fn with_telemetry(mut self, telemetry: TelemetrySpec) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Validates cross-field consistency; [`Scenario::run`] calls this
    /// first, and the parser calls it after assembling a file.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.topology.n();
        if n == 0 {
            return Err("topology has zero nodes".into());
        }
        if matches!(self.protocol, ProtocolSpec::Heterogeneous { .. }) && self.sequence.is_some() {
            return Err(
                "heterogeneous protocol runs on fixed networks only (remove [sequence])".into(),
            );
        }
        if let Some(seq) = &self.sequence {
            if let SequenceKind::Iid { p, .. } = seq.kind {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("sequence p must be in [0, 1], got {p}"));
                }
            }
            if let SequenceKind::Markov {
                p_fail, p_recover, ..
            } = seq.kind
            {
                if !(0.0..=1.0).contains(&p_fail) || !(0.0..=1.0).contains(&p_recover) {
                    return Err("markov probabilities must be in [0, 1]".into());
                }
            }
            if seq.outage_every == Some(0) {
                return Err("outage_every must be >= 1".into());
            }
        }
        if let ProtocolSpec::Heterogeneous { capacities } = &self.protocol {
            match *capacities {
                CapacitySpec::TwoTier {
                    fast_fraction,
                    ratio,
                } => {
                    if !(0.0..=1.0).contains(&fast_fraction) || fast_fraction == 0.0 {
                        return Err("fast_fraction must be in (0, 1]".into());
                    }
                    if ratio <= 0.0 {
                        return Err("capacity ratio must be positive".into());
                    }
                }
                CapacitySpec::Ramp { ratio } if ratio <= 0.0 => {
                    return Err("capacity ratio must be positive".into());
                }
                _ => {}
            }
        }
        if self.init.avg < 0.0 {
            return Err("init avg must be non-negative".into());
        }
        for w in &self.workloads {
            match w {
                WorkloadSpec::Arrivals { placement, .. } => match *placement {
                    PlacementSpec::Hotspot { node } if node as usize >= n => {
                        return Err(format!("hotspot node {node} out of range (n = {n})"));
                    }
                    PlacementSpec::Zipf { s, .. } if s < 0.0 => {
                        return Err("zipf exponent must be non-negative".into());
                    }
                    _ => {}
                },
                WorkloadSpec::Drain { model } => match *model {
                    DrainSpec::FixedCapacity { per_node } if per_node < 0.0 => {
                        return Err("drain capacity must be non-negative".into());
                    }
                    DrainSpec::Proportional { fraction } if !(0.0..=1.0).contains(&fraction) => {
                        return Err("drain fraction must be in [0, 1]".into());
                    }
                    _ => {}
                },
            }
        }
        match self.stop {
            StopSpec::Rounds { rounds: 0 } => return Err("stop rounds must be >= 1".into()),
            StopSpec::SteadyState { window, tol, .. } => {
                if window < 2 {
                    return Err("steady-state window must be >= 2".into());
                }
                if tol <= 0.0 {
                    return Err("steady-state tol must be positive".into());
                }
            }
            _ => {}
        }
        if let StatsMode::EveryK(k) = self.stats {
            if k == 0 {
                return Err("stats every:k needs k >= 1".into());
            }
        }
        validate_exec(&self.exec)?;
        if let Some(faults) = &self.faults {
            if matches!(self.protocol, ProtocolSpec::Heterogeneous { .. }) {
                return Err(
                    "heterogeneous protocol runs on fixed networks only (remove [faults])".into(),
                );
            }
            if faults.every == 0 {
                return Err("faults every must be >= 1".into());
            }
            if faults.down == 0 {
                return Err("faults down must be >= 1".into());
            }
            if faults.has_exec_kinds() && self.exec.partition().is_none() {
                return Err(
                    "faults panic/drop/duplicate/reorder/delay need backend = \"message\" \
                     or \"process\""
                        .into(),
                );
            }
            faults.resolved_shards(&self.exec)?;
        }
        if let Some(telemetry) = &self.telemetry {
            if telemetry.buffer == 0 {
                return Err("telemetry buffer must be >= 1".into());
            }
            if telemetry.bins == 0 {
                return Err("telemetry bins must be >= 1".into());
            }
        }
        Ok(())
    }

    /// Names of the built-in scenarios (see [`Scenario::builtin`]).
    pub fn builtin_names() -> &'static [&'static str] {
        &[
            "bursty-torus",
            "bursty-torus-message",
            "bursty-torus-resident",
            "bursty-torus-process",
            "zipf-hypercube-drain",
            "diurnal-cycle",
            "adversarial-hetero",
            "churn-markov",
            "churn-shards-message",
        ]
    }

    /// Looks up a built-in scenario by name. These are the library's
    /// canonical regimes — used by the example CLI, the CI smoke job, and
    /// the scenario benches:
    ///
    /// * `bursty-torus` — continuous diffusion on a 16×16 torus under
    ///   on/off bursts with proportional service; runs to steady state;
    /// * `bursty-torus-message` — the same regime on the message-passing
    ///   backend (8 BFS-grown shard workers, halo values crossing shards
    ///   only as batched messages); trajectory bit-identical to
    ///   `bursty-torus`, with per-round communication totals in its
    ///   report;
    /// * `bursty-torus-resident` — `bursty-torus-message` with resident
    ///   dispatch: after the seeding round each worker is sent only the
    ///   owned values the workload changed since its last results;
    ///   trajectory still bit-identical to `bursty-torus`;
    /// * `bursty-torus-process` — the same regime on the process backend
    ///   (8 BFS-grown shard worker *processes* over Unix-domain sockets
    ///   speaking `dlb-wire/3`); trajectory bit-identical to
    ///   `bursty-torus`, with wire-level byte counters in its report;
    /// * `zipf-hypercube-drain` — discrete tokens on `Q_8` with Zipf
    ///   hotspot arrivals against a fixed per-node service capacity;
    /// * `diurnal-cycle` — continuous diffusion on a cycle under a
    ///   diurnal sine wave;
    /// * `adversarial-hetero` — heterogeneous two-tier cluster with an
    ///   adversary re-injecting at the heaviest node;
    /// * `churn-markov` — continuous diffusion over Markov edge churn
    ///   with constant arrivals and proportional service;
    /// * `churn-shards-message` — the `bursty-torus-message` regime under
    ///   shard fail/recover churn (one of the 8 shards down for 5 rounds
    ///   every 40) with worker panics and dropped halo batches injected
    ///   on each failure round; the report carries the fault/recovery
    ///   counters, and the engine's recovery keeps the trajectory
    ///   bit-identical to a fault-free run over the same degraded
    ///   sequence.
    pub fn builtin(name: &str) -> Option<Scenario> {
        let s = match name {
            "bursty-torus" => Scenario::new(
                "bursty-torus",
                TopologySpec::Torus2d { rows: 16, cols: 16 },
                ProtocolSpec::Continuous,
            )
            .with_init(init::Workload::Spike, 100.0, 1)
            .with_workload(WorkloadSpec::Arrivals {
                pattern: PatternSpec::Bursty {
                    high: 2048.0,
                    low: 0.0,
                    on_rounds: 20,
                    off_rounds: 40,
                },
                placement: PlacementSpec::Uniform,
            })
            .with_workload(WorkloadSpec::Drain {
                model: DrainSpec::Proportional { fraction: 0.02 },
            })
            .with_stop(StopSpec::SteadyState {
                window: 60,
                tol: 0.2,
                max_rounds: 2000,
            }),
            "bursty-torus-message" => {
                let mut s = Scenario::builtin("bursty-torus").expect("base builtin exists");
                s.name = "bursty-torus-message".into();
                s.with_exec(ExecSpec::Message {
                    partition: PartitionSpec::Bfs { shards: 8 },
                    resident: false,
                })
            }
            "bursty-torus-resident" => {
                let mut s = Scenario::builtin("bursty-torus").expect("base builtin exists");
                s.name = "bursty-torus-resident".into();
                s.with_exec(ExecSpec::Message {
                    partition: PartitionSpec::Bfs { shards: 8 },
                    resident: true,
                })
            }
            "bursty-torus-process" => {
                let mut s = Scenario::builtin("bursty-torus").expect("base builtin exists");
                s.name = "bursty-torus-process".into();
                s.with_exec(ExecSpec::Process {
                    partition: PartitionSpec::Bfs { shards: 8 },
                    transport: dlb_core::Transport::Unix,
                })
            }
            "zipf-hypercube-drain" => Scenario::new(
                "zipf-hypercube-drain",
                TopologySpec::Hypercube { dim: 8 },
                ProtocolSpec::Discrete,
            )
            .with_init(init::Workload::Balanced, 50.0, 1)
            .with_workload(WorkloadSpec::Arrivals {
                pattern: PatternSpec::Constant { per_round: 300.0 },
                placement: PlacementSpec::Zipf { s: 1.1, seed: 5 },
            })
            .with_workload(WorkloadSpec::Drain {
                model: DrainSpec::FixedCapacity { per_node: 1.2 },
            })
            .with_stop(StopSpec::Rounds { rounds: 300 }),
            "diurnal-cycle" => Scenario::new(
                "diurnal-cycle",
                TopologySpec::Cycle { n: 64 },
                ProtocolSpec::Continuous,
            )
            .with_init(init::Workload::Balanced, 10.0, 1)
            .with_workload(WorkloadSpec::Arrivals {
                pattern: PatternSpec::Diurnal {
                    mean: 64.0,
                    amplitude: 0.9,
                    period: 48,
                },
                placement: PlacementSpec::Uniform,
            })
            .with_workload(WorkloadSpec::Drain {
                model: DrainSpec::Proportional { fraction: 0.1 },
            })
            .with_stop(StopSpec::Rounds { rounds: 480 }),
            "adversarial-hetero" => Scenario::new(
                "adversarial-hetero",
                TopologySpec::Torus2d { rows: 8, cols: 8 },
                ProtocolSpec::Heterogeneous {
                    capacities: CapacitySpec::TwoTier {
                        fast_fraction: 0.25,
                        ratio: 4.0,
                    },
                },
            )
            .with_init(init::Workload::Bimodal, 50.0, 1)
            .with_workload(WorkloadSpec::Arrivals {
                pattern: PatternSpec::Constant { per_round: 256.0 },
                placement: PlacementSpec::MaxLoaded,
            })
            .with_workload(WorkloadSpec::Drain {
                model: DrainSpec::FixedCapacity { per_node: 5.0 },
            })
            .with_stop(StopSpec::Rounds { rounds: 300 }),
            "churn-markov" => Scenario::new(
                "churn-markov",
                TopologySpec::RandomRegular {
                    n: 128,
                    d: 6,
                    seed: 9,
                },
                ProtocolSpec::Continuous,
            )
            .with_sequence(SequenceSpec {
                kind: SequenceKind::Markov {
                    p_fail: 0.2,
                    p_recover: 0.5,
                    seed: 13,
                },
                outage_every: None,
            })
            .with_init(init::Workload::UniformRandom, 20.0, 3)
            .with_workload(WorkloadSpec::Arrivals {
                pattern: PatternSpec::Constant { per_round: 640.0 },
                placement: PlacementSpec::RandomNode { seed: 21 },
            })
            .with_workload(WorkloadSpec::Drain {
                model: DrainSpec::Proportional { fraction: 0.25 },
            })
            .with_stop(StopSpec::SteadyState {
                window: 40,
                tol: 0.5,
                max_rounds: 1000,
            }),
            "churn-shards-message" => {
                let mut s = Scenario::builtin("bursty-torus-message").expect("base builtin exists");
                s.name = "churn-shards-message".into();
                s.with_faults(FaultsSpec {
                    every: 40,
                    down: 5,
                    seed: 7,
                    panic: true,
                    drop: true,
                    ..FaultsSpec::default()
                })
                .with_stop(StopSpec::Rounds { rounds: 240 })
            }
            _ => return None,
        };
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_exec_rejects_the_removed_sharded_backend() {
        let sharded = ExecSpec::Sharded {
            partition: PartitionSpec::Bfs { shards: 4 },
            threads: 2,
        };
        assert_eq!(
            validate_exec(&sharded),
            Err(Backend::SHARDED_REMOVED.to_string())
        );
        let built = Scenario::builtin("bursty-torus")
            .unwrap()
            .with_exec(sharded);
        assert_eq!(built.validate(), Err(Backend::SHARDED_REMOVED.to_string()));
        let overridden =
            crate::runner::ScenarioRunner::new(Scenario::builtin("bursty-torus").unwrap())
                .with_exec(sharded)
                .run();
        assert_eq!(overridden.unwrap_err(), Backend::SHARDED_REMOVED);
    }

    #[test]
    fn shard_keys_without_a_backend_are_rejected() {
        // The CLI's `--shards`/`--partition` without `--backend` reach
        // `exec_spec_from_parts` with no backend, where they fail the
        // same gating as a scenario file's misplaced keys.
        let gating = "shards/partition are only valid with backend = \"message\" or \"process\"";
        for (shards, partition) in [
            (Some(4), None),
            (None, Some("bfs")),
            (Some(4), Some("range")),
        ] {
            assert_eq!(
                exec_spec_from_parts(None, None, shards, partition, None, None),
                Err(gating.to_string()),
                "{shards:?} {partition:?}"
            );
        }
        assert_eq!(
            exec_spec_from_parts(Some("sharded"), Some(2), Some(4), Some("bfs"), None, None),
            Err(Backend::SHARDED_REMOVED.to_string())
        );
    }

    #[test]
    fn builtins_all_validate() {
        for name in Scenario::builtin_names() {
            let s = Scenario::builtin(name).expect("builtin exists");
            assert_eq!(&s.name, name);
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(Scenario::builtin("no-such-scenario").is_none());
    }

    #[test]
    fn topology_specs_build_with_expected_sizes() {
        let specs = [
            TopologySpec::Path { n: 7 },
            TopologySpec::Cycle { n: 9 },
            TopologySpec::Grid2d { rows: 3, cols: 5 },
            TopologySpec::Torus2d { rows: 4, cols: 4 },
            TopologySpec::Hypercube { dim: 5 },
            TopologySpec::Complete { n: 11 },
            TopologySpec::Star { n: 6 },
            TopologySpec::DeBruijn { dim: 4 },
            TopologySpec::RandomRegular {
                n: 20,
                d: 4,
                seed: 2,
            },
        ];
        for spec in specs {
            assert_eq!(spec.build().n(), spec.n(), "{}", spec.kind());
        }
    }

    #[test]
    fn capacity_specs_build() {
        let caps = CapacitySpec::TwoTier {
            fast_fraction: 0.25,
            ratio: 4.0,
        }
        .build(8);
        assert_eq!(caps, vec![4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let ramp = CapacitySpec::Ramp { ratio: 3.0 }.build(3);
        assert_eq!(ramp, vec![1.0, 2.0, 3.0]);
        assert_eq!(CapacitySpec::Uniform.build(2), vec![1.0, 1.0]);
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let base = Scenario::new("t", TopologySpec::Cycle { n: 8 }, ProtocolSpec::Continuous);
        assert!(base.validate().is_ok());
        let hetero_dynamic = Scenario::new(
            "t",
            TopologySpec::Cycle { n: 8 },
            ProtocolSpec::Heterogeneous {
                capacities: CapacitySpec::Uniform,
            },
        )
        .with_sequence(SequenceSpec {
            kind: SequenceKind::Static,
            outage_every: None,
        });
        assert!(hetero_dynamic.validate().is_err());
        let bad_hotspot = base.clone().with_workload(WorkloadSpec::Arrivals {
            pattern: PatternSpec::Constant { per_round: 1.0 },
            placement: PlacementSpec::Hotspot { node: 8 },
        });
        assert!(bad_hotspot.validate().is_err());
        let bad_drain = base.clone().with_workload(WorkloadSpec::Drain {
            model: DrainSpec::Proportional { fraction: 1.5 },
        });
        assert!(bad_drain.validate().is_err());
        let bad_stop = base.clone().with_stop(StopSpec::SteadyState {
            window: 1,
            tol: 0.1,
            max_rounds: 10,
        });
        assert!(bad_stop.validate().is_err());
        let zero_rounds = base.with_stop(StopSpec::Rounds { rounds: 0 });
        assert!(zero_rounds.validate().is_err());
    }

    #[test]
    fn faults_spec_parses_the_cli_arg_and_validates() {
        let f = FaultsSpec::from_arg("every=40, down=5, seed=7, panic, drop, delay=3").unwrap();
        assert_eq!(f.every, 40);
        assert_eq!(f.down, 5);
        assert_eq!(f.seed, 7);
        assert!(f.panic && f.drop && !f.duplicate && !f.reorder);
        assert_eq!(f.delay_ms, Some(3));
        assert_eq!(FaultsSpec::from_arg("").unwrap(), FaultsSpec::default());
        assert!(FaultsSpec::from_arg("panik").is_err());
        assert!(FaultsSpec::from_arg("every=lots").is_err());
        assert!(FaultsSpec::from_arg("budget=3").is_err());

        // Validation gates kinds on the backend and churn on homogeneity.
        let base = Scenario::new("t", TopologySpec::Cycle { n: 8 }, ProtocolSpec::Continuous);
        let churn_no_shards = base.clone().with_faults(FaultsSpec::default());
        assert!(
            churn_no_shards.validate().is_err(),
            "serial backend needs an explicit shards count"
        );
        let churn = base.clone().with_faults(FaultsSpec {
            shards: 4,
            ..FaultsSpec::default()
        });
        assert!(churn.validate().is_ok(), "{:?}", churn.validate());
        let panic_serial = base.clone().with_faults(FaultsSpec {
            shards: 4,
            panic: true,
            ..FaultsSpec::default()
        });
        assert!(panic_serial.validate().is_err(), "panic needs workers");
        let zero_every = base.with_faults(FaultsSpec {
            every: 0,
            shards: 4,
            ..FaultsSpec::default()
        });
        assert!(zero_every.validate().is_err());
        let hetero = Scenario::new(
            "t",
            TopologySpec::Cycle { n: 8 },
            ProtocolSpec::Heterogeneous {
                capacities: CapacitySpec::Uniform,
            },
        )
        .with_faults(FaultsSpec {
            shards: 4,
            ..FaultsSpec::default()
        });
        assert!(hetero.validate().is_err(), "faults are homogeneous-only");
    }

    #[test]
    fn fault_plan_is_deterministic_and_cycles_kinds() {
        let f = FaultsSpec {
            every: 5,
            down: 2,
            shards: 4,
            seed: 3,
            panic: true,
            drop: true,
            ..FaultsSpec::default()
        };
        let plan = f.fault_plan(4, 30);
        let again = f.fault_plan(4, 30);
        assert_eq!(plan.events(), again.events(), "same spec, same plan");
        // Failures at rounds 5, 10, …, 30 alternate panic/drop.
        assert_eq!(plan.len(), 6);
        for (i, ev) in plan.events().iter().enumerate() {
            assert_eq!(ev.round, 5 * (i as u64 + 1));
            assert!(ev.shard < 4);
            let expect = if i % 2 == 0 {
                dlb_core::FaultKind::Panic
            } else {
                dlb_core::FaultKind::DropHalo
            };
            assert_eq!(ev.kind, expect, "failure {i}");
        }
    }

    #[test]
    fn sequence_spec_builds_all_kinds() {
        let g = topology::cycle(6);
        for (kind, expect_name) in [
            (SequenceKind::Static, "static"),
            (SequenceKind::Iid { p: 0.5, seed: 1 }, "iid-subgraph"),
            (
                SequenceKind::Markov {
                    p_fail: 0.1,
                    p_recover: 0.9,
                    seed: 1,
                },
                "markov-churn",
            ),
            (SequenceKind::MatchingOnly { seed: 1 }, "matching-only"),
        ] {
            let spec = SequenceSpec {
                kind,
                outage_every: None,
            };
            let mut seq = spec.build(g.clone());
            assert_eq!(seq.name(), expect_name);
            assert_eq!(seq.n(), 6);
            seq.next_graph();
        }
        let outage = SequenceSpec {
            kind: SequenceKind::Static,
            outage_every: Some(2),
        };
        let mut seq = outage.build(g);
        assert_eq!(seq.name(), "outage");
        assert_eq!(seq.next_graph().m(), 6);
        assert_eq!(seq.next_graph().m(), 0);
    }
}
