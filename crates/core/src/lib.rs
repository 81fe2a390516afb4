#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # dlb-core
//!
//! The primary contribution of Berenbrink–Friedetzky–Hu (IPPS 2006),
//! *A New Analytical Method for Parallel, Diffusion-type Load Balancing*,
//! as an executable library built around one **unified round engine**.
//!
//! ## Architecture: Protocol → Engine → Driver
//!
//! Every balancing scheme in the workspace is a per-round load
//! transformation whose quadratic potential `Φ` the paper's analysis
//! tracks. The library factors that observation into three layers (see
//! `ARCHITECTURE.md` at the repository root for the full tour):
//!
//! * **[`engine::Protocol`]** — one scheme = one implementation: an
//!   associated load type (`f64` or `i64` tokens), a per-round setup hook,
//!   a pure per-node *gather kernel* `node_new_load(snapshot, v)`, and a
//!   statistics hook. The per-edge divisor `4·max(dᵢ, dⱼ)` is derived
//!   from the two degrees in the kernel ([`kernels`]); runs of equal
//!   degree with no higher-degree neighbour divide by one broadcast value.
//! * **[`engine::Engine`]** — the one backend-generic executor in the
//!   workspace ([`engine::Backend`]): a serial walk, a flat-chunked pool
//!   over a persistent [`engine::WorkerPool`] (workers live across
//!   rounds; `DLB_THREADS` caps the fan-out), and two graph-partitioned
//!   backends ([`dlb_graphs::partition`]) — message (one worker thread
//!   per shard, halo values as batched messages) and process (one
//!   `dlb-shard-worker` OS process per shard over `dlb-wire`) — that
//!   gather whole shards interior-first with per-round edge-cut/halo and
//!   communication accounting. All run the identical kernel per node, so
//!   serial ≡ pool ≡ message ≡ process results are **bit-identical** — an
//!   invariant the test-suite pins for every protocol.
//! * **[`runner`]** — the convergence drivers (potential targets, round
//!   budgets, traces, fixed-point detection) with observed variants for
//!   instrumentation; `dlb-dynamics` parameterizes the same driver with a
//!   graph sequence instead of duplicating the loop.
//!
//! ## The paper's objects
//!
//! * **Algorithm 1** — concurrent neighbourhood diffusion on a fixed
//!   network: node `i` sends `(ℓᵢ − ℓⱼ)/(4·max(dᵢ, dⱼ))` to every lighter
//!   neighbour `j`, all edges in parallel. Continuous ([`continuous`]) and
//!   discrete ([`discrete`], integral tokens, floor rounding) protocols.
//! * **The sequentialization machinery** ([`seq`]) — the paper's proof
//!   device made executable: the same round replayed as one edge activation
//!   at a time in increasing weight order, with per-activation potential
//!   accounting and Lemma 1 certificates. Because transfers are additive,
//!   the sequentialized replay reaches *exactly* the concurrent round's
//!   final state — an invariant the test-suite checks.
//! * **Algorithm 2** ([`random_partner`]) — every node picks a uniformly
//!   random balancing partner each round; concurrent transfers over the
//!   sampled link set (Section 6 of the paper), continuous and discrete.
//! * **Potentials** ([`potential`]) — the quadratic potential
//!   `Φ(L) = Σᵢ (ℓᵢ − ℓ̄)²` in floating point, and an *exact* integer-scaled
//!   version `Φ̂ = n²·Φ = Σᵢ (n·ℓᵢ − S)²` used by every discrete-case
//!   threshold comparison (64δ³n/λ₂, 3200n) so rounding noise can never
//!   blur a theorem check.
//! * **Theorem bounds** ([`bounds`]) — every bound the paper proves
//!   (Theorems 4, 6, 7, 8, 12, 14; Lemmas 2, 5, 11, 13) as documented
//!   calculator functions, plus the Ghosh–Muthukrishnan dimension-exchange
//!   bound used in the paper's "constant times faster" comparison.
//! * **Extensions** ([`heterogeneous`], [`init`]) — capacity-weighted
//!   diffusion on heterogeneous networks, and the initial load
//!   distributions used across the experiment suite.
//!
//! The companion crates provide the substrates: `dlb-graphs` (topologies,
//! precomputed edge weights), `dlb-spectral` (λ₂, γ), `dlb-dynamics`
//! (Section 5's dynamic networks as engine protocols), `dlb-baselines`
//! (the protocols the paper compares against, on the same engine), and
//! `dlb-analysis` (the Monte-Carlo experiment harness).

pub mod bounds;
pub mod continuous;
pub mod discrete;
pub mod engine;
pub mod faults;
pub mod heterogeneous;
pub mod init;
pub mod kernels;
pub mod model;
pub mod potential;
pub mod process;
pub mod random_partner;
pub mod runner;
pub mod seq;

/// Span recording, aggregation, and trace export (re-exported
/// `dlb_telemetry`): arm an engine with [`Engine::with_telemetry`]
/// (`engine::Engine::with_telemetry`) and read the unified counter
/// registry via `Engine::metrics_snapshot`.
pub use dlb_telemetry as telemetry;
pub use dlb_telemetry::{MetricsSnapshot, Recorder, Telemetry};
/// The process backend's byte transport selector (re-exported
/// `dlb_wire`), accepted by [`Backend::Process`].
pub use dlb_wire::Transport;
pub use engine::{Backend, Engine, EngineError, EnginePhase, IntoEngine, Protocol, ShardMetrics};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultStats};
pub use kernels::{DiffusionLoad, GatherSpec, KernelKind};
pub use model::{ContinuousBalancer, DiscreteBalancer, DiscreteRoundStats, RoundStats};
pub use process::{run_worker, WireLoad};
