#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # dlb-workloads
//!
//! Online workloads and declarative scenarios: the subsystem that turns
//! the workspace's convergence calculator into a system that balances
//! **while work arrives, executes, and completes**.
//!
//! The paper analyzes diffusion rounds over a fixed total load; every
//! driver in `dlb-core`/`dlb-dynamics` runs an initial vector to a
//! potential target. Real deployments — the ROADMAP's "heavy traffic from
//! millions of users" — live in *online* regimes: requests arrive (often
//! Zipf-skewed onto a few hot nodes), each node drains what its service
//! capacity allows, and the interesting quantity is the steady-state Φ
//! band set by the arrival/drain balance. This crate describes and runs
//! those regimes in three layers:
//!
//! * **[`workload`]** — the [`Workload`] trait (`apply(round, loads, ctx)
//!   → WorkloadDelta`) and a library of seeded-deterministic generators:
//!   constant-rate, bursty on/off, Zipf/hotspot skew, diurnal sine,
//!   adversarial max-loaded re-injection, fixed-capacity and proportional
//!   service drains, and a [`Compose`] combinator. All generic over the
//!   engine's two load types (`f64`, `i64` tokens — quantized by
//!   cumulative rounding);
//! * **[`scenario`]** — the declarative [`Scenario`]: one plain-data value
//!   binding topology (or dynamic [`GraphSequence`] model), initial
//!   distribution, workload, protocol, [`StatsMode`] and stop condition
//!   (round budget / Φ target / steady-state detection), with a builder
//!   API, built-in named scenarios, and a serde-free TOML file format
//!   ([`parse`]) that round-trips;
//! * **[`runner`]** — the [`ScenarioRunner`]: drives an engine round by
//!   round, interleaving workload deltas between rounds in place on the
//!   front buffer (the zero-copy ping-pong stays intact), and emits a
//!   [`ScenarioReport`] time series (Φ trace, injected/consumed/migrated
//!   totals, per-round imbalance, steady-state Φ band) with JSON-lines
//!   output for CI and tooling.
//!
//! The invariants the rest of the workspace pins extend to scenarios:
//! trajectories are **bit-identical across serial/parallel executors, any
//! thread count, and every stats mode**, and every run satisfies load
//! conservation (`final = initial + Σinjected − Σconsumed` — exact for
//! tokens).
//!
//! [`GraphSequence`]: dlb_dynamics::GraphSequence
//! [`StatsMode`]: dlb_core::engine::StatsMode

pub mod parse;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod workload;

pub use report::{
    CommTotals, FaultTotals, RoundRecord, ScenarioReport, SteadyBand, StopReason, TelemetryTotals,
};
pub use runner::{run_driven, ScenarioRunner};
pub use scenario::{
    exec_from_threads, exec_spec_from_parts, partition_from_name, validate_exec, CapacitySpec,
    DrainSpec, ExecSpec, FaultsSpec, InitSpec, PatternSpec, PlacementSpec, ProtocolSpec, Scenario,
    SequenceKind, SequenceSpec, StopSpec, TelemetrySpec, TopologySpec, WorkloadSpec,
};
pub use workload::{
    zipf_weights, Arrivals, Compose, Drain, DrainModel, Placement, RatePattern, ScenarioLoad,
    Workload, WorkloadCtx, WorkloadDelta,
};
