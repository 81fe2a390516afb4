//! The end-to-end scenario runner: drives an [`Engine`] round by round,
//! interleaving workload deltas between rounds, and emits the
//! [`ScenarioReport`] time series.
//!
//! ### Execution shape
//!
//! Each scenario round is **workload → balance → observe**:
//!
//! ```text
//! loads ──apply workload──▶ loads' ──Engine::round──▶ loads'' ──record──▶ …
//!        (in place, front buffer)   (zero-copy ping-pong)    (Φ, totals)
//! ```
//!
//! The workload mutates the caller's load vector in place between engine
//! rounds — the engine's zero-copy double buffering is untouched, no copy
//! is introduced. Each record's Φ, imbalance and total come from the
//! engine: the statistics pass's own load summary on stats rounds of the
//! canonical protocols ([`Engine::round_summary`]), the round's Φ plus
//! one min/max/total sweep ([`Engine::extent`]) on other stats rounds,
//! and one on-demand Φ pass ([`Engine::summary`]) on stats-off rounds —
//! all the same blocked reduction. The runner never sweeps the loads
//! itself, and the trace is
//! **bit-identical across stats modes, executors, and thread counts**;
//! workloads are applied by one thread and are seeded-deterministic,
//! extending the workspace's serial ≡ parallel invariant to online
//! scenarios.
//!
//! [`StatsMode`]: dlb_core::engine::StatsMode
//! [`Engine::round_summary`]: dlb_core::engine::Engine::round_summary
//! [`Engine::summary`]: dlb_core::engine::Engine::summary
//! [`Engine::extent`]: dlb_core::engine::Engine::extent

use std::collections::VecDeque;

use crate::report::{
    CommTotals, FaultTotals, RoundRecord, ScenarioReport, SteadyBand, StopReason, TelemetryTotals,
};
use crate::scenario::{
    compile_workloads, exec_from_threads, validate_exec, ExecSpec, ProtocolSpec, Scenario, StopSpec,
};
use crate::workload::{ScenarioLoad, Workload, WorkloadCtx};
use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::{Engine, LoadPotential, Protocol, StatsMode};
use dlb_core::heterogeneous::HeterogeneousDiffusion;
use dlb_core::init;
use dlb_core::model::{DiscreteRoundStats, RoundStats};
use dlb_dynamics::runner::{DynamicContinuousDiffusion, DynamicDiscreteDiffusion};
use dlb_dynamics::{ChurnSchedule, GraphSequence, ShardChurnSequence, StaticSequence};
use dlb_telemetry::{Phase as SpanPhase, Telemetry, TraceSummary, ENGINE_LANE};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Round statistics the scenario time series can read uniformly:
/// continuous and discrete stats both expose an after-round potential and
/// a total-moved figure as `f64`.
pub trait RoundLike {
    /// The after-round potential as `f64`.
    fn phi_after_f64(&self) -> f64;
    /// Total load/tokens moved over edges this round.
    fn moved_f64(&self) -> f64;
}

impl RoundLike for RoundStats {
    fn phi_after_f64(&self) -> f64 {
        self.phi_after
    }

    fn moved_f64(&self) -> f64 {
        self.total_flow
    }
}

impl RoundLike for DiscreteRoundStats {
    fn phi_after_f64(&self) -> f64 {
        self.phi_hat_after as f64
    }

    fn moved_f64(&self) -> f64 {
        self.total_tokens as f64
    }
}

/// Potential scalars (`f64` Φ, `u128` Φ̂) viewed as `f64` for the report
/// time series. The conversion is deterministic, so trace bit-identity is
/// preserved.
pub trait PhiLike {
    /// The potential as `f64`.
    fn phi_f64(self) -> f64;
}

impl PhiLike for f64 {
    fn phi_f64(self) -> f64 {
        self
    }
}

impl PhiLike for u128 {
    fn phi_f64(self) -> f64 {
        self as f64
    }
}

/// Stable name of a [`StatsMode`] for reports and scenario files.
pub fn stats_mode_name(mode: StatsMode) -> String {
    match mode {
        StatsMode::Full => "full".into(),
        StatsMode::EveryK(k) => format!("every:{k}"),
        StatsMode::PhiOnly => "phionly".into(),
        StatsMode::Off => "off".into(),
    }
}

/// Trailing-window length used for the report's Φ band when the stop
/// condition doesn't define one.
const DEFAULT_BAND_WINDOW: usize = 32;

fn band_of(recent: &VecDeque<f64>) -> SteadyBand {
    if recent.is_empty() {
        return SteadyBand {
            window: 0,
            phi_mean: 0.0,
            phi_min: 0.0,
            phi_max: 0.0,
        };
    }
    let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for &phi in recent {
        min = min.min(phi);
        max = max.max(phi);
        sum += phi;
    }
    SteadyBand {
        window: recent.len(),
        phi_mean: sum / recent.len() as f64,
        phi_min: min,
        phi_max: max,
    }
}

/// Drives `engine` through `stop`, applying `workload` between rounds,
/// and collects the full time series. This is the loop behind
/// [`ScenarioRunner`], exposed for callers that build their own engines
/// (benches, ad-hoc experiments).
///
/// The load vector is left in its final state; `name` labels the report.
pub fn run_driven<P>(
    engine: &mut Engine<P>,
    loads: &mut Vec<P::Load>,
    mut workload: Option<&mut dyn Workload<P::Load>>,
    stop: &StopSpec,
    name: &str,
) -> ScenarioReport
where
    P: Protocol,
    P::Load: ScenarioLoad,
    P::Stats: RoundLike,
    <P::Load as LoadPotential>::Phi: PhiLike,
{
    // One handle clone up front: a unit copy when telemetry is off, one
    // Arc increment when armed — either way the round loop borrows freely.
    let tel = engine.telemetry().clone();
    let start = engine.summary(loads);
    let ctx = WorkloadCtx {
        initial_total: start.total,
    };
    let initial_total = ctx.initial_total;
    let phi0 = start.phi.phi_f64();
    let max_rounds = stop.max_rounds();
    let band_window = match *stop {
        StopSpec::SteadyState { window, .. } => window,
        _ => DEFAULT_BAND_WINDOW,
    };

    let mut phi_trace = Vec::with_capacity(max_rounds.min(1 << 20) + 1);
    phi_trace.push(phi0);
    let mut records: Vec<RoundRecord> = Vec::with_capacity(max_rounds.min(1 << 20));
    let mut recent: VecDeque<f64> = VecDeque::with_capacity(band_window + 1);
    let (mut injected_total, mut consumed_total, mut migrated_total) = (0.0f64, 0.0f64, 0.0f64);
    let mut stop_reason = StopReason::RoundBudget;
    let mut comm: Option<CommTotals> = None;

    for round in 1..=max_rounds as u64 {
        let delta = match workload.as_deref_mut() {
            Some(w) => {
                let t0 = tel.start();
                let delta = w.apply(round, loads, &ctx);
                tel.record(ENGINE_LANE, round, SpanPhase::WorkloadApply, t0);
                delta
            }
            None => Default::default(),
        };
        let stats = engine.round(loads);
        if let Some(c) = engine.comm_metrics() {
            let totals = comm.get_or_insert_with(CommTotals::default);
            totals.messages += c.messages as u64;
            totals.values_sent += c.values_sent as u64;
            totals.halo_bytes += c.halo_bytes as u64;
            totals.max_round_shard_values = totals
                .max_round_shard_values
                .max(c.max_shard_values_sent as u64);
            totals.owned_values_in += c.owned_values_in as u64;
            totals.owned_values_out += c.owned_values_out as u64;
            totals.delta_values += c.delta_values as u64;
            totals.collects += c.collects as u64;
            totals.wire_bytes_out += c.wire_bytes_out as u64;
            totals.wire_bytes_in += c.wire_bytes_in as u64;
        }
        // Φ, min, max and total come from the engine: free on stats
        // rounds of the canonical protocols (the statistics pass already
        // produced them), Φ from the stats plus one min/max/total sweep on
        // other stats rounds, one Φ pass on stats-off rounds.
        let summary = match (engine.round_summary(), &stats) {
            (Some(s), _) => s.with_phi(s.phi.phi_f64()),
            (None, Some(s)) => engine.extent(loads).with_phi(s.phi_after_f64()),
            (None, None) => {
                let s = engine.summary(loads);
                s.with_phi(s.phi.phi_f64())
            }
        };
        let phi = summary.phi;
        let moved = stats.as_ref().map_or(0.0, RoundLike::moved_f64);
        injected_total += delta.injected;
        consumed_total += delta.consumed;
        migrated_total += moved;
        phi_trace.push(phi);
        records.push(RoundRecord {
            round,
            injected: delta.injected,
            consumed: delta.consumed,
            migrated: moved,
            phi,
            imbalance: summary.max - summary.min,
            total: summary.total,
        });
        recent.push_back(phi);
        if recent.len() > band_window {
            recent.pop_front();
        }
        match *stop {
            StopSpec::PhiBelow { target, .. } if phi <= target => {
                stop_reason = StopReason::Converged;
                break;
            }
            StopSpec::SteadyState { window, tol, .. } if recent.len() == window => {
                let band = band_of(&recent);
                if band.phi_max - band.phi_min <= tol * band.phi_mean.abs().max(1.0) {
                    stop_reason = StopReason::SteadyState;
                    break;
                }
            }
            _ => {}
        }
    }

    let final_total = records.last().map_or(initial_total, |r| r.total);
    // An engine armed with a fault plan (even an empty one) reports its
    // executor-fault counters; unarmed engines omit the section.
    let faults = engine.faults().map(|_| {
        let fs = engine.fault_stats();
        FaultTotals {
            faults_injected: fs.faults_injected,
            recoveries: fs.recoveries,
            rehomed_values: fs.rehomed_values,
        }
    });
    // Distill the recorder (when armed) into plain totals; histogram bin
    // count is irrelevant to the totals, so the default shape is fine.
    let telemetry = tel.recorder().map(|rec| {
        let summary =
            TraceSummary::from_events(&rec.events(), dlb_telemetry::DEFAULT_BINS, rec.dropped());
        TelemetryTotals::from(&summary)
    });
    ScenarioReport {
        scenario: name.to_string(),
        protocol: engine.protocol().name().to_string(),
        n: engine.protocol().n(),
        backend: engine.backend().name().to_string(),
        resident: matches!(
            engine.backend(),
            dlb_core::engine::Backend::Message { resident: true, .. }
        ),
        threads: engine.threads(),
        stats: stats_mode_name(engine.stats_mode()),
        rounds: records.len(),
        stop: stop_reason,
        initial_total,
        final_total,
        injected_total,
        consumed_total,
        migrated_total,
        phi_trace,
        records,
        steady: band_of(&recent),
        comm,
        faults,
        telemetry,
    }
}

fn build_engine<P: Protocol + Sync>(
    protocol: P,
    exec: ExecSpec,
    stats: StatsMode,
    tel: Telemetry,
) -> Engine<P> {
    Engine::with_backend(protocol, exec)
        .with_stats_mode(stats)
        .with_telemetry(tel)
}

/// Fault machinery compiled once per run from a scenario's `[faults]`
/// section: the churn geometry (shard owner map on the ground graph,
/// per-shard member counts for re-homing totals) and the executor
/// [`FaultPlan`](dlb_core::FaultPlan) to arm the engine with. The shard
/// count and owner map resolve against the *scenario's own* backend, so
/// an executor override (the bit-identity replays) runs the identical
/// degraded trajectory.
struct FaultSetup {
    every: usize,
    down: usize,
    seed: u64,
    shards: usize,
    owners: Vec<u32>,
    members: Vec<u64>,
    plan: Option<dlb_core::FaultPlan>,
}

fn compile_faults(sc: &Scenario, g: &dlb_graphs::Graph) -> Result<Option<FaultSetup>, String> {
    let Some(f) = &sc.faults else { return Ok(None) };
    let shards = f.resolved_shards(&sc.exec)?;
    let partition = sc
        .exec
        .partition()
        .unwrap_or(dlb_graphs::PartitionSpec::Range { shards });
    let part = partition.build(g);
    let members = part.member_lists().iter().map(|m| m.len() as u64).collect();
    let plan = f
        .has_exec_kinds()
        .then(|| f.fault_plan(shards, sc.stop.max_rounds()));
    Ok(Some(FaultSetup {
        every: f.every,
        down: f.down,
        seed: f.seed,
        shards,
        owners: part.owners().to_vec(),
        members,
        plan,
    }))
}

/// Wraps the run's graph stream in the shard fail/recover churn model
/// when the scenario declares faults.
fn churned_sequence(
    base: Box<dyn GraphSequence + Sync>,
    faults: &Option<FaultSetup>,
) -> Box<dyn GraphSequence + Sync> {
    match faults {
        Some(fs) => Box::new(ShardChurnSequence::new(
            base,
            fs.owners.clone(),
            ChurnSchedule::new(fs.every, fs.down, fs.shards, fs.seed),
        )),
        None => base,
    }
}

/// Merges the scenario-level churn counters into the report's fault
/// totals by replaying the same seeded schedule over the rounds the run
/// actually executed: each failure re-homes the failed shard's owned
/// values; a failure whose down window drained inside the run counts as
/// recovered.
fn merge_churn_totals(mut report: ScenarioReport, faults: &Option<FaultSetup>) -> ScenarioReport {
    let Some(fs) = faults else { return report };
    let mut totals = report.faults.take().unwrap_or_default();
    let mut sched = ChurnSchedule::new(fs.every, fs.down, fs.shards, fs.seed);
    for _ in 0..report.rounds {
        let before = sched.failures();
        let failed = sched.advance();
        if sched.failures() > before {
            let s = failed.expect("a new failure names a shard");
            totals.faults_injected += 1;
            totals.rehomed_values += fs.members[s];
        }
    }
    totals.recoveries += sched.failures() - u64::from(sched.failed().is_some());
    report.faults = Some(totals);
    report
}

/// Runs a [`Scenario`], with optional engine overrides for replaying the
/// same description under a different executor or statistics mode (the
/// bit-identity suites drive these).
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    scenario: Scenario,
    exec: Option<ExecSpec>,
    stats: Option<StatsMode>,
    telemetry: Option<Telemetry>,
}

impl ScenarioRunner {
    /// Wraps a scenario.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioRunner {
            scenario,
            exec: None,
            stats: None,
            telemetry: None,
        }
    }

    /// Overrides the scenario's executor for this run through the legacy
    /// `threads` scalar (see [`exec_from_threads`]).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_exec(exec_from_threads(threads))
    }

    /// Overrides the scenario's execution backend for this run.
    pub fn with_exec(mut self, exec: ExecSpec) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Overrides the scenario's statistics mode for this run.
    pub fn with_stats(mut self, stats: StatsMode) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Supplies the telemetry handle for this run, overriding the
    /// scenario's `[telemetry]` section. Callers that keep a clone of an
    /// armed handle (the CLI's `--trace` export) can read the raw span
    /// events back from their own [`Recorder`](dlb_telemetry::Recorder)
    /// after the run.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builds everything the scenario names — graph or sequence, initial
    /// loads, workload, protocol, engine — and drives it to the stop
    /// condition.
    pub fn run(&self) -> Result<ScenarioReport, String> {
        let sc = &self.scenario;
        sc.validate()?;
        let exec = self.exec.unwrap_or(sc.exec);
        // The scenario's own exec was just validated; an override comes in
        // unchecked and must not panic inside the engine constructor.
        validate_exec(&exec)?;
        let g = sc.topology.build();
        let n = g.n();
        let stats = self.stats.unwrap_or(sc.stats);
        // Telemetry arms from the override (CLI export), else from the
        // scenario's `[telemetry]` section; a scenario without one runs
        // fully unobserved — `Telemetry::Off` is a no-op branch, so those
        // runs stay bit-identical and cost nothing extra per round.
        let tel = match &self.telemetry {
            Some(t) => t.clone(),
            None => sc
                .telemetry
                .as_ref()
                .map_or(Telemetry::Off, |spec| spec.armed(&exec)),
        };
        let faults = compile_faults(sc, &g)?;
        let mut rng = StdRng::seed_from_u64(sc.init.seed);

        match &sc.protocol {
            ProtocolSpec::Continuous => {
                let mut loads = init::continuous_loads(n, sc.init.avg, sc.init.dist, &mut rng);
                let mut workload = compile_workloads::<f64>(&sc.workloads, n);
                let workload = workload.as_mut().map(|w| w as &mut dyn Workload<f64>);
                match (&sc.sequence, &faults) {
                    (None, None) => {
                        let mut engine =
                            build_engine(ContinuousDiffusion::new(&g), exec, stats, tel.clone());
                        Ok(run_driven(
                            &mut engine,
                            &mut loads,
                            workload,
                            &sc.stop,
                            &sc.name,
                        ))
                    }
                    (seq_spec, _) => {
                        // Faults force the dynamic protocol even on a
                        // fixed network: churn degrades the round graph.
                        let base = match seq_spec {
                            Some(spec) => spec.build(g.clone()),
                            None => Box::new(StaticSequence::new(g.clone())) as _,
                        };
                        let mut seq = churned_sequence(base, &faults);
                        let mut engine = build_engine(
                            DynamicContinuousDiffusion::new(&mut seq),
                            exec,
                            stats,
                            tel.clone(),
                        );
                        if let Some(plan) = faults.as_ref().and_then(|fs| fs.plan.as_ref()) {
                            engine.set_faults(Some(plan.clone()));
                        }
                        let report =
                            run_driven(&mut engine, &mut loads, workload, &sc.stop, &sc.name);
                        Ok(merge_churn_totals(report, &faults))
                    }
                }
            }
            ProtocolSpec::Discrete => {
                // Token scenarios round the average to whole tokens.
                let avg = sc.init.avg.round() as i64;
                let mut loads = init::discrete_loads(n, avg, sc.init.dist, &mut rng);
                let mut workload = compile_workloads::<i64>(&sc.workloads, n);
                let workload = workload.as_mut().map(|w| w as &mut dyn Workload<i64>);
                match (&sc.sequence, &faults) {
                    (None, None) => {
                        let mut engine =
                            build_engine(DiscreteDiffusion::new(&g), exec, stats, tel.clone());
                        Ok(run_driven(
                            &mut engine,
                            &mut loads,
                            workload,
                            &sc.stop,
                            &sc.name,
                        ))
                    }
                    (seq_spec, _) => {
                        let base = match seq_spec {
                            Some(spec) => spec.build(g.clone()),
                            None => Box::new(StaticSequence::new(g.clone())) as _,
                        };
                        let mut seq = churned_sequence(base, &faults);
                        let mut engine = build_engine(
                            DynamicDiscreteDiffusion::new(&mut seq),
                            exec,
                            stats,
                            tel.clone(),
                        );
                        if let Some(plan) = faults.as_ref().and_then(|fs| fs.plan.as_ref()) {
                            engine.set_faults(Some(plan.clone()));
                        }
                        let report =
                            run_driven(&mut engine, &mut loads, workload, &sc.stop, &sc.name);
                        Ok(merge_churn_totals(report, &faults))
                    }
                }
            }
            ProtocolSpec::Heterogeneous { capacities } => {
                let caps = capacities.build(n);
                let mut loads = init::continuous_loads(n, sc.init.avg, sc.init.dist, &mut rng);
                let mut workload = compile_workloads::<f64>(&sc.workloads, n);
                let workload = workload.as_mut().map(|w| w as &mut dyn Workload<f64>);
                let mut engine = build_engine(
                    HeterogeneousDiffusion::new(&g, caps),
                    exec,
                    stats,
                    tel.clone(),
                );
                Ok(run_driven(
                    &mut engine,
                    &mut loads,
                    workload,
                    &sc.stop,
                    &sc.name,
                ))
            }
        }
    }
}

impl Scenario {
    /// Runs the scenario as described (see [`ScenarioRunner`] for
    /// per-run overrides).
    pub fn run(&self) -> Result<ScenarioReport, String> {
        ScenarioRunner::new(self.clone()).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        DrainSpec, PatternSpec, PlacementSpec, SequenceKind, SequenceSpec, TopologySpec,
        WorkloadSpec,
    };

    fn trace_bits(report: &ScenarioReport) -> Vec<u64> {
        report.phi_trace.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn builtins_run_and_conserve() {
        for name in Scenario::builtin_names() {
            let report = Scenario::builtin(name).unwrap().run().expect(name);
            assert!(report.rounds > 0, "{name}");
            assert_eq!(report.phi_trace.len(), report.rounds + 1, "{name}");
            assert_eq!(report.records.len(), report.rounds, "{name}");
            assert!(
                report.conservation_relative_error() < 1e-9,
                "{name}: conservation error {}",
                report.conservation_error()
            );
        }
    }

    #[test]
    fn serial_and_parallel_scenarios_bit_identical() {
        for name in ["bursty-torus", "zipf-hypercube-drain", "churn-markov"] {
            let sc = Scenario::builtin(name).unwrap();
            let serial = ScenarioRunner::new(sc.clone()).run().unwrap();
            for threads in [2usize, 3] {
                let par = ScenarioRunner::new(sc.clone())
                    .with_threads(threads)
                    .run()
                    .unwrap();
                assert_eq!(serial.rounds, par.rounds, "{name}/{threads}");
                assert_eq!(
                    trace_bits(&serial),
                    trace_bits(&par),
                    "{name}/{threads}: Φ trace diverged"
                );
                assert_eq!(
                    serial.final_total.to_bits(),
                    par.final_total.to_bits(),
                    "{name}/{threads}"
                );
            }
        }
    }

    #[test]
    fn message_backend_scenarios_bit_identical_with_comm_totals() {
        // Fixed, discrete, and dynamic-topology regimes on shard-isolated
        // workers must reproduce the serial trajectory bit for bit while
        // reporting their exchange volume.
        for name in ["bursty-torus", "zipf-hypercube-drain", "churn-markov"] {
            let sc = Scenario::builtin(name).unwrap();
            let serial = ScenarioRunner::new(sc.clone()).run().unwrap();
            assert!(serial.comm.is_none(), "{name}: serial run reported comm");
            let msg = ScenarioRunner::new(sc.clone())
                .with_exec(ExecSpec::Message {
                    partition: dlb_graphs::PartitionSpec::Bfs { shards: 6 },
                    resident: false,
                })
                .run()
                .unwrap();
            assert_eq!(serial.rounds, msg.rounds, "{name}");
            assert_eq!(
                trace_bits(&serial),
                trace_bits(&msg),
                "{name}: Φ trace diverged on the message backend"
            );
            assert_eq!(
                serial.final_total.to_bits(),
                msg.final_total.to_bits(),
                "{name}"
            );
            assert_eq!(msg.backend, "message", "{name}");
            let comm = msg.comm.expect("message run reports comm totals");
            assert!(comm.messages > 0, "{name}: no messages recorded");
            assert!(comm.values_sent > 0, "{name}: no values recorded");
            assert_eq!(comm.halo_bytes, comm.values_sent * 8, "{name}");
            assert!(comm.max_round_shard_values > 0, "{name}");
        }
    }

    #[test]
    fn fault_injected_scenario_recovers_and_matches_serial_replay() {
        let sc = Scenario::builtin("churn-shards-message").unwrap();
        let msg = sc.run().unwrap();
        assert_eq!(msg.backend, "message");
        let f = msg.faults.expect("fault run reports totals");
        assert!(f.faults_injected > 0, "no faults delivered");
        assert!(f.recoveries > 0, "no recoveries recorded");
        assert!(f.rehomed_values > 0, "no values re-homed");
        assert!(msg.conservation_relative_error() < 1e-9);
        // The headline guarantee at scenario level: executor faults are
        // recovered exactly, so a serial replay over the same degraded
        // round sequence (same churn seed, same owner map) reproduces
        // the trajectory bit for bit.
        let serial = ScenarioRunner::new(sc.clone())
            .with_exec(ExecSpec::Serial)
            .run()
            .unwrap();
        assert_eq!(serial.rounds, msg.rounds);
        assert_eq!(
            trace_bits(&serial),
            trace_bits(&msg),
            "Φ trace diverged under injected faults"
        );
        assert_eq!(serial.final_total.to_bits(), msg.final_total.to_bits());
        // The serial replay still carries the churn counters (executor
        // faults are a message-backend concept and stay at zero there).
        let sf = serial.faults.expect("churn counters survive the override");
        assert!(sf.faults_injected > 0);
        assert!(sf.faults_injected <= f.faults_injected);
        // The fault section round-trips through the report's JSONL.
        let header = msg.to_jsonl();
        let header = header.lines().next().unwrap().to_string();
        assert!(header.contains("\"faults_injected\""), "{header}");
        assert!(header.contains("\"recoveries\""), "{header}");
        assert!(header.contains("\"rehomed_values\""), "{header}");
    }

    #[test]
    fn pure_churn_scenario_freezes_the_failed_shard() {
        // Churn without executor fault kinds on the serial backend: the
        // failed shard's nodes drop out of the round graph, so the run
        // still conserves exactly and reports the churn counters.
        let sc = Scenario::new(
            "churn-only",
            TopologySpec::Torus2d { rows: 4, cols: 4 },
            ProtocolSpec::Discrete,
        )
        .with_init(init::Workload::Spike, 64.0, 3)
        .with_faults(crate::scenario::FaultsSpec {
            every: 4,
            down: 2,
            shards: 4,
            seed: 11,
            ..crate::scenario::FaultsSpec::default()
        })
        .with_stop(StopSpec::Rounds { rounds: 24 });
        let report = sc.run().unwrap();
        assert_eq!(report.rounds, 24);
        assert_eq!(report.conservation_error(), 0.0, "tokens conserve exactly");
        let f = report.faults.expect("churn counters reported");
        assert_eq!(f.faults_injected, 6, "failures at rounds 4,8,…,24");
        assert_eq!(f.recoveries, 5, "the round-24 failure is still down");
        assert_eq!(f.rehomed_values, 6 * 4, "4 owned values per failure");
        // Φ never increases across a pure-churn run without workloads:
        // degraded rounds freeze the failed shard and balance the rest.
        for w in report.phi_trace.windows(2) {
            assert!(w[1] <= w[0], "Φ increased across a degraded round");
        }
    }

    #[test]
    fn stats_modes_do_not_change_the_trajectory() {
        let sc = Scenario::builtin("bursty-torus").unwrap();
        let full = ScenarioRunner::new(sc.clone())
            .with_stats(StatsMode::Full)
            .run()
            .unwrap();
        for mode in [StatsMode::EveryK(7), StatsMode::PhiOnly, StatsMode::Off] {
            let lazy = ScenarioRunner::new(sc.clone())
                .with_stats(mode)
                .run()
                .unwrap();
            assert_eq!(full.rounds, lazy.rounds, "{mode:?}");
            assert_eq!(trace_bits(&full), trace_bits(&lazy), "{mode:?}");
            assert_eq!(full.stop, lazy.stop, "{mode:?}");
            // Injected/consumed are workload-side and mode-independent…
            assert_eq!(
                full.injected_total.to_bits(),
                lazy.injected_total.to_bits(),
                "{mode:?}"
            );
            assert_eq!(
                full.consumed_total.to_bits(),
                lazy.consumed_total.to_bits(),
                "{mode:?}"
            );
        }
        // …while migrated totals are only tallied on flow-computing rounds.
        let off = ScenarioRunner::new(sc)
            .with_stats(StatsMode::Off)
            .run()
            .unwrap();
        assert_eq!(off.migrated_total, 0.0);
        assert!(full.migrated_total > 0.0);
    }

    #[test]
    fn steady_state_detector_stops_a_balanced_drain() {
        // Constant uniform arrivals exactly matched by proportional drain
        // settle Φ quickly; the detector must fire before the budget.
        let sc = Scenario::new(
            "steady",
            TopologySpec::Torus2d { rows: 8, cols: 8 },
            ProtocolSpec::Continuous,
        )
        .with_init(init::Workload::Spike, 50.0, 1)
        .with_workload(WorkloadSpec::Arrivals {
            pattern: PatternSpec::Constant { per_round: 64.0 },
            placement: PlacementSpec::Uniform,
        })
        .with_workload(WorkloadSpec::Drain {
            model: DrainSpec::Proportional { fraction: 0.02 },
        })
        .with_stop(StopSpec::SteadyState {
            window: 16,
            tol: 0.05,
            max_rounds: 5000,
        });
        let report = sc.run().unwrap();
        assert_eq!(report.stop, StopReason::SteadyState);
        assert!(report.rounds < 5000);
        let band = report.steady;
        assert_eq!(band.window, 16);
        assert!(band.phi_min <= band.phi_mean && band.phi_mean <= band.phi_max);
    }

    #[test]
    fn phi_below_stop_reports_converged() {
        let sc = Scenario::new(
            "conv",
            TopologySpec::Hypercube { dim: 4 },
            ProtocolSpec::Continuous,
        )
        .with_init(init::Workload::Spike, 10.0, 1)
        .with_stop(StopSpec::PhiBelow {
            target: 1e-6,
            max_rounds: 10_000,
        });
        let report = sc.run().unwrap();
        assert_eq!(report.stop, StopReason::Converged);
        assert!(report.phi_final() <= 1e-6);
        // No workload: a pure convergence run conserves the initial total.
        assert!(report.conservation_relative_error() < 1e-12);
        assert_eq!(report.injected_total, 0.0);
        assert_eq!(report.consumed_total, 0.0);
    }

    #[test]
    fn discrete_conservation_is_exact() {
        let report = Scenario::builtin("zipf-hypercube-drain")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            report.conservation_error(),
            0.0,
            "token conservation must be exact"
        );
        // Tokens are integers: the final total is integral.
        assert_eq!(report.final_total.fract(), 0.0);
    }

    #[test]
    fn outage_sequence_scenario_runs() {
        let sc = Scenario::new(
            "outage",
            TopologySpec::Cycle { n: 12 },
            ProtocolSpec::Continuous,
        )
        .with_sequence(SequenceSpec {
            kind: SequenceKind::Static,
            outage_every: Some(3),
        })
        .with_init(init::Workload::Spike, 10.0, 1)
        .with_stop(StopSpec::Rounds { rounds: 9 });
        let report = sc.run().unwrap();
        assert_eq!(report.rounds, 9);
        // Outage rounds (3, 6, 9) freeze Φ: trace[k] == trace[k-1].
        for k in [3usize, 6, 9] {
            assert_eq!(
                report.phi_trace[k].to_bits(),
                report.phi_trace[k - 1].to_bits(),
                "outage round {k} must not change Φ"
            );
        }
        assert!(report.conservation_relative_error() < 1e-12);
    }

    #[test]
    fn static_sequence_scenario_matches_fixed_network_run() {
        let fixed = Scenario::new(
            "fixed",
            TopologySpec::Torus2d { rows: 4, cols: 4 },
            ProtocolSpec::Continuous,
        )
        .with_init(init::Workload::Ramp, 25.0, 1)
        .with_workload(WorkloadSpec::Arrivals {
            pattern: PatternSpec::Constant { per_round: 16.0 },
            placement: PlacementSpec::Hotspot { node: 5 },
        })
        .with_stop(StopSpec::Rounds { rounds: 40 });
        let dynamic = fixed.clone().with_sequence(SequenceSpec {
            kind: SequenceKind::Static,
            outage_every: None,
        });
        let a = fixed.run().unwrap();
        let b = dynamic.run().unwrap();
        assert_eq!(trace_bits(&a), trace_bits(&b));
        assert_eq!(a.final_total.to_bits(), b.final_total.to_bits());
    }

    #[test]
    fn heterogeneous_scenario_tracks_weighted_potential() {
        let report = Scenario::builtin("adversarial-hetero")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.protocol, "hetero-cont");
        assert!(report.conservation_relative_error() < 1e-9);
        // The adversary keeps re-injecting: the trace can't collapse to 0.
        assert!(report.phi_final() > 0.0);
    }

    #[test]
    fn telemetry_armed_runs_report_totals_and_stay_bit_identical() {
        let plain = Scenario::builtin("bursty-torus").unwrap();
        let traced = plain
            .clone()
            .with_telemetry(crate::scenario::TelemetrySpec::default());
        let a = plain.run().unwrap();
        let b = traced.clone().run().unwrap();
        assert!(a.telemetry.is_none(), "no [telemetry] section → no totals");
        assert_eq!(
            trace_bits(&a),
            trace_bits(&b),
            "recording changed the trajectory"
        );
        assert_eq!(a.final_total.to_bits(), b.final_total.to_bits());
        let t = b.telemetry.expect("armed run reports totals");
        assert!(t.spans > 0);
        for phase in ["workload-apply", "gather-interior", "stats"] {
            assert!(
                t.phases.iter().any(|(p, ..)| p == phase),
                "missing {phase} in {:?}",
                t.phases
            );
        }
        // Serial backend: no shard lanes, hence no busy imbalance.
        assert!(t.busy_imbalance_mean.is_none());

        // Message backend: per-shard lanes yield imbalance ratios ≥ 1 and
        // the shard workers' halo-fill phase, with the trajectory still
        // identical.
        let msg = ScenarioRunner::new(traced)
            .with_exec(ExecSpec::Message {
                partition: dlb_graphs::PartitionSpec::Bfs { shards: 4 },
                resident: false,
            })
            .run()
            .unwrap();
        assert_eq!(trace_bits(&a), trace_bits(&msg), "message run diverged");
        let mt = msg.telemetry.as_ref().expect("message run reports totals");
        let mean = mt.busy_imbalance_mean.expect("shard lanes present");
        let max = mt.busy_imbalance_max.unwrap();
        assert!(mean >= 1.0 && max >= mean, "mean {mean}, max {max}");
        assert!(mt.phases.iter().any(|(p, ..)| p == "recv-halo"));
        let header = msg.to_jsonl();
        let header = header.lines().next().unwrap();
        assert!(header.contains("\"telemetry_spans\""), "{header}");
    }

    #[test]
    fn run_driven_with_no_workload_is_a_plain_convergence_run() {
        use dlb_core::engine::IntoEngine;
        let g = dlb_graphs::topology::cycle(16);
        let mut engine = ContinuousDiffusion::new(&g).engine();
        let mut loads = vec![0.0; 16];
        loads[0] = 160.0;
        let report = run_driven(
            &mut engine,
            &mut loads,
            None,
            &StopSpec::Rounds { rounds: 12 },
            "bare",
        );
        assert_eq!(report.rounds, 12);
        assert_eq!(report.scenario, "bare");
        assert_eq!(report.threads, 1);
        assert!(report.phi_final() < report.phi_trace[0]);
        assert!((report.final_total - 160.0).abs() < 1e-9);
    }
}
