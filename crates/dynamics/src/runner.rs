//! Diffusion over dynamic networks (Theorems 7 and 8) on the unified
//! engine.
//!
//! The static and dynamic cases are **one driver parameterized by a graph
//! source**: [`DynamicContinuousDiffusion`]/[`DynamicDiscreteDiffusion`]
//! are engine [`Protocol`]s whose `begin_round` pulls the next graph from a
//! [`GraphSequence`] (a [`crate::sequence::StaticSequence`] reproduces the
//! fixed-network executors bit for bit), and the convergence loop is
//! `dlb-core`'s observed driver — no duplicated loop here.
//!
//! When `record_spectra` is set, the driver's observer also computes the
//! per-round pair `(δ⁽ᵏ⁾, λ₂⁽ᵏ⁾)` with the dense eigensolver, yielding the
//! running average `A_K = (1/K)·Σ λ₂⁽ᵏ⁾/δ⁽ᵏ⁾` that parameterizes Theorem
//! 7's bound `K = O(ln(1/ε)/A_K)` and Theorem 8's plateau
//! `Φ* = 64·n·max_k (δ⁽ᵏ⁾)³/λ₂⁽ᵏ⁾`.

use crate::sequence::GraphSequence;
use dlb_core::engine::{Backend, Engine, Protocol, StatsCtx};
use dlb_core::model::{DiscreteRoundStats, RoundStats};
use dlb_core::{continuous, discrete, GatherSpec};
use dlb_graphs::Graph;
use dlb_spectral::eigen::laplacian_lambda2;

/// Per-round spectral record.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpectra {
    /// Maximum degree `δ⁽ᵏ⁾` of the round's graph.
    pub delta: u32,
    /// `λ₂⁽ᵏ⁾` of the round's graph (0 if disconnected/empty).
    pub lambda2: f64,
}

impl RoundSpectra {
    /// The ratio `λ₂⁽ᵏ⁾/δ⁽ᵏ⁾` (0 for an edgeless round).
    pub fn ratio(&self) -> f64 {
        if self.delta == 0 {
            0.0
        } else {
            self.lambda2 / self.delta as f64
        }
    }
}

/// Algorithm 1 (continuous) over a per-round graph source, as an engine
/// protocol: `begin_round` advances the sequence, and the gather runs the
/// reference on-the-fly kernel ([`continuous::node_new_load`]), which
/// derives each divisor `4·max(dᵤ, dᵥ)` from the two degrees — the same
/// expression the fixed-network protocol's gather kernels evaluate — so a
/// static sequence reproduces the fixed executor bit for bit.
#[derive(Debug)]
pub struct DynamicContinuousDiffusion<'s, S: GraphSequence + ?Sized> {
    g: Option<Graph>,
    /// Bumped on every graph switch so the message and process backends
    /// know to re-resolve their shard plan (memoized per distinct graph).
    version: u64,
    seq: &'s mut S,
}

impl<'s, S: GraphSequence + ?Sized> DynamicContinuousDiffusion<'s, S> {
    /// Creates the protocol over `seq`.
    pub fn new(seq: &'s mut S) -> Self {
        DynamicContinuousDiffusion {
            seq,
            g: None,
            version: 0,
        }
    }

    /// The graph used by the most recent round (`None` before the first).
    pub fn current_graph(&self) -> Option<&Graph> {
        self.g.as_ref()
    }
}

impl<S: GraphSequence + ?Sized> Protocol for DynamicContinuousDiffusion<'_, S> {
    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.seq.n()
    }

    fn name(&self) -> &'static str {
        "alg1-cont-dynamic"
    }

    fn begin_round(&mut self, _snapshot: &[f64]) {
        self.g = Some(self.seq.next_graph());
        self.version += 1;
    }

    fn current_graph(&self) -> Option<&Graph> {
        self.g.as_ref()
    }

    fn graph_version(&self) -> u64 {
        self.version
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        let g = self.g.as_ref().expect("begin_round ran");
        continuous::node_new_load(g, snapshot, v)
    }

    /// The round graph's diffusion gather, so the partitioned backends
    /// ship the kernel to their shard workers.
    fn gather_spec(&self) -> Option<GatherSpec<'_, f64>> {
        self.g
            .as_ref()
            .map(|graph| GatherSpec { graph, factor: 4.0 })
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        let spec = self.gather_spec().expect("begin_round ran");
        let t = ctx.diffusion_totals(&spec, snapshot, new_loads);
        t.tally.stats(t.phi_before, t.phi_after)
    }
}

/// Discrete twin of [`DynamicContinuousDiffusion`].
#[derive(Debug)]
pub struct DynamicDiscreteDiffusion<'s, S: GraphSequence + ?Sized> {
    g: Option<Graph>,
    /// See [`DynamicContinuousDiffusion`]: bumped per graph switch for
    /// the partitioned backends' plan memoization.
    version: u64,
    seq: &'s mut S,
}

impl<'s, S: GraphSequence + ?Sized> DynamicDiscreteDiffusion<'s, S> {
    /// Creates the protocol over `seq`.
    pub fn new(seq: &'s mut S) -> Self {
        DynamicDiscreteDiffusion {
            seq,
            g: None,
            version: 0,
        }
    }

    /// The graph used by the most recent round (`None` before the first).
    pub fn current_graph(&self) -> Option<&Graph> {
        self.g.as_ref()
    }
}

impl<S: GraphSequence + ?Sized> Protocol for DynamicDiscreteDiffusion<'_, S> {
    type Load = i64;
    type Stats = DiscreteRoundStats;

    fn n(&self) -> usize {
        self.seq.n()
    }

    fn name(&self) -> &'static str {
        "alg1-disc-dynamic"
    }

    fn begin_round(&mut self, _snapshot: &[i64]) {
        self.g = Some(self.seq.next_graph());
        self.version += 1;
    }

    fn current_graph(&self) -> Option<&Graph> {
        self.g.as_ref()
    }

    fn graph_version(&self) -> u64 {
        self.version
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[i64], v: u32) -> i64 {
        let g = self.g.as_ref().expect("begin_round ran");
        discrete::node_new_load(g, snapshot, v)
    }

    /// The round graph's token gather, so the partitioned backends ship
    /// the kernel to their shard workers.
    fn gather_spec(&self) -> Option<GatherSpec<'_, i64>> {
        self.g.as_ref().map(|graph| GatherSpec { graph, factor: 4 })
    }

    fn compute_stats(
        &mut self,
        snapshot: &[i64],
        new_loads: &[i64],
        ctx: &StatsCtx<'_>,
    ) -> DiscreteRoundStats {
        let spec = self.gather_spec().expect("begin_round ran");
        let t = ctx.diffusion_totals(&spec, snapshot, new_loads);
        t.tally.stats(t.phi_before, t.phi_after)
    }
}

/// Records one round's `(δ, λ₂)` from the protocol's current graph.
fn spectra_of(g: &Graph) -> RoundSpectra {
    let lambda2 = if g.m() == 0 {
        0.0
    } else {
        laplacian_lambda2(g).expect("dense λ₂ solve")
    };
    RoundSpectra {
        delta: g.max_degree(),
        lambda2,
    }
}

/// Outcome of a continuous dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicContinuousOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether `Φ ≤ target` was reached.
    pub converged: bool,
    /// Final potential.
    pub final_phi: f64,
    /// Per-round spectra (empty unless requested).
    pub spectra: Vec<RoundSpectra>,
}

impl DynamicContinuousOutcome {
    /// `A_K` — the average of `λ₂⁽ᵏ⁾/δ⁽ᵏ⁾` over executed rounds.
    pub fn avg_ratio(&self) -> f64 {
        if self.spectra.is_empty() {
            return 0.0;
        }
        self.spectra.iter().map(RoundSpectra::ratio).sum::<f64>() / self.spectra.len() as f64
    }
}

/// Runs continuous Algorithm 1 over `seq` until `Φ ≤ target_phi` or
/// `max_rounds`, through the engine and `dlb-core`'s driver.
pub fn run_dynamic_continuous<S: GraphSequence + ?Sized>(
    seq: &mut S,
    loads: &mut Vec<f64>,
    target_phi: f64,
    max_rounds: usize,
    record_spectra: bool,
) -> DynamicContinuousOutcome {
    // Hook-less runs keep the historical zero-round early exit; the
    // driven variant deliberately doesn't short-circuit (its hook models
    // load that keeps arriving — see dlb_core::runner::run_continuous_driven).
    let phi0 = dlb_core::potential::phi(loads);
    if phi0 <= target_phi {
        return DynamicContinuousOutcome {
            rounds: 0,
            converged: true,
            final_phi: phi0,
            spectra: Vec::new(),
        };
    }
    run_dynamic_continuous_driven(
        seq,
        loads,
        target_phi,
        max_rounds,
        record_spectra,
        |_, _| {},
    )
}

/// [`run_dynamic_continuous`] with a *pre-round* load-shaping hook:
/// `pre_round(round, loads)` runs before each round's graph is drawn and
/// balanced, so online workloads (arrivals, service drains — see
/// `dlb-workloads`) interleave with the dynamic topology exactly as they
/// do on fixed networks. The hook mutates the load vector in place; the
/// ping-pong buffers and the convergence bookkeeping are untouched.
pub fn run_dynamic_continuous_driven<S: GraphSequence + ?Sized, H>(
    seq: &mut S,
    loads: &mut Vec<f64>,
    target_phi: f64,
    max_rounds: usize,
    record_spectra: bool,
    pre_round: H,
) -> DynamicContinuousOutcome
where
    H: FnMut(usize, &mut Vec<f64>),
{
    assert_eq!(loads.len(), seq.n(), "load vector length must equal n");
    let engine = Engine::serial(DynamicContinuousDiffusion::new(seq));
    drive_continuous(
        engine,
        loads,
        target_phi,
        max_rounds,
        record_spectra,
        pre_round,
    )
}

/// [`run_dynamic_continuous`] on an explicit engine [`Backend`]. The
/// message and process backends re-derive their shard/exchange plans
/// whenever the sequence switches graphs, memoized per distinct graph —
/// a periodic schedule builds exactly one plan per schedule entry (and
/// the message backend re-broadcasts only on an actual plan change).
pub fn run_dynamic_continuous_on<S>(
    backend: Backend,
    seq: &mut S,
    loads: &mut Vec<f64>,
    target_phi: f64,
    max_rounds: usize,
    record_spectra: bool,
) -> DynamicContinuousOutcome
where
    S: GraphSequence + Sync + ?Sized,
{
    assert_eq!(loads.len(), seq.n(), "load vector length must equal n");
    let engine = Engine::with_backend(DynamicContinuousDiffusion::new(seq), backend);
    drive_continuous(
        engine,
        loads,
        target_phi,
        max_rounds,
        record_spectra,
        |_, _| {},
    )
}

/// The shared convergence loop behind the continuous dynamic entry
/// points, generic over how the engine was constructed.
fn drive_continuous<S: GraphSequence + ?Sized, H>(
    mut engine: Engine<DynamicContinuousDiffusion<'_, S>>,
    loads: &mut Vec<f64>,
    target_phi: f64,
    max_rounds: usize,
    record_spectra: bool,
    pre_round: H,
) -> DynamicContinuousOutcome
where
    H: FnMut(usize, &mut Vec<f64>),
{
    let mut spectra = Vec::new();
    let out = dlb_core::runner::run_continuous_driven(
        &mut engine,
        loads,
        target_phi,
        max_rounds,
        false,
        pre_round,
        |_, e: &Engine<DynamicContinuousDiffusion<S>>, _stats| {
            if record_spectra {
                spectra.push(spectra_of(e.protocol().current_graph().expect("round ran")));
            }
        },
    );
    DynamicContinuousOutcome {
        rounds: out.rounds,
        converged: out.converged,
        final_phi: out.final_phi,
        spectra,
    }
}

/// Outcome of a discrete dynamic run (exact scaled potentials).
#[derive(Debug, Clone)]
pub struct DynamicDiscreteOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether `Φ̂ ≤ target` was reached.
    pub converged: bool,
    /// Final `Φ̂`.
    pub final_phi_hat: u128,
    /// Per-round spectra (empty unless requested).
    pub spectra: Vec<RoundSpectra>,
}

impl DynamicDiscreteOutcome {
    /// `A_K` over executed rounds.
    pub fn avg_ratio(&self) -> f64 {
        if self.spectra.is_empty() {
            return 0.0;
        }
        self.spectra.iter().map(RoundSpectra::ratio).sum::<f64>() / self.spectra.len() as f64
    }

    /// Theorem 8's plateau `Φ* = 64·n·max_k (δ⁽ᵏ⁾)³/λ₂⁽ᵏ⁾` over the rounds
    /// actually executed (edgeless rounds are skipped — they carry no
    /// transfers and the theorem's maximum is over balancing rounds).
    pub fn theorem8_threshold(&self, n: usize) -> Option<f64> {
        let useful: Vec<(u32, f64)> = self
            .spectra
            .iter()
            .filter(|s| s.delta > 0 && s.lambda2 > 0.0)
            .map(|s| (s.delta, s.lambda2))
            .collect();
        if useful.is_empty() {
            None
        } else {
            Some(dlb_core::bounds::theorem8_threshold(&useful, n))
        }
    }
}

/// Runs discrete Algorithm 1 over `seq` until `Φ̂ ≤ target_phi_hat` or
/// `max_rounds`, through the engine and `dlb-core`'s driver.
pub fn run_dynamic_discrete<S: GraphSequence + ?Sized>(
    seq: &mut S,
    loads: &mut Vec<i64>,
    target_phi_hat: u128,
    max_rounds: usize,
    record_spectra: bool,
) -> DynamicDiscreteOutcome {
    // See run_dynamic_continuous: the zero-round early exit belongs to
    // the hook-less wrapper.
    let phi0 = dlb_core::potential::phi_hat(loads);
    if phi0 <= target_phi_hat {
        return DynamicDiscreteOutcome {
            rounds: 0,
            converged: true,
            final_phi_hat: phi0,
            spectra: Vec::new(),
        };
    }
    run_dynamic_discrete_driven(
        seq,
        loads,
        target_phi_hat,
        max_rounds,
        record_spectra,
        |_, _| {},
    )
}

/// [`run_dynamic_discrete`] with a pre-round load-shaping hook (see
/// [`run_dynamic_continuous_driven`]).
pub fn run_dynamic_discrete_driven<S: GraphSequence + ?Sized, H>(
    seq: &mut S,
    loads: &mut Vec<i64>,
    target_phi_hat: u128,
    max_rounds: usize,
    record_spectra: bool,
    pre_round: H,
) -> DynamicDiscreteOutcome
where
    H: FnMut(usize, &mut Vec<i64>),
{
    assert_eq!(loads.len(), seq.n(), "load vector length must equal n");
    let engine = Engine::serial(DynamicDiscreteDiffusion::new(seq));
    drive_discrete(
        engine,
        loads,
        target_phi_hat,
        max_rounds,
        record_spectra,
        pre_round,
    )
}

/// [`run_dynamic_discrete`] on an explicit engine [`Backend`] (see
/// [`run_dynamic_continuous_on`]).
pub fn run_dynamic_discrete_on<S>(
    backend: Backend,
    seq: &mut S,
    loads: &mut Vec<i64>,
    target_phi_hat: u128,
    max_rounds: usize,
    record_spectra: bool,
) -> DynamicDiscreteOutcome
where
    S: GraphSequence + Sync + ?Sized,
{
    assert_eq!(loads.len(), seq.n(), "load vector length must equal n");
    let engine = Engine::with_backend(DynamicDiscreteDiffusion::new(seq), backend);
    drive_discrete(
        engine,
        loads,
        target_phi_hat,
        max_rounds,
        record_spectra,
        |_, _| {},
    )
}

/// The shared convergence loop behind the discrete dynamic entry points.
fn drive_discrete<S: GraphSequence + ?Sized, H>(
    mut engine: Engine<DynamicDiscreteDiffusion<'_, S>>,
    loads: &mut Vec<i64>,
    target_phi_hat: u128,
    max_rounds: usize,
    record_spectra: bool,
    pre_round: H,
) -> DynamicDiscreteOutcome
where
    H: FnMut(usize, &mut Vec<i64>),
{
    let mut spectra = Vec::new();
    let out = dlb_core::runner::run_discrete_driven(
        &mut engine,
        loads,
        target_phi_hat,
        max_rounds,
        false,
        pre_round,
        |_, e: &Engine<DynamicDiscreteDiffusion<S>>, _stats| {
            if record_spectra {
                spectra.push(spectra_of(e.protocol().current_graph().expect("round ran")));
            }
        },
    );
    DynamicDiscreteOutcome {
        rounds: out.rounds,
        converged: out.converged,
        final_phi_hat: out.final_phi_hat,
        spectra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{
        IidSubgraphSequence, MatchingOnlySequence, OutageSequence, StaticSequence,
    };
    use dlb_core::continuous::ContinuousDiffusion;
    use dlb_core::engine::IntoEngine;
    use dlb_core::potential::phi;
    use dlb_graphs::topology;

    #[test]
    fn static_sequence_matches_fixed_network() {
        // The dynamic machinery over a constant sequence must agree with
        // the plain fixed-network executor round for round.
        let g = topology::torus2d(4, 4);
        let init: Vec<f64> = (0..16).map(|i| ((i * 11 + 2) % 23) as f64).collect();

        let mut fixed = init.clone();
        let mut fixed_exec = ContinuousDiffusion::new(&g).engine();
        fixed_exec.rounds(&mut fixed, 10);

        let mut dynamic = init;
        let mut seq = StaticSequence::new(g);
        run_dynamic_continuous(&mut seq, &mut dynamic, f64::NEG_INFINITY, 10, false);

        assert_eq!(fixed, dynamic);
    }

    #[test]
    fn converges_within_theorem7_budget_iid() {
        let ground = topology::hypercube(4); // n = 16
        let mut seq = IidSubgraphSequence::new(ground, 0.7, 99);
        let mut loads = vec![0.0; 16];
        loads[0] = 160.0;
        let eps = 1e-3;
        let target = eps * phi(&loads);
        let out = run_dynamic_continuous(&mut seq, &mut loads, target, 10_000, true);
        assert!(out.converged);
        // Theorem 7: K <= 4 ln(1/eps) / A_K.
        let bound = dlb_core::bounds::theorem7_rounds(out.avg_ratio(), eps);
        assert!(
            (out.rounds as f64) <= bound.ceil(),
            "rounds {} exceed Theorem 7 bound {bound}",
            out.rounds
        );
    }

    #[test]
    fn outage_rounds_freeze_potential_and_conserve_load() {
        let ground = topology::cycle(10);
        let mut seq = OutageSequence::new(StaticSequence::new(ground), 2);
        let mut loads = vec![0.0; 10];
        loads[0] = 100.0;
        let total: f64 = loads.iter().sum();
        let mut last_phi = phi(&loads);
        for round in 1..=8 {
            let out = run_dynamic_continuous(&mut seq, &mut loads, f64::NEG_INFINITY, 1, false);
            assert_eq!(out.rounds, 1);
            if round % 2 == 0 {
                assert_eq!(out.final_phi, last_phi, "outage round changed Φ");
            } else {
                assert!(out.final_phi < last_phi);
            }
            last_phi = out.final_phi;
            assert!((loads.iter().sum::<f64>() - total).abs() < 1e-9);
        }
    }

    #[test]
    fn matching_only_still_converges() {
        let ground = topology::complete(12);
        let mut seq = MatchingOnlySequence::new(ground, 5);
        let mut loads = vec![0.0; 12];
        loads[0] = 120.0;
        let target = 1e-3 * phi(&loads);
        let out = run_dynamic_continuous(&mut seq, &mut loads, target, 50_000, false);
        assert!(
            out.converged,
            "matching-only dynamic model failed to converge"
        );
    }

    #[test]
    fn discrete_dynamic_reaches_theorem8_plateau() {
        let ground = topology::hypercube(4);
        let mut seq = IidSubgraphSequence::new(ground, 0.8, 11);
        let mut loads = vec![0i64; 16];
        loads[0] = 16 * 5000;
        // Run with spectra so the Theorem 8 threshold can be evaluated.
        let out = run_dynamic_discrete(&mut seq, &mut loads, 0, 3000, true);
        assert!(!out.converged); // target 0 is unreachable for discrete
        let n = 16;
        let phi_star = out.theorem8_threshold(n).expect("some balancing rounds");
        let final_phi = out.final_phi_hat as f64 / (n * n) as f64;
        assert!(
            final_phi <= phi_star,
            "final Φ {final_phi} above Theorem 8 plateau {phi_star}"
        );
    }

    #[test]
    fn spectra_recorded_when_requested() {
        let mut seq = StaticSequence::new(topology::cycle(8));
        let mut loads = vec![0.0; 8];
        loads[0] = 8.0;
        let out = run_dynamic_continuous(&mut seq, &mut loads, f64::NEG_INFINITY, 5, true);
        assert_eq!(out.spectra.len(), 5);
        let expect = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / 8.0).cos();
        for s in &out.spectra {
            assert_eq!(s.delta, 2);
            assert!((s.lambda2 - expect).abs() < 1e-8);
        }
        assert!((out.avg_ratio() - expect / 2.0).abs() < 1e-8);
    }
}
