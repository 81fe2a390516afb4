//! First-order diffusion scheme (Cybenko \[3\]; Muthukrishnan et al. \[15\])
//! as engine protocols.
//!
//! `L^{t+1} = M·L^t` with the uniform diffusion factor `α = 1/(δ+1)`:
//! node `i` exchanges `α·(ℓⱼ − ℓᵢ)` with every neighbour. The convergence
//! rate is `γᵗ` where `γ` is the second-largest eigenvalue modulus of `M`
//! (see `dlb_spectral::diffusion`). The discrete variant transfers
//! `⌊α·(ℓᵢ − ℓⱼ)⌋` tokens from the richer endpoint, the rounding used in
//! \[15\]'s discrete analysis.
//!
//! The diffusion factor is uniform, so there is no per-edge table to
//! precompute — the kernels are the plainest gathers in the workspace.

use dlb_core::engine::{FlowTally, Protocol, StatsCtx, TokenTally};
use dlb_core::model::{DiscreteRoundStats, RoundStats};
use dlb_graphs::Graph;

/// One first-order step `(M·L)_v` computed matrix-free — the kernel shared
/// by FOS itself and the accelerated schemes built on it (SOS, Chebyshev).
#[inline]
pub(crate) fn fos_step(g: &Graph, alpha: f64, snapshot: &[f64], v: u32) -> f64 {
    let lv = snapshot[v as usize];
    let mut acc = lv;
    for &u in g.neighbors(v) {
        acc += alpha * (snapshot[u as usize] - lv);
    }
    acc
}

/// Continuous first-order scheme.
#[derive(Debug)]
pub struct FirstOrderContinuous<'g> {
    g: &'g Graph,
    alpha: f64,
}

impl<'g> FirstOrderContinuous<'g> {
    /// Creates the scheme with the canonical `α = 1/(δ+1)`.
    pub fn new(g: &'g Graph) -> Self {
        let alpha = 1.0 / (g.max_degree() as f64 + 1.0);
        Self::with_alpha(g, alpha)
    }

    /// Creates the scheme with an explicit `α ∈ (0, 1/δ]`.
    pub fn with_alpha(g: &'g Graph, alpha: f64) -> Self {
        assert!(alpha > 0.0, "α must be positive");
        assert!(
            alpha * g.max_degree().max(1) as f64 <= 1.0 + 1e-12,
            "α·δ must not exceed 1 (α = {alpha}, δ = {})",
            g.max_degree()
        );
        FirstOrderContinuous { g, alpha }
    }

    /// The diffusion factor in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Protocol for FirstOrderContinuous<'_> {
    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "fos-cont"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        fos_step(self.g, self.alpha, snapshot, v)
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        fos_flow_tally(self.g, self.alpha, snapshot, ctx)
            .stats(ctx.phi(snapshot), ctx.phi(new_loads))
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }
}

/// Flow statistics of one first-order step (`α·|ℓᵤ − ℓᵥ|` per edge) —
/// shared by FOS, SOS and Chebyshev, whose reported flows are all the
/// first-order component's. Reduced in the one node-block order through
/// `ctx`.
pub(crate) fn fos_flow_tally(
    g: &Graph,
    alpha: f64,
    snapshot: &[f64],
    ctx: &StatsCtx<'_>,
) -> FlowTally {
    ctx.graph_tally(g, |u, v, _| {
        alpha * (snapshot[u as usize] - snapshot[v as usize]).abs()
    })
}

/// Discrete first-order scheme: `⌊α·(ℓᵢ − ℓⱼ)⌋` tokens per edge with
/// `α = 1/(δ+1)`, i.e. `⌊(ℓᵢ − ℓⱼ)/(δ+1)⌋`.
#[derive(Debug)]
pub struct FirstOrderDiscrete<'g> {
    g: &'g Graph,
    divisor: i128,
}

impl<'g> FirstOrderDiscrete<'g> {
    /// Creates the scheme with `α = 1/(δ+1)`.
    pub fn new(g: &'g Graph) -> Self {
        FirstOrderDiscrete {
            g,
            divisor: g.max_degree() as i128 + 1,
        }
    }
}

impl Protocol for FirstOrderDiscrete<'_> {
    type Load = i64;
    type Stats = DiscreteRoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "fos-disc"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[i64], v: u32) -> i64 {
        let lv = snapshot[v as usize] as i128;
        let c = self.divisor;
        let mut acc = lv;
        for &u in self.g.neighbors(v) {
            let lu = snapshot[u as usize] as i128;
            if lu > lv {
                acc += (lu - lv) / c;
            } else if lv > lu {
                acc -= (lv - lu) / c;
            }
        }
        i64::try_from(acc).expect("load fits i64")
    }

    fn compute_stats(
        &mut self,
        snapshot: &[i64],
        new_loads: &[i64],
        ctx: &StatsCtx<'_>,
    ) -> DiscreteRoundStats {
        let divisor = self.divisor as u128;
        let tally: TokenTally = ctx.graph_tally(self.g, |u, v, _| {
            let diff = (snapshot[u as usize] as i128 - snapshot[v as usize] as i128).unsigned_abs();
            (diff / divisor) as u64
        });
        tally.stats(ctx.phi_hat(snapshot), ctx.phi_hat(new_loads))
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::engine::IntoEngine;
    use dlb_core::potential;
    use dlb_graphs::topology;
    use dlb_spectral::diffusion::{fos_matrix, gamma};

    #[test]
    fn fos_round_matches_matrix_product() {
        let g = topology::petersen();
        let m = fos_matrix(&g);
        let init: Vec<f64> = (0..10).map(|i| ((i * 3 + 1) % 7) as f64).collect();

        let mut via_round = init.clone();
        FirstOrderContinuous::new(&g).engine().round(&mut via_round);

        let mut via_matrix = vec![0.0; 10];
        m.matvec(&init, &mut via_matrix);

        for (a, b) in via_round.iter().zip(&via_matrix) {
            assert!((a - b).abs() < 1e-12, "round {a} vs M·L {b}");
        }
    }

    #[test]
    fn error_contracts_at_rate_gamma() {
        // ‖e(t+1)‖₂ ≤ γ‖e(t)‖₂ — Cybenko's bound, checked per round.
        let g = topology::cycle(10);
        let gam = gamma(&fos_matrix(&g)).unwrap();
        let mut b = FirstOrderContinuous::new(&g).engine();
        let mut loads: Vec<f64> = (0..10).map(|i| (i % 4) as f64 * 5.0).collect();
        for _ in 0..50 {
            let before = potential::phi(&loads).sqrt(); // ‖e‖₂
            b.round(&mut loads);
            let after = potential::phi(&loads).sqrt();
            assert!(after <= gam * before + 1e-9, "{after} > γ·{before}");
        }
    }

    #[test]
    fn conservation_continuous_and_discrete() {
        let g = topology::grid2d(4, 4);
        let mut c = FirstOrderContinuous::new(&g).engine();
        let mut cl: Vec<f64> = (0..16).map(|i| (i % 5) as f64).collect();
        let before: f64 = cl.iter().sum();
        for _ in 0..30 {
            c.round(&mut cl);
        }
        assert!((cl.iter().sum::<f64>() - before).abs() < 1e-9);

        let mut d = FirstOrderDiscrete::new(&g).engine();
        let mut dl: Vec<i64> = (0..16).map(|i| ((i * 7) % 50) as i64).collect();
        let tb = potential::total_discrete(&dl);
        for _ in 0..30 {
            d.round(&mut dl);
        }
        assert_eq!(potential::total_discrete(&dl), tb);
    }

    #[test]
    fn discrete_potential_never_increases() {
        let g = topology::hypercube(4);
        let mut d = FirstOrderDiscrete::new(&g).engine();
        let mut loads: Vec<i64> = (0..16).map(|i| ((i * 29) % 100) as i64).collect();
        for _ in 0..50 {
            let s = d.round(&mut loads).expect("full stats");
            assert!(s.phi_hat_after <= s.phi_hat_before);
        }
    }

    #[test]
    fn custom_alpha_validated() {
        let g = topology::complete(5);
        let b = FirstOrderContinuous::with_alpha(&g, 0.25);
        assert_eq!(b.alpha(), 0.25);
    }

    #[test]
    #[should_panic(expected = "α·δ must not exceed 1")]
    fn overlarge_alpha_rejected() {
        let g = topology::complete(5);
        FirstOrderContinuous::with_alpha(&g, 0.3);
    }

    #[test]
    fn fos_faster_than_alg1_per_round_on_star() {
        // On the star, FOS's uniform 1/(δ+1) beats Algorithm 1's 1/(4δ)
        // per round (for δ ≥ 1): one FOS round from a hub spike balances
        // leaves more aggressively. Assert the relationship the math
        // predicts.
        let g = topology::star(9); // δ = 8
        let mut fos_loads = vec![0.0; 9];
        fos_loads[0] = 90.0;
        let mut alg1_loads = fos_loads.clone();
        let fs = FirstOrderContinuous::new(&g)
            .engine()
            .round(&mut fos_loads)
            .expect("full stats");
        let als = dlb_core::continuous::ContinuousDiffusion::new(&g)
            .engine()
            .round(&mut alg1_loads)
            .expect("full stats");
        assert!(fs.relative_drop() > als.relative_drop());
    }

    #[test]
    fn serial_parallel_bit_identical() {
        let g = topology::torus2d(6, 6);
        let init: Vec<f64> = (0..36).map(|i| ((i * 13 + 5) % 41) as f64).collect();
        let mut serial = init.clone();
        let mut s = FirstOrderContinuous::new(&g).engine();
        for _ in 0..10 {
            s.round(&mut serial);
        }
        let mut par = init;
        let mut p = FirstOrderContinuous::new(&g).engine_parallel(3);
        for _ in 0..10 {
            p.round(&mut par);
        }
        assert_eq!(serial, par);
    }
}
