//! Algorithm 1 (discrete case) as an engine [`Protocol`]: integral tokens,
//! floor rounding.
//!
//! Identical to the continuous round except that each edge `(i, j)` with
//! `ℓᵢ > ℓⱼ` carries `⌊(ℓᵢ − ℓⱼ)/(4·max(dᵢ, dⱼ))⌋` whole tokens. The
//! network can no longer balance perfectly (the paper's line example:
//! `ℓᵢ = i` is a fixed point), but Theorem 6 shows the potential still
//! drops geometrically while `Φ ≥ 64δ³n/λ₂`.
//!
//! Like the continuous protocol, the round is a *gather* over an immutable
//! snapshot, each integer divisor `4·max(dᵢ, dⱼ)` derived from the two
//! degrees (see [`crate::kernels`]); token counts are integers, so serial
//! and parallel execution agree exactly and conservation is exact.

use crate::engine::{Protocol, StatsCtx};
use crate::kernels::{gather_node, GatherSpec};
use crate::model::DiscreteRoundStats;
use dlb_graphs::Graph;

/// Tokens sent across edge `{u, v}` this round (from the richer endpoint),
/// given round-start loads: `⌊|ℓᵤ − ℓᵥ| / (4·max(dᵤ, dᵥ))⌋`.
#[inline]
pub fn edge_tokens(g: &Graph, snapshot: &[i64], u: u32, v: u32) -> i64 {
    let diff = (snapshot[u as usize] as i128 - snapshot[v as usize] as i128).unsigned_abs();
    let c = 4 * g.degree(u).max(g.degree(v)) as u128;
    (diff / c) as i64
}

/// The reference gather kernel of discrete Algorithm 1, divisors computed
/// on the fly (see [`crate::continuous::node_new_load`] for the role this
/// form plays): node `v`'s token count after one round.
#[inline]
pub fn node_new_load(g: &Graph, snapshot: &[i64], v: u32) -> i64 {
    let lv = snapshot[v as usize] as i128;
    let dv = g.degree(v);
    let mut acc = lv;
    for &u in g.neighbors(v) {
        let lu = snapshot[u as usize] as i128;
        let c = (4 * dv.max(g.degree(u))) as i128;
        // Signed token count: positive = inflow to v. Integer division of
        // the *positive* difference matches the floor in the protocol and
        // is computed identically by both endpoints, so conservation is
        // exact.
        if lu > lv {
            acc += (lu - lv) / c;
        } else if lv > lu {
            acc -= (lv - lu) / c;
        }
    }
    i64::try_from(acc).expect("load fits i64")
}

/// Discrete Algorithm 1 on a fixed network.
///
/// Run it through the engine: `DiscreteDiffusion::new(&g).engine()` or
/// `.engine_parallel(threads)`.
#[derive(Debug)]
pub struct DiscreteDiffusion<'g> {
    g: &'g Graph,
}

impl<'g> DiscreteDiffusion<'g> {
    /// Creates the protocol for `g`.
    pub fn new(g: &'g Graph) -> Self {
        DiscreteDiffusion { g }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    fn spec(&self) -> GatherSpec<'_, i64> {
        GatherSpec {
            graph: self.g,
            factor: 4,
        }
    }
}

impl Protocol for DiscreteDiffusion<'_> {
    type Load = i64;
    type Stats = DiscreteRoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "alg1-disc"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[i64], v: u32) -> i64 {
        gather_node(&self.spec(), snapshot, v)
    }

    fn compute_stats(
        &mut self,
        snapshot: &[i64],
        new_loads: &[i64],
        ctx: &StatsCtx<'_>,
    ) -> DiscreteRoundStats {
        let t = ctx.diffusion_totals(&self.spec(), snapshot, new_loads);
        t.tally.stats(t.phi_before, t.phi_after)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }

    fn gather_spec(&self) -> Option<GatherSpec<'_, i64>> {
        Some(self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IntoEngine;
    use crate::potential;
    use dlb_graphs::topology;

    fn total(loads: &[i64]) -> i128 {
        potential::total_discrete(loads)
    }

    #[test]
    fn single_edge_floor_transfer() {
        // P_2: flow = floor((l0 - l1)/4). l = [10, 0]: 2 tokens.
        let g = topology::path(2);
        let mut loads = vec![10i64, 0];
        let s = DiscreteDiffusion::new(&g)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        assert_eq!(loads, vec![8, 2]);
        assert_eq!(s.total_tokens, 2);
        assert_eq!(s.active_edges, 1);
    }

    #[test]
    fn sub_threshold_difference_moves_nothing() {
        // diff 3 < divisor 4: no transfer.
        let g = topology::path(2);
        let mut loads = vec![3i64, 0];
        let s = DiscreteDiffusion::new(&g)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        assert_eq!(loads, vec![3, 0]);
        assert_eq!(s.total_tokens, 0);
        assert_eq!(s.drop_hat(), 0);
    }

    #[test]
    fn ramp_on_path_is_fixed_point() {
        // The paper's introductory example: ℓᵢ = i on the line is stable
        // (neighbouring differences of 1 are below the transfer threshold).
        let g = topology::path(8);
        let mut loads: Vec<i64> = (0..8).collect();
        let before = loads.clone();
        let mut d = DiscreteDiffusion::new(&g).engine();
        for _ in 0..10 {
            d.round(&mut loads);
        }
        assert_eq!(loads, before);
    }

    #[test]
    fn conservation_is_exact() {
        let g = topology::de_bruijn(5);
        let mut loads: Vec<i64> = (0..32).map(|i| (i * i * 37 % 1009) as i64).collect();
        let before = total(&loads);
        let mut d = DiscreteDiffusion::new(&g).engine();
        for _ in 0..200 {
            d.round(&mut loads);
        }
        assert_eq!(total(&loads), before);
    }

    #[test]
    fn potential_never_increases() {
        let g = topology::torus2d(4, 4);
        let mut loads: Vec<i64> = (0..16).map(|i| ((i * 13 + 5) % 97) as i64).collect();
        let mut d = DiscreteDiffusion::new(&g).engine();
        for _ in 0..100 {
            let s = d.round(&mut loads).expect("full stats");
            assert!(
                s.phi_hat_after <= s.phi_hat_before,
                "potential increased: {} -> {}",
                s.phi_hat_before,
                s.phi_hat_after
            );
        }
    }

    #[test]
    fn nonnegative_loads_stay_nonnegative() {
        let g = topology::star(10);
        let mut loads = vec![0i64; 10];
        loads[0] = 1000;
        let mut d = DiscreteDiffusion::new(&g).engine();
        for _ in 0..100 {
            d.round(&mut loads);
            assert!(loads.iter().all(|&l| l >= 0), "negative load: {loads:?}");
        }
    }

    #[test]
    fn spike_on_hypercube_reaches_small_discrepancy() {
        let g = topology::hypercube(5);
        let mut loads = vec![0i64; 32];
        loads[0] = 32 * 100;
        let mut d = DiscreteDiffusion::new(&g).engine();
        for _ in 0..500 {
            d.round(&mut loads);
        }
        let disc = potential::discrepancy_discrete(&loads);
        // Theorem 6's plateau guarantees Φ < 64δ³n/λ₂; for Q_5 (δ=5, λ₂=2)
        // that is Φ < 128000, i.e. RMS deviation ≈ 63. The measured plateau
        // is far better in practice; assert a loose envelope.
        assert!(disc <= 200, "discrepancy {disc}");
    }

    #[test]
    fn matches_continuous_far_from_balance() {
        // With a huge spike the floor rounding is negligible: one discrete
        // round should track one continuous round to within one token per
        // edge.
        let g = topology::cycle(8);
        let mut disc_loads = vec![0i64; 8];
        disc_loads[0] = 1 << 40;
        let mut cont_loads: Vec<f64> = disc_loads.iter().map(|&l| l as f64).collect();
        DiscreteDiffusion::new(&g).engine().round(&mut disc_loads);
        crate::continuous::ContinuousDiffusion::new(&g)
            .engine()
            .round(&mut cont_loads);
        for (a, b) in disc_loads.iter().zip(&cont_loads) {
            assert!((*a as f64 - b).abs() <= 2.0, "{a} vs {b}");
        }
    }

    #[test]
    fn negative_loads_supported() {
        let g = topology::path(3);
        let mut loads = vec![-100i64, 0, 100];
        let before = total(&loads);
        let mut d = DiscreteDiffusion::new(&g).engine();
        for _ in 0..50 {
            d.round(&mut loads);
        }
        assert_eq!(total(&loads), before);
        // Fixed point allows per-edge differences < 4·max(dᵢ,dⱼ) = 8, so
        // discrepancy across the 2-edge path is at most 14.
        assert!(potential::discrepancy_discrete(&loads) <= 14);
    }

    #[test]
    fn parallel_engine_identical_to_serial() {
        let g = topology::hypercube(6);
        let init: Vec<i64> = (0..64).map(|i| ((i * 1009 + 7) % 5000) as i64).collect();

        let mut serial = init.clone();
        let mut s_exec = DiscreteDiffusion::new(&g).engine();
        for _ in 0..30 {
            s_exec.round(&mut serial);
        }

        for threads in [2, 5, 16] {
            let mut par = init.clone();
            let mut p_exec = DiscreteDiffusion::new(&g).engine_parallel(threads);
            for _ in 0..30 {
                p_exec.round(&mut par);
            }
            assert_eq!(serial, par, "threads = {threads}: not identical");
        }
    }
}
