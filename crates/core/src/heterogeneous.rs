//! Extension: diffusion on *heterogeneous* networks (cf. Elsässer–Monien–
//! Preis \[9\], cited by the paper as related work), as engine protocols.
//!
//! Nodes have speeds/capacities `cᵢ > 0`; the balanced state gives node
//! `i` load proportional to its capacity, `ℓᵢ* = cᵢ·ρ` with
//! `ρ = Σℓ/Σc`. Writing the *normalized* load `ŵᵢ = ℓᵢ/cᵢ`, the natural
//! generalization of Algorithm 1 transfers, for every edge `(i, j)` with
//! `ŵᵢ > ŵⱼ`,
//!
//! ```text
//! min(cᵢ, cⱼ) · (ŵᵢ − ŵⱼ) / (4·max(dᵢ, dⱼ))
//! ```
//!
//! and the weighted potential `Φ_c(L) = Σᵢ cᵢ·(ŵᵢ − ρ)²` plays the role
//! of `Φ`. The same sequentialization argument goes through: a transfer of
//! `t` across `(i, j)` drops `Φ_c` by `2t(ŵᵢ−ŵⱼ) − t²(1/cᵢ + 1/cⱼ)`, and
//! the `min(cᵢ,cⱼ)` factor caps `t·(1/cᵢ+1/cⱼ) ≤ 2(ŵᵢ−ŵⱼ)/(4·max d)`, so
//! every activation still makes progress. With all capacities equal to 1
//! the protocol *is* Algorithm 1 — a regression test pins the kernels to
//! bit-equality in that case.
//!
//! Both the capacity coefficient `min(cᵢ, cⱼ)` and the degree divisor are
//! round-invariant, so they are precomputed per CSR slot at construction.
//! The gather reads every slot of a node's row; the flow tally reads each
//! edge's upper slot ([`StatsCtx::graph_tally`]), so one table serves both.

use crate::engine::{FlowTally, Protocol, StatsCtx, TokenTally};
use crate::model::{DiscreteRoundStats, RoundStats};
use dlb_graphs::{weights, Graph};

/// Weighted mean `ρ = Σℓ / Σc`.
pub fn weighted_mean(loads: &[f64], capacities: &[f64]) -> f64 {
    assert_eq!(loads.len(), capacities.len());
    weighted_mean_ctx(loads, capacities, &StatsCtx::serial())
}

/// Weighted potential `Φ_c(L) = Σᵢ cᵢ·(ℓᵢ/cᵢ − ρ)²`. Equals the standard
/// `Φ` when every capacity is 1.
pub fn weighted_phi(loads: &[f64], capacities: &[f64]) -> f64 {
    assert_eq!(loads.len(), capacities.len());
    weighted_phi_ctx(loads, capacities, &StatsCtx::serial())
}

/// [`weighted_mean`] through a [`StatsCtx`]'s blocked reduction.
fn weighted_mean_ctx(loads: &[f64], capacities: &[f64], ctx: &StatsCtx<'_>) -> f64 {
    let n = loads.len();
    ctx.sum(n, |i| loads[i]) / ctx.sum(n, |i| capacities[i])
}

/// [`weighted_phi`] through a [`StatsCtx`]'s blocked reduction — the form
/// the protocol statistics and the drivers' on-demand fallback share, so
/// both report bit-identical values at any thread count.
fn weighted_phi_ctx(loads: &[f64], capacities: &[f64], ctx: &StatsCtx<'_>) -> f64 {
    let rho = weighted_mean_ctx(loads, capacities, ctx);
    ctx.sum(loads.len(), |i| {
        let w = loads[i] / capacities[i] - rho;
        capacities[i] * w * w
    })
}

/// Blocked weighted potential of a *token* vector (no intermediate float
/// vector is materialized).
fn weighted_phi_tokens_ctx(loads: &[i64], capacities: &[f64], ctx: &StatsCtx<'_>) -> f64 {
    let n = loads.len();
    let rho = ctx.sum(n, |i| loads[i] as f64) / ctx.sum(n, |i| capacities[i]);
    ctx.sum(n, |i| {
        let w = loads[i] as f64 / capacities[i] - rho;
        capacities[i] * w * w
    })
}

/// The proportional target vector `ℓᵢ* = cᵢ·ρ`.
pub fn proportional_target(loads: &[f64], capacities: &[f64]) -> Vec<f64> {
    let rho = weighted_mean(loads, capacities);
    capacities.iter().map(|&c| c * rho).collect()
}

fn validate(g: &Graph, capacities: &[f64]) {
    assert_eq!(
        capacities.len(),
        g.n(),
        "capacity vector length must equal n"
    );
    assert!(
        capacities.iter().all(|&c| c > 0.0 && c.is_finite()),
        "capacities must be positive and finite"
    );
}

/// CSR-slot-aligned capacity coefficients `min(cᵢ, cⱼ)`.
fn csr_capacity_coefs(g: &Graph, caps: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(g.degree_sum());
    for v in g.nodes() {
        let cv = caps[v as usize];
        for &u in g.neighbors(v) {
            out.push(cv.min(caps[u as usize]));
        }
    }
    out
}

/// Continuous heterogeneous diffusion protocol.
#[derive(Debug)]
pub struct HeterogeneousDiffusion<'g> {
    g: &'g Graph,
    capacities: Vec<f64>,
    slot_coef: Vec<f64>,
    slot_div: Vec<f64>,
}

impl<'g> HeterogeneousDiffusion<'g> {
    /// Creates the protocol; capacities must be positive.
    pub fn new(g: &'g Graph, capacities: Vec<f64>) -> Self {
        validate(g, &capacities);
        HeterogeneousDiffusion {
            g,
            slot_coef: csr_capacity_coefs(g, &capacities),
            slot_div: weights::csr_divisors(g, 4.0),
            capacities,
        }
    }

    /// The capacity vector.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }
}

impl Protocol for HeterogeneousDiffusion<'_> {
    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "hetero-cont"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        let cv = self.capacities[v as usize];
        let wv = snapshot[v as usize] / cv;
        let off = self.g.neighbor_offset(v);
        let mut acc = snapshot[v as usize];
        for (i, &u) in self.g.neighbors(v).iter().enumerate() {
            let wu = snapshot[u as usize] / self.capacities[u as usize];
            acc += self.slot_coef[off + i] * (wu - wv) / self.slot_div[off + i];
        }
        acc
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        let caps = &self.capacities;
        let tally: FlowTally = ctx.graph_tally(self.g, |u, v, slot| {
            let wu = snapshot[u as usize] / caps[u as usize];
            let wv = snapshot[v as usize] / caps[v as usize];
            self.slot_coef[slot] * (wu - wv).abs() / self.slot_div[slot]
        });
        tally.stats(
            weighted_phi_ctx(snapshot, caps, ctx),
            weighted_phi_ctx(new_loads, caps, ctx),
        )
    }

    fn potential_of(&self, loads: &[f64], ctx: &StatsCtx<'_>) -> f64 {
        // The stats above report the capacity-weighted Φ_c, so the
        // drivers' on-demand fallback must too.
        weighted_phi_ctx(loads, &self.capacities, ctx)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }
}

/// Discrete heterogeneous diffusion: `⌊·⌋` of the continuous amount, whole
/// tokens, exact conservation.
#[derive(Debug)]
pub struct HeterogeneousDiscreteDiffusion<'g> {
    g: &'g Graph,
    capacities: Vec<f64>,
    slot_coef: Vec<f64>,
    slot_div: Vec<f64>,
}

impl<'g> HeterogeneousDiscreteDiffusion<'g> {
    /// Creates the protocol; capacities must be positive.
    pub fn new(g: &'g Graph, capacities: Vec<f64>) -> Self {
        validate(g, &capacities);
        HeterogeneousDiscreteDiffusion {
            g,
            slot_coef: csr_capacity_coefs(g, &capacities),
            slot_div: weights::csr_divisors(g, 4.0),
            capacities,
        }
    }

    /// Weighted potential of a token vector under these capacities.
    pub fn phi(&self, loads: &[i64]) -> f64 {
        let float: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
        weighted_phi(&float, &self.capacities)
    }

    /// Whole tokens across slot `(v → i-th neighbour)` seen from `v`:
    /// positive = inflow to `v`.
    #[inline]
    fn slot_tokens(&self, snapshot: &[i64], v: u32, slot: usize, u: u32) -> i64 {
        let wv = snapshot[v as usize] as f64 / self.capacities[v as usize];
        let wu = snapshot[u as usize] as f64 / self.capacities[u as usize];
        let t = (self.slot_coef[slot] * (wu - wv).abs() / self.slot_div[slot]).floor() as i64;
        // The richer *normalized* endpoint sends; ties send nothing
        // (t = 0 on equality since the difference is zero).
        if wu >= wv {
            t
        } else {
            -t
        }
    }
}

impl Protocol for HeterogeneousDiscreteDiffusion<'_> {
    type Load = i64;
    type Stats = DiscreteRoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "hetero-disc"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[i64], v: u32) -> i64 {
        let off = self.g.neighbor_offset(v);
        let mut acc = snapshot[v as usize];
        for (i, &u) in self.g.neighbors(v).iter().enumerate() {
            acc += self.slot_tokens(snapshot, v, off + i, u);
        }
        acc
    }

    fn compute_stats(
        &mut self,
        snapshot: &[i64],
        new_loads: &[i64],
        ctx: &StatsCtx<'_>,
    ) -> DiscreteRoundStats {
        // The weighted potential is not integral under real capacities;
        // report it scaled by n² to keep the DiscreteRoundStats contract
        // (callers comparing drops only need consistency).
        let caps = &self.capacities;
        let tally: TokenTally = ctx.graph_tally(self.g, |u, v, slot| {
            let wu = snapshot[u as usize] as f64 / caps[u as usize];
            let wv = snapshot[v as usize] as f64 / caps[v as usize];
            (self.slot_coef[slot] * (wu - wv).abs() / self.slot_div[slot]).floor() as u64
        });
        tally.stats(
            self.potential_of(snapshot, ctx),
            self.potential_of(new_loads, ctx),
        )
    }

    fn potential_of(&self, loads: &[i64], ctx: &StatsCtx<'_>) -> u128 {
        let n2 = (self.g.n() * self.g.n()) as f64;
        (weighted_phi_tokens_ctx(loads, &self.capacities, ctx) * n2) as u128
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousDiffusion;
    use crate::engine::IntoEngine;
    use crate::potential;
    use dlb_graphs::topology;

    #[test]
    fn unit_capacities_reduce_to_algorithm1() {
        let g = topology::torus2d(4, 4);
        let init: Vec<f64> = (0..16).map(|i| ((i * 41 + 3) % 59) as f64).collect();
        let mut a = init.clone();
        let mut b = init;
        ContinuousDiffusion::new(&g).engine().round(&mut a);
        HeterogeneousDiffusion::new(&g, vec![1.0; 16])
            .engine()
            .round(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn conserves_load() {
        let g = topology::cycle(10);
        let caps: Vec<f64> = (0..10).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut b = HeterogeneousDiffusion::new(&g, caps).engine();
        let mut loads: Vec<f64> = (0..10).map(|i| (i * i % 17) as f64).collect();
        let before: f64 = loads.iter().sum();
        for _ in 0..100 {
            b.round(&mut loads);
        }
        assert!((loads.iter().sum::<f64>() - before).abs() < 1e-9);
    }

    #[test]
    fn weighted_potential_never_increases() {
        let g = topology::hypercube(4);
        let caps: Vec<f64> = (0..16)
            .map(|i| if i % 4 == 0 { 4.0 } else { 0.5 })
            .collect();
        let mut b = HeterogeneousDiffusion::new(&g, caps).engine();
        let mut loads: Vec<f64> = (0..16).map(|i| ((i * 7 + 2) % 23) as f64).collect();
        for _ in 0..200 {
            let s = b.round(&mut loads).expect("full stats");
            assert!(
                s.phi_after <= s.phi_before + 1e-9,
                "Φ_c increased: {} -> {}",
                s.phi_before,
                s.phi_after
            );
        }
    }

    #[test]
    fn converges_to_proportional_distribution() {
        let g = topology::complete(8);
        // One fast node (capacity 7) and seven slow ones (capacity 1).
        let mut caps = vec![1.0; 8];
        caps[3] = 7.0;
        let mut b = HeterogeneousDiffusion::new(&g, caps.clone()).engine();
        let mut loads = vec![0.0; 8];
        loads[0] = 140.0; // total 140, Σc = 14 → ρ = 10
        for _ in 0..2000 {
            b.round(&mut loads);
        }
        let target = proportional_target(&loads, &caps);
        assert!((target[3] - 70.0).abs() < 1e-9);
        for (i, (&l, &t)) in loads.iter().zip(&target).enumerate() {
            assert!((l - t).abs() < 1e-6, "node {i}: load {l} vs target {t}");
        }
    }

    #[test]
    fn discrete_conserves_tokens_exactly() {
        let g = topology::grid2d(4, 4);
        let caps: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let mut b = HeterogeneousDiscreteDiffusion::new(&g, caps).engine();
        let mut loads: Vec<i64> = (0..16).map(|i| ((i * 997) % 5000) as i64).collect();
        let before = potential::total_discrete(&loads);
        for _ in 0..300 {
            b.round(&mut loads);
        }
        assert_eq!(potential::total_discrete(&loads), before);
    }

    #[test]
    fn discrete_approaches_proportional_plateau() {
        let g = topology::complete(6);
        let caps = vec![1.0, 1.0, 1.0, 1.0, 1.0, 5.0];
        let mut b = HeterogeneousDiscreteDiffusion::new(&g, caps).engine();
        let mut loads = vec![0i64; 6];
        loads[0] = 10_000; // ρ = 1000: target [1000×5, 5000]
        for _ in 0..5000 {
            b.round(&mut loads);
        }
        // The fast node should hold clearly more than any slow node.
        let fast = loads[5];
        for &l in &loads[..5] {
            assert!(fast > 3 * l, "fast node {fast} vs slow {l}: {loads:?}");
        }
        // Weighted potential reaches a small plateau.
        let phi = b.protocol().phi(&loads);
        assert!(phi < 2000.0, "Φ_c = {phi}");
    }

    #[test]
    fn weighted_phi_zero_iff_proportional() {
        let caps = vec![2.0, 3.0, 5.0];
        let loads = vec![4.0, 6.0, 10.0]; // exactly 2ρ with ρ = 2
        assert!(weighted_phi(&loads, &caps) < 1e-12);
        let skewed = vec![10.0, 6.0, 4.0];
        assert!(weighted_phi(&skewed, &caps) > 1.0);
    }

    #[test]
    fn serial_parallel_bit_identical() {
        let g = topology::grid2d(5, 5);
        let caps: Vec<f64> = (0..25).map(|i| 0.5 + (i % 7) as f64 * 0.75).collect();
        let init: Vec<f64> = (0..25).map(|i| ((i * 19 + 3) % 37) as f64).collect();

        let mut serial = init.clone();
        let mut s = HeterogeneousDiffusion::new(&g, caps.clone()).engine();
        for _ in 0..15 {
            s.round(&mut serial);
        }

        let mut par = init;
        let mut p = HeterogeneousDiffusion::new(&g, caps).engine_parallel(4);
        for _ in 0..15 {
            p.round(&mut par);
        }
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let g = topology::path(3);
        HeterogeneousDiffusion::new(&g, vec![1.0, 0.0, 1.0]);
    }
}
