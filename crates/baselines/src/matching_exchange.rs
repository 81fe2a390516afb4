//! Ghosh–Muthukrishnan \[12\]: dimension exchange over random matchings, as
//! engine protocols.
//!
//! Each round draws a random matching `M_t` of the network; every matched
//! pair averages its load (continuous: exchange half the difference;
//! discrete: the richer endpoint sends `⌊(ℓᵢ−ℓⱼ)/2⌋`). Because matched
//! edges are vertex-disjoint there are *no concurrent balancing actions* —
//! which is precisely the property \[12\]'s potential argument needs and the
//! property BFH's sequentialization technique removes the need for.
//!
//! Vertex-disjointness also makes the gather trivial: `begin_round` draws
//! the matching into a per-node partner table, and each node's kernel
//! touches at most one partner.
//!
//! Expected per-round potential drop (\[12\]): `λ₂/(16δ)` with the
//! 1/(8δ)-probability proposal matching; BFH's Algorithm 1 drops `λ₂/(4δ)`
//! deterministically — the paper's "constant times faster" claim that
//! experiment E12 measures.

use dlb_core::engine::{Protocol, StatsCtx};
use dlb_core::model::{DiscreteRoundStats, RoundStats};
use dlb_graphs::{matching, Graph, Matching};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sentinel for "unmatched this round" in the partner table.
const UNMATCHED: u32 = u32::MAX;

/// Which random-matching oracle to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingKind {
    /// The distributed proposal protocol of \[12\] (edge probability
    /// `≥ 1/(8δ)`) — the faithful baseline.
    Proposal,
    /// Random greedy *maximal* matching — a stronger oracle
    /// (edge probability `Ω(1/δ)`), the most favourable variant for the
    /// baseline.
    GreedyMaximal,
}

impl MatchingKind {
    fn draw(self, g: &Graph, rng: &mut StdRng) -> Matching {
        match self {
            MatchingKind::Proposal => matching::proposal_matching(g, rng),
            MatchingKind::GreedyMaximal => matching::random_greedy_matching(g, rng),
        }
    }

    fn name_continuous(self) -> &'static str {
        match self {
            MatchingKind::Proposal => "gm94-cont",
            MatchingKind::GreedyMaximal => "gm94-greedy-cont",
        }
    }

    fn name_discrete(self) -> &'static str {
        match self {
            MatchingKind::Proposal => "gm94-disc",
            MatchingKind::GreedyMaximal => "gm94-greedy-disc",
        }
    }
}

/// Per-round matching state shared by both variants.
#[derive(Debug)]
struct MatchState {
    kind: MatchingKind,
    rng: StdRng,
    /// `partner[v]` = this round's matched partner of `v`, or
    /// [`UNMATCHED`].
    partner: Vec<u32>,
    /// The drawn matching (for the statistics sweep).
    pairs: Vec<(u32, u32)>,
}

impl MatchState {
    fn new(n: usize, kind: MatchingKind, seed: u64) -> Self {
        MatchState {
            kind,
            rng: StdRng::seed_from_u64(seed),
            partner: vec![UNMATCHED; n],
            pairs: Vec::new(),
        }
    }

    fn draw(&mut self, g: &Graph) {
        let m = self.kind.draw(g, &mut self.rng);
        self.partner.fill(UNMATCHED);
        self.pairs.clear();
        self.pairs.extend_from_slice(m.pairs());
        for &(u, v) in &self.pairs {
            self.partner[u as usize] = v;
            self.partner[v as usize] = u;
        }
    }
}

/// Continuous dimension exchange.
#[derive(Debug)]
pub struct MatchingExchangeContinuous<'g> {
    g: &'g Graph,
    state: MatchState,
}

impl<'g> MatchingExchangeContinuous<'g> {
    /// Creates the protocol with a deterministic seed.
    pub fn new(g: &'g Graph, kind: MatchingKind, seed: u64) -> Self {
        MatchingExchangeContinuous {
            g,
            state: MatchState::new(g.n(), kind, seed),
        }
    }
}

impl Protocol for MatchingExchangeContinuous<'_> {
    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        self.state.kind.name_continuous()
    }

    fn begin_round(&mut self, _snapshot: &[f64]) {
        self.state.draw(self.g);
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        let p = self.state.partner[v as usize];
        if p == UNMATCHED {
            snapshot[v as usize]
        } else {
            // Both endpoints compute the identical average, so the matched
            // pair balances exactly and conservation is bitwise.
            (snapshot[v as usize] + snapshot[p as usize]) / 2.0
        }
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        let pairs = &self.state.pairs;
        let tally = ctx.flow_tally(pairs.len(), |k| {
            let (u, v) = pairs[k];
            (snapshot[u as usize] - snapshot[v as usize]).abs() / 2.0
        });
        tally.stats(ctx.phi(snapshot), ctx.phi(new_loads))
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }
}

/// Discrete dimension exchange: the richer matched endpoint sends
/// `⌊(ℓᵢ−ℓⱼ)/2⌋` tokens (\[12\]'s discrete variant).
#[derive(Debug)]
pub struct MatchingExchangeDiscrete<'g> {
    g: &'g Graph,
    state: MatchState,
}

impl<'g> MatchingExchangeDiscrete<'g> {
    /// Creates the protocol with a deterministic seed.
    pub fn new(g: &'g Graph, kind: MatchingKind, seed: u64) -> Self {
        MatchingExchangeDiscrete {
            g,
            state: MatchState::new(g.n(), kind, seed),
        }
    }
}

impl Protocol for MatchingExchangeDiscrete<'_> {
    type Load = i64;
    type Stats = DiscreteRoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        self.state.kind.name_discrete()
    }

    fn begin_round(&mut self, _snapshot: &[i64]) {
        self.state.draw(self.g);
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[i64], v: u32) -> i64 {
        let p = self.state.partner[v as usize];
        if p == UNMATCHED {
            return snapshot[v as usize];
        }
        let lv = snapshot[v as usize];
        let lp = snapshot[p as usize];
        // i64 division truncates toward 0 = floor for the non-negative
        // difference; both endpoints compute the same t.
        let t = (lv - lp).abs() / 2;
        if lp >= lv {
            lv + t
        } else {
            lv - t
        }
    }

    fn compute_stats(
        &mut self,
        snapshot: &[i64],
        new_loads: &[i64],
        ctx: &StatsCtx<'_>,
    ) -> DiscreteRoundStats {
        let pairs = &self.state.pairs;
        let tally = ctx.token_tally(pairs.len(), |k| {
            let (u, v) = pairs[k];
            ((snapshot[u as usize] - snapshot[v as usize]).abs() / 2) as u64
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

    #[test]
    fn matched_pair_averages_exactly() {
        let g = topology::path(2);
        let mut b = MatchingExchangeContinuous::new(&g, MatchingKind::GreedyMaximal, 1).engine();
        let mut loads = vec![10.0, 2.0];
        b.round(&mut loads);
        assert_eq!(loads, vec![6.0, 6.0]);
    }

    #[test]
    fn discrete_floor_transfer() {
        let g = topology::path(2);
        let mut b = MatchingExchangeDiscrete::new(&g, MatchingKind::GreedyMaximal, 1).engine();
        let mut loads = vec![9i64, 2];
        b.round(&mut loads); // diff 7, send 3
        assert_eq!(loads, vec![6, 5]);
    }

    #[test]
    fn load_conserved_both_variants() {
        let g = topology::torus2d(4, 4);
        let mut c = MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 3).engine();
        let mut cl: Vec<f64> = (0..16).map(|i| (i * 3 % 11) as f64).collect();
        let before: f64 = cl.iter().sum();
        for _ in 0..50 {
            c.round(&mut cl);
        }
        assert!((cl.iter().sum::<f64>() - before).abs() < 1e-9);

        let mut d = MatchingExchangeDiscrete::new(&g, MatchingKind::Proposal, 3).engine();
        let mut dl: Vec<i64> = (0..16).map(|i| ((i * 13) % 31) as i64).collect();
        let tb = potential::total_discrete(&dl);
        for _ in 0..50 {
            d.round(&mut dl);
        }
        assert_eq!(potential::total_discrete(&dl), tb);
    }

    #[test]
    fn potential_never_increases() {
        let g = topology::hypercube(4);
        let mut b = MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 9).engine();
        let mut loads: Vec<f64> = (0..16).map(|i| ((7 * i) % 13) as f64).collect();
        for _ in 0..100 {
            let s = b.round(&mut loads).expect("full stats");
            assert!(s.phi_after <= s.phi_before + 1e-9);
        }
    }

    #[test]
    fn converges_on_cycle() {
        let n = 16;
        let g = topology::cycle(n);
        let mut b = MatchingExchangeContinuous::new(&g, MatchingKind::GreedyMaximal, 17).engine();
        let mut loads = vec![0.0; n];
        loads[0] = 160.0;
        let phi0 = potential::phi(&loads);
        let out = dlb_core::runner::run_continuous(&mut b, &mut loads, 1e-4 * phi0, 20_000, false);
        assert!(out.converged, "GM matching exchange failed to converge");
    }

    #[test]
    fn expected_drop_meets_gm_bound_on_average() {
        // [12]: E[drop] >= (λ₂/16δ)·Φ with the proposal matching. Average
        // over many rounds on a cycle and compare against the bound with
        // slack for Monte Carlo noise.
        let n = 12;
        let g = topology::cycle(n);
        let lambda2 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        let bound = dlb_core::bounds::gm_matching_drop_factor(2, lambda2);
        let mut b = MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 5).engine();
        // Reset to the same state each trial to estimate the one-round drop.
        let init: Vec<f64> = (0..n).map(|i| if i == 0 { 144.0 } else { 0.0 }).collect();
        let phi0 = potential::phi(&init);
        let trials = 3000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut loads = init.clone();
            let s = b.round(&mut loads).expect("full stats");
            acc += (s.phi_before - s.phi_after) / phi0;
        }
        let avg_drop = acc / trials as f64;
        assert!(
            avg_drop >= bound * 0.9,
            "measured expected drop {avg_drop} below 0.9×(λ₂/16δ) = {}",
            bound * 0.9
        );
    }

    #[test]
    fn serial_parallel_bit_identical_with_same_seed() {
        let g = topology::torus2d(5, 5);
        let init: Vec<f64> = (0..25).map(|i| ((i * 17 + 3) % 29) as f64).collect();
        let mut serial = init.clone();
        let mut s = MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 77).engine();
        for _ in 0..20 {
            s.round(&mut serial);
        }
        let mut par = init;
        let mut p =
            MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 77).engine_parallel(4);
        for _ in 0..20 {
            p.round(&mut par);
        }
        assert_eq!(serial, par);
    }
}
