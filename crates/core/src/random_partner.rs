//! Algorithm 2 (Section 6): randomly picked balancing partners, as engine
//! protocols.
//!
//! Each round, every node picks a partner uniformly at random from `V`; the
//! sampled links form a random "network" `E` for that round, and load then
//! moves concurrently over `E` with the same rule as Algorithm 1, where
//! `d(i)` counts node `i`'s balancing partners *this round*. A node may be
//! chosen by many others, so concurrency is unavoidable — which is exactly
//! why the paper uses it as the stress test for the sequentialization
//! technique (Lemmas 9–11, Theorems 12/14).
//!
//! Self-picks (probability `1/n`) produce no link, matching the paper's
//! accounting where every pick lands on each specific node with probability
//! `1/n`.
//!
//! As protocols, the sampling happens in `begin_round` (which also builds a
//! per-round CSR adjacency over reused buffers), and the gather sums each
//! node's links against the snapshot — transfers are additive, so the
//! gather reaches the same state as the paper's per-link formulation, and
//! serial ≡ parallel bit-identity holds like for every engine protocol.

use crate::engine::{FlowTally, Protocol, StatsCtx, Tally, TokenTally};
use crate::model::{DiscreteRoundStats, RoundStats};
use crate::potential::{phi, phi_hat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One round's sampled link set and the induced partner counts.
#[derive(Debug, Clone)]
pub struct PartnerSample {
    /// Deduplicated undirected links, canonical `(u, v)` with `u < v`,
    /// sorted.
    pub links: Vec<(u32, u32)>,
    /// `d(i)` — the number of links incident to node `i` this round.
    pub degrees: Vec<u32>,
}

impl PartnerSample {
    /// Maximum partner count this round (the paper's balls-into-bins
    /// observation: `Θ(log n / log log n)` with high probability).
    pub fn max_degree(&self) -> u32 {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of links `(i, j)` with `max(dᵢ, dⱼ) ≤ 5` — the quantity
    /// Lemma 9 lower-bounds by `0.5`.
    pub fn lemma9_fraction(&self) -> f64 {
        if self.links.is_empty() {
            return 1.0;
        }
        let good = self
            .links
            .iter()
            .filter(|&&(u, v)| self.degrees[u as usize].max(self.degrees[v as usize]) <= 5)
            .count();
        good as f64 / self.links.len() as f64
    }
}

/// Draws one round of partner picks: every node picks `j ∈ V` uniformly at
/// random; self-picks are dropped; duplicate links merge.
pub fn sample_partners<R: Rng + ?Sized>(n: usize, rng: &mut R) -> PartnerSample {
    assert!(n >= 2, "Algorithm 2 needs n >= 2");
    let mut links: Vec<(u32, u32)> = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let j = rng.gen_range(0..n as u32);
        if j != i {
            links.push((i.min(j), i.max(j)));
        }
    }
    links.sort_unstable();
    links.dedup();
    let mut degrees = vec![0u32; n];
    for &(u, v) in &links {
        degrees[u as usize] += 1;
        degrees[v as usize] += 1;
    }
    PartnerSample { links, degrees }
}

/// Applies one concurrent balancing round over a sampled link set to a
/// continuous load vector; returns round statistics.
///
/// This is the paper's per-link formulation, kept as the reference
/// semantics for tests; the engine protocols below compute the same round
/// as a gather.
pub fn partner_round(sample: &PartnerSample, loads: &mut [f64]) -> RoundStats {
    let phi_before = phi(loads);
    let snapshot: Vec<f64> = loads.to_vec();
    let mut tally = FlowTally::default();
    for &(u, v) in &sample.links {
        let (lu, lv) = (snapshot[u as usize], snapshot[v as usize]);
        let c = 4.0 * sample.degrees[u as usize].max(sample.degrees[v as usize]) as f64;
        let w = (lu - lv).abs() / c;
        if w > 0.0 {
            tally.add(w);
            if lu >= lv {
                loads[u as usize] -= w;
                loads[v as usize] += w;
            } else {
                loads[v as usize] -= w;
                loads[u as usize] += w;
            }
        }
    }
    tally.stats(phi_before, phi(loads))
}

/// Discrete twin of [`partner_round`]: transfers `⌊w⌋` tokens per link.
pub fn partner_round_discrete(sample: &PartnerSample, loads: &mut [i64]) -> DiscreteRoundStats {
    let phi_hat_before = phi_hat(loads);
    let snapshot: Vec<i64> = loads.to_vec();
    let mut tally = TokenTally::default();
    for &(u, v) in &sample.links {
        let (lu, lv) = (snapshot[u as usize] as i128, snapshot[v as usize] as i128);
        let c = 4 * sample.degrees[u as usize].max(sample.degrees[v as usize]) as i128;
        let t = ((lu - lv).abs() / c) as i64;
        if t > 0 {
            tally.add(t as u64);
            if lu >= lv {
                loads[u as usize] -= t;
                loads[v as usize] += t;
            } else {
                loads[v as usize] -= t;
                loads[u as usize] += t;
            }
        }
    }
    tally.stats(phi_hat_before, phi_hat(loads))
}

/// Per-round link adjacency in CSR form, rebuilt from a [`PartnerSample`]
/// each round over reused buffers.
#[derive(Debug, Default)]
struct LinkCsr {
    offsets: Vec<usize>,
    /// `(partner, divisor)` per slot: divisor = `4·max(dᵤ, dᵥ)` as `i64`
    /// (converted to `f64` on use by the continuous kernel — exact for any
    /// realistic degree).
    slots: Vec<(u32, i64)>,
}

impl LinkCsr {
    fn rebuild(&mut self, n: usize, sample: &PartnerSample) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(u, v) in &sample.links {
            self.offsets[u as usize + 1] += 1;
            self.offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.slots.clear();
        self.slots.resize(self.offsets[n], (0, 0));
        let mut cursor = self.offsets.clone();
        for &(u, v) in &sample.links {
            let div = 4 * sample.degrees[u as usize].max(sample.degrees[v as usize]) as i64;
            self.slots[cursor[u as usize]] = (v, div);
            cursor[u as usize] += 1;
            self.slots[cursor[v as usize]] = (u, div);
            cursor[v as usize] += 1;
        }
    }

    #[inline]
    fn links_of(&self, v: u32) -> &[(u32, i64)] {
        &self.slots[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Algorithm 2 as a continuous engine protocol with its own seeded RNG
/// (one partner sample per round, drawn in `begin_round`).
#[derive(Debug)]
pub struct RandomPartnerContinuous {
    n: usize,
    rng: StdRng,
    csr: LinkCsr,
    /// The sample used by the most recent round (for diagnostics/tests).
    pub last_sample: Option<PartnerSample>,
}

impl RandomPartnerContinuous {
    /// Creates the protocol for `n` nodes with a deterministic seed.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "Algorithm 2 needs n >= 2");
        RandomPartnerContinuous {
            n,
            rng: StdRng::seed_from_u64(seed),
            csr: LinkCsr::default(),
            last_sample: None,
        }
    }
}

impl Protocol for RandomPartnerContinuous {
    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "alg2-cont"
    }

    fn begin_round(&mut self, _snapshot: &[f64]) {
        let sample = sample_partners(self.n, &mut self.rng);
        self.csr.rebuild(self.n, &sample);
        self.last_sample = Some(sample);
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        let lv = snapshot[v as usize];
        let mut acc = lv;
        for &(u, div) in self.csr.links_of(v) {
            let diff = snapshot[u as usize] - lv;
            // w = |diff|/c applied with diff's sign; both endpoints compute
            // the identical |diff|/c, so conservation is exact.
            let w = diff.abs() / div as f64;
            acc += if diff >= 0.0 { w } else { -w };
        }
        acc
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        let sample = self.last_sample.as_ref().expect("begin_round ran");
        let links = &sample.links;
        let degrees = &sample.degrees;
        let tally = ctx.flow_tally(links.len(), |k| {
            let (u, v) = links[k];
            let c = 4.0 * degrees[u as usize].max(degrees[v as usize]) as f64;
            (snapshot[u as usize] - snapshot[v as usize]).abs() / c
        });
        tally.stats(ctx.phi(snapshot), ctx.phi(new_loads))
    }
}

/// Algorithm 2 as a discrete engine protocol.
#[derive(Debug)]
pub struct RandomPartnerDiscrete {
    n: usize,
    rng: StdRng,
    csr: LinkCsr,
    /// The sample used by the most recent round.
    pub last_sample: Option<PartnerSample>,
}

impl RandomPartnerDiscrete {
    /// Creates the protocol for `n` nodes with a deterministic seed.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "Algorithm 2 needs n >= 2");
        RandomPartnerDiscrete {
            n,
            rng: StdRng::seed_from_u64(seed),
            csr: LinkCsr::default(),
            last_sample: None,
        }
    }
}

impl Protocol for RandomPartnerDiscrete {
    type Load = i64;
    type Stats = DiscreteRoundStats;

    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "alg2-disc"
    }

    fn begin_round(&mut self, _snapshot: &[i64]) {
        let sample = sample_partners(self.n, &mut self.rng);
        self.csr.rebuild(self.n, &sample);
        self.last_sample = Some(sample);
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[i64], v: u32) -> i64 {
        let lv = snapshot[v as usize] as i128;
        let mut acc = lv;
        for &(u, div) in self.csr.links_of(v) {
            let diff = snapshot[u as usize] as i128 - lv;
            let t = diff.abs() / div as i128;
            acc += if diff >= 0 { t } else { -t };
        }
        i64::try_from(acc).expect("load fits i64")
    }

    fn compute_stats(
        &mut self,
        snapshot: &[i64],
        new_loads: &[i64],
        ctx: &StatsCtx<'_>,
    ) -> DiscreteRoundStats {
        let sample = self.last_sample.as_ref().expect("begin_round ran");
        let links = &sample.links;
        let degrees = &sample.degrees;
        let tally = ctx.token_tally(links.len(), |k| {
            let (u, v) = links[k];
            let c = 4 * degrees[u as usize].max(degrees[v as usize]) as i128;
            let diff = snapshot[u as usize] as i128 - snapshot[v as usize] as i128;
            (diff.abs() / c) as u64
        });
        tally.stats(ctx.phi_hat(snapshot), ctx.phi_hat(new_loads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IntoEngine;
    use crate::potential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_structure_valid() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let s = sample_partners(50, &mut rng);
            // Links canonical, sorted, deduped, no self loops.
            for w in s.links.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &(u, v) in &s.links {
                assert!(u < v);
                assert!((v as usize) < 50);
            }
            // Degrees consistent with links.
            let mut deg = vec![0u32; 50];
            for &(u, v) in &s.links {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
            assert_eq!(deg, s.degrees);
            // At most n links (each node contributes at most one).
            assert!(s.links.len() <= 50);
        }
    }

    #[test]
    fn degrees_at_least_zero_at_most_n_minus_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_partners(10, &mut rng);
        assert!(s.degrees.iter().all(|&d| (d as usize) < 10));
    }

    #[test]
    fn continuous_round_conserves_load() {
        let mut b = RandomPartnerContinuous::new(64, 99).engine();
        let mut loads: Vec<f64> = (0..64).map(|i| (i % 17) as f64).collect();
        let before: f64 = loads.iter().sum();
        for _ in 0..50 {
            b.round(&mut loads);
        }
        let after: f64 = loads.iter().sum();
        assert!((before - after).abs() < 1e-9 * before.max(1.0));
    }

    #[test]
    fn discrete_round_conserves_exactly() {
        let mut b = RandomPartnerDiscrete::new(64, 7).engine();
        let mut loads: Vec<i64> = (0..64).map(|i| ((i * 31) % 211) as i64).collect();
        let before = potential::total_discrete(&loads);
        for _ in 0..100 {
            b.round(&mut loads);
        }
        assert_eq!(potential::total_discrete(&loads), before);
    }

    #[test]
    fn potential_non_increasing_each_round() {
        // Lemma 1's argument applies per link (each node sends at most
        // d(i)·w and w ≤ diff/(4·max d)), so Φ cannot increase.
        let mut b = RandomPartnerContinuous::new(40, 11).engine();
        let mut loads: Vec<f64> = (0..40).map(|i| ((i * 13) % 29) as f64).collect();
        for _ in 0..200 {
            let s = b.round(&mut loads).expect("full stats");
            assert!(s.phi_after <= s.phi_before + 1e-9);
        }
    }

    #[test]
    fn converges_fast_in_expectation() {
        // Lemma 11: E[Φ'] <= (19/20)Φ. Over 300 rounds the potential must
        // collapse by many orders of magnitude.
        let mut b = RandomPartnerContinuous::new(100, 5).engine();
        let mut loads = vec![0.0; 100];
        loads[0] = 100.0 * 100.0;
        let phi0 = potential::phi(&loads);
        for _ in 0..300 {
            b.round(&mut loads);
        }
        let phi_end = potential::phi(&loads);
        assert!(
            phi_end < phi0 * 1e-6,
            "Φ only dropped from {phi0} to {phi_end} in 300 rounds"
        );
    }

    #[test]
    fn discrete_reaches_lemma13_plateau() {
        // Theorem 14: the discrete protocol reaches Φ <= 3200n quickly.
        let n = 128usize;
        let mut b = RandomPartnerDiscrete::new(n, 21).engine();
        let mut loads = vec![0i64; n];
        loads[0] = (n as i64) * 10_000;
        for _ in 0..2000 {
            b.round(&mut loads);
            let phi = potential::phi_discrete(&loads);
            if phi <= 3200.0 * n as f64 {
                return;
            }
        }
        panic!(
            "discrete Algorithm 2 did not reach the 3200n plateau: Φ = {}",
            potential::phi_discrete(&loads)
        );
    }

    #[test]
    fn lemma9_fraction_reasonable() {
        // The empirical fraction of links with max(d_i,d_j) <= 5 must beat
        // the proven 0.5 (it is ≈ 0.99 in reality).
        let mut rng = StdRng::seed_from_u64(17);
        let mut acc = 0.0;
        let trials = 200;
        for _ in 0..trials {
            acc += sample_partners(256, &mut rng).lemma9_fraction();
        }
        let avg = acc / trials as f64;
        assert!(avg > 0.5, "Lemma 9 fraction {avg} <= 0.5");
    }

    #[test]
    fn gather_matches_reference_link_formulation() {
        // The engine gather and the paper's per-link scatter are additive
        // decompositions of the same round: identical sample (same seed),
        // near-identical loads (summation order differs).
        let n = 48;
        let init: Vec<f64> = (0..n).map(|i| ((i * 29 + 5) % 83) as f64).collect();

        let mut via_engine = init.clone();
        let mut engine = RandomPartnerContinuous::new(n, 4242).engine();
        engine.round(&mut via_engine);
        let sample = engine.protocol().last_sample.clone().expect("sample");

        let mut via_reference = init;
        partner_round(&sample, &mut via_reference);

        for (a, b) in via_engine.iter().zip(&via_reference) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn serial_parallel_bit_identical_with_same_seed() {
        let n = 96;
        let init: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 31) as f64).collect();

        let mut serial = init.clone();
        let mut s = RandomPartnerContinuous::new(n, 1234).engine();
        for _ in 0..20 {
            s.round(&mut serial);
        }

        let mut par = init;
        let mut p = RandomPartnerContinuous::new(n, 1234).engine_parallel(5);
        for _ in 0..20 {
            p.round(&mut par);
        }
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn single_node_rejected() {
        RandomPartnerContinuous::new(1, 0);
    }
}
