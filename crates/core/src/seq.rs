//! The paper's sequentialization proof technique, made executable.
//!
//! The analysis of Algorithm 1 (Section 4) fixes a round `t`, assigns every
//! edge `e = (i, j)` the weight
//! `w_ij = |ℓᵢ^{t−1} − ℓⱼ^{t−1}| / (4·max(dᵢ, dⱼ))` — the amount the
//! concurrent round will move across `e` — and then *pretends* the edges
//! activate one at a time in increasing weight order. Two facts make this a
//! proof device rather than a different algorithm:
//!
//! 1. **Telescoping equivalence.** Transfers are additive, so applying the
//!    fixed amounts `w_ij` in any order reaches exactly the concurrent
//!    round's final state, and the per-activation potential drops sum to
//!    the round's total drop.
//! 2. **Lemma 1.** In *increasing weight order*, each activation's drop is
//!    at least `w_ij · |ℓᵢ^{t−1} − ℓⱼ^{t−1}|`: before `(i, j)` fires, `i`
//!    has sent at most `(dᵢ−1)·w_ij` and `j` has received at most
//!    `(dⱼ−1)·w_ij`, so the pair is still far enough apart.
//!
//! [`sequentialized_round`] (and its discrete twin) replay a round exactly
//! this way, recording an [`Activation`] certificate per edge so
//! experiments E2/E3 can confront the lemma with measurements. The module
//! also provides [`adaptive_sequential_round`], the "corresponding
//! sequential algorithm" the paper's Section 3 compares against: same
//! transfer rule, but each activation recomputes the amount from *current*
//! loads.

use crate::continuous::edge_divisor;
use crate::potential::{phi, phi_hat, total_discrete};
use dlb_graphs::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// Certificate for one edge activation of the sequentialized round
/// (continuous case).
#[derive(Debug, Clone, Copy)]
pub struct Activation {
    /// The activated edge, canonical `(u, v)` with `u < v`.
    pub edge: (u32, u32),
    /// The endpoint that sent load (the round-start richer endpoint).
    pub sender: u32,
    /// Weight `w_ij` — the amount transferred.
    pub weight: f64,
    /// Exact potential drop caused by this activation:
    /// `2·w·(a − b − w)` with `a, b` the sender/receiver loads at
    /// activation time.
    pub drop: f64,
    /// Lemma 1's lower bound for this activation:
    /// `w_ij · |ℓᵢ^{t−1} − ℓⱼ^{t−1}|`.
    pub lemma1_bound: f64,
}

impl Activation {
    /// Whether this activation satisfies Lemma 1 (up to `tol` absolute
    /// slack for floating-point noise).
    pub fn satisfies_lemma1(&self, tol: f64) -> bool {
        self.drop >= self.lemma1_bound - tol
    }
}

/// Result of one sequentialized round (continuous case).
#[derive(Debug, Clone)]
pub struct SeqRound {
    /// `Φ` entering the round.
    pub phi_before: f64,
    /// `Φ` after all activations.
    pub phi_after: f64,
    /// Per-edge certificates, in activation (increasing weight) order.
    pub activations: Vec<Activation>,
}

impl SeqRound {
    /// Sum of per-activation drops — telescopes to
    /// `phi_before − phi_after` (up to floating-point accumulation).
    pub fn total_drop(&self) -> f64 {
        self.activations.iter().map(|a| a.drop).sum()
    }

    /// Sum of Lemma 1 lower bounds — this is the quantity Lemma 2 turns
    /// into `(1/4δ)·Σ (ℓᵢ−ℓⱼ)²`.
    pub fn lemma1_total(&self) -> f64 {
        self.activations.iter().map(|a| a.lemma1_bound).sum()
    }

    /// Number of activations violating Lemma 1 beyond tolerance (expected
    /// 0 — the lemma is a theorem).
    pub fn lemma1_violations(&self, tol: f64) -> usize {
        self.activations
            .iter()
            .filter(|a| !a.satisfies_lemma1(tol))
            .count()
    }
}

/// Replays one concurrent continuous round as sequential edge activations
/// in increasing weight order (ties broken by edge index), mutating `loads`
/// to the concurrent round's final state and returning the certificates.
pub fn sequentialized_round(g: &Graph, loads: &mut [f64]) -> SeqRound {
    assert_eq!(loads.len(), g.n(), "load vector length must equal n");
    let snapshot: Vec<f64> = loads.to_vec();
    let phi_before = phi(&snapshot);

    // Weights from round-start loads; activation order = ascending weight.
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    let weight = |k: u32| {
        let (u, v) = edges[k as usize];
        (snapshot[u as usize] - snapshot[v as usize]).abs() / edge_divisor(g, u, v)
    };
    order.sort_by(|&a, &b| {
        weight(a)
            .partial_cmp(&weight(b))
            .expect("finite weights")
            .then(a.cmp(&b))
    });

    let mut activations = Vec::with_capacity(edges.len());
    for &k in &order {
        let (u, v) = edges[k as usize];
        let (su, sv) = (snapshot[u as usize], snapshot[v as usize]);
        let w = (su - sv).abs() / edge_divisor(g, u, v);
        let (sender, receiver) = if su >= sv { (u, v) } else { (v, u) };
        let a = loads[sender as usize];
        let b = loads[receiver as usize];
        loads[sender as usize] = a - w;
        loads[receiver as usize] = b + w;
        activations.push(Activation {
            edge: (u, v),
            sender,
            weight: w,
            drop: 2.0 * w * (a - b - w),
            lemma1_bound: w * (su - sv).abs(),
        });
    }
    SeqRound {
        phi_before,
        phi_after: phi(loads),
        activations,
    }
}

/// Certificate for one discrete activation. All potential quantities are in
/// the exact scaled domain `Φ̂ = n²·Φ`.
#[derive(Debug, Clone, Copy)]
pub struct DiscreteActivation {
    /// The activated edge.
    pub edge: (u32, u32),
    /// Sending endpoint.
    pub sender: u32,
    /// Tokens moved: `⌊w_ij⌋`.
    pub tokens: i64,
    /// Exact scaled potential drop `2T(A − B − T)` (may be negative for a
    /// single activation; Lemma 5 controls the round total).
    pub drop_hat: i128,
}

/// Result of one discrete sequentialized round.
#[derive(Debug, Clone)]
pub struct DiscreteSeqRound {
    /// `Φ̂` entering the round.
    pub phi_hat_before: u128,
    /// `Φ̂` after all activations.
    pub phi_hat_after: u128,
    /// Certificates in activation order.
    pub activations: Vec<DiscreteActivation>,
}

impl DiscreteSeqRound {
    /// Exact telescoped drop — always equals
    /// `phi_hat_before − phi_hat_after`.
    pub fn total_drop_hat(&self) -> i128 {
        self.activations.iter().map(|a| a.drop_hat).sum()
    }
}

/// Discrete twin of [`sequentialized_round`]: fixed token amounts
/// `⌊w_ij⌋` from round-start loads, activated in increasing weight order.
/// Reaches exactly the state of `DiscreteDiffusion::round`.
pub fn sequentialized_round_discrete(g: &Graph, loads: &mut [i64]) -> DiscreteSeqRound {
    assert_eq!(loads.len(), g.n(), "load vector length must equal n");
    let snapshot: Vec<i64> = loads.to_vec();
    let phi_hat_before = phi_hat(&snapshot);
    let n = g.n() as i128;
    let s = total_discrete(&snapshot);

    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    let tokens = |k: u32| {
        crate::discrete::edge_tokens(g, &snapshot, edges[k as usize].0, edges[k as usize].1)
    };
    order.sort_by_key(|&k| (tokens(k), k));

    let mut activations = Vec::with_capacity(edges.len());
    for &k in &order {
        let (u, v) = edges[k as usize];
        let t = tokens(k);
        let (sender, receiver) = if snapshot[u as usize] >= snapshot[v as usize] {
            (u, v)
        } else {
            (v, u)
        };
        // Scaled drop 2T(A − B − T) with A = n·a − S, B = n·b − S, T = n·t.
        let a = loads[sender as usize] as i128;
        let b = loads[receiver as usize] as i128;
        let (aa, bb, tt) = (n * a - s, n * b - s, n * t as i128);
        let drop_hat = 2 * tt * (aa - bb - tt);
        loads[sender as usize] -= t;
        loads[receiver as usize] += t;
        activations.push(DiscreteActivation {
            edge: (u, v),
            sender,
            tokens: t,
            drop_hat,
        });
    }
    DiscreteSeqRound {
        phi_hat_before,
        phi_hat_after: phi_hat(loads),
        activations,
    }
}

/// Activation orders for the *adaptive* sequential comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveOrder {
    /// Canonical edge-list order.
    EdgeIndex,
    /// Uniformly random permutation per round.
    Random,
    /// Ascending round-start weight (the sequentialization's order, but
    /// with amounts recomputed adaptively).
    RoundStartWeight,
}

/// The "corresponding sequential load-balancing algorithm" of the paper's
/// Section 3: edges activate one at a time, and each activation transfers
/// `(ℓᵢ − ℓⱼ)/(4·max(dᵢ, dⱼ))` computed from the *current* loads.
///
/// Used by experiment E3 to measure how much the concurrency of Algorithm 1
/// costs relative to a truly sequential system (the paper proves a factor
/// of at most 2 on the potential drop).
pub fn adaptive_sequential_round<R: Rng + ?Sized>(
    g: &Graph,
    loads: &mut [f64],
    order: AdaptiveOrder,
    rng: &mut R,
) -> SeqRound {
    assert_eq!(loads.len(), g.n(), "load vector length must equal n");
    let snapshot: Vec<f64> = loads.to_vec();
    let phi_before = phi(&snapshot);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut idx: Vec<u32> = (0..edges.len() as u32).collect();
    match order {
        AdaptiveOrder::EdgeIndex => {}
        AdaptiveOrder::Random => idx.shuffle(rng),
        AdaptiveOrder::RoundStartWeight => {
            let weight = |k: u32| {
                let (u, v) = edges[k as usize];
                (snapshot[u as usize] - snapshot[v as usize]).abs() / edge_divisor(g, u, v)
            };
            idx.sort_by(|&a, &b| {
                weight(a)
                    .partial_cmp(&weight(b))
                    .expect("finite weights")
                    .then(a.cmp(&b))
            });
        }
    }
    let mut activations = Vec::with_capacity(edges.len());
    for &k in &idx {
        let (u, v) = edges[k as usize];
        let (lu, lv) = (loads[u as usize], loads[v as usize]);
        let w = (lu - lv).abs() / edge_divisor(g, u, v);
        let (sender, receiver) = if lu >= lv { (u, v) } else { (v, u) };
        let a = loads[sender as usize];
        let b = loads[receiver as usize];
        loads[sender as usize] = a - w;
        loads[receiver as usize] = b + w;
        activations.push(Activation {
            edge: (u, v),
            sender,
            weight: w,
            drop: 2.0 * w * (a - b - w),
            lemma1_bound: w * (a - b).abs(),
        });
    }
    SeqRound {
        phi_before,
        phi_after: phi(loads),
        activations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousDiffusion;
    use crate::discrete::DiscreteDiffusion;
    use crate::engine::IntoEngine;
    use dlb_graphs::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequentialized_matches_concurrent_state() {
        let g = topology::torus2d(4, 4);
        let init: Vec<f64> = (0..16).map(|i| ((i * 29 + 7) % 41) as f64).collect();

        let mut conc = init.clone();
        ContinuousDiffusion::new(&g).engine().round(&mut conc);

        let mut seq = init.clone();
        sequentialized_round(&g, &mut seq);

        for (a, b) in conc.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-9, "concurrent {a} vs sequentialized {b}");
        }
    }

    #[test]
    fn discrete_sequentialized_matches_concurrent_exactly() {
        let g = topology::hypercube(4);
        let init: Vec<i64> = (0..16).map(|i| ((i * 173 + 19) % 500) as i64).collect();

        let mut conc = init.clone();
        DiscreteDiffusion::new(&g).engine().round(&mut conc);

        let mut seq = init.clone();
        sequentialized_round_discrete(&g, &mut seq);

        assert_eq!(conc, seq, "discrete sequentialization must be exact");
    }

    #[test]
    fn lemma1_holds_on_every_activation() {
        let g = topology::cycle(20);
        let mut loads: Vec<f64> = (0..20).map(|i| ((i * 31 + 11) % 53) as f64).collect();
        for _ in 0..30 {
            let round = sequentialized_round(&g, &mut loads);
            assert_eq!(
                round.lemma1_violations(1e-9),
                0,
                "Lemma 1 violated in round; activations: {:?}",
                round
                    .activations
                    .iter()
                    .filter(|a| !a.satisfies_lemma1(1e-9))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn drops_telescope_to_round_drop() {
        let g = topology::grid2d(4, 5);
        let mut loads: Vec<f64> = (0..20).map(|i| ((7 * i + 3) % 17) as f64).collect();
        let round = sequentialized_round(&g, &mut loads);
        let telescoped = round.total_drop();
        let actual = round.phi_before - round.phi_after;
        assert!(
            (telescoped - actual).abs() < 1e-8,
            "telescoped {telescoped} vs actual {actual}"
        );
    }

    #[test]
    fn discrete_drops_telescope_exactly() {
        let g = topology::de_bruijn(4);
        let mut loads: Vec<i64> = (0..16).map(|i| ((i * 97 + 13) % 257) as i64).collect();
        let round = sequentialized_round_discrete(&g, &mut loads);
        let telescoped = round.total_drop_hat();
        let actual = round.phi_hat_before as i128 - round.phi_hat_after as i128;
        assert_eq!(telescoped, actual);
    }

    #[test]
    fn lemma2_bound_holds_per_round() {
        // Φ(L^{t-1}) − Φ(L^t) ≥ (1/4δ)·Σ (ℓᵢ−ℓⱼ)².
        let g = topology::petersen();
        let mut loads: Vec<f64> = (0..10).map(|i| (i * i % 13) as f64).collect();
        for _ in 0..20 {
            let edge_sq: f64 = g
                .edges()
                .map(|(u, v)| (loads[u as usize] - loads[v as usize]).powi(2))
                .sum();
            let bound = edge_sq / (4.0 * g.max_degree() as f64);
            let round = sequentialized_round(&g, &mut loads);
            let drop = round.phi_before - round.phi_after;
            assert!(drop >= bound - 1e-9, "drop {drop} < Lemma 2 bound {bound}");
        }
    }

    #[test]
    fn activation_order_is_ascending_weight() {
        let g = topology::complete(6);
        let mut loads: Vec<f64> = (0..6).map(|i| (i * i) as f64).collect();
        let round = sequentialized_round(&g, &mut loads);
        for pair in round.activations.windows(2) {
            assert!(pair[0].weight <= pair[1].weight + 1e-15);
        }
    }

    #[test]
    fn adaptive_sequential_conserves_and_drops() {
        let g = topology::cycle(9);
        let mut rng = StdRng::seed_from_u64(5);
        for order in [
            AdaptiveOrder::EdgeIndex,
            AdaptiveOrder::Random,
            AdaptiveOrder::RoundStartWeight,
        ] {
            let mut loads: Vec<f64> = (0..9).map(|i| ((i * 5 + 1) % 11) as f64).collect();
            let before: f64 = loads.iter().sum();
            let round = adaptive_sequential_round(&g, &mut loads, order, &mut rng);
            let after: f64 = loads.iter().sum();
            assert!(
                (before - after).abs() < 1e-9,
                "load not conserved ({order:?})"
            );
            assert!(
                round.phi_after <= round.phi_before + 1e-9,
                "adaptive sequential increased potential ({order:?})"
            );
        }
    }

    #[test]
    fn concurrent_drop_at_least_half_of_adaptive_sequential() {
        // The Section-3 claim: concurrency degrades the potential drop by at
        // most a factor of two versus the sequential system. Checked on
        // several graphs and initializations.
        let mut rng = StdRng::seed_from_u64(77);
        for g in [
            topology::cycle(16),
            topology::grid2d(4, 4),
            topology::hypercube(4),
        ] {
            let init: Vec<f64> = (0..16).map(|i| ((i * 43 + 9) % 37) as f64).collect();
            let mut conc = init.clone();
            let s = ContinuousDiffusion::new(&g)
                .engine()
                .round(&mut conc)
                .expect("full stats");
            let conc_drop = s.phi_before - s.phi_after;

            let mut seq = init.clone();
            let round =
                adaptive_sequential_round(&g, &mut seq, AdaptiveOrder::RoundStartWeight, &mut rng);
            let seq_drop = round.phi_before - round.phi_after;
            assert!(
                conc_drop >= 0.5 * seq_drop - 1e-9,
                "concurrent drop {conc_drop} < half of sequential {seq_drop}"
            );
        }
    }

    #[test]
    fn balanced_round_has_zero_activations_effect() {
        let g = topology::path(5);
        let mut loads = vec![3.0; 5];
        let round = sequentialized_round(&g, &mut loads);
        assert_eq!(round.phi_after, 0.0);
        assert!(round
            .activations
            .iter()
            .all(|a| a.weight == 0.0 && a.drop == 0.0));
    }
}
