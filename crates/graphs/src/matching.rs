//! Matchings — the substrate of dimension-exchange load balancing.
//!
//! Ghosh–Muthukrishnan \[12\] avoid concurrent balancing actions by drawing a
//! random matching `M_t` each round and averaging load across matched pairs.
//! The BFH paper's central comparison (its Section 3) is *diffusion with
//! concurrency* versus *this matching-based sequential-style protocol*, so a
//! faithful matching generator is required for baseline experiments E12.
//!
//! Two generators are provided:
//!
//! * [`random_greedy_matching`] — a maximal matching from a random edge
//!   permutation. Every edge is matched with probability `Ω(1/δ)`; this is
//!   the strongest (most favourable to the baseline) matching oracle.
//! * [`proposal_matching`] — the distributed protocol from \[12\]: each node
//!   activates with probability 1/2, active nodes propose to a uniform
//!   random neighbour, and an inactive node accepts if it received exactly
//!   one proposal. Each edge joins the matching with probability `≥ 1/(8δ)`,
//!   which is the constant that appears in \[12\]'s `λ₂/(16δ)` drop bound.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// A matching: a set of vertex-disjoint edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    pairs: Vec<(u32, u32)>,
}

impl Matching {
    /// Creates a matching after validating vertex-disjointness.
    ///
    /// # Panics
    /// If any node appears in two pairs, or a pair is a self-loop.
    pub fn new(pairs: Vec<(u32, u32)>, n: usize) -> Self {
        let mut seen = vec![false; n];
        for &(u, v) in &pairs {
            assert!(u != v, "self-loop ({u},{u}) in matching");
            for w in [u, v] {
                let w = w as usize;
                assert!(w < n, "node {w} out of range");
                assert!(!seen[w], "node {w} matched twice");
                seen[w] = true;
            }
        }
        Matching { pairs }
    }

    /// The matched pairs.
    #[inline]
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of matched pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the matching is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the matching is *maximal* in `g`: no edge of `g` has both
    /// endpoints unmatched.
    pub fn is_maximal(&self, g: &Graph) -> bool {
        let mut matched = vec![false; g.n()];
        for &(u, v) in &self.pairs {
            matched[u as usize] = true;
            matched[v as usize] = true;
        }
        g.edges()
            .all(|(u, v)| matched[u as usize] || matched[v as usize])
    }
}

/// Maximal matching obtained by scanning the edges of `g` in a uniformly
/// random order and keeping every edge whose endpoints are both free.
pub fn random_greedy_matching<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Matching {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.shuffle(rng);
    let mut matched = vec![false; g.n()];
    let mut pairs = Vec::new();
    for (u, v) in edges {
        if !matched[u as usize] && !matched[v as usize] {
            matched[u as usize] = true;
            matched[v as usize] = true;
            pairs.push((u, v));
        }
    }
    Matching { pairs }
}

/// The Ghosh–Muthukrishnan \[12\] distributed random-matching protocol.
///
/// 1. every node independently becomes *active* with probability 1/2;
/// 2. each active node with at least one neighbour proposes to a uniformly
///    random neighbour;
/// 3. an *inactive* node that received exactly one proposal accepts it;
/// 4. the matching is the set of accepted (proposer, acceptor) pairs.
///
/// The result is always a valid matching: a proposer makes one proposal and
/// is active (so never accepts), an acceptor is inactive and accepts at most
/// one proposal.
pub fn proposal_matching<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Matching {
    let n = g.n();
    let mut active = vec![false; n];
    for a in active.iter_mut() {
        *a = rng.gen::<bool>();
    }
    // proposals[v] = Some(u): active u proposed to v; u32::MAX sentinel for
    // "multiple proposals" keeps this allocation-free.
    const NONE: u32 = u32::MAX;
    const MANY: u32 = u32::MAX - 1;
    let mut proposal = vec![NONE; n];
    for u in 0..n as u32 {
        if !active[u as usize] {
            continue;
        }
        let neigh = g.neighbors(u);
        if neigh.is_empty() {
            continue;
        }
        let v = neigh[rng.gen_range(0..neigh.len())];
        let slot = &mut proposal[v as usize];
        *slot = if *slot == NONE { u } else { MANY };
    }
    let mut pairs = Vec::new();
    for v in 0..n as u32 {
        if active[v as usize] {
            continue; // active nodes do not accept
        }
        let u = proposal[v as usize];
        if u != NONE && u != MANY {
            pairs.push((u.min(v), u.max(v)));
        }
    }
    Matching { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_valid(m: &Matching, g: &Graph) {
        let mut seen = vec![false; g.n()];
        for &(u, v) in m.pairs() {
            assert!(g.has_edge(u, v), "({u},{v}) not an edge");
            assert!(!seen[u as usize] && !seen[v as usize], "node matched twice");
            seen[u as usize] = true;
            seen[v as usize] = true;
        }
    }

    #[test]
    fn greedy_matching_valid_and_maximal() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [4usize, 9, 16, 25] {
            let g = topology::cycle(n);
            let m = random_greedy_matching(&g, &mut rng);
            assert_valid(&m, &g);
            assert!(m.is_maximal(&g));
        }
    }

    #[test]
    fn greedy_matching_on_complete_is_near_perfect() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = topology::complete(10);
        let m = random_greedy_matching(&g, &mut rng);
        assert_eq!(m.len(), 5); // maximal matching on K_10 is perfect
    }

    #[test]
    fn proposal_matching_valid() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = topology::torus2d(5, 5);
        for _ in 0..50 {
            let m = proposal_matching(&g, &mut rng);
            assert_valid(&m, &g);
        }
    }

    #[test]
    fn proposal_matching_edge_probability_at_least_1_over_8delta() {
        // [12] proves each edge is matched w.p. >= 1/(8δ). Monte Carlo on a
        // cycle (δ = 2): bound 1/16 = 0.0625; measured should comfortably
        // exceed it.
        let g = topology::cycle(16);
        let mut rng = StdRng::seed_from_u64(1234);
        let trials = 20_000;
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut hits = vec![0u32; g.m()];
        for _ in 0..trials {
            let m = proposal_matching(&g, &mut rng);
            for &(u, v) in m.pairs() {
                let k = edges.binary_search(&(u.min(v), u.max(v))).unwrap();
                hits[k] += 1;
            }
        }
        for (k, &h) in hits.iter().enumerate() {
            let p = h as f64 / trials as f64;
            assert!(p > 1.0 / 16.0, "edge {k} matched with prob {p} < 1/16");
        }
    }

    #[test]
    fn matching_new_rejects_overlap() {
        let result = std::panic::catch_unwind(|| Matching::new(vec![(0, 1), (1, 2)], 3));
        assert!(result.is_err());
    }

    #[test]
    fn matching_new_rejects_self_loop() {
        let result = std::panic::catch_unwind(|| Matching::new(vec![(2, 2)], 3));
        assert!(result.is_err());
    }

    #[test]
    fn empty_matching() {
        let m = Matching::new(vec![], 4);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let g = Graph::from_edges(4, std::iter::empty()).unwrap();
        assert!(m.is_maximal(&g)); // vacuously maximal on edgeless graph
    }
}
