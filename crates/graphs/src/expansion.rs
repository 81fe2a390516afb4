//! Edge expansion and its spectral connections.
//!
//! The paper defines the edge expansion
//! `α = min_{S ⊂ V} |E(S, S̄)| / min(|S|, |S̄|)` and states its Theorem 4 "as
//! a function of the edge expansion value and the maximum degree" (via λ₂).
//! This module computes `α` exactly for small graphs (exhaustive subset
//! enumeration) and exposes the Cheeger-type inequalities that sandwich `α`
//! by `λ₂`, which the spectral experiments (E13) verify numerically:
//!
//! * lower bound: `α ≥ λ₂ / 2` (test-vector argument on the indicator of
//!   the optimal cut);
//! * upper bound: `α ≤ δ · sqrt(2 · λ₂ / d_min)` (discrete Cheeger via
//!   conductance, degraded through `δ/d_min` for irregular graphs).

use crate::graph::Graph;

/// Largest `n` for which [`exact_edge_expansion`] enumerates all cuts.
pub const EXACT_EXPANSION_MAX_N: usize = 24;

/// Exact edge expansion `α` by enumerating the `2^{n-1} − 1` nontrivial cuts
/// (node 0 is pinned to `S̄` by symmetry). Returns the expansion and one
/// optimal cut as a bitmask over nodes `1..n`.
///
/// # Panics
/// If `n > EXACT_EXPANSION_MAX_N` (cost `O(2^n · m)`), or `n < 2`.
pub fn exact_edge_expansion(g: &Graph) -> (f64, u32) {
    let n = g.n();
    assert!(n >= 2, "expansion needs n >= 2");
    assert!(
        n <= EXACT_EXPANSION_MAX_N,
        "exact expansion is exponential; n = {n} exceeds {EXACT_EXPANSION_MAX_N}"
    );
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut best = f64::INFINITY;
    let mut best_mask = 0u32;
    // Node 0 always in the complement: masks over nodes 1..n.
    let top = 1u32 << (n - 1);
    for mask in 1..top {
        let size = mask.count_ones() as usize; // |S|, S never contains node 0
        let small = size.min(n - size);
        let mut cut = 0usize;
        for &(u, v) in &edges {
            let in_s = |w: u32| w != 0 && (mask >> (w - 1)) & 1 == 1;
            if in_s(u) != in_s(v) {
                cut += 1;
            }
        }
        let alpha = cut as f64 / small as f64;
        if alpha < best {
            best = alpha;
            best_mask = mask;
        }
    }
    (best, best_mask)
}

/// Cheeger-type lower bound on the edge expansion: `α ≥ λ₂ / 2`.
#[inline]
pub fn expansion_lower_bound(lambda2: f64) -> f64 {
    lambda2 / 2.0
}

/// Cheeger-type upper bound on the edge expansion for a graph with maximum
/// degree `δ` and minimum degree `d_min`: `α ≤ δ · sqrt(2·λ₂ / d_min)`.
///
/// For regular graphs this reduces to the familiar `α ≤ d·sqrt(2 λ₂ / d)
/// = sqrt(2 d λ₂)`.
#[inline]
pub fn expansion_upper_bound(lambda2: f64, max_degree: u32, min_degree: u32) -> f64 {
    assert!(min_degree > 0, "upper bound needs min degree > 0");
    max_degree as f64 * (2.0 * lambda2 / min_degree as f64).sqrt()
}

/// Cut size `|E(S, S̄)|` for an explicit subset given as a boolean mask.
pub fn cut_size(g: &Graph, in_s: &[bool]) -> usize {
    assert_eq!(in_s.len(), g.n(), "mask length must equal n");
    g.edges()
        .filter(|&(u, v)| in_s[u as usize] != in_s[v as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn complete_graph_expansion() {
        // K_n: every cut has |S|·|S̄| edges; α = min over |S| of |S||S̄|/|S|
        // = min |S̄| over |S| <= n/2 ... = ceil(n/2).
        let g = topology::complete(6);
        let (alpha, _) = exact_edge_expansion(&g);
        assert!((alpha - 3.0).abs() < 1e-12, "alpha = {alpha}");
    }

    #[test]
    fn cycle_expansion() {
        // C_n: optimal cut is an arc of length n/2, cut 2 edges: α = 2/(n/2).
        let g = topology::cycle(8);
        let (alpha, _) = exact_edge_expansion(&g);
        assert!((alpha - 0.5).abs() < 1e-12, "alpha = {alpha}");
    }

    #[test]
    fn path_expansion() {
        // P_n: cut the middle edge: α = 1/(n/2).
        let g = topology::path(8);
        let (alpha, _) = exact_edge_expansion(&g);
        assert!((alpha - 0.25).abs() < 1e-12, "alpha = {alpha}");
    }

    #[test]
    fn star_expansion() {
        // S_n: any subset S of leaves has cut |S|: α = 1.
        let g = topology::star(8);
        let (alpha, _) = exact_edge_expansion(&g);
        assert!((alpha - 1.0).abs() < 1e-12, "alpha = {alpha}");
    }

    #[test]
    fn barbell_expansion_is_tiny() {
        // Barbell: the bridge is the bottleneck: α = 1/k.
        let g = topology::barbell(5);
        let (alpha, mask) = exact_edge_expansion(&g);
        assert!((alpha - 1.0 / 5.0).abs() < 1e-12, "alpha = {alpha}");
        // The optimal cut isolates one clique; node 0 (in S̄) is in the
        // first clique, so S = {k..2k} = nodes 5..10 -> bits 4..9 set.
        let s_nodes: Vec<u32> = (1..10u32).filter(|v| (mask >> (v - 1)) & 1 == 1).collect();
        assert_eq!(s_nodes, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn cut_size_matches_enumeration() {
        let g = topology::cycle(6);
        let mut mask = vec![false; 6];
        mask[0] = true;
        mask[1] = true;
        mask[2] = true;
        assert_eq!(cut_size(&g, &mask), 2);
    }

    #[test]
    fn hypercube_expansion() {
        // Q_d has α = 1 (dimension cut: 2^{d-1} edges / 2^{d-1} nodes).
        let g = topology::hypercube(3);
        let (alpha, _) = exact_edge_expansion(&g);
        assert!((alpha - 1.0).abs() < 1e-12, "alpha = {alpha}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn exact_expansion_rejects_large_graphs() {
        let g = topology::cycle(32);
        exact_edge_expansion(&g);
    }

    #[test]
    fn bounds_are_ordered() {
        // For any λ₂ > 0 the lower bound must not exceed the upper bound on
        // the graphs where we can check exactly (regular examples).
        for (g, lambda2) in [
            (
                topology::cycle(8),
                2.0 - 2.0 * (2.0 * std::f64::consts::PI / 8.0).cos(),
            ),
            (topology::complete(6), 6.0),
            (topology::hypercube(3), 2.0),
        ] {
            let (alpha, _) = exact_edge_expansion(&g);
            let lo = expansion_lower_bound(lambda2);
            let hi = expansion_upper_bound(lambda2, g.max_degree(), g.min_degree());
            assert!(lo <= alpha + 1e-9, "lower bound {lo} > alpha {alpha}");
            assert!(alpha <= hi + 1e-9, "alpha {alpha} > upper bound {hi}");
        }
    }
}
