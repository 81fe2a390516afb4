//! Diffusion matrices for the first/second-order baseline schemes.
//!
//! Cybenko's first-order scheme (FOS, \[3\], \[15\]) writes a round as
//! `L^{t+1} = M · L^t` with `m_ij = α_ij` on edges and
//! `m_ii = 1 − Σ_k α_ik`; the convergence rate is governed by
//! `γ = max_{μ ≠ 1} |μ(M)|` (second-largest eigenvalue modulus). The
//! second-order scheme (SOS, \[15\]) accelerates with
//! `L^{t+1} = β·M·L^t + (1 − β)·L^{t-1}`, optimal at
//! `β = 2 / (1 + sqrt(1 − γ²))`.
//!
//! The BFH paper's own Algorithm 1 uses per-edge factors
//! `α_ij = 1/(4·max(d_i, d_j))`; its induced first-order matrix is also
//! assembled here so experiments can compare the algebraic view with the
//! potential-function view.

use crate::eigen::symmetric_eigen;
use crate::matrix::SymMatrix;
use crate::tridiag::EigenError;
use dlb_graphs::Graph;

/// First-order diffusion matrix with uniform factor `α = 1/(δ+1)`
/// (Cybenko's canonical choice — always nonnegative-diagonal and doubly
/// stochastic on any graph).
pub fn fos_matrix(g: &Graph) -> SymMatrix {
    let alpha = 1.0 / (g.max_degree() as f64 + 1.0);
    diffusion_matrix_with(g, |_, _| alpha)
}

/// Diffusion matrix induced by the BFH Algorithm-1 transfer rule
/// `α_ij = 1/(4·max(d_i, d_j))`.
pub fn bfh_matrix(g: &Graph) -> SymMatrix {
    diffusion_matrix_with(g, |di, dj| 1.0 / (4.0 * di.max(dj) as f64))
}

/// Generic symmetric diffusion matrix: `m_ij = alpha(d_i, d_j)` on edges,
/// diagonal `1 − Σ`.
///
/// # Panics
/// If any diagonal entry would be negative (the scheme would not be a
/// proper averaging and `γ ≤ 1` is no longer guaranteed).
pub fn diffusion_matrix_with<F>(g: &Graph, mut alpha: F) -> SymMatrix
where
    F: FnMut(u32, u32) -> f64,
{
    let n = g.n();
    let mut m = SymMatrix::zeros(n);
    let mut row_sum = vec![0.0f64; n];
    for (u, v) in g.edges() {
        let a = alpha(g.degree(u), g.degree(v));
        assert!(a >= 0.0, "negative diffusion factor on edge ({u},{v})");
        m.set(u as usize, v as usize, a);
        row_sum[u as usize] += a;
        row_sum[v as usize] += a;
    }
    for (i, &s) in row_sum.iter().enumerate() {
        assert!(
            s <= 1.0 + 1e-12,
            "diffusion factors at node {i} sum to {s} > 1: not an averaging matrix"
        );
        m.set(i, i, 1.0 - s);
    }
    m
}

/// `γ`: the second-largest eigenvalue *modulus* of a stochastic symmetric
/// diffusion matrix, i.e. `max_{μᵢ ≠ μ_max} |μᵢ|` where `μ_max = 1` for a
/// connected graph.
pub fn gamma(m: &SymMatrix) -> Result<f64, EigenError> {
    let eig = symmetric_eigen(m, false)?;
    let vals = &eig.values;
    let n = vals.len();
    assert!(n >= 2, "γ undefined for a 1×1 matrix");
    // Largest eigenvalue is last (ascending order); γ is the max modulus of
    // the rest.
    let second_largest = vals[n - 2];
    let smallest = vals[0];
    Ok(second_largest.abs().max(smallest.abs()))
}

/// Optimal second-order-scheme parameter `β = 2 / (1 + sqrt(1 − γ²))`
/// (\[15\], Section on SOS).
pub fn sos_optimal_beta(gamma: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&gamma),
        "SOS needs 0 <= γ < 1 (got {gamma})"
    );
    2.0 / (1.0 + (1.0 - gamma * gamma).sqrt())
}

/// Rounds needed by FOS to shrink the ℓ₂ error by `ε` according to the
/// algebraic bound `‖e(t)‖ ≤ γᵗ·‖e(0)‖`: `t = ln(1/ε)/ln(1/γ)`.
pub fn fos_round_bound(gamma: f64, eps: f64) -> f64 {
    assert!(gamma > 0.0 && gamma < 1.0, "need 0 < γ < 1 (got {gamma})");
    assert!(eps > 0.0 && eps < 1.0);
    (1.0 / eps).ln() / (1.0 / gamma).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graphs::topology;

    #[test]
    fn fos_matrix_rows_sum_to_one() {
        let g = topology::torus2d(3, 4);
        let m = fos_matrix(&g);
        for i in 0..m.n() {
            let s: f64 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn bfh_matrix_diagonal_dominant() {
        // α_ij = 1/(4 max(d_i,d_j)) gives m_ii >= 1 - d_i/(4 d_i) = 3/4.
        let g = topology::complete(10);
        let m = bfh_matrix(&g);
        for i in 0..m.n() {
            assert!(m.get(i, i) >= 0.75 - 1e-12);
        }
    }

    #[test]
    fn gamma_of_complete_graph_fos() {
        // K_n with α = 1/n: M = (1/n) J; eigenvalues 1 and 0^{n-1}: γ = 0.
        let g = topology::complete(6);
        let m = fos_matrix(&g);
        let gam = gamma(&m).unwrap();
        assert!(gam.abs() < 1e-9, "γ = {gam}");
    }

    #[test]
    fn gamma_of_cycle_fos_closed_form() {
        // C_n, α = 1/3: μ_k = 1 − (2/3)(1 − cos(2πk/n)).
        let n = 12;
        let g = topology::cycle(n);
        let m = fos_matrix(&g);
        let gam = gamma(&m).unwrap();
        let mut expect = 0.0f64;
        for k in 1..n {
            let mu = 1.0
                - (2.0 / 3.0) * (1.0 - (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos());
            expect = expect.max(mu.abs());
        }
        assert!((gam - expect).abs() < 1e-9, "γ = {gam}, want {expect}");
    }

    #[test]
    fn gamma_strictly_less_than_one_on_connected() {
        for g in [
            topology::path(8),
            topology::hypercube(3),
            topology::petersen(),
        ] {
            let gam = gamma(&fos_matrix(&g)).unwrap();
            assert!(gam < 1.0 - 1e-9, "γ = {gam}");
        }
    }

    #[test]
    fn gamma_one_on_disconnected() {
        let g = dlb_graphs::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let gam = gamma(&fos_matrix(&g)).unwrap();
        assert!((gam - 1.0).abs() < 1e-9, "γ = {gam}");
    }

    #[test]
    fn sos_beta_range() {
        assert!((sos_optimal_beta(0.0) - 1.0).abs() < 1e-12);
        let b = sos_optimal_beta(0.9);
        assert!(b > 1.0 && b < 2.0, "β = {b}");
        // β increases with γ.
        assert!(sos_optimal_beta(0.99) > b);
    }

    #[test]
    fn fos_round_bound_monotone_in_eps() {
        let t1 = fos_round_bound(0.9, 1e-2);
        let t2 = fos_round_bound(0.9, 1e-4);
        assert!(t2 > t1);
        assert!((t2 - 2.0 * t1).abs() < 1e-9); // log-linear in 1/ε
    }

    #[test]
    #[should_panic(expected = "not an averaging matrix")]
    fn over_aggressive_alpha_rejected() {
        let g = topology::complete(8);
        // α = 1/2 on K_8: row sums 3.5 > 1.
        diffusion_matrix_with(&g, |_, _| 0.5);
    }
}
