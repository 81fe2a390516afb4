//! Dense symmetric matrices and graph-matrix assembly.
//!
//! The dense path is used for exact spectra of the moderate instances the
//! experiments sweep (n ≲ 2000); larger instances go through the
//! matrix-free [`crate::lanczos`] path.

use dlb_graphs::Graph;
use std::fmt;

/// A dense real symmetric `n × n` matrix, row-major.
///
/// Only symmetric data is ever stored (assemblers guarantee it; `set`
/// mirrors); the eigensolvers rely on exact symmetry.
#[derive(Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl fmt::Debug for SymMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymMatrix(n = {})", self.n)
    }
}

impl SymMatrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        assert!(n >= 1, "matrix dimension must be >= 1");
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from `f(i, j)`; `f` is evaluated only for `i ≤ j` and
    /// mirrored, guaranteeing symmetry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = f(i, j);
                m.data[i * n + j] = v;
                m.data[j * n + i] = v;
            }
        }
        m
    }

    /// Dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets `(i, j)` and `(j, i)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Raw row-major storage (length `n²`).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage — used by the in-place eigensolver.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Trace `Σ aᵢᵢ` — equals the sum of eigenvalues, a solver sanity check.
    pub fn trace(&self) -> f64 {
        (0..self.n).map(|i| self.data[i * self.n + i]).sum()
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)` — equals `sqrt(Σ λᵢ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute asymmetry `max |aᵢⱼ − aⱼᵢ|` (0 by construction; kept
    /// as a diagnostic for hand-built matrices in tests).
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }

    /// Graph Laplacian `L = D − A`.
    pub fn laplacian(g: &Graph) -> Self {
        let n = g.n();
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = g.degree(i as u32) as f64;
        }
        for (u, v) in g.edges() {
            let (u, v) = (u as usize, v as usize);
            m.data[u * n + v] = -1.0;
            m.data[v * n + u] = -1.0;
        }
        m
    }

    /// Adjacency matrix `A`.
    pub fn adjacency(g: &Graph) -> Self {
        let n = g.n();
        let mut m = Self::zeros(n);
        for (u, v) in g.edges() {
            let (u, v) = (u as usize, v as usize);
            m.data[u * n + v] = 1.0;
            m.data[v * n + u] = 1.0;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graphs::topology;

    #[test]
    fn identity_matvec() {
        let m = SymMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        m.matvec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn from_fn_is_symmetric() {
        let m = SymMatrix::from_fn(5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.asymmetry(), 0.0);
        assert_eq!(m.get(1, 4), m.get(4, 1));
    }

    #[test]
    fn laplacian_of_triangle() {
        let g = topology::complete(3);
        let l = SymMatrix::laplacian(&g);
        assert_eq!(l.get(0, 0), 2.0);
        assert_eq!(l.get(0, 1), -1.0);
        assert_eq!(l.trace(), 6.0); // trace = sum of degrees = 2m
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = topology::torus2d(3, 4);
        let l = SymMatrix::laplacian(&g);
        for i in 0..l.n() {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn laplacian_annihilates_constant_vector() {
        let g = topology::hypercube(3);
        let l = SymMatrix::laplacian(&g);
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        l.matvec(&x, &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = topology::path(4);
        let a = SymMatrix::adjacency(&g);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.trace(), 0.0);
    }

    #[test]
    fn quadratic_form_equals_edge_sum() {
        // x^T L x = sum over edges (x_u - x_v)^2 — the identity at the heart
        // of Lemma 3 / Theorem 4.
        let g = topology::petersen();
        let l = SymMatrix::laplacian(&g);
        let x: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let mut lx = vec![0.0; 10];
        l.matvec(&x, &mut lx);
        let quad: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let edge_sum: f64 = g
            .edges()
            .map(|(u, v)| (x[u as usize] - x[v as usize]).powi(2))
            .sum();
        assert!((quad - edge_sum).abs() < 1e-10);
    }

    #[test]
    fn frobenius_norm_identity() {
        assert!((SymMatrix::identity(9).frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension must be >= 1")]
    fn zero_dimension_rejected() {
        SymMatrix::zeros(0);
    }
}
