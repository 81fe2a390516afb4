//! The per-slot divisor table of the capacity-weighted protocols.
//!
//! Algorithm 1 divides every per-edge transfer by `k·max(dᵢ, dⱼ)` (the
//! paper fixes `k = 4`). The canonical diffusion protocols derive that
//! divisor from the two degrees inside the gather (see
//! `dlb_core::kernels`) and store no table. The heterogeneous protocols
//! scale each edge by a per-slot capacity coefficient as well, and read
//! their divisors from this table, aligned with the CSR neighbour slots
//! (index with [`Graph::neighbor_offset`]). Their gathers read every slot
//! and their flow tallies read each edge's upper slot, so one table serves
//! both. It computes `k * max as f64` exactly as the kernels do, so a
//! divisor has the same bits wherever it comes from.
//!
//! The table stores the **divisor** `k·max(dᵢ, dⱼ)` rather than its
//! reciprocal: dividing by it performs bit-for-bit the same floating-point
//! operation as the on-the-fly kernel (multiplying by a reciprocal would
//! change the last-ulp rounding whenever the divisor is not a power of
//! two, breaking the exact golden-value equivalence the test-suite pins).

use crate::Graph;

/// CSR-slot-aligned divisors `k·max(dᵢ, dⱼ)` as `f64`.
///
/// Slot `Graph::neighbor_offset(v) + i` holds the divisor for the edge from
/// `v` to `neighbors(v)[i]`; both orientations of an edge carry the same
/// value. Length `2m`.
pub fn csr_divisors(g: &Graph, k: f64) -> Vec<f64> {
    assert!(k > 0.0 && k.is_finite(), "divisor factor must be positive");
    let mut out = Vec::with_capacity(g.degree_sum());
    for v in g.nodes() {
        let dv = g.degree(v);
        for &u in g.neighbors(v) {
            out.push(k * dv.max(g.degree(u)) as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn csr_divisors_match_on_the_fly() {
        let g = topology::barbell(5);
        let w = csr_divisors(&g, 4.0);
        assert_eq!(w.len(), g.degree_sum());
        for v in g.nodes() {
            let off = g.neighbor_offset(v);
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let expect = 4.0 * g.degree(v).max(g.degree(u)) as f64;
                assert_eq!(w[off + i], expect, "slot ({v},{u})");
            }
        }
    }

    #[test]
    fn csr_divisors_symmetric_across_orientations() {
        let g = topology::wheel(9);
        let w = csr_divisors(&g, 4.0);
        for (u, v) in g.edges() {
            let iu = g.neighbors(u).binary_search(&v).unwrap();
            let iv = g.neighbors(v).binary_search(&u).unwrap();
            assert_eq!(w[g.neighbor_offset(u) + iu], w[g.neighbor_offset(v) + iv]);
        }
    }
}
