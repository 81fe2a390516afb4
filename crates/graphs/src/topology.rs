//! Topology families from the diffusion load-balancing literature.
//!
//! Each constructor documents the spectral parameters relevant to the
//! paper's bounds: the maximum degree `δ` and (where known in closed form)
//! the second-smallest Laplacian eigenvalue `λ₂`. The closed forms are
//! implemented — and cross-checked against the numerical eigensolvers — in
//! `dlb-spectral::closed_form`.
//!
//! Construction takes one of two paths:
//!
//! - **Direct CSR** — [`path`], [`cycle`], [`grid2d`], [`torus2d`],
//!   [`torus3d`] and [`hypercube`] know every node's neighbours in closed
//!   form, so they emit each neighbour row in node order and the graph's
//!   crate-private row finisher derives the offsets and the canonical edge
//!   list in one pass, with no global sort (only a torus's wrap rows,
//!   which arrive out of order, are sorted — a handful of entries each).
//! - **[`GraphBuilder`]** — every other family (the random generators,
//!   the cliques, trees, wheels and other small fixtures) pushes an edge
//!   list, which the builder sorts and deduplicates. This is also the
//!   tests' reference: each direct generator must build a graph `==` to
//!   the builder's on the same edges.

use crate::graph::{Graph, GraphBuilder};
use rand::seq::SliceRandom;
use rand::Rng;

/// Path (line) graph `P_n`: nodes `0..n`, edges `(i, i+1)`.
///
/// `δ = 2`, `λ₂ = 2 − 2·cos(π/n)` — the slowest-mixing standard topology and
/// the paper's introductory example of a non-balanceable discrete instance
/// (load `ℓ_i = i` is stable under the discrete protocol).
pub fn path(n: usize) -> Graph {
    let last = n.saturating_sub(1) as u32;
    Graph::from_rows(n, 2 * last as usize, |v, row| {
        if v > 0 {
            row.push(v - 1);
        }
        if v < last {
            row.push(v + 1);
        }
    })
    .expect("n >= 1")
}

/// Cycle (ring) `C_n`: the path plus the wrap-around edge.
///
/// `δ = 2`, `λ₂ = 2 − 2·cos(2π/n)`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3 (n = {n})");
    let last = n as u32 - 1;
    Graph::from_rows(n, 2 * n, |v, row| {
        row.push(if v == 0 { last } else { v - 1 });
        row.push(if v == last { 0 } else { v + 1 });
    })
    .expect("valid cycle rows")
}

/// Complete graph `K_n`. `δ = n − 1`, `λ₂ = n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2).expect("n >= 1");
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(u, v).expect("valid complete edge");
        }
    }
    b.build()
}

/// Star `S_n`: node 0 is the hub. `δ = n − 1`, `λ₂ = 1`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs n >= 2 (n = {n})");
    let mut b = GraphBuilder::with_capacity(n, n - 1).expect("n >= 2");
    for v in 1..n as u32 {
        b.add_edge(0, v).expect("valid star edge");
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`: parts `0..a` and `a..a+b`.
///
/// `δ = max(a, b)`, `λ₂ = min(a, b)`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a >= 1 && b >= 1, "both parts must be non-empty");
    let n = a + b;
    let mut g = GraphBuilder::with_capacity(n, a * b).expect("n >= 2");
    for u in 0..a as u32 {
        for v in a as u32..n as u32 {
            g.add_edge(u, v).expect("valid bipartite edge");
        }
    }
    g.build()
}

/// Complete binary tree with `n` nodes in heap order (children of `i` are
/// `2i+1`, `2i+2`). `δ = 3`.
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1)).expect("n >= 1");
    for i in 1..n as u32 {
        b.add_edge((i - 1) / 2, i).expect("valid tree edge");
    }
    b.build()
}

/// Two-dimensional grid (mesh) `rows × cols` without wrap-around. `δ = 4`,
/// `λ₂ = (2 − 2cos(π/rows)) + 0` … the grid Laplacian spectrum is the sum of
/// two path spectra; `λ₂ = 2 − 2·cos(π/max(rows, cols))`.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let n = rows * cols;
    let slots = 2 * (rows * (cols - 1) + cols * (rows - 1));
    let (rows, cols) = (rows as u32, cols as u32);
    Graph::from_rows(n, slots, |v, row| {
        let (r, c) = (v / cols, v % cols);
        if r > 0 {
            row.push(v - cols);
        }
        if c > 0 {
            row.push(v - 1);
        }
        if c + 1 < cols {
            row.push(v + 1);
        }
        if r + 1 < rows {
            row.push(v + cols);
        }
    })
    .expect("valid grid rows")
}

/// Two-dimensional torus `rows × cols` (grid with wrap-around).
///
/// Requires `rows, cols ≥ 3` so the wrap edges are distinct from the mesh
/// edges (a 2-torus dimension would create parallel edges, which the simple-
/// graph model merges, silently changing the degree). `δ = 4`,
/// `λ₂ = 2 − 2·cos(2π/max(rows, cols))`.
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
    let n = rows * cols;
    let (rows, cols) = (rows as u32, cols as u32);
    // Up, left, right, down: ascending except on the wrap rows.
    Graph::from_rows(n, 4 * n, |v, row| {
        let (r, c) = (v / cols, v % cols);
        let at = |r: u32, c: u32| r * cols + c;
        row.push(at(if r == 0 { rows - 1 } else { r - 1 }, c));
        row.push(at(r, if c == 0 { cols - 1 } else { c - 1 }));
        row.push(at(r, if c + 1 == cols { 0 } else { c + 1 }));
        row.push(at(if r + 1 == rows { 0 } else { r + 1 }, c));
    })
    .expect("valid torus rows")
}

/// `dim`-dimensional hypercube `Q_dim` on `n = 2^dim` nodes.
///
/// `δ = dim`, `λ₂ = 2` (independent of `n` — the classic fast-balancing
/// topology).
pub fn hypercube(dim: u32) -> Graph {
    assert!(
        (1..=30).contains(&dim),
        "hypercube dimension out of range: {dim}"
    );
    let n = 1usize << dim;
    let mask = (n - 1) as u32;
    // Ascending rows: clear the set bits high→low, then set the clear
    // bits low→high.
    Graph::from_rows(n, n * dim as usize, |v, row| {
        let mut set = v;
        while set != 0 {
            let bit = 1 << (31 - set.leading_zeros());
            row.push(v ^ bit);
            set ^= bit;
        }
        let mut clear = !v & mask;
        while clear != 0 {
            row.push(v | 1 << clear.trailing_zeros());
            clear &= clear - 1;
        }
    })
    .expect("valid hypercube rows")
}

/// Undirected de Bruijn graph on `n = 2^dim` nodes: `v` is adjacent to
/// `2v mod n` and `2v + 1 mod n` (self-loops dropped, parallel edges
/// merged). Constant degree ≤ 4; diameter `dim`. One of the topologies
/// analysed by Rabani–Sinclair–Wanka \[16\].
pub fn de_bruijn(dim: u32) -> Graph {
    assert!(
        (1..=30).contains(&dim),
        "de Bruijn dimension out of range: {dim}"
    );
    let n = 1usize << dim;
    let mask = (n - 1) as u32;
    let mut b = GraphBuilder::with_capacity(n, 2 * n).expect("n >= 2");
    for v in 0..n as u32 {
        for succ in [(v << 1) & mask, ((v << 1) | 1) & mask] {
            if succ != v {
                b.add_edge(v, succ).expect("valid de Bruijn edge");
            }
        }
    }
    b.build()
}

/// Random `d`-regular simple graph via the configuration model with
/// edge-swap repair (a uniformly shuffled stub pairing whose self-loops and
/// parallel edges are removed by random double-edge swaps).
///
/// Random regular graphs are expanders with high probability: `λ₂ ≈ d − 2√(d−1)`
/// for large `n`, which makes them the "good" end of the `λ₂/δ` spectrum the
/// paper's bounds range over. Plain rejection sampling fails already at
/// `d = 8` (acceptance `≈ e^{−(d²−1)/4}`), hence the repair pass.
///
/// # Panics
/// If `n·d` is odd, `d ≥ n`, or repair does not converge (practically
/// impossible for `d < n/4`).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d >= 1 && d < n, "need 1 <= d < n (d = {d}, n = {n})");
    assert!(
        (n * d).is_multiple_of(2),
        "n * d must be even (n = {n}, d = {d})"
    );
    const MAX_ATTEMPTS: usize = 64;
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for _ in 0..MAX_ATTEMPTS {
        stubs.clear();
        for v in 0..n as u32 {
            for _ in 0..d {
                stubs.push(v);
            }
        }
        stubs.shuffle(rng);
        let mut pairs: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        if repair_pairing(&mut pairs, rng) {
            let edges = pairs.iter().map(|&(u, v)| (u.min(v), u.max(v)));
            return Graph::from_edges(n, edges).expect("repaired pairing is simple");
        }
    }
    panic!("random_regular({n}, {d}): repair did not converge after {MAX_ATTEMPTS} attempts");
}

/// Repairs a stub pairing in place by random double-edge swaps until it is a
/// simple graph. Returns `false` if the swap budget is exhausted.
fn repair_pairing<R: Rng + ?Sized>(pairs: &mut [(u32, u32)], rng: &mut R) -> bool {
    use std::collections::HashSet;
    let m = pairs.len();
    let budget = 200 * m + 10_000;
    for _ in 0..budget {
        // Index the multiset of canonical edges to find conflicts.
        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m);
        let mut bad: Vec<usize> = Vec::new();
        for (k, &(u, v)) in pairs.iter().enumerate() {
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                bad.push(k);
            }
        }
        if bad.is_empty() {
            return true;
        }
        // Swap each conflicting pair with a uniformly random partner pair.
        // This is not an exactly-uniform sampler, but the deviation is
        // O(d²/n) — irrelevant for its role here (expander instances).
        for &k in &bad {
            let j = rng.gen_range(0..m);
            if j == k {
                continue;
            }
            let (a, b) = pairs[k];
            let (c, dd) = pairs[j];
            if rng.gen::<bool>() {
                pairs[k] = (a, c);
                pairs[j] = (b, dd);
            } else {
                pairs[k] = (a, dd);
                pairs[j] = (b, c);
            }
        }
    }
    false
}

/// Erdős–Rényi `G(n, p)`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1] (p = {p})");
    let mut b = GraphBuilder::new(n).expect("n >= 1");
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < p {
                b.add_edge(u, v).expect("valid gnp edge");
            }
        }
    }
    b.build()
}

/// `G(n, p)` conditioned on connectivity: resamples until connected.
///
/// # Panics
/// After 1000 failed attempts (choose `p` above the connectivity threshold
/// `ln n / n`).
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    for _ in 0..1000 {
        let g = gnp(n, p, rng);
        if crate::traversal::is_connected(&g) {
            return g;
        }
    }
    panic!("gnp_connected({n}, {p}): no connected sample in 1000 attempts");
}

/// Three-dimensional torus `a × b × c` (wrap-around in all dimensions).
///
/// Requires every dimension `≥ 3`. `δ = 6`,
/// `λ₂ = 2 − 2·cos(2π/max(a,b,c))`.
pub fn torus3d(a: usize, b: usize, c: usize) -> Graph {
    assert!(
        a >= 3 && b >= 3 && c >= 3,
        "torus3d needs all dimensions >= 3"
    );
    let n = a * b * c;
    let (a, b, c) = (a as u32, b as u32, c as u32);
    let prev = |i: u32, len: u32| if i == 0 { len - 1 } else { i - 1 };
    let next = |i: u32, len: u32| if i + 1 == len { 0 } else { i + 1 };
    // -x, -y, -z, +z, +y, +x: ascending except on the wrap rows.
    Graph::from_rows(n, 6 * n, |v, row| {
        let (x, y, z) = (v / (b * c), v / c % b, v % c);
        let at = |x: u32, y: u32, z: u32| (x * b + y) * c + z;
        row.push(at(prev(x, a), y, z));
        row.push(at(x, prev(y, b), z));
        row.push(at(x, y, prev(z, c)));
        row.push(at(x, y, next(z, c)));
        row.push(at(x, next(y, b), z));
        row.push(at(next(x, a), y, z));
    })
    .expect("valid torus3d rows")
}

/// Wheel `W_n`: a hub (node 0) connected to every node of an outer
/// `(n−1)`-cycle. `δ = n − 1`, `λ₂ = 3 − 2·cos(2π/(n−1))`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs n >= 4 (n = {n})");
    let rim = n - 1;
    let mut b = GraphBuilder::with_capacity(n, 2 * rim).expect("n >= 4");
    for i in 0..rim as u32 {
        b.add_edge(0, i + 1).expect("valid spoke");
        b.add_edge(i + 1, (i + 1) % rim as u32 + 1)
            .expect("valid rim edge");
    }
    b.build()
}

/// Lollipop graph: a `K_k` clique attached to a path of `p` nodes — the
/// classic worst case for hitting times, with `λ₂ = O(1/(k·p²))`; an even
/// harsher instance than the barbell for the paper's `4δ/λ₂` bound.
pub fn lollipop(k: usize, p: usize) -> Graph {
    assert!(
        k >= 2 && p >= 1,
        "lollipop needs k >= 2 clique nodes and p >= 1 path nodes"
    );
    let n = k + p;
    let mut b = GraphBuilder::with_capacity(n, k * (k - 1) / 2 + p).expect("n >= 3");
    for u in 0..k as u32 {
        for v in (u + 1)..k as u32 {
            b.add_edge(u, v).expect("valid clique edge");
        }
    }
    for i in 0..p as u32 {
        let prev = if i == 0 {
            k as u32 - 1
        } else {
            k as u32 + i - 1
        };
        b.add_edge(prev, k as u32 + i).expect("valid path edge");
    }
    b.build()
}

/// The Petersen graph — a fixed 3-regular test graph with known spectrum
/// (`λ₂ = 2`): useful as an eigensolver fixture.
pub fn petersen() -> Graph {
    // Outer 5-cycle 0..5, inner pentagram 5..10, spokes i -- i+5.
    let mut edges = Vec::with_capacity(15);
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5)); // outer cycle
        edges.push((5 + i, 5 + (i + 2) % 5)); // pentagram
        edges.push((i, i + 5)); // spoke
    }
    Graph::from_edges(10, edges).expect("Petersen graph is valid")
}

/// Barbell graph: two `K_k` cliques joined by a single bridge edge.
///
/// The canonical *bad* case for diffusion: `λ₂ = Θ(1/k²)`-ish while `δ = k`,
/// so the paper's bound `4δ·ln(1/ε)/λ₂` becomes very large. Used in the
/// experiments to probe the slow end of the spectrum.
pub fn barbell(k: usize) -> Graph {
    assert!(k >= 2, "barbell needs cliques of size >= 2");
    let n = 2 * k;
    let mut b = GraphBuilder::with_capacity(n, k * (k - 1) + 1).expect("n >= 4");
    for u in 0..k as u32 {
        for v in (u + 1)..k as u32 {
            b.add_edge(u, v).expect("valid clique edge");
            b.add_edge(u + k as u32, v + k as u32)
                .expect("valid clique edge");
        }
    }
    b.add_edge(k as u32 - 1, k as u32)
        .expect("valid bridge edge");
    b.build()
}

/// A named standard topology, used by the experiment harness to sweep the
/// families the literature evaluates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `P_n`.
    Path,
    /// `C_n`.
    Cycle,
    /// √n × √n mesh (n must be a perfect square).
    Grid2d,
    /// √n × √n torus (n must be a perfect square with √n ≥ 3).
    Torus2d,
    /// `Q_log2(n)` (n must be a power of two).
    Hypercube,
    /// Undirected de Bruijn on n = 2^k nodes.
    DeBruijn,
    /// Random d-regular with d = 8 (seeded).
    RandomRegular8,
    /// `K_n`.
    Complete,
}

impl Topology {
    /// All sweepable topologies, in presentation order.
    pub const ALL: [Topology; 8] = [
        Topology::Path,
        Topology::Cycle,
        Topology::Grid2d,
        Topology::Torus2d,
        Topology::Hypercube,
        Topology::DeBruijn,
        Topology::RandomRegular8,
        Topology::Complete,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Path => "path",
            Topology::Cycle => "cycle",
            Topology::Grid2d => "grid2d",
            Topology::Torus2d => "torus2d",
            Topology::Hypercube => "hypercube",
            Topology::DeBruijn => "debruijn",
            Topology::RandomRegular8 => "rreg8",
            Topology::Complete => "complete",
        }
    }

    /// Instantiates the topology on (approximately) `n` nodes; `rng` is only
    /// used by randomized families. Panics if `n` is incompatible with the
    /// family (e.g. not a perfect square for the torus).
    pub fn build<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Graph {
        match self {
            Topology::Path => path(n),
            Topology::Cycle => cycle(n),
            Topology::Grid2d => {
                let side = exact_sqrt(n).expect("grid2d needs a perfect square n");
                grid2d(side, side)
            }
            Topology::Torus2d => {
                let side = exact_sqrt(n).expect("torus2d needs a perfect square n");
                torus2d(side, side)
            }
            Topology::Hypercube => {
                let dim = exact_log2(n).expect("hypercube needs n = 2^k");
                hypercube(dim)
            }
            Topology::DeBruijn => {
                let dim = exact_log2(n).expect("de Bruijn needs n = 2^k");
                de_bruijn(dim)
            }
            Topology::RandomRegular8 => random_regular(n, 8.min(n - 1) & !1, rng),
            Topology::Complete => complete(n),
        }
    }
}

fn exact_sqrt(n: usize) -> Option<usize> {
    let s = (n as f64).sqrt().round() as usize;
    (s * s == n).then_some(s)
}

fn exact_log2(n: usize) -> Option<u32> {
    n.is_power_of_two().then(|| n.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(4), 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn path_single_node() {
        let g = path(1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.m(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "cycle needs n >= 3")]
    fn cycle_too_small() {
        cycle(2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(7);
        assert_eq!(g.m(), 21);
        assert_eq!(g.max_degree(), 6);
        assert_eq!(g.min_degree(), 6);
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.m(), 8);
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        assert_eq!(g.degree(0), 4); // left part sees all of right
        assert_eq!(g.degree(5), 3);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn grid_shape() {
        let g = grid2d(3, 4);
        assert_eq!(g.n(), 12);
        // edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17
        assert_eq!(g.m(), 17);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 2); // corner
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_shape() {
        let g = torus2d(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 40);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "torus needs both dimensions >= 3")]
    fn torus_too_small() {
        torus2d(2, 5);
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn hypercube_dim1_is_single_edge() {
        let g = hypercube(1);
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn de_bruijn_shape() {
        let g = de_bruijn(4);
        assert_eq!(g.n(), 16);
        assert!(g.max_degree() <= 4);
        assert!(is_connected(&g));
        // 0 -> 0 and n-1 -> n-1 self loops must be gone.
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in [2usize, 3, 4, 8] {
            let g = random_regular(64, d, &mut rng);
            for v in g.nodes() {
                assert_eq!(g.degree(v) as usize, d, "degree mismatch for d={d}");
            }
        }
        // d >= 3 random regular graphs are connected whp.
        let g = random_regular(128, 4, &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_odd_product() {
        let mut rng = StdRng::seed_from_u64(1);
        random_regular(5, 3, &mut rng);
    }

    #[test]
    fn gnp_extreme_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn gnp_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp_connected(40, 0.2, &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn petersen_is_cubic() {
        let g = petersen();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 2 * 10 + 1);
        assert_eq!(g.max_degree(), 5); // bridge endpoints have degree k
        assert!(is_connected(&g));
    }

    #[test]
    fn torus3d_shape() {
        let g = torus3d(3, 4, 5);
        assert_eq!(g.n(), 60);
        assert_eq!(g.m(), 3 * 60);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6);
        }
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "all dimensions >= 3")]
    fn torus3d_too_small() {
        torus3d(2, 3, 3);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(8);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 14); // 7 spokes + 7 rim edges
        assert_eq!(g.degree(0), 7);
        for v in 1..8 {
            assert_eq!(g.degree(v), 3);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn wheel_minimum_size_is_k4() {
        let g = wheel(4);
        assert_eq!(g.m(), 6); // W_4 = K_4
        assert_eq!(g.min_degree(), 3);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(5, 3);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 10 + 3);
        assert_eq!(g.degree(4), 5); // clique node carrying the path
        assert_eq!(g.degree(7), 1); // end of the stick
        assert!(is_connected(&g));
    }

    #[test]
    fn lollipop_single_path_node() {
        let g = lollipop(3, 1);
        assert_eq!(g.n(), 4);
        assert!(is_connected(&g));
    }

    /// The `GraphBuilder` reference for a direct generator: the same
    /// edge set, pushed as an edge list.
    fn reference(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        Graph::from_edges(n, edges.into_iter().map(|(u, v)| (u as u32, v as u32))).unwrap()
    }

    fn path_ref(n: usize) -> Graph {
        reference(n, (1..n).map(|i| (i - 1, i)))
    }

    fn cycle_ref(n: usize) -> Graph {
        reference(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    fn grid_ref(rows: usize, cols: usize) -> Graph {
        let idx = |r, c| r * cols + c;
        let right = (0..rows).flat_map(|r| (1..cols).map(move |c| (idx(r, c - 1), idx(r, c))));
        let down = (1..rows).flat_map(|r| (0..cols).map(move |c| (idx(r - 1, c), idx(r, c))));
        reference(rows * cols, right.chain(down))
    }

    fn torus_ref(rows: usize, cols: usize) -> Graph {
        let idx = |r, c| r * cols + c;
        let edges = (0..rows).flat_map(|r| {
            (0..cols).flat_map(move |c| {
                [
                    (idx(r, c), idx(r, (c + 1) % cols)),
                    (idx(r, c), idx((r + 1) % rows, c)),
                ]
            })
        });
        reference(rows * cols, edges)
    }

    fn torus3d_ref(a: usize, b: usize, c: usize) -> Graph {
        let idx = |x, y, z| (x * b + y) * c + z;
        let mut edges = Vec::new();
        for x in 0..a {
            for y in 0..b {
                for z in 0..c {
                    edges.push((idx(x, y, z), idx((x + 1) % a, y, z)));
                    edges.push((idx(x, y, z), idx(x, (y + 1) % b, z)));
                    edges.push((idx(x, y, z), idx(x, y, (z + 1) % c)));
                }
            }
        }
        reference(a * b * c, edges)
    }

    fn hypercube_ref(dim: u32) -> Graph {
        let n = 1usize << dim;
        let edges = (0..n).flat_map(|v| (0..dim).map(move |bit| (v, v ^ (1 << bit))));
        reference(n, edges.filter(|&(v, u)| v < u))
    }

    #[test]
    fn direct_generators_equal_builder_reference() {
        for n in [1, 2, 3, 10] {
            assert_eq!(path(n), path_ref(n), "path({n})");
        }
        for n in [3, 4, 11] {
            assert_eq!(cycle(n), cycle_ref(n), "cycle({n})");
        }
        for (r, c) in [(1, 1), (1, 5), (4, 1), (2, 2), (3, 4), (7, 5)] {
            assert_eq!(grid2d(r, c), grid_ref(r, c), "grid2d({r}, {c})");
        }
        for (r, c) in [(3, 3), (3, 7), (17, 3), (4, 5), (16, 16)] {
            assert_eq!(torus2d(r, c), torus_ref(r, c), "torus2d({r}, {c})");
        }
        for (a, b, c) in [(3, 3, 3), (3, 4, 5), (5, 4, 3), (6, 6, 6)] {
            assert_eq!(
                torus3d(a, b, c),
                torus3d_ref(a, b, c),
                "torus3d({a}, {b}, {c})"
            );
        }
        for dim in 1..=12 {
            assert_eq!(hypercube(dim), hypercube_ref(dim), "hypercube({dim})");
        }
    }

    #[test]
    #[ignore = "benchmark scale: run in release with --ignored"]
    fn direct_generators_equal_builder_reference_at_benchmark_scale() {
        assert_eq!(torus2d(1000, 1000), torus_ref(1000, 1000));
        assert_eq!(hypercube(18), hypercube_ref(18));
    }

    #[test]
    fn topology_enum_builds_all() {
        let mut rng = StdRng::seed_from_u64(11);
        for topo in Topology::ALL {
            let g = topo.build(64, &mut rng);
            assert!(g.n() == 64, "{:?} built wrong size", topo);
            assert!(is_connected(&g), "{:?} not connected", topo);
        }
    }

    #[test]
    fn topology_names_unique() {
        let mut names: Vec<_> = Topology::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Topology::ALL.len());
    }
}
