//! The gather kernel: one sparse gather in two shapes.
//!
//! Algorithm 1's round is one sparse gather — per node `v`,
//! `ℓᵥ' = ℓᵥ + Σᵤ (ℓᵤ − ℓᵥ)/(k·max(dᵥ, dᵤ))` over the CSR neighbourhood,
//! with `k = 4` in the paper — and all three canonical protocols
//! ([`crate::continuous`], [`crate::discrete`]) run the *same* loop,
//! differing only in the load scalar (`f64` vs `i64` tokens) and the
//! factor `k`. This module factors that loop into:
//!
//! * [`DiffusionLoad`] — the scalar abstraction (accumulator type,
//!   divisor, per-neighbour quotient, ordered accumulate) instantiated
//!   once for `f64` and once for `i64`, so the kernel is written once;
//! * [`GatherSpec`] — what a protocol exposes to opt into dispatch: its
//!   graph plus the divisor factor `k`;
//! * [`KernelKind`] — the runtime-selectable kernel flavour (`scalar`,
//!   `unrolled`), overridable via the `DLB_KERNEL` environment variable;
//! * the batch entry points `gather_span` / `gather_contiguous`, which
//!   walk a [`GatherPlan`]'s degree runs in L2-sized tiles.
//!
//! The gather has two shapes. The **reference loop** (`gather_node`)
//! gathers one node at a time, each divisor derived from the two
//! degrees; it is all of [`KernelKind::Scalar`]. [`KernelKind::Unrolled`]
//! sends the 8-aligned **lane blocks** of every run whose slots share
//! one divisor and whose degree is `1..=32` to the lane-block kernel,
//! and every other node — run heads and tails, runs with per-slot
//! divisors, degree 0, degree above 32 — to the reference loop.
//!
//! ## Lane blocks: vectorize across nodes
//!
//! A node's new load is a chain of dependent adds, one per slot, in CSR
//! order; that chain cannot be reordered. The lane-block kernel therefore
//! vectorizes *across* 8 consecutive nodes, never within one node's sum:
//! for slot `j` it computes the 8 nodes' `j`-th quotients side by side,
//! and lane `i` adds its own quotient to its own accumulator. Each lane
//! still adds its quotients in its own CSR order, so the bits are the
//! reference loop's, for `f64` and `i64` alike. The plan's slot mask
//! ([`GatherPlan::lane_mask`]) says which slots' 8 neighbours are
//! consecutive ids: those load as one contiguous slice of the snapshot,
//! the others by index. With statistics, the block's quotients are kept
//! and replayed to the sink lane by lane, in the reference loop's
//! order.
//!
//! ## Divisors come from degrees
//!
//! No divisor is stored. The divisor of the slot from `v` to `u` is
//! `k·max(dᵥ, dᵤ)`, computed by [`DiffusionLoad::divisor`] — the one
//! definition, written as `dlb_graphs::weights::csr_divisors` writes it,
//! so every divisor has the same bits as a precomputed table's. Inside a
//! degree run of degree `d` whose nodes have no higher-degree neighbour
//! ([`DegreeRun::uniform_divisor`], every run of a torus or hypercube),
//! every slot's divisor is `k·d`: the lane-block kernel divides by that
//! one broadcast value and reads nothing per slot but the neighbour's
//! index and load. The reference loop derives `k·max(dᵥ, dᵤ)` per slot
//! from the neighbour's degree, unless `dᵥ` is the graph's largest.
//!
//! ## Why this preserves bit-identity
//!
//! The engine's non-negotiable invariant is that every backend and every
//! kernel produce bit-identical loads. The lane-block kernel keeps it by
//! construction: each per-neighbour quotient `(ℓᵤ − ℓᵥ)/div` depends only
//! on its own three inputs, and IEEE 754 subtraction and division are
//! correctly rounded — computing the quotients as independent lanes
//! yields exactly the bits the reference loop computes one at a time.
//! The **additions** are different: floating-point `+` is not
//! associative, so each node's accumulation always runs sequentially in
//! CSR neighbour order, the same order as the reference loop. Only the
//! order-free work vectorizes — the quotients, and the adds of
//! *different* nodes; one node's sum never does.
//!
//! [`DegreeRun::uniform_divisor`]: dlb_graphs::structure::DegreeRun::uniform_divisor

use dlb_graphs::structure::{LANE_BLOCK, MAX_LANE_DEGREE};
use dlb_graphs::{Csr, GatherPlan, Graph};

/// Nodes per dispatch tile: one statistics reduction block. At 8 bytes
/// per load this keeps a tile's output window (32 KiB) plus its
/// neighbour stream comfortably inside a typical 256 KiB–1 MiB L2, so the
/// snapshot lines a tile re-touches (e.g. the ±row wraps of a torus) stay
/// resident while the tile runs. Tiles are cut at multiples of this size
/// (never straddling a
/// [`REDUCE_BLOCK`](crate::potential::REDUCE_BLOCK) boundary), so the
/// fused statistics pass finds each block complete and still in cache.
const TILE_NODES: u32 = crate::potential::REDUCE_BLOCK as u32;

/// Runtime-selectable gather kernel flavour.
///
/// Both flavours produce bit-identical results (see the module docs);
/// they differ only in how the per-neighbour quotients are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The reference loop: one quotient at a time, each divisor derived
    /// from the two degrees, accumulated immediately. Exactly
    /// [`Protocol::node_new_load`] per node.
    ///
    /// [`Protocol::node_new_load`]: crate::engine::Protocol::node_new_load
    Scalar,
    /// Lane blocks: the 8-aligned blocks of every run with one
    /// broadcast divisor and degree `1..=32` are gathered across their 8
    /// nodes; every other node runs the [`KernelKind::Scalar`] loop. The
    /// default.
    #[default]
    Unrolled,
}

impl KernelKind {
    /// Every kernel flavour, for sweeps in tests and benches.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Unrolled];

    /// Stable lowercase name (`scalar` / `unrolled`), matching the
    /// accepted `DLB_KERNEL` values.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Unrolled => "unrolled",
        }
    }

    /// Reads `DLB_KERNEL` (uncached). Unset means the default
    /// ([`KernelKind::Unrolled`]); any value other than
    /// `scalar`/`unrolled` panics loudly, mirroring the `DLB_THREADS`
    /// contract — a typo must never silently change which kernel CI
    /// exercises.
    pub fn from_env() -> KernelKind {
        match std::env::var("DLB_KERNEL") {
            Ok(value) => match value.as_str() {
                "scalar" => KernelKind::Scalar,
                "unrolled" => KernelKind::Unrolled,
                _ => panic!(
                    "DLB_KERNEL must be \"scalar\" or \"unrolled\", got {value:?} \
                     (unset the variable to use the default kernel)"
                ),
            },
            Err(_) => KernelKind::default(),
        }
    }
}

/// Process-wide cached `DLB_KERNEL` reading, for engine constructors on
/// the hot path (the variable is read once, like `DLB_THREADS` via
/// `recommended_threads_cached`). Tests exercising the parsing use
/// [`KernelKind::from_env`] directly.
pub(crate) fn kernel_kind_cached() -> KernelKind {
    static CACHE: std::sync::OnceLock<KernelKind> = std::sync::OnceLock::new();
    *CACHE.get_or_init(KernelKind::from_env)
}

/// A load scalar the canonical diffusion gather can be written
/// generically over: `f64` (continuous load) or `i64` (integral tokens).
///
/// The contract that makes specialization safe is *operation equality*:
/// for any inputs, [`DiffusionLoad::quotient`] and
/// [`DiffusionLoad::accumulate`] must compute exactly what the historical
/// scalar loops computed, so that any kernel performing the same
/// operations in the same accumulation order is bit-identical.
pub trait DiffusionLoad: Copy + Send + Sync + 'static {
    /// Accumulator wide enough for a full neighbourhood sum (`f64`
    /// itself; `i128` for `i64` tokens, which cannot overflow across a
    /// `u32`-indexed neighbourhood).
    type Acc: Copy;

    /// Lifts a load into the accumulator domain.
    fn lift(self) -> Self::Acc;

    /// Lowers a finished accumulator back to the load type
    /// (overflow-checked for tokens).
    fn lower(acc: Self::Acc) -> Self;

    /// The divisor `factor·degree` of a slot whose endpoints' larger
    /// degree is `degree`: Algorithm 1's `k·max(dᵥ, dᵤ)`. The one
    /// definition every kernel, the statistics tally and the process
    /// workers use; the `f64` form is `dlb_graphs::weights::csr_divisors`'s
    /// expression, so the bits match a precomputed table's.
    fn divisor(factor: Self, degree: u32) -> Self;

    /// The per-neighbour transfer quotient: `(ℓᵤ − ℓᵥ)/div` for `f64`,
    /// the sign-split floor quotient for tokens. Pure in its three
    /// inputs — lane order never changes its bits.
    fn quotient(lv: Self, lu: Self, div: Self) -> Self::Acc;

    /// One ordered accumulation step. **Order-sensitive** for `f64`;
    /// callers must apply quotients in CSR neighbour order.
    fn accumulate(acc: Self::Acc, q: Self::Acc) -> Self::Acc;
}

impl DiffusionLoad for f64 {
    type Acc = f64;

    #[inline]
    fn lift(self) -> f64 {
        self
    }

    #[inline]
    fn lower(acc: f64) -> f64 {
        acc
    }

    #[inline]
    fn divisor(factor: f64, degree: u32) -> f64 {
        factor * degree as f64
    }

    #[inline]
    fn quotient(lv: f64, lu: f64, div: f64) -> f64 {
        (lu - lv) / div
    }

    #[inline]
    fn accumulate(acc: f64, q: f64) -> f64 {
        acc + q
    }
}

impl DiffusionLoad for i64 {
    type Acc = i128;

    #[inline]
    fn lift(self) -> i128 {
        self as i128
    }

    #[inline]
    fn lower(acc: i128) -> i64 {
        i64::try_from(acc).expect("load fits i64")
    }

    #[inline]
    fn divisor(factor: i64, degree: u32) -> i64 {
        factor * degree as i64
    }

    #[inline]
    fn quotient(lv: i64, lu: i64, div: i64) -> i128 {
        let (lv, lu, c) = (lv as i128, lu as i128, div as i128);
        if lu > lv {
            (lu - lv) / c
        } else if lv > lu {
            -((lv - lu) / c)
        } else {
            0
        }
    }

    #[inline]
    fn accumulate(acc: i128, q: i128) -> i128 {
        acc + q
    }
}

/// What a protocol exposes to opt into kernel dispatch: the fixed graph
/// its gather walks and the divisor factor `k`. The slot from `v` to `u`
/// divides by `k·max(dᵥ, dᵤ)` ([`GatherSpec::divisor`]), derived from the
/// graph's degrees wherever it is needed.
///
/// The adjacency is any [`Csr`]: a protocol's [`Graph`] (the default),
/// or a process worker's shard-local
/// [`LocalCsr`](dlb_graphs::partition::LocalCsr), whose rows are its
/// owned nodes and whose ids are positions in its local frame.
///
/// Protocols whose per-node update is *not* the canonical
/// quotient-accumulate loop (FOS/SOS α-scaled flows, capacity-weighted
/// heterogeneous diffusion, matching exchanges, …) simply never expose a
/// spec and keep running their own `node_new_load` everywhere.
#[derive(Debug)]
pub struct GatherSpec<'p, L, G = Graph> {
    /// The CSR adjacency the gather iterates (for a protocol's spec, also
    /// the graph the engine fingerprints for plan memoization).
    pub graph: &'p G,
    /// The divisor factor `k`: 4 for Algorithm 1 (continuous and tokens),
    /// the ablation's `k` for generalized diffusion.
    pub factor: L,
}

impl<L: Copy, G> Clone for GatherSpec<'_, L, G> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<L: Copy, G> Copy for GatherSpec<'_, L, G> {}

impl<L: DiffusionLoad, G: Csr> GatherSpec<'_, L, G> {
    /// The divisor `k·max(dᵥ, dᵤ)` of a slot between nodes of degrees
    /// `dv` and `du`.
    #[inline]
    pub fn divisor(&self, dv: u32, du: u32) -> L {
        L::divisor(self.factor, dv.max(du))
    }

    /// The divisor of the slot from a node of degree `dv` to its
    /// neighbour `u`. A node of the graph's largest degree needs no
    /// lookup of `u`'s degree: its every slot divides by `k·dᵥ`.
    #[inline]
    pub(crate) fn divisor_to(&self, dv: u32, u: u32) -> L {
        if dv == self.graph.max_degree() {
            L::divisor(self.factor, dv)
        } else {
            self.divisor(dv, self.graph.degree(u))
        }
    }
}

/// Receives a round's first-pass statistics inputs from inside the
/// gather, so a statistics round reads no memory the gather has not just
/// read: each node's round-start and new load as the node is finished,
/// and the quotient of every **upper slot** — a neighbour `u > v` of the
/// node `v` being gathered. Both arrive in node order (slots in CSR
/// order), the reduction order of [`crate::potential`]. An upper slot's
/// quotient magnitude is exactly the edge's transfer (`|ℓᵤ − ℓᵥ|/div`, or
/// its floor for tokens), so the tally needs no second division.
///
/// Sinks are small `Copy` accumulators: the kernels work on a local copy
/// per tile so the accumulators stay in registers, and write it back when
/// the tile ends.
pub(crate) trait GatherSink<L: DiffusionLoad>: Copy {
    /// Whether the kernels report nodes at all; `false` compiles every
    /// report away.
    const NODES: bool = true;
    /// Whether the kernels report upper slots.
    const UPPER: bool = true;

    /// Node `v` finished: its round-start load and its new load.
    fn node(&mut self, snapshot: L, new: L);

    /// One upper slot's quotient.
    fn upper(&mut self, q: L::Acc);
}

/// The plain gather: no statistics.
#[derive(Clone, Copy)]
pub(crate) struct NoStats;

impl<L: DiffusionLoad> GatherSink<L> for NoStats {
    const NODES: bool = false;
    const UPPER: bool = false;

    #[inline(always)]
    fn node(&mut self, _snapshot: L, _new: L) {}

    #[inline(always)]
    fn upper(&mut self, _q: L::Acc) {}
}

/// The one generic per-node gather, each divisor derived from the two
/// degrees: the reference loop. It is all of [`KernelKind::Scalar`],
/// every node outside a lane block under [`KernelKind::Unrolled`], and
/// the canonical protocols' `node_new_load`.
#[inline]
pub(crate) fn gather_node<L: DiffusionLoad, G: Csr>(
    spec: &GatherSpec<'_, L, G>,
    snapshot: &[L],
    v: u32,
) -> L {
    gather_node_into(spec, snapshot, v, &mut NoStats)
}

/// [`gather_node`], reporting the node to `sink`.
#[inline]
fn gather_node_into<L: DiffusionLoad, G: Csr, S: GatherSink<L>>(
    spec: &GatherSpec<'_, L, G>,
    snapshot: &[L],
    v: u32,
    sink: &mut S,
) -> L {
    let g = spec.graph;
    let lv = snapshot[v as usize];
    let dv = g.degree(v);
    let mut acc = lv.lift();
    for &u in g.neighbors(v) {
        let q = L::quotient(lv, snapshot[u as usize], spec.divisor_to(dv, u));
        acc = L::accumulate(acc, q);
        if S::UPPER && u > v {
            sink.upper(q);
        }
    }
    let new = L::lower(acc);
    if S::NODES {
        sink.node(lv, new);
    }
    new
}

/// Per-run slices threaded through the lane-block kernel: the flat CSR
/// adjacency plus the run's stride origin.
struct RunSlices<'a, L> {
    flat: &'a [u32],
    snapshot: &'a [L],
    /// First node of the degree run.
    start: u32,
    /// CSR offset of `start`; node `v` in the run has slots at
    /// `base + (v − start)·degree`.
    base: usize,
}

/// Lane-block kernel: gathers the 8-aligned blocks `lo..hi` of a
/// uniform-divisor run of degree `1..=32`, [`LANE_BLOCK`] nodes at a
/// time. Per slot `j` it loads the block's 8 neighbour loads — one
/// contiguous slice when the plan's mask bit `j` is set, 8 indexed loads
/// otherwise — and each lane adds its own quotient to its own
/// accumulator. Each lane thus adds its quotients in its own CSR order,
/// the reference loop's order, while the 8 lanes' adds run side by side.
///
/// With statistics, the block's quotients are kept, lane-major, and
/// replayed to the sink after the block, lane by lane: each lane's upper
/// slots in CSR order, then its node — the reference loop's order.
/// [`NoStats`] compiles the replay away.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_lane_blocks<L, F, S>(
    rs: &RunSlices<'_, L>,
    plan: &GatherPlan,
    degree: usize,
    div: L,
    lo: u32,
    hi: u32,
    emit: &mut F,
    sink: &mut S,
) where
    L: DiffusionLoad,
    F: FnMut(u32, L),
    S: GatherSink<L>,
{
    const W: usize = LANE_BLOCK as usize;
    debug_assert!(lo.is_multiple_of(LANE_BLOCK) && hi.is_multiple_of(LANE_BLOCK));
    debug_assert!((1..=MAX_LANE_DEGREE as usize).contains(&degree));
    let mut local = *sink;
    let zero = L::lift(rs.snapshot[lo as usize]);
    let mut kept = [[zero; MAX_LANE_DEGREE as usize]; W];
    for v0 in (lo..hi).step_by(W) {
        // The block's rows: lane `i`'s slot `j` is `rows[i * degree + j]`.
        let off = rs.base + (v0 - rs.start) as usize * degree;
        let rows = &rs.flat[off..off + W * degree];
        let lv: [L; W] = lane_slice(rs.snapshot, v0);
        let mut acc = lv.map(L::lift);
        let mask = plan.lane_mask(v0);
        for j in 0..degree {
            let lu: [L; W] = if mask >> j & 1 == 1 {
                lane_slice(rs.snapshot, rows[j])
            } else {
                std::array::from_fn(|i| rs.snapshot[rows[i * degree + j] as usize])
            };
            let q: [L::Acc; W] = std::array::from_fn(|i| L::quotient(lv[i], lu[i], div));
            for (a, &qi) in acc.iter_mut().zip(&q) {
                *a = L::accumulate(*a, qi);
            }
            if S::UPPER {
                for (lane, &qi) in kept.iter_mut().zip(&q) {
                    lane[j] = qi;
                }
            }
        }
        for (i, (&lvi, &a)) in lv.iter().zip(&acc).enumerate() {
            let v = v0 + i as u32;
            let new = L::lower(a);
            if S::UPPER {
                let row = &rows[i * degree..(i + 1) * degree];
                for (&u, &q) in row.iter().zip(&kept[i][..degree]) {
                    if u > v {
                        local.upper(q);
                    }
                }
            }
            if S::NODES {
                local.node(lvi, new);
            }
            emit(v, new);
        }
    }
    *sink = local;
}

/// The [`LANE_BLOCK`] loads `snapshot[u0 .. u0 + 8]`.
#[inline(always)]
fn lane_slice<L: Copy>(snapshot: &[L], u0: u32) -> [L; LANE_BLOCK as usize] {
    let u0 = u0 as usize;
    snapshot[u0..u0 + LANE_BLOCK as usize]
        .try_into()
        .expect("a lane slice is 8 loads")
}

/// Gathers the contiguous node range `lo..hi` in ascending order, calling
/// `emit` exactly once per node. Under [`KernelKind::Unrolled`] each
/// [`TILE_NODES`]-sized L2 tile of a run whose nodes have no
/// higher-degree neighbour, and whose degree is `1..=32`, sends its
/// 8-aligned blocks to the lane-block kernel; every other node — a
/// tile's unaligned head and tail, a run with per-slot divisors, degree
/// 0 or above 32 — and every node under [`KernelKind::Scalar`] runs the
/// reference loop. A sink's upper slots (`u > v`) compare ids of
/// `spec.graph`'s own index space.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_contiguous<L: DiffusionLoad, G: Csr, F: FnMut(u32, L), S: GatherSink<L>>(
    kind: KernelKind,
    plan: &GatherPlan,
    spec: &GatherSpec<'_, L, G>,
    snapshot: &[L],
    lo: u32,
    hi: u32,
    emit: &mut F,
    sink: &mut S,
) {
    debug_assert_eq!(
        plan.n(),
        spec.graph.rows(),
        "plan built for a different graph"
    );
    if lo >= hi {
        return;
    }
    if kind == KernelKind::Scalar {
        gather_nodes(spec, snapshot, lo, hi, emit, sink);
        return;
    }
    let runs = plan.runs();
    for_each_tile(plan, lo, hi, |r, t, te| {
        let run = &runs[r];
        let d = run.degree;
        let a = t.next_multiple_of(LANE_BLOCK);
        let b = te - te % LANE_BLOCK;
        if !run.uniform_divisor() || !(1..=MAX_LANE_DEGREE).contains(&d) || a >= b {
            gather_nodes(spec, snapshot, t, te, emit, sink);
            return;
        }
        gather_nodes(spec, snapshot, t, a, emit, sink);
        let rs = RunSlices {
            flat: spec.graph.neighbor_slots(),
            snapshot,
            start: run.start,
            base: run.base,
        };
        lane_blocks(&rs, plan, d, L::divisor(spec.factor, d), a, b, emit, sink);
        gather_nodes(spec, snapshot, b, te, emit, sink);
    });
}

/// The lane-block kernel over the 8-aligned blocks `a..b` of a run of
/// degree `d`. A literal degree lets the inlined kernel unroll its slot
/// loops (and its replay) for the most common degrees. Kept out of line:
/// inlined into [`gather_contiguous`]'s tile walk, the statistics
/// rounds of a 10⁶-node torus on a two-thread pool ran 10–20% slower
/// (`torus-bursty-pool` wall time, interleaved pairs on two cores).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn lane_blocks<L, F, S>(
    rs: &RunSlices<'_, L>,
    plan: &GatherPlan,
    d: u32,
    div: L,
    a: u32,
    b: u32,
    emit: &mut F,
    sink: &mut S,
) where
    L: DiffusionLoad,
    F: FnMut(u32, L),
    S: GatherSink<L>,
{
    match d {
        2 => tile_lane_blocks(rs, plan, 2, div, a, b, emit, sink),
        3 => tile_lane_blocks(rs, plan, 3, div, a, b, emit, sink),
        4 => tile_lane_blocks(rs, plan, 4, div, a, b, emit, sink),
        8 => tile_lane_blocks(rs, plan, 8, div, a, b, emit, sink),
        d => tile_lane_blocks(rs, plan, d as usize, div, a, b, emit, sink),
    }
}

/// The reference loop over the nodes `lo..hi`, in ascending order, on a
/// local copy of the sink.
#[inline]
fn gather_nodes<L: DiffusionLoad, G: Csr, F: FnMut(u32, L), S: GatherSink<L>>(
    spec: &GatherSpec<'_, L, G>,
    snapshot: &[L],
    lo: u32,
    hi: u32,
    emit: &mut F,
    sink: &mut S,
) {
    let mut local = *sink;
    for v in lo..hi {
        emit(v, gather_node_into(spec, snapshot, v, &mut local));
    }
    *sink = local;
}

/// Walks `lo..hi` as L2 tiles in ascending order, calling
/// `tile(run, t, te)` for each: every tile lies inside one degree run
/// (index `run` of [`GatherPlan::runs`]) and inside one [`TILE_NODES`]
/// block.
fn for_each_tile(plan: &GatherPlan, lo: u32, hi: u32, mut tile: impl FnMut(usize, u32, u32)) {
    let runs = plan.runs();
    let mut r = plan.run_index(lo);
    let mut t = lo;
    while t < hi {
        let run_hi = hi.min(runs[r].end);
        while t < run_hi {
            let block_end = (t / TILE_NODES + 1).saturating_mul(TILE_NODES);
            let te = run_hi.min(block_end);
            tile(r, t, te);
            t = te;
        }
        r += 1;
    }
}

/// Batch gather over the contiguous node range `start .. start + out.len()`,
/// writing `out[i] = new_load(start + i)` and reporting every node and
/// upper slot to `sink` (pass [`NoStats`] for a plain gather). The
/// serial backend calls this per reduction block; pool workers per block
/// of their chunk.
pub(crate) fn gather_span<L: DiffusionLoad, S: GatherSink<L>>(
    kind: KernelKind,
    plan: &GatherPlan,
    spec: &GatherSpec<'_, L>,
    snapshot: &[L],
    start: u32,
    out: &mut [L],
    sink: &mut S,
) {
    let hi = start + out.len() as u32;
    let mut emit = |v: u32, val: L| out[(v - start) as usize] = val;
    gather_contiguous(kind, plan, spec, snapshot, start, hi, &mut emit, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graphs::weights::csr_divisors;
    use dlb_graphs::{topology, GraphBuilder};

    fn f64_loads(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 131 + 17) % 4099) as f64 * 0.37)
            .collect()
    }

    fn i64_loads(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i * 977 + 31) % 100_003) as i64).collect()
    }

    /// A degree-mixed graph: short path spine with hanging leaves and an
    /// isolated tail — runs of degree 2/3/1/0 that don't tile any width.
    fn comb() -> Graph {
        let mut b = GraphBuilder::new(14).unwrap();
        for i in 0..5u32 {
            b.add_edge(i, i + 1).unwrap();
            b.add_edge(i, 6 + i).unwrap();
        }
        b.build()
    }

    /// Hubs of degree 8 and 10 linked to a degree-22 hub: one-node runs
    /// whose slots divide by a higher-degree neighbour's divisor.
    fn hubs() -> Graph {
        let mut b = GraphBuilder::new(39).unwrap();
        let (a, c, big) = (0u32, 8u32, 18u32);
        for leaf in 1..8 {
            b.add_edge(a, leaf).unwrap();
        }
        for leaf in 9..18 {
            b.add_edge(c, leaf).unwrap();
        }
        for leaf in 19..39 {
            b.add_edge(big, leaf).unwrap();
        }
        b.add_edge(a, big).unwrap();
        b.add_edge(c, big).unwrap();
        b.build()
    }

    fn adversarial_graphs() -> Vec<Graph> {
        vec![
            topology::torus2d(5, 7), // regular d=4, one run
            topology::cycle(17),     // regular d=2
            topology::hypercube(4),  // regular d=4
            topology::hypercube(5),  // regular d=5, lane blocks
            topology::complete(10),  // regular d=9, one lane block + a tail
            topology::star(40),      // hub d=39 + leaves d=1
            topology::path(11),      // endpoint runs
            topology::binary_tree(21),
            topology::grid2d(7, 9), // runs of degree 2/3/4, boundary mixed
            // Lane blocks with unaligned edges: partial masks at the
            // column wraps, a hypercube's index-gathered low-bit slots,
            // and 9-node interior grid runs holding one block each.
            topology::torus2d(9, 13),
            topology::hypercube(3),
            topology::hypercube(7),
            topology::grid2d(17, 11),
            comb(),
            hubs(),
            Graph::from_edges(9, [(0, 1), (1, 2)]).unwrap(), // mostly isolated
        ]
    }

    /// The gather against a precomputed per-slot divisor table — the
    /// formulation the degree-derived divisors replace. `table[off + i]`
    /// is slot `i` of node `v`.
    fn gather_with_table<L: DiffusionLoad>(g: &Graph, table: &[L], snapshot: &[L], v: u32) -> L {
        let lv = snapshot[v as usize];
        let off = g.neighbor_offset(v);
        let mut acc = lv.lift();
        for (i, &u) in g.neighbors(v).iter().enumerate() {
            acc = L::accumulate(acc, L::quotient(lv, snapshot[u as usize], table[off + i]));
        }
        L::lower(acc)
    }

    /// Every kernel flavour, and the scalar reference, equals the gather
    /// against the old per-slot divisor table (`weights::csr_divisors`)
    /// bit for bit — on graphs whose runs have higher-degree neighbours
    /// (star leaves, tree, grid, comb) as well as regular ones, for
    /// every generalized-diffusion factor.
    #[test]
    fn span_matches_scalar_reference_f64() {
        for g in adversarial_graphs() {
            let plan = GatherPlan::build(&g);
            let snap = f64_loads(g.n());
            for factor in [1.0, 1.5, 4.0, 7.0] {
                let table = csr_divisors(&g, factor);
                let spec = GatherSpec { graph: &g, factor };
                let reference: Vec<f64> = g
                    .nodes()
                    .map(|v| gather_with_table(&g, &table, &snap, v))
                    .collect();
                let scalar: Vec<f64> = g.nodes().map(|v| gather_node(&spec, &snap, v)).collect();
                let bits = |x: &[f64]| x.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&reference),
                    bits(&scalar),
                    "gather_node, k = {factor} on {g:?}"
                );
                for kind in KernelKind::ALL {
                    let mut out = vec![0.0; g.n()];
                    gather_span(kind, &plan, &spec, &snap, 0, &mut out, &mut NoStats);
                    for (v, (a, b)) in reference.iter().zip(&out).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{kind:?} k = {factor} diverged at node {v} on {g:?}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// The token twin of [`span_matches_scalar_reference_f64`]: the
    /// table is the old integer divisor table `4·max(dᵥ, dᵤ)`.
    #[test]
    fn span_matches_scalar_reference_i64() {
        for g in adversarial_graphs() {
            let plan = GatherPlan::build(&g);
            let snap = i64_loads(g.n());
            for factor in [1i64, 4, 7] {
                let table: Vec<i64> = csr_divisors(&g, factor as f64)
                    .into_iter()
                    .map(|d| d as i64)
                    .collect();
                let spec = GatherSpec { graph: &g, factor };
                let reference: Vec<i64> = g
                    .nodes()
                    .map(|v| gather_with_table(&g, &table, &snap, v))
                    .collect();
                let scalar: Vec<i64> = g.nodes().map(|v| gather_node(&spec, &snap, v)).collect();
                assert_eq!(reference, scalar, "gather_node, k = {factor} on {g:?}");
                for kind in KernelKind::ALL {
                    let mut out = vec![0i64; g.n()];
                    gather_span(kind, &plan, &spec, &snap, 0, &mut out, &mut NoStats);
                    assert_eq!(reference, out, "{kind:?} k = {factor} diverged on {g:?}");
                }
            }
        }
    }

    #[test]
    fn no_tile_straddles_a_reduce_block() {
        // Degree runs end mid-block: a grid (runs of degree 2/3/4) with a
        // star hub attached, over three blocks plus a tail.
        let side = 100u32;
        let n = 3 * crate::potential::REDUCE_BLOCK as u32 + 17;
        let mut b = GraphBuilder::new(n as usize).unwrap();
        for v in 0..side * side {
            let (r, c) = (v / side, v % side);
            if c + 1 < side {
                b.add_edge(v, v + 1).unwrap();
            }
            if r + 1 < side {
                b.add_edge(v, v + side).unwrap();
            }
        }
        for leaf in side * side + 1..n {
            b.add_edge(side * side, leaf).unwrap();
        }
        let g = b.build();
        let plan = GatherPlan::build(&g);
        let block = TILE_NODES;
        for (lo, hi) in [(0, n), (5, n - 3), (4095, 4097), (8191, 12_289), (n - 1, n)] {
            let mut next = lo;
            for_each_tile(&plan, lo, hi, |r, t, te| {
                assert_eq!(t, next, "tiles must be contiguous and ascending");
                assert!(t < te, "empty tile");
                assert_eq!(
                    t / block,
                    (te - 1) / block,
                    "tile {t}..{te} straddles a block"
                );
                let run = &plan.runs()[r];
                assert!(
                    run.start <= t && te <= run.end,
                    "tile {t}..{te} leaves its run"
                );
                next = te;
            });
            assert_eq!(next, hi, "tiles must cover {lo}..{hi}");
        }
    }

    #[test]
    fn partial_spans_respect_offsets() {
        // The 6×24 torus has lane blocks with all four slots contiguous;
        // its spans start off the 8-node lane grid, end off it, or lie
        // inside one lane block.
        let cases: [(Graph, &[(u32, usize)]); 2] = [
            (
                topology::torus2d(6, 6),
                &[(0, 7), (5, 13), (30, 6), (35, 1), (36, 0)],
            ),
            (
                topology::torus2d(6, 24),
                &[
                    (3, 29),
                    (9, 6),
                    (11, 21),
                    (13, 131),
                    (1, 143),
                    (17, 8),
                    (140, 4),
                ],
            ),
        ];
        for (g, spans) in cases {
            let spec = GatherSpec {
                graph: &g,
                factor: 4.0,
            };
            let plan = GatherPlan::build(&g);
            let snap = f64_loads(g.n());
            let mut full = vec![0.0; g.n()];
            gather_span(
                KernelKind::Scalar,
                &plan,
                &spec,
                &snap,
                0,
                &mut full,
                &mut NoStats,
            );
            for kind in KernelKind::ALL {
                for &(lo, len) in spans {
                    let mut out = vec![0.0; len];
                    gather_span(kind, &plan, &spec, &snap, lo, &mut out, &mut NoStats);
                    assert_eq!(
                        &full[lo as usize..lo as usize + len],
                        &out[..],
                        "{kind:?} {lo}+{len} on {g:?}"
                    );
                }
            }
        }
    }

    /// A sink that folds every report into one FNV-1a hash, so two
    /// gathers that report the same events in the same order agree.
    #[derive(Clone, Copy)]
    struct Trace(u64);

    impl Trace {
        fn mix(&mut self, x: u64) {
            self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    impl GatherSink<f64> for Trace {
        fn node(&mut self, snapshot: f64, new: f64) {
            self.mix(1);
            self.mix(snapshot.to_bits());
            self.mix(new.to_bits());
        }

        fn upper(&mut self, q: f64) {
            self.mix(2);
            self.mix(q.to_bits());
        }
    }

    impl GatherSink<i64> for Trace {
        fn node(&mut self, snapshot: i64, new: i64) {
            self.mix(1);
            self.mix(snapshot as u64);
            self.mix(new as u64);
        }

        fn upper(&mut self, q: i128) {
            self.mix(2);
            self.mix(q as u64);
            self.mix((q >> 64) as u64);
        }
    }

    /// Every kernel reports the scalar loop's nodes and upper slots in
    /// the scalar loop's order — the lane-block kernel's replay
    /// included — for both load types, on every adversarial shape.
    #[test]
    fn kernels_report_the_scalar_event_order() {
        fn check<L: DiffusionLoad>(g: &Graph, snap: &[L], factor: L)
        where
            Trace: GatherSink<L>,
        {
            let plan = GatherPlan::build(g);
            let spec = GatherSpec { graph: g, factor };
            let traces = KernelKind::ALL.map(|kind| {
                let mut sink = Trace(0xcbf2_9ce4_8422_2325);
                let mut out = snap.to_vec();
                gather_span(kind, &plan, &spec, snap, 0, &mut out, &mut sink);
                sink.0
            });
            assert_eq!(traces[0], traces[1], "{g:?}");
        }
        for g in adversarial_graphs() {
            check(&g, &f64_loads(g.n()), 4.0);
            check(&g, &i64_loads(g.n()), 4);
        }
    }

    /// A shard gathering its owned rows over its `LocalCsr`, from a frame
    /// of owned-then-halo values, reproduces the global gather bit for
    /// bit — for every kernel, both load types, and partitions that cut
    /// between nodes of different degrees.
    #[test]
    fn local_csr_gather_matches_the_global_gather() {
        use dlb_graphs::{Partition, ShardPlan};
        fn check<L: DiffusionLoad + PartialEq + std::fmt::Debug>(g: &Graph, snap: &[L], k: L) {
            let spec = GatherSpec {
                graph: g,
                factor: k,
            };
            let global: Vec<L> = g.nodes().map(|v| gather_node(&spec, snap, v)).collect();
            for partition in [Partition::range(g.n(), 3), Partition::bfs(g, 4)] {
                let shard_plan = ShardPlan::build(g, &partition);
                for (s, view) in shard_plan.views().iter().enumerate() {
                    let csr = &shard_plan.local_csr(g, s);
                    let plan = GatherPlan::build(csr);
                    let local = GatherSpec {
                        graph: csr,
                        factor: k,
                    };
                    let mut frame = Vec::new();
                    view.assemble(snap, &mut frame);
                    for kind in KernelKind::ALL {
                        let mut got = Vec::new();
                        let rows = csr.rows() as u32;
                        let mut emit = |row: u32, value: L| got.push((row, value));
                        gather_contiguous(
                            kind,
                            &plan,
                            &local,
                            &frame,
                            0,
                            rows,
                            &mut emit,
                            &mut NoStats,
                        );
                        let want: Vec<(u32, L)> = view
                            .owned()
                            .iter()
                            .enumerate()
                            .map(|(row, &v)| (row as u32, global[v as usize]))
                            .collect();
                        assert_eq!(got, want, "{kind:?} shard {} on {g:?}", view.shard());
                    }
                }
            }
        }
        for g in adversarial_graphs() {
            check(&g, &f64_loads(g.n()), 4.0);
            check(&g, &i64_loads(g.n()), 4);
        }
    }

    #[test]
    fn discrete_quotient_matches_sign_split_reference() {
        for (lv, lu, c) in [
            (10i64, 4, 8),
            (4, 10, 8),
            (7, 7, 12),
            (-5, 9, 4),
            (9, -5, 4),
        ] {
            let q = <i64 as DiffusionLoad>::quotient(lv, lu, c);
            let reference = {
                let (lv, lu, c) = (lv as i128, lu as i128, c as i128);
                if lu > lv {
                    (lu - lv) / c
                } else if lv > lu {
                    -((lv - lu) / c)
                } else {
                    0
                }
            };
            assert_eq!(q, reference);
        }
    }

    #[test]
    fn kernel_kind_names_round_trip() {
        for kind in KernelKind::ALL {
            assert!(matches!(kind.name(), "scalar" | "unrolled"));
        }
        assert_eq!(KernelKind::default(), KernelKind::Unrolled);
    }
}
