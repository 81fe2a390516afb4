//! The quadratic potential `Φ` and related load-vector statistics.
//!
//! The paper's entire analysis is driven by `Φ(L) = Σᵢ (ℓᵢ − ℓ̄)²` with
//! `ℓ̄ = (Σᵢ ℓᵢ)/n`. For the discrete protocol `ℓ̄` is rational, so this
//! module also provides the *scaled* integer potential
//!
//! ```text
//! Φ̂(L) = Σᵢ (n·ℓᵢ − S)²  =  n² · Φ(L),      S = Σᵢ ℓᵢ,
//! ```
//!
//! computed exactly in 128-bit arithmetic. All discrete-case theorem
//! thresholds (`Φ ≥ 64δ³n/λ₂` in Lemma 5, `Φ ≥ 3200n` in Lemma 13) are
//! compared through `Φ̂` so floating-point rounding can never flip a
//! threshold decision.
//!
//! Lemma 10's identity `Σᵢ Σⱼ (ℓᵢ − ℓⱼ)² = 2n·Φ(L)` becomes the exact
//! integer identity `n · Σᵢⱼ (ℓᵢ − ℓⱼ)² = 2·Φ̂(L)`, verified by
//! [`lemma10_exact_identity_holds`] and experiment E9.
//!
//! ### The one reduction order
//!
//! Every statistic the engine reports — `Φ`/`Φ̂` before and after a round,
//! the flow or token tally, the load summary's min, max and total —
//! reduces in **one** order, defined here and nowhere else:
//!
//! * **Node blocks.** The node range `0..n` is cut into fixed-size blocks
//!   of [`REDUCE_BLOCK`] nodes. The block size is a constant, never
//!   derived from a thread count or a shard plan.
//! * **Within a block**, values are folded left to right in node order,
//!   starting from zero: the block's loads for the block sum, `(ℓᵢ − μ)²`
//!   for the squared deviation sum (exact `(n·ℓᵢ − S)²` for tokens) —
//!   the same bits as the historical `iter().sum()` — and the tally
//!   visits nodes `u` in order and, for each,
//!   its **CSR upper slots** — the neighbours `v > u` in sorted order —
//!   adding `|ℓᵤ − ℓᵥ| / div(u, v)`, where `div(u, v) = k·max(dᵤ, dᵥ)` is
//!   the gather's degree-derived divisor (`GatherSpec::divisor`).
//!   Every undirected edge is therefore tallied exactly once, by the
//!   block of its lower endpoint. Protocols without a gather spec tally
//!   their own per-edge amount over the same blocks and the same slot
//!   walk ([`StatsCtx::graph_tally`], over `upper_slots`); only a
//!   tally over a *list* — random-partner links, matching pairs —
//!   blocks by list position ([`StatsCtx::flow_tally`]).
//! * **Across blocks**, partials are combined in block order, starting
//!   from zero (`FlowTally::merge`, `TokenTally::merge`, `+`).
//! * **`Φ` is mean-first and two-pass**: the first pass yields the total
//!   `S` (hence `μ = S/n`), the second pass the squared deviations.
//!
//! Who evaluates a block does not matter. A block's first-pass partial
//! (`BlockPartial`) has one per-node step and one per-slot step, and
//! every path drives those two steps over the same nodes and slots in the
//! same order. A slot's transfer is the magnitude of the gather's own
//! quotient for it, `DiffusionLoad::quotient(ℓᵤ, ℓᵥ, div)`, so no path
//! computes a transfer any other way. The serial and pool executors drive
//! the steps from inside the gather kernel, which has just computed each
//! node's new load and each slot's quotient, so no division is repeated
//! and no memory is read again. The message and process backends
//! call `block_partial`, which drives the same steps over the
//! coordinator's vectors, computing each upper slot's quotient with the
//! same function against the same degree-derived divisor. Standalone
//! callers go through the
//! `*_with` functions, optionally over a [`WorkerPool`]. The
//! left-to-right combine is the same on every path, so every backend,
//! thread count and kernel
//! reports **bit-identical** statistics. Vectors no longer than
//! [`REDUCE_BLOCK`] are a single block, i.e. the plain linear sum.

use crate::engine::{FlowTally, StatsCtx, Tally, TokenTally, WorkerPool};
use crate::kernels::{DiffusionLoad, GatherSink, GatherSpec};
use dlb_graphs::Graph;

/// Nodes per reduction block. Fixed (never thread-derived) so serial
/// and parallel reductions share one deterministic summation order; large
/// enough that per-block dispatch overhead is negligible, small enough
/// that a 1M-node vector still yields a few hundred blocks to parallelize.
/// The gather kernels' L2 tiles never straddle a block boundary, so a
/// block is complete the moment its last tile is written.
pub const REDUCE_BLOCK: usize = 4096;

/// Number of blocks covering `n` items (0 for an empty range).
#[inline]
pub(crate) fn num_blocks(n: usize) -> usize {
    n.div_ceil(REDUCE_BLOCK)
}

/// Half-open item range `[start, end)` of block `b` over `n` items.
#[inline]
pub(crate) fn block_bounds(b: usize, n: usize) -> (usize, usize) {
    let start = b * REDUCE_BLOCK;
    (start, (start + REDUCE_BLOCK).min(n))
}

/// Evaluates `eval_block(b)` for every block over `n_items` — serially, or
/// fanned out over `pool` — and folds the partials **in block order** with
/// `merge`. The fold is identical on both paths, which is the workspace's
/// serial ≡ parallel bit-identity guarantee for statistics.
pub(crate) fn blocked_reduce<T, E, M>(
    n_items: usize,
    pool: Option<&WorkerPool>,
    eval_block: E,
    merge: M,
    zero: T,
) -> T
where
    T: Clone + Default + Send,
    E: Fn(usize) -> T + Sync,
    M: FnMut(T, T) -> T,
{
    let blocks = num_blocks(n_items);
    match pool {
        Some(pool) if blocks > 1 => {
            let mut partials = vec![T::default(); blocks];
            pool.gather(&mut partials, |b| eval_block(b as usize));
            partials.into_iter().fold(zero, merge)
        }
        _ => (0..blocks).map(eval_block).fold(zero, merge),
    }
}

/// A load scalar whose statistics reduce in the one block order: `f64`
/// (floating-point `Φ`, flow tally) and `i64` tokens (exact scaled `Φ̂`
/// in 128-bit arithmetic, token tally). The per-element operations are
/// fixed here; the order they are folded in is fixed by the module docs.
pub trait LoadPotential: DiffusionLoad {
    /// The potential's scalar type (`f64` or exact `u128`) — also the type
    /// of one block's squared-deviation partial.
    type Phi: Copy + Default + Send + Sync + std::fmt::Debug + std::ops::Add<Output = Self::Phi>;
    /// A block sum (`f64`, or exact `i128` for tokens).
    type Sum: Copy + Default + Send + Sync + std::fmt::Debug + std::ops::Add<Output = Self::Sum>;
    /// The per-edge transfer tally ([`FlowTally`] or [`TokenTally`]).
    type Tally: Tally;

    /// The default potential of `loads` (`Φ` or `Φ̂`), computed through
    /// `ctx`'s blocked (optionally pooled) reduction. This is what
    /// [`Protocol::potential_of`](crate::engine::Protocol::potential_of)
    /// reports unless a protocol overrides it.
    fn potential(loads: &[Self], ctx: &StatsCtx<'_>) -> Self::Phi {
        phi_of(loads, ctx.pool())
    }

    /// One step of a block sum, in node order.
    fn add_to(acc: Self::Sum, x: Self) -> Self::Sum;

    /// What a squared deviation is measured from: the mean `μ`, or
    /// `(n, S)` for the exact scaled token form.
    type Centre: Copy + Send + Sync;

    /// The centre of a vector of `n` items summing to `total`.
    fn centre(n: usize, total: Self::Sum) -> Self::Centre;

    /// Squared deviation of `x` from `centre`: `(x − μ)²`, or exactly
    /// `(n·x − S)²` for tokens.
    fn sq_dev(x: Self, centre: Self::Centre) -> Self::Phi;

    /// Tallies one edge from the gather's quotient for it: the quotient's
    /// magnitude is the load the edge moves this round.
    fn tally_quotient(tally: &mut Self::Tally, q: Self::Acc);

    /// The load as `f64` (exact for tokens within the mantissa).
    fn to_f64(self) -> f64;

    /// A block total as `f64` (one rounding for exact token sums).
    fn sum_to_f64(sum: Self::Sum) -> f64;
}

impl LoadPotential for f64 {
    type Phi = f64;
    type Sum = f64;
    type Tally = FlowTally;

    #[inline]
    fn add_to(acc: f64, x: f64) -> f64 {
        acc + x
    }

    type Centre = f64;

    fn centre(n: usize, total: f64) -> f64 {
        total / n as f64
    }

    #[inline]
    fn sq_dev(x: f64, mu: f64) -> f64 {
        (x - mu) * (x - mu)
    }

    #[inline]
    fn tally_quotient(tally: &mut FlowTally, q: f64) {
        tally.add(q.abs());
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    fn sum_to_f64(sum: f64) -> f64 {
        sum
    }
}

impl LoadPotential for i64 {
    type Phi = u128;
    type Sum = i128;
    type Tally = TokenTally;

    #[inline]
    fn add_to(acc: i128, x: i64) -> i128 {
        acc + x as i128
    }

    type Centre = (i128, i128);

    fn centre(n: usize, total: i128) -> (i128, i128) {
        (n as i128, total)
    }

    #[inline]
    fn sq_dev(x: i64, (n, total): (i128, i128)) -> u128 {
        let centred = n * x as i128 - total;
        (centred * centred) as u128
    }

    #[inline]
    fn tally_quotient(tally: &mut TokenTally, q: i128) {
        // |q| = ⌊|lu − lv| / div⌋ ≤ 2⁶⁴ − 1, the historical u128
        // division's value.
        tally.add(q.unsigned_abs() as u64);
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    fn sum_to_f64(sum: i128) -> f64 {
        sum as f64
    }
}

/// Block sum of `xs` in node order. It starts from `+0.0` where
/// `iter().sum()` starts from `-0.0`; the two differ only for a block of
/// negative zeros, and the block-order combine (which starts from `+0.0`)
/// erases even that, so totals and means keep `iter().sum()`'s bits.
#[inline]
fn block_sum<L: LoadPotential>(xs: &[L]) -> L::Sum {
    xs.iter()
        .fold(L::Sum::default(), |acc, &x| L::add_to(acc, x))
}

/// First-pass partials of one reduction block: the block sums of the
/// round-start snapshot and of the new loads, the new loads' min and max
/// (as `f64`), and the block's edge tally.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockPartial<L: LoadPotential> {
    snap: L::Sum,
    new: L::Sum,
    min: f64,
    max: f64,
    tally: L::Tally,
}

impl<L: LoadPotential> Default for BlockPartial<L> {
    fn default() -> Self {
        BlockPartial {
            snap: L::Sum::default(),
            new: L::Sum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            tally: L::Tally::default(),
        }
    }
}

impl<L: LoadPotential> BlockPartial<L> {
    /// Folds one new load into the min/max. A plain compare-and-select
    /// (one `minsd`/`maxsd` on the dependency chain) rather than
    /// `f64::min`/`f64::max`, whose NaN handling lengthens the chain; the
    /// two agree on every non-NaN load.
    #[inline]
    fn min_max(&mut self, y: f64) {
        if y < self.min {
            self.min = y;
        }
        if y > self.max {
            self.max = y;
        }
    }

    /// The new loads' [`LoadSummary`] with potential `phi`.
    pub(crate) fn summary<Phi>(&self, phi: Phi) -> LoadSummary<Phi> {
        LoadSummary {
            phi,
            min: self.min,
            max: self.max,
            total: L::sum_to_f64(self.new),
        }
    }

    /// Combines two partials in block order (`self` is the prefix).
    pub(crate) fn merge(self, other: Self) -> Self {
        BlockPartial {
            snap: self.snap + other.snap,
            new: self.new + other.new,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            tally: self.tally.merge(other.tally),
        }
    }
}

/// A block's partial is the first pass's one pair of steps: the gather
/// kernel feeds it each finished node and upper slot, and `block_partial`
/// feeds it the same nodes and slots in the same order.
impl<L: LoadPotential> GatherSink<L> for BlockPartial<L> {
    /// Folds in one node, in node order.
    #[inline]
    fn node(&mut self, snapshot: L, new: L) {
        self.snap = L::add_to(self.snap, snapshot);
        self.new = L::add_to(self.new, new);
        self.min_max(new.to_f64());
    }

    #[inline]
    fn upper(&mut self, q: L::Acc) {
        L::tally_quotient(&mut self.tally, q);
    }
}

/// A fused first pass without the tally ([`StatsMode::PhiOnly`]
/// rounds).
///
/// [`StatsMode::PhiOnly`]: crate::engine::StatsMode::PhiOnly
#[derive(Clone, Copy)]
pub(crate) struct NoTally<L: LoadPotential>(pub(crate) BlockPartial<L>);

impl<L: LoadPotential> GatherSink<L> for NoTally<L> {
    const UPPER: bool = false;

    #[inline]
    fn node(&mut self, snapshot: L, new: L) {
        self.0.node(snapshot, new);
    }

    #[inline(always)]
    fn upper(&mut self, _q: L::Acc) {}
}

/// The first-pass partials of the block of new loads `new`, which holds
/// nodes `lo .. lo + new.len()`. `snapshot` is the whole round-start
/// vector (the tally reads neighbours outside the block); `None` skips
/// the snapshot sum and the tally. With `tally = Some(spec)` the block's
/// CSR upper slots are tallied from the gather's quotient against
/// [`GatherSpec::divisor`], through the same steps the fused gather
/// drives — see the module docs for the order.
///
/// Everything is one loop over the block's nodes: the sums, the min/max
/// and the tally are independent dependency chains, so they overlap
/// instead of paying each chain's latency in a sweep of its own. Each
/// chain still folds in node (and slot) order.
pub(crate) fn block_partial<L: LoadPotential>(
    snapshot: Option<&[L]>,
    new: &[L],
    lo: usize,
    tally: Option<&GatherSpec<'_, L>>,
) -> BlockPartial<L> {
    let mut p = BlockPartial::<L>::default();
    let Some(snapshot) = snapshot else {
        for &y in new {
            p.new = L::add_to(p.new, y);
            p.min_max(y.to_f64());
        }
        return p;
    };
    let snap_block = &snapshot[lo..lo + new.len()];
    let Some(spec) = tally else {
        for (&x, &y) in snap_block.iter().zip(new) {
            p.node(x, y);
        }
        return p;
    };
    for (i, (&x, &y)) in snap_block.iter().zip(new).enumerate() {
        p.node(x, y);
        let u = (lo + i) as u32;
        let du = spec.graph.degree(u);
        upper_slots(spec.graph, u, |v, _| {
            p.upper(L::quotient(x, snapshot[v as usize], spec.divisor_to(du, v)));
        });
    }
    p
}

/// Calls `f(v, slot)` for each CSR upper slot of node `u` — its
/// neighbours `v > u`, in sorted order, with `slot` the global CSR slot of
/// `v` in `u`'s row. This is the slot walk of the one reduction order:
/// every undirected edge is visited once, from its lower endpoint.
#[inline(always)]
pub(crate) fn upper_slots(g: &Graph, u: u32, mut f: impl FnMut(u32, usize)) {
    let off = g.neighbor_offset(u);
    // Neighbour lists are sorted, so the upper slots are a suffix; a
    // filtered scan beats searching for its start on short lists.
    for (i, &v) in g.neighbors(u).iter().enumerate() {
        if v > u {
            f(v, off + i);
        }
    }
}

/// First-pass partials of a whole round, blocked and folded in block
/// order: the fallback for executors that did not fuse them into the
/// gather (and for standalone statistics).
pub(crate) fn first_pass<L: LoadPotential>(
    snapshot: Option<&[L]>,
    new: &[L],
    tally: Option<&GatherSpec<'_, L>>,
    pool: Option<&WorkerPool>,
) -> BlockPartial<L> {
    blocked_reduce(
        new.len(),
        pool,
        |b| {
            let (s, e) = block_bounds(b, new.len());
            block_partial(snapshot, &new[s..e], s, tally)
        },
        BlockPartial::merge,
        BlockPartial::default(),
    )
}

/// Everything a round's statistics pass produces: `Φ` (or `Φ̂`) of the
/// round-start snapshot and of the new loads, the edge tally, and the new
/// loads' min, max and total.
#[derive(Debug, Clone, Copy)]
pub struct RoundTotals<L: LoadPotential> {
    /// Potential of the round-start snapshot.
    pub phi_before: L::Phi,
    /// Potential of the new loads.
    pub phi_after: L::Phi,
    /// Edge tally (zeroed when flows were not wanted).
    pub tally: L::Tally,
    /// Summary of the new loads.
    pub summary: LoadSummary<L::Phi>,
}

/// A load vector's potential, smallest and largest load, and total — what
/// a scenario runner records per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSummary<Phi> {
    /// The potential (`Φ`, or exact `Φ̂` for tokens).
    pub phi: Phi,
    /// Smallest load, as `f64`.
    pub min: f64,
    /// Largest load, as `f64`.
    pub max: f64,
    /// Total load: the block-ordered sum (exact for tokens, converted to
    /// `f64` once).
    pub total: f64,
}

impl<Phi> LoadSummary<Phi> {
    /// The same summary with potential `phi`.
    pub fn with_phi<Q>(self, phi: Q) -> LoadSummary<Q> {
        LoadSummary {
            phi,
            min: self.min,
            max: self.max,
            total: self.total,
        }
    }
}

/// The second pass over a round: the squared deviations of the snapshot
/// and of the new loads, in one blocked sweep, finishing `first` into
/// [`RoundTotals`]. Φ stays mean-first and two-pass, so its bits equal
/// [`phi_with`] / [`phi_hat_with`] on either vector.
pub(crate) fn finish_round<L: LoadPotential>(
    first: BlockPartial<L>,
    snapshot: &[L],
    new: &[L],
    pool: Option<&WorkerPool>,
) -> RoundTotals<L> {
    let n = new.len();
    let (c_before, c_after) = (L::centre(n, first.snap), L::centre(n, first.new));
    let (phi_before, phi_after) = blocked_reduce(
        n,
        pool,
        |b| {
            let (s, e) = block_bounds(b, n);
            let (mut before, mut after) = (L::Phi::default(), L::Phi::default());
            for (&x, &y) in snapshot[s..e].iter().zip(&new[s..e]) {
                before = before + L::sq_dev(x, c_before);
                after = after + L::sq_dev(y, c_after);
            }
            (before, after)
        },
        |(a0, a1), (b0, b1)| (a0 + b0, a1 + b1),
        (L::Phi::default(), L::Phi::default()),
    );
    RoundTotals {
        phi_before,
        phi_after,
        tally: first.tally,
        summary: first.summary(phi_after),
    }
}

/// [`LoadSummary`] of `loads` in one `Φ` pass: the first sweep yields the
/// total, min and max together, the second the squared deviations.
pub(crate) fn summary_with<L: LoadPotential>(
    loads: &[L],
    pool: Option<&WorkerPool>,
) -> LoadSummary<L::Phi> {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    let first = first_pass(None, loads, None, pool);
    first.summary(sq_pass(loads, first.new, pool))
}

/// Block-ordered squared deviations of `loads` around `total / n`.
fn sq_pass<L: LoadPotential>(loads: &[L], total: L::Sum, pool: Option<&WorkerPool>) -> L::Phi {
    let n = loads.len();
    let centre = L::centre(n, total);
    blocked_reduce(
        n,
        pool,
        |b| {
            let (s, e) = block_bounds(b, n);
            loads[s..e]
                .iter()
                .fold(L::Phi::default(), |acc, &x| acc + L::sq_dev(x, centre))
        },
        |a, b| a + b,
        L::Phi::default(),
    )
}

/// Block-ordered total of `loads`.
fn sum_of<L: LoadPotential>(loads: &[L], pool: Option<&WorkerPool>) -> L::Sum {
    blocked_reduce(
        loads.len(),
        pool,
        |b| {
            let (s, e) = block_bounds(b, loads.len());
            block_sum(&loads[s..e])
        },
        |a, b| a + b,
        L::Sum::default(),
    )
}

/// Mean-first, two-pass potential of `loads` in the one block order.
fn phi_of<L: LoadPotential>(loads: &[L], pool: Option<&WorkerPool>) -> L::Phi {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    sq_pass(loads, sum_of(loads, pool), pool)
}

/// Mean load `ℓ̄` of a continuous load vector.
pub fn mean(loads: &[f64]) -> f64 {
    mean_with(loads, None)
}

/// [`mean`] with the block partials optionally computed over `pool`
/// (bit-identical to the serial result).
pub fn mean_with(loads: &[f64], pool: Option<&WorkerPool>) -> f64 {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    sum_of(loads, pool) / loads.len() as f64
}

/// Potential `Φ(L) = Σᵢ (ℓᵢ − ℓ̄)²` of a continuous load vector.
pub fn phi(loads: &[f64]) -> f64 {
    phi_with(loads, None)
}

/// [`phi`] with the block partials optionally computed over `pool`
/// (bit-identical to the serial result — see the module docs).
pub fn phi_with(loads: &[f64], pool: Option<&WorkerPool>) -> f64 {
    phi_of(loads, pool)
}

/// Discrepancy `K = maxᵢ ℓᵢ − minᵢ ℓᵢ` of a continuous load vector.
pub fn discrepancy(loads: &[f64]) -> f64 {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &l in loads {
        lo = lo.min(l);
        hi = hi.max(l);
    }
    hi - lo
}

/// Total load `S` of a discrete vector, exactly.
pub fn total_discrete(loads: &[i64]) -> i128 {
    loads.iter().map(|&l| l as i128).sum()
}

/// Exact scaled potential `Φ̂(L) = Σᵢ (n·ℓᵢ − S)² = n²·Φ(L)`.
///
/// Exact for `|ℓᵢ| ≤ 2⁶² / n`; the experiments use loads ≤ 2³² and
/// `n ≤ 2²⁰`, far inside the safe range.
pub fn phi_hat(loads: &[i64]) -> u128 {
    phi_hat_with(loads, None)
}

/// [`phi_hat`] with the block partials optionally computed over `pool`.
/// Integer sums are exact in any order; the blocked structure is kept so
/// the serial and parallel paths run the identical code.
pub fn phi_hat_with(loads: &[i64], pool: Option<&WorkerPool>) -> u128 {
    phi_of(loads, pool)
}

/// Floating-point potential of a discrete vector: `Φ = Φ̂ / n²`.
pub fn phi_discrete(loads: &[i64]) -> f64 {
    let n = loads.len() as f64;
    phi_hat(loads) as f64 / (n * n)
}

/// Discrepancy of a discrete load vector.
pub fn discrepancy_discrete(loads: &[i64]) -> i64 {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    let hi = *loads.iter().max().expect("non-empty");
    let lo = *loads.iter().min().expect("non-empty");
    hi - lo
}

/// Exact all-pairs squared-difference sum `Σᵢ Σⱼ (ℓᵢ − ℓⱼ)²` (both ordered
/// pairs, matching the paper's double sum in Lemma 10).
///
/// Computed in `O(n)` via the expansion
/// `Σᵢⱼ (ℓᵢ − ℓⱼ)² = 2n·Σᵢ ℓᵢ² − 2·S²`.
pub fn pairwise_sq_sum(loads: &[i64]) -> u128 {
    let n = loads.len() as i128;
    let s: i128 = total_discrete(loads);
    let sq: i128 = loads.iter().map(|&l| (l as i128) * (l as i128)).sum();
    (2 * n * sq - 2 * s * s) as u128
}

/// Lemma 10 as an exact predicate: `n · Σᵢⱼ (ℓᵢ − ℓⱼ)² == 2 · Φ̂(L)`.
///
/// Always true — kept as an executable statement of the lemma (experiment
/// E9 evaluates it over randomized vectors; property tests over arbitrary
/// ones).
pub fn lemma10_exact_identity_holds(loads: &[i64]) -> bool {
    let n = loads.len() as u128;
    n * pairwise_sq_sum(loads) == 2 * phi_hat(loads)
}

/// Continuous all-pairs squared-difference sum, `O(n)`.
pub fn pairwise_sq_sum_continuous(loads: &[f64]) -> f64 {
    let n = loads.len() as f64;
    let s: f64 = loads.iter().sum();
    let sq: f64 = loads.iter().map(|&l| l * l).sum();
    2.0 * n * sq - 2.0 * s * s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_of_balanced_vector_is_zero() {
        assert_eq!(phi(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(phi_hat(&[7, 7, 7, 7]), 0);
    }

    #[test]
    fn phi_simple_example() {
        // loads [0, 2], mean 1: Φ = 1 + 1 = 2.
        assert!((phi(&[0.0, 2.0]) - 2.0).abs() < 1e-12);
        // Φ̂ = n²Φ = 8.
        assert_eq!(phi_hat(&[0, 2]), 8);
        assert!((phi_discrete(&[0, 2]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phi_hat_handles_non_integer_mean() {
        // loads [0, 1]: mean 1/2, Φ = 1/2, Φ̂ = 4 * 1/2 = 2.
        assert_eq!(phi_hat(&[0, 1]), 2);
        assert!((phi_discrete(&[0, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phi_hat_negative_loads() {
        // Potential is translation-invariant.
        assert_eq!(phi_hat(&[-3, -1]), phi_hat(&[0, 2]));
    }

    #[test]
    fn discrepancy_basic() {
        assert_eq!(discrepancy(&[1.0, 9.0, 4.0]), 8.0);
        assert_eq!(discrepancy_discrete(&[-5, 3, 0]), 8);
        assert_eq!(discrepancy_discrete(&[2]), 0);
    }

    #[test]
    fn lemma10_identity_small_vectors() {
        for loads in [
            vec![0i64],
            vec![0, 1],
            vec![5, 5, 5],
            vec![0, 1, 2, 3, 4],
            vec![-10, 3, 7, 0, 0, 22],
            vec![1_000_000_007, 0, -999, 42],
        ] {
            assert!(lemma10_exact_identity_holds(&loads), "failed for {loads:?}");
        }
    }

    #[test]
    fn pairwise_sum_matches_naive() {
        let loads = [3i64, -1, 4, 1, -5];
        let mut naive: i128 = 0;
        for &a in &loads {
            for &b in &loads {
                naive += ((a - b) as i128).pow(2);
            }
        }
        assert_eq!(pairwise_sq_sum(&loads), naive as u128);
    }

    #[test]
    fn pairwise_continuous_matches_naive() {
        let loads = [0.5f64, -1.25, 3.75, 2.0];
        let mut naive = 0.0;
        for &a in &loads {
            for &b in &loads {
                naive += (a - b) * (a - b);
            }
        }
        assert!((pairwise_sq_sum_continuous(&loads) - naive).abs() < 1e-9);
    }

    #[test]
    fn phi_discrete_matches_float_phi() {
        let loads = [17i64, 3, 99, 0, 45, 45];
        let float: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
        assert!((phi_discrete(&loads) - phi(&float)).abs() < 1e-9);
    }

    #[test]
    fn large_loads_do_not_overflow() {
        let loads = vec![1i64 << 32; 1000];
        assert_eq!(phi_hat(&loads), 0);
        let mut loads = loads;
        loads[0] += 1 << 20;
        assert!(phi_hat(&loads) > 0);
        assert!(lemma10_exact_identity_holds(&loads));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vector_rejected() {
        phi(&[]);
    }
}
