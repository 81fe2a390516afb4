//! Graph partitioning for sharded execution.
//!
//! The diffusion gather is embarrassingly *local*: node `v`'s new load
//! reads only `v` and its neighbours. A flat index-range split (the pool
//! executor's chunking) ignores that locality — every worker's chunk can
//! touch loads anywhere in the vector. This module partitions the node set
//! into **shards** so that an executor can assign each shard to one
//! persistent worker, compute **interior** nodes (all neighbours owned)
//! from shard-local data, and exchange only the **halo** — the boundary
//! loads a shard reads from its neighbours' shards — between rounds. That
//! is the execution shape communication-aware diffusive balancers use in
//! practice, and the precomputed [`ShardView`]s are exactly what the
//! message and process backends need to replace shared-memory reads with
//! explicit receives.
//!
//! Two partitioners are provided:
//!
//! * [`Partition::range`] — contiguous index ranges of near-equal size.
//!   Zero setup cost; already locality-aware for topologies whose node
//!   numbering is geometric (grids, tori, paths);
//! * [`Partition::bfs`] — BFS-grown regions from farthest-point seeds with
//!   a hard per-shard size cap. Deterministic (no RNG), respects the
//!   max-imbalance bound `max shard size ≤ ⌈n/shards⌉`, and typically cuts
//!   far fewer edges than range splitting on irregular topologies.
//!
//! Quality is measured by [`Partition::edge_cut`] (edges crossing shards)
//! and [`Partition::imbalance`] (largest shard relative to the ideal
//! `n/shards`); both are pinned by property tests against brute-force
//! recounts.

use crate::graph::{Csr, Graph};
use std::collections::VecDeque;

/// A declarative partitioning strategy — plain data, so execution backends
/// and scenario files can carry it around and rebuild the partition for
/// whatever graph is current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Contiguous index ranges of near-equal size (sizes differ by ≤ 1).
    Range {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// BFS-grown regions from farthest-point seeds, capped at
    /// `⌈n/shards⌉` nodes per shard.
    Bfs {
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

impl PartitionSpec {
    /// The shard count the spec asks for.
    pub fn shards(&self) -> usize {
        match *self {
            PartitionSpec::Range { shards } | PartitionSpec::Bfs { shards } => shards,
        }
    }

    /// Strategy name as used in scenario files (`range`, `bfs`).
    pub fn strategy_name(&self) -> &'static str {
        match self {
            PartitionSpec::Range { .. } => "range",
            PartitionSpec::Bfs { .. } => "bfs",
        }
    }

    /// Builds the partition of `g` this spec describes.
    pub fn build(&self, g: &Graph) -> Partition {
        match *self {
            PartitionSpec::Range { shards } => Partition::range(g.n(), shards),
            PartitionSpec::Bfs { shards } => Partition::bfs(g, shards),
        }
    }
}

/// An assignment of every node to exactly one shard.
///
/// Shards may be empty (when `shards > n`); every node is owned by exactly
/// one shard — an invariant the constructors guarantee and the property
/// suite re-checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    /// `owner[v]` = shard owning node `v`.
    owner: Vec<u32>,
    /// Node count per shard.
    sizes: Vec<usize>,
}

impl Partition {
    fn from_owner(shards: usize, owner: Vec<u32>) -> Partition {
        let mut sizes = vec![0usize; shards];
        for &s in &owner {
            sizes[s as usize] += 1;
        }
        Partition {
            shards,
            owner,
            sizes,
        }
    }

    /// Contiguous range partition of `0..n` into `shards ≥ 1` pieces whose
    /// sizes differ by at most one.
    pub fn range(n: usize, shards: usize) -> Partition {
        assert!(shards >= 1, "partition needs at least one shard");
        let base = n / shards;
        let extra = n % shards;
        let mut owner = Vec::with_capacity(n);
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            owner.extend(std::iter::repeat_n(s as u32, len));
        }
        Partition::from_owner(shards, owner)
    }

    /// BFS-grown region partition of `g` into `shards ≥ 1` pieces.
    ///
    /// Deterministic: seeds are chosen by the farthest-point heuristic
    /// (node 0 first, then repeatedly the node farthest from all seeds so
    /// far — unreachable nodes count as farthest, which spreads seeds
    /// across components), regions grow one node per shard per round-robin
    /// turn so they stay balanced, and each shard is hard-capped at
    /// `⌈n/shards⌉` nodes. Nodes no frontier can reach (disconnected
    /// remainders) are assigned to the smallest shard with spare capacity,
    /// so the imbalance bound holds unconditionally.
    pub fn bfs(g: &Graph, shards: usize) -> Partition {
        assert!(shards >= 1, "partition needs at least one shard");
        let n = g.n();
        let cap = n.div_ceil(shards);
        let active = shards.min(n); // shards beyond n stay empty

        // Farthest-point seeds: O(active · (n + m)).
        let mut seeds = Vec::with_capacity(active);
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for _ in 0..active {
            let seed = if seeds.is_empty() {
                0u32
            } else {
                // Farthest (unreachable first), smallest id on ties.
                let mut best = 0u32;
                let mut best_d = 0u32;
                let mut found = false;
                for v in 0..n as u32 {
                    let d = dist[v as usize];
                    if d > 0 && (!found || d > best_d) {
                        best = v;
                        best_d = d;
                        found = true;
                    }
                }
                if !found {
                    break; // fewer distinct nodes than shards
                }
                best
            };
            seeds.push(seed);
            if seeds.len() == active {
                break; // the last seed's distances pick no further seed
            }
            // Incremental multi-source BFS: relax distances from the new
            // seed only.
            dist[seed as usize] = 0;
            queue.push_back(seed);
            while let Some(v) = queue.pop_front() {
                let dv = dist[v as usize];
                for &u in g.neighbors(v) {
                    if dist[u as usize] > dv + 1 {
                        dist[u as usize] = dv + 1;
                        queue.push_back(u);
                    }
                }
            }
        }

        const UNASSIGNED: u32 = u32::MAX;
        let mut owner = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; shards];
        let mut frontiers: Vec<VecDeque<u32>> = vec![VecDeque::new(); shards];
        for (s, &seed) in seeds.iter().enumerate() {
            frontiers[s].push_back(seed);
        }

        // Round-robin growth: each turn a shard claims at most one node,
        // keeping region sizes in lock step.
        let mut remaining = n;
        let mut progressed = true;
        while remaining > 0 && progressed {
            progressed = false;
            for s in 0..shards {
                if sizes[s] >= cap {
                    frontiers[s].clear();
                    continue;
                }
                while let Some(v) = frontiers[s].pop_front() {
                    if owner[v as usize] != UNASSIGNED {
                        continue;
                    }
                    owner[v as usize] = s as u32;
                    sizes[s] += 1;
                    remaining -= 1;
                    for &u in g.neighbors(v) {
                        if owner[u as usize] == UNASSIGNED {
                            frontiers[s].push_back(u);
                        }
                    }
                    progressed = true;
                    break;
                }
            }
        }

        // Disconnected / capped-off remainders: smallest shard with spare
        // capacity takes the next node. Σ⌈n/shards⌉ ≥ n, so this always
        // terminates with the size bound intact.
        if remaining > 0 {
            for slot in owner.iter_mut() {
                if *slot != UNASSIGNED {
                    continue;
                }
                let s = (0..shards)
                    .filter(|&s| sizes[s] < cap)
                    .min_by_key(|&s| (sizes[s], s))
                    .expect("total capacity covers n");
                *slot = s as u32;
                sizes[s] += 1;
            }
        }

        Partition {
            shards,
            owner,
            sizes,
        }
    }

    /// Number of shards (some possibly empty).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes partitioned.
    pub fn n(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn owner_of(&self, v: u32) -> usize {
        self.owner[v as usize] as usize
    }

    /// The full owner vector (`owner[v]` = shard of node `v`).
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Node count of shard `s`.
    pub fn shard_size(&self, s: usize) -> usize {
        self.sizes[s]
    }

    /// Largest shard size.
    pub fn max_shard_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// The hard per-shard size bound `⌈n/shards⌉` both constructors
    /// respect.
    pub fn size_bound(&self) -> usize {
        self.n().div_ceil(self.shards)
    }

    /// Load-balance quality: largest shard relative to the ideal
    /// `n/shards` (1.0 = perfectly balanced; always ≤
    /// `size_bound / (n/shards)`).
    pub fn imbalance(&self) -> f64 {
        if self.n() == 0 {
            return 1.0;
        }
        self.max_shard_size() as f64 / (self.n() as f64 / self.shards as f64)
    }

    /// Number of edges of `g` whose endpoints live in different shards —
    /// the communication volume a distributed round pays.
    pub fn edge_cut(&self, g: &Graph) -> usize {
        assert_eq!(g.n(), self.n(), "partition/graph node count mismatch");
        g.edges()
            .filter(|&(u, v)| self.owner[u as usize] != self.owner[v as usize])
            .count()
    }

    /// Sorted member list of every shard.
    pub fn member_lists(&self) -> Vec<Vec<u32>> {
        let mut members: Vec<Vec<u32>> =
            self.sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        for (v, &s) in self.owner.iter().enumerate() {
            members[s as usize].push(v as u32);
        }
        members
    }
}

/// One shard's view of the graph: its owned nodes, their split into
/// interior and boundary, and the halo it receives — the exchange
/// schedule of shard-local execution.
///
/// The shard's local index space is `[owned nodes (ascending global id),
/// halo nodes (ascending global id)]`: local ids `0..owned.len()` are
/// owned, the rest are halo. [`ShardPlan::local_csr`] derives, on
/// demand, each owned row's neighbour list in local ids and every local
/// node's global degree, so a distributed worker holding only
/// `owned.len() + halo.len()` load values (packed by
/// [`ShardView::assemble`]) can evaluate the gather kernel for every
/// owned node without any global-indexed memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardView {
    shard: usize,
    owned: Vec<u32>,
    interior: Vec<u32>,
    boundary: Vec<u32>,
    halo: Vec<u32>,
    /// Owning shard of each halo node (parallel to `halo`) — the batched
    /// exchange schedule: shard `s` receives `halo_from(src)` values from
    /// each source shard per round.
    halo_owner: Vec<u32>,
}

impl ShardView {
    /// The shard index this view describes.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Owned nodes (ascending global id).
    pub fn owned(&self) -> &[u32] {
        &self.owned
    }

    /// Owned nodes all of whose neighbours are also owned: computable from
    /// shard-local data alone.
    pub fn interior(&self) -> &[u32] {
        &self.interior
    }

    /// Owned nodes with at least one remote neighbour: their gather reads
    /// halo values.
    pub fn boundary(&self) -> &[u32] {
        &self.boundary
    }

    /// Remote neighbours of the boundary (ascending global id) — the
    /// values this shard receives each round.
    pub fn halo(&self) -> &[u32] {
        &self.halo
    }

    /// Owning shard of each halo node (parallel to [`ShardView::halo`]).
    pub fn halo_owners(&self) -> &[u32] {
        &self.halo_owner
    }

    /// The batched exchange schedule of this shard's receive side: the
    /// halo, grouped by owning shard — one `(source shard, global ids)`
    /// entry per neighbour shard, sources ascending, ids ascending within
    /// each group, every halo node in exactly one group. A message-passing
    /// round receives exactly one batched message per entry; the send side
    /// is the mirror image (shard `s` sends to `t` precisely the values of
    /// `t`'s group for source `s`), so both endpoints derive the id list
    /// from the same plan and the message itself carries only the values.
    pub fn halo_groups(&self) -> Vec<(usize, Vec<u32>)> {
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        // `halo` is ascending, so pushing in halo order keeps every
        // group's ids ascending; sources are sorted afterwards.
        for (&h, &owner) in self.halo.iter().zip(&self.halo_owner) {
            match groups.iter_mut().find(|(s, _)| *s == owner as usize) {
                Some((_, ids)) => ids.push(h),
                None => groups.push((owner as usize, vec![h])),
            }
        }
        groups.sort_by_key(|&(s, _)| s);
        groups
    }

    /// Number of halo values received from `src` per round.
    pub fn halo_from(&self, src: usize) -> usize {
        self.halo_owner
            .iter()
            .filter(|&&o| o as usize == src)
            .count()
    }

    /// Global id of local id `local` (owned first, then halo).
    pub fn global_of(&self, local: u32) -> u32 {
        let local = local as usize;
        if local < self.owned.len() {
            self.owned[local]
        } else {
            self.halo[local - self.owned.len()]
        }
    }

    /// Number of local nodes: owned, then halo.
    pub fn local_len(&self) -> usize {
        self.owned.len() + self.halo.len()
    }

    /// Packs the shard-local value vector `[owned values, halo values]`
    /// out of a global vector — what a distributed rank would hold after
    /// the halo exchange. Clears and refills `out`.
    pub fn assemble<T: Copy>(&self, global: &[T], out: &mut Vec<T>) {
        out.clear();
        out.reserve(self.owned.len() + self.halo.len());
        out.extend(self.owned.iter().map(|&v| global[v as usize]));
        out.extend(self.halo.iter().map(|&v| global[v as usize]));
    }
}

/// A shard's local CSR: its owned nodes as rows `0..owned`, each row's
/// neighbours as local ids (owned first, then halo) in the global CSR's
/// slot order, and the global degree of every local node. The slot order
/// keeps a gather's summation order, and the halo degrees give every
/// divisor `k·max(dᵥ, dᵤ)`, so a gather over the local CSR reproduces
/// the global gather bit for bit. This is all a shard worker needs to
/// hold; it never sees a global node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalCsr {
    /// Global degree of every local node: owned rows, then halo.
    degrees: Vec<u32>,
    /// Row offsets into `slots`, length `owned + 1`.
    offsets: Vec<usize>,
    /// Concatenated neighbour lists of the owned rows, in local ids.
    slots: Vec<u32>,
    max_degree: u32,
    min_degree: u32,
}

impl LocalCsr {
    /// Assembles a local CSR from its shipped parts: the owned row count,
    /// every local node's degree (owned rows first) and the rows'
    /// concatenated local neighbour slots. The row lengths are the owned
    /// nodes' degrees.
    ///
    /// # Panics
    ///
    /// If the parts are inconsistent: `owned > degrees.len()`, owned
    /// degrees that do not sum to `slots.len()`, or a slot that names no
    /// local node. Callers holding untrusted parts validate them first.
    pub fn from_parts(owned: usize, degrees: Vec<u32>, slots: Vec<u32>) -> LocalCsr {
        assert!(owned <= degrees.len(), "more rows than local nodes");
        let mut offsets = Vec::with_capacity(owned + 1);
        let mut end = 0usize;
        offsets.push(0);
        for &d in &degrees[..owned] {
            end += d as usize;
            offsets.push(end);
        }
        assert_eq!(end, slots.len(), "row degrees must sum to the slot count");
        assert!(
            slots.iter().all(|&u| (u as usize) < degrees.len()),
            "slot names no local node"
        );
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let min_degree = degrees.iter().copied().min().unwrap_or(0);
        LocalCsr {
            degrees,
            offsets,
            slots,
            max_degree,
            min_degree,
        }
    }

    /// Number of local nodes: owned rows plus halo.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// Whether the shard holds no node at all.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Global degree of every local node, owned rows first.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }
}

impl Csr for LocalCsr {
    #[inline]
    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        self.degrees[v as usize]
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_degree
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_degree
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        &self.slots[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    #[inline]
    fn neighbor_offset(&self, v: u32) -> usize {
        self.offsets[v as usize]
    }

    #[inline]
    fn neighbor_slots(&self) -> &[u32] {
        &self.slots
    }
}

/// A complete sharded execution plan: one [`ShardView`] per shard, each
/// node's rank in its owner's owned list, and the plan-level quality
/// metrics. Built once per distinct graph and reused every round (the
/// engine memoizes plans by graph fingerprint). It holds the exchange
/// schedule only: a shard's local CSR is derived from the graph on
/// demand ([`ShardPlan::local_csr`], [`ShardPlan::local_row`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    views: Vec<ShardView>,
    /// `rank[v]` = position of node `v` in its owner's owned list.
    rank: Vec<u32>,
    edge_cut: usize,
    halo_total: usize,
    interior_total: usize,
}

impl ShardPlan {
    /// Derives the plan of `partition` over `g`: every shard's
    /// interior/boundary/halo sets and every node's rank. The edge cut is
    /// counted from the boundary rows' remote slots, which the halo scan
    /// visits anyway: each cut edge is one remote slot on either side.
    pub fn build(g: &Graph, partition: &Partition) -> ShardPlan {
        assert_eq!(g.n(), partition.n(), "partition/graph node count mismatch");
        let owner = partition.owners();
        let members = partition.member_lists();
        let mut rank = vec![0u32; g.n()];
        let mut views = Vec::with_capacity(partition.shards());
        let mut halo_total = 0usize;
        let mut interior_total = 0usize;
        let mut remote_slots = 0usize;
        for (s, owned) in members.into_iter().enumerate() {
            let shard = s as u32;
            let mut interior = Vec::new();
            let mut boundary = Vec::new();
            let mut halo: Vec<u32> = Vec::new();
            for (i, &v) in owned.iter().enumerate() {
                rank[v as usize] = i as u32;
                let before = halo.len();
                for &u in g.neighbors(v) {
                    if owner[u as usize] != shard {
                        halo.push(u);
                    }
                }
                if halo.len() > before {
                    remote_slots += halo.len() - before;
                    boundary.push(v);
                } else {
                    interior.push(v);
                }
            }
            halo.sort_unstable();
            halo.dedup();
            let halo_owner: Vec<u32> = halo.iter().map(|&h| owner[h as usize]).collect();

            halo_total += halo.len();
            interior_total += interior.len();
            views.push(ShardView {
                shard: s,
                owned,
                interior,
                boundary,
                halo,
                halo_owner,
            });
        }
        let plan = ShardPlan {
            n: g.n(),
            views,
            rank,
            edge_cut: remote_slots / 2,
            halo_total,
            interior_total,
        };
        debug_assert_eq!(plan.edge_cut, partition.edge_cut(g));
        debug_assert_eq!(
            plan.views.iter().map(|v| v.owned.len()).sum::<usize>(),
            plan.n,
            "shard views must cover every node exactly once"
        );
        plan
    }

    /// A graph-free fallback plan: contiguous owned ranges, every node
    /// treated as interior, no halo and no local CSR. Used for protocols
    /// that expose no topology (e.g. random-partner schemes, whose reads
    /// are not neighbourhood-local) — sharded execution stays correct, but
    /// carries no locality information.
    pub fn trivial(n: usize, shards: usize) -> ShardPlan {
        let partition = Partition::range(n, shards);
        let members = partition.member_lists();
        let mut rank = Vec::with_capacity(n);
        for owned in &members {
            rank.extend(0..owned.len() as u32);
        }
        let views = members
            .into_iter()
            .enumerate()
            .map(|(s, owned)| ShardView {
                shard: s,
                interior: owned.clone(),
                boundary: Vec::new(),
                halo: Vec::new(),
                halo_owner: Vec::new(),
                owned,
            })
            .collect();
        ShardPlan {
            n,
            views,
            rank,
            edge_cut: 0,
            halo_total: 0,
            interior_total: n,
        }
    }

    /// Node count the plan covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-shard views.
    pub fn views(&self) -> &[ShardView] {
        &self.views
    }

    /// Edges crossing shards.
    pub fn edge_cut(&self) -> usize {
        self.edge_cut
    }

    /// Total halo entries over all shards — the per-round value count a
    /// distributed backend would move (each cut edge contributes one halo
    /// entry per side, minus sharing between boundary nodes).
    pub fn halo_total(&self) -> usize {
        self.halo_total
    }

    /// Total interior nodes over all shards (computable with no exchange).
    pub fn interior_total(&self) -> usize {
        self.interior_total
    }

    /// Position of every node in its owner's owned list.
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Local id of global node `u` in shard `s`'s index space, if `u` is
    /// owned by `s` (its rank, found in `O(1)`) or in its halo (owned
    /// count plus its index in the sorted halo).
    pub fn local_id(&self, s: usize, u: u32) -> Option<u32> {
        local_id(&self.views[s], &self.rank, u)
    }

    /// Shard `s`'s owned row `row` (global node `owned()[row]`): its
    /// neighbours in `g`, the graph this plan was built from, as local
    /// ids in `g`'s slot order. The one row mapping behind
    /// [`ShardPlan::local_csr`] and the process backend's streamed plan
    /// frames.
    pub fn local_row<'a>(
        &'a self,
        g: &'a Graph,
        s: usize,
        row: usize,
    ) -> impl ExactSizeIterator<Item = u32> + 'a {
        debug_assert_eq!(g.n(), self.n, "plan/graph node count mismatch");
        let (view, rank) = (&self.views[s], &self.rank[..]);
        g.neighbors(view.owned[row]).iter().map(move |&u| {
            local_id(view, rank, u).expect("an owned row's neighbours are owned or halo")
        })
    }

    /// The global degree in `g` of every local node of shard `s`: owned
    /// rows, then halo.
    pub fn local_degrees<'a>(&'a self, g: &'a Graph, s: usize) -> impl Iterator<Item = u32> + 'a {
        let view = &self.views[s];
        view.owned.iter().chain(&view.halo).map(|&v| g.degree(v))
    }

    /// Shard `s`'s local CSR over `g`, the graph this plan was built
    /// from: owned rows in local ids, in `g`'s slot order, and the global
    /// degree of every local node. Derived on demand from
    /// [`ShardPlan::local_row`]; the plan itself does not hold it.
    pub fn local_csr(&self, g: &Graph, s: usize) -> LocalCsr {
        assert_eq!(g.n(), self.n, "plan/graph node count mismatch");
        let owned = self.views[s].owned.len();
        let degrees = self.local_degrees(g, s).collect();
        let mut slots = Vec::new();
        for row in 0..owned {
            slots.extend(self.local_row(g, s, row));
        }
        LocalCsr::from_parts(owned, degrees, slots)
    }
}

/// [`ShardPlan::local_id`] for one view: `u`'s rank if the view owns it,
/// else its halo position.
#[inline]
fn local_id(view: &ShardView, rank: &[u32], u: u32) -> Option<u32> {
    let r = *rank.get(u as usize)?;
    if view.owned.get(r as usize) == Some(&u) {
        return Some(r);
    }
    view.halo
        .binary_search(&u)
        .ok()
        .map(|i| (view.owned.len() + i) as u32)
}

/// A cheap structural fingerprint of a graph (FNV-1a over `n`, `m`, and
/// the canonical edge list). Used to memoize shard plans across the
/// graphs of a dynamic sequence: equal graphs always collide, and a
/// spurious collision is astronomically unlikely (~2⁻⁶⁴ per distinct
/// pair). The message and process backends derive their halo exchange
/// schedule from the memoized plan, so a collision would exchange the
/// wrong values — the risk is accepted at these odds.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
    h = mix(h, g.n() as u64);
    h = mix(h, g.m() as u64);
    for (u, v) in g.edges() {
        h = mix(h, ((u as u64) << 32) | v as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn assert_cover_exactly_once(p: &Partition) {
        let mut seen = vec![0usize; p.n()];
        for lists in p.member_lists() {
            for v in lists {
                seen[v as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "nodes not covered exactly once"
        );
        assert_eq!(p.sizes.iter().sum::<usize>(), p.n());
    }

    #[test]
    fn range_partition_is_balanced_and_contiguous() {
        let p = Partition::range(10, 3);
        assert_eq!(p.owners(), &[0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(p.max_shard_size(), 4);
        assert!(p.imbalance() <= 4.0 / (10.0 / 3.0) + 1e-12);
        assert_cover_exactly_once(&p);
    }

    #[test]
    fn range_partition_with_more_shards_than_nodes() {
        let p = Partition::range(3, 7);
        assert_cover_exactly_once(&p);
        assert_eq!(p.max_shard_size(), 1);
        assert_eq!(p.shards(), 7);
    }

    #[test]
    fn bfs_partition_respects_bound_and_covers() {
        for (g, shards) in [
            (topology::torus2d(8, 8), 4),
            (topology::cycle(17), 3),
            (topology::star(20), 5),
            (topology::hypercube(5), 8),
            (topology::path(6), 10), // shards > n
            (topology::complete(9), 1),
        ] {
            let p = Partition::bfs(&g, shards);
            assert_cover_exactly_once(&p);
            assert!(
                p.max_shard_size() <= p.size_bound(),
                "bound violated: {} > {}",
                p.max_shard_size(),
                p.size_bound()
            );
        }
    }

    #[test]
    fn bfs_partition_handles_disconnected_graphs() {
        // Two disjoint components; the farthest-point seeding must reach
        // the second one and everything must still be covered.
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]).unwrap();
        let p = Partition::bfs(&g, 2);
        assert_cover_exactly_once(&p);
        assert!(p.max_shard_size() <= p.size_bound());
        // With two shards and two 4-node components, the natural cut is 0.
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn bfs_beats_range_on_scrambled_cycle() {
        // A cycle whose node ids hop around: range partitioning cuts many
        // edges, BFS regions follow the actual topology.
        let n = 64usize;
        let stride = 29; // coprime with 64 → a relabelled cycle
        let edges = (0..n as u32).map(|i| {
            let u = (i as usize * stride % n) as u32;
            let v = ((i as usize + 1) * stride % n) as u32;
            (u, v)
        });
        let g = Graph::from_edges(n, edges).unwrap();
        let range_cut = Partition::range(n, 4).edge_cut(&g);
        let bfs_cut = Partition::bfs(&g, 4).edge_cut(&g);
        assert!(
            bfs_cut < range_cut,
            "bfs cut {bfs_cut} not better than range cut {range_cut}"
        );
    }

    #[test]
    fn edge_cut_matches_brute_force() {
        let g = topology::torus2d(6, 6);
        let p = Partition::bfs(&g, 4);
        let brute = g
            .edges()
            .filter(|&(u, v)| p.owner_of(u) != p.owner_of(v))
            .count();
        assert_eq!(p.edge_cut(&g), brute);
    }

    #[test]
    fn shard_views_partition_interior_boundary_and_halo() {
        let g = topology::torus2d(4, 4);
        let p = Partition::range(g.n(), 4);
        let plan = ShardPlan::build(&g, &p);
        assert_eq!(plan.n(), 16);
        let mut covered = 0usize;
        for view in plan.views() {
            covered += view.owned().len();
            // interior ∪ boundary = owned, disjoint.
            assert_eq!(
                view.interior().len() + view.boundary().len(),
                view.owned().len()
            );
            for &v in view.interior() {
                for &u in g.neighbors(v) {
                    assert_eq!(
                        p.owner_of(u),
                        view.shard(),
                        "interior node with remote neighbour"
                    );
                }
            }
            for &v in view.boundary() {
                assert!(
                    g.neighbors(v)
                        .iter()
                        .any(|&u| p.owner_of(u) != view.shard()),
                    "boundary node without remote neighbour"
                );
            }
            // halo = exactly the remote neighbours of the boundary.
            let mut expect: Vec<u32> = view
                .boundary()
                .iter()
                .flat_map(|&v| g.neighbors(v).iter().copied())
                .filter(|&u| p.owner_of(u) != view.shard())
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(view.halo(), &expect[..]);
            for (i, &h) in view.halo().iter().enumerate() {
                assert_eq!(view.halo_owners()[i] as usize, p.owner_of(h));
            }
        }
        assert_eq!(covered, 16);
        assert_eq!(
            plan.interior_total()
                + plan
                    .views()
                    .iter()
                    .map(|v| v.boundary().len())
                    .sum::<usize>(),
            16
        );
    }

    #[test]
    fn local_csr_reproduces_global_neighbourhoods() {
        let g = topology::hypercube(4);
        let p = Partition::bfs(&g, 3);
        let plan = ShardPlan::build(&g, &p);
        for (s, view) in plan.views().iter().enumerate() {
            let csr = plan.local_csr(&g, s);
            assert_eq!(csr.len(), view.local_len());
            for (row, &v) in view.owned().iter().enumerate() {
                let mut local: Vec<u32> = csr
                    .neighbors(row as u32)
                    .iter()
                    .map(|&lid| view.global_of(lid))
                    .collect();
                local.sort_unstable();
                assert_eq!(&local[..], g.neighbors(v), "row {v}");
                // And the inverse mapping agrees.
                assert_eq!(plan.local_id(s, v), Some(row as u32));
                assert_eq!(plan.rank()[v as usize], row as u32);
            }
            for &h in view.halo() {
                let lid = plan.local_id(s, h).expect("halo indexed");
                assert_eq!(view.global_of(lid), h);
            }
            assert_eq!(plan.local_id(s, u32::MAX), None);
            // A node neither owned nor in the halo has no local id.
            let outside = g
                .nodes()
                .find(|&u| p.owner_of(u) != s && view.halo().binary_search(&u).is_err());
            if let Some(u) = outside {
                assert_eq!(plan.local_id(s, u), None);
            }
        }
    }

    /// A shard's view and local CSR, rebuilt the slow and obvious way: a
    /// shard's owned nodes from the owner vector, its halo as the sorted
    /// remote neighbours, local ids by linear search.
    fn brute_force_view(g: &Graph, p: &Partition, s: usize) -> (ShardView, LocalCsr) {
        let owned: Vec<u32> = g.nodes().filter(|&v| p.owner_of(v) == s).collect();
        let remote = |v: u32| g.neighbors(v).iter().any(|&u| p.owner_of(u) != s);
        let interior: Vec<u32> = owned.iter().copied().filter(|&v| !remote(v)).collect();
        let boundary: Vec<u32> = owned.iter().copied().filter(|&v| remote(v)).collect();
        let mut halo: Vec<u32> = owned
            .iter()
            .flat_map(|&v| g.neighbors(v).iter().copied())
            .filter(|&u| p.owner_of(u) != s)
            .collect();
        halo.sort_unstable();
        halo.dedup();
        let local: Vec<u32> = owned.iter().chain(&halo).copied().collect();
        let slots = owned
            .iter()
            .flat_map(|&v| g.neighbors(v).iter())
            .map(|u| local.iter().position(|w| w == u).unwrap() as u32)
            .collect();
        let degrees = local.iter().map(|&v| g.degree(v)).collect();
        let csr = LocalCsr::from_parts(owned.len(), degrees, slots);
        let view = ShardView {
            shard: s,
            halo_owner: halo.iter().map(|&h| p.owner_of(h) as u32).collect(),
            owned,
            interior,
            boundary,
            halo,
        };
        (view, csr)
    }

    #[test]
    fn shard_views_match_a_brute_force_construction() {
        // Irregular degrees and a scrambled numbering: a star hub wired
        // into a relabelled cycle, plus a pendant path and an isolated node.
        let n = 40u32;
        let mut b = crate::GraphBuilder::new(n as usize).unwrap();
        for i in 0..30u32 {
            b.add_edge(i * 7 % 30, (i + 1) * 7 % 30).unwrap();
        }
        for leaf in (1..30).step_by(3) {
            b.add_edge(30, leaf).unwrap();
        }
        for v in 31..38 {
            b.add_edge(v, v + 1).unwrap();
        }
        b.add_edge(0, 31).unwrap();
        let g = b.build();
        for p in [
            Partition::range(g.n(), 3),
            Partition::bfs(&g, 3),
            Partition::bfs(&g, 5),
        ] {
            let plan = ShardPlan::build(&g, &p);
            assert_eq!(plan.edge_cut(), p.edge_cut(&g));
            for (s, view) in plan.views().iter().enumerate() {
                let (want_view, want_csr) = brute_force_view(&g, &p, s);
                assert_eq!(view, &want_view, "shard {s}");
                assert_eq!(plan.local_csr(&g, s), want_csr, "shard {s}");
                for (row, &v) in view.owned().iter().enumerate() {
                    assert_eq!(plan.rank()[v as usize], row as u32);
                }
            }
        }
    }

    #[test]
    fn assembled_local_values_support_a_local_gather() {
        // The full distributed story in miniature: pack owned+halo values,
        // evaluate a neighbour-averaging kernel purely through the local
        // CSR, and match the global computation.
        let g = topology::torus2d(4, 4);
        let global: Vec<f64> = (0..16).map(|i| ((i * 31 + 7) % 13) as f64).collect();
        let plan = ShardPlan::build(&g, &Partition::bfs(&g, 4));
        let mut local_vals = Vec::new();
        for (s, view) in plan.views().iter().enumerate() {
            view.assemble(&global, &mut local_vals);
            for (row, &v) in view.owned().iter().enumerate() {
                let local_sum: f64 = plan
                    .local_row(&g, s, row)
                    .map(|lid| local_vals[lid as usize])
                    .sum();
                let global_sum: f64 = g.neighbors(v).iter().map(|&u| global[u as usize]).sum();
                assert_eq!(local_sum.to_bits(), global_sum.to_bits(), "node {v}");
            }
        }
    }

    #[test]
    fn halo_groups_deliver_each_boundary_value_exactly_once() {
        // The batched exchange schedule: per receiving shard, every halo
        // node appears in exactly one (source, ids) group, the group's
        // source really owns it, and the send side (derived as the mirror
        // image) posts every boundary value exactly once per neighbour
        // shard that reads it.
        for (g, shards) in [
            (topology::torus2d(6, 6), 4),
            (topology::hypercube(5), 5),
            (topology::star(20), 3),
            (topology::path(6), 9), // shards > n
        ] {
            let p = Partition::bfs(&g, shards);
            let plan = ShardPlan::build(&g, &p);
            for view in plan.views() {
                let groups = view.halo_groups();
                // Sources ascending and unique, ids ascending within.
                for w in groups.windows(2) {
                    assert!(w[0].0 < w[1].0, "sources not strictly ascending");
                }
                let mut delivered: Vec<u32> = Vec::new();
                for (src, ids) in &groups {
                    assert_ne!(*src, view.shard(), "self-message scheduled");
                    assert!(!ids.is_empty(), "empty exchange group scheduled");
                    for w in ids.windows(2) {
                        assert!(w[0] < w[1], "group ids not ascending");
                    }
                    for &h in ids {
                        assert_eq!(p.owner_of(h), *src, "group entry not owned by source");
                        delivered.push(h);
                    }
                }
                delivered.sort_unstable();
                assert_eq!(
                    delivered,
                    view.halo(),
                    "halo not covered exactly once by the exchange groups"
                );
            }
            // Send side: shard s posts node v to shard t iff v sits in
            // t's group for source s — i.e. exactly once per reader.
            for t in plan.views() {
                for (src, ids) in t.halo_groups() {
                    for &v in &ids {
                        assert!(
                            plan.views()[src].owned().binary_search(&v).is_ok(),
                            "scheduled send of a non-owned node"
                        );
                        assert!(
                            plan.views()[src].boundary().contains(&v),
                            "halo node {v} not classified boundary on its owner"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_plan_covers_without_graph_info() {
        let plan = ShardPlan::trivial(10, 3);
        assert_eq!(plan.n(), 10);
        assert_eq!(plan.rank(), &[0, 1, 2, 3, 0, 1, 2, 0, 1, 2]);
        assert_eq!(plan.edge_cut(), 0);
        assert_eq!(plan.halo_total(), 0);
        assert_eq!(plan.interior_total(), 10);
        let covered: usize = plan.views().iter().map(|v| v.owned().len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn fingerprint_distinguishes_structure_and_matches_equal_graphs() {
        let a = topology::torus2d(4, 4);
        let b = topology::torus2d(4, 4);
        let c = topology::grid2d(4, 4);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
        let empty = a.edge_subgraph(|_, _| false);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&empty));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Partition::range(4, 0);
    }

    #[test]
    fn bfs_partition_cuts_fewer_torus_edges_than_flat_chunking() {
        // The point of communication-aware sharding: on a 2-D torus, BFS
        // regions approximate square tiles whose perimeter beats the long
        // skinny strips of row-major range chunking... at minimum they must
        // never be *worse* than the strips are on an instance this regular,
        // and both bounds stay far below m.
        let g = topology::torus2d(16, 16);
        let range = Partition::range(g.n(), 8).edge_cut(&g);
        let bfs = Partition::bfs(&g, 8).edge_cut(&g);
        assert!(bfs <= range, "bfs cut {bfs} worse than range cut {range}");
        assert!(bfs < g.m() / 2);
    }
}
