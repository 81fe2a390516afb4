//! Graph sequences `(G_k)` — the dynamic-network models.
//!
//! All models operate on a fixed *ground graph* and expose per-round active
//! subgraphs; this matches \[10\]'s setting where the infrastructure is fixed
//! but links fail/recover. Randomized models take a seed at construction
//! and are fully reproducible.

use dlb_graphs::{matching, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of per-round network topologies over a fixed node set.
pub trait GraphSequence {
    /// Number of nodes (constant across rounds).
    fn n(&self) -> usize;
    /// Produces the active graph of the next round.
    fn next_graph(&mut self) -> Graph;
    /// Model name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Boxed sequences forward (including `Box<dyn GraphSequence>` trait
/// objects, with or without auto-trait bounds), so heterogeneous
/// collections of models — and scenario descriptions that pick a model at
/// runtime, as `dlb-workloads` does — can be driven through the same
/// machinery.
impl<S: GraphSequence + ?Sized> GraphSequence for Box<S> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn next_graph(&mut self) -> Graph {
        (**self).next_graph()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The degenerate sequence: every round uses the same graph. Running the
/// dynamic machinery over it must reproduce the fixed-network results —
/// an integration-test invariant.
#[derive(Debug, Clone)]
pub struct StaticSequence {
    g: Graph,
}

impl StaticSequence {
    /// Wraps a fixed graph.
    pub fn new(g: Graph) -> Self {
        StaticSequence { g }
    }
}

impl GraphSequence for StaticSequence {
    fn n(&self) -> usize {
        self.g.n()
    }

    fn next_graph(&mut self) -> Graph {
        self.g.clone()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Each round keeps every ground edge independently with probability `p`
/// (fresh i.i.d. sample per round).
#[derive(Debug)]
pub struct IidSubgraphSequence {
    ground: Graph,
    p: f64,
    rng: StdRng,
}

impl IidSubgraphSequence {
    /// Creates the model; `p ∈ [0, 1]`.
    pub fn new(ground: Graph, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1] (p = {p})");
        IidSubgraphSequence {
            ground,
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl GraphSequence for IidSubgraphSequence {
    fn n(&self) -> usize {
        self.ground.n()
    }

    fn next_graph(&mut self) -> Graph {
        let rng = &mut self.rng;
        let p = self.p;
        self.ground.edge_subgraph(|_, _| rng.gen::<f64>() < p)
    }

    fn name(&self) -> &'static str {
        "iid-subgraph"
    }
}

/// Markov edge churn: each ground edge is an independent two-state chain —
/// an *up* edge goes down with probability `p_fail`, a *down* edge recovers
/// with probability `p_recover`. Stationary availability is
/// `p_recover/(p_fail + p_recover)`.
#[derive(Debug)]
pub struct MarkovChurnSequence {
    ground: Graph,
    p_fail: f64,
    p_recover: f64,
    up: Vec<bool>,
    rng: StdRng,
}

impl MarkovChurnSequence {
    /// Creates the chain with all edges initially up.
    pub fn new(ground: Graph, p_fail: f64, p_recover: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_fail));
        assert!((0.0..=1.0).contains(&p_recover));
        let m = ground.m();
        MarkovChurnSequence {
            ground,
            p_fail,
            p_recover,
            up: vec![true; m],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Long-run fraction of time an edge is up.
    pub fn stationary_availability(&self) -> f64 {
        if self.p_fail + self.p_recover == 0.0 {
            1.0
        } else {
            self.p_recover / (self.p_fail + self.p_recover)
        }
    }
}

impl GraphSequence for MarkovChurnSequence {
    fn n(&self) -> usize {
        self.ground.n()
    }

    fn next_graph(&mut self) -> Graph {
        for state in self.up.iter_mut() {
            let flip = if *state { self.p_fail } else { self.p_recover };
            if self.rng.gen::<f64>() < flip {
                *state = !*state;
            }
        }
        let up = &self.up;
        self.ground.edge_subgraph(|k, _| up[k])
    }

    fn name(&self) -> &'static str {
        "markov-churn"
    }
}

/// Cycles deterministically through a fixed list of graphs — e.g. a TDMA-
/// style schedule where different link subsets are active in different
/// slots.
#[derive(Debug, Clone)]
pub struct PeriodicSequence {
    graphs: Vec<Graph>,
    idx: usize,
}

impl PeriodicSequence {
    /// Creates the schedule; all graphs must share the node count.
    pub fn new(graphs: Vec<Graph>) -> Self {
        assert!(!graphs.is_empty(), "schedule must be non-empty");
        let n = graphs[0].n();
        assert!(graphs.iter().all(|g| g.n() == n), "all graphs must share n");
        PeriodicSequence { graphs, idx: 0 }
    }

    /// Schedule length.
    pub fn period(&self) -> usize {
        self.graphs.len()
    }
}

impl GraphSequence for PeriodicSequence {
    fn n(&self) -> usize {
        self.graphs[0].n()
    }

    fn next_graph(&mut self) -> Graph {
        let g = self.graphs[self.idx].clone();
        self.idx = (self.idx + 1) % self.graphs.len();
        g
    }

    fn name(&self) -> &'static str {
        "periodic"
    }
}

/// Adversarial slow model: each round activates only a random maximal
/// matching of the ground graph (`δ⁽ᵏ⁾ = 1`), the minimum concurrent
/// topology that still makes progress — effectively forcing diffusion to
/// behave like dimension exchange.
#[derive(Debug)]
pub struct MatchingOnlySequence {
    ground: Graph,
    rng: StdRng,
}

impl MatchingOnlySequence {
    /// Creates the model.
    pub fn new(ground: Graph, seed: u64) -> Self {
        MatchingOnlySequence {
            ground,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl GraphSequence for MatchingOnlySequence {
    fn n(&self) -> usize {
        self.ground.n()
    }

    fn next_graph(&mut self) -> Graph {
        let m = matching::random_greedy_matching(&self.ground, &mut self.rng);
        Graph::from_edges(self.ground.n(), m.pairs().iter().copied())
            .expect("matching edges are valid")
    }

    fn name(&self) -> &'static str {
        "matching-only"
    }
}

/// Failure injection: wraps another sequence and blacks out every
/// `outage_every`-th round with an empty edge set (total communication
/// outage). Load must be conserved and the potential frozen in outage
/// rounds — the integration suite asserts both.
pub struct OutageSequence<S> {
    inner: S,
    outage_every: usize,
    counter: usize,
}

impl<S: GraphSequence> OutageSequence<S> {
    /// Wraps `inner`; rounds `outage_every, 2·outage_every, …` are outages.
    pub fn new(inner: S, outage_every: usize) -> Self {
        assert!(outage_every >= 1, "outage period must be >= 1");
        OutageSequence {
            inner,
            outage_every,
            counter: 0,
        }
    }
}

impl<S: GraphSequence> GraphSequence for OutageSequence<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn next_graph(&mut self) -> Graph {
        self.counter += 1;
        if self.counter.is_multiple_of(self.outage_every) {
            // Consume the inner round too, keeping its RNG stream aligned.
            let g = self.inner.next_graph();
            g.edge_subgraph(|_, _| false)
        } else {
            self.inner.next_graph()
        }
    }

    fn name(&self) -> &'static str {
        "outage"
    }
}

/// A deterministic shard fail/recover schedule for
/// [`ShardChurnSequence`]: every `every` rounds (when no shard is
/// already down) one seeded-random shard fails and stays down for
/// `down` consecutive rounds, then recovers. One failure at a time —
/// the regime where re-homing is well-defined round-by-round.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    every: usize,
    down: usize,
    shards: usize,
    rng: StdRng,
    counter: usize,
    remaining_down: usize,
    failed: Option<usize>,
    failures: u64,
}

impl ChurnSchedule {
    /// Creates the schedule; `every`, `down`, and `shards` must all be
    /// at least 1. Fully determined by `seed`.
    pub fn new(every: usize, down: usize, shards: usize, seed: u64) -> Self {
        assert!(every >= 1, "churn period must be >= 1");
        assert!(down >= 1, "downtime must be >= 1");
        assert!(shards >= 1, "churn needs >= 1 shard");
        ChurnSchedule {
            every,
            down,
            shards,
            rng: StdRng::seed_from_u64(seed),
            counter: 0,
            remaining_down: 0,
            failed: None,
            failures: 0,
        }
    }

    /// Advances one round and returns the shard that is down this round,
    /// if any. A new failure starts on rounds `every, 2·every, …` unless
    /// a previous one is still draining.
    pub fn advance(&mut self) -> Option<usize> {
        self.counter += 1;
        if self.remaining_down > 0 {
            self.remaining_down -= 1;
            if self.remaining_down == 0 {
                self.failed = None;
            }
        }
        if self.failed.is_none() && self.counter.is_multiple_of(self.every) {
            self.failed = Some(self.rng.gen_range(0..self.shards));
            self.remaining_down = self.down;
            self.failures += 1;
        }
        self.failed
    }

    /// The shard currently down, if any.
    pub fn failed(&self) -> Option<usize> {
        self.failed
    }

    /// Failures started so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// The number of shards the schedule draws from.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// Shard-level churn: wraps another sequence and, per
/// [`ChurnSchedule`], takes one whole shard out of service for a few
/// rounds — every edge incident to the failed shard's nodes is removed
/// from that round's graph, isolating them completely.
///
/// This is the node-level analogue of [`OutageSequence`], and reduces
/// to the same semantics on the failed shard's cut: isolated nodes keep
/// their loads frozen (a node with no active edges neither sends nor
/// receives), so total load is conserved exactly and the potential
/// cannot increase in a degraded round — diffusion still runs on the
/// surviving subgraph with divisors from the *round* graph. On recovery
/// the shard re-joins with the loads it held at failure; no separate
/// restore step exists or is needed.
///
/// Executor-level faults (worker deaths, dropped batches) are the
/// orthogonal concern handled by `dlb_core::faults` — they recover
/// bit-exactly and never change the round's numerics, while shard churn
/// *is* a change to the round's numerics, modeled here as topology.
pub struct ShardChurnSequence<S> {
    inner: S,
    owners: Vec<u32>,
    schedule: ChurnSchedule,
}

impl<S: GraphSequence> ShardChurnSequence<S> {
    /// Wraps `inner` with a node→shard assignment (`owners[v]` is the
    /// shard of node `v`, as [`dlb_graphs::Partition::owners`] reports)
    /// and a fail/recover schedule.
    ///
    /// [`dlb_graphs::Partition::owners`]: dlb_graphs::partition::Partition::owners
    pub fn new(inner: S, owners: Vec<u32>, schedule: ChurnSchedule) -> Self {
        assert_eq!(owners.len(), inner.n(), "owner map must cover every node");
        assert!(
            owners.iter().all(|&s| (s as usize) < schedule.shards()),
            "owner map names a shard outside the schedule's range"
        );
        ShardChurnSequence {
            inner,
            owners,
            schedule,
        }
    }

    /// The schedule's state (which shard is down, failures so far).
    pub fn schedule(&self) -> &ChurnSchedule {
        &self.schedule
    }
}

impl<S: GraphSequence> GraphSequence for ShardChurnSequence<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn next_graph(&mut self) -> Graph {
        // Always consume the inner round, keeping its RNG stream aligned
        // (the OutageSequence idiom): a degraded round is the *same*
        // round the fault-free run would have drawn, minus one shard.
        let g = self.inner.next_graph();
        match self.schedule.advance() {
            Some(s) => {
                let s = s as u32;
                let owners = &self.owners;
                g.edge_subgraph(|_, (u, v)| owners[u as usize] != s && owners[v as usize] != s)
            }
            None => g,
        }
    }

    fn name(&self) -> &'static str {
        "churn-shards"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graphs::topology;

    #[test]
    fn static_sequence_repeats() {
        let mut s = StaticSequence::new(topology::cycle(6));
        let g1 = s.next_graph();
        let g2 = s.next_graph();
        assert_eq!(g1, g2);
        assert_eq!(s.n(), 6);
    }

    #[test]
    fn iid_subgraph_respects_p_extremes() {
        let ground = topology::complete(8);
        let mut all = IidSubgraphSequence::new(ground.clone(), 1.0, 1);
        assert_eq!(all.next_graph().m(), ground.m());
        let mut none = IidSubgraphSequence::new(ground, 0.0, 1);
        assert_eq!(none.next_graph().m(), 0);
    }

    #[test]
    fn iid_subgraph_keeps_roughly_p_edges() {
        let ground = topology::complete(24); // m = 276
        let mut s = IidSubgraphSequence::new(ground, 0.5, 42);
        let mut total = 0usize;
        let rounds = 100;
        for _ in 0..rounds {
            total += s.next_graph().m();
        }
        let avg = total as f64 / rounds as f64;
        assert!(
            (avg - 138.0).abs() < 12.0,
            "avg kept edges {avg}, want ≈138"
        );
    }

    #[test]
    fn markov_churn_stationary_availability() {
        let ground = topology::complete(16); // m = 120
        let mut s = MarkovChurnSequence::new(ground, 0.3, 0.6, 7);
        assert!((s.stationary_availability() - 2.0 / 3.0).abs() < 1e-12);
        // Burn in, then measure.
        for _ in 0..200 {
            s.next_graph();
        }
        let mut total = 0usize;
        let rounds = 400;
        for _ in 0..rounds {
            total += s.next_graph().m();
        }
        let avg = total as f64 / rounds as f64 / 120.0;
        assert!(
            (avg - 2.0 / 3.0).abs() < 0.05,
            "measured availability {avg}"
        );
    }

    #[test]
    fn periodic_cycles_through_schedule() {
        let a = topology::path(5);
        let b = topology::cycle(5);
        let mut s = PeriodicSequence::new(vec![a.clone(), b.clone()]);
        assert_eq!(s.period(), 2);
        assert_eq!(s.next_graph().m(), a.m());
        assert_eq!(s.next_graph().m(), b.m());
        assert_eq!(s.next_graph().m(), a.m());
    }

    #[test]
    #[should_panic(expected = "share n")]
    fn periodic_rejects_mismatched_sizes() {
        PeriodicSequence::new(vec![topology::path(4), topology::path(5)]);
    }

    #[test]
    fn matching_only_has_degree_at_most_one() {
        let mut s = MatchingOnlySequence::new(topology::torus2d(4, 4), 3);
        for _ in 0..20 {
            let g = s.next_graph();
            assert!(g.max_degree() <= 1);
        }
    }

    #[test]
    fn outage_rounds_are_empty() {
        let mut s = OutageSequence::new(StaticSequence::new(topology::cycle(8)), 3);
        let sizes: Vec<usize> = (0..9).map(|_| s.next_graph().m()).collect();
        assert_eq!(sizes, vec![8, 8, 0, 8, 8, 0, 8, 8, 0]);
    }

    #[test]
    fn churn_schedule_fails_one_shard_at_a_time() {
        let mut sched = ChurnSchedule::new(3, 2, 4, 7);
        let mut down_rounds = 0usize;
        let mut prev: Option<usize> = None;
        for round in 1..=30 {
            let failed = sched.advance();
            assert_eq!(failed, sched.failed());
            if let Some(s) = failed {
                assert!(s < 4);
                down_rounds += 1;
                if let Some(p) = prev {
                    assert_eq!(p, s, "round {round}: failure must drain before the next");
                }
            }
            prev = failed;
        }
        // Failures start at rounds 3, 6 (the round-3 one has drained),
        // 9, … — every third round, each spanning two rounds; the last
        // (round 30) has only its first down-round inside the window.
        assert_eq!(sched.failures(), 10);
        assert_eq!(down_rounds, 19);
        // Reproducible: same seed, same draw sequence.
        let mut a = ChurnSchedule::new(3, 2, 4, 7);
        let mut b = ChurnSchedule::new(3, 2, 4, 7);
        for _ in 0..30 {
            assert_eq!(a.advance(), b.advance());
        }
    }

    #[test]
    fn shard_churn_isolates_the_failed_shard() {
        let ground = topology::torus2d(4, 4);
        let owners: Vec<u32> = (0..16).map(|v| (v / 4) as u32).collect();
        let mut s = ShardChurnSequence::new(
            StaticSequence::new(ground.clone()),
            owners.clone(),
            ChurnSchedule::new(2, 1, 4, 11),
        );
        assert_eq!(s.n(), 16);
        assert_eq!(s.name(), "churn-shards");
        for round in 1..=10 {
            let g = s.next_graph();
            match s.schedule().failed() {
                None => assert_eq!(g.m(), ground.m(), "round {round}: full graph"),
                Some(failed) => {
                    assert!(g.m() < ground.m(), "round {round}: edges removed");
                    for (u, v) in g.edges() {
                        assert_ne!(owners[u as usize] as usize, failed, "round {round}");
                        assert_ne!(owners[v as usize] as usize, failed, "round {round}");
                    }
                    // Only the failed shard's incident edges are gone.
                    let expect = ground.edge_subgraph(|_, (u, v)| {
                        owners[u as usize] as usize != failed
                            && owners[v as usize] as usize != failed
                    });
                    assert_eq!(g, expect, "round {round}");
                }
            }
        }
        assert!(
            s.schedule().failures() >= 4,
            "period-2 churn over 10 rounds"
        );
    }

    #[test]
    fn shard_churn_keeps_the_inner_stream_aligned() {
        // A degraded round must be the same inner draw minus one shard:
        // the wrapped and unwrapped sequences stay in lockstep.
        let ground = topology::complete(12);
        let owners: Vec<u32> = (0..12).map(|v| (v % 3) as u32).collect();
        let mut plain = IidSubgraphSequence::new(ground.clone(), 0.5, 99);
        let mut churned = ShardChurnSequence::new(
            IidSubgraphSequence::new(ground, 0.5, 99),
            owners.clone(),
            ChurnSchedule::new(2, 1, 3, 5),
        );
        for _ in 1..=8 {
            let reference = plain.next_graph();
            let g = churned.next_graph();
            let expect = match churned.schedule().failed() {
                None => reference,
                Some(failed) => reference.edge_subgraph(|_, (u, v)| {
                    owners[u as usize] as usize != failed && owners[v as usize] as usize != failed
                }),
            };
            assert_eq!(g, expect);
        }
    }
}
