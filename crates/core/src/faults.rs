//! Deterministic fault injection for the partitioned backends.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of executor-level
//! faults — killed workers, dropped/duplicated/reordered halo batches,
//! slow workers — armed on an engine via [`Engine::with_faults`]. The
//! message and process backends share one coordinator (the shard
//! runtime, [`crate::shard`]), which injects the plan's faults itself at
//! the start of each round; an engine without a plan never consults one.
//!
//! Injected faults are **recovered exactly**: the coordinator holds the
//! complete round-start snapshot, so it can recompute the owned values
//! of any shard whose worker died or refused the round, and respawn a
//! dead worker. The post-recovery load vector is therefore bit-identical
//! to a fault-free run — the invariant the failure-injection test-suite
//! pins. Faults that model *capacity* loss (a shard actually out of
//! service for some rounds) belong at the scenario layer instead, as
//! shard churn on the graph sequence (`dlb_dynamics::ShardChurnSequence`),
//! where a down shard reduces to outage semantics on its cut edges and
//! the paper's conservation and Φ-monotonicity invariants carry over by
//! construction.
//!
//! [`Engine::with_faults`]: crate::engine::Engine::with_faults

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injected executor fault.
///
/// Every kind targets a shard of the message or process backend; the
/// serial and pool backends ignore an armed plan. The coordinator
/// injects each fault itself, since every halo batch a shard's
/// neighbours receive is cut from its snapshot and written by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The shard's worker is killed before the round's dispatch — a
    /// thread returns without replying, a worker process gets SIGKILL.
    /// The coordinator sees the closed link, re-homes the shard's owned
    /// values from the round-start snapshot and respawns the worker.
    Panic,
    /// The shard's outbound halo batches are not written this round.
    /// Each receiver refuses the round (a recv group stayed empty) and
    /// is re-homed.
    DropHalo,
    /// The shard's outbound halo batches are written twice. Each
    /// receiver refuses the round (a recv group was filled twice) and is
    /// re-homed.
    DuplicateHalo,
    /// Every receiver of the shard's outbound batches gets its batches
    /// in reversed order; batches are keyed by source shard, so ordering
    /// is semantically invisible.
    ReorderHalo,
    /// The coordinator holds the shard's dispatch back this long. The
    /// round waits for it; nothing needs recovering.
    Delay {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
}

/// One scheduled fault: `kind` fires in shard `shard` on engine round
/// `round` (1-based, counting executed rounds since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The 1-based engine round the fault fires on.
    pub round: u64,
    /// The shard whose worker is faulted (events naming a shard outside
    /// the backend's shard range never fire).
    pub shard: usize,
    /// What happens to that worker.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of executor faults.
///
/// Build one explicitly with [`FaultPlan::event`] or randomly with
/// [`FaultPlan::seeded`], then arm it via `Engine::with_faults`. The
/// plan is plain data — the same plan against the same engine and
/// initial loads reproduces the same faults, recoveries, and (by the
/// exact-recovery guarantee) the same final loads as a fault-free run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; arming it still makes the partitioned
    /// backends recover failed shards).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one fault event, builder-style.
    pub fn event(mut self, round: u64, shard: usize, kind: FaultKind) -> Self {
        self.push(FaultEvent { round, shard, kind });
        self
    }

    /// Adds one fault event in place.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// A random plan over `rounds` rounds and `shards` shards, drawing
    /// uniformly from `kinds` with roughly one fault every three rounds.
    /// Fully determined by `seed` — the reproducibility contract the
    /// failure-injection proptests rely on.
    pub fn seeded(seed: u64, rounds: u64, shards: usize, kinds: &[FaultKind]) -> Self {
        let mut plan = FaultPlan::new();
        if shards == 0 || kinds.is_empty() {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 1..=rounds {
            if rng.gen_range(0..3u32) == 0 {
                let shard = rng.gen_range(0..shards);
                let kind = kinds[rng.gen_range(0..kinds.len())];
                plan.push(FaultEvent { round, shard, kind });
            }
        }
        plan
    }

    /// All scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events firing on engine round `round` (1-based).
    pub fn events_at(&self, round: u64) -> impl Iterator<Item = &FaultEvent> + '_ {
        self.events.iter().filter(move |e| e.round == round)
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Counters of what an armed engine actually injected and recovered
/// from, readable via `Engine::fault_stats`. All counters are cumulative
/// since engine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Fault events that fired (events naming an out-of-range shard do
    /// not count).
    pub faults_injected: u64,
    /// Completed recoveries: one per shard the coordinator re-homed (and,
    /// when its worker had died, respawned).
    pub recoveries: u64,
    /// Owned load values the coordinator re-homed (recomputed from its
    /// round-start snapshot) on behalf of dead or refusing shards.
    pub rehomed_values: u64,
}

impl FaultStats {
    /// Whether anything was injected or recovered.
    pub fn any(&self) -> bool {
        self.faults_injected > 0 || self.recoveries > 0 || self.rehomed_values > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let kinds = [
            FaultKind::Panic,
            FaultKind::DropHalo,
            FaultKind::Delay { ms: 5 },
        ];
        let a = FaultPlan::seeded(42, 50, 4, &kinds);
        let b = FaultPlan::seeded(42, 50, 4, &kinds);
        assert_eq!(a, b, "same seed must give the same plan");
        assert!(!a.is_empty(), "50 rounds at ~1/3 density must fire");
        for e in a.events() {
            assert!((1..=50).contains(&e.round));
            assert!(e.shard < 4);
            assert!(kinds.contains(&e.kind));
        }
        let c = FaultPlan::seeded(43, 50, 4, &kinds);
        assert_ne!(a, c, "different seeds must differ");
        // Degenerate inputs yield empty plans rather than panicking.
        assert!(FaultPlan::seeded(1, 10, 0, &kinds).is_empty());
        assert!(FaultPlan::seeded(1, 10, 4, &[]).is_empty());
    }

    #[test]
    fn events_at_filters_by_round() {
        let plan = FaultPlan::new()
            .event(3, 0, FaultKind::Panic)
            .event(3, 1, FaultKind::DropHalo)
            .event(5, 0, FaultKind::DuplicateHalo);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events_at(3).count(), 2);
        assert_eq!(plan.events_at(5).count(), 1);
        assert_eq!(plan.events_at(4).count(), 0);
        assert_eq!(
            plan.events_at(5).next().unwrap().kind,
            FaultKind::DuplicateHalo
        );
    }
}
