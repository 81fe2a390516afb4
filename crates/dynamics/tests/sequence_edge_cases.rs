//! Edge-case tests for the dynamic-network models.

use dlb_core::potential;
use dlb_dynamics::partners::RandomPartnerSequence;
use dlb_dynamics::{
    run_dynamic_continuous, run_dynamic_discrete, GraphSequence, IidSubgraphSequence,
    MarkovChurnSequence, OutageSequence, PeriodicSequence, StaticSequence,
};
use dlb_graphs::topology;

#[test]
fn markov_always_failing_kills_all_edges() {
    let ground = topology::cycle(8);
    let mut s = MarkovChurnSequence::new(ground, 1.0, 0.0, 1);
    // First round: every up edge fails with probability 1.
    assert_eq!(s.next_graph().m(), 0);
    // And they never recover.
    for _ in 0..5 {
        assert_eq!(s.next_graph().m(), 0);
    }
    assert_eq!(s.stationary_availability(), 0.0);
}

#[test]
fn markov_never_failing_keeps_ground() {
    let ground = topology::cycle(8);
    let m = ground.m();
    let mut s = MarkovChurnSequence::new(ground, 0.0, 0.0, 1);
    for _ in 0..5 {
        assert_eq!(s.next_graph().m(), m);
    }
    assert_eq!(s.stationary_availability(), 1.0);
}

#[test]
fn periodic_single_graph_is_static() {
    let g = topology::star(6);
    let mut p = PeriodicSequence::new(vec![g.clone()]);
    let mut s = StaticSequence::new(g);
    for _ in 0..4 {
        assert_eq!(p.next_graph(), s.next_graph());
    }
    assert_eq!(p.period(), 1);
}

#[test]
fn markov_stationary_availability_formula_and_edges() {
    let g = topology::cycle(8);
    // General value: p_recover / (p_fail + p_recover).
    let s = MarkovChurnSequence::new(g.clone(), 0.25, 0.75, 1);
    assert!((s.stationary_availability() - 0.75).abs() < 1e-12);
    // Never fails: availability 1 regardless of recovery rate.
    assert_eq!(
        MarkovChurnSequence::new(g.clone(), 0.0, 0.3, 1).stationary_availability(),
        1.0
    );
    // Never recovers: availability 0 once failures are possible.
    assert_eq!(
        MarkovChurnSequence::new(g.clone(), 0.3, 0.0, 1).stationary_availability(),
        0.0
    );
    // Degenerate frozen chain (both probabilities 0): edges start up and
    // stay up, so the convention is availability 1 — and the sequence
    // must actually behave that way.
    let mut frozen = MarkovChurnSequence::new(g.clone(), 0.0, 0.0, 1);
    assert_eq!(frozen.stationary_availability(), 1.0);
    for _ in 0..5 {
        assert_eq!(frozen.next_graph().m(), g.m());
    }
}

#[test]
#[should_panic(expected = "non-empty")]
fn periodic_empty_schedule_is_rejected() {
    PeriodicSequence::new(Vec::new());
}

#[test]
fn periodic_single_graph_runs_identically_to_static() {
    // Beyond graph-level equality: a full dynamic run over a period-1
    // schedule must reproduce the StaticSequence run bit for bit.
    let g = topology::torus2d(4, 4);
    let init: Vec<f64> = (0..16).map(|i| ((i * 13 + 5) % 29) as f64).collect();

    let mut via_periodic = init.clone();
    let mut periodic = PeriodicSequence::new(vec![g.clone()]);
    let out_p = run_dynamic_continuous(&mut periodic, &mut via_periodic, 1e-9, 200, false);

    let mut via_static = init;
    let mut fixed = StaticSequence::new(g);
    let out_s = run_dynamic_continuous(&mut fixed, &mut via_static, 1e-9, 200, false);

    assert_eq!(out_p.rounds, out_s.rounds);
    assert_eq!(out_p.final_phi.to_bits(), out_s.final_phi.to_bits());
    let p_bits: Vec<u64> = via_periodic.iter().map(|x| x.to_bits()).collect();
    let s_bits: Vec<u64> = via_static.iter().map(|x| x.to_bits()).collect();
    assert_eq!(p_bits, s_bits, "period-1 schedule diverged from static");
}

#[test]
fn boxed_sequences_forward_through_the_trait() {
    let mut boxed: Box<dyn GraphSequence> = Box::new(StaticSequence::new(topology::cycle(6)));
    assert_eq!(boxed.n(), 6);
    assert_eq!(boxed.name(), "static");
    assert_eq!(boxed.next_graph().m(), 6);
    // Boxed sequences drive the dynamic runner like any other.
    let mut loads = vec![6.0, 0.0, 0.0, 0.0, 0.0, 0.0];
    let out = run_dynamic_continuous(&mut boxed, &mut loads, 1e-9, 500, false);
    assert!(out.converged);
}

#[test]
fn nested_outages_compose() {
    // Outage-of-outage: inner period 2, outer period 3 → rounds 2,3,4,6
    // (by inner/outer counters) are empty.
    let inner = OutageSequence::new(StaticSequence::new(topology::cycle(6)), 2);
    let mut outer = OutageSequence::new(inner, 3);
    let sizes: Vec<usize> = (0..6).map(|_| outer.next_graph().m()).collect();
    assert_eq!(sizes, vec![6, 0, 0, 0, 6, 0]);
}

#[test]
fn dynamic_run_zero_rounds_budget() {
    let mut s = StaticSequence::new(topology::cycle(5));
    let mut loads = vec![1.0, 2.0, 3.0, 4.0, 5.0];
    let out = run_dynamic_continuous(&mut s, &mut loads, f64::NEG_INFINITY, 0, false);
    assert_eq!(out.rounds, 0);
    assert!(!out.converged);
}

#[test]
fn dynamic_discrete_zero_target_runs_full_budget() {
    let mut s = IidSubgraphSequence::new(topology::torus2d(3, 3), 0.5, 7);
    let mut loads: Vec<i64> = (0..9).map(|i| (i * 11) as i64).collect();
    let total = potential::total_discrete(&loads);
    let out = run_dynamic_discrete(&mut s, &mut loads, 0, 40, false);
    // Discrete plateaus above 0: budget exhausted, tokens conserved.
    assert_eq!(out.rounds, 40);
    assert_eq!(potential::total_discrete(&loads), total);
}

#[test]
fn random_partner_sequence_reproducible_by_seed() {
    let mut a = RandomPartnerSequence::new(24, 99);
    let mut b = RandomPartnerSequence::new(24, 99);
    for _ in 0..5 {
        assert_eq!(a.next_graph(), b.next_graph());
    }
    let mut c = RandomPartnerSequence::new(24, 100);
    // Different seed ⇒ (overwhelmingly) different first graph.
    assert_ne!(a.next_graph(), c.next_graph());
}

#[test]
fn sequences_report_names() {
    let g = topology::cycle(4);
    assert_eq!(StaticSequence::new(g.clone()).name(), "static");
    assert_eq!(
        IidSubgraphSequence::new(g.clone(), 0.5, 0).name(),
        "iid-subgraph"
    );
    assert_eq!(
        MarkovChurnSequence::new(g.clone(), 0.1, 0.1, 0).name(),
        "markov-churn"
    );
    assert_eq!(
        OutageSequence::new(StaticSequence::new(g), 2).name(),
        "outage"
    );
    assert_eq!(RandomPartnerSequence::new(4, 0).name(), "random-partner");
}
