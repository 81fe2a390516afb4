//! Per-layer metrics of one traced run: the benchmark's own setup spans,
//! the engine's phase spans from the `dlb-telemetry` recorder, and the
//! engine's exact counters. Layer names follow the repository's crates.

use std::collections::BTreeMap;

use dlb_core::ShardMetrics;
use dlb_telemetry::{Phase, SpanEvent};
use dlb_workloads::CommTotals;

/// A span the benchmark recorded around one of its calls into a layer,
/// on the recorder's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one traced run hands to [`compute`].
pub struct Inputs<'a> {
    pub events: &'a [SpanEvent],
    /// The setup spans, in call order (they never overlap).
    pub setup: &'a [Span],
    /// `[start, end)` of the `run_driven` call.
    pub run: (u64, u64),
    /// Traced wall clock: spec to report.
    pub wall_ns: u64,
    pub n: usize,
    /// CSR neighbour slots of the graph (twice the edge count).
    pub slots: usize,
    pub rounds: usize,
    /// A standalone `PartitionSpec::build` of the workload's partition
    /// (zero when the backend has none).
    pub partition_ns: u64,
    pub shard: Option<ShardMetrics>,
    pub comm: Option<CommTotals>,
    pub busy_imbalance: Option<f64>,
    pub worker_peak_rss_mb: f64,
}

/// Bytes one diffusion round moves through the gather kernel, computed
/// from array sizes (cache misses ignored): per node, its old load read
/// and its new load written (8 + 8); per CSR slot, the neighbour id (4),
/// the neighbour's load (8) and the edge divisor (8).
pub fn gather_bytes_per_round(n: usize, slots: usize) -> u64 {
    n as u64 * 16 + slots as u64 * 20
}

/// Total length of the union of `intervals` clipped to `window`, so time
/// covered by two overlapping spans counts once.
pub fn union_ns(mut intervals: Vec<(u64, u64)>, window: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, window.0);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(window.1));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The traced wall clock not covered by a setup span or an engine
/// span: `wall − setup − engine`. Negative would mean spans overlap the
/// wall clock twice, which [`compute`] reports rather than hides.
pub fn unattributed_ns(wall_ns: u64, setup_ns: u64, engine_ns: u64) -> i128 {
    wall_ns as i128 - setup_ns as i128 - engine_ns as i128
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer metrics of one traced run, by `BENCHMARK.json` name.
pub fn compute(x: &Inputs<'_>) -> Vec<(&'static str, f64)> {
    let phase_ns = |phases: &[Phase]| -> u64 {
        x.events
            .iter()
            .filter(|e| phases.contains(&e.phase))
            .map(|e| e.dur_ns)
            .sum()
    };
    let setup_ns = |name: &str| -> u64 {
        x.setup
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    };
    let gather = [Phase::GatherInterior, Phase::GatherBoundary];
    let gather_ns = phase_ns(&gather);
    let mut per_lane: BTreeMap<u32, u64> = BTreeMap::new();
    for e in x.events.iter().filter(|e| gather.contains(&e.phase)) {
        *per_lane.entry(e.lane).or_default() += e.dur_ns;
    }
    let gather_max_lane_ns = per_lane.values().copied().max().unwrap_or(0);
    let gather_bytes = gather_bytes_per_round(x.n, x.slots) as f64 * x.rounds as f64;
    let gather_gb_per_s = if gather_ns > 0 {
        gather_bytes / gather_ns as f64
    } else {
        0.0
    };
    let plans = x.events.iter().filter(|e| e.phase == Phase::Plan).count();

    let setup_total: u64 = x.setup.iter().map(Span::dur_ns).sum();
    // Every engine span, on any lane, runs inside an engine call that
    // holds the thread running `run_driven`: worker-lane spans happen
    // while it waits for the round, and the process backend files its
    // coordinator-side serialize and deserialize spans under the shard
    // they talk to. The union counts each instant once.
    let engine = union_ns(
        x.events
            .iter()
            .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
            .collect(),
        x.run,
    );
    let run_ns = x.run.1.saturating_sub(x.run.0);
    let coverage = if run_ns > 0 {
        engine as f64 / run_ns as f64
    } else {
        0.0
    };
    let unattributed = unattributed_ns(x.wall_ns, setup_total, engine) as f64 / 1e6;

    let shard = x.shard.unwrap_or_default();
    let comm = x.comm.unwrap_or_default();
    vec![
        ("graphs.topology_ms", ms(setup_ns("graphs.topology"))),
        ("graphs.partition_ms", ms(x.partition_ns)),
        ("graphs.edge_cut", shard.edge_cut as f64),
        ("graphs.halo_values", shard.halo as f64),
        ("core.init_loads_ms", ms(setup_ns("core.init_loads"))),
        ("workloads.compile_ms", ms(setup_ns("workloads.compile"))),
        ("core.protocol_new_ms", ms(setup_ns("core.protocol_new"))),
        ("core.engine_new_ms", ms(setup_ns("core.engine_new"))),
        ("core.plan_ms", ms(phase_ns(&[Phase::Plan]))),
        ("core.plans_built", plans as f64),
        ("core.gather_ms", ms(gather_ns)),
        ("core.gather_max_lane_ms", ms(gather_max_lane_ns)),
        ("core.gather_gb_per_s", gather_gb_per_s),
        ("core.stats_ms", ms(phase_ns(&[Phase::Stats]))),
        ("core.shard_busy_imbalance", x.busy_imbalance.unwrap_or(0.0)),
        ("core.rounds", x.rounds as f64),
        ("core.halo_wait_ms", ms(phase_ns(&[Phase::RecvHalo]))),
        ("core.halo_messages", comm.messages as f64),
        ("core.halo_values", comm.values_sent as f64),
        (
            "core.scatter_owned_ms",
            ms(phase_ns(&[Phase::ScatterOwned])),
        ),
        ("core.owned_values_in", comm.owned_values_in as f64),
        ("core.owned_values_out", comm.owned_values_out as f64),
        (
            "core.delta_scatter_ms",
            ms(phase_ns(&[Phase::DeltaScatter])),
        ),
        ("core.delta_values", comm.delta_values as f64),
        ("core.collect_ms", ms(phase_ns(&[Phase::Collect]))),
        ("core.collects", comm.collects as f64),
        ("wire.serialize_ms", ms(phase_ns(&[Phase::Serialize]))),
        ("wire.deserialize_ms", ms(phase_ns(&[Phase::Deserialize]))),
        ("wire.bytes_out", comm.wire_bytes_out as f64),
        ("wire.bytes_in", comm.wire_bytes_in as f64),
        ("worker.peak_rss_mb", x.worker_peak_rss_mb),
        ("workloads.apply_ms", ms(phase_ns(&[Phase::WorkloadApply]))),
        ("setup_spans_ms", ms(setup_total)),
        ("engine_spans_ms", ms(engine)),
        ("unattributed_ms", unattributed),
        ("traced_wall_ms", ms(x.wall_ns)),
        ("telemetry.span_coverage", coverage),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_telemetry::ENGINE_LANE;

    fn ev(lane: u32, phase: Phase, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            round: 1,
            phase,
            lane,
            start_ns,
            dur_ns,
        }
    }

    fn value(metrics: &[(&'static str, f64)], name: &str) -> f64 {
        metrics.iter().find(|(n, _)| *n == name).expect(name).1
    }

    #[test]
    fn gather_bytes_count_nodes_and_slots() {
        // 1000x1000 torus: n = 1e6 nodes, 4e6 slots.
        assert_eq!(
            gather_bytes_per_round(1_000_000, 4_000_000),
            16_000_000 + 80_000_000
        );
        assert_eq!(gather_bytes_per_round(0, 0), 0);
    }

    #[test]
    fn union_counts_overlap_once_and_clips_to_the_window() {
        assert_eq!(union_ns(vec![(10, 20), (15, 30), (40, 50)], (0, 100)), 30);
        assert_eq!(union_ns(vec![(0, 20), (90, 120)], (10, 100)), 20);
        assert_eq!(union_ns(vec![(10, 20), (12, 14)], (0, 100)), 10);
        assert_eq!(union_ns(Vec::new(), (0, 100)), 0);
    }

    #[test]
    fn residual_is_what_the_spans_leave_of_the_wall_clock() {
        assert_eq!(unattributed_ns(1_000, 300, 600), 100);
        assert_eq!(unattributed_ns(1_000, 300, 800), -100);
    }

    #[test]
    fn setup_engine_and_residual_add_up_to_the_wall_clock() {
        let setup = [
            Span {
                name: "graphs.topology",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "core.engine_new",
                start_ns: 110,
                end_ns: 150,
            },
        ];
        // Engine lane: two disjoint spans. Shard lane 0: a gather that
        // overlaps them and a serialize that does not.
        let events = [
            ev(ENGINE_LANE, Phase::Plan, 200, 50),
            ev(ENGINE_LANE, Phase::Stats, 300, 100),
            ev(0, Phase::GatherInterior, 200, 150),
            ev(0, Phase::Serialize, 450, 20),
        ];
        let x = Inputs {
            events: &events,
            setup: &setup,
            run: (160, 600),
            wall_ns: 600,
            n: 10,
            slots: 40,
            rounds: 2,
            partition_ns: 0,
            shard: None,
            comm: None,
            busy_imbalance: None,
            worker_peak_rss_mb: 0.0,
        };
        let m = compute(&x);
        let (setup_ms, engine_ms, residual_ms) = (
            value(&m, "setup_spans_ms"),
            value(&m, "engine_spans_ms"),
            value(&m, "unattributed_ms"),
        );
        assert_eq!(setup_ms, 140e-6);
        // Union of [200, 350), [300, 400) and [450, 470).
        assert_eq!(engine_ms, 220e-6);
        assert!((setup_ms + engine_ms + residual_ms - value(&m, "traced_wall_ms")).abs() < 1e-12);
        assert_eq!(value(&m, "core.gather_ms"), 150e-6);
        assert_eq!(value(&m, "core.plans_built"), 1.0);
        // 2 rounds x (10·16 + 40·20) bytes over 150 ns.
        assert_eq!(value(&m, "core.gather_gb_per_s"), 2.0 * 960.0 / 150.0);
        assert!((value(&m, "telemetry.span_coverage") - 220.0 / 440.0).abs() < 1e-12);
    }
}
