#![deny(rustdoc::broken_intra_doc_links)]

//! Per-phase, per-lane round tracing for the diffusion load-balancing engine.
//!
//! The engine's existing counters (`CommMetrics`, `ShardMetrics`, `FaultStats`)
//! say *what* moved; this crate records *where time went*: typed span events
//! `(round, phase, lane, start_ns, dur_ns)` captured into preallocated
//! per-lane ring buffers, aggregated into per-phase histograms and a
//! per-shard round-time imbalance figure, and exported either as a
//! `dlb-trace/1` JSONL stream or a Chrome `trace_event` JSON loadable in
//! `about:tracing` / Perfetto.
//!
//! Two invariants shape the design:
//!
//! - **Disabled means free.** [`Telemetry::Off`] is a unit enum variant, so
//!   every instrumentation site is a branch on a two-variant enum — no dyn
//!   call, no allocation, no clock read. Rounds with telemetry off are
//!   bit-identical to rounds on a build without this crate.
//! - **Armed means cheap.** Spans are recorded per *round section*, never per
//!   node, so an armed 1M-node round pays a handful of `Instant` reads and
//!   uncontended mutex locks — well under the 5% overhead budget.
//!
//! Lanes: lane [`ENGINE_LANE`] is the coordinator/engine thread; lane `s`
//! (for `s < shards`) is shard `s`'s worker. Each lane has its own ring, so
//! message-backend workers never contend on a shared buffer.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lane id for spans recorded by the engine/coordinator thread itself
/// (plan builds, stats, whole-round gathers on the serial and pool backends).
pub const ENGINE_LANE: u32 = u32::MAX;

/// Default ring capacity per lane (events kept before the oldest are dropped).
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// Default histogram bin count for [`TraceSummary`].
pub const DEFAULT_BINS: usize = 16;

// ---------------------------------------------------------------------------
// Phase taxonomy
// ---------------------------------------------------------------------------

/// The fixed taxonomy of round sections a span can cover.
///
/// The first six mirror the executor structure (plan build, then the message
/// worker's five-phase round); `Stats`, `WorkloadApply` and `FaultRecovery`
/// cover the bookkeeping around the gather itself. Serial/pool backends only
/// emit a subset (everything is `GatherInterior` from their point of view).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Partition/exchange plan (re)build — emitted only on cache misses.
    Plan,
    /// Coordinator scattering owned slices to workers and collecting results.
    ScatterOwned,
    /// Worker posting halo values to its neighbours.
    PostHalo,
    /// Gather over interior nodes (no halo dependencies).
    GatherInterior,
    /// Worker waiting on / receiving neighbour halos.
    RecvHalo,
    /// Gather over boundary nodes once halos are in.
    GatherBoundary,
    /// Potential/summary statistics computation.
    Stats,
    /// Workload mutation applied between rounds.
    WorkloadApply,
    /// Fault handling: worker respawn, load re-homing, halo retransmit.
    FaultRecovery,
    /// Coordinator routing per-shard workload deltas to resident workers
    /// (the message backend's resident-session replacement for
    /// [`Phase::ScatterOwned`] on steady-state rounds).
    DeltaScatter,
    /// Coordinator collecting owned values back from resident workers —
    /// a stats-on round, a caller reading loads, or session end.
    Collect,
    /// Process backend: encoding + writing a worker's inbound wire
    /// frames (plan, round command, owned seed, halo batches).
    Serialize,
    /// Process backend: reading + decoding a worker's result frames
    /// (results, done receipt).
    Deserialize,
}

impl Phase {
    /// All phases, in taxonomy order.
    pub const ALL: [Phase; 13] = [
        Phase::Plan,
        Phase::ScatterOwned,
        Phase::PostHalo,
        Phase::GatherInterior,
        Phase::RecvHalo,
        Phase::GatherBoundary,
        Phase::Stats,
        Phase::WorkloadApply,
        Phase::FaultRecovery,
        Phase::DeltaScatter,
        Phase::Collect,
        Phase::Serialize,
        Phase::Deserialize,
    ];

    /// Stable kebab-case name used in both export formats.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::ScatterOwned => "scatter-owned",
            Phase::PostHalo => "post-halo",
            Phase::GatherInterior => "gather-interior",
            Phase::RecvHalo => "recv-halo",
            Phase::GatherBoundary => "gather-boundary",
            Phase::Stats => "stats",
            Phase::WorkloadApply => "workload-apply",
            Phase::FaultRecovery => "fault-recovery",
            Phase::DeltaScatter => "delta-scatter",
            Phase::Collect => "collect",
            Phase::Serialize => "serialize",
            Phase::Deserialize => "deserialize",
        }
    }
}

// ---------------------------------------------------------------------------
// Span events and the ring recorder
// ---------------------------------------------------------------------------

/// One timed section of one round on one lane. Times are nanoseconds since
/// the recorder's epoch (creation time), so all lanes share a clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub round: u64,
    pub phase: Phase,
    pub lane: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Fixed-capacity ring of span events. Once full, the oldest event is
/// overwritten and counted as dropped.
#[derive(Debug)]
struct LaneRing {
    ring: Vec<SpanEvent>,
    head: usize,
    dropped: u64,
}

impl LaneRing {
    fn with_capacity(capacity: usize) -> Self {
        LaneRing {
            ring: Vec::with_capacity(capacity.max(1)),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.ring.len();
            self.dropped += 1;
        }
    }

    /// Append events oldest-first into `out`.
    fn snapshot(&self, out: &mut Vec<SpanEvent>) {
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
    }
}

/// Shared span recorder: one preallocated ring per lane plus a common epoch.
///
/// Recording takes the lane's own mutex — lanes are written by exactly one
/// thread at a time in every backend, so the lock is uncontended; it exists
/// so `events()` can take a consistent snapshot while workers run.
#[derive(Debug)]
pub struct Recorder {
    lanes: Vec<Mutex<LaneRing>>,
    epoch: Instant,
    capacity: usize,
    recorded: AtomicU64,
}

impl Recorder {
    /// A recorder with one lane per shard plus the engine lane.
    /// `shards` may be 0 for purely serial runs (only the engine lane exists).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let lanes = (0..shards + 1)
            .map(|_| Mutex::new(LaneRing::with_capacity(capacity)))
            .collect();
        Recorder {
            lanes,
            epoch: Instant::now(),
            capacity: capacity.max(1),
            recorded: AtomicU64::new(0),
        }
    }

    /// Number of shard lanes (the engine lane is extra).
    pub fn shard_lanes(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Per-lane ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ring_index(&self, lane: u32) -> usize {
        if lane == ENGINE_LANE {
            0
        } else {
            // An out-of-range shard lane folds onto the engine lane instead of
            // panicking mid-round; it only happens on recorder/engine mismatch.
            (lane as usize + 1).min(self.lanes.len() - 1).max(1)
        }
    }

    /// Record a finished span with an explicit duration.
    pub fn record(&self, lane: u32, round: u64, phase: Phase, start_ns: u64, dur_ns: u64) {
        let ev = SpanEvent {
            round,
            phase,
            lane,
            start_ns,
            dur_ns,
        };
        let idx = self.ring_index(lane);
        self.lanes[idx].lock().unwrap().push(ev);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn record_since(&self, lane: u32, round: u64, phase: Phase, start_ns: u64) {
        let now = self.now_ns();
        self.record(lane, round, phase, start_ns, now.saturating_sub(start_ns));
    }

    /// Total spans ever recorded (including any since dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans lost to ring wraparound, summed over lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.lock().unwrap().dropped).sum()
    }

    /// Snapshot of all retained events, sorted by start time (ties broken by
    /// lane then phase order so output is deterministic).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            lane.lock().unwrap().snapshot(&mut out);
        }
        out.sort_by_key(|e| (e.start_ns, e.lane, e.phase, e.round));
        out
    }

    /// Drop all retained events (keeps the epoch and drop counters' zeroing).
    pub fn clear(&self) {
        for lane in &self.lanes {
            let mut l = lane.lock().unwrap();
            l.ring.clear();
            l.head = 0;
            l.dropped = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// The engine-facing handle
// ---------------------------------------------------------------------------

/// Telemetry handle threaded through the engine. `Off` is the default and is
/// a pure enum branch at every instrumentation site — no clock read, no
/// allocation, no dynamic dispatch.
#[derive(Clone, Debug, Default)]
pub enum Telemetry {
    /// Recording disabled; every call below is a no-op branch.
    #[default]
    Off,
    /// Recording into the shared ring recorder.
    On(Arc<Recorder>),
}

impl Telemetry {
    /// An armed handle with `shards` worker lanes.
    pub fn armed(shards: usize, capacity: usize) -> Self {
        Telemetry::On(Arc::new(Recorder::new(shards, capacity)))
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_armed(&self) -> bool {
        matches!(self, Telemetry::On(_))
    }

    /// The recorder, when armed.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(r) => Some(r),
        }
    }

    /// Start a span: current time when armed, `0` when off.
    #[inline]
    pub fn start(&self) -> u64 {
        match self {
            Telemetry::Off => 0,
            Telemetry::On(r) => r.now_ns(),
        }
    }

    /// Close a span opened with [`Telemetry::start`]; no-op when off.
    #[inline]
    pub fn record(&self, lane: u32, round: u64, phase: Phase, start_ns: u64) {
        match self {
            Telemetry::Off => {}
            Telemetry::On(r) => r.record_since(lane, round, phase, start_ns),
        }
    }

    /// Record a span with an explicit duration; no-op when off.
    #[inline]
    pub fn record_dur(&self, lane: u32, round: u64, phase: Phase, start_ns: u64, dur_ns: u64) {
        match self {
            Telemetry::Off => {}
            Telemetry::On(r) => r.record(lane, round, phase, start_ns, dur_ns),
        }
    }
}

// ---------------------------------------------------------------------------
// Unified metrics registry
// ---------------------------------------------------------------------------

/// Communication counters (message backend).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommCounters {
    pub shards: u64,
    pub messages: u64,
    pub values_sent: u64,
    pub halo_bytes: u64,
    pub max_shard_values_sent: u64,
    /// Owned values the coordinator shipped *to* workers (legacy rounds
    /// and resident-session seeding; zero on resident steady-state rounds).
    pub owned_values_in: u64,
    /// Owned values workers shipped *back* (legacy results, resident
    /// collects — zero on stats-off, read-free resident rounds).
    pub owned_values_out: u64,
    /// Workload delta assignments routed to resident workers.
    pub delta_values: u64,
    /// Collect operations (in-round or explicit sync) this round.
    pub collects: u64,
}

/// Partition-structure counters (message and process backends).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    pub shards: u64,
    pub edge_cut: u64,
    pub halo: u64,
    pub interior: u64,
    pub plans_built: u64,
}

/// Fault-injection and recovery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    pub faults_injected: u64,
    pub recoveries: u64,
    pub rehomed_values: u64,
}

/// One unified read of every engine counter family, plus the recorder's own
/// span accounting. Backends that don't produce a family leave it `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub rounds_run: u64,
    pub comm: Option<CommCounters>,
    pub shard: Option<ShardCounters>,
    pub faults: FaultCounters,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Fixed-bin histogram over span durations, same bucketing shape as
/// `dlb_analysis::histogram`: equal-width bins over `[lo, hi]` with the last
/// bin clamping the maximum sample.
#[derive(Clone, Debug, PartialEq)]
pub struct DurHistogram {
    pub lo_ns: u64,
    pub hi_ns: u64,
    pub counts: Vec<u64>,
}

impl DurHistogram {
    fn from_samples(samples: &[u64], bins: usize) -> Self {
        let bins = bins.max(1);
        let lo = samples.iter().copied().min().unwrap_or(0);
        let hi = samples.iter().copied().max().unwrap_or(0);
        let mut counts = vec![0u64; bins];
        let width = (hi.saturating_sub(lo)) as f64 / bins as f64;
        for &s in samples {
            let idx = if width > 0.0 {
                (((s - lo) as f64 / width) as usize).min(bins - 1)
            } else {
                0
            };
            counts[idx] += 1;
        }
        DurHistogram {
            lo_ns: lo,
            hi_ns: hi,
            counts,
        }
    }
}

/// Aggregate statistics for one phase across the whole trace.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    pub phase: Phase,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub hist: DurHistogram,
}

/// Per-shard round-time imbalance: for each round, the ratio of the busiest
/// shard lane's busy time to the mean across shard lanes — the system-level
/// analogue of the paper's load imbalance. `mean_ratio` averages over rounds,
/// `max_ratio` is the worst round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Imbalance {
    pub rounds: u64,
    pub mean_ratio: f64,
    pub max_ratio: f64,
}

/// Whole-trace aggregation: per-phase totals/histograms sorted by total time
/// descending, plus the shard busy-time imbalance when shard lanes recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    pub phases: Vec<PhaseStat>,
    pub imbalance: Option<Imbalance>,
    pub spans: u64,
    pub dropped: u64,
    pub total_ns: u64,
}

impl TraceSummary {
    /// Aggregate a snapshot of events. `dropped` comes from
    /// [`Recorder::dropped`]; `bins` sizes each phase histogram.
    pub fn from_events(events: &[SpanEvent], bins: usize, dropped: u64) -> Self {
        let mut per_phase: Vec<Vec<u64>> = vec![Vec::new(); Phase::ALL.len()];
        for ev in events {
            per_phase[ev.phase as usize].push(ev.dur_ns);
        }
        let mut phases = Vec::new();
        let mut total_ns = 0u64;
        for (i, samples) in per_phase.iter().enumerate() {
            if samples.is_empty() {
                continue;
            }
            let total: u64 = samples.iter().sum();
            total_ns += total;
            phases.push(PhaseStat {
                phase: Phase::ALL[i],
                count: samples.len() as u64,
                total_ns: total,
                min_ns: samples.iter().copied().min().unwrap(),
                max_ns: samples.iter().copied().max().unwrap(),
                hist: DurHistogram::from_samples(samples, bins),
            });
        }
        phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.phase.cmp(&b.phase)));

        TraceSummary {
            phases,
            imbalance: shard_imbalance(events),
            spans: events.len() as u64,
            dropped,
            total_ns,
        }
    }

    /// The `n` phases with the largest total time.
    pub fn top_phases(&self, n: usize) -> &[PhaseStat] {
        &self.phases[..self.phases.len().min(n)]
    }

    /// Summed duration of every retained span for one phase.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| p.total_ns)
            .unwrap_or(0)
    }
}

/// Per-round max/mean busy-time ratio over shard lanes. `None` when no span
/// was recorded on a shard lane (serial/pool runs).
fn shard_imbalance(events: &[SpanEvent]) -> Option<Imbalance> {
    use std::collections::BTreeMap;
    // round -> (lane -> busy_ns), shard lanes only.
    let mut rounds: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
    for ev in events {
        if ev.lane == ENGINE_LANE {
            continue;
        }
        *rounds
            .entry(ev.round)
            .or_default()
            .entry(ev.lane)
            .or_insert(0) += ev.dur_ns;
    }
    if rounds.is_empty() {
        return None;
    }
    let mut sum_ratio = 0.0f64;
    let mut max_ratio = 0.0f64;
    let mut counted = 0u64;
    for lanes in rounds.values() {
        let max = lanes.values().copied().max().unwrap_or(0) as f64;
        let mean = lanes.values().copied().sum::<u64>() as f64 / lanes.len() as f64;
        if mean <= 0.0 {
            continue;
        }
        let ratio = max / mean;
        sum_ratio += ratio;
        max_ratio = max_ratio.max(ratio);
        counted += 1;
    }
    if counted == 0 {
        return None;
    }
    Some(Imbalance {
        rounds: counted,
        mean_ratio: sum_ratio / counted as f64,
        max_ratio,
    })
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// Run identity attached to trace headers.
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    pub scenario: String,
    pub backend: String,
    pub shards: usize,
}

/// Escape a string for embedding in JSON (same contract as the scenario
/// report writer: quotes, backslashes and control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize a lane id: the engine lane becomes `-1`, shard lanes their id.
fn lane_json(lane: u32) -> i64 {
    if lane == ENGINE_LANE {
        -1
    } else {
        lane as i64
    }
}

fn metrics_fields(m: &MetricsSnapshot) -> String {
    let mut s = format!(
        "\"rounds_run\":{},\"spans_recorded\":{},\"spans_dropped\":{},\
         \"faults_injected\":{},\"recoveries\":{},\"rehomed_values\":{}",
        m.rounds_run,
        m.spans_recorded,
        m.spans_dropped,
        m.faults.faults_injected,
        m.faults.recoveries,
        m.faults.rehomed_values
    );
    if let Some(c) = &m.comm {
        let _ = write!(
            s,
            ",\"comm_shards\":{},\"messages\":{},\"values_sent\":{},\"halo_bytes\":{},\
             \"max_shard_values_sent\":{}",
            c.shards, c.messages, c.values_sent, c.halo_bytes, c.max_shard_values_sent
        );
    }
    if let Some(p) = &m.shard {
        let _ = write!(
            s,
            ",\"shards\":{},\"edge_cut\":{},\"halo\":{},\"interior\":{},\"plans_built\":{}",
            p.shards, p.edge_cut, p.halo, p.interior, p.plans_built
        );
    }
    s
}

/// Write the `dlb-trace/1` JSONL stream: a header record, one record per
/// span, and a final metrics record when a snapshot is supplied.
pub fn write_jsonl<W: Write>(
    w: &mut W,
    meta: &TraceMeta,
    events: &[SpanEvent],
    metrics: Option<&MetricsSnapshot>,
) -> io::Result<()> {
    writeln!(
        w,
        "{{\"schema\":\"dlb-trace/1\",\"kind\":\"header\",\"scenario\":\"{}\",\
         \"backend\":\"{}\",\"shards\":{},\"spans\":{}}}",
        esc(&meta.scenario),
        esc(&meta.backend),
        meta.shards,
        events.len()
    )?;
    for ev in events {
        writeln!(
            w,
            "{{\"kind\":\"span\",\"round\":{},\"phase\":\"{}\",\"lane\":{},\
             \"start_ns\":{},\"dur_ns\":{}}}",
            ev.round,
            ev.phase.name(),
            lane_json(ev.lane),
            ev.start_ns,
            ev.dur_ns
        )?;
    }
    if let Some(m) = metrics {
        writeln!(w, "{{\"kind\":\"metrics\",{}}}", metrics_fields(m))?;
    }
    Ok(())
}

fn lane_tid(lane: u32) -> u32 {
    if lane == ENGINE_LANE {
        0
    } else {
        lane + 1
    }
}

/// Write a Chrome `trace_event` JSON object (complete-event format) with one
/// named lane per shard plus the engine lane, loadable in `about:tracing`
/// and Perfetto. Timestamps are microseconds with nanosecond precision.
pub fn write_chrome<W: Write>(w: &mut W, meta: &TraceMeta, events: &[SpanEvent]) -> io::Result<()> {
    write!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for &lane in &lanes {
        let name = if lane == ENGINE_LANE {
            "engine".to_string()
        } else {
            format!("shard {lane}")
        };
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            lane_tid(lane),
            esc(&name)
        )?;
        write!(
            w,
            ",{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"sort_index\":{}}}}}",
            lane_tid(lane),
            lane_tid(lane)
        )?;
    }
    for ev in events {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"round\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"round\":{}}}}}",
            ev.phase.name(),
            lane_tid(ev.lane),
            ev.start_ns as f64 / 1_000.0,
            ev.dur_ns as f64 / 1_000.0,
            ev.round
        )?;
    }
    writeln!(
        w,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"dlb-trace/1\",\
         \"scenario\":\"{}\",\"backend\":\"{}\",\"shards\":{}}}}}",
        esc(&meta.scenario),
        esc(&meta.backend),
        meta.shards
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64, phase: Phase, lane: u32, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            round,
            phase,
            lane,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn off_is_inert() {
        let tel = Telemetry::Off;
        assert!(!tel.is_armed());
        assert_eq!(tel.start(), 0);
        tel.record(ENGINE_LANE, 1, Phase::Stats, 0); // must not panic
        assert!(tel.recorder().is_none());
    }

    #[test]
    fn armed_records_and_snapshots_sorted() {
        let tel = Telemetry::armed(2, 64);
        let rec = tel.recorder().unwrap();
        rec.record(1, 1, Phase::GatherInterior, 50, 10);
        rec.record(0, 1, Phase::GatherInterior, 20, 5);
        rec.record(ENGINE_LANE, 1, Phase::Stats, 90, 3);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].start_ns, 20);
        assert_eq!(events[1].start_ns, 50);
        assert_eq!(events[2].phase, Phase::Stats);
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let rec = Recorder::new(0, 4);
        for i in 0..10u64 {
            rec.record(ENGINE_LANE, i, Phase::Stats, i * 100, 1);
        }
        let events = rec.events();
        assert_eq!(events.len(), 4, "ring retains exactly its capacity");
        assert_eq!(rec.dropped(), 6, "overwritten events are counted");
        // The four newest survive, oldest-first.
        let rounds: Vec<u64> = events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn clear_resets_rings() {
        let rec = Recorder::new(1, 2);
        rec.record(0, 1, Phase::PostHalo, 0, 1);
        rec.record(0, 2, Phase::PostHalo, 5, 1);
        rec.record(0, 3, Phase::PostHalo, 9, 1);
        assert_eq!(rec.dropped(), 1);
        rec.clear();
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn record_since_measures_elapsed() {
        let rec = Recorder::new(0, 8);
        let t0 = rec.now_ns();
        rec.record_since(ENGINE_LANE, 1, Phase::Plan, t0);
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].start_ns, t0);
    }

    #[test]
    fn histogram_buckets_clamp_like_analysis() {
        let h = DurHistogram::from_samples(&[0, 25, 50, 75, 100], 4);
        assert_eq!(h.lo_ns, 0);
        assert_eq!(h.hi_ns, 100);
        // Max sample lands in the last bin, not one past it.
        assert_eq!(h.counts, vec![1, 1, 1, 2]);
        assert_eq!(h.counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn histogram_degenerate_range_single_bin() {
        let h = DurHistogram::from_samples(&[7, 7, 7], 4);
        assert_eq!(h.counts, vec![3, 0, 0, 0]);
    }

    #[test]
    fn summary_orders_phases_by_total_time() {
        let events = vec![
            ev(1, Phase::Stats, ENGINE_LANE, 0, 10),
            ev(1, Phase::GatherInterior, 0, 10, 100),
            ev(1, Phase::GatherInterior, 1, 10, 80),
            ev(2, Phase::Stats, ENGINE_LANE, 200, 10),
        ];
        let s = TraceSummary::from_events(&events, 4, 0);
        assert_eq!(s.phases[0].phase, Phase::GatherInterior);
        assert_eq!(s.phases[0].total_ns, 180);
        assert_eq!(s.phase_total_ns(Phase::Stats), 20);
        assert_eq!(s.spans, 4);
        assert_eq!(s.total_ns, 200);
        assert_eq!(s.top_phases(1).len(), 1);
    }

    #[test]
    fn imbalance_is_max_over_mean_of_shard_busy() {
        let events = vec![
            // Round 1: shard 0 busy 30, shard 1 busy 10 -> max/mean = 30/20 = 1.5.
            ev(1, Phase::GatherInterior, 0, 0, 30),
            ev(1, Phase::GatherInterior, 1, 0, 10),
            // Round 2: equal -> ratio 1.0.
            ev(2, Phase::GatherInterior, 0, 100, 10),
            ev(2, Phase::GatherInterior, 1, 100, 10),
            // Engine-lane spans don't count toward shard imbalance.
            ev(1, Phase::Stats, ENGINE_LANE, 50, 1000),
        ];
        let imb = TraceSummary::from_events(&events, 4, 0).imbalance.unwrap();
        assert_eq!(imb.rounds, 2);
        assert!((imb.max_ratio - 1.5).abs() < 1e-12);
        assert!((imb.mean_ratio - 1.25).abs() < 1e-12);
    }

    #[test]
    fn serial_traces_have_no_imbalance() {
        let events = vec![ev(1, Phase::GatherInterior, ENGINE_LANE, 0, 10)];
        assert!(TraceSummary::from_events(&events, 4, 0).imbalance.is_none());
    }

    #[test]
    fn jsonl_has_versioned_header_and_span_lines() {
        let meta = TraceMeta {
            scenario: "t".into(),
            backend: "message".into(),
            shards: 2,
        };
        let events = vec![ev(1, Phase::PostHalo, 0, 5, 7)];
        let snap = MetricsSnapshot {
            rounds_run: 1,
            ..Default::default()
        };
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &meta, &events, Some(&snap)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"dlb-trace/1\""));
        assert!(lines[0].contains("\"kind\":\"header\""));
        assert!(lines[1].contains("\"phase\":\"post-halo\""));
        assert!(lines[1].contains("\"lane\":0"));
        assert!(lines[2].contains("\"kind\":\"metrics\""));
        assert!(lines[2].contains("\"rounds_run\":1"));
    }

    #[test]
    fn engine_lane_serializes_as_minus_one() {
        let meta = TraceMeta::default();
        let events = vec![ev(1, Phase::Stats, ENGINE_LANE, 0, 1)];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &meta, &events, None).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("\"lane\":-1"));
    }

    #[test]
    fn chrome_trace_has_lane_metadata_and_complete_events() {
        let meta = TraceMeta {
            scenario: "t".into(),
            backend: "message".into(),
            shards: 2,
        };
        let events = vec![
            ev(1, Phase::PostHalo, 0, 1_000, 2_000),
            ev(1, Phase::PostHalo, 1, 1_500, 2_500),
            ev(1, Phase::Stats, ENGINE_LANE, 4_000, 500),
        ];
        let mut buf = Vec::new();
        write_chrome(&mut buf, &meta, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"traceEvents\":["));
        assert!(text.contains("\"name\":\"shard 0\""));
        assert!(text.contains("\"name\":\"shard 1\""));
        assert!(text.contains("\"name\":\"engine\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1.000"));
        assert!(text.contains("\"dur\":2.000"));
        assert!(text.contains("\"schema\":\"dlb-trace/1\""));
        // Balanced braces => structurally plausible JSON.
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn metrics_fields_include_optional_families() {
        let m = MetricsSnapshot {
            rounds_run: 3,
            comm: Some(CommCounters {
                shards: 4,
                messages: 10,
                ..Default::default()
            }),
            shard: Some(ShardCounters {
                shards: 4,
                plans_built: 1,
                ..Default::default()
            }),
            faults: FaultCounters {
                faults_injected: 2,
                recoveries: 1,
                rehomed_values: 9,
            },
            spans_recorded: 7,
            spans_dropped: 0,
        };
        let s = metrics_fields(&m);
        assert!(s.contains("\"messages\":10"));
        assert!(s.contains("\"plans_built\":1"));
        assert!(s.contains("\"rehomed_values\":9"));
    }
}
