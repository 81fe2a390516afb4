//! Scenario run reports: the per-round time series, run totals, the
//! steady-state Φ band, and a serde-free JSON-lines emission for CI and
//! cross-run tooling.

/// One row of the scenario time series (state *after* the round's
/// workload application and balancing round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: u64,
    /// Load injected by the workload this round.
    pub injected: f64,
    /// Load consumed by the workload this round.
    pub consumed: f64,
    /// Load migrated over edges by the balancing round. Tallied only on
    /// rounds whose [`StatsMode`] computed flow statistics (zero on
    /// skipped rounds and under `PhiOnly`/`Off`) — flows are expensive
    /// observability, and the time series inherits the engine's laziness.
    ///
    /// [`StatsMode`]: dlb_core::engine::StatsMode
    pub migrated: f64,
    /// Potential after the round (Φ for continuous and heterogeneous
    /// protocols — capacity-weighted Φ_c for the latter — and exact Φ̂
    /// converted to `f64` for discrete protocols). Bit-identical across
    /// executors, thread counts, and stats modes.
    pub phi: f64,
    /// Per-round imbalance `max(load) − min(load)` after the round.
    pub imbalance: f64,
    /// Total load in the system after the round.
    pub total: f64,
}

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The potential target was reached.
    Converged,
    /// The steady-state detector fired (the Φ band settled).
    SteadyState,
    /// The round budget ran out.
    RoundBudget,
}

impl StopReason {
    /// Stable string for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::SteadyState => "steady-state",
            StopReason::RoundBudget => "round-budget",
        }
    }
}

/// Run-total communication volume of a message-backend run (summed over
/// rounds from the engine's per-round
/// [`CommMetrics`](dlb_core::engine::CommMetrics)). Shared-memory
/// backends move no messages, so reports carry this only when the run
/// executed on `backend = "message"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommTotals {
    /// Batched halo messages sent shard→shard over the whole run.
    pub messages: u64,
    /// Load values carried by those messages.
    pub values_sent: u64,
    /// `values_sent` in bytes of the load type — the wire volume a
    /// distributed transport would have moved.
    pub halo_bytes: u64,
    /// Largest single-round per-shard send volume (values) — the
    /// straggler bound on the exchange step.
    pub max_round_shard_values: u64,
    /// Owned load values the coordinator shipped *to* workers over the
    /// whole run (legacy rounds resend every shard's slice; resident
    /// rounds ship only the seed round plus per-round deltas).
    pub owned_values_in: u64,
    /// Owned load values workers shipped *back* to the coordinator
    /// (results and round-start snapshots; zero on resident rounds that
    /// skip the collect phase).
    pub owned_values_out: u64,
    /// Workload delta values routed to their owner shards (resident
    /// rounds only).
    pub delta_values: u64,
    /// Framed `dlb-wire/2` bytes the coordinator actually wrote to worker
    /// sockets over the whole run (process backend only; includes frame
    /// envelopes, so it is ≥ the value payloads alone).
    pub wire_bytes_out: u64,
    /// Framed `dlb-wire/2` bytes the coordinator read back from worker
    /// sockets over the whole run (process backend only).
    pub wire_bytes_in: u64,
    /// Collect phases executed (resident sessions only: stats-on rounds,
    /// load reads, and run end).
    pub collects: u64,
}

/// Run-total fault and recovery counters of a fault-injected run: the
/// executor faults the engine's [`FaultPlan`](dlb_core::FaultPlan)
/// delivered plus the scenario-level shard churn failures, and what the
/// supervisor (or the churn model's re-homing accounting) did about them.
/// Reports carry this only when the scenario declared a `[faults]`
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTotals {
    /// Fault events delivered over the whole run: executor faults the
    /// engine injected (worker panics, dropped/duplicated/reordered halo
    /// batches, slow workers) plus shard-churn failures the sequence
    /// applied.
    pub faults_injected: u64,
    /// Recoveries completed: dead workers respawned with their shard
    /// recomputed and re-homed, plus churned shards whose down window
    /// drained inside the run.
    pub recoveries: u64,
    /// Load values re-homed across all recoveries (owned values of each
    /// failed shard, counted once per failure).
    pub rehomed_values: u64,
}

/// Run-total span-recording summary of a traced run, distilled from the
/// recorder's [`TraceSummary`](dlb_telemetry::TraceSummary). Reports
/// carry this only when the scenario (or the CLI's `--trace` flag) armed
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryTotals {
    /// Spans retained in the trace across all lanes.
    pub spans: u64,
    /// Spans lost to ring-buffer wraparound.
    pub dropped: u64,
    /// Per-phase `(name, span count, total ns)`, largest total first.
    pub phases: Vec<(String, u64, u64)>,
    /// Mean over rounds of the per-round max/mean shard busy-time ratio
    /// — the system-level analogue of the paper's load imbalance.
    /// `None` when no shard lane recorded (serial/pool runs).
    pub busy_imbalance_mean: Option<f64>,
    /// The worst round's max/mean shard busy-time ratio.
    pub busy_imbalance_max: Option<f64>,
}

impl From<&dlb_telemetry::TraceSummary> for TelemetryTotals {
    fn from(s: &dlb_telemetry::TraceSummary) -> Self {
        TelemetryTotals {
            spans: s.spans,
            dropped: s.dropped,
            phases: s
                .phases
                .iter()
                .map(|p| (p.phase.name().to_string(), p.count, p.total_ns))
                .collect(),
            busy_imbalance_mean: s.imbalance.map(|i| i.mean_ratio),
            busy_imbalance_max: s.imbalance.map(|i| i.max_ratio),
        }
    }
}

/// The trailing-window Φ band: where the potential settled. For
/// steady-state stops this is the window that triggered the stop; for
/// other stops it summarizes the trailing `window` rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyBand {
    /// Window length the band was measured over.
    pub window: usize,
    /// Mean Φ over the window.
    pub phi_mean: f64,
    /// Minimum Φ over the window.
    pub phi_min: f64,
    /// Maximum Φ over the window.
    pub phi_max: f64,
}

/// The complete outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Protocol name (from the engine's protocol).
    pub protocol: String,
    /// Node count.
    pub n: usize,
    /// Execution backend the run used (`serial`, `pool`, `message`,
    /// `process`).
    /// Trajectories are backend-independent; recorded for provenance.
    pub backend: String,
    /// Whether the message backend ran shard-resident rounds (always
    /// `false` on the other backends).
    pub resident: bool,
    /// Engine worker threads the run used (1 = serial executor).
    pub threads: usize,
    /// Statistics mode the run used, as a stable string.
    pub stats: String,
    /// Rounds executed.
    pub rounds: usize,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Total load before any workload or round ran.
    pub initial_total: f64,
    /// Total load after the last round.
    pub final_total: f64,
    /// Σ injected over all rounds.
    pub injected_total: f64,
    /// Σ consumed over all rounds.
    pub consumed_total: f64,
    /// Σ migrated over stats-computing rounds (see
    /// [`RoundRecord::migrated`]).
    pub migrated_total: f64,
    /// Φ after each round, starting with the initial potential (length
    /// `rounds + 1`).
    pub phi_trace: Vec<f64>,
    /// Per-round records (length `rounds`).
    pub records: Vec<RoundRecord>,
    /// Trailing Φ band.
    pub steady: SteadyBand,
    /// Run-total communication volume (message backend only; `None` on
    /// the shared-memory backends).
    pub comm: Option<CommTotals>,
    /// Run-total fault/recovery counters (fault-injected runs only;
    /// `None` when the scenario declared no faults).
    pub faults: Option<FaultTotals>,
    /// Span-recording summary (traced runs only; `None` when telemetry
    /// was off).
    pub telemetry: Option<TelemetryTotals>,
}

impl ScenarioReport {
    /// Absolute conservation error `|final − (initial + Σinjected −
    /// Σconsumed)|`. Exactly zero for discrete (token) protocols; for
    /// continuous protocols it is floating-point rounding noise — compare
    /// through [`ScenarioReport::conservation_relative_error`].
    pub fn conservation_error(&self) -> f64 {
        let expected = self.initial_total + self.injected_total - self.consumed_total;
        (self.final_total - expected).abs()
    }

    /// Conservation error relative to the magnitude of the flows involved
    /// (floored at 1 so an all-zero scenario doesn't divide by zero).
    pub fn conservation_relative_error(&self) -> f64 {
        let scale = self.initial_total.abs() + self.injected_total + self.consumed_total;
        self.conservation_error() / scale.max(1.0)
    }

    /// Final potential (last Φ-trace entry).
    pub fn phi_final(&self) -> f64 {
        *self.phi_trace.last().expect("trace holds the initial Φ")
    }

    /// The report as JSON lines: one summary-header object, then one
    /// object per round. Serde-free (see `dlb_bench::perf_json` for the
    /// same offline-workspace reasoning); schema `dlb-scenario/1`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        // Message-backend runs append their communication totals to the
        // header; shared-memory runs omit the keys entirely.
        let comm_fields = match &self.comm {
            Some(c) => format!(
                ", \"comm_messages\": {}, \"comm_values_sent\": {}, \
                 \"comm_halo_bytes\": {}, \"comm_max_round_shard_values\": {}, \
                 \"comm_owned_values_in\": {}, \"comm_owned_values_out\": {}, \
                 \"comm_delta_values\": {}, \"comm_collects\": {}, \
                 \"comm_wire_bytes_out\": {}, \"comm_wire_bytes_in\": {}",
                c.messages,
                c.values_sent,
                c.halo_bytes,
                c.max_round_shard_values,
                c.owned_values_in,
                c.owned_values_out,
                c.delta_values,
                c.collects,
                c.wire_bytes_out,
                c.wire_bytes_in
            ),
            None => String::new(),
        };
        // Fault-injected runs append their fault/recovery counters the
        // same way; fault-free runs omit the keys entirely.
        let fault_fields = match &self.faults {
            Some(f) => format!(
                ", \"faults_injected\": {}, \"recoveries\": {}, \"rehomed_values\": {}",
                f.faults_injected, f.recoveries, f.rehomed_values
            ),
            None => String::new(),
        };
        // Traced runs append their span totals and busy imbalance;
        // untraced runs omit the keys entirely.
        let telemetry_fields = match &self.telemetry {
            Some(t) => {
                let top = t
                    .phases
                    .first()
                    .map(|(name, _, _)| esc(name))
                    .unwrap_or_default();
                format!(
                    ", \"telemetry_spans\": {}, \"telemetry_dropped\": {}, \
                     \"telemetry_top_phase\": \"{}\", \"busy_imbalance_mean\": {}, \
                     \"busy_imbalance_max\": {}",
                    t.spans,
                    t.dropped,
                    top,
                    t.busy_imbalance_mean.map_or("null".into(), num),
                    t.busy_imbalance_max.map_or("null".into(), num),
                )
            }
            None => String::new(),
        };
        out.push_str(&format!(
            "{{\"schema\": \"dlb-scenario/1\", \"scenario\": \"{}\", \"protocol\": \"{}\", \
             \"n\": {}, \"backend\": \"{}\", \"resident\": {}, \"threads\": {}, \"stats\": \"{}\", \"rounds\": {}, \"stop\": \"{}\", \
             \"initial_total\": {}, \"final_total\": {}, \"injected_total\": {}, \
             \"consumed_total\": {}, \"migrated_total\": {}, \"conservation_error\": {}, \
             \"phi_initial\": {}, \"phi_final\": {}, \"steady_window\": {}, \
             \"steady_phi_mean\": {}, \"steady_phi_min\": {}, \"steady_phi_max\": {}{comm_fields}{fault_fields}{telemetry_fields}}}\n",
            esc(&self.scenario),
            esc(&self.protocol),
            self.n,
            esc(&self.backend),
            self.resident,
            self.threads,
            esc(&self.stats),
            self.rounds,
            self.stop.as_str(),
            num(self.initial_total),
            num(self.final_total),
            num(self.injected_total),
            num(self.consumed_total),
            num(self.migrated_total),
            num(self.conservation_error()),
            num(self.phi_trace[0]),
            num(self.phi_final()),
            self.steady.window,
            num(self.steady.phi_mean),
            num(self.steady.phi_min),
            num(self.steady.phi_max),
        ));
        for r in &self.records {
            out.push_str(&format!(
                "{{\"round\": {}, \"phi\": {}, \"injected\": {}, \"consumed\": {}, \
                 \"migrated\": {}, \"imbalance\": {}, \"total\": {}}}\n",
                r.round,
                num(r.phi),
                num(r.injected),
                num(r.consumed),
                num(r.migrated),
                num(r.imbalance),
                num(r.total),
            ));
        }
        out
    }

    /// A human-readable multi-line summary for terminal output.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario {} · {} · n = {} · {} backend · {} thread(s) · stats {}\n",
            self.scenario, self.protocol, self.n, self.backend, self.threads, self.stats
        ));
        out.push_str(&format!(
            "stopped after {} round(s): {}\n",
            self.rounds,
            self.stop.as_str()
        ));
        out.push_str(&format!(
            "load: initial {:.3} + injected {:.3} − consumed {:.3} = final {:.3} (error {:.2e})\n",
            self.initial_total,
            self.injected_total,
            self.consumed_total,
            self.final_total,
            self.conservation_error(),
        ));
        out.push_str(&format!(
            "Φ: initial {:.4e} → final {:.4e}; trailing band over {} round(s): \
             mean {:.4e} in [{:.4e}, {:.4e}]\n",
            self.phi_trace[0],
            self.phi_final(),
            self.steady.window,
            self.steady.phi_mean,
            self.steady.phi_min,
            self.steady.phi_max,
        ));
        // The system-level analogue of Φ's load imbalance: how unevenly
        // the *work* of a round spread over the shard workers.
        if let Some(t) = &self.telemetry {
            if let (Some(mean), Some(max)) = (t.busy_imbalance_mean, t.busy_imbalance_max) {
                out.push_str(&format!(
                    "shard busy imbalance (max/mean per round): mean {mean:.3}, worst {max:.3}\n"
                ));
            }
        }
        if self.migrated_total > 0.0 {
            out.push_str(&format!(
                "migrated over edges: {:.3}\n",
                self.migrated_total
            ));
        }
        if let Some(c) = &self.comm {
            out.push_str(&format!(
                "shard messages: {} carrying {} value(s) ({} bytes); \
                 max per-shard round send {} value(s)\n",
                c.messages, c.values_sent, c.halo_bytes, c.max_round_shard_values
            ));
            out.push_str(&format!(
                "coordinator transfer: {} owned value(s) in, {} out, \
                 {} delta value(s) routed, {} collect(s)\n",
                c.owned_values_in, c.owned_values_out, c.delta_values, c.collects
            ));
            // Wire-level totals exist only where bytes were actually
            // framed onto a socket (the process backend).
            if c.wire_bytes_out > 0 || c.wire_bytes_in > 0 {
                out.push_str(&format!(
                    "wire: {} byte(s) out, {} byte(s) in (framed dlb-wire/2)\n",
                    c.wire_bytes_out, c.wire_bytes_in
                ));
            }
        }
        if let Some(f) = &self.faults {
            out.push_str(&format!(
                "faults: {} injected, {} recovered, {} value(s) re-homed\n",
                f.faults_injected, f.recoveries, f.rehomed_values
            ));
        }
        if let Some(t) = &self.telemetry {
            out.push_str(&format!(
                "telemetry: {} span(s) recorded ({} dropped); top phases by total time:\n",
                t.spans, t.dropped
            ));
            for (name, count, total_ns) in t.phases.iter().take(5) {
                out.push_str(&format!(
                    "  {:<16} {:>12}  ({} span(s))\n",
                    name,
                    fmt_ns(*total_ns),
                    count
                ));
            }
        }
        out
    }
}

/// Human duration: nanoseconds rendered at a readable scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// JSON number: shortest round-trip representation, `null` for
/// non-finite values (JSON has no NaN/∞).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioReport {
        ScenarioReport {
            scenario: "s".into(),
            protocol: "alg1-cont".into(),
            n: 4,
            backend: "serial".into(),
            resident: false,
            threads: 1,
            stats: "full".into(),
            rounds: 2,
            stop: StopReason::RoundBudget,
            initial_total: 10.0,
            final_total: 12.5,
            injected_total: 4.0,
            consumed_total: 1.5,
            migrated_total: 3.0,
            phi_trace: vec![9.0, 4.0, 2.0],
            records: vec![
                RoundRecord {
                    round: 1,
                    injected: 2.0,
                    consumed: 0.5,
                    migrated: 2.0,
                    phi: 4.0,
                    imbalance: 3.0,
                    total: 11.5,
                },
                RoundRecord {
                    round: 2,
                    injected: 2.0,
                    consumed: 1.0,
                    migrated: 1.0,
                    phi: 2.0,
                    imbalance: 1.0,
                    total: 12.5,
                },
            ],
            steady: SteadyBand {
                window: 2,
                phi_mean: 3.0,
                phi_min: 2.0,
                phi_max: 4.0,
            },
            comm: None,
            faults: None,
            telemetry: None,
        }
    }

    #[test]
    fn conservation_identities() {
        let r = sample();
        assert!(r.conservation_error() < 1e-12);
        assert!(r.conservation_relative_error() < 1e-12);
        let mut broken = r;
        broken.final_total = 13.0;
        assert!((broken.conservation_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jsonl_shape_and_values() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + one line per round");
        assert!(lines[0].contains("\"schema\": \"dlb-scenario/1\""));
        assert!(lines[0].contains("\"stop\": \"round-budget\""));
        assert!(lines[0].contains("\"phi_final\": 2.0"));
        assert!(lines[1].starts_with("{\"round\": 1,"));
        assert!(lines[2].contains("\"total\": 12.5"));
    }

    #[test]
    fn comm_totals_appear_only_for_message_runs() {
        let plain = sample().to_jsonl();
        assert!(!plain.contains("comm_messages"), "{plain}");
        assert!(plain.contains("\"resident\": false"), "{plain}");
        let mut msg = sample();
        msg.backend = "message".into();
        msg.resident = true;
        msg.comm = Some(CommTotals {
            messages: 12,
            values_sent: 34,
            halo_bytes: 272,
            max_round_shard_values: 9,
            owned_values_in: 40,
            owned_values_out: 8,
            delta_values: 3,
            collects: 2,
            wire_bytes_out: 0,
            wire_bytes_in: 0,
        });
        let text = msg.to_jsonl();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"comm_messages\": 12"), "{header}");
        assert!(header.contains("\"comm_values_sent\": 34"), "{header}");
        assert!(header.contains("\"comm_halo_bytes\": 272"), "{header}");
        assert!(
            header.contains("\"comm_max_round_shard_values\": 9"),
            "{header}"
        );
        assert!(header.contains("\"resident\": true"), "{header}");
        assert!(header.contains("\"comm_owned_values_in\": 40"), "{header}");
        assert!(header.contains("\"comm_owned_values_out\": 8"), "{header}");
        assert!(header.contains("\"comm_delta_values\": 3"), "{header}");
        assert!(header.contains("\"comm_collects\": 2"), "{header}");
        assert!(header.ends_with('}'), "header stays one JSON object");
        assert!(msg.summary().contains("shard messages: 12"));
        assert!(
            msg.summary().contains("coordinator transfer: 40 owned"),
            "{}",
            msg.summary()
        );
    }

    #[test]
    fn fault_totals_appear_only_for_fault_injected_runs() {
        let plain = sample().to_jsonl();
        assert!(!plain.contains("faults_injected"), "{plain}");
        let mut faulty = sample();
        faulty.faults = Some(FaultTotals {
            faults_injected: 5,
            recoveries: 4,
            rehomed_values: 96,
        });
        let text = faulty.to_jsonl();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"faults_injected\": 5"), "{header}");
        assert!(header.contains("\"recoveries\": 4"), "{header}");
        assert!(header.contains("\"rehomed_values\": 96"), "{header}");
        assert!(header.ends_with('}'), "header stays one JSON object");
        assert!(faulty.summary().contains("faults: 5 injected"));
        // Comm and fault blocks compose on the same header.
        faulty.comm = Some(CommTotals {
            messages: 1,
            values_sent: 2,
            halo_bytes: 16,
            max_round_shard_values: 2,
            ..CommTotals::default()
        });
        let both = faulty.to_jsonl();
        let header = both.lines().next().unwrap();
        assert!(header.contains("\"comm_messages\": 1"), "{header}");
        assert!(header.contains("\"recoveries\": 4"), "{header}");
    }

    #[test]
    fn telemetry_totals_appear_only_for_traced_runs() {
        let plain = sample().to_jsonl();
        assert!(!plain.contains("telemetry_spans"), "{plain}");
        let mut traced = sample();
        traced.telemetry = Some(TelemetryTotals {
            spans: 42,
            dropped: 1,
            phases: vec![
                ("gather-interior".into(), 20, 2_500_000),
                ("stats".into(), 10, 400_000),
            ],
            busy_imbalance_mean: Some(1.25),
            busy_imbalance_max: Some(1.5),
        });
        let text = traced.to_jsonl();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"telemetry_spans\": 42"), "{header}");
        assert!(header.contains("\"telemetry_dropped\": 1"), "{header}");
        assert!(
            header.contains("\"telemetry_top_phase\": \"gather-interior\""),
            "{header}"
        );
        assert!(header.contains("\"busy_imbalance_mean\": 1.25"), "{header}");
        assert!(header.contains("\"busy_imbalance_max\": 1.5"), "{header}");
        assert!(header.ends_with('}'), "header stays one JSON object");
        let s = traced.summary();
        assert!(s.contains("shard busy imbalance"), "{s}");
        assert!(s.contains("gather-interior"), "{s}");
        assert!(s.contains("2.500 ms"), "{s}");
        // A serial trace has no shard lanes, hence no imbalance line.
        traced.telemetry.as_mut().unwrap().busy_imbalance_mean = None;
        traced.telemetry.as_mut().unwrap().busy_imbalance_max = None;
        assert!(!traced.summary().contains("shard busy imbalance"));
        let header = traced.to_jsonl();
        let header = header.lines().next().unwrap();
        assert!(header.contains("\"busy_imbalance_mean\": null"), "{header}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(0.1), "0.1");
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let s = sample().summary();
        assert!(s.contains("round-budget"));
        assert!(s.contains("alg1-cont"));
        assert!(s.contains("error"));
    }
}
