//! Scenario runner CLI: run a named built-in scenario or a scenario file
//! (TOML) end to end and print its report.
//!
//! ```text
//! cargo run --release --example scenarios -- --list
//! cargo run --release --example scenarios -- --name bursty-torus
//! cargo run --release --example scenarios -- --file my_scenario.toml
//! cargo run --release --example scenarios -- --name zipf-hypercube-drain \
//!     --json report.jsonl --threads 4 --print-spec
//! ```
//!
//! Options:
//!
//! * `--name <builtin>` / `--file <path>` — which scenario to run;
//! * `--backend <serial|pool|message|process>` — override the
//!   scenario's execution backend (trajectories are backend-independent,
//!   so this is safe to vary freely — the CI cross-backend matrix relies
//!   on it);
//! * `--threads <t>` — worker count (with `--backend`, refines it; alone
//!   it is the legacy scalar: 1 = serial, 0 = auto-pool, t > 1 = pool;
//!   rejected with `--backend message`/`process`, which run one worker
//!   per shard);
//! * `--shards <k>` / `--partition <range|bfs>` — message/process-backend
//!   parameters (without `--backend` — or an implying `--resident` /
//!   `--transport` — they are rejected like misplaced scenario-file keys);
//! * `--transport <unix|tcp>` — process-backend byte transport (implies
//!   `--backend process`; default `unix`);
//! * `--resident` — message-backend resident dispatch: after the
//!   seeding round each worker is sent only the owned values that
//!   changed since its last results (implies `--backend message`;
//!   combines with `--faults` like the legacy message backend);
//! * `--faults <spec>` — inject deterministic faults, overriding any
//!   `[faults]` section: a comma list like
//!   `"every=40,down=5,seed=7,panic,drop,delay=3"` (bare words enable
//!   executor fault kinds, `key=value` pairs set the churn numbers; the
//!   CI fault matrix drives this and asserts conservation plus clean
//!   recovery from the JSON output);
//! * `--json <path>` — also write the report as JSON lines
//!   (schema `dlb-scenario/1`; the CI smoke job asserts the conservation
//!   invariant from this output);
//! * `--trace <path>` — record per-phase span telemetry and write the
//!   trace after the run; `--trace-format jsonl` (default, schema
//!   `dlb-trace/1`) or `--trace-format chrome` (Chrome `trace_event`
//!   JSON — open in `about:tracing` or Perfetto, one lane per shard);
//! * `--print-spec` — echo the scenario back in canonical TOML before
//!   running (what you'd commit as a fixture — including the `backend` /
//!   `shards` / `partition` keys of the exec spec);
//! * `--list` — list the built-in scenarios with their exec spec.
//!
//! Exits non-zero if the run violates load conservation, so the example
//! doubles as an end-to-end smoke check.

use dlb_examples::{arg_value, log_sparkline};
use dlb_telemetry::{CommCounters, FaultCounters, MetricsSnapshot, TraceMeta};
use dlb_workloads::{exec_spec_from_parts, ExecSpec, FaultsSpec, Scenario, ScenarioRunner};

/// Human-readable exec-spec summary for `--list`.
fn exec_summary(exec: &ExecSpec) -> String {
    match *exec {
        // Serial, and the removed sharded backend no built-in uses.
        ExecSpec::Serial | ExecSpec::Sharded { .. } => exec.name().to_string(),
        ExecSpec::Pool { threads: 0 } => "pool(auto)".to_string(),
        ExecSpec::Pool { threads } => format!("pool({threads})"),
        ExecSpec::Message {
            partition,
            resident,
        } => format!(
            "message({} x{}, 1 worker/shard{})",
            partition.strategy_name(),
            partition.shards(),
            if resident { ", resident" } else { "" },
        ),
        ExecSpec::Process {
            partition,
            transport,
        } => format!(
            "process({} x{}, 1 process/shard, {transport})",
            partition.strategy_name(),
            partition.shards(),
        ),
    }
}

/// Builds the exec-spec override from `--backend`/`--threads`/`--shards`/
/// `--partition`, or `None` when no exec flag was given. The gating rules
/// live in `dlb_workloads::exec_spec_from_parts`, shared with the
/// scenario-file parser; the CLI-only conveniences are that `--resident`
/// implies `--backend message` and `--transport` implies `--backend
/// process`.
fn exec_override() -> Option<ExecSpec> {
    let fail = |msg: &str| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let threads: Option<usize> = arg_value("--threads").map(|t| {
        t.parse()
            .unwrap_or_else(|_| fail("--threads must be an integer"))
    });
    let shards: Option<usize> = arg_value("--shards").map(|s| {
        s.parse()
            .unwrap_or_else(|_| fail("--shards must be an integer"))
    });
    let strategy = arg_value("--partition");
    let resident = std::env::args().any(|a| a == "--resident").then_some(true);
    let transport = arg_value("--transport");
    let backend = arg_value("--backend")
        .or_else(|| resident.map(|_| "message".to_string()))
        .or_else(|| transport.as_ref().map(|_| "process".to_string()));
    if backend.is_none() && threads.is_none() && shards.is_none() && strategy.is_none() {
        return None;
    }
    Some(
        exec_spec_from_parts(
            backend.as_deref(),
            threads,
            shards,
            strategy.as_deref(),
            resident,
            transport.as_deref(),
        )
        .unwrap_or_else(|e| fail(&e)),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        println!("built-in scenarios:");
        for name in Scenario::builtin_names() {
            let s = Scenario::builtin(name).expect("builtin exists");
            println!(
                "  {name:<22} {} on {} (n = {}), {} workload component(s), exec {}",
                s.protocol.name(),
                s.topology.kind(),
                s.topology.n(),
                s.workloads.len(),
                exec_summary(&s.exec),
            );
        }
        println!(
            "\nexec overrides: --backend serial|pool|message|process, --threads t, \
             --shards k, --partition range|bfs, --resident, --transport unix|tcp\n\
             fault injection: --faults \"every=40,down=5,seed=7,panic,drop,delay=3\""
        );
        return;
    }

    let scenario = match (arg_value("--name"), arg_value("--file")) {
        (Some(name), None) => Scenario::builtin(&name).unwrap_or_else(|| {
            eprintln!("unknown scenario {name:?}; --list shows the built-ins");
            std::process::exit(2);
        }),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            Scenario::from_toml(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(2);
            })
        }
        _ => {
            eprintln!(
                "usage: scenarios (--name <builtin> | --file <path>) \
                 [--backend serial|pool|message|process] [--threads t] [--shards k] \
                 [--partition range|bfs] [--resident] [--transport unix|tcp] [--faults spec] \
                 [--json out.jsonl] [--trace out.trace] [--trace-format jsonl|chrome] \
                 [--print-spec] [--list]"
            );
            std::process::exit(2);
        }
    };

    let scenario = match arg_value("--faults") {
        Some(spec) => scenario.with_faults(FaultsSpec::from_arg(&spec).unwrap_or_else(|e| {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        })),
        None => scenario,
    };

    if args.iter().any(|a| a == "--print-spec") {
        print!("{}", scenario.to_toml());
        println!();
    }

    let trace_path = arg_value("--trace");
    let trace_format = arg_value("--trace-format").unwrap_or_else(|| "jsonl".to_string());
    if !matches!(trace_format.as_str(), "jsonl" | "chrome") {
        eprintln!("--trace-format must be jsonl or chrome, got {trace_format:?}");
        std::process::exit(2);
    }

    let exec = exec_override();
    // `--trace` arms a recorder the CLI keeps a handle to, so the raw
    // span events can be exported after the run; the buffer shape comes
    // from the scenario's `[telemetry]` section when it has one.
    let effective_exec = exec.unwrap_or(scenario.exec);
    let tel = trace_path.as_ref().map(|_| {
        let mut spec = scenario.telemetry.clone().unwrap_or_default();
        spec.enabled = true; // an explicit --trace wins over the section's opt-out
        spec.armed(&effective_exec)
    });

    let mut runner = ScenarioRunner::new(scenario);
    if let Some(exec) = exec {
        runner = runner.with_exec(exec);
    }
    if let Some(tel) = &tel {
        runner = runner.with_telemetry(tel.clone());
    }

    let report = runner.run().unwrap_or_else(|e| {
        eprintln!("scenario failed: {e}");
        std::process::exit(1);
    });

    print!("{}", report.summary());
    println!(
        "Φ trace (log scale):  {}",
        log_sparkline(&report.phi_trace, 1e-12)
    );
    let imbalance: Vec<f64> = report.records.iter().map(|r| r.imbalance).collect();
    if !imbalance.is_empty() {
        println!("imbalance (log):      {}", log_sparkline(&imbalance, 1e-12));
    }

    if let Some(path) = arg_value("--json") {
        std::fs::write(&path, report.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("report written to {path} (JSON lines, schema dlb-scenario/1)");
    }

    if let (Some(path), Some(tel)) = (&trace_path, &tel) {
        let rec = tel.recorder().expect("--trace armed the recorder");
        let events = rec.events();
        let meta = TraceMeta {
            scenario: report.scenario.clone(),
            backend: report.backend.clone(),
            shards: rec.shard_lanes(),
        };
        // The trace's metrics record is rebuilt from the report: the CLI
        // never sees the engine, but the report carries the same totals.
        let metrics = MetricsSnapshot {
            rounds_run: report.rounds as u64,
            comm: report.comm.as_ref().map(|c| CommCounters {
                shards: rec.shard_lanes() as u64,
                messages: c.messages,
                values_sent: c.values_sent,
                halo_bytes: c.halo_bytes,
                max_shard_values_sent: c.max_round_shard_values,
                owned_values_in: c.owned_values_in,
                owned_values_out: c.owned_values_out,
                delta_values: c.delta_values,
                collects: c.collects,
            }),
            shard: None,
            faults: report
                .faults
                .as_ref()
                .map_or_else(FaultCounters::default, |f| FaultCounters {
                    faults_injected: f.faults_injected,
                    recoveries: f.recoveries,
                    rehomed_values: f.rehomed_values,
                }),
            spans_recorded: rec.recorded(),
            spans_dropped: rec.dropped(),
        };
        let mut out = Vec::new();
        let write = match trace_format.as_str() {
            "chrome" => dlb_telemetry::write_chrome(&mut out, &meta, &events),
            _ => dlb_telemetry::write_jsonl(&mut out, &meta, &events, Some(&metrics)),
        };
        write
            .and_then(|()| std::fs::write(path, &out))
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
        println!(
            "trace written to {path} ({} span(s), {} dropped, format {})",
            events.len(),
            rec.dropped(),
            if trace_format == "chrome" {
                "chrome trace_event"
            } else {
                "dlb-trace/1 JSONL"
            }
        );
    }

    // The example doubles as a smoke check: a conservation violation is a
    // bug in the subsystem, not a property of any scenario.
    let rel_err = report.conservation_relative_error();
    if rel_err > 1e-9 {
        eprintln!("LOAD CONSERVATION VIOLATED: relative error {rel_err:.3e}");
        std::process::exit(1);
    }
}
