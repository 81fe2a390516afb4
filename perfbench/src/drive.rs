//! One benchmark run: the setup path `ScenarioRunner::run` takes for a
//! fixed-network continuous scenario, spelled out call by call so each
//! call can be timed, then `run_driven` to the report, then the checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::init;
use dlb_core::{Engine, Telemetry};
use dlb_telemetry::{TraceMeta, TraceSummary};
use dlb_workloads::scenario::compile_workloads;
use dlb_workloads::{
    run_driven, ExecSpec, ProtocolSpec, Scenario, ScenarioReport, ScenarioRunner, StopReason,
    StopSpec, TelemetrySpec, Workload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self, Span};
use crate::procfs;

/// Largest relative conservation error a continuous run may show.
pub const CONSERVATION_TOLERANCE: f64 = 1e-9;

/// Span ring capacity per lane: holds every span of the longest workload
/// (the hypercube's few hundred rounds) with room to spare; a run that
/// drops spans fails instead of reporting a partial trace.
const TRACE_CAPACITY: usize = 1 << 16;

/// A check to fail on purpose, to show a failed run is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceFail {
    /// Expect a digest one bit off the reference.
    Digest,
    /// Kill shard 0's worker process before round 1 (process backend),
    /// or panic after setup (every other backend).
    Crash,
}

impl ForceFail {
    pub fn parse(s: &str) -> Result<ForceFail, String> {
        match s {
            "digest" => Ok(ForceFail::Digest),
            "crash" => Ok(ForceFail::Crash),
            other => Err(format!(
                "unknown --force-fail {other:?} (expected digest or crash)"
            )),
        }
    }
}

pub struct RunOpts {
    /// Φ-trace digest of the serial trajectory for this spec.
    pub expect_digest: u64,
    /// Arm telemetry and write the dlb-trace/1 JSONL here.
    pub trace_out: Option<PathBuf>,
    pub force_fail: Option<ForceFail>,
}

/// What one run measured, and why it failed if it did.
#[derive(Debug, Default)]
pub struct RunRecord {
    pub failure: Option<String>,
    pub setup_s: f64,
    pub wall_s: f64,
    pub n: usize,
    pub rounds: usize,
    pub digest: u64,
    /// This process's peak RSS plus every worker process's.
    pub peak_rss_mb: f64,
    pub worker_peak_rss_mb: f64,
    /// Per-layer metrics, on traced runs.
    pub layers: Vec<(&'static str, f64)>,
}

/// FNV-1a over the bits of every Φ-trace entry: equal digests mean
/// bit-identical trajectories (up to a 2⁻⁶⁴ collision).
pub fn phi_digest(trace: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in trace.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checks every run must pass once it produced a report.
pub fn check(sc: &Scenario, report: &ScenarioReport, expect_digest: u64) -> Result<(), String> {
    let err = report.conservation_relative_error();
    if err.is_nan() || err > CONSERVATION_TOLERANCE {
        return Err(format!(
            "conservation error {err:e} > {CONSERVATION_TOLERANCE:e}"
        ));
    }
    let digest = phi_digest(&report.phi_trace);
    if digest != expect_digest {
        return Err(format!(
            "phi-trace digest {digest:016x} != serial trajectory {expect_digest:016x}"
        ));
    }
    if let StopSpec::PhiBelow { target, .. } = sc.stop {
        if report.stop != StopReason::Converged {
            return Err(format!(
                "missed the phi target {target:e}: stopped on {} at phi {:e}",
                report.stop.as_str(),
                report.phi_final()
            ));
        }
    }
    Ok(())
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".into())
}

/// Φ-trace digests of the product path: `ScenarioRunner::run` on the
/// spec as given, and on the same spec with the serial backend.
pub struct Reference {
    pub product: u64,
    pub serial: u64,
    pub rounds: usize,
}

pub fn reference(sc: &Scenario) -> Result<Reference, String> {
    let run = |runner: ScenarioRunner| {
        catch_unwind(AssertUnwindSafe(|| runner.run()))
            .map_err(panic_text)
            .and_then(|r| r)
    };
    let product = run(ScenarioRunner::new(sc.clone()))?;
    let serial = if sc.exec == ExecSpec::Serial {
        phi_digest(&product.phi_trace)
    } else {
        phi_digest(&run(ScenarioRunner::new(sc.clone()).with_exec(ExecSpec::Serial))?.phi_trace)
    };
    Ok(Reference {
        product: phi_digest(&product.phi_trace),
        serial,
        rounds: product.rounds,
    })
}

/// Nanoseconds on the recorder's clock when traced, so the benchmark's
/// spans and the engine's share one time base.
struct Clock {
    tel: Telemetry,
    epoch: Instant,
}

impl Clock {
    fn now(&self) -> u64 {
        match self.tel.recorder() {
            Some(r) => r.now_ns(),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    fn span<T>(&self, spans: &mut Vec<Span>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        spans.push(Span {
            name,
            start_ns,
            end_ns: self.now(),
        });
        out
    }
}

/// Runs `sc` once from spec to report. Never panics: a panic, a worker
/// crash or a failed check comes back as `failure`.
pub fn run(sc: &Scenario, opts: &RunOpts) -> RunRecord {
    match catch_unwind(AssertUnwindSafe(|| drive(sc, opts))) {
        Ok(Ok(record)) => record,
        Ok(Err(failure)) => RunRecord {
            failure: Some(failure),
            ..RunRecord::default()
        },
        Err(payload) => RunRecord {
            failure: Some(panic_text(payload)),
            ..RunRecord::default()
        },
    }
}

fn drive(sc: &Scenario, opts: &RunOpts) -> Result<RunRecord, String> {
    if sc.protocol != ProtocolSpec::Continuous || sc.sequence.is_some() || sc.faults.is_some() {
        return Err("the benchmark drives fixed-network continuous scenarios only".into());
    }
    let tel = match opts.trace_out {
        Some(_) => Telemetry::armed(TelemetrySpec::lanes(&sc.exec), TRACE_CAPACITY),
        None => Telemetry::Off,
    };
    let clock = Clock {
        tel: tel.clone(),
        epoch: Instant::now(),
    };
    let mut spans: Vec<Span> = Vec::new();

    let t0 = clock.now();
    sc.validate()?;
    let g = clock.span(&mut spans, "graphs.topology", || sc.topology.build());
    let n = g.n();
    let mut loads = clock.span(&mut spans, "core.init_loads", || {
        let mut rng = StdRng::seed_from_u64(sc.init.seed);
        init::continuous_loads(n, sc.init.avg, sc.init.dist, &mut rng)
    });
    let mut workload = clock.span(&mut spans, "workloads.compile", || {
        compile_workloads::<f64>(&sc.workloads, n)
    });
    let protocol = clock.span(&mut spans, "core.protocol_new", || {
        ContinuousDiffusion::new(&g)
    });
    let mut engine = clock.span(&mut spans, "core.engine_new", || {
        Engine::with_backend(protocol, sc.exec)
            .with_stats_mode(sc.stats)
            .with_telemetry(tel.clone())
    });
    let t_setup = clock.now();

    if opts.force_fail == Some(ForceFail::Crash) {
        match sc.exec {
            ExecSpec::Process { .. } => engine.process_kill_worker(0),
            _ => panic!("forced crash after setup"),
        }
    }
    let workload = workload.as_mut().map(|w| w as &mut dyn Workload<f64>);
    let report = run_driven(&mut engine, &mut loads, workload, &sc.stop, &sc.name);
    let t_end = clock.now();

    // Peaks are read while the workers still live; the engine's drop
    // then reaps them.
    let own_rss = procfs::peak_rss_mb("self")?;
    let mut worker_rss = 0.0;
    for pid in engine.process_worker_pids().unwrap_or_default() {
        worker_rss += procfs::peak_rss_mb(&pid.to_string())?;
    }
    let expect = match opts.force_fail {
        Some(ForceFail::Digest) => opts.expect_digest ^ 1,
        _ => opts.expect_digest,
    };
    let failure = check(sc, &report, expect).err();

    let mut record = RunRecord {
        failure,
        setup_s: (t_setup - t0) as f64 / 1e9,
        wall_s: (t_end - t0) as f64 / 1e9,
        n,
        rounds: report.rounds,
        digest: phi_digest(&report.phi_trace),
        peak_rss_mb: own_rss + worker_rss,
        worker_peak_rss_mb: worker_rss,
        layers: Vec::new(),
    };
    if let (Some(path), Some(rec)) = (&opts.trace_out, tel.recorder()) {
        let events = rec.events();
        if rec.dropped() > 0 {
            return Err(format!("{} spans dropped from the trace", rec.dropped()));
        }
        let partition = match sc.exec {
            ExecSpec::Sharded { partition, .. }
            | ExecSpec::Message { partition, .. }
            | ExecSpec::Process { partition, .. } => Some(partition),
            _ => None,
        };
        let partition_ns = partition.map_or(0, |p| {
            let t = Instant::now();
            std::hint::black_box(p.build(&g));
            t.elapsed().as_nanos() as u64
        });
        let summary = TraceSummary::from_events(&events, dlb_telemetry::DEFAULT_BINS, 0);
        record.layers = layers::compute(&layers::Inputs {
            events: &events,
            setup: &spans,
            run: (t_setup, t_end),
            wall_ns: t_end - t0,
            n,
            slots: g.degree_sum(),
            rounds: report.rounds,
            partition_ns,
            shard: engine.shard_metrics(),
            comm: report.comm,
            busy_imbalance: summary.imbalance.map(|i| i.mean_ratio),
            worker_peak_rss_mb: worker_rss,
        });
        let meta = TraceMeta {
            scenario: sc.name.clone(),
            backend: sc.exec.name().to_string(),
            shards: rec.shard_lanes(),
        };
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?,
        );
        dlb_telemetry::write_jsonl(&mut out, &meta, &events, Some(&engine.metrics_snapshot()))
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::engine::StatsMode;
    use dlb_workloads::TopologySpec;

    /// A workload's stack, shrunk to a size a unit test runs in
    /// milliseconds.
    fn small(name: &str) -> Scenario {
        let mut sc = crate::workloads::scenario(name, 5).unwrap();
        sc.topology = TopologySpec::Torus2d { rows: 8, cols: 8 };
        sc.stop = StopSpec::Rounds { rounds: 12 };
        sc
    }

    fn opts(expect_digest: u64, force_fail: Option<ForceFail>) -> RunOpts {
        RunOpts {
            expect_digest,
            trace_out: None,
            force_fail,
        }
    }

    #[test]
    fn a_run_matches_the_product_path_and_passes_its_checks() {
        let sc = small("torus-bursty-pool");
        let r = reference(&sc).unwrap();
        assert_eq!(r.product, r.serial, "pool and serial trajectories differ");
        let record = run(&sc, &opts(r.serial, None));
        assert_eq!(record.failure, None);
        assert_eq!(record.digest, r.serial);
        assert_eq!((record.n, record.rounds), (64, 12));
        assert!(record.wall_s >= record.setup_s && record.setup_s > 0.0);
        assert!(record.peak_rss_mb > 0.0);
        assert_eq!(record.worker_peak_rss_mb, 0.0);
    }

    #[test]
    fn forced_failures_come_back_as_failed_runs() {
        let sc = small("torus-bursty-pool");
        let digest = reference(&sc).unwrap().serial;
        let bad = run(&sc, &opts(digest, Some(ForceFail::Digest)));
        assert!(bad.failure.unwrap().contains("digest"));
        let crashed = run(&sc, &opts(digest, Some(ForceFail::Crash)));
        assert!(crashed.failure.unwrap().contains("forced crash"));
    }

    #[test]
    fn a_missed_phi_target_fails_the_converge_check() {
        let mut sc = crate::workloads::scenario("hypercube-converge-serial", 1).unwrap();
        sc.topology = TopologySpec::Hypercube { dim: 4 };
        sc.stop = StopSpec::PhiBelow {
            target: 1e-300,
            max_rounds: 3,
        };
        let digest = reference(&sc).unwrap().serial;
        let record = run(&sc, &opts(digest, None));
        assert!(record.failure.unwrap().contains("missed the phi target"));
    }

    #[test]
    fn traced_runs_keep_the_trajectory_and_write_the_trace() {
        let sc = small("torus-drain-resident").with_stats(StatsMode::Off);
        let digest = reference(&sc).unwrap().serial;
        let path =
            std::env::temp_dir().join(format!("perfbench-test-{}.jsonl", std::process::id()));
        let traced = run(
            &sc,
            &RunOpts {
                expect_digest: digest,
                trace_out: Some(path.clone()),
                force_fail: None,
            },
        );
        assert_eq!(traced.failure, None);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"dlb-trace/1\""), "{text}");
        let get = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("core.rounds"), 12.0);
        assert!(
            get("core.delta_values") > 0.0,
            "the dense stack routes deltas"
        );
        assert!(get("graphs.edge_cut") > 0.0);
        assert!(get("core.gather_ms") > 0.0);
        let sum = get("setup_spans_ms") + get("engine_spans_ms") + get("unattributed_ms");
        assert!((sum - get("traced_wall_ms")).abs() < 1e-9);
        assert!(get("unattributed_ms") >= 0.0);
    }

    #[test]
    fn digests_tell_trajectories_apart() {
        assert_eq!(phi_digest(&[1.0, 0.5]), phi_digest(&[1.0, 0.5]));
        assert_ne!(phi_digest(&[1.0, 0.5]), phi_digest(&[0.5, 1.0]));
        assert_ne!(phi_digest(&[0.0]), phi_digest(&[-0.0]));
    }
}
