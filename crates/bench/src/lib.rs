#![deny(rustdoc::broken_intra_doc_links)]

//! Shared fixtures for the Criterion benchmarks and the `repro` binary.
//!
//! Every bench group pulls its instances from here so that bench names
//! and experiment tables refer to identical graphs and workloads.

use dlb_graphs::{topology, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used by all benchmark fixtures.
pub const BENCH_SEED: u64 = 0xBE_2006;

/// The topology sweep used by the round-cost benches (name, graph).
/// `n = 1024` — large enough that per-round cost dominates setup, small
/// enough that a full `cargo bench` stays in minutes.
pub fn bench_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    vec![
        ("cycle", topology::cycle(1024)),
        ("torus2d", topology::torus2d(32, 32)),
        ("hypercube", topology::hypercube(10)),
        ("rreg8", topology::random_regular(1024, 8, &mut rng)),
    ]
}

/// A deterministic spiky load vector for continuous benches.
pub fn spike_continuous(n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    v[0] = n as f64 * 100.0;
    v
}

/// A deterministic spiky token vector for discrete benches.
pub fn spike_discrete(n: usize) -> Vec<i64> {
    let mut v = vec![0i64; n];
    v[0] = n as i64 * 100_000;
    v
}

/// Machine-readable benchmark output (`BENCH_*.json`), written without any
/// serde dependency so the offline workspace stays dependency-free.
///
/// The JSON tracks the perf trajectory across PRs: each record is one
/// benchmark variant with its median/min per-round time, tagged with
/// topology, size, thread count and stats mode so future sessions can
/// diff like against like.
pub mod perf_json {
    use std::io::Write;

    /// One benchmark result destined for the JSON report.
    #[derive(Debug, Clone)]
    pub struct PerfRecord {
        /// Full benchmark id as printed by the harness.
        pub id: String,
        /// Logical group (`gather`, `engine_round`, `convergence_run`).
        pub group: String,
        /// Variant within the group (`serial/full`, `pool4/off`, …).
        pub variant: String,
        /// Topology family of the instance.
        pub topology: String,
        /// Node count of the instance.
        pub n: usize,
        /// Worker threads (1 = serial executor).
        pub threads: usize,
        /// Rounds executed per timed iteration (per-round figures divide
        /// by this).
        pub rounds_per_iter: usize,
        /// Median nanoseconds per round.
        pub median_ns_per_round: f64,
        /// Fastest-sample nanoseconds per round.
        pub min_ns_per_round: f64,
        /// Timed samples behind the figures.
        pub samples: usize,
        /// Message/process-backend only: edges crossing shards in the
        /// plan the variant executed (communication volume). Omitted from
        /// the JSON when absent.
        pub edge_cut: Option<usize>,
        /// Message/process-backend only: total halo entries exchanged per
        /// round.
        pub halo: Option<usize>,
        /// Message-backend only: batched shard→shard messages posted per
        /// round.
        pub messages: Option<usize>,
        /// Message-backend only: load values carried by those messages
        /// per round.
        pub values_sent: Option<usize>,
        /// Message-backend only: owned load values the coordinator
        /// shipped to workers as full slices in the measured round (zero
        /// on resident steady-state rounds).
        pub owned_values_in: Option<usize>,
        /// Message-backend only: owned load values workers shipped back
        /// in the measured round.
        pub owned_values_out: Option<usize>,
        /// Resident message rounds only: changed owned values sent as
        /// deltas in the measured round.
        pub delta_values: Option<usize>,
        /// Resident message rounds only: result scatters recorded as
        /// `collect` phases in the measured round.
        pub collects: Option<usize>,
        /// Process-backend only: framed `dlb-wire/3` bytes the
        /// coordinator wrote to worker sockets in the measured round.
        pub wire_bytes_out: Option<usize>,
        /// Process-backend only: framed `dlb-wire/3` bytes the
        /// coordinator read back in the measured round.
        pub wire_bytes_in: Option<usize>,
        /// Thread-scaling records only: this variant's speedup relative
        /// to the serial single-thread baseline of the same run
        /// (`serial_median / variant_median`; > 1 is faster than
        /// serial). Omitted from the JSON when absent.
        pub speedup_vs_serial: Option<f64>,
    }

    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }

    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.1}")
        } else {
            "null".to_string()
        }
    }

    /// Writes the report to `path` (pretty-printed, stable key order —
    /// diff-friendly across PRs). Fails loudly: a bench that cannot
    /// record its trajectory should not pretend it succeeded.
    pub fn write(
        path: &str,
        bench: &str,
        quick: bool,
        threads_available: usize,
        records: &[PerfRecord],
    ) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dlb-bench/1\",\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", esc(bench)));
        out.push_str(&format!("  \"quick\": {quick},\n"));
        out.push_str(&format!("  \"threads_available\": {threads_available},\n"));
        out.push_str("  \"units\": \"ns_per_round\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in records.iter().enumerate() {
            let mut shard_meta = String::new();
            if let Some(cut) = r.edge_cut {
                shard_meta.push_str(&format!(", \"edge_cut\": {cut}"));
            }
            if let Some(halo) = r.halo {
                shard_meta.push_str(&format!(", \"halo\": {halo}"));
            }
            if let Some(messages) = r.messages {
                shard_meta.push_str(&format!(", \"messages\": {messages}"));
            }
            if let Some(values) = r.values_sent {
                shard_meta.push_str(&format!(", \"values_sent\": {values}"));
            }
            if let Some(v) = r.owned_values_in {
                shard_meta.push_str(&format!(", \"owned_values_in\": {v}"));
            }
            if let Some(v) = r.owned_values_out {
                shard_meta.push_str(&format!(", \"owned_values_out\": {v}"));
            }
            if let Some(v) = r.delta_values {
                shard_meta.push_str(&format!(", \"delta_values\": {v}"));
            }
            if let Some(v) = r.collects {
                shard_meta.push_str(&format!(", \"collects\": {v}"));
            }
            if let Some(v) = r.wire_bytes_out {
                shard_meta.push_str(&format!(", \"wire_bytes_out\": {v}"));
            }
            if let Some(v) = r.wire_bytes_in {
                shard_meta.push_str(&format!(", \"wire_bytes_in\": {v}"));
            }
            if let Some(speedup) = r.speedup_vs_serial {
                if speedup.is_finite() {
                    shard_meta.push_str(&format!(", \"speedup_vs_serial\": {speedup:.3}"));
                }
            }
            // Each record carries the schema tag too, so consumers that
            // slurp individual records (jq '.results[]', CI validators)
            // can check versioning without the enclosing document.
            out.push_str(&format!(
                "    {{\"schema\": \"dlb-bench/1\", \
                 \"id\": \"{}\", \"group\": \"{}\", \"variant\": \"{}\", \
                 \"topology\": \"{}\", \"n\": {}, \"threads\": {}, \
                 \"rounds_per_iter\": {}, \"median_ns_per_round\": {}, \
                 \"min_ns_per_round\": {}, \"samples\": {}{}}}{}\n",
                esc(&r.id),
                esc(&r.group),
                esc(&r.variant),
                esc(&r.topology),
                r.n,
                r.threads,
                r.rounds_per_iter,
                num(r.median_ns_per_round),
                num(r.min_ns_per_round),
                r.samples,
                shard_meta,
                if i + 1 == records.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_json_records_carry_the_schema_tag() {
        let rec = perf_json::PerfRecord {
            id: "engine_round/serial/full".into(),
            group: "engine_round".into(),
            variant: "serial/full".into(),
            topology: "torus2d".into(),
            n: 1024,
            threads: 1,
            rounds_per_iter: 8,
            median_ns_per_round: 1234.5,
            min_ns_per_round: 1200.0,
            samples: 10,
            edge_cut: None,
            halo: None,
            messages: None,
            values_sent: None,
            owned_values_in: None,
            owned_values_out: None,
            delta_values: None,
            collects: None,
            wire_bytes_out: None,
            wire_bytes_in: None,
            speedup_vs_serial: None,
        };
        let path = std::env::temp_dir().join("dlb_bench_schema_test.json");
        let path = path.to_str().unwrap();
        perf_json::write(path, "engine", true, 4, &[rec]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(text.contains("\"schema\": \"dlb-bench/1\",\n"), "{text}");
        let record_line = text
            .lines()
            .find(|l| l.contains("\"id\""))
            .expect("a record line");
        assert!(
            record_line
                .trim_start()
                .starts_with("{\"schema\": \"dlb-bench/1\""),
            "per-record schema tag missing: {record_line}"
        );
    }

    #[test]
    fn fixtures_consistent() {
        for (name, g) in bench_graphs() {
            assert_eq!(g.n(), 1024, "{name}");
        }
        assert_eq!(spike_continuous(8).iter().sum::<f64>(), 800.0);
        assert_eq!(spike_discrete(8).iter().sum::<i64>(), 800_000);
    }
}
