//! `perfbench`: the benchmark's program side. Each call does one thing
//! for one (workload, seed) and prints one JSON line; `run.py` calls it
//! once per run, so no run inherits another's peak RSS.
//!
//! ```text
//! perfbench info
//! perfbench reference --workload <name> --seed <n>
//! perfbench run --workload <name> --seed <n> --expect-digest <hex>
//!               [--trace-out <file.jsonl>] [--force-fail digest|crash]
//! ```

mod drive;
mod layers;
mod procfs;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use dlb_core::kernels::KernelKind;

const USAGE: &str = "usage: perfbench info | reference --workload <name> --seed <n> | \
run --workload <name> --seed <n> --expect-digest <hex> [--trace-out <file>] [--force-fail digest|crash]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    if rest.len() % 2 != 0 {
        return Err(USAGE.into());
    }
    let pairs: Vec<(&str, &str)> = rest
        .chunks(2)
        .map(|p| (p[0].as_str(), p[1].as_str()))
        .collect();
    let flag = |name: &str| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
    let known: &[&str] = match cmd.as_str() {
        "info" => &[],
        "reference" => &["--workload", "--seed"],
        "run" => &[
            "--workload",
            "--seed",
            "--expect-digest",
            "--trace-out",
            "--force-fail",
        ],
        _ => return Err(USAGE.into()),
    };
    if let Some((k, _)) = pairs.iter().find(|(k, _)| !known.contains(k)) {
        return Err(format!("unknown flag {k:?} for {cmd}\n{USAGE}"));
    }
    if cmd == "info" {
        return Ok(info_json());
    }
    let name = flag("--workload").ok_or("missing --workload")?;
    let seed = flag("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let sc = workloads::scenario(name, seed).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (expected one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    if cmd == "reference" {
        let r = drive::reference(&sc)?;
        return Ok(format!(
            "{{\"product_digest\":\"{:016x}\",\"serial_digest\":\"{:016x}\",\"rounds\":{}}}",
            r.product, r.serial, r.rounds
        ));
    }
    let expect_digest = u64::from_str_radix(
        flag("--expect-digest").ok_or("missing --expect-digest")?,
        16,
    )
    .map_err(|e| format!("--expect-digest: {e}"))?;
    let opts = drive::RunOpts {
        expect_digest,
        trace_out: flag("--trace-out").map(PathBuf::from),
        force_fail: flag("--force-fail")
            .map(drive::ForceFail::parse)
            .transpose()?,
    };
    Ok(record_json(&drive::run(&sc, &opts)))
}

/// The engine settings this build and environment resolve to.
fn info_json() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"kernel\":\"{}\",\"threads_available\":{threads},\"worker_bin\":{}}}",
        KernelKind::from_env().name(),
        json_str(&dlb_core::process::worker_binary().display().to_string())
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as JSON (`null` otherwise, which `run.py` rejects).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn record_json(r: &drive::RunRecord) -> String {
    let mut layers = String::new();
    for (i, (name, value)) in r.layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(layers, "{sep}\"{name}\":{}", json_num(*value));
    }
    format!(
        "{{\"failure\":{},\"setup_s\":{},\"wall_s\":{},\"n\":{},\"rounds\":{},\
         \"digest\":\"{:016x}\",\"peak_rss_mb\":{},\"worker_peak_rss_mb\":{},\"layers\":{{{layers}}}}}",
        r.failure.as_deref().map_or("null".into(), json_str),
        json_num(r.setup_s),
        json_num(r.wall_s),
        r.n,
        r.rounds,
        r.digest,
        json_num(r.peak_rss_mb),
        json_num(r.worker_peak_rss_mb),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(cli(&[]).is_err());
        assert!(cli(&args("run --workload torus-bursty-pool")).is_err());
        assert!(cli(&args("reference --workload nope --seed 1")).is_err());
        assert!(cli(&args("reference --workload torus-bursty-pool --seed x")).is_err());
        assert!(cli(&args(
            "reference --workload torus-bursty-pool --seed 1 --bogus 1"
        ))
        .is_err());
        assert!(cli(&args(
            "run --workload torus-bursty-pool --seed 1 --expect-digest 0 --force-fail maybe"
        ))
        .is_err());
    }

    #[test]
    fn a_failed_record_is_valid_json_with_its_reason() {
        let r = drive::RunRecord {
            failure: Some("shard 0 \"died\"".into()),
            ..drive::RunRecord::default()
        };
        let line = record_json(&r);
        assert!(
            line.contains("\"failure\":\"shard 0 \\\"died\\\"\""),
            "{line}"
        );
        assert!(line.ends_with("\"layers\":{}}"), "{line}");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
