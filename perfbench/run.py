#!/usr/bin/env python3
"""End-to-end scenario benchmark: builds the program, runs one workload
from its scenario spec to its report for a fixed time, checks every run,
and prints every metric.

    python3 perfbench/run.py --workload torus-bursty-pool --seed 1 --seconds 10 --trace 0

Run it from the repository root. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced runs and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Files it
writes go under `.bench_build` (the build) and `.bench_out` (run
records and traces). See README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fewest runs a measurement takes, however short --seconds is: a median
# needs three samples (two of each kind when traced and untraced
# alternate).
MIN_RUNS = 3
MIN_RUNS_TRACED = 4
# A run during which the hypervisor took more than this share of the
# machine's CPU time (`steal` in /proc/stat) is not counted in the
# medians: it times the neighbours, not the program. See README.md.
STEAL_LIMIT = 0.02
# A run that takes longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 120
# Seconds after the build by which the invocation ends: no new run starts
# after LATEST_START_S, and a run still going at DEADLINE_S is killed.
LATEST_START_S = 140
DEADLINE_S = 170


def metric_units(kind):
    """Name -> unit of the `kind` ("end_to_end" or "per_layer") metrics
    that BENCHMARK.json lists, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target_dir):
    """Builds the benchmark and the shard worker, both in the release
    profile, into `target_dir`. Returns the two executables."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--offline", "--release", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--offline", "--release", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "dlb-worker"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "dlb-shard-worker")


def call(argv, env, timeout=RUN_TIMEOUT_S):
    """Runs one perfbench command in its own process group and returns
    (exit code, last stdout line parsed as JSON or None, stderr tail).
    On timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, None, f"timed out after {timeout} s"
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return proc.returncode, record, err.strip()[-2000:]


def cpu_jiffies():
    """(steal, total) CPU time over every CPU so far, in jiffies, from the
    first line of /proc/stat (user nice system idle iowait irq softirq
    steal; guest time is already counted in user)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    """Share of the machine's CPU time the hypervisor took between two
    `cpu_jiffies()` readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def text_of(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(bin_path, env):
    """Where and how this run executes, stamped on every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    _, info, _ = call([bin_path, "info"], env, timeout=30)
    info = info or {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads_available": info.get("threads_available"),
        "cpu_model": cpu,
        "kernel_release": platform.release(),
        "rustc": text_of(["rustc", "--version"]),
        "git_revision": text_of(["git", "rev-parse", "HEAD"]),
        "DLB_THREADS": env.get("DLB_THREADS", "unset"),
        "DLB_KERNEL": env.get("DLB_KERNEL", "unset") + f" (effective: {info.get('kernel')})",
        "DLB_WORKER_BIN": info.get("worker_bin"),
        "profile": "release",
    }


def noise(values):
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def undisturbed(runs, minimum):
    """The runs the hypervisor took at most STEAL_LIMIT of the CPU time
    from or, if there are fewer than `minimum` of them, the `minimum`
    least disturbed runs."""
    calm = [r for r in runs if r["steal_share"] <= STEAL_LIMIT]
    if len(calm) >= minimum:
        return calm
    return sorted(runs, key=lambda r: r["steal_share"])[:minimum]


def passed(run):
    record = run["record"]
    return run["exit"] == 0 and record is not None and record.get("failure") is None


def error_counts(runs):
    """(attempted, failed, error_rate) over every run made."""
    attempted = len(runs)
    failed = sum(1 for r in runs if not passed(r))
    return attempted, failed, (failed / attempted if attempted else 1.0)


def end_to_end_samples(records):
    """Per-metric samples from the passing untraced run records."""
    samples = {"wall_s": [], "setup_s": [], "node_rounds_per_s": [], "peak_rss_mb": []}
    for r in records:
        rounds_s = r["wall_s"] - r["setup_s"]
        samples["wall_s"].append(r["wall_s"])
        samples["setup_s"].append(r["setup_s"])
        samples["node_rounds_per_s"].append(r["n"] * r["rounds"] / rounds_s)
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
    return samples


def median_run(records, key):
    """The record whose `key` is the (lower) median: one whole run, so
    its per-layer numbers add up to its own wall clock."""
    ordered = sorted(records, key=key)
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(untraced, traced):
    """Per-layer metrics: the median traced run's layers, plus the
    tracing overhead of traced against untraced wall clocks."""
    chosen = median_run(traced, key=lambda r: r["wall_s"])
    values = dict(chosen["layers"])
    off = statistics.median(r["wall_s"] for r in untraced)
    on = statistics.median(r["wall_s"] for r in traced)
    values["telemetry.overhead_pct"] = (on - off) / off * 100.0
    return values, chosen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--force-fail", choices=["digest", "crash"],
                    help="make the first run fail this check, to show it is counted")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bin_path, worker = build(target)
    built = time.monotonic()
    env = dict(os.environ, DLB_WORKER_BIN=worker)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    stamp = environment(bin_path, env)

    # Untimed: the product path's trajectory on this spec, and the serial
    # trajectory every run must reproduce bit for bit.
    spec = ["--workload", args.workload, "--seed", str(args.seed)]
    code, ref, err = call([bin_path, "reference"] + spec, env)
    if code != 0 or ref is None:
        raise SystemExit(f"reference run failed: {err}")
    reference_ok = ref["product_digest"] == ref["serial_digest"]
    if not reference_ok:
        log(f"ScenarioRunner on {args.workload} diverged from the serial trajectory")

    runs = []
    started = time.monotonic()
    while True:
        count = len(runs)
        enough = count >= (MIN_RUNS_TRACED if args.trace else MIN_RUNS)
        if enough and time.monotonic() - started >= args.seconds:
            break
        if enough and time.monotonic() - built >= LATEST_START_S:
            break
        traced = bool(args.trace) and count % 2 == 1
        cmd = [bin_path, "run"] + spec + ["--expect-digest", ref["serial_digest"]]
        if traced:
            cmd += ["--trace-out", f"{stem}.run{count}.trace.jsonl"]
        if args.force_fail and count == 0:
            cmd += ["--force-fail", args.force_fail]
        before = cpu_jiffies()
        left = DEADLINE_S - (time.monotonic() - built)
        code, record, err = call(cmd, env, timeout=max(10, min(RUN_TIMEOUT_S, left)))
        runs.append({"traced": traced, "exit": code, "record": record, "stderr": err,
                     "steal_share": steal_share(before, cpu_jiffies())})
        if not passed(runs[-1]):
            reason = (record or {}).get("failure") or err or f"exit {code}"
            log(f"run {count} failed: {reason}")

    attempted, failed, error_rate = error_counts(runs)
    good = [r for r in runs if passed(r)]
    digests = {r["record"]["digest"] for r in good}
    correct = reference_ok and failed == 0 and digests == {ref["serial_digest"]}
    untraced = [r["record"] for r in undisturbed([r for r in good if not r["traced"]], MIN_RUNS)]
    traced = [r["record"] for r in undisturbed([r for r in good if r["traced"]], MIN_RUNS)]

    samples = end_to_end_samples(untraced)
    result = {name: noise(v) for name, v in samples.items() if v}
    if traced:
        result.update({name: noise([r["layers"][name] for r in traced])
                       for name in traced[0]["layers"]})
    metrics = {}
    chosen = None
    if args.trace:
        if untraced and traced:
            layers, chosen = layer_metrics(untraced, traced)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in units.items()}
    elif untraced:
        metrics = {name: {"value": result[name]["median"], "unit": unit}
                   for name, unit in units.items()}
    if not metrics:
        correct = False
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in units.items()}

    # Keep the chosen traced run's trace as the workload's trace.
    for i, r in enumerate(runs):
        path = f"{stem}.run{i}.trace.jsonl"
        if not os.path.exists(path):
            continue
        if chosen is not None and r["record"] is chosen:
            os.replace(path, f"{stem}.trace.jsonl")
        else:
            os.remove(path)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": stamp, "reference": ref,
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "steal_limit": STEAL_LIMIT, "counted": len(untraced) + len(traced),
        "noise": result, "metrics": metrics, "runs": runs,
    }
    with open(f"{stem}.{'layers' if args.trace else 'e2e'}.json", "w") as f:
        json.dump(summary, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in stamp.items():
        print(f"  {key}: {value}")
    print(f"  runs counted: {len(untraced) + len(traced)} of {len(good)} passing"
          f" (a run is left out if the hypervisor took over {STEAL_LIMIT:.0%} of the CPU)")
    for name, unit in metric_units("end_to_end").items():
        if name in result:
            stats = result[name]
            print(f"  {name:<18} {stats['median']:.6g} {unit}"
                  f"  (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
    print(f"  {'error_rate':<18} {error_rate:.6g} ratio  ({failed} of {attempted} runs failed)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
