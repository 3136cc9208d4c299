#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the multicast service.

Run from the repository root:

    python3 perfbench/run.py --workload plan_control --seed 7 --seconds 10 --trace 0

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) in release mode, then runs the workload in a
series of fresh `hnow-perfbench` processes that share the `--seconds`
budget. Every process builds the same inputs from `--seed`, times set-up
once, runs an untimed warm-up repetition and then timed repetitions of
`run(&requests)` plus `serde_json::to_string(&report)` at one rayon thread.
Using several processes per run samples set-up time several times and
spreads the timings over several heap layouts and hash seeds.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (phase profiler plus a counting trace sink). Each
metric is printed with its unit, median and quartiles over the run's set of
samples; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Any correctness mismatch —
report bytes differing between repetitions, processes, or untraced and
traced runs; tallies that do not close; trace counts that disagree with the
report — exits with code 1 and prints no result.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BINARY = "hnow-perfbench"
# Each run must end well inside 180 s, builds excluded.
RUN_DEADLINE_S = 170.0

# Processes per run; the --seconds budget is split evenly between them.
PROCESSES = {"sharded_atomic": 6, "stream_lossy": 10, "plan_control": 10}

# Metric names, units and bounds live in BENCHMARK.json at the repository
# root; this script computes every metric listed there.
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"


class BenchError(Exception):
    pass


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def first_decile(values):
    """Nearest-rank 10th percentile.

    Other tenants of the host only ever slow a repetition down, in steps of
    up to 45% that last seconds to minutes. The fastest tenth of a run's
    samples tracks the program's own cost; the median tracks the host's
    load and swung twice as far between runs of identical code.
    """
    ordered = sorted(values)
    return ordered[math.ceil(0.1 * len(ordered)) - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(deadline):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed:\n{done.stderr}")
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / BINARY
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_process(binary, args, budget_s, deadline):
    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--budget-s", f"{budget_s:.3f}", "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a benchmark process overran the run deadline")
    if done.returncode != 0:
        raise BenchError(done.stderr.strip() or f"exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"a benchmark process printed no result: {done.stdout!r}")


def end_to_end(results):
    """Metric name -> (reported value, the run's samples)."""
    offered = results[0]["offered"]
    walls = [w for r in results for w in r["wall_s"]]
    setups = [r["setup_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    metrics = {
        "sessions_per_s": (offered / first_decile(walls), [offered / w for w in walls]),
        "setup_s": (first_decile(setups), setups),
        "peak_rss_mb": (statistics.median(rss), rss),
    }
    for name, value in results[0]["outcome"].items():
        metrics.setdefault(name, (value, [value]))
    return metrics


def per_layer(results):
    """Metric name -> (median, the run's samples)."""
    samples = {
        name: [layer[name] for r in results for layer in r["layers"]]
        for name in results[0]["layers"][0]
    }
    samples["workload.generate_s"] = [r["generate_s"] for r in results]
    traced = statistics.median(w for r in results for w in r["traced_wall_s"])
    untraced = statistics.median(w for r in results for w in r["wall_s"])
    samples["trace.overhead_frac"] = [traced / untraced - 1.0]
    return {name: (statistics.median(v), v) for name, v in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        try:
            spec = json.loads(SPEC_PATH.read_text())
        except (OSError, ValueError) as e:
            raise BenchError(f"cannot read {SPEC_PATH.name}: {e}")
        binary = build(deadline)
        # The build's own time does not count against the run.
        deadline = time.monotonic() + RUN_DEADLINE_S
        processes = PROCESSES[args.workload]
        print(
            f"# perfbench workload={args.workload} seed={args.seed} "
            f"trace={args.trace} seconds={args.seconds:g} processes={processes} "
            f"threads=1 nproc={os.cpu_count()} cpu={cpu_model()!r}"
        )
        results = [
            run_process(binary, args, args.seconds / processes, deadline)
            for _ in range(processes)
        ]
        digests = {r["digest"] for r in results}
        if len(digests) != 1:
            raise BenchError(f"report bytes differ between processes: {sorted(digests)}")
        if any(r["outcome"] != results[0]["outcome"] for r in results):
            raise BenchError("report outcomes differ between processes")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        measured = per_layer(results)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measured = end_to_end(results)
    completed = int(results[0]["outcome"]["completed"])
    print(f"# {'metric':<28} {'unit':<11} {'value':>14} {'median':>14} {'q1':>14} {'q3':>14}  n")
    metrics = {}
    for name, unit in units.items():
        value, samples = measured[name]
        q1, median, q3 = quartiles(samples)
        note = f"  (over {completed} completed sessions)" if name.startswith("sim_p") else ""
        print(f"  {name:<28} {unit:<11} {value:>14.6g} {median:>14.6g} {q1:>14.6g} {q3:>14.6g}  "
              f"{len(samples)}{note}")
        metrics[name] = {"value": value, "unit": unit}
    attempted = sum(len(r["wall_s"]) + len(r["traced_wall_s"]) for r in results)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
