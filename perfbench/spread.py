#!/usr/bin/env python3
"""Repeat perfbench runs over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/spread.py --workload stream_lossy --runs 10 --out /tmp/a.jsonl
    python3 perfbench/spread.py --compare /tmp/parent.jsonl /tmp/change.jsonl

The first form runs `perfbench/run.py` once per seed (`--first-seed`,
`--first-seed + 1`, ...), appends each run's result line to `--out`, and
prints every metric's median, quartiles (`statistics.quantiles(n=4)`) and
spread, the quartile distance as a share of the median. The second form
applies the paired rule for claiming a gain to two such files, run i of one
paired with run i of the other: the change must win at least 9 of 10 pairs
and the medians must differ by more than the parent's quartile distance.
Host speed drifts over minutes, so build the two files alternately, one
run at a time, for example in two checkouts:

    for seed in $(seq 1 10); do
      (cd parent && python3 perfbench/spread.py --workload W --runs 1 --first-seed $seed --out ../parent.jsonl)
      (cd change && python3 perfbench/spread.py --workload W --runs 1 --first-seed $seed --out ../change.jsonl)
    done
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spec():
    return json.loads(BENCHMARK.read_text())


def directions():
    """Metric name -> 'higher' or 'lower', as BENCHMARK.json declares."""
    metrics = spec()["end_to_end"] + spec()["per_layer"]
    return {m["name"]: m["better"] for m in metrics}


def print_table(runs):
    names = list(runs[0]["metrics"])
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  n={len(runs)}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summary(values)
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%}")


def compare(parent, change):
    pairs = min(len(parent), len(change))
    better = directions()
    print(f"{'metric':<28} {'parent':>14} {'change':>14} {'wins':>6} {'parent IQR':>12}  verdict")
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in parent[:pairs]]
        c = [r["metrics"][name]["value"] for r in change[:pairs]]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        p_med, p_q1, p_q3, _ = summary(p)
        c_med = summary(c)[0]
        gain = wins * 10 >= 9 * pairs and sign * (c_med - p_med) > (p_q3 - p_q1)
        print(f"{name:<28} {p_med:>14.6g} {c_med:>14.6g} {wins:>3}/{pairs:<2} {p_q3 - p_q1:>12.6g}  "
              f"{'gain' if gain else 'no claim'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        compare(load(args.compare[0]), load(args.compare[1]))
        return
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds or spec()["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"seed {seed}: run.py failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print_table(runs)


if __name__ == "__main__":
    main()
