"""Steadiness check: repeat benchmark runs and print the spread of each metric.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--sets 2] [--seeds 10] [--seconds 20]
                                [--workload NAME ...]

Each set runs every chosen workload once per seed (seeds 1..N, a new seed
for every run, as the acceptance rule does).  For every workload and metric
it prints the median and quartiles of each set, the quartile spread as a
share of the median, and how far the last set's median moved from the
first.  Steal ticks of the whole machine are read from /proc/stat before and
after each run and printed as a diagnostic only: they show when another
tenant took CPU time during a run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("method-r0", "method-rneq0", "identities", "symmetries")


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = steal_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    after = steal_ticks()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["steal"] = after - before if before is not None and after is not None else None
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    workloads = args.workload or list(WORKLOADS)
    runs: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            for seed in range(1, args.seeds + 1):
                r = one_run(w, seed, args.seconds)
                runs[w][s].append(r)
                vals = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"steal={r['steal']} {vals}", flush=True)
    print()
    for w in workloads:
        first = runs[w][0]
        for name in first[0]["metrics"]:
            line = [f"{w:13s} {name:34s}"]
            medians = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in runs[w][s]]
                if len(vals) < 2:
                    med, q1, q3, rel = vals[0], vals[0], vals[0], 0.0
                else:
                    med, q1, q3, rel = spread(vals)
                medians.append(med)
                line.append(f"set{s + 1} med {med:.4g} [{q1:.4g}, {q3:.4g}] iqr {rel:6.1%}")
            if args.sets > 1 and medians[0]:
                line.append(f"drift {medians[-1] / medians[0] - 1:+.1%}")
            print("  ".join(line))
        shares = {(r["failed"], r["attempted"]) for s in runs[w] for r in s}
        print(f"{w:13s} failed/attempted: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
