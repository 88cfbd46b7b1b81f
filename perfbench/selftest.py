#!/usr/bin/env python3
"""Determinism test for the benchmark.

    python3 perfbench/selftest.py [--seconds S] [--seed N]

Run it from the root of the repository.  Runs a small size of every
workload twice untraced and twice traced, with one seed, and fails unless

  * every run attempts the same operations, none fails and all are correct;
  * chains_validated repeats exactly;
  * every per-layer count repeats exactly -- all per-layer metrics except
    times, rates and the gc.* figures of the OCaml runtime.

Identical counts also show that no planner search stopped on a wall-clock
deadline: such a search would expand a different number of nodes.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["survey", "netperf-fire", "daemon-mixed"]
TIMING_UNITS = {"s", "1/s", "req/s"}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload}: benchmark exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def repeated(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in TIMING_UNITS
            and not name.startswith("gc.") and not name.startswith("trace.")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []
    for w in WORKLOADS:
        runs = {t: [run(w, args.seed, args.seconds, t) for _ in range(2)] for t in (0, 1)}
        for t, (a, b) in runs.items():
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0:
                    problems.append(f"{w} trace {t}: correct={r['correct']} failed={r['failed']}")
            if a["attempted"] != b["attempted"]:
                problems.append(f"{w} trace {t}: attempted {a['attempted']} vs {b['attempted']}")
        c0, c1 = (r["metrics"]["chains_validated"]["value"] for r in runs[0])
        if c0 != c1:
            problems.append(f"{w}: chains_validated {c0} vs {c1}")
        l0, l1 = (repeated(r["metrics"]) for r in runs[1])
        for name in sorted(l0):
            if l0[name] != l1.get(name):
                problems.append(f"{w}: {name} {l0[name]} vs {l1.get(name)}")
        print(f"{w}: {runs[0][0]['attempted']} operations, chains_validated {c0}, "
              f"{len(l0)} per-layer counts compared", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
