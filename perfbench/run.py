#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload survey|netperf-fire|daemon-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds perfbench/bench.exe and
the gadget_planner CLI (the daemon workload starts `gadget_planner serve`)
with dune, then runs the benchmark with the same arguments.  The last line
of standard output is the benchmark's JSON result; build output and
progress go to standard error.  Every process the benchmark starts is
stopped before this script returns.
"""

import os
import signal
import subprocess
import sys
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
PLANNER = os.path.join("_build", "default", "bin", "gadget_planner.exe")
RUN_TIMEOUT_S = 170


def stop_group(pgid):
    """Kill what is left of the benchmark's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "perfbench/dune")):
        sys.stderr.write(
            "perfbench/run.py: run from the root of the repository; "
            "dune-project, lib/ and bin/ are needed to build the benchmark\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", BENCH, PLANNER],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench/run.py: build failed\n")
        return build.returncode or 1
    proc = subprocess.Popen(
        [BENCH] + sys.argv[1:] + ["--planner", PLANNER],
        start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench/run.py: benchmark timed out\n")
        code = 124
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
