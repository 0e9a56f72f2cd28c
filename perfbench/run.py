#!/usr/bin/env python3
"""Build and run the MOARD benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 40 --trace 0

Builds perfbench/main.exe with dune (the repo's libraries come from the
same checkout), runs it, and passes its output through. The last line of
standard output is the result object: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, without a result, when the build or the run
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("sweep-cold", "campaign-ci", "serve-zipf")
DEADLINE_S = 175  # every run must end within 180 s, the first one's build aside
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def commit():
    # only this checkout's own repository; git would otherwise search parents
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled", MOARD_BENCH_COMMIT=commit())
    if args.workload == "serve-zipf":
        # One malloc arena: otherwise the peak resident set depends on how
        # many arenas contention between the daemon's and the clients'
        # threads happened to create (bimodal, ~32 or ~43 MiB). The other
        # workloads are single-threaded and run with the default.
        env["MALLOC_ARENA_MAX"] = "1"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % DEADLINE_S, file=sys.stderr)
        return 3
    if code != 0:
        print("perfbench: run failed with code %d after %.1f s"
              % (code, time.monotonic() - started), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
