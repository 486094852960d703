#!/usr/bin/env python3
"""Build antlrkit and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload corpus|speculate|serve \
        --seed N --seconds S --trace 0|1

Run from the root of an antlrkit checkout.  Builds with dune (its cache
off, so nothing is written outside the checkout), runs perfbench/bench.exe
in its own process group, pinned to one CPU, and passes its output
through.  The last line of stdout is the result object; its metric names
must be exactly the end-to-end (--trace 0) or per-layer (--trace 1) names
in BENCHMARK.json, or this exits non-zero.
"""

import json
import os
import signal
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
ANTLRKIT = os.path.join("_build", "default", "bin", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    args = sys.argv[1:]
    if not os.path.exists("dune-project"):
        fail("run from the root of an antlrkit checkout (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/main.exe"],
        env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed", build.returncode or 2)

    # One CPU for the benchmark and the serve daemon it starts: a request
    # round trip is then work on that CPU, which the calibration kernel
    # tracks, rather than two processes waking each other across CPUs,
    # which it does not.
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.Popen([BENCH, *args, "--antlrkit", ANTLRKIT],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out")
    finally:
        # the daemon the serve workload starts shares the process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode == 0:
        spec = json.load(open("BENCHMARK.json"))
        trace = args[args.index("--trace") + 1] if "--trace" in args else "0"
        want = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
        lines = out.strip().splitlines()
        got = set(json.loads(lines[-1])["metrics"]) if lines else set()
        if got != want:
            fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(want - got), sorted(got - want)), 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
