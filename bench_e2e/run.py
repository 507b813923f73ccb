#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of it.

Run from anywhere inside a checkout:

    python3 bench_e2e/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

The repository's libraries and the benchmark are built into .bench_build/
at the checkout root (incrementally after the first run). The benchmark's
report is passed through; its last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones BENCHMARK.json lists; with --trace 1 they are the
per-layer ones, and a Chrome trace is written to
.bench_build/trace-<workload>.json. --json FILE keeps a full record of the
run (all metrics, git sha, nproc, the WAL's filesystem) for bench_diff.py.
The exit code is non-zero when the build fails, the run fails its
linearizability check, an op fails, or the metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run takes well under a minute; a hung one is killed, not left running.
RUN_TIMEOUT_S = 170


def build():
    """Configure (cheap when cached) and build the bench target only."""
    steps = [
        ["cmake", "-S", ROOT, "-B", BUILD,
         "-DHERMES_BUILD_TESTS=OFF", "-DHERMES_BUILD_BENCH=OFF",
         "-DHERMES_BUILD_EXAMPLES=OFF", "-DHERMES_BUILD_TOOLS=OFF",
         "-DCMAKE_PROJECT_INCLUDE="
         + os.path.join(HERE, "bench_e2e.cmake")],
        ["cmake", "--build", BUILD, "--target", "bench_e2e",
         "-j", str(min(os.cpu_count() or 1, 4))],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build failed: " + " ".join(step))


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the full run record here")
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--wal-dir", os.path.join(BUILD, "bench-wal-%d" % os.getpid())]
    if args.trace:
        cmd += ["--trace",
                os.path.join(BUILD, "trace-%s.json" % args.workload)]
    if args.json:
        cmd += ["--json", os.path.abspath(args.json)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit("bench_e2e: no output (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("bench_e2e: last line is not a result: " + lines[-1])
    want = expected_metrics(args.trace == 1)
    if set(result["metrics"]) != want:
        sys.exit("bench_e2e: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(result["metrics"]) ^ want))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
