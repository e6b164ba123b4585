#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary from source (library from src/, runner from
perfbench/cpp/) into .bench_build/ under the current directory, runs the
named workload in its own process, and relays its output.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 1 the span trace is also written to
.bench_build/trace/<workload>-seed<N>.jsonl.

The golden output digests in perfbench/golden.json apply only at the
default seed; on any other seed the truth, O14, certificate and violation
gates still apply.  Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("re_structure", "aib_sweep", "mc_traffic")
# Library switches read from the environment.  The benchmark measures
# the defaults (exact fast path, lint off, pinned sweep jobs), so a
# caller's shell cannot change what is measured.
LIBRARY_ENV = ("DRAMSCOPE_FASTPATH", "DRAMSCOPE_LINT", "DRAMSCOPE_JOBS")


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory; the CMake
    # tree goes there too.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures and builds perfbench; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "cmake")
    binary = os.path.join(cmake_dir, "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: the self-test scale (no golden digest)")
    ap.add_argument("--golden", default=None,
                    help="override the expected output digest")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    out_dir = build_dir()
    binary = build(out_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    expected = args.golden
    if expected is None and args.size == "full" \
            and args.seed == golden["default_seed"]:
        expected = golden["digests"].get(args.workload)
    if expected:
        cmd += ["--golden", expected]
    if args.trace:
        trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    env = {k: v for k, v in os.environ.items() if k not in LIBRARY_ENV}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench exited with %d\n" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("malformed result line\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
