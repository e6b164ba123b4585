#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--size tiny, untraced and traced, and asserts that:
  - every end-to-end (untraced) or per-layer (traced) metric is printed
    with the unit BENCHMARK.json gives it, and nothing else;
  - every check passes, including traced == untraced output digests;
  - a corrupted golden digest raises `failed`, so the digest gate fires.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert proc.returncode == 0, "%s exited with %d" % (cmd, proc.returncode)
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest: "))
    return json.loads(lines[-1]), digest


def check_metrics(result, declared, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), "%s: undeclared or missing metrics %s" % (
        label, sorted(set(got) ^ set(want)))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, "%s: %s has unit %s, not %s" % (
            label, name, got[name]["unit"], unit)
        assert isinstance(got[name]["value"], (int, float)), name


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = "%s --trace %d" % (name, trace)
            result, digest = run(name, trace)
            check_metrics(result, declared, label)
            assert result["correct"] and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            print("ok   %s: %d checks, digest %s" % (
                label, result["attempted"], digest))

        # The digest gate: the real digest passes, a corrupted one fails.
        result, _ = run(name, 0, "--golden", digest)
        assert result["failed"] == 0, name + " with its own digest"
        bad = "%016x" % (int(digest, 16) ^ 1)
        result, _ = run(name, 0, "--golden", bad)
        assert result["failed"] > 0 and not result["correct"], \
            name + ": corrupted golden digest did not raise failed"
        print("ok   %s: corrupted golden digest raises failed=%d" % (
            name, result["failed"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
