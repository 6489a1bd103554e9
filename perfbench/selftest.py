#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Held-out seed: every workload, untraced and traced, on a seed no tuning
   run used. Each run must exit 0, stamp the seed, report no failed output
   and print every metric BENCHMARK.json names, with its unit.
2. Oracle self-test: compute_vm fed a deliberately wrong reference must
   report failed outputs (failed_frac > 0), print "correct": false and
   exit non-zero.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 20261017
SECONDS = "2"

failures = []


def run(workload, trace, seed=HELD_OUT_SEED, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def expected(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def held_out_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            name = f"{w['name']} trace={trace} seed={HELD_OUT_SEED}"
            code, lines, err = run(w["name"], trace)
            if code != 0 or len(lines) < 2:
                check(False, f"{name}: exit {code}\n{err[-1500:]}")
                continue
            stamp = json.loads(lines[-2])["perfbench"]
            result = json.loads(lines[-1])
            check(stamp["seed"] == HELD_OUT_SEED, f"{name}: seed stamped")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{name}: no failed output")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected(trace),
                  f"{name}: every BENCHMARK.json metric printed with its unit")
            if trace:
                check(result["metrics"]["failed_frac"]["value"] == 0,
                      f"{name}: failed_frac is 0")


def wrong_reference():
    good = (HERE / "reference_digests.txt").read_text().splitlines()
    bad = []
    for line in good:
        if line and not line.startswith("#"):
            name, values, output = line.split()
            values = f"{int(values, 16) ^ 1:016x}"  # one flipped bit
            line = f"{name} {values} {output}"
        bad.append(line)
    path = ROOT / ".bench_build" / "perfbench-work" / "wrong_reference.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(bad) + "\n")
    code, lines, _ = run("compute_vm", 1, extra=("--reference", str(path)))
    result = json.loads(lines[-1]) if lines else {}
    check(code != 0, "wrong reference: the run fails")
    check(result.get("correct") is False and result.get("failed", 0) > 0,
          "wrong reference: failed outputs reported")
    frac = result.get("metrics", {}).get("failed_frac", {}).get("value", 0)
    check(frac > 0, f"wrong reference: failed_frac rises ({frac:.3f})")


def main():
    held_out_seed()
    wrong_reference()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
