#!/usr/bin/env python3
"""End-to-end benchmark of the MaJIC reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-reference

Builds the program's libraries and the perfbench binary from source (into
.bench_build/ at the repository root), runs one workload and prints the
binary's output. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Workloads: interactive_cold, compute_vm, compute_native, service_hibernate
(see src/Workloads.cpp). Every output is checked against the tree-walking
interpreter; a mismatch prints "correct": false and exits 1.

--regen-reference rewrites reference_digests.txt, the interpreter's digests
of the full-size compute programs, from the current interpreter.
"""

import argparse
import fcntl
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
WORK = BUILD_ROOT / "perfbench-work"
EXE = BUILD / "perfbench"
REFERENCE = HERE / "reference_digests.txt"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; serialised by a lock."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release", *gen]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def run_perfbench(args):
    cmd = [str(EXE), *args]
    # The C compiler's temporaries stay inside the checkout too.
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="reference digest file of the compute workloads")
    ap.add_argument("--regen-reference", action="store_true")
    a = ap.parse_args()

    build()
    if a.regen_reference:
        code, _ = run_perfbench(["--regen-reference", str(REFERENCE)])
        sys.exit(code)
    if not a.workload:
        fail("--workload is required")

    WORK.mkdir(parents=True, exist_ok=True)
    code, out = run_perfbench([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", str(a.trace),
        "--work-dir", str(WORK), "--reference", a.reference])
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"perfbench exited with status {code}")
    result = json.loads(lines[-1])
    # Every metric BENCHMARK.json names for this mode, with its unit.
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
