#!/usr/bin/env python3
"""Load-calibrated benchmark of the RISA simulator: one command per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds perfbench/ (the
simulator library from src/ plus the measuring program) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs a
self-test that feeds the program a tampered count and expects a nonzero
exit, then runs the workload.  The program's metrics appear as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of the traced layer replay.  The outcome digest of every (workload, seed)
is kept in the build directory; a later run of the same pair that reports
another digest fails, so deterministic metrics repeat exactly across runs.

Exit status is 0 only when the build, the self-test and every check pass.
Workloads, metrics and their steadiness are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("risa-steady", "risa-overload", "nulb-faults")
BUILD_TIMEOUT_S = 850
SELF_TEST_VMS = 3000


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build; compiler output goes to stderr."""
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep the compiler's temporary files in the checkout
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")


def run_program(cmd, timeout):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {timeout} s")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(exe, workload, seed, out_dir):
    """The checks must catch a corrupted count: expect exit 1, correct=false."""
    r = run_program([exe, "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", "0", "--out-dir", out_dir,
                     "--count", str(SELF_TEST_VMS), "--tamper", "placed"], 30)
    result = last_json(r.stdout)
    if r.returncode != 1 or result is None or result.get("correct") is not False:
        fail(f"self-test: a tampered count was not caught (exit {r.returncode})")


def check_repeat(state_dir, workload, seed, digest):
    """Same (workload, seed) -> same outcome digest, across runs."""
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"{workload}-{seed}.txt")
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within [0, 120]")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    build(build_dir)
    exe = os.path.join(build_dir, "perfbench")
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    self_test(exe, args.workload, args.seed, out_dir)

    r = run_program([exe, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--out-dir", out_dir], args.seconds + 100)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    result = last_json(r.stdout)
    if result is None:
        fail(f"no result from the program (exit {r.returncode})")
    for line in lines[:-1]:
        print(line)

    digest = next((l.split()[1] for l in lines if l.startswith("outcome ")), "")
    if not digest or not check_repeat(os.path.join(build_dir, "outcomes"),
                                      args.workload, args.seed, digest):
        print(f"perfbench: outcome {digest or '?'} differs from an earlier run "
              f"of {args.workload} seed {args.seed}", file=sys.stderr)
        result["correct"] = False
    ok = r.returncode == 0 and result.get("correct") is True
    result["correct"] = ok
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
