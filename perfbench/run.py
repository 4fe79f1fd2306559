#!/usr/bin/env python3
"""Builds and runs the fedcal host-performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the program and the benchmark from
source (Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later calls rebuild only what changed. The run
prints its metadata, progress on stderr, and a JSON result object as the
last line of standard output. Traced runs (--trace 1) also write a layer
table and a span dump under the build directory's artifacts/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run must finish within 180 s; building is not counted against it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out, targets):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 2),
               "--target"] + targets
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("fedcal sources not found next to perfbench/ (expected %s)" %
            os.path.join(ROOT, "src"))
        return 2

    out = build_dir()
    target = "fedbench_selftest" if args.selftest else "fedbench"
    started = time.time()
    if not build(out, [target]):
        log("build failed")
        return 3
    log("build ready in %.1fs" % (time.time() - started))

    if args.selftest:
        return subprocess.run([os.path.join(out, target)]).returncode

    artifacts = os.path.join(out, "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    cmd = [os.path.join(out, target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", artifacts,
           "--git-commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %ds and was stopped" % RUN_TIMEOUT_S)
        return 4
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1] + [""]) if len(lines) > 1 else "")
    if proc.returncode != 0 or not lines:
        log("benchmark exited with %d" % proc.returncode)
        return proc.returncode or 5
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("benchmark printed no result object")
        return 5
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
