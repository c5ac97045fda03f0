#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md).

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench_e2e and th_serve from the repository sources with CMake
(into $CARGO_TARGET_DIR, default .bench_build, under the repository
root), runs one workload in a fresh child process with a scrubbed
environment and a fresh work directory, checks the child's result
against BENCHMARK.json, and prints it as the last line of stdout:

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

Exits non-zero without printing a result when the sources are missing,
the build fails, the child fails or times out, or its result does not
match the catalogue. Uses the Python standard library only.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and
# clean-up around the child.
CHILD_TIMEOUT_S = 170
# The pool size every run pins. On a shared 4-vCPU host the same input
# ran with a 26% run-to-run spread at 4 threads, 13% at 2 and 9% at 1:
# a parallel job waits for its slowest thread whenever the host takes a
# core away. One thread keeps the benchmark steady; the serve workload
# still loads the server from 2 client threads and 2 workers.
TH_THREADS = 1
BUILD_JOBS = 4


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out_dir, jobs):
    """Configure once, then (re)build the two targets; returns the
    bench_e2e path. Build output goes to <out_dir>/build.log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"repository sources not found under {ROOT}; "
             "bench_e2e builds the program from them", 2)
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", str(jobs),
                  "--target", "bench_e2e", "th_serve"])
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)}", 2)
    return os.path.join(out_dir, "bench_e2e")


def golden_digest(workload):
    """Seed-1 digest of @p workload from golden_digests.txt ("" if none)."""
    path = os.path.join(HERE, "golden_digests.txt")
    if not os.path.isfile(path):
        return ""
    with open(path) as f:
        for line in f:
            parts = line.split("#", 1)[0].split()
            if len(parts) == 2 and parts[0] == workload:
                return parts[1]
    return ""


def check_result(result, expected):
    """Raise ValueError unless @p result has exactly the result line's
    keys and exactly the @p expected {name: unit} metrics, all finite."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError(f"metric {name}: {m}")
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not a finite number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    catalogue = load_catalogue()
    workloads = [w["name"] for w in catalogue["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (one of "
             f"{', '.join(workloads)})", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in catalogue[section]}

    out_dir = build_dir()
    binary = build(out_dir, min(BUILD_JOBS, os.cpu_count() or 1))

    tmp_root = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.seed == 1:
        digest = golden_digest(args.workload)
        if digest:
            cmd += ["--golden", digest]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    # Only what the program needs: a pinned pool size and no inherited
    # store (TH_STORE_DIR stays unset; workloads pass their own).
    env = {"PATH": os.environ.get("PATH", os.defpath),
           "TH_THREADS": str(TH_THREADS)}

    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The child's session holds it and any th_serve it spawned.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{args.workload} did not finish within "
                 f"{CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if proc.returncode != 0:
        fail(f"bench_e2e exited with {proc.returncode}")
    lines = [l for l in out.decode().splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        check_result(result, expected)
    except (IndexError, ValueError) as e:
        fail(f"malformed result from bench_e2e: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
