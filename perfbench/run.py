#!/usr/bin/env python3
"""Builds and runs the dbpl benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The runner is built from ../src with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then run once. Its notes go to standard output as "# ..." lines, led by
a provenance stamp; the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is non-zero when the build fails, the run fails or times
out, or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point", "type_query")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("perfbench: no dbpl sources next to perfbench/ (expected src/)")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_runner", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: {' '.join(cmd)}: {err}")
            return None
        if done.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
            return None
    return os.path.join(build_dir, "perfbench_runner")


def source_digest():
    """A digest of the sources the runner is built from, standing in for
    the commit when the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in (os.path.join(HERE, "..", "src"), HERE):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, HERE).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=HERE, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compiler(build_dir):
    cxx = "c++"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10, check=False)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return cxx


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    runner = build(build_dir)
    if runner is None:
        return 2

    provenance = {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "host_cores": os.cpu_count(),
        "compiler": compiler(build_dir),
        "build_type": BUILD_TYPE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("# provenance: " + json.dumps(provenance), flush=True)

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work_dir, "--trace-out",
           os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S}s")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in out.splitlines():
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"perfbench: runner exited {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
