#!/usr/bin/env python3
"""Build and run the blend discovery benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {cold_start,seek,tasks} --seed N \
        --seconds S --trace {0,1}

The script builds perfbench/ (a CMake project that compiles the library from
the repository root plus the benchmark program) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the program. Build output goes to
stderr; the program's last stdout line is the result JSON. Snapshots and span
dumps are written under the build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def git_commit(root):
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure,
                ["cmake", "--build", cmake_dir, "--target", "blend_perfbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "blend_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cold_start", "seek", "tasks"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--commit", git_commit(root)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
