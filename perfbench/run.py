#!/usr/bin/env python3
"""Build the turnnet library and the perfbench program from source, then
run one benchmark workload.

    python3 perfbench/run.py --workload sparse-16 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/.
The program's output is passed through; its last line is the JSON
result. With --trace 1 the spans of the run are written to
.bench_build/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else \
        "unknown (not a git checkout)"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full "
                 "checkout")
    build_dir = ".bench_build"
    build(build_dir)

    print(f"# source {git_describe()}", flush=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    done = subprocess.run(cmd, check=False)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
