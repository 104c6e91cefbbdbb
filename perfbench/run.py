#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --wire-rate 20000 --workload zipf --seed 7 \
        --seconds 20 --trace 0

The first call configures and builds the library from ../src together with
the benchmark (Release, into $CARGO_TARGET_DIR or .bench_build), later calls
only rebuild what changed. Every call runs the helper unit tests, then one
benchmark run; its last line of output is the result JSON. Exits non-zero,
printing no result, when the sources are missing, the build or the helper
tests fail, or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, what, env):
    """Runs cmd with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"{what} failed (exit {proc.returncode})")
        sys.exit(1)


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release", *generator], "configure", env)
    run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
              "build", env)


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["zipf", "uniform"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--wire-rate", required=True, type=float,
                        help="fixed offered rate of the wire phase, ops/s")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        sys.exit(2)

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(out_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    build(build_dir, env)
    run_quiet([os.path.join(build_dir, "perfbench_test"), "--gtest_brief=1"],
              "helper tests", env)

    tag = f"{args.workload}-seed{args.seed}"
    work_dir = os.path.join(out_root, "work", f"{tag}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--wire-rate", str(args.wire_rate), "--work-dir", work_dir]
    if args.trace == "1":
        trace_dir = os.path.join(out_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"run failed (exit {proc.returncode})")
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
