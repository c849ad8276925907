#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload select_skip --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles the library from src/) into .bench_build/perfbench, then runs
the perfbench binary with the same arguments. Build output goes to standard
error; the binary's report goes to standard output, whose last line is the
JSON result. With --trace 1 the spans are also written to
.bench_build/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Longest a single measurement may take before it is stopped; the binary
# normally ends well within it (run length + set-up + the traced extras).
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default 1)")
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out seed instead of --seed")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.held_out:
        cmd.append("--held-out")
    elif args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        seed = "heldout" if args.held_out else str(args.seed or 1)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{seed}.json")]

    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        print("perfbench: run stopped before it finished", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
