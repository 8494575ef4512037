#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload replay_sweep|cold_suite|fuzz_sweep \\
        --seed N --seconds S --trace 0|1 [--quick]

The simulator and the benchmark binary are built from source (Release)
into $CARGO_TARGET_DIR, or .bench_build when it is unset. Build output
goes to stderr, so the last line on stdout is the benchmark's result
JSON. The exit code is the benchmark's: 0 when every correctness gate
passed, non-zero otherwise (including when the build fails).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("replay_sweep", "cold_suite", "fuzz_sweep")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one set-up and as few iterations as --seconds "
                         "allows (self-test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.exit("run from the root of the repository")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"build failed: {e}")

    tag = f"{args.workload}-{os.getpid()}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "perfbench-work-" + tag)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"perfbench-{args.workload}.trace.json")]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(rc)


if __name__ == "__main__":
    main()
