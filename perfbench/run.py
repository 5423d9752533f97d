#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload interval-tiered --seed 1 --seconds 20 --trace 0

Run from the repository root. The driver is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
build output goes to stderr. The driver's report goes to stdout, and its
last line is the JSON result: {"correct", "attempted", "failed", "metrics"}.
Scratch files (the near tier's directory) live under .bench_work/ and are
removed after the run; traced runs leave a Chrome trace in .bench_out/.

Extra driver flags pass through: --rounds <n> fixes the number of rounds,
--corrupt-restore corrupts one restore to prove the oracle counts it.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("interval-tiered", "delta-stream", "shard-failover")


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--corrupt-restore", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    if args.trace == "1":
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    if args.rounds:
        cmd += ["--rounds", str(args.rounds)]
    if args.corrupt_restore:
        cmd.append("--corrupt-restore")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
