#!/usr/bin/env python3
"""Builds the benchmark program (dvbench) from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. dvbench is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the build
output goes to stderr. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when the build fails, dvbench fails, or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pool-lineage-256", "pool-churn-16", "des-shards-1024")


def run_timeout_s(seconds):
    """A bound that keeps a hung fleet from outliving the run.

    A healthy run takes set-up, its timed loop (which may stretch to a
    few times --seconds to gather enough tail samples) and the DES replay
    of every timed verb: about 4.5 x --seconds on the lineage workload.
    """
    return 50 + 10 * seconds


def program_env():
    """dvbench's environment: glibc malloc on transparent huge pages.

    The DES workload walks ~50 MB of small heap objects. On 4 KiB pages
    that is thousands of TLB entries, and in a virtual machine every TLB
    miss is a two-level page walk whose cost moves with the host's cache
    pressure: the same run measured 0.75-1.0 ms of CPU per formed quorum
    within minutes. With malloc on 2 MiB pages it measured 0.68-0.79 ms
    over the same minutes. glibc before 2.35 ignores the tunable.
    """
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.hugetlb=1"])
    return env


def build(build_dir):
    """Configures and builds dvbench (incrementally); returns its path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dvbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dvbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        program = build(os.path.abspath(os.path.join(target, "perfbench")))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run(
            [program, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=program_env(),
            timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("dvbench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        print("dvbench printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode if proc.returncode != 0 else (
        0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
