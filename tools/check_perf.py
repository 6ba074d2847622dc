#!/usr/bin/env python3
"""Compare results/BENCH_*.json against committed baselines.

Usage:
  tools/check_perf.py [--results DIR] [--baselines DIR]
                      [--tolerance FRACTION] [--update] [--only BENCH]

Every bench emits a machine-readable results/BENCH_<name>.json (see
harness/bench_report.hpp). This script walks each baseline document and
the freshly generated one in lockstep:

  * numeric leaves whose key looks like a timing/throughput metric
    ("wall", "ms", "time", "per_sec", "speedup", "ns", "cpu", "rate")
    are allowed to drift: a run only fails when it is more than
    --tolerance slower than baseline (improvements always pass and are
    reported). Times are lower-is-better: a time fails above
    baseline * (1 + tolerance). Rates ("per_sec", "speedup", a "rate"
    word) are higher-is-better: a rate fails below
    baseline / (1 + tolerance), the same slowdown factor, and is
    reported as an improvement above baseline * (1 + tolerance);
  * every other leaf — counts, availability fractions, violation tallies,
    protocol names, determinism flags — must match exactly: benches are
    seeded and deterministic, so any drift there is a behavior change,
    not noise, and the right fix is to regenerate baselines consciously
    (--update) in the commit that changed behavior;
  * a numeric leaf with a sibling "<key>_budget" is *budget-gated*: the
    current value must stay at or under the current budget (e.g.
    telemetry_overhead_frac <= telemetry_overhead_frac_budget). The
    measured value is noisy by nature, so it is never compared against
    the baseline; the budget itself IS compared exactly, so a budget
    cannot loosen silently;
  * symmetrically, a numeric leaf with a sibling "<key>_floor" is
    *floor-gated*: the value must stay at or ABOVE the floor. Budgets
    bound costs (latency, overhead); floors bound rates (throughput,
    formed-quorums/sec), where lower is the regression direction;
  * machine-dependent context (google-benchmark's "context" block,
    pool_threads, dates) is skipped;
  * each recorded baseline carries a "host_fingerprint" block naming the
    machine that produced it. When the comparing host's fingerprint
    differs from the baseline's, timing-banded comparisons are skipped
    entirely — absolute wall-clock from another machine is noise, not a
    baseline. Budget gates still apply (current value vs current budget
    is machine-local), and exact-match leaves still apply (determinism
    does not depend on the host).

The default tolerance is deliberately wide (75%): wall-clock on shared
runners is noisy, and the checker's job is to catch the step-function
regressions a data-structure or algorithm change causes, not 10% jitter.
Tighten with --tolerance 0.25 on a quiet dedicated box.

A bench result with no committed baseline (a brand-new bench) is
recorded as the baseline on the spot ("no baseline, recording") and the
run still exits 0 — commit the recorded file to start its trajectory.

Exit status: 0 = all within band, 1 = regression or mismatch, 2 = usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# Keys whose numeric values measure time or throughput on the host
# machine: tolerance-banded rather than exact. Unit suffixes match as
# "_ns" / "ns_" (not the bare substring): a bare "ns" would classify
# deterministic counts like "violations" or "formed_sessions" as noisy
# timing and exempt them from the exact-match contract.
TIMING_MARKERS = ("wall", "_ms", "ms_", "_us", "us_", "_ns", "ns_", "time",
                  "per_sec", "speedup", "cpu", "rate", "iterations")

# Timing keys that measure a rate, where higher is better. "rate" counts
# only as a whole "_"-separated word, so "views_generated" is no rate.
RATE_MARKERS = ("per_sec", "speedup")

# Baseline-only annotation written by --update / auto-record; never
# emitted by the benches themselves, so it is stripped before comparing.
FINGERPRINT_KEY = "host_fingerprint"


def host_fingerprint() -> dict:
    """Identity of the machine producing wall-clock numbers."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 0,
        "cpu_model": cpu_model,
    }


def record_baseline(current_path: Path, baseline_path: Path) -> None:
    """Copies a result into the baselines, stamped with this host."""
    with open(current_path) as f:
        data = json.load(f)
    data[FINGERPRINT_KEY] = host_fingerprint()
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    with open(baseline_path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")

# Keys that depend on the machine or the moment, not the code: skipped.
SKIP_KEYS = {"context", "date", "executable", "load_avg", "pool_threads",
             "library_version", "library_build_type", "library_metadata",
             "caches", "num_cpus", "mhz_per_cpu", "cpu_scaling_enabled"}

REL_EPSILON = 1e-9  # exact-float comparison slack (serialization round-trip)


def is_timing_key(key: str) -> bool:
    lowered = key.lower()
    return any(marker in lowered for marker in TIMING_MARKERS)


def is_rate_key(key: str) -> bool:
    lowered = key.lower()
    return (any(marker in lowered for marker in RATE_MARKERS)
            or "rate" in lowered.split("_"))


class Report:
    def __init__(self) -> None:
        self.regressions: list[str] = []
        self.improvements: list[str] = []
        self.mismatches: list[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.regressions or self.mismatches)


def compare(baseline, current, path: str, timing: bool, tolerance: float,
            report: Report, skip_timing: bool = False,
            higher_better: bool = False) -> None:
    if type(baseline) is not type(current) and not (
            isinstance(baseline, (int, float))
            and isinstance(current, (int, float))):
        report.mismatches.append(
            f"{path}: type changed ({type(baseline).__name__} -> "
            f"{type(current).__name__})")
        return
    if isinstance(baseline, dict):
        for key in baseline:
            if key in SKIP_KEYS:
                continue
            if key not in current:
                report.mismatches.append(f"{path}.{key}: missing from current run")
                continue
            budget_key = f"{key}_budget"
            floor_key = f"{key}_floor"
            if budget_key in current and isinstance(
                    current[key], (int, float)) and not isinstance(
                    current[key], bool):
                # Budget-gated: the measurement is noisy, the budget is
                # the contract. (The budget key itself is compared
                # exactly on its own turn through this loop.)
                if current[key] > current[budget_key]:
                    report.regressions.append(
                        f"{path}.{key}: {current[key]:g} over budget "
                        f"{current[budget_key]:g}")
                continue
            if floor_key in current and isinstance(
                    current[key], (int, float)) and not isinstance(
                    current[key], bool):
                # Floor-gated: rates regress downward.
                if current[key] < current[floor_key]:
                    report.regressions.append(
                        f"{path}.{key}: {current[key]:g} under floor "
                        f"{current[floor_key]:g}")
                continue
            compare(baseline[key], current[key], f"{path}.{key}",
                    timing or is_timing_key(key), tolerance, report,
                    skip_timing, higher_better or is_rate_key(key))
        for key in current:
            if key not in baseline and key not in SKIP_KEYS:
                report.mismatches.append(
                    f"{path}.{key}: new key absent from baseline "
                    f"(regenerate with --update)")
        return
    if isinstance(baseline, list):
        if len(baseline) != len(current):
            report.mismatches.append(
                f"{path}: length changed ({len(baseline)} -> {len(current)})")
            return
        for i, (b, c) in enumerate(zip(baseline, current)):
            compare(b, c, f"{path}[{i}]", timing, tolerance, report,
                    skip_timing, higher_better)
        return
    if isinstance(baseline, bool) or isinstance(current, bool):
        if baseline != current:
            report.mismatches.append(f"{path}: {baseline} -> {current}")
        return
    if isinstance(baseline, (int, float)):
        if timing:
            if skip_timing:
                # Baseline came from a different machine; its absolute
                # wall-clock is not comparable. Budget gates (handled at
                # the dict level) are the only timing contract here.
                return
            if baseline <= 0:
                return
            change = f"{path}: {baseline:g} -> {current:g}"
            if higher_better:
                if current < baseline / (1.0 + tolerance):
                    report.regressions.append(
                        f"{change} (-{(1 - current / baseline) * 100:.0f}%, "
                        f"band /{1 + tolerance:g})")
                elif current > baseline * (1.0 + tolerance):
                    report.improvements.append(
                        f"{change} (+{(current / baseline - 1) * 100:.0f}%, "
                        f"higher is better)")
            elif current > baseline * (1.0 + tolerance):
                report.regressions.append(
                    f"{change} (+{(current / baseline - 1) * 100:.0f}%, "
                    f"band +{tolerance * 100:.0f}%)")
            elif current < baseline * (1.0 - tolerance):
                report.improvements.append(
                    f"{change} ({(1 - current / baseline) * 100:.0f}% faster)")
            return
        if baseline != current:
            scale = max(abs(baseline), abs(current), 1.0)
            if abs(baseline - current) > REL_EPSILON * scale:
                report.mismatches.append(f"{path}: {baseline!r} -> {current!r}")
        return
    if baseline != current:
        report.mismatches.append(f"{path}: {baseline!r} -> {current!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", type=Path, default=Path("results"))
    parser.add_argument("--baselines", type=Path,
                        default=Path("results/baselines"))
    parser.add_argument("--tolerance", type=float, default=0.75,
                        help="allowed fractional slowdown for timing metrics "
                             "(default 0.75 = 75%%)")
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the baselines instead "
                             "of comparing")
    parser.add_argument("--only", metavar="BENCH", default=None,
                        help="restrict to one bench by name (e.g. 'runtime' "
                             "for BENCH_runtime.json); applies to compare, "
                             "--update, and auto-record")
    args = parser.parse_args()

    def selected(path: Path) -> bool:
        return args.only is None or path.stem == f"BENCH_{args.only}"

    current_files = [f for f in sorted(args.results.glob("BENCH_*.json"))
                     if selected(f)]
    if args.update:
        for f in current_files:
            record_baseline(f, args.baselines / f.name)
            print(f"baseline updated: {args.baselines / f.name}")
        return 0

    baseline_files = [f for f in sorted(args.baselines.glob("BENCH_*.json"))
                      if selected(f)]
    if not baseline_files and not current_files:
        print(f"check_perf: no baselines in {args.baselines} and no results "
              f"in {args.results}"
              + (f" matching --only {args.only}" if args.only else "")
              + "; run the benches first", file=sys.stderr)
        return 2

    failed = False
    for baseline_path in baseline_files:
        current_path = args.results / baseline_path.name
        if not current_path.exists():
            print(f"FAIL {baseline_path.name}: bench result missing from "
                  f"{args.results}")
            failed = True
            continue
        with open(baseline_path) as f:
            baseline = json.load(f)
        with open(current_path) as f:
            current = json.load(f)
        # The fingerprint annotates the baseline; it is not bench output.
        baseline_host = baseline.pop(FINGERPRINT_KEY, None)
        current.pop(FINGERPRINT_KEY, None)
        foreign = baseline_host is not None and baseline_host != host_fingerprint()
        report = Report()
        compare(baseline, current, baseline_path.stem, False, args.tolerance,
                report, skip_timing=foreign)
        status = "FAIL" if report.failed else "ok"
        if foreign:
            status += " (foreign-host baseline: timing bands skipped,"\
                      " budgets enforced)"
        print(f"{status:4} {baseline_path.name}"
              f" ({len(report.regressions)} regressions,"
              f" {len(report.mismatches)} mismatches,"
              f" {len(report.improvements)} improvements)")
        for line in report.regressions:
            print(f"  REGRESSION {line}")
        for line in report.mismatches:
            print(f"  MISMATCH   {line}")
        for line in report.improvements:
            print(f"  faster     {line}")
        failed |= report.failed

    # A bench without a committed baseline (always the case for a brand-new
    # bench) is neither a failure nor a silent pass: record its first result
    # as the baseline so the perf trajectory starts in this run, and say so.
    extra = [f for f in current_files
             if not (args.baselines / f.name).exists()]
    for current_path in extra:
        record_baseline(current_path, args.baselines / current_path.name)
        print(f"no baseline, recording: {current_path.name} -> "
              f"{args.baselines / current_path.name}")

    if failed:
        print("check_perf: perf regression or deterministic-output mismatch; "
              "if intentional, regenerate baselines with --update")
        return 1
    print("check_perf: all benches within the tolerance band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
