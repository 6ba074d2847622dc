#!/usr/bin/env python3
"""Checks that tools/check_perf.py bands rates as higher-is-better.

Builds a baseline and a current BENCH_*.json in a temporary directory
and runs check_perf.py on them: a doubled rate must pass and be listed
as an improvement, a halved rate must fail, and a doubled time must
fail. Run directly or through ctest.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

CHECK_PERF = Path(__file__).resolve().parent / "check_perf.py"


def check(key: str, baseline: float, current: float) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, value in (("baselines", baseline), ("results", current)):
            (root / name).mkdir()
            doc = {"rows": [{"n": 8, key: value}]}
            (root / name / "BENCH_x.json").write_text(json.dumps(doc))
        run = subprocess.run(
            [sys.executable, str(CHECK_PERF), "--results",
             str(root / "results"), "--baselines", str(root / "baselines")],
            capture_output=True, text=True, check=False)
        return run.returncode, run.stdout


def main() -> int:
    failures = []
    for key in ("events_per_sec", "speedup", "formed_per_sec"):
        code, out = check(key, 100.0, 200.0)
        if code != 0 or f"faster     BENCH_x.rows[0].{key}" not in out:
            failures.append(f"doubled {key} should pass as an improvement:"
                            f" exit {code}\n{out}")
        code, out = check(key, 100.0, 50.0)
        if code != 1 or f"REGRESSION BENCH_x.rows[0].{key}" not in out:
            failures.append(f"halved {key} should fail: exit {code}\n{out}")
    code, out = check("wall_ms", 100.0, 200.0)
    if code != 1:
        failures.append(f"doubled wall_ms should fail: exit {code}\n{out}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
