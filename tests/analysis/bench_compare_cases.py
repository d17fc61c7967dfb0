#!/usr/bin/env python3
"""Regression test of tools/bench_compare.py's one rule.

Runs the comparator on the small reports in bench_compare/ against
base.json (a lower-is-better time and bpp, a higher-is-better speedup,
tolerance 10%) and checks each exit status:

  0  every entry improves in its own direction, or moves less than
     its tolerance in its worse one;
  1  a lower-is-better entry rises, or a higher-is-better entry falls,
     past its tolerance;
  2  a report cannot be judged: an entry without `better`, a unit that
     differs between the reports, or a report in the retired v1 schema
     (as either side).

Exits 0 when every case gets its expected status, 1 otherwise.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
COMPARE = HERE.parent.parent / "tools" / "bench_compare.py"
FIXTURES = HERE / "bench_compare"

# (old report, new report, expected exit status)
CASES = [
    ("base.json", "improved.json", 0),
    ("base.json", "within_tolerance.json", 0),
    ("base.json", "lower_rose.json", 1),
    ("base.json", "higher_fell.json", 1),
    ("base.json", "missing_better.json", 2),
    ("base.json", "unit_mismatch.json", 2),
    ("base.json", "v1.json", 2),
    ("v1.json", "base.json", 2),
]


def main():
    failures = 0
    for old, new, want in CASES:
        run = subprocess.run(
            [sys.executable, str(COMPARE), str(FIXTURES / old),
             str(FIXTURES / new), "--threshold", "0.10"],
            capture_output=True, text=True)
        ok = run.returncode == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {old} -> {new}: exit "
              f"{run.returncode}, expected {want}")
        if not ok:
            print(run.stdout + run.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
