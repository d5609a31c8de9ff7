#!/usr/bin/env python3
"""Run the full verification battery: the D4 system plus the controls.

Writes one JSON report per type into the output directory (default:
./reports) and prints a compact summary.  Exits nonzero if any run fails.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from confsys.verify import DEFAULT_SEED, EXPECTED, SuiteConfig, run_suite

# (type, expect_system) for every frozen type: the system scope exactly where
# a special value is expected (D4), the control scope elsewhere
RUNS = tuple((f"{family}{rank}", bool(row["special_values"]))
             for (family, rank), row in EXPECTED.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", metavar="DIR",
                        help="directory for JSON reports (default: reports)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    summary = []
    for label, expect_system in RUNS:
        t0 = time.perf_counter()
        report = run_suite(SuiteConfig(label, seed=args.seed,
                                       expect_system=expect_system))
        dt = time.perf_counter() - t0
        path = out / f"verify-{label}.json"
        path.write_text(report.dumps())
        counts = report.counts
        sv = report.special_values
        values = sv.values if sv is not None else []
        summary.append((label, expect_system, report.ok, counts, values, dt,
                        path))
        all_ok = all_ok and report.ok

    print(f"{'type':6s} {'expectation':22s} {'result':8s} "
          f"{'pass':>4s} {'fail':>4s} {'skip':>4s} {'values':10s} {'time':>8s}")
    for label, expect, ok, counts, values, dt, path in summary:
        expectation = "cubic system" if expect else "no cubic system"
        print(f"{label:6s} {expectation:22s} {'OK' if ok else 'FAIL':8s} "
              f"{counts['pass']:4d} {counts['fail']:4d} "
              f"{counts['skipped']:4d} {str(values):10s} {dt:7.2f}s")
    print(f"reports written to {out}/")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
