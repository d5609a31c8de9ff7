"""Command line interface.

``confsys verify`` runs the verification suite for one algebra type and
prints a deterministic text report (optionally writing the JSON form).  The
process exits 0 exactly when every executed check passes, including the
nonexistence checks of runs started with --expect-no-omega3, and 2 on a
usage error: an unknown type label, or an --emit-json path that cannot be
written (the suite has run and its text report is printed by then).  The
algebra cache fills itself on first use; --cache-dir moves it.  A cache
location that cannot be read or written only warns: it never sets the code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .report import VerificationReport
from .roots import RootSystemSpec
from .verify import DEFAULT_SEED, SuiteConfig, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confsys",
        description="exact verification of the cubic conformally invariant "
                    "operator system attached to Heisenberg parabolics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the verification suite for one algebra type")
    p_verify.add_argument("--type", default="D4", metavar="LABEL",
                          help="algebra type label such as D4, A3, D5 "
                               "(default: D4)")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                          help="seed for randomized samples (default: %(default)s)")
    p_verify.add_argument("--expect-no-omega3", action="store_true",
                          help="expect no cubic system: run the "
                               "nonexistence checks instead of the system "
                               "checks")
    p_verify.add_argument("--emit-json", metavar="PATH", default=None,
                          help="also write the JSON report to PATH")
    p_verify.add_argument("--cache-dir", metavar="PATH", default=None,
                          help="algebra cache directory (default: "
                               "$CONFSYS_CACHE_DIR or ~/.cache/confsys)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _status_mark(status: str) -> str:
    return {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[status]


def render_text(report: VerificationReport) -> str:
    lines = []
    alg = report.algebra
    lines.append(f"algebra {alg['label']}: dim {alg['dim']}, "
                 f"graded dims {report.graded_dims}")
    lines.append(f"deleted diagram components (1-based): "
                 f"{report.deleted_components}")
    sv = report.special_values
    if sv is not None:
        if sv.values:
            extra = ""
            if sv.module_parameter is not None:
                extra = (f" (module parameter {sv.module_parameter}, "
                         f"bundle parameter {sv.bundle_parameter})")
            lines.append(f"special values: {sv.values}{extra}")
        elif sv.all_s:
            lines.append("special values: every parameter value")
        else:
            lines.append(f"special values: none ({sv.failure_mode})")
    lines.append(f"expected outcome: "
                 f"{'cubic system exists' if report.expect_system else 'no cubic system'}")
    lines.append("")
    for c in report.checks:
        lines.append(f"{_status_mark(c.status)} {c.name:36s} "
                     f"{c.wall_time_s:9.3f}s")
        if c.status != "pass":
            lines.append(f"     statement: {c.statement}")
            lines.append(f"     witness: {c.witness}")
    lines.append("")
    counts = report.counts
    lines.append(f"{len(report.checks)} checks: {counts['pass']} pass, "
                 f"{counts['fail']} fail, {counts['skipped']} skipped")
    lines.append(f"result: {'OK' if report.ok else 'FAIL'}")
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        RootSystemSpec.parse(args.type)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = SuiteConfig(
        type_label=args.type,
        seed=args.seed,
        expect_system=not args.expect_no_omega3,
        cache_dir=args.cache_dir,
    )
    report = run_suite(config)
    print(render_text(report))
    if args.emit_json is not None:
        try:
            Path(args.emit_json).write_text(report.dumps())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"json report written to {args.emit_json}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
