"""One measured confsys process, started by run.py.

    child.py OUT MODE [--types A3,D5] [--seed N] [--cache-dir DIR]
             [--trace PATH] [-- CLI ARGS]

MODE is one of
  prebuild  build the algebra cache entries for --types (not measured);
  setup     import confsys and load the algebras of --types, then exit;
  suite     set up as above, then verify.run_suite for each of --types
            (system scope for D4, control scope otherwise);
  cli       run confsys.cli.main(CLI ARGS), as the `confsys` command does.

OUT receives a JSON object with CLOCK_MONOTONIC stamps (comparable with the
parent's), the peak RSS of this process and, for `suite`, the reports.  With
--trace the tracer is installed once the imports are done and its spans and
counters go to PATH.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("mode", choices=["prebuild", "setup", "suite", "cli"])
    parser.add_argument("--types", default="")
    parser.add_argument("--seed", type=int, default=212)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", default=None)
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    cli_args = argv[cut + 1:]

    import confsys.cli
    from confsys import cache, verify
    from confsys.roots import RootSystemSpec
    if not Path(confsys.cli.__file__).is_relative_to(ROOT / "src"):
        raise SystemExit(f"confsys imported from {confsys.cli.__file__}")
    out = {"t_start": T_START, "t_imported": time.monotonic()}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    types = [t for t in args.types.split(",") if t]

    if args.mode == "prebuild":
        for t in types:
            cache.build(RootSystemSpec.parse(t), Path(args.cache_dir))
    elif args.mode in ("setup", "suite"):
        for t in types:
            cache.load_or_build(RootSystemSpec.parse(t), Path(args.cache_dir))
        out["t_ready"] = time.monotonic()
        if args.mode == "suite":
            reports = [verify.run_suite(verify.SuiteConfig(
                type_label=t, seed=args.seed, expect_system=(t == "D4"),
                cache_dir=args.cache_dir)) for t in types]
            out["t_done"] = time.monotonic()
            out["reports"] = [r.to_json() for r in reports]
    else:
        # the algebra is ready when the CLI's one cache lookup returns
        load_or_build = cache.load_or_build

        def stamped(*a, **k):
            alg = load_or_build(*a, **k)
            out.setdefault("t_ready", time.monotonic())
            return alg
        cache.load_or_build = stamped
        confsys.cli.main(cli_args)  # run.py judges the emitted JSON instead
        out["t_done"] = time.monotonic()
        cache.load_or_build = load_or_build

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
