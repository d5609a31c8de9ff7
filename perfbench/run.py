"""confsys benchmark: time to a trustworthy verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # fast self-test on A3

Run from the root of a confsys checkout; confsys is imported from ./src.
Every measured process is a fresh interpreter (child.py), pinned to one CPU
beside a speed sampler (sampler.py); the times reported are the measured
intervals scaled to a fixed reference speed of that CPU (see Speed).
--seed reaches confsys only as SuiteConfig.seed (the CLI's --seed), which
drives the randomized checks.  Every report is compared with the frozen verdicts in
expected.py; a mismatch makes the run incorrect and the exit code 1.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced iteration (see README.md).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from expected import EXPECTED, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# kind "suite": one process runs verify.run_suite over the types, warm cache;
# kind "cli": one `confsys verify --expect-no-omega3 --emit-json` process per
# type, starting from an emptied cache dir
WORKLOADS = {
    "d4_system": ("suite", ["D4"]),
    "control_sweep": ("suite", ["A3", "D5", "D6", "E6", "E7"]),
    "cold_cli": ("cli", ["A3", "D5", "D6"]),
}
SETUP_REPEATS = 10       # extra set-up-only processes per warm run
RUN_BUDGET_S = 170.0     # a run must end within 180 s
LABELS = list(EXPECTED)
SPANS_DIR = ROOT / ".perfbench_out"
# the reference loop's duration at the reference speed: about its median on
# the 2-core 2.1 GHz Xeon the benchmark was written on, so that scaled times
# read close to wall times there
REF_LOOP_S = 0.0005
SPEED_GROUP = 25         # samples (half a second) per median in Speed.scale

E2E_UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB",
             "checks_passed_frac": "frac"}


class BenchError(Exception):
    pass


class Speed:
    """The sampler process of one run and the scaling of its intervals.

    The host's CPUs are shared with other VMs and their speed drifts by
    tens of percent over seconds, in CPU time as much as in wall time.  A
    loop timed on the measured process's own CPU follows that drift closely;
    one timed on the other CPU does not.  So an interval [a, b] is reported
    as (b - a) times the mean speed of the loop over the interval, relative
    to REF_LOOP_S: the time the interval would have taken at the reference
    speed.  The speed is the median over groups of SPEED_GROUP samples, so a
    sample lengthened by an interrupt does not count.
    """

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sampler.py"), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # "ready": measure nothing before it
        self.starts: list[float] = []
        self.rates: list[float] = []

    def stop(self) -> None:
        """End the sampler, wait for it and keep its samples."""
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("speed sampler did not stop") from None
        if self.proc.returncode != 0:
            raise BenchError(f"speed sampler exited {self.proc.returncode}")
        samples = json.loads(out)
        self.starts = [t for t, _ in samples]
        self.rates = [REF_LOOP_S / d for _, d in samples]

    def scale(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] takes at the reference speed."""
        # from the sample running at a to the last one started before b
        i = max(bisect_left(self.starts, a) - 1, 0)
        rates = self.rates[i:bisect_right(self.starts, b)]
        if not rates:
            raise BenchError("no speed samples in a measured interval")
        groups = [statistics.median(rates[k:k + SPEED_GROUP])
                  for k in range(0, len(rates), SPEED_GROUP)]
        return (b - a) * statistics.mean(groups)


class Run:
    """Scratch directory, child processes and verdict tally of one run."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.cache = self.work / "cache"
        self.cache.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.ids = itertools.count()
        self.reports = 0
        self.mismatched = 0
        self.checks = 0
        self.checks_passed = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        CONFSYS_CACHE_DIR=str(self.cache))
        self.env.pop("PYTHONPATH", None)
        # measured processes and the sampler share the last CPU; run.py
        # itself mostly waits
        self.cpu = max(os.sched_getaffinity(0))
        self.speed = Speed(self.cpu)

    def close(self) -> None:
        try:
            self.speed.stop()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    def child(self, mode: str, types: list[str], trace: bool = False,
              cli_args: list[str] = ()) -> dict:
        k = next(self.ids)
        out = self.work / f"child-{k}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(out), mode,
               "--types", ",".join(types), "--seed", str(self.seed),
               "--cache-dir", str(self.cache)]
        if trace:
            cmd += ["--trace", str(self.work / f"trace-{k}.json")]
        if cli_args:
            cmd += ["--", *cli_args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run exceeded its time budget")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  preexec_fn=self.pin,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} {types} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} {types} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        res = json.loads(out.read_text())
        res["t_spawn"] = t_spawn
        if trace:
            res["trace"] = json.loads((self.work / f"trace-{k}.json").read_text())
        return res

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def judge(self, label: str, report: dict) -> None:
        """Compare one report with its frozen verdict and tally its checks."""
        self.reports += 1
        self.checks += len(report["checks"])
        self.checks_passed += sum(c["status"] == "pass" for c in report["checks"])
        problems = mismatches(label, report)
        if problems:
            self.mismatched += 1
            print(f"VERDICT MISMATCH {label} seed {self.seed}: "
                  + "; ".join(problems), file=sys.stderr)

    # -- one iteration of each kind -------------------------------------------
    # "setup" and "verify" hold the (start, end) intervals of each phase

    def suite_iteration(self, types: list[str], trace: bool = False) -> dict:
        res = self.child("suite", types, trace)
        for label, report in zip(types, res["reports"]):
            self.judge(label, report)
        return {"setup": [(res["t_spawn"], res["t_ready"])],
                "verify": [(res["t_ready"], res["t_done"])],
                "rss_kb": res["maxrss_kb"],
                "import": res["t_imported"] - res["t_start"],
                "traces": [res["trace"]] if trace else []}

    def cli_batch(self, types: list[str], trace: bool = False) -> dict:
        shutil.rmtree(self.cache)
        self.cache.mkdir()
        batch = {"setup": [], "verify": [], "rss_kb": 0, "import": 0.0,
                 "traces": []}
        for label in types:
            emitted = self.work / f"report-{label}.json"
            emitted.unlink(missing_ok=True)
            res = self.child("cli", [], trace, [
                "verify", "--type", label, "--seed", str(self.seed),
                "--expect-no-omega3", "--emit-json", str(emitted),
                "--cache-dir", str(self.cache)])
            # the verdict comes from the emitted JSON: a control with a
            # failed check exits 1 by design
            self.judge(label, json.loads(emitted.read_text()))
            batch["setup"].append((res["t_spawn"], res["t_ready"]))
            batch["verify"].append((res["t_ready"], res["t_done"]))
            batch["rss_kb"] = max(batch["rss_kb"], res["maxrss_kb"])
            batch["import"] += res["t_imported"] - res["t_start"]
            if trace:
                batch["traces"].append(res["trace"])
        return batch

    def iteration(self, kind: str, types: list[str], trace: bool = False) -> dict:
        if kind == "suite":
            return self.suite_iteration(types, trace)
        return self.cli_batch(types, trace)


# ------------------------------------------------------------------ metrics


def summary(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    s = sorted(samples)
    text = f"median {statistics.median(s):.4f}  n={n}"
    if n >= 20:
        p = 100 * (n - 10) // n
        text += f"  p{p} {s[n - 11]:.4f}"
    else:
        text += "  (no percentile: fewer than 20 samples)"
    return text


def wall(intervals: list[tuple[float, float]]) -> float:
    return sum(b - a for a, b in intervals)


def timed_run(run: Run, kind: str, types: list[str], seconds: float) -> dict:
    setups, verifies, rss = [], [], []   # interval lists, one per sample
    if kind == "suite":
        run.child("prebuild", types)
        for _ in range(SETUP_REPEATS):
            res = run.child("setup", types)
            setups.append([(res["t_spawn"], res["t_ready"])])
    t0 = time.monotonic()
    while True:
        t_it = time.monotonic()
        it = run.iteration(kind, types)
        setups.append(it["setup"])
        verifies.append(it["verify"])
        rss.append(it["rss_kb"])
        now = time.monotonic()
        # start another iteration only if it should end within the window
        if now + (now - t_it) - t0 > seconds:
            break
    run.speed.stop()

    def scaled(sample): return sum(run.speed.scale(a, b) for a, b in sample)
    setup_s = [scaled(x) for x in setups]
    verify_s = [scaled(x) for x in verifies]
    print(f"setup_s      {summary(setup_s)}  s "
          f"(wall median {statistics.median(map(wall, setups)):.4f})")
    print(f"verify_s     {summary(verify_s)}  s "
          f"(wall median {statistics.median(map(wall, verifies)):.4f})")
    print(f"peak_rss_mb  max {max(rss) / 1024:.1f}  n={len(rss)}  MB")
    failed_frac = 1 - run.checks_passed / run.checks
    print(f"checks_failed_frac  {failed_frac:.4f}  "
          f"({run.checks - run.checks_passed} of {run.checks} checks)")
    values = {
        "setup_s": statistics.median(setup_s),
        "verify_s": statistics.median(verify_s),
        "peak_rss_mb": max(rss) / 1024,
        "checks_passed_frac": run.checks_passed / run.checks,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def merge_traces(traces: list[dict]) -> tuple[dict, dict]:
    stats: dict[str, list] = {}
    counts: dict[str, int] = {}
    for t in traces:
        for name, st in t["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += st[i]
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return stats, counts


LAYERS = ["poly", "diffops", "pbw", "verma", "linalg", "omega", "liealg",
          "cache", "report", "verify"]


def layer_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer metric values from merged tracer stats and counters."""
    def calls(n): return stats.get(n, [0])[0]
    def self_s(n): return stats.get(n, [0, 0.0])[1]
    def outer_s(n): return stats.get(n, [0, 0.0, 0.0])[2]
    def net_s(n): return stats.get(n, [0, 0.0, 0.0, 0.0])[3]

    built = counts.get("verma.constraints_built", 0)
    m = {
        "diffops.compose_calls": calls("diffops.compose"),
        "diffops.compose_self_s": self_s("diffops.compose"),
        "diffops.compose_terms_out": counts.get("diffops.compose_terms_out", 0),
        "diffops.commutator_s": outer_s("diffops.commutator"),
        "diffops.at_identity_s": outer_s("diffops.at_identity"),
        "diffops.pi_basis_s": outer_s("diffops.pi_basis"),
        "diffops.subs_param_s": outer_s("diffops.subs_param"),
        "poly.mul_calls": calls("poly.mul"),
        "poly.mul_self_s": self_s("poly.mul"),
        "poly.diff_calls": calls("poly.diff"),
        "poly.subs_calls": calls("poly.subs"),
        "poly.fraction_new": counts.get("poly.fraction_new", 0),
        "poly.gcd_calls": calls("poly.gcd"),
        "verma.act_basis_calls": calls("verma.act_basis"),
        "verma.act_basis_self_s": self_s("verma.act_basis"),
        "verma.stability_constraints_s": outer_s("verma.stability_constraints"),
        "verma.constraints_built": built,
        "verma.constraint_yield": (counts.get("verma.gcd_folds", 0) / built
                                   if built else 0.0),
        "verma.module_action_matrix_s": outer_s("verma.module_action_matrix"),
        "pbw.mono_times_gen_calls": counts.get("pbw.mono_times_gen_calls", 0),
        "pbw.mono_times_gen_distinct": counts.get("pbw.mono_times_gen_distinct", 0),
        "pbw.mul_self_s": self_s("pbw.mul"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": outer_s("linalg.rref"),
        "linalg.solve_s": outer_s("linalg.solve"),
        "omega.omega3_system_s": outer_s("omega.omega3_system"),
        "verify.stability_s": net_s("verify.stability"),
        "verify.omega3_ops_s": net_s("verify.omega3_ops"),
        "verify.symbolic_functionals_s": net_s("verify.symbolic_functionals"),
        "verify.cubic_commutators_s": net_s("verify.cubic_commutators"),
        "verify.b_matrices_s": net_s("verify.b_matrices"),
        "verify.action_matrices_s": net_s("verify.action_matrices"),
        "verify.checks_self_s": self_s("verify.check"),
    }
    for label in LABELS:
        m[f"verify.type.{label}_s"] = outer_s(f"verify.type.{label}")
    m.update({
        "cache.load_s": outer_s("cache.load"),
        "cache.dump_s": outer_s("cache.dump"),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "liealg.build_s": outer_s("liealg.build"),
        "liealg.bracket_elem_calls": counts.get("liealg.bracket_elem_calls", 0),
        "report.dumps_s": outer_s("report.dumps"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(st[1] for n, st in stats.items()
                                   if n.startswith(layer + "."))
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def traced_run(run: Run, kind: str, types: list[str]) -> dict:
    if kind == "suite":
        run.child("prebuild", types)
    plain = run.iteration(kind, types)
    traced = run.iteration(kind, types, trace=True)
    stats, counts = merge_traces(traced["traces"])
    m = layer_metrics(stats, counts)
    m["cli.import_s"] = traced["import"]
    traced_s, plain_s = wall(traced["verify"]), wall(plain["verify"])
    m["trace.verify_s"] = traced_s
    m["trace.untraced_verify_s"] = plain_s
    m["trace.overhead_s"] = traced_s - plain_s
    # spans (id, parent id, name, start, end) of each traced process
    spans = SPANS_DIR / f"spans-{run.name}-seed{run.seed}.json"
    spans.parent.mkdir(exist_ok=True)
    spans.write_text(json.dumps([t["spans"] for t in traced["traces"]]))
    print(f"spans written to {spans.relative_to(ROOT)}")
    layer_self = {k: v for k, v in m.items()
                  if k.endswith(".self_s") and k.split(".")[0] in LAYERS}
    for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        share = v / traced_s if traced_s else 0.0
        print(f"{k:24s} {v:9.3f} s  {100 * share:5.1f} % of traced verify_s")
    print(f"tracing overhead {m['trace.overhead_s']:.3f} s "
          f"(traced verify_s {traced_s:.3f} s, untraced {plain_s:.3f} s)")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in m.items()}


def run_workload(name: str, kind: str, types: list[str], seed: int,
                 seconds: float, trace: bool) -> dict:
    run = Run(name, seed)
    try:
        metrics = (traced_run(run, kind, types) if trace
                   else timed_run(run, kind, types, seconds))
    finally:
        run.close()
    return {"correct": run.mismatched == 0, "attempted": run.reports,
            "failed": run.mismatched, "metrics": metrics}


# ------------------------------------------------------------------- smoke


def smoke() -> int:
    """A3 only, one iteration of each kind: every metric name is reported
    and two traced passes with the same seed count exactly the same work."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in declared["end_to_end"]}
    want_layer = {m["name"] for m in declared["per_layer"]}
    ok = True
    for kind in ("suite", "cli"):
        timed = run_workload("smoke", kind, ["A3"], 212, 0, trace=False)
        traced = run_workload("smoke", kind, ["A3"], 212, 0, trace=True)
        for res, want in ((timed, want_e2e), (traced, want_layer)):
            missing = want - set(res["metrics"])
            extra = set(res["metrics"]) - want
            if missing or extra or not res["correct"]:
                ok = False
                print(f"smoke {kind}: missing {sorted(missing)}, "
                      f"undeclared {sorted(extra)}, correct {res['correct']}")
        run = Run("smoke", 212)
        try:
            if kind == "suite":
                run.child("prebuild", ["A3"])
            passes = [merge_traces(run.iteration(kind, ["A3"], True)["traces"])
                      for _ in range(2)]
        finally:
            run.close()
        first, second = ({n: st[0] for n, st in stats.items()} | counts
                         for stats, counts in passes)
        if first != second:
            ok = False
            print(f"smoke {kind}: counts differ between two passes: "
                  f"{ {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v} }")
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# --------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=212)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "confsys" / "verify.py").is_file():
        print(f"error: no confsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        if args.smoke:
            return smoke()
        for name in names:
            print(f"== {name} (seed {args.seed})")
            results[name] = run_workload(name, *WORKLOADS[name], args.seed,
                                         args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    if not result["correct"]:
        print("error: verdict mismatch (see above)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
