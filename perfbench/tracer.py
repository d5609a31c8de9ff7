"""Spans and work counters recorded around confsys's public functions.

The tracer wraps functions from outside the package: nothing under src/
knows it is being measured.  Every wrapped call is a span (name, start, end,
parent).  Spans of the coarse functions are kept in memory and written out
when the process ends; the hot functions of the arithmetic layers run
millions of times, so their spans are folded into per-name totals as they
close instead of being stored one by one.

Per name the tracer keeps:

  calls  -- number of calls (deterministic for a given seed);
  self   -- span time minus the time covered by child spans;
  outer  -- inclusive time of the outermost spans of that name only, so a
            recursive function is not counted twice;
  net    -- for session artifacts: inclusive time minus nested artifact
            spans, so an artifact first touched inside another one (the
            special-value commutators inside the b matrices) is charged to
            itself and not to the artifact or check that touched it.
"""

from __future__ import annotations

import fractions
import importlib
import json
import sys
import weakref
from functools import cached_property
from time import perf_counter as clock

# (module, attribute path, span name); hot names are folded, not stored
TARGETS = [
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.__add__", "poly.add"),
    ("poly", "Poly.__neg__", "poly.neg"),
    ("poly", "Poly.scale", "poly.scale"),
    ("poly", "Poly.diff", "poly.diff"),
    ("poly", "Poly.subs", "poly.subs"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "rational_roots", "poly.rational_roots"),
    ("diffops", "PolyDiffOp.compose", "diffops.compose"),
    ("diffops", "PolyDiffOp.commutator", "diffops.commutator"),
    ("diffops", "PolyDiffOp.at_identity", "diffops.at_identity"),
    ("diffops", "PolyDiffOp.subs_param", "diffops.subs_param"),
    ("diffops", "OperatorCalculus.pi_basis", "diffops.pi_basis"),
    ("diffops", "OperatorCalculus.r_op", "diffops.r_op"),
    ("pbw", "Enveloping.mul", "pbw.mul"),
    ("verma", "VermaModule.act_basis", "verma.act_basis"),
    ("verma", "VermaModule.stability_constraints", "verma.stability_constraints"),
    ("verma", "VermaModule.singular_values", "verma.singular_values"),
    ("verma", "VermaModule.module_action_matrix", "verma.module_action_matrix"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("omega", "OmegaSystem.omega3_system", "omega.omega3_system"),
    ("liealg", "build_lie_algebra", "liealg.build"),
    ("cache", "load", "cache.load"),
    ("cache", "dump", "cache.dump"),
    ("cache", "load_or_build", "cache.load_or_build"),
    ("report", "VerificationReport.dumps", "report.dumps"),
    ("verify", "run_single", "verify.check"),
    ("verify", "Session.cubic_commutator", "verify.cubic_commutators"),
]
HOT = {"poly.mul", "poly.add", "poly.neg", "poly.scale", "poly.diff",
       "poly.subs", "poly.gcd", "diffops.compose", "pbw.mul",
       "verma.act_basis", "linalg.rref", "verify.cubic_commutators"}
# Session cached properties timed at first touch, apart from the checks
ARTIFACTS = {
    "stability": "verify.stability",
    "omega3_ops": "verify.omega3_ops",
    "symbolic_functionals": "verify.symbolic_functionals",
    "b_matrices": "verify.b_matrices",
    "action_matrices_special": "verify.action_matrices",
}
ARTIFACT_NAMES = set(ARTIFACTS.values()) | {"verify.cubic_commutators"}
# functions only counted: they are called tens of millions of times
COUNTED = [
    ("pbw", "Enveloping.mono_times_gen", "pbw.mono_times_gen_calls"),
    ("liealg", "LieAlgebra.bracket_elem", "liealg.bracket_elem_calls"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self, outer, net, depth]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []       # (id, parent id, name, start, end)
        self._stack: list[list] = []       # open spans: [child time, kept id]
        self._artifacts: list[list] = []   # open artifact spans: [nested time]
        self._undo: list = []
        self._memo_finalizers: list = []

    # -- spans -------------------------------------------------------------

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0.0, 0]
        return st

    def wrap(self, name: str, fn, after=None):
        """A function that runs fn inside a span called name.

        after(result), if given, updates counters from the call's result.
        """
        st = self._stat(name)
        stack, spans, artifacts = self._stack, self.spans, self._artifacts
        keep = name not in HOT
        artifact = name in ARTIFACT_NAMES

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = len(spans) if keep else parent
            if keep:
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            if artifact:
                artifacts.append([0.0])
            st[4] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                st[4] -= 1
                st[0] += 1
                st[1] += d - frame[0]
                if not st[4]:
                    st[2] += d
                if stack:
                    stack[-1][0] += d
                if artifact:
                    nested = artifacts.pop()[0]
                    st[3] += d - nested
                    if artifacts:
                        artifacts[-1][0] += d
                if keep:
                    spans[sid] = (sid, parent, name, t0, t1)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _patch(self, modname: str, path: str, make) -> None:
        """Replace modname.path by make(original) wherever confsys binds it,
        including aliases in the same class (Poly.__rmul__ is __mul__)."""
        mod = importlib.import_module(f"confsys.{modname}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[attr]
            new = make(orig)
            for name, value in list(vars(cls).items()):
                if value is orig:
                    self._replace(cls, name, new)
            return
        orig = getattr(mod, path)
        new = make(orig)
        for m in _confsys_modules():
            if m.__dict__.get(path) is orig:
                self._replace(m, path, new)

    def install(self) -> None:
        """Wrap every target; undone by uninstall()."""
        after = {
            "diffops.compose": lambda r: self.bump(
                "diffops.compose_terms_out", len(r.terms)),
            "verma.stability_constraints": lambda r: self.bump(
                "verma.constraints_built", len(r[0]) + len(r[1])),
        }
        for modname, path, name in TARGETS:
            self._patch(modname, path,
                        lambda fn, name=name: self.wrap(name, fn, after.get(name)))
        for modname, path, name in COUNTED:
            self._patch(modname, path, lambda fn, name=name: self.count(name, fn))
        self._patch_folds()
        self._patch_cache_outcome()
        self._patch_run_suite()
        self._patch_artifacts()
        self._patch_memo()
        self._patch_fraction()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        for f in self._memo_finalizers:
            f()

    def _patch_folds(self) -> None:
        """Count the running-gcd folds the special-value solver performs."""
        stats = self.stats

        def make(fn):
            def singular_values(vm, gens):
                before = stats["poly.gcd"][0]
                result = fn(vm, gens)
                # poly.gcd calls inside stability_constraints are none: it
                # only builds constraints, so every gcd here is a fold
                self.bump("verma.gcd_folds", stats["poly.gcd"][0] - before)
                return result
            return singular_values
        self._patch("verma", "VermaModule.singular_values", make)

    def _patch_cache_outcome(self) -> None:
        stats = self._stat("liealg.build")

        def make(fn):
            def load_or_build(*args, **kwargs):
                before = stats[0]
                result = fn(*args, **kwargs)
                self.bump("cache.misses" if stats[0] > before else "cache.hits")
                return result
            return load_or_build
        self.counts.setdefault("cache.hits", 0)
        self.counts.setdefault("cache.misses", 0)
        self._patch("cache", "load_or_build", make)

    def _patch_run_suite(self) -> None:
        def make(fn):
            def run_suite(config):
                name = f"verify.type.{config.type_label}"
                return self.wrap(name, fn)(config)
            return run_suite
        self._patch("verify", "run_suite", make)

    def _patch_artifacts(self) -> None:
        from confsys.verify import Session
        for attr, name in ARTIFACTS.items():
            prop = cached_property(self.wrap(name, Session.__dict__[attr].func))
            prop.__set_name__(Session, attr)
            self._replace(Session, attr, prop)

    def _patch_memo(self) -> None:
        """Record each Enveloping memo's size when its owner is dropped."""
        from confsys.pbw import Enveloping
        orig = Enveloping.__dict__["__init__"]
        self.counts.setdefault("pbw.mono_times_gen_distinct", 0)

        def closed(memo):
            self.bump("pbw.mono_times_gen_distinct", len(memo))

        def __init__(env, *args, **kwargs):
            orig(env, *args, **kwargs)
            self._memo_finalizers.append(
                weakref.finalize(env, closed, env._rmul_memo))
        self._replace(Enveloping, "__init__", __init__)

    def _patch_fraction(self) -> None:
        counts = self.counts
        counts["poly.fraction_new"] = 0
        orig = fractions.Fraction.__dict__["__new__"]
        new_fn = orig.__func__ if isinstance(orig, staticmethod) else orig

        def __new__(cls, *args, **kwargs):
            counts["poly.fraction_new"] += 1
            return new_fn(cls, *args, **kwargs)
        self._replace(fractions.Fraction, "__new__", staticmethod(__new__))

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"stats": self.stats, "counts": self.counts,
                       "spans": self.spans}, f)


def _confsys_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "confsys" or n.startswith("confsys.")]
