"""Machine-verification suite for the cubic conformally invariant system.

Every check recomputes its claim from scratch in exact rational arithmetic
and reports pass/fail with a witness; nothing is trusted from construction
time.  Checks are grouped in three scopes:

  * core    -- structural facts that must hold for every supported type;
  * system  -- existence and invariance of the cubic system (expected for D4);
  * control -- nonexistence facts for types expected to carry no system.

A run executes core checks plus the scope selected by ``expect_system``.
This module holds the registry, the shared Session, the core and control
checks and the runner.  The system checks live in confsys.system, the one
module that imports the induced-picture operators (confsys.diffops) at
module level; available_checks imports it on the first system run, so a
control run never compiles the operator side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from math import lcm
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from . import cache as algcache
from .liealg import LieAlgebra
from .linalg import rank
from .memo import memo
from .omega import OmegaSystem
from .pbw import Elt, Enveloping, elt_add, elt_scale, elt_sub, monomials_up_to
from .report import (SCHEMA_VERSION, CheckResult, SpecialValueFindings,
                     VerificationReport, qstr)
from .roots import RootSystemSpec
from .verma import Span, StabilityResult, VermaModule

if TYPE_CHECKING:
    from .diffops import OperatorCalculus, PolyDiffOp

# frozen expectations for the supported families, keyed by (family, rank):
# graded dimensions; deleted-diagram components (0-based nodes); number of
# irreducible Levi constituents of the grade +-1 spaces (type A splits into a
# module and its dual; types D/E are irreducible); dimension of the family of
# characters vanishing on the derived Levi and normalized on the grading
# coroot (type A keeps one free direction from the two-dimensional Levi
# center); the special parameter values of the cubic span
EXPECTED = {
    ("D", 4): {"graded_dims": (1, 8, 10, 8, 1), "deleted": ((0,), (2,), (3,)),
               "levi_components": 1, "character_freedom": 0,
               "special_values": (Q(-1),)},
    ("A", 3): {"graded_dims": (1, 4, 5, 4, 1), "deleted": ((1,),),
               "levi_components": 2, "character_freedom": 1,
               "special_values": ()},
    ("D", 5): {"graded_dims": (1, 12, 19, 12, 1), "deleted": ((0,), (2, 3, 4)),
               "levi_components": 1, "character_freedom": 0,
               "special_values": ()},
    ("D", 6): {"graded_dims": (1, 16, 32, 16, 1), "deleted": ((0,), (2, 3, 4, 5)),
               "levi_components": 1, "character_freedom": 0,
               "special_values": ()},
    ("D", 7): {"graded_dims": (1, 20, 49, 20, 1),
               "deleted": ((0,), (2, 3, 4, 5, 6)), "levi_components": 1,
               "character_freedom": 0, "special_values": ()},
    ("D", 8): {"graded_dims": (1, 24, 70, 24, 1),
               "deleted": ((0,), (2, 3, 4, 5, 6, 7)), "levi_components": 1,
               "character_freedom": 0, "special_values": ()},
}
DEFAULT_SEED = 0xD4           # seed of verma_representation's samples


@dataclass
class SuiteConfig:
    type_label: str = "D4"
    seed: int = DEFAULT_SEED
    expect_system: bool = True
    cache_dir: str | None = None


class CheckFailure(Exception):
    def __init__(self, witness: dict):
        super().__init__(str(witness))
        self.witness = witness


class SkipCheck(Exception):
    def __init__(self, witness: dict):
        super().__init__(str(witness))
        self.witness = witness


def _ensure(cond: bool, **witness) -> None:
    if not cond:
        raise CheckFailure(witness)


# --------------------------------------------------------------------- session


class Session:
    """Lazily built shared state for one verification run."""

    def __init__(self, config: SuiteConfig):
        self.config = config

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.config.seed}:{salt}")

    @cached_property
    def spec(self) -> RootSystemSpec:
        return RootSystemSpec.parse(self.config.type_label)

    @cached_property
    def alg(self) -> LieAlgebra:
        cache_dir = (Path(self.config.cache_dir)
                     if self.config.cache_dir is not None else None)
        return algcache.load_or_build(self.spec, cache_dir, check=False)

    @cached_property
    def env(self) -> Enveloping:
        return Enveloping(self.alg)

    @cached_property
    def verma(self) -> VermaModule:
        return VermaModule(self.alg)

    @cached_property
    def omega(self) -> OmegaSystem:
        return OmegaSystem(self.alg)

    @cached_property
    def calc(self) -> OperatorCalculus:
        """The induced-picture operators, read by system checks only, like
        the operator artifacts below, the commutator tables among them,
        which stay on Session because perfbench/tracer.py times them by
        name; diffops loads on first use."""
        from .diffops import OperatorCalculus
        return OperatorCalculus(self.alg)

    @cached_property
    def omega3_gens(self) -> list[Elt]:
        return self.omega.omega3_system()

    @cached_property
    def stability(self) -> StabilityResult:
        return self.verma.singular_values(self.cubic_span)

    @property
    def sstar(self) -> Q | None:
        vals = self.stability.values
        return vals[0] if len(vals) == 1 else None

    def require_sstar(self) -> Q:
        if self.sstar is None:
            raise SkipCheck({"reason": "no unique special parameter value",
                             "values": [qstr(v) for v in self.stability.values]})
        return self.sstar

    @cached_property
    def omega3_ops(self) -> list[PolyDiffOp]:
        return [self.calc.r_op(g) for g in self.omega3_gens]

    @cached_property
    def quadratic_elements(self) -> dict[int, Elt]:
        """The quadratic element of each Levi basis vector, by index."""
        return {w: self.omega.omega2_basis(w) for w in self.alg.l_indices}

    @cached_property
    def quadratic_ops(self) -> dict[int, PolyDiffOp]:
        """R of the quadratic element of each Levi basis vector, by index."""
        return {w: self.calc.r_op(w2)
                for w, w2 in self.quadratic_elements.items()}

    @cached_property
    def cubic_elements(self) -> dict[int, Elt]:
        """The cubic element of each grade -1 basis vector, by index."""
        return dict(zip(self.alg.v_minus, self.omega3_gens))

    @cached_property
    def symbolic_functionals(self) -> dict[tuple[int, int], tuple[int, dict]]:
        """Point functionals at the identity of [pi(X), R(w3_k)], s symbolic,
        as int pairs (den, {derivative: (a0, a1)}) meaning (a0 + s*a1)/den,
        keyed (X, k) for X over the nilradical, the rows main_vanishing,
        center_vanishing and operator_special_value_set read, then the
        generators of q, the rows b_matrices reads: b on the rest of g is a
        corollary (see the b_matrix statement)."""
        from .diffops import commutator_at_identity
        out = {}
        for xi in dict.fromkeys(self.alg.n_indices + self.alg.q_generators):
            pi_x = self.calc.pi_basis(xi)
            for k, op in enumerate(self.omega3_ops):
                out[(xi, k)] = commutator_at_identity(pi_x, op)
        return out

    @memo
    def pi_special(self, i: int) -> PolyDiffOp:
        return self.calc.pi_basis(i).subs_param(self.require_sstar())

    @memo
    def cubic_commutator(self, y_idx: int, k: int) -> PolyDiffOp:
        """[pi(X_y), R(w3_k)] at the special parameter value."""
        return self.pi_special(y_idx).commutator(self.omega3_ops[k])

    @cached_property
    def first_level_ops(self) -> list[PolyDiffOp]:
        """The first-order right actions R(X_b), b over nbar, then 1."""
        calc = self.calc
        return [calc.r_gen(b) for b in self.alg.nbar_indices] + [calc.identity_op()]

    @memo
    def first_level_commutator(self, y_idx: int) -> list[PolyDiffOp]:
        """[pi_s(X_y), D] for D over first_level_ops, with s symbolic."""
        pi_y = self.calc.pi_basis(y_idx)
        return [pi_y.commutator(op) for op in self.first_level_ops]

    @cached_property
    def cubic_span(self) -> Span:
        """The span of the cubic elements in the module."""
        return Span(self.omega3_gens)

    @cached_property
    def functional_span(self) -> Span:
        """The span of the cubic operators' point functionals at the identity."""
        funcs = [op.at_identity() for op in self.omega3_ops]
        if any(a1 for _, func in funcs for _, a1 in func.values()):
            raise ValueError("point functional depends on s")
        return Span([{m: Q(a0, den) for m, (a0, _) in func.items()}
                     for den, func in funcs])

    @cached_property
    def action_matrices_special(self) -> dict[int, list[list[Q]]]:
        """Action matrix of each parabolic basis vector on the cubic span."""
        sstar = self.require_sstar()
        return {g: self.verma.module_action_matrix(self.cubic_span, g, sstar)
                for g in self.alg.q_indices}

    @cached_property
    def b_matrices(self) -> dict[int, list[list[Q]]]:
        """For every generator Y of q the matrix b(Y) with [pi(Y), D_i] =
        sum_j b(Y)_{ji} D_j as point functionals at the identity, at the
        special parameter value.  Each column is the symbolic functional of
        the commutator (symbolic_functionals), reduced against the span and
        read at s*, so no commutator is formed; the b_matrix statement says
        why b on the rest of g needs no reading."""
        sstar, span = self.require_sstar(), self.functional_span
        funcs, out = self.symbolic_functionals, {}
        for y in self.alg.q_generators:
            cols = [span.coordinates(span.eliminate(*funcs[(y, k)]), sstar)
                    for k in range(len(self.omega3_ops))]
            if None in cols:
                raise CheckFailure({
                    "reason": "commutator functional outside the span",
                    "basis_vector": self.alg.names[y], "column": cols.index(None)})
            out[y] = [list(row) for row in zip(*cols)]
        return out


# ------------------------------------------------------------ shared helpers


def _expected(alg: LieAlgebra, column: str):
    """alg's frozen expectation in one EXPECTED column; None for a type
    without a row."""
    return EXPECTED.get((alg.rs.spec.family, alg.rs.spec.rank), {}).get(column)


def _contraction_data(s: Session):
    """For every (X, Y) in V+ x V-, compare the contracted double bracket
    sum against the quadratic element of [X, Y]; returns ratio statistics.

    The Levi element L = sum_e [[X, X_-e], [X_e, Y]] is summed in ints from
    the bracket table rows.  When L and [X, Y] are lam and mu times one basis
    vector k, their quadratic elements are lam and mu times omega2_basis(k),
    since omega2 is linear: the pair's ratio is lam/mu, exactly, and
    omega2_ints(k) only decides whether the pair counts.  Every other pair
    compares omega2(L) with omega2([X, Y]).
    """
    alg, om, table = s.alg, s.omega, s.alg.table
    ratios: set = set()
    nonzero_pairs = 0
    zero_anomalies = []
    proportional = True
    for x in alg.v_plus:
        # the brackets [X, X_-e] are shared by every Y
        left = [(e, inner) for e in alg.v_plus
                if (inner := table[x][alg.opposite[e]])]
        for y in alg.v_minus:
            levi: dict[int, int] = {}
            for e, inner in left:
                right = table[e][y]
                for k, c in inner:
                    row_k = table[k]
                    for j, d in right:
                        for t, n in row_k[j]:
                            levi[t] = levi.get(t, 0) + c * d * n
            levi = {k: c for k, c in levi.items() if c}
            single = table[x][y]
            if len(levi) == 1 and len(single) == 1 and single[0][0] in levi:
                k, mu = single[0]
                if om.omega2_ints(k):
                    nonzero_pairs += 1
                    ratios.add(Q(levi[k], mu))
                continue
            acc = om.omega2(levi)
            target = om.omega2(dict(single))
            if not target:
                if acc:
                    zero_anomalies.append((alg.names[x], alg.names[y]))
                continue
            nonzero_pairs += 1
            m0, c0 = next(iter(target.items()))
            c = acc.get(m0)
            if c is None:
                proportional = False
                continue
            ratio = Q(c, c0)
            if acc != elt_scale(target, ratio):
                proportional = False
            else:
                ratios.add(ratio)
    return ratios, nonzero_pairs, zero_anomalies, proportional


def _as_ints(elements: dict[int, Elt]) -> dict[int, Elt]:
    """The elements scaled once to ints over the lcm of their denominators,
    so that the module action on them runs in ints."""
    den = lcm(*(c.denominator for e in elements.values() for c in e.values()))
    return {w: {m: c.numerator * (den // c.denominator) for m, c in e.items()}
            for w, e in elements.items()}


def _levi_action(s: Session, elements: dict[int, Elt],
                 acting: dict[str, dict[int, int]] | None = None) -> dict:
    """Check Z.e_w = e_[Z,w] - dchi(Z) e_w + s dchi(Z) e_w, with s symbolic,
    for every Z in acting, by name (default: the generators of l, the grade-0
    entries of LieAlgebra.q_generators), and every e_w = elements[w], where
    e_[Z,w] is the linear extension of elements to the bracket; returns the
    size of the acting set and the pair count.

    Over the generators of l this is equivariance on all of l:
    rho(Z) = Z. - s dchi(Z) is a representation of l at every s, because
    dchi vanishes on [l, l], and the elements span an ad(l)-stable space, so
    the Z with e_[Z,w] = rho(Z) e_w + dchi(Z) e_w for every w form a Lie
    subalgebra.  For Z the grading coroot h_gamma, [h_gamma, w] is grade(w)
    w and dchi(h_gamma) = 2, so it states that h_gamma acts on each element
    by the scalar 2s - 2 + grade(w).

    The identity is linear in the elements, so it is checked on _as_ints.
    """
    alg, vm, elements = s.alg, s.verma, _as_ints(elements)
    if acting is None:
        acting = {alg.names[z]: {z: 1} for z in alg.q_generators
                  if alg.grade[z] == 0}
    for name, z in acting.items():
        dchi = sum(c * alg.dchi_on_basis[i] for i, c in z.items())
        for w, e in elements.items():
            image: Elt = {}
            for k, c in alg.bracket_elem(z, {w: 1}).items():
                image = elt_add(image, elt_scale(elements[k], c))
            _ensure(vm.act(z, e) == (elt_sub(image, elt_scale(e, dchi)),
                                     elt_scale(e, dchi)),
                    pair=[name, alg.names[w]])
    return {"generators": len(acting), "pairs": len(acting) * len(elements)}


def _act_twice(vm: VermaModule, x: int, y: int, v: Elt) -> tuple[Elt, Elt, Elt]:
    """X_x.(X_y.v) for an s-free v, as its coefficients of s^0, s^1 and s^2:
    X_y.v = w0 + s*w1, and X_x.(w0 + s*w1) = X_x.w0 + s*X_x.w1."""
    w0, w1 = vm.act_basis(y, v)
    a0, a1 = vm.act_basis(x, w0)
    b0, b1 = vm.act_basis(x, w1)
    return a0, elt_add(a1, b0), b1


def _first_level_image(alg: LieAlgebra, x: int,
                       gi: int | None) -> tuple[dict[int, int], int]:
    """([X_x, w]_nbar, dchi([X_x, w]_q)) in ints for x in q and w = X_gi over
    nbar or 1 (gi None): the closed form of X_x.w that first_level_action proves."""
    low, value = {}, 0
    for k, c in alg.table[x][gi] if gi is not None else ():
        if alg.grade[k] < 0:
            low[k] = c
        else:
            value += c * alg.dchi_on_basis[k]
    return low, value


# ------------------------------------------------------------- check registry


CHECKS: dict[str, tuple[str, str, Callable[[Session], dict]]] = {}


def check(name: str, scope: str, statement: str):
    def deco(fn: Callable[[Session], dict]):
        if name in CHECKS:
            raise ValueError(f"duplicate check name {name}")
        CHECKS[name] = (scope, statement, fn)
        return fn
    return deco


# ------------------------------------------------------------------ core scope


@check("chevalley_normalizations", "core",
       "Basis normalizations: [X_a, X_-a] = H_a, Cartan action by pairings, "
       "all root-root structure constants are +-1")
def _chk_chevalley(s: Session) -> dict:
    s.alg.verify_normalizations()
    n_roots = sum(1 for r in s.alg.root_of if r is not None)
    return {"roots": n_roots, "dim": s.alg.dim}


@check("jacobi_identity", "core",
       "Jacobi identity over every basis triple: the bracket is "
       "antisymmetric, the Chevalley generators generate g, and J(x, y, z) = "
       "[x,[y,z]] + [y,[z,x]] + [z,[x,y]] vanishes for x among the Chevalley "
       "generators and every basis pair y < z; this suffices, since by "
       "antisymmetry the x with J(x, ., .) = 0 are those with ad x a "
       "derivation, they form a Lie subalgebra, and the generators generate g")
def _chk_jacobi(s: Session) -> dict:
    s.alg.verify_jacobi()
    d = s.alg.dim
    return {"triples": d * (d - 1) * (d - 2) // 6,
            "generator_pairs": len(s.alg.chevalley_generators) * d * (d - 1) // 2}


@check("invariant_form", "core",
       "Invariant form: B is defined by B(X_a, X_-a) = 1 for every root and the "
       "Gram matrix on the Cartan block, and is ad-invariant, B([x,y],z) + "
       "B(y,[x,z]) = 0, for x among the Chevalley generators and every basis "
       "pair (y, z); this suffices, since by the Jacobi identity the x with "
       "ad x skew for B form a Lie subalgebra, and the generators generate g")
def _chk_invariant_form(s: Session) -> dict:
    alg = s.alg
    coroots = set(alg.cartan_index)
    pairs = 0
    for g in alg.chevalley_generators:
        # the nonzero B([g, y], z) by (y, z): B's support puts z opposite to a
        # root vector of [g, y], or among the coroots if [g, y] has a Cartan part
        vals: dict[tuple[int, int], Q] = {}
        for y, row in enumerate(alg.table[g]):
            gy = dict(row)
            zs = {alg.opposite[k] for k in gy}
            if None in zs:
                zs = (zs - {None}) | coroots
            for z in zs:
                if v := alg.killing_elem(gy, {z: 1}):
                    vals[y, z] = v
        for (y, z), v in vals.items():
            _ensure(vals.get((z, y), 0) == -v, generator=alg.names[g],
                    pair=[alg.names[y], alg.names[z]])
        pairs += len(vals)
    return {"root_pairs": sum(1 for r in alg.root_of if r is not None),
            "generators": len(alg.chevalley_generators), "pairs": pairs}


@check("heisenberg_grading", "core",
       "The highest-root pairing grades the algebra in five levels with the "
       "expected dimensions; brackets are additive on levels and the top "
       "level is the one-dimensional center of the nilradical")
def _chk_grading(s: Session) -> dict:
    alg = s.alg
    dims = alg.graded_dims
    expected = _expected(alg, "graded_dims")
    if expected is not None:
        _ensure(dims == expected, dims=list(dims), expected=list(expected))
    _ensure(dims[0] == 1 and dims[4] == 1, dims=list(dims))
    _ensure(dims[1] == dims[3], dims=list(dims))
    _ensure(sum(dims) == alg.dim, dims=list(dims), dim=alg.dim)
    for i in range(alg.dim):
        for j in range(alg.dim):
            gsum = alg.grade[i] + alg.grade[j]
            for k, _c in alg.table[i][j]:
                _ensure(alg.grade[k] == gsum, pair=[alg.names[i], alg.names[j]])
            if abs(gsum) > 2:
                _ensure(not alg.table[i][j],
                        pair=[alg.names[i], alg.names[j]])
    # the grade-2 line is central in n = grades 1 and 2
    for i in alg.n_indices:
        _ensure(not alg.table[alg.x_gamma][i], center_pair=alg.names[i])
    return {"dims": list(dims), "frozen": expected is not None}


@check("deleted_diagram", "core",
       "Simple roots orthogonal to the highest root form the expected "
       "connected components of the deleted diagram")
def _chk_deleted(s: Session) -> dict:
    alg = s.alg
    got = alg.deleted_components
    expected = _expected(alg, "deleted")
    if expected is not None:
        _ensure(got == expected,
                got=[[i + 1 for i in c] for c in got],
                expected=[[i + 1 for i in c] for c in expected])
    for comp in got:
        for i in comp:
            _ensure(s.alg.rs.pairing(s.alg.rs.simple(i), s.alg.gamma) == 0,
                    node=i + 1)
    return {"components_1based": [[i + 1 for i in c] for c in got]}


@check("levi_module_decomposition", "core",
       "The grade +1 and grade -1 subspaces have one-dimensional weight "
       "spaces and decompose into the expected number of irreducible Levi "
       "modules; within each constituent every weight vector generates the "
       "whole constituent under the Levi root vectors")
def _chk_levi_decomposition(s: Session) -> dict:
    alg = s.alg
    l_roots = [i for i in alg.l_indices if alg.root_of[i] is not None]
    counts = []
    for space in (alg.v_plus, alg.v_minus):
        roots = [alg.root_of[i] for i in space]
        _ensure(len(set(roots)) == len(roots), reason="repeated weight")
        closure: dict[int, frozenset[int]] = {}
        for start in space:
            seen = {start}
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for z in l_roots:
                    for k, _c in alg.table[z][u]:
                        if k not in seen:
                            seen.add(k)
                            frontier.append(k)
            closure[start] = frozenset(seen)
        components = set(closure.values())
        for start, comp in closure.items():
            for other in comp:
                _ensure(closure[other] == comp, start=alg.names[start],
                        reason="generated submodules disagree inside a "
                               "constituent")
        counts.append(len(components))
    _ensure(counts[0] == counts[1], plus=counts[0], minus=counts[1])
    expected = _expected(alg, "levi_components")
    if expected is not None:
        _ensure(counts[0] == expected, components=counts[0],
                expected=expected)
    return {"dim_plus": len(alg.v_plus), "components": counts[0],
            "frozen": expected is not None}


@check("character_normalization", "core",
       "The parabolic character vanishes on all root vectors and on "
       "brackets of Levi elements and takes the value 2 on the grading "
       "coroot; the space of functionals satisfying these constraints has "
       "the expected residual dimension (zero outside type A)")
def _chk_character(s: Session) -> dict:
    alg = s.alg
    table, dchi, opposite = alg.table, alg.dchi_on_basis, alg.opposite
    on_h_gamma = sum(c * dchi[k] for k, c in alg.h_gamma.items())
    _ensure(on_h_gamma == 2, value=qstr(on_h_gamma))
    for i in alg.q_indices:
        if opposite[i] is not None:
            _ensure(dchi[i] == 0, index=alg.names[i])
    for z in alg.l_indices:
        line = table[z]
        for w in alg.l_indices:
            _ensure(not sum(c * dchi[k] for k, c in line[w]),
                    pair=[alg.names[z], alg.names[w]])
    # freedom left on the Cartan: corank of the span of the Levi coroots
    # H_a = [X_a, X_-a] (rows that chevalley_normalizations proves equal to
    # H_a) together with the grading coroot
    coroots = [dict(table[i][opposite[i]]) for i in alg.l_indices
               if opposite[i] is not None]
    rows = [[h.get(k, 0) for k in alg.cartan_index]
            for h in coroots + [alg.h_gamma]]
    freedom = alg.rank - rank(rows)
    expected = _expected(alg, "character_freedom")
    if expected is not None:
        _ensure(freedom == expected, freedom=freedom, expected=expected)
    return {"cartan_rank": alg.rank, "residual_freedom": freedom,
            "frozen": expected is not None}


@check("verma_representation", "core",
       "The induced-module action is a representation: commutators of basis "
       "actions match the bracket action on a seeded sample of states, with "
       "the character parameter kept symbolic")
def _chk_verma_rep(s: Session) -> dict:
    alg, env, vm = s.alg, s.env, s.verma
    rng = s.rng("verma-representation")
    states: list[Elt] = [env.one()]
    pool = monomials_up_to(alg.nbar_indices, 2)
    for _ in range(3):
        states.append({pool[rng.randrange(len(pool))]: 1})
    pairs = 0
    for _ in range(40):
        x = rng.randrange(alg.dim)
        y = rng.randrange(alg.dim)
        br = dict(alg.table[x][y])
        for v in states:
            lhs = tuple(elt_sub(a, b) for a, b in zip(_act_twice(vm, x, y, v),
                                                       _act_twice(vm, y, x, v)))
            _ensure(lhs == vm.act(br, v) + ({},),
                    pair=[alg.names[x], alg.names[y]],
                    state=env.format(v))
        pairs += 1
    return {"pairs": pairs, "states": len(states)}


@check("first_level_action", "core",
       "The span of the generators in filtration degree <= 1, the opposite-"
       "radical basis vectors Y and 1, is parabolic-stable for every s, since "
       "with s symbolic Z.Y = [Z, Y] + s dchi(Z) Y for Z in the Levi factor, "
       "U.Y = [U, Y]_nbar + s dchi([U, Y]_q) for U in the nilradical and X.1 = "
       "s dchi(X) 1 for X in the parabolic, all in the span")
def _chk_first_level(s: Session) -> dict:
    alg, vm, dchi = s.alg, s.verma, s.alg.dchi_on_basis
    for gi in alg.nbar_indices + (None,):
        mono = ((gi, 1),) if gi is not None else ()
        for x in alg.q_indices:
            low, value = _first_level_image(alg, x, gi)
            high = {m: c for m, c in (((), value), (mono, dchi[x])) if c}
            _ensure(vm.act_basis(x, {mono: 1})
                    == ({((k, 1),): c for k, c in low.items()}, high),
                    **{"levi" if alg.grade[x] == 0 else "nil": alg.names[x]},
                    generator=alg.names[gi] if gi is not None else "1")
    return {"explicit_formulas": len(alg.q_indices) * (alg.nbar_dim + 1),
            "stable_for_all_s": True}


@check("quadratic_on_center", "core",
       "The quadratic assignment vanishes on the grading coroot")
def _chk_quadratic_center(s: Session) -> dict:
    val = s.omega.omega2(s.alg.h_gamma)
    _ensure(not val, value=s.env.format(val))
    return {"value": "0"}


@check("quadratic_weight", "core",
       "The grading coroot acts on every quadratic element by the scalar "
       "2s - 2, with s symbolic")
def _chk_quadratic_weight(s: Session) -> dict:
    _levi_action(s, s.quadratic_elements, {"h_gamma": s.alg.h_gamma})
    return {"eigenvalue": "2s - 2"}


@check("quadratic_equivariance", "core",
       "Adjoint equivariance of the quadratic assignment: for all Levi pairs "
       "(Z, W), ad(Z) applied to the quadratic element of W equals the "
       "quadratic element of [Z, W] minus the character of Z times the "
       "element, independently of s; it is checked for Z among the generators "
       "of l, which suffices: the Z for which it holds form a Lie subalgebra, "
       "because the character vanishes on [l, l]")
def _chk_quadratic_equivariance(s: Session) -> dict:
    return _levi_action(s, s.quadratic_elements)


# --------------------------------------------------------------- control scope


def _failure_mode(s: Session) -> str | None:
    """Why the cubic span carries no special value; None if it carries one."""
    res = s.stability
    if res.values or res.all_s:
        return None
    if not res.levi_stable_all_s:
        return "span_not_l_stable"
    return "empty_special_values"


@check("contraction_not_uniform", "control",
       "No single constant makes the contracted double-bracket sum "
       "proportional to the quadratic element of the single bracket across "
       "all grade +-1 pairs, blocking the closure mechanism of the cubic "
       "system")
def _chk_contraction_not_uniform(s: Session) -> dict:
    ratios, nonzero_pairs, zero_anomalies, proportional = _contraction_data(s)
    uniform = (proportional and not zero_anomalies and len(ratios) <= 1)
    _ensure(not uniform, ratios=[qstr(r) for r in sorted(ratios)],
            nonzero_pairs=nonzero_pairs)
    return {"distinct_ratios": sorted(qstr(r) for r in ratios),
            "pairwise_proportional": proportional,
            "nonzero_pairs": nonzero_pairs}


@check("no_special_value", "control",
       "The parabolic-stability constraints on the cubic span have no "
       "rational solution: no parameter value carries the cubic system")
def _chk_no_special_value(s: Session) -> dict:
    res = s.stability
    _ensure(not res.all_s, all_s=res.all_s)
    _ensure(len(res.values) == 0, values=[qstr(v) for v in res.values])
    degenerate = [s.alg.names[y] for y, w3 in s.cubic_elements.items()
                  if not w3]
    return {"failure_mode": _failure_mode(s),
            "constraints": res.constraint_count,
            "degenerate_elements": degenerate,
            "levi_stable_all_s": res.levi_stable_all_s}


# ------------------------------------------------------------------ suite run


def available_checks(expect_system: bool) -> list[str]:
    """The checks of one run, in registration order."""
    if expect_system:
        from .system import SCOPE as scope   # registers the system checks
    else:
        scope = "control"
    return [name for name, (sc, _, _) in CHECKS.items() if sc in ("core", scope)]


def run_single(session: Session, name: str) -> CheckResult:
    if name not in CHECKS:
        available_checks(True)   # a system check, not registered yet
    _, statement, fn = CHECKS[name]
    t0 = perf_counter()
    try:
        witness = fn(session)
        status = "pass"
    except CheckFailure as f:
        witness, status = f.witness, "fail"
    except SkipCheck as f:
        witness, status = f.witness, "skipped"
    except Exception as exc:  # an engine error is an honest failure
        witness = {"error": f"{type(exc).__name__}: {exc}"}
        status = "fail"
    return CheckResult(name, statement, status, witness,
                       round(perf_counter() - t0, 4))


def _special_value_findings(session: Session) -> SpecialValueFindings:
    res = session.stability
    unique = session.sstar
    return SpecialValueFindings(
        values=[qstr(v) for v in res.values],
        all_s=res.all_s,
        levi_stable_all_s=res.levi_stable_all_s,
        failure_mode=_failure_mode(session),
        module_parameter=qstr(unique) if unique is not None else None,
        bundle_parameter=qstr(-unique) if unique is not None else None,
    )


def run_suite(config: SuiteConfig) -> VerificationReport:
    session = Session(config)
    session.alg     # loaded here, so no check's wall time holds the cache load
    results = [run_single(session, name)
               for name in available_checks(config.expect_system)]
    alg = session.alg
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        algebra={
            "family": alg.rs.spec.family,
            "rank": alg.rs.spec.rank,
            "label": str(alg.rs.spec),
            "dim": alg.dim,
            "positive_roots": len(alg.rs.positive),
        },
        expect_system=config.expect_system,
        seed=config.seed,
        graded_dims=list(alg.graded_dims),
        deleted_components=[[i + 1 for i in c] for c in alg.deleted_components],
        special_values=_special_value_findings(session),
        checks=results,
    )
