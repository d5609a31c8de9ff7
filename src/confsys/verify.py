"""Machine-verification suite for the cubic conformally invariant system.

Every check recomputes its claim from scratch in exact rational arithmetic
and reports pass/fail with a witness; nothing is trusted from construction
time.  Checks are grouped in three scopes:

  * core    -- structural facts that must hold for every supported type;
  * system  -- existence and invariance of the cubic system (expected for D4);
  * control -- nonexistence facts for types expected to carry no system.

A run executes core checks plus the scope selected by ``expect_system``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import cache as algcache
from .diffops import OperatorCalculus, PolyDiffOp, commutator_at_identity
from .liealg import LieAlgebra
from .linalg import common_root, inverse, rank
from .omega import OmegaSystem, negate
from .pbw import (Elt, Enveloping, elt_add, elt_scale, elt_sub, mono_degree,
                  monomials_up_to)
from .report import (SCHEMA_VERSION, CheckResult, SpecialValueFindings,
                     VerificationReport, qstr)
from .roots import RootSystemSpec
from .verma import Span, StabilityResult, VermaModule, elt_subs

# frozen expectations for the supported families, keyed by (family, rank):
# graded dimensions; deleted-diagram components (0-based nodes); number of
# irreducible Levi constituents of the grade +-1 spaces (type A splits into a
# module and its dual; types D/E are irreducible); dimension of the family of
# characters vanishing on the derived Levi and normalized on the grading
# coroot (type A keeps one free direction from the two-dimensional Levi
# center); the special parameter values of the cubic span
EXPECTED = {
    ("A", 3): {"graded_dims": (1, 4, 5, 4, 1), "deleted": ((1,),),
               "levi_components": 2, "character_freedom": 1,
               "special_values": ()},
    ("D", 4): {"graded_dims": (1, 8, 10, 8, 1), "deleted": ((0,), (2,), (3,)),
               "levi_components": 1, "character_freedom": 0,
               "special_values": (Q(-1),)},
    ("D", 5): {"graded_dims": (1, 12, 19, 12, 1), "deleted": ((0,), (2, 3, 4)),
               "levi_components": 1, "character_freedom": 0,
               "special_values": ()},
}
CONTRACTION_CONSTANT = Q(2)   # uniform contraction ratio in the D4 system


@dataclass
class SuiteConfig:
    type_label: str = "D4"
    seed: int = 0xD4
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
        self._pi_special: dict[int, PolyDiffOp] = {}
        self._cubic_comms: dict[tuple[int, int], PolyDiffOp] = {}

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
        return VermaModule(self.env)

    @cached_property
    def omega(self) -> OmegaSystem:
        return OmegaSystem(self.env)

    @cached_property
    def calc(self) -> OperatorCalculus:
        return OperatorCalculus(self.alg)

    @cached_property
    def omega3_gens(self) -> list[Elt]:
        return self.omega.omega3_system()

    @cached_property
    def stability(self) -> StabilityResult:
        return self.verma.singular_values(self.omega3_gens)

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
    def cubic_elements(self) -> dict[int, Elt]:
        """The cubic element of each grade -1 basis vector, by index."""
        return dict(zip(self.alg.v_minus, self.omega3_gens))

    @cached_property
    def plus_and_center(self) -> list[int]:
        return list(self.alg.v_plus) + [self.alg.x_gamma]

    @cached_property
    def symbolic_functionals(self) -> dict[tuple[int, int], tuple[dict, dict]]:
        """Point functionals at the identity of [pi(X), R(w3_k)], s symbolic,
        as pairs (f0, f1) meaning f0 + s*f1, for X over the grade +1 root
        vectors and the central vector."""
        out = {}
        for xi in self.plus_and_center:
            pi_x = self.calc.pi_basis(xi)
            for k, op in enumerate(self.omega3_ops):
                out[(xi, k)] = commutator_at_identity(pi_x, op)
        return out

    def pi_special(self, i: int) -> PolyDiffOp:
        op = self._pi_special.get(i)
        if op is None:
            op = self.calc.pi_basis(i).subs_param(self.calc.s_var,
                                                  self.require_sstar())
            self._pi_special[i] = op
        return op

    def cubic_commutator(self, y_idx: int, k: int) -> PolyDiffOp:
        """[pi(X_y), R(w3_k)] at the special parameter value, memoized."""
        op = self._cubic_comms.get((y_idx, k))
        if op is None:
            op = self.pi_special(y_idx).commutator(self.omega3_ops[k])
            self._cubic_comms[(y_idx, k)] = op
        return op

    @cached_property
    def cubic_span(self) -> Span:
        """The span of the cubic elements in the module."""
        return Span(self.omega3_gens)

    @cached_property
    def functional_span(self) -> Span:
        """The span of the cubic operators' point functionals at the identity."""
        return Span([_keyed(_s_free(op)) for op in self.omega3_ops])

    @cached_property
    def action_matrices_special(self) -> dict[int, list[list[Q]]]:
        """Action matrix of each parabolic basis vector on the cubic span."""
        sstar = self.require_sstar()
        return {g: self.verma.module_action_matrix(self.cubic_span,
                                                   {g: Q(1)}, sstar)
                for g in self.alg.q_indices}

    @cached_property
    def b_matrices(self) -> dict[int, list[list[Q]]]:
        return _solve_b_matrices(self)


# ------------------------------------------------------------ shared helpers


def weighted_degree(alg: LieAlgebra, m) -> int:
    """PBW degree where the central generator counts twice."""
    return sum(e * (2 if i == alg.x_minus_gamma else 1) for i, e in m)


def _expected(alg: LieAlgebra, column: str):
    """alg's frozen expectation in one EXPECTED column; None for a type
    without a row."""
    return EXPECTED.get((alg.rs.spec.family, alg.rs.spec.rank), {}).get(column)


def _contraction_data(s: Session):
    """For every (X, Y) in V+ x V-, compare the contracted double bracket
    sum against the quadratic element of [X, Y]; returns ratio statistics."""
    alg, om = s.alg, s.omega
    ratios: set = set()
    nonzero_pairs = 0
    zero_anomalies = []
    proportional = True
    # the inner brackets [X_e, Y] are shared by every X, and [X, X_-e] by
    # every Y
    right = {(e, y): dict(alg.bracket(e, y))
             for e in alg.v_plus for y in alg.v_minus}
    for x in alg.v_plus:
        left = {e: alg.bracket_elem({x: 1}, {alg.opposite[e]: 1})
                for e in alg.v_plus}
        for y in alg.v_minus:
            # omega2 is linear over Q: sum the Levi elements, then apply it once
            levi: dict[int, Q] = {}
            for e in alg.v_plus:
                for k, c in alg.bracket_elem(left[e], right[e, y]).items():
                    levi[k] = levi.get(k, 0) + c
            acc = om.omega2(levi)
            target = om.omega2(dict(alg.bracket(x, y)))
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
            if elt_sub(acc, elt_scale(target, ratio)):
                proportional = False
            else:
                ratios.add(ratio)
    return ratios, nonzero_pairs, zero_anomalies, proportional


def _levi_equivariance(s: Session, elements: dict[int, Elt],
                       build: Callable[[dict], Elt], s0: Q) -> dict:
    """Check build([Z, w]) = Z.e at s0 + (1 - s0) dchi(Z) e for every
    generator Z of l and every e = elements[w]; returns the size of the
    acting set and the pair count.

    The generators are the grade-0 entries of LieAlgebra.q_generators.  They
    suffice: rho(Z) = (Z at s0) + (1 - s0) dchi(Z) is a representation of l,
    because dchi vanishes on [l, l].  build is linear with build(w) =
    elements[w], and the w span an ad(l)-stable space, so the Z with
    build([Z, w]) = rho(Z) build(w) for every w form a Lie subalgebra:
    holding on generators of l means holding on all of l.
    """
    alg, vm = s.alg, s.verma
    gens = [z for z in alg.q_generators if alg.grade[z] == 0]
    for z in gens:
        shift = (1 - s0) * alg.dchi_index(z)
        for w, e in elements.items():
            rhs = elt_add(elt_subs(vm.act_basis(z, e), s0),
                          elt_scale(e, shift))
            _ensure(not elt_sub(build(dict(alg.bracket(z, w))), rhs),
                    pair=[alg.names[z], alg.names[w]])
    return {"generators": len(gens), "pairs": len(gens) * len(elements)}


def _coroot_scalar(s: Session, elements: dict[int, Elt], degree: int,
                   s0: Q | None = None) -> str:
    """Check that the grading coroot acts on every element e by 2s - degree,
    with s symbolic (the pair (-degree*e, 2*e)) or at s0; returns that
    scalar."""
    alg, vm = s.alg, s.verma
    for w, e in elements.items():
        got = vm.act(alg.h_gamma, e)
        want = (elt_scale(e, -degree), elt_scale(e, 2))
        if s0 is not None:
            got, want = (elt_subs(got, s0),), (elt_subs(want, s0),)
        _ensure(_same(got, want), element=alg.names[w])
    return f"2s - {degree}" if s0 is None else qstr(2 * s0 - degree)


def _same(a: tuple[Elt, ...], b: tuple[Elt, ...]) -> bool:
    """Equality of module vectors given by their coefficients of s^0, s^1, ..."""
    return all(not elt_sub(u, v) for u, v in zip(a, b, strict=True))


def _act_twice(vm: VermaModule, x: int, y: int, v: Elt) -> tuple[Elt, Elt, Elt]:
    """X_x.(X_y.v) for an s-free v, as its coefficients of s^0, s^1 and s^2:
    X_y.v = w0 + s*w1, and X_x.(w0 + s*w1) = X_x.w0 + s*X_x.w1."""
    w0, w1 = vm.act_basis(y, v)
    a0, a1 = vm.act_basis(x, w0)
    b0, b1 = vm.act_basis(x, w1)
    return a0, elt_add(a1, b0), b1


def _nil_annihilation(s: Session, elements: dict[int, Elt], s0: Q) -> int:
    """Check that every nilradical basis vector annihilates every element at
    s0; returns the pair count."""
    alg, vm = s.alg, s.verma
    for u in alg.n_indices:
        for w, e in elements.items():
            _ensure(not elt_subs(vm.act({u: Q(1)}, e), s0),
                    pair=[alg.names[u], alg.names[w]])
    return len(alg.n_indices) * len(elements)


def _vanishing_at(s: Session, vectors, sstar: Q) -> int:
    """Check that the point functional at the identity of [pi(X), R(w3_k)]
    vanishes at sstar for every X in vectors and every cubic operator k;
    returns the commutator count."""
    m = len(s.omega3_ops)
    for x in vectors:
        for k in range(m):
            f0, f1 = s.symbolic_functionals[(x, k)]
            for der in f0.keys() | f1.keys():
                _ensure(f0.get(der, 0) + sstar * f1.get(der, 0) == 0,
                        vector=s.alg.names[x], column=k, derivative=list(der))
    return len(vectors) * m


def _s_free(op: PolyDiffOp) -> dict:
    """The point functional at the identity of an operator without s."""
    f0, f1 = op.at_identity()
    if f1:
        raise ValueError("point functional depends on s")
    return f0


def _keyed(func: dict) -> dict:
    """An s-free point functional keyed like a Span: each derivative
    multi-index d as the PBW monomial with exponents d, each value rational."""
    return {tuple((i, e) for i, e in enumerate(d) if e): c
            for d, c in func.items()}


def _solve_b_matrices(s: Session) -> dict[int, list[list[Q]]]:
    """For every basis vector Y solve the matrix b(Y) with
    [pi(Y), D_i] = sum_j b(Y)_{ji} D_j as point functionals at the identity."""
    span = s.functional_span
    m = len(s.omega3_ops)
    out: dict[int, list[list[Q]]] = {}
    for y in range(s.alg.dim):
        bmat = [[Q(0)] * m for _ in range(m)]
        for i in range(m):
            coords, left = span.reduce(_keyed(_s_free(s.cubic_commutator(y, i))))
            if left:
                raise CheckFailure({
                    "reason": "commutator functional outside the span",
                    "basis_vector": s.alg.names[y], "column": i})
            for j, c in coords.items():
                bmat[j][i] = c
        out[y] = bmat
    return out


def _identity_matrix(n: int, c: Q) -> list[list[Q]]:
    return [[c if i == j else Q(0) for j in range(n)] for i in range(n)]


def _structure_mismatches(s: Session, y: int, ops: list[PolyDiffOp],
                          comms: list[PolyDiffOp],
                          mats: dict[int, list[list[Q]]],
                          shift: Q = Q(0)) -> list[int]:
    """Columns i at which comms[i] = [pi_s(Y), D_i] differs from

        sum_r C_ri D_r,  C = sum_g AdInv(Y)_g mats[g] + shift dchi(AdInv(Y)_q),

    the matrix-valued structure function: constant matrices extended
    linearly over the coefficient functions of the inverse adjoint series
    AdInv(Y) = Ad(nbar^{-1}) Y (only basis vectors with a matrix contribute),
    with the character term on the diagonal.  The b matrices without a shift
    give the structure identity; the parabolic action matrices with shift -s
    give the induced-picture commutator formula."""
    calc, alg = s.calc, s.alg
    m = len(ops)
    adinv = calc.ad_inverse(y)
    c = [[calc.zero_op() for _ in range(m)] for _ in range(m)]
    for g, cg in adinv.items():
        mat = mats.get(g)
        if mat is None:
            continue
        for r in range(m):
            for i in range(m):
                if mat[r][i]:
                    c[r][i] = c[r][i] + cg * mat[r][i]
    if shift:
        dch = calc.dchi_ext({g: cg for g, cg in adinv.items()
                             if alg.grade[g] >= 0}) * shift
        for i in range(m):
            c[i][i] = c[i][i] + dch
    bad = []
    for i in range(m):
        rhs = calc.zero_op()
        for r in range(m):
            if c[r][i]:
                rhs = rhs + c[r][i] * ops[r]
        if comms[i] != rhs:
            bad.append(i)
    return bad


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
       "Jacobi identity over every basis triple")
def _chk_jacobi(s: Session) -> dict:
    s.alg.verify_jacobi()
    d = s.alg.dim
    return {"triples": d * (d - 1) * (d - 2) // 6}


@check("invariant_form", "core",
       "Invariant form: B(X_a, X_-a) = 1 for every root, Cartan block is the "
       "Gram matrix, and ad-invariance B([x,y],z) + B(y,[x,z]) = 0 holds on "
       "a seeded sample of basis triples")
def _chk_invariant_form(s: Session) -> dict:
    alg = s.alg
    for i, a in enumerate(alg.root_of):
        if a is None:
            continue
        j = alg.index_of_root[negate(a)]
        _ensure(alg.killing(i, j) == 1, root=alg.names[i])
    for si in range(alg.rank):
        for sj in range(alg.rank):
            hi, hj = alg.cartan_index[si], alg.cartan_index[sj]
            _ensure(alg.killing(hi, hj) == Q(alg.rs.gram[si][sj]),
                    cartan_pair=[si + 1, sj + 1])
    rng = s.rng("invariant-form")
    samples = 0
    for _ in range(60):
        x, y, z = (rng.randrange(alg.dim) for _ in range(3))
        lhs = alg.killing_elem(alg.bracket_elem({x: Q(1)}, {y: Q(1)}), {z: Q(1)})
        rhs = -alg.killing_elem({y: Q(1)},
                                alg.bracket_elem({x: Q(1)}, {z: Q(1)}))
        _ensure(lhs == rhs, triple=[alg.names[x], alg.names[y], alg.names[z]])
        samples += 1
    return {"root_pairs": sum(1 for r in alg.root_of if r is not None),
            "invariance_samples": samples}


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
        _ensure(not alg.bracket(alg.x_gamma, i), center_pair=alg.names[i])
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
    _ensure(alg.dchi(alg.h_gamma) == 2, value=qstr(alg.dchi(alg.h_gamma)))
    for i in alg.q_indices:
        if alg.root_of[i] is not None:
            _ensure(alg.dchi({i: Q(1)}, on_q=True) == 0, index=alg.names[i])
    for z in alg.l_indices:
        for w in alg.l_indices:
            br = alg.bracket_elem({z: Q(1)}, {w: Q(1)})
            _ensure(alg.dchi(br) == 0, pair=[alg.names[z], alg.names[w]])
    # freedom left on the Cartan: corank of the span of the Levi coroots
    # together with the grading coroot
    rows = []
    for i in alg.l_indices:
        r = alg.root_of[i]
        if r is not None:
            h = alg.h_of(r)
            rows.append([h.get(alg.cartan_index[k], Q(0))
                         for k in range(alg.rank)])
    rows.append([alg.h_gamma.get(alg.cartan_index[k], Q(0))
                 for k in range(alg.rank)])
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
        br = dict(alg.bracket(x, y))
        for v in states:
            lhs = tuple(elt_sub(a, b) for a, b in zip(_act_twice(vm, x, y, v),
                                                       _act_twice(vm, y, x, v)))
            _ensure(_same(lhs, vm.act(br, v) + ({},)),
                    pair=[alg.names[x], alg.names[y]],
                    state=env.format(v))
        pairs += 1
    return {"pairs": pairs, "states": len(states)}


@check("first_level_action", "core",
       "The span of the generators in filtration degree <= 1 is stable under "
       "the parabolic for every parameter value, with the expected explicit "
       "action formulas")
def _chk_first_level(s: Session) -> dict:
    alg, env, vm = s.alg, s.env, s.verma
    gens = [env.gen(i) for i in alg.nbar_indices]
    gens.append(env.one())
    res = vm.singular_values(gens)
    _ensure(res.all_s and res.levi_stable_all_s,
            all_s=res.all_s, constraints=res.constraint_count)
    checked = 0
    for gi in alg.nbar_indices:
        gen = env.gen(gi)
        for z in alg.l_indices:
            br = alg.bracket_elem({z: Q(1)}, {gi: Q(1)})
            expected = (env.from_lie(br), elt_scale(gen, alg.dchi({z: Q(1)})))
            _ensure(_same(vm.act_basis(z, gen), expected),
                    levi=alg.names[z], generator=alg.names[gi])
            checked += 1
        for u in alg.n_indices:
            br = alg.bracket_elem({u: Q(1)}, {gi: Q(1)})
            low = {i: c for i, c in br.items() if alg.grade[i] < 0}
            qpt = {i: c for i, c in br.items() if alg.grade[i] >= 0}
            expected = (env.from_lie(low),
                        elt_scale(env.one(), alg.dchi(qpt, on_q=True)))
            _ensure(_same(vm.act_basis(u, gen), expected),
                    nil=alg.names[u], generator=alg.names[gi])
            checked += 1
    return {"explicit_formulas": checked, "stable_for_all_s": True}


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
    return {"eigenvalue": _coroot_scalar(s, s.quadratic_elements, 2)}


@check("quadratic_equivariance", "core",
       "Adjoint equivariance of the quadratic assignment: for all Levi pairs "
       "(Z, W), ad(Z) applied to the quadratic element of W equals the "
       "quadratic element of [Z, W] minus the character of Z times the "
       "element, independently of s; it is checked for Z among the generators "
       "of l, which suffices: the Z for which it holds form a Lie subalgebra, "
       "because the character vanishes on [l, l]")
def _chk_quadratic_equivariance(s: Session) -> dict:
    return _levi_equivariance(s, s.quadratic_elements, s.omega.omega2, Q(0))


# ---------------------------------------------------------------- system scope


@check("contraction_identity", "system",
       "Summing the quadratic assignment over double brackets against the "
       "dual pair of the grade +1 basis contracts to exactly twice the "
       "quadratic element of the single bracket, for every (X, Y) in the "
       "product of the grade +1 and grade -1 spaces")
def _chk_contraction(s: Session) -> dict:
    ratios, nonzero_pairs, zero_anomalies, proportional = _contraction_data(s)
    _ensure(proportional and not zero_anomalies,
            proportional=proportional, zero_anomalies=zero_anomalies)
    _ensure(ratios == {CONTRACTION_CONSTANT},
            ratios=[qstr(r) for r in sorted(ratios)])
    _ensure(nonzero_pairs > 0, nonzero_pairs=nonzero_pairs)
    total = len(s.alg.v_plus) * len(s.alg.v_minus)
    return {"pairs": total, "nonzero_pairs": nonzero_pairs,
            "constant": qstr(CONTRACTION_CONSTANT),
            "constant_unique": True}


@check("cubic_nonzero", "system",
       "Every cubic element is nonzero, homogeneous of weighted degree 3 "
       "(the central generator counts twice), and the system has full rank "
       "at generic parameter values")
def _chk_cubic_nonzero(s: Session) -> dict:
    alg = s.alg
    for k, w3 in enumerate(s.omega3_gens):
        _ensure(bool(w3), index=alg.names[alg.v_minus[k]])
        for m in w3:
            _ensure(weighted_degree(alg, m) == 3,
                    index=alg.names[alg.v_minus[k]], monomial_degree=mono_degree(m))
    r = s.cubic_span.rank
    _ensure(r == len(alg.v_minus), rank=r, expected=len(alg.v_minus))
    return {"count": len(s.omega3_gens), "rank": r,
            "monomials": [len(w3) for w3 in s.omega3_gens]}


@check("special_value_unique", "system",
       "Requiring the cubic span to be parabolic-stable pins the induced "
       "parameter to exactly one rational value")
def _chk_special_value(s: Session) -> dict:
    res = s.stability
    _ensure(res.levi_stable_all_s, levi_stable=res.levi_stable_all_s)
    _ensure(not res.all_s, all_s=res.all_s)
    _ensure(len(res.values) == 1, values=[qstr(v) for v in res.values],
            constraints=res.constraint_count)
    expected = _expected(s.alg, "special_values")
    if expected is not None:
        _ensure(res.values == expected, values=[qstr(v) for v in res.values],
                expected=[qstr(v) for v in expected])
    return {"value": qstr(res.values[0]),
            "bundle_parameter": qstr(-res.values[0]),
            "constraints": res.constraint_count}


@check("quadratic_nilradical_annihilation", "system",
       "At the special parameter value the nilradical annihilates every "
       "quadratic element")
def _chk_quad_nil(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"pairs": _nil_annihilation(s, s.quadratic_elements, sstar),
            "at": qstr(sstar)}


@check("quadratic_weight_at_special", "system",
       "At the special parameter value s* the grading coroot acts on the "
       "quadratic elements by the scalar 2s* - 2 (-4 for D4)")
def _chk_quad_weight_special(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"eigenvalue": _coroot_scalar(s, s.quadratic_elements, 2, sstar)}


@check("quadratic_equivariance_at_special", "system",
       "At the special parameter value s* the quadratic element of a Levi "
       "bracket equals the module action plus (1 - s*) times the character "
       "multiple (twice it for D4), for all Levi pairs; it is checked for "
       "the acting Levi vector among the generators of l, which suffices: the "
       "vectors for which it holds form a Lie subalgebra, because the "
       "character vanishes on [l, l]")
def _chk_quad_equiv_special(s: Session) -> dict:
    sstar = s.require_sstar()
    return {**_levi_equivariance(s, s.quadratic_elements, s.omega.omega2,
                                 sstar),
            "at": qstr(sstar)}


@check("cubic_nilradical_annihilation", "system",
       "At the special parameter value the nilradical annihilates every "
       "cubic element")
def _chk_cubic_nil(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"pairs": _nil_annihilation(s, s.cubic_elements, sstar),
            "at": qstr(sstar)}


@check("cubic_weight_at_special", "system",
       "The grading coroot acts on every cubic element by 2s - 3 "
       "symbolically, hence by 2s* - 3 at the special parameter value s* "
       "(-5 for D4)")
def _chk_cubic_weight(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"eigenvalue": _coroot_scalar(s, s.cubic_elements, 3),
            "at_special": qstr(2 * sstar - 3)}


@check("cubic_equivariance_at_special", "system",
       "At the special parameter value s* the cubic element of a Levi bracket "
       "equals the module action plus (1 - s*) times the character multiple "
       "(twice it for D4), for every Levi vector against every grade -1 "
       "basis vector; it is checked for the Levi vector among the generators "
       "of l, which suffices: the vectors for which it holds form a Lie "
       "subalgebra, because the character vanishes on [l, l]")
def _chk_cubic_equiv(s: Session) -> dict:
    sstar = s.require_sstar()
    return {**_levi_equivariance(s, s.cubic_elements, s.omega.omega3, sstar),
            "at": qstr(sstar)}


@check("basis_independence", "system",
       "Recomputing the cubic elements from randomized bases of the grade +1 "
       "space with their invariant-form duals reproduces them exactly")
def _chk_basis_independence(s: Session) -> dict:
    alg, om = s.alg, s.omega
    m = len(alg.v_plus)
    rng = s.rng("basis-independence")
    trials = 0
    for trial in range(5):
        while True:
            a = [[Q(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
            binv = inverse(a)
            if binv is not None:
                break
        w_basis = [{alg.v_plus[j]: a[i][j] for j in range(m) if a[i][j]}
                   for i in range(m)]
        w_dual = [{alg.opposite[alg.v_plus[k]]: binv[k][i]
                   for k in range(m) if binv[k][i]} for i in range(m)]
        for i in range(m):
            for j in range(m):
                got = alg.killing_elem(w_basis[i], w_dual[j])
                _ensure(got == (1 if i == j else 0), trial=trial,
                        pair=[i, j], value=qstr(got))
        for k, y in enumerate(alg.v_minus):
            rebuilt = om.omega3_from_basis(w_basis, w_dual, y)
            _ensure(not elt_sub(rebuilt, s.omega3_gens[k]),
                    trial=trial, index=alg.names[y])
        trials += 1
    return {"trials": trials, "basis_size": m}


@check("pi_first_order", "system",
       "Every induced-picture operator has order at most 1, and operators of "
       "nilradical vectors have vanishing point functional at the identity "
       "for every parameter value")
def _chk_pi_first_order(s: Session) -> dict:
    alg, calc = s.alg, s.calc
    for i in range(alg.dim):
        op = calc.pi_basis(i)
        _ensure(op.order() <= 1, index=alg.names[i], order=op.order())
    for u in alg.n_indices:
        f0, f1 = calc.pi_basis(u).at_identity()
        _ensure(not f0 and not f1, nil=alg.names[u])
    return {"operators": alg.dim, "nil_vanishing": len(alg.n_indices)}


@check("pi_homomorphism", "system",
       "The induced-picture assignment is a Lie algebra homomorphism: "
       "operator commutators match bracket operators for every unordered "
       "basis pair, with s symbolic")
def _chk_pi_hom(s: Session) -> dict:
    alg, calc = s.alg, s.calc
    pairs = 0
    for i in range(alg.dim):
        pi_i = calc.pi_basis(i)
        for j in range(i + 1, alg.dim):
            lhs = pi_i.commutator(calc.pi_basis(j))
            rhs = calc.zero_op()
            for k, c in alg.bracket(i, j):
                rhs = rhs + calc.pi_basis(k) * c
            _ensure(lhs == rhs, pair=[alg.names[i], alg.names[j]])
            pairs += 1
    return {"pairs": pairs}


@check("nbar_commutant", "system",
       "Operators of the opposite radical commute with the right-action "
       "operator of every enveloping monomial of degree at most 3, with s "
       "symbolic")
def _chk_nbar_commutant(s: Session) -> dict:
    alg, calc, env = s.alg, s.calc, s.env
    monos = monomials_up_to(alg.nbar_indices, 3)
    count = 0
    for xb in alg.nbar_indices:
        pi_x = calc.pi_basis(xb)
        for m in monos:
            r_u = calc.r_mono(m)
            _ensure(not pi_x.commutator(r_u),
                    vector=alg.names[xb], monomial=env.format({m: 1}))
            count += 1
    return {"commutators": count, "monomials": len(monos)}


@check("picture_consistency", "system",
       "The right-action operator of each cubic element equals the "
       "contracted composition of first-order right actions with quadratic "
       "right actions, term by term over the dual pair of the grade +1 basis")
def _chk_picture_consistency(s: Session) -> dict:
    alg, calc, om = s.alg, s.calc, s.omega
    for k, y in enumerate(alg.v_minus):
        acc = calc.zero_op()
        for e_idx in alg.v_plus:
            br = dict(alg.bracket(e_idx, y))
            if not br:
                continue
            w2 = om.omega2(br)
            if not w2:
                continue
            acc = acc + calc.r_gen(alg.opposite[e_idx]).compose(
                calc.r_op(w2))
        _ensure(acc == s.omega3_ops[k], index=alg.names[y])
    return {"elements": len(alg.v_minus)}


@check("first_order_commutator_formula", "system",
       "At the special parameter value, the commutator of an induced-picture "
       "operator of a grade >= 1 vector with a first-order right action "
       "reduces to a right action of the adjoint-transported bracket minus "
       "its Levi character multiple: for grade -1 right factors only the "
       "grade -1 projection contributes (the central component cancels), "
       "while for the central right factor the full opposite-radical "
       "projection contributes")
def _chk_first_order_formula(s: Session) -> dict:
    sstar = s.require_sstar()
    alg, calc = s.alg, s.calc
    count = 0
    for x in s.plus_and_center:
        pi_x = s.pi_special(x)
        adinv = calc.ad_inverse(x)
        for yb in alg.nbar_indices:
            lhs = pi_x.commutator(calc.r_gen(yb))
            t = alg.bracket_elem(adinv, {yb: 1})
            q_part = {i: c for i, c in t.items() if alg.grade[i] >= 0}
            if yb == alg.x_minus_gamma:
                low_part = {i: c for i, c in t.items() if alg.grade[i] < 0}
            else:
                low_part = {i: c for i, c in t.items() if alg.grade[i] == -1}
            rhs = calc.r_ext(low_part) + calc.dchi_ext(q_part) * sstar
            _ensure(lhs == rhs, pair=[alg.names[x], alg.names[yb]])
            count += 1
    return {"pairs": count, "at": qstr(sstar)}


@check("quadratic_commutator_formula", "system",
       "A D4 identity: at the special parameter value, the commutator of an "
       "induced-picture operator of a grade >= 1 vector with a quadratic right "
       "action equals the coefficient-extended quadratic right action of the "
       "adjoint-transported Levi bracket minus the transported character "
       "multiple of the original operator")
def _chk_quadratic_formula(s: Session) -> dict:
    sstar = s.require_sstar()
    alg, calc, om = s.alg, s.calc, s.omega
    count = 0
    for x in s.plus_and_center:
        pi_x = s.pi_special(x)
        adinv = calc.ad_inverse(x)
        q_adinv = {i: c for i, c in adinv.items() if alg.grade[i] >= 0}
        dch = calc.dchi_ext(q_adinv)
        for w in alg.l_indices:
            w2 = om.omega2_basis(w)
            r_w2 = calc.r_op(w2)
            lhs = pi_x.commutator(r_w2)
            t = alg.bracket_elem(adinv, {w: 1})
            rhs = -(dch * r_w2)
            for z, cz in t.items():
                if alg.grade[z] != 0:
                    continue
                r_z = calc.r_op(om.omega2_basis(z))
                if r_z:
                    rhs = rhs + cz * r_z
            _ensure(lhs == rhs, pair=[alg.names[x], alg.names[w]])
            count += 1
    return {"pairs": count, "at": qstr(sstar)}


@check("main_vanishing", "system",
       "At the special parameter value, the commutator of the operator of "
       "every grade +1 basis vector with every cubic operator has vanishing "
       "point functional at the identity")
def _chk_main_vanishing(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"commutators": _vanishing_at(s, s.alg.v_plus, sstar),
            "at": qstr(sstar)}


@check("center_vanishing", "system",
       "At the special parameter value, the commutator of the central "
       "vector's operator with every cubic operator has vanishing point "
       "functional at the identity")
def _chk_center_vanishing(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"commutators": _vanishing_at(s, [s.alg.x_gamma], sstar),
            "at": qstr(sstar)}


@check("operator_special_value_set", "system",
       "The set of parameter values at which all grade >= 1 commutator "
       "functionals vanish, computed on the operator side alone, is exactly "
       "the singleton found by the module-side solver")
def _chk_operator_s_set(s: Session) -> dict:
    sstar = s.require_sstar()
    funcs = s.symbolic_functionals.values()
    # one affine pair per derivative with a nonzero coefficient
    pairs = [(f0.get(d, 0), f1.get(d, 0))
             for f0, f1 in funcs for d in f0.keys() | f1.keys()]
    _ensure(len(pairs) > 0, nonzero_entries=len(pairs))
    degree, root = common_root(pairs)
    _ensure(degree == 1, gcd_degree=degree)
    _ensure(root == sstar, roots=[qstr(root)], expected=qstr(sstar))
    return {"functionals": len(funcs), "nonzero_polynomials": len(pairs),
            "gcd_degree": degree, "value": qstr(sstar)}


@check("pointwise_independence", "system",
       "The point functionals of the cubic operators at the identity are "
       "linearly independent")
def _chk_pointwise_independence(s: Session) -> dict:
    span = s.functional_span
    _ensure(span.rank == len(span.gens), rank=span.rank,
            operators=len(span.gens))
    return {"rank": span.rank, "support": len(span.col)}


@check("b_matrix", "system",
       "At the special parameter value there is a matrix realization of the "
       "algebra on the cubic span: commutators with cubic operators close at "
       "the identity, the opposite radical and nilradical map to zero, the "
       "grading coroot maps to -3 times the identity, and parabolic entries "
       "match the module action matrices shifted by the character")
def _chk_b_matrix(s: Session) -> dict:
    sstar = s.require_sstar()
    alg = s.alg
    m = len(s.omega3_ops)
    bmats = s.b_matrices
    zero = _identity_matrix(m, Q(0))
    for xb in alg.nbar_indices:
        _ensure(bmats[xb] == zero, vector=alg.names[xb],
                reason="opposite radical must act by zero")
    for u in alg.n_indices:
        _ensure(bmats[u] == zero, vector=alg.names[u],
                reason="nilradical must act by zero")
    b_h = [[sum(c * bmats[i][r][k] for i, c in alg.h_gamma.items())
            for k in range(m)] for r in range(m)]
    _ensure(b_h == _identity_matrix(m, Q(-3)),
            reason="grading coroot must act by -3")
    action = s.action_matrices_special
    for g in alg.q_indices:
        dg = alg.dchi({g: Q(1)}, on_q=True)
        expected = [[action[g][r][k] - (sstar * dg if r == k else Q(0))
                     for k in range(m)] for r in range(m)]
        _ensure(bmats[g] == expected, vector=alg.names[g],
                reason="parabolic entry mismatch against module action")
    return {"basis_vectors": alg.dim, "size": m,
            "coroot_scalar": "-3", "at": qstr(sstar)}


@check("structure_operator", "system",
       "The full commutator identity holds as polynomial differential "
       "operators: for every basis vector Y, the commutator with each cubic "
       "operator equals the cubic operators weighted by the matrix-valued "
       "structure function, the constant matrix realization composed with "
       "the inverse adjoint transport")
def _chk_structure_operator(s: Session) -> dict:
    sstar = s.require_sstar()
    alg = s.alg
    m = len(s.omega3_ops)
    bmats = s.b_matrices
    for y in range(alg.dim):
        comms = [s.cubic_commutator(y, i) for i in range(m)]
        bad = _structure_mismatches(s, y, s.omega3_ops, comms, bmats)
        _ensure(not bad, vector=alg.names[y], column=bad[0] if bad else None)
    return {"identities": alg.dim * m, "at": qstr(sstar)}


@check("induced_bridge_small", "system",
       "The induced-picture commutator formula against the degree <= 1 "
       "spanning set holds as an operator identity for every basis vector "
       "at three distinct parameter values, using the module action "
       "matrices transported by the inverse adjoint series")
def _chk_bridge_small(s: Session) -> dict:
    alg, env, calc, vm = s.alg, s.env, s.calc, s.verma
    gens = [env.gen(i) for i in alg.nbar_indices] + [env.one()]
    ops = [calc.r_gen(i) for i in alg.nbar_indices] + [calc.identity_op()]
    span = Span(gens)
    svalues = [s.require_sstar(), Q(0), Q(5, 2)]
    total = 0
    for s0 in svalues:
        action = {g: vm.module_action_matrix(span, {g: Q(1)}, s0)
                  for g in alg.q_indices}
        for y in range(alg.dim):
            pi_y = calc.pi_basis(y).subs_param(calc.s_var, s0)
            comms = [pi_y.commutator(op) for op in ops]
            bad = len(_structure_mismatches(s, y, ops, comms, action, -s0))
            _ensure(bad == 0, vector=alg.names[y], s=qstr(s0), mismatches=bad)
            total += len(ops)
    return {"identities": total, "parameter_values": [qstr(v) for v in svalues]}


@check("induced_bridge_cubic", "system",
       "The induced-picture commutator formula against the cubic span holds "
       "as an operator identity for every basis vector at the special "
       "parameter value")
def _chk_bridge_cubic(s: Session) -> dict:
    sstar = s.require_sstar()
    alg = s.alg
    m = len(s.omega3_ops)
    action = s.action_matrices_special
    total = 0
    for y in range(alg.dim):
        comms = [s.cubic_commutator(y, i) for i in range(m)]
        bad = len(_structure_mismatches(s, y, s.omega3_ops, comms, action,
                                        -sstar))
        _ensure(bad == 0, vector=alg.names[y], mismatches=bad)
        total += m
    return {"identities": total, "at": qstr(sstar)}


@check("reducibility_witness", "system",
       "The cubic span generates a proper nonzero submodule of the induced "
       "module at the special parameter value: it is parabolic-stable, the "
       "map sending u tensor f to u acting on f is equivariant on algebra "
       "generators, multiplication preserves the weighted-degree floor, and "
       "the span's coroot eigenvalue differs from the cyclic vector's")
def _chk_reducibility(s: Session) -> dict:
    sstar = s.require_sstar()
    alg, env, vm = s.alg, s.env, s.verma
    m = len(s.omega3_ops)
    # parabolic stability with nilradical acting by zero
    action = s.action_matrices_special
    for u in alg.n_indices:
        _ensure(all(not c for row in action[u] for c in row),
                nil=alg.names[u])
    # equivariance of u tensor f -> u . f on algebra generators:
    # parabolic vectors act through the action matrices, opposite-radical
    # vectors act by left multiplication
    checked = 0
    for y in range(alg.dim):
        for k in range(m):
            got = elt_subs(vm.act({y: Q(1)}, s.omega3_gens[k]), sstar)
            if alg.grade[y] >= 0:
                expected: Elt = {}
                for r in range(m):
                    c = action[y][r][k]
                    if c:
                        expected = elt_add(expected,
                                           elt_scale(s.omega3_gens[r], c))
            else:
                expected = env.mul(env.gen(y), s.omega3_gens[k])
            _ensure(not elt_sub(got, expected),
                    vector=alg.names[y], column=k)
            checked += 1
    # multiplying by opposite-radical generators raises weighted degree by
    # exactly the generator weight, so the submodule keeps degree >= 3 and
    # misses the cyclic vector: the submodule is proper and nonzero
    for g in alg.nbar_indices:
        wg = 2 if g == alg.x_minus_gamma else 1
        for mono in monomials_up_to(alg.nbar_indices, 3):
            prod = env.mono_times_gen(mono, g)
            for m2 in prod:
                _ensure(weighted_degree(alg, m2)
                        == weighted_degree(alg, mono) + wg,
                        generator=alg.names[g])
    floor = min(weighted_degree(alg, mono)
                for w3 in s.omega3_gens for mono in w3)
    _ensure(floor == 3, weighted_degree_floor=floor)
    # the span cannot contain the cyclic vector: coroot eigenvalues differ
    eig_span = 2 * sstar - 3
    eig_cyclic = 2 * sstar
    _ensure(eig_span != eig_cyclic,
            span=qstr(eig_span), cyclic=qstr(eig_cyclic))
    return {"equivariance_identities": checked,
            "weighted_degree_floor": floor,
            "span_eigenvalue": qstr(eig_span),
            "cyclic_eigenvalue": qstr(eig_cyclic)}


# --------------------------------------------------------------- control scope


def _failure_mode(s: Session) -> str | None:
    """Why the cubic span carries no special value; None if it carries one."""
    res = s.stability
    if res.values or res.all_s:
        return None
    if not all(s.omega3_gens):
        return "omega3_degenerate"
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
    wanted = {"core", "system" if expect_system else "control"}
    return [name for name, (scope, _, _) in CHECKS.items() if scope in wanted]


def run_single(session: Session, name: str) -> CheckResult:
    scope, statement, fn = CHECKS[name]
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
