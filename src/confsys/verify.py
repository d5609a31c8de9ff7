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
from .diffops import (OperatorCalculus, PolyDiffOp, commutator_at_identity,
                      sum_products)
from .liealg import LieAlgebra
from .linalg import common_root, rank
from .memo import memo
from .omega import OmegaSystem
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
CONTRACTION_CONSTANT = Q(2)   # uniform contraction ratio in the D4 system
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
        for X over the nilradical: the grade +1 root vectors and the
        central vector."""
        out = {}
        for xi in self.alg.n_indices:
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
    def first_level_span(self) -> Span:
        """The span of the generators in filtration degree <= 1: the nbar
        generators and 1."""
        env = self.env
        return Span([env.gen(i) for i in self.alg.nbar_indices] + [env.one()])

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
        """For every basis vector Y the matrix b(Y) with [pi(Y), D_i] =
        sum_j b(Y)_{ji} D_j as point functionals at the identity."""
        out = {}
        for y in range(self.alg.dim):
            cols = [self.functional_span.coordinates(
                *self.cubic_commutator(y, i).at_identity())
                for i in range(len(self.omega3_ops))]
            if None in cols:
                raise CheckFailure({
                    "reason": "commutator functional outside the span",
                    "basis_vector": self.alg.names[y], "column": cols.index(None)})
            out[y] = [list(row) for row in zip(*cols)]
        return out


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
        shift = (1 - s0) * alg.dchi_on_basis[z]
        for w, e in elements.items():
            rhs = elt_add(elt_subs(vm.act_basis(z, e), s0),
                          elt_scale(e, shift))
            _ensure(build(dict(alg.table[z][w])) == rhs,
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
            got, want = elt_subs(got, s0), elt_subs(want, s0)
        _ensure(got == want, element=alg.names[w])
    return f"2s - {degree}" if s0 is None else qstr(2 * s0 - degree)


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
            _ensure(not elt_subs(vm.act_basis(u, e), s0),
                    pair=[alg.names[u], alg.names[w]])
    return len(alg.n_indices) * len(elements)


def _vanishing_at(s: Session, vectors, sstar: Q) -> int:
    """Check that the point functional at the identity of [pi(X), R(w3_k)]
    vanishes at sstar for every X in vectors and every cubic operator k;
    returns the commutator count."""
    m = len(s.omega3_ops)
    for x in vectors:
        for k in range(m):
            for der, (a0, a1) in s.symbolic_functionals[(x, k)][1].items():
                if a0 + sstar * a1:
                    raise CheckFailure({
                        "vector": s.alg.names[x], "column": k, "derivative":
                        [dict(der).get(i, 0) for i in range(s.calc.ncoords)]})
    return len(vectors) * m


def _identity_matrix(n: int, c: Q) -> list[list[Q]]:
    return [[c if i == j else Q(0) for j in range(n)] for i in range(n)]


def _contract(s: Session, ops: list[PolyDiffOp],
              mats: dict[int, list[list[Q]]],
              shift: Q = Q(0)) -> dict[int, list[PolyDiffOp]]:
    """Each constant matrix M_g = mats[g] + shift dchi(g) 1 contracted with
    the operators once: E[g][i] = sum_r M_g[r][i] ops[r], for every g with a
    matrix.  With a shift, mats must hold the matrix of every basis vector
    of the parabolic q, where dchi is defined."""
    calc, n = s.calc, s.calc.ncoords
    out = {}
    for g, mat in mats.items():
        diag = shift * s.alg.dchi_on_basis[g] if shift else 0
        cols = []
        for i in range(len(ops)):
            pairs = []
            for r, op in enumerate(ops):
                c = mat[r][i] + diag if r == i else mat[r][i]
                if c:
                    pairs.append((calc.const(c), op))
            cols.append(sum_products(n, pairs))
        out[g] = cols
    return out


def _structure_mismatches(s: Session, y: int, comms: list[PolyDiffOp],
                          contracted: dict[int, list[PolyDiffOp]]) -> list[int]:
    """Columns i at which comms[i] = [pi_s(Y), D_i] differs from

        sum_r C_ri D_r = sum_g AdInv(Y)_g o E[g][i],  C = sum_g AdInv(Y)_g M_g,

    the matrix-valued structure function: the constant matrices M_g
    extended linearly over the coefficient functions of the inverse adjoint
    series AdInv(Y) = Ad(nbar^{-1}) Y (only basis vectors with a matrix
    contribute), each given contracted with the D_r as E[g] (_contract), so
    a column is one sum of products.  The b matrices without a shift give
    the structure identity; the parabolic action matrices with shift -s,
    the character term on the diagonal, give the induced-picture commutator
    formula."""
    n = s.calc.ncoords
    terms = [(cg, contracted[g]) for g, cg in s.calc.ad_inverse(y).items()
             if g in contracted]
    return [i for i, comm in enumerate(comms)
            if comm != sum_products(n, [(cg, e[i]) for cg, e in terms if e[i]])]


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
       "The span of the generators in filtration degree <= 1 is stable under "
       "the parabolic for every parameter value, with the expected explicit "
       "action formulas")
def _chk_first_level(s: Session) -> dict:
    alg, env, vm = s.alg, s.env, s.verma
    res = vm.singular_values(s.first_level_span)
    _ensure(res.all_s and res.levi_stable_all_s,
            all_s=res.all_s, constraints=res.constraint_count)
    # the expected images, in ints from the bracket table and the character:
    # Z.Y = [Z, Y] + s dchi(Z) Y for Z in l, and U.Y = [U, Y]_nbar +
    # s dchi([U, Y]_q) for U in n
    table, dchi, grade = alg.table, alg.dchi_on_basis, alg.grade
    checked = 0
    for gi in alg.nbar_indices:
        gen = env.gen(gi)
        for z in alg.l_indices:
            expected = ({((k, 1),): c for k, c in table[z][gi]},
                        {((gi, 1),): dchi[z]} if dchi[z] else {})
            _ensure(vm.act_basis(z, gen) == expected,
                    levi=alg.names[z], generator=alg.names[gi])
            checked += 1
        for u in alg.n_indices:
            low, value = {}, 0
            for k, c in table[u][gi]:
                if grade[k] < 0:
                    low[((k, 1),)] = c
                else:
                    value += c * dchi[k]
            expected = (low, {(): value} if value else {})
            _ensure(vm.act_basis(u, gen) == expected,
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


def _unimodular_pair(m: int) -> tuple[list[list[int]], list[list[int]]]:
    """The m x m matrix a_ij = min(i, j) + 1, all-ones lower times upper
    unitriangular so det a = 1, and its inverse, the second-difference matrix
    (2 on the diagonal but 1 in the last corner, -1 beside the diagonal)."""
    a = [[min(i, j) + 1 for j in range(m)] for i in range(m)]
    inv = [[(2 if i < m - 1 else 1) if i == j else -(abs(i - j) == 1)
            for j in range(m)] for i in range(m)]
    return a, inv


@check("basis_independence", "system",
       "Recomputing the cubic elements over other dual bases reproduces them "
       "exactly: trial t (0 to 4) takes the basis w of the grade +1 space and "
       "its invariant-form dual w* from the matrix a_ij = min(i, j) + 1 (i, j "
       "from 0; w for t even, w* for t odd) and its inverse, the "
       "second-difference matrix, both over the root vectors relabelled by a "
       "cyclic shift of t; on each trial the duality holds, the tensor sum_i "
       "w_i (x) w*_i equals the root tensor sum_b X_b (x) X_-b, and each cubic "
       "element is rebuilt once, the k-th in trial k mod 5; this suffices, "
       "since the contraction is bilinear in (w, w*), so the rebuilt elements "
       "depend on the bases only through that tensor")
def _chk_basis_independence(s: Session) -> dict:
    alg, om = s.alg, s.omega
    m = len(alg.v_plus)
    rebuilt = []
    for trial in range(5):
        a, inv = _unimodular_pair(m)
        p, q = (a, inv) if trial % 2 == 0 else (inv, a)
        plus = alg.v_plus[trial % m:] + alg.v_plus[:trial % m]
        # w_i = sum_j p_ij X_b_j and w*_i = sum_k q_ki X_-b_k over the shifted
        # root vectors: duality is p q = I, and sum_i w_i (x) w*_i is the root
        # tensor iff q p = I, its coefficient on X_b_j (x) X_-b_k being (q p)_kj
        w_basis = [{plus[j]: p[i][j] for j in range(m) if p[i][j]}
                   for i in range(m)]
        w_dual = [{alg.opposite[plus[k]]: q[k][i] for k in range(m) if q[k][i]}
                  for i in range(m)]
        for i in range(m):
            for j in range(m):
                got = alg.killing_elem(w_basis[i], w_dual[j])
                _ensure(got == int(i == j), trial=trial, pair=[i, j],
                        value=qstr(got))
        _ensure(all(sum(q[k][i] * p[i][j] for i in range(m)) == int(j == k)
                    for j in range(m) for k in range(m)),
                trial=trial, reason="basis tensor differs from the root tensor")
        names = []
        for k in range(trial, len(alg.v_minus), 5):
            y = alg.v_minus[k]
            _ensure(om.omega3_from_basis(w_basis, w_dual, {y: 1})
                    == s.omega3_gens[k], trial=trial, index=alg.names[y])
            names.append(alg.names[y])
        rebuilt.append(names)
    return {"trials": len(rebuilt), "basis_size": m,
            "tensor_entries": len(rebuilt) * m * m, "rebuilt": rebuilt}


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
        _ensure(not calc.pi_basis(u).at_identity()[1], nil=alg.names[u])
    return {"operators": alg.dim, "nil_vanishing": len(alg.n_indices)}


@check("pi_homomorphism", "system",
       "The induced-picture assignment is a Lie algebra homomorphism: "
       "operator commutators match bracket operators, with s symbolic, for X "
       "among the Chevalley generators and every other basis vector Y; this "
       "suffices, since pi is linear, so by the Jacobi identity in g and in "
       "the operator algebra the X with [pi(X), pi(Y)] = pi([X, Y]) for all Y "
       "form a Lie subalgebra, and the generators generate g")
def _chk_pi_hom(s: Session) -> dict:
    alg, calc, n = s.alg, s.calc, s.calc.ncoords
    pairs = 0
    for g in alg.chevalley_generators:
        pi_g = calc.pi_basis(g)
        for y in range(alg.dim):
            if y == g:
                continue
            lhs = pi_g.commutator(calc.pi_basis(y))
            rhs = sum_products(n, ((calc.const(c), calc.pi_basis(k))
                                   for k, c in alg.table[g][y]))
            _ensure(lhs == rhs, pair=[alg.names[g], alg.names[y]])
            pairs += 1
    return {"generators": len(alg.chevalley_generators), "pairs": pairs}


@check("nbar_commutant", "system",
       "Operators of the opposite radical commute with the right-action "
       "operator of every enveloping monomial, with s symbolic; it is checked "
       "on the monomials of degree at most 1, which suffices: the operators "
       "commuting with a given operator form an associative subalgebra, and "
       "the right action of a monomial is the composition of the first-order "
       "right actions over its word")
def _chk_nbar_commutant(s: Session) -> dict:
    alg, calc, env = s.alg, s.calc, s.env
    monos = monomials_up_to(alg.nbar_indices, 1)
    count = 0
    for xb in alg.nbar_indices:
        pi_x = calc.pi_basis(xb)
        for m in monos:
            _ensure(not pi_x.commutator(calc.r_mono(m)),
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
        pairs = [(calc.r_gen(alg.opposite[e]), calc.r_op(w2))
                 for e in alg.v_plus
                 if (br := alg.table[e][y]) and (w2 := om.omega2(dict(br)))]
        _ensure(sum_products(calc.ncoords, pairs) == s.omega3_ops[k],
                index=alg.names[y])
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
    for x in alg.n_indices:
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
    alg, calc, ops = s.alg, s.calc, s.quadratic_ops
    count = 0
    for x in alg.n_indices:
        pi_x = s.pi_special(x)
        adinv = calc.ad_inverse(x)
        q_adinv = {i: c for i, c in adinv.items() if alg.grade[i] >= 0}
        minus_dch = -calc.dchi_ext(q_adinv)
        for w in alg.l_indices:
            lhs = pi_x.commutator(ops[w])
            t = alg.bracket_elem(adinv, {w: 1})
            rhs = sum_products(calc.ncoords, [(minus_dch, ops[w])] + [
                (cz, ops[z]) for z, cz in t.items()
                if alg.grade[z] == 0 and ops[z]])
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
    # one affine pair per derivative with a nonzero coefficient; the root of
    # a pair does not depend on its functional's den
    pairs = [pair for _, func in funcs for pair in func.values()]
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
        dg = alg.dchi_on_basis[g]
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
    contracted = _contract(s, s.omega3_ops, s.b_matrices)
    for y in range(alg.dim):
        comms = [s.cubic_commutator(y, i) for i in range(m)]
        bad = _structure_mismatches(s, y, comms, contracted)
        _ensure(not bad, vector=alg.names[y], column=bad[0] if bad else None)
    return {"identities": alg.dim * m, "at": qstr(sstar)}


@check("induced_bridge_small", "system",
       "The induced-picture commutator formula against the degree <= 1 "
       "spanning set holds as an operator identity for every basis vector "
       "at three distinct parameter values, using the module action "
       "matrices transported by the inverse adjoint series")
def _chk_bridge_small(s: Session) -> dict:
    alg, calc, vm = s.alg, s.calc, s.verma
    ops = [calc.r_gen(i) for i in alg.nbar_indices] + [calc.identity_op()]
    span = s.first_level_span
    svalues = [s.require_sstar(), Q(0), Q(5, 2)]
    total = 0
    for s0 in svalues:
        contracted = _contract(s, ops, {g: vm.module_action_matrix(span, g, s0)
                                        for g in alg.q_indices}, -s0)
        for y in range(alg.dim):
            pi_y = calc.pi_basis(y).subs_param(s0)
            comms = [pi_y.commutator(op) for op in ops]
            bad = len(_structure_mismatches(s, y, comms, contracted))
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
    contracted = _contract(s, s.omega3_ops, s.action_matrices_special, -sstar)
    total = 0
    for y in range(alg.dim):
        comms = [s.cubic_commutator(y, i) for i in range(m)]
        bad = len(_structure_mismatches(s, y, comms, contracted))
        _ensure(bad == 0, vector=alg.names[y], mismatches=bad)
        total += m
    return {"identities": total, "at": qstr(sstar)}


@check("reducibility_witness", "system",
       "The cubic span generates a proper nonzero submodule of the induced "
       "module at the special parameter value: it is parabolic-stable, the "
       "map sending u tensor f to u acting on f is equivariant on the "
       "Chevalley generators, multiplication preserves the weighted-degree "
       "floor, and the span's coroot eigenvalue differs from the cyclic "
       "vector's; equivariance on the generators suffices: the map is linear "
       "and both sides are actions of g, so the y under which it is "
       "equivariant form a Lie subalgebra, and the generators generate g")
def _chk_reducibility(s: Session) -> dict:
    sstar = s.require_sstar()
    alg, env, vm = s.alg, s.env, s.verma
    m = len(s.omega3_ops)
    # parabolic stability with nilradical acting by zero
    action = s.action_matrices_special
    for u in alg.n_indices:
        _ensure(all(not c for row in action[u] for c in row),
                nil=alg.names[u])
    # equivariance of u tensor f -> u . f on the Chevalley generators:
    # parabolic vectors act through the action matrices, opposite-radical
    # vectors act by left multiplication
    checked = 0
    for y in alg.chevalley_generators:
        for k in range(m):
            got = elt_subs(vm.act_basis(y, s.omega3_gens[k]), sstar)
            if alg.grade[y] >= 0:
                expected: Elt = {}
                for r in range(m):
                    c = action[y][r][k]
                    if c:
                        expected = elt_add(expected,
                                           elt_scale(s.omega3_gens[r], c))
            else:
                expected = env.mul(env.gen(y), s.omega3_gens[k])
            _ensure(got == expected, vector=alg.names[y], column=k)
            checked += 1
    # multiplying by opposite-radical generators raises weighted degree by
    # exactly the generator weight, so the submodule keeps degree >= 3 and
    # misses the cyclic vector: the submodule is proper and nonzero
    monos = monomials_up_to(alg.nbar_indices, 3)
    for g in alg.nbar_indices:
        wg = 2 if g == alg.x_minus_gamma else 1
        for mono in monos:
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
    return {"generators": len(alg.chevalley_generators),
            "equivariance_identities": checked,
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
