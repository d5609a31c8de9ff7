"""The system scope: existence and invariance of the cubic system, the
checks expected to pass on D4.

Importing this module registers its checks in verify.CHECKS, beside the
core and control checks.  Most of them read the induced-picture operators,
so this is the one module that imports confsys.diffops at module level, and
verify imports it only for a system run (available_checks, run_single): a
control run never compiles the operator side.  The shared state, operator
artifacts included, stays on verify.Session.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from typing import Callable

from .diffops import PolyDiffOp, sum_products
from .liealg import LieAlgebra
from .linalg import common_root
from .pbw import Elt, elt_add, elt_scale, monomials_up_to
from .report import qstr
from .verify import (CheckFailure, Session, _as_ints, _contraction_data,
                     _ensure, _expected, _levi_action, check)
from .verma import elt_subs

SCOPE = "system"
CONTRACTION_CONSTANT = Q(2)   # uniform contraction ratio in the D4 system


def weighted_degree(alg: LieAlgebra, m) -> int:
    """PBW degree where the central generator counts twice."""
    return sum(e * (2 if i == alg.x_minus_gamma else 1) for i, e in m)


def _nil_annihilation(s: Session, elements: dict[int, Elt], s0: Q) -> int:
    """Check that every nilradical basis vector annihilates every element at
    s0, in ints (_as_ints); returns the pair count."""
    alg, vm, elements = s.alg, s.verma, _as_ints(elements)
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


def _zero_matrix(n: int) -> list[list[Q]]:
    return [[Q(0)] * n for _ in range(n)]


def _shifted(alg: LieAlgebra, mats: dict[int, list[list[Q]]],
             shift: Q) -> dict[int, list[list[Q]]]:
    """M_g = mats[g] + shift dchi(g) 1, for mats on q, where dchi lives."""
    return {g: [[c + shift * alg.dchi_on_basis[g] if r == k else c
                 for k, c in enumerate(row)] for r, row in enumerate(mat)]
            for g, mat in mats.items()}


def _contract(s: Session, ops: list[PolyDiffOp],
              mats: dict[int, list[list[Q]]]) -> dict[int, list[PolyDiffOp]]:
    """Each constant matrix M_g = mats[g] contracted with the operators once:
    E[g][i] = sum_r M_g[r][i] ops[r], for every g with a matrix."""
    calc, n = s.calc, s.calc.ncoords
    return {g: [sum_products(n, [(calc.const(mat[r][i]), op)
                                 for r, op in enumerate(ops) if mat[r][i]])
                for i in range(len(ops))]
            for g, mat in mats.items()}


def _structure_mismatches(s: Session, y: int, comms: list[PolyDiffOp],
                          contracted: dict[int, list[PolyDiffOp]]) -> list[int]:
    """Columns i at which comms[i] = [pi_s(Y), D_i] differs from

        sum_r C_ri D_r = sum_g AdInv(Y)_g o E[g][i],  C = sum_g AdInv(Y)_g M_g,

    the matrix-valued structure function: the constant matrices M_g
    extended linearly over the coefficient functions of the inverse adjoint
    series AdInv(Y) = Ad(nbar^{-1}) Y (only basis vectors with a matrix
    contribute), each given contracted with the D_r as E[g] (_contract), so
    a column is one sum of products."""
    n = s.calc.ncoords
    terms = [(cg, contracted[g]) for g, cg in s.calc.ad_inverse(y).items()
             if g in contracted]
    return [i for i, comm in enumerate(comms)
            if comm != sum_products(n, [(cg, e[i]) for cg, e in terms if e[i]])]


@check("contraction_identity", SCOPE,
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


@check("cubic_nonzero", SCOPE,
       "Every cubic element is nonzero, homogeneous of weighted degree 3 "
       "(the central generator counts twice), and the system has full rank "
       "at generic parameter values")
def _chk_cubic_nonzero(s: Session) -> dict:
    alg = s.alg
    for k, w3 in enumerate(s.omega3_gens):
        _ensure(bool(w3), index=alg.names[alg.v_minus[k]])
        for m in w3:
            _ensure(weighted_degree(alg, m) == 3,
                    index=alg.names[alg.v_minus[k]],
                    weighted_degree=weighted_degree(alg, m))
    r = s.cubic_span.rank
    _ensure(r == len(alg.v_minus), rank=r, expected=len(alg.v_minus))
    return {"count": len(s.omega3_gens), "rank": r,
            "monomials": [len(w3) for w3 in s.omega3_gens]}


@check("special_value_unique", SCOPE,
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


@check("quadratic_nilradical_annihilation", SCOPE,
       "At the special parameter value the nilradical annihilates every "
       "quadratic element")
def _chk_quad_nil(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"pairs": _nil_annihilation(s, s.quadratic_elements, sstar),
            "at": qstr(sstar)}


@check("quadratic_weight_at_special", SCOPE,
       "The grading coroot acts on every quadratic element by 2s - 2 "
       "symbolically, hence by 2s* - 2 at the special parameter value s* "
       "(-4 for D4)")
def _chk_quad_weight_special(s: Session) -> dict:
    sstar = s.require_sstar()
    _levi_action(s, s.quadratic_elements, {"h_gamma": s.alg.h_gamma})
    return {"eigenvalue": qstr(2 * sstar - 2)}


@check("quadratic_equivariance_at_special", SCOPE,
       "With s symbolic, hence at the special parameter value s*, the "
       "quadratic element of a Levi bracket equals the module action plus "
       "(1 - s) times the character multiple (twice it at s* for D4), for "
       "all Levi pairs; it is checked for the acting Levi vector among the "
       "generators of l, which suffices: the vectors for which it holds form "
       "a Lie subalgebra, because the character vanishes on [l, l]")
def _chk_quad_equiv_special(s: Session) -> dict:
    sstar = s.require_sstar()
    return {**_levi_action(s, s.quadratic_elements), "at": qstr(sstar)}


@check("cubic_nilradical_annihilation", SCOPE,
       "At the special parameter value the nilradical annihilates every "
       "cubic element")
def _chk_cubic_nil(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"pairs": _nil_annihilation(s, s.cubic_elements, sstar),
            "at": qstr(sstar)}


@check("cubic_weight_at_special", SCOPE,
       "The grading coroot acts on every cubic element by 2s - 3 "
       "symbolically, hence by 2s* - 3 at the special parameter value s* "
       "(-5 for D4)")
def _chk_cubic_weight(s: Session) -> dict:
    sstar = s.require_sstar()
    _levi_action(s, s.cubic_elements, {"h_gamma": s.alg.h_gamma})
    return {"eigenvalue": "2s - 3", "at_special": qstr(2 * sstar - 3)}


@check("cubic_equivariance_at_special", SCOPE,
       "With s symbolic, hence at the special parameter value s*, the cubic "
       "element of a Levi bracket equals the module action plus (1 - s) "
       "times the character multiple (twice it at s* for D4), for every "
       "Levi vector against every grade -1 basis vector; it is checked for "
       "the Levi vector among the generators of l, which suffices: the "
       "vectors for which it holds form a Lie subalgebra, because the "
       "character vanishes on [l, l]")
def _chk_cubic_equiv(s: Session) -> dict:
    sstar = s.require_sstar()
    return {**_levi_action(s, s.cubic_elements), "at": qstr(sstar)}


def _unimodular_pair(m: int) -> tuple[list[list[int]], list[list[int]]]:
    """The m x m matrix a_ij = min(i, j) + 1, all-ones lower times upper
    unitriangular so det a = 1, and its inverse, the second-difference matrix
    (2 on the diagonal but 1 in the last corner, -1 beside the diagonal)."""
    a = [[min(i, j) + 1 for j in range(m)] for i in range(m)]
    inv = [[(2 if i < m - 1 else 1) if i == j else -(abs(i - j) == 1)
            for j in range(m)] for i in range(m)]
    return a, inv


@check("basis_independence", SCOPE,
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


@check("pi_first_order", SCOPE,
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


@check("pi_homomorphism", SCOPE,
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


@check("nbar_commutant", SCOPE,
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


@check("picture_consistency", SCOPE,
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


# The generator reduction shared by the five operator identities below.
# Each writes [pi(Y), D_i] = sum_j F(Y)_ji D_j with F(Y) = sum_g AdInv(Y)_g M_g
# for constant matrices M_g, and checks it for Y among the Chevalley generators.
_GENERATOR_REDUCTION = (
    "; it is checked for Y among the Chevalley generators, which suffices: "
    "with xi_Y the vector-field part of pi(Y), pi is a homomorphism of order "
    "1 (pi_homomorphism, pi_first_order), so by the Leibniz rule, for Y and "
    "Z satisfying the identity, [pi([Y, Z]), D_i] = sum_k (xi_Y F(Z) - xi_Z "
    "F(Y) + [F(Y), F(Z)])_ki D_k, which is sum_k F([Y, Z])_ki D_k when "
    "rho(Y) = xi_Y + F(Y) is a homomorphism; rho is the noncompact picture "
    "of the action induced from M on q, with M given on q only, so it is one "
    "when M is a representation of q, which the check asserts "
    "as M([g, h]) = [M(g), M(h)] for g among the generators of q and h over "
    "q (the g for which that holds form a Lie subalgebra); so the Y for "
    "which the identity holds form a Lie subalgebra, and the generators "
    "generate g")


def _require_q_representation(s: Session, mats: dict[int, list[list[Q]]],
                              where: dict) -> None:
    """Assert the hypothesis of _GENERATOR_REDUCTION on the constant
    matrices M_g = mats[g], keyed over alg.q_indices: M([g, h]) = [M(g),
    M(h)] for g in alg.q_generators and h in alg.q_indices.  The M_g are
    scaled to ints over the lcm den of their denominators and held sparse, as
    {(row, column): entry} and by rows, {row: [(column, entry)]}, so the
    test is den M([g, h]) = [den M(g), den M(h)] in ints; where joins the
    failure witness."""
    alg = s.alg
    den = lcm(*(c.denominator for g in alg.q_indices for row in mats[g]
                for c in row))
    ints = {g: {(r, k): c.numerator * (den // c.denominator)
                for r, row in enumerate(mats[g]) for k, c in enumerate(row) if c}
            for g in alg.q_indices}
    rows: dict[int, dict[int, list[tuple[int, int]]]] = {g: {} for g in ints}
    for g, e in ints.items():
        for (r, k), v in e.items():
            rows[g].setdefault(r, []).append((k, v))
    for g in alg.q_generators:
        for h in alg.q_indices:
            want: dict[tuple[int, int], int] = {}
            for k, n in alg.table[g][h]:
                for rk, v in ints[k].items():
                    want[rk] = want.get(rk, 0) + den * n * v
            got: dict[tuple[int, int], int] = {}
            for x, y, sign in ((g, h, 1), (h, g, -1)):
                for (r, k), u in ints[x].items():
                    for c, v in rows[y].get(k, ()):
                        got[r, c] = got.get((r, c), 0) + sign * u * v
            _ensure({rk: v for rk, v in want.items() if v}
                    == {rk: v for rk, v in got.items() if v},
                    hypothesis="representation of q",
                    pair=[alg.names[g], alg.names[h]], **where)


def _identity_on_generators(s: Session, ops: list[PolyDiffOp],
                            mats: dict[int, list[list[Q]]],
                            commutators: Callable[[int], list[PolyDiffOp]],
                            where: dict | None = None) -> int:
    """Check [pi(Y), D_i] = sum_j F(Y)_ji D_j, with D = ops, commutators(Y)
    the left sides and F(Y) built from the constant matrices M_g = mats[g]
    on q (_contract, _structure_mismatches), for Y among the Chevalley
    generators, then the hypothesis that makes them suffice
    (_GENERATOR_REDUCTION, _require_q_representation); returns the identity
    count.  where joins the failure witness."""
    alg, where = s.alg, where or {}
    contracted = _contract(s, ops, mats)
    for y in alg.chevalley_generators:
        bad = _structure_mismatches(s, y, commutators(y), contracted)
        _ensure(not bad, vector=alg.names[y], column=bad[0] if bad else None,
                mismatches=len(bad), **where)
    _require_q_representation(s, mats, where)
    return len(alg.chevalley_generators) * len(ops)


@check("first_order_commutator_formula", SCOPE,
       "At the special parameter value, the commutator of the induced-picture "
       "operator of every basis vector Y with each first-order right action "
       "D_b = R(X_b), b over the opposite radical, and with D = 1 is sum_j "
       "F(Y)_jb D_j, F(Y) = sum_g AdInv(Y)_g M_g, where column b of M_g reads "
       "the bracket [X_g, X_b]: its opposite-radical part at the rows of the "
       "right actions, s* times the character of its parabolic part at the "
       "row of 1, and the column of 1 is zero (the first-level action "
       "matrices at s* shifted by -s* dchi(g))" + _GENERATOR_REDUCTION)
def _chk_first_order_formula(s: Session) -> dict:
    sstar = s.require_sstar()
    alg, n = s.alg, s.calc.ncoords
    # coordinate b is basis index b, so R(X_b) is row b and 1 is row n
    mats = {g: _zero_matrix(n + 1) for g in alg.q_indices}
    for g, mat in mats.items():
        for b in alg.nbar_indices:
            for k, c in alg.table[g][b]:
                if alg.grade[k] < 0:
                    mat[k][b] += c
                else:
                    mat[n][b] += sstar * c * alg.dchi_on_basis[k]
    return {"identities": _identity_on_generators(
                s, s.first_level_ops, mats, lambda y: [
                    c.subs_param(sstar) for c in s.first_level_commutator(y)]),
            "at": qstr(sstar)}


@check("quadratic_commutator_formula", SCOPE,
       "A D4 identity, the bridge for the quadratic span, which holds where "
       "the nilradical annihilates the quadratic elements at the special "
       "parameter value s*: there the commutator of the induced-picture "
       "operator of every basis vector Y with each quadratic right action "
       "D_w = R(omega2(X_w)), w over the Levi basis, is sum_z F(Y)_zw D_z, "
       "F(Y) = sum_g AdInv(Y)_g M_g, where M_g is the Levi bracket [X_g, .] "
       "on l minus dchi(g) on the diagonal, and zero for g in the "
       "nilradical" + _GENERATOR_REDUCTION)
def _chk_quadratic_formula(s: Session) -> dict:
    sstar = s.require_sstar()
    alg, levi = s.alg, s.alg.l_indices
    ops = [s.quadratic_ops[w] for w in levi]
    mats = {g: _zero_matrix(len(levi)) for g in alg.q_indices}
    for g in levi:
        for i, w in enumerate(levi):
            for z, c in alg.table[g][w]:
                mats[g][levi.index(z)][i] += c
    return {"identities": _identity_on_generators(
                s, ops, _shifted(alg, mats, Q(-1)),
                lambda y: [s.pi_special(y).commutator(op) for op in ops]),
            "at": qstr(sstar)}


@check("main_vanishing", SCOPE,
       "At the special parameter value, the commutator of the operator of "
       "every grade +1 basis vector with every cubic operator has vanishing "
       "point functional at the identity")
def _chk_main_vanishing(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"commutators": _vanishing_at(s, s.alg.v_plus, sstar),
            "at": qstr(sstar)}


@check("center_vanishing", SCOPE,
       "At the special parameter value, the commutator of the central "
       "vector's operator with every cubic operator has vanishing point "
       "functional at the identity")
def _chk_center_vanishing(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"commutators": _vanishing_at(s, [s.alg.x_gamma], sstar),
            "at": qstr(sstar)}


@check("operator_special_value_set", SCOPE,
       "The set of parameter values at which all grade >= 1 commutator "
       "functionals vanish, computed on the operator side alone, is exactly "
       "the singleton found by the module-side solver")
def _chk_operator_s_set(s: Session) -> dict:
    sstar = s.require_sstar()
    funcs = [s.symbolic_functionals[(x, k)] for x in s.alg.n_indices
             for k in range(len(s.omega3_ops))]
    # one affine pair per derivative with a nonzero coefficient; the root of
    # a pair does not depend on its functional's den
    pairs = [pair for _, func in funcs for pair in func.values()]
    _ensure(len(pairs) > 0, nonzero_entries=len(pairs))
    degree, root = common_root(pairs)
    _ensure(degree == 1, gcd_degree=degree)
    _ensure(root == sstar, roots=[qstr(root)], expected=qstr(sstar))
    return {"functionals": len(funcs), "nonzero_polynomials": len(pairs),
            "gcd_degree": degree, "value": qstr(sstar)}


@check("pointwise_independence", SCOPE,
       "The point functionals of the cubic operators at the identity are "
       "linearly independent")
def _chk_pointwise_independence(s: Session) -> dict:
    span = s.functional_span
    _ensure(span.rank == len(span.gens), rank=span.rank,
            operators=len(span.gens))
    return {"rank": span.rank, "support": len(span.col)}


def _b_is_shifted_action(s: Session) -> int:
    """Check b(g) = M(g) for g among the generators of q, b read off the
    point functionals and M the action matrices on the cubic span shifted by
    -s* dchi; returns the generator count."""
    alg, bmats = s.alg, s.b_matrices
    expected = _shifted(alg, s.action_matrices_special, -s.require_sstar())
    for g in alg.q_generators:
        _ensure(bmats[g] == expected[g], vector=alg.names[g],
                reason="parabolic entry mismatch against module action")
    return len(alg.q_generators)


def _coroot_scalar(s: Session, mats: dict[int, list[list[Q]]]) -> Q:
    """The scalar by which M(h_gamma) = sum_k c_k M(H_k) acts, for matrices
    M = mats on q; fails when it is no scalar."""
    h, n = s.alg.h_gamma, len(mats[s.alg.x_gamma])
    coroot = [[sum(c * mats[k][r][i] for k, c in h.items()) for i in range(n)]
              for r in range(n)]
    scalar = coroot[0][0]
    _ensure(coroot == [[scalar * (r == i) for i in range(n)] for r in range(n)],
            vector="h_gamma", reason="the grading coroot is not a scalar")
    return scalar


def _cubic_identity(s: Session) -> int:
    """induced_bridge_cubic's identity; returns the identity count."""
    m = len(s.omega3_ops)
    return _identity_on_generators(
        s, s.omega3_ops,
        _shifted(s.alg, s.action_matrices_special, -s.require_sstar()),
        lambda y: [s.cubic_commutator(y, i) for i in range(m)])


@check("b_matrix", SCOPE,
       "At the special parameter value there is a matrix realization b of "
       "the parabolic on the cubic span: for each generator g of q the "
       "commutators of its operator with the cubic operators close on them "
       "at the identity, by b(g), and b(g) is M(g), the module action matrix "
       "shifted by -s* dchi(g); b(Y) = M(Y_q) for every other basis vector Y "
       "is a corollary of induced_bridge_cubic read at the identity, where "
       "AdInv(Y) = Y, and pointwise_independence: so the nilradical maps to "
       "zero, as M does (reducibility_witness), the grading coroot to -3 "
       "times the identity, 2s* - 3 (cubic_weight_at_special) shifted by "
       "-2s*, and the opposite radical to zero")
def _chk_b_matrix(s: Session) -> dict:
    sstar = s.require_sstar()
    generators = _b_is_shifted_action(s)
    scalar = _coroot_scalar(s, _shifted(s.alg, s.action_matrices_special, -sstar))
    return {"generators": generators, "size": len(s.omega3_ops),
            "coroot_scalar": qstr(scalar), "at": qstr(sstar)}


@check("structure_operator", SCOPE,
       "The full commutator identity holds as polynomial differential "
       "operators: for every basis vector Y, the commutator with each cubic "
       "operator D_i equals the cubic operators weighted by the matrix-valued "
       "structure function F(Y) = sum_g AdInv(Y)_g b(g), the matrix "
       "realization b composed with the inverse adjoint transport; it "
       "restates induced_bridge_cubic, whose identity it runs: b is that "
       "check's M on the generators of q, as the check asserts, and on the "
       "rest of q, as the b_matrix statement derives" + _GENERATOR_REDUCTION)
def _chk_structure_operator(s: Session) -> dict:
    sstar = s.require_sstar()
    _b_is_shifted_action(s)
    return {"identities": _cubic_identity(s), "at": qstr(sstar)}


@check("induced_bridge_small", SCOPE,
       "The induced-picture commutator formula against the degree <= 1 "
       "spanning set D_i holds as an operator identity for every basis "
       "vector Y at three distinct parameter values s0, with F(Y) = sum_g "
       "AdInv(Y)_g M_g for M_g the module action matrix of each parabolic "
       "basis vector at s0 shifted by -s0 dchi(g), transported by the inverse "
       "adjoint series" + _GENERATOR_REDUCTION)
def _chk_bridge_small(s: Session) -> dict:
    alg, vm, span = s.alg, s.verma, s.first_level_span
    svalues = [s.require_sstar(), Q(0), Q(5, 2)]
    total = sum(_identity_on_generators(
        s, s.first_level_ops, _shifted(alg, {g: vm.module_action_matrix(
            span, g, s0) for g in alg.q_indices}, -s0),
        lambda y: [c.subs_param(s0) for c in s.first_level_commutator(y)],
        {"s": qstr(s0)}) for s0 in svalues)
    return {"identities": total, "parameter_values": [qstr(v) for v in svalues]}


@check("induced_bridge_cubic", SCOPE,
       "The induced-picture commutator formula against the cubic span holds "
       "as an operator identity for every basis vector Y at the special "
       "parameter value s*, with F(Y) = sum_g AdInv(Y)_g M_g for M_g the "
       "action matrix of each parabolic basis vector on the cubic span "
       "shifted by -s* dchi(g)" + _GENERATOR_REDUCTION)
def _chk_bridge_cubic(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"identities": _cubic_identity(s), "at": qstr(sstar)}


@check("reducibility_witness", SCOPE,
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
    checked, gens = 0, list(_as_ints(s.cubic_elements).values())
    for y in alg.chevalley_generators:
        for k in range(m):
            got = elt_subs(vm.act_basis(y, gens[k]), sstar)
            if alg.grade[y] >= 0:
                expected: Elt = {}
                for r in range(m):
                    c = action[y][r][k]
                    if c:
                        expected = elt_add(expected, elt_scale(gens[r], c))
            else:
                expected = env.mul(env.gen(y), gens[k])
            _ensure(got == expected, vector=alg.names[y], column=k)
            checked += 1
    # every bracket of two opposite-radical generators lies in nbar with the
    # sum of their weights, so nbar is graded by weight, and by PBW so is
    # U(nbar): multiplying by a generator raises weighted degree by exactly
    # its weight, in every degree.  The submodule, U(nbar) times the
    # parabolic-stable span, keeps degree >= 3 and misses the cyclic vector:
    # it is proper and nonzero
    weight = {g: weighted_degree(alg, ((g, 1),)) for g in alg.nbar_indices}
    for x in alg.nbar_indices:
        for y in alg.nbar_indices:
            _ensure(all(weight.get(k) == weight[x] + weight[y]
                        for k, _ in alg.table[x][y]),
                    pair=[alg.names[x], alg.names[y]])
    floor = min(weighted_degree(alg, mono)
                for w3 in s.omega3_gens for mono in w3)
    _ensure(floor == 3, weighted_degree_floor=floor)
    # the span cannot contain the cyclic vector: at s* the grading coroot
    # acts on the span by the scalar its action matrices give, and on 1 by 2s*
    scalar = _coroot_scalar(s, action)
    one = env.one()
    _ensure(vm.act(alg.h_gamma, one) == ({}, elt_scale(one, 2)),
            element="1", scalar="2s")
    _ensure(scalar != 2 * sstar, span_eigenvalue=qstr(scalar))
    return {"generators": len(alg.chevalley_generators),
            "equivariance_identities": checked,
            "weighted_degree_floor": floor,
            "span_eigenvalue": qstr(scalar),
            "cyclic_eigenvalue": qstr(2 * sstar)}
