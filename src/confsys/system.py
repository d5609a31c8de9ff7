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

from .diffops import PolyDiffOp, sum_products
from .liealg import LieAlgebra
from .linalg import common_root
from .pbw import Elt, elt_add, elt_scale, mono_degree, monomials_up_to
from .report import qstr
from .verify import (CheckFailure, Session, _contraction_data, _coroot_scalar,
                     _ensure, _expected, _levi_equivariance, check)
from .verma import elt_subs

SCOPE = "system"
CONTRACTION_CONSTANT = Q(2)   # uniform contraction ratio in the D4 system


def weighted_degree(alg: LieAlgebra, m) -> int:
    """PBW degree where the central generator counts twice."""
    return sum(e * (2 if i == alg.x_minus_gamma else 1) for i, e in m)


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
                    index=alg.names[alg.v_minus[k]], monomial_degree=mono_degree(m))
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
       "At the special parameter value s* the grading coroot acts on the "
       "quadratic elements by the scalar 2s* - 2 (-4 for D4)")
def _chk_quad_weight_special(s: Session) -> dict:
    sstar = s.require_sstar()
    return {"eigenvalue": _coroot_scalar(s, s.quadratic_elements, 2, sstar)}


@check("quadratic_equivariance_at_special", SCOPE,
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
    return {"eigenvalue": _coroot_scalar(s, s.cubic_elements, 3),
            "at_special": qstr(2 * sstar - 3)}


@check("cubic_equivariance_at_special", SCOPE,
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


@check("first_order_commutator_formula", SCOPE,
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


@check("quadratic_commutator_formula", SCOPE,
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


@check("pointwise_independence", SCOPE,
       "The point functionals of the cubic operators at the identity are "
       "linearly independent")
def _chk_pointwise_independence(s: Session) -> dict:
    span = s.functional_span
    _ensure(span.rank == len(span.gens), rank=span.rank,
            operators=len(span.gens))
    return {"rank": span.rank, "support": len(span.col)}


@check("b_matrix", SCOPE,
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


@check("structure_operator", SCOPE,
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


@check("induced_bridge_small", SCOPE,
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


@check("induced_bridge_cubic", SCOPE,
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
