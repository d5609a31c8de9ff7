"""Acceptance gate: the ten primary criteria, one test per criterion.

Every assertion is exact rational arithmetic with zero tolerance.  Each
criterion prints one canonical ``ACCEPTANCE <n> <label>: PASS|FAIL`` line
(visible with ``pytest tests/test_acceptance.py -v -s``) and asserts a wall
clock budget for its own work; shared artifacts (the algebra, the cubic
operators, the symbolic commutator functionals) are built once per module
and reused, mirroring how the command line suite shares them.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest

from conftest import random_dual_bases
from confsys.diffops import PolyDiffOp
from confsys.linalg import rank, solve
from confsys.pbw import elt_add, elt_scale, elt_sub, monomials_up_to
from confsys.system import weighted_degree
from confsys.verify import Session, SuiteConfig
from confsys.verma import elt_subs

SPECIAL = Q(-1)


@pytest.fixture(scope="module")
def ses():
    session = Session(SuiteConfig(type_label="D4"))
    session.env  # warm the algebra and enveloping structure (untimed setup)
    return session


@contextmanager
def criterion(n: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (
        f"criterion {n} took {elapsed:.2f}s, budget {budget_s}s")
    print(f"ACCEPTANCE {n} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_chevalley_suite(ses):
    with criterion(1, "chevalley basis suite", 10):
        alg = ses.alg
        alg.verify_normalizations()   # raises on any violation
        alg.verify_jacobi()           # Jacobi on every basis triple
        roots = [i for i, r in enumerate(alg.root_of) if r is not None]
        assert len(roots) == 24
        for i in roots:
            assert alg.killing_elem({i: 1}, {alg.opposite[i]: 1}) == Q(1)


def test_criterion_02_grading_dimensions(ses, alg_d5):
    with criterion(2, "heisenberg grading dimensions", 1):
        assert ses.alg.graded_dims == (1, 8, 10, 8, 1)
        assert alg_d5.graded_dims == (1, 12, 19, 12, 1)
        deleted = ses.alg.deleted_components
        assert len(deleted) == 3
        assert all(len(comp) == 1 for comp in deleted)
        assert deleted == ((0,), (2,), (3,))


def test_criterion_03_quadratic_suite(ses):
    with criterion(3, "quadratic element suite at the special value", 30):
        alg, om, vm = ses.alg, ses.omega, ses.verma
        sstar = ses.require_sstar()
        assert om.omega2(alg.h_gamma) == {}
        for w in alg.l_indices:
            w2 = om.omega2_basis(w)
            if w2:
                got = elt_subs(vm.act(alg.h_gamma, w2), sstar)
                assert not elt_sub(got, elt_scale(w2, Q(-4)))
        for z in alg.l_indices:
            dz = alg.dchi_on_basis[z]
            for w in alg.l_indices:
                w2 = om.omega2_basis(w)
                lhs = om.omega2(alg.bracket_elem({z: Q(1)}, {w: Q(1)}))
                rhs = elt_add(elt_subs(vm.act({z: Q(1)}, w2), sstar),
                              elt_scale(w2, 2 * dz))
                assert not elt_sub(lhs, rhs)
        for u in alg.n_indices:
            for w in alg.l_indices:
                w2 = om.omega2_basis(w)
                if w2:
                    assert elt_subs(vm.act({u: Q(1)}, w2), sstar) == {}


def test_criterion_04_contraction_identity(ses):
    with criterion(4, "double-bracket contraction identity", 30):
        alg, om = ses.alg, ses.omega
        nonzero = 0
        for x in alg.v_plus:
            for y in alg.v_minus:
                acc = {}
                for eps in alg.v_plus:
                    a = alg.bracket_elem({x: Q(1)}, {alg.opposite[eps]: Q(1)})
                    b = dict(alg.table[eps][y])
                    if a and b:
                        inner = alg.bracket_elem(a, b)
                        if inner:
                            acc = elt_add(acc, om.omega2(inner))
                target = om.omega2(dict(alg.table[x][y]))
                assert not elt_sub(acc, elt_scale(target, 2))
                nonzero += bool(target)
        # a nonzero right side exists, so no other constant can work
        assert nonzero > 0


def test_criterion_05_special_value_and_module_identities(ses):
    with criterion(5, "unique special value and module identities", 120):
        alg, om, vm = ses.alg, ses.omega, ses.verma
        res = ses.stability
        assert not res.all_s
        assert res.values == (SPECIAL,)
        assert res.constraint_count > 0
        sstar = res.values[0]
        system = ses.omega3_gens
        for u in alg.n_indices:
            for w3 in system:
                assert elt_subs(vm.act({u: Q(1)}, w3), sstar) == {}
        for z in alg.l_indices:
            dz = alg.dchi_on_basis[z]
            for k, y in enumerate(alg.v_minus):
                w3 = system[k]
                br = dict(alg.table[z][y])
                lhs = om.omega3(br) if br else {}
                rhs = elt_add(elt_subs(vm.act({z: Q(1)}, w3), sstar),
                              elt_scale(w3, 2 * dz))
                assert not elt_sub(lhs, rhs)
        for w3 in system:
            got = elt_subs(vm.act(alg.h_gamma, w3), sstar)
            assert not elt_sub(got, elt_scale(w3, Q(-5)))


def test_criterion_06_operator_picture(ses):
    with criterion(6, "differential operator picture", 300):
        alg, calc = ses.alg, ses.calc
        sstar = ses.require_sstar()
        m = len(ses.omega3_ops)
        # commutators with grade +1 operators and the central operator have
        # vanishing point functional at the identity, exactly at s*
        for xi in list(alg.v_plus) + [alg.x_gamma]:
            for k in range(m):
                den, func = ses.symbolic_functionals[(xi, k)]
                for a0, a1 in func.values():
                    assert Q(a0, den) + sstar * Q(a1, den) == 0
        # opposite-radical operators commute with the cubic operators as a
        # full operator identity, for every parameter value
        for xb in [alg.x_minus_gamma] + list(alg.v_minus):
            pi_x = calc.pi_basis(xb)
            for op in ses.omega3_ops:
                assert not pi_x.commutator(op)
        # the eight cubic operators are linearly independent at the identity
        def s_free(op):
            den, func = op.at_identity()
            assert not any(a1 for _, a1 in func.values())
            return {d: Q(a0, den) for d, (a0, _) in func.items()}

        op_funcs = [s_free(op) for op in ses.omega3_ops]
        ders = sorted({d for f in op_funcs for d in f})
        assert rank([[f.get(d, Q(0)) for f in op_funcs] for d in ders]) == m
        # a matrix realization b of q exists: for every q basis vector Y the
        # point functionals of the commutators at s* solve (uniquely, by the
        # rank above) against the cubic operators' ones; b(h_gamma) = -3 and
        # the structure function C(Y) = b(AdInv(Y)_q) reproduces the full
        # commutator identity on a seeded sample of basis vectors
        bmats = {}
        for y in alg.q_indices:
            cols = []
            for i in range(m):
                comm = s_free(ses.cubic_commutator(y, i))
                keys = sorted(set(ders) | set(comm))
                col = solve([[f.get(d, Q(0)) for f in op_funcs] for d in keys],
                            [comm.get(d, Q(0)) for d in keys])
                assert col is not None, (y, i)
                cols.append(col)
            bmats[y] = [list(row) for row in zip(*cols)]
        bh = [[sum(c * bmats[i][r][k] for i, c in alg.h_gamma.items())
               for k in range(m)] for r in range(m)]
        assert bh == [[Q(-3) if r == k else Q(0) for k in range(m)]
                      for r in range(m)]
        rng = random.Random("acceptance-6")
        sample = rng.sample(range(alg.dim), 6) + [alg.x_gamma,
                                                  alg.x_minus_gamma]
        for y in sample:
            adinv = calc.ad_inverse(y)
            for i in range(m):
                lhs = ses.cubic_commutator(y, i)
                rhs = PolyDiffOp(calc.ncoords)
                for g, cg in adinv.items():
                    if g not in bmats:
                        continue
                    for r in range(m):
                        if bmats[g][r][i]:
                            rhs = rhs + (cg * bmats[g][r][i]
                                         * ses.omega3_ops[r])
                assert lhs == rhs


def test_criterion_07_picture_consistency(ses):
    with criterion(7, "module and operator picture consistency", 120):
        alg, calc, om, env = ses.alg, ses.calc, ses.omega, ses.env
        for k, y in enumerate(alg.v_minus):
            acc = PolyDiffOp(calc.ncoords)
            for eps in alg.v_plus:
                br = dict(alg.table[eps][y])
                if not br:
                    continue
                w2 = om.omega2(br)
                if w2:
                    acc = acc + calc.r_gen(alg.opposite[eps]).compose(
                        calc.r_op(w2))
            assert acc == ses.omega3_ops[k]
        nbar = tuple([alg.x_minus_gamma] + list(alg.v_minus))
        for xb in nbar:
            pi_x = calc.pi_basis(xb)
            for mono in monomials_up_to(nbar, 3):
                assert not pi_x.commutator(calc.r_mono(mono))


def test_criterion_08_basis_independence(ses):
    with criterion(8, "basis independence of the cubic elements", 30):
        alg, om = ses.alg, ses.omega
        rng = random.Random("acceptance-8")
        for _ in range(5):
            basis, dual = random_dual_bases(alg, rng)
            for k, y in enumerate(alg.v_minus):
                redone = om.omega3_from_basis(basis, dual, {y: 1})
                assert not elt_sub(redone, ses.omega3_gens[k])


@pytest.mark.parametrize("label", ["D5", "A3"])
def test_criterion_09_negative_controls(label):
    with criterion(9, f"negative control {label}", 300):
        control = Session(SuiteConfig(type_label=label, expect_system=False))
        res = control.stability
        assert not res.all_s
        assert res.values == ()
        assert res.levi_stable_all_s


def test_criterion_10_reducibility_witness(ses):
    with criterion(10, "proper submodule witness", 60):
        alg, env, vm = ses.alg, ses.env, ses.verma
        sstar = ses.require_sstar()
        m = len(ses.omega3_gens)
        action = ses.action_matrices_special  # parabolic stability solved
        for u in alg.n_indices:
            assert all(not c for row in action[u] for c in row)
        # equivariance of u tensor f -> u . f on every algebra basis vector
        for y in range(alg.dim):
            for k in range(m):
                got = elt_subs(vm.act({y: Q(1)}, ses.omega3_gens[k]), sstar)
                if alg.grade[y] >= 0:
                    expected = {}
                    for r in range(m):
                        c = action[y][r][k]
                        if c:
                            expected = elt_add(
                                expected, elt_scale(ses.omega3_gens[r], c))
                else:
                    expected = env.mul(env.gen(y), ses.omega3_gens[k])
                assert not elt_sub(got, expected)
        # proper and nonzero: the span sits at weighted degree >= 3, left
        # multiplication only raises the weighted degree, and the coroot
        # eigenvalue -5 differs from the cyclic vector's -2
        floor = min(weighted_degree(alg, mono)
                    for w3 in ses.omega3_gens for mono in w3)
        assert floor == 3
        assert all(bool(w3) for w3 in ses.omega3_gens)
        assert 2 * sstar - 3 == Q(-5)   # eigenvalue on the cubic span
        assert 2 * sstar == Q(-2)       # eigenvalue on the cyclic vector

