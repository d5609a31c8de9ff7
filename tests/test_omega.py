"""Quadratic and cubic distinguished elements and their module identities."""

import random
from fractions import Fraction as Q

import pytest

from conftest import RationalOmega, random_dual_bases
from confsys.omega import OmegaSystem
from confsys.pbw import Enveloping, elt_add, elt_scale, elt_sub, mono_word
from confsys.system import weighted_degree
from confsys.verify import Session, SuiteConfig
from confsys.verma import elt_subs

SPECIAL = Q(-1)


def test_quadratic_vanishes_on_grading_coroot(omega_d4, alg_d4):
    assert omega_d4.omega2(alg_d4.h_gamma) == {}


def test_quadratic_shape_and_linearity(omega_d4, alg_d4):
    # normal ordering may trade a pair of grade -1 letters for one central
    # letter, so homogeneity only holds for the weighted degree
    allowed = set(alg_d4.v_minus) | {alg_d4.x_minus_gamma}
    seen_nonzero = 0
    for i in alg_d4.l_indices:
        w2 = omega_d4.omega2_basis(i)
        seen_nonzero += bool(w2)
        for m in w2:
            assert weighted_degree(alg_d4, m) == 2
            assert all(g in allowed for g in mono_word(m))
    assert seen_nonzero
    z1, z2 = alg_d4.l_indices[0], alg_d4.l_indices[5]
    combo = omega_d4.omega2({z1: Q(2), z2: Q(-3)})
    split = elt_add(elt_scale(omega_d4.omega2_basis(z1), 2),
                    elt_scale(omega_d4.omega2_basis(z2), -3))
    assert not elt_sub(combo, split)


def test_quadratic_rejects_every_index_outside_the_levi_factor(omega_d4,
                                                               alg_d4):
    # one index of each grade -2, -1, +1, +2
    for i in (alg_d4.x_minus_gamma, alg_d4.v_minus[0], alg_d4.v_plus[0],
              alg_d4.x_gamma):
        with pytest.raises(ValueError, match="not in the Levi factor"):
            omega_d4.omega2_basis(i)
        with pytest.raises(ValueError, match="not in the Levi factor"):
            omega_d4.omega2({i: Q(1)})


def test_quadratic_memo_is_per_instance(alg_d4, alg_a3):
    """A3's and D4's quadratic elements of one shared Levi index come from
    separate memo tables, in either order of first use."""
    i = min(set(alg_d4.l_indices) & set(alg_a3.l_indices))
    for algs in ((alg_d4, alg_a3), (alg_a3, alg_d4)):
        oms = [OmegaSystem(Enveloping(alg)) for alg in algs]
        got = [om.omega2_ints(i) for om in oms]
        assert got[0] != got[1]
        for om, elt in zip(oms, got):
            assert elt and all(j < om.alg.nbar_dim for m in elt for j, _ in m)
            assert om.omega2_ints(i) is elt


def test_quadratic_weight_is_2s_minus_2(omega_d4, alg_d4, verma_d4):
    for i in alg_d4.l_indices:
        w2 = omega_d4.omega2_basis(i)
        if not w2:
            continue
        v0, v1 = verma_d4.act(alg_d4.h_gamma, w2)
        assert not elt_sub(v0, elt_scale(w2, -2))
        assert not elt_sub(v1, elt_scale(w2, 2))


def test_quadratic_equivariance_holds_exactly_at_special(omega_d4, alg_d4,
                                                         verma_d4):
    om, vm, alg = omega_d4, verma_d4, alg_d4
    for z in alg.l_indices:
        dz = alg.dchi_on_basis[z]
        for w in alg.l_indices:
            w2 = om.omega2_basis(w)
            lhs = om.omega2(alg.bracket_elem({z: Q(1)}, {w: Q(1)}))
            rhs = elt_add(elt_subs(vm.act({z: Q(1)}, w2), SPECIAL),
                          elt_scale(w2, 2 * dz))
            assert not elt_sub(lhs, rhs)


def test_quadratic_equivariance_fails_off_special(omega_d4, alg_d4, verma_d4):
    # the grading coroot is Levi-central, so the identity degenerates to
    # (2s + 2) * w2 = 0, which singles out s = -1
    alg = alg_d4
    z = alg.h_gamma
    w = next(i for i in alg.l_indices if omega_d4.omega2_basis(i))
    w2 = omega_d4.omega2_basis(w)
    assert not alg.bracket_elem(z, {w: Q(1)})
    rhs = elt_add(elt_subs(verma_d4.act(z, w2), Q(0)),
                  elt_scale(w2, 4))   # 2 dchi(H_gamma)
    assert rhs != {}


def test_nilradical_annihilates_quadratic_at_special(omega_d4, alg_d4,
                                                     verma_d4):
    for u in alg_d4.n_indices:
        for w in alg_d4.l_indices:
            w2 = omega_d4.omega2_basis(w)
            if not w2:
                continue
            got = elt_subs(verma_d4.act({u: Q(1)}, w2), SPECIAL)
            assert got == {}


def test_contraction_identity_with_unique_constant(omega_d4, alg_d4):
    """Double-bracket contraction over the dual pair equals exactly twice the
    quadratic element of the single bracket, on all 64 pairs."""
    om, alg = omega_d4, alg_d4
    nonzero = 0
    for x in alg.v_plus:
        for y in alg.v_minus:
            rhs = om.omega2(alg.bracket_elem({x: Q(1)}, {y: Q(1)}))
            lhs = {}
            for eps in alg.v_plus:
                a = alg.bracket_elem({x: Q(1)}, {alg.opposite[eps]: Q(1)})
                b = alg.bracket_elem({eps: Q(1)}, {y: Q(1)})
                if a and b:
                    inner = alg.bracket_elem(a, b)
                    if inner:
                        lhs = elt_add(lhs, om.omega2(inner))
            assert not elt_sub(lhs, elt_scale(rhs, 2))
            nonzero += bool(rhs)
    # at least one pair has a nonzero right side, so the constant 2 is the
    # only scalar satisfying the identity
    assert nonzero > 0


def test_cubic_nonzero_and_weighted_homogeneous(omega_d4, alg_d4):
    allowed = set(alg_d4.v_minus) | {alg_d4.x_minus_gamma}
    for y in alg_d4.v_minus:
        w3 = omega_d4.omega3({y: 1})
        assert w3
        for m in w3:
            assert weighted_degree(alg_d4, m) == 3
            assert all(g in allowed for g in mono_word(m))


def test_cubic_rejects_indices_outside_grade_minus_one(omega_d4, alg_d4):
    with pytest.raises(ValueError):
        omega_d4.omega3({alg_d4.x_gamma: 1})


def test_cubic_is_linear_and_rejects_mixed_indices(omega_d4, alg_d4):
    y1, y2 = alg_d4.v_minus[0], alg_d4.v_minus[3]
    combo = omega_d4.omega3({y1: Q(2), y2: Q(-3, 2)})
    split = elt_add(elt_scale(omega_d4.omega3({y1: 1}), 2),
                    elt_scale(omega_d4.omega3({y2: 1}), Q(-3, 2)))
    assert combo and combo == split
    with pytest.raises(ValueError):
        omega_d4.omega3({y1: 1, alg_d4.x_minus_gamma: 1})


def test_cubic_of_zero_is_zero_without_brackets(omega_d4, monkeypatch):
    calls = []
    monkeypatch.setattr(type(omega_d4.alg), "bracket_elem",
                        lambda *args: calls.append(args))
    assert omega_d4.omega3({}) == {}
    assert calls == []


def test_nilradical_annihilates_cubic_exactly_at_special(omega_d4, alg_d4,
                                                         verma_d4):
    system = omega_d4.omega3_system()
    off_special = False
    for u in alg_d4.n_indices:
        for w3 in system:
            moved = verma_d4.act({u: Q(1)}, w3)
            assert elt_subs(moved, SPECIAL) == {}
            if elt_subs(moved, Q(0)):
                off_special = True
    assert off_special  # the parameter value is genuinely special


def test_cubic_weight_at_special(omega_d4, alg_d4, verma_d4):
    for y in alg_d4.v_minus:
        w3 = omega_d4.omega3({y: 1})
        got = elt_subs(verma_d4.act(alg_d4.h_gamma, w3), SPECIAL)
        assert not elt_sub(got, elt_scale(w3, Q(-5)))


def test_cubic_equivariance_at_special(omega_d4, alg_d4, verma_d4):
    om, vm, alg = omega_d4, verma_d4, alg_d4
    for z in alg.l_indices:
        dz = alg.dchi_on_basis[z]
        for y in alg.v_minus:
            w3 = om.omega3({y: 1})
            br = dict(alg.table[z][y])
            lhs = om.omega3(br) if br else {}
            rhs = elt_add(elt_subs(vm.act({z: Q(1)}, w3), SPECIAL),
                          elt_scale(w3, 2 * dz))
            assert not elt_sub(lhs, rhs)


def test_cubic_is_basis_independent(omega_d4, alg_d4):
    rng = random.Random(20260825)
    for _ in range(2):
        basis, dual = random_dual_bases(alg_d4, rng)
        for y in alg_d4.v_minus:
            redone = omega_d4.omega3_from_basis(basis, dual, {y: 1})
            assert not elt_sub(redone, omega_d4.omega3({y: 1}))


def test_contraction_constant_not_uniform_in_controls(alg_a3):
    """In the rank-3 control the double-bracket contraction is not a uniform
    multiple of the single-bracket quadratic element."""
    om = OmegaSystem(Enveloping(alg_a3))
    alg = alg_a3
    uniform = True
    for x in alg.v_plus:
        for y in alg.v_minus:
            rhs = om.omega2(alg.bracket_elem({x: Q(1)}, {y: Q(1)}))
            lhs = {}
            for eps in alg.v_plus:
                a = alg.bracket_elem({x: Q(1)}, {alg.opposite[eps]: Q(1)})
                b = alg.bracket_elem({eps: Q(1)}, {y: Q(1)})
                if a and b:
                    inner = alg.bracket_elem(a, b)
                    if inner:
                        lhs = elt_add(lhs, om.omega2(inner))
            if elt_sub(lhs, elt_scale(rhs, 2)):
                uniform = False
    assert not uniform


def _random_rational(rng, indices, count):
    return {i: Q(rng.randint(-6, 6), rng.randint(1, 6))
            for i in rng.sample(indices, count)}


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_int_maps_match_the_rational_oracle(tmp_path, label):
    """omega2_basis, omega2 and omega3_from_basis equal the Fraction-per-term
    maps on every Levi index, on random rational Levi elements and on random
    dual bases, rational Y included."""
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om = session.alg, session.omega
    ref = RationalOmega(session.env)
    for i in alg.l_indices:
        assert om.omega2_basis(i) == ref.omega2_basis(i)
        assert om.omega2({i: 1}) == ref.omega2_basis(i)
    rng = random.Random(f"rational-oracle:{label}")
    for _ in range(10):
        z = _random_rational(rng, alg.l_indices, 4)
        z[rng.choice(alg.l_indices)] = 0
        assert om.omega2(z) == ref.omega2(z)
    for trial in range(2):
        w_basis, w_dual = random_dual_bases(alg, rng)
        y = _random_rational(rng, alg.v_minus, 1 + trial)
        got = om.omega3_from_basis(w_basis, w_dual, y)
        assert got and got == ref.omega3_from_basis(w_basis, w_dual, y)
