"""Chevalley-basis construction: normalizations, grading, character."""

from fractions import Fraction as Q

import pytest

from confsys.liealg import build_lie_algebra
from confsys.roots import RootSystemSpec, build_root_system


def test_build_self_checks_pass(alg_d4):
    alg_d4.verify_normalizations()
    alg_d4.verify_jacobi()


def test_dimensions(alg_a3, alg_d4, alg_d5):
    assert alg_a3.dim == 15
    assert alg_d4.dim == 28
    assert alg_d5.dim == 45


@pytest.mark.parametrize("fix,dims", [
    ("alg_a3", (1, 4, 5, 4, 1)),
    ("alg_d4", (1, 8, 10, 8, 1)),
    ("alg_d5", (1, 12, 19, 12, 1)),
])
def test_graded_dims_frozen(fix, dims, request):
    alg = request.getfixturevalue(fix)
    assert alg.graded_dims == dims
    assert len(alg.v_plus) == dims[3]
    assert len(alg.v_minus) == dims[1]
    assert len(alg.l_indices) == dims[2]


@pytest.mark.parametrize("fix,comps", [
    ("alg_a3", ((1,),)),
    ("alg_d4", ((0,), (2,), (3,))),
    ("alg_d5", ((0,), (2, 3, 4))),
])
def test_deleted_components_frozen(fix, comps, request):
    alg = request.getfixturevalue(fix)
    assert alg.deleted_components == comps


def test_basis_order_prefix_is_opposite_radical(alg_d4):
    # index 0 is the lowest root vector; the next block is the grade -1 space
    assert alg_d4.x_minus_gamma == 0
    assert alg_d4.grade[0] == -2
    assert alg_d4.v_minus == tuple(range(1, 9))
    assert alg_d4.nbar_dim == 9
    assert alg_d4.x_gamma == alg_d4.dim - 1
    assert alg_d4.grade[alg_d4.x_gamma] == 2


@pytest.mark.parametrize("fix", ["alg_a3", "alg_d4", "alg_d5"])
def test_nbar_indices_are_the_prefix(fix, request):
    alg = request.getfixturevalue(fix)
    assert alg.nbar_indices == (alg.x_minus_gamma,) + alg.v_minus
    assert alg.nbar_indices == tuple(range(alg.nbar_dim))


def test_bracket_antisymmetry(alg_d4):
    for i in range(alg_d4.dim):
        for j in range(alg_d4.dim):
            lhs = dict(alg_d4.bracket(i, j))
            rhs = {k: -c for k, c in alg_d4.bracket(j, i)}
            assert lhs == rhs


def test_killing_normalization_all_root_pairs(alg_d4):
    from confsys.omega import negate
    for i, a in enumerate(alg_d4.root_of):
        if a is None:
            continue
        j = alg_d4.index_of_root[negate(a)]
        assert alg_d4.killing(i, j) == 1
        assert alg_d4.killing(i, i) == 0


def test_heisenberg_bracket_structure(alg_d4):
    alg = alg_d4
    # [V+, V+] spans the center line, [V-, V-] the opposite line
    for i in alg.v_plus:
        for j in alg.v_plus:
            row = dict(alg.bracket(i, j))
            assert set(row) <= {alg.x_gamma}
    for i in alg.v_minus:
        for j in alg.v_minus:
            row = dict(alg.bracket(i, j))
            assert set(row) <= {alg.x_minus_gamma}
    # each grade +1 root vector pairs with exactly one partner into the center
    for i in alg.v_plus:
        partners = [j for j in alg.v_plus if dict(alg.bracket(i, j))]
        assert len(partners) == 1


def test_character_values(alg_d4):
    alg = alg_d4
    assert alg.dchi(alg.h_gamma) == 2
    # value 1 on each coroot of a grade +1 root
    for i in alg.v_plus:
        h = alg.h_of(alg.root_of[i])
        assert alg.dchi(h) == 1
    # 0 on Levi root vectors, errors off the parabolic
    for i in alg.l_indices:
        if alg.root_of[i] is not None:
            assert alg.dchi({i: Q(1)}) == 0
    with pytest.raises(ValueError):
        alg.dchi({alg.x_minus_gamma: Q(1)})
    with pytest.raises(ValueError):
        alg.dchi({alg.x_gamma: Q(1)})  # nilradical needs on_q=True
    assert alg.dchi({alg.x_gamma: Q(1)}, on_q=True) == 0


def test_structure_constants_pm_one(alg_d4):
    alg = alg_d4
    zero = (0,) * alg.rank
    for i, a in enumerate(alg.root_of):
        if a is None:
            continue
        for j, b in enumerate(alg.root_of):
            if b is None:
                continue
            s = tuple(x + y for x, y in zip(a, b))
            if s != zero and alg.rs.is_root(s):
                row = dict(alg.bracket(i, j))
                assert set(row) == {alg.index_of_root[s]}
                assert abs(next(iter(row.values()))) == 1


def test_jacobi_holds_for_controls(alg_a3):
    alg_a3.verify_jacobi()


def test_build_with_check_flag():
    rs = build_root_system(RootSystemSpec.parse("A3"))
    alg = build_lie_algebra(rs, check=True)
    assert alg.dim == 15
