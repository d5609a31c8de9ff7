"""Polynomial differential operators and the induced-picture calculus."""

import fractions
import inspect
import random
from fractions import Fraction as Q
from math import lcm, prod

import pytest

from confsys.diffops import (FIELD_BITS, OperatorCalculus, PolyDiffOp,
                             _layout, _reorderings, commutator_at_identity,
                             sum_products, unpack_key)
from confsys.liealg import build_lie_algebra
from confsys.omega import OmegaSystem
from confsys.pbw import mono_word, monomials_up_to
from confsys.poly import Poly
from confsys.roots import RootSystemSpec, build_root_system

# -- point functionals: a rational view and a term-by-term reference ---------


def _rational(func):
    """A point functional (den, {monomial: (a0, a1)}) as rational pairs, so
    that functionals over different dens compare by value."""
    den, pairs = func
    return {m: (Q(a0, den), Q(a1, den)) for m, (a0, a1) in pairs.items()}


def _functional_reference(op):
    """The point functional of op at the identity read term by term, the
    s^0 and s^1 parts as rational maps keyed by the derivative's PBW
    monomial (index, exponent), index order."""
    n = op.ncoords
    out = {}
    for k, v in op.terms.items():
        key = unpack_key(k, n)
        if not any(key[:n]):
            m = tuple((i, b) for i, b in enumerate(key[n + 1:]) if b)
            pair = out.setdefault(m, [Q(0), Q(0)])
            pair[key[n]] += Q(v, op.den)
    return {m: tuple(pair) for m, pair in out.items()}


# -- a Poly coefficient view of operators: the reference for compose ----------


def _from_coeffs(n, coeffs):
    """The operator sum_d coeffs[d] d^d on n coordinates, each coefficient a
    Poly in the coordinates and s (n + 1 variables)."""
    den = lcm(*(c.denominator for p in coeffs.values() for c in p.terms.values()))
    return PolyDiffOp(n, {e + d: c.numerator * (den // c.denominator)
                          for d, p in coeffs.items() for e, c in p.terms.items()},
                      den)


def _coefficients(op):
    """Inverse of _from_coeffs: the Poly coefficient of each derivative."""
    n = op.ncoords
    out = {}
    for k, v in op.terms.items():
        k = unpack_key(k, n)
        out.setdefault(k[n + 1:], {})[k[:n + 1]] = Q(v, op.den)
    return {d: Poly(n + 1, t) for d, t in out.items()}


def _apply(op, f):
    """D f, differentiating f directly (independent of compose)."""
    out = Poly(f.nvars)
    for d, c in _coefficients(op).items():
        g = f
        for i, k in enumerate(d):
            for _ in range(k):
                g = g.diff(i)
        out = out + c * g
    return out


def _poly_var(calc, i):
    """Coefficient variable i (a coordinate, or s) as a Poly."""
    n = calc.ncoords + 1
    return Poly(n, {tuple(int(j == i) for j in range(n)): Q(1)})


def _mult(calc, f):
    """Multiplication by the Poly f, as a zeroth-order operator."""
    return _from_coeffs(calc.ncoords, {(0,) * calc.ncoords: f})


def test_operator_ring_basics(calc_d4):
    n = calc_d4.ncoords
    one = calc_d4.identity_op()
    dz = calc_d4.r_gen(calc_d4.alg.x_minus_gamma)
    f = calc_d4.var(0)
    assert dz == calc_d4.derivative(0)
    assert dz.commutator(f) == one          # [d/dz, z] = 1
    assert dz * f == f * dz + one           # * is the Weyl-algebra product
    assert (dz + dz) - dz == dz
    assert dz.compose(one) == one.compose(dz) == dz
    assert not dz.commutator(dz)
    # a function on the left multiplies; a scalar scales from either side
    x1 = _poly_var(calc_d4, 1)
    assert calc_d4.var(1) * dz == _from_coeffs(n, {(1,) + (0,) * (n - 1): x1})
    assert 2 * dz == dz * 2 == dz + dz
    assert Q(1, 2) * (dz * 2) == dz
    assert calc_d4.const(Q(3, 4)) == one * Q(3, 4)
    assert calc_d4.var(calc_d4.s_var) == _mult(calc_d4,
                                               _poly_var(calc_d4, calc_d4.s_var))


def test_apply_and_leibniz(calc_d4):
    z = _poly_var(calc_d4, 0)
    x1 = _poly_var(calc_d4, 1)
    dz = calc_d4.r_gen(calc_d4.alg.x_minus_gamma)
    poly = z * z * x1 + z * 3
    assert _apply(dz, poly) == z * x1 * 2 + Poly.constant(z.nvars, 3)
    d2 = dz.compose(dz)
    assert _apply(d2, poly) == x1 * 2
    assert d2.order() == 2


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)]
            for row in a]


def _adjoint_matrix(alg, w):
    """Matrix of ad(w) in the algebra basis, columns = images."""
    n = alg.dim
    mat = [[Q(0)] * n for _ in range(n)]
    for j in range(n):
        img = alg.bracket_elem(w, {j: Q(1)})
        for i, c in img.items():
            mat[i][j] = c
    return mat


def _eval_at(f: PolyDiffOp, point) -> Q:
    """The value of a function, given as a zeroth-order operator, at a point
    given by the coordinates and s."""
    assert f.order() == 0
    return sum(Q(v, f.den) * prod(p ** e for p, e in
                                  zip(point, unpack_key(k, f.ncoords)))
               for k, v in f.terms.items())


def test_ad_exp_inverse_matches_matrix_exponential(calc_d4):
    """exp(-ad W) computed by the series on the adjoint matrix, evaluated at
    rational coordinates, must match the symbolic adjoint transport."""
    alg = calc_d4.alg
    rng = random.Random(11)
    coords = [Q(rng.randint(-2, 2), rng.randint(1, 3))
              for _ in range(calc_d4.ncoords)]
    w = {g: coords[g] for g in range(calc_d4.ncoords) if coords[g]}
    n = alg.dim
    ad = _adjoint_matrix(alg, w)
    # terminating exponential series of the nilpotent matrix -ad
    total = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    term = total
    k = 1
    while True:
        term = _matmul(term, [[-ad[i][j] / k for j in range(n)]
                              for i in range(n)])
        if all(not c for row in term for c in row):
            break
        total = [[total[i][j] + term[i][j] for j in range(n)]
                 for i in range(n)]
        k += 1
        assert k < 10
    point = coords + [Q(0)]  # parameter value irrelevant for the transport
    for y in [alg.v_plus[0], alg.x_gamma, alg.l_indices[0]]:
        sym = calc_d4.ad_inverse(y)
        got = {i: _eval_at(c, point) for i, c in sym.items()}
        got = {i: c for i, c in got.items() if c}
        expected = {i: total[i][y] for i in range(n) if total[i][y]}
        assert got == expected


def test_r_is_multiplicative(calc_d4, env_d4, normal_order):
    alg = calc_d4.alg
    a = env_d4.gen(alg.v_minus[0])
    b = normal_order([alg.v_minus[3], alg.x_minus_gamma])
    left = calc_d4.r_op(env_d4.mul(a, b))
    right = calc_d4.r_op(a).compose(calc_d4.r_op(b))
    assert left == right


def test_pi_is_a_homomorphism_on_every_pair(calc_d4):
    # the exhaustive oracle behind the pi_homomorphism check, which tests
    # only X among the Chevalley generators: all 378 unordered D4 pairs
    alg = calc_d4.alg
    pairs = 0
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = calc_d4.pi_basis(i).commutator(calc_d4.pi_basis(j))
            rhs = PolyDiffOp(calc_d4.ncoords)
            for k, c in alg.table[i][j]:
                rhs = rhs + calc_d4.pi_basis(k) * c
            assert lhs == rhs, (alg.names[i], alg.names[j])
            pairs += 1
    assert pairs == 378


def test_r_mono_composes_r_gen_over_the_word(calc_d4):
    # the lemma behind the degree <= 1 nbar_commutant check: R of an nbar
    # monomial is the composition of R over its word, in order
    alg = calc_d4.alg
    monos = monomials_up_to(alg.nbar_indices, 3)
    assert len(monos) == 220
    for m in monos:
        want = calc_d4.identity_op()
        for g in mono_word(m):
            want = want.compose(calc_d4.r_gen(g))
        assert calc_d4.r_mono(m) == want, m


def test_pi_orders_and_nilradical_functionals(calc_d4):
    alg = calc_d4.alg
    for i in range(alg.dim):
        assert calc_d4.pi_basis(i).order() <= 1
    for u in alg.n_indices:
        _, func = calc_d4.pi_basis(u).at_identity()
        assert not func


def test_pi_coroot_value_at_identity(calc_d4):
    alg = calc_d4.alg
    op = PolyDiffOp(calc_d4.ncoords)
    for i, c in alg.h_gamma.items():
        op = op + calc_d4.pi_basis(i) * c
    value = _apply(op, Poly.constant(calc_d4.ncoords + 1, 1))
    at_identity = value.subs(0, Q(0))
    for i in range(1, calc_d4.ncoords):
        at_identity = at_identity.subs(i, Q(0))
    # the induced action of the grading coroot on the constant is -2s
    assert at_identity == _poly_var(calc_d4, calc_d4.s_var) * -2


def test_right_actions_commute_with_pi_of_opposite_radical(calc_d4,
                                                           normal_order):
    alg = calc_d4.alg
    nbar = [alg.x_minus_gamma] + list(alg.v_minus)
    u = normal_order([alg.v_minus[1], alg.v_minus[4]])
    r_u = calc_d4.r_op(u)
    for xb in nbar:
        assert not calc_d4.pi_basis(xb).commutator(r_u)


def test_subs_param_freezes_s(calc_d4):
    alg = calc_d4.alg
    op = calc_d4.pi_basis(alg.v_plus[0])
    frozen = op.subs_param(Q(-1))
    refrozen = frozen.subs_param(Q(17))
    assert frozen == refrozen  # no s left after the first substitution


def test_subs_param_builds_no_fraction(calc_d4, monkeypatch):
    # the value's numerator and denominator are read straight off an int or
    # a Fraction, so substituting builds no Fraction
    op = calc_d4.pi_basis(calc_d4.alg.v_plus[0])
    values = [-1, Q(5, 2)]
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    got = [op.subs_param(v) for v in values]
    monkeypatch.undo()
    assert built == []
    assert got == [op.subs_param(Q(v)) for v in values]
    assert got[0] != got[1]


def test_const_and_scalar_product_build_no_fraction(calc_d4, monkeypatch):
    # const and the scalar product read numerator and denominator off an int
    # or a Fraction, as subs_param does
    op = calc_d4.pi_basis(calc_d4.alg.v_plus[0])
    c = Q(3, 4)
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    got = [calc_d4.const(3), calc_d4.const(c), op * 2, 2 * op, op * c]
    monkeypatch.undo()
    assert built == []
    n = calc_d4.ncoords
    assert got[0] == PolyDiffOp._packed(n, {0: 3})
    assert got[1] == PolyDiffOp._packed(n, {0: 3}, 4)
    assert got[2] == got[3] == op + op
    assert got[4] == op.compose(got[1]) != op


# -- oracles for the flat Weyl-algebra kernel ---------------------------------


def _random_poly(rng, nvars, terms=4, degree=4):
    out = Poly(nvars)
    for _ in range(terms):
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        out = out + Poly(nvars, {tuple(e): Q(rng.randint(-5, 5),
                                             rng.randint(1, 3))})
    return out


@pytest.fixture(scope="module")
def cubic_ops_d4(calc_d4, omega_d4):
    return [calc_d4.r_op(g) for g in omega_d4.omega3_system()]


def test_memo_tables_are_per_instance(alg_d4, alg_a3):
    """Two calculi never share a memo entry, in either order of first use,
    and each repeats its own result."""
    for first, second in ((alg_d4, alg_a3), (alg_a3, alg_d4)):
        calcs = [OperatorCalculus(first), OperatorCalculus(second)]
        for calc in calcs:
            op = calc.pi_basis(0)
            assert op.ncoords == calc.alg.nbar_dim
            assert calc.pi_basis(0) is op
            assert calc.r_gen(0).ncoords == calc.alg.nbar_dim
            assert all(c.ncoords == calc.alg.nbar_dim
                       for c in calc.ad_inverse(0).values())


def test_memoized_methods_stay_plain_functions():
    """The class dict holds plain functions, so they can be patched by name."""
    for name in ("ad_inverse", "r_gen", "r_mono", "pi_basis"):
        assert inspect.isfunction(OperatorCalculus.__dict__[name])


def test_normal_ordering_hand_case(calc_d4):
    # d_z^2 o z^3 = z^3 d_z^2 + 6 z^2 d_z + 6 z
    n = calc_d4.ncoords
    dz = calc_d4.r_gen(calc_d4.alg.x_minus_gamma)
    z = _poly_var(calc_d4, 0)
    got = dz.compose(dz).compose(_mult(calc_d4, z ** 3))
    d1 = tuple(1 if i == 0 else 0 for i in range(n))
    d2 = tuple(2 if i == 0 else 0 for i in range(n))
    expected = _from_coeffs(n, {d2: z ** 3, d1: z * z * 6, (0,) * n: z * 6})
    assert got == expected
    z_op = calc_d4.var(0)
    assert got == dz * dz * (z_op * z_op * z_op)


def test_composition_matches_applying_in_turn(calc_d4, normal_order,
                                              cubic_ops_d4):
    """(A o B) f == A(B f), with _apply differentiating f directly."""
    alg = calc_d4.alg
    rng = random.Random(17)
    pis = [calc_d4.pi_basis(i) for i in range(alg.dim)]
    nbar = [alg.x_minus_gamma] + list(alg.v_minus)
    monos = [normal_order([rng.choice(nbar) for _ in range(k)])
             for k in (1, 2, 3)]
    rs = [calc_d4.r_mono(m) for u in monos for m in u]
    nvars = calc_d4.ncoords + 1
    mults = [_mult(calc_d4, _random_poly(rng, nvars, degree=6))
             for _ in range(4)]
    pool = pis + rs + cubic_ops_d4 + mults
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(12)]
    # higher-order operators after polynomial multipliers reorder k >= 2
    pairs += [(rng.choice(cubic_ops_d4 + rs), b) for b in mults]
    for a, b in pairs:
        f = _random_poly(rng, nvars)
        assert _apply(a.compose(b), f) == _apply(a, _apply(b, f))
        assert a * b == a.compose(b)


def _second_order_overlap(a, b):
    """Whether some term of a differentiates twice a coordinate that some
    term of b carries squared, so a o b reorders with k >= 2."""
    n = a.ncoords
    return any(ka[n + 1 + i] >= 2 and kb[i] >= 2
               for ka in (unpack_key(k, n) for k in a.terms)
               for kb in (unpack_key(k, n) for k in b.terms) for i in range(n))


def test_commutator_is_the_difference_of_compositions(calc_d4, normal_order,
                                                      cubic_ops_d4):
    """[a, b] == a o b - b o a, and [a, b] == -[b, a], over D4 pools."""
    alg = calc_d4.alg
    rng = random.Random(29)
    pis = [calc_d4.pi_basis(i) for i in range(alg.dim)]
    pis_special = [op.subs_param(Q(-1)) for op in pis]
    monos = {m for k in (1, 2, 3) for _ in range(4)
             for m in normal_order([rng.choice(alg.nbar_indices)
                                           for _ in range(k)])}
    rs = [calc_d4.r_mono(m) for m in sorted(monos)]
    mults = [_mult(calc_d4, _random_poly(rng, calc_d4.ncoords + 1, degree=6))
             for _ in range(4)]
    pools = [pis, pis_special, rs, cubic_ops_d4, mults]
    pairs = [(rng.choice(p), rng.choice(q)) for p in pools for q in pools
             for _ in range(3)]
    # higher-order operators against polynomial multipliers reorder k >= 2
    pairs += [(rng.choice(cubic_ops_d4 + rs), b) for b in mults]
    assert any(_second_order_overlap(a, b) for a, b in pairs)
    nonzero = 0
    for a, b in pairs:
        got = a.commutator(b)
        assert got == a.compose(b) - b.compose(a)
        assert got == -b.commutator(a)
        nonzero += bool(got)
    assert nonzero > len(pairs) // 2


def test_commutator_of_disjoint_supports_is_zero(calc_d4):
    # x_1^2 d_2 and x_3 d_4^2: neither differentiates the other's coordinates
    n = calc_d4.ncoords
    a = _from_coeffs(n, {tuple(int(i == 2) for i in range(n)):
                         _poly_var(calc_d4, 1) ** 2})
    b = _from_coeffs(n, {tuple(2 if i == 4 else 0 for i in range(n)):
                         _poly_var(calc_d4, 3) * 5})
    assert not a.commutator(b)
    assert a.compose(b)
    assert a.compose(b) == b.compose(a)


def test_flat_form_is_canonical(calc_d4):
    n = calc_d4.ncoords
    key = (0,) * (2 * n + 1)
    assert PolyDiffOp(n, {key: 2}, 4) == PolyDiffOp(n, {key: 1}, 2)
    assert PolyDiffOp(n, {key: 0}, 5) == PolyDiffOp(calc_d4.ncoords)
    with pytest.raises(ValueError):
        PolyDiffOp(n, {key: 1}, -2)
    op = calc_d4.pi_basis(calc_d4.alg.v_plus[2]) * Q(3, 7)
    assert _from_coeffs(n, _coefficients(op)) == op
    assert (op - op).den == 1


def _key(n, x=0, s=0, d=0):
    """The exponent tuple of x_1^x s^s d_1^d on n coordinates."""
    key = [0] * (2 * n + 1)
    key[1], key[n], key[n + 2] = x, s, d
    return tuple(key)


def test_packed_key_round_trips_at_the_field_limit(calc_d4):
    n = calc_d4.ncoords
    for fields in ({"x": 127}, {"s": 127}, {"d": 127},
                   {"x": 127, "s": 127, "d": 127}):
        key = _key(n, **fields)
        op = PolyDiffOp(n, {key: 3}, 5)
        assert [unpack_key(k, n) for k in op.terms] == [key]
        assert _from_coeffs(n, _coefficients(op)) == op
        assert op.compose(calc_d4.identity_op()) == op
    assert PolyDiffOp(n, {_key(n, d=127): 1}).order() == 127


def test_packed_key_rejects_a_field_of_128(calc_d4):
    n = calc_d4.ncoords
    for fields in ({"x": 128}, {"s": 128}, {"d": 128}, {"x": 300}):
        with pytest.raises(OverflowError):
            PolyDiffOp(n, {_key(n, **fields): 1})
    with pytest.raises(ValueError):
        PolyDiffOp(n, {_key(n, x=-1): 1})
    with pytest.raises(ValueError):
        PolyDiffOp(n, {(0,) * (2 * n): 1})


def test_products_past_the_field_limit_raise(calc_d4):
    """An exponent sum of 128 in a product raises instead of carrying into
    the next field; 127 is still exact."""
    n = calc_d4.ncoords
    x100 = PolyDiffOp(n, {_key(n, x=100): 1})
    assert x100.compose(PolyDiffOp(n, {_key(n, x=27): 1})) == \
        PolyDiffOp(n, {_key(n, x=127): 1})
    for right in ({"x": 28}, {"x": 127}):
        with pytest.raises(OverflowError):
            x100.compose(PolyDiffOp(n, {_key(n, **right): 1}))
    for op in (PolyDiffOp(n, {_key(n, d=64): 1}),
               PolyDiffOp(n, {_key(n, s=64): 1})):
        with pytest.raises(OverflowError):
            op.compose(op)
    # [x^40 d^100, x^100]: the k = 1 correction carries x^139
    with pytest.raises(OverflowError):
        PolyDiffOp(n, {_key(n, x=40, d=100): 1}).commutator(x100)
    # in a sum, one product past the limit raises even when another is exact
    x27, x28 = (PolyDiffOp(n, {_key(n, x=e): 1}) for e in (27, 28))
    with pytest.raises(OverflowError):
        sum_products(n, [(x100, x27), (x100, x28)])


def test_subs_param_matches_coefficientwise_substitution(calc_d4):
    n, s = calc_d4.ncoords, calc_d4.s_var
    for i in (calc_d4.alg.x_gamma, calc_d4.alg.v_plus[1]):
        op = calc_d4.pi_basis(i)
        got = op.subs_param(Q(-5, 3))
        expected = _from_coeffs(
            n, {d: c.subs(s, Q(-5, 3)) for d, c in _coefficients(op).items()})
        assert got == expected


def test_commutator_at_identity_symbolic_pairs(calc_d4, cubic_ops_d4):
    alg = calc_d4.alg
    pairs = with_s = 0
    for x in list(alg.v_plus) + [alg.x_gamma]:
        pi_x = calc_d4.pi_basis(x)
        for op in cubic_ops_d4:
            func = _rational(commutator_at_identity(pi_x, op))
            assert func == _rational(pi_x.commutator(op).at_identity())
            pairs += 1
            with_s += any(a1 for _, a1 in func.values())
    assert pairs == 72
    assert with_s > 0       # the pairs carry s: the s-part is compared too


def test_commutator_at_identity_on_every_basis_vector_e6():
    # the b matrices read [pi(Y), D_k] through commutator_at_identity for
    # every basis vector Y; E6 has no special value on the c = 0 slice, so
    # the D4 dense-solve reference of the b matrices cannot reach it
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse("E6")),
                            check=False)
    calc = OperatorCalculus(alg)
    ops = [calc.r_op(g) for g in OmegaSystem(alg).omega3_system()]
    with_s = 0
    for y in range(alg.dim):
        pi_y = calc.pi_basis(y)
        for op in ops:
            func = _rational(commutator_at_identity(pi_y, op))
            assert func == _rational(pi_y.commutator(op).at_identity()), y
            with_s += any(a1 for _, a1 in func.values())
    assert (alg.dim, len(ops)) == (78, 20)
    assert with_s > 0       # the pairs carry s: the s-part is compared too


def test_commutator_at_identity_at_special_value(calc_d4, cubic_ops_d4):
    rng = random.Random(19)
    for _ in range(12):
        y = rng.randrange(calc_d4.alg.dim)
        pi_y = calc_d4.pi_basis(y).subs_param(Q(-1))
        op = rng.choice(cubic_ops_d4)
        func = _rational(commutator_at_identity(pi_y, op))
        assert func == _rational(pi_y.commutator(op).at_identity())
        assert _rational(commutator_at_identity(op, pi_y)) == \
            _rational(op.commutator(pi_y).at_identity())
        assert not any(a1 for _, a1 in func.values())   # no s is left at s = -1


def test_point_functionals_raise_on_s_squared(calc_d4):
    alg = calc_d4.alg
    h = next(i for i in alg.cartan_index if alg.dchi_on_basis[i])
    pi_h = calc_d4.pi_basis(h)
    func = _rational(pi_h.at_identity())   # -s dchi(h) on the constant
    assert {m: a1 for m, (_, a1) in func.items() if a1} == \
        {(): -alg.dchi_on_basis[h]}
    with pytest.raises(ValueError):
        pi_h.compose(pi_h).at_identity()   # s^2 dchi(h)^2 on the constant
    # [s d/dz, s z] = s^2
    s = calc_d4.var(calc_d4.s_var)
    a, b = s * calc_d4.derivative(0), s * calc_d4.var(0)
    assert a.commutator(b) == s * s
    with pytest.raises(ValueError):
        commutator_at_identity(a, b)
    with pytest.raises(ValueError):
        a.commutator(b).at_identity()


def test_compose_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    n = 2
    xs = sympy.symbols("x0 x1")
    s = sympy.Symbol("s")
    f = sympy.Function("f")(*xs)

    def random_op():
        coeffs = {}
        for _ in range(3):
            d = (rng.randint(0, 2), rng.randint(0, 2))
            coeffs[d] = _random_poly(rng, n + 1, terms=2, degree=3)
        return _from_coeffs(n, coeffs)

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod([v ** k for v, k in zip(xs + (s,), e)])
                   for e, c in p.terms.items())

    def act(op, g):
        out = 0
        for d, c in _coefficients(op).items():
            h = g
            for v, k in zip(xs, d):
                if k:
                    h = sympy.diff(h, v, k)
            out += to_sympy(c) * h
        return out

    for _ in range(5):
        a, b = random_op(), random_op()
        lhs = act(a.compose(b), f)
        rhs = act(a, act(b, f))
        assert sympy.expand(lhs - rhs) == 0


def test_point_functionals_match_term_by_term_reference(calc_d4, cubic_ops_d4):
    # the s-free cubic operators, whose functionals span the b-matrix
    # solve, and the s-dependent induced operators, on every derivative
    pis = [calc_d4.pi_basis(i) for i in range(calc_d4.alg.dim)]
    for op in cubic_ops_d4 + pis:
        assert _rational(op.at_identity()) == _functional_reference(op)
    assert all(_functional_reference(op) for op in cubic_ops_d4)
    assert any(a1 for op in pis for _, a1 in _functional_reference(op).values())


# -- the per-pair reference kernel: masks rebuilt on every product and one
# reordering expansion looked up per overlapping term pair -------------------


def _masked_reference(terms, n):
    """Per term: key, numerator, coordinate mask, derivative mask and the
    derivative exponents shifted down to the coordinate fields."""
    ds, coords, low, high, _ = _layout(n)
    return [(k, v, ((k & coords) + low) & high, ((k >> ds) + low) & high,
             k >> ds) for k, v in terms.items()]


def _reorder_into_reference(out, base, overlap, ders, right, c, n):
    """Add c times the k >= 1 reordering corrections of one term pair."""
    fields = (overlap >> (FIELD_BITS - 1)) * 0xFF
    for dec, factor in _reorderings({}, n, (ders & fields, right & fields)):
        out[base - dec] = out.get(base - dec, 0) + c * factor


def _compose_reference(a, b):
    n = a.ncoords
    out = {}
    rights = _masked_reference(b.terms, n)
    for ka, ca, _, dma, da in _masked_reference(a.terms, n):
        for kb, cb, cmb, _, _ in rights:
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
            if dma & cmb:
                _reorder_into_reference(out, ka + kb, dma & cmb, da, kb,
                                        ca * cb, n)
    return PolyDiffOp._packed(n, out, a.den * b.den)


def _commutator_reference(a, b):
    n = a.ncoords
    out = {}
    rights = _masked_reference(b.terms, n)
    for ka, ca, cma, dma, da in _masked_reference(a.terms, n):
        for kb, cb, cmb, dmb, db in rights:
            if dma & cmb:
                _reorder_into_reference(out, ka + kb, dma & cmb, da, kb,
                                        ca * cb, n)
            if dmb & cma:
                _reorder_into_reference(out, ka + kb, dmb & cma, db, ka,
                                        -ca * cb, n)
    return PolyDiffOp._packed(n, out, a.den * b.den)


def _sum_reference(n, pairs):
    out = PolyDiffOp(n)
    for a, b in pairs:
        out = out + _compose_reference(a, b)
    return out


def _random_sparse_op(rng, n, terms=5, top=3):
    return PolyDiffOp(n, {tuple(rng.choice((0, 0, 0, rng.randint(1, top)))
                                for _ in range(2 * n + 1)):
                          rng.randint(-9, 9) for _ in range(terms)},
                      rng.randint(1, 6))


def test_kernel_matches_the_per_pair_reference_on_d4_pairs(calc_d4,
                                                          cubic_ops_d4):
    # the 224 pairs (pi at s = -1 of a basis vector, cubic operator) of the
    # special-value commutator table, in both orders
    n = calc_d4.ncoords
    pairs = 0
    for y in range(calc_d4.alg.dim):
        pi_y = calc_d4.pi_basis(y).subs_param(Q(-1))
        for op in cubic_ops_d4:
            assert pi_y.compose(op) == _compose_reference(pi_y, op)
            assert op.compose(pi_y) == _compose_reference(op, pi_y)
            assert pi_y.commutator(op) == _commutator_reference(pi_y, op)
            pairs += 1
        row = [(pi_y, op) for op in cubic_ops_d4]
        assert sum_products(n, row) == _sum_reference(n, row)
    assert pairs == 224


def test_kernel_matches_the_per_pair_reference_on_random_operators():
    rng = random.Random(31)
    n = 3
    for _ in range(200):
        a, b = _random_sparse_op(rng, n), _random_sparse_op(rng, n)
        assert a.compose(b) == _compose_reference(a, b)
        assert a.commutator(b) == _commutator_reference(a, b)
        pairs = [(_random_sparse_op(rng, n), _random_sparse_op(rng, n))
                 for _ in range(rng.randint(0, 4))]
        assert sum_products(n, pairs) == _sum_reference(n, pairs)
    with pytest.raises(ValueError):
        sum_products(n, [(a, PolyDiffOp(n + 1))])


def test_operations_leave_their_operands_unchanged(calc_d4, cubic_ops_d4):
    """No operation writes to an operand's term map, so the masks each
    operator computes once stay valid."""
    n = calc_d4.ncoords
    ops = [calc_d4.pi_basis(calc_d4.alg.v_plus[0]), cubic_ops_d4[0],
           calc_d4.var(1) * Q(3, 2), calc_d4.derivative(1)]
    before = [(dict(op.terms), op.den) for op in ops]
    for op in ops:
        op._masks()
    for a in ops:
        a * 3, 3 * a, a * Q(-2, 5), -a
        for b in ops:
            a + b, a - b, a.compose(b), a.commutator(b), a * b
    sum_products(n, [(a, b) for a in ops for b in ops])
    assert [(op.terms, op.den) for op in ops] == before
    assert all(op._masks() == _masked_reference(op.terms, n) for op in ops)
