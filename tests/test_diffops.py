"""Polynomial differential operators and the induced-picture calculus."""

import random
from fractions import Fraction as Q
from math import lcm, prod

import pytest

from confsys.diffops import PolyDiffOp, commutator_at_identity
from confsys.poly import Poly

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
    return sum(Q(v, f.den) * prod(p ** e for p, e in zip(point, k))
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


def test_pi_is_a_homomorphism_sample(calc_d4):
    alg = calc_d4.alg
    rng = random.Random(13)
    for _ in range(20):
        i = rng.randrange(alg.dim)
        j = rng.randrange(alg.dim)
        lhs = calc_d4.pi_basis(i).commutator(calc_d4.pi_basis(j))
        rhs = calc_d4.zero_op()
        for k, c in alg.bracket(i, j):
            rhs = rhs + calc_d4.pi_basis(k) * c
        assert lhs == rhs


def test_pi_orders_and_nilradical_functionals(calc_d4):
    alg = calc_d4.alg
    for i in range(alg.dim):
        assert calc_d4.pi_basis(i).order() <= 1
    for u in alg.n_indices:
        f0, f1 = calc_d4.pi_basis(u).at_identity()
        assert not f0 and not f1


def test_pi_coroot_value_at_identity(calc_d4):
    alg = calc_d4.alg
    op = calc_d4.zero_op()
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
    frozen = op.subs_param(calc_d4.s_var, Q(-1))
    refrozen = frozen.subs_param(calc_d4.s_var, Q(17))
    assert frozen == refrozen  # no s left after the first substitution


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
               for ka in a.terms for kb in b.terms for i in range(n))


def test_commutator_is_the_difference_of_compositions(calc_d4, normal_order,
                                                      cubic_ops_d4):
    """[a, b] == a o b - b o a, and [a, b] == -[b, a], over D4 pools."""
    alg, s = calc_d4.alg, calc_d4.s_var
    rng = random.Random(29)
    pis = [calc_d4.pi_basis(i) for i in range(alg.dim)]
    pis_special = [op.subs_param(s, Q(-1)) for op in pis]
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
    assert PolyDiffOp(n, {key: 0}, 5) == calc_d4.zero_op()
    with pytest.raises(ValueError):
        PolyDiffOp(n, {key: 1}, -2)
    op = calc_d4.pi_basis(calc_d4.alg.v_plus[2]) * Q(3, 7)
    assert _from_coeffs(n, _coefficients(op)) == op
    assert (op - op).den == 1


def test_subs_param_matches_coefficientwise_substitution(calc_d4):
    n, s = calc_d4.ncoords, calc_d4.s_var
    for i in (calc_d4.alg.x_gamma, calc_d4.alg.v_plus[1]):
        op = calc_d4.pi_basis(i)
        got = op.subs_param(s, Q(-5, 3))
        expected = _from_coeffs(
            n, {d: c.subs(s, Q(-5, 3)) for d, c in _coefficients(op).items()})
        assert got == expected


def test_commutator_at_identity_symbolic_pairs(calc_d4, cubic_ops_d4):
    alg = calc_d4.alg
    pairs = with_s = 0
    for x in list(alg.v_plus) + [alg.x_gamma]:
        pi_x = calc_d4.pi_basis(x)
        for op in cubic_ops_d4:
            f0, f1 = commutator_at_identity(pi_x, op)
            assert (f0, f1) == pi_x.commutator(op).at_identity()
            pairs += 1
            with_s += bool(f1)
    assert pairs == 72
    assert with_s > 0       # the pairs carry s: the s-part is compared too


def test_commutator_at_identity_at_special_value(calc_d4, cubic_ops_d4):
    rng = random.Random(19)
    for _ in range(12):
        y = rng.randrange(calc_d4.alg.dim)
        pi_y = calc_d4.pi_basis(y).subs_param(calc_d4.s_var, Q(-1))
        op = rng.choice(cubic_ops_d4)
        f0, f1 = commutator_at_identity(pi_y, op)
        assert (f0, f1) == pi_y.commutator(op).at_identity()
        assert commutator_at_identity(op, pi_y) == \
            op.commutator(pi_y).at_identity()
        assert not f1           # no s is left at the special value


def test_point_functionals_raise_on_s_squared(calc_d4):
    alg = calc_d4.alg
    h = next(i for i in alg.cartan_index if alg.dchi_index(i))
    pi_h = calc_d4.pi_basis(h)
    f0, f1 = pi_h.at_identity()            # -s dchi(h) on the constant
    assert f1 == {(0,) * calc_d4.ncoords: -alg.dchi_index(h)}
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
