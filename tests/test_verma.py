"""Scalar-induced module over the parabolic: action, weights, solver."""

import random
from fractions import Fraction as Q
from functools import reduce
from math import lcm

import pytest

from confsys.liealg import build_lie_algebra
from confsys.linalg import rref, solve
from confsys.omega import OmegaSystem
from confsys.pbw import (Enveloping, elt_add, elt_scale, elt_sub, mono_degree,
                         monomials_up_to)
from confsys.poly import Poly, poly_gcd, rational_roots
from confsys.roots import RootSystemSpec, build_root_system
from confsys.verma import Span, VermaModule, elt_subs

S = Poly(1, {(1,): Q(1)})  # the parameter s, for the Q[s] references below


def _as_poly(*coeffs):
    """The module vector sum_k s^k coeffs[k], with coefficients in Q[s]."""
    out = {}
    for k, v in enumerate(coeffs):
        out = elt_add(out, {m: S ** k * c for m, c in v.items()})
    return out


def _act_on_affine(vm, x, w):
    """X_x.(w0 + s*w1) for a pair w = (w0, w1), as its coefficients of s^0,
    s^1 and s^2: X_x.w0 + s*X_x.w1."""
    a0, a1 = vm.act_basis(x, w[0])
    b0, b1 = vm.act_basis(x, w[1])
    return a0, elt_add(a1, b0), b1


def _same(a, b):
    return all(not elt_sub(u, v) for u, v in zip(a, b, strict=True))


def test_highest_vector_eigenvalues(env_d4, verma_d4):
    alg = verma_d4.alg
    one = env_d4.one()   # the generator 1 tensor 1
    assert verma_d4.act(alg.h_gamma, one) == ({}, elt_scale(one, 2))
    # Levi root vectors and the nilradical kill the cyclic vector
    for i in alg.q_indices:
        if alg.root_of[i] is not None:
            assert verma_d4.act({i: Q(1)}, one) == ({}, {})


def test_opposite_radical_acts_freely(env_d4, verma_d4):
    alg = verma_d4.alg
    v = verma_d4.act_basis(alg.v_minus[0], env_d4.one())
    assert v == ({((alg.v_minus[0], 1),): 1}, {})
    w0, w1 = verma_d4.act_basis(alg.x_minus_gamma, v[0])
    assert list(w0) == [((alg.x_minus_gamma, 1), (alg.v_minus[0], 1))]
    assert w1 == {}


def test_representation_property_sample(env_d4, verma_d4):
    import random
    alg = verma_d4.alg
    rng = random.Random(7)
    v0 = env_d4.gen(alg.v_minus[1])
    for _ in range(25):
        x = rng.randrange(alg.dim)
        y = rng.randrange(alg.dim)
        xy = _act_on_affine(verma_d4, x, verma_d4.act_basis(y, v0))
        yx = _act_on_affine(verma_d4, y, verma_d4.act_basis(x, v0))
        lhs = [elt_sub(a, b) for a, b in zip(xy, yx)]
        rhs = verma_d4.act(dict(alg.table[x][y]), v0) + ({},)
        assert _same(lhs, rhs)


def test_act_is_linear_in_the_lie_element(env_d4, verma_d4, omega_d4):
    # act scales the Lie element's rational coefficients to ints over their
    # lcm; the result is the combination of the basis actions
    alg = verma_d4.alg
    x = {alg.cartan_index[0]: Q(5, 7), alg.x_gamma: Q(1, 2),
         alg.v_minus[0]: Q(-2, 3), alg.l_indices[-1]: Q(3)}
    for v in (env_d4.one(), omega_d4.omega3_system()[0]):
        expected = ({}, {})
        for i, c in x.items():
            expected = tuple(elt_add(e, elt_scale(part, c))
                             for e, part in zip(expected, verma_d4.act_basis(i, v)))
        assert _same(verma_d4.act(x, v), expected)
        assert any(expected)


def test_weights_of_low_degree_vectors(env_d4, verma_d4, omega_d4):
    alg = verma_d4.alg
    # grade -1 generator: 2s - 1; lowest vector: 2s - 2; cubic: 2s - 3
    cases = [
        (env_d4.gen(alg.v_minus[0]), -1),
        (env_d4.gen(alg.x_minus_gamma), -2),
        (omega_d4.omega3({alg.v_minus[0]: 1}), -3),
    ]
    for v, shift in cases:
        expected = (elt_scale(v, shift), elt_scale(v, 2))
        assert _same(verma_d4.act(alg.h_gamma, v), expected)


def test_engine_vectors_hold_no_zero_coefficient(env_d4, verma_d4, omega_d4):
    """Every vector the engine builds is canonical, so == is exact equality:
    on a seeded D4 sample, products in U(g), the quadratic and cubic
    elements, both parts of act_basis and act, and elt_subs values hold no
    zero coefficient, also where terms cancel (the nilradical on the cubic
    elements at s = -1)."""
    env, alg = env_d4, verma_d4.alg
    rng = random.Random("canonical-d4")
    states = ([env.one()]
              + [{m: 1} for m in rng.sample(monomials_up_to(alg.nbar_indices, 2), 6)]
              + [omega_d4.omega2_basis(z) for z in rng.sample(alg.l_indices, 4)]
              + [omega_d4.omega3({y: 1}) for y in rng.sample(alg.v_minus, 3)])
    vectors = list(states)
    for _ in range(30):
        a, b = (rng.choice(states) for _ in range(2))
        x = rng.randrange(alg.dim)
        ma, mb = next(iter(a)), next(iter(b))
        vectors += [env.mul(a, b), env.mul(env.gen(x), b), env.mono_mul(ma, mb),
                    env.mono_mul(((x, 1),), mb)]
        coeffs = {i: Q(rng.randint(-2, 2)) for i in rng.sample(range(alg.dim), 3)}
        for pair in (verma_d4.act_basis(x, b), verma_d4.act(coeffs, b)):
            vectors += [*pair, elt_subs(pair, Q(-1)), elt_subs(pair, Q(rng.randint(-3, 3)))]
    annihilated = [elt_subs(verma_d4.act({u: Q(1)}, w3), Q(-1))
                   for w3 in omega_d4.omega3_system() for u in alg.n_indices]
    assert not any(annihilated)    # every term cancels, leaving {}
    for v in vectors:
        assert all(c != 0 for c in v.values())


def test_singular_values_d4(verma_d4, omega_d4):
    res = verma_d4.singular_values(Span(omega_d4.omega3_system()))
    assert res.values == (Q(-1),)
    assert res.levi_stable_all_s
    assert not res.all_s
    assert res.constraint_count > 0


def test_singular_values_stable_span(env_d4, verma_d4):
    alg = verma_d4.alg
    gens = [env_d4.gen(i)
            for i in [alg.x_minus_gamma] + list(alg.v_minus)]
    gens.append(env_d4.one())
    res = verma_d4.singular_values(Span(gens))
    assert res.all_s
    assert res.levi_stable_all_s
    assert res.constraint_count == 0


def test_module_action_matrix_roundtrip(verma_d4, omega_d4):
    alg = verma_d4.alg
    gens = omega_d4.omega3_system()
    z = alg.l_indices[0]
    a = verma_d4.module_action_matrix(Span(gens), z, Q(-1))
    for i in range(len(gens)):
        got = elt_subs(verma_d4.act({z: Q(1)}, gens[i]), Q(-1))
        expected = {}
        for r in range(len(gens)):
            if a[r][i]:
                expected = elt_sub(expected,
                                   elt_scale(gens[r], -a[r][i]))
        assert not elt_sub(got, expected)


@pytest.mark.parametrize("s0", [Q(5, 2), Q(-1)])
def test_module_action_matrix_matches_dense_solve_reference(verma_d4, omega_d4,
                                                            s0):
    """Every q basis vector on the D4 cubic span, against elt_subs(act(...))
    plus one linalg.solve per generator: equal matrices where the span is
    stable at s0, ValueError exactly where the reference has no solution."""
    alg = verma_d4.alg
    gens = omega_d4.omega3_system()
    span = Span(gens)
    k = len(gens)
    stable = 0
    for x in alg.q_indices:
        images = [elt_subs(verma_d4.act({x: Q(1)}, g), s0) for g in gens]
        mons = sorted({m for v in gens + images for m in v})
        mat = [[g.get(m, Q(0)) for g in gens] for m in mons]
        cols = [solve(mat, [v.get(m, Q(0)) for m in mons]) for v in images]
        if any(c is None for c in cols):
            with pytest.raises(ValueError):
                verma_d4.module_action_matrix(span, x, s0)
            continue
        stable += 1
        want = [[cols[i][j] for i in range(k)] for j in range(k)]
        assert verma_d4.module_action_matrix(span, x, s0) == want, x
    # at s = -1 the span is q-stable; at 5/2 only the Levi factor keeps it
    assert stable == (len(alg.q_indices) if s0 == -1 else len(alg.l_indices))


def _int_pairs(v0, v1=None):
    """The module vector v0 + s*v1 as (den, {monomial: (a0, a1)}), the
    int-pair form Span.eliminate reads."""
    v1 = v1 or {}
    den = lcm(*(c.denominator for v in (v0, v1) for c in v.values()))
    return den, {m: (int(v0.get(m, 0) * den), int(v1.get(m, 0) * den))
                 for m in v0.keys() | v1.keys()}


def _coordinates_evaluating_first(span, den, w, s0):
    """The oracle of Span.coordinates: the vector (den, w) evaluated at s0
    before it is eliminated, as ints over q*den for s0 = p/q; its
    coefficients on gens, or None when it is off the span."""
    p, q = s0.numerator, s0.denominator
    d, coords, leftover = span.eliminate(
        q * den, {m: (q * a0 + p * a1, 0) for m, (a0, a1) in w.items()})
    if leftover:
        return None
    out = [Q(0)] * len(span.gens)
    for j, (b0, _) in coords.items():
        out[j] = Q(b0, d)
    return out


@pytest.mark.parametrize("s0", [Q(5, 2), Q(-1)])
def test_span_coordinates_match_dense_solve_reference(verma_d4, omega_d4, s0):
    """Every q image of the D4 cubic generators, reduced with s symbolic and
    read at s0, against evaluating first (the oracle) and one linalg.solve
    each: equal coordinates on the span, None off it."""
    alg = verma_d4.alg
    gens = omega_d4.omega3_system()
    span = Span(gens)
    off = 0
    for x in alg.q_indices:
        for g in gens:
            v0, v1 = verma_d4.act({x: Q(1)}, g)
            v = elt_subs((v0, v1), s0)
            mons = sorted({m for u in gens + [v] for m in u})
            mat = [[u.get(m, Q(0)) for u in gens] for m in mons]
            want = solve(mat, [v.get(m, Q(0)) for m in mons])
            ints = _int_pairs(v0, v1)
            assert _coordinates_evaluating_first(span, *ints, s0) == want
            assert span.coordinates(span.eliminate(*ints), s0) == want, (x, g)
            off += want is None
    assert (off == 0) == (s0 == -1)


def test_span_coordinates_read_at_s0_on_and_off_the_span():
    a, b, c = ((0, 1),), ((1, 1),), ((2, 1),)
    span = Span([{a: Q(1), b: Q(1, 2)}, {c: Q(3)}])
    values = [Q(-1), Q(0), Q(5, 2), Q(-7, 3)]

    def read(v0, v1, s0):
        ints = _int_pairs(v0, v1)
        got = span.coordinates(span.eliminate(*ints), s0)
        assert got == _coordinates_evaluating_first(span, *ints, s0)
        return got

    # on the span at every s0: (1 + s) gens[0] + 2 gens[1]
    for s0 in values:
        assert read({a: Q(1), b: Q(1, 2), c: Q(6)}, {a: Q(1), b: Q(1, 2)},
                    s0) == [1 + s0, Q(2)]
    # off the span at every s0: off its row space, or off its monomials
    for s0 in values:
        assert read({a: Q(1)}, {a: Q(s0 + 1)}, s0) is None
        assert read({((3, 1),): Q(1)}, {c: Q(1)}, s0) is None
    # on the span only at s* = -1: gens[1] + (1 + s) X_a, which carries s
    for s0 in values:
        got = read({c: Q(3), a: Q(1)}, {a: Q(1)}, s0)
        assert got == ([Q(0), Q(1)] if s0 == -1 else None)


def test_module_action_matrix_rejects_unstable(env_d4, verma_d4):
    alg = verma_d4.alg
    a = alg.v_minus[0]
    gens = [env_d4.gen(a)]
    # the Killing-dual raising vector maps X_{-eps}*1 onto the cyclic vector,
    # which lies outside the one-dimensional span
    x = next(b for b in alg.v_plus if alg.killing_elem({b: 1}, {a: 1}))
    with pytest.raises(ValueError):
        verma_d4.module_action_matrix(Span(gens), x, Q(-1))


def test_module_action_matrix_rejects_residual_inside_support(env_d4, verma_d4):
    env = env_d4
    alg = env.alg

    def weight(h, i):
        return dict(alg.table[h][i])[i]

    # X_a + X_b is an eigenvector of no Cartan vector H that weighs a and b
    # differently: H maps it onto the same two monomials, outside its span
    a = alg.v_minus[0]
    h, b = next((h, b) for h in alg.cartan_index for b in alg.v_minus
                if weight(h, a) != weight(h, b))
    gens = [elt_add(env.gen(a), env.gen(b))]
    v0, v1 = verma_d4.act({h: Q(1)}, gens[0])
    assert set(v0) | set(v1) == set(gens[0])
    with pytest.raises(ValueError):
        verma_d4.module_action_matrix(Span(gens), h, Q(-1))


def _complement_constraints(vm, gens, acting=None):
    """The stability constraints by the dense complement: a reference.

    acting is a pair (Levi vectors, nilradical vectors) of basis indices,
    every basis vector of q by default.  Each acted generator, as the
    rational pairs a0 + a1*s of VermaModule._act_ints, contributes its
    coefficients off the span's monomials, then its nonzero inner products
    with a basis of the span's left nullspace, taken from the rref of the
    span matrix; all as rational pairs (a0, a1).
    """
    if acting is None:
        acting = (vm.alg.l_indices, vm.alg.n_indices)
    mons = sorted({m for g in gens for m in g}, key=lambda t: (mono_degree(t), t))
    index = {m: k for k, m in enumerate(mons)}
    red, pivots = rref([[g.get(m, Q(0)) for m in mons]
                        for g in gens])
    complement = []
    for f in range(len(mons)):
        if f not in pivots:
            u = [Q(0)] * len(mons)
            u[f] = Q(1)
            for r, p in enumerate(pivots):
                u[p] = -red[r][f]
            complement.append(u)
    levi, nil = [], []
    for part, out in zip(acting, (levi, nil)):
        for x in part:
            for g in gens:
                w = vm._act_ints({x: 1}, g)
                out += [(a0, a1) for m, (a0, a1) in w.items()
                        if m not in index and (a0 or a1)]
                for u in complement:
                    dot = [Q(0), Q(0)]
                    for m, (a0, a1) in w.items():
                        if m in index and u[index[m]]:
                            dot[0] += a0 * u[index[m]]
                            dot[1] += a1 * u[index[m]]
                    if any(dot):
                        out.append(tuple(dot))
    return levi, nil


def _positive_multiples(got, ref):
    """Each int pair of got is a positive multiple of the pair of ref at its
    place: the same constraint a0 + a1*s = 0, with the same sign."""
    return len(got) == len(ref) and all(
        type(b0) is int and type(b1) is int
        and b0 * r1 == b1 * r0 and b0 * r0 + b1 * r1 > 0
        for (b0, b1), (r0, r1) in zip(got, ref))


def _generators_by_grade(alg):
    gens = alg.q_generators
    return ([x for x in gens if alg.grade[x] == 0],
            [x for x in gens if alg.grade[x] > 0])


@pytest.mark.parametrize("label,count", [("a3", 12), ("d4", 15), ("d5", 24)])
def test_stability_constraints_match_complement_reference(request, label, count):
    env = Enveloping(request.getfixturevalue(f"alg_{label}"))
    vm = VermaModule(env.alg)
    gens = OmegaSystem(env.alg).omega3_system()
    levi, nil = vm.stability_constraints(Span(gens))
    ref_levi, ref_nil = _complement_constraints(vm, gens,
                                                _generators_by_grade(env.alg))
    assert _positive_multiples(levi, ref_levi)
    assert _positive_multiples(nil, ref_nil)
    assert len(levi) + len(nil) == count


def test_stability_constraints_match_complement_reference_inside_support(env_d4, verma_d4):
    # the cubic spans above leave coefficients only off their monomials; sums
    # of grade -1 vectors keep the Levi action on their monomials, where it
    # leaves several non-pivot coefficients per acted generator
    env = env_d4
    v = env.alg.v_minus
    gens = [elt_add(elt_add(env.gen(v[0]), elt_scale(env.gen(v[1]), Q(2))),
                    elt_scale(env.gen(v[2]), Q(5))),
            elt_add(env.gen(v[3]), elt_scale(env.gen(v[4]), Q(3)))]
    levi, nil = _complement_constraints(verma_d4, gens,
                                        _generators_by_grade(env.alg))
    assert levi and nil
    got_levi, got_nil = verma_d4.stability_constraints(Span(gens))
    assert _positive_multiples(got_levi, levi)
    assert _positive_multiples(got_nil, nil)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "D5"])
def test_singular_values_match_all_of_q_reference(label):
    # stability under the generators of q is stability under all of q: the
    # findings equal those of the constraints from every basis vector of q
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    env = Enveloping(alg)
    vm = VermaModule(alg)
    first_level = [env.gen(i) for i in alg.nbar_indices] + [env.one()]
    for gens in (OmegaSystem(env.alg).omega3_system(), first_level):
        levi, nil = _complement_constraints(vm, gens)
        constraints = [S * a1 + Poly.constant(1, a0) for a0, a1 in levi + nil]
        gcd = reduce(poly_gcd, constraints, Poly.constant(1, 0))
        values = tuple(rational_roots(gcd)) if constraints else ()
        res = vm.singular_values(Span(gens))
        assert (res.values, res.all_s, res.levi_stable_all_s) == (
            values, not constraints, not levi)


def test_stability_constraints_act_by_generators_only(verma_d4, omega_d4,
                                                      monkeypatch):
    # 8 generators of q times 8 cubic elements; every basis vector of q
    # (19 of them) would take 152 actions
    gens = omega_d4.omega3_system()
    calls = []
    act_ints = VermaModule._act_ints

    def counted(self, x, v):
        calls.extend(x)
        return act_ints(self, x, v)

    monkeypatch.setattr(VermaModule, "_act_ints", counted)
    verma_d4.stability_constraints(Span(gens))
    assert len(calls) == 64
    assert set(calls) == set(verma_d4.alg.q_generators)


def test_action_matrices_share_the_stability_solve_eliminations(
        alg_d4, omega_d4, monkeypatch):
    # the stability solve eliminates each image under a generator of q once,
    # in the memo the action matrices read: on a fresh module, the matrices
    # of the generators of q at s* = -1 then eliminate nothing more (the 64
    # images of 8 generators x 8 cubic elements)
    vm, span = VermaModule(alg_d4), Span(omega_d4.omega3_system())
    calls = []
    eliminate = Span.eliminate

    def counted(self, den, w):
        calls.append(den)
        return eliminate(self, den, w)

    monkeypatch.setattr(Span, "eliminate", counted)
    assert vm.singular_values(span).values == (Q(-1),)
    assert len(calls) == 64
    for x in alg_d4.q_generators:
        vm.module_action_matrix(span, x, Q(-1))
    assert len(calls) == 64


@pytest.mark.parametrize("label", ["d4", "a3"])
def test_s_enters_only_through_the_module_action(request, label):
    # U(g) and the quadratic and cubic elements hold rationals; acting on the
    # module gives a pair (v0, v1), v0 + s*v1, of rational vectors
    alg = request.getfixturevalue(f"alg_{label}")
    env = Enveloping(alg)
    om, vm = OmegaSystem(env.alg), VermaModule(alg)
    cubic = om.omega3_system()
    quadratic = [om.omega2_basis(i) for i in alg.l_indices]
    products = [env.mul(a, b) for a in cubic[:2] + quadratic[:2]
                for b in (env.gen(alg.v_minus[0]), {((alg.x_gamma, 1),): Q(1, 2)},
                          quadratic[-1], cubic[-1])]
    rational = [c for e in cubic + quadratic + products for c in e.values()]
    assert rational and all(type(c) in (int, Q) for c in rational)
    vectors = [env.one(), env.gen(alg.v_minus[0]), cubic[0]]
    vectors += vm.act_basis(alg.x_gamma, cubic[0])  # its components are vectors too
    assert all(vectors)
    acted = [vm.act_basis(x, v) for x in alg.q_generators + alg.nbar_indices[:2]
             for v in vectors]
    for k in (0, 1):
        part = [c for pair in acted for c in pair[k].values()]
        assert part and all(type(c) in (int, Q) for c in part)


def test_parameter_dependent_generators_rejected(env_d4, verma_d4):
    gens = [elt_scale(env_d4.gen(1), S)]
    with pytest.raises(NotImplementedError):
        verma_d4.singular_values(Span(gens))


def test_generic_rank(verma_d4, omega_d4):
    gens = omega_d4.omega3_system()
    assert Span(gens).rank == len(gens)


def test_generic_rank_of_dependent_generators(env_d4):
    g1, g2 = (env_d4.gen(i) for i in env_d4.alg.v_minus[:2])
    assert Span([g1, g2, elt_add(g1, g2)]).rank == 2


def _dense_span_reference(gens):
    """Span's rank, scale and int echelon rows from the dense rref of the
    Fraction matrix of the generators augmented with unit columns."""
    mons = sorted({m for g in gens for m in g}, key=lambda t: (mono_degree(t), t))
    col = {m: k for k, m in enumerate(mons)}
    n, k = len(mons), len(gens)
    mat = [[Q(0)] * n + [Q(int(i == j)) for i in range(k)] for j in range(k)]
    for j, g in enumerate(gens):
        for m, c in g.items():
            mat[j][col[m]] = Q(c)
    red, pivots = rref(mat)
    rank = sum(p < n for p in pivots)
    tails = {p: [(f, a) for f, a in enumerate(red[r]) if a and f != p]
             for r, p in enumerate(pivots[:rank])}
    scale = lcm(*(a.denominator for tail in tails.values() for _, a in tail))
    return rank, scale, {p: [(f, a.numerator * (scale // a.denominator))
                             for f, a in tail] for p, tail in tails.items()}


def test_span_rows_match_dense_rref_reference(env_d4, omega_d4):
    # fraction-free elimination on sparse int rows gives the rref's rows:
    # the engine's spans, then seeded rational generators over a small pool
    # of monomials, with dependent and zero generators, which put pivots on
    # the combination columns
    alg = env_d4.alg
    cases = [omega_d4.omega3_system(),
             [env_d4.gen(i) for i in alg.nbar_indices] + [env_d4.one()]]
    rng = random.Random("span-reference")
    pool = monomials_up_to(alg.nbar_indices[:4], 2)[:9]
    for _ in range(12):
        gens = [{m: Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
                 for m in rng.sample(pool, rng.randint(1, 5))}
                for _ in range(rng.randint(2, 7))]
        gens.append(elt_add(elt_scale(gens[0], Q(-2, 3)), gens[1]))
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens)), {})
        cases.append(gens)
    for gens in cases:
        span = Span(gens)
        assert (span.rank, span.scale, span._rows) == _dense_span_reference(gens)
        for (den, ints), g in zip(span.int_gens, gens, strict=True):
            assert {m: Q(c, den) for m, c in ints.items()} == g
    assert any(Span(gens).rank < len(gens) - 1 for gens in cases[2:])


def test_control_solvers_empty():
    from confsys.liealg import build_lie_algebra
    from confsys.omega import OmegaSystem
    from confsys.pbw import Enveloping
    from confsys.roots import RootSystemSpec, build_root_system

    for label in ("A3", "D5"):
        rs = build_root_system(RootSystemSpec.parse(label))
        env = Enveloping(build_lie_algebra(rs, check=False))
        om = OmegaSystem(env.alg)
        res = VermaModule(env.alg).singular_values(Span(om.omega3_system()))
        assert res.values == ()
        assert not res.all_s
        assert res.levi_stable_all_s


def _act_by_normal_ordering(env, x, v):
    """X_x.v by the definition: a reference for VermaModule.act_basis.

    Normal-orders X_x v in all of U(g), drops every monomial with a root
    vector of q among its factors, and lets each Cartan factor H^e contribute
    (s*dchi(H))^e to the coefficient of the monomial's nbar part.  The
    coefficients of v may be rationals or Polys in s; the result's are Polys.
    """
    alg = env.alg
    out = {}
    for m, c in env.mul(env.gen(x), v).items():
        coeff = c if isinstance(c, Poly) else Poly.constant(1, c)
        for i, e in m:
            if i < alg.nbar_dim:
                continue
            if alg.root_of[i] is not None:
                break
            coeff = coeff * (S * alg.dchi_on_basis[i]) ** e
        else:
            body = tuple((i, e) for i, e in m if i < alg.nbar_dim)
            out = elt_add(out, {body: coeff})
    return out


def _oracle_vectors(env, rng):
    """Cubic and quadratic elements, and sums of random nbar monomials of
    degree <= 3 with non-integer rational coefficients."""
    alg = env.alg
    om = OmegaSystem(env.alg)
    vectors = om.omega3_system() + [om.omega2_basis(i) for i in alg.l_indices]
    pool = monomials_up_to(alg.nbar_indices, 3)
    for _ in range(4):
        vectors.append({m: Q(rng.choice((-1, 1)) * (2 * rng.randrange(1, 6) + 1),
                             2 * rng.randrange(1, 4))
                        for m in rng.sample(pool, 3)})
    return vectors


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_act_basis_matches_normal_ordering_reference(label):
    import random
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    env = Enveloping(alg)
    vm = VermaModule(alg)
    rng = random.Random(12)
    vectors = _oracle_vectors(env, rng)
    for x in range(alg.dim):
        for v in vectors:
            assert _as_poly(*vm.act_basis(x, v)) == _act_by_normal_ordering(env, x, v)
    # two actions, as verma_representation composes them: X_x on the pair
    # X_y.v = w0 + s*w1 componentwise, against the reference applied twice
    # (its second input has coefficients in Q[s])
    squares = 0
    for v in vectors[:1] + vectors[-4:]:
        for x in range(alg.dim):
            y = rng.randrange(alg.dim)
            got = _act_on_affine(vm, x, vm.act_basis(y, v))
            ref = _act_by_normal_ordering(env, x, _act_by_normal_ordering(env, y, v))
            assert _as_poly(*got) == ref
            squares += bool(got[2])
    assert squares  # the sample reaches the s^2 coefficient


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_nbar_action_is_the_heisenberg_product(label):
    # the closed form of Y_x.m in _act_mono against normal ordering in U(g),
    # term for term and in the same order, with at most two terms
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    env = Enveloping(alg)
    vm = VermaModule(alg)
    sizes = set()
    for x in alg.nbar_indices:
        for m in monomials_up_to(alg.nbar_indices, 3):
            got = vm._act_mono(x, m)
            assert got == tuple((m2, c, 0) for m2, c
                                in env.mono_mul(((x, 1),), m).items())
            sizes.add(len(got))
    assert sizes == {1, 2}   # the sample reaches the commutator term


def test_act_basis_results_are_not_aliased(verma_d4, omega_d4):
    # act_basis builds its result from a memo; mutating one result must not
    # reach a later call with the same arguments
    alg = verma_d4.alg
    v = omega_d4.omega3_system()[0]
    for x in (alg.x_gamma, alg.cartan_index[0], alg.v_minus[0]):
        first = verma_d4.act_basis(x, v)
        kept = tuple(dict(part) for part in first)
        for part in first:
            for m in list(part):
                part[m] = part[m] * 3
            part[()] = Q(7)
        assert verma_d4.act_basis(x, v) == kept
        for part in verma_d4.act_basis(x, v):
            part.clear()
        assert verma_d4.act_basis(x, v) == kept


def test_act_memo_holds_one_table_of_tuple_images_per_basis_index(alg_d4):
    # the stability solve's memo: _act_memo[x][m] is the image of the nbar
    # monomial m by X_x, a tuple of (monomial, a0, a1) int triples with a
    # nonzero pair, and every zero image is the one empty tuple
    env = Enveloping(alg_d4)
    vm = VermaModule(alg_d4)
    vm.stability_constraints(Span(OmegaSystem(env.alg).omega3_system()))
    assert type(vm._act_memo) is list and len(vm._act_memo) == alg_d4.dim
    assert all(type(table) is dict for table in vm._act_memo)
    images = [img for table in vm._act_memo for img in table.values()]
    assert images and all(type(img) is tuple for img in images)
    for img in images:
        assert all(len(t) == 3 and type(t[0]) is tuple and type(t[1]) is int
                   and type(t[2]) is int and (t[1] or t[2]) for t in img)
        assert len({m for m, _, _ in img}) == len(img)
    zeros = [img for img in images if not img]
    empty = ()
    assert zeros and all(img is empty for img in zeros)
    other = VermaModule(alg_d4)
    assert not {id(t) for t in vm._act_memo} & {id(t) for t in other._act_memo}


def test_stability_solve_memory_e6():
    # tracemalloc peak of the E6 cubic solve from a fresh module: 1.15 to
    # 1.3 MiB with tuple images in per-index tables (less when freed tuples
    # are reused), 2.7 MiB with dict images under (x, m) keys
    import tracemalloc
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse("E6")),
                            check=False)
    env = Enveloping(alg)
    span = Span(OmegaSystem(env.alg).omega3_system())
    vm = VermaModule(alg)
    tracemalloc.start()
    try:
        vm.stability_constraints(span)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "A6", "A7", "D4",
                                   "D5", "D6", "D7", "D8", "E6"])
def test_action_on_s_free_vectors_is_affine_in_s(label):
    # the lemma the stability solve rests on: acting by one basis vector on
    # an s-free module vector gives v0 + s*v1 with rational v0, v1.  The pair
    # holds no higher power of s; that it is the whole action is
    # test_act_basis_matches_normal_ordering_reference.  Here both powers
    # occur, and every coefficient is rational.
    import random
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    env = Enveloping(alg)
    vm = VermaModule(alg)
    rng = random.Random(f"affine-{label}")
    pool = monomials_up_to(alg.nbar_indices, 3)
    vectors = [env.one()] + [env.gen(i) for i in alg.nbar_indices]
    vectors += [{m: Q(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                 for m in rng.sample(pool, 4)} for _ in range(3)]
    vectors += [{m: Q(1)} for m in pool if mono_degree(m) == 3][:5]
    vectors += OmegaSystem(env.alg).omega3_system()
    acted = [vm.act_basis(x, v) for x in range(alg.dim) for v in vectors]
    assert {k for pair in acted for k, part in enumerate(pair) if part} == {0, 1}
    assert all(type(c) in (int, Q) for pair in acted for part in pair
               for c in part.values())
