"""Scalar-induced module over the parabolic: action, weights, solver."""

from fractions import Fraction as Q
from functools import reduce

import pytest

from confsys.liealg import build_lie_algebra
from confsys.linalg import rref
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


def test_highest_vector_eigenvalues(verma_d4):
    alg = verma_d4.env.alg
    one = verma_d4.env.one()   # the generator 1 tensor 1
    assert verma_d4.act(alg.h_gamma, one) == ({}, elt_scale(one, 2))
    # Levi root vectors and the nilradical kill the cyclic vector
    for i in alg.q_indices:
        if alg.root_of[i] is not None:
            assert verma_d4.act({i: Q(1)}, one) == ({}, {})


def test_opposite_radical_acts_freely(verma_d4):
    env = verma_d4.env
    alg = env.alg
    v = verma_d4.act_basis(alg.v_minus[0], verma_d4.env.one())
    assert v == ({((alg.v_minus[0], 1),): 1}, {})
    w0, w1 = verma_d4.act_basis(alg.x_minus_gamma, v[0])
    assert list(w0) == [((alg.x_minus_gamma, 1), (alg.v_minus[0], 1))]
    assert w1 == {}


def test_representation_property_sample(verma_d4):
    import random
    alg = verma_d4.env.alg
    rng = random.Random(7)
    v0 = verma_d4.env.gen(alg.v_minus[1])
    for _ in range(25):
        x = rng.randrange(alg.dim)
        y = rng.randrange(alg.dim)
        xy = _act_on_affine(verma_d4, x, verma_d4.act_basis(y, v0))
        yx = _act_on_affine(verma_d4, y, verma_d4.act_basis(x, v0))
        lhs = [elt_sub(a, b) for a, b in zip(xy, yx)]
        rhs = verma_d4.act(dict(alg.bracket(x, y)), v0) + ({},)
        assert _same(lhs, rhs)


def test_act_is_linear_in_the_lie_element(verma_d4, omega_d4):
    # act scales the Lie element's rational coefficients to ints over their
    # lcm; the result is the combination of the basis actions
    alg = verma_d4.alg
    x = {alg.cartan_index[0]: Q(5, 7), alg.x_gamma: Q(1, 2),
         alg.v_minus[0]: Q(-2, 3), alg.l_indices[-1]: Q(3)}
    for v in (verma_d4.env.one(), omega_d4.omega3_system()[0]):
        expected = ({}, {})
        for i, c in x.items():
            expected = tuple(elt_add(e, elt_scale(part, c))
                             for e, part in zip(expected, verma_d4.act_basis(i, v)))
        assert _same(verma_d4.act(x, v), expected)
        assert any(expected)


def test_weights_of_low_degree_vectors(verma_d4, omega_d4):
    alg = verma_d4.env.alg
    # grade -1 generator: 2s - 1; lowest vector: 2s - 2; cubic: 2s - 3
    cases = [
        (verma_d4.env.gen(alg.v_minus[0]), -1),
        (verma_d4.env.gen(alg.x_minus_gamma), -2),
        (omega_d4.omega3_basis(alg.v_minus[0]), -3),
    ]
    for v, shift in cases:
        expected = (elt_scale(v, shift), elt_scale(v, 2))
        assert _same(verma_d4.act(alg.h_gamma, v), expected)


def test_singular_values_d4(verma_d4, omega_d4):
    res = verma_d4.singular_values(omega_d4.omega3_system())
    assert res.values == (Q(-1),)
    assert res.levi_stable_all_s
    assert not res.all_s
    assert res.constraint_count > 0


def test_singular_values_stable_span(verma_d4):
    alg = verma_d4.env.alg
    gens = [verma_d4.env.gen(i)
            for i in [alg.x_minus_gamma] + list(alg.v_minus)]
    gens.append(verma_d4.env.one())
    res = verma_d4.singular_values(gens)
    assert res.all_s
    assert res.levi_stable_all_s
    assert res.constraint_count == 0


def test_module_action_matrix_roundtrip(verma_d4, omega_d4):
    alg = verma_d4.env.alg
    gens = omega_d4.omega3_system()
    z = alg.l_indices[0]
    a = verma_d4.module_action_matrix(Span(gens), {z: Q(1)}, Q(-1))
    for i in range(len(gens)):
        got = elt_subs(verma_d4.act({z: Q(1)}, gens[i]), Q(-1))
        expected = {}
        for r in range(len(gens)):
            if a[r][i]:
                expected = elt_sub(expected,
                                   elt_scale(gens[r], -a[r][i]))
        assert not elt_sub(got, expected)


def test_module_action_matrix_rejects_unstable(verma_d4):
    alg = verma_d4.env.alg
    a = alg.v_minus[0]
    gens = [verma_d4.env.gen(a)]
    # the Killing-dual raising vector maps X_{-eps}*1 onto the cyclic vector,
    # which lies outside the one-dimensional span
    x = next(b for b in alg.v_plus if alg.killing(b, a))
    with pytest.raises(ValueError):
        verma_d4.module_action_matrix(Span(gens), {x: Q(1)}, Q(-1))


def test_module_action_matrix_rejects_residual_inside_support(verma_d4):
    env = verma_d4.env
    alg = env.alg

    def weight(h, i):
        return dict(alg.bracket(h, i))[i]

    # X_a + X_b is an eigenvector of no Cartan vector H that weighs a and b
    # differently: H maps it onto the same two monomials, outside its span
    a = alg.v_minus[0]
    h, b = next((h, b) for h in alg.cartan_index for b in alg.v_minus
                if weight(h, a) != weight(h, b))
    gens = [elt_add(env.gen(a), env.gen(b))]
    v0, v1 = verma_d4.act({h: Q(1)}, gens[0])
    assert set(v0) | set(v1) == set(gens[0])
    with pytest.raises(ValueError):
        verma_d4.module_action_matrix(Span(gens), {h: Q(1)}, Q(-1))


def _complement_constraints(vm, gens, acting=None):
    """The stability constraints by the dense complement: a reference.

    acting is a pair (Levi vectors, nilradical vectors) of basis indices,
    every basis vector of q by default.  Each acted generator, as the int
    pairs (a0 + a1*s)/den of VermaModule._act_ints, contributes its
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
                den, w = vm._act_ints(x, g)
                out += [(Q(a0, den), Q(a1, den)) for m, (a0, a1) in w.items()
                        if m not in index and (a0 or a1)]
                for u in complement:
                    dot = [Q(0), Q(0)]
                    for m, (a0, a1) in w.items():
                        if m in index and u[index[m]]:
                            dot[0] += Q(a0, den) * u[index[m]]
                            dot[1] += Q(a1, den) * u[index[m]]
                    if any(dot):
                        out.append(tuple(dot))
    return levi, nil


def _generators_by_grade(alg):
    gens = alg.q_generators
    return ([x for x in gens if alg.grade[x] == 0],
            [x for x in gens if alg.grade[x] > 0])


@pytest.mark.parametrize("label,count", [("a3", 12), ("d4", 15), ("d5", 24)])
def test_stability_constraints_match_complement_reference(request, label, count):
    env = Enveloping(request.getfixturevalue(f"alg_{label}"))
    vm = VermaModule(env)
    gens = OmegaSystem(env).omega3_system()
    levi, nil = vm.stability_constraints(gens)
    ref_levi, ref_nil = _complement_constraints(vm, gens,
                                                _generators_by_grade(env.alg))
    assert (levi, nil) == (ref_levi, ref_nil)
    assert all(type(c) is Q for pair in levi + nil for c in pair)
    assert len(levi) + len(nil) == count


def test_stability_constraints_match_complement_reference_inside_support(verma_d4):
    # the cubic spans above leave coefficients only off their monomials; sums
    # of grade -1 vectors keep the Levi action on their monomials, where it
    # leaves several non-pivot coefficients per acted generator
    env = verma_d4.env
    v = env.alg.v_minus
    gens = [elt_add(elt_add(env.gen(v[0]), elt_scale(env.gen(v[1]), Q(2))),
                    elt_scale(env.gen(v[2]), Q(5))),
            elt_add(env.gen(v[3]), elt_scale(env.gen(v[4]), Q(3)))]
    levi, nil = _complement_constraints(verma_d4, gens,
                                        _generators_by_grade(env.alg))
    assert levi and nil
    assert verma_d4.stability_constraints(gens) == (levi, nil)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "D5"])
def test_singular_values_match_all_of_q_reference(label):
    # stability under the generators of q is stability under all of q: the
    # findings equal those of the constraints from every basis vector of q
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    env = Enveloping(alg)
    vm = VermaModule(env)
    first_level = [env.gen(i) for i in alg.nbar_indices] + [env.one()]
    for gens in (OmegaSystem(env).omega3_system(), first_level):
        levi, nil = _complement_constraints(vm, gens)
        constraints = [S * a1 + Poly.constant(1, a0) for a0, a1 in levi + nil]
        gcd = reduce(poly_gcd, constraints, Poly.constant(1, 0))
        values = tuple(rational_roots(gcd)) if constraints else ()
        res = vm.singular_values(gens)
        assert (res.values, res.all_s, res.levi_stable_all_s) == (
            values, not constraints, not levi)


def test_stability_constraints_act_by_generators_only(verma_d4, omega_d4,
                                                      monkeypatch):
    # 8 generators of q times 8 cubic elements; every basis vector of q
    # (19 of them) would take 152 actions
    gens = omega_d4.omega3_system()
    calls = []
    act_ints = VermaModule._act_ints

    def counted(self, i, v):
        calls.append(i)
        return act_ints(self, i, v)

    monkeypatch.setattr(VermaModule, "_act_ints", counted)
    verma_d4.stability_constraints(gens)
    assert len(calls) == 64
    assert set(calls) == set(verma_d4.alg.q_generators)


@pytest.mark.parametrize("label", ["d4", "a3"])
def test_s_enters_only_through_the_module_action(request, label):
    # U(g) and the quadratic and cubic elements hold rationals; acting on the
    # module gives a pair (v0, v1), v0 + s*v1, of rational vectors
    alg = request.getfixturevalue(f"alg_{label}")
    env = Enveloping(alg)
    om, vm = OmegaSystem(env), VermaModule(env)
    cubic = om.omega3_system()
    quadratic = [om.omega2_basis(i) for i in alg.l_indices]
    products = [env.mul(a, b) for a in cubic[:2] + quadratic[:2]
                for b in (env.gen(alg.v_minus[0]), env.from_lie({alg.x_gamma: Q(1, 2)}),
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


def test_parameter_dependent_generators_rejected(verma_d4):
    gens = [elt_scale(verma_d4.env.gen(1), S)]
    with pytest.raises(NotImplementedError):
        verma_d4.singular_values(gens)


def test_generic_rank(verma_d4, omega_d4):
    gens = omega_d4.omega3_system()
    assert Span(gens).rank == len(gens)


def test_generic_rank_of_dependent_generators(verma_d4):
    env = verma_d4.env
    g1, g2 = (env.gen(i) for i in env.alg.v_minus[:2])
    assert Span([g1, g2, elt_add(g1, g2)]).rank == 2


def test_control_solvers_empty():
    from confsys.liealg import build_lie_algebra
    from confsys.omega import OmegaSystem
    from confsys.pbw import Enveloping
    from confsys.roots import RootSystemSpec, build_root_system

    for label in ("A3", "D5"):
        rs = build_root_system(RootSystemSpec.parse(label))
        env = Enveloping(build_lie_algebra(rs, check=False))
        om = OmegaSystem(env)
        res = VermaModule(env).singular_values(om.omega3_system())
        assert res.values == ()
        assert not res.all_s
        assert res.levi_stable_all_s


def _act_by_normal_ordering(vm, x, v):
    """X_x.v by the definition: a reference for VermaModule.act_basis.

    Normal-orders X_x v in all of U(g), drops every monomial with a root
    vector of q among its factors, and lets each Cartan factor H^e contribute
    (s*dchi(H))^e to the coefficient of the monomial's nbar part.  The
    coefficients of v may be rationals or Polys in s; the result's are Polys.
    """
    alg, env = vm.alg, vm.env
    out = {}
    for m, c in env.mul(env.gen(x), v).items():
        coeff = c if isinstance(c, Poly) else Poly.constant(1, c)
        for i, e in m:
            if i < alg.nbar_dim:
                continue
            if alg.root_of[i] is not None:
                break
            coeff = coeff * (S * alg.dchi_index(i)) ** e
        else:
            body = tuple((i, e) for i, e in m if i < alg.nbar_dim)
            out = elt_add(out, {body: coeff})
    return out


def _oracle_vectors(env, rng):
    """Cubic and quadratic elements, and sums of random nbar monomials of
    degree <= 3 with non-integer rational coefficients."""
    alg = env.alg
    om = OmegaSystem(env)
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
    vm = VermaModule(env)
    rng = random.Random(12)
    vectors = _oracle_vectors(env, rng)
    for x in range(alg.dim):
        for v in vectors:
            assert _as_poly(*vm.act_basis(x, v)) == _act_by_normal_ordering(vm, x, v)
    # two actions, as verma_representation composes them: X_x on the pair
    # X_y.v = w0 + s*w1 componentwise, against the reference applied twice
    # (its second input has coefficients in Q[s])
    squares = 0
    for v in vectors[:1] + vectors[-4:]:
        for x in range(alg.dim):
            y = rng.randrange(alg.dim)
            got = _act_on_affine(vm, x, vm.act_basis(y, v))
            ref = _act_by_normal_ordering(vm, x, _act_by_normal_ordering(vm, y, v))
            assert _as_poly(*got) == ref
            squares += bool(got[2])
    assert squares  # the sample reaches the s^2 coefficient


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
    vm = VermaModule(env)
    rng = random.Random(f"affine-{label}")
    pool = monomials_up_to(alg.nbar_indices, 3)
    vectors = [env.one()] + [env.gen(i) for i in alg.nbar_indices]
    vectors += [{m: Q(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                 for m in rng.sample(pool, 4)} for _ in range(3)]
    vectors += [{m: Q(1)} for m in pool if mono_degree(m) == 3][:5]
    vectors += OmegaSystem(env).omega3_system()
    acted = [vm.act_basis(x, v) for x in range(alg.dim) for v in vectors]
    assert {k for pair in acted for k, part in enumerate(pair) if part} == {0, 1}
    assert all(type(c) in (int, Q) for pair in acted for part in pair
               for c in part.values())
