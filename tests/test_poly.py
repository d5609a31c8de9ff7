"""Exact multivariate polynomial arithmetic."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsys.poly import (Poly, poly_gcd, poly_gcd_all, rational_roots,
                          univariate_coeffs)


def _eval_at(p: Poly, values) -> Q:
    """The value of p at a point: the sum over terms of c * prod v_i^e_i."""
    total = Q(0)
    for e, c in p.terms.items():
        for v, k in zip(values, e, strict=True):
            c *= Q(v) ** k
        total += c
    return total


def p_const(c, n=2):
    return Poly.constant(n, c)


def x(i, n=2):
    return Poly.variable(n, i)


def test_constant_and_variable_basics():
    five = p_const(5)
    assert five.degree() == 0
    assert five.constant_value() == 5
    assert not five.is_zero()
    assert p_const(0).is_zero()
    t = x(0)
    assert t.degree() == 1
    assert (t * t + t).degree() == 2
    assert t.degree_in(0) == 1
    assert t.degree_in(1) == 0


def test_arithmetic_identities():
    a = x(0) * 3 + x(1) * x(1) - p_const(Q(1, 2))
    b = x(1) - p_const(2)
    assert a + b - b == a
    assert a * b == b * a
    assert a * (b + b) == a * b * 2
    assert (a - a).is_zero()
    assert a * p_const(0) == p_const(0)
    assert a ** 2 == a * a


def test_diff_and_subs():
    a = x(0) ** 3 + x(0) * x(1) * 2
    da = a.diff(0)
    assert da == x(0) ** 2 * 3 + x(1) * 2
    # substitution preserves arity
    s = a.subs(0, Q(2))
    assert s.nvars == a.nvars
    assert s == p_const(8) + x(1) * 4
    assert _eval_at(a, [Q(2), Q(3)]) == 8 + 12


def test_univariate_coeffs():
    s = Poly.variable(1, 0)
    p = s * s * 3 - s + Poly.constant(1, 4)
    assert univariate_coeffs(p) == [Q(4), Q(-1), Q(3)]


def test_poly_gcd_monic_euclid():
    s = Poly.variable(1, 0)
    one = Poly.constant(1, 1)
    a = (s + one) * (s - one * 3)
    b = (s + one) * (s + one * 5)
    g = poly_gcd(a, b)
    assert g == s + one
    # gcd with zero returns the monic form of the other argument
    assert poly_gcd(Poly.constant(1, 0), a * 2) == a
    assert poly_gcd(a * 5, Poly.constant(1, 0)) == a


def test_poly_gcd_all_of_no_polynomials_is_zero():
    assert poly_gcd_all([]).is_zero()


def test_poly_gcd_all_stops_once_constant():
    s = Poly.variable(1, 0)
    one = Poly.constant(1, 1)
    read = []

    def inputs():
        for p in ((s + one) * (s - one), (s - one) * 3, s + one * 2, s):
            read.append(p)
            yield p

    # s - 1 after two inputs, the constant 1 after three: the fourth is unread
    assert poly_gcd_all(inputs()) == one
    assert len(read) == 3


def test_rational_roots():
    s = Poly.variable(1, 0)
    one = Poly.constant(1, 1)
    p = (s * 2 + one) * (s - one * 3) * (s * 3 - one * 2)
    assert rational_roots(p) == sorted([Q(-1, 2), Q(2, 3), Q(3)])
    assert rational_roots(s) == [Q(0)]
    with pytest.raises(ValueError):
        rational_roots(Poly.constant(1, 0))
    # irrational-only factor contributes nothing
    assert rational_roots(s * s - one * 2) == []


small_q = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw, nvars=2, max_terms=4, max_exp=3):
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_exp)] * nvars), small_q),
        max_size=max_terms))
    acc = Poly.constant(nvars, 0)
    for exps, c in terms:
        mono = Poly.constant(nvars, c)
        for i, e in enumerate(exps):
            mono = mono * (Poly.variable(nvars, i) ** e)
        acc = acc + mono
    return acc


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), small_q, small_q)
def test_evaluation_is_ring_homomorphism(a, v0, v1):
    b = Poly.variable(2, 0) * 2 + Poly.constant(2, 1)
    pt = [v0, v1]
    assert _eval_at(a * b, pt) == _eval_at(a, pt) * _eval_at(b, pt)
    assert _eval_at(a + b, pt) == _eval_at(a, pt) + _eval_at(b, pt)


@settings(max_examples=40, deadline=None)
@given(polys(nvars=1), polys(nvars=1))
def test_gcd_divides_inputs(a, b):
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    assert not g.is_zero()
    # check divisibility through root containment of degree-1 gcds and
    # through exact division when g is constant
    if g.degree() == 0:
        assert g.constant_value() == 1
    else:
        for r in rational_roots(g):
            assert a.subs(0, r).is_zero()
            assert b.subs(0, r).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(nvars=1), st.lists(polys(nvars=1), max_size=5))
def test_poly_gcd_all_is_the_plain_fold(common, ps):
    ps = [common * p for p in ps]   # a shared factor keeps some gcds nonconstant
    g = Poly.constant(1, 0)
    for p in ps:
        g = poly_gcd(g, p)
    assert poly_gcd_all(ps) == g


def test_internal_results_hold_normalized_fractions():
    # results skip the public constructor's re-wrapping: check what they hold
    a = x(0) * Q(2, 3) + x(1) * x(1) - p_const(Q(1, 2))
    b = x(0) * Q(-2, 3) + p_const(4)
    results = [a + b, a - b, -a, a * b, a * 3, a.scale(Q(3, 4)), a.diff(0),
               a.diff(1), a.subs(1, Q(2, 5))]
    for p in results:
        assert all(type(c) is Q and c for c in p.terms.values())
        assert p == Poly(p.nvars, dict(p.terms))
    assert (a + b).terms.keys() == {(0, 2), (0, 0)}
