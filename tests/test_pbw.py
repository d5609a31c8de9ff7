"""Normal ordering in the universal enveloping algebra."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from confsys.pbw import (elt_add, elt_scale, elt_sub, mono_degree, mono_word,
                         monomials_up_to)


def _elt_degree(a) -> int:
    """PBW filtration degree of an element; -1 for zero."""
    return max((mono_degree(m) for m in a), default=-1)


def test_monomial_count_degree_three(alg_d4):
    nbar = (alg_d4.x_minus_gamma,) + alg_d4.v_minus
    monos = monomials_up_to(nbar, 3)
    # 1 + 9 + C(10,2) + C(11,3) over 9 generators
    assert len(monos) == 1 + 9 + 45 + 165 == 220
    assert all(mono_degree(m) <= 3 for m in monos)
    assert len(set(monos)) == len(monos)


def test_gen_and_one(env_d4):
    one = env_d4.one()
    g = env_d4.gen(3)
    assert env_d4.mul(one, g) == g
    assert env_d4.mul(g, one) == g
    assert _elt_degree(one) == 0
    assert _elt_degree(g) == 1


def test_commutation_rewrites_to_bracket(env_d4):
    alg = env_d4.alg
    # pick a non-commuting pair inside the opposite radical
    i, j = alg.v_minus[0], alg.v_minus[5]
    br = dict(alg.table[i][j])
    if not br:
        candidates = [(a, b) for a in alg.v_minus for b in alg.v_minus
                      if dict(alg.table[a][b])]
        i, j = candidates[0]
        br = dict(alg.table[i][j])
    lhs = elt_sub(env_d4.mul(env_d4.gen(j), env_d4.gen(i)),
                  env_d4.mul(env_d4.gen(i), env_d4.gen(j)))
    rhs = {((k, 1),): -c for k, c in br.items()}
    assert not elt_sub(lhs, rhs)


def test_normal_order_agrees_with_mul(env_d4, normal_order):
    # the left-to-right product equals the right-to-left one
    alg = env_d4.alg
    word = [alg.v_minus[2], alg.x_minus_gamma, alg.v_minus[2],
            alg.l_indices[0]]
    prod = env_d4.one()
    for g in reversed(word):
        prod = env_d4.mul(env_d4.gen(g), prod)
    assert normal_order(word) == prod


def test_mono_word_round_trip():
    m = ((2, 2), (5, 1), (9, 3))
    assert mono_word(m) == (2, 2, 5, 9, 9, 9)


def test_elt_algebra_helpers(env_d4):
    a = env_d4.gen(1)
    b = env_d4.gen(2)
    s = elt_add(a, elt_scale(b, Q(3)))
    assert s[((2, 1),)] == 3
    assert not elt_sub(s, s)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associativity_on_random_words(env_d4, normal_order, data):
    alg = env_d4.alg
    pool = list(alg.v_minus) + [alg.x_minus_gamma] + list(alg.l_indices[:4])
    word = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
    split = data.draw(st.integers(1, len(word) - 1))
    left = normal_order(word[:split])
    right = normal_order(word[split:])
    assert env_d4.mul(left, right) == normal_order(word)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_filtration_degree_never_increases(env_d4, normal_order, data):
    alg = env_d4.alg
    pool = list(range(alg.dim))
    word = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
    prod = normal_order(word)
    assert _elt_degree(prod) <= len(word)
