"""Poincare-Birkhoff-Witt calculus in the universal enveloping algebra.

Monomials are sorted (basis-index, exponent) tuples over the fixed ordered
basis of the Lie algebra; elements of U(g) carry int or Fraction coefficients,
and so do the module vectors of verma.py (an s-dependent vector there is a
pair of them).
Products are normal ordered with the rewriting rule  x y = y x + [x, y]  and
never increase the filtration degree.  The rule never divides, so with the
integer structure constants of the Chevalley basis every normal-ordering
coefficient is an int.  Inside U(nbar), a Heisenberg algebra, the product
of a generator and a monomial has a closed form (heisenberg_times).
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations_with_replacement

from .liealg import LieAlgebra

Mono = tuple[tuple[int, int], ...]
Coeff = int | Q
Elt = dict[Mono, Coeff]

ONE_MONO: Mono = ()


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_word(m: Mono) -> tuple[int, ...]:
    out: list[int] = []
    for i, e in m:
        out.extend([i] * e)
    return tuple(out)


def _insert(m: Mono, g: int) -> Mono:
    """m with one more factor g, in its sorted place: the product m * X_g
    when X_g commutes with every factor of m."""
    for k, (i, e) in enumerate(m):
        if i == g:
            return m[:k] + ((g, e + 1),) + m[k + 1:]
        if i > g:
            return m[:k] + ((g, 1),) + m[k:]
    return m + ((g, 1),)


def heisenberg_times(alg: LieAlgebra, x: int, m: Mono) -> dict[Mono, int]:
    """Y_x * m in U(nbar) for an nbar generator Y_x and an nbar monomial m.

    nbar is a Heisenberg algebra: Z = X_-gamma (index 0) is central, and the
    one nonzero bracket of Y_x is [Y_x, Y_p] = n Z, (p, n) = alg.partner[x].
    So Y_x moves to its PBW place past every factor but Y_p^e, where
    Y_x Y_p^e = Y_p^e Y_x + e n Z Y_p^(e-1):

      Y_x * m = ins(m, x) + [p < x and p in m] e n ins(m - Y_p, Z),

    at most two terms, with int coefficients, like Enveloping.mono_mul.
    """
    out = {_insert(m, x): 1}
    if x == alg.x_minus_gamma:
        return out
    p, n = alg.partner[x]
    if p > x:
        return out
    for k, (i, e) in enumerate(m):
        if i == p:
            rest = m[:k] + (((p, e - 1),) if e > 1 else ()) + m[k + 1:]
            out[_insert(rest, alg.x_minus_gamma)] = e * n
        if i >= p:
            break
    return out


def elt_add(a: Elt, b: Elt) -> Elt:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m)
        v = c if v is None else v + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def elt_scale(a: Elt, c: Coeff) -> Elt:
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def elt_sub(a: Elt, b: Elt) -> Elt:
    return elt_add(a, elt_scale(b, -1))


class Enveloping:
    """Multiplication engine for U(g) over a fixed LieAlgebra basis order."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self._rmul_memo: dict[tuple[Mono, int], dict[Mono, int]] = {}

    # -- basic constructors -------------------------------------------------

    def one(self) -> Elt:
        return {ONE_MONO: 1}

    def gen(self, i: int) -> Elt:
        return {((i, 1),): 1}

    # -- normal ordering ----------------------------------------------------

    def mono_times_gen(self, m: Mono, g: int) -> dict[Mono, int]:
        """Normal-ordered product (monomial) * X_g with integer coefficients."""
        if not m or m[-1][0] <= g:
            return {_insert(m, g): 1}
        key = (m, g)
        cached = self._rmul_memo.get(key)
        if cached is not None:
            return cached
        last, exp = m[-1]
        head = m[:-1] if exp == 1 else m[:-1] + ((last, exp - 1),)
        # (head * last) * g = (head * g) * last + head * [last, g]
        out: dict[Mono, int] = {}
        for m2, c2 in self.mono_times_gen(head, g).items():
            for m3, c3 in self.mono_times_gen(m2, last).items():
                v = out.get(m3, 0) + c2 * c3
                if v:
                    out[m3] = v
                else:
                    del out[m3]
        for k, n in self.alg.table[last][g]:
            for m3, c3 in self.mono_times_gen(head, k).items():
                v = out.get(m3, 0) + n * c3
                if v:
                    out[m3] = v
                else:
                    del out[m3]
        self._rmul_memo[key] = out
        return out

    def mono_mul(self, a: Mono, b: Mono) -> dict[Mono, int]:
        cur: dict[Mono, int] = {a: 1}
        for g in mono_word(b):
            nxt: dict[Mono, int] = {}
            for m, c in cur.items():
                for m2, c2 in self.mono_times_gen(m, g).items():
                    v = nxt.get(m2, 0) + c * c2
                    if v:
                        nxt[m2] = v
                    else:
                        del nxt[m2]
            cur = nxt
        return cur

    def mul(self, a: Elt, b: Elt) -> Elt:
        out: Elt = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                cab = cb if ca == 1 else ca if cb == 1 else ca * cb
                for m, c in self.mono_mul(ma, mb).items():
                    t = cab if c == 1 else cab * c
                    v = out.get(m)
                    v = t if v is None else v + t
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
        return out

    # -- misc ----------------------------------------------------------------

    def format(self, a: Elt) -> str:
        if not a:
            return "0"
        names = self.alg.names
        pieces = []
        for m in sorted(a, key=lambda t: (mono_degree(t), t)):
            body = "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in m)
            pieces.append(f"({a[m]})" + (f"*{body}" if body else ""))
        return " + ".join(pieces)


def monomials_up_to(indices: tuple[int, ...], degree: int) -> list[Mono]:
    """All PBW monomials over the given generators with degree <= bound."""
    out: list[Mono] = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(sorted(indices), d):
            mono: Mono = ()
            for g in combo:
                mono = _insert(mono, g)
            out.append(mono)
    return out
