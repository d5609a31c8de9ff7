"""Sparse exact polynomials over Q.

A polynomial is a dict from exponent tuples to nonzero Fractions.  All rings
used by the engine are instances of this one class: coefficients of
generalized Verma module vectors are univariate (the formal parameter ``s``),
coefficients of differential operators are polynomials in the nilpotent-group
coordinates plus ``s`` as the last variable.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from typing import Iterable, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Q]


class Poly:
    """Exact multivariate polynomial; immutable by convention."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Q] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, Q] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = Q(c)

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[Exponents, Q]) -> "Poly":
        """Adopt terms as-is: nonzero, normalized Fractions (internal results)."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Poly":
        c = Q(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} vars")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {e: Q(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_value(self) -> Q:
        z = (0,) * self.nvars
        for e, c in self.terms.items():
            if e != z:
                raise ValueError(f"not a constant: {self}")
        return self.terms.get(z, Q(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            v = c if v is None else v + c
            if v:
                out[e] = v
            else:
                del out[e]
        return Poly._wrap(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Q)):
            return self.scale(other)
        self._check(other)
        out: dict[Exponents, Q] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return Poly._wrap(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Poly":
        c = Q(c)
        if not c:
            return Poly(self.nvars)
        return Poly._wrap(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus / substitution -------------------------------------------

    def diff(self, i: int) -> "Poly":
        out: dict[Exponents, Q] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = c * e[i]     # distinct e give distinct e2
        return Poly._wrap(self.nvars, out)

    def subs(self, i: int, value: Scalar) -> "Poly":
        """Substitute a rational for variable i (arity is preserved)."""
        value = Q(value)
        out: dict[Exponents, Q] = {}
        for e, c in self.terms.items():
            e2 = e[:i] + (0,) + e[i + 1:]
            t = c * value ** e[i]
            v = out.get(e2)
            v = t if v is None else v + t
            if v:
                out[e2] = v
            else:
                out.pop(e2, None)
        return Poly._wrap(self.nvars, out)

    # -- display -----------------------------------------------------------

    def format(self, names: list[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"t{i}" for i in range(self.nvars)]
        pieces = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mono = "*".join(
                (names[i] if k == 1 else f"{names[i]}^{k}")
                for i, k in enumerate(e) if k
            )
            if mono:
                pieces.append(f"({c})*{mono}" if c != 1 else mono)
            else:
                pieces.append(f"({c})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


# ---------------------------------------------------------------------------
# Univariate helpers (used for the stability constraints in the parameter s).
# ---------------------------------------------------------------------------


def univariate_coeffs(p: Poly) -> list[Q]:
    """Dense coefficient list [c0, c1, ...] of a 1-variable polynomial."""
    if p.nvars != 1:
        raise ValueError("not univariate")
    if not p.terms:
        return []
    out = [Q(0)] * (p.degree_in(0) + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two univariate polynomials over Q."""
    pa, pb = univariate_coeffs(a), univariate_coeffs(b)

    def norm(v: list[Q]) -> list[Q]:
        while v and not v[-1]:
            v.pop()
        return v

    def rem(num: list[Q], den: list[Q]) -> list[Q]:
        num = list(num)
        while len(num) >= len(den) and num:
            f = num[-1] / den[-1]
            shift = len(num) - len(den)
            for i, d in enumerate(den):
                num[shift + i] -= f * d
            num = norm(num)
        return num

    pa, pb = norm(pa), norm(pb)
    while pb:
        pa, pb = pb, rem(pa, pb)
    if pa:
        lead = pa[-1]
        pa = [c / lead for c in pa]
    return Poly(1, {(i,): c for i, c in enumerate(pa)})


def poly_gcd_all(polys: Iterable[Poly]) -> Poly:
    """Monic gcd of univariate polynomials over Q; zero for none.

    Folds poly_gcd in order and stops once the gcd is constant."""
    g = Poly.constant(1, 0)
    for p in polys:
        g = poly_gcd(g, p)
        if g.degree() == 0:
            break
    return g


def rational_roots(p: Poly) -> list[Q]:
    """All rational roots of a nonzero univariate polynomial, sorted."""
    coeffs = univariate_coeffs(p)
    if not coeffs:
        raise ValueError("zero polynomial has every rational as a root")
    # strip trailing zero coefficients is done; strip leading zero constant term
    mult_of_zero = 0
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        mult_of_zero += 1
    roots = set([Q(0)] if mult_of_zero else [])
    if len(coeffs) > 1:
        denom_lcm = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * denom_lcm) for c in coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        for p_div in _divisors(a0):
            for q_div in _divisors(an):
                for cand in (Q(p_div, q_div), Q(-p_div, q_div)):
                    if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
