"""Polynomial-coefficient differential operators on the opposite nilradical.

Exponential coordinates: the group element is nbar(x, z) =
exp(z X_{-gamma} + sum_e x_e X_{-e}) over the basis of the opposite Heisenberg
radical, so coordinate number g matches Lie algebra basis index g (the central
coordinate z is number 0).  Coefficient functions live in
Q[z, x_1..x_m, s]: the induced-family parameter s is the last variable and is
never differentiated.

An operator is an element of the Weyl algebra over Q[s], stored flat: one
term per normally ordered monomial x^a s^e d^b (coefficients to the left of
derivatives), keyed by the concatenated exponent tuple a + (e,) + b.  Values
are integer numerators over one positive denominator per operator, reduced
so that the gcd of all numerators and the denominator is 1; equal operators
therefore have equal term maps.  A coefficient function is the zeroth-order
operator of multiplication by it, so one type holds functions and
operators: * is the Weyl-algebra product, and f * D multiplies D by f on the
left.  Products are normal ordered in closed form, coordinate by coordinate,

    d^b o x^c = sum_k C(b, k) c!/(c-k)! x^(c-k) d^(b-k),

where only coordinates that one side differentiates and the other carries
(a bitmask test per term pair) expand past k = 0.  The k = 0 term of a pair
is the same in both orders, so a commutator forms only the k >= 1
reordering corrections of each order, with opposite signs; point
functionals at the identity of a commutator are read off a truncated
product that keeps only the coordinate-free terms.

A point functional is a pair (f0, f1) of rational maps from derivative
multi-indices, meaning f0 + s*f1.  The induced operators are affine in s and
the right actions s-free, so no functional the engine reads has a higher
power of s; reading one raises ValueError.

The right regular action R sends the enveloping algebra of the opposite
nilradical to constant-plus-linear-coefficient operators; the induced family
pi is realized through the twisted adjoint series Ad(nbar^{-1}) = exp(-ad W),
which terminates because W is nilpotent of depth at most four.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm, perm
from operator import add, sub

from .liealg import LieAlgebra
from .pbw import Elt, Mono, mono_word

Der = tuple[int, ...]
Key = tuple[int, ...]          # coordinate exponents, s exponent, derivatives
PointFunctional = tuple[dict[Der, Q], dict[Der, Q]]   # (f0, f1): f0 + s*f1


class PolyDiffOp:
    """Differential operator sum_key (terms[key] / den) x^a s^e d^b."""

    __slots__ = ("ncoords", "terms", "den")

    def __init__(self, ncoords: int, terms: dict[Key, int] | None = None,
                 den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.ncoords = ncoords
        terms = {k: v for k, v in terms.items() if v} if terms else {}
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
        self.terms: dict[Key, int] = terms
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.terms)

    def order(self) -> int:
        n = self.ncoords
        return max((sum(k[n + 1:]) for k in self.terms), default=-1)

    def _check(self, other: "PolyDiffOp") -> None:
        if self.ncoords != other.ncoords:
            raise ValueError("coordinate count mismatch")

    def _combine(self, other: "PolyDiffOp", sign: int) -> "PolyDiffOp":
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: v * fa for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v * fb
        return PolyDiffOp(self.ncoords, out, den)

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self._combine(other, 1)

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self._combine(other, -1)

    def __neg__(self) -> "PolyDiffOp":
        return PolyDiffOp(self.ncoords,
                          {k: -v for k, v in self.terms.items()}, self.den)

    def __mul__(self, other: "PolyDiffOp | Q | int") -> "PolyDiffOp":
        """The product with an operator (self o other), or with a scalar."""
        if isinstance(other, PolyDiffOp):
            return self.compose(other)
        c = Q(other)
        return PolyDiffOp(self.ncoords,
                          {k: v * c.numerator for k, v in self.terms.items()},
                          self.den * c.denominator)

    __rmul__ = __mul__      # reached only for a scalar on the left

    def compose(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """self applied after other, as operators (normal ordered)."""
        self._check(other)
        n = self.ncoords
        out: dict[Key, int] = {}
        lefts = _masked(self.terms, n)
        # only a derivative on the left reorders: after a function (f * D)
        # the masks of other's terms are not needed
        rights = (_masked(other.terms, n) if any(t[3] for t in lefts)
                  else [(kb, cb, 0, 0, ()) for kb, cb in other.terms.items()])
        for ka, ca, cma, dma, dera in lefts:
            for kb, cb, cmb, dmb, derb in rights:
                base = tuple(map(add, ka, kb))
                if dma & cmb:
                    _reorder_into(out, base, dera, kb, ca * cb, n, 0)
                else:
                    out[base] = out.get(base, 0) + ca * cb
        return PolyDiffOp(n, out, self.den * other.den)

    def commutator(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """[self, other]: only the reordering corrections survive."""
        self._check(other)
        n = self.ncoords
        out: dict[Key, int] = {}
        rights = _masked(other.terms, n)
        for ka, ca, cma, dma, dera in _masked(self.terms, n):
            for kb, cb, cmb, dmb, derb in rights:
                ab, ba = dma & cmb, dmb & cma
                if not (ab or ba):
                    continue        # the two orders give the same term
                base = tuple(map(add, ka, kb))
                c = ca * cb
                if ab:
                    _reorder_into(out, base, dera, kb, c, n, 1)
                if ba:
                    _reorder_into(out, base, derb, ka, -c, n, 1)
        return PolyDiffOp(n, out, self.den * other.den)

    def subs_param(self, i: int, value: Q) -> "PolyDiffOp":
        """Substitute a rational for coefficient variable i (normally s)."""
        if not 0 <= i <= self.ncoords:
            raise ValueError(f"variable index {i} is not a coefficient variable")
        value = Q(value)
        p, q = value.numerator, value.denominator
        top = max((k[i] for k in self.terms), default=0)
        out: dict[Key, int] = {}
        for k, v in self.terms.items():
            e = k[i]
            key = k[:i] + (0,) + k[i + 1:]
            out[key] = out.get(key, 0) + v * p ** e * q ** (top - e)
        return PolyDiffOp(self.ncoords, out, self.den * q ** top)

    def at_identity(self) -> PointFunctional:
        """The functional f -> (D f)(e) as derivative-coefficients at 0: the
        pair (f0, f1) meaning f0 + s*f1 (coordinates are set to 0).

        Raises ValueError on a coordinate-free term of degree 2 or more in s.
        """
        n = self.ncoords
        zero = (0,) * n
        acc = {(k[n], k[n + 1:]): v for k, v in self.terms.items()
               if k[:n] == zero}
        return _functional(acc, self.den)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolyDiffOp) and self.ncoords == other.ncoords
                and self.den == other.den and self.terms == other.terms)


def commutator_at_identity(a: PolyDiffOp, b: PolyDiffOp) -> PointFunctional:
    """[a, b].at_identity() without forming the commutator.

    A product term x^a d^b o x^c d^d is coordinate-free only for a = 0 and
    k = c in the normal-ordering sum, which needs c <= b componentwise and
    leaves b!/(b-c)! d^(b-c+d).
    """
    a._check(b)
    n = a.ncoords
    zero = (0,) * n
    acc: dict[tuple[int, Der], int] = {}
    for left, right, sign in ((a.terms, b.terms, 1), (b.terms, a.terms, -1)):
        rights = [(k[:n], k[n], k[n + 1:], v) for k, v in right.items()]
        for ka, ca in left.items():
            if ka[:n] != zero:
                continue
            sa, beta = ka[n], ka[n + 1:]
            for gamma, sb, delta, cb in rights:
                factor = sign * ca * cb
                for bi, gi in zip(beta, gamma):
                    if gi > bi:
                        break
                    if gi:
                        factor *= perm(bi, gi)
                else:
                    key = (sa + sb, tuple(map(add, map(sub, beta, gamma), delta)))
                    acc[key] = acc.get(key, 0) + factor
    return _functional(acc, a.den * b.den)


def _functional(acc: dict[tuple[int, Der], int], den: int) -> PointFunctional:
    """{(s exponent, derivative): numerator} over den -> (f0, f1)."""
    out: PointFunctional = ({}, {})
    for (e, d), v in acc.items():
        if v:
            if e > 1:
                raise ValueError(f"point functional of degree {e} in s")
            out[e][d] = Q(v, den)
    return out


@lru_cache(maxsize=None)
def _reorderings(n: int, overlap: tuple[tuple[int, int, int], ...]):
    """Normal-ordering expansion of d^b o x^c on the overlapping coordinates.

    overlap lists (coordinate, b_i, c_i) with both exponents positive.
    Returns (key decrement, factor) pairs: the product of the per-coordinate
    terms C(b_i, k_i) c_i!/(c_i-k_i)! x^(c_i-k_i) d^(b_i-k_i).  The first
    pair is the k = 0 term: no decrement, factor 1.
    """
    per_coord = [[(i, k, comb(b, k) * perm(c, k)) for k in range(min(b, c) + 1)]
                 for i, b, c in overlap]
    out = []
    for choice in product(*per_coord):
        dec = [0] * (2 * n + 1)
        factor = 1
        for i, k, f in choice:
            dec[i] = dec[n + 1 + i] = k
            factor *= f
        out.append((tuple(dec), factor))
    return tuple(out)


def _masked(terms: dict[Key, int], n: int):
    """Per term: key, numerator, coordinate bitmask, derivative bitmask and
    the (coordinate, exponent) pairs of its derivatives."""
    out = []
    for k, v in terms.items():
        cmask = dmask = 0
        ders = []
        for i in range(n):
            if k[i]:
                cmask |= 1 << i
            b = k[n + 1 + i]
            if b:
                dmask |= 1 << i
                ders.append((i, b))
        out.append((k, v, cmask, dmask, ders))
    return out


def _reorder_into(out: dict[Key, int], base: Key, ders, right: Key, c: int,
                  n: int, start: int) -> None:
    """Add c times the reorderings from start on of (left term) o (right
    term), where base is the sum of the two keys and ders the left term's
    derivatives: start 0 gives the whole product, start 1 the k >= 1
    corrections."""
    overlap = tuple((i, b, right[i]) for i, b in ders if right[i])
    for dec, factor in _reorderings(n, overlap)[start:]:
        key = tuple(map(sub, base, dec))
        out[key] = out.get(key, 0) + c * factor


class OperatorCalculus:
    """R and the induced family pi for one algebra."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self.ncoords = alg.nbar_dim           # z plus one x per V- vector
        self.s_var = self.ncoords             # s follows the coordinates
        self._r_gen: dict[int, PolyDiffOp] = {}
        self._r_mono: dict[Mono, PolyDiffOp] = {}
        self._pi_basis: dict[int, PolyDiffOp] = {}

    # -- functions and derivatives as operators --------------------------------

    def _unit(self, pos: int) -> PolyDiffOp:
        """The operator whose one term has exponent 1 at key position pos."""
        return PolyDiffOp(self.ncoords, {tuple(int(k == pos) for k in
                                               range(2 * self.ncoords + 1)): 1})

    def const(self, c: Q | int) -> PolyDiffOp:
        c = Q(c)
        return PolyDiffOp(self.ncoords, {(0,) * (2 * self.ncoords + 1):
                                         c.numerator}, c.denominator)

    def var(self, i: int) -> PolyDiffOp:
        """Multiplication by coefficient variable i (a coordinate, or s)."""
        return self._unit(i)

    def derivative(self, i: int) -> PolyDiffOp:
        return self._unit(self.ncoords + 1 + i)

    def zero_op(self) -> PolyDiffOp:
        return PolyDiffOp(self.ncoords)

    def identity_op(self) -> PolyDiffOp:
        return self.const(1)

    # -- the adjoint series ---------------------------------------------------

    def ad_inverse(self, i: int) -> dict[int, PolyDiffOp]:
        """Ad(nbar(x,z)^{-1}) X_i = exp(-ad W) X_i, with W = sum_g x_g X_g
        (nbar(x, z) = exp(W)), coefficients as functions."""
        cur = {i: self.identity_op()}
        out = dict(cur)
        w = {g: self.var(g) for g in range(self.ncoords)}
        sign, fact = -1, 1
        for k in range(1, 6):
            cur = self.alg.bracket_elem(w, cur)
            if not cur:
                break
            fact *= k
            for j, c in cur.items():
                term = c * Q(sign, fact)
                v = out.get(j)
                v = term if v is None else v + term
                if v:
                    out[j] = v
                else:
                    out.pop(j, None)
            sign = -sign
        else:
            raise AssertionError("adjoint series failed to terminate")
        return out

    def dchi_ext(self, y: dict[int, PolyDiffOp]) -> PolyDiffOp:
        """Function-linear extension of the character derivative to q."""
        out = self.zero_op()
        for i, c in y.items():
            v = self.alg.dchi_index(i)
            if v is None:
                raise ValueError(f"basis index {i} is outside the parabolic")
            if v:
                out = out + c * v
        return out

    # -- the right regular action ---------------------------------------------

    def r_gen(self, g: int) -> PolyDiffOp:
        """R of the g-th basis vector of the opposite nilradical."""
        cached = self._r_gen.get(g)
        if cached is not None:
            return cached
        alg = self.alg
        if not 0 <= g < self.ncoords:
            raise ValueError(f"basis index {g} is not in the opposite nilradical")
        op = self.derivative(g)
        if g != alg.x_minus_gamma:
            delta = tuple(-c for c in alg.root_of[g])
            comp = tuple(gc - dc for gc, dc in zip(alg.rs.highest, delta))
            j = alg.index_of_root[tuple(-c for c in comp)]
            n = dict(alg.bracket(j, g))[alg.x_minus_gamma]
            op = op + self.var(j) * self.derivative(alg.x_minus_gamma) * Q(n, 2)
        self._r_gen[g] = op
        return op

    def r_mono(self, m: Mono) -> PolyDiffOp:
        cached = self._r_mono.get(m)
        if cached is not None:
            return cached
        word = mono_word(m)
        if not word:
            op = self.identity_op()
        else:
            op = self.r_mono(m[:-1] if m[-1][1] == 1
                             else m[:-1] + ((m[-1][0], m[-1][1] - 1),))
            op = op.compose(self.r_gen(word[-1]))
        self._r_mono[m] = op
        return op

    def r_op(self, u: Elt) -> PolyDiffOp:
        """R of an enveloping-algebra element with rational coefficients."""
        out = self.zero_op()
        for m, c in u.items():
            out = out + self.r_mono(m) * c
        return out

    def r_ext(self, y: dict[int, PolyDiffOp]) -> PolyDiffOp:
        """Function-linear extension of R to nilradical-valued functions."""
        out = self.zero_op()
        for i, c in y.items():
            out = out + c * self.r_gen(i)
        return out

    # -- the induced family ----------------------------------------------------

    def pi_basis(self, i: int) -> PolyDiffOp:
        cached = self._pi_basis.get(i)
        if cached is None:
            cached = self._pi(i)
            self._pi_basis[i] = cached
        return cached

    def _pi(self, i: int) -> PolyDiffOp:
        """pi_s(X_i) = -s dchi((Ad(nbar^{-1})X_i)_q) - R((Ad(nbar^{-1})X_i)_nbar)."""
        nbar_part: dict[int, PolyDiffOp] = {}
        q_part: dict[int, PolyDiffOp] = {}
        for j, c in self.ad_inverse(i).items():
            (nbar_part if j < self.ncoords else q_part)[j] = c
        return (-(self.var(self.s_var) * self.dchi_ext(q_part))
                - self.r_ext(nbar_part))
