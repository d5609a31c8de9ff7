"""Polynomial-coefficient differential operators on the opposite nilradical.

Exponential coordinates: the group element is nbar(x, z) =
exp(z X_{-gamma} + sum_e x_e X_{-e}) over the basis of the opposite Heisenberg
radical, so coordinate number g matches Lie algebra basis index g (the central
coordinate z is number 0).  Coefficient functions live in
Q[z, x_1..x_m, s]: the induced-family parameter s is the last variable and is
never differentiated.

An operator is an element of the Weyl algebra over Q[s], stored flat: one
term per normally ordered monomial x^a s^e d^b (coefficients to the left of
derivatives), keyed by one int that packs the exponent tuple a + (e,) + b
into 8-bit fields, exponent j in bits 8j to 8j + 7 (pack_key, unpack_key).
The top bit of each field is a guard: every exponent must stay at most 127,
and building an operator with a larger one raises OverflowError.  So the
key of a product term, the sum of two keys, never carries from one field
into the next, and subtracting a reordering decrement never borrows.  Values
are integer numerators over one positive denominator per operator, reduced
so that the gcd of all numerators and the denominator is 1; equal operators
therefore have equal term maps.  A coefficient function is the zeroth-order
operator of multiplication by it, so one type holds functions and
operators: * is the Weyl-algebra product, and f * D multiplies D by f on the
left.  Products are normal ordered in closed form, coordinate by coordinate,

    d^b o x^c = sum_k C(b, k) c!/(c-k)! x^(c-k) d^(b-k),

where only coordinates that one side differentiates and the other carries
(one AND of per-field masks per term pair) expand past k = 0.  Each operator
computes its per-term masks once, on first use; operators are never
mutated, so they stay valid.  The k >= 1 terms of an overlapping pair are
read from a per-coordinate-count table with one dict lookup.  One kernel,
sum_products, accumulates a sum of products sum_j a_j o b_j into one term
map over one common denominator; compose is its one-pair case, and the
right actions and the induced operators are single calls of it.  The
k = 0 term of a pair is the same in both orders, so a commutator forms only
the k >= 1 reordering corrections of each order, with opposite signs; point
functionals at the identity of a commutator are read off a truncated
product that keeps only the coordinate-free terms.

A point functional is in the int-pair form verma.Span reads: (den, {d^b as
the PBW monomial with exponents b: (a0, a1)}), meaning (a0 + s*a1)/den, ints
from the operator's numerators.  The induced operators are affine in s and
the right actions s-free, so no functional the engine reads has a higher
power of s; reading one raises ValueError.

The right regular action R sends the enveloping algebra of the opposite
nilradical to constant-plus-linear-coefficient operators; the induced family
pi is realized through the twisted adjoint series Ad(nbar^{-1}) = exp(-ad W),
which terminates because W is nilpotent of depth at most four.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache, reduce
from itertools import islice, product
from math import comb, gcd, lcm, perm, prod
from operator import or_
from typing import Iterable

from .liealg import LieAlgebra
from .memo import memo
from .pbw import Elt, Mono, mono_word

Key = tuple[int, ...]          # coordinate exponents, s exponent, derivatives
PointFunctional = tuple[int, dict[Mono, tuple[int, int]]]   # (den, pairs): above

FIELD_BITS = 8                 # one byte per exponent: keys pack via bytes
FIELD_LIMIT = 1 << (FIELD_BITS - 1)    # exponents stay below the guard bit
_FIELD = (1 << FIELD_BITS) - 1
_GUARD_SHIFT = FIELD_BITS - 1          # a mask bit down to bit 0 of its field


def pack_key(key: Key, ncoords: int) -> int:
    """The packed int of an exponent tuple a + (e,) + b: field j of the
    tuple in bits [8j, 8j + 8).  Exponents must be below FIELD_LIMIT."""
    if len(key) != 2 * ncoords + 1:
        raise ValueError(f"key {key} needs {2 * ncoords + 1} exponents")
    if min(key) < 0:
        raise ValueError(f"key {key} has a negative exponent")
    if max(key) >= FIELD_LIMIT:
        raise OverflowError(
            f"key {key} has an exponent over {FIELD_LIMIT - 1}")
    return int.from_bytes(bytes(key), "little")


def unpack_key(key: int, ncoords: int) -> Key:
    """Inverse of pack_key: the exponent tuple a + (e,) + b."""
    return tuple(key.to_bytes(2 * ncoords + 1, "little"))


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, int, int, int, int]:
    """Masks of the packed keys on n coordinates: the derivative shift, the
    coordinate fields, 0x7f and 0x80 in each of n fields from bit 0, and the
    guard (top) bit of every field of a key."""
    return (FIELD_BITS * (n + 1), (1 << FIELD_BITS * n) - 1,
            int.from_bytes(b"\x7f" * n, "little"),
            int.from_bytes(b"\x80" * n, "little"),
            int.from_bytes(b"\x80" * (2 * n + 1), "little"))


class PolyDiffOp:
    """Differential operator sum_key (terms[key] / den) x^a s^e d^b, each
    key packed from the tuple a + (e,) + b (see pack_key)."""

    __slots__ = ("ncoords", "terms", "den", "_rows")

    def __init__(self, ncoords: int, terms: dict[Key, int] | None = None,
                 den: int = 1):
        packed = {pack_key(k, ncoords): v for k, v in (terms or {}).items()}
        self._set(ncoords, packed, den)

    @classmethod
    def _packed(cls, ncoords: int, terms: dict[int, int],
                den: int = 1) -> "PolyDiffOp":
        """The operator of a term map that is already keyed by packed ints."""
        op = cls.__new__(cls)
        op._set(ncoords, terms, den)
        return op

    def _set(self, ncoords: int, terms: dict[int, int], den: int) -> None:
        if den <= 0:
            raise ValueError("denominator must be positive")
        terms = {k: v for k, v in terms.items() if v}
        if reduce(or_, terms, 0) & _layout(ncoords)[4]:
            raise OverflowError(f"an exponent reached {FIELD_LIMIT}")
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
        self.ncoords = ncoords
        self.terms: dict[int, int] = terms
        self.den = den
        self._rows: list[tuple[int, int, int, int, int]] | None = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def order(self) -> int:
        n = self.ncoords
        ds = _layout(n)[0]
        return max((sum((k >> ds).to_bytes(n, "little")) for k in self.terms),
                   default=-1)

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
        return PolyDiffOp._packed(self.ncoords, out, den)

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self._combine(other, 1)

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self._combine(other, -1)

    def __neg__(self) -> "PolyDiffOp":
        return PolyDiffOp._packed(self.ncoords,
                                  {k: -v for k, v in self.terms.items()},
                                  self.den)

    def __mul__(self, other: "PolyDiffOp | Q | int") -> "PolyDiffOp":
        """The product with an operator (self o other), or with a scalar."""
        if isinstance(other, PolyDiffOp):
            return self.compose(other)
        p, q = other.numerator, other.denominator     # an int or a Fraction
        return PolyDiffOp._packed(
            self.ncoords, {k: v * p for k, v in self.terms.items()}, self.den * q)

    __rmul__ = __mul__      # reached only for a scalar on the left

    def compose(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """self applied after other, as operators (normal ordered)."""
        return sum_products(self.ncoords, ((self, other),))

    def commutator(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """[self, other]: only the reordering corrections survive."""
        self._check(other)
        n = self.ncoords
        table = _reorder_table(n)
        out: dict[int, int] = {}
        rights = other._masks()
        for ka, ca, cma, dma, da in self._masks():
            for kb, cb, cmb, dmb, db in rights:
                ab, ba = dma & cmb, dmb & cma
                if not (ab or ba):
                    continue        # the two orders give the same term
                base = ka + kb
                c = ca * cb
                if ab:
                    fields = (ab >> _GUARD_SHIFT) * _FIELD
                    key = (da & fields, kb & fields)
                    terms = table.get(key) or _reorderings(table, n, key)
                    for dec, factor in terms:
                        k = base - dec
                        out[k] = out.get(k, 0) + c * factor
                if ba:
                    fields = (ba >> _GUARD_SHIFT) * _FIELD
                    key = (db & fields, ka & fields)
                    terms = table.get(key) or _reorderings(table, n, key)
                    for dec, factor in terms:
                        k = base - dec
                        out[k] = out.get(k, 0) - c * factor
        return PolyDiffOp._packed(n, out, self.den * other.den)

    def _masks(self) -> list[tuple[int, int, int, int, int]]:
        """Per term, computed once (operators are never mutated): key,
        numerator, coordinate mask, derivative mask and the derivative
        exponents shifted down to the coordinate fields.  A mask has bit 7 of
        a coordinate field set where the term carries that coordinate, or
        differentiates it."""
        rows = self._rows
        if rows is None:
            ds, coords, low, high, _ = _layout(self.ncoords)
            rows = self._rows = [
                (k, v, ((k & coords) + low) & high, ((k >> ds) + low) & high,
                 k >> ds) for k, v in self.terms.items()]
        return rows

    def subs_param(self, value: Q | int) -> "PolyDiffOp":
        """Substitute a rational, an int or a Fraction, for the parameter s."""
        p, q = value.numerator, value.denominator
        shift = FIELD_BITS * self.ncoords
        clear = ~(_FIELD << shift)
        top = max(((k >> shift) & _FIELD for k in self.terms), default=0)
        out: dict[int, int] = {}
        for k, v in self.terms.items():
            e = (k >> shift) & _FIELD
            key = k & clear
            out[key] = out.get(key, 0) + v * p ** e * q ** (top - e)
        return PolyDiffOp._packed(self.ncoords, out, self.den * q ** top)

    def at_identity(self) -> PointFunctional:
        """The functional f -> (D f)(e) as derivative-coefficients at 0
        (coordinates are set to 0), in the int-pair form of PointFunctional.

        Raises ValueError on a coordinate-free term of degree 2 or more in s.
        """
        coords = _layout(self.ncoords)[1]
        return _functional({k: v for k, v in self.terms.items()
                            if not k & coords}, self.den, self.ncoords)

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
    ds, coords, _, high, _ = _layout(n)
    acc: dict[int, int] = {}
    for left, right, sign in ((a.terms, b.terms, 1), (b.terms, a.terms, -1)):
        rights = [(kb, kb & coords, cb) for kb, cb in right.items()]
        for ka, ca in left.items():
            if ka & coords:
                continue
            beta = ka >> ds
            for kb, gamma, cb in rights:
                # a field of beta | high keeps its guard bit less gamma iff
                # c_i <= b_i
                if ((beta | high) - gamma) & high != high:
                    continue
                factor = prod(perm(bi, gi) for bi, gi in
                              zip(beta.to_bytes(n, "little"),
                                  gamma.to_bytes(n, "little")) if gi)
                key = ka + kb - gamma - (gamma << ds)
                acc[key] = acc.get(key, 0) + sign * ca * cb * factor
    return _functional(acc, a.den * b.den, n)


def _functional(acc: dict[int, int], den: int, n: int) -> PointFunctional:
    """{coordinate-free packed key: numerator} over den -> (den, pairs)."""
    out: dict[Mono, tuple[int, int]] = {}
    for k, v in acc.items():
        if v:
            key = unpack_key(k, n)
            if key[n] > 1:
                raise ValueError(f"point functional of degree {key[n]} in s")
            m = tuple((i, b) for i, b in enumerate(key[n + 1:]) if b)
            a0, a1 = out.get(m, (0, 0))
            out[m] = (a0, v) if key[n] else (v, a1)
    return den, out


def sum_products(n: int,
                 pairs: Iterable[tuple[PolyDiffOp, PolyDiffOp]]) -> PolyDiffOp:
    """sum_j a_j o b_j over the pairs, operators on n coordinates, accumulated
    into one term map over one common denominator (normal ordered)."""
    pairs = list(pairs)
    for a, b in pairs:
        if a.ncoords != n or b.ncoords != n:
            raise ValueError("coordinate count mismatch")
    den = lcm(*(a.den * b.den for a, b in pairs))
    table = _reorder_table(n)
    out: dict[int, int] = {}
    for a, b in pairs:
        scale = den // (a.den * b.den)
        rights = b._masks()
        for ka, ca, _, dma, da in a._masks():
            ca *= scale
            if not dma:             # a function on the left: no reordering
                for kb, cb in b.terms.items():
                    k = ka + kb
                    out[k] = out.get(k, 0) + ca * cb
                continue
            for kb, cb, cmb, _, _ in rights:
                base = ka + kb
                c = ca * cb
                out[base] = out.get(base, 0) + c
                ov = dma & cmb
                if ov:
                    fields = (ov >> _GUARD_SHIFT) * _FIELD
                    key = (da & fields, kb & fields)
                    terms = table.get(key) or _reorderings(table, n, key)
                    for dec, factor in terms:
                        k = base - dec
                        out[k] = out.get(k, 0) + c * factor
    return PolyDiffOp._packed(n, out, den)


@lru_cache(maxsize=None)
def _reorder_table(n: int) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """The reordering terms on n coordinates met so far, keyed like
    _reorderings' argument and filled by it."""
    return {}


def _reorderings(table: dict, n: int, key: tuple[int, int]):
    """The k >= 1 terms of the normal-ordering expansion of d^b o x^c,
    stored in table under key and returned.

    key holds b and c in the n coordinate fields, both positive on the same
    fields (the coordinates that a left term differentiates and a right term
    carries).  The terms are (key decrement, factor) pairs: the products of
    the per-coordinate terms C(b_i, k_i) c_i!/(c_i-k_i)! x^(c_i-k_i)
    d^(b_i-k_i) other than k = 0, each decrement packed like a key.
    """
    ders, coords = key
    ds = FIELD_BITS * (n + 1)
    per_coord = []
    for i, (b, c) in enumerate(zip(ders.to_bytes(n, "little"),
                                   coords.to_bytes(n, "little"))):
        if b:
            unit = (1 << FIELD_BITS * i) | (1 << (ds + FIELD_BITS * i))
            per_coord.append([(k * unit, comb(b, k) * perm(c, k))
                              for k in range(min(b, c) + 1)])
    terms = table[key] = tuple(
        (sum(dec for dec, _ in choice), prod(f for _, f in choice))
        for choice in islice(product(*per_coord), 1, None))
    return terms


class OperatorCalculus:
    """R and the induced family pi for one algebra."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self.ncoords = alg.nbar_dim           # z plus one x per V- vector
        self.s_var = self.ncoords             # s follows the coordinates

    # -- functions and derivatives as operators --------------------------------

    def _unit(self, pos: int) -> PolyDiffOp:
        """The operator whose one term has exponent 1 at key position pos."""
        return PolyDiffOp._packed(self.ncoords, {1 << FIELD_BITS * pos: 1})

    def const(self, c: Q | int) -> PolyDiffOp:
        return PolyDiffOp._packed(self.ncoords, {0: c.numerator}, c.denominator)

    def var(self, i: int) -> PolyDiffOp:
        """Multiplication by coefficient variable i (a coordinate, or s)."""
        return self._unit(i)

    def derivative(self, i: int) -> PolyDiffOp:
        return self._unit(self.ncoords + 1 + i)

    def identity_op(self) -> PolyDiffOp:
        return self.const(1)

    # -- the adjoint series ---------------------------------------------------

    @memo
    def ad_inverse(self, i: int) -> dict[int, PolyDiffOp]:
        """Ad(nbar(x,z)^{-1}) X_i = exp(-ad W) X_i, with W = sum_g x_g X_g
        (nbar(x, z) = exp(W)), coefficients as functions: a terminating
        series."""
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

    # -- the right regular action ---------------------------------------------

    @memo
    def r_gen(self, g: int) -> PolyDiffOp:
        """R of the g-th basis vector of the opposite nilradical."""
        alg = self.alg
        if not 0 <= g < self.ncoords:
            raise ValueError(f"basis index {g} is not in the opposite nilradical")
        op = self.derivative(g)
        if g != alg.x_minus_gamma:
            # [X_g, X_j] = n X_-gamma for the partner X_j of X_g
            j, n = alg.partner[g]
            op = op + self.var(j) * self.derivative(alg.x_minus_gamma) * Q(-n, 2)
        return op

    @memo
    def r_mono(self, m: Mono) -> PolyDiffOp:
        word = mono_word(m)
        if not word:
            return self.identity_op()
        head = self.r_mono(m[:-1] if m[-1][1] == 1
                           else m[:-1] + ((m[-1][0], m[-1][1] - 1),))
        return head.compose(self.r_gen(word[-1]))

    def r_op(self, u: Elt) -> PolyDiffOp:
        """R of an enveloping-algebra element with rational coefficients."""
        return sum_products(self.ncoords, ((self.const(c), self.r_mono(m))
                                           for m, c in u.items()))

    # -- the induced family ----------------------------------------------------

    @memo
    def pi_basis(self, i: int) -> PolyDiffOp:
        """pi_s(X_i) = -s dchi(A_q) - R(A_nbar) for A = Ad(nbar^{-1}) X_i,
        both extended linearly over A's coefficient functions: one sum of
        products."""
        n, s, dchi = self.ncoords, self.var(self.s_var), self.alg.dchi_on_basis
        return -sum_products(n, [
            (c, self.r_gen(j) if j < n else s * dchi[j])
            for j, c in self.ad_inverse(i).items() if j < n or dchi[j]])
