"""Generalized Verma module induced from the character family s*dchi.

The module is U(g) tensored over the parabolic with the one-dimensional
character s*dchi; as a vector space it is U(nbar) for the opposite Heisenberg
radical nbar, realized here as PBW elements supported on the nbar prefix of
the basis, and s enters only through the action.  A basis element acts on an
nbar monomial by commuting past its PBW factors inside U(nbar) tensor 1
(VermaModule._act_mono), memoized in one table per basis index,
_act_memo[x][m], whose images are tuples of (monomial, a0, a1) int triples
meaning sum (a0 + a1*s)*monomial, the zero image being ().  The action is
int-linear: act and act_basis return the image of an s-free vector as a pair
(v0, v1) meaning v0 + s*v1, int vectors for an int vector and Lie element,
so the module side holds ints end to end; elt_subs evaluates a pair at s0.
Span row-reduces its generators in ints and keeps its echelon rows once, as
ints; one int elimination (Span.eliminate) reduces a vector
(den, {monomial: (a0, a1)}) meaning (a0 + a1*s)/den, the form of module
images and of point functionals (diffops.PointFunctional) alike.  Each image
by q is eliminated once, s symbolic (VermaModule._reduced_images): the
stability solve reads its leftover as int pairs (a0, a1), multiples of its
constraints a0 + a1*s = 0 whose root linalg.common_root forms, the one
Fraction.  s is substituted last, exactly since the echelon rows are s-free:
Span.coordinates reads a reduced image at each s0 for the action matrices,
and the b matrices reduce the symbolic point functionals, read at s*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm

from . import linalg
from .liealg import LieAlgebra
from .memo import memo
from .pbw import Elt, Mono, elt_add, elt_scale, heisenberg_times, mono_degree

Pair = tuple[int, int]    # (a0, a1), a positive multiple of the affine a0 + a1*s
Affine = tuple[Elt, Elt]  # (v0, v1), the module vector v0 + s*v1
Image = tuple[tuple[Mono, int, int], ...]  # ((m, a0, a1), ...), sum (a0 + a1*s)*m


def _accumulate(acc: dict, key, a0: int, a1: int) -> None:
    """acc[key] += [a0, a1], for int pairs."""
    v = acc.get(key)
    if v is None:
        acc[key] = [a0, a1]
    else:
        v[0] += a0
        v[1] += a1


def _combine(row: dict[int, int], pivot_row: dict[int, int],
             p: int) -> dict[int, int]:
    """The primitive int multiple of row - (row[p]/pivot_row[p]) * pivot_row,
    zero at column p."""
    a, b = pivot_row[p], row[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {f: a * c for f, c in row.items()}
    for f, c in pivot_row.items():
        v = out.get(f, 0) - b * c
        if v:
            out[f] = v
        else:
            del out[f]
    k = gcd(*out.values())
    return {f: c // k for f, c in out.items()} if k > 1 else out


def elt_subs(v: Affine, s0: Q) -> Elt:
    """The module vector v0 + s*v1 at s = s0, in ints at an integral s0."""
    t = s0.numerator if s0.denominator == 1 else s0
    return elt_add(v[0], elt_scale(v[1], t))


@dataclass(frozen=True)
class StabilityResult:
    """Outcome of the q-stability analysis of a finite span.

    constraint_count is the number of nonzero constraints built from the
    2*rank generators of q, not from every basis vector of q.
    """

    all_s: bool
    values: tuple[Q, ...]
    levi_stable_all_s: bool         # did the Levi action stay in the span identically?
    constraint_count: int


class VermaModule:
    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self._act_memo: list[dict[Mono, Image]] = [{} for _ in range(self.alg.dim)]

    # -- the action ----------------------------------------------------------

    def _act_mono(self, x: int, m: Mono) -> Image:
        """X_x.(m tensor 1) for an nbar monomial m, as a tuple of triples
        (nbar monomial, a0, a1) with int a0, a1 meaning a0 + a1*s, not both
        0, each monomial once; the zero image is the one empty tuple ().
        Memoized in _act_memo[x][m], one table per basis index; the images
        are tuples, so no caller can mutate them.

        The recursion never leaves U(nbar) tensor 1:

          x in nbar:   X.m is the product in U(nbar), in closed form
                       (pbw.heisenberg_times);
          m = 1:       X.(1 tensor 1) = s*dchi(X) for a Cartan X, 0 for a
                       root vector of q;
          m = Y_a rest (Y_a the first PBW factor of m):
                       X.(Y_a rest) = Y_a.(X.rest) + [X, Y_a].rest.

        Affine lemma: only the case m = 1 brings in s, to the first power;
        the nbar case is s-free, and the last case is Z-linear in results
        of the recursion, so every coefficient is a0 + a1*s with int a0, a1
        (the structure constants, the PBW normal-ordering coefficients and
        dchi on the coroots are all ints).
        """
        table = self._act_memo[x]
        out = table.get(m)
        if out is not None:
            return out
        alg = self.alg
        if x < alg.nbar_dim:
            out = tuple((m2, c, 0)
                        for m2, c in heisenberg_times(alg, x, m).items())
        elif not m:
            v = alg.dchi_on_basis[x]
            out = ((m, 0, v),) if v else ()
        else:
            (a, e), tail = m[0], m[1:]
            rest = ((a, e - 1),) + tail if e > 1 else tail
            acc: dict[Mono, list[int]] = {}
            # Y_a.(X.rest): left multiplication by Y_a is the nbar case
            for m1, b0, b1 in self._act_mono(x, rest):
                for m2, c, _ in self._act_mono(a, m1):
                    _accumulate(acc, m2, c * b0, c * b1)
            for k, n in alg.table[x][a]:
                for m2, b0, b1 in self._act_mono(k, rest):
                    _accumulate(acc, m2, n * b0, n * b1)
            # "or ()": Python 3.10 builds a fresh empty tuple here
            out = tuple((m2, a0, a1) for m2, (a0, a1) in acc.items()
                        if a0 or a1) or ()
        table[m] = out
        return out

    def _act_ints(self, x: dict[int, int], v: Elt) -> dict[Mono, list[int]]:
        """X.v for X = sum_i x[i] X_i and a module vector v, as a fresh dict
        {monomial: [a0, a1]} meaning a0 + a1*s (ints for int x and v) summed
        from the memoized images _act_memo[i][m]; pairs that cancel to
        [0, 0] are kept, and callers skip them."""
        acc: dict[Mono, list[int]] = {}
        for i, c in x.items():
            for m, b in v.items():
                k = c * b
                for m2, a0, a1 in self._act_mono(i, m):
                    _accumulate(acc, m2, k * a0, k * a1)
        return acc

    def act_basis(self, i: int, v: Elt) -> Affine:
        """X_i.v = v0 + s*v1 for an s-free module vector v, as (v0, v1)."""
        return self.act({i: 1}, v)

    def act(self, x: dict[int, int], v: Elt) -> Affine:
        """X.v = v0 + s*v1 for X = sum_i x[i] X_i and an s-free v, as (v0, v1).

        The action is int-linear, so int x and v give int vectors; the
        checks scale their elements to ints once and compare ints.  Other
        rational coefficients act too, in Fraction arithmetic.
        """
        self._require_module(v)
        acc = self._act_ints(x, v)
        return ({m: a0 for m, (a0, _) in acc.items() if a0},
                {m: a1 for m, (_, a1) in acc.items() if a1})

    def _require_module(self, v: Elt) -> None:
        cut = self.alg.nbar_dim
        for m in v:
            if any(i >= cut for i, _ in m):
                raise ValueError("element is not supported on the nbar prefix")

    # -- exact stability analysis ---------------------------------------------

    def stability_constraints(self, span: Span) -> tuple[list[Pair], list[Pair]]:
        """Affine conditions a0 + a1*s = 0 for q-stability of the span W.

        Returns (levi_constraints, nilradical_constraints) as int pairs
        (a0, a1): the constraints from acting by each generator x of q
        (LieAlgebra.q_generators), filed by the grade of x.  The constraints
        from x are the coefficients each acted generator of W (span.int_gens)
        leaves outside W, the leftover of the elimination module_action_matrix
        reads (_reduced_images) as int numerators, positive multiples of the
        coefficients, so W is stable under x at s = s0 iff they all vanish at
        s0.  They are affine by the lemma in _act_mono, W being s-free.

        Acting by generators suffices: at a fixed s0 the x in q with
        x.W in W form a Lie subalgebra, since [x, y].w = x.(y.w) - y.(x.w),
        so it is all of q once it holds the generators.  Likewise the grade 0
        generators generate the Levi factor l.
        """
        for g in span.gens:
            if not g:
                raise ValueError("zero generator in candidate span")
            self._require_module(g)
        levi: list[Pair] = []
        nil: list[Pair] = []
        for x in self.alg.q_generators:
            (levi if self.alg.grade[x] == 0 else nil).extend(
                c for _, _, left in self._reduced_images(span, x) for c in left)
        return levi, nil

    def singular_values(self, span: Span) -> StabilityResult:
        """Exactly the rational s0 at which span is q-stable: the common root
        of the affine constraint pairs (linalg.common_root), every s when
        there is no constraint."""
        levi, nil = self.stability_constraints(span)
        degree, root = linalg.common_root(levi + nil)
        return StabilityResult(degree < 0, () if root is None else (root,),
                               not levi, len(levi) + len(nil))

    @memo
    def _reduced_images(self, span: Span, x: int) -> list[tuple[int, dict, list]]:
        """Span.eliminate of X_x.g for each generator g of span, s symbolic,
        for module vectors g (stability_constraints checks them)."""
        return [span.eliminate(den, self._act_ints({x: 1}, g))
                for den, g in span.int_gens]

    def module_action_matrix(self, span: Span, x: int, s0: Q) -> list[list[Q]]:
        """Matrix a with X_x.gens[i] = sum_j a[j][i] gens[j] at s = s0, for
        the generators gens of span, module vectors: the images reduced once
        with s symbolic (_reduced_images), read at s0.  Raises ValueError
        when the span is not stable under X_x at s0."""
        cols = [span.coordinates(r, s0) for r in self._reduced_images(span, x)]
        if None in cols:
            raise ValueError(f"span is not stable under X_{x} at s={s0} "
                             f"(generator {cols.index(None)})")
        return [list(row) for row in zip(*cols)]


class Span:
    """Row-reduced span of s-free vectors keyed by PBW monomials.

    The generators (U(nbar) elements, or any dicts from monomials to
    rationals) are the rows of one matrix over their n monomials, in
    (degree, monomial) order, each augmented with a unit vector, so that
    every echelon row of its rref also records its combination of the
    generators.  Generator j is the int row int_gens[j] = (den, ints),
    gens[j] = ints/den, reduced by fraction-free Gauss-Jordan elimination on
    sparse int rows, each kept primitive.  The rref is unique: its rows are
    these over their pivots, kept once as ints scaled by the lcm of all their
    denominators: per pivot, the entries on the non-pivot monomial columns
    f < n and on the combination columns n + j.
    """

    def __init__(self, gens: list[Elt]):
        self.gens = gens
        mons = sorted({m for g in gens for m in g}, key=lambda t: (mono_degree(t), t))
        self.col = col = {m: k for k, m in enumerate(mons)}
        self.n = n = len(mons)
        self.int_gens: list[tuple[int, dict[Mono, int]]] = []
        red: dict[int, dict[int, int]] = {}   # pivot column -> int row
        for j, g in enumerate(gens):
            if not all(isinstance(c, (int, Q)) for c in g.values()):
                raise NotImplementedError("span generators must not depend on s")
            den = lcm(*(c.denominator for c in g.values()))
            ints = {m: c.numerator * (den // c.denominator) for m, c in g.items() if c}
            self.int_gens.append((den, ints))
            row = {col[m]: c for m, c in ints.items()}
            row[n + j] = den
            # the rows are zero on each other's pivots, so the order is free
            for p in [f for f in row if f in red]:
                row = _combine(row, red[p], p)
            p = min(row)
            for q in [q for q, other in red.items() if p in other]:
                red[q] = _combine(red[q], row, p)
            red[p] = row
        pivots = sorted(p for p in red if p < n)
        self.rank = len(pivots)
        self.scale = lcm(*(red[p][p] // gcd(a, red[p][p])
                           for p in pivots for a in red[p].values()))
        self._rows = {p: [(f, a * self.scale // red[p][p])
                          for f, a in sorted(red[p].items()) if f != p]
                      for p in pivots}

    def eliminate(self, den: int, w: dict) -> tuple[int, dict, list]:
        """Reduce the vector sum (a0 + a1*s)/den * m over the items
        m: (a0, a1) of w against the echelon rows.

        Returns (d, coords, leftover), all int pairs (b0, b1) over the one
        denominator d = den * scale, meaning (b0 + b1*s)/d: coords[j] is the
        coefficient of gens[j] in w's part on the span, and leftover lists
        the nonzero coefficients left outside the span, those of w off the
        span's monomials in w's order, then those of
        w - sum_r w[pivot r] * (row r) on the non-pivot monomials, in order.
        w lies in the span iff the leftover is empty.

        Echelon rows are zero on every other pivot, so the multiple of row r
        to subtract is w at its pivot; on the combination columns the same
        subtraction collects minus the coordinates.
        """
        col, rows, scale, n = self.col, self._rows, self.scale, self.n
        leftover = [(scale * a0, scale * a1) for m, (a0, a1) in w.items()
                    if m not in col and (a0 or a1)]
        rest: dict[int, list[int]] = {}
        for m, (a0, a1) in w.items():
            f = col.get(m)
            if f is None or not (a0 or a1):
                continue
            tail = rows.get(f)
            if tail is None:
                _accumulate(rest, f, scale * a0, scale * a1)
                continue
            for f2, b in tail:
                _accumulate(rest, f2, -a0 * b, -a1 * b)
        coords = {}
        for f, (b0, b1) in sorted(rest.items()):
            if not (b0 or b1):
                continue
            if f < n:
                leftover.append((b0, b1))
            else:
                coords[f - n] = (-b0, -b1)
        return den * scale, coords, leftover

    def coordinates(self, reduced: tuple[int, dict, list], s0: Q) -> list[Q] | None:
        """The rational coefficients of gens at s = s0 = p/q of a vector
        reduced by eliminate, (d, coords, leftover): (q*b0 + p*b1)/(q*d) per
        pair, exact since the echelon rows are s-free; None when the
        leftover does not vanish at s0, off the span."""
        d, coords, leftover = reduced
        p, q = s0.numerator, s0.denominator
        if any(q * b0 + p * b1 for b0, b1 in leftover):
            return None
        out = [Q(0)] * len(self.gens)
        for j, (b0, b1) in coords.items():
            out[j] = Q(q * b0 + p * b1, q * d)
        return out
