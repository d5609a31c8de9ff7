"""Generalized Verma module induced from the character family s*dchi.

The module is U(g) tensored over the parabolic with the one-dimensional
character s*dchi; as a vector space it is U(nbar) for the opposite Heisenberg
radical nbar, realized here as PBW elements supported on the nbar prefix of
the basis.  U(g) and every module vector the engine builds are rational; s
enters only through the action.  A basis element acts on an nbar monomial by
commuting past its PBW factors inside U(nbar) tensor 1
(VermaModule._act_mono), memoized in one table per basis index,
_act_memo[x][m], whose images are tuples of (monomial, a0, a1) int triples
meaning sum (a0 + a1*s)*monomial, the zero image being ().  So the image of
an s-free vector is affine in s, held as two ints per monomial over a common
denominator (VermaModule._act_ints).  act_basis and act return that image as
a pair (v0, v1) of rational vectors meaning v0 + s*v1; elt_subs evaluates a
pair at s0.  Span keeps its echelon rows once, as ints, and one int elimination
(Span.eliminate) reduces a vector (den, {monomial: (a0, a1)}) meaning
(a0 + a1*s)/den, the form of module images and of point functionals
(diffops.PointFunctional) alike.  The q-stability solve reads the leftover
outside the span: exact rational pairs (a0, a1) meaning a0 + a1*s, off which
the special values are read.  Span.coordinates reads the coordinates of an
s-free vector, for the action matrices and the operator-side b matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm

from . import linalg
from .liealg import LieAlgebra
from .pbw import Elt, Enveloping, Mono, elt_add, elt_scale, mono_degree

Pair = tuple[Q, Q]        # (a0, a1), the affine a0 + a1*s
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


def _split(den: int, ints: dict[Mono, list[int]]) -> Affine:
    """The int pairs (a0 + a1*s)/den of ints as rational vectors (v0, v1)."""
    v0: Elt = {}
    v1: Elt = {}
    for m, (a0, a1) in ints.items():
        if a0:
            v0[m] = Q(a0, den)
        if a1:
            v1[m] = Q(a1, den)
    return v0, v1


def _insert(m: Mono, g: int) -> Mono:
    """m with one more factor g, in its sorted place: the product m * X_g
    when X_g commutes with every factor of m."""
    for k, (i, e) in enumerate(m):
        if i == g:
            return m[:k] + ((g, e + 1),) + m[k + 1:]
        if i > g:
            return m[:k] + ((g, 1),) + m[k:]
    return m + ((g, 1),)


def _heisenberg_times(alg: LieAlgebra, x: int, m: Mono) -> Image:
    """Y_x * m in U(nbar) for an nbar generator Y_x and an nbar monomial m.

    nbar is a Heisenberg algebra: Z = X_-gamma (index 0) is central, and the
    one nonzero bracket of Y_x is [Y_x, Y_p] = n Z, (p, n) = alg.partner[x].
    So Y_x moves to its PBW place past every factor but Y_p^e, where
    Y_x Y_p^e = Y_p^e Y_x + e n Z Y_p^(e-1):

      Y_x * m = ins(m, x) + [p < x and p in m] e n ins(m - Y_p, Z),

    at most two terms, as (monomial, coefficient, 0) triples.
    """
    out = ((_insert(m, x), 1, 0),)
    if x == alg.x_minus_gamma:
        return out
    p, n = alg.partner[x]
    if p > x:
        return out
    for k, (i, e) in enumerate(m):
        if i == p:
            rest = m[:k] + (((p, e - 1),) if e > 1 else ()) + m[k + 1:]
            return out + ((_insert(rest, alg.x_minus_gamma), e * n, 0),)
        if i > p:
            break
    return out


def elt_subs(v: Affine, s0: Q) -> Elt:
    """The module vector v0 + s*v1 at s = s0, with rational coefficients."""
    return elt_add(v[0], elt_scale(v[1], s0))


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
    def __init__(self, env: Enveloping):
        self.env = env
        self.alg = env.alg
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
                       (_heisenberg_times);
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
        memo = self._act_memo[x]
        out = memo.get(m)
        if out is not None:
            return out
        alg = self.alg
        if x < alg.nbar_dim:
            out = _heisenberg_times(alg, x, m)
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
            out = tuple((m2, a0, a1) for m2, (a0, a1) in acc.items() if a0 or a1)
        memo[m] = out
        return out

    def _act_ints(self, i: int, v: Elt) -> tuple[int, dict[Mono, list[int]]]:
        """X_i.v for a module vector v with rational coefficients, as
        (den, {monomial: [a0, a1]}) with ints a0, a1 meaning (a0 + a1*s)/den.

        den is the lcm of the denominators of v: each coefficient is scaled
        to an int over it, and the memoized images _act_memo[i][m] of its
        monomials, tuples of (monomial, a0, a1) triples, are summed into a
        fresh dict of int pairs, which the caller owns.
        Pairs that cancel to [0, 0] are kept; callers skip them.
        """
        den = lcm(*(c.denominator for c in v.values()))
        acc: dict[Mono, list[int]] = {}
        for m, c in v.items():
            k = c.numerator * (den // c.denominator)
            for m2, a0, a1 in self._act_mono(i, m):
                _accumulate(acc, m2, k * a0, k * a1)
        return den, acc

    def act_basis(self, i: int, v: Elt) -> Affine:
        """X_i.v = v0 + s*v1 for an s-free module vector v, as (v0, v1).

        Fractions are built only for the nonzero output coefficients.
        """
        self._require_module(v)
        return _split(*self._act_ints(i, v))

    def act(self, x: dict[int, Q], v: Elt) -> Affine:
        """X.v = v0 + s*v1 for X = sum_i x[i] X_i and an s-free v, as (v0, v1).

        The images by the X_i share the denominator of v; the rational x[i]
        are scaled to ints over the lcm of their denominators.
        """
        self._require_module(v)
        dx = lcm(*(c.denominator for c in x.values()))
        den, acc = 1, {}
        for i, c in x.items():
            den, ints = self._act_ints(i, v)
            k = c.numerator * (dx // c.denominator)
            for m, (a0, a1) in ints.items():
                _accumulate(acc, m, k * a0, k * a1)
        return _split(den * dx, acc)

    def _require_module(self, v: Elt) -> None:
        cut = self.alg.nbar_dim
        for m in v:
            if any(i >= cut for i, _ in m):
                raise ValueError("element is not supported on the nbar prefix")

    # -- exact stability analysis ---------------------------------------------

    def stability_constraints(self, span: Span) -> tuple[list[Pair], list[Pair]]:
        """Affine conditions a0 + a1*s = 0 for q-stability of the span W.

        Returns (levi_constraints, nilradical_constraints) as exact rational
        pairs (a0, a1): the constraints from acting by each generator x of q
        (LieAlgebra.q_generators), filed by the grade of x.  The constraints
        from x are the coefficients each acted generator of W (span.gens)
        leaves outside W (the leftover of Span.eliminate), so W is stable
        under x at s = s0 iff they all vanish at s0.  They are affine by the
        lemma in _act_mono, since the generators of W are s-free.

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
            out = levi if self.alg.grade[x] == 0 else nil
            for g in span.gens:
                d, _, left = span.eliminate(*self._act_ints(x, g))
                out.extend((Q(b0, d), Q(b1, d)) for b0, b1 in left)
        return levi, nil

    def singular_values(self, span: Span) -> StabilityResult:
        """Exactly the rational s0 at which span is q-stable: the common root
        of the affine constraint pairs (linalg.common_root), every s when
        there is no constraint."""
        levi, nil = self.stability_constraints(span)
        degree, root = linalg.common_root(levi + nil)
        return StabilityResult(degree < 0, () if root is None else (root,),
                               not levi, len(levi) + len(nil))

    def module_action_matrix(self, span: Span, x: int, s0: Q) -> list[list[Q]]:
        """Matrix a with X_x.gens[i] = sum_j a[j][i] gens[j] at s = s0,
        for the generators gens of span.

        Each image (a0 + a1*s)/den is evaluated at s0 = p/q in ints, as
        (q*a0 + p*a1)/(q*den), and reduced against the span.  Raises
        ValueError when the span is not stable under X_x at s0.
        """
        p, q = s0.numerator, s0.denominator
        cols = []
        for g in span.gens:
            self._require_module(g)
            den, ints = self._act_ints(x, g)
            cols.append(span.coordinates(
                q * den, {m: (q * a0 + p * a1, 0) for m, (a0, a1) in ints.items()}))
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
    generators.  The echelon rows are kept once, as ints scaled by the lcm
    of all their denominators: per pivot, the entries on the non-pivot
    monomial columns f < n and on the combination columns n + j.
    """

    def __init__(self, gens: list[Elt]):
        self.gens = gens
        mons = sorted({m for g in gens for m in g}, key=lambda t: (mono_degree(t), t))
        self.col = {m: k for k, m in enumerate(mons)}
        n, k = len(mons), len(gens)
        mat = [[Q(0)] * n + [Q(int(i == j)) for i in range(k)] for j in range(k)]
        for j, g in enumerate(gens):
            for m, c in g.items():
                if not isinstance(c, (int, Q)):
                    raise NotImplementedError("span generators must not depend on s")
                mat[j][self.col[m]] = Q(c)
        red, pivots = linalg.rref(mat)
        self.rank = sum(p < n for p in pivots)
        self.n = n
        tails = {p: [(f, a) for f, a in enumerate(red[r]) if a and f != p]
                 for r, p in enumerate(pivots[:self.rank])}
        self.scale = lcm(*(a.denominator for tail in tails.values() for _, a in tail))
        self._rows = {p: [(f, a.numerator * (self.scale // a.denominator))
                          for f, a in tail]
                      for p, tail in tails.items()}

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

    def coordinates(self, den: int, w: dict) -> list[Q] | None:
        """The rational coefficients of gens in the vector (den, w) of
        eliminate; None when w is off the span or carries s."""
        d, coords, leftover = self.eliminate(den, w)
        if leftover or any(b1 for _, b1 in coords.values()):
            return None
        out = [Q(0)] * len(self.gens)
        for j, (b0, _) in coords.items():
            out[j] = Q(b0, d)
        return out
