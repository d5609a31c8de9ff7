"""Generalized Verma module induced from the character family s*dchi.

The module is U(g) tensored over the parabolic with the one-dimensional
character s*dchi; as a vector space it is U(nbar) for the opposite Heisenberg
radical nbar, realized here as PBW elements supported on the nbar prefix of
the basis.  U(g) and every module vector the engine builds are rational; s
enters only through the action.  A basis element acts on an nbar monomial by
commuting past its PBW factors inside U(nbar) tensor 1
(VermaModule._act_mono), so the image of an s-free vector is affine in s,
held as two ints per monomial over a common denominator
(VermaModule._act_ints).  act_basis and act return that image as a pair
(v0, v1) of rational vectors meaning v0 + s*v1; elt_subs evaluates a pair at
s0.  The q-stability solve stays in int form: Span reduces the int pairs
against int echelon rows, every constraint is an exact rational pair
(a0, a1) meaning a0 + a1*s, and the special values are read off the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm

from . import linalg
from .pbw import Elt, Enveloping, Mono, elt_add, elt_scale, mono_degree

Pair = tuple[Q, Q]        # (a0, a1), the affine a0 + a1*s
Affine = tuple[Elt, Elt]  # (v0, v1), the module vector v0 + s*v1


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
        self._act_memo: dict[tuple[int, Mono], dict[Mono, tuple[int, int]]] = {}

    # -- the action ----------------------------------------------------------

    def _act_mono(self, x: int, m: Mono) -> dict[Mono, tuple[int, int]]:
        """X_x.(m tensor 1) for an nbar monomial m, as {nbar monomial: (a0, a1)}
        with int a0, a1 meaning a0 + a1*s.  Memoized; callers must not mutate.

        The recursion never leaves U(nbar) tensor 1:

          x in nbar:   X.m is the product in U(nbar), which nbar closes;
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
        key = (x, m)
        out = self._act_memo.get(key)
        if out is not None:
            return out
        alg = self.alg
        if x < alg.nbar_dim:
            out = {m2: (c, 0) for m2, c in self.env.mono_mul(((x, 1),), m).items()}
        elif not m:
            v = int(alg.dchi_index(x))
            out = {m: (0, v)} if v else {}
        else:
            (a, e), tail = m[0], m[1:]
            rest = ((a, e - 1),) + tail if e > 1 else tail
            acc: dict[Mono, list[int]] = {}
            # Y_a.(X.rest): left multiplication by Y_a is the nbar case
            for m1, (b0, b1) in self._act_mono(x, rest).items():
                for m2, (c, _) in self._act_mono(a, m1).items():
                    _accumulate(acc, m2, c * b0, c * b1)
            for k, n in alg.table[x][a]:
                for m2, (b0, b1) in self._act_mono(k, rest).items():
                    _accumulate(acc, m2, n * b0, n * b1)
            out = {m2: (a0, a1) for m2, (a0, a1) in acc.items() if a0 or a1}
        self._act_memo[key] = out
        return out

    def _act_ints(self, i: int, v: Elt) -> tuple[int, dict[Mono, list[int]]]:
        """X_i.v for a module vector v with rational coefficients, as
        (den, {monomial: [a0, a1]}) with ints a0, a1 meaning (a0 + a1*s)/den.

        den is the lcm of the denominators of v: each coefficient is scaled
        to an int over it, and the affine images are summed as int pairs.
        Pairs that cancel to [0, 0] are kept; callers skip them.
        """
        den = lcm(*(c.denominator for c in v.values()))
        acc: dict[Mono, list[int]] = {}
        for m, c in v.items():
            k = c.numerator * (den // c.denominator)
            for m2, (a0, a1) in self._act_mono(i, m).items():
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

    def stability_constraints(self, gens: list[Elt]) -> tuple[list[Pair], list[Pair]]:
        """Affine conditions a0 + a1*s = 0 for q-stability of the span W of gens.

        Returns (levi_constraints, nilradical_constraints) as exact rational
        pairs (a0, a1): the constraints from acting by each generator x of q
        (LieAlgebra.q_generators), filed by the grade of x.  The constraints
        from x are the coefficients each acted generator of W leaves outside
        W (see Span.leftover_pairs), so W is stable under x at s = s0 iff
        they all vanish at s0.  They are affine by the lemma in _act_mono,
        since the generators of W are s-free.

        Acting by generators suffices: at a fixed s0 the x in q with
        x.W in W form a Lie subalgebra, since [x, y].w = x.(y.w) - y.(x.w),
        so it is all of q once it holds the generators.  Likewise the grade 0
        generators generate the Levi factor l.
        """
        for g in gens:
            if not g:
                raise ValueError("zero generator in candidate span")
            self._require_module(g)
        span = Span(gens)
        levi: list[Pair] = []
        nil: list[Pair] = []
        for x in self.alg.q_generators:
            out = levi if self.alg.grade[x] == 0 else nil
            for g in gens:
                out.extend(span.leftover_pairs(*self._act_ints(x, g)))
        return levi, nil

    def singular_values(self, gens: list[Elt]) -> StabilityResult:
        """Exactly the rational s0 at which the span of gens is q-stable:
        the common root of the affine constraint pairs (linalg.common_root),
        every s when there is no constraint."""
        levi, nil = self.stability_constraints(gens)
        degree, root = linalg.common_root(levi + nil)
        return StabilityResult(degree < 0, () if root is None else (root,),
                               not levi, len(levi) + len(nil))

    def module_action_matrix(self, span: Span, x: dict[int, Q], s0: Q) -> list[list[Q]]:
        """Matrix a with act(x, gens[i]) = sum_j a[j][i] gens[j] at s = s0,
        for the generators gens of span.

        Raises ValueError when the span is not stable under x at s0.
        """
        gens = span.gens
        cols = []
        for i, g in enumerate(gens):
            coords, left = span.reduce(elt_subs(self.act(x, g), s0))
            if left:
                raise ValueError(f"span is not stable under x={x} at s={s0} (generator {i})")
            cols.append(coords)
        return [[cols[i].get(j, Q(0)) for i in range(len(gens))] for j in range(len(gens))]


class Span:
    """Row-reduced span of s-free vectors keyed by PBW monomials.

    The generators (U(nbar) elements, or any dicts from monomials to
    rationals) are the rows of one matrix over their monomials, in (degree,
    monomial) order, each augmented with a unit vector, so that every echelon
    row of its rref also records its combination of the generators.  The
    echelon rows are also kept as ints, scaled by the lcm of all their
    denominators, for the exact reduction of int-pair vectors.
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
        # per echelon row: pivot monomial, entries on non-pivot monomials, combination
        self.rows = [(p, [(f, a) for f, a in enumerate(red[r][:n]) if a and f != p],
                      [(j, a) for j, a in enumerate(red[r][n:]) if a])
                     for r, p in enumerate(pivots[:self.rank])]
        self.scale = lcm(*(a.denominator for _, tail, _ in self.rows for _, a in tail))
        # pivot column -> the row's non-pivot entries times scale, as ints
        self._int_rows = {p: [(f, a.numerator * (self.scale // a.denominator))
                              for f, a in tail]
                          for p, tail, _ in self.rows}

    def reduce(self, w: dict) -> tuple[dict, list]:
        """(coordinates of w in the generators, coefficients left outside the span).

        Coefficients are rationals.  The leftover lists the nonzero
        entries of w off the span's monomials, in w's order, then those of
        w - sum_r w[pivot r] * (row r) on the non-pivot monomials, in order.
        """
        leftover = [c for m, c in w.items() if m not in self.col and c]
        rest = {self.col[m]: c for m, c in w.items() if m in self.col}
        coords: dict = {}
        for p, tail, combo in self.rows:
            c = rest.pop(p, None)
            if not c:
                continue
            for f, a in tail:
                v = rest.get(f)
                rest[f] = -(c * a) if v is None else v - c * a
            for j, a in combo:
                v = coords.get(j)
                coords[j] = c * a if v is None else v + c * a
        leftover.extend(c for _, c in sorted(rest.items()) if c)
        return coords, leftover

    def leftover_pairs(self, den: int, w: dict[Mono, list[int]]) -> list[Pair]:
        """The leftover of reduce for the vector sum (a0 + a1*s)/den * m over
        the items m: [a0, a1] of w, as exact rational pairs (a0, a1) in the
        same order.

        Echelon rows are zero on every other pivot, so the multiple of row r
        to subtract is w at its pivot; on the non-pivot monomials the int
        sums scale * w[f] - sum_r w[pivot r] * (int row r) are the leftover
        times den * scale.
        """
        col, rows, scale = self.col, self._int_rows, self.scale
        leftover = [(Q(a0, den), Q(a1, den)) for m, (a0, a1) in w.items()
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
        d = den * scale
        leftover.extend((Q(b0, d), Q(b1, d)) for _, (b0, b1) in sorted(rest.items())
                        if b0 or b1)
        return leftover
