"""Generalized Verma module induced from the character family s*dchi.

The module is U(g) tensored over the parabolic with the one-dimensional
character s*dchi; as a vector space it is U(nbar) for the opposite Heisenberg
radical nbar, realized here as PBW elements supported on the nbar prefix of
the basis.  U(g) is rational; s enters only here.  A basis element acts on
an nbar monomial by commuting past its PBW factors inside U(nbar) tensor 1
(VermaModule._act_mono), so the image of an s-free vector is affine in s,
held as two ints per monomial; act_basis returns it with coefficients in
Q[s], and stability questions become polynomial conditions on s solved
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm

from . import linalg
from .pbw import Elt, Enveloping, Mono, elt_add, elt_scale, mono_degree
from .poly import Poly, poly_gcd_all, rational_roots

S = Poly.variable(1, 0)  # the parameter s


def lift(v: Elt) -> Elt:
    """v with every coefficient in Q[s], to compare it with module vectors."""
    return {m: c if isinstance(c, Poly) else Poly.constant(1, c) for m, c in v.items()}


def _affine(a0: int, a1: int, den: int) -> Poly:
    """(a0 + a1*s) / den as a Poly in s."""
    terms = {}
    if a0:
        terms[(0,)] = Q(a0, den)
    if a1:
        terms[(1,)] = Q(a1, den)
    return Poly._wrap(1, terms)


def _accumulate(acc: dict[Mono, list[int]], m: Mono, a0: int, a1: int) -> None:
    v = acc.get(m)
    if v is None:
        acc[m] = [a0, a1]
    else:
        v[0] += a0
        v[1] += a1


def elt_subs(v: Elt, s0: Q) -> Elt:
    """The module vector v at s = s0, with rational coefficients."""
    out: Elt = {}
    for m, c in v.items():
        c0 = c.subs(0, s0).constant_value()
        if c0:
            out[m] = c0
    return out


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

    def act_basis(self, i: int, v: Elt) -> Elt:
        """Action of the basis element X_i on a module element.

        Rational coefficients are scaled to ints over the lcm of their
        denominators, and the affine images are summed as int pairs, so
        Fractions are built only for the output coefficients.  Poly
        coefficients (of a vector already acted on) multiply the affine
        image as Polys.
        """
        self._require_module(v)
        den = lcm(*(c.denominator for c in v.values() if not isinstance(c, Poly)))
        ints: dict[Mono, list[int]] = {}
        polys: dict[Mono, Poly] = {}
        for m, c in v.items():
            image = self._act_mono(i, m)
            if isinstance(c, Poly):
                for m2, (a0, a1) in image.items():
                    t = c * _affine(a0, a1, 1)
                    p = polys.get(m2)
                    polys[m2] = t if p is None else p + t
            else:
                k = c.numerator * (den // c.denominator)
                for m2, (a0, a1) in image.items():
                    _accumulate(ints, m2, k * a0, k * a1)
        out = {m: _affine(a0, a1, den) for m, (a0, a1) in ints.items() if a0 or a1}
        return elt_add(out, polys)

    def act(self, x: dict[int, Q], v: Elt) -> Elt:
        self._require_module(v)
        out: Elt = {}
        for i, c in x.items():
            out = elt_add(out, elt_scale(self.act_basis(i, v), c))
        return out

    def _require_module(self, v: Elt) -> None:
        cut = self.alg.nbar_dim
        for m in v:
            if any(i >= cut for i, _ in m):
                raise ValueError("element is not supported on the nbar prefix")

    # -- exact stability analysis ---------------------------------------------

    def stability_constraints(self, gens: list[Elt]) -> tuple[list[Poly], list[Poly]]:
        """Polynomial conditions in s for q-stability of the span W of gens.

        Returns (levi_constraints, nilradical_constraints): the constraints
        from acting by each generator x of q (LieAlgebra.q_generators), filed
        by the grade of x.  The constraints from x are the coefficients each
        acted generator of W leaves outside W (see Span.reduce), so W is
        stable under x at s = s0 iff they all vanish at s0.

        Acting by generators suffices: at a fixed s0 the x in q with
        x.W in W form a Lie subalgebra, since [x, y].w = x.(y.w) - y.(x.w),
        so it is all of q once it holds the generators.  Likewise the grade 0
        generators generate the Levi factor l.
        """
        for g in gens:
            if not g:
                raise ValueError("zero generator in candidate span")
        span = Span(gens)
        levi: list[Poly] = []
        nil: list[Poly] = []
        for x in self.alg.q_generators:
            out = levi if self.alg.grade[x] == 0 else nil
            for g in gens:
                out.extend(span.reduce(self.act_basis(x, g))[1])
        return levi, nil

    def singular_values(self, gens: list[Elt]) -> StabilityResult:
        """Exactly the rational s0 at which the span of gens is q-stable."""
        levi, nil = self.stability_constraints(gens)
        constraints = levi + nil
        if not constraints:
            return StabilityResult(True, (), True, 0)
        roots = rational_roots(poly_gcd_all(constraints))
        return StabilityResult(False, tuple(roots), not levi, len(constraints))

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
    row of its rref also records its combination of the generators.
    """

    def __init__(self, gens: list[Elt]):
        self.gens = gens
        mons = sorted({m for g in gens for m in g}, key=lambda t: (mono_degree(t), t))
        self.col = {m: k for k, m in enumerate(mons)}
        n, k = len(mons), len(gens)
        mat = [[Q(0)] * n + [Q(int(i == j)) for i in range(k)] for j in range(k)]
        for j, g in enumerate(gens):
            for m, c in g.items():
                if isinstance(c, Poly):
                    raise NotImplementedError("span generators must not depend on s")
                mat[j][self.col[m]] = Q(c)
        red, pivots = linalg.rref(mat)
        self.rank = sum(p < n for p in pivots)
        # per echelon row: pivot monomial, entries on non-pivot monomials, combination
        self.rows = [(p, [(f, a) for f, a in enumerate(red[r][:n]) if a and f != p],
                      [(j, a) for j, a in enumerate(red[r][n:]) if a])
                     for r, p in enumerate(pivots[:self.rank])]

    def reduce(self, w: dict) -> tuple[dict, list]:
        """(coordinates of w in the generators, coefficients left outside the span).

        Coefficients may be Polys or rationals.  The leftover lists the nonzero
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
