"""Generalized Verma module induced from the character family s*dchi.

The module is U(g) tensored over the parabolic with the one-dimensional
character s*dchi; as a vector space it is U(nbar) for the opposite Heisenberg
radical nbar, realized here as PBW elements supported on the nbar prefix of
the basis.  U(g) is rational; s enters only here: acting by a basis element
lifts the result into Q[s], and stability questions become polynomial
conditions on s solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from . import linalg
from .pbw import Coeff, Elt, Enveloping, Mono, elt_add, elt_scale, mono_degree
from .poly import Poly, poly_gcd_all, rational_roots

S = Poly.variable(1, 0)  # the parameter s


def spoly(c: Coeff) -> Poly:
    """c as a coefficient in Q[s]; a Poly is returned as it is."""
    return c if isinstance(c, Poly) else Poly.constant(1, c)


def lift(v: Elt) -> Elt:
    """v with every coefficient in Q[s], to compare it with module vectors."""
    return {m: spoly(c) for m, c in v.items()}


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

    # -- the action ----------------------------------------------------------

    def _reduce(self, raw: Elt) -> Elt:
        """Project a normal-ordered U(g) element onto U(nbar) x character line.

        A normal-ordered monomial factors as (nbar part)(parabolic part); the
        parabolic part acts on the character line: root vectors give 0 and
        each Cartan factor H contributes s*dchi(H), so the result lies in Q[s].
        """
        alg = self.alg
        cut = alg.nbar_dim
        out: Elt = {}
        for m, c in raw.items():
            body: Mono = ()
            scalar = None
            dead = False
            for i, e in m:
                if i < cut:
                    body = body + ((i, e),)
                    continue
                if alg.root_of[i] is not None:
                    dead = True
                    break
                v = alg.dchi_index(i)
                factor = (S * v) ** e
                scalar = factor if scalar is None else scalar * factor
            if dead:
                continue
            coeff = spoly(c) if scalar is None else c * scalar
            if not coeff:
                continue
            prev = out.get(body)
            coeff = coeff if prev is None else prev + coeff
            if coeff:
                out[body] = coeff
            else:
                out.pop(body, None)
        return out

    def act_basis(self, i: int, v: Elt) -> Elt:
        """Action of the basis element X_i on a module element."""
        self._require_module(v)
        return self._reduce(self.env.gen_lmul(i, v))

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
