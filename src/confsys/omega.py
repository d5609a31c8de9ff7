"""Candidate invariant systems attached to the Heisenberg parabolic.

For Z in the Levi factor l, the quadratic map produces a degree-2 element of
U(nbar) built from the Heisenberg pairing on V+ (the bracket into the grade-2
line, LieAlgebra.partner) and the half-twisted action of Z on V-.  The cubic
map attaches to each Y in V- the degree-3 element sum_w w* omega2([w, Y]),
contracted over a basis w of V+ and its dual basis w* of V- under the
invariant form.  Both maps are linear and exact over Q, and their elements
hold no zero coefficient.

Arithmetic: every factor lies in U(nbar), so the maps multiply by its
closed-form product pbw.heisenberg_times.  omega2_ints memoizes each Levi
basis vector's quadratic element as int numerators over OMEGA2_DEN = 4 (the
1/2 on the pairing times the 1/2 twist of dchi); omega2 and
omega3_from_basis sum int numerators over one lcm denominator and build one
Fraction per coefficient they return.

Normalization: the quadratic map is fixed only up to a global nonzero scalar
by the identities it must satisfy (all of them are homogeneous in it); the
scale chosen here is -1/2 times the double sum over root pairs, matching the
classical normalization.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm

from .liealg import LieAlgebra
from .memo import memo
from .pbw import Elt, Mono, heisenberg_times

OMEGA2_DEN = 4


class OmegaSystem:
    """The quadratic and cubic maps for one algebra, Verma-module side."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        # For each X_b of V+ with partner X_c, [X_b, X_c] = N X_gamma:
        # (index of X_-c, index of X_-b, N).
        opposite = self.alg.opposite
        self._legs: list[tuple[int, int, int]] = []
        for b in self.alg.v_plus:
            c, n = self.alg.partner[b]
            self._legs.append((opposite[c], opposite[b], n))

    # -- degree 2 -------------------------------------------------------------

    @memo
    def omega2_ints(self, i: int) -> dict[Mono, int]:
        """Numerators over OMEGA2_DEN of the quadratic element of the i-th Lie
        algebra basis vector; raises unless it is in l."""
        alg = self.alg
        if alg.grade[i] != 0:
            raise ValueError(f"basis index {i} is not in the Levi factor")
        dchi = alg.dchi_on_basis[i]
        out: dict[Mono, int] = {}
        for mcomp_idx, mb_idx, pair_n in self._legs:
            # twisted action of X_i on the complementary V- vector, doubled
            t = {j: 2 * c for j, c in alg.table[i][mcomp_idx]}
            if dchi:
                t[mcomp_idx] = t.get(mcomp_idx, 0) + dchi
            for j, cj in t.items():
                _add_into(out, heisenberg_times(alg, j, ((mb_idx, 1),)),
                          -pair_n * cj)
        return out

    def omega2_basis(self, i: int) -> Elt:
        """Quadratic element of basis vector i; raises unless it is in l."""
        return {m: Q(n, OMEGA2_DEN) for m, n in self.omega2_ints(i).items()}

    def _omega2_over(self, z: dict[int, Q]) -> tuple[dict[Mono, int], int]:
        """omega2(z) as int numerators over one denominator."""
        d = lcm(*(c.denominator for c in z.values()))
        out: dict[Mono, int] = {}
        for i, c in z.items():
            w2 = self.omega2_ints(i)
            if c:
                _add_into(out, w2, c.numerator * (d // c.denominator))
        return out, OMEGA2_DEN * d

    def omega2(self, z: dict[int, Q]) -> Elt:
        """Quadratic element for Z in l; linear in Z; rejects Z outside l."""
        nums, den = self._omega2_over(z)
        return {m: Q(n, den) for m, n in nums.items()}

    # -- degree 3 -------------------------------------------------------------

    def omega3(self, y: dict[int, Q]) -> Elt:
        """Cubic element for Y in V-, contracted over the root vectors X_b of
        V+ and their duals X_-b; linear in Y; rejects Y outside V-."""
        alg = self.alg
        for i in y:
            if i not in alg.v_minus:
                raise ValueError(f"basis index {i} is not in V-")
        if not y:
            return {}
        return self.omega3_from_basis([{b: 1} for b in alg.v_plus],
                                      [{alg.opposite[b]: 1} for b in alg.v_plus],
                                      y)

    def omega3_system(self) -> list[Elt]:
        """The full cubic system, one element per basis vector of V-."""
        return [self.omega3({i: 1}) for i in self.alg.v_minus]

    def omega3_from_basis(self, w_basis: list[dict[int, Q]],
                          w_dual: list[dict[int, Q]], y: dict[int, Q]) -> Elt:
        """The cubic element of Y contracted over any basis of V+ and its dual.

        w_basis spans V+; w_dual must be the dual basis of V- under the
        invariant form: the root vectors X_b and X_-b for omega3, the dense
        int pairs of the basis_independence check.  With w*_i = sum_c B_ic X_c the
        dual is contracted first, sum_c X_c (sum_i B_ic omega2([w_i, Y])), so
        each basis vector X_c of V- multiplies once.
        """
        quads = [(self._omega2_over(self.alg.bracket_elem(w, y)), wstar)
                 for w, wstar in zip(w_basis, w_dual)]
        den = (lcm(*(d for (_, d), _ in quads))
               * lcm(*(b.denominator for _, ws in quads for b in ws.values())))
        inner: dict[int, dict[Mono, int]] = {}
        for (w2, d), wstar in quads:
            if w2:
                for c, b in wstar.items():
                    _add_into(inner.setdefault(c, {}), w2,
                              b.numerator * (den // (d * b.denominator)))
        out: dict[Mono, int] = {}
        for c, acc in inner.items():
            for m, n in acc.items():
                _add_into(out, heisenberg_times(self.alg, c, m), n)
        return {m: Q(n, den) for m, n in out.items()}


def _add_into(out: dict[Mono, int], terms: dict[Mono, int], k: int) -> None:
    """out += k * terms, dropping the coefficients that cancel."""
    for m, n in terms.items():
        v = out.get(m, 0) + k * n
        if v:
            out[m] = v
        else:
            out.pop(m, None)
