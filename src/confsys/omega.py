"""Candidate invariant systems attached to the Heisenberg parabolic.

For Z in the Levi factor l, the quadratic map produces a degree-2 element of
U(nbar) built from the Heisenberg pairing on V+ (the bracket into the grade-2
line, LieAlgebra.partner) and the half-twisted action of Z on V-.  The cubic
map attaches to each Y in V- the degree-3 element sum_w w* omega2([w, Y]),
contracted over a basis w of V+ and its dual basis w* of V- under the
invariant form.  Both maps are linear and exact over Q, and their elements
hold no zero coefficient.

Normalization: the quadratic map is fixed only up to a global nonzero scalar
by the identities it must satisfy (all of them are homogeneous in it); the
scale chosen here is -1/2 times the double sum over root pairs, matching the
classical normalization.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .liealg import LieAlgebra
from .memo import memo
from .pbw import Elt, Enveloping, elt_add, elt_scale


class OmegaSystem:
    """The quadratic and cubic maps for one algebra, Verma-module side."""

    def __init__(self, env: Enveloping):
        self.env = env
        self.alg: LieAlgebra = env.alg
        # For each X_b of V+ with partner X_c, [X_b, X_c] = N X_gamma:
        # (index of X_-c, index of X_-b, N).
        opposite = self.alg.opposite
        self._legs: list[tuple[int, int, int]] = []
        for b in self.alg.v_plus:
            c, n = self.alg.partner[b]
            self._legs.append((opposite[c], opposite[b], n))

    # -- degree 2 -------------------------------------------------------------

    @memo
    def omega2_basis(self, i: int) -> Elt:
        """Quadratic element for the i-th Lie algebra basis vector; raises
        unless it is in l."""
        env, alg = self.env, self.alg
        if alg.grade[i] != 0:
            raise ValueError(f"basis index {i} is not in the Levi factor")
        half_dchi = Q(alg.dchi_on_basis[i], 2)
        out: Elt = {}
        for mcomp_idx, mb_idx, pair_n in self._legs:
            # twisted action of X_i on the complementary V- vector
            t = dict(alg.table[i][mcomp_idx])
            if half_dchi:
                t[mcomp_idx] = t.get(mcomp_idx, 0) + half_dchi
            for j, cj in t.items():
                if not cj:
                    continue
                term = env.mono_mul(((j, 1),), ((mb_idx, 1),))
                out = elt_add(out, elt_scale(term, Q(-1, 2) * pair_n * cj))
        return out

    def omega2(self, z: dict[int, Q]) -> Elt:
        """Quadratic element for Z in l; linear in Z; rejects Z outside l."""
        out: Elt = {}
        for i, c in z.items():
            w2 = self.omega2_basis(i)
            if c:
                out = elt_add(out, elt_scale(w2, c))
        return out

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
        invariant form: the root vectors X_b and X_-b for omega3, random
        bases to confirm basis independence.  With w*_i = sum_c B_ic X_c the
        dual is contracted first, sum_c X_c (sum_i B_ic omega2([w_i, Y])), so
        each basis vector X_c of V- multiplies once; on the root basis every
        inner sum is one quadratic element, taken as it is.
        """
        env = self.env
        inner: dict[int, Elt] = {}
        for w, wstar in zip(w_basis, w_dual):
            w2 = self.omega2(self.alg.bracket_elem(w, y))
            if not w2:
                continue
            for c, b in wstar.items():
                acc = inner.get(c)
                if acc is None:
                    inner[c] = w2 if b == 1 else elt_scale(w2, b)
                else:
                    inner[c] = elt_add(acc, elt_scale(w2, b))
        out: Elt = {}
        for c, acc in inner.items():
            if acc:
                out = elt_add(out, env.mul(env.gen(c), acc))
        return out
