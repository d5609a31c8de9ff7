"""Chevalley-basis construction of a simply-laced simple Lie algebra.

Basis: one root vector X_a per root a, plus the simple coroots H_1..H_r.
Normalizations enforced (exactly, over Q):

  * [X_a, X_{-a}] = H_a, where H_a is the coordinate combination of the H_i;
  * [H, X_b] = (b, a) X_b for H = H_a;
  * the invariant form B with B(X_a, X_{-a}) = 1, B(H_a, H_b) = (a, b);
  * all root-root structure constants are +-1.

Every structure constant is therefore a Python int, and the bracket table
holds ints: products built from it divide nowhere, so they need no Fraction.

Signs come from a bimultiplicative +-1 two-cocycle on the root lattice
("asymmetry function"), gauged so that [X_a, X_{-a}] = +H_a; the build then
re-verifies the normalizations and the Jacobi identity (on the Chevalley
generators, which suffices; see LieAlgebra.verify_jacobi) rather than
trusting the construction.

The basis is ordered so that the centrally-extended abelian radical opposite
to the Heisenberg parabolic (X_{-gamma} and the grade -1 root vectors) forms
a prefix; Poincare-Birkhoff-Witt monomials over that prefix then model the
generalized Verma module directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property

from .roots import Root, RootSystem, root_str

BracketRow = tuple[tuple[int, int], ...]   # (basis index, int constant)


def _eps_exponent(gram: tuple[tuple[int, ...], ...], x: Root, y: Root) -> int:
    """Exponent of -1 in the asymmetry cocycle eps(x, y).

    eps is bimultiplicative with eps(a_i, a_i) = -1, eps(a_i, a_j) = (-1)^(a_i, a_j)
    for i < j and +1 for i > j; then eps(x, y) eps(y, x) = (-1)^(x, y) and
    eps(x, x) = (-1)^((x, x)/2).
    """
    total = 0
    r = len(x)
    for i in range(r):
        if not x[i]:
            continue
        total += x[i] * y[i]  # diagonal: eps(a_i, a_i) = -1
        for j in range(i + 1, r):
            if y[j] and gram[i][j] % 2:
                total += x[i] * y[j]
    return total


@dataclass(frozen=True)
class LieAlgebra:
    rs: RootSystem
    names: tuple[str, ...]
    root_of: tuple[Root | None, ...]       # None for Cartan generators
    index_of_root: dict[Root, int]
    cartan_index: tuple[int, ...]           # index of H_i for each simple i
    table: tuple[tuple[BracketRow, ...], ...]
    grade: tuple[int, ...]                  # ad(H_gamma) eigenvalue per index

    # ------------------------------------------------------------------ core

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def rank(self) -> int:
        return self.rs.rank

    @property
    def gamma(self) -> Root:
        return self.rs.highest

    def bracket(self, i: int, j: int) -> BracketRow:
        return self.table[i][j]

    def bracket_elem(self, a: dict[int, object], b: dict[int, object]) -> dict[int, object]:
        """Bracket of two elements; coefficients may be rationals or
        functions (zeroth-order PolyDiffOps)."""
        out: dict[int, object] = {}
        for i, ci in a.items():
            for j, cj in b.items():
                for k, n in self.table[i][j]:
                    c = ci * cj * n
                    if k in out:
                        out[k] = out[k] + c
                    else:
                        out[k] = c
        return {k: v for k, v in out.items() if v}

    def h_of(self, a: Root) -> dict[int, Q]:
        """H_a as a combination of the simple coroots."""
        return {self.cartan_index[i]: Q(c) for i, c in enumerate(a) if c}

    def killing(self, i: int, j: int) -> Q:
        """The invariant form normalized by B(X_a, X_{-a}) = 1."""
        ri, rj = self.root_of[i], self.root_of[j]
        if ri is None and rj is None:
            return Q(self.rs.gram[self.simple_of[i]][self.simple_of[j]])
        if ri is None or rj is None:
            return Q(0)
        return Q(1) if tuple(x + y for x, y in zip(ri, rj)) == (0,) * self.rank else Q(0)

    def killing_elem(self, a: dict[int, Q], b: dict[int, Q]) -> Q:
        """B(a, b): X_a pairs only with X_-a, H_i with H_j by the Gram entry."""
        opposite, simple, gram = self.opposite, self.simple_of, self.rs.gram
        total = sum((ca * b[j] for i, ca in a.items()
                     if (j := opposite[i]) is not None and j in b), Q(0))
        ha = [(simple[i], c) for i, c in a.items() if simple[i] is not None]
        if ha:
            hb = [(simple[j], c) for j, c in b.items() if simple[j] is not None]
            total += sum(ca * cb * gram[si][sj] for si, ca in ha for sj, cb in hb)
        return total

    @cached_property
    def opposite(self) -> tuple[int | None, ...]:
        """Per basis index, the index of X_-a for a root vector X_a; None for H_i."""
        return tuple(None if r is None else self.index_of_root[tuple(-x for x in r)]
                     for r in self.root_of)

    @cached_property
    def simple_of(self) -> tuple[int | None, ...]:
        """Per basis index, i for the coroot H_i; None for a root vector."""
        return tuple(None if r is not None else self.cartan_index.index(i)
                     for i, r in enumerate(self.root_of))

    # ------------------------------------------------- Heisenberg structure

    @cached_property
    def nbar_dim(self) -> int:
        """Size of the prefix spanning X_{-gamma} and the grade -1 vectors."""
        return 1 + len(self.v_minus)

    @cached_property
    def x_minus_gamma(self) -> int:
        return 0

    @cached_property
    def x_gamma(self) -> int:
        return self.dim - 1

    @cached_property
    def v_minus(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.grade) if g == -1)

    @cached_property
    def nbar_indices(self) -> tuple[int, ...]:
        """The basis of nbar: X_{-gamma}, then the grade -1 vectors."""
        return (self.x_minus_gamma,) + self.v_minus

    @cached_property
    def v_plus(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.grade) if g == 1)

    @cached_property
    def l_indices(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.grade) if g == 0)

    @cached_property
    def n_indices(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.grade) if g > 0)

    @cached_property
    def q_indices(self) -> tuple[int, ...]:
        return self.l_indices + self.n_indices

    @cached_property
    def q_generators(self) -> tuple[int, ...]:
        """Standard generators of the parabolic q, 2*rank basis indices.

        For each simple root a_i: X_{a_i}, then X_{-a_i} when a_i is a Levi
        root (grade 0), else the coroot H_i.  The Levi coroots are
        [X_{a_i}, X_{-a_i}], so these generate the Cartan; with the Levi
        simple root vectors they generate l, and the positive simple root
        vectors generate every positive root vector, so n as well.
        """
        out: list[int] = []
        for i in range(self.rank):
            a = self.rs.simple(i)
            x = self.index_of_root[a]
            if self.grade[x] == 0:
                out += [x, self.index_of_root[tuple(-c for c in a)]]
            else:
                out += [x, self.cartan_index[i]]
        return tuple(out)

    @cached_property
    def graded_dims(self) -> tuple[int, int, int, int, int]:
        dims = [0] * 5
        for g in self.grade:
            dims[g + 2] += 1
        return tuple(dims)

    @cached_property
    def deleted_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the simple roots orthogonal to gamma (0-based)."""
        nodes = [i for i in range(self.rank)
                 if self.rs.pairing(self.rs.simple(i), self.gamma) == 0]
        seen: set[int] = set()
        comps = []
        for start in nodes:
            if start in seen:
                continue
            comp, stack = [], [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in nodes:
                    if v not in seen and self.rs.gram[u][v] != 0:
                        seen.add(v)
                        stack.append(v)
            comps.append(tuple(sorted(comp)))
        return tuple(sorted(comps))

    # ------------------------------------------------------------- character

    def dchi_index(self, i: int) -> Q | None:
        """Value of the parabolic character on basis index i.

        The character is the unique one on the Levi factor that vanishes on
        its derived algebra and takes the value 2 on H_gamma: it restricts to
        the highest root on the Cartan and to 0 on every root vector, and is
        extended by 0 on the nilradical.  Returns None outside the parabolic.
        """
        return self._dchi_table[i]

    @cached_property
    def _dchi_table(self) -> tuple[Q | None, ...]:
        """dchi_index per basis index, computed once: (gamma, a_i) on H_i."""
        rs = self.rs
        return tuple(None if g < 0 else
                     Q(0) if self.root_of[i] is not None else
                     Q(rs.pairing(self.gamma, rs.simple(self.simple_of[i])))
                     for i, g in enumerate(self.grade))

    def dchi(self, elem: dict[int, Q], *, on_q: bool = False) -> Q:
        total = Q(0)
        for i, c in elem.items():
            v = self.dchi_index(i)
            if v is None:
                raise ValueError(f"element not in the parabolic: {self.names[i]}")
            if not on_q and self.grade[i] > 0:
                raise ValueError(f"element not in the Levi factor: {self.names[i]}")
            total += c * v
        return total

    @cached_property
    def h_gamma(self) -> dict[int, Q]:
        return self.h_of(self.gamma)

    # ---------------------------------------------------------- verification

    def verify_normalizations(self) -> None:
        """Check the four Chevalley normalizations and +-1 structure constants,
        that the Cartan is abelian, and that every constant in the table is a
        nonzero int (a zero bracket is an empty row, never a stored 0)."""
        for i, line in enumerate(self.table):
            for j, row in enumerate(line):
                if any(type(c) is not int for _, c in row):
                    raise AssertionError(f"structure constant not an int at {i},{j}: {row}")
                if not all(c for _, c in row):
                    raise AssertionError(f"zero structure constant stored at {i},{j}: {row}")
        for h in self.cartan_index:
            for h2 in self.cartan_index:
                if self.table[h][h2]:
                    raise AssertionError(f"[H, H] != 0 at {self.names[h]},{self.names[h2]}")
        zero = (0,) * self.rank
        for i, a in enumerate(self.root_of):
            if a is None:
                continue
            neg = tuple(-x for x in a)
            j = self.index_of_root[neg]
            got = dict(self.table[i][j])
            want = self.h_of(a)
            if got != want:
                raise AssertionError(f"[X_a, X_-a] != H_a at a={root_str(a)}: {got} vs {want}")
            if self.killing(i, j) != 1:
                raise AssertionError(f"B(X_a, X_-a) != 1 at a={root_str(a)}")
            for si in range(self.rank):
                h = self.cartan_index[si]
                got_h = dict(self.table[h][i])
                want_c = Q(self.rs.pairing(a, self.rs.simple(si)))
                want_h = {i: want_c} if want_c else {}
                if got_h != want_h:
                    raise AssertionError(f"[H, X_a] wrong at a={root_str(a)}, H_{si+1}")
            for j2, b in enumerate(self.root_of):
                if b is None or b == neg:
                    continue
                s = tuple(x + y for x, y in zip(a, b))
                row = self.table[i][j2]
                if s != zero and self.rs.is_root(s):
                    if len(row) != 1 or row[0][0] != self.index_of_root[s] or abs(row[0][1]) != 1:
                        raise AssertionError(f"structure constant not +-1 at {root_str(a)},{root_str(b)}")
                elif s != zero and row:
                    raise AssertionError(f"unexpected bracket at {root_str(a)},{root_str(b)}")

    @cached_property
    def chevalley_generators(self) -> tuple[int, ...]:
        """e_i = X_{a_i} and f_i = X_{-a_i} for each simple root a_i, 2*rank
        basis indices."""
        out: list[int] = []
        for i in range(self.rank):
            a = self.rs.simple(i)
            out += [self.index_of_root[a], self.index_of_root[tuple(-c for c in a)]]
        return tuple(out)

    def verify_jacobi(self) -> None:
        """The bracket table is a Lie algebra: the Jacobi identity holds on
        every basis triple.

        J(x, y, z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]] is checked only for x
        among the Chevalley generators e_i, f_i, which suffices:

          * given antisymmetry, J(x, y, z) = 0 for all y, z says that ad x is
            a derivation; the commutator of two derivations is a derivation,
            and ad [x, y] = [ad x, ad y] once ad x is one, so the x with
            J(x, ., .) = 0 form a Lie subalgebra;
          * the e_i, f_i generate g, so that subalgebra is g.

        The check therefore runs three passes: antisymmetry ([X_i, X_i] = 0
        and [X_j, X_i] = -[X_i, X_j]); generation, closing the generators
        under brackets with a generator, where a basis vector counts as
        reached only from a single nonzero entry (so it is a nonzero multiple
        of an iterated bracket of generators); and J(g, y, z) = 0 for every
        generator g and y < z (J(g, ., .) is alternating, by antisymmetry).
        """
        table = self.table
        n = self.dim
        for i in range(n):
            if _row_dict(table[i][i]):
                raise AssertionError(f"[X_i, X_i] != 0 at {i}")
            for j in range(i + 1, n):
                bij, bji = table[i][j], table[j][i]
                if (bij or bji) and _row_dict(bji) != _row_dict(bij, -1):
                    raise AssertionError(f"antisymmetry fails at {i},{j}")
        gens = self.chevalley_generators
        reached, frontier = set(gens), list(gens)
        while frontier:
            new = [row[0][0] for g in gens for r in frontier
                   if len(row := table[g][r]) == 1 and row[0][1]]
            frontier = [k for k in set(new) if k not in reached]
            reached.update(frontier)
        if len(reached) != n:
            missing = sorted(set(range(n)) - reached)
            raise AssertionError(f"generators do not generate g: {missing[:5]} not reached")
        for g in gens:
            row_g = table[g]
            col_g = [line[g] for line in table]
            for y in range(n):
                row_y, bgy = table[y], row_g[y]
                for z in range(y + 1, n):
                    byz, bzg = row_y[z], col_g[z]
                    if not (byz or bzg or bgy):
                        continue    # every term is a bracket with 0
                    # [g,[y,z]] + [y,[z,g]] + [z,[g,y]] = 0
                    acc: dict[int, int] = {}
                    for x, inner in ((g, byz), (y, bzg), (z, bgy)):
                        row_x = table[x]
                        for t, c in inner:
                            for u, d in row_x[t]:
                                acc[u] = acc.get(u, 0) + c * d
                    if any(acc.values()):
                        raise AssertionError(f"Jacobi fails at triple {g},{y},{z}")


def _row_dict(row: BracketRow, sign: int = 1) -> dict[int, int]:
    """sign times the element a bracket row stands for, without zero entries."""
    out: dict[int, int] = {}
    for k, c in row:
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def build_lie_algebra(rs: RootSystem, *, check: bool = True) -> LieAlgebra:
    """Construct the algebra with its bracket table from a root system."""
    r = rs.rank
    gamma = rs.highest
    zero = (0,) * r

    pos_sorted = sorted(rs.positive, key=lambda t: (sum(t), t))
    v_plus_roots = [a for a in pos_sorted if rs.pairing(a, gamma) == 1]
    l_pos_roots = [a for a in pos_sorted if rs.pairing(a, gamma) == 0]

    order: list[tuple[str, Root | None, int]] = []  # (name, root, simple-index)
    order.append((f"Y[{root_str(gamma)}]", tuple(-x for x in gamma), -1))
    for a in v_plus_roots:
        order.append((f"Y[{root_str(a)}]", tuple(-x for x in a), -1))
    for a in l_pos_roots:
        order.append((f"X[-{root_str(a)}]", tuple(-x for x in a), -1))
    for i in range(r):
        order.append((f"H{i + 1}", None, i))
    for a in l_pos_roots:
        order.append((f"X[{root_str(a)}]", a, -1))
    for a in v_plus_roots:
        order.append((f"X[{root_str(a)}]", a, -1))
    order.append((f"X[{root_str(gamma)}]", gamma, -1))

    names = tuple(t[0] for t in order)
    root_of = tuple(t[1] for t in order)
    cartan_index = tuple(i for i, t in enumerate(order) if t[1] is None)
    index_of_root = {t[1]: i for i, t in enumerate(order) if t[1] is not None}
    dim = len(order)
    grade = tuple(0 if a is None else rs.pairing(a, gamma) for a in root_of)

    def sigma(a: Root) -> int:
        return 1 if sum(a) > 0 else -1

    def pair_bracket(i: int, j: int) -> BracketRow:
        a, b = root_of[i], root_of[j]
        if a is None and b is None:
            return ()
        if a is None or b is None:
            h_simple = order[i][2] if a is None else order[j][2]
            vec = b if a is None else a
            sign = 1 if a is None else -1
            c = rs.pairing(vec, rs.simple(h_simple)) * sign
            target = j if a is None else i
            return ((target, c),) if c else ()
        s = tuple(x + y for x, y in zip(a, b))
        if s == zero:
            return tuple(sorted({cartan_index[k]: c for k, c in enumerate(a) if c}.items()))
        if rs.is_root(s):
            # the exponent can be negative, and (-1) ** -1 is the float -1.0
            n = sigma(a) * sigma(b) * sigma(s) * (-1) ** (_eps_exponent(rs.gram, a, b) % 2)
            # pre-gauge cocycle bracket [x_a, x_b] = eps(a,b) x_{a+b}
            return ((index_of_root[s], n),)
        return ()

    table = tuple(tuple(pair_bracket(i, j) for j in range(dim)) for i in range(dim))
    alg = LieAlgebra(rs, names, root_of, index_of_root, cartan_index, table, grade)
    if check:
        alg.verify_normalizations()
        alg.verify_jacobi()
    return alg
