"""Chevalley-basis construction of a simply-laced simple Lie algebra.

Basis: one root vector X_a per root a, plus the simple coroots H_1..H_r.
Normalizations enforced (exactly, over Q):

  * [X_a, X_{-a}] = H_a, where H_a is the coordinate combination of the H_i;
  * [H, X_b] = (b, a) X_b for H = H_a;
  * all root-root structure constants are +-1.

The invariant form B (killing_elem) is defined by B(X_a, X_{-a}) = 1 and
B(H_a, H_b) = (a, b); the invariant_form check proves it ad-invariant.

Every structure constant is therefore a Python int, and the bracket table
holds ints: products built from it divide nowhere, so they need no Fraction.
The coroots H_a = [X_a, X_-a] (h_gamma among them), the Heisenberg pairing
(partner) and the parabolic character (dchi_on_basis) are ints read off the
table too, so the operator, module and enveloping-algebra code reads no
root coordinates: roots stay in the construction and the checks.

The construction and verify_normalizations read each root a as one packed
int key, sum_i a_i * base**i with base = 4 * (largest root coefficient) + 1.
The key is additive, key(a + b) = key(a) + key(b), and injective on every
vector whose coefficients are below base/2 in absolute value, which covers
all roots and all sums of two roots; the zero vector alone has key 0.  So
"is a + b a root, and which" is one int addition and one dict lookup.

Signs come from a bimultiplicative +-1 two-cocycle on the root lattice
("asymmetry function", Kac, Infinite-Dimensional Lie Algebras, 7.8),
eps(a_i, a_i) = -1, eps(a_i, a_j) = (-1)^(a_i, a_j) for i < j and +1 for
i > j, gauged so that [X_a, X_{-a}] = +H_a.  Its exponent is a bilinear
form over F_2, so eps(a, b) is the parity of a popcount of two bit masks.
The build then re-verifies the normalizations, from root arithmetic alone,
and the Jacobi identity (on the Chevalley generators, which suffices; see
LieAlgebra.verify_jacobi) rather than trusting the construction.

The basis is ordered so that the centrally-extended abelian radical opposite
to the Heisenberg parabolic (X_{-gamma} and the grade -1 root vectors) forms
a prefix; Poincare-Birkhoff-Witt monomials over that prefix then model the
generalized Verma module directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, reduce
from operator import xor

from .roots import Root, RootSystem, root_str

BracketRow = tuple[tuple[int, int], ...]   # (basis index, int constant)


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

    def bracket_elem(self, a: dict[int, object], b: dict[int, object]) -> dict[int, object]:
        """Bracket of two elements; coefficients may be rationals or
        functions (zeroth-order PolyDiffOps)."""
        out: dict[int, object] = {}
        for i, ci in a.items():
            for j, cj in b.items():
                for k, n in self.table[i][j]:
                    c = ci * (cj * n)     # an operator ci is scaled once
                    if k in out:
                        out[k] = out[k] + c
                    else:
                        out[k] = c
        return {k: v for k, v in out.items() if v}

    def killing_elem(self, a: dict[int, Q], b: dict[int, Q]) -> Q:
        """The invariant form B(a, b): X_a pairs only with X_-a, by 1, and H_i
        with H_j by the Gram entry (a_i, a_j)."""
        opposite, simple, gram = self.opposite, self.simple_of, self.rs.gram
        total = sum((ca * b[j] for i, ca in a.items()
                     if (j := opposite[i]) is not None and j in b), 0)
        ha = [(simple[i], c) for i, c in a.items() if simple[i] is not None]
        if ha:
            hb = [(simple[j], c) for j, c in b.items() if simple[j] is not None]
            total += sum(ca * cb * gram[si][sj] for si, ca in ha for sj, cb in hb)
        return Q(total)

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
            x = self.index_of_root[self.rs.simple(i)]
            out += [x, self.opposite[x] if self.grade[x] == 0
                    else self.cartan_index[i]]
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

    @cached_property
    def dchi_on_basis(self) -> tuple[int | None, ...]:
        """The parabolic character per basis index, as ints.

        The character is the unique one on the Levi factor that vanishes on
        its derived algebra and takes the value 2 on H_gamma: it restricts to
        the highest root on the Cartan, so (gamma, a_i) on H_i, and to 0 on
        every root vector, and is extended by 0 on the nilradical.  None
        outside the parabolic.
        """
        rs = self.rs
        return tuple(None if g < 0 else
                     0 if self.root_of[i] is not None else
                     rs.pairing(self.gamma, rs.simple(self.simple_of[i]))
                     for i, g in enumerate(self.grade))

    @cached_property
    def h_gamma(self) -> dict[int, int]:
        """The grading coroot, the int row [X_gamma, X_-gamma]."""
        return dict(self.table[self.x_gamma][self.x_minus_gamma])

    @cached_property
    def partner(self) -> tuple[tuple[int, int] | None, ...]:
        """The Heisenberg pairing, read from the bracket table: per index i
        of grade +1 or -1, (j, n) with [X_i, X_j] = n X_{+-gamma}, j the one
        index of that grade pairing with i (X_{+-gamma - b} for X_i = X_b);
        None elsewhere."""
        out: list[tuple[int, int] | None] = [None] * self.dim
        for space in (self.v_plus, self.v_minus):
            for i in space:
                (j,) = [j for j in space if self.table[i][j]]
                ((_, n),) = self.table[i][j]
                out[i] = (j, n)
        return tuple(out)

    # ---------------------------------------------------------- verification

    def verify_normalizations(self) -> None:
        """Check the Chevalley normalizations and +-1 structure constants,
        that the Cartan is abelian, and that every constant in the table is a
        nonzero int (a zero bracket is an empty row, never a stored 0).

        The roots are read as packed int keys (see the module docstring), so
        the sum of two roots is one int addition and one dict lookup."""
        table, cartan, gram = self.table, self.cartan_index, self.rs.gram
        for i, line in enumerate(table):
            for j, row in enumerate(line):
                if any(type(c) is not int for _, c in row):
                    raise AssertionError(f"structure constant not an int at {i},{j}: {row}")
                if not all(c for _, c in row):
                    raise AssertionError(f"zero structure constant stored at {i},{j}: {row}")
        for h in cartan:
            for h2 in cartan:
                if table[h][h2]:
                    raise AssertionError(f"[H, H] != 0 at {self.names[h]},{self.names[h2]}")
        key = _root_keys(self.root_of)
        index_of_key = {ka: i for i, ka in key.items()}
        for i, ka in key.items():
            a, line = self.root_of[i], table[i]
            got = dict(line[index_of_key[-ka]])
            want = {cartan[k]: c for k, c in enumerate(a) if c}
            if got != want:
                raise AssertionError(f"[X_a, X_-a] != H_a at a={root_str(a)}: {got} vs {want}")
            for si, h in enumerate(cartan):
                got_h = dict(table[h][i])
                want_c = sum(c * gram[k][si] for k, c in enumerate(a) if c)
                want_h = {i: want_c} if want_c else {}
                if got_h != want_h:
                    raise AssertionError(f"[H, X_a] wrong at a={root_str(a)}, H_{si+1}")
            for j, kb in key.items():
                s = ka + kb
                if not s:
                    continue
                row, k = line[j], index_of_key.get(s)
                if k is not None:
                    if len(row) != 1 or row[0][0] != k or abs(row[0][1]) != 1:
                        raise AssertionError(f"structure constant not +-1 at "
                                             f"{root_str(a)},{root_str(self.root_of[j])}")
                elif row:
                    raise AssertionError(f"unexpected bracket at "
                                         f"{root_str(a)},{root_str(self.root_of[j])}")

    @cached_property
    def chevalley_generators(self) -> tuple[int, ...]:
        """e_i = X_{a_i} and f_i = X_{-a_i} for each simple root a_i, 2*rank
        basis indices."""
        out: list[int] = []
        for i in range(self.rank):
            x = self.index_of_root[self.rs.simple(i)]
            out += [x, self.opposite[x]]
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
                    # [g,[y,z]] + [y,[z,g]] + [z,[g,y]] = 0, one term per
                    # nonzero inner bracket
                    acc: dict[int, int] = {}
                    for t, c in byz:
                        for u, d in row_g[t]:
                            acc[u] = acc.get(u, 0) + c * d
                    for t, c in bzg:
                        for u, d in row_y[t]:
                            acc[u] = acc.get(u, 0) + c * d
                    if bgy:
                        row_z = table[z]
                        for t, c in bgy:
                            for u, d in row_z[t]:
                                acc[u] = acc.get(u, 0) + c * d
                    if any(acc.values()):
                        raise AssertionError(f"Jacobi fails at triple {g},{y},{z}")


def _row_dict(row: BracketRow, sign: int = 1) -> dict[int, int]:
    """sign times the element a bracket row stands for, without zero entries."""
    out: dict[int, int] = {}
    for k, c in row:
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def basis_layout(rs: RootSystem) -> dict:
    """Every LieAlgebra field but the table, as keyword arguments: the basis
    order (see the module docstring), its names, the root or coroot at each
    index, and the grade.  The one place that writes the basis order; the
    construction and the cache both take it from here."""
    gamma = rs.highest
    to_gamma = [sum(g * c for g, c in zip(row, gamma)) for row in rs.gram]

    def grade(a: Root) -> int:
        """(a, gamma), one dot product with the row of (a_i, gamma)."""
        return sum(x * y for x, y in zip(a, to_gamma))

    v_plus = [a for a in rs.positive if grade(a) == 1]
    levi = [a for a in rs.positive if grade(a) == 0]
    order = [(f"Y[{root_str(a)}]", tuple(-x for x in a)) for a in [gamma] + v_plus]
    order += [(f"X[-{root_str(a)}]", tuple(-x for x in a)) for a in levi]
    order += [(f"H{i + 1}", None) for i in range(rs.rank)]
    order += [(f"X[{root_str(a)}]", a) for a in levi + v_plus + [gamma]]
    names, root_of = zip(*order)
    return dict(rs=rs, names=names, root_of=root_of,
                index_of_root={a: i for i, a in enumerate(root_of) if a is not None},
                cartan_index=tuple(i for i, a in enumerate(root_of) if a is None),
                grade=tuple(0 if a is None else grade(a) for a in root_of))


def _root_keys(root_of: tuple[Root | None, ...]) -> dict[int, int]:
    """The packed int key of each root, by the basis index of its root
    vector (see the module docstring)."""
    base = 4 * max(abs(c) for a in root_of if a is not None for c in a) + 1
    return {i: sum(c * base ** k for k, c in enumerate(a))
            for i, a in enumerate(root_of) if a is not None}


def _cocycle_rows(gram: tuple[tuple[int, ...], ...]) -> list[int]:
    """Row i of I + U as a bit mask, U the odd Gram entries above the diagonal."""
    return [sum(1 << j for j in range(i, len(gram)) if j == i or gram[i][j] % 2)
            for i in range(len(gram))]


def build_lie_algebra(rs: RootSystem, *, check: bool = True) -> LieAlgebra:
    """Construct the algebra with its bracket table from a root system:
    [H_k, X_a] = (a, a_k) X_a, [X_a, X_-a] = H_a, and
    [X_a, X_b] = sigma(a) sigma(b) sigma(a + b) eps(a, b) X_{a+b} when a + b
    is a root, sigma the sign of the height and eps the asymmetry cocycle."""
    layout = basis_layout(rs)
    root_of, cartan = layout["root_of"], layout["cartan_index"]
    dim = len(root_of)
    key = _root_keys(root_of)
    index_of_key = {k: i for i, k in key.items()}
    # eps(a, b) = (-1)^(a^T (I + U) b) over F_2: u_a is a^T (I + U) as a bit
    # mask, bits b mod 2
    upper = _cocycle_rows(rs.gram)
    lines = [[()] * dim for _ in range(dim)]
    roots, sign = [], {}
    for i, a in enumerate(root_of):
        if a is None:
            continue
        for k, h in enumerate(cartan):
            c = sum(x * row[k] for x, row in zip(a, rs.gram))    # (a, a_k)
            if c:
                lines[h][i], lines[i][h] = ((i, c),), ((i, -c),)
        lines[i][index_of_key[-key[i]]] = tuple(
            (cartan[k], c) for k, c in enumerate(a) if c)
        sign[i] = 1 if sum(a) > 0 else -1
        odd = [k for k, c in enumerate(a) if c % 2]
        roots.append((i, key[i], reduce(xor, (upper[k] for k in odd), 0),
                      sum(1 << k for k in odd)))
    for i, ka, u_a, _ in roots:
        line, sigma = lines[i], sign[i]
        for j, kb, _, bits in roots:
            t = index_of_key.get(ka + kb)
            if t is not None:
                n = sigma * sign[j] * sign[t]
                line[j] = ((t, -n if (u_a & bits).bit_count() & 1 else n),)
    alg = LieAlgebra(table=tuple(map(tuple, lines)), **layout)
    if check:
        alg.verify_normalizations()
        alg.verify_jacobi()
    return alg
