"""Simply-laced root systems in simple-root coordinates.

Roots are integer tuples over the simple roots (Bourbaki numbering).  With
every root normalized to squared length 2, the Gram matrix of the simple
roots equals the Cartan matrix, so all pairings are exact integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Root = tuple[int, ...]

_FAMILIES = ("A", "D", "E")


@dataclass(frozen=True)
class RootSystemSpec:
    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.family == "A" and self.rank < 2:
            raise ValueError("type A needs rank >= 2: sl(2) has no grade +-1 "
                             "space, so no Heisenberg parabolic")
        if self.family == "D" and self.rank < 3:
            raise ValueError("type D needs rank >= 3")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ValueError("type E needs rank in {6, 7, 8}")

    @classmethod
    def parse(cls, label: str) -> "RootSystemSpec":
        label = label.strip()
        if not re.fullmatch(r".[1-9][0-9]*", label):
            raise ValueError(f"cannot parse algebra label {label!r}")
        return cls(label[0].upper(), int(label[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(spec: RootSystemSpec) -> list[list[int]]:
    """Cartan matrix in Bourbaki numbering (equal to the Gram matrix here)."""
    r = spec.rank
    edges: list[tuple[int, int]] = []
    if spec.family == "A":
        edges = [(i, i + 1) for i in range(1, r)]
    elif spec.family == "D":
        edges = [(i, i + 1) for i in range(1, r - 2)] + [(r - 2, r - 1), (r - 2, r)]
    elif spec.family == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: r - 1]
        edges = [(a, b) for a, b in zip(chain, chain[1:])] + [(2, 4)]
    m = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for a, b in edges:
        m[a - 1][b - 1] = m[b - 1][a - 1] = -1
    return m


@dataclass(frozen=True)
class RootSystem:
    spec: RootSystemSpec
    gram: tuple[tuple[int, ...], ...]
    roots: tuple[Root, ...]          # all roots, sorted by (height, coords)
    positive: tuple[Root, ...]
    highest: Root

    @property
    def rank(self) -> int:
        return self.spec.rank

    def pairing(self, a: Root, b: Root) -> int:
        """Inner product (a, b) with all roots of squared length 2."""
        if len(a) != self.rank or len(b) != self.rank:
            raise ValueError("coordinate length does not match rank")
        return sum(a[i] * self.gram[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank) if a[i] and b[j])

    def simple(self, i: int) -> Root:
        """The i-th simple root, 0-based."""
        return tuple(1 if j == i else 0 for j in range(self.rank))


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Enumerate all roots by closing the simple roots under simple reflections."""
    gram = cartan_matrix(spec)
    r = spec.rank
    simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    columns = [tuple(row[i] for row in gram) for i in range(r)]

    roots: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for b in frontier:
            for i, col in enumerate(columns):
                # s_i(b) = b - (b, a_i) a_i changes coordinate i only, and
                # (b, a_i) is the dot of b with column i of the Gram matrix
                n = sum(x * g for x, g in zip(b, col))
                if not n:
                    continue
                image = b[:i] + (b[i] - n,) + b[i + 1:]
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt

    ordered = tuple(sorted(roots, key=lambda t: (sum(t), t)))
    positive = tuple(x for x in ordered if sum(x) > 0)
    if 2 * len(positive) != len(ordered):
        raise AssertionError("root system does not split evenly into +/-")
    highest = ordered[-1]
    top = [x for x in ordered if sum(x) == sum(highest)]
    if len(top) != 1:
        raise AssertionError("highest root is not unique")
    # dominance maximality: highest - beta must be a nonnegative combination
    for b in positive:
        if any(h - x < 0 for h, x in zip(highest, b)):
            raise AssertionError("maximal-height root is not dominance-maximal")
    return RootSystem(spec, tuple(tuple(row) for row in gram), ordered, positive, highest)


def root_str(a: Root) -> str:
    """Compact coordinate string, e.g. (1,2,1,1) -> '1211'."""
    if all(0 <= x <= 9 for x in a):
        return "".join(str(x) for x in a)
    if all(-9 <= x <= 0 for x in a):
        return "-" + "".join(str(-x) for x in a)
    return "(" + ",".join(str(x) for x in a) + ")"
