"""Dense exact linear algebra over Q (small matrices only)."""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable

Matrix = list[list[Q]]
Vector = list[Q]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Q(1) / a[r][c]
        row = a[r]
        nonzero = [(k, x * inv) for k, x in enumerate(row) if x]
        for k, x in nonzero:
            row[k] = x
        # eliminate with the nonzero entries of the pivot row only
        for i in range(rows):
            if i != r and a[i][c]:
                f, other = a[i][c], a[i]
                for k, y in nonzero:
                    other[k] -= f * y
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution x of a @ x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Q(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def inverse(m: Matrix) -> Matrix | None:
    n = len(m)
    aug = [list(m[i]) + [Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def common_root(pairs: Iterable[tuple[Q, Q]]) -> tuple[int, Q | None]:
    """The gcd of the affine polynomials a0 + a1*s over the pairs (a0, a1),
    as (degree, root).

    With no nonzero pair the gcd is zero: (-1, None), every s is a root.
    Otherwise the only candidate root is -a0/a1 of the first pair with
    a1 != 0; if every pair vanishes there the gcd is s - s0: (1, s0), and
    else (also when every pair is a nonzero constant) it is 1: (0, None).
    """
    pairs = [(a0, a1) for a0, a1 in pairs if a0 or a1]
    if not pairs:
        return -1, None
    s0 = next((-Q(a0) / a1 for a0, a1 in pairs if a1), None)
    if s0 is not None and all(a0 + a1 * s0 == 0 for a0, a1 in pairs):
        return 1, s0
    return 0, None
