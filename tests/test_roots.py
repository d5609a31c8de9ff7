"""Root systems, cross-checked against independent Euclidean models.

The oracle builds each root system in orthonormal coordinates (type A inside
the sum-zero hyperplane of R^{r+1}, type D as +-e_i +- e_j in R^r), converts
simple-root coordinates to Euclidean ones, and compares the full root sets.
"""

from itertools import combinations

import pytest

from confsys.roots import RootSystemSpec, build_root_system, cartan_matrix


def euclid_simple_roots(family: str, rank: int) -> list[tuple]:
    if family == "A":
        dim = rank + 1
        return [tuple(1 if k == i else -1 if k == i + 1 else 0
                      for k in range(dim)) for i in range(rank)]
    if family == "D":
        dim = rank
        simple = [tuple(1 if k == i else -1 if k == i + 1 else 0
                        for k in range(dim)) for i in range(rank - 1)]
        simple.append(tuple(1 if k in (rank - 2, rank - 1) else 0
                            for k in range(dim)))
        return simple
    raise ValueError(family)


def euclid_all_roots(family: str, rank: int) -> set[tuple]:
    if family == "A":
        dim = rank + 1
        out = set()
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    out.add(tuple(1 if k == i else -1 if k == j else 0
                                  for k in range(dim)))
        return out
    if family == "D":
        out = set()
        for i, j in combinations(range(rank), 2):
            for si in (1, -1):
                for sj in (1, -1):
                    out.add(tuple(si if k == i else sj if k == j else 0
                                  for k in range(rank)))
        return out
    raise ValueError(family)


def to_euclid(root, simple):
    dim = len(simple[0])
    acc = [0] * dim
    for c, s in zip(root, simple):
        for k in range(dim):
            acc[k] += c * s[k]
    return tuple(acc)


@pytest.mark.parametrize("label,count", [("A3", 12), ("D4", 24), ("D5", 40)])
def test_root_sets_match_euclidean_model(label, count):
    spec = RootSystemSpec.parse(label)
    rs = build_root_system(spec)
    simple = euclid_simple_roots(spec.family, spec.rank)
    got = {to_euclid(a, simple) for a in rs.positive}
    got |= {to_euclid(tuple(-x for x in a), simple) for a in rs.positive}
    assert len(got) == 2 * len(rs.positive) == count
    assert got == euclid_all_roots(spec.family, spec.rank)


@pytest.mark.parametrize("label,highest", [
    ("A3", (1, 1, 1)),
    ("D4", (1, 2, 1, 1)),
    ("D5", (1, 2, 2, 1, 1)),
    ("E6", (1, 2, 2, 3, 2, 1)),
    ("E7", (2, 2, 3, 4, 3, 2, 1)),
    ("E8", (2, 3, 4, 6, 5, 4, 3, 2)),
])
def test_highest_roots_frozen(label, highest):
    rs = build_root_system(RootSystemSpec.parse(label))
    assert rs.highest == highest
    # the highest root pairs to 2 with itself and >= 0 with all positives
    assert rs.pairing(rs.highest, rs.highest) == 2
    assert all(rs.pairing(a, rs.highest) >= 0 for a in rs.positive)


@pytest.mark.parametrize("label,count", [("E6", 72), ("E7", 126), ("E8", 240)])
def test_exceptional_root_counts_frozen(label, count):
    rs = build_root_system(RootSystemSpec.parse(label))
    assert len(rs.roots) == 2 * len(rs.positive) == count


def _closure_by_full_pairing(spec: RootSystemSpec) -> set[tuple]:
    """All roots, closing the simple roots under s_a(b) = b - (b, a) a with
    the full bilinear pairing (b, a) = sum_ij b_i G_ij a_j."""
    gram = cartan_matrix(spec)
    r = spec.rank
    simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]

    def pair(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(r) for j in range(r))

    roots, frontier = set(simples), list(simples)
    while frontier:
        nxt = []
        for b in frontier:
            for a in simples:
                image = tuple(x - pair(b, a) * y for x, y in zip(b, a))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return roots


@pytest.mark.parametrize("label", [f"A{r}" for r in range(2, 8)]
                         + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8"])
def test_root_closure_matches_full_pairing_reference(label):
    spec = RootSystemSpec.parse(label)
    assert set(build_root_system(spec).roots) == _closure_by_full_pairing(spec)


def test_pairing_matches_euclidean_inner_product():
    spec = RootSystemSpec.parse("D4")
    rs = build_root_system(spec)
    simple = euclid_simple_roots("D", 4)
    roots = list(rs.positive)
    for a in roots[:10]:
        for b in roots:
            ea, eb = to_euclid(a, simple), to_euclid(b, simple)
            assert rs.pairing(a, b) == sum(x * y for x, y in zip(ea, eb))


def test_reflections_permute_roots(alg_d4):
    rs = alg_d4.rs
    all_roots = set(rs.positive) | {tuple(-x for x in a) for a in rs.positive}
    for i in range(rs.rank):
        s = rs.simple(i)
        # s_a(b) = b - (b, a) a
        image = {tuple(x - rs.pairing(a, s) * y for x, y in zip(a, s))
                 for a in all_roots}
        assert image == all_roots


def test_is_root_and_height():
    rs = build_root_system(RootSystemSpec.parse("D4"))
    roots = set(rs.roots)
    assert (1, 2, 1, 1) in roots
    assert (2, 2, 1, 1) not in roots
    assert (0, 0, 0, 0) not in roots
    # the highest root (1, 2, 1, 1) has height 5
    assert (1, 2, 1, 1) in rs.positive
    assert max(sum(a) for a in rs.positive) == 5


def test_spec_parse_and_validation():
    assert str(RootSystemSpec.parse("d4")) == "D4"
    assert RootSystemSpec.parse("E6").rank == 6
    with pytest.raises(ValueError):
        RootSystemSpec.parse("B3")
    with pytest.raises(ValueError):
        RootSystemSpec.parse("D2")
    # sl(2) has no grade +-1 space, so no Heisenberg parabolic
    with pytest.raises(ValueError, match=r"type A needs rank >= 2: sl\(2\)"):
        RootSystemSpec.parse("A1")
    with pytest.raises(ValueError):
        RootSystemSpec.parse("E9")
    # the rank is plain ASCII digits: no sign, inner space or other numerals
    for label in ("D+4", "A 3", "D\u0664"):
        with pytest.raises(ValueError):
            RootSystemSpec.parse(label)

