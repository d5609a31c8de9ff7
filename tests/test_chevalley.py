"""Chevalley-basis construction: normalizations, grading, character."""

import dataclasses
import random
import re
from fractions import Fraction as Q

import pytest

from confsys import cache, liealg
from confsys.liealg import basis_layout, build_lie_algebra
from confsys.pbw import Enveloping
from confsys.roots import RootSystemSpec, build_root_system, root_str


def test_build_self_checks_pass(alg_d4):
    alg_d4.verify_normalizations()
    alg_d4.verify_jacobi()


def test_dimensions(alg_a3, alg_d4, alg_d5):
    assert alg_a3.dim == 15
    assert alg_d4.dim == 28
    assert alg_d5.dim == 45


@pytest.mark.parametrize("fix,dims", [
    ("alg_a3", (1, 4, 5, 4, 1)),
    ("alg_d4", (1, 8, 10, 8, 1)),
    ("alg_d5", (1, 12, 19, 12, 1)),
])
def test_graded_dims_frozen(fix, dims, request):
    alg = request.getfixturevalue(fix)
    assert alg.graded_dims == dims
    assert len(alg.v_plus) == dims[3]
    assert len(alg.v_minus) == dims[1]
    assert len(alg.l_indices) == dims[2]


@pytest.mark.parametrize("fix,comps", [
    ("alg_a3", ((1,),)),
    ("alg_d4", ((0,), (2,), (3,))),
    ("alg_d5", ((0,), (2, 3, 4))),
])
def test_deleted_components_frozen(fix, comps, request):
    alg = request.getfixturevalue(fix)
    assert alg.deleted_components == comps


def test_basis_order_prefix_is_opposite_radical(alg_d4):
    # index 0 is the lowest root vector; the next block is the grade -1 space
    assert alg_d4.x_minus_gamma == 0
    assert alg_d4.grade[0] == -2
    assert alg_d4.v_minus == tuple(range(1, 9))
    assert alg_d4.nbar_dim == 9
    assert alg_d4.x_gamma == alg_d4.dim - 1
    assert alg_d4.grade[alg_d4.x_gamma] == 2


@pytest.mark.parametrize("fix", ["alg_a3", "alg_d4", "alg_d5"])
def test_nbar_indices_are_the_prefix(fix, request):
    alg = request.getfixturevalue(fix)
    assert alg.nbar_indices == (alg.x_minus_gamma,) + alg.v_minus
    assert alg.nbar_indices == tuple(range(alg.nbar_dim))


def _bracket_closure_dim(alg, gens) -> int:
    """Dimension of the subalgebra generated by the basis vectors gens.

    It is the span of the gens under repeated ad(g), g in gens; rows are kept
    in echelon form keyed by their lowest basis index.
    """
    rows: dict[int, dict[int, Q]] = {}

    def insert(v: dict[int, Q]) -> bool:
        v = dict(v)
        for p in sorted(rows):
            c = v.get(p)
            if c:
                for k, a in rows[p].items():
                    v[k] = v.get(k, Q(0)) - c * a
                v = {k: a for k, a in v.items() if a}
        if not v:
            return False
        p = min(v)
        rows[p] = {k: a / v[p] for k, a in v.items()}
        return True

    frontier = [{g: Q(1)} for g in gens if insert({g: Q(1)})]
    while frontier:
        frontier = [w for g in gens for v in frontier
                    if insert(w := alg.bracket_elem({g: 1}, v))]
    return len(rows)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "D5", "E6"])
def test_q_generators_generate_q(label):
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    gens = alg.q_generators
    assert len(gens) == len(set(gens)) == 2 * alg.rank
    assert all(alg.grade[g] >= 0 for g in gens)
    assert _bracket_closure_dim(alg, gens) == len(alg.q_indices)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "D5", "E6"])
def test_grade0_generators_generate_l(label):
    # the acting set of the Levi-equivariance checks
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    gens = [g for g in alg.q_generators if alg.grade[g] == 0]
    assert len(gens) == len(set(gens))
    assert _bracket_closure_dim(alg, gens) == len(alg.l_indices)


def test_bracket_antisymmetry(alg_d4):
    for i in range(alg_d4.dim):
        for j in range(alg_d4.dim):
            lhs = dict(alg_d4.table[i][j])
            rhs = {k: -c for k, c in alg_d4.table[j][i]}
            assert lhs == rhs


def test_killing_normalization_all_root_pairs(alg_d4):
    for i, a in enumerate(alg_d4.root_of):
        j = alg_d4.opposite[i]
        if a is None:
            assert j is None
            continue
        assert alg_d4.root_of[j] == tuple(-c for c in a)
        assert alg_d4.killing_elem({i: 1}, {j: 1}) == 1
        assert alg_d4.killing_elem({i: 1}, {i: 1}) == 0


def test_heisenberg_bracket_structure(alg_d4):
    alg = alg_d4
    # [V+, V+] spans the center line, [V-, V-] the opposite line
    for i in alg.v_plus:
        for j in alg.v_plus:
            row = dict(alg.table[i][j])
            assert set(row) <= {alg.x_gamma}
    for i in alg.v_minus:
        for j in alg.v_minus:
            row = dict(alg.table[i][j])
            assert set(row) <= {alg.x_minus_gamma}
    # each grade +1 root vector pairs with exactly one partner into the center
    for i in alg.v_plus:
        partners = [j for j in alg.v_plus if dict(alg.table[i][j])]
        assert len(partners) == 1


@pytest.mark.parametrize("label", [f"A{r}" for r in range(2, 8)]
                         + [f"D{r}" for r in range(4, 9)] + ["E6", "E7"])
def test_partner_matches_the_root_computation(label):
    """The pairing read from the table is X_{+-gamma - b} for X_b of grade
    +-1, with the constant of [X_b, X_{+-gamma - b}], and None elsewhere."""
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    for space, sign, centre in ((alg.v_plus, 1, alg.x_gamma),
                                (alg.v_minus, -1, alg.x_minus_gamma)):
        for i in space:
            j = alg.index_of_root[tuple(sign * g - b for g, b in
                                        zip(alg.gamma, alg.root_of[i]))]
            assert alg.partner[i] == (j, dict(alg.table[i][j])[centre])
    assert all(alg.partner[i] is None
               for i in range(alg.dim) if abs(alg.grade[i]) != 1)


def _dchi(alg, elem):
    return sum(c * alg.dchi_on_basis[k] for k, c in elem.items())


def test_character_values(alg_d4):
    alg = alg_d4
    # the grading coroot, read from the table, is H_gamma, where dchi is 2
    assert alg.h_gamma == {alg.cartan_index[k]: c
                           for k, c in enumerate(alg.gamma) if c}
    assert _dchi(alg, alg.h_gamma) == 2
    # value 1 on each coroot [X_b, X_-b] of a grade +1 root b
    for i in alg.v_plus:
        assert _dchi(alg, dict(alg.table[i][alg.opposite[i]])) == 1
    # 0 on the root vectors of q (the nilradical included), None off q
    for i in alg.q_indices:
        if alg.opposite[i] is not None:
            assert alg.dchi_on_basis[i] == 0
    assert alg.dchi_on_basis[alg.x_minus_gamma] is None
    assert alg.dchi_on_basis[alg.x_gamma] == 0


def test_structure_constants_pm_one(alg_d4):
    alg = alg_d4
    zero, roots = (0,) * alg.rank, set(alg.rs.roots)
    for i, a in enumerate(alg.root_of):
        if a is None:
            continue
        for j, b in enumerate(alg.root_of):
            if b is None:
                continue
            s = tuple(x + y for x, y in zip(a, b))
            if s != zero and s in roots:
                row = dict(alg.table[i][j])
                assert set(row) == {alg.index_of_root[s]}
                assert abs(next(iter(row.values()))) == 1


def _eps_exponent(gram, x, y):
    """Exponent of -1 in the asymmetry cocycle eps(x, y), from its values on
    the simple roots: eps(a_i, a_i) = -1, eps(a_i, a_j) = (-1)^(a_i, a_j) for
    i < j and +1 for i > j, extended bimultiplicatively."""
    total = 0
    r = len(x)
    for i in range(r):
        if not x[i]:
            continue
        total += x[i] * y[i]
        for j in range(i + 1, r):
            if y[j] and gram[i][j] % 2:
                total += x[i] * y[j]
    return total


def _tuple_arithmetic_table(rs):
    """The bracket table with tuple root sums, pairings and the cocycle
    exponent as an int: the reference for the packed-key construction."""
    layout = basis_layout(rs)
    root_of, index_of_root = layout["root_of"], layout["index_of_root"]
    cartan_index = layout["cartan_index"]
    simple_of = {h: k for k, h in enumerate(cartan_index)}
    zero, roots = (0,) * rs.rank, set(rs.roots)

    def sigma(a):
        return 1 if sum(a) > 0 else -1

    def pair_bracket(i, j):
        a, b = root_of[i], root_of[j]
        if a is None and b is None:
            return ()
        if a is None or b is None:
            h_simple = simple_of[i if a is None else j]
            vec = b if a is None else a
            sign = 1 if a is None else -1
            c = rs.pairing(vec, rs.simple(h_simple)) * sign
            target = j if a is None else i
            return ((target, c),) if c else ()
        s = tuple(x + y for x, y in zip(a, b))
        if s == zero:
            return tuple(sorted({cartan_index[k]: c
                                 for k, c in enumerate(a) if c}.items()))
        if s in roots:
            # the exponent can be negative, and (-1) ** -1 is the float -1.0
            n = (sigma(a) * sigma(b) * sigma(s)
                 * (-1) ** (_eps_exponent(rs.gram, a, b) % 2))
            return ((index_of_root[s], n),)
        return ()

    dim = len(root_of)
    return tuple(tuple(pair_bracket(i, j) for j in range(dim)) for i in range(dim))


@pytest.mark.parametrize("label", [f"A{r}" for r in range(2, 8)]
                         + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8"])
def test_table_matches_the_tuple_arithmetic_construction(label):
    rs = build_root_system(RootSystemSpec.parse(label))
    assert build_lie_algebra(rs, check=False).table == _tuple_arithmetic_table(rs)


@pytest.mark.parametrize("label,digest", [
    ("A3", "635e34aa955956d4f18dc7d314e5a89b9dbffc5cfd20cc177822f60c2387465c"),
    ("D4", "c1564c2ecf25b8dc6a88a436aea50f8b2e448d9f4e244dc15f491651cb4dc6d1"),
    ("D5", "a1adc3c2d1e0dba089674178c21dd94675a9bcdf2c0384f892a3d04245d529c7"),
    ("D6", "7ad3453fd6fc98e4d08d95dc2e074c76f4899359d0743d035c3ea16cab471e41"),
    ("E6", "08f4ffff72ee8120262f2453c3b7d2364d7132bfd878dab3a9d62b25649d7573"),
    ("E7", "5daf85a93dff7c8df7b38c947ed85c9b4f131543b94633d21d8bfc74476361d0"),
])
def test_table_digest_frozen(label, digest):
    # the digest a cache entry stores: a changed table invalidates every
    # entry already on disk, so it must come with a reviewed digest change
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    assert cache._digest(cache._payload_body(alg)) == digest


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_build_rejects_a_cocycle_without_its_diagonal(label, monkeypatch):
    # without eps(a_i, a_i) = -1 the cocycle is still bimultiplicative and
    # eps(a, b) eps(b, a) = (-1)^(a, b), so the table stays antisymmetric
    # with +-1 constants; the Jacobi check sees the wrong signs
    rs = build_root_system(RootSystemSpec.parse(label))
    rows = liealg._cocycle_rows
    monkeypatch.setattr(liealg, "_cocycle_rows", lambda gram: [
        row & ~(1 << i) for i, row in enumerate(rows(gram))])
    assert build_lie_algebra(rs, check=False).table != _tuple_arithmetic_table(rs)
    with pytest.raises(AssertionError, match="Jacobi fails"):
        build_lie_algebra(rs, check=True)


def test_jacobi_holds_for_controls(alg_a3):
    alg_a3.verify_jacobi()


def test_build_with_check_flag():
    rs = build_root_system(RootSystemSpec.parse("A3"))
    alg = build_lie_algebra(rs, check=True)
    assert alg.dim == 15


@pytest.mark.parametrize("label", ["A2", "A3", "D4", "D5", "E6"])
def test_structure_constants_are_ints(label):
    # exactly int: a negative cocycle exponent once made a sign the float
    # -1.0, which the +-1 normalization check accepts
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    types = {type(c) for line in alg.table for row in line for _, c in row}
    assert types == {int}


def test_normal_ordering_coefficients_are_ints(alg_d4):
    env = Enveloping(alg_d4)
    rng = random.Random("pbw-int")
    rewritten = 0
    for _ in range(300):
        word = sorted(rng.randrange(alg_d4.dim) for _ in range(3))
        mono = tuple((g, word.count(g)) for g in sorted(set(word)))
        prod = env.mono_times_gen(mono, rng.randrange(alg_d4.dim))
        assert all(type(c) is int for c in prod.values())
        rewritten += len(prod) > 1
    assert rewritten > 0


def _first_jacobi_failure(alg):
    """The exhaustive Jacobi check over basis triples i < j < k, in the cyclic
    form [k,[i,j]] + [i,[j,k]] + [j,[k,i]] = 0: a reference for
    LieAlgebra.verify_jacobi, complete for antisymmetric tables.  Returns the
    first failing triple, or None."""
    table = alg.table
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for x, inner in ((k, table[i][j]), (i, table[j][k]), (j, table[k][i])):
                    for t, c in inner:
                        for u, d in table[x][t]:
                            acc[u] = acc.get(u, 0) + c * d
                if any(acc.values()):
                    return i, j, k
    return None


def _with_rows(alg, rows):
    """A copy of alg whose table has rows[(i, j)] in place of [X_i, X_j]."""
    table = [list(line) for line in alg.table]
    for (i, j), row in rows.items():
        table[i][j] = row
    return dataclasses.replace(alg, table=tuple(map(tuple, table)))


def _negated(row):
    return tuple((k, -c) for k, c in row)


@pytest.mark.parametrize("fix,triple", [("alg_a3", "0,4,14"),
                                        ("alg_d4", "0,8,27")])
def test_jacobi_catches_one_flipped_sign(fix, triple, request):
    # flip the first root-root constant whose bracket is a root vector: the
    # table is no longer antisymmetric, which verify_jacobi reports at the
    # flipped pair; the all-triples reference fails at a fixed first triple
    alg = request.getfixturevalue(fix)
    i, j = next((i, j) for i in range(alg.dim) for j in range(alg.dim)
                if alg.root_of[i] is not None and alg.root_of[j] is not None
                and alg.table[i][j]
                and alg.root_of[alg.table[i][j][0][0]] is not None)
    bad = _with_rows(alg, {(i, j): _negated(alg.table[i][j])})
    with pytest.raises(AssertionError,
                       match=f"antisymmetry fails at {min(i, j)},{max(i, j)}$"):
        bad.verify_jacobi()
    assert ",".join(map(str, _first_jacobi_failure(bad))) == triple


@pytest.mark.parametrize("fix", ["alg_a3", "alg_d4", "alg_d5"])
def test_generator_jacobi_rejects_what_the_all_triples_reference_rejects(fix, request):
    # three kinds of tampering; whatever the reference rejects, the check on
    # the Chevalley generators must reject too
    alg = request.getfixturevalue(fix)
    n = alg.dim
    rng = random.Random(f"jacobi-{fix}")
    nonzero = [(i, j) for i in range(n) for j in range(i + 1, n) if alg.table[i][j]]
    tampered = []
    for i, j in rng.sample(nonzero, 20):
        flipped = {(i, j): _negated(alg.table[i][j])}
        tampered.append(("entry", flipped))
        tampered.append(("pair", flipped | {(j, i): _negated(alg.table[j][i])}))
    for g in alg.chevalley_generators:
        tampered.append(("row", {(g, k): () for k in range(n)}))
        tampered.append(("row and column", {(g, k): () for k in range(n)}
                         | {(k, g): () for k in range(n)}))
    rejected = {}
    for kind, rows in tampered:
        bad = _with_rows(alg, rows)
        if _first_jacobi_failure(bad) is not None:
            rejected[kind] = rejected.get(kind, 0) + 1
        with pytest.raises(AssertionError):
            bad.verify_jacobi()
    # the reference sees every antisymmetric flip and every emptied generator
    assert rejected["pair"] == 20
    assert rejected["row and column"] == len(alg.chevalley_generators)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "A6", "A7", "D4",
                                   "D5", "D6", "D7", "D8", "E6", "E7"])
def test_generator_jacobi_accepts_built_tables(label):
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)))
    alg.verify_jacobi()
    assert len(alg.chevalley_generators) == 2 * alg.rank


def test_jacobi_generation_ignores_stored_zero_constants(alg_a3):
    # e_1's brackets stored as zero multiples are the zero bracket, which is
    # antisymmetric; generation must not take them for brackets, and H_1 is
    # the bracket of e_1 and f_1 alone
    e1 = alg_a3.chevalley_generators[0]
    rows = {}
    for k in range(alg_a3.dim):
        if alg_a3.table[e1][k]:
            rows[(e1, k)] = tuple((t, 0) for t, _ in alg_a3.table[e1][k])
            rows[(k, e1)] = tuple((t, 0) for t, _ in alg_a3.table[k][e1])
    with pytest.raises(AssertionError, match="generators do not generate g"):
        _with_rows(alg_a3, rows).verify_jacobi()


def test_normalizations_reject_a_stored_zero_constant(alg_a3):
    # ((H1, 0),) is the zero bracket, so the table is still a Lie algebra;
    # only the normalization check sees the stored zero
    h1, h2 = alg_a3.cartan_index[:2]
    bad = _with_rows(alg_a3, {(h1, h2): ((h1, 0),)})
    bad.verify_jacobi()
    with pytest.raises(AssertionError, match=f"zero structure constant stored at {h1},{h2}"):
        bad.verify_normalizations()


def test_normalizations_reject_a_nonabelian_cartan(alg_a3):
    h1, h2 = alg_a3.cartan_index[:2]
    bad = _with_rows(alg_a3, {(h1, h2): ((h1, 1),), (h2, h1): ((h1, -1),)})
    with pytest.raises(AssertionError, match=r"\[H, H\] != 0 at H1,H2"):
        bad.verify_normalizations()


def test_normalizations_reject_a_float_constant(alg_a3):
    # 1.0 == 1, so the +-1 test and the Jacobi check cannot see the float
    table = [list(line) for line in alg_a3.table]
    ((k, n),) = table[0][10]
    assert n == 1
    table[0][10] = ((k, 1.0),)
    bad = dataclasses.replace(alg_a3, table=tuple(map(tuple, table)))
    bad.verify_jacobi()
    with pytest.raises(AssertionError, match="not an int at 0,10"):
        bad.verify_normalizations()


def _first_root_root_failure(alg):
    """The root-root part of LieAlgebra.verify_normalizations with tuple root
    sums and membership in the root set: a reference for its packed-key
    loop.  Returns the first pair (i, j) whose bracket is not +-X_{a+b} when
    a + b is a root, or not zero when a + b is neither a root nor 0; else
    None."""
    zero, roots = (0,) * alg.rank, set(alg.rs.roots)
    for i, a in enumerate(alg.root_of):
        for j, b in enumerate(alg.root_of):
            if a is None or b is None:
                continue
            s = tuple(x + y for x, y in zip(a, b))
            row = alg.table[i][j]
            if s == zero:
                continue
            if s in roots:
                if (len(row) != 1 or row[0][0] != alg.index_of_root[s]
                        or abs(row[0][1]) != 1):
                    return i, j
            elif row:
                return i, j
    return None


def _root_pair(alg, i, j):
    return re.escape(f"{root_str(alg.root_of[i])},{root_str(alg.root_of[j])}")


@pytest.mark.parametrize("fix", ["alg_a3", "alg_d4", "alg_d5"])
def test_normalizations_reject_a_root_root_constant_of_two(fix, request):
    # doubling [X_a, X_b] = +-X_{a+b} and its antisymmetric partner keeps the
    # table antisymmetric; the +-1 normalization sees the 2
    alg = request.getfixturevalue(fix)
    assert _first_root_root_failure(alg) is None
    i, j = next((i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)
                if alg.root_of[i] is not None and alg.root_of[j] is not None
                and alg.table[i][j])
    ((k, n),) = alg.table[i][j]
    bad = _with_rows(alg, {(i, j): ((k, 2 * n),), (j, i): ((k, -2 * n),)})
    assert _first_root_root_failure(bad) == (i, j)
    with pytest.raises(AssertionError,
                       match=rf"not \+-1 at {_root_pair(alg, i, j)}$"):
        bad.verify_normalizations()


@pytest.mark.parametrize("fix", ["alg_a3", "alg_d4", "alg_d5"])
def test_normalizations_reject_a_bracket_at_a_non_root_sum(fix, request):
    # a + b is neither a root nor 0, so the packed key of a + b is in no
    # dict entry and the stored bracket must be empty
    alg = request.getfixturevalue(fix)
    zero = (0,) * alg.rank
    i, j = next((i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)
                if alg.root_of[i] is not None and alg.root_of[j] is not None
                and (s := tuple(map(sum, zip(alg.root_of[i], alg.root_of[j]))))
                != zero and s not in alg.rs.roots)
    assert not alg.table[i][j]
    bad = _with_rows(alg, {(i, j): ((i, 1),), (j, i): ((i, -1),)})
    assert _first_root_root_failure(bad) == (i, j)
    with pytest.raises(AssertionError,
                       match=rf"unexpected bracket at {_root_pair(alg, i, j)}$"):
        bad.verify_normalizations()


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_killing_elem_matches_dense_double_sum(label):
    alg = build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                            check=False)
    roots = [i for i in range(alg.dim) if alg.root_of[i] is not None]
    cartan = list(alg.cartan_index)
    rng = random.Random(f"killing-{label}")

    def form(i, j):
        """B on two basis vectors, from its definition."""
        ri, rj = alg.root_of[i], alg.root_of[j]
        if ri is None and rj is None:
            return Q(alg.rs.gram[alg.simple_of[i]][alg.simple_of[j]])
        if ri is None or rj is None:
            return Q(0)
        return Q(all(x + y == 0 for x, y in zip(ri, rj)))

    def dense(a, b):
        return sum((ca * cb * form(i, j)
                    for i, ca in a.items() for j, cb in b.items()), Q(0))

    def element(pool, size):
        return {i: Q(rng.randint(-4, 4), rng.randint(1, 3))
                for i in rng.sample(pool, min(size, len(pool)))}

    # partners of sampled roots, so that root pairs meet often
    def with_partners(e):
        return {**e, **{alg.index_of_root[tuple(-x for x in alg.root_of[i])]:
                        Q(rng.randint(-3, 3)) for i in e
                        if alg.root_of[i] is not None and rng.random() < 0.5}}

    pools = [roots, cartan, list(range(alg.dim))]
    elements = [{}] + [with_partners(element(pool, size)) for pool in pools
                       for size in (1, 3, 8) for _ in range(4)]
    nonzero = 0
    for a in elements:
        for b in rng.sample(elements, 12) + [{}]:
            got = alg.killing_elem(a, b)
            assert got == dense(a, b)
            assert type(got) is Q
            nonzero += got != 0
    assert nonzero > 0
