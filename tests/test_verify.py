"""Check registry, scoping, and the skip/fail paths of the suite runner."""

import dataclasses
import fractions
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction as Q
from functools import reduce
from math import lcm
from pathlib import Path

import pytest

from conftest import RationalOmega, inverse, random_dual_bases
from confsys import system, verify
from confsys.diffops import sum_products
from confsys.linalg import common_root, solve
from confsys.pbw import elt_add, elt_scale, elt_sub
from confsys.poly import Poly, poly_gcd, rational_roots
from confsys.roots import RootSystemSpec, build_root_system
from confsys.verify import (CHECKS, EXPECTED, CheckFailure, Session,
                            SuiteConfig, _contraction_data, _levi_action,
                            available_checks, run_single, run_suite)
from confsys.verma import Span, elt_subs


def _full_registry() -> dict:
    """CHECKS with every scope registered: the system checks register when
    a system run first asks for its checks."""
    available_checks(True)
    return CHECKS


def test_registry_scopes_are_exhaustive():
    checks = _full_registry()
    by_scope = {s: [n for n, (sc, _, _) in checks.items() if sc == s]
                for s in ("core", "system", "control")}
    assert {s: len(names) for s, names in by_scope.items()} == \
        {"core": 12, "system": 25, "control": 2}
    assert len(checks) == 39
    system_run = available_checks(True)
    control_run = available_checks(False)
    assert set(system_run) == set(by_scope["core"]) | set(by_scope["system"])
    assert set(control_run) == set(by_scope["core"]) | set(by_scope["control"])
    # report order matches registration order
    assert system_run == [n for n in checks if n in set(system_run)]


def test_every_check_has_a_statement():
    checks = _full_registry()
    assert len(checks) == 39
    for name, (_, statement, fn) in checks.items():
        assert statement and statement[0].isupper() or statement[0].isdigit()
        assert callable(fn)


def test_system_checks_skip_on_control_algebra(tmp_path):
    # forcing the system expectation onto the rank-3 control: the special
    # value set is empty, so the unique-value check fails and every check
    # needing the special value reports skipped, never a silent pass
    session = Session(SuiteConfig(type_label="A3", expect_system=True,
                                  cache_dir=str(tmp_path)))
    res = run_single(session, "special_value_unique")
    assert res.status == "fail"
    assert res.witness.get("values") == []
    skipped = run_single(session, "cubic_weight_at_special")
    assert skipped.status == "skipped"
    assert "special" in str(skipped.witness).lower()


def test_core_checks_pass_on_control_algebra(tmp_path):
    session = Session(SuiteConfig(type_label="A3", expect_system=False,
                                  cache_dir=str(tmp_path)))
    for name in ("chevalley_normalizations", "invariant_form",
                 "heisenberg_grading", "deleted_diagram",
                 "levi_module_decomposition", "character_normalization"):
        res = run_single(session, name)
        assert res.status == "pass", (name, res.witness)


def _with_rows(alg, rows):
    """A copy of alg whose table has rows[(i, j)] in place of [X_i, X_j]."""
    table = [list(line) for line in alg.table]
    for (i, j), row in rows.items():
        table[i][j] = row
    return dataclasses.replace(alg, table=tuple(map(tuple, table)))


def _flip_bracket(alg, g, y):
    """alg with the signs of [X_g, X_y] and [X_y, X_g] both flipped: the table
    stays antisymmetric."""
    return _with_rows(alg, {(i, j): tuple((k, -c) for k, c in alg.table[i][j])
                            for i, j in ((g, y), (y, g))})


@pytest.mark.parametrize("part", ["root", "coroot"])
def test_invariant_form_catches_a_sign_flip_at_each_generator(tmp_path, part):
    """A sign flip at a Chevalley generator g breaks ad-invariance in B's
    root part ([X_g, X_y] a root vector, y a root vector) or in its coroot
    part ([X_g, X_-g] = H_g); the generator proof fails on both, at every
    generator."""
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    alg = session.alg
    assert run_single(session, "invariant_form").status == "pass"
    for g in alg.chevalley_generators:
        if part == "root":
            y = next(y for y, row in enumerate(alg.table[g]) if row
                     and alg.root_of[y] is not None and alg.root_of[row[0][0]])
        else:
            y = alg.opposite[g]
        session.alg = _flip_bracket(alg, g, y)
        res = run_single(session, "invariant_form")
        assert res.status == "fail"
        assert res.witness["generator"] in (alg.names[g], alg.names[y])


def test_invariant_form_proof_agrees_with_every_triple(tmp_path):
    """On A3 the generator proof's conclusion holds on every basis triple:
    B([x,y],z) + B(y,[x,z]) = 0."""
    session = Session(SuiteConfig(type_label="A3", expect_system=False,
                                  cache_dir=str(tmp_path)))
    alg = session.alg
    assert run_single(session, "invariant_form").status == "pass"
    basis = [{i: 1} for i in range(alg.dim)]
    for x in basis:
        for y in basis:
            for z in basis:
                assert (alg.killing_elem(alg.bracket_elem(x, y), z)
                        + alg.killing_elem(y, alg.bracket_elem(x, z))) == 0


def test_run_single_registers_a_system_check_on_first_use(tmp_path):
    # a fresh interpreter, where no system run has loaded the system checks
    code = ("import sys\n"
            "from confsys.verify import Session, SuiteConfig, run_single\n"
            "session = Session(SuiteConfig(cache_dir=sys.argv[1]))\n"
            "print(run_single(session, 'cubic_nonzero').status)\n")
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert proc.stdout.split() == ["pass"]


def test_exceptions_become_failures_with_witness(tmp_path):
    session = Session(SuiteConfig(type_label="A3", expect_system=False,
                                  cache_dir=str(tmp_path)))
    CHECKS["__boom"] = ("core", "Deliberate error for the runner test",
                        lambda s: 1 / 0)
    try:
        res = run_single(session, "__boom")
    finally:
        del CHECKS["__boom"]
    assert res.status == "fail"
    assert "error" in res.witness


def test_session_special_value_is_minus_one(tmp_path):
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    assert session.sstar == Q(-1)


def test_special_value_is_checked_against_the_frozen_column(tmp_path,
                                                            monkeypatch):
    monkeypatch.setitem(EXPECTED[("D", 4)], "special_values", (Q(-2),))
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    res = run_single(session, "special_value_unique")
    assert res.status == "fail"
    assert res.witness == {"values": ["-1"], "expected": ["-2"]}


@pytest.mark.parametrize("label", ["D4", "A2", "A3", "D5", "E6"])
def test_levi_equivariance_holds_off_the_special_value(tmp_path, label):
    # the identity is checked with s symbolic, so it holds at every s,
    # special or not: the quadratic and cubic elements of types whose
    # at-special checks skip (no unique special value) are covered too, and
    # the pointwise reference agrees at a value special for no type
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om, s0 = session.alg, session.omega, Q(5, 2)
    n_levi, n_gens = len(alg.l_indices), len(_levi_generators(alg))
    quadratic, cubic = session.quadratic_elements, session.cubic_elements
    assert _levi_action(session, quadratic) == {"generators": n_gens,
                                                "pairs": n_gens * n_levi}
    assert _levi_action(session, cubic) == {
        "generators": n_gens, "pairs": n_gens * len(alg.v_minus)}
    for elements in (quadratic, cubic):
        assert _levi_action(session, elements, {"h_gamma": alg.h_gamma}) == {
            "generators": 1, "pairs": len(elements)}
    assert _levi_equivariance_reference(session, quadratic, om.omega2,
                                        s0) == n_levi * n_levi
    assert _levi_equivariance_reference(session, cubic, om.omega3,
                                        s0) == n_levi * len(alg.v_minus)


def _levi_generators(alg) -> list[int]:
    return [z for z in alg.q_generators if alg.grade[z] == 0]


def _levi_equivariance_reference(s: Session, elements, build, s0) -> int:
    """The Levi identity at s0, build([Z, w]) = Z.e at s0 + (1 - s0) dchi(Z)
    e, acting by every Levi basis vector, not only by the generators of l;
    returns the pair count."""
    alg, vm = s.alg, s.verma
    for z in alg.l_indices:
        shift = (1 - s0) * alg.dchi_on_basis[z]
        for w, e in elements.items():
            rhs = elt_add(elt_subs(vm.act({z: Q(1)}, e), s0),
                          elt_scale(e, shift))
            if elt_sub(build(dict(alg.table[z][w])), rhs):
                raise CheckFailure({"pair": [alg.names[z], alg.names[w]]})
    return len(alg.l_indices) * len(elements)


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_levi_equivariance_agrees_with_all_pairs_reference(tmp_path, label):
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, elements = session.alg, session.quadratic_elements
    n_levi, n_gens = len(alg.l_indices), len(_levi_generators(alg))
    assert n_gens < n_levi
    assert _levi_equivariance_reference(session, elements, session.omega.omega2,
                                        Q(0)) == n_levi * n_levi
    assert _levi_action(session, elements) == {"generators": n_gens,
                                               "pairs": n_gens * n_levi}


def test_cubic_levi_equivariance_agrees_with_all_pairs_reference(tmp_path):
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    alg, elements, sstar = session.alg, session.cubic_elements, Q(-1)
    assert session.sstar == sstar
    n_gens = len(_levi_generators(alg))
    assert _levi_equivariance_reference(session, elements, session.omega.omega3,
                                        sstar) == 10 * 8
    assert _levi_action(session, elements) == {"generators": n_gens,
                                               "pairs": n_gens * 8}


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_levi_equivariance_catches_a_perturbed_non_generator(tmp_path, label):
    # the generators act on every element, so a wrong element at a Levi
    # vector outside the acting set is still caught: at a pair (Z, W) with
    # W = w, or with w in [Z, W], since the identity extends the elements
    # themselves linearly to the bracket
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om = session.alg, session.omega
    gens = _levi_generators(alg)
    w = next(i for i in alg.l_indices if i not in gens)
    elements = dict(session.quadratic_elements)
    elements[w] = elt_add(elements[w], {((alg.v_minus[0], 1),): Q(1)})
    with pytest.raises(CheckFailure):
        _levi_equivariance_reference(session, elements, om.omega2, Q(0))
    with pytest.raises(CheckFailure) as failure:
        _levi_action(session, elements)
    z, w2 = (alg.names.index(name) for name in failure.value.witness["pair"])
    assert w2 == w or w in alg.bracket_elem({z: 1}, {w2: 1})


def test_cubic_equivariance_catches_an_action_wrong_off_the_special_value(
        tmp_path):
    # X[1000] on a monomial that only Y[0100]'s cubic element e holds gets
    # (s + 1) k e added, k clearing e's denominators: the image stays in the
    # cubic span and is right at s* = -1, so every check that reads the
    # action at s* alone passes, and only the symbolic Levi identity fails
    session = _d4_session(tmp_path)
    alg, vm = session.alg, session.verma
    x, y = alg.names.index("X[1000]"), alg.names.index("Y[0100]")
    e = session.cubic_elements[y]
    others = {m for w, el in session.cubic_elements.items() if w != y
              for m in el}
    m = next(m for m in e if m not in others)
    k = lcm(*(c.denominator for c in e.values()))
    before = vm.act_basis(x, e)
    image = {m2: [a0, a1] for m2, a0, a1 in vm._act_memo[x][m]}
    for m2, c in e.items():
        a0, a1 = image.setdefault(m2, [0, 0])
        image[m2] = [a0 + int(k * c), a1 + int(k * c)]
    vm._act_memo[x][m] = tuple((m2, a0, a1) for m2, (a0, a1) in image.items()
                               if a0 or a1)
    after = vm.act_basis(x, e)
    assert elt_subs(after, Q(-1)) == elt_subs(before, Q(-1))
    assert after != before
    results = [run_single(session, name) for name in available_checks(True)]
    assert [r.name for r in results if r.status != "pass"] == \
        ["cubic_equivariance_at_special"]
    failed = next(r for r in results if r.status == "fail")
    assert failed.witness == {"pair": ["X[1000]", "Y[0100]"]}


def test_b_matrices_match_dense_solve_reference(tmp_path):
    # the corollary b(Y) = M(Y_q) that the b_matrix statement derives, on
    # every basis vector Y: the dense matrix of the cubic operators' point
    # functionals over every derivative multi-index that occurs, and one
    # linalg.solve per commutator column, give the action matrices at s*
    # shifted by -s* dchi on q and zero on the opposite radical.  Session
    # reads b on the generators of q only, and there it is that solve
    def s_free(op):
        den, func = op.at_identity()
        assert not any(a1 for _, a1 in func.values())
        return {d: Q(a0, den) for d, (a0, _) in func.items()}

    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    alg = session.alg
    funcs = [s_free(op) for op in session.omega3_ops]
    m = len(funcs)
    shifted = system._shifted(alg, session.action_matrices_special,
                              -session.require_sstar())
    bmats = session.b_matrices
    assert list(bmats) == list(alg.q_generators)
    for y in range(alg.dim):
        comms = [s_free(session.cubic_commutator(y, i)) for i in range(m)]
        ders = sorted({d for f in funcs + comms for d in f})
        mat = [[f.get(d, Q(0)) for f in funcs] for d in ders]
        cols = [solve(mat, [comm.get(d, Q(0)) for d in ders]) for comm in comms]
        b = [list(row) for row in zip(*cols)]
        assert b == shifted.get(y, [[Q(0)] * m for _ in range(m)]), y
        if y in bmats:
            assert bmats[y] == b, y
    assert any(c for bmat in bmats.values() for row in bmat for c in row)


def test_cubic_commutator_memo_keys_on_both_indices(tmp_path):
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    y = session.alg.v_plus[0]
    m = len(session.omega3_ops)
    got = [session.cubic_commutator(y, k) for k in range(m)]
    for k in range(m):
        assert got[k] == session.pi_special(y).commutator(session.omega3_ops[k])
        assert session.cubic_commutator(y, k) is got[k]
    assert len({frozenset(op.terms.items()) for op in got}) == m


def _gcd_reference(pairs):
    """(degree, rational roots) of the gcd of the affine a0 + a1*s over
    pairs, by the Euclidean fold in Q[s]; the roots are None (every s) for
    the zero gcd."""
    s = Poly(1, {(1,): Q(1)})
    g = reduce(poly_gcd, [s * a1 + Poly.constant(1, a0) for a0, a1 in pairs],
               Poly.constant(1, 0))
    return g.degree(), rational_roots(g) if g else None


def _common_root_as_reference(pairs):
    degree, root = common_root(pairs)
    return degree, None if degree < 0 else [] if root is None else [root]


@pytest.mark.parametrize("label", ["D4", "A3", "D5"])
def test_common_root_matches_gcd_reference_on_symbolic_functionals(tmp_path,
                                                                   label):
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    # the nilradical rows, the ones operator_special_value_set reads
    funcs = [session.symbolic_functionals[(x, k)] for x in session.alg.n_indices
             for k in range(len(session.omega3_ops))]
    per_functional = [[(Q(a0, den), Q(a1, den)) for a0, a1 in func.values()]
                      for den, func in funcs]
    together = [p for pairs in per_functional for p in pairs]
    for pairs in per_functional + [together]:
        assert _common_root_as_reference(pairs) == _gcd_reference(pairs), pairs
    # the int pairs the check reads give the same roots, whatever their dens
    ints = [list(func.values()) for _, func in funcs]
    for got, pairs in zip(ints + [[p for ps in ints for p in ps]],
                          per_functional + [together]):
        assert common_root(got) == common_root(pairs)
    # the controls' functionals have roots one by one, but none in common
    assert any(common_root(pairs)[0] == 1 for pairs in per_functional)
    assert common_root(together) == ((1, Q(-1)) if label == "D4" else (0, None))


def test_common_root_of_no_pairs_is_every_s():
    for pairs in ([], [(Q(0), Q(0))]):
        assert common_root(pairs) == (-1, None)
        assert _gcd_reference(pairs) == (-1, None)


def test_common_root_of_constant_and_mixed_pairs():
    cases = {
        ((Q(2), Q(0)),): (0, None),
        ((Q(1), Q(1)), (Q(3), Q(0))): (0, None),     # a constant shares no root
        ((Q(3), Q(0)), (Q(1), Q(1))): (0, None),
        ((Q(1), Q(1)), (Q(2), Q(2))): (1, Q(-1)),
        ((Q(1), Q(1)), (Q(1), Q(2))): (0, None),
        ((Q(0), Q(0)), (1, 2)): (1, Q(-1, 2)),       # ints read as rationals
    }
    for pairs, expected in cases.items():
        assert common_root(pairs) == expected
        assert _common_root_as_reference(pairs) == _gcd_reference(pairs)


def test_seeded_rng_is_stable():
    cfg = SuiteConfig(type_label="A3", expect_system=False, seed=7)
    a = Session(cfg).rng("salt").random()
    b = Session(cfg).rng("salt").random()
    c = Session(cfg).rng("other-salt").random()
    assert a == b
    assert a != c


def test_run_suite_control_report(tmp_path):
    rep = run_suite(SuiteConfig(type_label="D5", expect_system=False,
                                cache_dir=str(tmp_path)))
    assert rep.ok
    assert rep.algebra["label"] == "D5"
    assert rep.graded_dims == [1, 12, 19, 12, 1]
    assert rep.deleted_components == [[1], [3, 4, 5]]
    assert rep.special_values.values == []
    assert rep.special_values.levi_stable_all_s
    names = [c.name for c in rep.checks]
    assert names == available_checks(False)


def test_run_suite_loads_the_algebra_before_the_first_check(tmp_path,
                                                            monkeypatch):
    # the cache load is charged to no check's wall time
    loaded = []

    def recording(session, name):
        loaded.append((name, "alg" in vars(session)))
        return run_single(session, name)

    monkeypatch.setattr(verify, "run_single", recording)
    run_suite(SuiteConfig(type_label="A3", expect_system=False,
                          cache_dir=str(tmp_path)))
    assert loaded[0] == ("chevalley_normalizations", True)


def _contraction_reference(s: Session):
    """_contraction_data with the quadratic map applied to every double
    bracket on its own and the results added."""
    alg, om = s.alg, s.omega
    ratios, nonzero_pairs, zero_anomalies, proportional = set(), 0, [], True
    for x in alg.v_plus:
        for y in alg.v_minus:
            acc = {}
            for e_idx in alg.v_plus:
                inner1 = alg.bracket_elem({x: Q(1)},
                                          {alg.opposite[e_idx]: Q(1)})
                inner2 = dict(alg.table[e_idx][y])
                acc = elt_add(acc, om.omega2(alg.bracket_elem(inner1, inner2)))
            target = om.omega2(dict(alg.table[x][y]))
            if not target:
                if acc:
                    zero_anomalies.append((alg.names[x], alg.names[y]))
                continue
            nonzero_pairs += 1
            m0, c0 = next(iter(target.items()))
            if m0 not in acc:
                proportional = False
                continue
            ratio = acc[m0] / c0
            if elt_sub(acc, elt_scale(target, ratio)):
                proportional = False
            else:
                ratios.add(ratio)
    return ratios, nonzero_pairs, zero_anomalies, proportional


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "D6", "E6"])
def test_contraction_data_matches_per_term_reference(tmp_path, label):
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    assert _contraction_data(session) == _contraction_reference(session)


@pytest.mark.parametrize("label", ["A3", "D4", "D5"])
def test_contraction_one_vector_path_reads_the_emptied_quadratic_element(
        tmp_path, label):
    # [X, Y] = mu X_k for a Levi root vector k puts the pair on the path that
    # reads the ratio off the bracket table; with the memoized quadratic
    # element of k emptied its pairs must stop counting, exactly as in the
    # reference
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om = session.alg, session.omega
    before = _contraction_data(session)
    k = next(row[0][0] for x in alg.v_plus for y in alg.v_minus
             if len(row := alg.table[x][y]) == 1
             and alg.root_of[row[0][0]] is not None)
    omega2_ints = om.omega2_ints
    om.omega2_ints = lambda i: {} if i == k else omega2_ints(i)
    got = _contraction_data(session)
    assert got == _contraction_reference(session)
    assert got[1] < before[1]


def _first_character_failure(alg):
    """The Levi-bracket part of character_normalization through
    LieAlgebra.bracket_elem, with rational coefficients: a reference for the
    check's int kernel.  Returns the first Levi pair with dchi([Z, W]) != 0,
    or None."""
    for z in alg.l_indices:
        for w in alg.l_indices:
            zw = alg.bracket_elem({z: Q(1)}, {w: Q(1)})
            if sum(c * alg.dchi_on_basis[k] for k, c in zw.items()):
                return [alg.names[z], alg.names[w]]
    return None


@pytest.mark.parametrize("label", ["A3", "D4", "D5"])
def test_character_normalization_catches_an_extra_coroot_term(tmp_path,
                                                              label):
    # one Levi-Levi row gains a coroot on which the character is nonzero
    session = Session(SuiteConfig(type_label=label, expect_system=False,
                                  cache_dir=str(tmp_path)))
    alg = session.alg
    assert _first_character_failure(alg) is None
    assert run_single(session, "character_normalization").status == "pass"
    h = next(i for i in alg.cartan_index if alg.dchi_on_basis[i])
    z, w = next((z, w) for z in alg.l_indices for w in alg.l_indices
                if alg.table[z][w] and h not in dict(alg.table[z][w]))
    session.alg = _with_rows(alg, {(z, w): alg.table[z][w] + ((h, 1),)})
    res = run_single(session, "character_normalization")
    assert res.status == "fail"
    assert res.witness["pair"] == [alg.names[z], alg.names[w]]
    assert _first_character_failure(session.alg) == res.witness["pair"]


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_first_level_action_catches_a_perturbed_levi_character_entry(
        tmp_path, label):
    # the first run builds the module on the true algebra, and it keeps
    # that character; the check's expected images read the copy's perturbed
    # entry
    session = Session(SuiteConfig(type_label=label, expect_system=False,
                                  cache_dir=str(tmp_path)))
    alg = session.alg
    assert run_single(session, "first_level_action").status == "pass"
    for z in (alg.cartan_index[0], alg.l_indices[0]):
        bad = dataclasses.replace(alg)
        dchi = list(alg.dchi_on_basis)
        dchi[z] += 1
        bad.__dict__["dchi_on_basis"] = tuple(dchi)
        session.alg = bad
        res = run_single(session, "first_level_action")
        assert res.status == "fail"
        assert res.witness["levi"] == alg.names[z]


def test_first_level_checks_share_one_perturbed_closed_form_image(
        tmp_path, monkeypatch):
    # one image of verify._first_level_image gains the generator itself, at a
    # Levi Chevalley generator z and a grade -1 generator y: the module
    # action disagrees with it (first_level_action), and M(z) of both
    # first-level identities reads it at every s0
    session = _d4_session(tmp_path)
    alg = session.alg
    names = ("first_level_action", "first_order_commutator_formula",
             "induced_bridge_small")
    assert all(run_single(session, name).status == "pass" for name in names)
    z = next(z for z in alg.chevalley_generators if alg.grade[z] == 0)
    y = alg.v_minus[0]
    image = verify._first_level_image

    def perturbed(algebra, x, gi):
        low, value = image(algebra, x, gi)
        return ({**low, gi: low.get(gi, 0) + 1}, value) if (x, gi) == (z, y) \
            else (low, value)

    monkeypatch.setattr(verify, "_first_level_image", perturbed)
    monkeypatch.setattr(system, "_first_level_image", perturbed)
    res = run_single(session, "first_level_action")
    assert res.status == "fail"
    assert res.witness == {"levi": alg.names[z], "generator": alg.names[y]}
    for name in names[1:]:
        res = run_single(session, name)
        assert res.status == "fail", name
        assert res.witness["vector"] == alg.names[z], name
    assert res.witness["s"] == "-1"


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_first_level_action_reads_the_parabolic_on_the_cyclic_vector(
        tmp_path, label):
    # X.1 = s dchi(X) 1 perturbed at one Levi coroot with dchi != 0, on the
    # vector 1 alone: the span still holds the image, but the formula fails
    session = Session(SuiteConfig(type_label=label, expect_system=False,
                                  cache_dir=str(tmp_path)))
    alg, vm = session.alg, session.verma
    assert run_single(session, "first_level_action").status == "pass"
    h = next(i for i in alg.cartan_index if alg.dchi_on_basis[i])
    act_basis = vm.act_basis

    def perturbed(i, v):
        v0, v1 = act_basis(i, v)
        return (v0, elt_scale(v1, 2)) if i == h and v == {(): 1} else (v0, v1)

    vm.act_basis = perturbed
    res = run_single(session, "first_level_action")
    assert res.status == "fail"
    assert res.witness == {"levi": alg.names[h], "generator": "1"}


def _infinitesimal_character_candidates(rs):
    """The parameter values the infinitesimal character allows for the cubic
    span: for a grade 1 simple root alpha and nu = gamma + alpha,
    s0 = (<nu, nu> - 2<nu, rho>) / (2<gamma, nu>), one value per alpha."""
    gamma = rs.highest
    two_rho = tuple(map(sum, zip(*rs.positive)))
    out = set()
    for i in range(rs.rank):
        if rs.pairing(rs.simple(i), gamma) == 1:
            nu = tuple(g + a for g, a in zip(gamma, rs.simple(i)))
            out.add(Q(rs.pairing(nu, nu) - rs.pairing(nu, two_rho),
                      2 * rs.pairing(gamma, nu)))
    return out


def test_infinitesimal_character_gives_d4_special_value(tmp_path):
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    assert _infinitesimal_character_candidates(session.alg.rs) == {session.sstar}
    assert session.sstar == -1


@pytest.mark.parametrize("label, candidate", [
    ("A3", Q(-1, 3)), ("D5", Q(-5, 3)), ("D6", Q(-7, 3)), ("D7", Q(-3)),
    ("D8", Q(-11, 3))])
def test_infinitesimal_character_candidate_is_refuted_on_controls(tmp_path, label,
                                                                 candidate):
    # the candidate the infinitesimal character allows is not a stable value:
    # some stability constraint of the cubic span is nonzero there
    session = Session(SuiteConfig(type_label=label, expect_system=False,
                                  cache_dir=str(tmp_path)))
    assert _infinitesimal_character_candidates(session.alg.rs) == {candidate}
    levi, nil = session.verma.stability_constraints(session.cubic_span)
    assert any(a0 + a1 * candidate for a0, a1 in levi + nil)


# -- mutants of the system checks reduced to generators: each is caught by the
# reduced check, and by the all-basis loop it replaced, which tested a
# superset of the same identities


def _d4_session(tmp_path) -> Session:
    return Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))


def _with_partner_flipped(alg, i):
    """A copy of alg whose pairing holds (j, -n) in place of partner[i] =
    (j, n); the bracket table is the true one."""
    partner = list(alg.partner)
    j, n = partner[i]
    partner[i] = (j, -n)
    bad = dataclasses.replace(alg)
    bad.__dict__["partner"] = tuple(partner)
    return bad


@pytest.mark.parametrize("space,reader,other", [
    ("v_minus", "nbar_commutant", "quadratic_equivariance"),
    ("v_plus", "quadratic_equivariance", "nbar_commutant")])
def test_a_flipped_pairing_sign_fails_the_check_that_reads_it(tmp_path, space,
                                                              reader, other):
    # R(X_-b) reads the grade -1 constants and omega2 the grade +1 ones, so
    # one flipped sign fails the check over that half and no other
    alg = _d4_session(tmp_path).alg
    i = getattr(alg, space)[0]
    session = _d4_session(tmp_path)
    session.alg = _with_partner_flipped(alg, i)
    res = run_single(session, reader)
    assert res.status == "fail"
    if reader == "nbar_commutant":
        assert res.witness["vector"] == alg.names[i]
    assert run_single(session, other).status == "pass"


def test_pi_homomorphism_catches_a_negated_non_generator(tmp_path):
    session = _d4_session(tmp_path)
    alg, calc = session.alg, session.calc
    assert run_single(session, "pi_homomorphism").status == "pass"
    bad = next(i for i in range(alg.dim) if alg.root_of[i] is not None
               and i not in alg.chevalley_generators)
    pi_basis = calc.pi_basis
    calc.pi_basis = lambda i: -pi_basis(i) if i == bad else pi_basis(i)
    assert run_single(session, "pi_homomorphism").status == "fail"


def test_basis_independence_catches_a_diagonal_dual(tmp_path):
    # the mutant keeps only the coefficient of X_-b_i in w*_i: the root
    # basis is unchanged, every random one is not
    session = _d4_session(tmp_path)
    alg, om = session.alg, session.omega
    assert run_single(session, "basis_independence").status == "pass"
    rebuild = om.omega3_from_basis

    def diagonal_dual(w_basis, w_dual, y):
        diag = [{k: c for k, c in ws.items() if k == alg.opposite[b]}
                for b, ws in zip(alg.v_plus, w_dual)]
        return rebuild(w_basis, diag, y)

    om.omega3_from_basis = diagonal_dual
    res = run_single(session, "basis_independence")
    assert res.status == "fail"
    assert res.witness["index"] == alg.names[alg.v_minus[0]]


def test_basis_independence_catches_a_doubled_dual(tmp_path, monkeypatch):
    session = _d4_session(tmp_path)
    pair = system._unimodular_pair

    def doubled(m):
        a, inv = pair(m)
        return a, [[2 * x for x in row] for row in inv]

    monkeypatch.setattr(system, "_unimodular_pair", doubled)
    res = run_single(session, "basis_independence")
    assert res.status == "fail"
    assert res.witness == {"trial": 0, "pair": [0, 0], "value": "2"}


def test_basis_independence_catches_a_dual_negated_on_odd_trials(
        tmp_path, monkeypatch):
    # odd trials take the basis from the inverse, so the mutant negates w
    session = _d4_session(tmp_path)
    pair, calls = system._unimodular_pair, []

    def negated_on_odd_trials(m):
        a, inv = pair(m)
        calls.append(m)
        if len(calls) % 2:
            return a, inv
        return a, [[-x for x in row] for row in inv]

    monkeypatch.setattr(system, "_unimodular_pair", negated_on_odd_trials)
    res = run_single(session, "basis_independence")
    assert res.status == "fail"
    assert res.witness == {"trial": 1, "pair": [0, 0], "value": "-1"}


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "A6", "A7", "D4",
                                   "D5", "D6", "D7", "D8", "E6", "E7", "E8"])
def test_basis_independence_pair_is_an_exact_small_inverse_pair(label):
    # for every size m of V+ the check meets, its fixed pair is a and its
    # rational inverse, with no entry above m
    rs = build_root_system(RootSystemSpec.parse(label))
    m = sum(rs.pairing(a, rs.highest) == 1 for a in rs.roots)
    a, inv = system._unimodular_pair(m)
    assert inverse([[Q(x) for x in row] for row in a]) == inv
    assert max(abs(x) for row in a + inv for x in row) == m


def _assert_basis_independence_passes(tmp_path, label, m):
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    res = run_single(session, "basis_independence")
    assert res.status == "pass", res.witness
    assert res.witness["basis_size"] == m


def test_basis_independence_passes_on_the_e6_system_scope(tmp_path):
    _assert_basis_independence_passes(tmp_path, "E6", 20)


def test_basis_independence_passes_on_the_e7_system_scope(tmp_path):
    _assert_basis_independence_passes(tmp_path, "E7", 32)


def test_basis_independence_reads_no_seed(tmp_path):
    a, b = (run_single(Session(SuiteConfig(type_label="D4", seed=seed,
                                           cache_dir=str(tmp_path))),
                       "basis_independence") for seed in (212, 5))
    assert a.status == b.status == "pass"
    assert (a.statement, a.witness) == (b.statement, b.witness)


def test_only_verma_representation_reads_the_seed(tmp_path, monkeypatch):
    salts, rng = [], Session.rng

    def recorded(self, salt):
        salts.append(salt)
        return rng(self, salt)

    monkeypatch.setattr(Session, "rng", recorded)
    report = run_suite(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    assert report.ok
    assert salts == ["verma-representation"]


def _omega3_per_dual_vector(ref, w_basis, w_dual, y):
    """sum_i w*_i omega2([w_i, Y]) from the rational oracle, each dual vector
    multiplied as a whole onto its own quadratic element."""
    env, out = ref.env, {}
    for w, wstar in zip(w_basis, w_dual):
        w2 = ref.omega2(ref.alg.bracket_elem(w, y))
        lie = {((c, 1),): b for c, b in wstar.items()}
        out = elt_add(out, env.mul(lie, w2))
    return out


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_dual_first_contraction_matches_per_dual_vector_reference(tmp_path,
                                                                  label):
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om = session.alg, session.omega
    ref = RationalOmega(session.env)
    rng = random.Random(f"dual-first:{label}")
    for trial in range(5):
        w_basis, w_dual = random_dual_bases(alg, rng)
        y = {alg.v_minus[(7 * trial) % len(alg.v_minus)]: 1}
        got = om.omega3_from_basis(w_basis, w_dual, y)
        assert got == _omega3_per_dual_vector(ref, w_basis, w_dual, y)
        assert got == om.omega3(y)


def test_structure_operator_catches_a_perturbed_b_matrix_entry(tmp_path):
    # b at a generator of q is read, and compared with the shifted action,
    # by both checks
    session = _d4_session(tmp_path)
    names = ("b_matrix", "structure_operator")
    assert all(run_single(session, name).status == "pass" for name in names)
    g = session.alg.v_plus[0]
    assert g in session.alg.q_generators
    bmats = {y: [list(row) for row in mat]
             for y, mat in session.b_matrices.items()}
    bmats[g][1][2] += 1
    session.b_matrices = bmats
    for name in names:
        res = run_single(session, name)
        assert res.status == "fail", name
        assert res.witness["vector"] == session.alg.names[g], name


def test_induced_bridge_cubic_catches_a_perturbed_action_entry(tmp_path):
    session = _d4_session(tmp_path)
    assert run_single(session, "induced_bridge_cubic").status == "pass"
    g = session.alg.l_indices[0]
    action = {x: [list(row) for row in mat]
              for x, mat in session.action_matrices_special.items()}
    action[g][3][0] -= Q(1, 2)
    session.action_matrices_special = action
    res = run_single(session, "induced_bridge_cubic")
    assert res.status == "fail"
    assert res.witness["mismatches"] == 1


_FORMULAS = ("first_order_commutator_formula", "quadratic_commutator_formula")


def _formula_identities(session, monkeypatch, perturb=None):
    """Run the two commutator formulas, each passing (ops, mats, commutators)
    to system._identity_on_generators, through perturb(name, mats) when
    given; returns the results and the recorded arguments, by name."""
    identity, recorded, results = system._identity_on_generators, {}, {}
    for name in _FORMULAS:
        def wrapper(s, ops, mats, commutators, where=None):
            mats = perturb(name, mats) if perturb else mats
            recorded[name] = ops, mats, commutators
            return identity(s, ops, mats, commutators, where)
        monkeypatch.setattr(system, "_identity_on_generators", wrapper)
        results[name] = run_single(session, name)
    monkeypatch.setattr(system, "_identity_on_generators", identity)
    return results, recorded


def _first_level_span(session):
    """A test-local Span of the first-level generators: the nbar generators,
    then 1."""
    env = session.env
    return Span([env.gen(i) for i in session.alg.nbar_indices] + [env.one()])


def _solved_first_level_matrices(session, span, s0):
    """The module route to the first-level M_g at s0: the action matrices
    solved on span (_first_level_span), shifted by -s0 dchi(g)."""
    alg, vm = session.alg, session.verma
    return system._shifted(alg, {g: vm.module_action_matrix(span, g, s0)
                                 for g in alg.q_indices}, -s0)


def _closed_form_first_level_matrices(session, monkeypatch, s0):
    """The M_g that system._first_level_identity builds at s0, recorded at
    its call of _identity_on_generators, which does not run."""
    recorded = {}
    monkeypatch.setattr(system, "_identity_on_generators",
                        lambda s, ops, mats, *_: recorded.update(mats) or 0)
    system._first_level_identity(session, s0)
    monkeypatch.undo()
    return recorded


@pytest.mark.parametrize("label", ["D4", "E6"])
def test_first_level_matrices_match_the_module_action_on_a_span(
        tmp_path, monkeypatch, label):
    # the module route is the oracle of the closed form that
    # first_order_commutator_formula and induced_bridge_small read
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    span = _first_level_span(session)
    for s0 in (Q(-1), Q(0), Q(5, 2)):
        got = _closed_form_first_level_matrices(session, monkeypatch, s0)
        assert list(got) == list(session.alg.q_indices)
        assert got == _solved_first_level_matrices(session, span, s0), s0


def test_reduced_operator_identities_hold_on_every_basis_vector(tmp_path,
                                                                monkeypatch):
    # the exhaustive sweeps that induced_bridge_cubic (which
    # structure_operator restates: b is the shifted action matrices, as the
    # dense-solve oracle shows), induced_bridge_small and the first-order and
    # quadratic commutator formulas reduce to the Chevalley generators:
    # [pi(Y), D_i] = sum_j F(Y)_ji D_j for every basis vector Y, read off
    # the same memoized commutator tables, keyed by Y.  The first-level
    # sweep solves M on a test-local span, apart from the closed form the
    # checks read
    session = _d4_session(tmp_path)
    alg = session.alg
    sstar = session.require_sstar()
    m = len(session.omega3_ops)
    contracted = system._contract(session, session.omega3_ops, system._shifted(
        alg, session.action_matrices_special, -sstar))
    for y in range(alg.dim):
        comms = [session.cubic_commutator(y, i) for i in range(m)]
        assert not system._structure_mismatches(session, y, comms,
                                                contracted), y
    identities = [alg.dim * m]
    ops, span = session.first_level_ops, _first_level_span(session)
    for s0 in (sstar, Q(0), Q(5, 2)):
        contracted = system._contract(
            session, ops, _solved_first_level_matrices(session, span, s0))
        for y in range(alg.dim):
            comms = [c.subs_param(s0)
                     for c in session.first_level_commutator(y)]
            assert not system._structure_mismatches(session, y, comms,
                                                    contracted), (y, s0)
    identities.append(3 * alg.dim * len(ops))
    results, recorded = _formula_identities(session, monkeypatch)
    for name in _FORMULAS:
        assert results[name].status == "pass"
        ops, mats, commutators = recorded[name]
        contracted = system._contract(session, ops, mats)
        for y in range(alg.dim):
            assert not system._structure_mismatches(session, y, commutators(y),
                                                    contracted), (name, y)
        identities.append(alg.dim * len(ops))
    assert identities == [224, 840, 280, 280]


def test_commutator_formulas_match_the_explicit_nilradical_formulas(tmp_path):
    # an oracle independent of the bracket-read matrices, for X in the
    # nilradical at s*: [pi(X), R(Y_b)] is R of the grade -1 part of [A, Y_b]
    # (its whole opposite-radical part for Y_b = X_-gamma) plus s* dchi of
    # its parabolic part, and [pi(X), R(omega2(W))] is R(omega2) of the Levi
    # part of [A, W] minus dchi(A_q) R(omega2(W)), for A = AdInv(X)
    session = _d4_session(tmp_path)
    alg, calc, ops = session.alg, session.calc, session.quadratic_ops
    n, sstar, dchi = calc.ncoords, session.require_sstar(), alg.dchi_on_basis

    def char(t, scale):
        return [(c, calc.const(scale * dchi[i])) for i, c in t.items()
                if alg.grade[i] >= 0 and dchi[i]]

    pairs = [0, 0]
    for x in alg.n_indices:
        pi_x, adinv = session.pi_special(x), calc.ad_inverse(x)
        for yb in alg.nbar_indices:
            low = -2 if yb == alg.x_minus_gamma else -1
            t = alg.bracket_elem(adinv, {yb: 1})
            rhs = sum_products(n, [(c, calc.r_gen(i)) for i, c in t.items()
                                   if low <= alg.grade[i] < 0]
                               + char(t, sstar))
            assert pi_x.commutator(calc.r_gen(yb)) == rhs, (x, yb)
            pairs[0] += 1
        minus_dchi = -sum_products(n, char(adinv, 1))
        for w in alg.l_indices:
            t = alg.bracket_elem(adinv, {w: 1})
            rhs = sum_products(n, [(minus_dchi, ops[w])] + [
                (c, ops[z]) for z, c in t.items() if alg.grade[z] == 0])
            assert pi_x.commutator(ops[w]) == rhs, (x, w)
            pairs[1] += 1
    assert pairs == [81, 90]


def test_structure_functions_are_flat(tmp_path):
    # the generator reduction's hypothesis, checked on operators: rho(Y) =
    # xi_Y + F(Y) on C^m-valued functions, xi_Y the vector-field part of
    # pi(Y) and F(Y) = sum_g AdInv(Y)_g M_g, satisfies [rho(Y), rho(Z)] =
    # rho([Y, Z]) for M the action matrices at s* shifted by -s* dchi, which
    # b equals (the dense-solve oracle), over every (Chevalley generator,
    # basis vector) pair.  The
    # commutator of the two operator matrices is [xi_Y, xi_Z] on the
    # diagonal plus the function matrix xi_Y F(Z) - xi_Z F(Y) + [F(Y), F(Z)]
    session = _d4_session(tmp_path)
    alg, calc = session.alg, session.calc
    n, sstar = calc.ncoords, session.require_sstar()
    m = len(session.omega3_ops)
    xi = {y: -sum_products(n, [(c, calc.r_gen(j))
                               for j, c in calc.ad_inverse(y).items() if j < n])
          for y in range(alg.dim)}

    def combine(terms):
        return sum_products(n, [(calc.const(c), op) for c, op in terms if c])

    for g in alg.chevalley_generators:
        for z in range(alg.dim):
            if z != g:
                assert xi[g].commutator(xi[z]) == combine(
                    (c, xi[k]) for k, c in alg.table[g][z]), (g, z)
    mats = system._shifted(alg, session.action_matrices_special, -sstar)
    f = {y: [[sum_products(n, [(c, calc.const(mats[g][r][k]))
                               for g, c in calc.ad_inverse(y).items()
                               if g in mats and mats[g][r][k]])
              for k in range(m)] for r in range(m)]
         for y in range(alg.dim)}
    pairs = 0
    for g in alg.chevalley_generators:
        for z in range(alg.dim):
            if z == g:
                continue
            for r in range(m):
                for k in range(m):
                    got = (xi[g].commutator(f[z][r][k])
                           - xi[z].commutator(f[g][r][k])
                           + sum_products(n, [
                               p for j in range(m) for p in
                               ((f[g][r][j], f[z][j][k]),
                                (-f[z][r][j], f[g][j][k]))]))
                    assert got == combine(
                        (c, f[w][r][k]) for w, c in alg.table[g][z]), \
                        (g, z, r, k)
            pairs += 1
    assert pairs == 216


def _perturbed_off_the_generators(session):
    """A parabolic basis vector that is no Chevalley generator: the last
    grade +1 root vector (the Levi roots of D4 are all simple)."""
    alg = session.alg
    g = alg.v_plus[-1]
    assert g not in alg.chevalley_generators and g in alg.q_indices
    return g


def _names_the_vector(alg, witness, g):
    """The failing pair (x, h) of the q-representation hypothesis has g as
    x, h or a term of [x, h]."""
    assert witness["hypothesis"] == "representation of q"
    x, h = (alg.names.index(name) for name in witness["pair"])
    return g in (x, h) or g in dict(alg.table[x][h])


def test_induced_bridge_cubic_catches_a_perturbed_action_off_the_generators(
        tmp_path):
    session = _d4_session(tmp_path)
    g = _perturbed_off_the_generators(session)
    action = {x: [list(row) for row in mat]
              for x, mat in session.action_matrices_special.items()}
    action[g][3][0] -= Q(1, 2)
    session.action_matrices_special = action
    # M(g) enters no F(Y) of a Chevalley generator Y, and b is not read at
    # g, so only the asserted hypothesis (M a representation of q) sees the
    # change, in both checks that run the cubic identity
    for name in ("induced_bridge_cubic", "structure_operator"):
        res = run_single(session, name)
        assert res.status == "fail", name
        assert _names_the_vector(session.alg, res.witness, g), name


@pytest.mark.parametrize("name, field, scalar", [
    ("b_matrix", "coroot_scalar", "-3"),
    ("reducibility_witness", "span_eigenvalue", "-5")])
def test_b_matrix_reads_the_coroot_scalar_off_the_action_matrices(
        tmp_path, name, field, scalar):
    # the witness's coroot scalar is M(h_gamma) = sum_k c_k M(H_k), read off
    # the action matrices (b_matrix shifts them by -s* dchi, so 2s* - 3
    # reads -3) at coroots that are not generators of q: one entry moved
    # there makes M(h_gamma) no scalar
    session = _d4_session(tmp_path)
    alg = session.alg
    res = run_single(session, name)
    assert res.status == "pass" and res.witness[field] == scalar
    k = next(k for k in alg.h_gamma if k not in alg.q_generators)
    assert k in alg.cartan_index and alg.grade[k] == 0
    assert k not in alg.chevalley_generators
    action = {x: [list(row) for row in mat]
              for x, mat in session.action_matrices_special.items()}
    action[k][0][0] += 1
    session.action_matrices_special = action
    res = run_single(session, name)
    assert res.status == "fail"
    assert res.witness == {"vector": "h_gamma",
                           "reason": "the grading coroot is not a scalar"}


def test_induced_bridge_small_catches_a_perturbed_action_off_the_generators(
        tmp_path, monkeypatch):
    # the closed-form M(g) moved at s0 = 5/2 only
    session = _d4_session(tmp_path)
    assert run_single(session, "induced_bridge_small").status == "pass"
    g = _perturbed_off_the_generators(session)
    identity = system._identity_on_generators

    def perturbed(s, ops, mats, commutators, where=None):
        if where == {"s": "5/2"}:
            mats = {**mats, g: [list(row) for row in mats[g]]}
            mats[g][0][1] += 1
        return identity(s, ops, mats, commutators, where)

    monkeypatch.setattr(system, "_identity_on_generators", perturbed)
    res = run_single(session, "induced_bridge_small")
    assert res.status == "fail"
    assert res.witness["s"] == "5/2"
    assert _names_the_vector(session.alg, res.witness, g)


def test_quadratic_commutator_formula_catches_a_perturbed_matrix_off_the_generators(
        tmp_path, monkeypatch):
    # M(X[1111]) enters no F(Y) of a Chevalley generator Y (AdInv(Y) has no
    # component above Y's grade), so only the asserted hypothesis sees it
    session = _d4_session(tmp_path)
    alg = session.alg
    g = alg.names.index("X[1111]")
    assert g in alg.n_indices and g not in alg.chevalley_generators

    def perturb(name, mats):
        if name != "quadratic_commutator_formula":
            return mats
        mat = [list(row) for row in mats[g]]
        mat[0][1] += 1
        return {**mats, g: mat}

    res = _formula_identities(session, monkeypatch, perturb)[0][
        "quadratic_commutator_formula"]
    assert res.status == "fail"
    assert _names_the_vector(alg, res.witness, g)


def test_pi_homomorphism_catches_a_perturbed_operator_the_formulas_do_not_read(
        tmp_path):
    # pi(X[1100]) + z in the symbolic memo: X[1100] is no Chevalley
    # generator, so the two commutator formulas, reduced to the generators,
    # never read it; the reduction's hypothesis pi_homomorphism does, first
    # at the pair whose bracket is X[1100]
    session = _d4_session(tmp_path)
    alg, calc = session.alg, session.calc
    bad = alg.names.index("X[1100]")
    assert bad not in alg.chevalley_generators
    calc._memo_pi_basis[(bad,)] = (calc.pi_basis(bad)
                                   + calc.var(alg.x_minus_gamma))
    for name in _FORMULAS:
        assert run_single(session, name).status == "pass"
    res = run_single(session, "pi_homomorphism")
    assert res.status == "fail"
    assert res.witness == {"pair": ["X[1000]", "X[0100]"]}


@pytest.mark.parametrize("label", ["A2", "E6"])
def test_system_scope_off_d4_raises_no_engine_error(tmp_path, label):
    # a check that raises is reported as a failure with an "error" witness;
    # on the system scopes without a unique special value every check must
    # pass, fail or skip on its own terms
    report = run_suite(SuiteConfig(type_label=label, expect_system=True,
                                   cache_dir=str(tmp_path)))
    assert [c.name for c in report.checks if "error" in c.witness] == []


def test_nbar_commutant_catches_a_perturbed_right_action(tmp_path):
    session = _d4_session(tmp_path)
    alg, calc, env = session.alg, session.calc, session.env
    bad = alg.nbar_indices[-1]
    for xb in alg.nbar_indices:   # keep pi itself unperturbed
        calc.pi_basis(xb)
    r_gen = calc.r_gen
    calc.r_gen = lambda g: r_gen(g) + calc.var(bad) if g == bad else r_gen(g)
    res = run_single(session, "nbar_commutant")
    assert res.status == "fail"
    assert res.witness["monomial"] == env.format({((bad, 1),): 1})


def test_nbar_checks_catch_a_perturbed_operator_off_the_generators(tmp_path):
    # b is read on q only: an opposite-radical operator that is no Chevalley
    # generator, pi(X_-gamma), is covered by nbar_commutant and
    # pi_homomorphism, which both see a coordinate added to it
    session = _d4_session(tmp_path)
    alg, calc = session.alg, session.calc
    bad = alg.x_minus_gamma
    assert bad in alg.nbar_indices and bad not in alg.chevalley_generators
    for name in ("nbar_commutant", "pi_homomorphism"):
        assert run_single(session, name).status == "pass"
    pi_basis = calc.pi_basis
    calc.pi_basis = (lambda i: pi_basis(i) + calc.var(bad) if i == bad
                     else pi_basis(i))
    res = run_single(session, "nbar_commutant")
    assert res.status == "fail"
    assert res.witness["vector"] == alg.names[bad]
    res = run_single(session, "pi_homomorphism")
    assert res.status == "fail"
    g, y = (alg.names.index(name) for name in res.witness["pair"])
    assert bad == y or bad in dict(alg.table[g][y])


def test_reducibility_witness_catches_a_wrong_action_at_each_generator(tmp_path):
    session = _d4_session(tmp_path)
    alg, vm = session.alg, session.verma
    assert run_single(session, "reducibility_witness").status == "pass"
    act_basis = vm.act_basis

    def wrong_at(g):
        # adds the cyclic vector, which is never in the image of a cubic
        # element under a generator (grade -1, 0 or 1)
        def wrong(i, v):
            v0, v1 = act_basis(i, v)
            return (elt_add(v0, {(): Q(1)}), v1) if i == g else (v0, v1)
        return wrong

    for g in alg.chevalley_generators:
        vm.act_basis = wrong_at(g)
        res = run_single(session, "reducibility_witness")
        assert res.status == "fail"
        assert res.witness["vector"] == alg.names[g]


def test_reducibility_witness_reads_the_coroot_on_the_cyclic_vector(tmp_path):
    # h_gamma.1 perturbed to (2s - 3) 1, the span's scalar: the cyclic
    # vector's eigenvalue at s* then equals the span's
    session = _d4_session(tmp_path)
    alg, env, vm = session.alg, session.env, session.verma
    res = run_single(session, "reducibility_witness")
    assert res.status == "pass"
    assert (res.witness["span_eigenvalue"], res.witness["cyclic_eigenvalue"]) \
        == ("-5", "-2")
    act = vm.act

    def perturbed(x, v):
        v0, v1 = act(x, v)
        if x == alg.h_gamma and v == env.one():
            v0 = elt_add(v0, {(): Q(-3)})
        return v0, v1

    vm.act = perturbed
    res = run_single(session, "reducibility_witness")
    assert res.status == "fail"
    assert res.witness == {"element": "1", "scalar": "2s"}


@pytest.mark.parametrize("target", ["grade -1", "Levi"])
def test_reducibility_witness_proves_the_degree_floor_on_the_nbar_bracket(
        tmp_path, target):
    # one entry [Y_x, Y_y] of a copy of the table, zero in the true one, set
    # to a grade -1 vector (weight 1, not 2) or to a Levi vector (outside
    # nbar): U(nbar) is then not graded by weight, and the check names the
    # pair
    session = _d4_session(tmp_path)
    alg = session.alg
    assert run_single(session, "reducibility_witness").status == "pass"
    x, y = next((x, y) for x in alg.v_minus for y in alg.v_minus
                if x != y and not alg.table[x][y])
    k = alg.v_minus[0] if target == "grade -1" else alg.l_indices[0]
    session.alg = _with_rows(alg, {(x, y): ((k, 1),)})
    res = run_single(session, "reducibility_witness")
    assert res.status == "fail"
    assert res.witness == {"pair": [alg.names[x], alg.names[y]]}


def test_cubic_nonzero_reports_the_weighted_degree(tmp_path):
    # Z Y Y has PBW degree 3 but weighted degree 4: the witness shows the
    # degree the check tested
    session = _d4_session(tmp_path)
    alg = session.alg
    assert run_single(session, "cubic_nonzero").status == "pass"
    y = alg.v_minus[0]
    gens = list(session.omega3_gens)
    gens[0] = {**gens[0], ((alg.x_minus_gamma, 1), (y, 2)): Q(1)}
    session.omega3_gens = gens
    res = run_single(session, "cubic_nonzero")
    assert res.status == "fail"
    assert res.witness == {"index": alg.names[alg.v_minus[0]],
                           "weighted_degree": 4}


def test_b_matrix_reads_levi_functionals_the_special_value_set_does_not(
        tmp_path):
    # one Levi-row functional moved off the span: b(Z) has no column k, and
    # the nilradical rows, all operator_special_value_set reads, are intact
    session = _d4_session(tmp_path)
    alg = session.alg
    z, k = alg.l_indices[0], 2
    assert z in alg.q_generators
    funcs = dict(session.symbolic_functionals)
    den, func = funcs[(z, k)]
    d0 = next(iter(session.functional_span.col))
    a0, a1 = func.get(d0, (0, 0))
    funcs[(z, k)] = (den, {**func, d0: (a0 + den, a1)})
    session.symbolic_functionals = funcs
    assert run_single(session, "operator_special_value_set").status == "pass"
    res = run_single(session, "b_matrix")
    assert res.status == "fail"
    assert res.witness == {"reason": "commutator functional outside the span",
                           "basis_vector": alg.names[z], "column": k}


def test_module_checks_build_no_fraction_but_the_candidate_root(tmp_path,
                                                                monkeypatch):
    # the module side holds ints end to end: with the cubic and quadratic
    # elements built, the five module-side checks of a D5 control run build
    # one Fraction, the candidate root linalg.common_root forms from the
    # stability constraints, where the rational action built 1841
    session = Session(SuiteConfig(type_label="D5", expect_system=False,
                                  cache_dir=str(tmp_path)))
    session.omega3_gens, session.quadratic_elements
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append([frame.name for frame in traceback.extract_stack()])
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    names = ("verma_representation", "first_level_action", "quadratic_weight",
             "quadratic_equivariance", "no_special_value")
    results = [run_single(session, name) for name in names]
    monkeypatch.undo()
    assert [r.status for r in results] == ["pass"] * 5
    assert results[-1].witness["constraints"] > 0
    assert len(built) == 1 and "common_root" in built[0]


def _suite_work_counts(monkeypatch, config):
    """Calls of the counted engine functions over one run_suite, whose
    checks must all pass; a function never called is absent."""
    from confsys import diffops, pbw, verma
    counts = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(verma.Span, "eliminate")
    counted(diffops.PolyDiffOp, "commutator")
    counted(diffops, "commutator_at_identity")
    counted(pbw.Enveloping, "mono_times_gen")
    report = verify.run_suite(config)
    assert all(c.status == "pass" for c in report.checks)
    return counts


def test_d4_suite_work_counts(tmp_path, monkeypatch):
    # eliminations: action matrices 152 (19 q vectors x 8 cubic elements, of
    # which the stability solve reads the 64 under the 8 generators of q),
    # b matrices 64 (8 q generators x 8 functionals: b is read on the
    # generators of q only); first_level_action, the first-order formula and
    # induced_bridge_small read the closed-form first-level images
    # (verify._first_level_image) and eliminate nothing; commutators: the
    # first-level table 80 (8
    # Chevalley generators x 10 operators, s symbolic), read by
    # induced_bridge_small and the first-order formula, the cubic ones 64,
    # formed once for induced_bridge_cubic and structure_operator,
    # pi_homomorphism 216, nbar_commutant 90 and the quadratic formula 80;
    # functionals 16 x 8 (the 9 nilradical rows and the 8 generators of q
    # share one); PBW products 138, with the recursion, all in
    # reducibility_witness's reference products X_y * w3 (4 opposite-radical
    # Chevalley generators x 8 cubic elements): the quadratic and cubic maps
    # multiply in U(nbar) in closed form (pbw.heisenberg_times), and the
    # degree floor reads the nbar bracket table, not products of nbar
    # monomials
    counts = _suite_work_counts(monkeypatch, SuiteConfig(
        type_label="D4", cache_dir=str(tmp_path)))
    assert counts == {"eliminate": 216, "commutator": 530,
                      "commutator_at_identity": 128, "mono_times_gen": 138}


def test_a3_control_work_counts(tmp_path, monkeypatch):
    # a control run eliminates only in the stability solve: 6 generators of
    # q x 4 cubic elements; first_level_action, which solved its span too
    # (6 x 6 more), now reads its explicit images, and no operator is formed
    counts = _suite_work_counts(monkeypatch, SuiteConfig(
        type_label="A3", expect_system=False, cache_dir=str(tmp_path)))
    assert counts == {"eliminate": 24}


def _doubled_at(fn, bad):
    """fn with its value at bad doubled, elsewhere unchanged."""
    return lambda i: elt_scale(fn(i), 2) if i == bad else fn(i)


def test_picture_consistency_catches_a_perturbed_quadratic_element(tmp_path):
    # the cubic operators are built before the mutant; only the right-hand
    # side, sum_e R(X_-e) o R(omega2([X_e, Y])), reads the doubled element
    session = _d4_session(tmp_path)
    alg, om = session.alg, session.omega
    assert run_single(session, "picture_consistency").status == "pass"
    y0 = alg.v_minus[-1]
    w0 = next(w for e in alg.v_plus for w, _ in alg.table[e][y0]
              if om.omega2_ints(w))
    first = next(y for y in alg.v_minus
                 if any(w0 in dict(alg.table[e][y]) for e in alg.v_plus))
    om.omega2_ints = _doubled_at(om.omega2_ints, w0)
    res = run_single(session, "picture_consistency")
    assert res.status == "fail"
    assert res.witness["index"] == alg.names[first]


def test_quadratic_commutator_formula_catches_a_perturbed_operator(tmp_path):
    # pi(x0) + z at the grade +1 Chevalley generator x0 fails both formulas
    # at x0: z commutes with the operator 1 only, among the first-order right
    # actions, and with no quadratic one.  The first-order formula reads the
    # first-level commutator table, s symbolic, so z enters there as [z, D];
    # the quadratic formula reads pi_special
    session = _d4_session(tmp_path)
    alg, calc = session.alg, session.calc
    names = ("first_order_commutator_formula", "quadratic_commutator_formula")
    assert all(run_single(session, name).status == "pass" for name in names)
    x0 = alg.names.index("X[0100]")
    assert x0 in alg.chevalley_generators and alg.grade[x0] == 1
    z = calc.var(alg.x_minus_gamma)
    table, pi_special = session.first_level_commutator, session.pi_special
    session.first_level_commutator = lambda i: [
        c + z.commutator(op) for c, op in zip(table(i), session.first_level_ops)
    ] if i == x0 else table(i)
    session.pi_special = lambda i: pi_special(i) + z if i == x0 else pi_special(i)
    for name, mismatches in zip(names, (9, 10)):
        res = run_single(session, name)
        assert res.status == "fail"
        assert (res.witness["vector"], res.witness["mismatches"]) \
            == ("X[0100]", mismatches), name


def test_quadratic_commutator_formula_catches_a_perturbed_quadratic_element(
        tmp_path):
    # doubling the table entry R(omega2(W0)) changes the column W of a
    # Chevalley generator Y only where W = W0 or W0 is in the Levi part of
    # [AdInv(Y), W]; the first column to fail is one of the latter, where
    # only the right-hand side reads the entry of W0
    session = _d4_session(tmp_path)
    alg, calc = session.alg, session.calc
    assert run_single(session, "quadratic_commutator_formula").status == "pass"
    ops = session.quadratic_ops
    w0 = next(w for w in alg.l_indices if alg.root_of[w] is not None and ops[w])
    session.quadratic_ops = {**ops, w0: ops[w0] * 2}
    res = run_single(session, "quadratic_commutator_formula")
    assert res.status == "fail"
    y = alg.names.index(res.witness["vector"])
    w = alg.l_indices[res.witness["column"]]
    assert w != w0 and w0 in alg.bracket_elem(calc.ad_inverse(y), {w: 1})
