"""Check registry, scoping, and the skip/fail paths of the suite runner."""

from fractions import Fraction as Q
from functools import reduce

import pytest

from confsys.linalg import common_root, solve
from confsys.pbw import elt_add, elt_scale, elt_sub
from confsys.poly import Poly, poly_gcd, rational_roots
from confsys.verify import (CHECKS, EXPECTED, CheckFailure, Session,
                            SuiteConfig, _contraction_data,
                            _levi_equivariance, available_checks, run_single,
                            run_suite)
from confsys.verma import elt_subs


def test_registry_scopes_are_exhaustive():
    scopes = {scope for scope, _, _ in CHECKS.values()}
    assert scopes == {"core", "system", "control"}
    by_scope = {s: [n for n, (sc, _, _) in CHECKS.items() if sc == s]
                for s in scopes}
    system_run = available_checks(True)
    control_run = available_checks(False)
    assert set(system_run) == set(by_scope["core"]) | set(by_scope["system"])
    assert set(control_run) == set(by_scope["core"]) | set(by_scope["control"])
    # report order matches registration order
    assert system_run == [n for n in CHECKS if n in set(system_run)]


def test_every_check_has_a_statement():
    for name, (_, statement, fn) in CHECKS.items():
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


@pytest.mark.parametrize("label", ["D4", "A3"])
def test_levi_equivariance_holds_off_the_special_value(tmp_path, label):
    # Z.e at s0 plus (1 - s0) dchi(Z) e is s0-independent, so the identity
    # holds at a value that is special for neither element family
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om, s0 = session.alg, session.omega, Q(5, 2)
    n_levi, n_gens = len(alg.l_indices), len(_levi_generators(alg))
    assert _levi_equivariance(session, session.quadratic_elements,
                              om.omega2, s0) == {"generators": n_gens,
                                                 "pairs": n_gens * n_levi}
    assert _levi_equivariance(session, session.cubic_elements,
                              om.omega3, s0) == {
        "generators": n_gens, "pairs": n_gens * len(alg.v_minus)}
    assert _levi_equivariance_reference(session, session.quadratic_elements,
                                        om.omega2, s0) == n_levi * n_levi


def _levi_generators(alg) -> list[int]:
    return [z for z in alg.q_generators if alg.grade[z] == 0]


def _levi_equivariance_reference(s: Session, elements, build, s0) -> int:
    """_levi_equivariance acting by every Levi basis vector, not only by the
    generators of l; returns the pair count."""
    alg, vm = s.alg, s.verma
    for z in alg.l_indices:
        shift = (1 - s0) * alg.dchi({z: Q(1)})
        for w, e in elements.items():
            rhs = elt_add(elt_subs(vm.act({z: Q(1)}, e), s0),
                          elt_scale(e, shift))
            if elt_sub(build(dict(alg.bracket(z, w))), rhs):
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
    assert _levi_equivariance(session, elements, session.omega.omega2,
                              Q(0)) == {"generators": n_gens,
                                        "pairs": n_gens * n_levi}


def test_cubic_levi_equivariance_agrees_with_all_pairs_reference(tmp_path):
    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    alg, elements, sstar = session.alg, session.cubic_elements, Q(-1)
    assert session.sstar == sstar
    n_gens = len(_levi_generators(alg))
    assert _levi_equivariance_reference(session, elements, session.omega.omega3,
                                        sstar) == 10 * 8
    assert _levi_equivariance(session, elements, session.omega.omega3,
                              sstar) == {"generators": n_gens,
                                         "pairs": n_gens * 8}


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_levi_equivariance_catches_a_perturbed_non_generator(tmp_path, label):
    # the generators act on every element, so a wrong element at a Levi
    # vector outside the acting set is still caught
    session = Session(SuiteConfig(type_label=label, cache_dir=str(tmp_path)))
    alg, om = session.alg, session.omega
    gens = _levi_generators(alg)
    w = next(i for i in alg.l_indices if i not in gens)
    elements = dict(session.quadratic_elements)
    elements[w] = elt_add(elements[w], {((alg.v_minus[0], 1),): Q(1)})
    with pytest.raises(CheckFailure):
        _levi_equivariance_reference(session, elements, om.omega2, Q(0))
    with pytest.raises(CheckFailure) as failure:
        _levi_equivariance(session, elements, om.omega2, Q(0))
    assert failure.value.witness["pair"][1] == alg.names[w]


def test_b_matrices_match_dense_solve_reference(tmp_path):
    # the reference: for each basis vector Y, the dense matrix of the cubic
    # operators' point functionals over every derivative multi-index that
    # occurs, and one linalg.solve per commutator column
    def s_free(op):
        f0, f1 = op.at_identity()
        assert not f1
        return f0

    session = Session(SuiteConfig(type_label="D4", cache_dir=str(tmp_path)))
    funcs = [s_free(op) for op in session.omega3_ops]
    m = len(funcs)
    bmats = session.b_matrices
    assert sorted(bmats) == list(range(session.alg.dim))
    for y, bmat in bmats.items():
        comms = [s_free(session.cubic_commutator(y, i)) for i in range(m)]
        ders = sorted({d for f in funcs + comms for d in f})
        mat = [[f.get(d, Q(0)) for f in funcs] for d in ders]
        for i, comm in enumerate(comms):
            vec = [comm.get(d, Q(0)) for d in ders]
            assert [bmat[j][i] for j in range(m)] == solve(mat, vec), (y, i)
    assert any(c for bmat in bmats.values() for row in bmat for c in row)


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
    per_functional = [[(f0.get(d, 0), f1.get(d, 0)) for d in f0.keys() | f1.keys()]
                      for f0, f1 in session.symbolic_functionals.values()]
    together = [p for pairs in per_functional for p in pairs]
    for pairs in per_functional + [together]:
        assert _common_root_as_reference(pairs) == _gcd_reference(pairs), pairs
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
                inner2 = dict(alg.bracket(e_idx, y))
                acc = elt_add(acc, om.omega2(alg.bracket_elem(inner1, inner2)))
            target = om.omega2(dict(alg.bracket(x, y)))
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
