"""Serializable verification report: round-trips and status accounting."""

from fractions import Fraction as Q

import pytest

from confsys.report import (SCHEMA_VERSION, CheckResult, SpecialValueFindings,
                            VerificationReport, qstr)


def _sample(statuses):
    checks = [CheckResult(name=f"check_{i}", statement=f"statement {i}",
                          status=st, witness={"detail": i}, wall_time_s=0.25)
              for i, st in enumerate(statuses)]
    findings = SpecialValueFindings(values=["-1"], all_s=False,
                                    levi_stable_all_s=True, failure_mode=None,
                                    module_parameter="-1",
                                    bundle_parameter="1")
    return VerificationReport(schema_version=SCHEMA_VERSION,
                              algebra={"family": "D", "rank": 4},
                              expect_system=True, seed=212,
                              graded_dims=[1, 8, 10, 8, 1],
                              deleted_components=[[1], [3], [4]],
                              special_values=findings, checks=checks)


def test_qstr_renders_exact_rationals():
    assert qstr(Q(-1)) == "-1"
    assert qstr(Q(2, 6)) == "1/3"


def test_ok_requires_all_passes_and_no_skips():
    assert _sample(["pass", "pass"]).ok
    assert not _sample(["pass", "fail"]).ok
    assert not _sample(["pass", "skipped"]).ok
    assert _sample(["pass", "pass", "pass"]).counts == {
        "pass": 3, "fail": 0, "skipped": 0}
    assert _sample(["pass", "fail", "skipped"]).counts == {
        "pass": 1, "fail": 1, "skipped": 1}


def test_json_round_trip():
    rep = _sample(["pass", "fail", "skipped"])
    again = VerificationReport.loads(rep.dumps())
    assert again == rep
    assert again.special_values.values == ["-1"]
    assert again.checks[1].witness == {"detail": 1}


def test_round_trip_without_findings():
    rep = _sample(["pass"])
    rep.special_values = None
    again = VerificationReport.loads(rep.dumps())
    assert again == rep
    assert again.special_values is None


def test_schema_guard():
    rep = _sample(["pass"])
    payload = rep.to_json()
    payload["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        VerificationReport.from_json(payload)


FROZEN_LAYOUT = """\
{
  "schema_version": 1,
  "algebra": {
    "family": "D",
    "rank": 4
  },
  "expect_system": true,
  "seed": 212,
  "graded_dims": [
    1,
    8,
    10,
    8,
    1
  ],
  "deleted_components": [
    [
      1
    ],
    [
      3
    ],
    [
      4
    ]
  ],
  "special_values": {
    "values": [
      "-1"
    ],
    "all_s": false,
    "levi_stable_all_s": true,
    "failure_mode": null,
    "module_parameter": "-1",
    "bundle_parameter": "1"
  },
  "checks": [
    {
      "name": "check_0",
      "statement": "statement 0",
      "status": "pass",
      "witness": {
        "detail": 0
      },
      "wall_time_s": 0.25
    }
  ]
}"""


def test_json_layout_is_frozen():
    # key names and key order of schema_version 1, byte for byte
    assert _sample(["pass"]).dumps() == FROZEN_LAYOUT
