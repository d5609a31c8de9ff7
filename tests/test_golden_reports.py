"""Golden reports: the verdicts of every type with a verify.EXPECTED row
(D4, A3, D5, D6, D7 and D8) frozen apart from timings: the D4 system and
every control of the verification battery.

The frozen view of a report is its graded dimensions, deleted components,
special-value findings and each check's (name, statement, status,
witness), at the default seed.  Any change to the engine must leave these
identical.

Regenerate (only for a reviewed change of verdicts or witnesses) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from confsys.verify import EXPECTED, SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
# type -> expect_system: the system scope where a special value is expected
RUNS = {f"{family}{rank}": bool(row["special_values"])
        for (family, rank), row in EXPECTED.items()}


def golden_view(type_label: str, expect_system: bool) -> dict:
    report = run_suite(SuiteConfig(type_label=type_label,
                                   expect_system=expect_system))
    body = json.loads(report.dumps())
    return {
        "graded_dims": body["graded_dims"],
        "deleted_components": body["deleted_components"],
        "special_values": body["special_values"],
        "checks": [[c["name"], c["statement"], c["status"], c["witness"]]
                   for c in body["checks"]],
    }


@pytest.mark.parametrize("type_label", list(RUNS))
def test_report_matches_golden(type_label):
    expected = json.loads(GOLDEN.read_text())[type_label]
    assert golden_view(type_label, RUNS[type_label]) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    views = {t: golden_view(t, system) for t, system in RUNS.items()}
    GOLDEN.write_text(json.dumps(views, indent=1, sort_keys=True) + "\n")
