"""Command line interface: exit codes, report output, usage errors.

The fast rank-3 control keeps these end-to-end runs inexpensive; the full
positive run is exercised by the acceptance suite.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from confsys import cli
from confsys.cli import main
from confsys.report import VerificationReport


def _verify_a3(tmp_path, *extra):
    return main(["verify", "--type", "A3", "--expect-no-omega3",
                 "--cache-dir", str(tmp_path / "cache"), *extra])


def test_control_run_passes_and_prints_summary(tmp_path, capsys):
    assert _verify_a3(tmp_path) == 0
    out = capsys.readouterr().out
    assert "algebra A3" in out
    assert "graded dims [1, 4, 5, 4, 1]" in out
    assert "special values: none" in out
    assert "expected outcome: no cubic system" in out
    assert "result: OK" in out
    assert "FAIL" not in out.replace("result: OK", "")
    assert re.search(r"PASS no_special_value", out)


def test_emit_json_round_trips(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert _verify_a3(tmp_path, "--emit-json", str(out_path)) == 0
    rep = VerificationReport.loads(out_path.read_text())
    assert rep.ok
    assert rep.algebra["label"] == "A3"
    assert rep.graded_dims == [1, 4, 5, 4, 1]
    assert rep.special_values.values == []
    assert not rep.expect_system
    assert {c.status for c in rep.checks} == {"pass"}


def test_reports_are_deterministic_modulo_timing(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert _verify_a3(tmp_path, "--emit-json", str(p1)) == 0
    assert _verify_a3(tmp_path, "--emit-json", str(p2)) == 0
    b1, b2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    for body in (b1, b2):
        for c in body["checks"]:
            c["wall_time_s"] = 0.0
    assert b1 == b2



def test_cache_dir_that_is_a_file_does_not_stop_the_run(tmp_path, capsys):
    # the cache only saves work: an unusable location warns, and the
    # algebra is built and checked as usual
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.warns(UserWarning, match="algebra cache"):
        code = main(["verify", "--type", "A3", "--expect-no-omega3",
                     "--cache-dir", str(blocker)])
    assert code == 0
    assert "result: OK" in capsys.readouterr().out

def test_mismatched_expectation_fails(tmp_path, capsys):
    # claiming the control has a cubic system must make the run fail:
    # the system-scope checks are skipped and skipped counts as not ok
    code = main(["verify", "--type", "A3",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "SKIP" in out


def test_unknown_type_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", "--type", "Z9",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_signed_rank_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", "--type", "D+4",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    assert "cannot parse algebra label 'D+4'" in capsys.readouterr().err


def test_a1_is_a_usage_error(tmp_path, capsys):
    # sl(2) has no Heisenberg parabolic: no verdict, system or control
    for extra in ([], ["--expect-no-omega3"]):
        code = main(["verify", "--type", "A1",
                     "--cache-dir", str(tmp_path / "cache"), *extra])
        assert code == 2
        assert "type A needs rank >= 2" in capsys.readouterr().err


def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "a3.json"
    assert _verify_a3(tmp_path, "--emit-json", str(missing)) == 2
    captured = capsys.readouterr()
    assert "result: OK" in captured.out
    assert "json report written" not in captured.out
    assert captured.err.startswith("error: ")
    assert str(missing) in captured.err
    assert not missing.exists()


def test_jobs_flag_is_a_usage_error(tmp_path, capsys):
    # checks always run serially in one process; there is no --jobs
    with pytest.raises(SystemExit) as exc:
        _verify_a3(tmp_path, "--jobs", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def _assert_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err


def test_cache_build_and_clear(tmp_path, capsys):
    # the cache fills itself on first use; there is no cache subcommand
    cdir = str(tmp_path / "cache")
    _assert_usage_error(["cache", "build", "--type", "A3", "--cache-dir", cdir],
                        capsys)
    _assert_usage_error(["cache", "clear", "--cache-dir", cdir], capsys)
    assert not (tmp_path / "cache").exists()


def test_cache_build_requires_type(capsys):
    # without --type the deleted subcommand is rejected the same way
    _assert_usage_error(["cache", "build"], capsys)


_OPERATOR_MODULES = """
import json
import sys
from confsys.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [
    name for name in ("confsys.diffops", "confsys.system")
    if name in sys.modules]}))
"""


@pytest.mark.parametrize("scope,loaded", [
    (["--type", "A3", "--expect-no-omega3"], []),
    (["--type", "D4"], ["confsys.diffops", "confsys.system"])])
def test_only_a_system_run_loads_the_operator_code(tmp_path, scope, loaded):
    # a fresh interpreter: a control run never imports the induced-picture
    # operators or the system checks, and a system run imports both
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _OPERATOR_MODULES, "verify", *scope,
         "--cache-dir", str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0,
                                                        "loaded": loaded}
