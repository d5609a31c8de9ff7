"""scripts/run_verify.py: one JSON report per run, exit code from the verdicts.

The battery is cut to the rank-3 control, so both runs stay inexpensive.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verify.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_verify", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_control_battery_writes_reports_and_passes(tmp_path, monkeypatch, capsys):
    script = _load_script()
    monkeypatch.setattr(script, "RUNS", (("A3", False),))
    assert script.main(["--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify-A3.json").read_text())
    assert report["schema_version"] == 1
    assert report["algebra"]["label"] == "A3"
    assert "A3" in capsys.readouterr().out


def test_skipped_system_checks_fail_the_battery(tmp_path, monkeypatch):
    script = _load_script()
    monkeypatch.setattr(script, "RUNS", (("A3", True),))
    assert script.main(["--out", str(tmp_path)]) == 1
    assert (tmp_path / "verify-A3.json").exists()
