"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py patches confsys functions by name from outside the
package, so renaming one of them breaks `perfbench/run.py --trace 1` without
failing anything in confsys itself.  Installing and removing the tracer in a
fresh interpreter catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
"""


def test_tracer_installs_and_uninstalls():
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
