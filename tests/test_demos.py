"""The numbered demos run to completion against the source tree under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rfpls

_DEMOS = Path(__file__).resolve().parent.parent / "demos"
_SRC_DIR = Path(rfpls.__file__).resolve().parent.parent
# Demo 05 runs a Monte Carlo experiment and is left out for its run time.
_QUICK = sorted(_DEMOS.glob("0[1-4]_*.py"))


def test_quick_demos_are_found():
    assert len(_QUICK) == 4


@pytest.mark.parametrize("demo", _QUICK, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
