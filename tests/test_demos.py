"""Every demo runs to completion as a plain script."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env={**child_env(), "MPLBACKEND": "Agg"},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "04_empty_regions.py":
        assert "sits inside 0 regions" in proc.stdout


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"
