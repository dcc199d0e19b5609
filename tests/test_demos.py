"""Every narrative script under demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ghzsense

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("[0-9][0-9]_*.py")))
def test_demo_runs(tmp_path, name):
    script = DEMOS / name
    if name.startswith("05_"):
        # it writes demos_output/ next to itself, so run a copy outside the checkout
        script = Path(shutil.copy(script, tmp_path))
    src = str(Path(ghzsense.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
