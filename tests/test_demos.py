"""Every narrative script under demos/ runs to completion and prints what it
printed when its digest was recorded."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ghzsense

DEMOS = Path(__file__).resolve().parents[1] / "demos"

#: SHA-256 of each demo's stdout.  A change to the library that keeps every
#: output keeps these; one that changes what a demo prints updates its digest
#: and says why.
STDOUT_SHA256 = {
    "01_probes_and_fringes.py": "6998bdd0edbacd0e1ff4699c88cca430cd61aeef32789e67550b69ee62be0b54",
    "02_fisher_limits.py": "3ff3b74a9f5f5b95cdc6ba1511a66ca62d7d3fbf303c85ddf1906f427cc6662f",
    "03_estimation.py": "8847a17f082437d4d4574715fbb6bce01d90dd848f1103296b23b0272935eed2",
    "04_postselection.py": "c5334577076d43b0c40a7f35d9fb247424ea7a01093e4b4a7a303e4c75bcac0c",
    "05_reproduce_figures.py": "264eb31b494aaff7d22c8d2fe2773c663697d77e85575513f104482234f40e33",
}


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
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[name], result.stdout
