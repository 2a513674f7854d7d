"""The demos run to completion against the package and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, header", [
    ("two_user_energy_efficiency.py", "r_far [m] |      opa |    ngdpa |     grpa |      oma"),
    ("multi_user_pairing_gains.py", "users |   channel |       qos |  adaptive"),
    ("outage_probability.py", "  cap |     opa |   ngdpa |    grpa |     oma"),
])
def test_demo_runs_and_prints_its_table(tmp_path, demo, header):
    # run from a scratch directory, where a plot lands if matplotlib is present
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert header in result.stdout.splitlines()
