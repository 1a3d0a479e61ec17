"""The narrative demos run to completion from a source checkout, exactly as
README shows them: ``PYTHONPATH=src python3 demos/<name>.py``.

``05_conformal_yamabe`` is left out: its full Yamabe descent takes 90 s on
a 2-CPU host, and the same descent is covered by acceptance criterion 9.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_radial_curvature",
    "02_cutoff_decay",
    "03_submersion_collapse",
    "04_glued_collapse",
    "06_characteristic_classes",
    "07_surface_classifier",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_every_demo_is_listed_or_excluded():
    present = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
    assert present == sorted(DEMOS + ["05_conformal_yamabe"])
