"""Mutation tests: each row is a slip in ``collapselab`` that a criterion must
catch (DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).

A test copies ``src/collapselab`` to a temporary directory, applies one row
as an exact string replacement, runs the criterion's experiments and
``report`` through ``collapselab.cli.main`` in a subprocess that imports the
copy, and asserts that the criterion reads FAIL.  The unmutated copy must
PASS, so a FAIL is the mutant's doing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "collapselab"

# name -> (file, original text, mutated text, criterion it must FAIL)
MUTANTS = {
    "holder lhs exponent 2/n -> 1/n": (
        "conformal.py", "* dmu_hat) ** (2.0 / n)", "* dmu_hat) ** (1.0 / n)", 8),
    "holder rhs volume exponent 1-2/n -> 1-1/n": (
        "conformal.py", "vol ** (1.0 - 2.0 / n)", "vol ** (1.0 - 1.0 / n)", 8),
    "holder factor 2 on the rhs": (
        "conformal.py", "rhs = grid.integrate(", "rhs = 2.0 * grid.integrate(", 8),
    "holder rhs sums |s|": (
        "conformal.py", "grid.integrate(s_field * dmu_hat)",
        "grid.integrate(np.abs(s_field) * dmu_hat)", 8),
    "stencil u_plus read as u_minus": (
        "conformal.py", "np.roll(u, 1, ax) - np.roll(u, -1, ax)",
        "np.roll(u, 1, ax) - np.roll(u, 1, ax)", 8),
    "negative case ell doubled": (
        "conformal.py", "(n - 1) * ell * laplacian(grid, u) / u)",
        "(n - 1) * 2.0 * ell * laplacian(grid, u) / u)", 8),
    "negative case Delta u / u^2": (
        "conformal.py", "laplacian(grid, u) / u)", "laplacian(grid, u) / u**2)", 8),
    "stencil h not squared": (
        "conformal.py", "np.roll(u, -1, ax)) / h**2", "np.roll(u, -1, ax)) / h", 8),
    "holder volume weight u^p -> u^2": (
        "conformal.py", "dmu_hat = u ** (2.0 * n / (n - 2))", "dmu_hat = u**2", 8),
}

# slips in the radial engine, each caught by criteria 1 and 2
_ENGINE_MUTANTS = {
    "structure sign -2 -> -1": (
        "radial.py", "STRUCTURE_SIGN = -2.0", "STRUCTURE_SIGN = -1.0"),
    "Koszul sign of C_bca flipped": (
        "frame_curvature.py", "0.5 * (struct - c_bca + c_cab)", "0.5 * (struct + c_bca + c_cab)"),
    "E_0 step sign flipped on b = 0": (
        "frame_curvature.py", "-= dgamma", "+= dgamma"),
}
MUTANTS.update({f"{name}, {preset}": (*row, criterion)
                for name, row in _ENGINE_MUTANTS.items()
                for preset, criterion in (("Eguchi-Hanson", 1), ("Burns", 2))})

# slips in the cutoff decay, caught by criterion 3
MUTANTS.update({
    "cap sup norms scale as eps^3": (
        "cutoff.py", "eps2 = family.epsilon**2", "eps2 = family.epsilon**3", 3),
    "decay fit of log eps against log sup": (
        "cutoff.py", "np.polyfit(logs[:, 0], logs[:, 1], 1)",
        "np.polyfit(logs[:, 1], logs[:, 0], 1)", 3),
})

# the experiment runs whose summaries each criterion reads
RUNS = {
    1: [["curvature", "preset=eguchi-hanson", "samples=50"]],
    2: [["curvature", "preset=burns", "samples=50"]],
    3: [["decay", "base=eguchi-hanson"], ["decay", "base=burns"]],
    8: [["yamabe", "n=8", "max_iters=0"]],
}

_SCRIPT = """
import json
import sys
from collapselab.cli import main
out = sys.argv[1]
for experiment, *overrides in json.loads(sys.argv[2]):
    assert main([experiment, "--out", out, *overrides]) == 0
assert main(["report", "--out", out]) in (0, 1)
"""


def _status(tmp_path: Path, criterion: int, mutant=None) -> str:
    """Criterion ``criterion`` of ``report`` over a copy of the package with
    ``mutant`` (file, old, new) applied."""
    package = tmp_path / "src" / "collapselab"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        name, old, new = mutant
        path = package / name
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} is not unique in {name}"
        path.write_text(text.replace(old, new))
    out = tmp_path / "runs"
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out), json.dumps(RUNS[criterion])],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((out / "report.json").read_text())["criteria"]
    return next(row["status"] for row in rows if row["criterion"] == criterion)


@pytest.mark.parametrize("criterion", sorted(RUNS))
def test_unmutated_copy_passes(tmp_path, criterion):
    assert _status(tmp_path, criterion) == "PASS"


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_criterion(tmp_path, name):
    name_of_file, old, new, criterion = MUTANTS[name]
    assert _status(tmp_path, criterion, (name_of_file, old, new)) == "FAIL"
