"""The radial quadrature rule against scipy's ``quad_vec``, which it ports.

scipy is a test-only dependency: no collapselab module may import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from collapselab.radial import _adaptive_gk21

ROOT = Path(__file__).resolve().parent.parent

# one component: (polynomial coefficients, exponential rate, frequency, phase)
_COMPONENT = st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 3.0),
)


def _mixture(components, scalar):
    """x -> [p_i(x) exp(lam_i x) cos(omega_i x + phi_i)]_i, or its only
    entry as a float when ``scalar``."""

    def f(x):
        y = np.array([np.polyval(c, x) * np.exp(lam * x) * np.cos(om * x + ph)
                      for c, lam, om, ph in components])
        return y[0] if scalar else y

    return f


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(_COMPONENT, min_size=1, max_size=3),
    st.booleans(),
    st.floats(-5.0, 5.0),
    st.floats(1e-3, 10.0),
    st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12, 1e-13]),
)
def test_gk21_matches_quad_vec_bit_for_bit(components, scalar, a, length, tol):
    f = _mixture(components, scalar and len(components) == 1)
    b = a + length
    val, err, status = _adaptive_gk21(f, a, b, tol)
    ref, ref_err, info = quad_vec(f, a, b, epsabs=tol, epsrel=tol, norm="max",
                                  full_output=True)
    assert np.shape(val) == np.shape(ref)
    assert np.array_equal(val, ref)
    assert err == ref_err
    assert status == info.status


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_COMPONENT, min_size=1, max_size=3), st.floats(0.0, 5.0))
def test_semi_infinite_range_agrees_with_quad_vec(components, a):
    """quad_vec switches to a 15-point rule on [a, inf), the port keeps the
    21-point one, so the two agree within their reported errors."""
    # every rate at most -0.5; past x = 1400 each term is below 1e-290 and
    # is taken as 0.0 (there the cubic alone would overflow near t = 0)
    mixture = _mixture([(c, -abs(lam) - 0.5, om, ph) for c, lam, om, ph in components], False)

    def f(x):
        return mixture(x) if x <= 1400.0 else np.zeros(len(components))

    val, err, status = _adaptive_gk21(f, a, np.inf, 1e-10)
    ref, ref_err, info = quad_vec(f, a, np.inf, epsabs=1e-10, epsrel=1e-10, norm="max",
                                  full_output=True)
    assert status == info.status == 0
    assert np.max(np.abs(val - ref)) <= err + ref_err


def test_no_collapselab_module_imports_scipy():
    code = (
        "import importlib, pkgutil, sys\n"
        "import collapselab\n"
        "for m in pkgutil.iter_modules(collapselab.__path__, 'collapselab.'):\n"
        "    importlib.import_module(m.name)\n"
        "assert 'scipy' not in sys.modules, sorted(k for k in sys.modules if 'scipy' in k)\n"
        "print(len(list(pkgutil.iter_modules(collapselab.__path__))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 11  # every module was imported
