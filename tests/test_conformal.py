"""Discrete conformal geometry on the flat 4-torus."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from collapselab import conformal
from collapselab.conformal import (
    ConformalGrid,
    aubin_bound,
    conformal_scalar,
    gradient_energy_density,
    holder_gap,
    laplacian,
    minimize_yamabe,
    negative_case_check,
    yamabe_quotient,
)
from oracles import conformal_scalar_fd


@pytest.fixture
def grid():
    return ConformalGrid(16)


def test_grid_invariants():
    g = ConformalGrid(8, periods=(2.0, 1.0, 1.0, 1.0))
    assert g.cell_volume == pytest.approx(2.0 / 8**4)
    assert g.ell == 2.0
    with pytest.raises(ValueError):
        ConformalGrid(4)


def test_laplacian_annihilates_constants(grid):
    u = np.full(grid.shape, 3.7)
    assert np.max(np.abs(laplacian(grid, u))) == 0.0


def test_laplacian_eigenfunction(grid):
    u = np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    lam = (2.0 * np.pi) ** 2
    err = np.max(np.abs(laplacian(grid, u) - lam * u)) / lam
    assert err < 2e-2  # O(N^-2) for N = 16
    # the stencil's exact symbol, per axis, on an anisotropic torus
    g = ConformalGrid(12, periods=(0.7, 1.3, 1.0, 2.0))
    for ax, (h, period) in enumerate(zip(g.spacings, g.periods)):
        u = np.cos(2.0 * np.pi * g.axis_coordinate(ax) / period)
        symbol = (2.0 - 2.0 * math.cos(2.0 * np.pi * h / period)) / h**2
        assert np.max(np.abs(laplacian(g, u) - symbol * u)) <= 1e-12 * symbol


def test_laplacian_integrates_to_zero(grid):
    rng = np.random.default_rng(11)
    u = rng.random(grid.shape)
    assert abs(grid.integrate(laplacian(grid, u))) < 1e-12


def test_summation_by_parts_exact(grid):
    rng = np.random.default_rng(5)
    u = rng.random(grid.shape) + 0.5
    lhs = grid.integrate(u * laplacian(grid, u))
    rhs = grid.integrate(gradient_energy_density(grid, u))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conformal_scalar_trivial_cases(grid):
    assert np.max(np.abs(conformal_scalar(grid, np.ones(grid.shape)))) == 0.0


def test_conformal_scalar_positivity_guard(grid):
    u = np.ones(grid.shape)
    u[0, 0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        conformal_scalar(grid, u)


def test_conformal_law_matches_lattice_oracle():
    """Measured convergence order >= 1.8 as N doubles through 16, 32, 64."""
    errs = []
    for n in (16, 32, 64):
        g = ConformalGrid(n)
        u = 1.0 + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
        x = np.linspace(0.0, 1.0, n, endpoint=False)
        oracle = conformal_scalar_fd(g, 1.0 + 0.1 * np.cos(2.0 * np.pi * x))
        errs.append(float(np.max(np.abs(
            conformal_scalar(g, u) - np.broadcast_to(oracle, g.shape)))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8


def test_quotient_scale_invariance(grid):
    u = 1.0 + 0.1 * np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    q = yamabe_quotient(grid, u)
    assert q > 0.0
    for c in (1e-3, 1e3):
        assert yamabe_quotient(grid, c * u) == pytest.approx(q, rel=1e-12)
    assert yamabe_quotient(grid, np.ones(grid.shape)) == 0.0
    assert yamabe_quotient(grid, 7.0 * np.ones(grid.shape)) == 0.0


def test_descent_reaches_flat_metric(grid):
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    res = minimize_yamabe(grid, u0, max_iters=500, tol=1e-12)
    assert res.quotient_star < 1e-3
    spread = (res.u_star.max() - res.u_star.min()) / res.u_star.mean()
    assert spread < 1e-3
    qs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(qs, qs[1:]))


def test_descent_work_budget(grid, monkeypatch):
    """The descent of ``test_descent_reaches_flat_metric`` evaluates the
    quotient at most 10 times (a deterministic work counter), the energy
    once per quotient and the Laplacian once per iteration."""
    calls = {"yamabe_quotient": 0, "gradient_energy_density": 0, "laplacian": 0}
    for name in calls:
        def counting(*args, _fn=getattr(conformal, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(conformal, name, counting)
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    res = conformal.minimize_yamabe(grid, u0, max_iters=500, tol=1e-12)
    assert calls["yamabe_quotient"] <= 10
    assert calls["gradient_energy_density"] == calls["yamabe_quotient"]
    assert calls["laplacian"] == res.iterations


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_sobolev_inverse_inverts_stencil(seed):
    """The descent's H1 preconditioner is the exact inverse of
    1 + 2(n-1) ell Delta with the stencil Delta, axis by axis and spacing by
    spacing, on an anisotropic torus."""
    g = ConformalGrid(12, periods=(0.7, 1.3, 1.0, 2.0))
    field = np.random.default_rng(seed).standard_normal(g.shape)
    v = conformal._sobolev_inverse(g)(field)
    weight = 2.0 * (g.n_dim - 1) * g.ell
    residual = v + weight * laplacian(g, v) - field
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(field))


def test_descent_converges_on_anisotropic_torus():
    g = ConformalGrid(12, periods=(0.7, 1.3, 1.0, 2.0))
    u0 = (1.0 + 0.2 * np.cos(2.0 * np.pi * g.axis_coordinate(0) / 0.7)
          + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(3) / 2.0))
    res = minimize_yamabe(g, u0, max_iters=10, tol=1e-12)
    assert res.quotient_star < 1e-3
    qs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(qs, qs[1:]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(8, 11),
       st.lists(st.floats(0.5, 2.0), min_size=3, max_size=4))
def test_stencils_match_roll_reference(seed, n_points, periods):
    """The slice-add stencils are bit-identical to the np.roll formulas."""
    g = ConformalGrid(n_points, periods=tuple(periods))
    u = np.random.default_rng(seed).random(g.shape) + 0.5
    lap = np.zeros_like(u)
    energy = np.zeros_like(u)
    for ax, h in enumerate(g.spacings):
        lap += (2.0 * u - np.roll(u, 1, axis=ax) - np.roll(u, -1, axis=ax)) / h**2
        energy += ((np.roll(u, -1, axis=ax) - u) / h) ** 2
    assert np.array_equal(laplacian(g, u), lap)
    assert np.array_equal(gradient_energy_density(g, u), energy)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_descent_properties_from_random_starts(seed, max_iters):
    """From any positive start the trace never increases, and the result is
    positive, of unit conformal volume, with the quotient the trace ends on."""
    g = ConformalGrid(8)
    u0 = np.random.default_rng(seed).random(g.shape) + 0.05
    res = minimize_yamabe(g, u0, max_iters=max_iters, tol=0.0)
    qs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(qs, qs[1:]))
    assert np.all(res.u_star > 0.0)
    p = 2.0 * g.n_dim / (g.n_dim - 2)
    assert abs(g.integrate(res.u_star**p) - 1.0) <= 1e-12
    assert yamabe_quotient(g, res.u_star) == pytest.approx(qs[-1], rel=1e-12)


def test_descent_constant_start_converges_immediately(grid):
    res = minimize_yamabe(grid, np.ones(grid.shape))
    assert res.iterations == 0
    assert res.converged


def test_descent_monotone_from_random_start():
    g = ConformalGrid(8)
    rng = np.random.default_rng(2)
    res = minimize_yamabe(g, rng.random(g.shape) + 0.5, max_iters=50, tol=0.0)
    qs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(qs, qs[1:]))


def test_descent_trace_csv(grid):
    res = minimize_yamabe(grid, np.ones(grid.shape))
    lines = res.trace_csv().splitlines()
    assert lines[0] == "iteration,quotient,step"


def test_holder_gap_cases(grid):
    u = 1.0 + 0.1 * np.cos(2.0 * np.pi * grid.axis_coordinate(1))
    const = np.full(grid.shape, 2.0)
    assert holder_gap(grid, const, u)["gap"] == pytest.approx(0.0, abs=1e-12)
    zero = np.zeros(grid.shape)
    out = holder_gap(grid, zero, u)
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0
    signed = np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    assert holder_gap(grid, signed, u)["gap"] > 0.0


def test_holder_gap_property_sweep():
    g = ConformalGrid(8)
    rng = np.random.default_rng(17)
    worst = math.inf
    for _ in range(1000):
        s_field = rng.standard_normal(g.shape)
        u = rng.random(g.shape) + 0.5
        worst = min(worst, holder_gap(g, s_field, u)["gap"])
    assert worst >= -1e-12


def test_negative_case_check(grid):
    assert negative_case_check(grid, np.ones(grid.shape)) == 0.0
    u = 1.0 + 0.3 * np.cos(2.0 * np.pi * grid.axis_coordinate(1))
    assert negative_case_check(grid, u) < -1e-3
    g = ConformalGrid(8)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.random(g.shape) + 0.5
        assert negative_case_check(g, u) <= 1e-12
    u_near = 1.0 + 1e-7 * rng.random(g.shape)
    assert abs(negative_case_check(g, u_near)) < 1e-8


def test_aubin_bound_values():
    assert aubin_bound(2) == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert aubin_bound(3) == pytest.approx(6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0))
    assert aubin_bound(4) == pytest.approx(12.0 * math.sqrt(8.0 * math.pi**2 / 3.0))
    # n(n-1)|S^n|^(2/n), with sphere measures by the recursion
    # |S^n| = |S^(n-1)| * int_0^pi sin^(n-1) by independent quadrature
    area = 2.0 * math.pi
    for n in (2, 3, 4):
        with warnings.catch_warnings():
            # the explicit error-estimate check below replaces the roundoff nag
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            integral, err = integrate.quad(lambda t: math.sin(t) ** (n - 1),
                                           0.0, math.pi, epsabs=1e-14, epsrel=1e-14)
        assert err < 1e-12
        area *= integral
        assert aubin_bound(n) == pytest.approx(n * (n - 1) * area ** (2.0 / n), rel=1e-12)
    with pytest.raises(ValueError):
        aubin_bound(1)
