"""Discrete conformal geometry on the flat 4-torus."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from collapselab import cli, conformal
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
    assert g.n_points == g.shape == (8, 8, 8, 8)
    assert ConformalGrid(np.int64(9)).n_points == (9, 9, 9, 9)
    # one count per axis
    g = ConformalGrid((16, 8, 10, 9), periods=(2.0, 1.0, 0.5, 1.0))
    assert g.shape == (16, 8, 10, 9)
    assert g.spacings == (2.0 / 16, 1.0 / 8, 0.5 / 10, 1.0 / 9)
    assert g.cell_volume == 1.0 / (16 * 8 * 10 * 9)
    assert g.cell_volume == pytest.approx(math.prod(g.spacings), rel=1e-15)
    assert g.axis_coordinate(2).shape == g.shape
    assert g.axis_coordinate(3)[0, 0, 0] == pytest.approx(np.arange(9) / 9, abs=1e-15)
    for n_points, periods in ((4, (1.0,) * 4),                # too few points
                              ((8, 8, 8, 4), (1.0,) * 4),
                              (8, (1.0, 1.0)),                 # fewer than 3 axes
                              (8, (1.0,)),
                              (8.5, (1.0,) * 4),               # not an integer
                              (True, (1.0,) * 4),
                              ((8, 8.0, 8, 8), (1.0,) * 4),
                              ((8, 8, 8), (1.0,) * 4),         # counts != periods
                              ((8,) * 5, (1.0,) * 4),
                              (8, (1.0, 1.0, 0.0, 1.0))):      # nonpositive period
        with pytest.raises(ValueError):
            ConformalGrid(n_points, periods=periods)


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


def test_yamabe_quotient_checks_the_values_it_reads(grid):
    """A non-positive u is refused where the quotient reads its values:
    alone, or with only one of ``energy`` and ``volume`` given.  Given both,
    the quotient reads only u's shape, which it still checks."""
    u = np.ones(grid.shape)
    u[0, 0, 0, 0] = -1.0
    for given_values in ({}, {"energy": 0.0}, {"volume": 1.0}):
        with pytest.raises(ValueError, match="positive everywhere"):
            yamabe_quotient(grid, u, **given_values)
    assert yamabe_quotient(grid, u, energy=0.0, volume=1.0) == 0.0
    with pytest.raises(ValueError, match="field shape"):
        yamabe_quotient(grid, np.ones(3), energy=0.0, volume=1.0)


def test_conformal_law_matches_lattice_oracle():
    """Measured convergence order >= 1.8 as N doubles through 16, 32, 64, on
    (N, 8, 8, 8) lattices (u varies along x only)."""
    errs = []
    for n in (16, 32, 64):
        g = ConformalGrid((n, 8, 8, 8))
        u = 1.0 + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
        x = np.linspace(0.0, 1.0, n, endpoint=False)
        oracle = conformal_scalar_fd(g, 1.0 + 0.1 * np.cos(2.0 * np.pi * x))
        errs.append(float(np.max(np.abs(
            conformal_scalar(g, u) - np.broadcast_to(oracle, g.shape)))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8


@pytest.mark.parametrize("n", [16, 32])
def test_conformal_scalar_exact_on_constant_axes(n):
    """For u varying along x only, the stencil terms of axes 1-3 are exactly
    0.0, so conformal_scalar on the N^4 grid is its (N, 8, 8, 8) value
    broadcast, bit for bit: the conformal-law check relies on this."""
    def s_hat(g):
        return conformal_scalar(g, 1.0 + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(0)))

    full, thin = s_hat(ConformalGrid(n)), s_hat(ConformalGrid((n, 8, 8, 8)))
    line = thin[:, :1, :1, :1]
    assert np.array_equal(thin, np.broadcast_to(line, thin.shape))
    assert np.array_equal(full, np.broadcast_to(line, full.shape))


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
    quotient 5 times (a deterministic work counter): the stencil energy once,
    at the start, and each later candidate priced from its spectrum.  Per
    iteration it forms one full step and applies the Sobolev inverse once;
    every step is 1.0, so no candidate takes an rfftn of its own, and the
    Laplacian is never called.  Only the starting quotient takes its own
    u^p volume pass: every candidate's volume is passed in, the one the
    descent renormalizes by.  Positivity is one comparison pass per priced
    candidate, made by the line search, plus the start's: one of u0 and one
    of the normalized u its quotient reads."""
    calls = {"yamabe_quotient": 0, "gradient_energy_density": 0, "laplacian": 0,
             "_h1_gradient": 0, "_positive": 0}
    for name in calls:
        def counting(*args, _fn=getattr(conformal, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "yamabe_quotient" and kwargs.get("volume") is None:
                calls["without_volume"] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(conformal, name, counting)
    calls["sobolev"] = calls["field_energy"] = calls["without_volume"] = 0

    def counting_inverse(g, _fn=conformal._sobolev_inverse):
        apply, energy = _fn(g)

        def counted_apply(*args):
            calls["sobolev"] += 1
            return apply(*args)

        def counted_energy(*args):
            calls["field_energy"] += 1
            return energy(*args)
        return counted_apply, counted_energy

    monkeypatch.setattr(conformal, "_sobolev_inverse", counting_inverse)
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    res = conformal.minimize_yamabe(grid, u0, max_iters=500, tol=1e-12)
    assert res.iterations == 4
    assert calls["yamabe_quotient"] == res.iterations + 1
    assert calls["without_volume"] == 1
    assert calls["gradient_energy_density"] == 1
    assert calls["laplacian"] == 0
    assert calls["_h1_gradient"] == calls["sobolev"] == res.iterations
    assert calls["field_energy"] == 0
    assert calls["_positive"] == res.iterations + 2


def test_descent_transforms_write_into_one_workspace(grid, monkeypatch):
    """Every transform of a descent writes into storage allocated once per
    call: each rfftn, ifft and irfft stage of its 4 iterations passes an
    ``out`` array, and one array per stage serves every iteration.  Before,
    each stage allocated a fresh spectrum or lattice field."""
    outs = {"rfftn": [], "ifft": [], "irfft": []}
    for name in outs:
        def recording(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            outs[_name].append(kwargs.get("out"))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, recording)
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * grid.axis_coordinate(0))
    res = minimize_yamabe(grid, u0, max_iters=500, tol=1e-12)
    assert res.iterations == 4
    assert len(outs["rfftn"]) == len(outs["irfft"]) == res.iterations
    assert len(outs["ifft"]) == (grid.n_dim - 1) * res.iterations
    for name, arrays in outs.items():
        assert all(a is not None for a in arrays), name
        assert len({id(a) for a in arrays}) == 1, name


def test_descent_takes_a_read_only_start_and_returns_its_own_field():
    """A start that varies along x alone can be the x-line broadcast to the
    grid, a read-only view: the descent reads it, leaves it unchanged, and
    returns a writeable u_star of its own.  The result is bit for bit that
    of the full-size start, and a second descent repeats it exactly, so no
    workspace state leaks from one call into the next."""
    g = ConformalGrid(12)
    x = np.linspace(0.0, 1.0, 12, endpoint=False).reshape(-1, 1, 1, 1)
    u0 = np.broadcast_to(1.0 + 0.2 * np.cos(2.0 * np.pi * x), g.shape)
    assert not u0.flags.writeable
    before = u0.copy()
    first = minimize_yamabe(g, u0, max_iters=10, tol=0.0)
    assert np.array_equal(u0, before)
    assert first.u_star.flags.writeable
    assert not np.shares_memory(first.u_star, u0)
    second = minimize_yamabe(g, u0, max_iters=10, tol=0.0)
    full = minimize_yamabe(g, before, max_iters=10, tol=0.0)
    for res in (second, full):
        assert np.array_equal(res.u_star, first.u_star)
        assert res.trace == first.trace
    assert not np.shares_memory(first.u_star, second.u_star)


def test_yamabe_run_work_budget(tmp_path, monkeypatch):
    """A ``yamabe n=20`` run passes at most 94 208 grid points through the
    stencil Laplacian and 160 000 through the energy density, deterministic
    work counters.  The Laplacian sees the conformal-law check on
    (N, 8, 8, 8) lattices (57 344) and nine negative-case calls on 8^4
    (36 864), the descent none; the energy density sees only the descent's
    starting quotient on 20^4, in one call.  A stencil added back into a
    descent iteration, or a candidate priced by the stencil, exceeds one of
    them.  Its descent takes at most 10 power passes on 20^4 (u^p or
    u^(p-1)): the start's volume and quotient, then per iteration the
    volume term of the step and the candidate's volume, which the quotient
    and the renormalization share; a quotient passed no ``volume`` takes a
    pass of its own."""
    points = {"laplacian": 0, "gradient_energy_density": 0}
    calls = {"laplacian": 0, "gradient_energy_density": 0}
    for name in points:
        def counting(grid, u, _fn=getattr(conformal, name), _name=name):
            points[_name] += np.size(u)
            calls[_name] += 1
            return _fn(grid, u)
        monkeypatch.setattr(conformal, name, counting)
    powers = []

    def counting_power(x, *args, _fn=np.power, **kwargs):
        powers.append(np.size(x))
        return _fn(x, *args, **kwargs)

    def counting_quotient(grid, u, energy=None, volume=None, _fn=conformal.yamabe_quotient):
        if volume is None:
            powers.append(np.size(u))
        return _fn(grid, u, energy=energy, volume=volume)

    monkeypatch.setattr(np, "power", counting_power)
    monkeypatch.setattr(conformal, "yamabe_quotient", counting_quotient)
    cli.run(cli.ExperimentConfig("yamabe", {"n": 20}, str(tmp_path), 1))
    assert points["laplacian"] <= 94_208
    assert points["gradient_energy_density"] <= 160_000
    assert calls["gradient_energy_density"] <= 1
    assert powers.count(20**4) <= 10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.tuples(*[st.integers(8, 11)] * 4))
@example(0, (10, 8, 11, 9))
def test_sobolev_inverse_inverts_stencil(seed, n_points):
    """The descent's H1 preconditioner is the exact inverse of
    1 + 2(n-1) ell Delta with the stencil Delta, axis by axis, spacing by
    spacing and count by count, on an anisotropic torus (an odd count on the
    last axis exercises the half-spectrum's rfftfreq and irfftn length)."""
    g = ConformalGrid(n_points, periods=(0.7, 1.3, 1.0, 2.0))
    field = np.random.default_rng(seed).standard_normal(g.shape)
    v = np.empty(g.shape)
    conformal._sobolev_inverse(g)[0](field.copy(), v)
    weight = 2.0 * (g.n_dim - 1) * g.ell
    residual = v + weight * laplacian(g, v) - field
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(field))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.tuples(*[st.integers(8, 11)] * 4))
@example(0, (10, 8, 11, 9))
def test_h1_gradient_is_the_sobolev_image_of_the_l2_gradient(seed, n_points):
    """The descent direction u - S(u + r) equals S(2(n-1) ell Delta u - r),
    the Sobolev inverse S applied to the L2 gradient with the stencil
    Laplacian, at a random positive u of unit volume (largest deviation
    measured over 30 draws: 6.3e-16 of max|u + r|)."""
    g = ConformalGrid(n_points, periods=(0.7, 1.3, 1.0, 2.0))
    n, ell = g.n_dim, g.ell
    p = 2.0 * n / (n - 2)
    u = np.random.default_rng(seed).random(g.shape) + 0.5
    u /= g.integrate(u**p) ** (1.0 / p)
    q = yamabe_quotient(g, u)
    r = (n - 2.0) / n * q * p * u ** (p - 1.0)
    sobolev, _ = conformal._sobolev_inverse(g)
    oracle, full = np.empty(g.shape), np.empty(g.shape)
    sobolev(2.0 * (n - 1) * ell * laplacian(g, u) - r, oracle)
    conformal._h1_gradient(g, sobolev, u, q, full)
    assert np.max(np.abs((u - full) - oracle)) <= 1e-12 * np.max(np.abs(u + r))


def _energy_lattice(seed, counts, last):
    rng = np.random.default_rng(seed)
    periods = tuple(rng.uniform(0.5, 2.0, 4))
    return ConformalGrid((*counts, last), periods=periods), rng


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.tuples(*[st.integers(8, 11)] * 3), st.integers(8, 13))
@example(0, (10, 8, 11), 8)
@example(0, (10, 8, 11), 9)
def test_spectral_energy_is_the_stencil_energy(seed, counts, last):
    """Parseval prices a field as the stencil does: sum_k sigma(k)
    |v_hat(k)|^2 / N over the rfftn half-spectrum equals
    sum(gradient_energy_density) to 1e-13 relative, on anisotropic lattices
    with an odd or even count on the last axis (only an even count has a
    Nyquist plane, of weight 1; largest deviation measured over 300 draws:
    6.0e-15).  The image of the Sobolev inverse is priced from the spectrum
    before irfftn rounds it to a lattice field, so it is the energy of the
    exact S g, not of the rounded image: that price is checked through the
    descent, in ``test_descent_properties_from_random_starts``."""
    g, rng = _energy_lattice(seed, counts, last)
    _, energy = conformal._sobolev_inverse(g)
    v = rng.random(g.shape) + 0.5
    stencil = float(np.sum(gradient_energy_density(g, v)))
    assert abs(energy(v, np.empty(g.shape)) - stencil) <= 1e-13 * stencil


def test_spectral_energy_of_a_constant_is_exactly_zero():
    """A lattice constant has energy exactly 0.0 and is its own Sobolev
    image: the spectrum is taken of the field minus one of its values.  The
    plain FFT round trip does not return the constant, and its spectrum is
    not 0, so without the shift a constant would read a rounding energy."""
    g = ConformalGrid((20, 9, 10, 11), periods=(0.7, 1.3, 1.0, 2.0))
    apply, energy = conformal._sobolev_inverse(g)
    image = np.empty(g.shape)
    for value in (0.7, 1.0, 3.1e5):
        c = np.full(g.shape, value)
        assert energy(c, image) == 0.0
        assert apply(c.copy(), image) == 0.0
        assert np.array_equal(image, c)
    c = np.full(g.shape, 0.7)
    assert np.any(np.fft.irfftn(np.fft.rfftn(c), s=g.shape, axes=range(4)) != c)


def test_halved_candidates_are_priced_by_their_own_spectrum(monkeypatch):
    """The line search's halving branch.  No start found reaches it (the
    full Sobolev step has always decreased the quotient), so the full step
    is stretched to three times the H1 gradient, u - 3(u - S(u + r)): that
    step raises the quotient, and the descent halves it.  Every candidate
    the descent prices from a spectrum, the halved ones from one rfftn of
    their own, reads the stencil quotient of the same field to 1e-12
    relative, and the trace records the halved steps."""
    g = ConformalGrid((10, 8, 9, 8), periods=(0.7, 1.3, 1.0, 2.0))
    u0 = (1.0 + 0.3 * np.cos(2.0 * np.pi * g.axis_coordinate(0) / 0.7)
          + 0.2 * np.sin(2.0 * np.pi * g.axis_coordinate(3) / 2.0))

    def stretched(grid, sobolev, u, q, out, _fn=conformal._h1_gradient):
        _fn(grid, sobolev, u, q, out)
        out[...] = u - 3.0 * (u - out)
        return float(np.sum(gradient_energy_density(grid, out)))

    priced = []

    def recording(grid, u, energy=None, volume=None, _fn=conformal.yamabe_quotient):
        value = _fn(grid, u, energy=energy, volume=volume)
        if energy is not None:
            priced.append((np.array(u), value))
        return value

    monkeypatch.setattr(conformal, "_h1_gradient", stretched)
    monkeypatch.setattr(conformal, "yamabe_quotient", recording)
    res = conformal.minimize_yamabe(g, u0, max_iters=3, tol=0.0)
    assert any(row[2] < 1.0 for row in res.trace[1:])
    qs = [row[1] for row in res.trace]
    assert all(b < a for a, b in zip(qs, qs[1:]))
    # at least one candidate was priced and refused
    assert len(priced) > res.iterations
    for cand, value in priced:
        stencil = yamabe_quotient(g, cand)
        assert abs(value - stencil) <= 1e-12 * stencil
    accepted = [value for _, value in priced]
    assert all(q in accepted for q in qs[1:])


def test_descent_converges_on_anisotropic_torus():
    g = ConformalGrid(12, periods=(0.7, 1.3, 1.0, 2.0))
    u0 = (1.0 + 0.2 * np.cos(2.0 * np.pi * g.axis_coordinate(0) / 0.7)
          + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(3) / 2.0))
    res = minimize_yamabe(g, u0, max_iters=10, tol=1e-12)
    assert res.quotient_star < 1e-3
    qs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(qs, qs[1:]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(8, 11), st.floats(0.5, 2.0)), min_size=3, max_size=4))
@example(0, [(8, 0.7), (10, 1.3), (11, 1.0)])
def test_stencils_match_roll_reference(seed, axes):
    """The slice-add stencils are bit-identical to the np.roll formulas, with
    one point count and one period per axis."""
    n_points, periods = zip(*axes)
    g = ConformalGrid(n_points, periods=periods)
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
    """A constant start has quotient exactly 0.0 and stops before any step.
    On the anisotropic lattice the FFT round trip of S is not exact at the
    unit-volume constant, so the direction u - S(u) there is rounding
    noise, not 0.  (On the unit torus that constant is 1.0, whose round
    trip is exact.)"""
    res = minimize_yamabe(grid, np.ones(grid.shape))
    assert res.iterations == 0
    assert res.converged
    g = ConformalGrid((20, 9, 10, 11), periods=(0.7, 1.3, 1.0, 2.0))
    res = minimize_yamabe(g, np.full(g.shape, 0.7))
    assert res.iterations == 0
    assert res.converged
    assert res.quotient_star == 0.0
    assert np.all(res.u_star == res.u_star.flat[0])
    p = 2.0 * g.n_dim / (g.n_dim - 2)
    assert abs(g.integrate(res.u_star**p) - 1.0) <= 1e-12
    assert np.any(np.fft.irfftn(np.fft.rfftn(res.u_star), s=g.shape, axes=range(4)) != res.u_star)


@pytest.mark.parametrize("g, u0", [
    (ConformalGrid(12), None),
    (ConformalGrid((12, 9, 10, 11), periods=(0.7, 1.3, 1.0, 2.0)),
     np.random.default_rng(0).random((12, 9, 10, 11)) + 0.5),
])
def test_descent_with_tol_0_ends_on_exact_zero(g, u0):
    """With tol = 0 the descent runs until a candidate is priced exactly
    0.0, then stops on q == 0.0 with a constant u_star.  Each candidate's
    spectrum is taken of the field minus one of its values; without that,
    a lattice constant reads a rounding energy (1.2e-25 for u = 0.7 on
    20^4), and a tol = 0 descent of ``yamabe n=20`` ended at 1.16e-38, not
    0.0."""
    if u0 is None:
        u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
    res = minimize_yamabe(g, u0, max_iters=50, tol=0.0)
    assert res.converged and res.iterations < 50
    assert res.quotient_star == 0.0
    assert np.all(res.u_star == res.u_star.flat[0])


def test_descent_refuses_negative_max_iters():
    """``max_iters=-3`` ran no iteration and returned the start as a result;
    a negative count is refused like a bad tolerance, and 0 is allowed."""
    g = ConformalGrid(8)
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
    with pytest.raises(ValueError, match="max_iters"):
        minimize_yamabe(g, u0, max_iters=-3)
    res = minimize_yamabe(g, u0, max_iters=0)
    assert res.iterations == 0 and len(res.trace) == 1


def test_descent_monotone_from_random_start():
    g = ConformalGrid(8)
    rng = np.random.default_rng(2)
    res = minimize_yamabe(g, rng.random(g.shape) + 0.5, max_iters=50, tol=0.0)
    qs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(qs, qs[1:]))


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
