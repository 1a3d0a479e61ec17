"""Cutoff-modified instanton families: decay rates and volume deficits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapselab import cli, cutoff, gluing
from collapselab.cli import main
from collapselab.cutoff import (
    BaseInstanton,
    CutoffFamily,
    _bump,
    cap_curvature,
    cap_sup_norms,
    cap_volume,
    decay_sweep,
    modified_metric,
    unit_cap,
    volume_deficit,
)
from collapselab.frame_curvature import frame_from_riemann
from collapselab.jets import Jet2, _libm, variable
from collapselab.radial import (
    Preset, curvature_at, make_metric, sample_grid, volume, w_ansatz_riemann,
)
from oracles import instanton_curvature, zoomed_peak


def test_bump_boundary_values():
    lo, hi = _bump(variable(0.5)), _bump(variable(3.0))
    assert (lo.value, lo.d1, lo.d2) == (1.0, 0.0, 0.0)
    assert (hi.value, hi.d1, hi.d2) == (0.0, 0.0, 0.0)
    mid = _bump(variable(1.5))
    assert 0.0 < mid.value < 1.0


def test_bump_monotone():
    xs = np.linspace(0.0, 3.0, 200)
    vals = [_bump(variable(x)).value for x in xs]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_modified_metric_interpolates():
    """Pure instanton inside r < eps, exactly flat beyond 2 eps."""
    eps = 0.25
    fam = CutoffFamily(BaseInstanton.EGUCHI_HANSON, eps)
    metric = modified_metric(fam)
    inner = curvature_at(metric, 0.5 * eps)
    assert inner.sup_ricci < 1e-9  # still Eguchi-Hanson there
    assert inner.riemann_norm2 > 1.0
    outer = curvature_at(metric, 3.0 * eps)
    assert outer.riemann_norm2 < 1e-20


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(1e-6, 1.0, exclude_max=True), st.sampled_from(list(BaseInstanton)),
       st.floats(0.0, 1.0, exclude_min=True))
def test_modified_metric_positive_on_its_domain(eps, base, t):
    """W = f^-2 >= 1 - (r_bolt/r)^q > 0 on [1.001 r_bolt, 2.5 eps], for every
    eps in (0, 1): eps^p / r^q = (r_bolt / r)^q and the bump stays in [0, 1].
    (As t -> 0, r would round to the bolt itself, where W = 0.)"""
    fam = CutoffFamily(base, eps)
    profile = modified_metric(fam).profile
    r_lo = 1.001 * fam.r_bolt
    r = r_lo * (2.5 * eps / r_lo) ** t  # log-uniform in the range
    w = profile.at(r)[0].value ** -2
    q = 4 if base is BaseInstanton.EGUCHI_HANSON else 2
    assert w >= (1.0 - (fam.r_bolt / r) ** q) * (1.0 - 1e-9)


@pytest.mark.parametrize("base,preset,rel", [
    (BaseInstanton.EGUCHI_HANSON, Preset.EGUCHI_HANSON, 1e-11),
    (BaseInstanton.BURNS, Preset.BURNS, 1e-12),
])
def test_instanton_curvature_closed_forms(base, preset, rel):
    """The unit instanton on [1.001, 10] against ``instanton_curvature``:
    W+ = 0, Ric = 0 (Eguchi-Hanson) or s = 0 (Burns), |W-|^2 = 96 / r^12 or
    24 / r^8, and Burns sup |Ric| = 2 / r^4."""
    metric = make_metric(preset)
    for r in sample_grid(1.001, 10.0, 200):
        fr = curvature_at(metric, r)
        ricci, wminus = instanton_curvature(base, 1.0, r)
        assert fr.w_minus_norm2 == pytest.approx(wminus, rel=rel)
        assert fr.w_plus_norm2 < 1e-22 * wminus
        assert abs(fr.scalar) < 1e-11 * math.sqrt(wminus)
        if base is BaseInstanton.BURNS:
            assert fr.sup_ricci == pytest.approx(ricci, rel=rel)
        else:
            assert ricci == 0.0 and fr.sup_ricci < 1e-11 * math.sqrt(wminus)


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_cap_core_is_the_scaled_instanton(base):
    """Inside r < eps a cutoff cap is the instanton with bolt eps^k."""
    fam = CutoffFamily(base, 0.5)
    metric = modified_metric(fam)
    for r in sample_grid(1.001 * fam.r_bolt, fam.epsilon, 50):
        fr = curvature_at(metric, r)
        ricci, wminus = instanton_curvature(base, fam.r_bolt, r)
        assert fr.w_minus_norm2 == pytest.approx(wminus, rel=1e-12)
        assert fr.sup_ricci == pytest.approx(ricci, rel=1e-12, abs=1e-12 * math.sqrt(wminus))


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_w_ansatz_map_reproduces_the_instanton(base):
    """The closed-form map applied to h = rho^-q, the unit instanton, gives
    ``instanton_curvature`` to 1e-12 on [1, 10], the bolt included: W+ = 0,
    zero scalar, and Ric = 0 (Eguchi-Hanson) or sup |Ric| = 2 / rho^4 (Burns)."""
    q = 4 if base is BaseInstanton.EGUCHI_HANSON else 2
    for rho in np.append(1.0, sample_grid(1.0, 10.0, 200)):
        x = variable(rho)
        fr = frame_from_riemann(w_ansatz_riemann(x**-q, rho))
        ricci, wminus = instanton_curvature(base, 1.0, rho)
        scale = math.sqrt(wminus)
        assert fr.w_minus_norm2 == pytest.approx(wminus, rel=1e-12)
        assert math.sqrt(fr.w_plus_norm2) <= 1e-12 * scale
        assert abs(fr.scalar) <= 1e-12 * scale
        assert fr.sup_ricci == pytest.approx(ricci, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.05, 0.9), st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       st.sampled_from(list(BaseInstanton)))
def test_cap_annulus_is_eps2_times_the_unit_cap(eps, rho, base):
    """At r = eps rho the engine's frame Riemann tensor of the cutoff metric
    is eps^2 times the unit cap's closed form, to 1e-9 relative (and 1e-12
    absolute, for the components that vanish)."""
    metric = modified_metric(CutoffFamily(base, eps))
    engine = curvature_at(metric, eps * rho).riemann4
    unit = cap_curvature(base, rho).riemann4
    assert engine == pytest.approx(eps**2 * unit, rel=1e-9, abs=1e-12)


def _unit_cap_norms(base, rhos):
    """max |Ric_ab| and |s| of the unit cap at each radius, through the
    linearity of the closed form, Rm = (h / r^2) A + (h' / r) B + h'' C, with
    A, B and C the map's values on unit jets at r = 1."""
    q = 4 if base is BaseInstanton.EGUCHI_HANSON else 2
    basis = [frame_from_riemann(w_ansatz_riemann(Jet2(*e), 1.0))
             for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    x = variable(rhos)
    h = _bump(x) / x**q
    # rho^2 through libm's pow, as the jets take every power: numpy's square
    # differs from it in the last bit at some radii
    coef = np.stack([h.value / _libm(pow, rhos, 2), h.d1 / rhos, h.d2], axis=1)
    ricci = np.einsum("nk,kab->nab", coef, np.array([b.ricci for b in basis]))
    scalar = coef @ np.array([b.scalar for b in basis])
    return np.abs(ricci).max(axis=(1, 2)), np.abs(scalar)


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_unit_cap_suprema_are_certified(base):
    """S_Ric and S_s are at least the maxima of the closed form over 20 001
    uniform radii of [1, 2], and within 1e-9 of its maxima over 401 radii
    of the two grid cells about each coarse maximum (a 20 001-point grid
    alone undershoots peaks with |f''/f| up to 250 by as much as 6e-8).
    Both exceed the 120-sample sup of the engine on [eps, 3 eps] that
    earlier cap certificates used."""
    unit = unit_cap(base)
    rhos = np.linspace(1.0, 2.0, 20001)
    step = rhos[1] - rhos[0]
    coarse_ricci, coarse_scalar = _unit_cap_norms(base, rhos)
    for sup, coarse, norm in ((unit.sup_ricci, coarse_ricci, lambda fr: fr.sup_ricci),
                              (unit.sup_scalar, coarse_scalar, lambda fr: abs(fr.scalar))):
        assert sup >= coarse.max()
        peak = rhos[coarse.argmax()]
        zoom = np.linspace(max(peak - step, 1.0), min(peak + step, 2.0), 401)
        fine = np.max(norm(cap_curvature(base, zoom)))
        assert sup == pytest.approx(fine, rel=1e-9)
    eps = 0.2
    sampled = curvature_at(modified_metric(CutoffFamily(base, eps)),
                           sample_grid(eps, 3.0 * eps, 120))
    assert unit.sup_ricci >= np.max(sampled.sup_ricci) / eps**2
    assert unit.sup_scalar >= np.max(np.abs(sampled.scalar)) / eps**2


def _synthetic(gaussians, cosines, constant):
    """Vector function over an array of points: one component per Gaussian
    (centre, width, height) and per cosine (frequency, phase, height), and
    one constant component."""
    def values(x):
        cols = [h * np.exp(-0.5 * ((x - c) / w) ** 2) for c, w, h in gaussians]
        cols += [h * np.cos(k * x + p) for k, p, h in cosines]
        return np.column_stack(cols + [np.full(np.shape(x), constant)])
    return values


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    gaussians=st.lists(st.tuples(st.floats(0.7, 2.3), st.floats(0.1, 0.6), st.floats(0.1, 10.0)),
                       min_size=1, max_size=4),
    cosines=st.lists(st.tuples(st.floats(0.5, 25.0), st.floats(0.0, 2.0 * math.pi),
                               st.floats(0.1, 10.0)), min_size=1, max_size=3),
    constant=st.floats(0.1, 10.0),
)
def test_refined_sup_attains_the_interior_peaks(gaussians, cosines, constant):
    """Every component is at least its 65-node grid maximum, and where the
    grid has positive interior maxima, within 1e-10 of the best of them
    zoomed by the brute-force oracle (or of the grid maximum, if larger).
    The constant component, a flat parabola at every node, warns of
    nothing."""
    values = _synthetic(gaussians, cosines, constant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sup = cutoff._refined_sup(values, 1.0, 2.0)
    grid = values(np.linspace(1.0, 2.0, 65))
    assert np.all(sup >= grid.max(axis=0))
    inner = grid[1:-1]
    peaks = (inner > 0.0) & (inner >= grid[:-2]) & (inner >= grid[2:])
    for j in np.flatnonzero(peaks.any(axis=0)):
        zoomed = [zoomed_peak(values, 1.0, 2.0, i + 1, j) for i in np.flatnonzero(peaks[:, j])]
        assert sup[j] == pytest.approx(max(grid[:, j].max(), *zoomed), rel=1e-10)


def test_refined_sup_gives_up_after_its_round_limit(monkeypatch):
    monkeypatch.setattr(cutoff, "_SEARCH_ROUNDS", 1)
    values = _synthetic([(1.503, 0.2, 1.0)], [], 1.0)
    with pytest.raises(RuntimeError, match="did not converge in 1 rounds"):
        cutoff._refined_sup(values, 1.0, 2.0)


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_cap_volume_matches_quadrature(base):
    """link_volume ((2 eps)^4 - r_bolt^4) / 4 against the quadrature of the
    cap from its bolt to 2 eps."""
    for eps in (0.9, 0.5, 0.125, 0.01):
        fam = CutoffFamily(base, eps)
        quad = volume(modified_metric(fam), fam.r_bolt, 2.0 * eps)
        assert cap_volume(fam) == pytest.approx(quad, rel=1e-12)


def test_epsilon_range_guard():
    with pytest.raises(ValueError):
        CutoffFamily(BaseInstanton.EGUCHI_HANSON, 2.0)
    with pytest.raises(ValueError):
        CutoffFamily(BaseInstanton.BURNS, 0.0)


@pytest.mark.parametrize("base,bolt_pow,deficit_pow", [
    (BaseInstanton.EGUCHI_HANSON, 2, 8),
    (BaseInstanton.BURNS, 3, 12),
])
def test_family_exponents(base, bolt_pow, deficit_pow):
    fam = CutoffFamily(base, 0.1)
    assert fam.r_bolt == pytest.approx(0.1**bolt_pow)
    # the deficit is link_volume * r_bolt^4 / 4, hence eps^(4 * bolt_pow)
    assert 4 * bolt_pow == deficit_pow


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_quadratic_curvature_decay(base):
    table = decay_sweep(base, [0.2, 0.1, 0.05, 0.025])
    assert abs(table.fitted_slope - 2.0) < 1e-6
    sups = [row[1] for row in table.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_decay_sweep_needs_three_epsilons():
    with pytest.raises(ValueError):
        decay_sweep(BaseInstanton.BURNS, [0.1, 0.05])


def test_decay_sweep_refuses_eps_below_float_resolution(tmp_path):
    """Below eps = 3.86e-3 the noise bound 2^-52 / eps^4 passes 1e-6: the
    unguarded sweep of 2e-4, 1e-4 and 5e-5 fitted the slope -1.21 and
    exited 0.  The sweep stops short of computing any row, and the CLI
    exits 2 without writing a summary."""
    with pytest.raises(ValueError, match="epsilon=5e-05 is below float resolution"):
        decay_sweep(BaseInstanton.EGUCHI_HANSON, [0.0002, 0.0001, 0.00005])
    with pytest.raises(ValueError, match="below float resolution"):
        decay_sweep(BaseInstanton.BURNS, [0.2, 0.1, 0.0038])
    assert 2.0**-52 / 0.025**4 < cutoff.DECAY_NOISE_LIMIT  # the default sweep's last eps
    assert main(["decay", "--out", str(tmp_path), "eps=0.0002,0.0001,0.00005"]) == 2
    assert not list(tmp_path.glob("*.json"))


def test_decay_sweep_refuses_eps_outside_the_unit_interval(tmp_path, capsys):
    """For eps >= 1 the cap's W = 1 - eps^4 H(rho) is negative near rho = 1,
    no metric, yet its closed form still gives finite rows and the slope 2;
    eps <= 0 has no cap.  Both are refused as ``CutoffFamily`` refuses them,
    and the CLI exits 2 without writing anything."""
    for eps_list in ([2.0, 1.0, 0.5], [0.2, 0.1, 0.0], [0.2, 0.1, -0.05]):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            decay_sweep(BaseInstanton.BURNS, eps_list)
    assert main(["decay", "--out", str(tmp_path), "eps=2,1,0.5"]) == 2
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_decay_sweep_is_the_closed_form_per_eps_and_matches_the_engine(base):
    """Each row is, bit for bit, the cap certificate ``cap_sup_norms`` of its
    epsilon (sup |Ric| for Eguchi-Hanson, sup |s| for Burns), the value the
    glue certificate's cap charts carry.  At every default epsilon the
    engine (``curvature_at`` of the cutoff metric) on 120 radii of
    [eps, 3 eps] matches the closed form ``cap_curvature`` on the same grid
    to 1e-9 relative, its rounding reaching 1.3e-10 (Burns, eps = 0.025),
    and its sampled sup lies at or below the row."""
    eps_list = cli._DEFAULTS["decay"]["eps"]
    table = decay_sweep(base, eps_list)
    assert [eps for eps, _ in table.rows] == sorted(eps_list, reverse=True)
    ricci = base is BaseInstanton.EGUCHI_HANSON
    chart = gluing.eh_cap if ricci else gluing.burns_cap
    for eps, sup in table.rows:
        family = CutoffFamily(base, eps)
        assert sup == cap_sup_norms(family)[0 if ricci else 1]
        assert sup == (chart(eps).sup_ricci if ricci else chart(eps).sup_scalar)
        grid = sample_grid(eps, 3.0 * eps, 120)
        closed, engine = (
            float(np.max(fr.sup_ricci if ricci else np.abs(fr.scalar)))
            for fr in (cap_curvature(base, grid, eps),
                       curvature_at(modified_metric(family), grid)))
        assert engine == pytest.approx(closed, rel=1e-9)
        assert engine <= sup


def test_decay_sweep_rejects_vanishing_sup(monkeypatch):
    """A zero sup norm at one epsilon fails the sweep instead of dropping
    its row and fitting the slope on the others."""
    certificate = cutoff.cap_sup_norms

    def flat_at_tenth(family):
        return (0.0, 0.0) if family.epsilon == 0.1 else certificate(family)

    monkeypatch.setattr(cutoff, "cap_sup_norms", flat_at_tenth)
    with pytest.raises(RuntimeError, match="epsilon=0.1"):
        decay_sweep(BaseInstanton.EGUCHI_HANSON, [0.2, 0.1, 0.05])


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_decay_sweep_refuses_eps_too_close_to_fit(tmp_path, capsys, base):
    """Unguarded, three epsilons one and two ulps apart exited 0 with only
    numpy's RankWarning, writing ``fitted_slope`` 0.851 (Burns: 0.551)
    that criterion 3 then failed, and the Burns sweep of 0.9 and the next
    two floats above it raised no warning at all and wrote -8.82.  The
    slope's rounding bound exceeds ``DECAY_NOISE_LIMIT``, so the sweep
    refuses both, naming the values, and the CLI exits 2 without writing a
    summary.  Spread by 1e-8 relative, the same three fit 2 to within
    1e-6."""
    close = [0.1, 0.10000000000000002, 0.10000000000000003]
    with pytest.raises(ValueError, match=r"0\.10000000000000002.*too close for the fit"):
        decay_sweep(base, close)
    near = [0.9, 0.9000000000000001, 0.9000000000000002]
    with pytest.raises(ValueError, match="too close for the fit"):
        decay_sweep(base, near)
    spread = decay_sweep(base, [0.9, 0.9 * (1.0 + 1e-8), 0.9 * (1.0 + 2e-8)])
    assert abs(spread.fitted_slope - 2.0) < 1e-6
    argv = ["decay", "--out", str(tmp_path), f"base={base.value}",
            "eps=0.1,0.10000000000000002,0.10000000000000003"]
    assert main(argv) == 2
    assert "0.10000000000000002" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_volume_deficit_closed_forms():
    eps = 0.5
    eh = volume_deficit(CutoffFamily(BaseInstanton.EGUCHI_HANSON, eps), R=2.0)
    assert eh == pytest.approx(math.pi**2 * eps**8 / 4.0, rel=1e-10)
    burns = volume_deficit(CutoffFamily(BaseInstanton.BURNS, eps), R=2.0)
    assert burns == pytest.approx(math.pi**2 * eps**12 / 2.0, rel=1e-10)


def test_eh_deficit_scales_as_eighth_power():
    d1 = volume_deficit(CutoffFamily(BaseInstanton.EGUCHI_HANSON, 0.5), R=2.0)
    d2 = volume_deficit(CutoffFamily(BaseInstanton.EGUCHI_HANSON, 0.25), R=2.0)
    assert d1 / d2 == pytest.approx(2.0**8, rel=1e-8)
    # half the rate a naive reading of the flat-ball replacement suggests;
    # the Z2 link halves the ball volume (see docs/conventions.md)
    assert d1 / (math.pi**2 * 0.5**8 / 2.0) == pytest.approx(0.5, rel=1e-8)


def test_deficit_requires_room():
    with pytest.raises(ValueError):
        volume_deficit(CutoffFamily(BaseInstanton.BURNS, 0.5), R=0.9)


def test_deficit_independent_of_radius():
    fam = CutoffFamily(BaseInstanton.BURNS, 0.3)
    d1 = volume_deficit(fam, R=1.0)
    d2 = volume_deficit(fam, R=2.0)
    assert d1 == pytest.approx(d2, rel=1e-6)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(list(BaseInstanton)), st.floats(0.15, 0.999))
@example(BaseInstanton.BURNS, 0.46)
@example(BaseInstanton.BURNS, 0.48)
@example(BaseInstanton.EGUCHI_HANSON, 0.21)
@example(BaseInstanton.EGUCHI_HANSON, 0.23)
def test_deficit_within_its_floor_meets_criterion_4(base, eps):
    """Every deficit whose rounding floor 2^-50 (R / r_bolt)^4, with the
    decay run's R = 4 eps, is at most ``DEFICIT_FLOOR_LIMIT`` lies within
    criterion 4's 1e-10 of its closed form: the floor bounds the deviation.
    EH accepts eps >= 0.218 and Burns eps >= 0.467."""
    fam = CutoffFamily(base, eps)
    R = 4.0 * eps
    floor = cutoff.deficit_floor(fam, R)
    assert floor == pytest.approx(2.0**-50 * (R / fam.r_bolt) ** 4, rel=1e-14)
    if floor <= cutoff.DEFICIT_FLOOR_LIMIT:
        closed_form = fam.link_volume * fam.r_bolt**4 / 4.0
        assert abs(volume_deficit(fam, R) - closed_form) <= 1e-10 * closed_form


def test_deficit_floor_is_inf_where_it_overflows():
    """Tiny eps: (R / r_bolt)^4 overflows, and a Burns r_bolt = eps^3
    underflows to 0.0; the floor is inf in both, not an exception."""
    assert cutoff.deficit_floor(CutoffFamily(BaseInstanton.EGUCHI_HANSON, 1e-100), 4e-100) == math.inf
    assert CutoffFamily(BaseInstanton.BURNS, 1e-120).r_bolt == 0.0
    assert cutoff.deficit_floor(CutoffFamily(BaseInstanton.BURNS, 1e-120), 4e-120) == math.inf
