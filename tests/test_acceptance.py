"""Acceptance gate: thirteen end-to-end checks at their stated tolerances.

Each test prints a single pass/fail line before asserting, so the suite
output doubles as the acceptance table.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate as _integrate

from collapselab.charclass import (
    densities_at,
    integrate_characteristics,
    product_surface_frame,
    wplus_sweep,
)
from collapselab.conformal import (
    ConformalGrid,
    aubin_bound,
    conformal_scalar,
    holder_gap,
    minimize_yamabe,
    negative_case_check,
)
from collapselab.cutoff import BaseInstanton, CutoffFamily, decay_sweep, volume_deficit
from collapselab.gluing import assemble_surface_model, certificate
from collapselab.radial import Preset, curvature_at, make_metric, sample_grid
from collapselab.submersion import BundleKind, collapse_metric, make_bundle, oneill_at
from collapselab.surfaces import (
    CANONICAL_SURFACES,
    YamabeSign,
    blow_up_surface,
    classify_sign,
    yamabe_value,
)
from oracles import conformal_scalar_fd


def _check(num, desc, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


def test_criterion_01_eguchi_hanson_ricci_flat():
    worst = 0.0
    for a_param in (0.5, 1.0, 2.0):
        metric = make_metric(Preset.EGUCHI_HANSON, A=a_param)
        lo = a_param ** 0.25 * (1.0 + 1e-3)
        for r in sample_grid(lo, 20.0, 500):
            worst = max(worst, curvature_at(metric, r).sup_ricci)
    _check(1, "Eguchi-Hanson Ricci-flat over 500 radii, A in {0.5, 1, 2}",
           worst < 1e-9, f"sup |Ric| = {worst:.2e}")


def test_criterion_02_burns_scalar_flat_not_einstein():
    metric = make_metric(Preset.BURNS)
    lo = metric.r_min * (1.0 + 1e-3)
    sup_s = max(abs(curvature_at(metric, r).scalar)
                for r in sample_grid(lo, 20.0, 500))
    ric2 = curvature_at(metric, 2.0).sup_ricci
    _check(2, "Burns scalar-flat over 500 radii but not Einstein",
           sup_s < 1e-9 and ric2 > 1e-3,
           f"sup |s| = {sup_s:.2e}, |Ric|(r=2) = {ric2:.2e}")


def test_criterion_03_cutoff_decay_slopes():
    eps = (0.2, 0.1, 0.05, 0.025)
    slopes = {b.value: decay_sweep(b, eps).fitted_slope for b in BaseInstanton}
    ok = all(1.8 <= s <= 2.2 for s in slopes.values())
    _check(3, "cutoff curvature decay slopes within [1.8, 2.2]", ok,
           ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items()))


def test_criterion_04_volume_deficits():
    eps = 0.5
    burns = volume_deficit(CutoffFamily(BaseInstanton.BURNS, eps), R=4.0 * eps)
    burns_rel = abs(burns - math.pi**2 * eps**12 / 2.0) / (math.pi**2 * eps**12 / 2.0)
    eh_a = volume_deficit(CutoffFamily(BaseInstanton.EGUCHI_HANSON, eps), R=4.0 * eps)
    eps_b = 0.6
    eh_b = volume_deficit(CutoffFamily(BaseInstanton.EGUCHI_HANSON, eps_b), R=4.0 * eps_b)
    scale_rel = abs(eh_b / eh_a - (eps_b / eps) ** 8) / (eps_b / eps) ** 8
    ratio = eh_a / (math.pi**2 * eps**8 / 2.0)
    ok = burns_rel < 1e-10 and scale_rel < 1e-8
    _check(4, "volume deficits: Burns pi^2 eps^12 / 2, EH eps^8 scaling", ok,
           f"Burns rel = {burns_rel:.1e}, EH scaling rel = {scale_rel:.1e}, "
           f"EH deficit / (pi^2 eps^8 / 2) = {ratio:.6f}")


def test_criterion_05_collapse_family():
    ok = True
    details = []
    for kind in (BundleKind.TRIVIAL_TORUS_OVER_TORUS, BundleKind.NILMANIFOLD):
        bundle = make_bundle(kind)
        k_base = bundle.base.curvature_at((0.1, 0.2))
        vols, khs, kps = [], [], []
        for t in (1.0, 10.0, 100.0, 1000.0, 1e6):
            m = collapse_metric(bundle, t)
            cur = oneill_at(m)
            vols.append(m.total_volume() * t)
            khs.append(cur.K_H)
            kps.append(cur.K_P)
        spread = max(abs(v - vols[0]) for v in vols)
        ok &= spread < 1e-12
        ok &= max(max(abs(k) for k in khs), max(abs(k) for k in kps)) < math.inf
        ok &= all(abs(b) <= abs(a) + 1e-15 for a, b in zip(kps, kps[1:]))
        gaps = [abs(k - k_base) for k in khs]
        ok &= all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        details.append(f"{kind.value}: vol spread {spread:.1e}, K_P(t=1e6) {kps[-1]:.1e}")
    _check(5, "collapse family: Vol * t constant, O'Neill limits monotone", ok,
           "; ".join(details))


def test_criterion_06_glued_certificates():
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    ts = (1.0, 10.0, 100.0, 1000.0)
    ricci = certificate(assemble_surface_model(bundle, fiber_sums=1), ts)
    vols = [row[1] for row in ricci.rows]
    scalar = certificate(assemble_surface_model(bundle, fiber_sums=1, blowups=2), ts)
    ok = (ricci.verdict.value == "BoundedRicciCollapse"
          and vols[-1] < 1e-2 * vols[0]
          and scalar.verdict.value == "BoundedScalarCollapse")
    _check(6, "glued certificates: Ricci verdict (l=0), scalar verdict (l=2)", ok,
           f"{ricci.verdict.value}, vol ratio {vols[-1] / vols[0]:.1e}, "
           f"{scalar.verdict.value}")


def test_criterion_07_conformal_law_convergence():
    errs = []
    for n in (16, 32, 64):
        g = ConformalGrid(n)
        u = 1.0 + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
        x = np.linspace(0.0, 1.0, n, endpoint=False)
        oracle = conformal_scalar_fd(g, 1.0 + 0.1 * np.cos(2.0 * np.pi * x))
        errs.append(float(np.max(np.abs(
            conformal_scalar(g, u) - np.broadcast_to(oracle, g.shape)))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    _check(7, "conformal transformation law converges at order >= 1.8",
           min(orders) >= 1.8, f"orders {[round(o, 2) for o in orders]}")


def test_criterion_08_variational_inequalities():
    g = ConformalGrid(8)
    rng = np.random.default_rng(0)
    min_gap = min(
        holder_gap(g, rng.standard_normal(g.shape), rng.random(g.shape) + 0.5)["gap"]
        for _ in range(1000)
    )
    max_ncc = max(negative_case_check(g, rng.random(g.shape) + 0.5)
                  for _ in range(100))
    u_near = 1.0 + 1e-7 * rng.random(g.shape)
    spread = float(u_near.max() - u_near.min())
    near = abs(negative_case_check(g, u_near))
    ok = min_gap >= -1e-12 and max_ncc <= 1e-12 and spread < 1e-6 and near < 1e-8
    _check(8, "Hoelder gap >= 0 (1000 draws), negative-case check <= 0 (100 draws)",
           ok, f"min gap {min_gap:.1e}, max check {max_ncc:.1e}, "
               f"near-constant |check| {near:.1e}")


def test_criterion_09_yamabe_descent():
    g = ConformalGrid(32)
    u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
    res = minimize_yamabe(g, u0, max_iters=500, tol=1e-10)
    spread = float((res.u_star.max() - res.u_star.min()) / res.u_star.mean())
    ok = res.quotient_star < 1e-3 and res.iterations <= 500 and spread < 1e-3
    _check(9, "Yamabe descent on the flat 4-torus reaches quotient < 1e-3", ok,
           f"quotient {res.quotient_star:.1e} after {res.iterations} iterations, "
           f"spread {spread:.1e}")


def test_criterion_10_characteristic_convention_lock():
    s4 = integrate_characteristics(make_metric(Preset.ROUND))
    flat = integrate_characteristics(
        collapse_metric(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS), 2.0))
    s2xs2 = densities_at(product_surface_frame(1.0, 1.0)).gb_density * (4.0 * math.pi) ** 2
    ok = (abs(s4["two_chi_plus_three_tau"] - 4.0) < 1e-6
          and abs(s4["tau"]) < 1e-8
          and flat["two_chi_plus_three_tau"] == 0.0
          and flat["tau"] == 0.0
          and abs(s2xs2 - 8.0) < 1e-6)
    _check(10, "convention lock: S^4 -> 4, flat T^4 -> (0, 0), S^2 x S^2 -> 8", ok,
           f"S^4 {s4['two_chi_plus_three_tau']:.8f}, S^2xS^2 {s2xs2:.8f}")


def test_criterion_11_wplus_sweep_collapses():
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    fam = assemble_surface_model(bundle, fiber_sums=1, blowups=2)
    table = wplus_sweep(fam, (1.0, 10.0, 100.0, 1000.0))
    wp = table.wplus_values
    ok = all(b < a for a, b in zip(wp, wp[1:])) and wp[-1] < 1e-3 * wp[0]
    _check(11, "self-dual Weyl energy decreases to < 1e-3 of its start by t = 1000",
           ok, f"{wp[0]:.3e} -> {wp[-1]:.3e}")


def test_criterion_12_classifier_table_and_values():
    signs = [classify_sign(s) for s in CANONICAL_SURFACES]
    table_ok = signs == [YamabeSign.POSITIVE, YamabeSign.POSITIVE, YamabeSign.ZERO,
                         YamabeSign.ZERO, YamabeSign.ZERO, YamabeSign.NEGATIVE]
    worst = 0.0
    for c1 in range(1, 10):
        base = CANONICAL_SURFACES[5]
        s = type(base)(base.kod, base.b1_parity, c1, 2 * c1, -c1, name=f"c1={c1}")
        expected = -4.0 * math.pi * math.sqrt(2.0 * c1)
        alt = -math.sqrt(32.0 * math.pi**2 * c1)
        for k in range(6):
            val = yamabe_value(blow_up_surface(s, k)).value
            worst = max(worst, abs(val - expected), abs(val - alt))
    ok = table_ok and worst < 1e-12
    _check(12, "classifier table exact; general-type values to 1e-12", ok,
           f"max deviation {worst:.1e}")


def test_criterion_13_aubin_bound_closed_forms():
    # sphere surface measures by the recursion S_n = S_{n-1} * int_0^pi sin^{n-1}
    area = 2.0 * math.pi
    areas = {1: area}
    for n in (2, 3, 4):
        with warnings.catch_warnings():
            # the explicit error-estimate check below replaces the roundoff nag
            warnings.simplefilter("ignore", _integrate.IntegrationWarning)
            integral, err = _integrate.quad(lambda t: math.sin(t) ** (n - 1),
                                            0.0, math.pi, epsabs=1e-14, epsrel=1e-14)
        assert err < 1e-12
        area *= integral
        areas[n] = area
    worst = max(
        abs(aubin_bound(n) - n * (n - 1) * areas[n] ** (2.0 / n)) / aubin_bound(n)
        for n in (2, 3, 4)
    )
    gauss_bonnet = abs(aubin_bound(2) - 4.0 * math.pi * 2.0)
    ok = worst < 1e-12 and gauss_bonnet < 1e-12
    _check(13, "Aubin bounds match independent quadrature; n = 2 value is 8 pi",
           ok, f"max relative deviation {worst:.1e}")
