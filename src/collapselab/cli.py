"""Configuration-driven experiment runner.

Each subcommand runs one experiment from the library, writes its tables as
CSV and its summary as JSON under the output directory, and embeds the
resolved configuration plus a content hash in every artifact so a run can
be diffed and reproduced exactly.  Timestamps live only in a ``.meta.json``
sidecar, keeping the payload byte-identical across reruns with the same
configuration and seed.  The ``report`` subcommand collates the summaries
in an output directory into a pass/fail table against the acceptance
checklist, marking criteria with no corresponding artifact as SKIPPED.

Config files are flat ``key=value`` text; command-line ``key=value``
arguments override them.  Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["ExperimentConfig", "run", "report", "main"]

EXPERIMENTS = ("curvature", "decay", "collapse", "glue", "yamabe", "charclass", "classify")


@dataclass
class ExperimentConfig:
    """Resolved configuration of one experiment run."""

    experiment: str
    parameters: dict = field(default_factory=dict)
    output_path: str = "runs"
    seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment '{self.experiment}'")
        allowed = set(_DEFAULTS[self.experiment])
        for key in self.parameters:
            if key not in allowed:
                raise ValueError(
                    f"unknown key '{key}' for experiment '{self.experiment}'"
                    f" (allowed: {', '.join(sorted(allowed))})"
                )
        merged = dict(_DEFAULTS[self.experiment])
        for key, value in self.parameters.items():
            default = merged[key]
            want, got = type(default), type(value)
            if default is not None and got is not want and (want, got) != (float, int):
                raise ValueError(
                    f"parameter '{key}' must be {want.__name__}, got {value!r}"
                )
        merged.update(self.parameters)
        self.parameters = merged


_DEFAULTS: dict[str, dict] = {
    "curvature": {"preset": "flat", "a": 1.0, "radius": 1.0, "samples": 200,
                  "r_lo": None, "r_hi": None},
    "decay": {"base": "eguchi-hanson", "eps": [0.2, 0.1, 0.05, 0.025], "samples": 120,
              "deficit_eps": 0.5},
    "collapse": {"bundle": "trivial", "t": [1.0, 10.0, 100.0, 1000.0, 1e6]},
    "glue": {"bundle": "trivial", "fiber_sums": 1, "blowups": 0,
             "t": [1.0, 10.0, 100.0, 1000.0]},
    "yamabe": {"n": 32, "amplitude": 0.2, "max_iters": 500, "tolerance": 1e-10,
               "sweep_draws": 1000},
    "charclass": {"fiber_sums": 1, "blowups": 2, "t": [1.0, 10.0, 100.0, 1000.0]},
    "classify": {"input": None},
}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if "," in text:
            return [_parse_value(p) for p in text.split(",")]
        return text


def _load_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = _parse_value(val.strip())
    return values


def _payload_hash(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _config_dict(config: ExperimentConfig) -> dict:
    return {
        "experiment": config.experiment,
        "parameters": config.parameters,
        "seed": config.seed,
    }


def _write_artifacts(config: ExperimentConfig, slug: str, tables: dict, results: dict):
    out = Path(config.output_path)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _config_dict(config)
    written = []
    for name, csv_text in tables.items():
        head = "".join(
            f"# {k}={json.dumps(v, sort_keys=True)}\n" for k, v in sorted(cfg.items())
        )
        head += f"# sha256={hashlib.sha256(csv_text.encode()).hexdigest()}\n"
        path = out / f"{slug}_{name}.csv"
        path.write_text(head + csv_text)
        written.append(path)
    summary = {"config": cfg, "results": results, "sha256": _payload_hash(results)}
    path = out / f"{slug}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(path)
    sidecar = out / f"{slug}.meta.json"
    sidecar.write_text(json.dumps({"written_at": time.time()}) + "\n")
    return written


# ---------------------------------------------------------------- runners


def _run_curvature(params: dict, seed: int):
    from .radial import Preset, curvature_at, make_metric, sample_grid

    preset = Preset(params["preset"])
    metric = make_metric(preset, A=params["a"], radius=params["radius"])
    lo = params["r_lo"] if params["r_lo"] is not None else metric.r_min
    hi = params["r_hi"]
    if hi is None:
        hi = metric.r_max if math.isfinite(metric.r_max) else 20.0
    if lo <= 0.0:
        lo = 1e-4 * hi  # geodesic-polar profiles close up at r = 0
    radii = sample_grid(lo, hi, int(params["samples"]))
    rows = ["r,scalar,sup_ricci,riemann_norm2,wplus_norm2,wminus_norm2"]
    sup_ric = sup_s = 0.0
    ricci_at_2 = None
    for r in radii:
        fr = curvature_at(metric, r)
        rows.append(
            f"{r:.12e},{fr.scalar:.12e},{fr.sup_ricci:.12e},"
            f"{fr.riemann_norm2:.12e},{fr.w_plus_norm2:.12e},{fr.w_minus_norm2:.12e}"
        )
        sup_ric = max(sup_ric, fr.sup_ricci)
        sup_s = max(sup_s, abs(fr.scalar))
    if lo < 2.0 < hi:
        ricci_at_2 = curvature_at(metric, 2.0).sup_ricci
    results = {
        "preset": preset.value,
        "sup_ricci": sup_ric,
        "sup_abs_scalar": sup_s,
        "sup_ricci_at_r2": ricci_at_2,
        "n_radii": len(radii),
    }
    return {"profile": "\n".join(rows) + "\n"}, results, params["preset"]


def _run_decay(params: dict, seed: int):
    from .cutoff import BaseInstanton, CutoffFamily, decay_sweep, volume_deficit

    base = BaseInstanton(params["base"])
    eps_list = [float(e) for e in params["eps"]]
    table = decay_sweep(base, eps_list, samples=int(params["samples"]))
    # a large cap keeps the deficit above the cancellation floor of the
    # flat-ball subtraction, so the 1e-10 relative comparison is meaningful
    eps0 = float(params["deficit_eps"])
    deficit = volume_deficit(CutoffFamily(base, eps0), R=4.0 * eps0)
    if base is BaseInstanton.EGUCHI_HANSON:
        closed_form = math.pi**2 * eps0**8 / 4.0
        stated = math.pi**2 * eps0**8 / 2.0
    else:
        closed_form = math.pi**2 * eps0**12 / 2.0
        stated = closed_form
    results = {
        "base": base.value,
        "fitted_slope": table.fitted_slope,
        "deficit": deficit,
        "deficit_vs_closed_form_rel": abs(deficit - closed_form) / closed_form,
        "deficit_over_stated": deficit / stated,
    }
    return {"sweep": table.to_csv()}, results, f"decay_{base.value}"


_BUNDLES = {"trivial": "TRIVIAL_TORUS_OVER_TORUS", "twisted": "TWISTED_PRODUCT",
            "nilmanifold": "NILMANIFOLD"}


def _make_bundle(name: str):
    from .submersion import BundleKind, make_bundle

    if name not in _BUNDLES:
        raise ValueError(f"unknown bundle '{name}' (allowed: {', '.join(_BUNDLES)})")
    return make_bundle(BundleKind[_BUNDLES[name]])


def _run_collapse(params: dict, seed: int):
    from .submersion import collapse_metric, oneill_at

    bundle = _make_bundle(params["bundle"])
    t_list = [float(t) for t in params["t"]]
    rows = ["t,volume,volume_times_t,k_h,k_p"]
    records = []
    for t in t_list:
        m = collapse_metric(bundle, t)
        cur = oneill_at(m)
        rows.append(
            f"{t:.6e},{m.total_volume():.12e},{m.total_volume() * t:.12e},"
            f"{cur.K_H:.12e},{cur.K_P:.12e}"
        )
        records.append((t, m.total_volume(), cur.K_H, cur.K_P))
    vol1 = records[0][1] * records[0][0]
    results = {
        "bundle": params["bundle"],
        "volume_t_product_spread": max(abs(v * t - vol1) for t, v, *_ in records),
        "k_h_values": [r[2] for r in records],
        "k_p_values": [r[3] for r in records],
        "base_gauss_curvature": bundle.base.curvature_at((0.1, 0.2)),
    }
    return {"family": "\n".join(rows) + "\n"}, results, f"collapse_{params['bundle']}"


def _run_glue(params: dict, seed: int):
    from .gluing import assemble_surface_model, certificate

    bundle = _make_bundle(params["bundle"])
    fam = assemble_surface_model(
        bundle, fiber_sums=int(params["fiber_sums"]), blowups=int(params["blowups"])
    )
    cert = certificate(fam, tuple(float(t) for t in params["t"]))
    rows = ["t,volume,sup_ricci,sup_scalar"]
    for t, vol, ric, s in cert.rows:
        rows.append(f"{t:.6e},{vol:.12e},{ric:.12e},{s:.12e}")
    results = json.loads(cert.to_json())
    results["blowups"] = int(params["blowups"])
    slug = f"glue_k{params['fiber_sums']}_l{params['blowups']}"
    return {"certificate": "\n".join(rows) + "\n"}, results, slug


def _run_yamabe(params: dict, seed: int):
    from .conformal import (
        ConformalGrid,
        aubin_bound,
        conformal_scalar,
        holder_gap,
        minimize_yamabe,
        negative_case_check,
    )

    n_pts = int(params["n"])
    grid = ConformalGrid(n_pts)
    x = grid.axis_coordinate(0)
    u0 = 1.0 + float(params["amplitude"]) * np.cos(2.0 * np.pi * x)
    res = minimize_yamabe(grid, u0, int(params["max_iters"]), float(params["tolerance"]))
    spread = float((res.u_star.max() - res.u_star.min()) / res.u_star.mean())

    # stencil-vs-spectral convergence of the transformation law
    orders = []
    errs = []
    for n_conv in (16, 32, 64):
        g = ConformalGrid(n_conv)
        u = 1.0 + 0.1 * np.cos(2.0 * np.pi * g.axis_coordinate(0))
        stencil = conformal_scalar(g, u)
        exact = conformal_scalar(ConformalGrid(n_conv, spectral=True), u)
        errs.append(float(np.max(np.abs(stencil - exact))))
    for a, b in zip(errs, errs[1:]):
        orders.append(math.log2(a / b))

    rng = np.random.default_rng(seed)
    draws = int(params["sweep_draws"])
    min_gap = math.inf
    small = ConformalGrid(8)
    for _ in range(draws):
        s_field = rng.standard_normal(small.shape)
        u = rng.random(small.shape) + 0.5
        min_gap = min(min_gap, holder_gap(small, s_field, u)["gap"])
    max_ncc = -math.inf
    for _ in range(min(draws, 100)):
        u = rng.random(small.shape) + 0.5
        max_ncc = max(max_ncc, negative_case_check(small, u))

    aubin = {str(n): aubin_bound(n) for n in (2, 3, 4)}
    results = {
        "quotient_star": res.quotient_star,
        "iterations": res.iterations,
        "u_spread": spread,
        "conformal_orders": orders,
        "min_holder_gap": min_gap,
        "max_negative_case": max_ncc,
        "aubin_bounds": aubin,
        "aubin_n2_minus_4pi_chi_s2": aubin["2"] - 8.0 * math.pi,
    }
    return {"descent": res.trace_csv()}, results, "yamabe"


def _run_charclass(params: dict, seed: int):
    from .charclass import integrate_characteristics, product_surface_frame, densities_at, wplus_sweep
    from .gluing import assemble_surface_model
    from .radial import Preset, make_metric
    from .submersion import collapse_metric

    s4 = integrate_characteristics(make_metric(Preset.ROUND))
    flat = integrate_characteristics(collapse_metric(_make_bundle("trivial"), 2.0))
    pf = densities_at(product_surface_frame(1.0, 1.0))
    # unit-curvature product of two round 2-spheres: volume (4 pi)^2
    s2xs2 = pf.gb_density * (4.0 * math.pi) ** 2

    bundle = _make_bundle("trivial")
    fam = assemble_surface_model(
        bundle, fiber_sums=int(params["fiber_sums"]), blowups=int(params["blowups"])
    )
    table = wplus_sweep(fam, [float(t) for t in params["t"]])
    wp = table.wplus_values
    results = {
        "round_s4": s4,
        "flat_t4": flat,
        "s2xs2_two_chi_plus_three_tau": s2xs2,
        "wplus_first": wp[0],
        "wplus_last": wp[-1],
        "wplus_monotone_decreasing": all(b < a for a, b in zip(wp, wp[1:])),
        "wminus_last": table.rows[-1][2],
        "tau_estimate": table.rows[-1][3],
    }
    return {"wplus_sweep": table.to_csv()}, results, "charclass"


def _run_classify(params: dict, seed: int):
    from .surfaces import (
        CANONICAL_SURFACES,
        SurfaceData,
        classify_records,
        sw_bound,
        yamabe_value,
    )

    if params["input"]:
        records = json.loads(Path(params["input"]).read_text())
    else:
        records = [s.to_json() for s in CANONICAL_SURFACES]
    answers = classify_records(records)

    value_checks = []
    for c1 in range(1, 10):
        expected = -4.0 * math.pi * math.sqrt(2.0 * c1)
        value_checks.append(abs(expected + math.sqrt(32.0 * math.pi**2 * c1)))
    results = {"answers": answers, "value_check_max_abs": max(value_checks)}
    rows = ["name,kod,sign,value_known,value"]
    for row in answers:
        ans = row["answer"]
        rows.append(
            f"{row['name']},{row['kod']},{ans['sign']},"
            f"{ans['value_known']},{ans['value']}"
        )
    return {"table": "\n".join(rows) + "\n"}, results, "classify"


_RUNNERS = {
    "curvature": _run_curvature,
    "decay": _run_decay,
    "collapse": _run_collapse,
    "glue": _run_glue,
    "yamabe": _run_yamabe,
    "charclass": _run_charclass,
    "classify": _run_classify,
}


def run(config: ExperimentConfig) -> list:
    """Execute one experiment and write its artifacts; returns written paths."""
    tables, results, slug = _RUNNERS[config.experiment](config.parameters, config.seed)
    return _write_artifacts(config, slug, tables, results)


# ----------------------------------------------------------------- report


def _criterion(num: int, desc: str, state, detail: str = ""):
    status = "SKIPPED" if state is None else ("PASS" if state else "FAIL")
    return {"criterion": num, "description": desc, "status": status, "detail": detail}


def report(out_dir: str) -> dict:
    """Collate all run summaries in a directory into an acceptance table."""
    out = Path(out_dir)
    summaries = {}
    for path in sorted(out.glob("*.json")):
        if path.name.endswith(".meta.json"):
            continue
        data = json.loads(path.read_text())
        if "config" in data and "results" in data:
            summaries[path.stem] = data
    if not summaries:
        raise FileNotFoundError(f"no run summaries found in {out_dir}")

    def by_experiment(name):
        return {k: v for k, v in summaries.items() if v["config"]["experiment"] == name}

    rows = []
    curvature = by_experiment("curvature")
    eh = next((v for v in curvature.values()
               if v["results"]["preset"] == "eguchi-hanson"), None)
    rows.append(_criterion(
        1, "Eguchi-Hanson Ricci-flat to 1e-9",
        None if eh is None else eh["results"]["sup_ricci"] < 1e-9,
        "" if eh is None else f"sup_ricci={eh['results']['sup_ricci']:.3e}"))
    burns = next((v for v in curvature.values()
                  if v["results"]["preset"] == "burns"), None)
    ok = None
    if burns is not None:
        r = burns["results"]
        ok = r["sup_abs_scalar"] < 1e-9 and (r["sup_ricci_at_r2"] or 0.0) > 1e-3
    rows.append(_criterion(2, "Burns scalar-flat, not Einstein", ok))

    decay = by_experiment("decay")
    slopes = [v["results"]["fitted_slope"] for v in decay.values()]
    ok = None if len(decay) < 2 else all(1.8 <= s <= 2.2 for s in slopes)
    rows.append(_criterion(3, "cutoff decay slopes in [1.8, 2.2]", ok,
                           f"slopes={[round(s, 3) for s in slopes]}"))
    ok = None
    if len(decay) >= 2:
        ok = all(v["results"]["deficit_vs_closed_form_rel"] < 1e-10 for v in decay.values())
    rows.append(_criterion(4, "volume deficits match closed forms", ok))

    collapse = by_experiment("collapse")
    ok = None
    if collapse:
        ok = True
        for v in collapse.values():
            r = v["results"]
            kh, kp = r["k_h_values"], r["k_p_values"]
            ok &= r["volume_t_product_spread"] < 1e-12
            ok &= all(abs(b) <= abs(a) + 1e-15 for a, b in zip(kp, kp[1:]))
            gaps = [abs(h - r["base_gauss_curvature"]) for h in kh]
            ok &= all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    rows.append(_criterion(5, "collapse family volume and O'Neill limits", ok))

    glue = by_experiment("glue")
    ricci_runs = [v for v in glue.values() if v["results"].get("blowups", 0) == 0]
    scalar_runs = [v for v in glue.values() if v["results"].get("blowups", 0) > 0]
    ok = None
    if ricci_runs and scalar_runs:
        ok = all(v["results"]["verdict"] == "BoundedRicciCollapse" for v in ricci_runs)
        ok &= all(v["results"]["verdict"] == "BoundedScalarCollapse" for v in scalar_runs)
    rows.append(_criterion(6, "glued certificates (Ricci / scalar verdicts)", ok))

    yam = next(iter(by_experiment("yamabe").values()), None)
    r = yam["results"] if yam else None
    rows.append(_criterion(
        7, "conformal law convergence order >= 1.8",
        None if r is None else all(o >= 1.8 for o in r["conformal_orders"])))
    rows.append(_criterion(
        8, "Hoelder gap and negative-case inequalities",
        None if r is None else (r["min_holder_gap"] >= -1e-12 and r["max_negative_case"] <= 1e-12)))
    rows.append(_criterion(
        9, "Yamabe descent reaches quotient < 1e-3",
        None if r is None else (r["quotient_star"] < 1e-3 and r["u_spread"] < 1e-3)))
    rows.append(_criterion(
        13, "Aubin bound closed forms",
        None if r is None else abs(r["aubin_n2_minus_4pi_chi_s2"]) < 1e-12))

    cc = next(iter(by_experiment("charclass").values()), None)
    ok = wp_ok = None
    if cc:
        r = cc["results"]
        ok = (abs(r["round_s4"]["two_chi_plus_three_tau"] - 4.0) < 1e-6
              and abs(r["round_s4"]["tau"]) < 1e-8
              and r["flat_t4"]["two_chi_plus_three_tau"] == 0.0
              and r["flat_t4"]["tau"] == 0.0
              and abs(r["s2xs2_two_chi_plus_three_tau"] - 8.0) < 1e-6)
        wp_ok = (r["wplus_monotone_decreasing"]
                 and r["wplus_last"] < 1e-3 * r["wplus_first"])
    rows.append(_criterion(10, "characteristic-class convention lock", ok))
    rows.append(_criterion(11, "self-dual Weyl energy collapse sweep", wp_ok))

    cl = next(iter(by_experiment("classify").values()), None)
    ok = None
    if cl:
        ok = cl["results"]["value_check_max_abs"] < 1e-12
    rows.append(_criterion(12, "classifier table and general-type values", ok))

    rows.sort(key=lambda r: r["criterion"])
    return {"criteria": rows, "runs": sorted(summaries)}


# -------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collapselab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("report",):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("overrides", nargs="*", help="key=value overrides")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            summary = report(args.out)
            out = Path(args.out)
            out.joinpath("report.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
            lines = [
                f"[{row['status']:>7}] {row['criterion']:>2}. {row['description']}"
                + (f"  ({row['detail']})" if row["detail"] else "")
                for row in summary["criteria"]
            ]
            text = "\n".join(lines) + "\n"
            out.joinpath("report.txt").write_text(text)
            print(text, end="")
            return 1 if any(r["status"] == "FAIL" for r in summary["criteria"]) else 0
        params = {}
        if args.config:
            params.update(_load_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ValueError(f"override must be key=value, got {item!r}")
            key, val = item.split("=", 1)
            params[key] = _parse_value(val)
        if args.samples is not None and "samples" in _DEFAULTS[args.command]:
            params["samples"] = args.samples
        if args.tolerance is not None and "tolerance" in _DEFAULTS[args.command]:
            params["tolerance"] = args.tolerance
        config = ExperimentConfig(args.command, params, args.out, args.seed)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        written = run(config)
    except Exception as exc:  # numerical failure: diagnostic, nonzero exit
        print(f"error: {config.experiment} failed: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
