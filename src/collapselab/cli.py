"""Configuration-driven experiment runner.

Each subcommand runs one experiment from the library.  Its runner returns
every table as data, ``(header, specs, rows)`` with one ``format`` spec per
column, and ``_write_artifacts`` alone turns the tables into CSV and the
summary into JSON under the output directory, embedding the resolved
configuration plus a content hash in every artifact so a run can be diffed
and reproduced exactly.  Timestamps live only in a ``.meta.json``
sidecar, keeping the payload byte-identical across reruns with the same
configuration and seed.  The ``report`` subcommand evaluates the acceptance
registry (``collapselab.acceptance``) on the summaries in an output
directory, marking criteria with no corresponding artifact as SKIPPED and
failing a criterion on any present summary that fails it.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .acceptance import evaluate, format_row
from .charclass import densities_at, integrate_characteristics, product_surface_frame, wplus_sweep
from .conformal import (ConformalGrid, aubin_bound, conformal_scalar, holder_gap, minimize_yamabe,
                        negative_case_check)
from .cutoff import (DEFICIT_FLOOR_LIMIT, BaseInstanton, CutoffFamily, decay_sweep, deficit_floor,
                     volume_deficit)
from .gluing import assemble_surface_model, certificate
from .radial import Preset, _check_range, curvature_at, make_metric, sample_grid
from .submersion import BundleKind, collapse_metric, make_bundle, oneill_at
from .surfaces import CANONICAL_SURFACES, blow_up_surface, classify_records, yamabe_value

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
        merged = dict(_DEFAULTS[self.experiment])
        for key, value in self.parameters.items():
            if key not in merged:
                raise ValueError(
                    f"unknown key '{key}' for experiment '{self.experiment}'"
                    f" (allowed: {', '.join(sorted(merged))})"
                )
            _check_value(key, merged[key], value)
        merged.update(self.parameters)
        self.parameters = merged


# parameters whose value must name a member of an enum
_CHOICES = {"preset": Preset, "base": BaseInstanton, "bundle": BundleKind}


def _check_value(key: str, default, value):
    """Raise ValueError unless ``value`` has the type of ``default`` (an int
    passes for a float, a None default stands for null or its key's type,
    list elements are checked against the first default element) and names a
    member of ``key``'s enum."""
    want, got = type(default), type(value)
    if default is None and value is not None:  # null leaves the key unset
        want = {"r_lo": float, "r_hi": float, "input": str}[key]
    if got is not want and (want, got) != (float, int):
        raise ValueError(f"parameter '{key}' must be {want.__name__}, got {value!r}")
    if isinstance(default, list):
        for item in value:
            _check_value(key, default[0], item)
    choices = [m.value for m in _CHOICES.get(key, ())]
    if choices and value not in choices:
        raise ValueError(
            f"parameter '{key}' must be one of {', '.join(choices)}, got {value!r}")


_DEFAULTS: dict[str, dict] = {
    "curvature": {"preset": "flat", "a": 1.0, "radius": 1.0, "samples": 200,
                  "r_lo": None, "r_hi": None},
    "decay": {"base": "eguchi-hanson", "eps": [0.2, 0.1, 0.05, 0.025], "deficit_eps": 0.5},
    "collapse": {"bundle": "trivial", "t": [1.0, 10.0, 100.0, 1000.0, 1e6]},
    "glue": {"bundle": "trivial", "fiber_sums": 1, "blowups": 0,
             "t": [1.0, 10.0, 100.0, 1000.0]},
    "yamabe": {"n": 32, "amplitude": 0.2, "max_iters": 500, "tolerance": 1e-10},
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


def _write_artifacts(config: ExperimentConfig, slug: str, tables: dict, results: dict):
    """Write each table ``name: (header, specs, rows)`` as ``{slug}_{name}.csv``,
    the cell in column j being ``format(row[j], specs[j])`` (an empty spec is
    ``str``, so ``repr`` for a float), then the summary and its sidecar."""
    out = Path(config.output_path)
    out.mkdir(parents=True, exist_ok=True)
    cfg = {"experiment": config.experiment, "parameters": config.parameters, "seed": config.seed}
    head = "".join(f"# {k}={json.dumps(v, sort_keys=True)}\n" for k, v in sorted(cfg.items()))
    written = []
    for name, (header, specs, rows) in tables.items():
        csv_text = "\n".join([header, *(",".join(map(format, row, specs)) for row in rows)]) + "\n"
        path = out / f"{slug}_{name}.csv"
        path.write_text(f"{head}# sha256={hashlib.sha256(csv_text.encode()).hexdigest()}\n"
                        + csv_text)
        written.append(path)
    summary = {"config": cfg, "results": results, "sha256": _payload_hash(results)}
    path = out / f"{slug}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(path)
    sidecar = out / f"{slug}.meta.json"
    sidecar.write_text(json.dumps({"written_at": time.time()}) + "\n")
    return written


# ---------------------------------------------------------------- runners


def _slug_number(x) -> str:
    """A parameter value as it appears in an artifact name: the shortest
    repr of float(x), which tells every two distinct values apart, less a
    trailing ".0", so that a=2 and a=2.0 name one run."""
    return repr(float(x)).removesuffix(".0")


# the scale key each preset reads; the other presets read neither
_SCALE_KEYS = {Preset.EGUCHI_HANSON: "a", Preset.ROUND: "radius"}


def _run_curvature(params: dict, seed: int):
    preset = Preset(params["preset"])
    for key in ("a", "radius"):
        if params[key] != 1.0 and _SCALE_KEYS.get(preset) != key:
            raise ValueError(f"{key}={params[key]!r}: preset {preset.value} does not read {key}")
    metric = make_metric(preset, A=params["a"], radius=params["radius"])
    hi = params["r_hi"]
    if hi is None:
        hi = metric.r_max if math.isfinite(metric.r_max) else 20.0
    lo = params["r_lo"]
    if lo is None:
        # geodesic-polar profiles close up at r = 0
        lo = metric.r_min if metric.r_min > 0.0 else 1e-4 * hi
    elif not lo > 0.0:
        raise ValueError(f"r_lo must be positive, got {lo!r}")
    _check_range(metric, lo, hi)
    radii = sample_grid(lo, hi, int(params["samples"]))
    # r = 2 rides in the same batch, as its last point
    at_2 = lo < 2.0 < hi
    try:
        with np.errstate(over="raise"):
            fr = curvature_at(metric, np.append(radii, 2.0) if at_2 else radii)
    except (OverflowError, FloatingPointError) as exc:
        # the run's scale, set by the preset's parameter or by r_lo, is out of
        # a float's range for the engine's products
        scale = _SCALE_KEYS.get(preset)
        given = [f"{k}={params[k]!r}" for k in (scale, "r_lo") if k and params[k] is not None]
        raise ValueError(f"{', '.join(given) or 'this range'}: the curvature at r in "
                         f"[{lo:g}, {hi:g}] overflows a float ({exc})") from exc
    columns = (fr.scalar, fr.sup_ricci, fr.riemann_norm2, fr.w_plus_norm2, fr.w_minus_norm2)
    profile = ("r,scalar,sup_ricci,riemann_norm2,wplus_norm2,wminus_norm2", (".12e",) * 6,
               list(zip(radii.tolist(), *(c.tolist() for c in columns))))
    n = len(radii)
    results = {
        "preset": preset.value,
        "sup_ricci": float(np.max(fr.sup_ricci[:n])),
        "sup_abs_scalar": float(np.max(np.abs(fr.scalar[:n]))),
        "sup_ricci_at_r2": float(fr.sup_ricci[n]) if at_2 else None,
        "n_radii": n,
    }
    # Eguchi-Hanson runs differ by A, round runs by a radius other than 1
    slug = preset.value
    if preset is Preset.EGUCHI_HANSON:
        slug += f"_a{_slug_number(params['a'])}"
    elif preset is Preset.ROUND and params["radius"] != 1.0:
        slug += f"_r{_slug_number(params['radius'])}"
    return {"profile": profile}, results, slug


def _run_decay(params: dict, seed: int):
    base = BaseInstanton(params["base"])
    eps_list = [float(e) for e in params["eps"]]
    table = decay_sweep(base, eps_list)
    # a large cap keeps the deficit above the cancellation floor of the
    # flat-ball subtraction, so the 1e-10 relative comparison is meaningful
    eps0 = float(params["deficit_eps"])
    try:
        fam = CutoffFamily(base, eps0)
    except ValueError as exc:
        raise ValueError(f"deficit_eps={eps0!r}: {exc}") from exc
    R = 4.0 * eps0
    # criterion 4 reads the deficit to DEFICIT_FLOOR_LIMIT, which the
    # subtraction's rounding floor must not exceed
    floor = deficit_floor(fam, R)
    if floor > DEFICIT_FLOOR_LIMIT:
        raise ValueError(f"deficit_eps={eps0!r}: the rounding floor {floor:.1e} of the "
                         f"flat-ball subtraction exceeds {DEFICIT_FLOOR_LIMIT:g}")
    deficit = volume_deficit(fam, R)
    # link_volume r_bolt^4 / 4, against the full-sphere value 2 pi^2 r_bolt^4 / 4
    closed_form = fam.link_volume * fam.r_bolt**4 / 4.0
    stated = 2.0 * math.pi**2 * fam.r_bolt**4 / 4.0
    results = {
        "base": base.value,
        "fitted_slope": table.fitted_slope,
        "deficit": deficit,
        "deficit_vs_closed_form_rel": abs(deficit - closed_form) / closed_form,
        "deficit_over_stated": deficit / stated,
    }
    rows = [(eps, s, math.log(eps), math.log(s)) for eps, s in table.rows]
    sweep = ("epsilon,sup_norm,log_eps,log_sup", ("",) * 4, rows)
    return {"sweep": sweep}, results, f"decay_{base.value}_d{_slug_number(eps0)}"


def _run_collapse(params: dict, seed: int):
    bundle = make_bundle(BundleKind(params["bundle"]))
    t_list = [float(t) for t in params["t"]]
    if not t_list:
        raise ValueError("need at least one parameter value t")
    rows = []
    for t in t_list:
        m = collapse_metric(bundle, t)
        cur = oneill_at(m)
        vol = m.total_volume()
        rows.append((t, vol, vol * t, cur.K_H, cur.K_P))
    results = {
        "bundle": params["bundle"],
        "volume_t_product_spread": max(abs(r[2] - rows[0][2]) for r in rows),
        "k_h_values": [r[3] for r in rows],
        "k_p_values": [r[4] for r in rows],
        "base_gauss_curvature": bundle.base.gauss_curvature,
    }
    family = ("t,volume,volume_times_t,k_h,k_p", (".6e",) + (".12e",) * 4, rows)
    return {"family": family}, results, f"collapse_{params['bundle']}"


def _run_glue(params: dict, seed: int):
    bundle = make_bundle(BundleKind(params["bundle"]))
    fam = assemble_surface_model(
        bundle, fiber_sums=int(params["fiber_sums"]), blowups=int(params["blowups"])
    )
    cert = certificate(fam, tuple(float(t) for t in params["t"]))
    results = {
        "schedule": cert.schedule,
        "rows": [{"t": t, "total_volume": v, "sup_ricci": r, "sup_scalar": s}
                 for t, v, r, s in cert.rows],
        "verdict": cert.verdict.value,
        "diagnostic": cert.diagnostic,
        "blowups": int(params["blowups"]),
    }
    table = ("t,volume,sup_ricci,sup_scalar", (".6e",) + (".12e",) * 3, cert.rows)
    slug = f"glue_{params['bundle']}_k{params['fiber_sums']}_l{params['blowups']}"
    return {"certificate": table}, results, slug


def _conformal_law_orders() -> list:
    """Convergence orders of the stencil transformation law to the closed form.

    Over the flat base, u = 1 + a cos(2 pi x) has Delta u = a (2 pi)^2 cos(2 pi x),
    so s_hat = (n-1) ell a (2 pi)^2 cos(2 pi x) / u^(ell+1).  u is constant
    along axes 1-3, whose stencil terms are exactly 0.0, so the N^4 result
    repeats one x-line bit for bit and (N, 8, 8, 8) gives the same errors.
    """
    a = 0.1
    errs = []
    for n_conv in (16, 32, 64):
        g = ConformalGrid((n_conv, 8, 8, 8))
        wave = np.cos(2.0 * np.pi * g.axis_coordinate(0))
        u = 1.0 + a * wave
        diff = conformal_scalar(g, u)
        diff -= (g.n_dim - 1) * g.ell * a * (2.0 * np.pi) ** 2 * wave / u ** (g.ell + 1.0)
        errs.append(float(np.max(np.abs(diff))))
    return [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]


def _equality_evidence(fields: np.ndarray) -> dict:
    """Criterion 8's evidence from positive fields u on the 8^4 unit lattice,
    at the equality cases of its two inequalities and against a second
    formula.

    * Hoelder: at s = 1 the gap is 0 and lhs^(n/2) is the volume
      int u^(2n/(n-2)) dmu, and at s = -1 the gap is 2 lhs; the largest
      relative deviation of any of the three over the fields.
    * Negative case: the lattice sum of (n-1) ell Delta u / u equals its
      edge form (n-1) ell sum_edges (2 - a - 1/a) / h^2 with
      a = u(x + e) / u(x), each term <= 0; the largest relative deviation,
      the largest value, and the value at u = 1, which is exactly 0.0.
    """
    grid = ConformalGrid(8)
    n, ell = grid.n_dim, grid.ell
    one = np.ones(grid.shape)
    holder, edge, checks = [], [], []
    for u in fields:
        at_one, at_minus_one = holder_gap(grid, one, u), holder_gap(grid, -one, u)
        holder.append(abs(at_one["gap"]) / at_one["lhs"])
        holder.append(abs(at_minus_one["gap"] - 2.0 * at_minus_one["lhs"]) / at_minus_one["lhs"])
        # at s = 1, lhs^(n/2) is the volume: the weight itself, read twice
        vol = grid.integrate((u * u) ** (n / (n - 2)))
        holder.append(abs(at_one["lhs"] ** (n / 2.0) - vol) / vol)
        pairs = 0.0
        for ax, h in enumerate(grid.spacings):
            a = np.roll(u, -1, axis=ax) / u
            pairs += float(np.sum(2.0 - a - 1.0 / a)) / h**2
        closed = (n - 1) * ell * pairs * grid.cell_volume
        checks.append(negative_case_check(grid, u))
        edge.append(abs(checks[-1] - closed) / abs(closed))
    # np.max, not max: a NaN deviation must reach the summary
    return {
        "holder_equality_deviation": float(np.max(holder)),
        "negative_case_edge_deviation": float(np.max(edge)),
        "max_negative_case": float(np.max(checks)),
        "negative_case_at_constant": negative_case_check(grid, one),
    }


def _run_yamabe(params: dict, seed: int):
    n_pts = int(params["n"])
    grid = ConformalGrid(n_pts)
    amplitude = float(params["amplitude"])
    # u0 varies along x alone: cos runs on the x-line, broadcast to the grid
    x = np.linspace(0.0, grid.periods[0], n_pts, endpoint=False).reshape(-1, 1, 1, 1)
    line = 1.0 + amplitude * np.cos(2.0 * np.pi * x)
    if not np.all(line > 0.0):
        raise ValueError(f"amplitude={amplitude!r}: the start 1 + amplitude cos 2 pi x "
                         "must be positive at every lattice point")
    u0 = np.broadcast_to(line, grid.shape)
    # drawn before the descent, so a bad seed fails before it runs
    fields = np.random.default_rng(seed).random((8, 8, 8, 8, 8)) + 0.5
    res = minimize_yamabe(grid, u0, int(params["max_iters"]), float(params["tolerance"]))
    orders = _conformal_law_orders()
    evidence = _equality_evidence(fields)
    spread = float((res.u_star.max() - res.u_star.min()) / res.u_star.mean())

    aubin = {str(n): aubin_bound(n) for n in (2, 3, 4)}
    results = {
        "quotient_star": res.quotient_star,
        "iterations": res.iterations,
        "u_spread": spread,
        "conformal_orders": orders,
        **evidence,
        "aubin_bounds": aubin,
        "aubin_n2_minus_4pi_chi_s2": aubin["2"] - 8.0 * math.pi,
    }
    descent = ("iteration,quotient,step", ("", ".16e", ".6e"), res.trace)
    return {"descent": descent}, results, f"yamabe_n{n_pts}"


def _run_charclass(params: dict, seed: int):
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    s4 = integrate_characteristics(make_metric(Preset.ROUND))
    flat = integrate_characteristics(collapse_metric(bundle, 2.0))
    pf = densities_at(product_surface_frame(1.0, 1.0))
    # unit-curvature product of two round 2-spheres: volume (4 pi)^2
    s2xs2 = pf.gb_density * (4.0 * math.pi) ** 2

    fam = assemble_surface_model(
        bundle, fiber_sums=int(params["fiber_sums"]), blowups=int(params["blowups"])
    )
    rows = wplus_sweep(fam, [float(t) for t in params["t"]])
    wp = [r[1] for r in rows]
    results = {
        "round_s4": s4,
        "flat_t4": flat,
        "s2xs2_two_chi_plus_three_tau": s2xs2,
        "wplus_first": wp[0],
        "wplus_last": wp[-1],
        "wplus_monotone_decreasing": all(b < a for a, b in zip(wp, wp[1:])),
        "wminus_last": rows[-1][2],
        "tau_estimate": rows[-1][3],
    }
    table = ("t,wplus_integral,wminus_integral,tau_estimate", (".6e",) + (".12e",) * 3, rows)
    return {"wplus_sweep": table}, results, "charclass"


def _run_classify(params: dict, seed: int):
    if params["input"]:
        try:
            text = Path(params["input"]).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read input: {exc}") from exc
        records = json.loads(text)
    else:
        records = [s.to_json() for s in CANONICAL_SURFACES]
    answers = classify_records(records)

    # general-type values against -4 pi sqrt(2 c1^2) and -sqrt(32 pi^2 c1^2),
    # for minimal models c1^2 = 1..9 with chi(O) = 1 (c1^2 = 1 has a Godeaux
    # surface's invariants, 9 a fake projective plane's) and 0..5 blow-ups
    general = CANONICAL_SURFACES[-1]
    worst = 0.0
    for c1 in range(1, 10):
        minimal = replace(general, c1sq_min=c1, chi=12 - c1, tau=c1 - 8, name=f"c1^2={c1}")
        expected = -4.0 * math.pi * math.sqrt(2.0 * c1)
        alt = -math.sqrt(32.0 * math.pi**2 * c1)
        for k in range(6):
            value = yamabe_value(blow_up_surface(minimal, k)).value
            worst = max(worst, abs(value - expected), abs(value - alt))
    results = {"answers": answers, "value_check_max_abs": worst}
    rows = []
    for row in answers:
        ans = row["answer"]
        rows.append((row["name"], row["kod"], ans["sign"], ans["value_known"], ans["value"]))
    return {"table": ("name,kod,sign,value_known,value", ("",) * 5, rows)}, results, "classify"


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


def report(out_dir: str) -> dict:
    """Evaluate the acceptance registry on every run summary in a directory."""
    summaries = {}
    for path in sorted(Path(out_dir).glob("*.json")):
        if path.name.endswith(".meta.json"):
            continue
        data = json.loads(path.read_text())
        if "config" in data and "results" in data:
            summaries[path.stem] = data
    if not summaries:
        raise FileNotFoundError(f"no run summaries found in {out_dir}")
    return {"criteria": evaluate(list(summaries.values())), "runs": sorted(summaries)}


# -------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collapselab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("overrides", nargs="*", help="key=value overrides")
    sub.add_parser("report").add_argument("--out", default="runs", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            summary = report(args.out)
            out = Path(args.out)
            out.joinpath("report.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
            text = "".join(format_row(row) + "\n" for row in summary["criteria"])
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
        config = ExperimentConfig(args.command, params, args.out, args.seed)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        written = run(config)
    except ValueError as exc:  # a parameter value the experiment cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure: diagnostic, nonzero exit
        print(f"error: {config.experiment} failed: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
