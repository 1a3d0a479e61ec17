"""One benchmark process: set up, run a cold pass, then warm passes.

Started by ``run.py`` with a fresh interpreter, so every in-process cache of
collapselab starts empty.  It imports the package from ``<root>/src``, runs
the workload's experiments through ``collapselab.cli.run``, checks each pass
with ``collapselab.cli.report`` and writes one JSON record to ``--out``.

    python3 perfbench/worker.py --workload radial --seed 1 \
        --t0 <CLOCK_MONOTONIC at spawn> --workdir DIR --out FILE [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import CRITERION_EXPERIMENT, WORKLOADS, headroom_digits, tolerance_checks  # noqa: E402

WARM_BUDGET_S = 4.0  # repeat warm passes until they add up to this much
MAX_WARM_PASSES = 20


def peak_rss_mb() -> float:
    """VmHWM of this process.  Unlike ru_maxrss, which Linux carries across
    fork and exec, it counts only this interpreter's own memory."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def import_package() -> list:
    """Import every collapselab module from ``<root>/src``."""
    sys.path.insert(0, str(ROOT / "src"))
    import collapselab

    src = (ROOT / "src" / "collapselab").resolve()
    if Path(collapselab.__file__).resolve().parent != src:
        raise ImportError(f"collapselab imported from {collapselab.__file__}, not {src}")
    return [importlib.import_module(f"collapselab.{m.name}")
            for m in pkgutil.iter_modules(collapselab.__path__)]


def find_caches(modules: list) -> dict:
    """Every module-level functools cache in the package, by dotted name."""
    return {
        f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": obj
        for mod in modules
        for name, obj in vars(mod).items()
        if callable(getattr(obj, "cache_info", None))
    }


def cache_state(caches: dict) -> dict:
    return {name: c.cache_info()._asdict() for name, c in caches.items()}


def _file_hash(path: Path) -> str:
    """The payload sha256 an artifact carries in its header or summary."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["sha256"]
    for line in text.splitlines():
        if line.startswith("# sha256="):
            return line.split("=", 1)[1]
    raise ValueError(f"{path.name} has no sha256 header")


def descent_traces(out: Path) -> list:
    """The quotient column of every descent trace a pass wrote."""
    traces = []
    for path in sorted(out.glob("*_descent.csv")):
        rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        traces.append([float(row.split(",")[1]) for row in rows[1:]])
    return traces


def descent_agrees(evaluated: list, trace: list) -> bool:
    """True when the quotient evaluations of one descent are exactly the
    start of the trace, then per iteration some rejected candidates
    (quotient above the current one) ending in the trace's next value."""
    if not evaluated or evaluated[0] != trace[0]:
        return False
    pos = 1
    for prev, accepted in zip(trace, trace[1:]):
        while pos < len(evaluated) and evaluated[pos] > prev:
            pos += 1
        if pos == len(evaluated) or evaluated[pos] != accepted:
            return False
        pos += 1
    return pos == len(evaluated)


def run_pass(cli, workload, seed: int, out: Path, probe: bool = False) -> dict:
    """Run the workload's experiments once into ``out`` and check them.

    With ``probe`` the host slowdown (``hostspeed.read``) is also read before
    the first call and after each one.
    """
    out.mkdir(parents=True)
    ops = []
    wall = 0.0
    slowdowns = [hostspeed.read()] if probe else []
    for experiment, params in workload.experiments:
        op = {"experiment": experiment, "params": params, "error": None, "hashes": {}}
        t0 = time.perf_counter()
        try:
            paths = cli.run(cli.ExperimentConfig(experiment, dict(params), str(out), seed))
        except Exception as exc:  # a failed operation is counted, not fatal
            op["error"] = f"{type(exc).__name__}: {exc}"
            paths = []
        wall += time.perf_counter() - t0
        if probe:
            slowdowns.append(hostspeed.read())
        op["hashes"] = {p.name: _file_hash(p) for p in paths if not p.name.endswith(".meta.json")}
        ops.append(op)

    summaries = {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")
                 if not p.name.endswith(".meta.json")}
    try:
        status = {row["criterion"]: row["status"] for row in cli.report(str(out))["criteria"]}
    except FileNotFoundError:
        status = {}
    failing = {c for c in workload.criteria if status.get(c) != "PASS"}
    for op in ops:
        bad = sorted(c for c in failing if CRITERION_EXPERIMENT[c] == op["experiment"])
        if bad and op["error"] is None:
            op["error"] = f"criteria {bad} not PASS"
    try:
        headroom = headroom_digits(summaries, workload.criteria)
    except (KeyError, ValueError):
        headroom = None
    return {
        "wall_s": wall,
        "slowdowns": slowdowns,
        "ops": ops,
        "criteria": {str(c): status.get(c, "MISSING") for c in workload.criteria},
        "headroom_digits": headroom,
        "tolerance_checks": [c for c in tolerance_checks(summaries) if c[0] in workload.criteria],
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir()
                              if not p.name.endswith(".meta.json")),
        "iterations": sum(s["results"].get("iterations", 0) for s in summaries.values()
                          if s["config"]["experiment"] == "yamabe"),
        "descent_traces": descent_traces(out),
    }


def layer_metrics(tracer, cold: dict, caches: dict) -> dict:
    """The per-layer metrics of one traced cold pass."""
    agg = tracer.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def cache(name):
        info = caches.get(name, {"hits": 0, "misses": 0})
        return info["hits"], info["hits"] + info["misses"]

    m = {}
    m["jets.profile_evals"] = get("radial.RadialProfile.at", "calls")
    m["jets.profile_s"] = get("radial.RadialProfile.at", "total_s")
    for fn in ("curvature_at", "sup_norms", "volume"):
        m[f"radial.{fn}.calls"] = get(f"radial.{fn}", "calls")
    m["radial.curvature_at.self_s"] = get("radial.curvature_at", "self_s")
    m["radial.sup_norms.total_s"] = get("radial.sup_norms", "total_s")
    m["radial.volume.total_s"] = get("radial.volume", "total_s")
    m["frame_curvature.riemann_tensor.calls"] = get("frame_curvature.riemann_tensor", "calls")
    m["frame_curvature.riemann_tensor.self_s"] = get("frame_curvature.riemann_tensor", "self_s")
    m["frame_curvature.frame_from_riemann.self_s"] = get("frame_curvature.frame_from_riemann", "self_s")
    m["frame_curvature.sectional_extremes.calls"] = get("frame_curvature.sectional_extremes", "calls")
    m["frame_curvature.sectional_extremes.self_s"] = get("frame_curvature.sectional_extremes", "self_s")
    m["cutoff.modified_metric.calls"] = get("cutoff.modified_metric", "calls")
    m["cutoff.modified_metric.total_s"] = get("cutoff.modified_metric", "total_s")
    m["cutoff.decay_sweep.total_s"] = get("cutoff.decay_sweep", "total_s")
    m["gluing.cap.calls"] = get("gluing.eh_cap", "calls") + get("gluing.burns_cap", "calls")
    m["gluing.cap.total_s"] = get("gluing.eh_cap", "total_s") + get("gluing.burns_cap", "total_s")
    m["gluing.certificate.total_s"] = get("gluing.certificate", "total_s")
    hits, lookups = cache("gluing._cap_certificate")
    m["gluing.cap_cache.hit_ratio"] = ratio(hits, lookups)
    m["gluing.cap_cache.lookups"] = lookups
    m["charclass.integrand_evals"] = tracer.child_calls("radial.curvature_at", "charclass.")
    m["charclass.wplus_sweep.total_s"] = get("charclass.wplus_sweep", "total_s")
    m["charclass.integrate_characteristics.total_s"] = get("charclass.integrate_characteristics", "total_s")
    hits, lookups = cache("charclass._cap_weyl")
    m["charclass.weyl_cache.hit_ratio"] = ratio(hits, lookups)
    m["charclass.weyl_cache.lookups"] = lookups
    evaluated = tracer.child_results("conformal.yamabe_quotient", "conformal.minimize_yamabe")
    quotient_evals = sum(len(e) for e in evaluated)
    candidates = quotient_evals - get("conformal.minimize_yamabe", "calls")
    m["conformal.descent_iterations"] = cold["iterations"]
    m["conformal.quotient_evals"] = quotient_evals
    m["conformal.linesearch.accept_ratio"] = ratio(cold["iterations"], candidates)
    m["conformal.minimize_yamabe.total_s"] = get("conformal.minimize_yamabe", "total_s")
    m["conformal.minimize_yamabe.self_s"] = get("conformal.minimize_yamabe", "self_s")
    for fn in ("laplacian", "gradient_energy_density"):
        m[f"conformal.{fn}.calls"] = get(f"conformal.{fn}", "calls")
        m[f"conformal.{fn}.self_s"] = get(f"conformal.{fn}", "self_s")
    points = tracer.counters["conformal.stencil_points"]
    m["conformal.stencil_points"] = points
    m["conformal.stencil_points_per_s"] = ratio(
        points, m["conformal.laplacian.self_s"] + m["conformal.gradient_energy_density.self_s"])
    m["conformal.conformal_scalar.total_s"] = get("conformal.conformal_scalar", "total_s")
    m["conformal.sweeps.total_s"] = (get("conformal.holder_gap", "total_s")
                                     + get("conformal.negative_case_check", "total_s"))
    m["submersion.oneill_at.calls"] = get("submersion.oneill_at", "calls")
    m["surfaces.classify_records.total_s"] = get("surfaces.classify_records", "total_s")
    m["cli.write_artifacts.total_s"] = get("cli.write_artifacts", "total_s")
    m["cli.artifact_bytes"] = cold["artifact_bytes"]
    m["cli.report.total_s"] = get("cli.report", "total_s")
    m["cache.cold_misses"] = sum(c["misses"] for c in caches.values())
    m["cache.cold_hits"] = sum(c["hits"] for c in caches.values())
    m["trace.cold_s"] = cold["wall_s"]
    m["trace.spans"] = len(tracer.spans)
    traces = cold.pop("descent_traces")
    descent_ok = len(evaluated) == len(traces) and all(map(descent_agrees, evaluated, traces))
    return m, descent_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent when it spawned this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    modules = import_package()
    cli = importlib.import_module("collapselab.cli")
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s}
    probe = workload.host_adjusted and not args.trace
    if probe:
        record["setup_slowdown"] = hostspeed.read()
    if args.setup_only:
        Path(args.out).write_text(json.dumps(record))
        return 0

    caches = find_caches(modules)
    record["caches_at_cold_start"] = cache_state(caches)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        record["wrapped"] = tracer.install(modules)
    try:
        cold = run_pass(cli, workload, args.seed, workdir / "cold", probe)
        record["caches_after_cold"] = cache_state(caches)
        if tracer is not None:
            record["layers"], record["descent_agrees"] = layer_metrics(
                tracer, cold, record["caches_after_cold"])
            tracer.write(workdir.parent / f"{workdir.name}.spans.csv")
        else:
            warm, total = [], 0.0
            while not warm or (total < WARM_BUDGET_S and len(warm) < MAX_WARM_PASSES):
                warm.append(run_pass(cli, workload, args.seed, workdir / f"warm{len(warm)}", probe))
                total += warm[-1]["wall_s"]
            record["warm"] = warm
            record["caches_after_warm"] = cache_state(caches)
        record["cold"] = cold
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["peak_rss_mb"] = peak_rss_mb()
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
