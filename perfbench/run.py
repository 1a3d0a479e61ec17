"""collapselab benchmark driver.

Runs one workload as a closed loop, one process and one experiment at a
time, and prints its metrics; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload radial --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50

Each pass process (``worker.py``) starts a fresh interpreter, so its cold
pass begins with every collapselab cache empty; warm passes follow in the
same process.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps the package's functions and reports
the per-layer metrics.  ``--all`` runs every workload both ways and prints
every metric plus the tracing overhead on cold_s.  Results, spans and the
environment record go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0  # every process of a run has ended by then
SETUP_SAMPLES = 5  # set-up-only processes top the pass processes up to this many
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a fixed str hash seed takes one source of layout noise out of the timings
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
# per-layer metrics in these units are timings; every other one is a
# deterministic counter that must repeat exactly between traced processes
TIMING_UNITS = {"s", "1/s", "GB/s"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_bandwidth_gbs(n_bytes: int = 448 * 2**20, repeats: int = 3) -> float:
    """Best numpy copy bandwidth (bytes read plus written per second) on
    arrays of more than four times the 105 MB L3 cache."""
    import numpy as np

    src = np.ones(n_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the destination pages in
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * src.nbytes / best / 1e9


def environment() -> dict:
    import numpy as np

    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": Path("/proc/loadavg").read_text().split()[:3],
    }


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spawn(workload: str, seed: int, tag: str, started: float, extra=()) -> tuple:
    """Run one worker process to completion; returns (record or None, error)."""
    out = OUT / "work" / f"{workload}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(OUT / "work" / f"{workload}-{tag}"),
           "--out", str(out), *extra]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], capture_output=True,
                              text=True, timeout=max(timeout, 1.0), env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return None, f"{tag}: timed out"
    if proc.returncode != 0 or not out.exists():
        return None, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    record = json.loads(out.read_text())
    out.unlink()
    return record, None


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    started = time.monotonic()
    workload = WORKLOADS[name]
    n_ops = len(workload.experiments)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    env = environment()
    problems = []
    setups = []
    if not trace:
        for k in range(SETUP_SAMPLES - workload.processes):
            rec, err = spawn(name, seed, f"setup{k}", started, ["--setup-only"])
            if err:
                problems.append(err)
            else:
                setups.append(rec)

    # traced runs need two processes to show that the counters repeat
    min_records = 2 if trace else workload.processes
    records = []
    attempted = failed = crashed = 0
    last = 0.0
    # the last process starts only if at least half of it fits in --seconds,
    # so a run ends within half a process of --seconds
    while time.monotonic() - started + last / 2 < seconds or len(records) < min_records:
        if time.monotonic() - started + last > RUN_LIMIT_S - 10.0 or crashed >= 3:
            if len(records) < min_records:
                problems.append("too few pass processes completed")
            break
        t0 = time.monotonic()
        rec, err = spawn(name, seed, f"pass{len(records) + crashed}", started,
                         ["--trace"] if trace else [])
        last = time.monotonic() - t0
        if err:
            problems.append(err)
            crashed += 1
            attempted += n_ops
            failed += n_ops
            continue
        records.append(rec)
    env["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    # probed after the passes, so its 900 MB of traffic cannot disturb them
    env["copy_bandwidth_gbs"] = copy_bandwidth_gbs()

    # correctness: every op ran, every covered criterion passed, and payload
    # hashes agree across all passes of the run
    passes = [p for r in records for p in [r["cold"], *r.get("warm", [])]]
    reference = [op["hashes"] for op in passes[0]["ops"]] if passes else []
    for p in passes:
        for i, op in enumerate(p["ops"]):
            attempted += 1
            if op["error"] is None and op["hashes"] != reference[i]:
                op["error"] = "payload sha256 differs from the first pass"
            if op["error"] is not None:
                failed += 1
                problems.append(f"{op['experiment']} {op['params']}: {op['error']}")

    for r in records:
        stale = [c for c, info in r["caches_at_cold_start"].items() if info["currsize"]]
        if stale:
            problems.append(f"caches not empty at cold start: {stale}")
        if not trace:
            cold_misses = sum(c["misses"] for c in r["caches_after_cold"].values())
            warm_hits = sum(r["caches_after_warm"][c]["hits"] - info["hits"]
                            for c, info in r["caches_after_cold"].items())
            if cold_misses and not warm_hits:
                problems.append("warm passes did not reuse the caches the cold pass filled")

    metrics = {}
    stats = {}
    raw_stats = {}
    kind = "per_layer" if trace else "end_to_end"
    if records:
        if trace:
            samples = {m["name"]: [r["layers"].get(m["name"]) for r in records]
                       for m in spec["per_layer"] if m["name"] != "env.copy_bandwidth_gbs"}
            samples["env.copy_bandwidth_gbs"] = [env["copy_bandwidth_gbs"]]
            for m in spec["per_layer"]:
                vals = samples[m["name"]]
                if None in vals:
                    problems.append(f"worker did not report {m['name']}")
                elif m["unit"] not in TIMING_UNITS and len(set(vals)) > 1:
                    problems.append(f"counter {m['name']} differs between traced processes: {vals}")
            layers = records[0]["layers"]
            if layers["frame_curvature.riemann_tensor.calls"] != layers["radial.curvature_at.calls"]:
                problems.append("riemann_tensor calls differ from curvature_at calls")
            if not all(r["descent_agrees"] for r in records):
                problems.append("quotient evaluations disagree with the descent trace")
        else:
            headrooms = [p["headroom_digits"] for p in passes]
            # a host-adjusted workload reports seconds on a calm host: wall time
            # over the run's mean host slowdown (hostspeed.py); the wall times
            # they come from are kept beside them
            warm = [w for r in records for w in r["warm"]]
            slowdown = 1.0
            if workload.host_adjusted:
                slowdown = statistics.fmean(
                    [r["setup_slowdown"] for r in setups + records]
                    + [x for p in passes for x in p["slowdowns"]])
                env["host_slowdown"] = slowdown
                raw_stats = {
                    "setup_s": quartiles([r["setup_s"] for r in setups + records]),
                    "cold_s": quartiles([r["cold"]["wall_s"] for r in records]),
                    "warm_s": quartiles([w["wall_s"] for w in warm]),
                }
            samples = {
                "setup_s": [r["setup_s"] / slowdown for r in setups + records],
                "cold_s": [r["cold"]["wall_s"] / slowdown for r in records],
                "warm_s": [w["wall_s"] / slowdown for w in warm],
                "peak_rss_mb": [r["peak_rss_mb"] for r in records],
                "headroom_digits": [min(headrooms)] if None not in headrooms else [],
            }
            if not samples["headroom_digits"]:
                problems.append("headroom could not be read from the summaries")
        for m in spec[kind]:
            vals = [v for v in samples.get(m["name"], []) if v is not None]
            if vals:
                stats[m["name"]] = quartiles(vals)
                metrics[m["name"]] = {"value": stats[m["name"]]["median"], "unit": m["unit"]}
    complete = len(metrics) == len(spec[kind])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "load_model": "closed loop: 1 client, 1 process, 1 experiment at a time",
        "environment": env, "metrics": stats, "raw_metrics": raw_stats, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems, "complete": complete,
        "processes": [{k: v for k, v in r.items() if k not in ("cold", "warm")} for r in records],
        "passes": passes,
        "wall_s": time.monotonic() - started,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    result["line"] = {"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}
    return result


def describe(result: dict, spec: dict) -> list:
    kind = "per_layer" if result["trace"] else "end_to_end"
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"failed_frac={result['failed_frac']:.4g}"]
    for m in spec[kind]:
        s = result["metrics"].get(m["name"])
        if s:
            lines.append(f"{m['name']:<46} {s['median']:>14.6g} {m['unit']:<6} "
                         f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    for name, s in result["raw_metrics"].items():
        lines.append(f"{'raw ' + name:<46} {s['median']:>14.6g} {'s':<6} "
                     f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}  (wall time, not host-adjusted)")
    lines += [f"! {p}" for p in result["problems"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "collapselab" / "cli.py").is_file():
        print(f"error: no collapselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    spec = load_spec()

    if not args.all:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print("\n".join(describe(result, spec)))
        if not result["complete"]:
            print("error: no complete measurement", file=sys.stderr)
            return 1
        print(json.dumps(result["line"]))
        return 0

    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = []
    for w in spec["workloads"]:
        cold = {}
        for trace in (False, True):
            result = run_workload(w["name"], args.seed, args.seconds, trace, spec)
            print("\n".join(describe(result, spec)), flush=True)
            line["correct"] &= result["line"]["correct"] and result["complete"]
            line["attempted"] += result["attempted"]
            line["failed"] += result["failed"]
            for k, v in result["line"]["metrics"].items():
                line["metrics"][f"{w['name']}.{k}"] = v
            # both wall times, neither adjusted for the host's speed
            cold[trace] = (result["metrics"].get("trace.cold_s", {}) if trace
                           else result["raw_metrics"].get("cold_s", result["metrics"].get("cold_s", {}))
                           ).get("median")
        if None not in cold.values():
            diff = cold[True] - cold[False]
            overhead.append(f"{w['name']:<14} cold_s {cold[False]:.3f} s, traced {cold[True]:.3f} s, "
                            f"overhead {diff:+.3f} s ({diff / cold[False]:+.1%})")
            line["metrics"][f"{w['name']}.trace_overhead_s"] = {"value": diff, "unit": "s"}
    print("# tracing overhead on cold_s")
    print("\n".join(overhead))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
