"""The acceptance registry: the only home of the 13 criteria's predicates and
tolerances, evaluated by ``collapselab report`` and tests/test_acceptance.py.

Each criterion declares the (experiment, overrides) runs that produce its
evidence and a predicate over run summaries (the ``<slug>.json`` files of
``collapselab.cli.run``) that judges every matching summary.  Missing
summaries make it SKIPPED; a present summary that fails makes it FAIL even
when others are missing, since full evidence is needed only for PASS.  A
present summary that lacks a value the predicate reads, or holds one of a
type it cannot use, fails it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["Criterion", "CRITERIA", "evaluate", "format_row"]


@dataclass(frozen=True)
class Criterion:
    """``predicate(summaries)`` returns ``(ok, detail)``; ``name``, the
    predicate's name, names the criterion's acceptance test."""

    number: int
    name: str
    description: str
    runs: tuple
    predicate: Callable

    def check(self, summaries: list) -> dict:
        """This criterion's report row over ``summaries``.  A value of a
        type the predicate cannot use (a null or a string where it computes
        with a number) fails the criterion; the row names the key when the
        predicate read the value through a typed reader (``_number``,
        ``_numbers``, ``_integer`` or ``_flag``)."""
        try:
            ok, detail = self.predicate(summaries)
            status = "PASS" if ok else "FAIL"
        except _Missing:
            status, detail = "SKIPPED", ""
        except KeyError as exc:  # a summary lacks a value the predicate reads
            status, detail = "FAIL", f"missing key {exc.args[0]!r}"
        except _WrongType as exc:
            key, kind = exc.args
            status, detail = "FAIL", f"key {key!r} is not {kind}"
        except TypeError as exc:  # a summary holds a value the predicate cannot use
            status, detail = "FAIL", f"wrong type: {exc}"
        return {"criterion": self.number, "description": self.description,
                "status": status, "detail": detail}


CRITERIA: list = []


def evaluate(summaries: list) -> list:
    """Report rows of every criterion, in order, over a list of run summaries."""
    return [c.check(summaries) for c in CRITERIA]


def format_row(row: dict) -> str:
    """One line of the acceptance table."""
    tail = f"  ({row['detail']})" if row["detail"] else ""
    return f"[{row['status']:>7}] {row['criterion']:>2}. {row['description']}{tail}"


class _Missing(Exception):
    """A criterion's summaries are absent."""


class _WrongType(Exception):
    """A summary's value, named by its key, is not of the kind a criterion
    reads: ``_WrongType(key, "a number")``."""


def _criterion(number: int, description: str, runs):
    def register(predicate):
        name = predicate.__name__.lstrip("_")
        CRITERIA.append(Criterion(number, name, description, tuple(runs), predicate))
        return predicate
    return register


def _runs(summaries: list, experiment: str, required: bool = True, **params) -> list:
    """Summaries of the runs of ``experiment`` whose parameters match
    ``params``; raises _Missing when there are none and they are
    ``required``."""
    found = [s for s in summaries
             if s["config"]["experiment"] == experiment
             and all(s["config"]["parameters"].get(k) == v for k, v in params.items())]
    if required and not found:
        raise _Missing
    return found


def _results(summaries: list, experiment: str, required: bool = True, **params) -> list:
    """The ``results`` of ``_runs``."""
    return [s["results"] for s in _runs(summaries, experiment, required, **params)]


def _is_real(value) -> bool:
    """A JSON number, not a null, a string or a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(results: dict, key: str) -> float:
    """``results[key]``, which must be a real number."""
    value = results[key]
    if not _is_real(value):
        raise _WrongType(key, "a number")
    return value


def _numbers(results: dict, key: str) -> list:
    """``results[key]``, which must be a list of real numbers."""
    values = results[key]
    if not isinstance(values, list) or not all(map(_is_real, values)):
        raise _WrongType(key, "a number")
    return values


def _integer(results: dict, key: str) -> int:
    """``results[key]``, which must be a JSON integer, not a boolean."""
    value = results[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise _WrongType(key, "an integer")
    return value


def _flag(results: dict, key: str) -> bool:
    """``results[key]``, which must be a JSON boolean."""
    value = results[key]
    if not isinstance(value, bool):
        raise _WrongType(key, "a boolean")
    return value


def _worst(values, pick=max) -> float:
    """``pick`` (max or min) of ``values``, or NaN if any value is NaN:
    Python's max and min skip a NaN that is not first, so a NaN summary
    would pass or fail a criterion by its place in the list."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else pick(values)


def _enough(ok: bool, complete: bool) -> bool:
    """``ok`` once the evidence is ``complete``.  Part of it can fail a
    criterion but not pass it: a passing verdict on part is SKIPPED."""
    if ok and not complete:
        raise _Missing
    return ok


@_criterion(1, "Eguchi-Hanson Ricci-flat to 1e-9",
            [("curvature", {"preset": "eguchi-hanson", "samples": 500, "a": a})
             for a in (0.5, 1.0, 2.0)])
def _eguchi_hanson_ricci_flat(summaries):
    runs = _results(summaries, "curvature", preset="eguchi-hanson")
    worst = _worst(_number(r, "sup_ricci") for r in runs)
    return worst < 1e-9, f"sup_ricci={worst:.3e} over {len(runs)} runs"


@_criterion(2, "Burns scalar-flat to 1e-9, not Einstein (|Ric| > 1e-3 at r = 2)",
            [("curvature", {"preset": "burns", "samples": 500})])
def _burns_scalar_flat_not_einstein(summaries):
    runs = _results(summaries, "curvature", preset="burns")
    sup_s = _worst(_number(r, "sup_abs_scalar") for r in runs)
    ricci_2 = _worst((_number(r, "sup_ricci_at_r2") for r in runs), min)
    return sup_s < 1e-9 and ricci_2 > 1e-3, f"sup |s|={sup_s:.2e}, |Ric|(r=2)={ricci_2:.2e}"


_DECAY_RUNS = [("decay", {"base": "eguchi-hanson"}), ("decay", {"base": "burns"}),
               ("decay", {"base": "eguchi-hanson", "deficit_eps": 0.6})]


@_criterion(3, "cutoff decay slopes in [1.8, 2.2]", _DECAY_RUNS)
def _cutoff_decay_slopes(summaries):
    runs = _results(summaries, "decay")
    slopes = [_number(r, "fitted_slope") for r in runs]
    return (_enough(all(1.8 <= k <= 2.2 for k in slopes), len(runs) >= 2),
            ", ".join(f"{r['base']}: {k:.3f}" for r, k in zip(runs, slopes)))


@_criterion(4, "volume deficits match closed forms to 1e-10", _DECAY_RUNS)
def _volume_deficits(summaries):
    runs = _results(summaries, "decay")
    worst = _worst(_number(r, "deficit_vs_closed_form_rel") for r in runs)
    detail = f"max relative deviation {worst:.1e} over {len(runs)} runs"
    return _enough(worst < 1e-10, len(runs) >= 2), detail


@_criterion(5, "collapse family volume and O'Neill limits",
            [("collapse", {"bundle": "trivial"}), ("collapse", {"bundle": "nilmanifold"})])
def _collapse_family(summaries):
    runs = _results(summaries, "collapse")
    ok = True
    spreads = [_number(r, "volume_t_product_spread") for r in runs]
    for r, spread in zip(runs, spreads):
        kh, kp = _numbers(r, "k_h_values"), _numbers(r, "k_p_values")
        gaps = [abs(h - _number(r, "base_gauss_curvature")) for h in kh]
        ok &= (spread < 1e-12
               and all(math.isfinite(k) for k in kh + kp)
               and all(abs(b) <= abs(a) + 1e-15 for a, b in zip(kp, kp[1:]))
               and all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:])))
    return ok, "; ".join(f"{r['bundle']}: Vol*t spread {spread:.1e}"
                         for r, spread in zip(runs, spreads))


@_criterion(6, "glued certificates (Ricci / scalar verdicts)",
            [("glue", {"blowups": 0}), ("glue", {"blowups": 2})])
def _glued_certificates(summaries):
    runs = _results(summaries, "glue")
    ricci = [r for r in runs if r["blowups"] == 0]
    scalar = [r for r in runs if r["blowups"] > 0]
    ratios = [_number(r["rows"][-1], "total_volume") / _number(r["rows"][0], "total_volume")
              for r in ricci]
    ok = (all(r["verdict"] == "BoundedRicciCollapse" for r in ricci)
          and all(x < 1e-2 for x in ratios)
          and all(r["verdict"] == "BoundedScalarCollapse" for r in scalar))
    detail = f"l=0 volume ratio {max(ratios, default=math.nan):.1e}"
    return _enough(ok, bool(ricci and scalar)), detail


_YAMABE_RUNS = [("yamabe", {})]


@_criterion(7, "conformal law convergence order >= 1.8", _YAMABE_RUNS)
def _conformal_law_convergence(summaries):
    orders = [o for r in _results(summaries, "yamabe") for o in _numbers(r, "conformal_orders")]
    return all(o >= 1.8 for o in orders), f"orders {[round(o, 2) for o in orders]}"


_EQUALITY_EVIDENCE = ("holder_equality_deviation", "negative_case_edge_deviation",
                      "max_negative_case", "negative_case_at_constant")


@_criterion(8, "Hoelder gap and negative-case inequalities at equality", _YAMABE_RUNS)
def _variational_inequalities(summaries):
    runs = _results(summaries, "yamabe")
    values = [[_number(r, k) for k in _EQUALITY_EVIDENCE] for r in runs]
    # a non-finite value is no evidence
    if not all(math.isfinite(v) for row in values for v in row):
        return False, "non-finite evidence"
    holder, edge, ncc, const = zip(*values)
    ok = max(holder + edge + ncc) <= 1e-12 and not any(const)
    return ok, (f"Hoelder equality deviation {max(holder):.1e}, edge-form deviation "
                f"{max(edge):.1e}, max check {max(ncc):.1e}, constant {max(const, key=abs):.1e}")


@_criterion(9, "Yamabe descent reaches quotient < 1e-3", _YAMABE_RUNS)
def _yamabe_descent(summaries):
    runs = _results(summaries, "yamabe")
    quotient = _worst(_number(r, "quotient_star") for r in runs)
    spread = _worst(_number(r, "u_spread") for r in runs)
    return quotient < 1e-3 and spread < 1e-3, f"quotient {quotient:.1e}, spread {spread:.1e}"


@_criterion(10, "characteristic-class convention lock", [("charclass", {})])
def _characteristic_convention_lock(summaries):
    runs = _results(summaries, "charclass")
    s4 = [_number(r["round_s4"], "two_chi_plus_three_tau") for r in runs]
    s2xs2 = [_number(r, "s2xs2_two_chi_plus_three_tau") for r in runs]
    ok = all(abs(a - 4.0) < 1e-6
             and abs(_number(r["round_s4"], "tau")) < 1e-8
             and _number(r["flat_t4"], "two_chi_plus_three_tau") == 0.0
             and _number(r["flat_t4"], "tau") == 0.0
             and abs(b - 8.0) < 1e-6 for r, a, b in zip(runs, s4, s2xs2))
    return ok, f"S^4 {s4[0]:.8f}, S^2xS^2 {s2xs2[0]:.8f}"


@_criterion(11, "self-dual Weyl energy collapse sweep, signature to 1e-8", [("charclass", {})])
def _wplus_sweep_collapses(summaries):
    runs = _runs(summaries, "charclass")
    ok, worst = True, 0.0
    for run in runs:
        r, p = run["results"], run["config"]["parameters"]
        # tau = -8 per rational elliptic fibre sum and -1 per blow-up (the
        # torus-bundle base has tau = 0)
        tau_error = abs(_number(r, "tau_estimate") + 8 * _integer(p, "fiber_sums")
                        + _integer(p, "blowups"))
        worst = max(worst, tau_error)
        first, last = _number(r, "wplus_first"), _number(r, "wplus_last")
        ok &= _flag(r, "wplus_monotone_decreasing") and last < 1e-3 * first and tau_error < 1e-8
    r = runs[0]["results"]
    return ok, f"{r['wplus_first']:.3e} -> {r['wplus_last']:.3e}, |tau error| {worst:.1e}"


@_criterion(12, "classifier table and general-type values", [("classify", {})])
def _classifier_table_and_values(summaries):
    worst = _worst(_number(r, "value_check_max_abs") for r in _results(summaries, "classify"))
    # the sign table of the canonical surfaces, read when no input file replaced them
    canonical = ["positive", "positive", "zero", "zero", "zero", "negative"]
    tables_ok = all([a["answer"]["sign"] for a in r["answers"]] == canonical
                    for r in _results(summaries, "classify", required=False, input=None))
    return worst < 1e-12 and tables_ok, f"max deviation {worst:.1e}"


@_criterion(13, "Aubin bound closed forms", _YAMABE_RUNS)
def _aubin_bound_closed_forms(summaries):
    runs = _results(summaries, "yamabe")
    closed = {"2": 8.0 * math.pi, "3": 6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0),
              "4": 12.0 * math.sqrt(8.0 * math.pi**2 / 3.0)}
    worst = _worst(abs(_number(r["aubin_bounds"], n) - c) / c
                   for r in runs for n, c in closed.items())
    gauss_bonnet = _worst(abs(_number(r, "aubin_n2_minus_4pi_chi_s2")) for r in runs)
    return worst < 1e-12 and gauss_bonnet < 1e-12, f"max relative deviation {worst:.1e}"
