"""The acceptance registry: the only home of the 13 criteria's predicates and
tolerances, evaluated by ``collapselab report`` and tests/test_acceptance.py.

Each criterion declares the (experiment, overrides) runs that produce its
evidence and a predicate over run summaries (the ``<slug>.json`` files of
``collapselab.cli.run``) that judges every matching summary.  Missing
summaries make it SKIPPED; a present summary that fails makes it FAIL even
when others are missing, since full evidence is needed only for PASS.

A predicate reads every summary value, nested ones included, through one
typed reader, ``_read``.  A value that is missing, or not of the kind read,
FAILs the criterion with a detail that names its key.  A number is a JSON
number whose float value is finite: NaN, +-Infinity, an integer too large
for a float, a null, a string and a boolean are not numbers.  So no summary
makes a criterion raise.
"""

from __future__ import annotations

import math
import sys
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
        """This criterion's report row over ``summaries``.  A value the
        predicate reads that is missing, or not of the kind it reads (see
        ``_read``), fails the criterion, and the detail names its key."""
        try:
            ok, detail = self.predicate(summaries)
            status = "PASS" if ok else "FAIL"
        except _Missing:
            status, detail = "SKIPPED", ""
        except _Unreadable as exc:
            status, detail = "FAIL", str(exc)
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


class _Unreadable(Exception):
    """A summary value is missing or not of the kind a criterion reads; the
    message is the report row's detail."""


def _is_number(value) -> bool:
    """A JSON number whose float value is finite.  The comparison is exact
    and false for NaN, so it also refuses +-Infinity and integers too large
    for a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# the kinds of value ``_read`` reads, named as a report detail names them
_KINDS = {
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "an integer": lambda v: isinstance(v, int) and _is_number(v),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a non-empty list of objects":
        lambda v: isinstance(v, list) and bool(v) and all(isinstance(x, dict) for x in v),
}


def _read(mapping: dict, key: str, kind: str = "a number"):
    """``mapping[key]``, which must be of ``kind``, a key of ``_KINDS``;
    raises _Unreadable, naming ``key``, when it is missing or is not."""
    if key not in mapping:
        raise _Unreadable(f"missing key {key!r}")
    value = mapping[key]
    if not _KINDS[kind](value):
        raise _Unreadable(f"key {key!r} is not {kind}")
    return value


def _criterion(number: int, description: str, runs):
    def register(predicate):
        name = predicate.__name__.lstrip("_")
        CRITERIA.append(Criterion(number, name, description, tuple(runs), predicate))
        return predicate
    return register


def _runs(summaries: list, experiment: str, required: bool = True, **params) -> list:
    """``(parameters, results)`` of each run of ``experiment`` whose
    parameters match ``params``; raises _Missing when there are none and
    they are ``required``."""
    found = []
    for summary in summaries:
        config = _read(summary, "config", "an object")
        if _read(config, "experiment", "a string") == experiment:
            parameters = _read(config, "parameters", "an object")
            if all(parameters.get(k) == v for k, v in params.items()):
                found.append((parameters, _read(summary, "results", "an object")))
    if required and not found:
        raise _Missing
    return found


def _results(summaries: list, experiment: str, required: bool = True, **params) -> list:
    """The ``results`` of ``_runs``."""
    return [results for _, results in _runs(summaries, experiment, required, **params)]


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
    worst = max(_read(r, "sup_ricci") for r in runs)
    return worst < 1e-9, f"sup_ricci={worst:.3e} over {len(runs)} runs"


@_criterion(2, "Burns scalar-flat to 1e-9, not Einstein (|Ric| > 1e-3 at r = 2)",
            [("curvature", {"preset": "burns", "samples": 500})])
def _burns_scalar_flat_not_einstein(summaries):
    runs = _results(summaries, "curvature", preset="burns")
    sup_s = max(_read(r, "sup_abs_scalar") for r in runs)
    ricci_2 = min(_read(r, "sup_ricci_at_r2") for r in runs)
    return sup_s < 1e-9 and ricci_2 > 1e-3, f"sup |s|={sup_s:.2e}, |Ric|(r=2)={ricci_2:.2e}"


_DECAY_RUNS = [("decay", {"base": "eguchi-hanson"}), ("decay", {"base": "burns"}),
               ("decay", {"base": "eguchi-hanson", "deficit_eps": 0.6})]


@_criterion(3, "cutoff decay slopes in [1.8, 2.2]", _DECAY_RUNS)
def _cutoff_decay_slopes(summaries):
    runs = _results(summaries, "decay")
    slopes = [(_read(r, "base", "a string"), _read(r, "fitted_slope")) for r in runs]
    return (_enough(all(1.8 <= k <= 2.2 for _, k in slopes), len(runs) >= 2),
            ", ".join(f"{base}: {k:.3f}" for base, k in slopes))


@_criterion(4, "volume deficits match closed forms to 1e-10", _DECAY_RUNS)
def _volume_deficits(summaries):
    runs = _results(summaries, "decay")
    worst = max(_read(r, "deficit_vs_closed_form_rel") for r in runs)
    detail = f"max relative deviation {worst:.1e} over {len(runs)} runs"
    return _enough(worst < 1e-10, len(runs) >= 2), detail


@_criterion(5, "collapse family volume and O'Neill limits",
            [("collapse", {"bundle": "trivial"}), ("collapse", {"bundle": "nilmanifold"})])
def _collapse_family(summaries):
    ok, details = True, []
    for r in _results(summaries, "collapse"):
        spread = _read(r, "volume_t_product_spread")
        kh = _read(r, "k_h_values", "a list of numbers")
        kp = _read(r, "k_p_values", "a list of numbers")
        gauss = _read(r, "base_gauss_curvature")
        gaps = [abs(h - gauss) for h in kh]
        ok &= (spread < 1e-12
               and all(abs(b) <= abs(a) + 1e-15 for a, b in zip(kp, kp[1:]))
               and all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:])))
        details.append(f"{_read(r, 'bundle', 'a string')}: Vol*t spread {spread:.1e}")
    return ok, "; ".join(details)


@_criterion(6, "glued certificates (Ricci / scalar verdicts)",
            [("glue", {"blowups": 0}), ("glue", {"blowups": 2})])
def _glued_certificates(summaries):
    ricci, scalar, ratios = [], [], []
    for r in _results(summaries, "glue"):
        verdict = _read(r, "verdict", "a string")
        if _read(r, "blowups", "an integer") > 0:
            scalar.append(verdict == "BoundedScalarCollapse")
            continue
        ricci.append(verdict == "BoundedRicciCollapse")
        rows = _read(r, "rows", "a non-empty list of objects")
        first, last = _read(rows[0], "total_volume"), _read(rows[-1], "total_volume")
        # a volume is positive: a first row of none has no ratio to pass
        ratios.append(last / first if first > 0 else math.inf)
    ok = all(ricci) and all(scalar) and all(x < 1e-2 for x in ratios)
    detail = f"l=0 total_volume ratio {max(ratios, default=math.nan):.1e}"
    return _enough(ok, bool(ricci and scalar)), detail


_YAMABE_RUNS = [("yamabe", {})]


@_criterion(7, "conformal law convergence order >= 1.8", _YAMABE_RUNS)
def _conformal_law_convergence(summaries):
    orders = [o for r in _results(summaries, "yamabe")
              for o in _read(r, "conformal_orders", "a list of numbers")]
    return all(o >= 1.8 for o in orders), f"orders {[round(o, 2) for o in orders]}"


_EQUALITY_EVIDENCE = ("holder_equality_deviation", "negative_case_edge_deviation",
                      "max_negative_case", "negative_case_at_constant")


@_criterion(8, "Hoelder gap and negative-case inequalities at equality", _YAMABE_RUNS)
def _variational_inequalities(summaries):
    runs = _results(summaries, "yamabe")
    holder, edge, ncc, const = zip(*([_read(r, k) for k in _EQUALITY_EVIDENCE] for r in runs))
    ok = max(holder + edge + ncc) <= 1e-12 and not any(const)
    return ok, (f"Hoelder equality deviation {max(holder):.1e}, edge-form deviation "
                f"{max(edge):.1e}, max check {max(ncc):.1e}, constant {max(const, key=abs):.1e}")


@_criterion(9, "Yamabe descent reaches quotient < 1e-3", _YAMABE_RUNS)
def _yamabe_descent(summaries):
    runs = _results(summaries, "yamabe")
    quotient = max(_read(r, "quotient_star") for r in runs)
    spread = max(_read(r, "u_spread") for r in runs)
    return quotient < 1e-3 and spread < 1e-3, f"quotient {quotient:.1e}, spread {spread:.1e}"


@_criterion(10, "characteristic-class convention lock", [("charclass", {})])
def _characteristic_convention_lock(summaries):
    ok, details = True, []
    for r in _results(summaries, "charclass"):
        s4, t4 = _read(r, "round_s4", "an object"), _read(r, "flat_t4", "an object")
        s4_sum = _read(s4, "two_chi_plus_three_tau")
        s2xs2_sum = _read(r, "s2xs2_two_chi_plus_three_tau")
        ok &= (abs(s4_sum - 4.0) < 1e-6 and abs(_read(s4, "tau")) < 1e-8
               and _read(t4, "two_chi_plus_three_tau") == 0.0 and _read(t4, "tau") == 0.0
               and abs(s2xs2_sum - 8.0) < 1e-6)
        details.append(f"S^4 {s4_sum:.8f}, S^2xS^2 {s2xs2_sum:.8f}")
    return ok, details[0]


@_criterion(11, "self-dual Weyl energy collapse sweep, signature to 1e-8", [("charclass", {})])
def _wplus_sweep_collapses(summaries):
    ok, worst, sweeps = True, 0.0, []
    for p, r in _runs(summaries, "charclass"):
        # tau = -8 per rational elliptic fibre sum and -1 per blow-up (the
        # torus-bundle base has tau = 0); 8.0, since a count near the float
        # limit then reads inf, where 8 times it would not convert to a float
        tau_error = abs(_read(r, "tau_estimate") + 8.0 * _read(p, "fiber_sums", "an integer")
                        + _read(p, "blowups", "an integer"))
        worst = max(worst, tau_error)
        first, last = _read(r, "wplus_first"), _read(r, "wplus_last")
        ok &= (_read(r, "wplus_monotone_decreasing", "a boolean") and last < 1e-3 * first
               and tau_error < 1e-8)
        sweeps.append(f"{first:.3e} -> {last:.3e}")
    return ok, f"{sweeps[0]}, |tau error| {worst:.1e}"


@_criterion(12, "classifier table and general-type values", [("classify", {})])
def _classifier_table_and_values(summaries):
    worst = max(_read(r, "value_check_max_abs") for r in _results(summaries, "classify"))
    # the sign table of the canonical surfaces, read when no input file replaced them
    canonical = ["positive", "positive", "zero", "zero", "zero", "negative"]
    tables_ok = all([_read(_read(a, "answer", "an object"), "sign", "a string")
                     for a in _read(r, "answers", "a non-empty list of objects")] == canonical
                    for r in _results(summaries, "classify", required=False, input=None))
    return worst < 1e-12 and tables_ok, f"max deviation {worst:.1e}"


@_criterion(13, "Aubin bound closed forms", _YAMABE_RUNS)
def _aubin_bound_closed_forms(summaries):
    runs = _results(summaries, "yamabe")
    closed = {"2": 8.0 * math.pi, "3": 6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0),
              "4": 12.0 * math.sqrt(8.0 * math.pi**2 / 3.0)}
    worst = max(abs(_read(_read(r, "aubin_bounds", "an object"), n) - c) / c
                for r in runs for n, c in closed.items())
    gauss_bonnet = max(abs(_read(r, "aubin_n2_minus_4pi_chi_s2")) for r in runs)
    return worst < 1e-12 and gauss_bonnet < 1e-12, f"max relative deviation {worst:.1e}"
