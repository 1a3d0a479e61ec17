"""The benchmark's workloads: fixed experiment mixes, the acceptance
criteria each one covers, and the tolerance headroom read from the
summaries a pass writes."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple  # (experiment, parameter overrides) in pass order
    criteria: tuple  # acceptance criteria of ``collapselab.cli.report`` it covers
    processes: int = 1  # fewest pass processes in an untraced run
    # timings scaled to a calm host (hostspeed.py); yamabe's memory-bound passes
    # do not slow with the host as the probe does, so they stay wall times
    host_adjusted: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "radial",
            (
                ("curvature", {"preset": "eguchi-hanson"}),
                ("curvature", {"preset": "burns"}),
                ("decay", {"base": "eguchi-hanson"}),
                ("decay", {"base": "burns"}),
                ("glue", {"blowups": 0}),
                ("glue", {"blowups": 2}),
                ("collapse", {}),
                ("classify", {}),
                ("charclass", {}),
            ),
            (1, 2, 3, 4, 5, 6, 10, 11, 12),
            processes=2,
        ),
        Workload(
            "yamabe",
            (("yamabe", {"n": 20}),),
            (7, 8, 9, 13),
            host_adjusted=False,
        ),
    )
}

# the experiment whose artifacts each acceptance criterion reads
CRITERION_EXPERIMENT = {
    1: "curvature", 2: "curvature", 3: "decay", 4: "decay", 5: "collapse",
    6: "glue", 7: "yamabe", 8: "yamabe", 9: "yamabe", 10: "charclass",
    11: "charclass", 12: "classify", 13: "yamabe",
}


def tolerance_checks(summaries: dict) -> list:
    """(criterion, label, tolerance, observed) for every criterion of the
    form |error| < tolerance, read from the run summaries of one pass.

    Criteria that are not error tolerances (6: verdicts, 7: convergence
    orders, 8: one-sided sign checks, and the "not Einstein" lower bound of
    2) have no headroom and are left out.
    """
    checks = []
    for slug, summary in sorted(summaries.items()):
        experiment = summary["config"]["experiment"]
        r = summary["results"]
        if experiment == "curvature" and r["preset"] == "eguchi-hanson":
            checks.append((1, f"{slug}.sup_ricci", 1e-9, r["sup_ricci"]))
        elif experiment == "curvature" and r["preset"] == "burns":
            checks.append((2, f"{slug}.sup_abs_scalar", 1e-9, r["sup_abs_scalar"]))
        elif experiment == "decay":
            checks.append((3, f"{slug}.slope_minus_2", 0.2, abs(r["fitted_slope"] - 2.0)))
            checks.append((4, f"{slug}.deficit_rel", 1e-10, r["deficit_vs_closed_form_rel"]))
        elif experiment == "collapse":
            checks.append((5, f"{slug}.volume_t_spread", 1e-12, r["volume_t_product_spread"]))
        elif experiment == "classify":
            checks.append((12, f"{slug}.value_check", 1e-12, r["value_check_max_abs"]))
        elif experiment == "yamabe":
            checks.append((9, f"{slug}.quotient_star", 1e-3, abs(r["quotient_star"])))
            checks.append((9, f"{slug}.u_spread", 1e-3, r["u_spread"]))
            checks.append((13, f"{slug}.aubin_n2", 1e-12, abs(r["aubin_n2_minus_4pi_chi_s2"])))
        elif experiment == "charclass":
            s4 = r["round_s4"]
            checks.append((10, f"{slug}.s4_euler", 1e-6, abs(s4["two_chi_plus_three_tau"] - 4.0)))
            checks.append((10, f"{slug}.s4_tau", 1e-8, abs(s4["tau"])))
            checks.append((10, f"{slug}.s2xs2", 1e-6, abs(r["s2xs2_two_chi_plus_three_tau"] - 8.0)))
            checks.append((11, f"{slug}.wplus_ratio", 1e-3 * r["wplus_first"], r["wplus_last"]))
    return checks


def headroom_digits(summaries: dict, criteria: tuple) -> float:
    """min over the covered tolerance criteria of log10(tolerance / observed).

    An observed error of exactly zero has unbounded headroom and does not
    constrain the minimum.
    """
    digits = [
        math.log10(tol / observed)
        for crit, _, tol, observed in tolerance_checks(summaries)
        if crit in criteria and observed > 0.0
    ]
    if not digits:
        raise ValueError("no tolerance criterion with a nonzero observed error")
    return min(digits)
