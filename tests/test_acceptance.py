"""Acceptance gate: the 13 criteria of ``collapselab.acceptance``.

A session fixture executes every criterion's declared runs through
``cli.run``, each run once, into one directory, and evaluates the registry
on it as ``collapselab report`` does.  Each test asserts PASS for its
criterion and prints its report row first, so the suite output doubles as
the acceptance table.
"""

import copy
import json
import math

import pytest

from collapselab.acceptance import CRITERIA, format_row
from collapselab.cli import ExperimentConfig, main, report, run


@pytest.fixture(scope="session")
def report_rows(tmp_path_factory):
    """Report rows by criterion number over one directory holding every
    declared run.  No two distinct runs may write one summary, since the
    later would hide the earlier from ``report``."""
    out = tmp_path_factory.mktemp("runs")
    declared = {(experiment, json.dumps(overrides, sort_keys=True)): (experiment, overrides)
                for c in CRITERIA for experiment, overrides in c.runs}
    summaries = []
    for experiment, overrides in declared.values():
        written = run(ExperimentConfig(experiment, dict(overrides), str(out)))
        summaries += [p for p in written
                      if p.suffix == ".json" and not p.name.endswith(".meta.json")]
    assert len(set(summaries)) == len(declared) == 14
    return {row["criterion"]: row for row in report(str(out))["criteria"]}


def _acceptance_test(criterion):
    def test(report_rows):
        row = report_rows[criterion.number]
        print(format_row(row))
        assert row["status"] == "PASS", format_row(row)

    test.__name__ = test.__qualname__ = f"test_criterion_{criterion.number:02d}_{criterion.name}"
    return test


# one test per registry record, named after it
for _criterion in CRITERIA:
    _test = _acceptance_test(_criterion)
    globals()[_test.__name__] = _test


_CRITERION_8 = next(c for c in CRITERIA if c.number == 8)


def _yamabe_summary(**results):
    evidence = {"holder_equality_deviation": 3.6e-16, "negative_case_edge_deviation": 1.9e-16,
                "max_negative_case": -298.1, "negative_case_at_constant": 0.0}
    return {"config": {"experiment": "yamabe", "parameters": {}},
            "results": {**evidence, **results}}


def test_criterion_08_fails_without_evidence():
    """Missing, null, boolean or non-finite evidence FAILs criterion 8, as
    does a summary of the random sweep that the equality evidence replaced.
    A JSON false passed it: its own type gate admitted booleans."""
    assert _CRITERION_8.check([_yamabe_summary()])["status"] == "PASS"
    old = {"config": {"experiment": "yamabe", "parameters": {}},
           "results": {"min_holder_gap": 1.115, "max_negative_case": -285.5}}
    bad = [old, _yamabe_summary(negative_case_at_constant=None)]
    for key in ("holder_equality_deviation", "negative_case_edge_deviation",
                "max_negative_case", "negative_case_at_constant"):
        bad += [_yamabe_summary(**{key: value})
                for value in (float("nan"), float("inf"), -float("inf"), False)]
    for summary in bad:
        row = _CRITERION_8.check([summary])
        assert row["status"] == "FAIL", format_row(row)
        # one bad run among good ones fails the criterion too
        assert _CRITERION_8.check([_yamabe_summary(), summary])["status"] == "FAIL"


def test_criterion_08_fails_off_equality():
    """A deviation of 2e-12 from either equality case, a positive
    negative-case value or a nonzero value at constant u FAILs criterion 8."""
    for results in ({"holder_equality_deviation": 2e-12},
                    {"negative_case_edge_deviation": 2e-12},
                    {"max_negative_case": 2e-12},
                    {"negative_case_at_constant": -1e-300},
                    {"negative_case_at_constant": 1e-300}):
        row = _CRITERION_8.check([_yamabe_summary(**results)])
        assert row["status"] == "FAIL", format_row(row)
    assert _CRITERION_8.check([_yamabe_summary(holder_equality_deviation=1e-12)])[
        "status"] == "PASS"


def _decay_summary(slope, deficit_rel, **parameters):
    return {"config": {"experiment": "decay",
                       "parameters": {"base": "eguchi-hanson", **parameters}},
            "results": {"base": "eguchi-hanson", "fitted_slope": slope,
                        "deficit_vs_closed_form_rel": deficit_rel}}


def test_a_lone_failing_run_fails_its_criteria(tmp_path):
    """The summary that ``decay eps=0.0002,0.0001,0.00005`` wrote before
    ``decay_sweep`` refused epsilons below float resolution: alone in its
    directory it read SKIPPED on criteria 3 and 4 and ``report`` exited 0.
    Its failing slope now FAILs criterion 3; its deficit passes but is one
    of the two runs criterion 4 needs, so that stays SKIPPED."""
    summary = _decay_summary(-1.2075187496394222, 1.9412920813377626e-12,
                             eps=[0.0002, 0.0001, 5e-05], deficit_eps=0.5, samples=120)
    (tmp_path / "decay_eguchi-hanson_d0.5.json").write_text(json.dumps(summary))
    assert main(["report", "--out", str(tmp_path)]) == 1
    rows = json.loads((tmp_path / "report.json").read_text())["criteria"]
    status = {row["criterion"]: row["status"] for row in rows}
    assert status[3] == "FAIL" and status[4] == "SKIPPED"
    assert [n for n, s in status.items() if s != "SKIPPED"] == [3]


def test_a_summary_without_its_value_fails_the_criterion(tmp_path):
    """A curvature summary with no ``sup_ricci`` made ``report`` exit 1 on
    a KeyError traceback, and one whose ``sup_ricci`` is null or a string
    on a TypeError from ``_worst``, with no report written.  Each now FAILs
    criterion 1, whose detail names the key, and leaves every other
    criterion SKIPPED."""
    for i, value in enumerate([{}, {"sup_ricci": None}, {"sup_ricci": "x"}]):
        out = tmp_path / str(i)
        out.mkdir()
        summary = {"config": {"experiment": "curvature",
                              "parameters": {"preset": "eguchi-hanson", "a": 1.0}},
                   "results": {"sup_abs_scalar": 1e-14, **value}}
        (out / "eguchi-hanson.json").write_text(json.dumps(summary))
        assert main(["report", "--out", str(out)]) == 1
        rows = json.loads((out / "report.json").read_text())["criteria"]
        assert rows[0]["status"] == "FAIL" and "'sup_ricci'" in rows[0]["detail"]
        assert all(row["status"] == "SKIPPED" for row in rows[1:])


def test_a_wrong_type_inside_a_value_fails_the_criterion():
    """A null inside a collapse summary's ``k_h_values`` made ``report``
    exit 1 on a TypeError traceback.  It now FAILs criterion 5, whose detail
    names the key."""
    summary = {"config": {"experiment": "collapse", "parameters": {"bundle": "trivial"}},
               "results": {"bundle": "trivial", "k_h_values": [1.0, None], "k_p_values": [0.0],
                           "base_gauss_curvature": 0.0, "volume_t_product_spread": 0.0}}
    row = next(c for c in CRITERIA if c.number == 5).check([summary])
    assert row["status"] == "FAIL" and row["detail"] == "key 'k_h_values' is not a number"


def test_part_of_the_evidence_fails_but_never_passes():
    """Criteria 3, 4 and 6 need two runs to PASS; one run can FAIL them."""
    def status(number, summaries):
        return next(c for c in CRITERIA if c.number == number).check(summaries)["status"]

    good = _decay_summary(2.0, 1e-12)
    assert status(3, [good]) == status(4, [good]) == "SKIPPED"
    assert status(3, [good, _decay_summary(2.0, 1e-12, base="burns")]) == "PASS"
    assert status(4, [_decay_summary(2.0, 1e-9)]) == "FAIL"
    assert status(3, []) == status(4, []) == "SKIPPED"
    glue = {"config": {"experiment": "glue", "parameters": {"blowups": 2}},
            "results": {"blowups": 2, "verdict": "BoundedRicciCollapse"}}
    assert status(6, [glue]) == "FAIL"
    glue["results"]["verdict"] = "BoundedScalarCollapse"
    assert status(6, [glue]) == "SKIPPED"


def _summary(experiment, results, **parameters):
    return {"config": {"experiment": experiment, "parameters": parameters}, "results": results}


_AUBIN = {"aubin_bounds": {"2": 8.0 * math.pi, "3": 6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0),
                           "4": 12.0 * math.sqrt(8.0 * math.pi**2 / 3.0)},
          "aubin_n2_minus_4pi_chi_s2": 0.0}
_BURNS = {"sup_abs_scalar": 1e-14, "sup_ricci_at_r2": 0.1}
_DESCENT = {"quotient_star": 1e-20, "u_spread": 1e-12}
_COLLAPSE = {"bundle": "trivial", "k_h_values": [0.0, 0.0], "k_p_values": [0.0, 0.0],
             "base_gauss_curvature": 0.0, "volume_t_product_spread": 0.0}
# one rational elliptic fiber sum and two blow-ups: tau = -8 - 2
_CHARCLASS = {"round_s4": {"two_chi_plus_three_tau": 4.0, "tau": 0.0},
              "flat_t4": {"two_chi_plus_three_tau": 0.0, "tau": 0.0},
              "s2xs2_two_chi_plus_three_tau": 8.0, "tau_estimate": -10.0,
              "wplus_monotone_decreasing": True, "wplus_first": 1.0, "wplus_last": 1e-4}

# (criterion, passing summaries, result key, the NaN or JSON false that breaks it)
_NAN_CASES = [
    (1, [_summary("curvature", {"sup_ricci": 1e-14}, preset="eguchi-hanson")], "sup_ricci",
     math.nan),
    (2, [_summary("curvature", _BURNS, preset="burns")], "sup_abs_scalar", math.nan),
    (2, [_summary("curvature", _BURNS, preset="burns")], "sup_ricci_at_r2", math.nan),
    (4, [_decay_summary(2.0, 1e-12), _decay_summary(2.0, 1e-12, base="burns")],
     "deficit_vs_closed_form_rel", math.nan),
    (9, [_yamabe_summary(**_DESCENT)], "quotient_star", math.nan),
    (9, [_yamabe_summary(**_DESCENT)], "u_spread", math.nan),
    (12, [_summary("classify", {"value_check_max_abs": 1e-15}, input="records.json")],
     "value_check_max_abs", math.nan),
    (13, [_yamabe_summary(**_AUBIN)], "aubin_n2_minus_4pi_chi_s2", math.nan),
    (13, [_yamabe_summary(**_AUBIN)], "aubin_bounds", {**_AUBIN["aubin_bounds"], "3": math.nan}),
    # a JSON false compared as the number 0 and passed each of these
    (5, [_summary("collapse", _COLLAPSE, bundle="trivial")], "volume_t_product_spread", False),
    (5, [_summary("collapse", _COLLAPSE, bundle="trivial")], "k_h_values", [False, False]),
    (5, [_summary("collapse", _COLLAPSE, bundle="trivial")], "k_p_values", [False, False]),
    (10, [_summary("charclass", _CHARCLASS, fiber_sums=1, blowups=2)], "flat_t4",
     {"two_chi_plus_three_tau": False, "tau": False}),
    (11, [_summary("charclass", _CHARCLASS, fiber_sums=1, blowups=2)], "wplus_last", False),
    (13, [_yamabe_summary(**_AUBIN)], "aubin_n2_minus_4pi_chi_s2", False),
]


def _case_id(case) -> str:
    number, _, key, value = case
    return f"{number}-{key}" + ("-false" if "False" in repr(value) else "")


@pytest.mark.parametrize("number,good,key,value", _NAN_CASES,
                         ids=[_case_id(case) for case in _NAN_CASES])
def test_a_nan_summary_fails_first_or_last(number, good, key, value):
    """A NaN FAILs criteria 1, 2, 4, 9, 12 and 13 wherever its summary sits:
    Python's max and min skip a NaN that is not first, so the criteria
    passed a NaN in the last summary and failed one in the first.  A JSON
    false FAILs criteria 5, 10, 11 and 13, which compared it as 0."""
    criterion = next(c for c in CRITERIA if c.number == number)
    assert criterion.check(good)["status"] == "PASS"
    bad = copy.deepcopy(good[-1])
    bad["results"][key] = value
    for summaries in ([bad, *good], [*good, bad]):
        row = criterion.check(summaries)
        assert row["status"] == "FAIL", format_row(row)


_CRITERION_11 = next(c for c in CRITERIA if c.number == 11)


@pytest.mark.parametrize("where, key, value, kind", [
    ("results", "wplus_monotone_decreasing", "no", "a boolean"),
    ("results", "wplus_monotone_decreasing", 1, "a boolean"),
    ("results", "wplus_monotone_decreasing", [0], "a boolean"),
    ("results", "wplus_monotone_decreasing", None, "a boolean"),
    ("parameters", "fiber_sums", True, "an integer"),
    ("parameters", "fiber_sums", 1.0, "an integer"),
    ("parameters", "fiber_sums", "1", "an integer"),
    ("parameters", "blowups", True, "an integer"),
    ("parameters", "blowups", 2.0, "an integer"),
    ("parameters", "blowups", None, "an integer"),
])
def test_criterion_11_reads_typed_values(where, key, value, kind):
    """Criterion 11 read its flag by truthiness and its counts unchecked, so
    a flag of "no", 1 or [0] PASSed, and so did a run of fiber_sums true
    (read as 1) with tau = -10.  Each now FAILs, naming the key."""
    good = _summary("charclass", _CHARCLASS, fiber_sums=1, blowups=2)
    assert _CRITERION_11.check([good])["status"] == "PASS"
    bad = copy.deepcopy(good)
    (bad["results"] if where == "results" else bad["config"]["parameters"])[key] = value
    for summaries in ([bad], [good, bad], [bad, good]):
        row = _CRITERION_11.check(summaries)
        assert row["status"] == "FAIL" and row["detail"] == f"key {key!r} is not {kind}", row
