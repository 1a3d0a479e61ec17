"""Acceptance gate: the 13 criteria of ``collapselab.acceptance``.

Each test executes its criterion's declared runs through ``cli.run`` (every
run once per session, shared between criteria), evaluates the criterion on
their summaries and asserts PASS.  Each test prints its report row first,
so the suite output doubles as the acceptance table.
"""

import json

import pytest

from collapselab.acceptance import CRITERIA, format_row
from collapselab.cli import ExperimentConfig, main, run


@pytest.fixture(scope="session")
def summaries_of(tmp_path_factory):
    """Summaries of a list of (experiment, overrides) runs.  Each run writes
    to its own directory, because runs of one experiment can share a slug."""
    done = {}

    def summaries_of(runs):
        summaries = []
        for experiment, overrides in runs:
            key = (experiment, json.dumps(overrides, sort_keys=True))
            if key not in done:
                out = tmp_path_factory.mktemp(experiment)
                run(ExperimentConfig(experiment, dict(overrides), str(out)))
                done[key] = next(json.loads(p.read_text()) for p in out.glob("*.json")
                                 if not p.name.endswith(".meta.json"))
            summaries.append(done[key])
        return summaries

    return summaries_of


def _acceptance_test(criterion):
    def test(summaries_of):
        row = criterion.check(summaries_of(criterion.runs))
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
    """Missing, null or non-finite evidence FAILs criterion 8, as does a
    summary of the random sweep that the equality evidence replaced."""
    assert _CRITERION_8.check([_yamabe_summary()])["status"] == "PASS"
    old = {"config": {"experiment": "yamabe", "parameters": {}},
           "results": {"min_holder_gap": 1.115, "max_negative_case": -285.5}}
    bad = [old, _yamabe_summary(negative_case_at_constant=None)]
    for key in ("holder_equality_deviation", "negative_case_edge_deviation",
                "max_negative_case", "negative_case_at_constant"):
        bad += [_yamabe_summary(**{key: value})
                for value in (float("nan"), float("inf"), -float("inf"))]
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
    (tmp_path / "decay_eguchi-hanson.json").write_text(json.dumps(summary))
    assert main(["report", "--out", str(tmp_path)]) == 1
    rows = json.loads((tmp_path / "report.json").read_text())["criteria"]
    status = {row["criterion"]: row["status"] for row in rows}
    assert status[3] == "FAIL" and status[4] == "SKIPPED"
    assert [n for n, s in status.items() if s != "SKIPPED"] == [3]


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
