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


def test_criterion_08_fails_without_evidence():
    """An empty sweep leaves min gap +inf and max check -inf: FAIL, not PASS."""
    summary = {"config": {"experiment": "yamabe", "parameters": {}},
               "results": {"min_holder_gap": float("inf"), "max_negative_case": -float("inf")}}
    row = next(c for c in CRITERIA if c.number == 8).check([summary])
    assert row["status"] == "FAIL", format_row(row)


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
