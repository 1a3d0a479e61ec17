"""Acceptance gate: the 13 criteria of ``collapselab.acceptance``.

Each test executes its criterion's declared runs through ``cli.run`` (every
run once per session, shared between criteria), evaluates the criterion on
their summaries and asserts PASS.  Each test prints its report row first,
so the suite output doubles as the acceptance table.
"""

import json

import pytest

from collapselab.acceptance import CRITERIA, format_row
from collapselab.cli import ExperimentConfig, run


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
