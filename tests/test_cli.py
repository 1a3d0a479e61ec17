"""Command-line experiment runner: artifacts, determinism, report collation."""

import importlib
import inspect
import json
import math
import pkgutil
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import collapselab
from collapselab import charclass, cli, conformal, cutoff, gluing, radial
from collapselab.cli import ExperimentConfig, main, report, run
from collapselab.cutoff import unit_cap
from collapselab.jets import Jet2
from collapselab.submersion import BundleKind


def _summary(out_dir, slug):
    return json.loads((out_dir / f"{slug}.json").read_text())


def test_config_merges_defaults():
    cfg = ExperimentConfig("curvature", {"preset": "round"})
    assert cfg.parameters["preset"] == "round"
    assert cfg.parameters["samples"] == 200  # default preserved


def test_config_rejects_unknown_experiment_and_key():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig("frobnicate")
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        ExperimentConfig("curvature", {"bogus": 1})


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    code = main(["curvature", "--out", str(tmp_path), "bogus=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err


def test_mistyped_parameter_exits_2(tmp_path, capsys):
    assert main(["curvature", "--out", str(tmp_path), "samples=abc"]) == 2
    assert "samples" in capsys.readouterr().err
    for experiment, override in (("curvature", "preset=nope"), ("decay", "base=nope"),
                                 ("collapse", "bundle=nope"), ("collapse", "t=1,abc")):
        assert main([experiment, "--out", str(tmp_path), override]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
    # well-typed values the experiment itself rejects are bad configuration too
    for experiment, override in (("yamabe", "n=4"), ("collapse", "t=[]"), ("glue", "t=1,2"),
                                 ("decay", "eps=[]"), ("charclass", "t=[]"),
                                 ("curvature", "samples=1"), ("curvature", "preset=custom"),
                                 ("yamabe", "max_iters=-1"), ("yamabe", "tolerance=NaN"),
                                 ("yamabe", "tolerance=-1"), ("yamabe", "tolerance=Infinity")):
        assert main([experiment, "--out", str(tmp_path), override]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # classify input: a missing file, a record without kod, a record that is
    # not an object, a null value, and integer invariants given as a float, a
    # string or a boolean (each would otherwise coerce to a valid surface)
    no_kod = tmp_path / "no_kod.json"
    no_kod.write_text('[{"c1sq_min": 0, "chi": 0, "tau": 0}]')
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[1]")
    null_chi = tmp_path / "null_chi.json"
    null_chi.write_text('[{"kod": "0", "c1sq_min": 0, "chi": null, "tau": 0}]')
    cases = [(tmp_path / "missing.json", "missing.json"), (no_kod, "kod"),
             (not_object, "JSON object"), (null_chi, "None")]
    for i, (record, key) in enumerate((
        ('{"kod": "0", "c1sq_min": 0, "chi": 24.9, "tau": -16.6}', "chi"),
        ('{"kod": "2", "c1sq_min": 5.7, "chi": 7, "tau": -3}', "c1sq_min"),
        ('{"kod": "2", "c1sq_min": 5, "chi": "565", "tau": -375}', "chi"),
        ('{"kod": "0", "c1sq_min": 0, "chi": 24, "tau": -16, "blowups": false}', "blowups"),
    )):
        path = tmp_path / f"mistyped_{i}.json"
        path.write_text(f"[{record}]")
        cases.append((path, f"{key} must be an integer"))
    for path, needle in cases:
        assert main(["classify", "--out", str(tmp_path), f"input={path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
    with pytest.raises(ValueError, match="must be int"):
        ExperimentConfig("yamabe", {"n": 20.5})
    # an int is a valid float; a None default takes null or its key's type
    assert ExperimentConfig("curvature", {"a": 2, "r_lo": 0.5}).parameters["a"] == 2


# the type of each key whose default is None (unset)
_UNSET_TYPES = {"r_lo": float, "r_hi": float, "input": str}
_JSON_VALUES = {
    str: st.text(max_size=6),
    bool: st.booleans(),
    list: st.lists(st.integers(), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    float: st.integers() | st.floats(allow_nan=False, allow_infinity=False),
}


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_key_refuses_another_json_type(tmp_path, capsys, data):
    """A value of another JSON type than a key's default exits 2 with a
    message that names the key, for every key of every experiment.  Before,
    a None default took anything: ``curvature r_lo=abc`` and ``classify
    input=5`` failed inside the run (exit 1) and ``r_hi=true`` read 1.0."""
    for experiment, defaults in cli._DEFAULTS.items():
        for key, default in defaults.items():
            want = _UNSET_TYPES[key] if default is None else type(default)
            others = [s for kind, s in _JSON_VALUES.items()
                      if kind is not want and {kind, want} != {float, int}]
            value = data.draw(st.one_of(others), label=f"{experiment} {key}")
            argv = [experiment, "--out", str(tmp_path), f"{key}={json.dumps(value)}"]
            assert main(argv) == 2, argv
            assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["yamabe", "n=20", "amplitude=NaN"],
    ["collapse", "t=1,NaN"],
    ["collapse", "t=1,Infinity"],
    ["curvature", "preset=eguchi-hanson", "r_hi=Infinity"],
])
def test_non_finite_values_exit_2(tmp_path, capsys, argv):
    """NaN and infinity are bad configuration (exit 2), refused before any
    artifact is written."""
    assert main(argv[:1] + ["--out", str(tmp_path)] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, needle", [
    (["charclass", "t=NaN,1"], "t must be finite and >= 1, got nan"),
    (["curvature", "preset=flat", "r_lo=1e-300", "r_hi=1e300"], "[1e-300, 1e+300] is too wide"),
    (["glue", "t=1,1e300,1e301"], "t=1e+300: eh_cap chart has non-positive volume"),
    (["charclass", "t=1,1e120,1e121"], "t=1e+120: burns_cap chart data must be finite"),
    (["charclass", "t=1,1e300,1e301"], "t=1e+300: "),
    (["curvature", "preset=eguchi-hanson", "a=1e-300"], "a=1e-300: the curvature"),
    (["curvature", "preset=round", "radius=1e-300"], "radius=1e-300: the curvature"),
    (["curvature", "preset=flat", "r_lo=1e-200", "r_hi=1"], "r_lo=1e-200: the curvature"),
    (["decay", "deficit_eps=0.01"], "deficit_eps=0.01: the rounding floor 2.3e-05"),
    (["decay", "deficit_eps=1e-5"], "deficit_eps=1e-05: the rounding floor"),
    (["decay", "deficit_eps=1e-40"], "deficit_eps=1e-40: the rounding floor"),
    (["decay", "deficit_eps=1e-80"], "deficit_eps=1e-80: the rounding floor 2.3e+307"),
    (["decay", "deficit_eps=1e-120"], "deficit_eps=1e-120: the rounding floor inf"),
    (["decay", "base=burns", "deficit_eps=0.45"], "deficit_eps=0.45: the rounding floor"),
    (["yamabe", "n=8", "amplitude=1.0"], "amplitude=1.0: "),
    (["yamabe", "n=8", "amplitude=-1"], "amplitude=-1.0: "),
    (["yamabe", "n=8", "amplitude=1.5"], "amplitude=1.5: "),
    (["yamabe", "n=8", "amplitude=NaN"], "amplitude=nan: "),
    (["yamabe", "n=8", "amplitude=Infinity"], "amplitude=inf: "),
    (["glue", "fiber_sums=0", "blowups=2", "t=1,1e300,1e301"],
     "t=1e+300: burns_cap chart has non-positive volume"),
])
def test_exit_2_names_the_parameter_given(tmp_path, capsys, argv, needle):
    """Bad configuration names the parameter the user gave.  Before, t = NaN
    passed the family rule's t < 1 and failed as "epsilon must lie in
    (0, 1)", the overflowing ratio r_hi / r_lo put r = inf on the grid, and
    a t whose cap data a float cannot hold (a Burns r_bolt^2 or a cap volume
    of 0.0) exited 1 with "float division by zero" or 2 with a chart message
    that named no t.  A scale too small for the jets (a, radius or r_lo)
    exited 1 with "Numerical result out of range", and so did deficit_eps
    1e-40 and 1e-80; deficit_eps 0.01 and 1e-5 exited 0 with a deficit off
    its closed form by 7.9e-6 and 3.1e6 relative.  A yamabe amplitude whose
    start is not positive at every lattice point, NaN or infinite exited 2
    with "conformal factor must be positive everywhere", which named no
    parameter.  Blow-ups without a fiber sum at t = 1e300 exited 1 with
    "float division by zero": the Burns core's Weyl energy divided its
    underflowed bolt radius by itself."""
    assert main(argv[:1] + ["--out", str(tmp_path)] + argv[1:]) == 2
    assert needle in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_glue_at_large_t_exits_0(tmp_path):
    """The cap certificate no longer forms the core's |W-|^2 at the bolt,
    whose r_bolt^12 underflowed to 0.0 and divided by zero (exit 1)."""
    assert main(["glue", "--out", str(tmp_path), "t=1,1e25,1e26"]) == 0


# the edge values among the property test's draws, with one just below the
# noise guard's 3.86e-3 and one below both deficit floor limits
_EDGE_FLOATS = [0.0, -0.5, 1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 3.8e-3, 0.2]


def _log_uniform(lo: float, hi: float):
    """10^x with x uniform in [log10 lo, log10 hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


# the largest float below 1, so that no exponent draw is -0.0, which maps to 1
_BELOW_1 = math.nextafter(1.0, 0.0)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(list(cutoff.BaseInstanton)),
       eps=st.lists(_log_uniform(4e-3, _BELOW_1), min_size=3, max_size=6, unique=True),
       deficit_eps=_log_uniform(0.22, _BELOW_1),
       edge=st.sampled_from([None] * 2 * len(_EDGE_FLOATS) + _EDGE_FLOATS),
       edge_is_deficit=st.booleans())
def test_decay_run_is_right_or_exits_2(tmp_path, base, eps, deficit_eps, edge,
                                       edge_is_deficit):
    """Every ``decay`` run exits 0 or 2.  Its distinct epsilons are drawn
    over [4e-3, 1), inside the range the noise guard accepts,
    [3.86e-3, 1), and its deficit_eps over [0.22, 1), inside the range the
    rounding-floor limit accepts for Eguchi-Hanson, [0.218, 1), which
    straddles the Burns limit 0.467; in a third of the runs an edge value
    replaces deficit_eps or the last epsilon.  A run that exits 0 fits a
    slope in criterion 3's [1.8, 2.2], meets criterion 4's 1e-10 on the
    deficit, and writes each sweep row as the cap certificate
    ``cap_sup_norms`` of its epsilon, bit for bit; one that exits 2 writes
    nothing."""
    if edge is not None and edge_is_deficit:
        deficit_eps = edge
    elif edge is not None:
        eps[-1] = edge
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    argv = ["decay", "--out", str(out), f"base={base.value}", f"eps={json.dumps(eps)}",
            f"deficit_eps={json.dumps(deficit_eps)}"]
    code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert not out.exists()
        return
    slug = f"decay_{base.value}_d{cli._slug_number(deficit_eps)}"
    results = _summary(out, slug)["results"]
    assert 1.8 <= results["fitted_slope"] <= 2.2
    assert results["deficit_vs_closed_form_rel"] < 1e-10
    column = 0 if base is cutoff.BaseInstanton.EGUCHI_HANSON else 1
    lines = (out / f"{slug}_sweep.csv").read_text().splitlines()
    for line in lines[lines.index("epsilon,sup_norm,log_eps,log_sup") + 1:]:
        epsilon, sup = map(float, line.split(",")[:2])
        assert sup == cutoff.cap_sup_norms(cutoff.CutoffFamily(base, epsilon))[column]


def _finite(value) -> bool:
    """Every number in a JSON value is finite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment=st.sampled_from(["collapse", "glue"]),
       bundle=st.sampled_from(list(BundleKind)),
       fiber_sums=st.integers(0, 3),
       blowups=st.integers(0, 3),
       t=st.lists(_log_uniform(1.0, 1e300), min_size=3, max_size=6, unique=True),
       edge=st.sampled_from([None] * 6 + [math.nan, math.inf, 0.5]),
       edge_at=st.integers(0, 5))
def test_collapse_and_glue_runs_are_right_or_exit_2(tmp_path, experiment, bundle, fiber_sums,
                                                    blowups, t, edge, edge_at):
    """Every ``collapse`` and ``glue`` run exits 0 or 2.  Its t values are
    drawn log-uniformly over [1, 1e300] and sorted; in a third of the runs
    NaN, inf or 0.5 replaces one of them.  A run that exits 0 writes a
    finite summary: ``collapse`` meets criterion 5's volume spread, ``glue``
    states one of the three verdicts, and the nilmanifold's glued rows
    carry its exact sup |Ric| = |s| = 1 / (2t).  One that exits 2 writes
    nothing."""
    t = sorted(t)
    if edge is not None:
        t[edge_at % len(t)] = edge
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    argv = [experiment, "--out", str(out), f"bundle={bundle.value}", f"t={json.dumps(t)}"]
    if experiment == "glue":
        argv += [f"fiber_sums={fiber_sums}", f"blowups={blowups}"]
    code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert not out.exists()
        return
    (summary,) = [p for p in out.glob("*.json") if not p.name.endswith(".meta.json")]
    results = json.loads(summary.read_text())["results"]
    assert _finite(results), argv
    if experiment == "collapse":
        assert results["volume_t_product_spread"] < 1e-12
        return
    assert results["verdict"] in {v.value for v in gluing.Verdict}
    if bundle is BundleKind.NILMANIFOLD:
        for row in results["rows"]:
            exact = 0.5 / row["t"]
            assert row["sup_ricci"] == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert row["sup_scalar"] == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_decay_has_no_samples_key(tmp_path, capsys):
    """The sweep reads the cap certificates, so it samples nothing."""
    assert main(["decay", "--out", str(tmp_path), "samples=120"]) == 2
    assert "unknown key 'samples'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_curvature_r_lo_must_be_positive(tmp_path, capsys):
    """An explicit r_lo <= 0 is bad configuration; only an unset r_lo on a
    profile that closes up at r = 0 starts the grid at 1e-4 r_hi."""
    for value in ("-1", "0"):
        assert main(["curvature", "--out", str(tmp_path), "preset=flat", f"r_lo={value}"]) == 2
        assert "r_lo" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert main(["curvature", "--out", str(tmp_path), "preset=round", "samples=5"]) == 0
    rows = (tmp_path / "round_profile.csv").read_text().splitlines()[-5:]
    grid = radial.sample_grid(1e-4 * math.pi, math.pi, 5)
    assert [row.split(",")[0] for row in rows] == [f"{r:.12e}" for r in grid]


@pytest.mark.parametrize("overrides", [
    ["preset=round", "r_lo=0.1", "r_hi=3.2"],
    ["preset=round", "r_lo=0.1", "r_hi=3.2", "samples=2000"],
    ["preset=burns", "r_lo=0.999", "r_hi=3", "samples=8"],
])
def test_curvature_range_outside_the_domain_exits_2(tmp_path, capsys, monkeypatch, overrides):
    """A range past the preset's domain is bad configuration whatever the
    sample count.  Before, round's r_hi = 3.2 > pi exited 0 at 200 samples
    and 2 at 2000, as the grid happened to land, and Burns's r_lo = 0.999
    below r_min = 1 exited 0.  The range is refused before any curvature
    evaluation."""
    calls = []
    monkeypatch.setattr(cli, "curvature_at", lambda *args: calls.append(args))
    assert main(["curvature", "--out", str(tmp_path), *overrides]) == 2
    assert "outside the domain" in capsys.readouterr().err
    assert not calls and not any(tmp_path.iterdir())


@pytest.mark.parametrize("overrides, key", [
    (["preset=burns", "a=5", "radius=3"], "a=5"),
    (["preset=burns", "radius=3"], "radius=3"),
    (["preset=flat", "a=0.5"], "a=0.5"),
    (["preset=round", "a=2"], "a=2"),
    (["preset=round", "a=NaN"], "a=nan"),
    (["preset=eguchi-hanson", "radius=2"], "radius=2"),
    (["preset=flat", "radius=Infinity"], "radius=inf"),
])
def test_curvature_refuses_a_scale_its_preset_does_not_read(tmp_path, capsys, overrides, key):
    """Only eguchi-hanson reads ``a`` and only round reads ``radius``.
    Before, ``preset=burns a=5 radius=3`` exited 0 and wrote over the
    default run's ``burns.json`` with the same bits.  A scale of 1.0, the
    default, is accepted by every preset."""
    assert main(["curvature", "--out", str(tmp_path), *overrides]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: preset ") and "does not read" in err
    assert not any(tmp_path.iterdir())
    preset = overrides[0]
    assert main(["curvature", "--out", str(tmp_path), preset, "a=1", "radius=1.0",
                 "samples=5"]) == 0


def test_bad_override_syntax_exits_2(tmp_path, capsys):
    assert main(["classify", "--out", str(tmp_path), "justaword"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_classify_run_artifacts(tmp_path):
    code = main(["classify", "--out", str(tmp_path)])
    assert code == 0
    summary = _summary(tmp_path, "classify")
    assert summary["config"]["experiment"] == "classify"
    assert summary["results"]["value_check_max_abs"] < 1e-12
    csv = (tmp_path / "classify_table.csv").read_text()
    head, _, body = csv.partition("name,kod,sign")
    assert "# sha256=" in head
    signs = [line.split(",")[2] for line in ("name,kod,sign" + body).splitlines()[1:]]
    assert signs == ["positive", "positive", "zero", "zero", "zero", "negative"]
    assert (tmp_path / "classify.meta.json").exists()


def test_rerun_is_byte_identical_modulo_sidecar(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["collapse", "--out", str(out)]) == 0
    for name in ("collapse_trivial.json", "collapse_trivial_family.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # sidecars carry timestamps and are allowed to differ
    assert (a / "collapse_trivial.meta.json").exists()


def test_summary_hash_matches_results(tmp_path):
    import hashlib

    assert main(["classify", "--out", str(tmp_path)]) == 0
    summary = _summary(tmp_path, "classify")
    digest = hashlib.sha256(
        json.dumps(summary["results"], sort_keys=True).encode()
    ).hexdigest()
    assert summary["sha256"] == digest


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\npreset=flat\nsamples=10\n")
    out = tmp_path / "out"
    code = main(["curvature", "--config", str(cfg), "--out", str(out), "preset=round"])
    assert code == 0
    summary = _summary(out, "round")
    assert summary["config"]["parameters"]["preset"] == "round"
    assert summary["config"]["parameters"]["samples"] == 10


def test_curvature_flags(tmp_path):
    code = main(["curvature", "--out", str(tmp_path), "samples=15",
                 "preset=eguchi-hanson"])
    assert code == 0
    summary = _summary(tmp_path, "eguchi-hanson_a1")
    assert summary["config"]["parameters"]["samples"] == 15
    assert summary["results"]["sup_ricci"] < 1e-9


def test_report_on_empty_dir_errors(tmp_path, capsys):
    with pytest.raises(FileNotFoundError):
        report(str(tmp_path))
    assert main(["report", "--out", str(tmp_path)]) == 2


def test_report_partial_marks_skipped(tmp_path, capsys):
    assert main(["classify", "--out", str(tmp_path)]) == 0
    assert main(["report", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "SKIPPED" in text
    table = json.loads((tmp_path / "report.json").read_text())
    status = {row["criterion"]: row["status"] for row in table["criteria"]}
    assert status[12] == "PASS"
    assert status[1] == "SKIPPED"
    assert len(status) == 13


def test_report_fails_doctored_sign_table(tmp_path):
    assert main(["classify", "--out", str(tmp_path)]) == 0
    path = tmp_path / "classify.json"
    summary = json.loads(path.read_text())
    summary["results"]["answers"][0]["answer"]["sign"] = "negative"
    path.write_text(json.dumps(summary))
    status = {row["criterion"]: row["status"] for row in report(str(tmp_path))["criteria"]}
    assert status[12] == "FAIL"


def test_report_runs_listed(tmp_path):
    run(ExperimentConfig("classify", output_path=str(tmp_path)))
    table = report(str(tmp_path))
    assert table["runs"] == ["classify"]


@pytest.mark.parametrize("experiment, params, name, header, n_rows", [
    ("curvature", {"preset": "flat", "samples": 5}, "flat_profile",
     "r,scalar,sup_ricci,riemann_norm2,wplus_norm2,wminus_norm2", 5),
    ("decay", {"eps": [0.2, 0.1, 0.05]}, "decay_eguchi-hanson_d0.5_sweep",
     "epsilon,sup_norm,log_eps,log_sup", 3),
    ("collapse", {"t": [1.0, 10.0]}, "collapse_trivial_family",
     "t,volume,volume_times_t,k_h,k_p", 2),
    ("glue", {"t": [1.0, 10.0, 100.0]}, "glue_trivial_k1_l0_certificate",
     "t,volume,sup_ricci,sup_scalar", 3),
    ("yamabe", {"n": 8, "max_iters": 3}, "yamabe_n8_descent",
     "iteration,quotient,step", 4),
    ("charclass", {"blowups": 1, "t": [1.0, 10.0]}, "charclass_wplus_sweep",
     "t,wplus_integral,wminus_integral,tau_estimate", 2),
    ("classify", {}, "classify_table", "name,kod,sign,value_known,value", 6),
], ids=cli.EXPERIMENTS)
def test_runner_tables(tmp_path, experiment, params, name, header, n_rows):
    """Each runner's table reaches its CSV as the header line and one line
    per row; the glue summary carries the certificate's verdict and rows."""
    run(ExperimentConfig(experiment, params, str(tmp_path), 1))
    text = (tmp_path / f"{name}.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    if experiment == "glue":
        results = _summary(tmp_path, "glue_trivial_k1_l0")["results"]
        assert results["verdict"] == "BoundedRicciCollapse"
        assert [row["t"] for row in results["rows"]] == params["t"]
        vols = [row["total_volume"] for row in results["rows"]]
        assert all(b < a for a, b in zip(vols, vols[1:]))


def test_glue_slug_and_verdict(tmp_path):
    run(ExperimentConfig("glue", {"fiber_sums": 1, "blowups": 0,
                                  "t": [1.0, 10.0, 100.0]}, output_path=str(tmp_path)))
    summary = _summary(tmp_path, "glue_trivial_k1_l0")
    assert summary["results"]["verdict"] == "BoundedRicciCollapse"


def test_runs_that_differ_in_bundle_or_size_keep_their_own_artifacts(tmp_path):
    """The slug names the bundle of a glue run and the lattice size of a
    yamabe run, so two such runs in one directory leave two summaries and
    ``report`` reads both."""
    for bundle in ("trivial", "twisted"):
        run(ExperimentConfig("glue", {"bundle": bundle, "t": [1.0, 10.0, 100.0]},
                             str(tmp_path), 1))
    for n in (8, 9):
        run(ExperimentConfig("yamabe", {"n": n, "max_iters": 3}, str(tmp_path), 1))
    runs = ["glue_trivial_k1_l0", "glue_twisted_k1_l0", "yamabe_n8", "yamabe_n9"]
    assert report(str(tmp_path))["runs"] == runs
    for slug, (key, value) in zip(runs, [("bundle", "trivial"), ("bundle", "twisted"),
                                         ("n", 8), ("n", 9)]):
        assert _summary(tmp_path, slug)["config"]["parameters"][key] == value


def test_runs_that_differ_in_a_or_deficit_eps_keep_their_own_artifacts(tmp_path):
    """An Eguchi-Hanson slug names A, a round slug a radius other than 1 and
    a decay slug deficit_eps, each by its shortest repr less a trailing
    ".0": a=2 and a=2.0 name one run, while a=1 and a=1.0000001 (one name
    under :g) and radius=1.0 and 2.0 (one name before radii were named) name
    two."""
    for a in (0.5, 2, 2.0, 1, 1.0000001):
        run(ExperimentConfig("curvature", {"preset": "eguchi-hanson", "a": a, "samples": 5},
                             str(tmp_path), 1))
    for radius in (1.0, 2.0):
        run(ExperimentConfig("curvature", {"preset": "round", "radius": radius, "samples": 5},
                             str(tmp_path), 1))
    for eps in (0.5, 0.6):
        run(ExperimentConfig("decay", {"eps": [0.2, 0.1, 0.05], "deficit_eps": eps},
                             str(tmp_path), 1))
    runs = ["decay_eguchi-hanson_d0.5", "decay_eguchi-hanson_d0.6",
            "eguchi-hanson_a0.5", "eguchi-hanson_a1", "eguchi-hanson_a1.0000001",
            "eguchi-hanson_a2", "round", "round_r2"]
    assert report(str(tmp_path))["runs"] == runs
    for slug, (key, value) in zip(runs, [("deficit_eps", 0.5), ("deficit_eps", 0.6),
                                         ("a", 0.5), ("a", 1), ("a", 1.0000001), ("a", 2.0),
                                         ("radius", 1.0), ("radius", 2.0)]):
        assert _summary(tmp_path, slug)["config"]["parameters"][key] == value


def _collapselab_modules():
    return [importlib.import_module(f"collapselab.{m.name}")
            for m in pkgutil.iter_modules(collapselab.__path__)]


def test_yamabe_calls_public_functions_on_the_calling_thread(tmp_path, monkeypatch):
    """Every public collapselab function that a yamabe run calls, wrapped and
    rebound wherever a module names it (as the benchmark's tracer does, with
    one span stack per process), is called on the thread that runs the
    experiment."""
    callers = []
    wrapped = {}
    modules = _collapselab_modules()
    for mod in modules:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name[0] != "_":
                def recorder(*args, _fn=obj, **kwargs):
                    callers.append(threading.get_ident())
                    return _fn(*args, **kwargs)
                wrapped[obj] = recorder
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                monkeypatch.setattr(mod, name, wrapped[obj])
    run(ExperimentConfig("yamabe", {"n": 8}, str(tmp_path), 1))
    assert callers and set(callers) == {threading.get_ident()}


def test_yamabe_leaves_no_thread_running(tmp_path):
    before = threading.active_count()
    run(ExperimentConfig("yamabe", {"n": 8}, str(tmp_path), 1))
    assert threading.active_count() == before


@pytest.mark.parametrize("amplitude", [1.0, 1.05])
def test_an_amplitude_positive_on_the_lattice_starts_the_descent(tmp_path, monkeypatch,
                                                                 amplitude):
    """An odd n puts no lattice point at x = 1/2, so for n = 9 the start
    1 + amplitude cos 2 pi x stays positive up to amplitude 1.064, and such
    a start reaches the descent."""
    class Reached(Exception):
        pass

    starts = []

    def descent(grid, u0, *args):
        starts.append(u0)
        raise Reached

    monkeypatch.setattr(cli, "minimize_yamabe", descent)
    with pytest.raises(Reached):
        run(ExperimentConfig("yamabe", {"n": 9, "amplitude": amplitude}, str(tmp_path), 1))
    assert np.all(starts[0] > 0.0)


def test_bad_seed_exits_2_before_the_descent(tmp_path, monkeypatch, capsys):
    def descent(*args):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(cli, "minimize_yamabe", descent)
    assert main(["yamabe", "--seed", "-1", "--out", str(tmp_path), "n=8"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_radial_run_work_budget(tmp_path, monkeypatch):
    """The nine radial experiments of the benchmark, in one process with an
    empty unit-cap cache, stay within these deterministic work budgets:
    - at most 500 radii of curvature evaluations: 201 per ``curvature``
      preset and 63 for the round S^4 of ``charclass``, 465 in all; the
      ``decay`` sweeps and the cutoff caps take none;
    - at most 4 ``curvature_at`` calls for them, one batch per sample grid
      or quadrature round (4 measured), each one ``riemann_tensor`` call, as
      the benchmark's traced run requires;
    - at most 27 ``cutoff.cap_curvature`` calls, one batch per sup grid,
      parabolic-search round or quadrature round of the two unit caps (27
      measured); the ``decay`` sweeps read the cached unit caps and take
      none;
    - at most 944 cutoff bump elements (944 measured), one per cap radius;
    - at most 600 jet square-root elements (528 measured), one per W-ansatz
      radius of ``curvature_at``;
    - exactly 3 fiber-lattice reductions: one per family rule, of the two
      ``glue`` runs and ``charclass``; every parameter t reuses it.
    """
    unit_cap.cache_clear()
    counts = {"curvature_at": 0, "radii": 0, "riemann_tensor": 0, "cap_curvature": 0,
              "_bump": 0, "sqrt": 0, "_reduced_basis": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    engine = counting("curvature_at", radial.curvature_at)

    def curvature(metric, r):
        counts["radii"] += np.size(r)
        return engine(metric, r)

    def per_element(name, fn):
        def wrapper(jet):
            counts[name] += np.size(jet.value)
            return fn(jet)
        return wrapper

    for module in (radial, cli, charclass):
        monkeypatch.setattr(module, "curvature_at", curvature)
    monkeypatch.setattr(radial, "riemann_tensor",
                        counting("riemann_tensor", radial.riemann_tensor))
    monkeypatch.setattr(cutoff, "cap_curvature", counting("cap_curvature", cutoff.cap_curvature))
    monkeypatch.setattr(cutoff, "_bump", per_element("_bump", cutoff._bump))
    monkeypatch.setattr(Jet2, "sqrt", per_element("sqrt", Jet2.sqrt))
    monkeypatch.setattr(gluing, "_reduced_basis",
                        counting("_reduced_basis", gluing._reduced_basis))
    for experiment, params in (
        ("curvature", {"preset": "eguchi-hanson"}),
        ("curvature", {"preset": "burns"}),
        ("decay", {"base": "eguchi-hanson"}),
        ("decay", {"base": "burns"}),
        ("glue", {"blowups": 0}),
        ("glue", {"blowups": 2}),
        ("collapse", {}),
        ("classify", {}),
        ("charclass", {}),
    ):
        run(ExperimentConfig(experiment, params, str(tmp_path), 1))
    assert counts["radii"] <= 500
    assert counts["curvature_at"] <= 4
    assert counts["riemann_tensor"] == counts["curvature_at"]
    assert counts["cap_curvature"] <= 27
    assert counts["_bump"] <= 944
    assert counts["sqrt"] <= 600
    assert counts["_reduced_basis"] == 3


def test_benchmark_hooks(monkeypatch):
    """The names the benchmark's tracer wraps by hand exist, and its check
    that every curvature evaluation is one Riemann-tensor evaluation holds.
    The conformal names it reads keep their shape: each stencil kernel takes
    the field second, as the tracer counts ``args[1].size`` stencil points,
    and the descent prices its candidates through ``yamabe_quotient``, whose
    float results the traced run matches against the descent trace."""
    assert callable(cli._write_artifacts)
    metric = radial.make_metric(radial.Preset.BURNS)
    jets = metric.profile.at(2.0)
    assert len(jets) == 4 and all(isinstance(j, Jet2) for j in jets)
    calls = 0
    engine = radial.riemann_tensor

    def counting(*args):
        nonlocal calls
        calls += 1
        return engine(*args)

    monkeypatch.setattr(radial, "riemann_tensor", counting)
    radial.curvature_at(metric, 2.0)
    assert calls == 1
    radial.curvature_at(metric, np.array([1.5, 2.0, 3.0]))
    assert calls == 2
    grid = conformal.ConformalGrid((8, 9, 10), (1.0, 1.0, 1.0))
    u = 1.0 + 0.2 * np.sin(2.0 * np.pi * grid.axis_coordinate(1))
    for kernel in (conformal.laplacian, conformal.gradient_energy_density):
        assert list(inspect.signature(kernel).parameters)[:2] == ["grid", "u"]
        assert kernel(grid, u).shape == u.shape
    evaluated = []
    quotient = conformal.yamabe_quotient

    def recording(*args, **kwargs):
        evaluated.append(quotient(*args, **kwargs))
        return evaluated[-1]

    monkeypatch.setattr(conformal, "yamabe_quotient", recording)
    trace = [q for _, q, _ in conformal.minimize_yamabe(grid, u, max_iters=3).trace]
    assert all(type(q) is float for q in evaluated)
    assert evaluated[0] == trace[0] and set(trace) <= set(evaluated)
