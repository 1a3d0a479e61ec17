"""Yamabe-invariant classifier for compact complex surfaces."""

import itertools
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapselab.cli import main
from collapselab.surfaces import (
    CANONICAL_SURFACES,
    KodairaDimension,
    OddFirstBettiError,
    Parity,
    SurfaceData,
    YamabeAnswer,
    YamabeSign,
    blow_up_surface,
    classify_records,
    classify_sign,
    sw_bound,
    yamabe_value,
)
from oracles import surface_invariants


def surf(kod, c1sq_min, chi, tau, **kw):
    return SurfaceData(kod, Parity.EVEN, c1sq_min, chi, tau, **kw)


class TestClassifierTable:
    """The six representative cases, one per classifier branch."""

    def test_rational_positive(self):
        cp2 = CANONICAL_SURFACES[0]
        assert classify_sign(cp2) is YamabeSign.POSITIVE
        ans = yamabe_value(cp2)
        assert ans.sign is YamabeSign.POSITIVE
        assert not ans.value_known and ans.value is None
        assert "Fubini-Study" in ans.note

    def test_rational_elliptic_positive(self):
        re9 = CANONICAL_SURFACES[1]
        assert re9.c1sq == 0
        assert classify_sign(re9) is YamabeSign.POSITIVE

    def test_kod_zero_and_one_vanish(self):
        for s in CANONICAL_SURFACES[2:5]:
            ans = yamabe_value(s)
            assert ans.sign is YamabeSign.ZERO
            assert ans.value == 0.0 and ans.value_known

    def test_general_type_negative(self):
        gt = CANONICAL_SURFACES[5]
        ans = yamabe_value(gt)
        assert ans.sign is YamabeSign.NEGATIVE
        assert ans.value == pytest.approx(-4.0 * math.pi * math.sqrt(10.0))
        assert ans.value_known

    def test_all_canonical_classify(self):
        out = classify_records([s.to_json() for s in CANONICAL_SURFACES])
        signs = [row["answer"]["sign"] for row in out]
        assert signs == ["positive", "positive", "zero", "zero", "zero", "negative"]


def test_odd_first_betti_refused():
    s = SurfaceData(KodairaDimension.ONE, Parity.ODD, 0, 0, 0, name="Kodaira-like")
    with pytest.raises(OddFirstBettiError):
        classify_sign(s)
    with pytest.raises(OddFirstBettiError):
        yamabe_value(s)


def _broken(kod, c1sq_min, chi, tau, blowups):
    """The words that name the first condition the invariants break, in the
    order ``SurfaceData`` checks them, or None: the blow-up count, c1^2 =
    2 chi + 3 tau, Noether's formula (chi(O) = (chi + tau) / 4 integral),
    the sign of c1^2 by Kodaira dimension, the minimal models of Kodaira
    dimension -inf, 0 and 1 (b1 even), and for general type, on the
    minimal model (c2 = chi - blow-ups), Noether's inequality
    c1^2 >= 2 chi(O) - 6 and Bogomolov-Miyaoka-Yau c1^2 <= 3 c2."""
    general = kod is KodairaDimension.TWO
    chi_o = (chi + tau) // 4
    conditions = [
        (blowups >= 0, "non-negative"),
        (c1sq_min - blowups == 2 * chi + 3 * tau, "2chi+3tau"),
        ((chi + tau) % 4 == 0, "Noether's formula"),
        (not general or c1sq_min > 0, "general type requires c1^2"),
        (kod not in (KodairaDimension.ZERO, KodairaDimension.ONE) or c1sq_min == 0,
         "forces c1^2(X) = 0"),
        (kod is not KodairaDimension.MINUS_INFINITY or (c1sq_min, chi_o) == (9, 1)
         or (c1sq_min == 8 * chi_o and chi_o <= 1), "Kodaira dimension -inf requires"),
        (kod is not KodairaDimension.ZERO or chi_o in (0, 1, 2), "Kodaira dimension 0 requires"),
        (kod is not KodairaDimension.ONE or chi_o >= 0, "Kodaira dimension 1 requires"),
        (not general or c1sq_min >= 2 * ((chi + tau) // 4) - 6, "Noether's inequality"),
        (not general or c1sq_min <= 3 * (chi - blowups), "Bogomolov-Miyaoka-Yau"),
    ]
    return next((name for holds, name in conditions if not holds), None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kod=st.sampled_from(list(KodairaDimension)), c1sq_min=st.integers(-3, 12),
       chi_o=st.integers(-2, 8), blowups=st.integers(-1, 4),
       shift=st.sampled_from([(0, 0), (0, 0), (0, 0), (3, -2), (1, 0), (0, 1)]))
@example(kod=KodairaDimension.TWO, c1sq_min=1, chi_o=4, blowups=0, shift=(0, 0))
@example(kod=KodairaDimension.TWO, c1sq_min=11, chi_o=1, blowups=0, shift=(0, 0))
def test_only_invariants_of_surfaces_are_accepted(kod, c1sq_min, chi_o, blowups, shift):
    """An accepted record satisfies Noether's formula and, in general type,
    Noether's inequality and Bogomolov-Miyaoka-Yau on its minimal model; a
    refused record's message names the first condition it breaks.  A record
    is drawn by its minimal model's c1^2 and chi(O), with
    c2 = 12 chi(O) - c1^2, so that most draws reach the checks of general
    type; a shift of (chi, tau) by (3, -2) then breaks Noether's formula
    alone, and by (1, 0) or (0, 1) c1^2 = 2 chi + 3 tau."""
    chi = 12 * chi_o - c1sq_min + blowups + shift[0]
    tau = c1sq_min - 8 * chi_o - blowups + shift[1]
    broken = _broken(kod, c1sq_min, chi, tau, blowups)
    rec = {"kod": kod.value, "c1sq_min": c1sq_min, "chi": chi, "tau": tau, "blowups": blowups}
    if broken is not None:
        with pytest.raises(ValueError, match=re.escape(broken)):
            SurfaceData.from_json(rec)
        return
    s = SurfaceData.from_json(rec)
    assert (s.chi + s.tau) % 4 == 0
    if kod is KodairaDimension.TWO:
        chi_o = (s.chi + s.tau) // 4
        assert 2 * chi_o - 6 <= s.c1sq_min <= 3 * (s.chi - s.blowups)


@pytest.mark.parametrize("record, condition", [
    ({"kod": "2", "c1sq_min": 1, "chi": 2, "tau": -1}, "Noether's formula"),
    ({"kod": "2", "c1sq_min": 5, "chi": 565, "tau": -375}, "Noether's formula"),
    ({"kod": "2", "c1sq_min": 1, "chi": 47, "tau": -31}, "Noether's inequality"),
    ({"kod": "2", "c1sq_min": 11, "chi": 1, "tau": 3}, "Bogomolov-Miyaoka-Yau"),
    # no rational or ruled surface has c1^2 = 5; chi(O) = 4 and -1
    ({"kod": "-inf", "c1sq_min": 5, "chi": 7, "tau": -3},
     "Kodaira dimension -inf requires a minimal model P^2 (c1^2 = 9, chi(O) = 1) or ruled"),
    ({"kod": "0", "c1sq_min": 0, "chi": 48, "tau": -32},
     "Kodaira dimension 0 requires chi(O) in {0, 1, 2}"),
    ({"kod": "1", "c1sq_min": 0, "chi": -12, "tau": 8}, "Kodaira dimension 1 requires chi(O) >= 0"),
])
def test_classify_input_refuses_invariants_of_no_surface(tmp_path, capsys, record, condition):
    """``classify input=`` exits 2 on such a record, naming the condition,
    and writes nothing."""
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    out = tmp_path / "runs"
    assert main(["classify", "--out", str(out), f"input={json.dumps(str(path))}"]) == 2
    assert condition in capsys.readouterr().err
    assert not out.exists()


def test_classifier_accepts_exactly_the_table():
    """Over an integer box of (kod, c1sq_min, chi, tau, blow-ups), b1 even,
    ``SurfaceData`` accepts exactly the records of the classification table
    (``oracles.surface_invariants``) and refuses every other one.  The box
    holds P^2, the ruled surfaces over genus 0, 1 and 2, K3, Enriques, tori,
    elliptic and general-type surfaces with up to two blow-ups, and
    chi(O) = -1 in every Kodaira dimension."""
    box = itertools.product(KodairaDimension, range(-8, 11), range(-12, 39), range(-26, 9),
                            range(3))
    table = surface_invariants(range(-10, 12), max_blowups=2)
    accepted = set()
    for kod, c1sq_min, chi, tau, blowups in box:
        try:
            surf(kod, c1sq_min, chi, tau, blowups=blowups)
        except ValueError:
            continue
        accepted.add((kod.value, c1sq_min, chi, tau, blowups))
    in_box = {r for r in table if -8 <= r[1] <= 10 and -12 <= r[2] <= 38 and -26 <= r[3] <= 8}
    assert accepted == in_box
    assert {r[0] for r in accepted} == {k.value for k in KodairaDimension}
    assert {("-inf", 9, 3, 1, 0), ("-inf", -8, -4, 0, 0), ("0", 0, 24, -16, 0),
            ("0", 0, 12, -8, 0), ("1", 0, 2, -2, 2)} <= accepted


def test_canonical_general_type_is_a_surface():
    """chi = 7, tau = -3: c1^2 = 5, chi(O) = 1 and c2 = 7, within
    2 chi(O) - 6 <= c1^2 <= 3 c2."""
    gt = CANONICAL_SURFACES[5]
    assert (gt.chi, gt.tau, gt.c1sq) == (7, -3, 5)


def test_invariant_consistency_enforced():
    with pytest.raises(ValueError, match="2chi\\+3tau"):
        surf(KodairaDimension.ZERO, 0, 24, -17)
    with pytest.raises(ValueError):
        surf(KodairaDimension.TWO, 0, 565, -375, name="bad general type")
    with pytest.raises(ValueError):
        surf(KodairaDimension.ZERO, 3, 24, -15)
    with pytest.raises(ValueError):
        surf(KodairaDimension.ZERO, 0, 25, -16, blowups=-1)


def test_blow_up_bookkeeping():
    k3 = CANONICAL_SURFACES[2]
    b = blow_up_surface(k3, 3)
    assert (b.chi, b.tau, b.blowups) == (27, -19, 3)
    assert b.c1sq == -3
    assert b.c1sq_min == 0
    assert not b.is_minimal and k3.is_minimal
    with pytest.raises(ValueError):
        blow_up_surface(k3, -1)


def test_yamabe_value_blowup_invariant():
    gt = CANONICAL_SURFACES[5]
    base = yamabe_value(gt).value
    assert base == pytest.approx(-math.sqrt(32.0 * math.pi**2 * gt.c1sq_min))
    for k in range(1, 6):
        b = blow_up_surface(gt, k)
        assert yamabe_value(b).value == pytest.approx(base, rel=1e-14)
        assert yamabe_value(b).sign is YamabeSign.NEGATIVE


def test_sw_bound_coherence():
    gt = CANONICAL_SURFACES[5]
    assert sw_bound(gt) == pytest.approx(32.0 * math.pi**2 * 5.0)
    assert yamabe_value(gt).value ** 2 == pytest.approx(sw_bound(gt), rel=1e-14)
    with pytest.raises(ValueError):
        sw_bound(CANONICAL_SURFACES[2])


def test_answer_sign_value_guard():
    with pytest.raises(ValueError):
        YamabeAnswer(YamabeSign.POSITIVE, value=-1.0)
    YamabeAnswer(YamabeSign.ZERO, value=0.0)


def test_json_round_trip():
    for s in CANONICAL_SURFACES:
        blob = json.dumps(s.to_json())
        assert SurfaceData.from_json(json.loads(blob)) == s


def test_classify_records_rows_carry_input():
    rec = CANONICAL_SURFACES[3].to_json()
    row = classify_records([rec])[0]
    assert row["name"] == "4-torus"
    assert row["answer"]["value"] == 0.0
