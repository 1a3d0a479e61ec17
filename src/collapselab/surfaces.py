"""Integer / closed-form arithmetic for the Kodaira-dimension classifier of
the Yamabe invariant of complex surfaces, blow-up bookkeeping, the
general-type Yamabe value -4*pi*sqrt(2 c1^2(X)), and the matching
scalar-curvature L^2 lower bound 32*pi^2*c1^2(X).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace


class KodairaDimension(enum.Enum):
    MINUS_INFINITY = "-inf"
    ZERO = "0"
    ONE = "1"
    TWO = "2"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class YamabeSign(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


class OddFirstBettiError(ValueError):
    """The sign classification assumes b1 even (Kaehler type); for odd b1 the
    kod 0/1 statement is only conjectural and type VII is open, so we refuse
    to guess."""


@dataclass(frozen=True)
class SurfaceData:
    """Diffeomorphism-level invariants of a compact complex surface.

    Refused with ValueError: invariants with c1^2 != 2 chi + 3 tau, a
    non-integral chi(O) = (chi + tau) / 4 (Noether's formula
    12 chi(O) = c1^2 + c2), c1^2(X) other than 0 in Kodaira dimension 0 or 1,
    and in general type a minimal model with c1^2 <= 0, c1^2 < 2 chi(O) - 6
    (Noether's inequality) or c1^2 > 3 c2 (Bogomolov-Miyaoka-Yau).  With b1
    even the minimal model must also be one of the table's (blow-ups keep
    chi(O)): in Kodaira dimension -inf P^2 (c1^2 = 9, chi(O) = 1) or a
    ruled surface over a curve of genus 1 - chi(O) >= 0 (c1^2 = 8 chi(O));
    in Kodaira dimension 0 a torus or hyperelliptic surface, an Enriques or
    a K3 surface (chi(O) = 0, 1 or 2); in Kodaira dimension 1 chi(O) >= 0.
    See Barth, Hulek, Peters and Van de Ven, *Compact Complex Surfaces*,
    2nd ed. (Springer, 2004), ch. VI and VII.
    """

    kod: KodairaDimension
    b1_parity: Parity
    c1sq_min: int       # c1^2 of the minimal model X
    chi: int            # Euler characteristic
    tau: int            # signature
    blowups: int = 0
    name: str = ""

    def __post_init__(self):
        if self.blowups < 0:
            raise ValueError("blow-up count must be non-negative")
        if self.c1sq != 2 * self.chi + 3 * self.tau:
            raise ValueError(
                f"inconsistent invariants: c1^2 = {self.c1sq} but 2chi+3tau = "
                f"{2 * self.chi + 3 * self.tau}"
            )
        if (self.chi + self.tau) % 4:
            raise ValueError(
                f"Noether's formula: chi(O) = (chi + tau) / 4 = ({self.chi} + {self.tau}) / 4 "
                "must be an integer"
            )
        if self.kod is KodairaDimension.TWO and self.c1sq_min <= 0:
            raise ValueError("general type requires c1^2 of the minimal model > 0")
        if self.kod in (KodairaDimension.ZERO, KodairaDimension.ONE) and self.c1sq_min != 0:
            raise ValueError("Kodaira dimension 0 or 1 forces c1^2(X) = 0")
        # on the minimal model: blow-ups keep chi(O) and add one to c2 each
        chi_o = (self.chi + self.tau) // 4
        if self.b1_parity is Parity.EVEN:
            self._check_minimal_model_table(chi_o)
        if self.kod is KodairaDimension.TWO:
            c2_min = self.chi - self.blowups
            if self.c1sq_min < 2 * chi_o - 6:
                raise ValueError(
                    f"Noether's inequality: general type requires c1^2 >= 2 chi(O) - 6 on the "
                    f"minimal model, got c1^2 = {self.c1sq_min} < {2 * chi_o - 6}"
                )
            if self.c1sq_min > 3 * c2_min:
                raise ValueError(
                    f"Bogomolov-Miyaoka-Yau: general type requires c1^2 <= 3 c2 on the "
                    f"minimal model, got c1^2 = {self.c1sq_min} > {3 * c2_min}"
                )

    def _check_minimal_model_table(self, chi_o: int) -> None:
        """The minimal models with b1 even in Kodaira dimension -inf, 0 and 1."""
        kod, c1sq = self.kod, self.c1sq_min
        if (kod is KodairaDimension.MINUS_INFINITY and (c1sq, chi_o) != (9, 1)
                and not (c1sq == 8 * chi_o and chi_o <= 1)):
            raise ValueError(
                "Kodaira dimension -inf requires a minimal model P^2 (c1^2 = 9, chi(O) = 1) "
                "or ruled over genus 1 - chi(O) >= 0 (c1^2 = 8 chi(O)), got "
                f"c1^2 = {c1sq}, chi(O) = {chi_o}")
        if kod is KodairaDimension.ZERO and chi_o not in (0, 1, 2):
            raise ValueError(
                "Kodaira dimension 0 requires chi(O) in {0, 1, 2} (tori and hyperelliptic, "
                f"Enriques and K3 surfaces), got chi(O) = {chi_o}")
        if kod is KodairaDimension.ONE and chi_o < 0:
            raise ValueError(f"Kodaira dimension 1 requires chi(O) >= 0, got chi(O) = {chi_o}")

    @property
    def c1sq(self) -> int:
        """c1^2 of the surface itself; drops by one per blow-up."""
        return self.c1sq_min - self.blowups

    @property
    def is_minimal(self) -> bool:
        return self.blowups == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kod": self.kod.value,
            "b1_parity": self.b1_parity.value,
            "c1sq_min": self.c1sq_min,
            "chi": self.chi,
            "tau": self.tau,
            "blowups": self.blowups,
        }

    @staticmethod
    def from_json(rec: dict) -> "SurfaceData":
        """Inverse of ``to_json``; raises ValueError naming a record that is
        not a JSON object, a missing key or a value of the wrong type.  The
        integer invariants must be JSON integers: a float, a string or a
        boolean is refused, not coerced."""
        if not isinstance(rec, dict):
            raise ValueError(f"surface record must be a JSON object, got {rec!r}")
        missing = [k for k in ("kod", "c1sq_min", "chi", "tau") if k not in rec]
        if missing:
            raise ValueError(f"surface record {rec!r} lacks key(s) {', '.join(missing)}")
        ints = {k: rec.get(k, 0) for k in ("c1sq_min", "chi", "tau", "blowups")}
        for key, value in ints.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"surface record {rec!r}: {key} must be an integer, got {value!r}")
        return SurfaceData(
            kod=KodairaDimension(str(rec["kod"])),
            b1_parity=Parity(rec.get("b1_parity", "even")),
            name=str(rec.get("name", "")),
            **ints,
        )


@dataclass(frozen=True)
class YamabeAnswer:
    sign: YamabeSign
    value: float | None = None
    value_known: bool = False
    note: str = ""

    def __post_init__(self):
        if self.value is not None:
            expected = (
                YamabeSign.ZERO
                if self.value == 0.0
                else (YamabeSign.POSITIVE if self.value > 0 else YamabeSign.NEGATIVE)
            )
            if expected is not self.sign:
                raise ValueError("stored value contradicts the stored sign")

    def to_json(self) -> dict:
        return {
            "sign": self.sign.value,
            "value": self.value,
            "value_known": self.value_known,
            "note": self.note,
        }


def classify_sign(surface: SurfaceData) -> YamabeSign:
    """Sign of the Yamabe invariant from the Kodaira dimension (b1 even only)."""
    if surface.b1_parity is Parity.ODD:
        raise OddFirstBettiError(
            "sign classification requires b1 even; the odd-b1 cases are open"
        )
    if surface.kod is KodairaDimension.MINUS_INFINITY:
        return YamabeSign.POSITIVE
    if surface.kod in (KodairaDimension.ZERO, KodairaDimension.ONE):
        return YamabeSign.ZERO
    return YamabeSign.NEGATIVE


def yamabe_value(surface: SurfaceData) -> YamabeAnswer:
    """Yamabe invariant: sign always, numeric value where known.

    General type: -4*pi*sqrt(2 c1^2(X)), independent of blow-ups.  Kodaira
    dimension 0 or 1: exactly 0.  Kodaira dimension -infinity: unknown in
    general; the value is achieved by the Fubini-Study metric on CP^2 but no
    number is asserted here.
    """
    sign = classify_sign(surface)
    if surface.kod is KodairaDimension.TWO:
        val = -4.0 * math.pi * math.sqrt(2.0 * surface.c1sq_min)
        return YamabeAnswer(sign, value=val, value_known=True)
    if surface.kod in (KodairaDimension.ZERO, KodairaDimension.ONE):
        return YamabeAnswer(sign, value=0.0, value_known=True)
    note = (
        "achieved by the Fubini-Study metric on CP^2; no numeric value asserted"
        if surface.name.upper() == "CP2"
        else ""
    )
    return YamabeAnswer(sign, value=None, value_known=False, note=note)


def blow_up_surface(surface: SurfaceData, k: int) -> SurfaceData:
    """Connect-sum with k reversed projective planes: chi += k, tau -= k."""
    if k < 0:
        raise ValueError("blow-up count must be non-negative")
    return replace(
        surface,
        blowups=surface.blowups + k,
        chi=surface.chi + k,
        tau=surface.tau - k,
    )


def sw_bound(surface: SurfaceData) -> float:
    """Sharp Seiberg-Witten scalar-curvature bound inf int s^2 dmu = 32 pi^2 c1^2(X).

    Coherent with the general-type Yamabe value: |Y|^2 equals this bound.
    """
    if surface.kod is not KodairaDimension.TWO:
        raise ValueError("the scalar-curvature bound applies to general type only")
    return 32.0 * math.pi**2 * surface.c1sq_min


CANONICAL_SURFACES = [
    SurfaceData(KodairaDimension.MINUS_INFINITY, Parity.EVEN, 9, 3, 1, name="CP2"),
    SurfaceData(KodairaDimension.MINUS_INFINITY, Parity.EVEN, 9, 12, -8, blowups=9,
                name="rational elliptic"),
    SurfaceData(KodairaDimension.ZERO, Parity.EVEN, 0, 24, -16, name="K3"),
    SurfaceData(KodairaDimension.ZERO, Parity.EVEN, 0, 0, 0, name="4-torus"),
    SurfaceData(KodairaDimension.ONE, Parity.EVEN, 0, 12, -8, name="minimal elliptic (Dolgachev-like)"),
    SurfaceData(KodairaDimension.TWO, Parity.EVEN, 5, 7, -3, name="general type c1^2=5"),
]


def classify_records(records: list[dict]) -> list[dict]:
    """JSON-in / JSON-out classifier used by the command-line runner."""
    if not isinstance(records, list):
        raise ValueError(f"expected a list of surface records, got {type(records).__name__}")
    out = []
    for rec in records:
        surf = SurfaceData.from_json(rec)
        ans = yamabe_value(surf)
        row = surf.to_json()
        row["answer"] = ans.to_json()
        out.append(row)
    return out
