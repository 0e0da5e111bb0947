"""Adjunction to an invariant divisor, with semicontinuity and bound checks.

Restricting a germ to the divisor H_i (its boundary coefficient must be 1)
happens in two steps: project the lattice along coordinate i, and take the
image's ``Lattice.normal_form``, which multiplies each remaining coordinate
by the primitive scale n_j of its standard basis vector, or keeps the image
when every n_j is 1 (``Lattice.restrictions``, once per lattice).  The
induced boundary coefficient is b'_j = 1 - (1-b_j)/n_j.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InputError
from .germ import ToricGerm, germ_document
from .lattice import Lattice
from .rationals import instance, integer, rat_str


@dataclass(frozen=True)
class AdjunctionResult:
    germ: ToricGerm  # dimension d-1, normal form
    scales: tuple[int, ...]  # n_j, in the original order of the kept coordinates

    def to_json_dict(self) -> dict:
        return {"germ": germ_document(self.germ), "scales": list(self.scales)}


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    details: tuple[tuple[str, Fraction, Fraction], ...]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "details": [[label, rat_str(lhs), rat_str(rhs)] for label, lhs, rhs in self.details],
        }


def adjoin_invariant_divisor(germ: ToricGerm, divisor: int) -> AdjunctionResult:
    """Restrict to the invariant divisor ``divisor`` (1-based, b_i = 1), on
    the lattice of ``Lattice.restrictions`` as built: normal, as ``ToricGerm`` checks."""
    restricted, scales = _restriction(instance(germ, ToricGerm), divisor)
    induced = [1 - (1 - b) / n for b, n in zip(germ.boundary[: divisor - 1] + germ.boundary[divisor:], scales)]
    return AdjunctionResult(ToricGerm(restricted, induced), scales)


def _restriction(germ: ToricGerm, divisor: int) -> tuple[Lattice, tuple[int, ...]]:
    """The restricted lattice and its scales n_j, once ``divisor`` is checked."""
    d = germ.dim
    if d < 2:
        raise InputError("adjunction needs dimension at least 2")
    if not 1 <= integer(divisor, "divisor") <= d:
        raise InputError(f"divisor index {divisor} out of range 1..{d}")
    if germ.boundary[divisor - 1] != 1:
        raise InputError("adjunction requires boundary coefficient 1 on the chosen divisor")
    return germ.lattice.restrictions[divisor - 1]


def check_precise_inversion(germ: ToricGerm, divisor: int) -> CheckReport:
    """The point minimum upstairs against the one on the divisor (``_precise_inversion``)."""
    passed, lhs, rhs = _precise_inversion(instance(germ, ToricGerm), divisor)
    return CheckReport(passed, ((f"point-minimum vs divisor {divisor}", Fraction(*lhs), Fraction(*rhs)),))


def _precise_inversion(germ: ToricGerm, divisor: int) -> tuple[bool, tuple[int, int], tuple[int, int]]:
    """Whether it holds, and both point minima as (scaled minimum, scale), with
    no restricted germ: the induced weights (1 - b_j) / n_j are wn_j k / n_j
    over wd k, k = lcm(n), weighed on the full-support candidates of the
    restricted lattice, built once per lattice and shared by every boundary."""
    restricted, scales = _restriction(germ, divisor)
    (wn, wd), k, full = germ._weight_ints, lcm(*scales), tuple(range(1, restricted.dim + 1))
    weights = [w * (k // n) for w, n in zip(wn[: divisor - 1] + wn[divisor:], scales)]
    rhs = min(sum(map(mul, weights, row)) for row in restricted.box_candidates[full])
    (lhs, lscale), rscale = _point_scaled(germ), restricted.den * wd * k
    return lhs * rscale == rhs * lscale, (lhs, lscale), (rhs, rscale)


def _point_scaled(germ: ToricGerm) -> tuple[int, int]:
    """The point minimum times the face table's scale, and that scale."""
    table = germ.face_table
    return table.entries[tuple(range(1, germ.dim + 1))][0], table.scale


def _semicontinuity_bounds(germ: ToricGerm) -> tuple[int, int, dict[tuple[int, ...], int]]:
    """The point minimum and, per proper face S, mld(S) + dim(S-cycle), both
    times the face table's scale, and that scale."""
    d = germ.dim
    m, scale = _point_scaled(germ)
    return m, scale, {s: v + (d - len(s)) * scale for s, (v, _) in germ.face_table.entries.items() if len(s) < d}


def check_lower_semicontinuity(germ: ToricGerm) -> CheckReport:
    """mld(P) <= mld(face) + dim(cycle) for every proper invariant cycle."""
    m, scale, bounds = _semicontinuity_bounds(instance(germ, ToricGerm))
    at_point = Fraction(m, scale)
    details = tuple((f"S={s}", at_point, Fraction(b, scale)) for s, b in bounds.items())
    return CheckReport(all(m <= b for b in bounds.values()), details)


def check_shokurov_bounds(germ: ToricGerm) -> CheckReport:
    """mld(P) <= d, and values above d-1 only on the standard lattice with
    the multiplicity formula d - sum(b) (see ``_shokurov_holds``)."""
    d, (m, scale) = instance(germ, ToricGerm).dim, _point_scaled(germ)
    value = Fraction(m, scale)
    details = [("point-minimum vs dimension", value, Fraction(d))]
    if m > (d - 1) * scale:
        details.append(("smooth-branch lattice index", Fraction(germ.lattice.index), Fraction(1)))
        details.append(("smooth-branch multiplicity formula", value, d - sum(germ.boundary, start=Fraction(0))))
    return CheckReport(_shokurov_holds(germ), tuple(details))


def _shokurov_holds(germ: ToricGerm) -> bool:
    """``check_shokurov_bounds(germ).passed`` in integers: d - sum(b) is sum(wn) / wd."""
    (m, scale), (wn, wd), d = _point_scaled(germ), germ._weight_ints, germ.dim
    return m <= (d - 1) * scale or (m <= d * scale and germ.lattice.den == 1 and m * wd == scale * sum(wn))
