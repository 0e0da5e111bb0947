"""Flat log structures from general members of the maximal ideal.

A state is a germ together with coefficients gamma_1..gamma_k attached to k
distinct general members of the maximal ideal.  General members are modeled
by their common Newton polyhedron: along the toric valuation of x the member
vanishes to order v(x) = min over the dual Hilbert basis of <m, x>, which
for x >= 0 is the minimum over ``Lattice.newton_generators``, along
its own strict transform to order 1, and distinct members (and the invariant
strata) intersect transversally.  The log discrepancy of the valuation that
first blows up x (or starts at the ambient point for x = 0) and then dives
into the members indexed by J is

    value(x, J) = A(x) - (sum gamma_j) v(x) + sum_{j in J} (1 - gamma_j),

with A(x) = sum (1-b_i) x_i, admissible whenever the center, a stratum of
dimension d - |support(x)| - |J|, is nonempty.

Two structural facts drive the builder:

* v vanishes on every proper face (the monoid contains the primitive dual
  ray vectors, which kill any partial support), so a combo off the interior
  has value A(x) + sum_{J}(1 - gamma_j) >= 0 whatever the coefficients;
* along any interior ray the value is homogeneous, so the binding ratio is
  the interior infimum rho = inf A(x)/v(x), a number that depends only on
  the germ.  By LP duality rho equals 1/mu of the general-member Newton
  polyhedron, and the pricing vector of that LP lies on an optimal ray, so
  an exact lattice witness, an integer row over den like every box point,
  is always available.  Both are read off the vertex list, no LP solved
  (``newton._vertex_intersection``; on a tie, the greatest vertex).
  Every read of rho checks, in the one pass over the interior box rows
  that also finds the zeros, that no box point has A(x) < rho v(x).  (The
  tests also compute rho cell by cell over the linearity regions of v, one
  LP per cell, as a cross-check.)

So a state is read off rho, the zero-weight face Z = {i : b_i = 1} and its
unit members (coefficient 1), with Gamma the coefficient sum:

* Log canonicity.  Interior values A - Gamma v are at least
  (rho - Gamma) v, with equality along the ray witness, and v > 0 there;
  when every weight is 0 they are -Gamma v.  So the state is log canonical
  exactly when Gamma = 0, or some weight is nonzero and Gamma <= rho.
* The least value-zero combo, in the order (center dimension, |J|, face
  support, J, x).  An interior zero has A = Gamma v, so it exists exactly
  when Gamma = rho > 0 or every weight is 0 (then Gamma = 0 and the whole
  interior has value 0).  That is a point center with J empty, which no
  other combo precedes; its x is the least interior box point of value 0,
  the ray witness included when Gamma > 0.  Such a state is flat.
  Otherwise a zero has A(x) = 0 and unit members only, so support(x) lies
  in Z and J among the unit members.  The lattice point (1,..,1) has
  v >= 1, so |units| <= Gamma <= rho <= A(1,..,1) <= d - |Z|: every subset
  fits, and the least combo takes all of Z and all unit members, a center
  of dimension d - |Z| - |units|.  That is positive, since 0 would force
  Gamma = rho, so only the center of such a combo is ever reported; with Z
  and the unit members both empty there is no zero at all.

A new member of coefficient t adds -t v to every value, so the threshold is
min(1, rho - Gamma), and the builder stops within d steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from operator import mul

from .errors import AlreadyFlat, InputError, ModelViolation, NotLogCanonical
from .germ import Face, ToricGerm, full_face, germ_document, log_discrepancy_of_valuation
from .lattice import cached_field
from .newton import _vertex_intersection
from .rationals import IntVec, QVec, instance, integer, iterate, qvec, rat_str, row_str, scaled_int_vector

POINT = "point-P"
INVARIANT_CYCLE = "invariant-cycle"
GENERAL_DIVISOR = "general-divisor"
STRATUM = "stratum"


@dataclass(frozen=True)
class FlatState:
    germ: ToricGerm
    gammas: tuple[Fraction, ...]

    def __post_init__(self):
        instance(self.germ, ToricGerm)
        object.__setattr__(self, "gammas", qvec(self.gammas))
        for g in self.gammas:
            if not 0 <= g.numerator <= g.denominator:
                raise InputError(f"coefficient {g} outside [0,1]")

    @property
    def members(self) -> int:
        return len(self.gammas)

    @cached_field
    def total(self) -> Fraction:
        return sum(self.gammas, start=Fraction(0))

    def to_json_dict(self) -> dict:
        return {"germ": germ_document(self.germ), "gammas": [rat_str(g) for g in self.gammas]}


@dataclass(frozen=True)
class CenterDescriptor:
    kind: str
    face: Face | None  # support of the monomial part, None when x = 0
    divisors: tuple[int, ...]  # 1-based indices of the general members involved
    dimension: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "face": None if self.face is None else list(self.face.support),
            "divisors": list(self.divisors),
            "dimension": self.dimension,
        }


@dataclass(frozen=True)
class ZeroCombo:
    x: QVec | None  # None when the valuation starts on the members alone
    divisors: tuple[int, ...]
    center: CenterDescriptor


def _multiplicity(germ: ToricGerm, x: QVec) -> Fraction:
    """v(x) for a lattice point x: the least pairing with
    ``Lattice.newton_generators``, which on the orthant is the least pairing
    with the dual Hilbert basis, in integers over den as in
    ``Lattice.interior_multiplicities``."""
    lat = germ.lattice
    u = scaled_int_vector(x, lat.den)
    return Fraction(min(sum(map(mul, h, u)) for h in lat.newton_generators), lat.den)


def state_value(state: FlatState, x, divisors=()) -> Fraction:
    """Log discrepancy of the combo valuation (x, J) in the resolved model."""
    instance(state, FlatState)
    J = tuple(sorted(set(integer(j, "a divisor index") for j in iterate(divisors, "the divisors"))))
    if any(j < 1 or j > state.members for j in J):
        raise InputError(f"divisor subset {J} out of range 1..{state.members}")
    x = qvec(x, state.germ.dim)
    if not any(x) and not J:
        raise InputError("the trivial combo (x=0, J empty) is not a valuation")
    # a nonzero x must be a primitive lattice point of the orthant
    a = log_discrepancy_of_valuation(state.germ, x) if any(x) else Fraction(0)
    if state.germ.dim - sum(1 for c in x if c) - len(J) < 0:
        raise InputError("empty center: support and divisor subset exceed the dimension")
    v = _multiplicity(state.germ, x)
    extra = sum((1 - state.gammas[j - 1] for j in J), start=Fraction(0))
    return a - state.total * v + extra


# -- interior ray infimum ---------------------------------------------------------


def _interior(germ: ToricGerm) -> tuple[Fraction | int, IntVec | None, list[IntVec]]:
    """(rho, ray row, zeros) in one pass over the interior box rows.

    rho = 1/mu is read off the vertex list (``newton._vertex_intersection``),
    the ray row is den * y_num / k for its normal y_num, k the gcd of the
    lattice coordinates of den * y_num, and the zeros are the full-support
    box rows with A = rho v.  When every weight is 0, rho is 0, there is no
    ray row, and every row is a zero.

    Every call also checks the fact that the log canonicity rule rests on:
    no interior box point x has A(x) < rho v(x).  Over the den-scaled row of
    x, A = (wn . row) / (den wd) and v = m / den with m from
    ``Lattice.interior_multiplicities``, so with rho = scale / mu_num the
    check is the integer comparison mu_num (wn . row) < scale wd m, and a
    zero is the equality."""
    wn, wd = germ._weight_ints
    lat = germ.lattice
    rho, ray, p, q = 0, None, 1, 0
    if any(wn):
        res = _vertex_intersection(germ)
        if res.mu_num is None:
            raise ModelViolation("the weight ray must meet the general-member polyhedron")
        rho, p, q = Fraction(res.scale, res.mu_num), res.mu_num, res.scale * wd
        u = tuple(lat.den * c for c in res.y_num)
        k = gcd(*lat._int_coordinates(u))
        ray = tuple(c // k for c in u)
    zeros = []
    for row, m in zip(lat.box_candidates[tuple(range(1, germ.dim + 1))], lat.interior_multiplicities):
        a = sum(map(mul, wn, row))
        if p * a < q * m:
            raise ModelViolation(f"box point {row_str(row, lat.den)} has A/v = {Fraction(a, wd * m)} below the ray infimum {rho}")
        if p * a == q * m:
            zeros.append(row)
    return rho, ray, zeros


def _ray(germ: ToricGerm) -> tuple[Fraction, IntVec]:
    """rho and the ray row of ``_interior``; ``InputError`` when every weight is 0."""
    rho, ray, _ = _interior(germ)
    if ray is None:
        raise InputError("zero weight vector: the interior ratio is identically 0")
    return rho, ray


def ray_infimum(germ: ToricGerm) -> Fraction:
    """inf of A(x)/v(x) over the interior of the cone, as exact rational.

    Equal to 1/mu of the general-member polyhedron: scaling any interior
    direction to v = 1 identifies the two programs.  ``InputError`` when
    every weight is 0, where the ratio is identically 0."""
    return _ray(germ)[0]


def ray_witness(germ: ToricGerm) -> QVec:
    """Primitive lattice point realizing the interior infimum exactly."""
    den = germ.lattice.den
    return tuple(Fraction(c, den) for c in _ray(germ)[1])


# -- thresholds and centers -------------------------------------------------------


def _checked_rho(state: FlatState) -> Fraction | int:
    """``_interior``'s rho of the state's germ, once the state is checked log
    canonical, Gamma <= rho; it is flat exactly when Gamma = rho (see the
    module docstring)."""
    rho = _interior(state.germ)[0]
    if state.total > rho:
        where = "above the interior ray infimum" if rho else "> 0 where every weight is 0"
        raise NotLogCanonical(f"coefficient sum {state.total} {where}")
    return rho


def threshold_step(state: FlatState) -> Fraction:
    """Largest coefficient for one more general member keeping the state
    log canonical: min(1, rho - Gamma).

    A member of coefficient t adds -t v(x) to every combo value, and only
    interior combos have v > 0; there the values are at least
    (rho - Gamma - t) v, with equality along the ray witness, so the bound is
    rho - Gamma, and the member's own coefficient caps it at 1.
    """
    rho = _checked_rho(instance(state, FlatState))
    if state.total == rho:
        raise AlreadyFlat("the state is already flat at the distinguished point")
    return min(Fraction(1), rho - state.total)


def minimal_center(state: FlatState) -> CenterDescriptor:
    """Center of smallest dimension among all value-zero combos; ties broken
    by smaller divisor subset, then lexicographic face and subset.

    The distinguished point when the state is flat; otherwise the stratum
    cut by the zero-weight face (the coordinates with b_i = 1) and every
    member of coefficient 1 (see the module docstring)."""
    if instance(state, FlatState).total == _checked_rho(state):
        return CenterDescriptor(POINT, full_face(state.germ.dim), (), 0)
    return _cut_center(state.germ, tuple(j for j, g in enumerate(state.gammas, 1) if g == 1))


def _cut_center(germ: ToricGerm, ones: tuple[int, ...]) -> CenterDescriptor:
    """The center cut by the zero-weight face and the coefficient-1 members ``ones``."""
    zero_face = tuple(i for i, w in enumerate(germ._weight_ints[0], 1) if not w)
    if not zero_face and not ones:
        raise InputError("no zero combo: the state is log terminal at every center")
    if not ones:
        kind = INVARIANT_CYCLE
    elif not zero_face and len(ones) == 1:
        kind = GENERAL_DIVISOR
    else:
        kind = STRATUM
    return CenterDescriptor(kind, Face(zero_face) if zero_face else None, ones, germ.dim - len(zero_face) - len(ones))


@dataclass(frozen=True)
class FlatBuildResult:
    state: FlatState
    trace: tuple[tuple[Fraction, CenterDescriptor], ...]
    witness: ZeroCombo

    def to_json_dict(self) -> dict:
        return {
            "state": self.state.to_json_dict(),
            "trace": [
                {"gamma": rat_str(g), "center": c.to_json_dict()} for g, c in self.trace
            ],
            "witness": {
                "x": None if self.witness.x is None else [rat_str(c) for c in self.witness.x],
                "divisors": list(self.witness.divisors),
            },
        }


def build_flat_structure(germ: ToricGerm) -> FlatBuildResult:
    """Add general members of the maximal ideal at their thresholds until the
    distinguished point carries a value-zero valuation, in closed form: the
    thresholds min(1, rho - Gamma) are n = ceil(rho) coefficients 1, .., 1,
    rho - n + 1 (n > d is a ``ModelViolation``), step j < n is centered on the
    cut of the zero-weight face and members 1..j, and the last on the point.
    The witness is the least den-scaled row among the interior box zeros and
    the ray row, checked in integers to be a primitive lattice point of the
    orthant of value zero (else ``ModelViolation``); only the result is built
    in ``Fraction``s.
    """
    rho, ray, zeros = _interior(instance(germ, ToricGerm))
    steps = ceil(rho)
    if steps > germ.dim:
        raise ModelViolation(f"no flat structure after {germ.dim} steps; the model promises <= dim steps")
    one = Fraction(1)
    point = CenterDescriptor(POINT, full_face(germ.dim), (), 0)
    trace = [(one, _cut_center(germ, tuple(range(1, j + 1)))) for j in range(1, steps)]
    trace += [(rho - (steps - 1), point)] if steps else []
    state = FlatState(germ, tuple(g for g, _ in trace))
    # the final coefficient sum is rho, so u is a zero when A = rho v, that
    # is, rho_den (wn . u) = rho_num wd v(u) (see ``_interior``)
    wn, wd = germ._weight_ints
    lat = germ.lattice
    p, q = rho.denominator, rho.numerator * wd
    u = min(zeros if ray is None else [*zeros, ray])
    coords = lat._int_coordinates(u) if min(u) >= 0 else None
    if coords is None or gcd(*coords) != 1:
        raise ModelViolation(f"the witness {row_str(u, lat.den)} must be a primitive lattice point of the orthant")
    if p * sum(map(mul, wn, u)) != q * min(sum(map(mul, h, u)) for h in lat.newton_generators):
        raise ModelViolation(f"the witness {row_str(u, lat.den)} must have value exactly zero")
    return FlatBuildResult(state, tuple(trace), ZeroCombo(tuple(Fraction(c, lat.den) for c in u), (), point))
