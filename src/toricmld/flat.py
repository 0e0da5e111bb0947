"""Flat log structures from general members of the maximal ideal.

A state is a germ together with coefficients gamma_1..gamma_k attached to k
distinct general members of the maximal ideal.  General members are modeled
by their common Newton polyhedron: along the toric valuation of x the member
vanishes to order v(x) = min over the dual Hilbert basis of <m, x>, along
its own strict transform to order 1, and distinct members (and the invariant
strata) intersect transversally.  The log discrepancy of the valuation that
first blows up x (or starts at the ambient point for x = 0) and then dives
into the members indexed by J is

    value(x, J) = A(x) - (sum gamma_j) v(x) + sum_{j in J} (1 - gamma_j),

with A(x) = sum (1-b_i) x_i, admissible whenever the center, a stratum of
dimension d - |support(x)| - |J|, is nonempty.

Two structural facts drive the builder and are exploited throughout:

* v vanishes on every proper face (the monoid contains the primitive dual
  ray vectors, which kill any partial support), so combos off the interior
  have value A(x) + sum_{J}(1 - gamma_j) >= 0 automatically and never
  constrain a threshold below the cap 1;
* along any interior ray the value is homogeneous, so the binding ratio is
  the interior infimum rho = inf A(x)/v(x), a number that depends only on
  the germ.  By LP duality rho equals 1/mu of the general-member Newton
  polyhedron, and the pricing vector of that LP lies on an optimal ray, so
  an exact lattice witness is always available.  (The same infimum can be
  computed cell by cell over the linearity regions of v, one LP per cell;
  the tests keep that slower route as a cross-check.)

Adding a new member with coefficient t turns every admissible combo value
into an affine function of t; the threshold is the largest t in (0, 1] that
keeps all of them nonnegative, which reduces to min(1, rho - Gamma) with
Gamma the current coefficient sum, because every box ratio (a+b)/(c+d) with
nonnegative parts is at least min(a/c, b/d) of its endpoint ratios.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import AlreadyFlat, InputError, ModelViolation, NotLogCanonical
from .germ import Face, ToricGerm, full_face
from .newton import FirstIntersection, _first_intersection, _primitive_normal, dual_hilbert_basis, newton_poly_from_exponents
from .rationals import QVec, qvec

POINT = "point-P"
INVARIANT_CYCLE = "invariant-cycle"
GENERAL_DIVISOR = "general-divisor"
STRATUM = "stratum"


@dataclass(frozen=True)
class FlatState:
    germ: ToricGerm
    gammas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", qvec(self.gammas))
        for g in self.gammas:
            if not 0 <= g <= 1:
                raise InputError(f"coefficient {g} outside [0,1]")

    @property
    def members(self) -> int:
        return len(self.gammas)

    @property
    def hb(self) -> tuple[tuple[int, ...], ...]:
        return dual_hilbert_basis(self.germ)

    @property
    def total(self) -> Fraction:
        return sum(self.gammas, start=Fraction(0))

    def to_json_dict(self) -> dict:
        from .rationals import rat_str
        from .survey import germ_document

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


def _multiplicity(state: FlatState, x: QVec) -> Fraction:
    if not any(x):
        return Fraction(0)
    return min(sum((Fraction(m) * c for m, c in zip(exp, x)), start=Fraction(0)) for exp in state.hb)


def state_value(state: FlatState, x, divisors=()) -> Fraction:
    """Log discrepancy of the combo valuation (x, J) in the resolved model."""
    J = tuple(sorted(set(int(j) for j in divisors)))
    if any(j < 1 or j > state.members for j in J):
        raise InputError(f"divisor subset {J} out of range 1..{state.members}")
    x = qvec(x, state.germ.dim)
    support = sum(1 for c in x if c)
    if any(x):
        if any(c < 0 for c in x):
            raise InputError(f"{x} is outside the positive orthant")
        if not state.germ.lattice.contains(x):
            raise InputError(f"{x} is not in the germ lattice")
        if state.germ.lattice.primitive_scale(x) != 1:
            raise InputError(f"{x} is not primitive")
    elif not J:
        raise InputError("the trivial combo (x=0, J empty) is not a valuation")
    if state.germ.dim - support - len(J) < 0:
        raise InputError("empty center: support and divisor subset exceed the dimension")
    a = state.germ.log_discrepancy(x)
    v = _multiplicity(state, x)
    extra = sum((1 - state.gammas[j - 1] for j in J), start=Fraction(0))
    return a - state.total * v + extra


# -- interior ray infimum ---------------------------------------------------------


def _general_member_intersection(germ: ToricGerm) -> FirstIntersection:
    """``ToricGerm.general_member_intersection``: the first intersection of
    the weight ray with the general-member Newton polyhedron."""
    poly = newton_poly_from_exponents(germ, dual_hilbert_basis(germ))
    return _first_intersection(poly.exponents, germ.weights)


def ray_infimum(germ: ToricGerm) -> Fraction:
    """inf of A(x)/v(x) over the interior of the cone, as exact rational.

    Equal to 1/mu of the general-member polyhedron: scaling any interior
    direction to v = 1 identifies the two programs (weights cannot be all
    zero here, or the germ would already be flat)."""
    if not any(w for w in germ.weights):
        raise InputError("zero weight vector: the interior ratio is identically 0")
    res = germ.general_member_intersection
    assert res.mu is not None and res.mu > 0
    return 1 / res.mu


def ray_witness(germ: ToricGerm) -> QVec:
    """Primitive lattice point realizing the interior infimum exactly."""
    witness = _primitive_normal(germ.lattice, germ.general_member_intersection)
    assert witness is not None
    return witness


# -- thresholds and centers -------------------------------------------------------


def _require_log_canonical(state: FlatState) -> None:
    """Negative values can only appear along the interior (proper-face combos
    are A(x) + nonnegative terms); check the box and the ray infimum."""
    gamma = state.total
    for a, v, x in state.germ.interior_values:
        if a - gamma * v < 0:
            raise NotLogCanonical(f"value {(a - gamma * v)} < 0 at {x}")
    if gamma > 0 and any(w for w in state.germ.weights) and ray_infimum(state.germ) < gamma:
        raise NotLogCanonical("interior ray infimum below the coefficient sum")


def _zero_combos(state: FlatState) -> list[ZeroCombo]:
    """All combos of value exactly zero, sorted by
    (center dimension, |J|, face support, J, monomial witness)."""
    d = state.germ.dim
    gamma = state.total
    ones = [j + 1 for j, g in enumerate(state.gammas) if g == 1]
    found: dict = {}

    def add(x: QVec | None, J: tuple[int, ...], face: Face | None):
        support = face.support if face is not None else ()
        dimension = d - len(support) - len(J)
        if dimension == 0:
            kind = POINT
        elif x is not None and not J:
            kind = INVARIANT_CYCLE
        elif x is None and len(J) == 1:
            kind = GENERAL_DIVISOR
        else:
            kind = STRATUM
        center = CenterDescriptor(kind, face, J, dimension)
        sort_x = tuple(x) if x is not None else ()
        key = (dimension, len(J), support, J, sort_x)
        found.setdefault(key, ZeroCombo(x, J, center))

    # interior box zeros (full support forbids any divisor subset)
    for a, v, x in state.germ.interior_values:
        if a - gamma * v == 0:
            add(x, (), full_face(d))
    # proper-face zeros: v = 0 there, so zero means A(x) = 0 and all chosen
    # gammas equal to 1
    for face, x in state.germ.face_zero_points:
        room = d - len(face.support)
        for size in range(0, min(room, len(ones)) + 1):
            for J in combinations(ones, size):
                add(x, J, face)
    # member-only zeros
    for size in range(1, min(d, len(ones)) + 1):
        for J in combinations(ones, size):
            add(None, J, None)
    # interior ray zero: the infimum is attained on an explicit lattice ray
    if gamma > 0 and any(w for w in state.germ.weights) and ray_infimum(state.germ) == gamma:
        add(ray_witness(state.germ), (), full_face(d))
    return [found[k] for k in sorted(found)]


def threshold_step(state: FlatState) -> Fraction:
    """Largest coefficient for one more general member keeping the state
    log canonical.

    Only three constraint families can bind: the cap 1 (from the new member
    itself), the interior ray bound rho - Gamma, and the interior box ratios
    (A - Gamma v)/v; everything else evaluates to at least 1 because v
    vanishes off the interior.  The box ratios are themselves at least the
    ray bound, but are scanned anyway as a cheap cross-check.
    """
    _require_log_canonical(state)
    zeros = _zero_combos(state)
    if any(z.center.dimension == 0 for z in zeros):
        raise AlreadyFlat("the state is already flat at the distinguished point")
    gamma = state.total
    rho = ray_infimum(state.germ)
    bound = min(Fraction(1), rho - gamma)
    for a, v, x in state.germ.interior_values:
        if v > 0:
            ratio = (a - gamma * v) / v
            assert ratio >= rho - gamma, "box ratios dominate the ray bound"
            bound = min(bound, ratio)
    assert 0 < bound <= 1
    return bound


def minimal_center(state: FlatState) -> CenterDescriptor:
    """Center of smallest dimension among all value-zero combos; ties broken
    by smaller divisor subset, then lexicographic face and subset."""
    _require_log_canonical(state)
    zeros = _zero_combos(state)
    if not zeros:
        raise InputError("no zero combo: the state is log terminal at every center")
    return zeros[0].center


@dataclass(frozen=True)
class FlatBuildResult:
    state: FlatState
    trace: tuple[tuple[Fraction, CenterDescriptor], ...]
    witness: ZeroCombo

    def to_json_dict(self) -> dict:
        from .rationals import rat_str

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


def build_flat_structure(germ: ToricGerm, max_steps: int | None = None) -> FlatBuildResult:
    """Add general members of the maximal ideal at their thresholds until the
    distinguished point carries a value-zero valuation.

    Terminates in at most d steps: any step below the cap lands the
    coefficient sum exactly on the interior infimum (an interior zero), and
    cap steps raise the sum by 1 toward an infimum that is at most d.
    """
    if max_steps is None:
        max_steps = germ.dim
    if max_steps < germ.dim:
        raise InputError("max_steps must be at least the dimension")
    state = FlatState(germ, ())
    trace: list[tuple[Fraction, CenterDescriptor]] = []
    for _ in range(max_steps):
        _require_log_canonical(state)
        zeros = _zero_combos(state)
        if zeros and zeros[0].center.dimension == 0:
            return _finish(state, trace, zeros[0])
        gamma = threshold_step(state)
        state = FlatState(state.germ, state.gammas + (gamma,))
        center = minimal_center(state)
        trace.append((gamma, center))
        if center.dimension == 0:
            zeros = _zero_combos(state)
            return _finish(state, trace, zeros[0])
    raise ModelViolation(f"no flat structure after {max_steps} steps; the model promises <= dim steps")


def _finish(state: FlatState, trace, witness: ZeroCombo) -> FlatBuildResult:
    value = state_value(state, witness.x if witness.x is not None else [0] * state.germ.dim, witness.divisors)
    assert value == 0, "the reported witness must have value exactly zero"
    _require_log_canonical(state)
    return FlatBuildResult(state, tuple(trace), witness)
