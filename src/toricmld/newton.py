"""Log canonical thresholds of Newton polyhedra.

The polyhedron of a monomial exponent set {m_a} (all in the dual lattice M,
inside the dual orthant) is conv(m_a) + dual orthant.  The ray through the
weight vector w = (1-b_1,...,1-b_d) first meets it at parameter mu, computed
as the exact linear program

    mu = min { t : some convex combination of the m_a is <= t*w },

and the threshold of a hypersurface with those exponents and sufficiently
general coefficients is min(1, 1/mu).  The LP solution also prices out a
normal vector y >= 0 with <y, w> = 1 and <y, m_a> >= mu for every exponent;
scaled to a primitive lattice point it realizes 1/mu as a valuation ratio,
which is the tightness certificate the tests rely on.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from .errors import DimensionMismatch, InputError, ModelViolation, NotInLattice
from .germ import ToricGerm, _boundary, log_discrepancy_of_valuation
from .linprog import OPTIMAL, solve_lp_max_slack
from .rationals import IntVec, instance, integer, iterate, qvec, rat, rat_str

CAP_ONE = "cap-one"
RAY = "ray"

# -- dual monoid generators -----------------------------------------------------


def dual_hilbert_basis(germ: ToricGerm) -> tuple[IntVec, ...]:
    """Minimal generating set of the monoid (dual lattice) cap (dual orthant),
    sorted lexicographically; computed once per lattice
    (``Lattice.hilbert_basis``)."""
    return instance(germ, ToricGerm).lattice.hilbert_basis


# -- polyhedra -------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPoly:
    """Exponent set of an element of the maximal ideal, up to the implied
    translation cone: the polyhedron is conv(exponents) + dual orthant."""

    germ: ToricGerm
    exponents: tuple[IntVec, ...]

    def __post_init__(self):
        """Every check on the exponents, however the polyhedron was built: a
        nonempty tuple, sorted and distinct, of nonzero tuples of length ``dim``
        of nonnegative ints, each in the dual lattice (``Lattice.dual_contains_int``)."""
        lat, exps = instance(self.germ, ToricGerm).lattice, self.exponents
        if not isinstance(exps, tuple) or not all(isinstance(e, tuple) for e in exps):
            raise InputError(f"exponents must be a tuple of tuples, got {exps!r}")
        if not exps:
            raise InputError("at least one exponent is required")
        for e in exps:
            if len(e) != lat.dim:
                raise DimensionMismatch(f"expected a vector of length {lat.dim}, got {len(e)}")
            if not all(type(c) is int and c >= 0 for c in e):
                raise InputError(f"exponent {qvec(e)} must have nonnegative integer entries")
            if not any(e):
                raise InputError("the zero exponent (a unit, not in the maximal ideal) is not allowed")
            if not lat.dual_contains_int(e):
                raise NotInLattice(f"exponent {e} is not in the dual lattice")
        if any(a >= b for a, b in zip(exps, exps[1:])):
            raise InputError(f"exponents must be sorted and distinct, got {exps!r}")

    @property
    def dim(self) -> int:
        return self.germ.dim


def newton_poly_from_exponents(germ: ToricGerm, exponents) -> NewtonPoly:
    """The Newton polyhedron of dual-lattice exponents, deduplicated and
    sorted; componentwise-dominated exponents are kept, since they never
    change the polyhedron.

    Every entry is read by ``rat``, and an integral vector becomes its
    numerators; ``NewtonPoly`` checks the result.  The dual Hilbert basis
    goes to ``NewtonPoly`` as built and does not come through here."""
    seen = set()
    for e in iterate(exponents, "the exponents"):
        vec = tuple(rat(c) for c in iterate(e, "an exponent"))
        seen.add(tuple(c.numerator for c in vec) if all(c.denominator == 1 for c in vec) else vec)
    return NewtonPoly(germ, tuple(sorted(seen)))


@dataclass(frozen=True)
class FirstIntersection:
    mu_num: int | None  # mu = mu_num / scale; None encodes +infinity (ray never enters)
    scale: int = 1
    lam: IntVec | None = None  # convex weights over scale, aligned with exponents; None if read off the vertices
    y_num: IntVec | None = None  # y = y_num / y_den >= 0, <y,w> = 1, <y,m> >= mu for all m
    y_den: int = 1


def _mu_lp(exponents: list[IntVec], w_row: IntVec, wd: int) -> tuple[int, int, IntVec, IntVec, int]:
    """Exact LP for one exponent subset, in integers.

    Returns (mu_num, scale, lam_num, y_num, y_den): mu = mu_num / scale, the
    convex weights lambda = lam_num / scale, and the normal y = y_num /
    y_den.  The weight vector w is given as the integer row ``w_row`` =
    wd * w.

    Solved in the pricing form  max z : z <= <y, m> for each exponent,
    <y, w> <= 1, (z, y) >= 0,  whose slack basis is feasible outright.  The
    optimum is mu, the optimizer y is the supporting normal, and the duals of
    the exponent rows are the convex weights of the primal form; they must
    sum to exactly 1 (``ModelViolation`` otherwise).  Every row is integral:
    the weight row is scaled by wd, which changes only that row's dual, and
    that dual is not read.
    """
    c = [1] + [0] * len(w_row)
    rows = [([1] + [-v for v in m], 0) for m in exponents]
    rows.append(([0, *w_row], wd))
    res = solve_lp_max_slack(c, rows)
    if res.status != OPTIMAL:
        raise ModelViolation("the restricted intersection program must be bounded")
    lam = res.dual_num[: len(exponents)]
    if sum(lam) != res.obj_scale:
        raise ModelViolation("the distinguished column must price the weights to a convex combination")
    return res.obj_num, res.obj_scale, lam, res.x_num[1:], res.x_den


def _first_intersection(exponents: tuple[IntVec, ...], w_row: IntVec, wd: int) -> FirstIntersection:
    """Column-generation wrapper: solve on a small active list, kept sorted,
    price the rest with the exact normal vector, and insert the worst
    exponent until nothing violates.

    The weight vector is w = w_row / wd, as ``ToricGerm._weight_ints`` holds
    it.  ``exponents`` are distinct and sorted, as ``NewtonPoly`` and
    ``Lattice.hilbert_basis`` keep them, so the first minimum of a scan is
    also the lexicographically least one.  Pricing and the zero-weight lift
    run in integers over the LP's denominators, and the result stays in them
    (``ModelViolation`` unless mu > 0); the functions that return mu, the
    weights or the normal build the ``Fraction``s.
    """
    zero_coords = [i for i, w in enumerate(w_row) if w == 0]
    valid = [m for m in exponents if all(m[i] == 0 for i in zero_coords)]
    if not valid:
        return FirstIntersection(None)

    active = sorted({min(valid, key=sum), *(min(valid, key=itemgetter(i)) for i in range(len(w_row)))})
    while True:
        mu_num, scale, lam, pn, nd = _mu_lp(active, w_row, wd)
        # <y, m> >= mu  <=>  scale * <pn, m> >= mu_num * nd
        worst = min(valid, key=lambda m: sum(map(mul, pn, m)))
        if scale * sum(map(mul, pn, worst)) >= mu_num * nd:
            break
        if worst in active:
            raise ModelViolation("optimal pricing may not undercut an active column")
        insort(active, worst)

    if mu_num <= 0:
        raise ModelViolation("mu must be positive: the exponents are nonzero and nonnegative")
    # lift the normal so it prices every exponent, including the ones forced
    # out by a zero-weight coordinate (raising those coordinates is free)
    y_num, k = _zero_weight_lift(pn, mu_num * nd, scale, exponents, zero_coords)
    by_exp = dict(zip(active, lam))
    return FirstIntersection(mu_num, scale, tuple(by_exp.get(m, 0) for m in exponents), y_num, nd * k)


def _zero_weight_lift(y: IntVec, target: int, s: int, exponents, zero_coords) -> tuple[IntVec, int]:
    """(y_num, k): y lifted on the zero-weight coordinates to y_num / k so that
    s <y, m> >= target for every exponent m, by the largest gap / z over s,
    gap = target - s <y, m> and z the sum of m on those coordinates."""
    if not zero_coords:
        return y, 1
    gap_max, z_max = 0, 1
    for m in exponents:
        z = sum(m[i] for i in zero_coords)
        if z and (gap := target - s * sum(map(mul, y, m))) * z_max > gap_max * z:
            gap_max, z_max = gap, z
    if not gap_max:
        return y, 1
    return tuple(v * s * z_max + (gap_max if i in zero_coords else 0) for i, v in enumerate(y)), s * z_max


def first_intersection_mu(poly: NewtonPoly) -> Fraction | None:
    """Parameter of the first ray point t*w inside the polyhedron, the ``mu``
    of ``lct_newton``; None means the ray never enters (possible only when
    some weight vanishes)."""
    return lct_newton(poly).mu


@dataclass(frozen=True)
class LctReport:
    mu: Fraction | None  # None encodes +infinity
    lct: Fraction
    binding: str  # CAP_ONE when the constant 1 decides, RAY otherwise
    witness: tuple[Fraction, ...] | None  # convex weights, or None when infeasible

    def to_json_dict(self) -> dict:
        return {
            "mu": "infinity" if self.mu is None else rat_str(self.mu),
            "lct": rat_str(self.lct),
            "binding": self.binding,
            "witness": "infeasible" if self.witness is None else [rat_str(v) for v in self.witness],
        }


def lct_newton(poly: NewtonPoly) -> LctReport:
    """General-coefficient threshold min(1, 1/mu), with 1/infinity = 0."""
    res = _first_intersection(instance(poly, NewtonPoly).exponents, *poly.germ._weight_ints)
    if res.mu_num is None:
        return LctReport(None, Fraction(0), RAY, None)
    mu = Fraction(res.mu_num, res.scale)
    weights = tuple(Fraction(v, res.scale) for v in res.lam)
    if res.scale > res.mu_num:
        return LctReport(mu, Fraction(1), CAP_ONE, weights)
    return LctReport(mu, Fraction(res.scale, res.mu_num), RAY, weights)


def lct_monomial(germ: ToricGerm, n) -> Fraction:
    """Threshold of the invariant divisor of a single monomial: the divisor is
    torus-invariant, so no cap at 1 applies."""
    poly = newton_poly_from_exponents(germ, [n])
    (exp,) = poly.exponents
    vals = [Fraction(w, e) for w, e in zip(germ.weights, exp) if e > 0]
    return min(vals)


def lct_fermat(dim: int, boundary, degrees) -> Fraction:
    """Threshold of x_1^{n_1} + ... + x_d^{n_d} on the standard germ, off its boundary alone."""
    if integer(dim, "dim") < 1:
        raise InputError("dimension must be positive")
    weights = [1 - b for b in _boundary(boundary, dim)]
    degrees = [integer(n, "a degree") for n in iterate(degrees, "the degrees")]
    if len(degrees) != dim or any(n < 1 for n in degrees):
        raise InputError("need one positive integer degree per coordinate")
    total = sum((Fraction(w, n) for w, n in zip(weights, degrees)), start=Fraction(0))
    return min(Fraction(1), total)


def lct_general_member(germ: ToricGerm) -> LctReport:
    """Threshold of a general member of the maximal ideal: the Newton
    polyhedron generated by the dual Hilbert basis, which is sorted, distinct
    and valid as built."""
    return lct_newton(NewtonPoly(germ, dual_hilbert_basis(germ)))


def _general_member_threshold(germ: ToricGerm) -> Fraction:
    """``lct_general_member(germ).lct`` without the program: min(1, min <y, w>
    over the vertices y = row / D of ``Lattice.threshold_vertices``), the
    minimum taken in integers as <row, wd * w> over D * wd."""
    den, rows = germ.lattice.threshold_vertices
    wn, wd = germ._weight_ints
    return min(Fraction(1), Fraction(min(sum(map(mul, wn, y)) for y in rows), den * wd))


def _vertex_intersection(germ: ToricGerm) -> FirstIntersection:
    """``_first_intersection`` of the Hilbert basis off the rows / D of
    ``Lattice.threshold_vertices``: mu = D wd / min <row, wd w>, the normal
    mu / D times the greatest minimizing row, zeroed where w is 0, and lifted
    over ``Lattice.newton_generators``, which price as the basis on y >= 0."""
    (den, rows), (wn, wd) = germ.lattice.threshold_vertices, germ._weight_ints
    vals = [sum(map(mul, wn, y)) for y in rows]
    best = min(vals)
    if not best:
        return FirstIntersection(None)
    p = max(tuple(c if w else 0 for c, w in zip(y, wn)) for y, v in zip(rows, vals) if v == best)
    y_num, k = _zero_weight_lift(p, den, 1, germ.lattice.newton_generators, [i for i, w in enumerate(wn) if not w])
    return FirstIntersection(den * wd, best, None, tuple(wd * c for c in y_num), best * k)


def lct_upper_bound_from_valuation(poly: NewtonPoly, x) -> Fraction | None:
    """A(x) / min_a <m_a, x> for a primitive lattice x; None encodes +infinity
    (the valuation does not see the divisor).  Always >= the ray threshold."""
    a = log_discrepancy_of_valuation(instance(poly, NewtonPoly).germ, x)
    x = qvec(x, poly.dim)
    v = min(sum((c * m for c, m in zip(x, exp)), start=Fraction(0)) for exp in poly.exponents)
    if v == 0:
        return None
    return a / v
