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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter, mul

from .errors import DimensionMismatch, InputError, ModelViolation, NotInLattice, ResourceLimit
from .germ import ToricGerm, log_discrepancy_of_valuation
from .lattice import Lattice
from .linprog import OPTIMAL, solve_lp_max_slack
from .rationals import IntVec, QVec, qvec, rat, rat_str

CAP_ONE = "cap-one"
RAY = "ray"

# Largest box prod (c_i + 1) that ``dual_hilbert_basis`` marks out, as Python-int
# bitsets of that many bits.  Since c_i <= index, it admits every lattice up to
# index 255 in dimension 3 and 63 in dimension 4; near the cap one call took
# under half a second and 50 MB (2.1 GHz Xeon vCPU, Python 3.11).
BOX_CAP = 2**24


# -- dual monoid generators -----------------------------------------------------


def _ray_orders(lat: Lattice) -> tuple[int, ...]:
    """Smallest positive c_i with c_i * e_i in the dual lattice.

    k * e_i pairs integrally with the lattice exactly when den divides k times
    every entry of column i of ``int_rows``, that is, when den / gcd(den,
    column i) divides k.
    """
    den = lat.den
    return tuple(den // gcd(den, *(row[i] for row in lat.int_rows)) for i in range(lat.dim))


def _box_bits(rows: list[IntVec], c: IntVec, strides: IntVec) -> int:
    """Bitset of the lattice points in the box prod [0, c_i]; the point x is
    bit sum x_i * strides[i] in the mixed radix (c_i + 1) whose last
    coordinate is fastest (stride 1).

    ``rows`` is an upper-triangular basis of the lattice with positive
    pivots.  The walk fixes one coordinate at a time along it: once
    x_0..x_{i-1} are fixed, the coefficients of rows 0..i-1 are too, and x_i
    runs through v_i + k * pivot_i for the partial sum v of those rows, so
    only lattice points are ever visited.  The last coordinate of each fixed
    prefix is a whole progression, taken at once from a comb of bits one
    pivot apart; the lines are then joined pairwise, so each bit is copied
    O(log lines) times rather than once per line.  Prefixes are kept as
    parallel lists of integers, not one tuple each: that allocates far fewer
    objects, and the walk ran about 2.5 times faster on the d = 3, index <= 20
    lattices.
    """
    d = len(c)
    offsets = [0]  # bit offset of each fixed prefix x_0..x_{i-1}
    sums = [[0] for _ in range(d)]  # sums[j][s]: coordinate j of prefix s's partial sum v
    for i in range(d - 1):
        piv, ci, st = rows[i][i], c[i], strides[i]
        parents, ks, next_offsets = [], [], []
        for s, vi in enumerate(sums[i]):
            x = vi % piv  # smallest x_i in [0, c_i] of the form v_i + k * piv
            n = (ci - x) // piv + 1
            k0 = (x - vi) // piv
            parents += [s] * n
            ks += range(k0, k0 + n)
            start = offsets[s] + x * st
            next_offsets += range(start, start + n * piv * st, piv * st)
        offsets = next_offsets
        sums = [None] * (i + 1) + [
            [sums[j][s] + k * rows[i][j] for s, k in zip(parents, ks)] for j in range(i + 1, d)
        ]
    piv, last = rows[-1][-1], c[-1]
    line = (1 << (last + 1)) - 1
    comb = sum(1 << x for x in range(0, last + 1, piv))
    lines = [(comb << (v % piv)) & line for v in sums[-1]]
    while len(lines) > 1:
        joined = [a | b << (q - p) for a, b, p, q in zip(lines[::2], lines[1::2], offsets[::2], offsets[1::2])]
        lines, offsets = joined + lines[2 * len(joined) :], offsets[::2]
    return lines[0] << offsets[0]


def _block_mask(total: int, block: int, run: int) -> int:
    """Bitset of ``total`` bits whose every ``block``-bit block (``block``
    divides ``total``) has exactly its low ``run`` bits set."""
    mask, width = (1 << run) - 1, block
    while width < total:
        mask |= mask << width
        width *= 2
    return mask & ((1 << total) - 1)


def dual_hilbert_basis(germ: ToricGerm) -> tuple[IntVec, ...]:
    """Minimal generating set of the monoid (dual lattice) cap (dual orthant),
    sorted lexicographically; computed once per lattice
    (``Lattice.hilbert_basis``, by ``_hilbert_basis``)."""
    return germ.lattice.hilbert_basis


def _hilbert_basis(lat: Lattice) -> tuple[IntVec, ...]:
    """The dual Hilbert basis of a lattice containing Z^d, sorted.

    Every irreducible element lies in the box prod [0, c_i], where c_i e_i is
    the primitive dual vector on ray i: anything beyond can shed a c_i e_i and
    stay in the monoid.  The box is a bitset in mixed radix (c_i + 1), first
    coordinate fastest, filled with the dual lattice points by a walk from
    the last coordinate to the first (``_box_bits``) along the integer dual
    basis of ``Lattice.dual_int_basis``, which is triangular in that order.

    Reducibility criterion: a nonzero monoid point p is reducible exactly
    when some nonzero monoid point q satisfies q <= p - e_k for some k.  If
    p = q + r with q, r nonzero monoid points, then r >= 0 and r != 0, so
    some r_k >= 1 and q <= p - e_k.  Conversely, q <= p - e_k gives q <= p
    and q != p, so r = p - q is a nonzero lattice point of the orthant, that
    is, a nonzero monoid point, and p = q + r.  Every such q lies in the box
    with p.

    So with D the down-closure "some nonzero monoid point is <= x", the
    reducible points are the union over k of D shifted up by e_k.  D is the
    prefix-OR of the nonzero points along every axis in turn, each done by
    masked doubling shifts (distances 1, 2, 4, ... along the axis, masked so
    that no bit leaves its line), and the basis is the nonzero points minus
    the shifted copies: O(box * d * log c) bit operations on Python ints,
    against the box cap ``BOX_CAP`` (``ResourceLimit`` above it).
    """
    c = _ray_orders(lat)
    total = prod(ci + 1 for ci in c)
    if total > BOX_CAP:
        raise ResourceLimit(f"Hilbert basis box of {total} points exceeds the cap {BOX_CAP}")
    strides = tuple(prod(cj + 1 for cj in c[:i]) for i in range(lat.dim))
    walk_basis = [col[::-1] for col in reversed(lat.dual_int_basis())]
    nonzero = _box_bits(walk_basis, c[::-1], strides[::-1]) & ~1
    below = nonzero
    for ci, st in zip(c, strides):
        block = (ci + 1) * st
        s = 1
        while s <= ci:
            below |= (below & _block_mask(total, block, (ci + 1 - s) * st)) << (s * st)
            s *= 2
    shifted = 0
    for ci, st in zip(c, strides):
        shifted |= (below & _block_mask(total, (ci + 1) * st, ci * st)) << st
    digits = format(nonzero & ~shifted, "b")  # bit pos is digits[-1 - pos]
    result = []
    i = digits.rfind("1")
    while i >= 0:
        pos = len(digits) - 1 - i
        result.append(tuple(pos // st % (ci + 1) for ci, st in zip(c, strides)))
        i = digits.rfind("1", 0, i)
    return tuple(sorted(result))


# -- polyhedra -------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPoly:
    """Exponent set of an element of the maximal ideal, up to the implied
    translation cone: the polyhedron is conv(exponents) + dual orthant."""

    germ: ToricGerm
    exponents: tuple[IntVec, ...]

    @property
    def dim(self) -> int:
        return self.germ.dim


def newton_poly_from_exponents(germ: ToricGerm, exponents) -> NewtonPoly:
    """Validated Newton polyhedron from dual-lattice exponents, deduplicated
    and sorted; componentwise-dominated exponents are kept, since they never
    change the polyhedron.

    An exponent of Python ints is checked as it is, in one pass; any other
    entry is read by ``rat`` first.  Membership in the dual lattice is
    ``Lattice.dual_contains_int``."""
    dim, lat = germ.dim, germ.lattice
    seen: set[IntVec] = set()
    for e in exponents:
        ivec = tuple(e)
        integral = all(type(c) is int for c in ivec)
        if not integral:
            # the Fraction form is only built for entries that are not ints
            vec = tuple(c if type(c) is int else rat(c) for c in ivec)
            integral = all(c.denominator == 1 for c in vec)
            ivec = tuple(c.numerator for c in vec) if integral else vec
        if len(ivec) != dim:
            raise DimensionMismatch(f"expected a vector of length {dim}, got {len(ivec)}")
        if not integral or min(ivec) < 0:
            raise InputError(f"exponent {qvec(ivec)} must have nonnegative integer entries")
        if not any(ivec):
            raise InputError("the zero exponent (a unit, not in the maximal ideal) is not allowed")
        if not lat.dual_contains_int(ivec):
            raise NotInLattice(f"exponent {ivec} is not in the dual lattice")
        seen.add(ivec)
    if not seen:
        raise InputError("at least one exponent is required")
    return NewtonPoly(germ, tuple(sorted(seen)))


@dataclass(frozen=True)
class FirstIntersection:
    mu: Fraction | None  # None encodes +infinity (ray never enters)
    weights: tuple[Fraction, ...] | None  # convex combination, aligned with exponents
    normal: tuple[Fraction, ...] | None  # y >= 0, <y,w> = 1, <y,m> >= mu for all m


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
    """Column-generation wrapper: solve on a small active set, price the rest
    with the exact normal vector, and grow the set until nothing violates.

    The weight vector is w = w_row / wd, as ``ToricGerm._weight_ints`` holds
    it.  ``exponents`` are sorted, as ``NewtonPoly`` keeps them, so the first
    minimum of a scan is also the lexicographically least one.  Pricing and
    the zero-weight lift run in integers over the LP's denominators; mu, the
    weights and the normal become ``Fraction``s once, at the end.
    """
    zero_coords = [i for i, w in enumerate(w_row) if w == 0]
    valid = [m for m in exponents if all(m[i] == 0 for i in zero_coords)]
    if not valid:
        return FirstIntersection(None, None, None)

    active = {min(valid, key=sum)}
    for i in range(len(w_row)):
        active.add(min(valid, key=itemgetter(i)))
    active_list = sorted(active)
    while True:
        mu_num, scale, lam, pn, nd = _mu_lp(active_list, w_row, wd)
        # <y, m> >= mu  <=>  scale * <pn, m> >= mu_num * nd
        worst = min(valid, key=lambda m: sum(map(mul, pn, m)))
        if scale * sum(map(mul, pn, worst)) >= mu_num * nd:
            break
        if worst in active:
            raise ModelViolation("optimal pricing may not undercut an active column")
        active.add(worst)
        active_list = sorted(active)

    mu = Fraction(mu_num, scale)
    normal = tuple(Fraction(v, nd) for v in pn)
    # lift the normal so it prices every exponent, including the ones forced
    # out by a zero-weight coordinate (raising those coordinates is free):
    # m falls short by (mu - <y, m>) = gap / (scale * nd)
    if zero_coords:
        bump = 0
        for m in exponents:
            z = sum(m[i] for i in zero_coords)
            if z:
                gap = mu_num * nd - scale * sum(map(mul, pn, m))
                if gap > 0:
                    bump = max(bump, Fraction(gap, scale * nd * z))
        if bump:
            normal = tuple(n + bump if i in zero_coords else n for i, n in enumerate(normal))

    by_exp = dict(zip(active_list, lam))
    zero = Fraction(0)
    full_lam = tuple(Fraction(by_exp[m], scale) if m in by_exp else zero for m in exponents)
    return FirstIntersection(mu, full_lam, normal)


def first_intersection_mu(poly: NewtonPoly) -> Fraction | None:
    """Parameter of the first ray point t*w inside the polyhedron; None means
    the ray never enters (possible only when some weight vanishes)."""
    res = _first_intersection(poly.exponents, *poly.germ._weight_ints)
    if res.mu is not None and res.mu <= 0:
        raise ModelViolation("mu must be positive: the exponents are nonzero and nonnegative")
    return res.mu


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
    res = _first_intersection(poly.exponents, *poly.germ._weight_ints)
    if res.mu is None:
        return LctReport(None, Fraction(0), RAY, None)
    inv = 1 / res.mu
    if inv > 1:
        return LctReport(res.mu, Fraction(1), CAP_ONE, res.weights)
    return LctReport(res.mu, inv, RAY, res.weights)


def lct_monomial(germ: ToricGerm, n) -> Fraction:
    """Threshold of the invariant divisor of a single monomial: the divisor is
    torus-invariant, so no cap at 1 applies."""
    poly = newton_poly_from_exponents(germ, [n])
    (exp,) = poly.exponents
    vals = [Fraction(w, e) for w, e in zip(germ.weights, exp) if e > 0]
    return min(vals)


def lct_fermat(dim: int, boundary, degrees) -> Fraction:
    """Threshold of x_1^{n_1} + ... + x_d^{n_d} on the standard germ."""
    germ = ToricGerm(Lattice.standard(dim), qvec(boundary, dim))
    degrees = [int(n) for n in degrees]
    if len(degrees) != dim or any(n < 1 for n in degrees):
        raise InputError("need one positive integer degree per coordinate")
    total = sum((Fraction(w, n) for w, n in zip(germ.weights, degrees)), start=Fraction(0))
    return min(Fraction(1), total)


def lct_general_member(germ: ToricGerm) -> LctReport:
    """Threshold of a general member of the maximal ideal: the Newton
    polyhedron generated by the dual Hilbert basis."""
    poly = newton_poly_from_exponents(germ, dual_hilbert_basis(germ))
    return lct_newton(poly)


def lct_upper_bound_from_valuation(poly: NewtonPoly, x) -> Fraction | None:
    """A(x) / min_a <m_a, x> for a primitive lattice x; None encodes +infinity
    (the valuation does not see the divisor).  Always >= the ray threshold."""
    a = log_discrepancy_of_valuation(poly.germ, x)
    x = qvec(x, poly.dim)
    v = min(sum((c * m for c, m in zip(x, exp)), start=Fraction(0)) for exp in poly.exponents)
    if v == 0:
        return None
    return a / v


def _primitive_normal(lat: Lattice, res: FirstIntersection) -> QVec | None:
    """Primitive lattice point on the ray of the pricing normal of ``res``."""
    if res.mu is None or res.normal is None or not any(res.normal):
        return None
    den = lcm(*(c.denominator for c in res.normal))
    vec = tuple(Fraction(int(c * den)) for c in res.normal)
    k = lat.primitive_scale(vec)
    return tuple(c / k for c in vec)
