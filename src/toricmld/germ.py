"""Toric log germs and their minimal log discrepancies.

A germ is the pair of a lattice N containing Z^d (with every standard basis
vector primitive in N) and boundary coefficients b in [0,1]^d; the ambient
cone is always the positive orthant.  The log discrepancy of the divisorial
valuation attached to a primitive x in N cap sigma is sum (1-b_i) x_i, and
every minimum of that form over a face stratum is realized inside the unit
box: subtracting a standard basis vector from a coordinate exceeding 1 stays
in the stratum and cannot increase the value because weights are >= 0.  The
finitely many box candidates are the coset representatives with zeros off
the support, zeros on the support lifted to 1 (``Lattice.box_candidates``,
scaled by den).

The face table.  Scaled by den and by the common denominator wd of the
weights, every candidate value is the integer sum of (wd (1-b_i)) (den x_i),
exact at any size.  ``ToricGerm.face_table`` weighs each face's rows once, in
one pass that keeps the least value so far and the rows attaining it; the
rows are sorted within each face (``box_candidates``), so the minimizers are
too.  Face minima, the global and exceptional minima, and the semicontinuity,
dimension-bound and corpus checks all read the table, over the one scale
den * wd, so comparing minima of different faces is comparing integers.  The
brute-force oracle reads only the coset residues ``rep_ints`` and the face
supports, never the table or ``box_candidates``, so a defect in either shows
as a mismatch.  A residue u (den-scaled) of support m, the j with u_j != 0,
inside a face S lifts to wn . u + den (W(S) - W(m)), W(X) the sum of wn_j
over X.  One walk per germ keeps the least wn . u - den W(m) for each m that
occurs; the minimum on S is den W(S) plus the least of those over the m
inside S, and the zero residue's m, the empty set, lies inside every S.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import InputError, ModelViolation, NotPrimitive, ResourceLimit
from .lattice import TABLE_CAP, Lattice
from .rationals import IntVec, QVec, instance, integer, iterate, qvec, qvec_str, rat, rat_str, ratio_str


@dataclass(frozen=True)
class Face:
    """A nonempty support set S inside {1..d}, naming the cone face x_i > 0
    exactly for i in S and the invariant cycle C_S : (x_i = 0, i in S)."""

    support: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", _support(self.support))

    @classmethod
    def coerce(cls, value, dim: int) -> "Face":
        """``value`` as a Face in 1..dim; a Face is only range-checked."""
        face = value if isinstance(value, Face) else cls(value)
        if face.support[0] < 1 or face.support[-1] > dim:
            raise InputError(f"face support {face.support} out of range 1..{dim}")
        return face


def _support(value) -> tuple[int, ...]:
    """The support ``Face(value)`` keeps (or a Face's)."""
    entries = value.support if isinstance(value, Face) else value
    sup = tuple(sorted({integer(i, "a face support entry") for i in iterate(entries, "a face support")}))
    if not sup:
        raise InputError("a face needs a nonempty support")
    return sup


def _boundary(values, dim: int) -> QVec:
    """``values`` as the dim boundary coefficients of a germ, each in [0,1]."""
    boundary = qvec(values, dim)
    for b in boundary:
        if not 0 <= b.numerator <= b.denominator:
            raise InputError(f"boundary coefficient {b} outside [0,1]")
    return boundary


def full_face(dim: int) -> Face:
    return Face(tuple(range(1, dim + 1)))


@dataclass(frozen=True)
class MldReport:
    value: Fraction
    witnesses: tuple[QVec, ...]
    face: Face

    def to_json_dict(self) -> dict:
        return {
            "value": rat_str(self.value),
            "witnesses": [[rat_str(c) for c in w] for w in self.witnesses],
            "face": list(self.face.support),
        }


@dataclass(frozen=True)
class FaceTable:
    """Every face minimum of one germ, in integers over one scale.

    ``entries`` maps each face support S, in (codimension |S|,
    lexicographic) order, to the pair (minimum, minimizers): the minimum is
    the face value times ``scale`` = den * wd, and the minimizers are the
    den-scaled box candidates attaining it, sorted.  Checks compare these integers; the
    methods turn them into ``Fraction`` values and witnesses.
    """

    den: int
    scale: int
    entries: dict[tuple[int, ...], tuple[int, tuple[IntVec, ...]]]

    def value(self, support: tuple[int, ...]) -> Fraction:
        return Fraction(self.entries[support][0], self.scale)

    def witness(self, row: IntVec) -> QVec:
        return tuple(Fraction(c, self.den) for c in row)

    def witnesses(self, support: tuple[int, ...]) -> tuple[QVec, ...]:
        return tuple(map(self.witness, self.entries[support][1]))

    def minimizing_support(self, min_codim: int = 1) -> tuple[int, ...] | None:
        """First support of codimension >= ``min_codim`` with the least
        value, in table order; None when there is no such face."""
        faces = [s for s in self.entries if len(s) >= min_codim]
        return min(faces, key=lambda s: self.entries[s][0]) if faces else None


@dataclass(frozen=True)
class ToricGerm:
    """Germ data: lattice N (normal form, e_i primitive) + boundary b."""

    lattice: Lattice
    boundary: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "boundary", _boundary(self.boundary, instance(self.lattice, Lattice).dim))
        if not self.lattice.is_superlattice:
            raise InputError("germ lattice must contain Z^d")
        if any(k != 1 for k in self.lattice.unit_scales):
            raise InputError("standard basis vectors must be primitive; normalize first")

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @cached_property
    def weights(self) -> QVec:
        return tuple(1 - b for b in self.boundary)

    @cached_property
    def _weight_ints(self) -> tuple[IntVec, int]:
        """Weights wn / wd: 1 - p/q is (q - p)/q, already in lowest terms."""
        wd = lcm(*(b.denominator for b in self.boundary))
        return tuple((b.denominator - b.numerator) * (wd // b.denominator) for b in self.boundary), wd

    def log_discrepancy(self, x: QVec) -> Fraction:
        return sum((w * c for w, c in zip(self.weights, x)), start=Fraction(0))

    @cached_property
    def face_table(self) -> FaceTable:
        """Minimum and minimizers of every face, one pass per face (see the module docstring)."""
        wn, wd = self._weight_ints
        entries = {}
        for support, rows in self.lattice.box_candidates.items():
            m, best = sum(map(mul, wn, rows[0])), [rows[0]]
            for row in rows[1:]:
                v = sum(map(mul, wn, row))
                if v < m:
                    m, best = v, [row]
                elif v == m:
                    best.append(row)
            entries[support] = (m, tuple(best))
        den = self.lattice.den
        return FaceTable(den, den * wd, entries)

    def __repr__(self) -> str:
        return f"ToricGerm({self.lattice!r}, b={qvec_str(self.boundary)})"


def germ_document(germ: ToricGerm) -> dict:
    return {
        "dim": germ.dim,
        "lattice": {"generators": [[ratio_str(x, germ.lattice.den) for x in row] for row in germ.lattice.int_rows]},
        "boundary": [rat_str(b) for b in germ.boundary],
    }


# -- constructors --------------------------------------------------------------


def germ_normalize(lattice: Lattice, boundary) -> ToricGerm:
    """The germ on ``Lattice.normal_form``: each coordinate multiplied by the
    primitive scale of e_i, so that every e_i is primitive; boundary
    coefficients stay attached to their divisors.  Idempotent.
    """
    if not instance(lattice, Lattice).is_superlattice:
        raise InputError("germ lattice must contain Z^d")
    lattice, _ = lattice.normal_form()
    if any(k != 1 for k in lattice.unit_scales):
        raise ModelViolation("rescaling by the primitive scales must make every e_i primitive")
    return ToricGerm(lattice, boundary)


def germ_cyclic_quotient(q: int, a) -> ToricGerm:
    """Quotient-singularity germ of type (1/q)(a_1,...,a_d) with zero boundary."""
    if integer(q, "q") < 1:
        raise InputError("q must be a positive integer")
    a = [integer(x, "a weight") for x in iterate(a, "the weights")]
    gen = [Fraction(x, q) for x in a]
    lat = Lattice.from_generators(len(a), [gen])
    return germ_normalize(lat, [0] * len(a))


def _px_point(x) -> QVec:
    """x read by ``qvec``, nonempty and with every coordinate in (0,1]."""
    if not (x := qvec(x)):
        raise InputError("empty vector")
    for c in x:
        if not 0 < c <= 1:
            raise InputError(f"coordinate {c} outside (0,1]")
    return x


def germ_from_px(x) -> tuple[ToricGerm, tuple[int, ...]]:
    """Germ over Z^d + Z*x with boundary 1 - 1/n_j, plus the scales n_j: the
    primitive scales of the standard basis vectors in Z^d + Z*x
    (``Lattice.unit_scales``); the tests check them against the formula
    gcd(q, q x_i for i != j) / gcd(q, q x) for q*x integral."""
    x = _px_point(x)
    lat = Lattice.from_generators(len(x), [x])
    scales = lat.unit_scales
    return germ_normalize(lat, [1 - Fraction(1, n) for n in scales]), scales


# -- the engine -----------------------------------------------------------------


def log_discrepancy_of_valuation(germ: ToricGerm, x) -> Fraction:
    """sum (1-b_i) x_i for a primitive lattice point x of the orthant."""
    x = qvec(x, instance(germ, ToricGerm).dim)
    if any(c < 0 for c in x):
        raise InputError(f"{x} is outside the positive orthant")
    if not any(x):
        raise InputError("the zero vector is not a divisorial valuation")
    k = germ.lattice.primitive_scale(x)  # raises NotInLattice off the lattice
    if k != 1:
        raise NotPrimitive(f"{x} = {k} * ({qvec_str(tuple(c / k for c in x))})", scale=k)
    return germ.log_discrepancy(x)


def mld_face(germ: ToricGerm, face) -> MldReport:
    """Minimum of sum (1-b_i) x_i over lattice points with support exactly S.

    Evaluated on the finite unit-box candidate set; witnesses are all box
    minimizers, lexicographically sorted.
    """
    face = Face.coerce(face, instance(germ, ToricGerm).dim)
    table = germ.face_table
    return MldReport(table.value(face.support), table.witnesses(face.support), face)


def mld_global(germ: ToricGerm) -> MldReport:
    """Minimum over all nonempty faces; reports the first minimizing face
    in (codimension, lexicographic) order."""
    return mld_face(germ, instance(germ, ToricGerm).face_table.minimizing_support())


def mld_bruteforce_oracle(germ: ToricGerm, face, radius: int) -> Fraction:
    """Exhaustive minimum over lattice points with coordinates in (0, radius]
    on the support and 0 off it, from the coset residues alone (see the
    module docstring): weights are >= 0, so every radius gives the value at 1."""
    if integer(radius, "radius") < 1:
        raise InputError("radius must be >= 1")
    (wn, wd), lat = instance(germ, ToricGerm)._weight_ints, germ.lattice
    (least,) = _oracle_minima(lat, wn, [Face.coerce(face, lat.dim).support])
    return Fraction(least, lat.den * wd)


def _oracle_minima(lattice: Lattice, wn: IntVec, supports) -> list[int]:
    """The minimum on each of ``supports`` for weights wn / wd, times den * wd,
    from one walk of ``rep_ints``, apart from the box candidates and the face
    table: the oracle and the check's oracle read it."""
    den = lattice.den
    lows: dict[int, int] = {}  # support m of u as a mask (bit j for u_j != 0) -> least wn . u - den W(m)
    for u in lattice.rep_ints:
        m, low, bit = 0, 0, 1
        for w, c in zip(wn, u):
            if c:
                m |= bit
                low += w * (c - den)
            bit <<= 1
        lows[m] = min(low, lows.get(m, low))
    minima = []
    for s in supports:
        mask = lift = 0
        for j in s:
            mask, lift = mask | 1 << (j - 1), lift + wn[j - 1]
        minima.append(den * lift + min([v for m, v in lows.items() if not m & ~mask]))
    return minima


def verify_minkowski(germ: ToricGerm, t, delta) -> bool:
    """Check that N meets the open dilate int(t*Delta) in no point but does
    meet int((t+delta)*Delta), for Delta = {x >= 0 : sum (1-b_i) x_i <= 1}.

    Interior points have all coordinates positive, so emptiness is decided on
    the full face's unit-box minimum: coordinate reduction by standard basis
    vectors keeps interiority and never increases the defining sum.  That
    minimum is ``mld_bruteforce_oracle`` on the full face, read off the
    residue walk, not ``face_table``.
    """
    t, delta = rat(t), rat(delta)
    if t < 0 or delta <= 0:
        raise InputError("need t >= 0 and delta > 0")
    return t <= mld_bruteforce_oracle(germ, full_face(instance(germ, ToricGerm).dim), 1) < t + delta


def px_mld_formula(x) -> Fraction:
    """min over n >= 0 of sum_i (1 + n x_i - ceil(n x_i)); periodic in n with
    period q where q*x is integral, so only n = 0..q-1 are scanned.

    In integers: with a_i = q x_i the i-th term is (q - (-n a_i) mod q) / q.
    q is the index of Z^d + Z*x, so a q above ``TABLE_CAP`` raises
    ``ResourceLimit`` before the scan, as the coset tables of that lattice do.
    """
    x = _px_point(x)
    q = lcm(*(c.denominator for c in x))
    if q > TABLE_CAP:
        raise ResourceLimit(f"period {q} exceeds the cap {TABLE_CAP}")
    a = [c.numerator * (q // c.denominator) for c in x]
    return Fraction(min(sum(q - (-n * ai) % q for ai in a) for n in range(q)), q)


def cartier_index(germ: ToricGerm) -> int:
    """Smallest r >= 1 with r*(1-b_1,...,1-b_d) in the dual lattice M: the
    weights are wn / wd with gcd(wd, wn) = 1 and M lies in Z^d, so r is wd
    times ``Lattice.dual_order(wn)``, a divisor of den and so of the index [Z^d : M]."""
    wn, wd = instance(germ, ToricGerm)._weight_ints
    lat = germ.lattice
    k = lat.dual_order(wn)
    if lat.den % k:
        raise ModelViolation("order of the weight vector must divide den")
    return wd * k
