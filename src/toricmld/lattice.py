"""Rational lattices in canonical form.

A ``Lattice`` is a full-rank subgroup of Q^d stored by unique integers: the
smallest q with q*L contained in Z^d (q is an invariant of L, not of the
presentation) and the row Hermite normal form of the integer lattice q*L
(echelon, positive pivots, entries above each pivot reduced into
[0, pivot)); divided back by q, that is the canonical basis.  Two
presentations of the same lattice therefore store identical integers, which
makes lattices hashable and directly comparable.

The lattices of interest here mostly contain Z^d (``index`` counts N/Z^d);
duals of those are finite-index sublattices of Z^d, represented by the same
class, and this module is the one that reads them (``dual_order``, the dual
Hilbert basis).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, permutations, product
from math import gcd, isqrt, lcm, prod
from operator import mul

from .errors import DimensionMismatch, InputError, ModelViolation, NotInLattice, ResourceLimit
from .rationals import IntVec, QVec, common_denominator, instance, integer, iterate, qvec, row_str, scaled_int_vector

# Largest lattice index whose per-lattice tables (``Lattice.rep_ints`` and
# the tables built from it, about one row per coset) are built.  It admits
# 1/1000003(1,2,5), whose tables peaked at 234 MB, and every lattice of the
# default corpus and of survey --dim 3 --max-index 150.
TABLE_CAP = 2**20

# Largest box prod (c_i + 1) that ``Lattice.hilbert_basis`` and, walking only
# its simplex, ``Lattice.newton_generators`` mark out as Python-int bitsets.
# It admits every lattice to index 255 in dimension 3 and 63 in dimension 4;
# at it, 1/255(1,2,7)'s basis took 0.25 s and 56 MB (Xeon vCPU, Python 3.11).
BOX_CAP = 2**24


class cached_field:
    """A field computed by ``func`` on first read and kept in the
    instance's ``__dict__``, where every later read finds it without calling
    back here.  It is ``functools.cached_property`` as Python 3.12 has it,
    without 3.11's lock around each first fill, as no object is read by
    two threads."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a,b) >= 0 and s*a + t*b = g."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        s, t, g = -s, -t, -g
    return g, s, t


def hnf(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row Hermite normal form of the integer row span of ``rows``.

    Echelon shape, positive pivots, entries above a pivot reduced into
    [0, pivot).  Zero rows are dropped.  The result is the unique canonical
    basis of the row lattice, so it doubles as an equality test.
    """
    a = [list(r) for r in rows if any(r)]
    fixed = 0
    for col in range(ncols):
        piv = None
        for r in range(fixed, len(a)):
            if a[r][col]:
                if piv is None:
                    piv = r
                    continue
                g, s, t = xgcd(a[piv][col], a[r][col])
                u, v = a[piv][col] // g, a[r][col] // g
                rp = [s * x + t * y for x, y in zip(a[piv], a[r])]
                rr = [u * y - v * x for x, y in zip(a[piv], a[r])]
                a[piv], a[r] = rp, rr
        if piv is None:
            continue
        a[fixed], a[piv] = a[piv], a[fixed]
        if a[fixed][col] < 0:
            a[fixed] = [-x for x in a[fixed]]
        p = a[fixed][col]
        for r in range(fixed):
            q = a[r][col] // p
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[fixed])]
        fixed += 1
    return a[:fixed]


@dataclass(frozen=True)
class CosetTable:
    """Representatives of N/Z^d, one per coset, all inside [0,1)^d."""

    reps: tuple[QVec, ...]

    def __len__(self) -> int:
        return len(self.reps)


@dataclass(frozen=True, init=False)
class Lattice:
    dim: int
    den: int  # the smallest q with q*L inside Z^d
    int_rows: tuple[tuple[int, ...], ...]  # the HNF of q*L: triangular, positive pivots; basis * den

    def __init__(self, dim: int, basis):
        """Build a lattice with ``from_rows`` or ``from_generators``: the
        constructor takes only its canonical basis (``InputError`` otherwise),
        and ``_canonical``, given the canonical rows, skips this check.

        Over den, the lcm of their denominators, the rows are integers with
        gcd 1 with den, so they are the canonical basis exactly when those
        integers are in Hermite normal form (``_is_hnf``): then they are
        ``int_rows`` and den is the least q with q*L integral.  Only a
        refused basis goes through ``from_rows``, for its message."""
        try:
            dim = integer(dim, "dim")
            rows = tuple(map(qvec, iterate(basis, "a basis")))  # read once: ``basis`` may be an iterator
            den = common_denominator(rows)
            int_rows = tuple([scaled_int_vector(r, den) for r in rows])
            if not _is_hnf(int_rows, dim):
                Lattice.from_rows(dim, rows)  # its refusal, where it has one
                raise InputError(f"{basis!r} is not the canonical basis of a lattice")
        except InputError as exc:
            raise InputError(f"{exc}; build lattices with Lattice.from_rows") from None
        self.__dict__.update(dim=dim, den=den, int_rows=int_rows)

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Lattice":
        """Lattice generated over Z by ``rows`` (must span Q^dim)."""
        if integer(dim, "dim") < 1:
            raise InputError("dimension must be positive")
        rows = [qvec(r, dim) for r in iterate(rows, "the rows")]
        if not rows:
            raise InputError("no generators for a full-rank lattice")
        den = common_denominator(rows)
        return cls._from_int_rows(dim, [scaled_int_vector(r, den) for r in rows], den)

    @classmethod
    def _from_int_rows(cls, dim: int, rows, den: int) -> "Lattice":
        """Lattice generated over Z by the vectors row/den, for integer rows.

        The smallest q with q*L integral is den / gcd(den, every entry), and
        the HNF of the rows scaled to q is ``int_rows``; int_rows / q is the
        canonical basis, so the constructor's check is skipped.
        """
        g = gcd(den, *chain.from_iterable(rows))
        h = hnf(rows if g == 1 else [[x // g for x in row] for row in rows], dim)
        if len(h) != dim:
            raise InputError("generators do not span the ambient space")
        return cls._canonical(dim, den // g, tuple(map(tuple, h)))

    @classmethod
    def _canonical(cls, dim: int, den: int, int_rows, **known) -> "Lattice":
        """The lattice whose canonical basis is ``int_rows`` / ``den``, taken
        unchecked, with the cached properties ``known`` already holds."""
        lat = object.__new__(cls)
        lat.__dict__.update(known, dim=dim, den=den, int_rows=int_rows)
        return lat

    @classmethod
    def from_generators(cls, dim: int, gens) -> "Lattice":
        """Z^dim + sum of Z*gen: the generators over their common denominator den, and den e_i."""
        if integer(dim, "dim") < 1:
            raise InputError("dimension must be positive")
        rows = [qvec(g, dim) for g in iterate(gens, "the generators")]
        den = common_denominator(rows)
        ints = [scaled_int_vector(r, den) for r in rows] + [[den * (i == j) for j in range(dim)] for i in range(dim)]
        return cls._from_int_rows(dim, ints, den)

    @classmethod
    def standard(cls, dim: int) -> "Lattice":
        return cls.from_generators(dim, [])

    @cached_field
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The canonical basis, ``int_rows`` / ``den``, built when first read."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.int_rows)

    @cached_field
    def det(self) -> Fraction:
        d = prod(self.int_rows[i][i] for i in range(self.dim))
        return Fraction(d, self.den**self.dim)

    @cached_field
    def is_superlattice(self) -> bool:
        """Whether Z^d is contained in this lattice: whether the back
        substitution of ``dual_int_basis`` is exact, which fills that field."""
        try:
            self.dual_int_basis
        except InputError:
            return False
        return True

    @property
    def index(self) -> int:
        """[N : Z^d] for a lattice containing Z^d: the product of den / p_i
        over the pivots p_i of ``int_rows`` (see ``rep_ints``)."""
        if not self.is_superlattice:
            raise InputError("lattice does not contain Z^d")
        den = self.den
        return prod(den // row[i] for i, row in enumerate(self.int_rows))

    # -- membership --------------------------------------------------------

    def contains(self, vec) -> bool:
        return self._coordinates(qvec(vec, self.dim)) is not None

    def _coordinates(self, vec) -> list[int] | None:
        """Integer coordinates of vec (ints or ``Fraction``s) over ``basis``,
        or None when vec is not a lattice point: ``_int_coordinates`` of
        den * vec, which must be integral."""
        try:
            return self._int_coordinates(scaled_int_vector(vec, self.den))
        except ValueError:
            return None

    def _int_coordinates(self, u) -> list[int] | None:
        """Integer coordinates of u / den over ``basis`` for an integer row u,
        or None when u / den is not a lattice point.  The rows of
        ``int_rows`` are upper triangular, so u is peeled off one pivot at a
        time; it lies in their span exactly when every pivot divides what is
        left in its column and nothing is left over."""
        coords = []
        for i, row in enumerate(self.int_rows):
            a, r = divmod(u[i], row[i])
            if r:
                return None
            coords.append(a)
            if a:
                u = [x - a * y for x, y in zip(u, row)]
        return None if any(u) else coords

    def dual_contains_int(self, m) -> bool:
        """Whether the integer vector m pairs integrally with the lattice:
        its ``dual_order`` is 1."""
        return self.dual_order(m) == 1

    def dual_order(self, m) -> int:
        """Smallest k >= 1 with k * m in the dual lattice, for an integer m:
        k * m pairs integrally exactly when den divides k times every pairing
        <row, m> over ``int_rows``, that is, when den / gcd(den, them) does."""
        m, den = self._int_vector(m), self.den
        return den // gcd(den, *(sum(map(mul, row, m)) for row in self.int_rows))

    def _int_vector(self, m):
        """m when it is ``dim`` ints, which ``zip`` pairs in full with each row."""
        try:
            size = len(m)
        except TypeError:
            raise InputError(f"m must be a collection, got {m!r}") from None
        if size != self.dim:
            raise DimensionMismatch(f"expected a vector of length {self.dim}, got {size}")
        if not all(type(c) is int for c in m):
            raise InputError(f"each entry must be an integer, got {m!r}")
        return m

    # -- cosets -------------------------------------------------------------

    @cached_field
    def rep_ints(self) -> tuple[tuple[int, ...], ...]:
        """Residues den*x mod den of a full set of coset representatives,
        sorted.

        Read off the pivots p_i of T = ``int_rows``, which is upper
        triangular.  Each p_i divides den, because den * e_i lies in the row
        span of T and its coefficients on rows 0..i-1 vanish.  The residues
        sum a_i T_i mod den with 0 <= a_i < den / p_i are pairwise distinct:
        at the first index k where two coefficient vectors differ, coordinate
        k of the difference is a nonzero multiple of p_k of absolute value
        below den.  There are prod den / p_i = ``index`` of them, so they are
        every coset of N/Z^d (see Cohen, A Course in Computational Algebraic
        Number Theory, on the Hermite normal form).  A pivot with
        den / p_i = 1 adds only a_i = 0 and is skipped.  The index must not
        exceed ``TABLE_CAP`` (``ResourceLimit`` before anything is built).
        """
        if not self.is_superlattice:
            raise InputError("coset table requires a lattice containing Z^d")
        index = self.index
        if index > TABLE_CAP:
            raise ResourceLimit(f"coset table of index {index} exceeds the cap {TABLE_CAP}")
        den = self.den
        cols = [[0]] * self.dim  # cols[j][s]: coordinate j of residue s
        for i, row in enumerate(self.int_rows):
            n = den // row[i]
            if n > 1:
                cols = [
                    [(c + a * t) % den for c in col for a in range(n)] if t else [c for c in col for _ in range(n)]
                    for col, t in zip(cols, row)
                ]
        return tuple(sorted(zip(*cols)))

    @cached_field
    def box_candidates(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """den-scaled unit-box candidates of every face stratum, keyed by the
        1-based support S in (size, lexicographic) order: the residues in
        ``rep_ints`` that vanish off S, with their zeros on S lifted to den,
        sorted within each face once here, since ``ToricGerm.face_table``
        keeps a face's minimizers in the order of its rows.

        One pass over the residues: a residue u with z zeros is, with each
        subset of its zeros lifted, a row of the face of that row's support,
        2^z rows in all (``product`` over the coordinates), the zero
        residue's unlifted row, of empty support, left out.  More rows than
        ``TABLE_CAP`` in all raise ``ResourceLimit`` before any face is built.
        """
        den, reps = self.den, self.rep_ints
        total = sum(1 << u.count(0) for u in reps) - 1
        if total > TABLE_CAP:
            raise ResourceLimit(f"a box candidate table of {total} rows exceeds the cap {TABLE_CAP}")
        coords = range(1, self.dim + 1)
        rows = {on: [] for size in range(self.dim + 1) for on in combinations(coords, size)}
        for u in reps:
            for v in product(*[(c,) if c else (0, den) for c in u]):
                rows[tuple(compress(coords, v))].append(v)
        del rows[()]
        return {on: tuple(sorted(out)) for on, out in rows.items()}

    @cached_field
    def member_rows(self) -> frozenset[IntVec]:
        """The rows of ``box_candidates`` that pair to 0 mod den with every
        column of ``dual_int_basis``: den times a lattice point, each tested
        once, one column at a time over the rows left."""
        den, rows = self.den, [u for face in self.box_candidates.values() for u in face]
        for col in self.dual_int_basis:
            rows = [u for u in rows if not sum(map(mul, u, col)) % den]
        return frozenset(rows)

    @cached_field
    def coset_table(self) -> CosetTable:
        den = self.den
        return CosetTable(tuple(tuple(Fraction(x, den) for x in u) for u in self.rep_ints))

    # -- derived lattices ----------------------------------------------------

    @cached_field
    def dual_int_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integer basis of the dual of a lattice containing Z^d, built
        without fractions: the columns of den * T^-1 for T = ``int_rows``.

        The dual {m : T m = 0 mod den} is the span of those columns.  Row i
        of den * T^-1 holds the coefficients of e_i over ``basis``, so the
        matrix is integral exactly when the lattice contains Z^d; the back
        substitution then divides exactly, and otherwise raises
        ``InputError``.  So does a T that is not upper triangular, which only
        surgery on a lattice makes: the back substitution needs the shape.
        Column j is zero below entry j, and entry j is the positive den / T_jj.
        """
        t = self.int_rows
        cols = None if any(x for i, row in enumerate(t) for x in row[:i]) else _inverse_columns(t, self.den)
        if cols is None:
            raise InputError("the integer dual basis requires a lattice containing Z^d")
        return tuple(map(tuple, cols))

    @cached_field
    def dual(self) -> "Lattice":
        """{m : <m, x> integral for all x in L}: the span of the columns of
        den * T^-1 = den * adj(T) / det(T) for T = ``int_rows``, adj(T) integral."""
        t, den = self.int_rows, self.den
        det = prod(row[i] for i, row in enumerate(t))
        return Lattice._from_int_rows(self.dim, [[den * x for x in col] for col in _inverse_columns(t, det)], det)

    def project_drop(self, coord: int) -> "Lattice":
        """Image under deleting the 1-based coordinate ``coord``."""
        if self.dim < 2:
            raise InputError("projection needs dimension at least 2")
        if not 1 <= integer(coord, "coordinate") <= self.dim:
            raise InputError(f"coordinate {coord} out of range 1..{self.dim}")
        j = coord - 1
        return Lattice._from_int_rows(self.dim - 1, [row[:j] + row[j + 1 :] for row in self.int_rows], self.den)

    def rescale(self, scales) -> "Lattice":
        """Image under multiplying coordinate i by the integer scales[i]."""
        scales = [integer(k, "a scale") for k in iterate(scales, "scales")]
        if len(scales) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} scales, got {len(scales)}")
        return Lattice._from_int_rows(self.dim, [list(map(mul, row, scales)) for row in self.int_rows], self.den)

    def primitive_scale(self, vec) -> int:
        """Largest k with vec/k still in the lattice (vec must be a member):
        vec/k is a member exactly when k divides each of its coordinates."""
        vec = qvec(vec, self.dim)
        if not any(vec):
            raise InputError("the zero vector has no primitive scale")
        coords = self._coordinates(vec)
        if coords is None:
            raise NotInLattice(f"{vec} is not a lattice element")
        return gcd(*coords)

    @cached_field
    def unit_scales(self) -> tuple[int, ...]:
        """primitive_scale of each standard basis vector (superlattices).

        e_i/k lies in the lattice exactly when it pairs integrally with the
        dual, that is, when k divides the i-th entry of every vector of
        ``dual_int_basis``; so k_i is the gcd of those entries.
        """
        if not self.is_superlattice:
            raise NotInLattice("a standard basis vector is not a lattice element")
        return tuple(map(gcd, *self.dual_int_basis))

    def normal_form(self) -> tuple["Lattice", tuple[int, ...]]:
        """The image under multiplying each coordinate i by n_i =
        ``unit_scales[i]``, or the lattice itself when every n_i is 1, and
        those scales.  The image is normal: it holds each e_i, the image of
        e_i/n_i, and e_i/k in it would put e_i/(k n_i) in the lattice, so k = 1."""
        scales = self.unit_scales
        return (self if all(k == 1 for k in scales) else self.rescale(scales)), scales

    @cached_field
    def permuted_keys(self) -> tuple[tuple[tuple[IntVec, ...], tuple[int, ...]], ...]:
        """(``int_rows`` of the image {(x[perm[0]], .., x[perm[d-1]])}, perm)
        for each coordinate permutation: the identity's first, ``int_rows`` itself,
        then, as a permutation keeps den, the HNF of the permuted rows; no lattice is built."""
        rows, d, perms = self.int_rows, self.dim, permutations(range(self.dim))
        return ((rows, next(perms)), *((tuple(map(tuple, hnf([[r[p] for p in perm] for r in rows], d))), perm) for perm in perms))

    # -- the dual monoid, and per-lattice data of the other modules -----------

    @cached_field
    def ray_orders(self) -> tuple[int, ...]:
        """c_i = ``dual_order(e_i)`` = den / gcd(den, column i of ``int_rows``)."""
        return tuple(self.den // gcd(self.den, *col) for col in zip(*self.int_rows))

    @cached_field
    def hilbert_basis(self) -> tuple[IntVec, ...]:
        """Minimal generating set of the monoid (dual lattice) cap (dual
        orthant) of a lattice containing Z^d, sorted: ``_box_irreducibles`` of
        the box prod [0, c_i], c_i = ``ray_orders``, as c_i e_i is the primitive
        dual vector on ray i, and anything beyond can shed one."""
        return self._box_irreducibles((1,) * self.dim, sum(self.ray_orders) + 1)

    @cached_field
    def newton_generators(self) -> tuple[IntVec, ...]:
        """G = {c_i e_i} and the m in ``hilbert_basis`` with sum m_i / c_i < 1,
        sorted.  Any other basis element is sum (m_i / c_i) c_i e_i with
        weights summing to >= 1, so <m, x> >= min_i c_i x_i for x >= 0, and
        min <h, x> over the basis is the minimum over G.  The open simplex
        sum m_i (L / c_i) < L, L = lcm(c), is closed downward, so G is
        ``_box_irreducibles`` of it: the rest of the box is never walked."""
        c, d = self.ray_orders, self.dim
        top = lcm(*c)
        axis = [(0,) * i + (ci,) + (0,) * (d - 1 - i) for i, ci in enumerate(c)]
        return tuple(sorted([*self._box_irreducibles([top // ci for ci in c], top), *axis]))

    def _box_irreducibles(self, a: IntVec, top: int) -> tuple[IntVec, ...]:
        """The irreducible nonzero monoid points x of the box prod [0, c_i]
        with sum a_i x_i < top, a_i >= 1 (a region closed downward), sorted.

        The box is a bitset in mixed radix (c_i + 1), first coordinate
        fastest, filled with the dual lattice points of the region by a walk
        from the last coordinate to the first (``_box_bits``) along
        ``dual_int_basis``, which is triangular in that order.

        Reducibility criterion: a nonzero monoid point p is reducible exactly
        when some nonzero monoid point q satisfies q <= p - e_k for some k.
        If p = q + r with q, r nonzero monoid points, then r >= 0 and r != 0,
        so some r_k >= 1 and q <= p - e_k.  Conversely, q <= p - e_k gives
        q <= p and q != p, so r = p - q is a nonzero lattice point of the
        orthant, that is, a nonzero monoid point, and p = q + r.  Every such
        q lies in the region with p, since it is closed downward.

        So with D the down-closure "some nonzero monoid point is <= x", the
        reducible points are the union over k of D shifted up by e_k.  D is
        the prefix-OR of the nonzero points along every axis in turn, each
        done by masked doubling shifts (distances 1, 2, 4, ... along the
        axis, masked so that no bit leaves its line), and the irreducibles
        are the nonzero points minus the shifted copies: O(box * d * log c)
        bit operations on Python ints, against the box cap ``BOX_CAP``
        (``ResourceLimit`` above it, before the dual basis is built).  A walk
        that finds no nonzero point returns () before any of this is set up.
        """
        c, strides, total = self.ray_orders, [], 1
        for ci in c:
            strides.append(total)
            total *= ci + 1
        if total > BOX_CAP:
            raise ResourceLimit(f"Hilbert basis box of {total} points exceeds the cap {BOX_CAP}")
        walk_basis = [col[::-1] for col in reversed(self.dual_int_basis)]
        nonzero = _box_bits(walk_basis, c[::-1], strides[::-1], a[::-1], top) & ~1
        if not nonzero:
            return ()
        reps = [_block_mask(total, (ci + 1) * st) for ci, st in zip(c, strides)]  # bit 0 of each line
        below = nonzero
        for ci, st, rep in zip(c, strides, reps):
            s = 1
            while s <= ci:
                below |= (below & (rep << (ci + 1 - s) * st) - rep) << (s * st)
                s *= 2
        shifted = 0
        for ci, st, rep in zip(c, strides, reps):
            shifted |= (below & (rep << ci * st) - rep) << st
        digits = format(nonzero & ~shifted, "b")  # bit pos is digits[-1 - pos]
        result = []
        i = digits.rfind("1")
        while i >= 0:
            pos = len(digits) - 1 - i
            result.append(tuple(pos // st % (ci + 1) for ci, st in zip(c, strides)))
            i = digits.rfind("1", 0, i)
        return tuple(sorted(result))

    @cached_field
    def interior_multiplicities(self) -> tuple[int, ...]:
        """den * v(x) for each full-support row x of ``box_candidates``, where
        v(x) = min <h, x> over ``newton_generators`` (that is, over the
        basis) is the order of a general member along x (see ``flat``)."""
        gens = self.newton_generators
        rows = self.box_candidates[tuple(range(1, self.dim + 1))]
        return tuple(min(sum(map(mul, h, row)) for h in gens) for row in rows)

    @cached_field
    def threshold_vertices(self) -> tuple[int, tuple[IntVec, ...]]:
        """(D, rows): the vertices y = row / D of Q = {y >= 0 : <y, m> >= 1
        for every m of ``hilbert_basis``}, sorted.  Q's recession cone is the
        orthant, so for weights w >= 0 the general-member threshold
        min(1, 1/mu) (see ``newton``) is min(1, min <y, w> over the vertices),
        and mu is infinite exactly when that minimum is 0.

        Exact double description (Motzkin et al. 1953; Fukuda and Prodon
        1996) of the cone {(y, s) : <m, y> >= s >= 0}, in integers with gcd
        normalisation.  The axis elements c_i e_i, c_i = ``ray_orders``, give
        y_i >= s / c_i, whose cone has the generators (1/c_1, .., 1/c_d, 1)
        and (e_i, 0); they make y >= 0 redundant, and so is every m with
        sum m_i / c_i >= 1, since there <m, y> >= s.  The rest of G
        (``newton_generators``) is inserted one at a time; each generator
        carries its tight constraints as a bitmask: bit i for axis i, bit d
        for s >= 0, one bit per inserted element.  A new generator joins one
        on the positive side to one on the negative side when the two are
        adjacent, that is, when the constraints tight on both have rank
        n - 2 = d - 1 (n = d + 1), which needs d - 1 common bits.  The rows
        (c_i e_i, -1), (0, 1) and (m, -1) are pairwise non-parallel, so for
        d <= 3 that is enough; for d >= 4, the pair must also have no third
        generator tight on all of them (the combinatorial test).  When G has
        nothing to insert, Q is the orthant moved to the apex, its one vertex,
        and no generator list is set up."""
        d, c = self.dim, self.ray_orders
        top = lcm(*c)
        apex = (*[top // ci for ci in c], top)
        inserted = [m for m in self.newton_generators if sum(map(mul, m, apex)) < top]
        if not inserted:
            return top, (apex[:d],)
        gens = [(apex, (1 << d) - 1)]
        gens += [((0,) * i + (1,) + (0,) * (d - i), (2 << d) - 1 - (1 << i)) for i in range(d)]
        for k, m in enumerate(inserted):
            bit = 1 << (d + 1 + k)
            pos, neg, out = [], [], []  # out: the generators kept, tight ones marked
            for g, z in gens:
                v = sum(map(mul, m, g)) - g[d]
                if v > 0:
                    pos.append((g, z, v))
                    out.append((g, z))
                elif v < 0:
                    neg.append((g, z, v))
                else:
                    out.append((g, z | bit))
            for p, zp, vp in pos:
                for n, zn, vn in neg:
                    z = zp & zn
                    if z.bit_count() < d - 1 or d > 3 and sum(zg & z == z for _, zg in gens) > 2:
                        continue
                    ray = [vp * b - vn * a for a, b in zip(p, n)]
                    g = gcd(*ray)
                    out.append((tuple(ray) if g == 1 else tuple(x // g for x in ray), z | bit))
            gens = out
        den = lcm(*[g[d] for g, _ in gens if g[d]])
        rows = [g[:d] if g[d] == den else tuple(x * (den // g[d]) for x in g[:d]) for g, _ in gens if g[d]]
        return den, tuple(sorted(rows))

    @cached_field
    def restrictions(self) -> tuple[tuple["Lattice", tuple[int, ...]], ...]:
        """For each coordinate i, in order: the ``normal_form`` of the image
        under deleting coordinate i, and its scales n_j (the lattice half of
        adjunction to the divisor x_i = 0)."""
        return tuple(self.project_drop(coord).normal_form() for coord in range(1, self.dim + 1))

    def __repr__(self) -> str:
        return f"Lattice(dim={self.dim}, basis=[{';'.join(row_str(row, self.den) for row in self.int_rows)}])"


def _inverse_columns(t, scale: int) -> list[list[int]] | None:
    """Columns of scale * T^-1 for an upper-triangular integer T with
    positive pivots, by back substitution, or None when that matrix is not
    integral.

    Each division recovers an entry of scale * T^-1 from the entries already
    found, as in fraction-free elimination (Bareiss 1968): the first that
    leaves a remainder finds an entry that is not an integer, and when none
    does, every entry is one.  Row i of T pairs with the whole column x: it
    is zero left of entry i, and entry i of x is still 0 when it is found.
    """
    d = len(t)
    cols = []
    for j in range(d):
        x = [0] * d
        for i in range(j, -1, -1):
            x[i], r = divmod(scale * (i == j) - sum(map(mul, t[i], x)), t[i][i])
            if r:
                return None
        cols.append(x)
    return cols


def _is_hnf(rows, dim: int) -> bool:
    """Whether ``rows`` are ``dim`` >= 1 integer rows of length ``dim`` in
    the form ``hnf`` leaves them: zero below each pivot, the pivot positive
    and the entries above it in [0, pivot)."""
    if not 0 < dim == len(rows):
        return False
    for j, row in enumerate(rows):
        if len(row) != dim or row[j] <= 0 or any(row[:j]):
            return False
        for above in rows[:j]:
            if not 0 <= above[j] < row[j]:
                return False
    return True


def _box_bits(rows: list[IntVec], c: IntVec, strides: IntVec, a: IntVec, top: int) -> int:
    """Bitset of the lattice points x in the box prod [0, c_i] with
    sum a_i x_i < top (a_i >= 1); the point x is bit sum x_i * strides[i] in
    the mixed radix (c_i + 1) whose last coordinate is fastest (stride 1).

    ``rows`` is an upper-triangular basis of the lattice with positive
    pivots.  The walk fixes one coordinate at a time along it: once
    x_0..x_{i-1} are fixed, the coefficients of rows 0..i-1 are too, and x_i
    runs through v_i + k * pivot_i for the partial sum v of those rows, up to
    c_i and to the room that the prefix leaves under ``top``, so only lattice
    points of the region are ever visited, and a prefix that leaves no room
    for x_i goes no further.  The points of the last
    coordinate are marked as "1" digits in one bytearray, read as a base-2
    int at the end: one O(box) pass rather than a big-int operation per
    point or line.  Prefixes are kept as parallel lists of integers, not one
    tuple each: that allocates far fewer objects, and the walk ran about 2.5
    times faster on the d = 3, index <= 20 lattices.
    """
    d = len(c)
    offsets = [0]  # bit offset of each fixed prefix x_0..x_{i-1}
    rooms = [top - 1]  # top - 1 - sum a_j x_j over each prefix
    sums = [[0] for _ in range(d)]  # sums[j][s]: coordinate j of prefix s's partial sum v
    for i in range(d - 1):
        piv, ci, st, ai = rows[i][i], c[i], strides[i], a[i]
        parents, ks, next_offsets, next_rooms = [], [], [], []
        for s, (vi, room) in enumerate(zip(sums[i], rooms)):
            x = vi % piv  # smallest x_i >= 0 of the form v_i + k * piv
            n = (min(ci, room // ai) - x) // piv + 1
            if n <= 0:  # no room left for x_i: the prefix ends here
                continue
            k0 = (x - vi) // piv
            parents += [s] * n
            ks += range(k0, k0 + n)
            start = offsets[s] + x * st
            next_offsets += range(start, start + n * piv * st, piv * st)
            next_rooms += range(room - x * ai, room - x * ai - n * piv * ai, -piv * ai)
        offsets, rooms = next_offsets, next_rooms
        sums = [None] * (i + 1) + [
            [sums[j][s] + k * rows[i][j] for s, k in zip(parents, ks)] for j in range(i + 1, d)
        ]
    piv, last, al = rows[-1][-1], c[-1], a[-1]
    high = strides[0] * (c[0] + 1) - 1
    digits = bytearray(b"0") * (high + 1)  # bit p is digits[high - p]
    for v, room, off in zip(sums[-1], rooms, offsets):
        x = v % piv
        while x <= last and x * al <= room:
            digits[high - off - x] = 49  # "1"
            x += piv
    return int(digits, 2)


def _block_mask(total: int, block: int) -> int:
    """Bitset of ``total`` bits whose every ``block``-bit block (``block``
    divides ``total``) has exactly its low bit set."""
    mask, width = 1, block
    while width < total:
        mask |= mask << width
        width *= 2
    return mask & ((1 << total) - 1)


def _divisors(n: int) -> list[int]:
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted({*small, *(n // k for k in small)})


# -- contract surface ---------------------------------------------------------


def lattice_from_generators(dim: int, gens) -> Lattice:
    """Canonical form of Z^dim + sum Z*g over the generators."""
    return Lattice.from_generators(dim, gens)


def lattice_index(lat: Lattice) -> int:
    return instance(lat, Lattice).index


def lattice_contains(lat: Lattice, vec) -> bool:
    return instance(lat, Lattice).contains(vec)


def primitive_scale(lat: Lattice, vec) -> int:
    return instance(lat, Lattice).primitive_scale(vec)


def coset_reps(lat: Lattice) -> CosetTable:
    return instance(lat, Lattice).coset_table


def dual_lattice(lat: Lattice) -> Lattice:
    return instance(lat, Lattice).dual


def project_drop_coord(lat: Lattice, coord: int) -> Lattice:
    return instance(lat, Lattice).project_drop(coord)


def _ordered_factorizations(n: int, parts: int):
    """The tuples of ``parts`` >= 0 positive integers with product n, in
    lexicographic order, walked on a stack of its own, not by recursion."""
    stack = [((), n)]
    while stack:
        head, rest = stack.pop()
        if len(head) < parts - 1:
            stack.extend((head + (k,), rest // k) for k in reversed(_divisors(rest)))
        elif parts or rest == 1:  # no parts: the empty tuple, product 1
            yield head + (rest,)[:parts]


def _hnf_diagonals(dim: int, max_index: int):
    """(n, diag) for n = 1..max_index and each pivot diagonal of an HNF basis
    of an index-n sublattice of Z^dim whose first pivot, the gcd of column 0,
    is 1 as ``enumerate_superlattices`` needs: dimension 1 stops at index 1.
    Column j has diag_j^j candidates above its pivot; more than ``TABLE_CAP``
    raise ``ResourceLimit`` before the diagonal is counted or built."""
    if integer(dim, "dim") < 1 or integer(max_index, "max_index") < 1:
        raise InputError("dim and max_index must be positive")
    for n in range(1, (max_index if dim > 1 else 1) + 1):
        for diag in ((1,) + rest for rest in _ordered_factorizations(n, dim - 1)):
            for j, p in enumerate(diag):
                if p**j > TABLE_CAP:
                    raise ResourceLimit(f"an HNF column of {p**j} candidates exceeds the cap {TABLE_CAP}")
            yield n, diag


def _unit_columns(p: int, j: int) -> int:
    """Number of a in [0, p)^j with gcd(a_1, .., a_j, p) = 1, listing none:
    Jordan's totient J_j(p) = p^j prod over primes q | p of (1 - q^-j).

    Proof, by inclusion-exclusion over the primes dividing p: the a whose
    entries are divisible by every prime of a set S are the (p / prod S)^j
    multiples of prod S, so the count is the sum over S of
    (-1)^|S| (p / prod S)^j, which factors as stated.  For j = 0 the empty
    tuple counts exactly when gcd(p) = p is 1: each factor is 0 when p > 1,
    and the product is empty when p = 1.
    """
    count = p**j
    for q in _divisors(p)[1:]:
        if all(q % r for r in range(2, isqrt(q) + 1)):  # q is prime
            count = count // q**j * (q**j - 1)
    return count


def _superlattice_counts(dim: int, max_index: int):
    """How many lattices ``enumerate_superlattices`` builds on each diagonal
    of ``_hnf_diagonals``, in order, building no basis and no column."""
    return (prod(_unit_columns(p, j) for j, p in enumerate(diag)) for _, diag in _hnf_diagonals(dim, max_index))


def enumerate_superlattices(dim: int, max_index: int) -> list[Lattice]:
    """All N containing Z^dim with [N:Z^dim] <= max_index and every e_i
    primitive, duplicate-free and sorted by (index, canonical basis)."""
    return [_superlattice(dim, den, rows) for _, den, rows in _superlattices(dim, max_index)]


def _superlattice(dim: int, den: int, int_rows) -> Lattice:
    """The lattice of a key of ``_superlattices``, taken unchecked."""
    return Lattice._canonical(dim, den, int_rows, is_superlattice=True)


def _superlattices(dim: int, max_index: int):
    """The key (index, den, ``int_rows``) of each lattice of
    ``enumerate_superlattices``, in its order; the first ``next`` enumerates
    them all as integers, and ``_superlattice`` builds a lattice from its key.

    Each HNF basis T along ``_hnf_diagonals`` whose columns have gcd 1 (the
    e_i primitive in N) spans by rows an index-n sublattice of Z^d, with dual
    N.  The HNF h of the columns of n * T^-1, T's adjugate, is the HNF of
    n * N: the flat key (n, h row by row) is ``int_rows`` times n // den (den,
    the exponent of N/Z^d, divides n).  h / n lies in N when its rows pair
    with T's to multiples of n, and is N, containing Z^d with index n, when
    it also has d rows and determinant n^(d-1); else ``ModelViolation``.  The
    key set finds repeats, and its sort is the (index, basis) order.  With
    g = gcd(n, key) = n // den, N is den = n // g and ``int_rows`` = key // g.
    """
    keys = set()
    for n, diag in _hnf_diagonals(dim, max_index):
        cols = [
            [a + (p,) + (0,) * (dim - 1 - j) for a in product(range(p), repeat=j) if gcd(*a, p) == 1]
            for j, p in enumerate(diag)
        ]
        for choice in product(*cols):
            t = list(zip(*choice))
            h = hnf(_inverse_columns(t, n), dim)
            right_covolume = len(h) == dim and prod(h[i][i] for i in range(dim)) == n ** (dim - 1)
            if not right_covolume or any(sum(map(mul, row, r)) % n for row in h for r in t):
                raise ModelViolation("duality must preserve the index")
            key = (n, *(x for row in h for x in row))
            if key in keys:
                raise ModelViolation("HNF enumeration may not repeat a lattice")
            keys.add(key)
    keys = sorted(keys)
    for n, *flat in keys:
        g = gcd(n, *flat)
        rows = tuple([tuple([x // g for x in flat[i : i + dim]]) for i in range(0, dim * dim, dim)])
        yield n, n // g, rows
