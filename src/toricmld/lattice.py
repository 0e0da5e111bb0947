"""Rational lattices in canonical form.

A ``Lattice`` is a full-rank subgroup of Q^d stored by the unique basis
obtained as follows: pick the smallest q with q*L contained in Z^d (q is an
invariant of L, not of the presentation), put the integer lattice q*L in row
Hermite normal form (echelon, positive pivots, entries above each pivot
reduced into [0, pivot)), and divide back by q.  Two presentations of the
same lattice therefore produce bit-identical bases, which makes lattices
hashable and directly comparable.

The lattices of interest here mostly contain Z^d (``index`` counts N/Z^d);
duals of those are finite-index sublattices of Z^d and are represented by
the same class.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from math import gcd, prod

from .errors import InputError, NotInLattice
from .rationals import QVec, common_denominator, qvec, scaled_int_vector


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


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise InputError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class CosetTable:
    """Representatives of N/Z^d, one per coset, all inside [0,1)^d."""

    reps: tuple[QVec, ...]

    def __len__(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class Lattice:
    dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Lattice":
        """Lattice generated over Z by ``rows`` (must span Q^dim)."""
        rows = [qvec(r, dim) for r in rows]
        if not rows:
            raise InputError("no generators for a full-rank lattice")
        den = common_denominator(rows)
        int_rows = [list(scaled_int_vector(r, den)) for r in rows]
        h = hnf(int_rows, dim)
        if len(h) != dim:
            raise InputError("generators do not span the ambient space")
        basis = tuple(tuple(Fraction(x, den) for x in row) for row in h)
        return cls(dim, basis)

    @classmethod
    def from_generators(cls, dim: int, gens) -> "Lattice":
        """Z^dim + sum of Z*gen over the given rational generators."""
        if dim < 1:
            raise InputError("dimension must be positive")
        rows = [qvec(g, dim) for g in gens]
        rows += [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
        return cls.from_rows(dim, rows)

    @classmethod
    def standard(cls, dim: int) -> "Lattice":
        return cls.from_generators(dim, [])

    # -- canonical integer data -------------------------------------------

    @cached_property
    def den(self) -> int:
        """Smallest q with q*L inside Z^d (lcm of basis denominators)."""
        return common_denominator(self.basis)

    @cached_property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """den * basis; an upper-triangular positive-pivot integer matrix."""
        return tuple(scaled_int_vector(row, self.den) for row in self.basis)

    @cached_property
    def det(self) -> Fraction:
        d = prod(self.int_rows[i][i] for i in range(self.dim))
        return Fraction(d, self.den**self.dim)

    @cached_property
    def is_superlattice(self) -> bool:
        """Whether Z^d is contained in this lattice."""
        return all(self.contains(_unit(self.dim, i)) for i in range(self.dim))

    @property
    def index(self) -> int:
        """[N : Z^d] for a lattice containing Z^d."""
        inv = 1 / self.det
        if inv.denominator != 1 or not self.is_superlattice:
            raise InputError("lattice does not contain Z^d")
        return inv.numerator

    # -- membership --------------------------------------------------------

    def contains(self, vec) -> bool:
        vec = qvec(vec, self.dim)
        try:
            u = list(scaled_int_vector(vec, self.den))
        except ValueError:
            return False
        for i in range(self.dim):
            piv = self.int_rows[i][i]
            if u[i] % piv:
                return False
            a = u[i] // piv
            if a:
                u = [x - a * y for x, y in zip(u, self.int_rows[i])]
        return not any(u)

    def contains_scaled(self, u: tuple[int, ...]) -> bool:
        """Membership of u/den, for integer u (hot-path form)."""
        return tuple(x % self.den for x in u) in self._rep_residues

    def dual_contains_int(self, m) -> bool:
        """Whether the integer vector m pairs integrally with the lattice."""
        return all(sum(a * b for a, b in zip(row, m)) % self.den == 0 for row in self.int_rows)

    # -- cosets -------------------------------------------------------------

    @cached_property
    def _rep_residues(self) -> frozenset[tuple[int, ...]]:
        """Residues den*x mod den of a full set of coset representatives.

        Built as the additive closure of the basis rows mod den; the group
        N/Z^d is finite of order ``index`` so this terminates immediately at
        desk scale.
        """
        if not self.is_superlattice:
            raise InputError("coset table requires a lattice containing Z^d")
        den = self.den
        gens = [tuple(x % den for x in row) for row in self.int_rows]
        seen = {tuple([0] * self.dim)}
        frontier = [tuple([0] * self.dim)]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % den for a, b in zip(cur, g))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    @cached_property
    def rep_ints(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self._rep_residues))

    @cached_property
    def coset_table(self) -> CosetTable:
        den = self.den
        return CosetTable(tuple(tuple(Fraction(x, den) for x in u) for u in self.rep_ints))

    # -- derived lattices ----------------------------------------------------

    def dual_int_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integer basis of the dual of a lattice containing Z^d, built
        without fractions: the columns of den * T^-1 for T = ``int_rows``.

        The dual {m : T m = 0 mod den} is the span of those columns, which are
        integral because the lattice contains Z^d, so back substitution on the
        upper-triangular T divides exactly.  Column j is zero below entry j,
        and entry j is the positive den / T_jj.
        """
        if not self.is_superlattice:
            raise InputError("the integer dual basis requires a lattice containing Z^d")
        t, den, d = self.int_rows, self.den, self.dim
        cols = []
        for j in range(d):
            x = [0] * d
            for i in range(j, -1, -1):
                x[i] = (den * (i == j) - sum(t[i][k] * x[k] for k in range(i + 1, j + 1))) // t[i][i]
            cols.append(tuple(x))
        return tuple(cols)

    @cached_property
    def dual(self) -> "Lattice":
        """{m : <m, x> integral for all x in L}; rows of inverse-transpose."""
        inv = _invert([list(row) for row in self.basis])
        rows = [[inv[i][j] for i in range(self.dim)] for j in range(self.dim)]
        return Lattice.from_rows(self.dim, rows)

    def project_drop(self, coord: int) -> "Lattice":
        """Image under deleting the 1-based coordinate ``coord``."""
        if self.dim < 2:
            raise InputError("projection needs dimension at least 2")
        if not 1 <= coord <= self.dim:
            raise InputError(f"coordinate {coord} out of range 1..{self.dim}")
        j = coord - 1
        rows = [row[:j] + row[j + 1 :] for row in self.basis]
        return Lattice.from_rows(self.dim - 1, rows)

    def permute(self, perm: tuple[int, ...]) -> "Lattice":
        """Coordinate permutation; perm[k] is the old 0-based index sent to slot k."""
        rows = [tuple(row[p] for p in perm) for row in self.basis]
        return Lattice.from_rows(self.dim, rows)

    def primitive_scale(self, vec) -> int:
        """Largest k with vec/k still in the lattice (vec must be a member)."""
        vec = qvec(vec, self.dim)
        if not any(vec):
            raise InputError("the zero vector has no primitive scale")
        if not self.contains(vec):
            raise NotInLattice(f"{vec} is not a lattice element")
        u = scaled_int_vector(vec, self.den)
        g = gcd(*u)
        for k in sorted(_divisors(g), reverse=True):
            if self.contains(tuple(e / k for e in vec)):
                return k
        return 1

    @cached_property
    def unit_scales(self) -> tuple[int, ...]:
        """primitive_scale of each standard basis vector (superlattices)."""
        return tuple(self.primitive_scale(_unit(self.dim, i)) for i in range(self.dim))

    # -- misc ----------------------------------------------------------------

    @cached_property
    def _cache(self) -> dict:
        """Scratch cache for derived per-lattice data (candidate arrays etc.)."""
        return {}

    def __repr__(self) -> str:
        rows = ";".join("(" + ",".join(str(x) for x in row) + ")" for row in self.basis)
        return f"Lattice(dim={self.dim}, basis=[{rows}])"


def _unit(dim: int, i: int) -> QVec:
    return tuple(Fraction(int(j == i)) for j in range(dim))


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.add(k)
            out.add(n // k)
        k += 1
    return sorted(out)


# -- contract surface ---------------------------------------------------------


def lattice_from_generators(dim: int, gens) -> Lattice:
    """Canonical form of Z^dim + sum Z*g over the generators."""
    return Lattice.from_generators(dim, gens)


def lattice_index(lat: Lattice) -> int:
    return lat.index


def lattice_contains(lat: Lattice, vec) -> bool:
    return lat.contains(vec)


def primitive_scale(lat: Lattice, vec) -> int:
    return lat.primitive_scale(vec)


def coset_reps(lat: Lattice) -> CosetTable:
    return lat.coset_table


def dual_lattice(lat: Lattice) -> Lattice:
    return lat.dual


def project_drop_coord(lat: Lattice, coord: int) -> Lattice:
    return lat.project_drop(coord)


def _hnf_tuples_with_unit_columns(dim: int, n: int):
    """All HNF bases of index-n sublattices of Z^dim whose column gcds are 1.

    The column-gcd condition is exactly primitivity of the standard basis
    vectors in the dual superlattice, so filtering here avoids building the
    rejected lattices at all.
    """
    for diag in _ordered_factorizations(n, dim):
        cols: list[list[tuple[int, ...]]] = []
        ok = True
        for j in range(dim):
            opts = []
            for above in product(*(range(diag[j]) for _ in range(j))):
                if gcd(*above, diag[j]) == 1:
                    opts.append(above)
            if not opts:
                ok = False
                break
            cols.append(opts)
        if not ok:
            continue
        for choice in product(*cols):
            rows = [[0] * dim for _ in range(dim)]
            for j in range(dim):
                rows[j][j] = diag[j]
                for i, val in enumerate(choice[j]):
                    rows[i][j] = val
            yield rows


def _ordered_factorizations(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for d in _divisors(n):
        for rest in _ordered_factorizations(n // d, parts - 1):
            yield (d,) + rest


def enumerate_superlattices(dim: int, max_index: int, mod_permutations: bool = False) -> list[Lattice]:
    """All N containing Z^dim with [N:Z^dim] <= max_index and every e_i primitive.

    Realized by enumerating finite-index sublattices of Z^dim in Hermite
    normal form (these are the duals) and dualizing.  Output is duplicate-free
    and sorted by (index, canonical basis).  With ``mod_permutations`` only
    the lexicographically smallest representative of each coordinate-
    permutation orbit is kept.
    """
    if dim < 1 or max_index < 1:
        raise InputError("dim and max_index must be positive")
    seen: dict = {}
    for n in range(1, max_index + 1):
        for rows in _hnf_tuples_with_unit_columns(dim, n):
            sub = Lattice.from_rows(dim, rows)
            sup = sub.dual
            assert sup.index == n, "duality must preserve the index"
            key = sup.basis
            assert key not in seen, "HNF enumeration may not repeat a lattice"
            seen[key] = sup
    lats = sorted(seen.values(), key=lambda L: (L.index, L.basis))
    if mod_permutations:
        keep = []
        for lat in lats:
            orbit = min(lat.permute(p).basis for p in permutations(range(dim)))
            if orbit == lat.basis:
                keep.append(lat)
        lats = keep
    return lats
