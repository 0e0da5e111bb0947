"""The dual Hilbert basis against independent references.

``oracle_hilbert_basis`` is the earlier library algorithm, kept here as the
reference: list every point of the box prod [0, c_i] with numpy, keep the
dual lattice points, and drop, in order of coordinate sum, every point that
dominates one already kept.  For two-dimensional cyclic quotients the basis
is also given in closed form by a Hirzebruch-Jung continued fraction
(Fulton, Introduction to Toric Varieties, section 2.6).
"""
from fractions import Fraction
from math import gcd
from operator import mul

import numpy as np
import pytest

from toricmld.errors import ResourceLimit
from toricmld.germ import ToricGerm, germ_cyclic_quotient
from toricmld.lattice import BOX_CAP, enumerate_superlattices
from toricmld.newton import dual_hilbert_basis, newton_poly_from_exponents


def scan_ray_orders(lat):
    """Smallest c_i with c_i e_i in the dual lattice, by scanning k = 1..index."""
    d = lat.dim
    return tuple(
        next(k for k in range(1, lat.index + 1) if lat.dual_contains_int([k * (j == i) for j in range(d)]))
        for i in range(d)
    )


def ray_orders(lat):
    """``Lattice.dual_order`` of each standard basis vector."""
    d = lat.dim
    return tuple(lat.dual_order([int(j == i) for j in range(d)]) for i in range(d))


def oracle_hilbert_basis(lat):
    c = scan_ray_orders(lat)
    grids = np.meshgrid(*[np.arange(ci + 1, dtype=np.int64) for ci in c], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    rows = np.array(lat.int_rows, dtype=np.int64)
    pts = pts[((pts @ rows.T) % lat.den == 0).all(axis=1)]
    pts = pts[pts.any(axis=1)]
    order = np.lexsort(tuple(pts[:, j] for j in range(lat.dim - 1, -1, -1)) + (pts.sum(axis=1),))
    basis = []
    for p in pts[order]:
        if basis and (np.array(basis) <= p).all(axis=1).any():
            continue
        basis.append(p)
    return tuple(sorted(tuple(int(x) for x in p) for p in basis))


def zero_germ(lat):
    return ToricGerm(lat, (0,) * lat.dim)


def test_ray_orders_closed_form_matches_scan(corpus_lattices):
    for d in (1, 2, 3):
        for lat in corpus_lattices[d]:
            assert lat.ray_orders == ray_orders(lat) == scan_ray_orders(lat), lat


def assert_basis_is_valid_as_built(germ):
    """The basis equals the oracle's, and the exponent validation returns it
    unchanged: ``flat`` and ``lct_general_member`` hand it to the ray program
    without validating it again."""
    basis = dual_hilbert_basis(germ)
    assert basis == oracle_hilbert_basis(germ.lattice), germ.lattice
    assert newton_poly_from_exponents(germ, basis).exponents == basis, germ.lattice


@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_matches_oracle_on_corpus(corpus_lattices, d):
    for lat in corpus_lattices[d]:
        assert_basis_is_valid_as_built(zero_germ(lat))


def test_basis_matches_oracle_in_dimension_four():
    for lat in enumerate_superlattices(4, 6):
        assert ray_orders(lat) == scan_ray_orders(lat), lat
        assert_basis_is_valid_as_built(zero_germ(lat))


def hirzebruch_jung(n, q):
    """[b_1, ..., b_r] with n/q = b_1 - 1/(b_2 - 1/(... - 1/b_r)), 0 < q < n coprime."""
    out = []
    while q:
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return out


def test_basis_matches_continued_fraction_for_cyclic_surfaces():
    """For 1/n(1,a) the dual monoid is the cone cone(e_2, n e_1 - (n-a) e_2) of
    Z^2 in the basis (n-a, 1), (n, 0) of the dual lattice, so its basis is
    u_0 = (n, 0), u_1 = (n-a, 1), u_{i+1} = b_i u_i - u_{i-1} with [b_i] the
    continued fraction of n/(n-a), ending at (0, n)."""
    for n in range(2, 31):
        for a in range(1, n):
            if gcd(n, a) != 1:
                continue
            chain = [(n, 0), (n - a, 1)]
            for b in hirzebruch_jung(n, n - a):
                chain.append(tuple(b * x - y for x, y in zip(chain[-1], chain[-2])))
            assert chain[-1] == (0, n)
            assert dual_hilbert_basis(germ_cyclic_quotient(n, (1, a))) == tuple(sorted(chain)), (n, a)


def test_box_above_the_cap_raises_before_walking():
    """The whole basis, the general member's generators, which walk only the
    simplex part of the box, and the vertex list built from them are refused
    at the same box cap, before the dual is built."""
    for field in ("hilbert_basis", "newton_generators", "threshold_vertices"):
        lat = germ_cyclic_quotient(100003, (1, 2, 5)).lattice
        assert ray_orders(lat) == (100003,) * 3 and 100004**3 > BOX_CAP
        with pytest.raises(ResourceLimit, match=f"box of {100004**3} points exceeds the cap {BOX_CAP}"):
            getattr(lat, field)
        assert "dual" not in lat.__dict__, f"{field}: the dual lattice must not even be built"


def test_newton_generators_are_the_basis_inside_the_simplex():
    """``newton_generators`` is the axis elements c_i e_i and the basis
    elements m with sum m_i / c_i < 1, and ``interior_multiplicities``, which
    reads it, is the least pairing with the whole basis."""
    for d, n in ((2, 60), (3, 20), (4, 6), (5, 3)):
        for lat in enumerate_superlattices(d, n):
            c = ray_orders(lat)
            axis = [tuple(ci * (j == i) for j in range(d)) for i, ci in enumerate(c)]
            inside = [m for m in lat.hilbert_basis if sum(Fraction(x, ci) for x, ci in zip(m, c)) < 1]
            assert lat.newton_generators == tuple(sorted(axis + inside)), lat
            rows = lat.box_candidates[tuple(range(1, d + 1))]
            assert lat.interior_multiplicities == tuple(
                min(sum(map(mul, m, u)) for m in lat.hilbert_basis) for u in rows
            ), lat
