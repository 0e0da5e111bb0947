import dataclasses
import random
from fractions import Fraction as F
from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import given, strategies as st

from toricmld.errors import DimensionMismatch, InputError, MalformedRational, ModelViolation, NotInLattice
from toricmld.germ import ToricGerm, germ_cyclic_quotient
from toricmld.lattice import Lattice, enumerate_superlattices, hnf
from lp_oracle import INFEASIBLE, primitive_normal, solve_lp
from toricmld.newton import (
    CAP_ONE,
    RAY,
    NewtonPoly,
    dual_hilbert_basis,
    first_intersection_mu,
    lct_fermat,
    lct_general_member,
    lct_monomial,
    lct_newton,
    lct_upper_bound_from_valuation,
    newton_poly_from_exponents,
    _first_intersection,
    _general_member_threshold,
)


def std_germ(dim, boundary=None):
    return ToricGerm(Lattice.standard(dim), boundary or (0,) * dim)


# -- dual monoid generators -----------------------------------------------------


def test_hilbert_basis_examples():
    assert dual_hilbert_basis(std_germ(3)) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert dual_hilbert_basis(germ_cyclic_quotient(2, (1, 1))) == ((0, 2), (1, 1), (2, 0))
    assert dual_hilbert_basis(germ_cyclic_quotient(3, (1, 2))) == ((0, 3), (1, 1), (3, 0))


def _monoid_points_in_box(germ, box):
    pts = []
    for m in product(*(range(c + 1) for c in box)):
        if any(m) and germ.lattice.dual_contains_int(m):
            pts.append(m)
    return pts


@pytest.mark.parametrize("q,a", [(2, (1, 1)), (3, (1, 2)), (5, (1, 2)), (4, (1, 2, 3)), (5, (1, 2, 3))])
def test_hilbert_basis_minimal_and_generating(q, a):
    germ = germ_cyclic_quotient(q, a)
    basis = dual_hilbert_basis(germ)
    d = germ.dim
    box = tuple(max(h[i] for h in basis) + 2 for i in range(d))
    pts = _monoid_points_in_box(germ, box)
    # minimality: no basis element is a sum of two nonzero monoid points
    pset = set(pts)
    for h in basis:
        for u in pts:
            v = tuple(a - b for a, b in zip(h, u))
            if any(c < 0 for c in v) or not any(v):
                continue
            assert v not in pset or u == h
    # generation: every box point decomposes into basis elements
    reachable = {(0,) * d}
    frontier = [(0,) * d]
    while frontier:
        cur = frontier.pop()
        for h in basis:
            nxt = tuple(a + b for a, b in zip(cur, h))
            if all(x <= bx for x, bx in zip(nxt, box)) and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    assert set(pts) <= reachable


# -- polyhedron validation ---------------------------------------------------------


def test_exponent_validation():
    """Each rejected input raises the same exception type with the same
    message as the Fraction-based validation it replaced."""
    g2 = germ_cyclic_quotient(2, (1, 1))
    std = std_germ(2)
    rejected = [
        (g2, [(1, 0)], NotInLattice, "exponent (1, 0) is not in the dual lattice"),  # parity violation
        (std, [(0, 0)], InputError, "the zero exponent (a unit, not in the maximal ideal) is not allowed"),
        (std, [(-1, 2)], InputError, "exponent (Fraction(-1, 1), Fraction(2, 1)) must have nonnegative integer entries"),
        (std, [(F(-1), 2)], InputError, "exponent (Fraction(-1, 1), Fraction(2, 1)) must have nonnegative integer entries"),
        (std, [(F(1, 2), 1)], InputError, "exponent (Fraction(1, 2), Fraction(1, 1)) must have nonnegative integer entries"),
        (std, [(1, 2, 3)], DimensionMismatch, "expected a vector of length 2, got 3"),
        (std, [(F(1, 2), 1, 0)], DimensionMismatch, "expected a vector of length 2, got 3"),
        (std, [], InputError, "at least one exponent is required"),
        (std, [(1.5, 0)], MalformedRational, "cannot interpret 1.5 as a rational"),
        (std, [("1/2", "x")], MalformedRational, "malformed rational literal: 'x'"),
    ]
    for germ, exps, kind, message in rejected:
        with pytest.raises(kind) as info:
            newton_poly_from_exponents(germ, exps)
        assert type(info.value) is kind and str(info.value) == message
    # entries that are integers in another form are read as Python ints
    accepted = [
        (std, [(F(2), 0), ("3", 1), (2, 0)], ((2, 0), (3, 1))),
        (g2, [(F(1), F(1)), (2, 0)], ((1, 1), (2, 0))),
        (std, [(True, 0)], ((1, 0),)),
    ]
    for germ, exps, expected in accepted:
        poly = newton_poly_from_exponents(germ, exps)
        assert poly.exponents == expected
        assert all(type(c) is int for m in poly.exponents for c in m)


DIRECT_EXPONENTS = {
    "repeated": (((5, 0, 0), (5, 0, 0)), InputError, "exponents must be sorted and distinct, got ((5, 0, 0), (5, 0, 0))"),
    "unsorted": (((5, 0, 0), (0, 5, 0)), InputError, "exponents must be sorted and distinct, got ((5, 0, 0), (0, 5, 0))"),
    "empty": ((), InputError, "at least one exponent is required"),
    "off-the-dual": (((1, 0, 0),), NotInLattice, "exponent (1, 0, 0) is not in the dual lattice"),
    "negative": (((-5, 0, 0),), InputError, "exponent (Fraction(-5, 1), Fraction(0, 1), Fraction(0, 1)) must have nonnegative integer entries"),
    "zero": (((0, 0, 0),), InputError, "the zero exponent (a unit, not in the maximal ideal) is not allowed"),
    "short": (((5, 0),), DimensionMismatch, "expected a vector of length 3, got 2"),
}


@pytest.mark.parametrize("exps,kind,message", DIRECT_EXPONENTS.values(), ids=DIRECT_EXPONENTS.keys())
def test_a_directly_built_newton_poly_is_checked_as_the_factorys(exps, kind, message):
    """On 1/5(1,2,3), a repeated exponent gave witness weights summing to 2,
    no exponent gave lct 0, an exponent off the dual lattice gave lct 1 and a
    negative one raised ``ModelViolation``: ``NewtonPoly`` checked only the
    exponents' types, and ``newton_poly_from_exponents`` the rest."""
    with pytest.raises(kind) as info:
        lct_newton(NewtonPoly(germ_cyclic_quotient(5, (1, 2, 3)), exps))
    assert type(info.value) is kind and str(info.value) == message


def test_dominated_exponent_is_neutral():
    # (2, 1) lies in (1, 0) + dual orthant, so both exponent sets give one polyhedron
    for boundary in [(0, 0), (F(1, 2), 0), (0, F(2, 3)), (1, 0)]:
        germ = std_germ(2, boundary)
        plain = lct_newton(newton_poly_from_exponents(germ, [(1, 0)]))
        with_dominated = lct_newton(newton_poly_from_exponents(germ, [(1, 0), (2, 1)]))
        assert (with_dominated.mu, with_dominated.lct, with_dominated.binding) == (plain.mu, plain.lct, plain.binding)


# -- the first intersection --------------------------------------------------------


def test_mu_examples():
    cusp = newton_poly_from_exponents(std_germ(2), [(2, 0), (0, 3)])
    assert first_intersection_mu(cusp) == F(6, 5)
    # witness weights are aligned with the sorted exponents ((0,3),(2,0))
    assert lct_newton(cusp).witness == (F(2, 5), F(3, 5))

    axes = newton_poly_from_exponents(std_germ(2), [(1, 0), (0, 1)])
    assert first_intersection_mu(axes) == F(1, 2)

    blind = newton_poly_from_exponents(std_germ(2, (1, 0)), [(0, 1)])
    # weight vector (0,1); the exponent needs the second coordinate
    assert first_intersection_mu(blind) == 1
    dead = newton_poly_from_exponents(std_germ(2, (1, 0)), [(1, 0)])
    assert first_intersection_mu(dead) is None


def test_weights_off_a_convex_combination_are_a_model_violation(monkeypatch):
    import toricmld.newton as newton

    exact = newton.solve_lp_max_slack

    def halved_duals(c, rows):
        res = exact(c, rows)
        return dataclasses.replace(res, obj_scale=2 * res.obj_scale)

    monkeypatch.setattr(newton, "solve_lp_max_slack", halved_duals)
    cusp = newton_poly_from_exponents(std_germ(2), [(2, 0), (0, 3)])
    with pytest.raises(ModelViolation, match="convex combination"):
        lct_newton(cusp)


def test_a_nonpositive_mu_is_a_model_violation(monkeypatch):
    """The ray program refuses mu <= 0 itself, so every reader is covered;
    ``lct_newton`` would otherwise divide by zero."""
    import toricmld.newton as newton

    exact = newton._mu_lp

    def zero_mu(exponents, w_row, wd):
        return (0, *exact(exponents, w_row, wd)[1:])

    monkeypatch.setattr(newton, "_mu_lp", zero_mu)
    cusp = newton_poly_from_exponents(std_germ(2), [(2, 0), (0, 3)])
    for read in (lct_newton, first_intersection_mu):
        with pytest.raises(ModelViolation, match="mu must be positive"):
            read(cusp)


def _assert_integral(res):
    """Every field of the ray program's answer is an int, a tuple of ints or
    None: ``Fraction``s are built only by the functions that return them."""
    for field in dataclasses.fields(res):
        v = getattr(res, field.name)
        assert v is None or type(v) is int or all(type(c) is int for c in v), field.name


def _certificate(poly):
    res = _first_intersection(poly.exponents, *poly.germ._weight_ints)
    assert res.mu_num is not None
    _assert_integral(res)
    mu = F(res.mu_num, res.scale)
    weights = [F(v, res.scale) for v in res.lam]
    normal = [F(v, res.y_den) for v in res.y_num]
    w = poly.germ.weights
    combo = [sum(l * F(m[i]) for l, m in zip(weights, poly.exponents)) for i in range(poly.dim)]
    assert sum(weights) == 1 and all(l >= 0 for l in weights)
    for i in range(poly.dim):
        assert combo[i] <= mu * w[i]
    assert all(y >= 0 for y in normal)
    assert sum(y * wi for y, wi in zip(normal, w)) <= 1
    for m in poly.exponents:
        assert sum(y * F(c) for y, c in zip(normal, m)) >= mu
    # complementary slackness
    for lam, m in zip(weights, poly.exponents):
        if lam:
            assert sum(y * F(c) for y, c in zip(normal, m)) == mu
    for i in range(poly.dim):
        if normal[i]:
            assert combo[i] == mu * w[i]
    # the zero-weight lift is the least one: each zero-weight coordinate is
    # the largest shortfall (mu - <y off them, m>) / (their sum in m), or 0
    zero = [i for i, wi in enumerate(w) if wi == 0]
    base = [0 if i in zero else y for i, y in enumerate(normal)]
    short = [
        (mu - sum(y * c for y, c in zip(base, m))) / sum(m[i] for i in zero)
        for m in poly.exponents
        if any(m[i] for i in zero)
    ]
    assert all(normal[i] == max([F(0), *short]) for i in zero)


exponent = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(any)


@given(st.lists(exponent, min_size=1, max_size=8), st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]), st.sampled_from([F(0), F(2, 3), F(1)]))
def test_random_intersections_carry_certificates(exps, b1, b2):
    germ = std_germ(2, (b1, b2))
    poly = newton_poly_from_exponents(germ, exps)
    if first_intersection_mu(poly) is None:
        _assert_integral(_first_intersection(poly.exponents, *germ._weight_ints))
        zero = [i for i, w in enumerate(germ.weights) if w == 0]
        assert all(any(m[i] > 0 for i in zero) for m in poly.exponents)
    else:
        _certificate(poly)


def _oracle_mu(poly):
    """mu from one two-phase LP over every exponent at once, in the primal
    form  min t : sum_a lambda_a m_a <= t w, sum_a lambda_a = 1,
    (lambda, t) >= 0;  None when infeasible (the ray never enters)."""
    exps, w = poly.exponents, poly.germ.weights
    k = len(exps)
    rows = [([F(m[i]) for m in exps] + [-w[i]], "<=", 0) for i in range(poly.dim)]
    rows.append(([1] * k + [0], "==", 1))
    res = solve_lp([0] * k + [1], rows)
    return None if res.status == INFEASIBLE else res.objective


def test_general_member_certificates_and_oracle_on_the_corpus(corpus_germs):
    """The general-member polyhedron (the dual Hilbert basis) of every corpus
    germ to index 4, where the boundaries {0, 1/2, 2/3, 1}^d make weights
    vanish and the zero-weight lift run, and of the d = 3, b = 0 lattices to
    index 8: the column-generation result carries a full certificate, and mu
    is the optimum of the one-shot LP over the whole basis."""
    germs = [g for g in corpus_germs if g.lattice.index <= 4]
    germs += [ToricGerm(lat, (0, 0, 0)) for lat in enumerate_superlattices(3, 8)]
    lifted = 0
    for germ in germs:
        poly = newton_poly_from_exponents(germ, dual_hilbert_basis(germ))
        mu = first_intersection_mu(poly)
        assert mu == _oracle_mu(poly), germ
        if mu is not None:
            _certificate(poly)
            zero = [i for i, w in enumerate(germ.weights) if w == 0]
            lifted += any(_first_intersection(poly.exponents, *germ._weight_ints).y_num[i] for i in zero)
    assert lifted > 0, "some certificate must need the zero-weight lift"


def _vertex_germs(corpus_germs):
    """The corpus germs to index 6, and one b = 0 germ per lattice of d = 3
    to index 20 and of d = 4 to index 6."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6]
    germs += [ToricGerm(lat, (0,) * d) for d, n in ((3, 20), (4, 6)) for lat in enumerate_superlattices(d, n)]
    return germs


def test_the_vertex_threshold_is_the_programs(corpus_germs):
    """The threshold read off ``Lattice.threshold_vertices`` is the one that
    ``lct_general_member`` solves for, and mu is infinite exactly when the
    vertex minimum is 0."""
    for germ in _vertex_germs(corpus_germs):
        rep = lct_general_member(germ)
        den, rows = germ.lattice.threshold_vertices
        wn, _ = germ._weight_ints
        assert _general_member_threshold(germ) == rep.lct, germ
        assert (rep.mu is None) == (min(sum(map(mul, wn, y)) for y in rows) == 0), germ


def _brute_vertices(lat):
    """Every vertex of {y >= 0 : <y, m> >= 1 on the Hilbert basis}, from
    each d of its constraints that meet in one feasible point."""
    d, hb = lat.dim, lat.hilbert_basis
    cons = [(tuple(map(F, m)), F(1)) for m in hb] + [(tuple(F(int(j == i)) for j in range(d)), F(0)) for i in range(d)]
    found = set()
    for pick in combinations(cons, d):
        a = [list(row) + [b] for row, b in pick]
        for col in range(d):  # Gauss-Jordan; a singular pick has no vertex
            piv = next((r for r in range(col, d) if a[r][col]), None)
            if piv is None:
                break
            a[col], a[piv] = a[piv], a[col]
            a[col] = [x / a[col][col] for x in a[col]]
            for r in range(d):
                if r != col and a[r][col]:
                    a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
        else:
            y = tuple(row[d] for row in a)
            if all(x >= 0 for x in y) and all(sum(map(mul, m, y)) >= 1 for m in hb):
                found.add(y)
    return found


def test_the_vertex_rows_carry_certificates(corpus_germs):
    """Each row y of ``threshold_vertices`` is a vertex: <m, y> >= D on the
    Hilbert basis, y >= 0, and the tight ones among those constraints have
    rank d.  The rows are distinct and sorted, and on the corpus to index 6
    they are every vertex that d of the constraints cut out."""
    lattices = {g.lattice: g.lattice.index <= 6 and g.dim <= 3 for g in _vertex_germs(corpus_germs)}
    for lat, small in lattices.items():
        d, hb = lat.dim, lat.hilbert_basis
        den, rows = lat.threshold_vertices
        assert list(rows) == sorted(set(rows)), lat
        for y in rows:
            assert all(x >= 0 for x in y) and all(sum(map(mul, m, y)) >= den for m in hb), (lat, y)
            tight = [m for m in hb if sum(map(mul, m, y)) == den]
            tight += [tuple(int(j == i) for j in range(d)) for i in range(d) if y[i] == 0]
            assert len(hnf(tight, d)) == d, (lat, y)
        if small:
            assert {tuple(F(x, den) for x in y) for y in rows} == _brute_vertices(lat), lat


# -- thresholds ----------------------------------------------------------------------


def test_lct_newton_examples():
    cusp = newton_poly_from_exponents(std_germ(2), [(2, 0), (0, 3)])
    rep = lct_newton(cusp)
    assert rep.lct == F(5, 6) and rep.binding == RAY

    axes = newton_poly_from_exponents(std_germ(2), [(1, 0), (0, 1)])
    rep = lct_newton(axes)
    assert rep.lct == 1 and rep.binding == CAP_ONE

    dead = newton_poly_from_exponents(std_germ(2, (1, 0)), [(1, 0)])
    rep = lct_newton(dead)
    assert rep.lct == 0 and rep.mu is None and rep.witness is None


def test_lct_monomial_examples():
    assert lct_monomial(std_germ(3), (1, 2, 3)) == F(1, 3)
    assert lct_monomial(std_germ(2, (F(1, 2), 0)), (1, 1)) == F(1, 2)
    assert lct_monomial(std_germ(1), (5,)) == F(1, 5)


def test_lct_fermat_examples():
    assert lct_fermat(2, (0, 0), (2, 3)) == F(5, 6)
    assert lct_fermat(2, (0, 0), (2, 2)) == 1
    assert lct_fermat(2, (1, 0), (1, 1)) == 1
    with pytest.raises(InputError):
        lct_fermat(2, (0, 0), (2,))


def test_lct_general_member_examples():
    assert lct_general_member(std_germ(4)).lct == 1
    rep = lct_general_member(germ_cyclic_quotient(2, (1, 1)))
    assert rep.lct == 1 and rep.binding == RAY and rep.mu == 1
    for k in range(2, 9):
        assert lct_general_member(germ_cyclic_quotient(k, (1, 1))).lct == min(1, F(2, k))


def test_general_member_is_the_validated_routes(corpus_germs):
    """``lct_general_member`` hands the Hilbert basis to the ray program as
    built; the route through the exponent validation is its oracle, report
    for report, on the corpus to index 6."""
    for germ in corpus_germs:
        if germ.lattice.index <= 6:
            oracle = lct_newton(newton_poly_from_exponents(germ, dual_hilbert_basis(germ)))
            assert lct_general_member(germ) == oracle, germ


def test_upper_bound_examples():
    cusp = newton_poly_from_exponents(std_germ(2), [(2, 0), (0, 3)])
    assert lct_upper_bound_from_valuation(cusp, (3, 2)) == F(5, 6)
    assert lct_upper_bound_from_valuation(cusp, (1, 1)) == 1
    assert lct_upper_bound_from_valuation(cusp, (1, 0)) is None


@given(st.lists(exponent, min_size=1, max_size=6))
def test_soundness_against_random_valuations(exps):
    germ = std_germ(2)
    poly = newton_poly_from_exponents(germ, exps)
    lct = lct_newton(poly).lct
    rng = random.Random(7)
    for _ in range(25):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        if a == b == 0:
            continue
        from math import gcd

        g = gcd(a, b)
        x = (a // g, b // g)
        bound = lct_upper_bound_from_valuation(poly, x)
        if bound is not None:
            assert lct <= bound


def normal_witness_ray(poly):
    """Primitive lattice point on the pricing ray; realizes 1/mu exactly."""
    return primitive_normal(poly.germ.lattice, _first_intersection(poly.exponents, *poly.germ._weight_ints))


@given(st.lists(exponent, min_size=1, max_size=6))
def test_ray_binding_is_tight_on_the_pricing_ray(exps):
    germ = std_germ(2)
    poly = newton_poly_from_exponents(germ, exps)
    rep = lct_newton(poly)
    if rep.binding == RAY and rep.mu is not None:
        x = normal_witness_ray(poly)
        assert lct_upper_bound_from_valuation(poly, x) == rep.lct


def test_closed_forms_agree_with_ray_program():
    rng = random.Random(20260810)
    for _ in range(80):
        d = rng.randint(1, 4)
        boundary = tuple(F(rng.randint(0, q), q) for q in [rng.randint(1, 10) for _ in range(d)])
        degrees = tuple(rng.randint(1, 9) for _ in range(d))
        closed = lct_fermat(d, boundary, degrees)
        germ = std_germ(d, boundary)
        poly = newton_poly_from_exponents(
            germ, [tuple(degrees[i] if j == i else 0 for j in range(d)) for i in range(d)]
        )
        assert closed == lct_newton(poly).lct
        # monomial form against the axis valuations it is the infimum of
        n = tuple(rng.randint(0, 6) for _ in range(d))
        if any(n) and all(boundary[i] < 1 or n[i] == 0 for i in range(d)):
            single = newton_poly_from_exponents(germ, [n])
            bounds = []
            for i in range(d):
                e = tuple(int(j == i) for j in range(d))
                val = lct_upper_bound_from_valuation(single, e)
                if val is not None:
                    bounds.append(val)
            assert lct_monomial(germ, n) == min(bounds)


def test_arnold_inequalities_on_random_standard_germs():
    rng = random.Random(99)
    for _ in range(80):
        d = rng.randint(1, 4)
        exps = []
        for _ in range(rng.randint(1, 6)):
            m = tuple(rng.randint(0, 5) for _ in range(d))
            if any(m):
                exps.append(m)
        if not exps:
            continue
        germ = std_germ(d)
        poly = newton_poly_from_exponents(germ, exps)
        lct = lct_newton(poly).lct
        arnold = 1 / lct
        mult = min(sum(m) for m in exps)
        assert arnold <= mult <= d * arnold
