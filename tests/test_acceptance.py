"""Acceptance suite: one test per criterion, one PASS line per criterion.

All arithmetic is exact, so every comparison below is equality.  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines as they complete.
"""
import random
import time
from fractions import Fraction as F
from math import gcd

from faces import all_faces
from toricmld.adjunction import (
    check_lower_semicontinuity,
    check_precise_inversion,
    check_shokurov_bounds,
)
from toricmld.flat import build_flat_structure, state_value
from toricmld.germ import (
    ToricGerm,
    cartier_index,
    full_face,
    germ_cyclic_quotient,
    germ_from_px,
    mld_bruteforce_oracle,
    mld_face,
    px_mld_formula,
)
from toricmld.lattice import Lattice, lattice_from_generators
from toricmld.newton import lct_fermat, lct_newton, newton_poly_from_exponents
from toricmld.survey import acc_report, run_survey


def _report(number: int, text: str) -> None:
    print(f"CRITERION {number:02d} PASS: {text}")


def test_criterion_01_smooth_point_values():
    for d in range(1, 7):
        germ = ToricGerm(Lattice.standard(d), (0,) * d)
        assert mld_face(germ, full_face(d)).value == d
    _report(1, "smooth point minimum equals the dimension for d = 1..6")


def test_criterion_02_a_series_surface_germs():
    for q in range(2, 21):
        germ = germ_cyclic_quotient(q, (1, q - 1))
        assert mld_face(germ, full_face(2)).value == 1
    _report(2, "A-series surface germs have point minimum 1 for q = 2..20")


def test_criterion_03_diagonal_surface_germs():
    for k in range(2, 21):
        germ = germ_cyclic_quotient(k, (1, 1))
        assert mld_face(germ, full_face(2)).value == F(2, k)
    _report(3, "diagonal quotient surface germs give 2/k for k = 2..20")


def test_criterion_04_terminal_threefold_family():
    for q in range(2, 21):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            germ = germ_cyclic_quotient(q, (1, p, q - p))
            assert mld_face(germ, full_face(3)).value == 1 + F(1, q)
    _report(4, "1/q(1,p,q-p) germs give 1 + 1/q for all q <= 20, gcd(p,q)=1")


def test_criterion_05_nonisolated_family():
    for q in range(1, 11):
        germ = germ_cyclic_quotient(2 * q, (1, q, 1 + q))
        assert mld_face(germ, full_face(3)).value == 1 + F(1, q)
        assert mld_face(germ, (1, 3)).value == F(2, q)
    _report(5, "1/(2q)(1,q,1+q) germs: point value 1+1/q, face {1,3} value 2/q, q = 1..10")


def test_criterion_06_coordinate_subspace_formula():
    rng = random.Random(2026)
    for _ in range(100):
        d = rng.randint(1, 5)
        boundary = tuple(F(rng.randint(0, 12), 12) for _ in range(d))
        germ = ToricGerm(Lattice.standard(d), boundary)
        s = rng.randint(1, d)
        support = tuple(sorted(rng.sample(range(1, d + 1), s)))
        expected = s - sum(boundary[i - 1] for i in support)
        assert mld_face(germ, support).value == expected
    _report(6, "coordinate-subspace values s - sum(b) on 100 random standard germs")


def test_criterion_07_px_formula_cross_check():
    rng = random.Random(20260810)
    for _ in range(200):
        d = rng.randint(1, 4)
        x = tuple(F(rng.randint(1, q), q) for q in [rng.randint(1, 12) for _ in range(d)])
        germ, _ = germ_from_px(x)
        assert px_mld_formula(x) == mld_face(germ, full_face(d)).value
    _report(7, "closed-form family value equals the engine on 200 random points")


def test_criterion_08_oracle_agreement(corpus_germs):
    checked = 0
    for germ in corpus_germs:
        for face in all_faces(germ.dim):
            assert mld_face(germ, face).value == mld_bruteforce_oracle(germ, face, 3)
            checked += 1
    _report(8, f"box candidates match radius-3 brute force on {checked} germ faces")


def test_criterion_09_precise_inversion(corpus_germs):
    worked = ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 1))
    report = check_precise_inversion(worked, 3)
    assert report.passed and report.details[0][1] == report.details[0][2] == F(3, 4)
    checked = 0
    for germ in corpus_germs:
        if germ.dim < 2:
            continue
        for i, b in enumerate(germ.boundary, start=1):
            if b == 1:
                assert check_precise_inversion(germ, i).passed
                checked += 1
    assert checked > 0
    _report(9, f"adjunction equality on {checked} corpus restrictions incl. the 3/4 case")


def test_criterion_10_lsc_and_bounds(corpus_germs):
    triggered = 0
    for germ in corpus_germs:
        assert check_lower_semicontinuity(germ).passed
        assert check_shokurov_bounds(germ).passed
        point = mld_face(germ, full_face(germ.dim)).value
        if point > germ.dim - 1:
            assert germ.lattice.index == 1
            triggered += 1
    standard_zero = sum(
        1 for g in corpus_germs if g.lattice.index == 1 and all(b == 0 for b in g.boundary)
    )
    assert triggered >= standard_zero
    _report(10, "semicontinuity and dimension bounds corpus-wide; bound branch only on standard lattices")


def test_criterion_11_index_divisibility(corpus_germs):
    for germ in corpus_germs:
        r = cartier_index(germ)
        for face in all_faces(germ.dim):
            assert (r * mld_face(germ, face).value).denominator == 1
    _report(11, "index times every face value is an integer corpus-wide")


def test_criterion_12_cusp_threshold():
    germ = ToricGerm(Lattice.standard(2), (0, 0))
    poly = newton_poly_from_exponents(germ, [(2, 0), (0, 3)])
    assert lct_newton(poly).lct == F(5, 6)
    assert lct_fermat(2, (0, 0), (2, 3)) == F(5, 6)
    _report(12, "cusp exponents give threshold 5/6 by ray program and closed form")


def test_criterion_13_closed_forms_and_arnold():
    rng = random.Random(13)
    for _ in range(200):
        d = rng.randint(1, 4)
        boundary = tuple(F(rng.randint(0, 10), 10) for _ in range(d))
        degrees = tuple(rng.randint(1, 9) for _ in range(d))
        germ = ToricGerm(Lattice.standard(d), boundary)
        axes = [tuple(degrees[i] if j == i else 0 for j in range(d)) for i in range(d)]
        assert lct_fermat(d, boundary, degrees) == lct_newton(newton_poly_from_exponents(germ, axes)).lct
    for _ in range(200):
        d = rng.randint(1, 4)
        exps = [
            m
            for m in (tuple(rng.randint(0, 5) for _ in range(d)) for _ in range(rng.randint(1, 6)))
            if any(m)
        ]
        if not exps:
            continue
        germ = ToricGerm(Lattice.standard(d), (0,) * d)
        lct = lct_newton(newton_poly_from_exponents(germ, exps)).lct
        arnold = 1 / lct
        mult = min(sum(m) for m in exps)
        assert arnold <= mult <= d * arnold
    _report(13, "closed forms match the ray program; Arnold inequalities hold on 200 random instances")


def test_criterion_14_survey_classification():
    start = time.monotonic()
    rows = run_survey(3, 30, [0])
    report = acc_report(rows)  # raises on any classification violation
    elapsed = time.monotonic() - start
    terminal = [r for r in rows if r.mld_exceptional is not None and r.mld_exceptional > 1]
    for r in terminal:
        assert r.mld_point == 3 or (r.mld_point - 1).numerator == 1
    assert elapsed < 120, f"survey took {elapsed:.1f}s"
    _report(
        14,
        f"survey of {len(rows)} germs in {elapsed:.1f}s; {len(terminal)} terminal-regime values all 3 or 1+1/q",
    )


def test_criterion_15_flat_builder(corpus_germs):
    res = build_flat_structure(ToricGerm(Lattice.standard(2), (0, 0)))
    assert [g for g, _ in res.trace] == [F(1), F(1)]
    res = build_flat_structure(ToricGerm(Lattice.standard(3), (0, 0, 0)))
    assert [g for g, _ in res.trace] == [F(1)] * 3
    res = build_flat_structure(germ_cyclic_quotient(2, (1, 1)))
    assert [g for g, _ in res.trace] == [F(1)]
    assert state_value(res.state, res.witness.x, res.witness.divisors) == 0
    for germ in corpus_germs:
        assert len(build_flat_structure(germ).trace) <= germ.dim
    _report(15, "flat structures reached within the dimension on every corpus germ")
