from fractions import Fraction as F

import pytest

from toricmld.adjunction import (
    adjoin_invariant_divisor,
    check_lower_semicontinuity,
    check_precise_inversion,
    check_shokurov_bounds,
)
from toricmld.errors import InputError
from toricmld.germ import ToricGerm, full_face, germ_cyclic_quotient, mld_face
from toricmld.lattice import Lattice, lattice_from_generators


def test_adjoin_smooth_case():
    g = ToricGerm(Lattice.standard(3), (0, 0, 1))
    res = adjoin_invariant_divisor(g, 3)
    assert res.germ.lattice == Lattice.standard(2)
    assert res.germ.boundary == (F(0), F(0))
    assert res.scales == (1, 1)


def test_adjoin_half_diagonal():
    g = ToricGerm(lattice_from_generators(3, [(F(1, 2), F(1, 2), F(1, 2))]), (0, 0, 1))
    res = adjoin_invariant_divisor(g, 3)
    assert res.germ.lattice == lattice_from_generators(2, [(F(1, 2), F(1, 2))])
    assert res.germ.boundary == (F(0), F(0))
    assert res.scales == (1, 1)


def test_adjoin_quarter_weights():
    g = ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 1))
    res = adjoin_invariant_divisor(g, 3)
    assert res.scales == (2, 1)
    assert res.germ.boundary == (F(1, 2), F(0))
    assert res.germ.lattice == lattice_from_generators(2, [(F(1, 2), F(1, 2))])


def test_adjoin_builds_the_restricted_lattice_once_per_lattice():
    lat = lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))])
    one = adjoin_invariant_divisor(ToricGerm(lat, (0, 0, 1)), 3)
    two = adjoin_invariant_divisor(ToricGerm(lat, (F(1, 2), F(2, 3), 1)), 3)
    assert one.scales == two.scales == (2, 1)
    assert one.germ.lattice is two.germ.lattice


def test_adjoin_preconditions():
    g = ToricGerm(Lattice.standard(3), (0, 0, 0))
    with pytest.raises(InputError):
        adjoin_invariant_divisor(g, 3)  # coefficient is not 1
    with pytest.raises(InputError):
        adjoin_invariant_divisor(ToricGerm(Lattice.standard(1), (1,)), 1)
    with pytest.raises(InputError):
        adjoin_invariant_divisor(ToricGerm(Lattice.standard(3), (0, 0, 1)), 4)


def test_precise_inversion_worked_values():
    cases = [
        (ToricGerm(Lattice.standard(4), (0, 0, 0, 1)), 4, 3),
        (ToricGerm(lattice_from_generators(3, [(F(1, 2),) * 3]), (0, 0, 1)), 3, 1),
        (ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 1)), 3, F(3, 4)),
    ]
    for germ, divisor, expected in cases:
        report = check_precise_inversion(germ, divisor)
        assert report.passed
        label, lhs, rhs = report.details[0]
        assert lhs == rhs == expected


def test_adjunction_independent_of_unit_coefficient_choice():
    germ = ToricGerm(lattice_from_generators(3, [(F(1, 3), F(1, 3), F(2, 3))]), (1, F(1, 2), 1))
    for divisor in (1, 3):
        assert check_precise_inversion(germ, divisor).passed


def test_lsc_worked_example():
    quarter = ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 0))
    report = check_lower_semicontinuity(quarter)
    assert report.passed
    by_face = {label: (lhs, rhs) for label, lhs, rhs in report.details}
    lhs, rhs = by_face["S=(1, 3)"]
    assert lhs == F(3, 2) and rhs == 1 + 1


def test_lsc_algebraic_identity_on_standard_germ():
    germ = ToricGerm(Lattice.standard(3), (F(1, 2), F(2, 3), F(1, 5)))
    report = check_lower_semicontinuity(germ)
    assert report.passed
    d = 3
    total = d - sum(germ.boundary)
    for label, lhs, rhs in report.details:
        assert lhs == total  # point value is the full multiplicity deficit


def test_bounds_examples():
    assert check_shokurov_bounds(ToricGerm(Lattice.standard(3), (0, 0, 0))).passed
    assert check_shokurov_bounds(germ_cyclic_quotient(2, (1, 1))).passed
    assert check_shokurov_bounds(germ_cyclic_quotient(5, (1, 2, 3))).passed


def test_corpus_checks(corpus_germs):
    sample = corpus_germs[::7]
    for germ in sample:
        assert check_lower_semicontinuity(germ).passed
        bounds = check_shokurov_bounds(germ)
        assert bounds.passed
        point = mld_face(germ, full_face(germ.dim)).value
        if point > germ.dim - 1:
            assert germ.lattice.index == 1
        for i, b in enumerate(germ.boundary, start=1):
            if b == 1 and germ.dim >= 2:
                assert check_precise_inversion(germ, i).passed
