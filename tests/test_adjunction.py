from fractions import Fraction as F

import pytest

from faces import all_faces, with_entry
from toricmld.adjunction import (
    CheckReport,
    adjoin_invariant_divisor,
    check_lower_semicontinuity,
    check_precise_inversion,
    check_shokurov_bounds,
)
from toricmld.errors import InputError
from toricmld.germ import ToricGerm, full_face, germ_cyclic_quotient, germ_normalize, mld_face
from toricmld.lattice import Lattice, enumerate_superlattices, lattice_from_generators
from toricmld.survey import CorpusConfig, corpus_germs


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


def test_restrictions_rescale_only_where_a_scale_is_not_one(monkeypatch):
    """``Lattice.normal_form`` keeps an image whose scales are all 1: over
    every lattice of d = 2, 3 to index 12, the 2,282 restrictions call
    ``rescale`` 1,155 times, once per image with a scale other than 1, and
    each kept image is the one ``rescale`` would build."""
    rescale, calls = Lattice.rescale, []

    def counted(lat, scales):
        calls.append(scales)
        return rescale(lat, scales)

    lattices = enumerate_superlattices(2, 12) + enumerate_superlattices(3, 12)
    monkeypatch.setattr(Lattice, "rescale", counted)
    images = [pair for lat in lattices for pair in lat.restrictions]
    assert len(images) == 2282 and len(calls) == 1155
    assert calls == [scales for _, scales in images if set(scales) != {1}]
    assert all(rescale(image, scales) == image for image, scales in images if set(scales) == {1})


def test_adjunction_reads_the_restriction_as_built(corpus_lattices, monkeypatch):
    """Every restriction of the corpus lattices to index 12 is normal as
    ``Lattice.restrictions`` builds it, so adjunction and precise inversion,
    over the corpus to index 6, never pass it through ``germ_normalize``."""
    import sys

    for d in (2, 3):
        for lat in corpus_lattices[d]:
            assert all(set(image.unit_scales) == {1} for image, _ in lat.restrictions), lat
    calls = []

    def counted(*args):
        calls.append(args)
        return germ_normalize(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricmld") and hasattr(module, "germ_normalize"):
            monkeypatch.setattr(module, "germ_normalize", counted)
    adjoined = 0
    for germ in corpus_germs(CorpusConfig(max_index=6)):
        for i, b in enumerate(germ.boundary, start=1):
            if b == 1 and germ.dim >= 2:
                adjoin_invariant_divisor(germ, i)
                check_precise_inversion(germ, i)
                adjoined += 1
    assert adjoined > 0 and not calls


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


# -- the integer comparisons against their Fraction formulas --------------------------


def precise_inversion_formula(germ, divisor):
    lhs = mld_face(germ, full_face(germ.dim)).value
    adjoined = adjoin_invariant_divisor(germ, divisor).germ
    rhs = mld_face(adjoined, full_face(adjoined.dim)).value
    return CheckReport(lhs == rhs, ((f"point-minimum vs divisor {divisor}", lhs, rhs),))


def lsc_formula(germ):
    d = germ.dim
    at_point = mld_face(germ, full_face(d)).value
    details = tuple(
        (f"S={face.support}", at_point, mld_face(germ, face).value + d - len(face.support))
        for face in all_faces(d)
        if len(face.support) < d
    )
    return CheckReport(all(lhs <= rhs for _, lhs, rhs in details), details)


def bounds_formula(germ):
    d = germ.dim
    value = mld_face(germ, full_face(d)).value
    details = [("point-minimum vs dimension", value, F(d))]
    passed = value <= d
    if value > d - 1:
        expected = d - sum(germ.boundary, start=F(0))
        details.append(("smooth-branch lattice index", F(germ.lattice.index), F(1)))
        details.append(("smooth-branch multiplicity formula", value, expected))
        passed = passed and germ.lattice.index == 1 and value == expected
    return CheckReport(passed, tuple(details))


def test_checks_equal_their_fraction_formulas_on_the_corpus():
    for germ in corpus_germs(CorpusConfig(max_index=4)):
        assert check_lower_semicontinuity(germ) == lsc_formula(germ), germ
        assert check_shokurov_bounds(germ) == bounds_formula(germ), germ
        for i, b in enumerate(germ.boundary, start=1):
            if b == 1 and germ.dim >= 2:
                assert check_precise_inversion(germ, i) == precise_inversion_formula(germ, i), (germ, i)


def test_precise_inversion_compares_minima_over_different_scales():
    """Upstairs the face table's scale den * wd is 12, on the divisor 6: the
    equal minima 2/3 are the different integers 8 and 4, and a tampered
    upstairs minimum of 4 (that is 1/3) must fail although 4 == 4."""
    germ = ToricGerm(lattice_from_generators(3, [(F(1, 2), 0, F(1, 2))]), (F(2, 3), F(1, 2), 1))
    adjoined = adjoin_invariant_divisor(germ, 3).germ
    assert (germ.face_table.scale, adjoined.face_table.scale) == (12, 6)
    assert germ.face_table.entries[(1, 2, 3)][0] == 8 and adjoined.face_table.entries[(1, 2)][0] == 4
    assert check_precise_inversion(germ, 3) == CheckReport(True, (("point-minimum vs divisor 3", F(2, 3), F(2, 3)),))
    rows = germ.face_table.entries[(1, 2, 3)][1]
    with_entry(germ, (1, 2, 3), 4, rows)
    assert check_precise_inversion(germ, 3) == CheckReport(False, (("point-minimum vs divisor 3", F(1, 3), F(2, 3)),))
    assert check_precise_inversion(germ, 3) == precise_inversion_formula(germ, 3)


def test_precise_inversion_equals_the_restricted_germ_route():
    """The check rescales the weights onto ``Lattice.restrictions``; the
    reference (``precise_inversion_formula``) builds the restricted germ and
    reads its point minimum.  Every unit coefficient of the default corpus
    to index 6 and of its dimension-4 germs to index 4."""
    compared = 0
    for config in (CorpusConfig(max_index=6), CorpusConfig(dims=(4,), max_index=4)):
        for germ in corpus_germs(config):
            for i, b in enumerate(germ.boundary, start=1):
                if b == 1 and germ.dim >= 2:
                    assert check_precise_inversion(germ, i) == precise_inversion_formula(germ, i), (germ, i)
                    compared += 1
    assert compared > 40000


def test_precise_inversion_fills_no_face_table_on_the_divisor(monkeypatch):
    """The divisor's point minimum is read off the restricted lattice's
    full-support candidates: only the upstairs germ, whose table the survey
    row fills anyway, has its face table filled (each access is counted)."""
    germ = ToricGerm(lattice_from_generators(3, [(F(1, 3), F(1, 3), F(2, 3))]), (1, F(1, 2), 1))
    expected = [check_precise_inversion(germ, i) for i in (1, 3)]
    real, filled = ToricGerm.face_table.func, []
    monkeypatch.setattr(ToricGerm, "face_table", property(lambda g: filled.append(g.dim) or real(g)))
    assert [check_precise_inversion(germ, i) for i in (1, 3)] == expected
    assert filled and set(filled) == {3}


def test_failing_semicontinuity_and_bounds_equal_their_fraction_formulas():
    """Face values of Z^2 + Z(1/3, 2/3) with weights (1, 1/2), scale 6: 1 on
    (1,), 1/2 on (2,), 2/3 at the point.  A point minimum of 5/3 breaks
    semicontinuity on (2,) only (5/3 > 1/2 + 1) and sits above d - 1 on a
    lattice of index 3, so the bound fails too; 3/2 is exactly 1/2 + 1."""
    for scaled, lsc_ok in ((10, False), (9, True)):
        germ = ToricGerm(germ_cyclic_quotient(3, (1, 2)).lattice, (0, F(1, 2)))
        with_entry(germ, (1, 2), scaled, germ.face_table.entries[(1, 2)][1])
        lsc, bounds = check_lower_semicontinuity(germ), check_shokurov_bounds(germ)
        assert (lsc, bounds) == (lsc_formula(germ), bounds_formula(germ))
        assert lsc.passed is lsc_ok and bounds.passed is False and len(bounds.details) == 3
