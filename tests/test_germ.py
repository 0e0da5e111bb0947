import random
from fractions import Fraction as F
from itertools import product
from math import ceil, gcd, lcm

import pytest
from hypothesis import given, strategies as st

from faces import all_faces
from toricmld import survey
from toricmld.adjunction import adjoin_invariant_divisor, check_precise_inversion
from toricmld.errors import InputError, NotInLattice, NotPrimitive, ResourceLimit
from toricmld.germ import (
    Face,
    ToricGerm,
    cartier_index,
    full_face,
    germ_cyclic_quotient,
    germ_from_px,
    germ_normalize,
    log_discrepancy_of_valuation,
    mld_bruteforce_oracle,
    mld_face,
    mld_global,
    px_mld_formula,
    verify_minkowski,
)
from toricmld.errors import ModelViolation
from toricmld.flat import FlatState
from toricmld.lattice import Lattice, _divisors, enumerate_superlattices, lattice_from_generators


def std(dim):
    return Lattice.standard(dim)


# -- construction ----------------------------------------------------------------


def test_face_validation():
    with pytest.raises(InputError):
        Face(())
    with pytest.raises(InputError):
        Face.coerce((0, 1), 2)
    with pytest.raises(InputError):
        Face.coerce((3,), 2)
    assert Face.coerce((2, 1, 1), 3).support == (1, 2)


def test_a_face_is_validated_once(monkeypatch):
    """``Face.coerce`` range-checks a ``Face`` and returns it, and validates
    any other value once, so ``mld_face(germ, full_face(d))`` validates one
    support: the one ``full_face`` builds."""
    import toricmld.germ as germ_module

    calls = []
    real = germ_module._support
    monkeypatch.setattr(germ_module, "_support", lambda *args: calls.append(args) or real(*args))
    germ = germ_cyclic_quotient(5, (1, 2, 3))
    face = full_face(3)
    assert Face.coerce(face, 3) is face
    assert mld_face(germ, face).face is face and calls == [(face.support,)]
    assert mld_face(germ, [3, 1, 2]).face == face and len(calls) == 2
    with pytest.raises(InputError, match="out of range"):
        Face.coerce(Face((3,)), 2)
    with pytest.raises(InputError, match="out of range"):
        Face.coerce(Face((0, 1)), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: adjoin_invariant_divisor(g, 1.5),
        lambda g: check_precise_inversion(g, 1.5),
        lambda g: adjoin_invariant_divisor(g, "1"),
        lambda g: adjoin_invariant_divisor(g, True),
        lambda g: mld_face(g, 5),
        lambda g: Face(5),
        lambda g: mld_bruteforce_oracle(g, 5, 1),
    ],
    ids=["adjoin-float", "inversion-float", "adjoin-str", "adjoin-bool", "mld-face-int", "face-int", "oracle-int"],
)
def test_a_divisor_that_is_no_int_or_a_support_that_is_no_collection_is_an_input_error(call):
    """These raised TypeError (exit 3), or read True as divisor 1."""
    with pytest.raises(InputError):
        call(ToricGerm(std(2), (1, 0)))


def test_germ_rejects_bad_boundary():
    """A germ's boundary, and a flat state's coefficients, are range-checked
    on their reduced numerator and denominator, with the messages they had
    as ``Fraction`` comparisons; 0 and 1 are kept."""
    with pytest.raises(InputError):
        ToricGerm(std(2), (F(3, 2), F(0)))
    with pytest.raises(InputError):
        germ_normalize(std(2), (F(-1, 2), F(0)))
    germ = ToricGerm(std(2), (0, 1))
    assert germ.boundary == (0, 1) and FlatState(germ, (0, 1)).gammas == (0, 1)
    for value, shown in ((F(3, 2), "3/2"), (F(-1, 2), "-1/2"), ("4/3", "4/3")):
        with pytest.raises(InputError, match=rf"^boundary coefficient {shown} outside \[0,1\]$"):
            ToricGerm(std(2), (0, value))
        with pytest.raises(InputError, match=rf"^coefficient {shown} outside \[0,1\]$"):
            FlatState(germ, (1, value))


def test_germ_requires_normal_form():
    halfaxis = lattice_from_generators(2, [(F(1, 2), 0)])
    with pytest.raises(InputError):
        ToricGerm(halfaxis, (0, 0))


def test_normalize_examples():
    g = germ_normalize(lattice_from_generators(2, [(F(1, 2), 0)]), (0, 0))
    assert g.lattice == std(2)  # a smooth germ in disguise
    g2 = germ_normalize(lattice_from_generators(2, [(F(1, 2), F(1, 4))]), (0, 0))
    assert g2.lattice == lattice_from_generators(2, [(F(1, 2), F(1, 2))])
    again = germ_normalize(g2.lattice, g2.boundary)
    assert again == g2  # idempotent


def test_cyclic_quotient_examples():
    assert germ_cyclic_quotient(3, (1, 2)).lattice == lattice_from_generators(2, [(F(1, 3), F(2, 3))])
    assert germ_cyclic_quotient(2, (1, 1)).lattice == lattice_from_generators(2, [(F(1, 2), F(1, 2))])
    assert germ_cyclic_quotient(5, (1, 2, 3)).lattice == lattice_from_generators(
        3, [(F(1, 5), F(2, 5), F(3, 5))]
    )
    with pytest.raises(InputError):
        germ_cyclic_quotient(0, (1, 1))


def test_px_construction_examples():
    g, n = germ_from_px((F(1, 2), F(1, 2)))
    assert n == (1, 1) and g.boundary == (F(0), F(0))
    assert g == germ_cyclic_quotient(2, (1, 1))

    g, n = germ_from_px((F(1, 2), F(1, 4)))
    assert n == (1, 2)
    assert g.boundary == (F(0), F(1, 2))
    assert g.lattice == lattice_from_generators(2, [(F(1, 2), F(1, 2))])

    g, n = germ_from_px((1, 1, 1))
    assert n == (1, 1, 1) and g.lattice == std(3) and g.boundary == (F(0),) * 3

    with pytest.raises(InputError):
        germ_from_px((F(3, 2), F(1, 2)))


# -- single-valuation values --------------------------------------------------------


def test_log_discrepancy_examples():
    g = ToricGerm(std(2), (F(1, 3), F(0)))
    assert log_discrepancy_of_valuation(g, (1, 0)) == F(2, 3)
    a2 = germ_cyclic_quotient(3, (1, 2))
    assert log_discrepancy_of_valuation(a2, (F(1, 3), F(2, 3))) == 1
    assert log_discrepancy_of_valuation(ToricGerm(std(2), (0, 0)), (1, 1)) == 2


def test_log_discrepancy_errors():
    g = ToricGerm(std(2), (0, 0))
    with pytest.raises(NotInLattice):
        log_discrepancy_of_valuation(g, (F(1, 2), F(1, 2)))
    with pytest.raises(InputError):
        log_discrepancy_of_valuation(g, (-1, 0))
    with pytest.raises(NotPrimitive) as err:
        log_discrepancy_of_valuation(g, (2, 4))
    assert err.value.scale == 2


# -- face minima ---------------------------------------------------------------------


def test_mld_face_examples():
    a2 = germ_cyclic_quotient(3, (1, 2))
    rep = mld_face(a2, (1, 2))
    assert rep.value == 1
    assert rep.witnesses == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))

    quarter = ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 0))
    assert mld_face(quarter, (1, 3)).value == 1

    g = ToricGerm(std(3), (F(1, 5), F(1, 7), F(0)))
    assert mld_face(g, (1, 2)).value == 2 - F(1, 5) - F(1, 7)
    assert mld_face(g, (2,)).value == 1 - F(1, 7)


def test_mld_witness_invariants():
    quarter = ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 0))
    rep = mld_face(quarter, full_face(3))
    assert rep.value == F(3, 2)
    for w in rep.witnesses:
        assert quarter.lattice.contains(w)
        assert all(0 < c <= 1 for c in w)
        assert quarter.log_discrepancy(w) == rep.value


def test_mld_global_examples():
    assert mld_global(germ_cyclic_quotient(2, (1, 1))).value == 1
    rep = mld_global(ToricGerm(std(2), (1, 0)))
    assert rep.value == 0 and rep.witnesses == ((F(1), F(0)),) and rep.face.support == (1,)
    assert mld_global(ToricGerm(std(2), (0, 0))).value == 1


def test_oracle_examples():
    a2 = germ_cyclic_quotient(3, (1, 2))
    assert mld_bruteforce_oracle(a2, (1, 2), 3) == 1
    five = germ_cyclic_quotient(5, (1, 2, 3))
    assert mld_bruteforce_oracle(five, (1, 2, 3), 3) == F(6, 5)
    assert mld_bruteforce_oracle(ToricGerm(std(4), (0,) * 4), full_face(4), 2) == 4


def product_oracle(germ, support, radius):
    """The exhaustive minimum as the least sum over every shifted point of
    each residue (the Cartesian product of the per-coordinate terms): the
    reference for ``mld_bruteforce_oracle``, which sums per-coordinate
    minima."""
    lat = germ.lattice
    den = lat.den
    on = [j + 1 in support for j in range(lat.dim)]
    wn, wd = germ._weight_ints
    lows = []
    for u in lat.rep_ints:
        if any(c for c, o in zip(u, on) if not o):
            continue
        terms = []
        for w, c, o in zip(wn, u, on):
            if not o:
                terms.append((0,))
            elif c == 0:
                terms.append([w * s * den for s in range(1, radius + 1)])
            else:
                terms.append([w * (c + s * den) for s in range(radius)])
        lows.append(min(map(sum, product(*terms))))
    return F(min(lows), den * wd)


def test_oracle_equals_the_product_form_on_the_corpus():
    """Every (germ, face) of the default corpus cut to index 6, at radii 1
    to 4, and of its dimension-4 germs to index 4, where a face can hold
    residues of several supports below it and the oracle's subset minimum
    first picks among them, at radii 1 and 2 (the product form has up to
    radius^4 points per residue)."""
    inputs = (
        (survey.CorpusConfig(max_index=6), range(1, 5)),
        (survey.CorpusConfig(dims=(4,), max_index=4), range(1, 3)),
    )
    for config, radii in inputs:
        for germ in survey.corpus_germs(config):
            for support in germ.face_table.entries:
                for radius in radii:
                    assert mld_bruteforce_oracle(germ, support, radius) == product_oracle(germ, support, radius)


def test_oracle_is_linear_in_its_radius():
    """Radius 10^5 on 1/7(1,2,4) needs 10^15 shifted points per residue in
    product form; summed per coordinate it is 3 * 10^5 terms."""
    germ = germ_cyclic_quotient(7, (1, 2, 4))
    assert mld_bruteforce_oracle(germ, full_face(3), 10**5) == mld_face(germ, full_face(3)).value


small_coeff = st.sampled_from([F(0), F(1, 3), F(1, 2), F(3, 4), F(1)])
small_gen = st.tuples(
    st.fractions(min_value=0, max_value=1, max_denominator=5),
    st.fractions(min_value=0, max_value=1, max_denominator=5),
)


@given(st.lists(small_gen, max_size=2), st.tuples(small_coeff, small_coeff), st.integers(1, 3))
def test_box_reduction_matches_bruteforce(gens, boundary, radius):
    germ = germ_normalize(lattice_from_generators(2, gens), boundary)
    for face in all_faces(2):
        assert mld_face(germ, face).value == mld_bruteforce_oracle(germ, face, radius)


@given(st.lists(small_gen, max_size=2), st.tuples(small_coeff, small_coeff))
def test_nonnegativity_and_zero_only_with_unit_coefficients(gens, boundary):
    germ = germ_normalize(lattice_from_generators(2, gens), boundary)
    value = mld_global(germ).value
    assert value >= 0
    if all(b < 1 for b in boundary):
        assert value > 0


def test_single_coordinate_face_is_one_minus_b():
    germ = ToricGerm(std(3), (F(1, 2), F(2, 3), F(1)))
    for i in range(1, 4):
        assert mld_face(germ, (i,)).value == 1 - germ.boundary[i - 1]


# -- the P_x family -------------------------------------------------------------------


def test_px_formula_examples():
    assert px_mld_formula((F(1, 2), F(1, 2))) == 1
    assert px_mld_formula((F(1, 2), F(1, 4))) == F(3, 4)
    assert px_mld_formula((1, 1, 1, 1)) == 4


def px_fraction_scan(x):
    """min over n = 0..q-1 of sum_i (1 + n x_i - ceil(n x_i)), in Fractions."""
    q = lcm(*(F(c).denominator for c in x))
    return min(sum((1 + n * c - ceil(n * c) for c in x), start=F(0)) for n in range(q))


def test_px_formula_matches_engine_on_random_points():
    rng = random.Random(20260810)
    for _ in range(60):
        d = rng.randint(1, 4)
        x = tuple(F(rng.randint(1, q), q) for q in [rng.randint(1, 12) for _ in range(d)])
        germ, scales = germ_from_px(x)
        assert px_mld_formula(x) == mld_face(germ, full_face(d)).value == px_fraction_scan(x)
        lat = lattice_from_generators(d, [x])
        assert scales == lat.unit_scales


def px_scales_by_gcd(x):
    """The oracle for the scales of ``germ_from_px``: with q*x integral,
    n_j = gcd(q, q x_i for i != j) / gcd(q, q x), whatever such q is taken."""
    q = lcm(*(F(c).denominator for c in x))
    qx = [int(c * q) for c in x]
    return tuple(gcd(q, *qx[:j], *qx[j + 1 :]) // gcd(q, *qx) for j in range(len(x)))


def test_px_scales_match_the_gcd_formula():
    """The scales are ``Lattice.unit_scales``; the gcd formula is their
    independent oracle, on the points of the px tests and on random ones."""
    points = [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)), (1, 1, 1), (1, 1, 1, 1), (F(1, 3), F(3, 4)), (F(1, 5), F(1, 3))]
    rng = random.Random(20260810)  # the points of the random px test first, then larger ones
    for size, top, dmax in [(60, 12, 4), (200, 30, 5)]:
        for _ in range(size):
            d = rng.randint(1, dmax)
            points.append(tuple(F(rng.randint(1, q), q) for q in [rng.randint(1, top) for _ in range(d)]))
    for x in points:
        germ, scales = germ_from_px(x)
        assert scales == px_scales_by_gcd(x) == lattice_from_generators(len(x), [x]).unit_scales, x
        assert germ.boundary == tuple(1 - F(1, n) for n in scales), x


def test_px_formula_above_the_table_cap_raises_before_the_scan(monkeypatch):
    """q is the index of Z^d + Z*x; past the cap the scan is refused."""
    import toricmld.germ as germ_mod

    monkeypatch.setattr(germ_mod, "TABLE_CAP", 12)
    assert px_mld_formula((F(1, 3), F(3, 4))) == px_fraction_scan((F(1, 3), F(3, 4)))
    with pytest.raises(ResourceLimit, match="exceeds the cap 12"):
        px_mld_formula((F(1, 5), F(1, 3)))


def test_px_formula_refuses_the_empty_point_as_the_germ_does():
    """``px_mld_formula([])`` returned 0 while ``germ_from_px([])`` refused it.
    Both refuse a coordinate outside (0,1] with the same message too."""
    for call in (px_mld_formula, germ_from_px):
        with pytest.raises(InputError, match="empty vector"):
            call([])
        with pytest.raises(InputError, match=r"coordinate 3/2 outside \(0,1\]"):
            call((F(3, 2), F(1, 2)))


# -- dilation verifier ------------------------------------------------------------------


def test_minkowski_examples():
    assert verify_minkowski(germ_cyclic_quotient(2, (1, 1)), 1, F(1, 10))
    assert verify_minkowski(germ_cyclic_quotient(5, (1, 2, 3)), F(6, 5), F(1, 10))
    assert verify_minkowski(ToricGerm(std(2), (0, 0)), 2, F(1, 10))
    # sharpness on both sides
    assert not verify_minkowski(germ_cyclic_quotient(2, (1, 1)), F(11, 10), F(1, 10))
    assert not verify_minkowski(germ_cyclic_quotient(2, (1, 1)), F(1, 2), F(1, 10))


def test_minkowski_at_the_point_minimum_exactly():
    """Rows are weighed in integers and compared with t den wd = p / q as
    v q against p: both dilates are open, so t exactly at the point minimum
    m passes and t + delta exactly at m fails.  Here den wd = 30, so the
    least row value is 18 = m den wd, and (m - delta) den wd is not an
    integer."""
    germ = ToricGerm(germ_cyclic_quotient(5, (1, 2, 3)).lattice, (0, F(1, 2), F(2, 3)))
    m = mld_face(germ, full_face(3)).value
    assert (m, germ.face_table.scale) == (F(3, 5), 30)
    delta, eps = F(1, 7), F(1, 10**6)
    assert verify_minkowski(germ, m, delta)
    assert not verify_minkowski(germ, m + eps, delta)
    assert not verify_minkowski(germ, m - delta, delta)
    assert verify_minkowski(germ, m - delta + eps, delta)


# -- the Cartier index -------------------------------------------------------------------


def test_cartier_examples():
    assert cartier_index(ToricGerm(std(4), (0,) * 4)) == 1
    assert cartier_index(germ_cyclic_quotient(3, (1, 1))) == 3
    quarter = ToricGerm(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]), (0, 0, 0))
    assert cartier_index(quarter) == 2


def test_cartier_guard_reads_den(monkeypatch):
    """The weight's dual order must divide den, the exponent of N/Z^d, not
    only the index: here the index is 4 and den 2, so an order of 4 is refused."""
    lat = Lattice.from_generators(3, [(F(1, 2), F(1, 2), 0), (0, F(1, 2), F(1, 2))])
    assert (lat.index, lat.den, lat.unit_scales) == (4, 2, (1, 1, 1))
    germ = ToricGerm(lat, (0, 0, 0))
    monkeypatch.setattr(Lattice, "dual_order", lambda self, m: 4)
    with pytest.raises(ModelViolation, match="must divide den"):
        cartier_index(germ)


def cartier_by_divisors(germ):
    """Smallest r >= 1 with r * (1 - b) in the dual lattice, by trying
    wd * k for each divisor k of the index in turn."""
    wn, wd = germ._weight_ints
    for k in _divisors(germ.lattice.index):
        if germ.lattice.dual_contains_int([k * c for c in wn]):
            return wd * k
    raise ModelViolation("order of the weight vector must divide the index")


def test_cartier_order_matches_the_divisor_scan(corpus_germs):
    for germ in corpus_germs:
        assert cartier_index(germ) == cartier_by_divisors(germ), germ
    coeffs = [F(0), F(1, 2), F(2, 3), F(1)]
    for lat in enumerate_superlattices(4, 4):
        for b in product(coeffs, repeat=4):
            germ = ToricGerm(lat, b)
            assert cartier_index(germ) == cartier_by_divisors(germ), germ


@given(st.lists(small_gen, max_size=2), st.tuples(small_coeff, small_coeff))
def test_cartier_clears_every_face_value(gens, boundary):
    germ = germ_normalize(lattice_from_generators(2, gens), boundary)
    r = cartier_index(germ)
    for face in all_faces(2):
        assert (r * mld_face(germ, face).value).denominator == 1


# -- exactness with large weight denominators --------------------------------------------


def lift_minimum(germ, face):
    """Pure-Fraction face minimum over the coset representatives lifted into
    the unit box (zeros off the support, zeros on the support raised to 1),
    with its sorted minimizers."""
    on = {i - 1 for i in face.support}
    lifts = []
    for rep in germ.lattice.coset_table.reps:
        if any(c for j, c in enumerate(rep) if j not in on):
            continue
        lifts.append(tuple(F(1) if j in on and c == 0 else c for j, c in enumerate(rep)))
    value = min(germ.log_discrepancy(x) for x in lifts)
    return value, tuple(sorted(x for x in lifts if germ.log_discrepancy(x) == value))


def corpus_to_index_six():
    coeffs = [F(0), F(1, 2), F(2, 3), F(1)]
    for d in (1, 2, 3):
        for lat in enumerate_superlattices(d, 6):
            for b in product(coeffs, repeat=d):
                yield ToricGerm(lat, b)


# 1/101(1,37,63) with weight denominators near 2^29 overflowed int64 in the
# candidate products (the point minimum came out near -0.267); near 2^40 the
# weights themselves no longer fit and raised OverflowError.  The corpus case
# holds the integer face table to the Fraction lifts on every germ.
@pytest.mark.parametrize(
    "q1,q2", [(2**29 - 3, 2**29 + 11), (2**40 - 87, 2**40 + 15), pytest.param(None, None, id="corpus-to-index-6")]
)
def test_large_weight_denominators_stay_exact(q1, q2):
    if q1 is None:
        germs = corpus_to_index_six()
    else:
        germs = [ToricGerm(germ_cyclic_quotient(101, (1, 37, 63)).lattice, (F(1, q1), F(1, q2), 0))]
    for germ in germs:
        for face in all_faces(germ.dim):
            rep = mld_face(germ, face)
            assert (rep.value, rep.witnesses) == lift_minimum(germ, face), (germ, face)
    if q1 is None:
        return
    for face in all_faces(3):
        assert mld_bruteforce_oracle(germ, face, 2) == lift_minimum(germ, face)[0]
    point = lift_minimum(germ, full_face(3))[0]
    assert 0 < point < 1
    assert verify_minkowski(germ, point, F(1, 7))
    assert not verify_minkowski(germ, point + F(1, 10**6), F(1, 7))


@given(
    st.sampled_from([(5, (1, 2, 3)), (7, (1, 2, 4)), (11, (1, 3, 7)), (13, (1, 5, 7))]),
    st.lists(st.integers(2**28, 2**45), min_size=3, max_size=3),
)
def test_random_large_denominators_match_lift_minimum(quotient, dens):
    q, a = quotient
    germ = ToricGerm(germ_cyclic_quotient(q, a).lattice, tuple(F(1, n) for n in dens))
    for face in all_faces(3):
        rep = mld_face(germ, face)
        assert (rep.value, rep.witnesses) == lift_minimum(germ, face)
