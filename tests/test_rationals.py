from fractions import Fraction as F

import pytest

import toricmld
from toricmld.errors import DimensionMismatch, InputError, MalformedRational
from toricmld.rationals import common_denominator, integer, qvec, qvec_str, rat, rat_str, row_str, scaled_int_vector


def test_rat_parsing():
    assert rat("1/3") == F(1, 3)
    assert rat("-7") == -7
    assert rat(" 2/4 ") == F(1, 2)
    assert rat(F(5, 10)) == F(1, 2)
    assert rat(3) == 3


@pytest.mark.parametrize(
    "bad", ["0.5", "1e3", "1/0", "a/b", "1/-2", "", None, 1.5, pytest.param("1/" + "1" * 5000, id="5000-digits")]
)
def test_rat_rejects(bad):
    with pytest.raises(MalformedRational):
        rat(bad)


def test_rat_str_round_trip():
    for value in [F(0), F(5), F(-3, 7), F(22, 4)]:
        assert rat(rat_str(value)) == value


def test_rat_str_reads_through_rat():
    """A float printed its binary expansion, 0.1 as 3602879701896397/36028797018963968."""
    assert rat_str(3) == "3" and rat_str("2/4") == "1/2"
    with pytest.raises(MalformedRational):
        rat_str(0.1)


def test_integer_accepts_ints_only():
    assert integer(-4, "n") == -4
    for bad in (1.0, 1.5, True, "1", None, F(2)):
        with pytest.raises(InputError):
            integer(bad, "n")


def test_qvec_dim_check():
    with pytest.raises(DimensionMismatch):
        qvec(["1", "2"], 3)


def test_denominator_clearing():
    vecs = [(F(1, 2), F(1, 3)), (F(1, 4),)]
    den = common_denominator(vecs)
    assert den == 12
    assert scaled_int_vector(vecs[0], den) == (6, 4)
    with pytest.raises(ValueError):
        scaled_int_vector((F(1, 5),), 12)


def _cyclic():
    return toricmld.germ_cyclic_quotient(5, (1, 2, 3))


INTEGER_ARGUMENTS = {
    "cyclic-quotient-weight": lambda: toricmld.germ_cyclic_quotient(5, (1.5, 2, 3)),
    "cyclic-quotient-order": lambda: toricmld.germ_cyclic_quotient(2.5, (1, 1)),
    "face-float": lambda: toricmld.mld_face(_cyclic(), [1.7, 2]),
    "face-string": lambda: toricmld.mld_face(_cyclic(), ["1"]),
    "face-letter": lambda: toricmld.mld_face(_cyclic(), ["a"]),
    "fermat-degree": lambda: toricmld.lct_fermat(2, (0, 0), (2.5, 3)),
    "state-divisor": lambda: toricmld.state_value(toricmld.FlatState(_cyclic(), (F(1, 2),)), (0, 0, 0), [1.5]),
    "survey-jobs": lambda: toricmld.run_survey(2, 3, [0], jobs=1.5),
    "survey-dim": lambda: toricmld.run_survey(None, 3, [0]),
    "lattice-rows-dim": lambda: toricmld.Lattice.from_rows(None, [[1, 0]]),
    "projection-coordinate": lambda: toricmld.project_drop_coord(toricmld.Lattice.standard(3), 1.5),
    "dual-order-string": lambda: _cyclic().lattice.dual_order(["1", 2, 3]),
    "dual-order-float": lambda: _cyclic().lattice.dual_order((1.5, 2, 3)),
    "dual-contains-string": lambda: _cyclic().lattice.dual_contains_int((1, "2", 3)),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_are_checked_not_truncated(call):
    """Each call truncated its argument (1.5 to 1, "1" to 1) and returned a
    value, or raised TypeError or a bare ValueError."""
    with pytest.raises(InputError, match="must be an integer"):
        call()


NON_ITERABLE_VECTORS = {
    "germ-boundary": lambda: toricmld.ToricGerm(toricmld.Lattice.standard(2), 5),
    "state-coefficients": lambda: toricmld.FlatState(toricmld.ToricGerm(toricmld.Lattice.standard(2), (0, 0)), 5),
    "newton-exponent": lambda: toricmld.newton_poly_from_exponents(_cyclic(), [5]),
    "newton-exponents": lambda: toricmld.newton_poly_from_exponents(_cyclic(), 5),
    "qvec": lambda: qvec(5),
    "lattice-rows": lambda: toricmld.Lattice.from_rows(2, [5, (0, 1)]),
    "dual-order": lambda: _cyclic().lattice.dual_order(5),
    "dual-contains": lambda: _cyclic().lattice.dual_contains_int(5),
    "germ-boundary-string": lambda: toricmld.ToricGerm(toricmld.Lattice.standard(3), "011"),
    "px-point-string": lambda: toricmld.germ_from_px("11"),
    "px-formula-string": lambda: toricmld.px_mld_formula("11"),
    "qvec-string": lambda: qvec("12"),
    "lattice-rows-string": lambda: toricmld.Lattice.from_rows(2, ["10", "01"]),
    "monomial-string": lambda: toricmld.lct_monomial(_cyclic(), "500"),
    "lattice-contains-string": lambda: toricmld.lattice_contains(_cyclic().lattice, "000"),
}


@pytest.mark.parametrize("call", NON_ITERABLE_VECTORS.values(), ids=NON_ITERABLE_VECTORS.keys())
def test_a_vector_that_cannot_be_iterated_is_an_input_error(call):
    """Each raised TypeError, which the command line reports as an internal
    error (exit 3), or, for a string, read its characters as one-digit
    entries: "011" was the boundary (0, 1, 1)."""
    with pytest.raises(InputError, match="must be a collection"):
        call()


NON_COLLECTION_ARGUMENTS = {
    "fermat-degrees": lambda: toricmld.lct_fermat(2, [0, 0], 5),
    "cyclic-quotient-weights": lambda: toricmld.germ_cyclic_quotient(3, 5),
    "lattice-rows": lambda: toricmld.Lattice.from_rows(2, 5),
    "lattice-generators": lambda: toricmld.Lattice.from_generators(2, 5),
    "corpus-dims": lambda: toricmld.CorpusConfig(dims=5),
    "corpus-boundary-set": lambda: toricmld.CorpusConfig(boundary_set=5),
    "survey-boundary-set": lambda: toricmld.run_survey(2, 2, 5),
    "state-divisors": lambda: toricmld.state_value(toricmld.FlatState(_cyclic(), (F(1, 2),)), (0, 0, 0), 5),
    "acc-report-rows": lambda: toricmld.acc_report(5),
    "corpus-germs": lambda: toricmld.verify_corpus(toricmld.CorpusConfig(), 5),
    "survey-boundary-set-string": lambda: toricmld.run_survey(2, 3, "01"),
    "corpus-germs-string": lambda: toricmld.verify_corpus(toricmld.CorpusConfig(), germs="ab"),
}


@pytest.mark.parametrize("call", NON_COLLECTION_ARGUMENTS.values(), ids=NON_COLLECTION_ARGUMENTS.keys())
def test_a_collection_argument_that_cannot_be_iterated_is_an_input_error(call):
    """Each raised TypeError ("'int' object is not iterable"); the command
    line passes lists, so only a library caller could reach it.  A string
    was split into characters: the boundary set "01" surveyed {0, 1}."""
    with pytest.raises(InputError, match="must be a collection"):
        call()


WRONG_TYPE_ARGUMENTS = {
    "germ-lattice": lambda: toricmld.ToricGerm(5, (0,)),
    "state-germ": lambda: toricmld.FlatState(5, ()),
    "flat-germ": lambda: toricmld.build_flat_structure(5),
    "acc-report-row": lambda: toricmld.acc_report([5]),
    "normalize-lattice": lambda: toricmld.germ_normalize(5, (0, 0)),
    "cartier-germ": lambda: toricmld.cartier_index(5),
    "valuation-germ": lambda: toricmld.log_discrepancy_of_valuation(5, (1, 1)),
    "oracle-germ": lambda: toricmld.mld_bruteforce_oracle(5, (1, 2), 1),
    "face-germ": lambda: toricmld.mld_face(5, (1, 2)),
    "global-germ": lambda: toricmld.mld_global(5),
    "minkowski-germ": lambda: toricmld.verify_minkowski(5, 1, 1),
    "adjoin-germ": lambda: toricmld.adjoin_invariant_divisor(5, 1),
    "inversion-germ": lambda: toricmld.check_precise_inversion(5, 1),
    "semicontinuity-germ": lambda: toricmld.check_lower_semicontinuity(5),
    "shokurov-germ": lambda: toricmld.check_shokurov_bounds(5),
    "hilbert-basis-germ": lambda: toricmld.dual_hilbert_basis(5),
    "general-member-germ": lambda: toricmld.lct_general_member(5),
    "monomial-germ": lambda: toricmld.lct_monomial(5, (1, 1)),
    "exponents-germ": lambda: toricmld.newton_poly_from_exponents(5, [(3, 0)]),
    "mu-poly": lambda: toricmld.first_intersection_mu(5),
    "newton-poly": lambda: toricmld.lct_newton(5),
    "poly-germ": lambda: toricmld.lct_newton(toricmld.NewtonPoly(5, ())),
    "poly-exponents": lambda: toricmld.first_intersection_mu(toricmld.NewtonPoly(_cyclic(), 5)),
    "valuation-bound-poly": lambda: toricmld.lct_upper_bound_from_valuation(5, (1, 1)),
    "state-value-state": lambda: toricmld.state_value(5, (1, 1), (1,)),
    "threshold-state": lambda: toricmld.threshold_step(5),
    "center-state": lambda: toricmld.minimal_center(5),
    "serialize-germ": lambda: toricmld.serialize_germ(5),
    "corpus-config": lambda: toricmld.verify_corpus(5),
    "corpus-germ": lambda: toricmld.verify_corpus(toricmld.CorpusConfig(), germs=[5]),
}


@pytest.mark.parametrize("call", WRONG_TYPE_ARGUMENTS.values(), ids=WRONG_TYPE_ARGUMENTS.keys())
def test_an_argument_of_the_wrong_type_is_an_input_error(call):
    """The state was accepted; the others raised AttributeError (a Newton
    polyhedron's exponents, TypeError), which the command line would report
    as an internal error (exit 3).  Every type is checked by one helper,
    ``rationals.instance``, whatever the argument's position; the exponents
    are checked by ``NewtonPoly`` itself."""
    with pytest.raises(InputError, match="got 5"):
        call()


WRONG_LENGTH_VECTORS = {
    "dual-contains-short": lambda: _cyclic().lattice.dual_contains_int((5,)),
    "dual-order-short": lambda: _cyclic().lattice.dual_order((1,)),
    "dual-order-long": lambda: _cyclic().lattice.dual_order((1, 2, 3, 4)),
}


@pytest.mark.parametrize("call", WRONG_LENGTH_VECTORS.values(), ids=WRONG_LENGTH_VECTORS.keys())
def test_a_vector_of_the_wrong_length_is_a_dimension_mismatch(call):
    """``zip`` truncated each vector to the shorter side and the call gave a
    wrong answer: on 1/5(1,2,3), (5,) was in the dual and (1,) of order 5."""
    with pytest.raises(DimensionMismatch, match="expected a vector of length 3"):
        call()


NON_BOOLEAN_FLAGS = {
    "survey-mod-permutations-string": lambda: toricmld.run_survey(2, 2, [0], mod_permutations="yes"),
    "survey-mod-permutations-zero": lambda: toricmld.run_survey(2, 2, [0], mod_permutations=0),
    "corpus-fail-fast": lambda: toricmld.CorpusConfig(fail_fast=1),
}


@pytest.mark.parametrize("call", NON_BOOLEAN_FLAGS.values(), ids=NON_BOOLEAN_FLAGS.keys())
def test_a_flag_that_is_not_a_bool_is_an_input_error(call):
    """The survey ran "yes" as true and 0 as false."""
    with pytest.raises(InputError, match="must be true or false"):
        call()


@pytest.mark.parametrize("den", range(1, 13))
def test_row_str_writes_the_row_over_den(den):
    """``row_str`` is ``qvec_str`` of row / den, reduced entry by entry, on
    rows with zero, negative and multi-digit entries."""
    rows = [(), (0,), (0, 0, 0), (1, -1, den), (-den, 2 * den, 7), (12, -36, 120, 1001), (-123456789, 0, 60, -5)]
    for row in rows:
        assert row_str(row, den) == qvec_str(tuple(F(c, den) for c in row)), row
