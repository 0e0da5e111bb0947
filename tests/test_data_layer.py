"""The per-lattice and per-germ data layer: every datum cached on a
``Lattice`` or a ``ToricGerm`` is a named field computed once, and nothing
keyed on user input is kept."""
from fractions import Fraction as F
from functools import cached_property
from itertools import product

from toricmld.flat import FlatState, build_flat_structure, state_value
from toricmld.germ import ToricGerm, germ_cyclic_quotient, verify_minkowski
from toricmld.lattice import Lattice, lattice_from_generators
from toricmld.newton import dual_hilbert_basis, lct_general_member, lct_newton, newton_poly_from_exponents
from toricmld.survey import _check_germ, _survey_row

GERM_FIELDS = {
    "lattice",
    "boundary",
    "_weight_ints",
    "face_table",
}
LATTICE_FIELDS = {
    "dim",
    "den",
    "int_rows",
    "is_superlattice",
    "dual_int_basis",
    "unit_scales",
    "rep_ints",
    "box_candidates",
    "member_rows",
    "ray_orders",
    "hilbert_basis",
    "newton_generators",
    "interior_multiplicities",
    "threshold_vertices",
    "restrictions",
}


def test_cached_fields_are_named_and_do_not_grow_with_calls():
    lat = lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))])
    germ = ToricGerm(lat, (0, F(1, 2), 1))
    first, second = dual_hilbert_basis(germ)[:2]

    def run(ks):
        build_flat_structure(germ)
        _survey_row(germ)
        assert _check_germ(germ) == []
        for k in ks:
            lct_newton(newton_poly_from_exponents(germ, [tuple(k * c for c in first), second]))

    run(range(1, 51))
    before = {(id(obj), name): (value, repr(value)) for obj in (germ, lat) for name, value in vars(obj).items()}
    run(range(51, 101))
    assert set(vars(germ)) == GERM_FIELDS
    assert set(vars(lat)) == LATTICE_FIELDS
    after = {(id(obj), name): value for obj in (germ, lat) for name, value in vars(obj).items()}
    assert after.keys() == before.keys()
    for key, value in after.items():
        assert value is before[key][0] and repr(value) == before[key][1], key


def test_only_the_general_member_report_builds_the_whole_basis():
    """The survey row, ``check``, the flat builder and ``state_value`` read
    the general member off ``newton_generators`` and leave ``hilbert_basis``
    unbuilt; ``lct_general_member``, which prints a weight per basis
    element, builds it."""
    gens = [(F(1, 4), F(2, 4), F(3, 4))]

    def value(germ):
        return state_value(FlatState(germ, (F(1, 2),)), (1, 1, 1))

    for run in (_survey_row, _check_germ, build_flat_structure, value):
        lat = lattice_from_generators(3, gens)
        run(ToricGerm(lat, (0, F(1, 2), 1)))
        assert "newton_generators" in vars(lat) and "hilbert_basis" not in vars(lat), run
    lat = lattice_from_generators(3, gens)
    lct_general_member(ToricGerm(lat, (0, F(1, 2), 1)))
    assert "hilbert_basis" in vars(lat)


def test_check_pairs_the_box_candidates_once_per_lattice(monkeypatch):
    """Checking all 4^d boundaries of one lattice builds ``member_rows`` once:
    every germ reads the same object."""
    real, built = Lattice.member_rows.func, []
    counted = cached_property(lambda lat: built.append(real(lat)) or built[-1])
    counted.__set_name__(Lattice, "member_rows")
    monkeypatch.setattr(Lattice, "member_rows", counted)
    lat = lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))])
    seen = []
    for b in product((0, F(1, 2), F(2, 3), 1), repeat=3):
        assert _check_germ(ToricGerm(lat, b)) == []
        seen.append(vars(lat)["member_rows"])
    assert len(built) == 1 and len(seen) == 64 and all(rows is built[0] for rows in seen)


def test_verify_minkowski_builds_no_box_table():
    """The dilation is decided on the full face's value from the residue walk."""
    germ = germ_cyclic_quotient(5, (1, 2, 3))
    assert verify_minkowski(germ, F(6, 5), F(1, 10))
    assert not verify_minkowski(germ, F(6, 5) + F(1, 100), F(1, 10))
    assert "rep_ints" in vars(germ.lattice) and "box_candidates" not in vars(germ.lattice)
