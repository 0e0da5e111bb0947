import dataclasses
import pickle
from fractions import Fraction, Fraction as F
from hashlib import sha256
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from toricmld.errors import InputError, ModelViolation, NotInLattice, ResourceLimit
from toricmld.lattice import (
    TABLE_CAP,
    Lattice,
    _divisors,
    _ordered_factorizations,
    coset_reps,
    dual_lattice,
    enumerate_superlattices,
    hnf,
    lattice_contains,
    lattice_from_generators,
    lattice_index,
    primitive_scale,
    project_drop_coord,
    xgcd,
)
from toricmld.rationals import rat_str


def frac(num, den=1):
    return F(num, den)


def _invert(matrix):
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise InputError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_dual(lat):
    """The dual as the rows of the inverse-transpose, in Fractions."""
    inv = _invert([list(row) for row in lat.basis])
    return Lattice.from_rows(lat.dim, [[inv[i][j] for i in range(lat.dim)] for j in range(lat.dim)])


def unit_scales_one_by_one(lat):
    return tuple(primitive_scale(lat, tuple(F(int(i == j)) for j in range(lat.dim))) for i in range(lat.dim))


def outcome(fn):
    """The value of fn(), or the type of the input error it raised."""
    try:
        return fn()
    except InputError as exc:
        return type(exc)


def assert_matches_fraction_oracles(lat):
    """Dual and unit scales against Fraction inversion and per-vector
    primitive scales; on a lattice missing Z^d both must raise alike."""
    assert lat.dual == fraction_dual(lat), lat
    assert outcome(lambda: lat.unit_scales) == outcome(lambda: unit_scales_one_by_one(lat)), lat


# -- small exact helpers -----------------------------------------------------


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, s, t = xgcd(a, b)
    assert g >= 0
    assert s * a + t * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def test_hnf_canonical_shape():
    rows = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
    for i, row in enumerate(rows):
        piv_col = next(j for j, v in enumerate(row) if v)
        assert row[piv_col] > 0
        for r in range(i):
            assert 0 <= rows[r][piv_col] < row[piv_col]


# -- construction and canonical form ------------------------------------------


def test_examples_from_generators():
    assert lattice_from_generators(2, []).index == 1
    assert lattice_from_generators(2, [(F(1, 3), F(2, 3))]).index == 3
    assert lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]).index == 4


def test_repr_writes_the_basis_rows():
    lat = Lattice.from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))])
    assert repr(lat) == "Lattice(dim=3, basis=[(1/4,1/2,3/4);(0,1,0);(0,0,1)])"


def test_wrong_dimension_generator():
    with pytest.raises(InputError):
        lattice_from_generators(2, [(F(1, 2),)])


small_rats = st.fractions(min_value=-2, max_value=2, max_denominator=6)
gen_lists = st.lists(st.tuples(small_rats, small_rats), min_size=0, max_size=3)


@given(gen_lists, st.randoms(use_true_random=False))
def test_canonical_form_unique_under_representation(gens, rng):
    lat = lattice_from_generators(2, gens)
    # re-present: shuffle, add redundant combinations of generators and units
    regen = [list(g) for g in gens]
    if gens:
        a, b = rng.choice(gens), rng.choice(gens)
        regen.append([a[0] + b[0] + 1, a[1] + b[1] - 2])
    rng.shuffle(regen)
    assert lattice_from_generators(2, regen).basis == lat.basis


@given(gen_lists)
def test_contains_agrees_with_coset_reps(gens):
    lat = lattice_from_generators(2, gens)
    assert lat.rep_ints == closure_residues(lat)
    reps = set(coset_reps(lat).reps)
    for num1 in range(-3, 4):
        for num2 in range(-3, 4):
            x = (F(num1, 2), F(num2, 3))
            frac_part = tuple(c - (c.numerator // c.denominator) for c in x)
            assert lattice_contains(lat, x) == (frac_part in reps)


def test_membership_examples():
    lat = lattice_from_generators(2, [(F(1, 3), F(2, 3))])
    assert lattice_contains(lat, (F(2, 3), F(1, 3)))
    assert not lattice_contains(lat, (F(1, 3), F(1, 3)))
    assert not lattice_contains(lattice_from_generators(2, []), (F(1, 2), 0))


def test_coset_reps_examples():
    assert coset_reps(lattice_from_generators(3, [])).reps == ((F(0), F(0), F(0)),)
    a2 = coset_reps(lattice_from_generators(2, [(F(1, 3), F(2, 3))]))
    assert a2.reps == (
        (F(0), F(0)),
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1, 3)),
    )
    four = coset_reps(lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))]))
    assert len(four.reps) == 4 and (F(0), F(0), F(0)) in four.reps


def test_index_equals_coset_count():
    for gens in ([], [(F(1, 3), F(2, 3))], [(F(1, 2), F(1, 4))]):
        lat = lattice_from_generators(2, gens)
        assert lattice_index(lat) == len(coset_reps(lat).reps)


def closure_residues(lat):
    """Reference coset residues: the additive closure of the rows of
    ``int_rows`` mod den, by search."""
    den = lat.den
    gens = [tuple(x % den for x in row) for row in lat.int_rows]
    zero = (0,) * lat.dim
    seen, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % den for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def test_pivot_cosets_and_index_match_the_closure_and_the_determinant():
    """On every lattice of d <= 3 to index 20 and of d = 4 to index 8, the
    residues read off the Hermite pivots are the closure of the rows, there
    are ``index`` of them, and ``index`` is 1/det."""
    for d, max_index in ((1, 20), (2, 20), (3, 20), (4, 8)):
        for lat in enumerate_superlattices(d, max_index):
            assert lat.rep_ints == closure_residues(lat), lat
            assert len(lat.rep_ints) == lat.index == (1 / lat.det).numerator, lat


def test_index_and_cosets_require_a_superlattice():
    half = Lattice.from_rows(2, [(2, 0), (0, 1)])
    unimodular = Lattice.from_rows(2, [(F(1, 2), 0), (0, 2)])
    for lat in (half, unimodular):
        with pytest.raises(InputError, match="contain"):
            lat.index
        with pytest.raises(InputError, match="contain"):
            lat.rep_ints


def test_coset_table_above_the_cap_raises_before_building():
    """The index is checked against ``TABLE_CAP`` before any residue is
    enumerated; 1/1000003(1,2,5) stays inside the cap and
    1/10000019(1,2,5) does not."""
    assert 1000003 <= TABLE_CAP < 10000019
    q = 10000019
    lat = lattice_from_generators(3, [(F(1, q), F(2, q), F(5, q))])
    assert lat.index == q
    with pytest.raises(ResourceLimit, match="exceeds the cap"):
        lat.rep_ints
    with pytest.raises(ResourceLimit, match="exceeds the cap"):
        coset_reps(lat)
    assert "rep_ints" not in lat.__dict__ and "box_candidates" not in lat.__dict__


# -- primitive scales ----------------------------------------------------------


def test_primitive_scale_examples():
    assert primitive_scale(lattice_from_generators(2, []), (1, 0)) == 1
    assert primitive_scale(lattice_from_generators(2, [(F(1, 2), F(1, 4))]), (0, 1)) == 2
    assert primitive_scale(lattice_from_generators(2, [(F(1, 2), 0)]), (1, 0)) == 2


def test_primitive_scale_errors():
    lat = lattice_from_generators(2, [])
    with pytest.raises(InputError):
        primitive_scale(lat, (0, 0))
    with pytest.raises(NotInLattice):
        primitive_scale(lat, (F(1, 2), 0))


@given(gen_lists, st.integers(1, 5))
def test_primitive_scale_scales_multiples(gens, k):
    lat = lattice_from_generators(2, gens)
    x = (F(1), F(1))
    scale = primitive_scale(lat, x)
    prim = tuple(c / scale for c in x)
    assert primitive_scale(lat, tuple(k * c for c in prim)) == k


# -- duals ----------------------------------------------------------------------


def test_dual_standard():
    std = lattice_from_generators(2, [])
    assert dual_lattice(std) == std


@pytest.mark.parametrize(
    "gens,congruence",
    [
        ([(F(1, 2), F(1, 2))], lambda m: (m[0] + m[1]) % 2 == 0),
        ([(F(1, 4), F(2, 4), F(3, 4))], lambda m: (m[0] + 2 * m[1] + 3 * m[2]) % 4 == 0),
    ],
)
def test_dual_membership_matches_pairing_congruence(gens, congruence):
    lat = lattice_from_generators(len(gens[0]), gens)
    dual = dual_lattice(lat)
    for m in product(range(-4, 5), repeat=lat.dim):
        assert dual.contains(m) == congruence(m)


@given(gen_lists)
def test_double_dual_and_index(gens):
    lat = lattice_from_generators(2, gens)
    dual = dual_lattice(lat)
    assert dual_lattice(dual) == lat
    assert dual.det == lat.index  # [Z^d : M] = [N : Z^d]
    # units need not be primitive in lat; the dual misses Z^2 unless lat is Z^2
    assert_matches_fraction_oracles(lat)
    assert_matches_fraction_oracles(dual)


def test_integer_dual_basis_spans_the_dual(corpus_lattices):
    for d in (1, 2, 3):
        for lat in corpus_lattices[d]:
            cols = lat.dual_int_basis
            assert Lattice.from_rows(d, cols) == lat.dual, lat
            assert all(col[j] > 0 and not any(col[j + 1 :]) for j, col in enumerate(cols))
            assert_matches_fraction_oracles(lat)
            assert_matches_fraction_oracles(lat.dual)
    with pytest.raises(InputError):
        Lattice.from_rows(2, [(2, 0), (0, 1)]).dual_int_basis  # 2Z x Z misses e_1


# -- projection -------------------------------------------------------------------


def test_project_examples():
    assert project_drop_coord(lattice_from_generators(3, []), 2) == lattice_from_generators(2, [])
    half = lattice_from_generators(3, [(F(1, 2), F(1, 2), F(1, 2))])
    assert project_drop_coord(half, 3) == lattice_from_generators(2, [(F(1, 2), F(1, 2))])
    quarter = lattice_from_generators(3, [(F(1, 4), F(2, 4), F(3, 4))])
    assert project_drop_coord(quarter, 3) == lattice_from_generators(2, [(F(1, 4), F(1, 2))])


@pytest.mark.parametrize(
    "call",
    [
        lattice_index,
        lambda lat: lattice_contains(lat, (0, 0)),
        lambda lat: primitive_scale(lat, (1, 0)),
        coset_reps,
        dual_lattice,
        lambda lat: project_drop_coord(lat, 1),
    ],
    ids=["lattice_index", "lattice_contains", "primitive_scale", "coset_reps", "dual_lattice", "project_drop_coord"],
)
@pytest.mark.parametrize("lat", ["x", None, ((1, 0), (0, 1))])
def test_the_lattice_wrappers_refuse_what_is_not_a_lattice(call, lat):
    """``lattice_index("x")`` returned the bound method ``str.index``, and
    the others raised ``AttributeError``."""
    with pytest.raises(InputError, match="expected a Lattice"):
        call(lat)


# -- superlattice enumeration ------------------------------------------------------


def test_enumerate_superlattices_examples():
    assert [l.basis for l in enumerate_superlattices(2, 1)] == [lattice_from_generators(2, []).basis]
    two = enumerate_superlattices(2, 2)
    assert [l.index for l in two] == [1, 2]
    assert two[1] == lattice_from_generators(2, [(F(1, 2), F(1, 2))])
    three = enumerate_superlattices(2, 3)
    expected = {
        lattice_from_generators(2, []).basis,
        lattice_from_generators(2, [(F(1, 2), F(1, 2))]).basis,
        lattice_from_generators(2, [(F(1, 3), F(1, 3))]).basis,
        lattice_from_generators(2, [(F(1, 3), F(2, 3))]).basis,
    }
    assert {l.basis for l in three} == expected


def _closure_mod1(gens, cap):
    seen = {tuple(F(0) for _ in gens[0])}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % 1 for a, b in zip(cur, g))
            if nxt not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _bruteforce_superlattices(dim, max_index):
    """Independent oracle: closures of small subgroups of (Q/Z)^dim generated
    by at most dim torsion vectors of order <= max_index."""
    from math import lcm

    L = lcm(*range(1, max_index + 1))
    values = sorted({F(n, L) for n in range(L)})
    vectors = [v for v in product(values, repeat=dim)]
    found = {}
    gens_count = 1 if max_index <= 3 else 2  # groups of order <= 3 are cyclic
    for gens in product(vectors, repeat=gens_count):
        group = _closure_mod1(list(gens), max_index + 1)
        if group is None:
            continue
        lat = lattice_from_generators(dim, list(group))
        if lat.index > max_index:
            continue
        if any(lat.primitive_scale(tuple(F(int(i == j)) for j in range(dim))) != 1 for i in range(dim)):
            continue
        found[lat.basis] = lat
    return found


@pytest.mark.parametrize("dim,max_index", [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_enumeration_matches_subgroup_bruteforce(dim, max_index):
    enumerated = {l.basis for l in enumerate_superlattices(dim, max_index)}
    brute = set(_bruteforce_superlattices(dim, max_index))
    assert enumerated == brute



# sha256 of the bases of ``enumerate_superlattices(d, m)``, one lattice a line,
# rows joined by ";" and entries (``rat_str``) by ",", recorded while the
# enumeration still sorted on its Fraction bases; lattices of one index but
# different denominators meet from index 4 on.
ORDER_DIGESTS = {
    (2, 40): "03bc7a0010976ea4a8ba5f341df3b566f9b9f32ad404f2ef54d6f537664f947b",
    (3, 20): "e733e46e0cda3027bcdffeedb63bd136bd5e36d805dc8620fbcd0432efc5ff67",
    (4, 8): "0dc7cf601bcd8c8a2be1f22a5442076b3660f02b035b89178a2c9f1874bd8a08",
}


@pytest.mark.parametrize("dim,max_index", sorted(ORDER_DIGESTS))
def test_canonical_order_across_denominators_is_pinned(dim, max_index):
    text = "\n".join(
        ";".join(",".join(map(rat_str, row)) for row in lat.basis) for lat in enumerate_superlattices(dim, max_index)
    )
    assert sha256(text.encode()).hexdigest() == ORDER_DIGESTS[dim, max_index]


def test_enumeration_neither_hashes_nor_compares_a_fraction(monkeypatch):
    expected = [lat.basis for lat in enumerate_superlattices(3, 12)]

    def refused(*args):
        raise AssertionError("a Fraction was hashed or compared")

    for name in ("__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refused)
    lattices = enumerate_superlattices(3, 12)
    monkeypatch.undo()
    assert [lat.basis for lat in lattices] == expected


def test_the_enumeration_builds_each_lattice_once(monkeypatch):
    """Each candidate is keyed by the HNF of its adjugate's columns, with no
    dual built: ``Lattice._canonical`` runs once per lattice returned, and
    each holds its fields and the ``is_superlattice`` the guard has shown."""
    built, canonical = [], Lattice._canonical.__func__

    def counted(cls, *args, **known):
        built.append(args)
        return canonical(cls, *args, **known)

    monkeypatch.setattr(Lattice, "_canonical", classmethod(counted))
    lattices = enumerate_superlattices(3, 12)
    monkeypatch.undo()
    assert len(built) == len(lattices)
    assert all(set(vars(lat)) == {"dim", "den", "int_rows", "is_superlattice"} for lat in lattices)


# Corruptions of one candidate's key that each part of the guard alone refuses:
# a doubled adjugate column keeps the pairings but doubles the determinant, a
# zeroed one leaves d - 1 rows, and a raised entry above a pivot keeps the
# determinant but pairs row 0 with a row of T off a multiple of n.
GUARD_CORRUPTIONS = {
    "determinant": ("_inverse_columns", lambda cols: [[2 * x for x in cols[0]], *cols[1:]]),
    "rank": ("_inverse_columns", lambda cols: [*cols[:-1], [0] * len(cols)]),
    "pairing": ("hnf", lambda h: [[h[0][0], h[0][1] + 1, *h[0][2:]], *h[1:]]),
}


@pytest.mark.parametrize("name,corrupt", GUARD_CORRUPTIONS.values(), ids=GUARD_CORRUPTIONS.keys())
def test_the_enumeration_guard_refuses_a_key_that_is_not_the_dual(monkeypatch, name, corrupt):
    """An internal fault, not bad input: each raised ``InputError`` ("lattice
    does not contain Z^d" or "generators do not span") while a dual lattice
    was built per candidate."""
    import toricmld.lattice as lattice

    original = getattr(lattice, name)
    monkeypatch.setattr(lattice, name, lambda *args: corrupt(original(*args)))
    with pytest.raises(ModelViolation, match="duality must preserve the index"):
        enumerate_superlattices(3, 6)


def test_an_hnf_column_above_the_cap_is_refused_before_it_is_built(monkeypatch):
    """Column j of a dual HNF basis has diag_j^j candidates above its pivot:
    with the cap at 3, index 2 in dimension 3 puts 4 of them in the last
    column, and index 2 in dimension 2 only 2."""
    import toricmld.lattice as lattice

    monkeypatch.setattr(lattice, "TABLE_CAP", 3)
    assert [lat.index for lat in enumerate_superlattices(2, 3)] == [1, 2, 3, 3]
    with pytest.raises(ResourceLimit, match="HNF column of 4 candidates exceeds the cap 3"):
        enumerate_superlattices(3, 2)


def test_box_candidate_rows_are_counted_before_any_is_built(monkeypatch):
    """A residue of support m lies in the 2^(d - |m|) faces that contain m,
    the zero residue in all 2^d - 1; a lattice whose rows exceed the cap is
    refused, one whose rows meet it is built.  1/1000003(1,2,5) has 1,000,002
    full-support residues and the zero one, 1,000,009 rows in all."""
    import toricmld.lattice as lattice

    assert 1000002 + 7 <= TABLE_CAP
    lattices = [Lattice.standard(5), lattice_from_generators(3, [(F(1, 7), F(2, 7), F(5, 7))])]
    lattices += enumerate_superlattices(3, 6)
    counts = [sum(map(len, lat.box_candidates.values())) for lat in lattices]
    assert counts[:2] == [2**5 - 1, 6 + 7]
    for lat, rows in zip(lattices, counts):
        fresh = Lattice.from_rows(lat.dim, lat.basis)
        monkeypatch.setattr(lattice, "TABLE_CAP", rows - 1)
        with pytest.raises(ResourceLimit, match=f"table of {rows} rows exceeds the cap"):
            fresh.box_candidates
        monkeypatch.setattr(lattice, "TABLE_CAP", rows)
        assert fresh.box_candidates == lat.box_candidates


def test_each_face_holds_its_box_candidates_sorted():
    """``ToricGerm.face_table`` keeps a face's minimizers in the order its
    rows come, so they are sorted only if the rows are: a residue whose zeros
    are lifted to den can come after one of the same face that sorts above it."""
    lattices = [lat for d in (1, 2, 3) for lat in enumerate_superlattices(d, 12)] + enumerate_superlattices(4, 5)
    unsorted = [
        (lat, s) for lat in lattices for s, rows in lat.box_candidates.items() if list(rows) != sorted(rows)
    ]
    assert not unsorted, unsorted[:3]


# -- the constructor contract ---------------------------------------------------


@pytest.mark.parametrize(
    "basis",
    [((1, 0), (1, 1)), ((1, 1), (0, 1)), ((1, 0),), ((1, 0), (0, 1), (0, 0)), ((1, 0), (0, 1.0)), 5, ((1, 0), 5)],
    ids=["z2-not-reduced", "z2-not-echelon", "one-row", "zero-row", "float-entry", "no-rows", "no-row"],
)
def test_the_constructor_refuses_a_basis_that_is_not_canonical(basis):
    """Each was accepted: the first two are Z^2, yet neither contained (0, 1)
    or equalled ``Lattice.standard(2)``."""
    with pytest.raises(InputError, match="Lattice.from_rows"):
        Lattice(2, basis)


def test_the_constructor_keeps_every_canonical_basis():
    """Every construction route, and a pickle round trip before and after
    ``basis`` is read, gives an equal lattice with an equal hash."""
    lattices = [lat for d in (1, 2, 3) for lat in enumerate_superlattices(d, 8)]
    lattices += [lat.dual for lat in lattices]
    for lat in lattices:
        routes = [pickle.loads(pickle.dumps(lat)), Lattice(lat.dim, lat.basis), pickle.loads(pickle.dumps(lat))]
        routes.append(Lattice.from_rows(lat.dim, lat.basis[::-1]))
        if lat.is_superlattice:
            routes.append(Lattice.from_generators(lat.dim, lat.basis))
        for again in routes:
            assert again == lat and hash(again) == hash(lat), lat
            assert (again.den, again.int_rows, again.basis) == (lat.den, lat.int_rows, lat.basis), lat
    integral = Lattice(2, ((1, 0), (0, 1)))
    assert integral == Lattice.standard(2) and hash(integral) == hash(Lattice.standard(2))
    assert integral.contains((0, 1)) and integral.is_superlattice


def test_the_constructor_reads_a_one_shot_basis_once():
    """A canonical basis given as an iterator, of rows that are iterators too,
    is accepted; the basis was read twice, and the second read found it empty."""
    lat = Lattice(2, (iter(r) for r in ((1, 0), (0, 1))))
    assert lat == Lattice.standard(2) and lat.int_rows == ((1, 0), (0, 1))
    third = Lattice.from_generators(2, [(F(1, 3), F(2, 3))])
    assert Lattice(2, iter(third.basis)) == third
    with pytest.raises(InputError, match="Lattice.from_rows"):
        Lattice(2, iter(((1, 0), (1, 1))))


def _definition_lattices(corpus_lattices):
    """Every d <= 3 lattice to index 12, its dual, a ``from_rows``
    sublattice, its ``project_drop`` images and a rescale: with and without
    Z^d, each built afresh, with no field filled."""
    found = []
    for d, lattices in corpus_lattices.items():
        for lat in lattices:
            found += [lat, lat.dual, Lattice.from_rows(d, [*lat.basis[1:], [2 * x for x in lat.basis[0]]])]
            found += [lat.project_drop(j) for j in range(1, d + 1) if d > 1]
            found.append(lat.rescale((1, 2, 3)[:d]))
    return [Lattice._canonical(lat.dim, lat.den, lat.int_rows) for lat in found]


def test_the_integer_superlattice_test_and_dual_basis_are_their_definitions(corpus_lattices):
    """``is_superlattice`` is whether every e_i has integer coordinates over
    ``basis``, row i of basis^-1 (Gauss-Jordan in Fractions), and
    ``dual_int_basis`` is the columns of basis^-1 = den * int_rows^-1, or
    ``InputError`` where one is not integral; either field read first."""
    lattices = _definition_lattices(corpus_lattices)
    for lat in lattices:
        inv = _invert([list(row) for row in lat.basis])
        contains = all(x.denominator == 1 for row in inv for x in row)
        cols = tuple(tuple(row[j] for row in inv) for j in range(lat.dim))
        again = Lattice._canonical(lat.dim, lat.den, lat.int_rows)
        assert outcome(lambda: lat.dual_int_basis) == (cols if contains else InputError), lat
        for fresh in (lat, again):
            assert fresh.is_superlattice is contains, lat
        assert outcome(lambda: again.dual_int_basis) == outcome(lambda: lat.dual_int_basis), lat
    assert {lat.is_superlattice for lat in lattices} == {True, False}
    assert sum(not lat.is_superlattice for lat in lattices) > 700


def test_the_integer_canonicity_check_is_its_definition(corpus_lattices):
    """``Lattice(dim, rows)`` accepts rows exactly when the lattice they
    span (``from_rows``) has them as its ``Fraction`` basis, and builds that
    lattice; it refuses the rest with the message it has always given.  The
    rows: each lattice's basis, scaled by den (``int_rows``) and by 2, with
    its rows reversed, its last row negated and its last row added to the
    first."""
    accepted = refused = 0
    for lat in _definition_lattices(corpus_lattices):
        basis, d = lat.basis, lat.dim
        for rows in (
            basis,
            lat.int_rows,
            tuple(tuple(2 * x for x in row) for row in basis),
            basis[::-1],
            (*basis[:-1], tuple(-x for x in basis[-1])),
            (tuple(map(sum, zip(basis[0], basis[-1]))), *basis[1:]),
        ):
            span = Lattice.from_rows(d, rows)
            if span.basis == tuple(map(tuple, rows)):
                built = Lattice(d, rows)
                assert (built, built.den, built.int_rows) == (span, span.den, span.int_rows), (lat, rows)
                accepted += 1
            else:
                with pytest.raises(InputError) as info:
                    Lattice(d, rows)
                message = f"{rows!r} is not the canonical basis of a lattice; build lattices with Lattice.from_rows"
                assert str(info.value) == message, (lat, rows)
                refused += 1
    assert accepted > 2000 and refused > 2000, (accepted, refused)


def test_a_lattice_is_its_integer_rows(monkeypatch):
    """``den`` and ``int_rows`` are the stored lattice; enumeration and the
    lattices derived in integer rows build no ``Fraction``, and ``basis`` is
    int_rows / den, built and cached when first read."""
    import toricmld.lattice as lattice

    assert [f.name for f in dataclasses.fields(Lattice)] == ["dim", "den", "int_rows"]
    built = []
    monkeypatch.setattr(lattice, "Fraction", lambda *args: built.append(args) or F(*args))
    lattices = enumerate_superlattices(3, 8)
    derived = [lat.dual for lat in lattices] + [lat.project_drop(2) for lat in lattices]
    derived += [lat.rescale((1, 2, 3)) for lat in lattices]
    derived += [image for lat in lattices for image, _ in lat.restrictions]
    assert built == []
    assert not any("basis" in vars(lat) for lat in lattices + derived)
    for lat in lattices + derived:
        first = lat.basis
        assert first == tuple(tuple(F(x, lat.den) for x in row) for row in lat.int_rows), lat
        assert lat.basis is first and vars(lat)["basis"] is first
    assert len(built) == sum(lat.dim**2 for lat in lattices + derived)


# -- lattices derived in integer rows ---------------------------------------------


@pytest.mark.parametrize("dim,max_index", [(3, 12), (4, 6)])
def test_derived_lattices_match_the_fraction_route(dim, max_index, monkeypatch):
    """``project_drop``, ``rescale`` and ``from_generators`` work on the
    integer rows and call no ``from_rows``; the Fraction route slices or
    scales ``basis`` and normalizes through ``from_rows``."""
    lattices = enumerate_superlattices(dim, max_index)
    unit = [tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)]
    expected = []
    for lat in lattices:
        for j in range(dim):
            image = Lattice.from_rows(dim - 1, [row[:j] + row[j + 1 :] for row in lat.basis])
            scales = image.unit_scales
            scaled = Lattice.from_rows(dim - 1, [tuple(c * k for c, k in zip(row, scales)) for row in image.basis])
            expected += [image, scaled]
        expected.append(Lattice.from_rows(dim, list(lat.basis) + unit))

    def refused(*args):
        raise AssertionError("from_rows was called")

    monkeypatch.setattr(Lattice, "from_rows", classmethod(refused))
    found = []
    for lat in lattices:
        for j in range(dim):
            image = lat.project_drop(j + 1)
            found += [image, image.rescale(image.unit_scales)]
        found.append(Lattice.from_generators(dim, lat.basis))
    monkeypatch.undo()
    assert [(a.basis, a.den, a.int_rows) for a in found] == [(b.basis, b.den, b.int_rows) for b in expected]


def test_permuted_keys_take_the_identity_as_it_is(monkeypatch):
    """``permuted_keys`` lists every coordinate permutation in order with the
    canonical rows of the permuted lattice (through ``from_rows`` on the
    Fraction basis); the identity's key is ``int_rows`` itself, so each
    lattice runs d! - 1 HNFs."""
    import toricmld.lattice as lattice_module

    lattices = enumerate_superlattices(3, 8)
    perms = list(permutations(range(3)))
    expected = [
        [(Lattice.from_rows(3, [tuple(row[p] for p in perm) for row in lat.basis]).int_rows, perm) for perm in perms]
        for lat in lattices
    ]
    calls, real = [], lattice_module.hnf
    monkeypatch.setattr(lattice_module, "hnf", lambda rows, ncols: calls.append(ncols) or real(rows, ncols))
    for lat, want in zip(lattices, expected):
        calls.clear()
        assert list(lat.permuted_keys) == want
        assert lat.permuted_keys[0][0] is lat.int_rows
        assert len(calls) == 5


def test_rescale_takes_integer_scales_only():
    """A rational scale went through the Fraction rows; every caller passes
    ``unit_scales``, so it is now an input error."""
    with pytest.raises(InputError, match="must be an integer"):
        Lattice.standard(2).rescale((F(1, 2), 1))
    with pytest.raises(InputError):
        Lattice.standard(2).rescale((2,))
    assert Lattice.standard(2).rescale((2, 3)) == Lattice.from_rows(2, [(2, 0), (0, 3)])


# -- the lattice count, read off the HNF diagonals --------------------------------


def test_unit_columns_is_jordans_totient():
    from math import gcd

    from toricmld.lattice import _unit_columns

    for p in range(1, 40):
        for j in range(4):
            brute = sum(1 for a in product(range(p), repeat=j) if gcd(*a, p) == 1)
            assert _unit_columns(p, j) == brute, (p, j)


@pytest.mark.parametrize("dim,max_index", [(1, 30), (2, 40), (3, 20), (4, 8), (5, 4)])
def test_the_diagonal_counts_sum_to_the_enumeration(dim, max_index, monkeypatch):
    """The count builds neither a basis nor a column option list."""
    import toricmld.lattice as lattice

    def refused(*args, **kwargs):
        raise AssertionError("the count built a column or a lattice")

    for name in ("product", "_inverse_columns"):
        monkeypatch.setattr(lattice, name, refused)
    monkeypatch.setattr(Lattice, "_from_int_rows", classmethod(refused))
    total = sum(lattice._superlattice_counts(dim, max_index))
    monkeypatch.undo()
    assert total == len(enumerate_superlattices(dim, max_index))


def test_the_count_refuses_an_hnf_column_above_the_cap_first(monkeypatch):
    import toricmld.lattice as lattice

    monkeypatch.setattr(lattice, "TABLE_CAP", 3)
    assert sum(lattice._superlattice_counts(2, 3)) == 4
    with pytest.raises(ResourceLimit, match="HNF column of 4 candidates exceeds the cap 3"):
        sum(lattice._superlattice_counts(3, 2))
    with pytest.raises(InputError):
        sum(lattice._superlattice_counts(0, 2))


def test_ordered_factorizations_walk_without_recursion():
    """The same tuples, in the same order, as the recursive definition, no
    parts included (the walk never ended there), and a dimension far past
    the interpreter's recursion limit."""

    def recursive(n, parts):
        if parts == 0:
            return [()] if n == 1 else []
        return [(k,) + rest for k in _divisors(n) for rest in recursive(n // k, parts - 1)]

    for n in range(1, 50):
        for parts in range(5):
            assert list(_ordered_factorizations(n, parts)) == recursive(n, parts), (n, parts)
    assert list(_ordered_factorizations(1, 5000)) == [(1,) * 5000]
    assert len(list(_ordered_factorizations(2, 300))) == 300
