import random
from fractions import Fraction as F

import pytest

from lp_oracle import solve_lp
from toricmld.errors import AlreadyFlat, InputError, NotLogCanonical
from toricmld.flat import (
    FlatState,
    build_flat_structure,
    minimal_center,
    ray_infimum,
    ray_witness,
    state_value,
    threshold_step,
)
from toricmld.germ import ToricGerm, germ_cyclic_quotient
from toricmld.lattice import Lattice
from toricmld.linprog import OPTIMAL
from toricmld.newton import dual_hilbert_basis


def std_germ(dim, boundary=None):
    return ToricGerm(Lattice.standard(dim), boundary or (0,) * dim)


# -- the value model ------------------------------------------------------------


def test_state_value_examples():
    st = FlatState(std_germ(2), (F(1), F(1)))
    assert state_value(st, (1, 1)) == 0
    st1 = FlatState(std_germ(2), (F(1),))
    assert state_value(st1, (0, 0), (1,)) == 0
    half = FlatState(germ_cyclic_quotient(2, (1, 1)), (F(1),))
    assert state_value(half, (F(1, 2), F(1, 2))) == 0


def test_state_value_validation():
    st = FlatState(std_germ(2), (F(1),))
    with pytest.raises(InputError):
        state_value(st, (0, 0))  # trivial combo
    with pytest.raises(InputError):
        state_value(st, (1, 1), (1,))  # empty center
    with pytest.raises(InputError):
        state_value(st, (2, 2))  # not primitive
    with pytest.raises(InputError):
        state_value(st, (0, 0), (2,))  # unknown member


def test_boundary_faces_never_carry_multiplicity(corpus_germs):
    # the dual monoid contains the primitive ray vectors, so any partial
    # support pairs to zero against some generator
    for germ in corpus_germs[:: 97]:
        hb = dual_hilbert_basis(germ)
        for i in range(germ.dim):
            x = tuple(F(int(j == i)) for j in range(germ.dim))
            assert min(sum(m[j] * x[j] for j in range(germ.dim)) for m in hb) == 0 or germ.dim == 1


# -- interior ray infimum ---------------------------------------------------------


def test_ray_infimum_examples():
    assert ray_infimum(std_germ(2)) == 2
    assert ray_infimum(std_germ(3)) == 3
    assert ray_infimum(germ_cyclic_quotient(2, (1, 1))) == 1
    assert ray_infimum(std_germ(2, (1, F(1, 2)))) == F(1, 2)


def ray_infimum_by_cells(germ):
    """Reference computation of the interior infimum, one exact LP per
    linearity cell of v (the region where a fixed Hilbert basis element
    attains the minimum), each normalized to v = 1."""
    hb = dual_hilbert_basis(germ)
    best = None
    for h in hb:
        rows = [([F(c) for c in h], "==", 1)]
        for other in hb:
            if other != h:
                rows.append(([F(o - a) for o, a in zip(other, h)], ">=", 0))
        res = solve_lp([w for w in germ.weights], rows)
        if res.status != OPTIMAL:
            continue
        if best is None or res.objective < best:
            best = res.objective
    assert best is not None
    return best


def test_ray_infimum_matches_cell_reference(corpus_germs):
    # the cell-by-cell reference is exact but slow, so sample small indices
    # (small dual monoids) across dimensions and boundaries
    sample = [g for g in corpus_germs if g.lattice.index <= 6][:: 547]
    sample += [g for g in corpus_germs if g.lattice.index == 12][:: 3611]
    assert len(sample) > 12
    for germ in sample:
        if not any(w for w in germ.weights):
            continue
        assert ray_infimum(germ) == ray_infimum_by_cells(germ)


def test_ray_witness_realizes_the_infimum(corpus_germs):
    for germ in corpus_germs[:: 151]:
        if not any(w for w in germ.weights):
            continue
        x = ray_witness(germ)
        assert germ.lattice.contains(x)
        assert germ.lattice.primitive_scale(x) == 1
        hb = dual_hilbert_basis(germ)
        v = min(sum(F(m[j]) * x[j] for j in range(germ.dim)) for m in hb)
        assert v > 0
        assert germ.log_discrepancy(x) / v == ray_infimum(germ)


# -- thresholds and centers ----------------------------------------------------------


def test_threshold_examples():
    assert threshold_step(FlatState(std_germ(3), ())) == 1
    assert threshold_step(FlatState(germ_cyclic_quotient(2, (1, 1)), ())) == 1
    assert threshold_step(FlatState(std_germ(2), (F(1),))) == 1
    # a fractional threshold: weights (0, 1/2) make the interior ratio 1/2
    assert threshold_step(FlatState(std_germ(2, (1, F(1, 2))), ())) == F(1, 2)


def test_threshold_rejects_flat_and_non_lc_states():
    with pytest.raises(AlreadyFlat):
        threshold_step(FlatState(std_germ(2, (1, 1)), ()))
    with pytest.raises(NotLogCanonical):
        threshold_step(FlatState(std_germ(2), (F(1), F(1), F(1))))


def test_minimal_center_examples():
    c = minimal_center(FlatState(std_germ(2), (F(1),)))
    assert c.kind == "general-divisor" and c.divisors == (1,) and c.dimension == 1
    c = minimal_center(FlatState(std_germ(2), (F(1), F(1))))
    assert c.kind == "point-P" and c.dimension == 0
    c = minimal_center(FlatState(germ_cyclic_quotient(2, (1, 1)), (F(1),)))
    assert c.kind == "point-P" and c.dimension == 0


def test_minimal_center_requires_a_zero():
    with pytest.raises(InputError):
        minimal_center(FlatState(std_germ(2), (F(1, 2),)))


# -- the full builder -------------------------------------------------------------------


def test_build_standard_plane():
    res = build_flat_structure(std_germ(2))
    assert [g for g, _ in res.trace] == [F(1), F(1)]
    assert [c.kind for _, c in res.trace] == ["general-divisor", "point-P"]
    assert res.witness.x == (F(1), F(1)) and res.witness.divisors == ()


def test_build_standard_space():
    res = build_flat_structure(std_germ(3))
    assert [g for g, _ in res.trace] == [F(1)] * 3
    assert res.trace[-1][1].kind == "point-P"


def test_build_half_diagonal():
    res = build_flat_structure(germ_cyclic_quotient(2, (1, 1)))
    assert [g for g, _ in res.trace] == [F(1)]
    assert res.witness.x == (F(1, 2), F(1, 2))
    assert state_value(res.state, res.witness.x, res.witness.divisors) == 0


def test_build_on_already_flat_germ():
    res = build_flat_structure(std_germ(2, (1, 1)))
    assert res.trace == () and res.state.gammas == ()
    assert res.witness.center.dimension == 0


def test_build_rejects_small_step_budget():
    with pytest.raises(InputError):
        build_flat_structure(std_germ(3), max_steps=2)


def _snc_origin_status(dim, boundary, gammas):
    """Independent log canonicity model for coordinate hyperplanes plus
    generic members on the standard germ: one blow-up of the origin makes the
    arrangement simple normal crossings (dim <= 3, members generic), so the
    pair is log canonical at the origin exactly when every coefficient is at
    most 1 and the exceptional discrepancy dim - sum(all coefficients) is
    nonnegative; the minimum over valuations centered at the origin is that
    discrepancy."""
    total = sum(boundary) + sum(gammas)
    lc = all(c <= 1 for c in list(boundary) + list(gammas)) and total <= dim
    point_min = dim - total if lc else None
    return lc, point_min


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_builder_agrees_with_snc_model_on_standard_germs(dim):
    rng = random.Random(20260810 + dim)
    for _ in range(25):
        boundary = tuple(F(rng.randint(0, 4), 4) for _ in range(dim))
        germ = std_germ(dim, boundary)
        res = build_flat_structure(germ)
        lc, point_min = _snc_origin_status(dim, boundary, res.state.gammas)
        assert lc and point_min == 0
        # every intermediate state stays log canonical in the SNC model
        partial = []
        for gamma, _ in res.trace:
            partial.append(gamma)
            lc, point_min = _snc_origin_status(dim, boundary, partial)
            assert lc and point_min >= 0


def test_corpus_terminates_within_dimension(corpus_germs):
    for germ in corpus_germs[:: 13]:
        res = build_flat_structure(germ)
        assert len(res.trace) <= germ.dim
        assert all(0 < g <= 1 for g in res.state.gammas)
        total = res.state.total
        if any(w for w in germ.weights):
            assert total <= ray_infimum(germ)
        if res.witness.x is not None and res.witness.divisors == ():
            hb = dual_hilbert_basis(germ)
            v = min(sum(F(m[j]) * res.witness.x[j] for j in range(germ.dim)) for m in hb)
            assert germ.log_discrepancy(res.witness.x) == total * v


def test_large_weight_denominators_stay_exact_in_the_builder_tables():
    """The interior A-values and the proper-face zeros are exact when the
    weight denominators are near 2^29, where int64 products overflow."""
    from toricmld.germ import all_faces

    lat = germ_cyclic_quotient(101, (1, 37, 63)).lattice
    germ = ToricGerm(lat, (F(1, 2**29 - 3), F(1, 2**29 + 11), 1))
    for a, _, x in germ.interior_values:
        assert a == germ.log_discrepancy(x)
    expected = []
    for face in all_faces(3)[:-1]:
        on = {i - 1 for i in face.support}
        for rep in lat.coset_table.reps:
            if any(c for j, c in enumerate(rep) if j not in on):
                continue
            x = tuple(F(1) if j in on and c == 0 else c for j, c in enumerate(rep))
            if germ.log_discrepancy(x) == 0:
                expected.append((face, x))
    assert sorted(germ.face_zero_points, key=repr) == sorted(expected, key=repr)
    assert expected == [(all_faces(3)[2], (0, 0, 1))]
