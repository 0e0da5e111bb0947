import dataclasses
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from operator import mul

import pytest

from faces import all_faces
from lp_oracle import primitive_normal, solve_lp
from toricmld.errors import AlreadyFlat, InputError, ModelViolation, NotLogCanonical
from toricmld.flat import (
    GENERAL_DIVISOR,
    INVARIANT_CYCLE,
    POINT,
    STRATUM,
    CenterDescriptor,
    FlatBuildResult,
    FlatState,
    ZeroCombo,
    build_flat_structure,
    minimal_center,
    ray_infimum,
    ray_witness,
    state_value,
    threshold_step,
)
from toricmld.germ import Face, ToricGerm, full_face, germ_cyclic_quotient
from toricmld.lattice import Lattice, enumerate_superlattices
from toricmld.linprog import OPTIMAL
from toricmld.newton import _first_intersection, _vertex_intersection, dual_hilbert_basis, lct_general_member
from toricmld.rationals import QVec


def std_germ(dim, boundary=None):
    return ToricGerm(Lattice.standard(dim), boundary or (0,) * dim)


@lru_cache(maxsize=None)
def _interior_points(lattice: Lattice, hilbert_basis) -> tuple:
    """(x, v(x)) for every full-support unit-box point x: a coset
    representative with its zeros lifted to 1, and the least pairing with the
    dual Hilbert basis, as a Fraction minimum."""
    out = []
    for rep in lattice.coset_table.reps:
        x = tuple(c if c else F(1) for c in rep)
        out.append((x, min(sum(F(m[j]) * x[j] for j in range(lattice.dim)) for m in hilbert_basis)))
    return tuple(out)


@lru_cache(maxsize=64)
def interior_values(germ: ToricGerm) -> tuple:
    """(A(x), v(x), x) for every full-support unit-box point x, recomputed in
    Fractions apart from the builder's integer rows (``box_candidates`` and
    ``interior_multiplicities``): A is ``germ.log_discrepancy``."""
    return tuple((germ.log_discrepancy(x), v, x) for x, v in _interior_points(germ.lattice, dual_hilbert_basis(germ)))


def least_interior_zero(germ: ToricGerm, gamma: F) -> QVec:
    """The least interior point of value A - gamma v = 0 among the box points
    and, when gamma > 0, the ray witness: the builder's point witness."""
    xs = [x for a, v, x in interior_values(germ) if a == gamma * v]
    if gamma:
        xs.append(ray_witness(germ))
    return min(xs)


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


def test_ray_infimum_is_the_least_box_ratio_up_to_dimension_three(corpus_germs):
    # for d <= 3 the infimum has been attained at a full-support unit-box
    # point on every germ tried, so the least box ratio gives rho, and the
    # general-member threshold min(1, rho), without an LP
    sample = [g for g in corpus_germs if g.lattice.index <= 6 and any(g.weights)]
    assert len(sample) == 6483
    for germ in sample:
        rho = min(a / v for a, v, _ in interior_values(germ))
        assert ray_infimum(germ) == rho, germ
        assert lct_general_member(germ).lct == min(1, rho), germ


def test_ray_infimum_can_undercut_every_box_ratio_in_dimension_four():
    lat = Lattice.from_generators(4, [(F(1, 2), 0, 0, F(1, 2)), (0, F(1, 2), 0, F(1, 2))])
    germ = ToricGerm(lat, (0, 0, 0, 0))
    assert ray_infimum(germ) == F(5, 2)
    assert min(a / v for a, v, _ in interior_values(germ)) == 3


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


# -- the enumerating oracle -------------------------------------------------------
#
# The builder as it was before it read each state in closed form: every state
# is checked by scanning the interior box, and all value-zero combos are
# enumerated over every divisor subset of the unit members and sorted.


def _face_zero_points(germ):
    """Unit-box points on proper faces where the log discrepancy is 0:
    the minimizers of every proper face whose minimum is 0."""
    table = germ.face_table
    return tuple(
        (Face(s), x)
        for s in table.entries
        if len(s) < germ.dim and table.value(s) == 0
        for x in table.witnesses(s)
    )


def oracle_require_log_canonical(state: FlatState) -> None:
    """Negative values can only appear along the interior (proper-face combos
    are A(x) + nonnegative terms); check the box and the ray infimum."""
    gamma = state.total
    for a, v, x in interior_values(state.germ):
        if a - gamma * v < 0:
            raise NotLogCanonical(f"value {(a - gamma * v)} < 0 at {x}")
    if gamma > 0 and any(w for w in state.germ.weights) and ray_infimum(state.germ) < gamma:
        raise NotLogCanonical("interior ray infimum below the coefficient sum")


def zero_combos_oracle(state: FlatState) -> list[ZeroCombo]:
    """All combos of value exactly zero, sorted by
    (center dimension, |J|, face support, J, monomial witness)."""
    d = state.germ.dim
    gamma = state.total
    ones = [j + 1 for j, g in enumerate(state.gammas) if g == 1]
    found: dict = {}

    def add(x: QVec | None, J: tuple[int, ...], face: Face | None):
        support = face.support if face is not None else ()
        dimension = d - len(support) - len(J)
        if dimension == 0:
            kind = POINT
        elif x is not None and not J:
            kind = INVARIANT_CYCLE
        elif x is None and len(J) == 1:
            kind = GENERAL_DIVISOR
        else:
            kind = STRATUM
        center = CenterDescriptor(kind, face, J, dimension)
        sort_x = tuple(x) if x is not None else ()
        key = (dimension, len(J), support, J, sort_x)
        found.setdefault(key, ZeroCombo(x, J, center))

    # interior box zeros (full support forbids any divisor subset)
    for a, v, x in interior_values(state.germ):
        if a - gamma * v == 0:
            add(x, (), full_face(d))
    # proper-face zeros: v = 0 there, so zero means A(x) = 0 and all chosen
    # gammas equal to 1
    for face, x in _face_zero_points(state.germ):
        room = d - len(face.support)
        for size in range(0, min(room, len(ones)) + 1):
            for J in combinations(ones, size):
                add(x, J, face)
    # member-only zeros
    for size in range(1, min(d, len(ones)) + 1):
        for J in combinations(ones, size):
            add(None, J, None)
    # interior ray zero: the infimum is attained on an explicit lattice ray
    if gamma > 0 and any(w for w in state.germ.weights) and ray_infimum(state.germ) == gamma:
        add(ray_witness(state.germ), (), full_face(d))
    return [found[k] for k in sorted(found)]


def oracle_threshold_step(state: FlatState) -> F:
    """Largest coefficient for one more general member keeping the state
    log canonical.

    Only three constraint families can bind: the cap 1 (from the new member
    itself), the interior ray bound rho - Gamma, and the interior box ratios
    (A - Gamma v)/v; everything else evaluates to at least 1 because v
    vanishes off the interior.  The box ratios are themselves at least the
    ray bound, but are scanned anyway as a cheap cross-check.
    """
    oracle_require_log_canonical(state)
    zeros = zero_combos_oracle(state)
    if any(z.center.dimension == 0 for z in zeros):
        raise AlreadyFlat("the state is already flat at the distinguished point")
    gamma = state.total
    rho = ray_infimum(state.germ)
    bound = min(F(1), rho - gamma)
    for a, v, x in interior_values(state.germ):
        if v > 0:
            ratio = (a - gamma * v) / v
            assert ratio >= rho - gamma, "box ratios dominate the ray bound"
            bound = min(bound, ratio)
    assert 0 < bound <= 1
    return bound


def oracle_minimal_center(state: FlatState) -> CenterDescriptor:
    """Center of smallest dimension among all value-zero combos; ties broken
    by smaller divisor subset, then lexicographic face and subset."""
    oracle_require_log_canonical(state)
    zeros = zero_combos_oracle(state)
    if not zeros:
        raise InputError("no zero combo: the state is log terminal at every center")
    return zeros[0].center


def oracle_build_flat_structure(germ: ToricGerm) -> FlatBuildResult:
    """Add general members of the maximal ideal at their thresholds until the
    distinguished point carries a value-zero valuation.

    Terminates in at most d steps: any step below the cap lands the
    coefficient sum exactly on the interior infimum (an interior zero), and
    cap steps raise the sum by 1 toward an infimum that is at most d.
    """
    state = FlatState(germ, ())
    trace: list[tuple[F, CenterDescriptor]] = []
    for _ in range(germ.dim):
        oracle_require_log_canonical(state)
        zeros = zero_combos_oracle(state)
        if zeros and zeros[0].center.dimension == 0:
            return _oracle_finish(state, trace, zeros[0])
        gamma = oracle_threshold_step(state)
        state = FlatState(state.germ, state.gammas + (gamma,))
        center = oracle_minimal_center(state)
        trace.append((gamma, center))
        if center.dimension == 0:
            zeros = zero_combos_oracle(state)
            return _oracle_finish(state, trace, zeros[0])
    raise ModelViolation(f"no flat structure after {germ.dim} steps; the model promises <= dim steps")


def _oracle_finish(state: FlatState, trace, witness: ZeroCombo) -> FlatBuildResult:
    value = state_value(state, witness.x if witness.x is not None else [0] * state.germ.dim, witness.divisors)
    assert value == 0, "the reported witness must have value exactly zero"
    oracle_require_log_canonical(state)
    return FlatBuildResult(state, tuple(trace), witness)


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
    """The builder's interior witness and the proper-face zeros are exact
    when the weight denominators are near 2^29, where int64 products
    overflow."""
    lat = germ_cyclic_quotient(101, (1, 37, 63)).lattice
    germ = ToricGerm(lat, (F(1, 2**29 - 3), F(1, 2**29 + 11), 1))
    res = build_flat_structure(germ)
    assert res.witness.x == least_interior_zero(germ, res.state.total)
    assert all(a >= ray_infimum(germ) * v for a, v, _ in interior_values(germ))
    expected = []
    for face in all_faces(3)[:-1]:
        on = {i - 1 for i in face.support}
        for rep in lat.coset_table.reps:
            if any(c for j, c in enumerate(rep) if j not in on):
                continue
            x = tuple(F(1) if j in on and c == 0 else c for j, c in enumerate(rep))
            if germ.log_discrepancy(x) == 0:
                expected.append((face, x))
    assert sorted(_face_zero_points(germ), key=repr) == sorted(expected, key=repr)
    assert expected == [(all_faces(3)[2], (0, 0, 1))]


# -- the closed forms against the oracle ---------------------------------------------


def test_builder_matches_the_enumerating_oracle(corpus_germs):
    for germ in corpus_germs:
        assert build_flat_structure(germ) == oracle_build_flat_structure(germ), germ


def _outcome(fn, state):
    try:
        return fn(state)
    except InputError as exc:  # AlreadyFlat and NotLogCanonical included
        return type(exc)


def test_steps_and_centers_match_the_oracle_on_visited_and_random_states(corpus_germs):
    rng = random.Random(20261018)
    coeffs = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
    outcomes = set()
    for germ in corpus_germs:
        if germ.lattice.index > 6:
            continue
        gammas = build_flat_structure(germ).state.gammas
        tuples = [gammas[:k] for k in range(len(gammas) + 1)]
        tuples += [tuple(rng.choice(coeffs) for _ in range(rng.randint(0, germ.dim + 1))) for _ in range(3)]
        for gs in tuples:
            state = FlatState(germ, gs)
            for fn, oracle in ((threshold_step, oracle_threshold_step), (minimal_center, oracle_minimal_center)):
                got = _outcome(fn, state)
                assert got == _outcome(oracle, state), (germ, gs, fn.__name__)
                outcomes.add(got if isinstance(got, type) else fn.__name__)
    assert outcomes == {"threshold_step", "minimal_center", AlreadyFlat, NotLogCanonical, InputError}


def test_witness_and_rho_check_agree_with_the_fraction_recomputation(corpus_germs, monkeypatch):
    """On the corpus to index 6 the builder's point witness is the least
    interior zero that ``interior_values`` finds, and the check that no box
    point has A < rho v, made on every read of rho, raises exactly when the
    recomputation finds such a point: never at the true rho, and whenever
    an overstated rho (mu scaled by 3/4) exceeds some box ratio, on germs
    with one minimizing vertex and on germs whose minimizing vertices tie."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6]
    assert len(germs) == 6596
    rhos = []  # (germ, its true rho), read before the route is overstated
    for germ in germs:
        res = build_flat_structure(germ)
        assert res.witness.x == least_interior_zero(germ, res.state.total), germ
        if any(germ.weights):
            rho = ray_infimum(germ)
            rhos.append((germ, rho))
            assert all(a >= rho * v for a, v, _ in interior_values(germ)), germ

    overstate_the_vertex_route(monkeypatch, lambda res: dataclasses.replace(res, mu_num=res.mu_num * 3, scale=res.scale * 4))
    raised = {True: 0, False: 0}  # keyed by whether the germ's vertices tie
    for germ, rho in rhos:
        undercut = any(a < rho * F(4, 3) * v for a, v, _ in interior_values(germ))
        try:
            ray_infimum(germ)
        except ModelViolation:
            raised[vertices_tie(germ)] += 1
            assert undercut, germ
        else:
            assert not undercut, germ
    assert raised[True] > 0 and raised[False] > 0, raised


def overstate_the_vertex_route(monkeypatch, change) -> None:
    """Apply ``change`` to the first intersection that flat reads off the
    vertex list, its only route."""
    import toricmld.flat as flat

    vertex = flat._vertex_intersection
    monkeypatch.setattr(flat, "_vertex_intersection", lambda germ: change(vertex(germ)))


def vertices_tie(germ) -> bool:
    """Whether two vertices of ``Lattice.threshold_vertices`` minimize
    <y, w> and differ off the zero-weight coordinates: the germs where the
    builder's normal (the greatest of them) and the LP's may differ."""
    _, rows = germ.lattice.threshold_vertices
    w = germ.weights
    vals = [sum(map(mul, w, y)) for y in rows]
    return len({tuple(c if x else 0 for c, x in zip(y, w)) for y, v in zip(rows, vals) if v == min(vals)}) > 1


def test_flat_keeps_the_traced_call_structure(monkeypatch):
    """``build_flat_structure`` on a d = 3 germ of index > 1 calls
    ``_interior`` and never the threshold entry points of the survey and
    the check, at every place the package binds them.  It reads the Hilbert
    basis as built, so the exponent validation is bypassed too, and writes its
    trace in closed form, so it takes no ``threshold_step`` or
    ``minimal_center``.  It reads rho and the ray normal off the vertex list,
    so neither a germ whose minimizing vertex is one nor a germ with tied
    vertices solves an LP or calls ``dual_hilbert_basis``."""
    import importlib

    bypassed = ("lct_general_member", "lct_newton", "newton_poly_from_exponents", "threshold_step", "minimal_center")
    bypassed += ("dual_hilbert_basis", "solve_lp_max_slack")
    counts = {}
    for name in ("_interior",) + bypassed:
        for mod in ("flat", "newton", "linprog", "germ", "survey"):
            module = importlib.import_module(f"toricmld.{mod}")
            if hasattr(module, name):

                def counted(*args, _fn=getattr(module, name), _name=name):
                    counts[_name] = counts.get(_name, 0) + 1
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
    for germ, tied in ((germ_cyclic_quotient(5, (1, 2, 3)), False), (germ_cyclic_quotient(7, (1, 2, 4)), True)):
        assert germ.dim == 3 and germ.lattice.index > 1 and vertices_tie(germ) == tied
        counts.clear()
        build_flat_structure(germ)
        assert counts.get("_interior", 0) >= 1, (germ, counts)
        assert not any(counts.get(name) for name in bypassed), (germ, counts)


def test_the_builder_builds_a_face_only_for_a_reported_center(corpus_germs, monkeypatch):
    """``build_flat_structure`` reads the interior rows under their support
    key and builds a ``Face`` only for a center it reports: at most one per
    step, or one when there is no step.  The germs of the corpus to index 6
    are built afresh, so their ray program runs inside the count."""
    built = []
    post_init = Face.__post_init__

    def counted(face):
        built.append(face)
        post_init(face)

    monkeypatch.setattr(Face, "__post_init__", counted)
    for germ in corpus_germs:
        if germ.lattice.index <= 6:
            built.clear()
            result = build_flat_structure(ToricGerm(germ.lattice, germ.boundary))
            assert len(built) <= max(len(result.trace), 1), germ


def test_ray_witness_rejects_zero_weights():
    germ = ToricGerm(Lattice.standard(2), (1, 1))
    with pytest.raises(InputError, match="zero weight vector"):
        ray_witness(germ)
    with pytest.raises(InputError, match="zero weight vector"):
        ray_infimum(germ)


def test_an_overstated_ray_infimum_is_a_model_violation(monkeypatch):
    """On a germ with one minimizing vertex and on one with tied vertices."""
    overstate_the_vertex_route(monkeypatch, lambda res: dataclasses.replace(res, scale=res.scale * 2))
    for germ, tied in ((std_germ(2), False), (germ_cyclic_quotient(3, (1, 2)), True)):
        assert vertices_tie(germ) == tied
        with pytest.raises(ModelViolation):
            ray_infimum(germ)


def test_a_state_keeps_its_coefficient_sum():
    from functools import cached_property

    assert isinstance(vars(FlatState)["total"], cached_property)
    state = FlatState(germ_cyclic_quotient(5, (1, 2, 3)), (F(1, 2), F(1, 3)))
    assert state.total == F(5, 6) and vars(state)["total"] is state.total


def test_the_witness_center_is_the_last_step_center(corpus_germs):
    """The witness's center is the last step's center, and with no step
    (every weight 0) the point; either way it equals a fresh
    ``minimal_center`` of the final state."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6]
    empty = 0
    for germ in germs:
        result = build_flat_structure(germ)
        assert result.witness.center == minimal_center(result.state), germ
        assert not result.trace or result.witness.center == result.trace[-1][1], germ
        empty += not result.trace
    assert 0 < empty < len(germs)


def replay_flat_structure(germ: ToricGerm) -> FlatBuildResult:
    """The builder as the step loop it replaced: add a member at
    ``threshold_step`` and take its center from ``minimal_center`` until the
    state is flat, within d steps.  The witness is the least interior zero,
    recomputed in ``Fraction``s, at the center of the final state."""
    state = FlatState(germ, ())
    trace = []
    while True:
        try:
            gamma = threshold_step(state)
        except AlreadyFlat:
            break
        assert len(trace) < germ.dim, germ
        state = FlatState(germ, state.gammas + (gamma,))
        trace.append((gamma, minimal_center(state)))
    witness = ZeroCombo(least_interior_zero(germ, state.total), (), minimal_center(state))
    return FlatBuildResult(state, tuple(trace), witness)


def test_the_closed_form_builder_equals_the_step_replay(corpus_germs):
    """On the corpus to index 6, and on d = 4 to index 4 with b in
    {0, 1/2, 1}^4, the closed-form trace, state and witness equal the replay
    of the public steps."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6]
    assert len(germs) == 6596
    for lat in enumerate_superlattices(4, 4):
        germs += [ToricGerm(lat, b) for b in product((0, F(1, 2), 1), repeat=4)]
    for germ in germs:
        assert build_flat_structure(germ) == replay_flat_structure(germ), germ


def test_more_steps_than_the_dimension_is_a_model_violation(monkeypatch):
    """rho <= A(1,..,1) <= d, so ceil(rho) > d steps is an internal fault."""
    import toricmld.flat as flat

    germ = std_germ(2)
    assert [g for g, _ in build_flat_structure(germ).trace] == [1, 1]
    monkeypatch.setattr(flat, "_interior", lambda germ: (F(5, 2), None, []))
    with pytest.raises(ModelViolation, match="no flat structure after 2 steps"):
        build_flat_structure(germ)


# -- the builder in integer rows ------------------------------------------------------


def test_ray_witness_equals_the_fraction_route(corpus_germs):
    """``ray_witness`` reads the integer row den * y_num / k; the ``Fraction``
    route scales the pricing normal by ``Lattice.primitive_scale``.  Both agree
    on every germ of the corpus to index 6 with a nonzero weight, and on
    d = 4 with b in {0, 1/2}^4 to index 4."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6 and any(g.weights)]
    assert len(germs) == 6483
    for lat in enumerate_superlattices(4, 4):
        germs += [ToricGerm(lat, b) for b in product((0, F(1, 2)), repeat=4)]
    for germ in germs:
        assert ray_witness(germ) == primitive_normal(germ.lattice, _vertex_intersection(germ)), germ


def greatest_tied_normal(germ) -> tuple:
    """The vertex route's normal in ``Fraction``s: the greatest minimizing
    vertex row over D, zeroed on the zero-weight coordinates Z and scaled to
    <y, w> = 1, then raised on Z by the least common amount t that prices
    every Hilbert basis element at mu or more."""
    den, rows = germ.lattice.threshold_vertices
    w = germ.weights
    vals = [sum(map(mul, w, y)) for y in rows]
    best = min(vals)
    p = max(tuple(c if x else 0 for c, x in zip(y, w)) for y, v in zip(rows, vals) if v == best)
    y = [F(c) / best for c in p]
    mu = den / best
    zero = [i for i, x in enumerate(w) if not x]
    hit = [m for m in germ.lattice.hilbert_basis if any(m[i] for i in zero)]
    t = max([0, *((mu - sum(map(mul, y, m))) / sum(m[i] for i in zero) for m in hit)])
    return tuple(c + t * (i in zero) for i, c in enumerate(y))


def test_the_vertex_route_equals_the_program(corpus_germs):
    """``_vertex_intersection`` always answers and gives the LP's mu, with
    ``_first_intersection`` over the dual Hilbert basis as the oracle.  Where
    the minimizing vertices project to one row off the zero-weight
    coordinates, its normal has the direction of the LP's; where they tie,
    its normal is the greatest of those rows, lifted (``greatest_tied_normal``),
    and an optimal one: <y, w> = 1 and <y, m> >= mu on the basis.  On the
    corpus to index 6 and on d = 4 with b in {0, 1/2, 1}^4 to index 4, both
    cases occur."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6 and any(g.weights)]
    assert len(germs) == 6483
    for lat in enumerate_superlattices(4, 4):
        germs += [g for b in product((0, F(1, 2), 1), repeat=4) if any((g := ToricGerm(lat, b)).weights)]
    ties = 0
    for germ in germs:
        res = _vertex_intersection(germ)
        lp = _first_intersection(dual_hilbert_basis(germ), *germ._weight_ints)
        mu = F(res.mu_num, res.scale)
        assert mu == F(lp.mu_num, lp.scale), germ
        if vertices_tie(germ):
            ties += 1
            y = tuple(F(c, res.y_den) for c in res.y_num)
            assert y == greatest_tied_normal(germ), germ
            assert sum(map(mul, y, germ.weights)) == 1, germ
            assert all(sum(map(mul, y, m)) >= mu for m in germ.lattice.hilbert_basis), germ
        else:
            assert [c // gcd(*res.y_num) for c in res.y_num] == [c // gcd(*lp.y_num) for c in lp.y_num], germ
    assert 0 < ties < len(germs), ties


def test_the_lift_over_the_generators_is_the_lift_over_the_basis(corpus_germs, monkeypatch):
    """``_vertex_intersection`` lifts its normal over
    ``Lattice.newton_generators``.  On the corpus to index 6 its mu and its
    normal y_num / y_den equal, as fractions, those of the same route with
    the lift taken over the whole dual Hilbert basis; the germs with a zero
    weight, where the lift acts, are most of them."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6 and any(g.weights)]
    assert len(germs) == 6483 and sum(not all(g.weights) for g in germs) == 3672
    ours = [_vertex_intersection(g) for g in germs]
    monkeypatch.setattr(Lattice, "newton_generators", property(lambda lat: lat.hilbert_basis))
    for germ, res in zip(germs, ours):
        basis = _vertex_intersection(germ)
        assert F(res.mu_num, res.scale) == F(basis.mu_num, basis.scale), germ
        assert [F(c, res.y_den) for c in res.y_num] == [F(c, basis.y_den) for c in basis.y_num], germ


def test_a_tie_builds_what_the_programs_normal_builds(corpus_germs, monkeypatch):
    """On every germ whose minimizing vertices tie, of the corpus to index 6
    and of d = 4 with b in {0, 1/2, 1}^4 to index 6, the flat result equals
    the one built on a fresh germ with ``_first_intersection``'s normal over
    the dual Hilbert basis patched in: the LP is the oracle of the tie rule."""
    import toricmld.flat as flat

    germs = [g for g in corpus_germs if g.lattice.index <= 6]
    for lat in enumerate_superlattices(4, 6):
        germs += [ToricGerm(lat, b) for b in product((0, F(1, 2), 1), repeat=4)]
    tied = [g for g in germs if any(g.weights) and vertices_tie(g)]
    assert len(tied) == 530 + 7164
    built = [build_flat_structure(ToricGerm(g.lattice, g.boundary)).to_json_dict() for g in tied]
    monkeypatch.setattr(flat, "_vertex_intersection", lambda g: _first_intersection(dual_hilbert_basis(g), *g._weight_ints))
    for germ, result in zip(tied, built):
        assert build_flat_structure(ToricGerm(germ.lattice, germ.boundary)).to_json_dict() == result, germ


def test_a_tie_reports_the_programs_normal():
    """On 1/6(1, 3, 4, 5) with b = 0 the vertices (2, 3, 2, 4)/6 and
    (5, 3, 2, 1)/6 tie.  The LP's normal is the second, whose primitive point
    is the witness; the first would give (2, 3, 2, 4)/3, which sorts first.
    In the flat digests of ``tests/test_check.py`` no tie's pick shows."""
    germ = ToricGerm(Lattice.from_generators(4, [(F(1, 6), F(1, 2), F(2, 3), F(5, 6))]), (0, 0, 0, 0))
    assert germ.lattice.threshold_vertices == (6, ((1, 3, 4, 5), (2, 3, 2, 4), (5, 3, 2, 1))) and vertices_tie(germ)
    assert build_flat_structure(germ).witness.x == (F(5, 6), F(1, 2), F(1, 3), F(1, 6))


def test_flat_solves_no_program(corpus_germs, monkeypatch):
    """Over the corpus to index 6, built afresh, the builder solves no LP,
    the germs whose minimizing vertices tie included."""
    import toricmld.newton as newton

    solves = []
    solve = newton.solve_lp_max_slack
    monkeypatch.setattr(newton, "solve_lp_max_slack", lambda *args: solves.append(1) or solve(*args))
    tied = 0
    for germ in corpus_germs:
        if germ.lattice.index <= 6:
            build_flat_structure(ToricGerm(germ.lattice, germ.boundary))
            tied += any(germ.weights) and vertices_tie(germ)
    assert not solves and tied == 530, (len(solves), tied)


@pytest.mark.parametrize(
    "row, scale, message",
    [((4, 4, 8, 4), 2, "primitive"), ((1, 2, 4, 2), None, "primitive"), ((2, 2, 2, 2), 1, "value exactly zero")],
    ids=["multiple", "off-the-lattice", "nonzero-value"],
)
def test_the_witness_check_refuses_a_bad_row(row, scale, message, monkeypatch):
    """A witness row that is a proper multiple, off the lattice or of nonzero
    value is an internal fault: ``ModelViolation``, not an ``InputError``.
    ``scale`` is the row's primitive scale, None off the lattice."""
    import toricmld.flat as flat

    # the interior infimum 5/2 undercuts every box ratio, so the builder's
    # witness is the ray row (2, 2, 4, 2) over den 2
    lat = Lattice.from_generators(4, [(F(1, 2), 0, 0, F(1, 2)), (0, F(1, 2), 0, F(1, 2))])
    germ = ToricGerm(lat, (0, 0, 0, 0))
    result = build_flat_structure(germ)
    assert result.state.total == F(5, 2) and result.witness.x == (1, 1, 2, 1)
    x = tuple(F(c, germ.lattice.den) for c in row)
    assert (germ.lattice.primitive_scale(x) if germ.lattice.contains(x) else None) == scale
    rho, _, zeros = flat._interior(germ)
    monkeypatch.setattr(flat, "_interior", lambda germ: (rho, row, zeros))
    with pytest.raises(ModelViolation, match=message):
        build_flat_structure(germ)


def test_the_builder_builds_few_fractions(corpus_germs, monkeypatch):
    """The builder makes ``Fraction``s only for rho, the coefficients and
    the witness it returns: at most 6 per germ on average over the corpus to
    index 6 (5.94 measured)."""
    germs = [g for g in corpus_germs if g.lattice.index <= 6]
    assert len(germs) == 6596
    made = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(lambda cls, *args, **kw: made.append(1) or real(cls, *args, **kw)))
    for germ in germs:
        build_flat_structure(germ)
    monkeypatch.undo()
    assert len(made) <= 6 * len(germs), len(made) / len(germs)
