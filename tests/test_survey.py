import json
import re
from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import permutations, product, zip_longest
from pathlib import Path

import pytest

from toricmld.errors import InputError, MalformedRational, ResourceLimit
from toricmld.germ import ToricGerm, germ_cyclic_quotient, germ_document, mld_bruteforce_oracle, mld_global
from toricmld.lattice import Lattice, _superlattice, _superlattices, enumerate_superlattices, lattice_from_generators
from toricmld.rationals import rat_str
from toricmld.survey import (
    CHUNK,
    CorpusConfig,
    SurveyRow,
    _lattice_stream,
    _orbit_representatives,
    _survey_row,
    acc_report,
    corpus_germs,
    germ_id,
    parse_germ,
    rows_to_csv,
    rows_to_json,
    run_survey,
    _survey_rows,
    serialize_germ,
    verify_corpus,
)


def permuted(lat, perm):
    """Coordinate permutation through Fraction rows; perm[k] is the old
    0-based index sent to slot k."""
    return Lattice.from_rows(lat.dim, [tuple(row[p] for p in perm) for row in lat.basis])


A2_DOC = '{"dim":2,"lattice":{"generators":[["1/3","2/3"]]},"boundary":["0","0"]}'


# -- documents --------------------------------------------------------------------


def test_parse_examples():
    germ = parse_germ(A2_DOC)
    assert germ == germ_cyclic_quotient(3, (1, 2))
    flat1 = parse_germ('{"dim":1,"lattice":{"generators":[]},"boundary":["1"]}')
    assert flat1.dim == 1 and flat1.boundary == (F(1),)


def test_parse_errors():
    with pytest.raises(InputError):
        parse_germ("{not json")
    with pytest.raises(MalformedRational):
        parse_germ('{"dim":1,"lattice":{"generators":[]},"boundary":["0.5"]}')
    with pytest.raises(InputError):
        parse_germ('{"dim":2,"lattice":{"generators":[["1/2"]]},"boundary":["0","0"]}')
    with pytest.raises(InputError):
        parse_germ('{"dim":1,"lattice":{"generators":[]},"boundary":["3/2"]}')
    # nested past the decoder's depth, and integers past the interpreter's 4,300 digits
    with pytest.raises(InputError):
        parse_germ("[" * 200000)
    with pytest.raises(MalformedRational):
        parse_germ('{"dim":1,"lattice":{"generators":[]},"boundary":["1/' + "1" * 5000 + '"]}')
    with pytest.raises(InputError):
        parse_germ('{"dim":' + "1" * 5000 + ',"lattice":{"generators":[]},"boundary":["0"]}')


@pytest.mark.parametrize(
    "read",
    [
        lambda: parse_germ('{"dim":2,"lattice":{"generators":[]},"boundary":[true,0]}'),
        lambda: parse_germ('{"dim":2,"lattice":{"generators":[[false,true]]},"boundary":["0","0"]}'),
        lambda: CorpusConfig.from_dict({"boundary_set": [True]}),
    ],
    ids=["boundary", "generator", "boundary-set"],
)
def test_a_json_boolean_is_not_a_rational(read):
    """``true`` and ``false`` were read as 1 and 0: a boundary of (1, 0), a
    generator (0, 1) and a corpus boundary set of {1}."""
    with pytest.raises(MalformedRational):
        read()


MALFORMED_GERM_DOCUMENTS = [
    '{"dim":"x","lattice":{"generators":[]},"boundary":["0"]}',
    '{"dim":2.5,"lattice":{"generators":[]},"boundary":["0","0"]}',
    '{"dim":true,"lattice":{"generators":[]},"boundary":["0"]}',
    '{"dim":0,"lattice":{"generators":[]},"boundary":[]}',
    '{"lattice":{"generators":[]},"boundary":["0"]}',
    '{"dim":2,"lattice":[],"boundary":["0","0"]}',
    '{"dim":2,"lattice":{"generators":[5]},"boundary":["0","0"]}',
    '{"dim":2,"lattice":{"generators":"1/2"},"boundary":["0","0"]}',
    '{"dim":2,"lattice":{"generators":[]},"boundary":null}',
    '{"dim":2,"lattice":{"generators":[]}}',
    '{"dim":2,"latice":{"generators":[["1/3","2/3"]]},"boundary":["0","0"]}',
    '{"dim":2,"lattice":{"generator":[["1/3","2/3"]]},"boundary":["0","0"]}',
    '{"dim":2,"lattice":{"generators":[]},"boundary":["0","0"],"comment":"C^2"}',
    '{"dim":2,"lattice":{"generators":[]},"boundary":["1","0"],"boundary":["0","0"]}',
]

MALFORMED_CORPUS_CONFIGS = [
    [1],
    {"dims": 5},
    {"dims": [0]},
    {"dims": ["2"]},
    {"max_index": "x"},
    {"max_index": 2.5},
    {"oracle_radius": 0},
    {"row_cap": True},
    {"boundary_set": "0"},
    {"boundary_set": ["3/2"]},
    {"minkowski_delta": "0"},
    {"fail_fast": "yes"},
    {"max_idx": 3},
]


@pytest.mark.parametrize("doc", MALFORMED_GERM_DOCUMENTS + MALFORMED_CORPUS_CONFIGS)
def test_malformed_documents_are_input_errors(doc):
    """Wrong types and ranges raised ValueError, AttributeError or TypeError
    (exit 3), were truncated silently, or ran the default corpus."""
    with pytest.raises(InputError):
        if isinstance(doc, str):
            parse_germ(doc)
        else:
            CorpusConfig.from_dict(doc)


def serialize_oracle(germ):
    """``germ_document`` through ``json.dumps``, compact with sorted keys: the
    oracle of ``serialize_germ``, which formats the same bytes directly."""
    return json.dumps(germ_document(germ), sort_keys=True, separators=(",", ":"))


def test_round_trips():
    """The A2 document and every germ of the default corpus to index 4."""
    for germ in [parse_germ(A2_DOC), *corpus_germs(CorpusConfig(max_index=4))]:
        text = serialize_germ(germ)
        assert text == serialize_oracle(germ)
        assert parse_germ(text) == germ
        assert serialize_germ(parse_germ(text)) == text
    # parsing normalizes: a non-normal presentation lands on the same germ
    messy = '{"dim":2,"lattice":{"generators":[["1/2","0"]]},"boundary":["0","0"]}'
    assert parse_germ(messy).lattice == Lattice.standard(2)


# -- the survey --------------------------------------------------------------------


def test_survey_small_example():
    rows = run_survey(2, 3, [0])
    assert [r.index for r in rows] == [1, 2, 3, 3]
    assert [r.mld_point for r in rows] == [2, 1, F(2, 3), 1]
    assert all(r.lsc_ok and r.bounds_ok for r in rows)
    assert rows[0].pia_ok is None


def test_survey_includes_terminal_threefold():
    rows = run_survey(3, 5, [0])
    assert any(r.mld_point == F(6, 5) and r.index == 5 for r in rows)


def test_survey_one_dimensional_flat():
    rows = run_survey(1, 1, [1])
    assert len(rows) == 1 and rows[0].mld_point == 0 and rows[0].mld_exceptional is None


def test_survey_row_cap(monkeypatch):
    import toricmld.survey as survey

    monkeypatch.setattr(survey, "ROW_CAP_DEFAULT", 3)
    with pytest.raises(ResourceLimit):
        run_survey(2, 3, [0, F(1, 2)])


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_row_cap_trips_before_any_lattice_is_built(monkeypatch, jobs):
    """The cap is checked on the lattice count, before any lattice is
    dualized or any row computed, and rejects exactly the surveys whose
    lattices times assignments exceed it, for every job count."""
    import multiprocessing

    import toricmld.lattice as lattice
    import toricmld.survey as survey

    built = []
    dual = lattice._inverse_columns

    def counted(t, den):
        built.append(den)
        return dual(t, den)

    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: ctx)
    monkeypatch.setattr(lattice, "_inverse_columns", counted)
    rows = len(enumerate_superlattices(3, 6)) * 27
    built.clear()
    monkeypatch.setattr(survey, "ROW_CAP_DEFAULT", rows - 1)
    with pytest.raises(ResourceLimit, match=f"row cap {rows - 1}"):
        run_survey(3, 30, [0, F(1, 2), 1], jobs=jobs)
    with pytest.raises(ResourceLimit, match=f"row cap {rows - 1}"):
        run_survey(3, 6, [0, F(1, 2), 1], jobs=jobs)
    assert built == [] and ctx.sizes == []
    monkeypatch.setattr(survey, "ROW_CAP_DEFAULT", rows)
    assert len(run_survey(3, 6, [0, F(1, 2), 1], jobs=jobs, mod_permutations=True)) < rows


def test_survey_validation():
    with pytest.raises(InputError):
        run_survey(2, 2, [])
    with pytest.raises(InputError):
        run_survey(2, 2, [F(3, 2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: mld_bruteforce_oracle(germ_cyclic_quotient(3, (1, 2)), (1, 2), 1.5),
        lambda: run_survey(2, 2.5, [0]),
        lambda: run_survey(2.0, 2, [0]),
        lambda: enumerate_superlattices(2, 2.5),
        lambda: enumerate_superlattices(2.0, 2),
        lambda: lattice_from_generators(2.0, []),
    ],
    ids=["oracle-radius", "survey-index", "survey-dim", "enumerate-index", "enumerate-dim", "generators-dim"],
)
def test_float_radius_dim_and_index_are_input_errors(call):
    with pytest.raises(InputError, match="must be an integer"):
        call()


def test_survey_determinism_and_formats():
    one = rows_to_csv(run_survey(2, 4, [0, F(1, 2)]))
    two = rows_to_csv(run_survey(2, 4, [0, F(1, 2)]))
    assert one == two
    assert one.startswith("germ_id,dim,index,boundary,mld_point")
    assert "\r" not in one
    payload = json.loads(rows_to_json(run_survey(2, 2, [0])))
    assert payload[0]["dim"] == "2"


def test_survey_parallel_matches_serial():
    serial = rows_to_csv(run_survey(2, 6, [0, 1]))
    parallel = rows_to_csv(run_survey(2, 6, [0, 1], jobs=2))
    assert serial == parallel


@pytest.mark.parametrize("mod_permutations", [False, True])
def test_survey_parallel_matches_serial_across_chunks(mod_permutations):
    """d = 3 to index 8 is 224 lattices, 28 chunks of ``CHUNK``: the rows come
    back in canonical order across every chunk boundary."""
    assert len(enumerate_superlattices(3, 8)) > 4 * CHUNK
    coeffs = [0, F(1, 2), 1]
    serial = run_survey(3, 8, coeffs, mod_permutations=mod_permutations)
    parallel = run_survey(3, 8, coeffs, mod_permutations=mod_permutations, jobs=2)
    assert rows_to_csv(serial) == rows_to_csv(parallel) and rows_to_json(serial) == rows_to_json(parallel)


def test_survey_mod_permutations():
    full = run_survey(2, 3, [0, 1])
    reduced = run_survey(2, 3, [0, 1], mod_permutations=True)
    assert len(reduced) < len(full)
    # the representative of a permutation orbit is the lexicographic minimum
    ids = {r.germ_id for r in reduced}
    assert ids <= {r.germ_id for r in full}
    # one row per (lattice, b) orbit under coordinate permutations
    orbits = {
        frozenset((permuted(lat, p).basis, tuple(b[i] for i in p)) for p in permutations(range(2)))
        for lat in enumerate_superlattices(2, 3)
        for b in product([0, 1], repeat=2)
    }
    assert len(reduced) == len(orbits)


def test_orbit_representatives_permute_integer_rows(monkeypatch):
    """The orbit minimum taken over permuted integer rows keeps the same
    boundaries as the one over Fraction rows through ``from_rows``, and
    builds no lattice, through ``from_rows`` or ``_from_int_rows``."""
    coeffs = [F(0), F(1, 2), F(1)]
    assignments = list(product(coeffs, repeat=3))
    lattices = enumerate_superlattices(3, 6)

    def by_permute(lat):
        perms = list(permutations(range(3)))
        bases = [permuted(lat, p).basis for p in perms]
        return [
            b
            for b in assignments
            if min((basis, tuple(b[i] for i in p)) for basis, p in zip(bases, perms)) == (lat.basis, b)
        ]

    expected = [by_permute(lat) for lat in lattices]
    calls = []
    from_rows = Lattice.from_rows.__func__

    def counted(cls, dim, rows):
        calls.append(dim)
        return from_rows(cls, dim, rows)

    from_int_rows = Lattice._from_int_rows.__func__

    def counted_int_rows(cls, dim, rows, den):
        calls.append(dim)
        return from_int_rows(cls, dim, rows, den)

    monkeypatch.setattr(Lattice, "from_rows", classmethod(counted))
    monkeypatch.setattr(Lattice, "_from_int_rows", classmethod(counted_int_rows))
    assert [_orbit_representatives(lat, assignments) for lat in lattices] == expected
    assert calls == []
    rows = run_survey(3, 6, coeffs, mod_permutations=True)
    assert [(r.index, r.boundary) for r in rows] == [
        (lat.index, tuple(rat_str(c) for c in b)) for lat, bs in zip(lattices, expected) for b in bs
    ]


def test_survey_row_keeps_the_traced_call_structure(monkeypatch):
    """One row of a d = 3 germ with index > 1 reads the general-member
    threshold off ``Lattice.threshold_vertices`` and reaches none of the
    program's entry points, at any place the package binds them."""
    import importlib

    bypassed = ("lct_general_member", "newton_poly_from_exponents", "lct_newton", "solve_lp_max_slack")
    counts = {}
    for name in bypassed:
        for mod in ("newton", "linprog", "germ", "survey"):
            module = importlib.import_module(f"toricmld.{mod}")
            if hasattr(module, name):

                def counted(*args, _fn=getattr(module, name), _name=name):
                    counts[_name] = counts.get(_name, 0) + 1
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
    germ = germ_cyclic_quotient(5, (1, 2, 3))
    assert germ.dim == 3 and germ.lattice.index > 1
    assert "threshold_vertices" not in vars(germ.lattice)
    _survey_row(germ)
    assert "threshold_vertices" in vars(germ.lattice)
    assert not counts, counts


def test_a_survey_row_reads_the_point_witnesses_once(monkeypatch):
    """A row writes its witnesses once, from the full face's integer
    minimizer rows in the face table (``row_str``): it calls neither
    ``germ.mld_face`` nor ``FaceTable.witnesses``, and over the warm default
    corpus to index 6 it builds at most 5 ``Fraction``s a row, the row's own
    fields (5.00 measured, against 9.88 through an ``mld_face`` report)."""
    import toricmld.germ as germ_module
    from toricmld.germ import FaceTable

    germs = list(corpus_germs(CorpusConfig(max_index=6)))
    assert len(germs) == 6596
    for germ in germs:
        _survey_row(germ)
    for owner, name in ((germ_module, "mld_face"), (FaceTable, "witnesses")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
    made, real = [], F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(lambda cls, *args, **kw: made.append(1) or real(cls, *args, **kw)))
    for germ in germs:
        _survey_row(germ)
    monkeypatch.undo()
    assert len(made) <= 5 * len(germs), len(made) / len(germs)


def direct_rows(dim, max_index, coeffs):
    """The survey computed germ by germ, ``_survey_row`` on each lattice of
    ``enumerate_superlattices`` (built one at a time) with each boundary: the
    oracle for the rows the survey derives along coordinate-permutation orbits."""
    assignments = list(product(sorted(map(F, coeffs)), repeat=dim))
    lattices = (_superlattice(dim, den, rows) for _, den, rows in _superlattices(dim, max_index))
    return (_survey_row(ToricGerm(lat, b)) for lat in lattices for b in assignments)


@pytest.mark.parametrize(
    "dim,max_index,coeffs",
    [(2, 40, [0, F(1, 2), 1]), (3, 20, [0, F(1, 2), 1]), (4, 6, [0, 1])],
    ids=["d2-index40", "d3-index20", "d4-index6"],
)
def test_derived_rows_match_the_direct_route(monkeypatch, dim, max_index, coeffs):
    """Each survey row, computed on its orbit's representative or derived
    from it, is the row of the direct route (``direct_rows``), in the same
    order; these sets hold lattices with a nontrivial stabiliser, and derived
    rows with one witness and with several.  At the first computed row of
    each index class no computed row of an earlier class is alive: a class's
    rows go when the next one starts.  Each derived member carries the
    ``unit_scales`` of the same lattice built afresh."""
    import weakref

    import toricmld.survey as survey

    computed, real = [], survey._survey_row
    members, witness_counts, real_derived = [], set(), survey._derived_rows

    def watched(germ):
        index = germ.lattice.index
        if computed and computed[-1][0] != index:
            assert [i for i, ref in computed if ref() is not None] == [], index
        row = real(germ)
        computed.append((index, weakref.ref(row)))
        return row

    def derived_watched(rows, perm, lattice, assignments, where):
        members.append((lattice.den, lattice.int_rows, vars(lattice)["unit_scales"]))
        for row in real_derived(rows, perm, lattice, assignments, where):
            witness_counts.add(min(len(row.witnesses), 2))
            yield row

    monkeypatch.setattr(survey, "_survey_row", watched)
    monkeypatch.setattr(survey, "_derived_rows", derived_watched)
    derived = map(SurveyRow.as_record, _survey_rows(dim, max_index, coeffs, False, 1))
    for got, want in zip_longest(derived, map(SurveyRow.as_record, direct_rows(dim, max_index, coeffs))):
        assert got == want
    assert sorted({i for i, _ in computed}) == list(range(1, max_index + 1))
    assert members and all(scales == _superlattice(dim, den, rows).unit_scales for den, rows, scales in members)
    assert witness_counts == {1, 2}


def test_a_derived_member_builds_no_dual_basis(monkeypatch):
    """A derived member's lattice holds only what it was built with and its
    carried ``unit_scales`` after each of its rows: ``ToricGerm`` reads the
    scales without building ``dual_int_basis``, and the germ id needs nothing else."""
    import toricmld.survey as survey

    seen, real = [], survey._derived_rows

    def watched(rows, perm, lattice, assignments, where):
        for row in real(rows, perm, lattice, assignments, where):
            yield row
            assert set(vars(lattice)) == {"dim", "den", "int_rows", "is_superlattice", "unit_scales"}, lattice
        seen.append(lattice)

    monkeypatch.setattr(survey, "_derived_rows", watched)
    rows = run_survey(3, 8, [0, F(1, 2), 1])
    assert len(seen) > 0 and len(rows) == 27 * len(enumerate_superlattices(3, 8))


def test_each_row_stamps_germ_id_once_and_each_representative_row_is_computed_once(monkeypatch):
    """``survey.germ_id``, looked up at call time, runs once per row and
    ``_survey_row`` once per orbit representative's row: at d = 3 to index 20
    with b = 0, 3,224 rows from 706 representatives.  A benchmark times the
    survey row by row between ``germ_id`` calls."""
    import toricmld.survey as survey

    calls = {"germ_id": 0, "_survey_row": 0}
    for name in calls:

        def counted(germ, _fn=getattr(survey, name), _name=name):
            calls[_name] += 1
            return _fn(germ)

        monkeypatch.setattr(survey, name, counted)
    rows = run_survey(3, 20, [0])
    assert (len(rows), calls["germ_id"], calls["_survey_row"]) == (3224, 3224, 706)


# -- the chain-condition report -------------------------------------------------------


def test_acc_report_values_d2():
    rep = acc_report(run_survey(2, 3, [0]))
    assert [v for v, _ in rep.values] == [F(2, 3), 1, 2]
    assert rep.maximum == 2
    assert rep.gaps[0] == (F(2, 3), 1, F(1, 3))


def test_acc_report_single_row():
    rep = acc_report(run_survey(3, 1, [0]))
    assert [v for v, _ in rep.values] == [3]


def test_acc_report_terminal_classification_small():
    rep = acc_report(run_survey(3, 8, [0]))
    assert rep.maximum == 3


def test_acc_report_needs_rows():
    with pytest.raises(InputError):
        acc_report([])


def test_value_multiset_matches_independent_recomputation():
    # the report's counts against an oracle recomputation of every row
    from collections import Counter
    from toricmld.germ import full_face, mld_bruteforce_oracle

    rows = run_survey(2, 4, [F(0), F(1, 2)])
    rep = acc_report(rows)
    assert sum(n for _, n in rep.values) == len(rows)
    recomputed = Counter()
    for lat in enumerate_superlattices(2, 4):
        for b in product([F(0), F(1, 2)], repeat=2):
            germ = ToricGerm(lat, b)
            recomputed[mld_bruteforce_oracle(germ, full_face(2), 3)] += 1
    assert dict(rep.values) == dict(recomputed)


# -- corpus verification -----------------------------------------------------------------


def test_verify_small_corpus_passes():
    cfg = CorpusConfig(dims=(1, 2), max_index=4, boundary_set=(F(0), F(1, 2), F(1)))
    status, report = verify_corpus(cfg)
    assert status == 0
    # one 1-dim lattice (3 boundary choices), six 2-dim lattices (9 each)
    assert report["checked"] == 3 + 6 * 9
    assert report["failures"] == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: CorpusConfig(boundary_set=()),
        lambda: CorpusConfig.from_dict({"boundary_set": [], "max_index": 100}),
        lambda: run_survey(2, 2, []),
    ],
    ids=["config", "config-dict", "survey"],
)
def test_an_empty_boundary_set_is_refused_before_any_lattice(call, monkeypatch):
    """With no coefficient the rows stayed 0 and the row cap never tripped:
    ``check`` built every lattice up to the index only to check no germ."""
    import toricmld.survey as survey

    monkeypatch.setattr(survey, "_superlattices", None)
    with pytest.raises(InputError, match="boundary set must be nonempty"):
        call()


def test_the_survey_reads_its_global_minimum_off_the_face_table():
    import toricmld.survey as survey

    assert not hasattr(survey, "mld_global")
    for germ in survey.corpus_germs(CorpusConfig(max_index=4)):
        assert _survey_row(germ).mld_global == mld_global(germ).value


def test_verify_empty_corpus_warns():
    """Empty dims are refused, so an empty corpus comes only as a germ list."""
    status, report = verify_corpus(CorpusConfig(max_index=4), germs=[])
    assert status == 0
    assert report["warnings"] == ["empty corpus: all checks passed vacuously"]


def test_a_dimension_is_refused_when_its_box_tables_exceed_the_cap():
    """Dimension 20 has 2^20 - 1 box rows per germ, within ``TABLE_CAP``,
    and is counted without building a lattice; dimension 21 is refused
    before its diagonals are walked, and so is a corpus that contains it."""
    _lattice_stream((20,), 1, (F(0),), 1, "survey")  # one row: within a cap of 1, over a cap of 0
    with pytest.raises(ResourceLimit, match="survey exceeds the row cap 0"):
        _lattice_stream((20,), 1, (F(0),), 0, "survey")
    with pytest.raises(ResourceLimit, match="2\\^21 - 1 rows exceeds the cap 1048576"):
        _lattice_stream((21,), 1, (F(0),), 1, "survey")
    with pytest.raises(ResourceLimit, match="2\\^21 - 1 rows"):
        verify_corpus(CorpusConfig(dims=(1, 21), max_index=1))


def test_check_row_cap_trips_before_any_lattice_is_built(monkeypatch):
    """The corpus's germs are counted on its dual HNF bases, so an over-cap
    corpus is refused before any lattice is dualized or any germ checked,
    and a corpus of exactly the cap runs.  Germs that a caller supplies are
    still capped as they are checked."""
    import toricmld.lattice as lattice
    import toricmld.survey as survey

    calls = []
    dual, check = lattice._inverse_columns, survey._check_germ
    monkeypatch.setattr(lattice, "_inverse_columns", lambda t, den: calls.append("dual") or dual(t, den))
    monkeypatch.setattr(survey, "_check_germ", lambda germ: calls.append("check") or check(germ))
    germs = 3 + 6 * 9
    over = CorpusConfig(dims=(1, 2), max_index=4, boundary_set=(F(0), F(1, 2), F(1)), row_cap=germs - 1)
    with pytest.raises(ResourceLimit, match=f"row cap {germs - 1}"):
        verify_corpus(over)
    with pytest.raises(ResourceLimit, match="row cap 2000"):
        verify_corpus(CorpusConfig(dims=(3,), max_index=40, row_cap=2000))
    assert calls == []
    status, report = verify_corpus(replace(over, row_cap=germs))
    assert status == 0 and report["checked"] == germs == calls.count("check")
    supplied = [germ_cyclic_quotient(3, (1, 2))] * 2
    with pytest.raises(ResourceLimit, match="row cap 1"):
        verify_corpus(replace(over, row_cap=1), germs=supplied)


def test_verify_catches_corrupted_lattice():
    # surgery: "canonical" rows that are not canonical (the basis
    # (1/3, 2/3), (1/3, 1/6)) break the coset machinery in ways the
    # cross-checks must flag
    broken = object.__new__(Lattice)
    object.__setattr__(broken, "dim", 2)
    object.__setattr__(broken, "den", 6)
    object.__setattr__(broken, "int_rows", ((2, 4), (2, 1)))
    germ = object.__new__(ToricGerm)
    object.__setattr__(germ, "lattice", broken)
    object.__setattr__(germ, "boundary", (F(0), F(0)))
    status, report = verify_corpus(CorpusConfig(), germs=[germ])
    assert status == 2
    assert report["failures"] and report["failures"][0]["problems"]


@pytest.mark.parametrize("fail_fast", [False, True])
def test_fail_fast_stops_at_the_first_failing_germ(fail_fast):
    """Two surgically broken lattices around a sound germ: neither contains
    Z^2, so each fails; ``fail_fast`` reports the first and checks no more."""

    def broken(int_rows, den):
        lat = object.__new__(Lattice)
        lat.__dict__.update(dim=2, den=den, int_rows=int_rows)
        germ = object.__new__(ToricGerm)
        germ.__dict__.update(lattice=lat, boundary=(F(0), F(0)))
        return germ

    germs = [broken(((2, 4), (2, 1)), 6), germ_cyclic_quotient(3, (1, 2)), broken(((3, 0), (0, 1)), 2)]
    status, report = verify_corpus(CorpusConfig(fail_fast=fail_fast), germs=germs)
    assert status == 2
    assert report["checked"] == (1 if fail_fast else 3)
    expected = [germ_document(g) for g in (germs[:1] if fail_fast else germs[::2])]
    assert [f["germ"] for f in report["failures"]] == expected


@pytest.mark.parametrize("key", ["oracle_radius", "minkowski_delta"])
def test_a_corpus_config_has_no_oracle_radius_or_dilation_gap(key):
    """No radius >= 1 changes the oracle's value and no gap changes the
    dilation verdict, so the battery fixes both and the keys are unknown."""
    with pytest.raises(InputError, match=f"unknown corpus config keys: \\['{key}'\\]"):
        CorpusConfig.from_dict({key: 1})


def test_the_readme_names_exactly_the_corpus_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("A corpus config is a JSON object with any of:")[1].split("Other keys")[0]
    assert sorted(re.findall(r"`([a-z_]+)`", paragraph)) == sorted(f.name for f in fields(CorpusConfig))


def test_corpus_config_from_dict():
    cfg = CorpusConfig.from_dict({"dims": [2], "max_index": 3, "boundary_set": ["0", "1/2"], "fail_fast": True})
    assert cfg.dims == (2,) and cfg.max_index == 3
    assert cfg.boundary_set == (F(0), F(1, 2)) and cfg.fail_fast


def test_corpus_config_reads_dims_as_a_set():
    """A repeated dimension checked each germ twice, and dims (2, 1) gave
    dimension 2 first, against the canonical order of ``corpus_germs``."""
    one = CorpusConfig(dims=(2,), max_index=2, boundary_set=(0,))
    twice = CorpusConfig(dims=(2, 2), max_index=2, boundary_set=(0,))
    assert twice == one and twice.dims == (2,)
    assert verify_corpus(twice)[1]["checked"] == verify_corpus(one)[1]["checked"] == 2
    unordered = CorpusConfig(dims=(2, 1), max_index=2, boundary_set=(0,))
    assert unordered.dims == (1, 2)
    assert [g.dim for g in corpus_germs(unordered)] == [1, 2, 2]


def test_germ_id_is_stable_and_boundary_sensitive():
    a = germ_id(germ_cyclic_quotient(3, (1, 2)))
    b = germ_id(germ_cyclic_quotient(3, (1, 2)))
    c = germ_id(ToricGerm(germ_cyclic_quotient(3, (1, 2)).lattice, (F(1, 2), F(0))))
    assert a == b != c


def test_survey_rejects_nonpositive_jobs():
    for jobs in (0, -3):
        with pytest.raises(InputError):
            run_survey(2, 2, [0], jobs=jobs)


class _RecordingContext:
    """Stands in for a multiprocessing context: records the requested worker
    count and chunk size and maps in this process, so no worker is ever
    started."""

    def __init__(self):
        self.sizes = []
        self.chunksizes = []

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize):
        self.chunksizes.append(chunksize)
        return map(fn, items)


@pytest.mark.parametrize("cores,jobs,expected", [(2, 64, [2]), (2, 2, [2]), (1, 8, []), (None, 8, [])])
def test_survey_clamps_jobs_to_the_core_count(monkeypatch, cores, jobs, expected):
    import multiprocessing
    import os

    ctx = _RecordingContext()
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: ctx)
    rows = rows_to_csv(run_survey(2, 4, [0], jobs=jobs))
    assert ctx.sizes == expected
    assert set(ctx.chunksizes) == ({CHUNK} if expected else set())  # one imap per index class
    assert rows == rows_to_csv(run_survey(2, 4, [0]))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mod_permutations", [False, True])
def test_survey_rows_come_in_canonical_order(jobs, mod_permutations):
    coeffs = [F(0), F(1, 2), F(1)]
    key = {
        germ_id(ToricGerm(lat, b)): (2, lat.index, lat.basis, b)
        for lat in enumerate_superlattices(2, 6)
        for b in product(coeffs, repeat=2)
    }
    rows = run_survey(2, 6, coeffs, mod_permutations=mod_permutations, jobs=jobs)
    keys = [key[r.germ_id] for r in rows]
    assert keys == sorted(set(keys))
    if not mod_permutations:
        assert len(keys) == len(key)
