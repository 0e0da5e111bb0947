"""The `check` battery: its failure messages, the invariants it shares with
the survey row, the oracle's independence of its radius and of the box
candidates, and byte-identical reports."""
from fractions import Fraction as F
from hashlib import sha256
from itertools import product
from operator import mul

import json

import pytest

from faces import with_entry
from toricmld import cli
from toricmld.germ import ToricGerm, germ_cyclic_quotient, germ_document, mld_bruteforce_oracle, verify_minkowski
from toricmld.lattice import Lattice, enumerate_superlattices
from toricmld.survey import CorpusConfig, _check_germ, corpus_germs, run_survey, verify_corpus

# sha256 of the outputs below, recorded before the check battery was rebuilt
# on the survey row (and, for flat, before its builder moved to integer
# rows; flat4 before flat read rho off the vertex list); any change to a
# report, a survey or a flat structure shows here.
DIGESTS = {
    "check": "daf6c958425655c7179be592380b048a814029eb786658fa61738243b7909c98",
    "csv": "701ff4d9984473c2338927abde7ab73835d243fc71d2ee271957acd124c099de",
    "json": "ce42c348eaae4ff986d5b57238168b49cd46de90ceafaf74a6175dc0e12b2ac4",
    "flat": "d40609471d12d884eab17430decbb02ae0e477810e21672798126903b1d8dc6c",
    "flat4": "438a71c81be9e6542651a46933a532692a11070567ff6d9494f73293213a92b9",
    "mld": "5c806ca332cfd885b372ee8818d9d431331c5e91f27145c27745681289096751",
    "lct": "b906f69321b1e1775139ca578aad664bc5e9000eb9eddfbd20fe6d42a5f783aa",
    "adjoin": "eccee8d1f491ec746e3c41f0ead782d91b29557bc3b5942973242ceced08ad7c",
}


def test_check_and_survey_outputs_are_byte_identical(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"max_index": 4}')
    survey = ["survey", "--dim", "3", "--max-index", "8", "--boundary-set", "0,1/2,1"]
    runs = {
        "check": ["check", "--corpus-config", str(config)],
        "csv": survey,
        "json": survey + ["--json"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert sha256(out.read_bytes()).hexdigest() == DIGESTS[name], name


def _flat_digest(germs, tmp_path, capsys) -> tuple[str, int]:
    """One sha256 over the exit code and stdout of ``toricmld flat -i`` on
    each germ, in order, and the number of runs."""
    germ_file = tmp_path / "germ.json"
    digest, runs = sha256(), 0
    for germ in germs:
        germ_file.write_text(json.dumps(germ_document(germ)))
        code = cli.main(["flat", "-i", str(germ_file)])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        runs += 1
    return digest.hexdigest(), runs


def test_flat_outputs_are_byte_identical(tmp_path, capsys):
    """``toricmld flat -i`` on every germ of the default corpus to index 4
    (2,148 germs), recorded before the builder moved to integer rows."""
    assert _flat_digest(corpus_germs(CorpusConfig(max_index=4)), tmp_path, capsys) == (DIGESTS["flat"], 2148)


def test_flat_outputs_are_byte_identical_in_dimension_four(tmp_path, capsys):
    """``toricmld flat -i`` on d = 4 to index 4 with b in {0, 1/2, 1}^4
    (149 lattices, 12,069 germs), where a vertex of the general-member
    polyhedron can have a primitive point outside the unit box; recorded
    before flat read rho off the vertex list."""
    germs = [ToricGerm(lat, b) for lat in enumerate_superlattices(4, 4) for b in product((0, F(1, 2), 1), repeat=4)]
    assert _flat_digest(germs, tmp_path, capsys) == (DIGESTS["flat4"], 12069)


# the options each germ subcommand runs with on one germ, one list per run
GERM_COMMANDS = {
    "mld": lambda germ: [["mld", "--global", "--oracle"]],
    "lct": lambda germ: [["lct", "--general-member"]],
    "adjoin": lambda germ: [["adjoin", "--divisor", str(i), "--check"] for i, b in enumerate(germ.boundary, 1) if b == 1],
}


@pytest.mark.parametrize("command,runs", [("mld", 2148), ("lct", 2148), ("adjoin", 1585)])
def test_germ_command_outputs_are_byte_identical(tmp_path, capsys, command, runs):
    """One sha256 over the exit code and stdout of each run of ``command``
    on every germ of the default corpus to index 4 (2,148 germs), recorded
    before the germ subcommands read their document in ``cli.main``; for
    ``adjoin``, one run per divisor with coefficient 1."""
    germ_file = tmp_path / "germ.json"
    digest, count = sha256(), 0
    for germ in corpus_germs(CorpusConfig(max_index=4)):
        germ_file.write_text(json.dumps(germ_document(germ)))
        for argv in GERM_COMMANDS[command](germ):
            code = cli.main([*argv, "-i", str(germ_file)])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
            count += 1
    assert (digest.hexdigest(), count) == (DIGESTS[command], runs)


# -- failure messages ---------------------------------------------------------------


def test_a_minimizer_off_the_lattice_is_reported_with_its_fraction_vector():
    # N = Z^2 + Z(1/3, 2/3), weights (1, 1/2): scale 6, full-face minimum 4 at
    # (1, 2)/3; (2, 0)/3 has the same value but is no lattice point
    germ = ToricGerm(germ_cyclic_quotient(3, (1, 2)).lattice, (0, F(1, 2)))
    scaled, rows = germ.face_table.entries[(1, 2)]
    assert (scaled, rows, germ.face_table.scale) == (4, ((1, 2),), 6)
    with_entry(germ, (1, 2), 4, ((1, 2), (2, 0)))
    assert _check_germ(germ) == [
        "witness (2/3,0) is outside the lattice",
    ]


def test_an_off_lattice_row_among_the_box_candidates_is_reported():
    # N = Z^2 + Z(1/5, 2/5), zero boundary: the full-face minimum 3/5 is at
    # (1, 2)/5; (2, 1)/5 ties it but is no lattice point.  Put among the box
    # candidates themselves, it is a minimizer that the per-lattice pairing
    # (``Lattice.member_rows``) must not take for verified.
    lat = Lattice.from_generators(2, [(F(1, 5), F(2, 5))])
    rows = dict(lat.box_candidates)
    rows[(1, 2)] += ((2, 1),)
    vars(lat)["box_candidates"] = rows
    germ = ToricGerm(lat, (0, 0))
    assert germ.face_table.entries[(1, 2)] == (3, ((1, 2), (2, 1)))
    assert _check_germ(germ) == [
        "witness (2/5,1/5) is outside the lattice",
    ]
    assert (2, 1) not in lat.member_rows and (1, 2) in lat.member_rows
    # a lattice point outside the box is no row either, and is paired in
    # full: (1, 7)/5 = (1, 2)/5 + e_2 ties the minimum 1/5 under b = (0, 1)
    germ = ToricGerm(lat, (0, 1))
    assert germ.face_table.entries[(1, 2)] == (1, ((1, 2),))
    assert (1, 7) not in lat.member_rows
    assert _check_germ(with_entry(germ, (1, 2), 1, ((1, 2), (1, 7)))) == []


def test_the_dilation_check_is_verify_minkowski_at_the_point_minimum():
    """The oracle on the full face is the dilation check: ``_check_germ``
    reports an oracle mismatch on the full face exactly when
    ``verify_minkowski(germ, m / scale, 1 / scale)`` fails, m the face
    table's scaled point minimum, as it stands and moved by 1 either way
    (``with_entry``): on the default corpus to index 4, and on d = 4 to
    index 3 with b in {0, 1/2, 1}^4."""
    germs = [*corpus_germs(CorpusConfig(max_index=4))]
    germs += [ToricGerm(lat, b) for lat in enumerate_superlattices(4, 3) for b in product((0, F(1, 2), 1), repeat=4)]
    for germ in germs:
        full = tuple(range(1, germ.dim + 1))
        m, rows = germ.face_table.entries[full]
        scale = germ.face_table.scale
        for shift in (0, 1, -1)[: 2 + (m > 0)]:
            moved = with_entry(ToricGerm(germ.lattice, germ.boundary), full, m + shift, rows)
            reported = any(p.startswith(f"oracle mismatch on face {full}:") for p in _check_germ(moved))
            assert reported is not verify_minkowski(germ, F(m + shift, scale), F(1, scale)), (germ, shift)
            assert reported is (shift != 0)
    assert len(germs) > 6000


def test_a_wrong_scaled_minimum_is_reported_on_every_minimizer():
    germ = ToricGerm(germ_cyclic_quotient(3, (1, 2)).lattice, (0, F(1, 2)))
    with_entry(germ, (1, 2), 5, ((1, 2),))
    assert _check_germ(germ) == [
        "oracle mismatch on face (1, 2): 5/6 vs 2/3",
        "witness (1/3,2/3) does not attain the face value",
    ]


def test_a_broken_divisibility_names_each_face_it_breaks_on(monkeypatch):
    # face values 1, 1/2 and 2/3; a claimed index of 1 clears only the first
    import toricmld.survey as survey

    germ = ToricGerm(germ_cyclic_quotient(3, (1, 2)).lattice, (0, F(1, 2)))
    assert survey.cartier_index(germ) == 6
    monkeypatch.setattr(survey, "cartier_index", lambda germ: 1)
    assert _check_germ(germ) == [
        "index divisibility failed on face (2,)",
        "index divisibility failed on face (1, 2)",
    ]


def test_a_failed_inversion_names_only_its_divisor(monkeypatch):
    import toricmld.survey as survey

    real = survey._precise_inversion
    monkeypatch.setattr(survey, "_precise_inversion", lambda germ, i: (False, None, None) if i == 2 else real(germ, i))
    germ = ToricGerm(germ_cyclic_quotient(5, (1, 2, 3)).lattice, (1, 1, 0))
    assert _check_germ(germ) == ["adjunction equality failed on divisor 2"]


# -- what one check computes --------------------------------------------------------


def test_each_invariant_runs_once_per_checked_germ(monkeypatch):
    """Each invariant runs once per checked germ; the point minimum, lower
    semicontinuity, the dimension bounds and precise inversion are read in
    integers, so no ``mld_face`` report and no ``CheckReport`` details are
    built."""
    import toricmld.adjunction as adjunction
    import toricmld.germ as germ_module
    import toricmld.survey as survey
    from toricmld.germ import FaceTable

    names = (
        "_invariants",
        "cartier_index",
        "_semicontinuity_bounds",
        "_shokurov_holds",
        "_general_member_threshold",
        "_precise_inversion",
    )
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _fn=getattr(survey, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(survey, name, counted)
    never = (
        (Lattice, "contains"),
        (ToricGerm, "log_discrepancy"),
        (germ_module, "mld_face"),
        (FaceTable, "witnesses"),
        (adjunction, "check_lower_semicontinuity"),
        (adjunction, "check_shokurov_bounds"),
        (adjunction, "check_precise_inversion"),
    )
    for owner, name in never:

        def refused(*args, _name=name):
            raise AssertionError(f"{_name} called on a passing corpus")

        monkeypatch.setattr(owner, name, refused)
    config = CorpusConfig(dims=(1, 2, 3), max_index=3, boundary_set=(0, F(1, 2), 1))
    germs = list(corpus_germs(config))
    status, report = verify_corpus(config)
    assert status == 0 and report["checked"] == len(germs)
    ones = sum(germ.boundary.count(1) for germ in germs if germ.dim >= 2)
    assert calls.pop("_precise_inversion") == ones
    assert calls == dict.fromkeys(calls, len(germs))


def test_a_check_builds_no_germ_beyond_the_one_it_checks(monkeypatch):
    """Precise inversion reads the restricted lattice and rescaled weights,
    and the closed-form threshold reads the boundary alone, so the only
    germs built are the corpus's own (each construction is counted)."""
    real, built = ToricGerm.__post_init__, []
    monkeypatch.setattr(ToricGerm, "__post_init__", lambda germ: built.append(germ) or real(germ))
    config = CorpusConfig(dims=(1, 2, 3), max_index=4, boundary_set=(0, F(1, 2), 1))
    status, report = verify_corpus(config)
    assert status == 0 and report["checked"] == len(built) > 0
    assert sum(g.lattice.index == 1 and 1 in g.boundary for g in built) > 0


# -- the oracle ---------------------------------------------------------------------


def test_the_oracle_does_not_depend_on_its_radius():
    """Weights are >= 0, so shifting a point further out never lowers its
    value: the oracle reads the same minimum at every radius >= 1, and that
    minimum is the face table's."""
    for germ in corpus_germs(CorpusConfig(max_index=6)):
        table = germ.face_table
        for support in table.entries:
            value = table.value(support)
            assert [mld_bruteforce_oracle(germ, support, r) for r in (1, 3, 10)] == [value] * 3, (germ, support)


def test_the_oracle_catches_a_minimizer_dropped_from_the_box_candidates(monkeypatch):
    """The oracle shifts the coset residues itself, so a box candidate table
    that lost a face's only minimizer shows as an oracle mismatch on exactly
    that face.  Each face with more than one row loses its least row under
    the germ's weights; a face of one row keeps it, since the table needs a
    candidate on every face."""
    real = Lattice.box_candidates.func

    def dropped(lat):
        return {
            s: tuple(sorted(rows, key=lambda row: sum(map(mul, wn, row)))[1:]) if len(rows) > 1 else rows
            for s, rows in real(lat).items()
        }

    caught = 0
    for germ in corpus_germs(CorpusConfig(dims=(2, 3), max_index=4)):
        rows = real(germ.lattice)
        expected = [s for s, (_, best) in germ.face_table.entries.items() if len(best) == 1 < len(rows[s])]
        wn = germ._weight_ints[0]
        monkeypatch.setattr(Lattice, "box_candidates", property(dropped))
        problems = _check_germ(ToricGerm(Lattice(germ.dim, germ.lattice.basis), germ.boundary))
        monkeypatch.undo()
        mismatched = [p.split(":")[0] for p in problems if p.startswith("oracle mismatch")]
        assert mismatched == [f"oracle mismatch on face {s}" for s in expected], (germ, problems)
        caught += len(expected)
    assert caught > 100


def test_germ_id_runs_once_per_survey_row_and_never_in_a_check(monkeypatch):
    """The survey's row latency is stamped on ``germ_id``; a check reads no id."""
    import toricmld.survey as survey

    real, ids = survey.germ_id, []
    monkeypatch.setattr(survey, "germ_id", lambda germ: ids.append(real(germ)) or ids[-1])
    rows = run_survey(2, 4, (0, F(1, 2), 1))
    assert ids == [row.germ_id for row in rows]
    ids.clear()
    status, report = verify_corpus(CorpusConfig(dims=(1, 2), max_index=3))
    assert status == 0 and report["checked"] > 0 and ids == []
