import json
import multiprocessing
import os
import sys
import tracemalloc
from hashlib import sha256

import pytest

from limits import child_env, run_capped
from toricmld import cli

A2_DOC = '{"dim":2,"lattice":{"generators":[["1/3","2/3"]]},"boundary":["0","0"]}'
C2_DOC = '{"dim":2,"lattice":{"generators":[]},"boundary":["0","0"]}'
ADJ_DOC = '{"dim":3,"lattice":{"generators":[["1/4","2/4","3/4"]]},"boundary":["0","0","1"]}'


@pytest.fixture
def a2(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(A2_DOC)
    return str(path)


@pytest.fixture
def c2(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(C2_DOC)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mld_default_face(a2, capsys):
    code, out = run(capsys, "mld", "-i", a2)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1"
    assert payload["face"] == [1, 2]
    assert ["1/3", "2/3"] in payload["witnesses"]


def test_mld_face_and_oracle(a2, capsys):
    code, out = run(capsys, "mld", "-i", a2, "--face", "1", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == payload["oracle"] == "1"
    # the oracle's radius is fixed at 1, so the option that set it is gone
    assert cli.main(["mld", "-i", a2, "--oracle-radius", "2"]) == 1
    assert "--oracle-radius" in capsys.readouterr().err


def test_mld_global(a2, capsys):
    code, out = run(capsys, "mld", "-i", a2, "--global")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_lct_exponents(c2, capsys):
    code, out = run(capsys, "lct", "-i", c2, "--exponents", "2,0;0,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lct"] == "5/6" and payload["mu"] == "6/5" and payload["binding"] == "ray"


def test_lct_variants(c2, a2, capsys):
    code, out = run(capsys, "lct", "-i", c2, "--fermat", "2,3")
    assert code == 0 and json.loads(out)["lct"] == "5/6"
    code, out = run(capsys, "lct", "-i", c2, "--monomial", "1,2")
    assert code == 0 and json.loads(out)["lct"] == "1/2"
    code, out = run(capsys, "lct", "-i", a2, "--general-member")
    assert code == 0 and json.loads(out)["lct"] == "1"
    # the diagonal-sum closed form is only meaningful on the standard lattice
    assert cli.main(["lct", "-i", a2, "--fermat", "2,3"]) == 1
    capsys.readouterr()


def test_adjoin_with_check(tmp_path, capsys):
    path = tmp_path / "adj.json"
    path.write_text(ADJ_DOC)
    code, out = run(capsys, "adjoin", "-i", str(path), "--divisor", "3", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["scales"] == [2, 1]
    assert payload["precise_inversion"]["passed"] is True
    assert payload["precise_inversion"]["details"][0][1:] == ["3/4", "3/4"]


def test_flat_trace(c2, capsys):
    code, out = run(capsys, "flat", "-i", c2)
    assert code == 0
    payload = json.loads(out)
    assert [step["gamma"] for step in payload["trace"]] == ["1", "1"]
    assert payload["witness"]["x"] == ["1", "1"]


def test_survey_csv_and_json(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _ = run(capsys, "survey", "--dim", "2", "--max-index", "3", "--boundary-set", "0", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0].startswith("germ_id,")
    assert len(text.splitlines()) == 5
    code, out = run(capsys, "survey", "--dim", "2", "--max-index", "2", "--boundary-set", "0,1/2", "--json")
    assert code == 0
    assert len(json.loads(out)) == 8


def test_check_small_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [1, 2], "max_index": 3, "boundary_set": ["0", "1"]}))
    code, out = run(capsys, "check", "--corpus-config", str(cfg))
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_check_maps_failures_to_exit_two(tmp_path, capsys, monkeypatch):
    import toricmld.cli as cli_mod

    def fake_verify(config):
        return 2, {"checked": 1, "failures": [{"germ": {}, "problems": ["boom"]}], "warnings": []}

    monkeypatch.setattr(cli_mod, "verify_corpus", fake_verify)
    code, out = run(capsys, "check")
    assert code == 2


def test_exit_codes_for_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["mld", "-i", missing]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim":2,"lattice":{"generators":[]},"boundary":["3/2","0"]}')
    assert cli.main(["mld", "-i", str(bad)]) == 1
    capsys.readouterr()
    assert cli.main(["lct", "-i", str(bad)]) == 1
    capsys.readouterr()
    ok = tmp_path / "ok.json"
    ok.write_text(C2_DOC)
    # missing mode selection on lct is an input error
    assert cli.main(["lct", "-i", str(ok)]) == 1
    capsys.readouterr()
    # argparse-level failures are remapped to exit 1 as well
    assert cli.main(["mld"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command,text",
    [
        ("mld", '{"dim":"x","lattice":{"generators":[]},"boundary":["0"]}'),
        ("mld", '{"dim":2,"lattice":[],"boundary":["0","0"]}'),
        ("mld", '{"dim":2,"lattice":{"generators":[5]},"boundary":["0","0"]}'),
        ("mld", '{"dim":2,"lattice":{"generators":[]},"boundary":null}'),
        ("mld", '{"dim":2.5,"lattice":{"generators":[]},"boundary":["0","0"]}'),
        ("mld", '{"dim":true,"lattice":{"generators":[]},"boundary":["0"]}'),
        ("mld", '{"dim":2,"lattice":{"generators":[]},"boundary":[true,0]}'),
        ("mld", '{"dim":2,"latice":{"generators":[["1/3","2/3"]]},"boundary":["0","0"]}'),
        ("mld", '{"dim":2,"lattice":{"generators":[],"generators":[["1/3","2/3"]]},"boundary":["0","0"]}'),
        ("check", '{"dims": 5}'),
        ("check", '{"max_index": "x"}'),
        ("check", "[1]"),
        ("check", '{"oracle_radius": 0}'),
        ("check", '{"boundary_set": [true]}'),
        ("check", '{"max_index": 4, "max_index": 2}'),
        pytest.param("mld", b"\xff\xfe" + '{"dim":1,"boundary":["0"]}'.encode("utf-16-le"), id="mld-utf-16"),
        pytest.param("check", b'{"max_index": \xff}', id="check-byte-ff"),
        pytest.param("mld", "[" * 200000, id="mld-deep"),
        pytest.param("check", "[" * 200000, id="check-deep"),
        pytest.param("mld", '{"dim":1,"boundary":["1/' + "1" * 5000 + '"]}', id="mld-long-boundary"),
        pytest.param("mld", '{"dim":' + "1" * 5000 + ',"boundary":["0"]}', id="mld-long-dim"),
        pytest.param("check", '{"max_index": ' + "1" * 5000 + "}", id="check-long-index"),
    ],
)
def test_malformed_documents_exit_one(tmp_path, capsys, command, text):
    """Each exits 1 with nothing on stdout.  A boolean boundary was read as
    1 and 0: ``mld`` printed that germ's value and exited 0.  A file that is
    not UTF-8, JSON nested deeper than the decoder goes and an integer of
    more digits than the interpreter converts each exited 3 with a traceback."""
    path = tmp_path / "doc.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    flag = "-i" if command == "mld" else "--corpus-config"
    assert cli.main([command, flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["mld", "--global", "--oracle"],
        ["lct", "--general-member"],
        ["adjoin", "--divisor", "3", "--check"],
        ["flat"],
        ["survey", "--dim", "2", "--max-index", "3", "--boundary-set", "0,1/2"],
        ["check"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_holds_the_bytes_printed(tmp_path, capsys, argv):
    """Each subcommand writes to ``--out`` exactly what it prints to stdout
    without it, and then prints nothing."""
    germ, cfg = tmp_path / "adj.json", tmp_path / "cfg.json"
    germ.write_text(ADJ_DOC)
    cfg.write_text('{"dims": [2], "max_index": 3}')
    argv = argv + {"survey": [], "check": ["--corpus-config", str(cfg)]}.get(argv[0], ["-i", str(germ)])
    code, printed = run(capsys, *argv)
    out = tmp_path / "out"
    assert (code, printed != "") == (0, True)
    assert run(capsys, *argv, "--out", str(out)) == (0, "")
    assert out.read_bytes() == printed.encode()


# sha256 of ``toricmld --help`` and of each ``toricmld <cmd> --help`` at 80
# columns, recorded before the germ subcommands shared one ``-i`` declaration
HELP_DIGESTS = {
    "": "7ae668ba481bd85dafbbe22744c2bef828dc5b145580a52ad6c6ea1334c566fd",
    "mld": "b82d02a98c37ab7139e9505df65d168ec34a392e9060bd41c9f588ed5e7cfaff",
    "lct": "b6c56611f3df15a8a9bf368fcd6136ffe68869ad64dcee72459924539a494b7b",
    "adjoin": "c1bd2a1ae54d3e536f21e17998b67f689c5dc643bbd3b09f27f171983dcea422",
    "flat": "1a87d10348f8c5dfeee9cc20be1e409a5f1dc97c9e11d3700f846c01cd8e9876",
    "survey": "24798d1aa86a0ab015da52a4d7538fd684ff6d5bbc990776593b27b4dd9f9e87",
    "check": "8812e1752480de11a73783f2c7277b6f1cc2bf32824364999343f958682d1f66",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently in other Python versions")
@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_is_byte_identical(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


def test_a_boundary_set_of_too_many_digits_exits_one(capsys):
    """A coefficient past the interpreter's 4,300-digit limit exited 3 with a traceback."""
    assert cli.main(["survey", "--dim", "2", "--max-index", "2", "--boundary-set", "1/" + "1" * 5000]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_runs_without_numpy():
    """The package needs nothing beyond the standard library: with numpy
    unimportable, a survey and a flat build still run."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from toricmld import cli, build_flat_structure, germ_cyclic_quotient\n"
        "status = cli.main(['survey', '--dim', '2', '--max-index', '4'])\n"
        "build_flat_structure(germ_cyclic_quotient(5, (1, 2, 3)))\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("germ_id,")


def test_entrypoint_subprocess(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "c2.json"
    path.write_text(C2_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "toricmld", "mld", "-i", str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "2"


@pytest.mark.parametrize("command", ["mld", "survey", "check", "empty"])
def test_an_unwritable_out_exits_one(tmp_path, c2, capsys, monkeypatch, command):
    """An ``--out`` that cannot be written (its directory is missing, it
    names a directory, or it is empty) is an input error, not a traceback
    with exit 3 or a report on stdout, and it is refused before the germ is
    read or the corpus checked or surveyed; no file or directory is made."""
    reached = []
    for name in ("_read_germ", "verify_corpus", "_survey_rows"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: reached.append(_name))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [1], "max_index": 2, "boundary_set": ["0"]}))
    argv = {
        "mld": ["mld", "-i", c2, "--out", str(tmp_path / "missing" / "x.json")],
        "survey": ["survey", "--dim", "2", "--max-index", "2", "--out", str(tmp_path / "missing" / "x.csv")],
        "check": ["check", "--corpus-config", str(cfg), "--out", str(tmp_path)],
        "empty": ["mld", "-i", c2, "--out", ""],
    }[command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {argv[-1]}: ") and "Traceback" not in captured.err
    assert captured.out == "" and reached == [] and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("out", ["stdout", "new", "existing"])
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_survey_that_fails_midway_writes_nothing(tmp_path, capsys, monkeypatch, out, jobs, fmt):
    """A survey whose third lattice raises exits 1 with empty stdout, makes
    no ``--out`` file and leaves an existing one as it was, and leaves no
    other file beside it: rows already made are never written out."""
    import toricmld.survey as survey
    from toricmld.errors import ResourceLimit
    from toricmld.lattice import enumerate_superlattices

    if jobs == "2" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawned workers would import the unpatched _survey_row")
    third, real = enumerate_superlattices(2, 4)[2], survey._survey_row

    def failing(germ):
        if germ.lattice == third:
            raise ResourceLimit("the third lattice")
        return real(germ)

    monkeypatch.setattr(survey, "_survey_row", failing)  # forked workers inherit it
    target = tmp_path / "rows.out"
    if out == "existing":
        target.write_bytes(b"old rows\n")
    argv = ["survey", "--dim", "2", "--max-index", "4", "--jobs", jobs] + (["--json"] if fmt == "json" else [])
    assert cli.main(argv + ([] if out == "stdout" else ["--out", str(target)])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the third lattice\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["rows.out"] if out == "existing" else [])
    if out == "existing":
        assert target.read_bytes() == b"old rows\n"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="spawned workers would import the unpatched _survey_row")
def test_a_parallel_survey_that_fails_chunks_in_writes_nothing_and_leaves_no_worker(capsys, monkeypatch):
    """A ``--jobs 2`` survey of d = 3 to index 10 (116 orbit representatives,
    the lattices whose rows are computed, in 10 index classes, one pool task
    each) whose 100th representative raises, several classes in, exits 1 with
    empty stdout, and no worker outlives it."""
    import toricmld.survey as survey
    from toricmld.errors import ResourceLimit
    from toricmld.lattice import enumerate_superlattices

    reps = [lat for lat in enumerate_superlattices(3, 10) if survey._orbit_representatives(lat, [(0, 0, 0)])]
    real = survey._survey_row
    assert len(reps) > 99 and reps[99].index > reps[0].index
    target = reps[99]

    def failing(germ):
        if germ.lattice == target:
            raise ResourceLimit("the 100th representative")
        return real(germ)

    monkeypatch.setattr(survey, "_survey_row", failing)  # forked workers inherit it
    argv = ["survey", "--dim", "3", "--max-index", "10", "--boundary-set", "0,1/2,1", "--jobs", "2"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the 100th representative\n"
    assert multiprocessing.active_children() == []


def _worker_peak_kb(max_index: int) -> int:
    """The largest ``ru_maxrss`` (KiB) of the workers of a ``--jobs 2`` survey of
    d = 3 run in a fresh child Python, read there after the survey reaped them."""
    import subprocess
    import sys

    code = (
        "import os, resource, sys\n"
        "from toricmld import cli\n"
        "status = cli.main(sys.argv[1:] + ['--out', os.devnull])\n"
        "print(status, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["survey", "--dim", "3", "--max-index", str(max_index), "--boundary-set", "0", "--jobs", "2"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=child_env(), timeout=300)
    status, peak = proc.stdout.split()
    assert status == "0", proc.stderr
    return int(peak)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 is clamped to one process, which starts no worker")
def test_a_parallel_surveys_worker_memory_does_not_grow_with_the_corpus():
    """Each worker takes one index class at a time and holds its lattices'
    tables and rows only as long as that class, so a worker peaks alike at
    index 12 (730 lattices) and 30 (10,734).  With chunks of count / (4N)
    lattices, a worker peaked at about 18 and 31 MB."""
    small, large = _worker_peak_kb(12), _worker_peak_kb(30)
    assert 0 < small and large - small < 5 * 1024, (small, large)


def test_out_writes_through_a_symlink_and_to_a_device(tmp_path, capsys):
    """``--out`` is opened as given: an existing file is written in place
    and keeps its mode, a symlink's target is written and the link stays,
    and a device such as ``/dev/null`` is written, not replaced."""
    argv = ["survey", "--dim", "2", "--max-index", "3", "--out"]
    target, link = tmp_path / "rows.csv", tmp_path / "link.csv"
    target.write_text("old rows\n")
    target.chmod(0o600)
    link.symlink_to(target)
    assert cli.main(argv + [str(link)]) == 0 and cli.main(argv + ["/dev/null"]) == 0
    assert link.is_symlink() and len(target.read_text().splitlines()) == 5
    assert target.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "rows.csv"]
    assert not os.path.isfile("/dev/null") and capsys.readouterr().out == ""


def test_the_survey_holds_a_handful_of_lattices_and_rows(tmp_path, monkeypatch):
    """At the first computed row of each index class and at the last one of
    the survey, only the lattice in hand (and what it built) is alive, and
    the rows alive are at most the representative rows of the current class:
    the enumeration is held as integer keys, each row is written as it is
    made, and a class's rows are dropped when the next class starts."""
    import gc

    import toricmld.survey as survey
    from toricmld.lattice import Lattice, enumerate_superlattices

    def alive():
        gc.collect()
        objects = gc.get_objects()
        return sum(isinstance(o, Lattice) for o in objects), [o for o in objects if isinstance(o, survey.SurveyRow)]

    lattices = enumerate_superlattices(3, 8)
    total, reps = len(lattices), [lat.index for lat in lattices if survey._orbit_representatives(lat, [(0, 0, 0)])]
    del lattices
    real, seen = survey._survey_row, []
    before_lattices, before_rows = alive()
    before = {id(row) for row in before_rows}  # ids of rows kept alive by before_rows

    def counted(germ):
        index = germ.lattice.index
        seen.append(index)
        if len(seen) == len(reps) or seen[-2:-1] != [index]:
            lattices, rows = alive()
            made = [row.index for row in rows if id(row) not in before]
            assert lattices - before_lattices <= 4, (len(seen), lattices)
            assert set(made) <= {index} and len(made) <= reps.count(index), (len(seen), made)
        return real(germ)

    monkeypatch.setattr(survey, "_survey_row", counted)
    argv = ["survey", "--dim", "3", "--max-index", "8", "--boundary-set", "0", "--jobs", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "rows.csv")]) == 0
    assert seen == reps and len((tmp_path / "rows.csv").read_text().splitlines()) == total + 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["mld", "--face", ""], "a face needs a nonempty support"),
        (["mld", "--global", "--face", "1"], "argument --face: not allowed with argument --global"),
        (["lct", "--monomial", "1,1", "--fermat", "1,1"], "argument --fermat: not allowed with argument --monomial"),
        (["lct", "--exponents", ""], "expected a vector of length 2, got 0"),
    ],
    ids=["empty-face", "face-and-global", "two-lct-modes", "empty-exponents"],
)
def test_an_empty_or_second_mode_exits_one(c2, capsys, argv, message):
    """A mode option is read when it is given, even empty, and two modes of
    one command are refused rather than one of them silently dropped."""
    assert cli.main([argv[0], "-i", c2, *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_general_member_box_cap_exits_one(tmp_path, capsys):
    """1/100003(1,2,5) needs a basis box of 100004^3 points; the cap turns it
    into an input-class error before anything is allocated."""
    path = tmp_path / "big.json"
    path.write_text('{"dim":3,"lattice":{"generators":[["1/100003","2/100003","5/100003"]]},"boundary":["0","0","0"]}')
    assert cli.main(["lct", "-i", str(path), "--general-member"]) == 1
    assert "exceeds the cap" in capsys.readouterr().err


def test_mld_above_the_table_cap_exits_one(tmp_path, capsys, monkeypatch):
    """1/10000019(1,2,5) has ten million cosets.  Its index is checked
    against the table cap before the coset table is built, so ``mld`` exits
    1 with an error line at once instead of running out of memory."""
    from functools import cached_property

    from toricmld.lattice import TABLE_CAP, Lattice

    assert TABLE_CAP < 10000019
    asked = []
    build = Lattice.rep_ints.func

    def rep_ints(lat):
        asked.append(lat)
        return build(lat)

    counted = cached_property(rep_ints)
    counted.__set_name__(Lattice, "rep_ints")
    monkeypatch.setattr(Lattice, "rep_ints", counted)
    path = tmp_path / "huge.json"
    path.write_text('{"dim":3,"lattice":{"generators":[["1/10000019","2/10000019","5/10000019"]]},"boundary":["0","0","0"]}')
    tracemalloc.start()
    try:
        code = cli.main(["mld", "-i", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "exceeds the cap" in err
    assert asked and all("rep_ints" not in lat.__dict__ for lat in asked)
    assert peak < 8 * 2**20


def test_survey_rejects_nonpositive_jobs(capsys):
    assert cli.main(["survey", "--dim", "2", "--max-index", "2", "--jobs", "0"]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_check_with_an_empty_boundary_set_exits_one(tmp_path, capsys):
    """An empty boundary set is an input error, and so are empty dims, which
    checked nothing and exited 0."""
    cfg = tmp_path / "cfg.json"
    for doc, message in (({"boundary_set": [], "max_index": 4}, "boundary set"), ({"dims": []}, "dims")):
        cfg.write_text(json.dumps(doc))
        assert cli.main(["check", "--corpus-config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"{message} must be nonempty" in err


@pytest.mark.parametrize(
    "argv",
    [["mld", "-i", "GERM"], ["survey", "--dim", "14", "--max-index", "3"]],
    ids=["box-rows", "hnf-column"],
)
def test_high_dimensions_exit_one_before_allocating(tmp_path, argv):
    """The standard germ of dimension 24 has 2^24 - 1 faces, each one box
    row; the first dual HNF basis of index 3 in dimension 14 has 3^13
    candidates for its last column.  Both are counted against the table cap
    before they are built, so the child exits 1 well inside 1 GiB; without
    the count it ran into ``MemoryError`` (exit 3)."""
    germ = tmp_path / "c24.json"
    germ.write_text(json.dumps({"dim": 24, "lattice": {"generators": []}, "boundary": ["0"] * 24}))
    proc = run_capped([str(germ) if a == "GERM" else a for a in argv], limit=2**30)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "exceeds the cap" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["survey", "--dim", "20", "--max-index", "2"], ["survey", "--dim", "3", "--max-index", "3000"]],
    ids=["dim-20", "index-3000"],
)
def test_the_row_cap_is_read_off_the_hnf_diagonals(argv):
    """The survey counts its lattices per HNF diagonal, building no basis,
    so both are refused within 10 s of CPU.  A count that builds every
    basis needs 21 s for dimension 20, and its child is killed by
    ``SIGXCPU``."""
    proc = run_capped(argv, cpu=10)
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    assert proc.stderr.startswith("error:") and "survey exceeds the row cap 1000000" in proc.stderr


@pytest.mark.parametrize("command", ["survey", "check"])
def test_a_dimension_over_the_box_cap_is_refused_before_any_walk(tmp_path, command):
    """Every germ of dimension d has at least 2^d - 1 box rows (the zero
    residue lifts into every face), so a dimension where that exceeds the
    table cap is refused before its HNF diagonals are walked.  Dimension
    1500 used to die of ``RecursionError`` (exit 3) in that walk."""
    config = tmp_path / "cfg.json"
    config.write_text('{"dims": [1500], "max_index": 1}')
    argv = {
        "survey": ["survey", "--dim", "1500", "--max-index", "1", "--boundary-set", "0"],
        "check": ["check", "--corpus-config", str(config)],
    }[command]
    proc = run_capped(argv, cpu=10)
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    assert proc.stderr == "error: a box candidate table of 2^1500 - 1 rows exceeds the cap 1048576\n"


@pytest.mark.parametrize("command", ["survey", "check"])
def test_dimension_one_stops_at_index_one(tmp_path, command):
    """Z is the only lattice of dimension 1 with e_1 primitive, so the walk
    ends at index 1 whatever the bound.  It walked every index up to it,
    each diagonal holding no lattice: 5.3 s to 10^6, and 10^12 never ended."""
    config = tmp_path / "cfg.json"
    config.write_text('{"dims": [1], "max_index": 1000000000000}')
    argv = {
        "survey": ["survey", "--dim", "1", "--max-index", "1000000000000", "--boundary-set", "0"],
        "check": ["check", "--corpus-config", str(config)],
    }[command]
    proc = run_capped(argv, cpu=10)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    if command == "survey":
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 and lines[1].split(",")[1:3] == ["1", "1"]  # dim, index
    else:
        report = json.loads(proc.stdout)
        assert report["checked"] == 4 and report["failures"] == []


@pytest.mark.parametrize(
    "argv",
    [["mld"], ["lct", "--general-member"], ["adjoin", "--divisor", "1"]],
    ids=["mld", "lct", "adjoin"],
)
def test_a_document_over_the_box_cap_dimension_is_refused_as_read(tmp_path, argv):
    """A germ document of dimension 4000 is refused right after its ``dim``
    is read, as survey and check dimensions are.  Building its lattice
    first took 30 s and died of ``MemoryError`` (exit 3) under 1 GiB."""
    germ = tmp_path / "c4000.json"
    germ.write_text(json.dumps({"dim": 4000, "boundary": ["0"] * 4000}))
    proc = run_capped([argv[0], "-i", str(germ), *argv[1:]], cpu=10)
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    assert proc.stderr == "error: a box candidate table of 2^4000 - 1 rows exceeds the cap 1048576\n"


def test_one_process_answers_as_fresh_processes(a2, c2, capsys):
    """The parser is built once per process, and different subcommands run
    one after another in one process, a refused one among them, print the
    same stdout and exit with the same codes as each in a fresh process."""
    import subprocess
    import sys

    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["mld", "-i", a2, "--global"],
        ["lct", "-i", c2, "--general-member"],
        ["lct", "-i", c2],
        ["flat", "-i", a2],
        ["survey", "--dim", "2", "--max-index", "3", "--boundary-set", "0,1/2"],
        ["mld", "-i", a2, "--face", "1"],
    ]
    codes = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "toricmld", *argv], capture_output=True, text=True, env=child_env())
        assert run(capsys, *argv) == (proc.returncode, proc.stdout), argv
        codes.append(proc.returncode)
    assert codes == [0, 0, 1, 0, 0, 0]
