"""Germ documents, corpus surveys, and verification runs.

Documents are JSON objects with rational entries spelled as strings "p/q"
(or "n"), never binary floats:

    {"dim": 2,
     "lattice": {"generators": [["1/3", "2/3"]]},
     "boundary": ["0", "0"]}

Parsing normalizes (canonical lattice form, primitive standard vectors);
serializing always emits the canonical basis, so serialize(parse(s)) is
canonical and parse(serialize(g)) == g.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from hashlib import sha256
from itertools import chain, groupby, product
from operator import itemgetter, mul
from types import SimpleNamespace

from .adjunction import _precise_inversion, _semicontinuity_bounds, _shokurov_holds
from .errors import CheckFailed, InputError, MalformedRational, ResourceLimit
from .germ import ToricGerm, _oracle_minima, cartier_index, germ_document, germ_normalize
from .lattice import TABLE_CAP, Lattice, _superlattice, _superlattice_counts, _superlattices
from .newton import _general_member_threshold, lct_fermat, lct_newton, newton_poly_from_exponents
from .rationals import instance, integer, iterate, qvec, rat, rat_str, row_str

ROW_CAP_DEFAULT = 10**6


# -- documents -------------------------------------------------------------------


def serialize_germ(germ: ToricGerm) -> str:
    doc = germ_document(instance(germ, ToricGerm))  # compact JSON, keys sorted: no entry holds a character JSON escapes
    rows = '"],["'.join(map('","'.join, doc["lattice"]["generators"]))
    return '{"boundary":["%s"],"dim":%d,"lattice":{"generators":[["%s"]]}}' % ('","'.join(doc["boundary"]), doc["dim"], rows)


def _decode_json(text: str, what: str):
    """``text`` decoded as JSON.  Text the decoder refuses (a ValueError, as
    ``JSONDecodeError`` is), nests too deeply for it, spells an integer with
    more digits than the interpreter converts or repeats a key in one object
    is an ``InputError`` "``what``: ..."."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; a key given twice, whose last value would otherwise win, is an ``InputError``."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _json_object(value, name: str, keys, required=()) -> dict:
    """``value`` when it is a JSON object holding every key of ``required``
    and none outside ``keys``; anything else is an ``InputError``."""
    if not isinstance(value, dict):
        raise InputError(f"{name} must be a JSON object")
    if missing := [key for key in required if key not in value]:
        raise InputError(f"missing field in {name}: {missing[0]!r}")
    if unknown := sorted(set(value) - set(keys)):
        raise InputError(f"unknown {name} keys: {unknown}")
    return value


def parse_germ(text: str | dict) -> ToricGerm:
    """Parse and normalize a germ document (string or already-decoded dict) with only the keys ``germ_document`` writes."""
    doc = _decode_json(text, "not valid JSON") if isinstance(text, str) else text
    _json_object(doc, "germ document", ("dim", "lattice", "boundary"), ("dim", "boundary"))
    dim = _refuse_box_dimension(_positive_int(doc["dim"], "dim"))
    lattice = _json_object(doc.get("lattice", {}), "lattice", ("generators",))
    gens = _json_list(lattice.get("generators", []), "lattice generators")
    rows = [qvec(_json_rats(row, "a generator"), dim) for row in gens]
    boundary = _json_rats(doc["boundary"], "boundary")
    lattice = Lattice.from_generators(dim, rows)
    return germ_normalize(lattice, qvec(boundary, dim))


def _refuse_box_dimension(d: int) -> int:
    """``d``, read by ``integer`` and refused when 2^d - 1, the fewest box rows a germ of dimension d has, exceeds ``TABLE_CAP``."""
    if integer(d, "dim") >= (TABLE_CAP + 1).bit_length():  # exactly when 2^d - 1 > TABLE_CAP
        raise ResourceLimit(f"a box candidate table of 2^{d} - 1 rows exceeds the cap {TABLE_CAP}")
    return d


def _positive_int(value, name: str) -> int:
    """An int >= 1; floats, booleans and strings are rejected (``integer``)."""
    if integer(value, name) < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return value


def _coefficients(values) -> tuple[Fraction, ...]:
    """Boundary coefficients read by ``rat``, deduplicated and sorted; there
    must be at least one, and each must lie in [0,1]."""
    coeffs = tuple(sorted({rat(b) for b in iterate(values, "the boundary set")}))
    if not coeffs:
        raise InputError("boundary set must be nonempty")
    for b in coeffs:
        if not 0 <= b <= 1:
            raise InputError(f"boundary coefficient {b} outside [0,1]")
    return coeffs


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a JSON list, got {value!r}")
    return value


def _json_rats(value, name: str) -> list[Fraction]:
    """The entries of a JSON list read by ``rat``; ``true`` and ``false`` are not rationals."""
    if any(isinstance(v, bool) for v in _json_list(value, name)):
        raise MalformedRational(f"{name} must hold rationals, not true or false: {value!r}")
    return [rat(v) for v in value]


def germ_id(germ: ToricGerm) -> str:
    return sha256(serialize_germ(germ).encode()).hexdigest()[:12]


# -- survey ----------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyRow:
    germ_id: str
    dim: int
    index: int
    boundary: tuple[str, ...]
    mld_point: Fraction
    mld_global: Fraction
    mld_exceptional: Fraction | None  # min over codim >= 2 faces, the exceptional valuations; None in dim 1
    witnesses: tuple[str, ...]
    cartier: int
    lsc_ok: bool
    bounds_ok: bool
    pia_ok: bool | None  # None when no coefficient equals 1
    lct_general: Fraction

    HEADER = (
        "germ_id",
        "dim",
        "index",
        "boundary",
        "mld_point",
        "mld_global",
        "mld_exceptional",
        "witnesses",
        "cartier_index",
        "lsc_ok",
        "bounds_ok",
        "pia_ok",
        "lct_general_member",
    )

    def as_record(self) -> tuple:
        return (
            self.germ_id,
            str(self.dim),
            str(self.index),
            ";".join(self.boundary),
            rat_str(self.mld_point),
            rat_str(self.mld_global),
            "" if self.mld_exceptional is None else rat_str(self.mld_exceptional),
            ";".join(self.witnesses),
            str(self.cartier),
            str(self.lsc_ok).lower(),
            str(self.bounds_ok).lower(),
            "n/a" if self.pia_ok is None else str(self.pia_ok).lower(),
            rat_str(self.lct_general),
        )


def _invariants(germ: ToricGerm) -> dict:
    """The survey row's fields that ``check`` reads too, off the face table in integers."""
    ones = [i + 1 for i, b in enumerate(germ.boundary) if b == 1] if germ.dim >= 2 else []
    m, scale, bounds = _semicontinuity_bounds(germ)
    return {
        "mld_point": Fraction(m, scale),
        "cartier": cartier_index(germ),
        "lsc_ok": all(m <= b for b in bounds.values()),
        "bounds_ok": _shokurov_holds(germ),
        "pia_ok": all(_precise_inversion(germ, i)[0] for i in ones) if ones else None,
        "lct_general": _general_member_threshold(germ),
    }


def _survey_row(germ: ToricGerm) -> SurveyRow:
    """The row of ``germ``; its witnesses are the full face's minimizer rows of the face table, written by ``row_str``."""
    table = germ.face_table
    exceptional = table.minimizing_support(min_codim=2)  # None in dimension 1
    return SurveyRow(
        germ_id=germ_id(germ),
        dim=germ.dim,
        index=germ.lattice.index,
        boundary=tuple(rat_str(b) for b in germ.boundary),
        mld_global=table.value(table.minimizing_support()),
        mld_exceptional=None if exceptional is None else table.value(exceptional),
        witnesses=tuple(row_str(u, table.den) for u in table.entries[tuple(range(1, germ.dim + 1))][1]),
        **_invariants(germ),
    )


def _rows_for_lattice(lattice: Lattice, boundaries) -> list[tuple[SurveyRow, tuple]]:
    """The row of each (lattice, b) for b in ``boundaries``, each paired with
    its witnesses as they sit in the face table: the full face's den-scaled
    minimizer rows, sorted, which ``_derived_rows`` permutes."""
    full = tuple(range(1, lattice.dim + 1))
    return [(_survey_row(germ), germ.face_table.entries[full][1]) for germ in (ToricGerm(lattice, b) for b in boundaries)]


def _orbit_representatives(lattice: Lattice, assignments) -> list:
    """The boundaries b for which (lattice, b) is the smallest pair of its
    coordinate-permutation orbit, comparing bases as the integer rows of
    ``Lattice.permuted_keys`` (a permutation keeps den); no lattice and no
    Fraction is built."""
    keys = lattice.permuted_keys
    return [b for b in assignments if min((key, tuple(b[p] for p in perm)) for key, perm in keys) == (lattice.int_rows, b)]


def run_survey(
    dim: int,
    max_index: int,
    boundary_set,
    mod_permutations: bool = False,
    jobs: int = 1,
) -> list[SurveyRow]:
    """All germs built from bounded-index lattices crossed with boundary
    assignments drawn from the given finite coefficient set.

    Output order is canonical (dim, index, basis, boundary) no matter how the
    work is scheduled: lattices are enumerated in (index, basis) order and
    boundaries as a product over the sorted coefficients.  A survey of more
    than ``ROW_CAP_DEFAULT`` rows raises ``ResourceLimit`` before any lattice
    is built.  ``jobs`` below 1 is an input error, and above
    ``os.cpu_count()`` it is clamped to the core count.
    """
    return list(_survey_rows(dim, max_index, boundary_set, mod_permutations, jobs))


def _survey_rows(dim: int, max_index: int, boundary_set, mod_permutations: bool, jobs: int):
    """The rows of ``run_survey``, each yielded as soon as it is made; the
    arguments are read, and the row cap checked, at the first ``next``."""
    if integer(jobs, "jobs") < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    if not isinstance(mod_permutations, bool):
        raise InputError(f"mod_permutations must be true or false, got {mod_permutations!r}")
    jobs = min(jobs, os.cpu_count() or 1)
    coeffs = _coefficients(boundary_set)
    stream = _lattice_stream((dim,), max_index, coeffs, ROW_CAP_DEFAULT, "survey")
    classes = ((dim, [key[2:] for key in group], coeffs, mod_permutations) for _, group in groupby(stream, itemgetter(1)))
    if jobs == 1:
        for task in classes:
            yield from _class_rows(task)
        return
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover
        ctx = mp.get_context("spawn")
    with ctx.Pool(jobs) as pool:
        for rows in pool.imap(_class_row_list, classes, 1):
            yield from rows


def _class_row_list(task) -> list[SurveyRow]:
    """The rows of ``_class_rows`` as one list: a worker's task and its result."""
    return list(_class_rows(task))


def _class_rows(task):
    """The rows of one index class, ``task`` = (dim, keys, coeffs,
    mod_permutations) with the (den, ``int_rows``) of each of its lattices in
    ``_lattice_stream``'s order: a coordinate permutation keeps the index and
    den.  An orbit's first lattice is its least, the representative R: at a
    key whose registry entry is still None, R is built, each None entry of its
    ``permuted_keys`` set to (R's rows, perm), and R's rows made by
    ``_rows_for_lattice``; each later member's come from R's rows and minimizer
    rows (``_derived_rows``), or none with ``mod_permutations``.  Only the
    registry, the representatives' pairs and the lists in ``pulled`` are held."""
    dim, keys, coeffs, mod_permutations = task
    assignments, base = list(product(coeffs, repeat=dim)), len(coeffs)
    registry = dict.fromkeys(rows for _, rows in keys)  # setting an entry keeps the class's own key tuple
    made, pulled = {}, {}  # pulled: perm -> position of b_R for each b: b's base-|B| digit j moved to place perm[j]
    for den, rows in keys:
        if registry[rows] is None:
            lattice = _superlattice(dim, den, rows)
            for key, perm in lattice.permuted_keys:
                registry[key] = registry[key] or (rows, perm)
            boundaries = _orbit_representatives(lattice, assignments) if mod_permutations else assignments
            made[rows] = _rows_for_lattice(lattice, boundaries)
            yield from map(itemgetter(0), made[rows])
        elif not mod_permutations:  # a member's unit_scales are R's permuted, so all 1
            rep, perm = registry[rows]
            if perm not in pulled:
                places = [base ** (dim - 1 - p) for p in perm]
                pulled[perm] = [sum(map(mul, t, places)) for t in product(range(base), repeat=dim)]
            member = Lattice._canonical(dim, den, rows, is_superlattice=True, unit_scales=(1,) * dim)
            yield from _derived_rows(made[rep], perm, member, assignments, pulled[perm])


def _derived_rows(rows: list[tuple[SurveyRow, tuple]], perm, lattice: Lattice, assignments, pulled):
    """The rows of ``lattice``, R's image under ``perm``, from R's (row, minimizer
    rows) pairs ``rows`` (``_rows_for_lattice``): at the i-th b, R's pair at b_R
    (b_R[perm[j]] = b[j]), ``rows[pulled[i]]``, with its own germ id, the one value
    computed, b and witnesses: each den-scaled row u of R moved to u' (u'_j = u[perm[j]]),
    sorted as integer tuples, the face table's order, and written by ``row_str``
    (a permutation keeps den); every other field is an isomorphism invariant."""
    den = lattice.den
    for b, at in zip(assignments, pulled):
        row, minimizers = rows[at]
        witnesses = tuple(row_str(u, den) for u in sorted(tuple(u[p] for p in perm) for u in minimizers))
        boundary = tuple(row.boundary[p] for p in perm)
        yield SurveyRow(germ_id(ToricGerm(lattice, b)), row.dim, row.index, boundary, row.mld_point, row.mld_global,
                        row.mld_exceptional, witnesses, row.cartier, row.lsc_ok, row.bounds_ok, row.pia_ok, row.lct_general)


def _lattice_stream(dims, max_index: int, coeffs, cap: int, what: str):
    """The key (d, index, den, ``int_rows``) of each lattice
    ``enumerate_superlattices`` returns over ``dims`` (``_superlattices``).
    Each d is first read by ``_refuse_box_dimension``, and the rows, counted
    per HNF diagonal, are checked against ``cap`` before any lattice is built."""
    rows = 0
    for d in dims:
        for n in _superlattice_counts(_refuse_box_dimension(d), max_index):
            rows += n * len(coeffs) ** d
            if rows > cap:
                raise ResourceLimit(f"{what} exceeds the row cap {cap}")
    return ((d, *key) for d in dims for key in _superlattices(d, max_index))


def rows_to_csv(rows) -> str:
    return "".join(_rendered(rows, False))


def rows_to_json(rows) -> str:
    return "".join(_rendered(rows, True))


def _rendered(rows, as_json: bool):
    """The CSV lines, header first, or the JSON array (indent 1, sorted keys)
    of ``rows`` in pieces, one a row, each yielded as soon as its row is read."""
    if not as_json:
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow  # returns write's result: the line
        yield from map(line, chain([SurveyRow.HEADER], map(SurveyRow.as_record, rows)))
        return
    sep = "[\n"
    for row in rows:  # the element as it sits in the dump of the whole array
        yield sep + json.dumps([dict(zip(SurveyRow.HEADER, row.as_record()))], indent=1, sort_keys=True)[2:-2]
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


# -- chain-condition report -------------------------------------------------------


@dataclass(frozen=True)
class AccReport:
    values: tuple[tuple[Fraction, int], ...]  # sorted distinct values with multiplicities
    maximum: Fraction
    gaps: tuple[tuple[Fraction, Fraction, Fraction], ...]  # consecutive (lo, hi, hi-lo)
    accumulation_candidates: tuple[tuple[Fraction, str, int], ...]  # (value, side, count)

    def to_json_dict(self) -> dict:
        return {
            "values": [[rat_str(v), n] for v, n in self.values],
            "maximum": rat_str(self.maximum),
            "gaps": [[rat_str(a), rat_str(b), rat_str(g)] for a, b, g in self.gaps],
            "accumulation_candidates": [
                [rat_str(v), side, n] for v, side, n in self.accumulation_candidates
            ],
        }


def acc_report(rows) -> AccReport:
    """Distinct point-minimum values of a survey, with sanity assertions.

    Raises CheckFailed when the dimension bound fails, when a non-standard
    lattice attains the bound, or when a zero-boundary three-dimensional
    corpus contradicts the terminal classification: a germ whose exceptional
    minimum exceeds 1 (no exceptional valuation at or below 1, the terminal
    regime the classification speaks about) must have point minimum 3 or
    1 + 1/q.  Non-isolated singularities escape that list legitimately: a
    surface germ with minimum m in (0,1) times a smooth curve has point
    minimum 1 + m at every point of its singular axis.

    Accumulation candidates are purely exploratory: a value v is flagged when
    at least three other distinct values lie within 1/8 of it on one side.
    No convergence claim is implied by the flag.
    """
    rows = list(iterate(rows, "the rows"))
    if not rows:
        raise InputError("acc report needs at least one row")
    for r in rows:
        if not isinstance(r, SurveyRow):
            raise InputError(f"acc report rows must be survey rows, got {r!r}")
    dim = max(r.dim for r in rows)
    counts: dict[Fraction, int] = {}
    for r in rows:
        counts[r.mld_point] = counts.get(r.mld_point, 0) + 1
    values = sorted(counts)
    maximum = values[-1]
    if maximum > dim:
        raise CheckFailed(f"maximum {maximum} exceeds the dimension {dim}")
    for r in rows:
        if r.mld_point == dim and not (r.index == 1 and all(b == "0" for b in r.boundary)):
            raise CheckFailed("the dimension bound may only be attained by the standard germ")
    zero_boundary = all(all(b == "0" for b in r.boundary) for r in rows)
    if zero_boundary and all(r.dim == 3 for r in rows):
        for r in rows:
            if r.mld_exceptional is not None and r.mld_exceptional > 1:
                v = r.mld_point
                if v != 3 and (v - 1).numerator != 1:
                    raise CheckFailed(
                        f"terminal germ {r.germ_id} has value {v}, neither 3 nor of the form 1+1/q"
                    )
    gaps = tuple((a, b, b - a) for a, b in zip(values, values[1:]))
    window = Fraction(1, 8)
    cands = []
    for v in values:
        below = sum(1 for u in values if v - window < u < v)
        above = sum(1 for u in values if v < u < v + window)
        if below >= 3:
            cands.append((v, "from-below", below))
        if above >= 3:
            cands.append((v, "from-above", above))
    return AccReport(
        values=tuple((v, counts[v]) for v in values),
        maximum=maximum,
        gaps=gaps,
        accumulation_candidates=tuple(cands),
    )


# -- corpus verification ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    """Which germs ``verify_corpus`` checks and when it stops; no check has a setting (``_check_germ``)."""

    dims: tuple[int, ...] = (1, 2, 3)
    max_index: int = 12
    boundary_set: tuple[Fraction, ...] = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    fail_fast: bool = False
    row_cap: int = ROW_CAP_DEFAULT

    def __post_init__(self):
        """Range checks on every field, however the config was built."""
        object.__setattr__(self, "dims", tuple(sorted({_positive_int(d, "each of dims") for d in iterate(self.dims, "dims")})))
        if not self.dims:
            raise InputError("dims must be nonempty")
        for key in ("max_index", "row_cap"):
            _positive_int(getattr(self, key), key)
        object.__setattr__(self, "boundary_set", _coefficients(self.boundary_set))
        if not isinstance(self.fail_fast, bool):
            raise InputError(f"fail_fast must be true or false, got {self.fail_fast!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "CorpusConfig":
        """Config from a decoded JSON object, every field optional; an unknown
        key, a non-list dims or boundary set or a bad value is an ``InputError``."""
        _json_object(doc, "corpus config", [f.name for f in fields(cls)])
        readers = {"dims": _json_list, "boundary_set": _json_rats}
        return cls(**{k: readers[k](v, k) if k in readers else v for k, v in doc.items()})


def corpus_germs(config: CorpusConfig):
    """The germs of the corpus in canonical order, each lattice built only as
    its germs are read; a corpus of more than ``config.row_cap`` germs raises
    ``ResourceLimit`` before any lattice is built."""
    stream = _lattice_stream(config.dims, config.max_index, config.boundary_set, config.row_cap, "corpus")
    lattices = (_superlattice(d, den, rows) for d, _, den, rows in stream)
    return (ToricGerm(lattice, b) for lattice in lattices for b in product(config.boundary_set, repeat=lattice.dim))


def _check_germ(germ: ToricGerm) -> list[str]:
    """The shared invariants (``_invariants``) plus the oracle, witness,
    divisibility and closed-form checks, in integers: the oracle's minimum
    on each face, from one walk of the coset residues and over the table's
    scale den * wd, against the face's scaled minimum m; each den-scaled
    minimizer u by wn . u == m and by u pairing to 0 mod den with the dual
    basis (apart from the walk that built u), done once per lattice for the
    rows of ``box_candidates`` (``Lattice.member_rows``) and here for any
    other u; and scale | cartier * m.  The oracle on the full face is the
    lattice-point-free dilation check: every value is a multiple of
    1 / scale, so ``verify_minkowski(germ, m / scale, 1 / scale)`` holds
    exactly when the walk's full-face value is m.  No check has a setting:
    the oracle's radius is 1, as the box reduction puts every minimum in the
    unit box, and no radius is stronger."""
    problems = []
    inv = _invariants(germ)
    table, (wn, _) = germ.face_table, germ._weight_ints
    dual, members = germ.lattice.dual_int_basis, germ.lattice.member_rows
    for (support, (m, minimizers)), oracle in zip(table.entries.items(), _oracle_minima(germ.lattice, wn, table.entries)):
        if oracle != m:
            problems.append(f"oracle mismatch on face {support}: {table.value(support)} vs {Fraction(oracle, table.scale)}")
        for u in minimizers:
            if sum(map(mul, wn, u)) != m:
                problems.append(f"witness {row_str(u, table.den)} does not attain the face value")
            if u not in members and any(sum(map(mul, u, col)) % table.den for col in dual):
                problems.append(f"witness {row_str(u, table.den)} is outside the lattice")
    if not inv["lsc_ok"]:
        problems.append("lower semicontinuity inequality failed")
    if not inv["bounds_ok"]:
        problems.append("dimension bound check failed")
    for support, (m, _) in table.entries.items():
        if inv["cartier"] * m % table.scale:
            problems.append(f"index divisibility failed on face {support}")
    if inv["pia_ok"] is False:
        for i, b in enumerate(germ.boundary, start=1):
            if b == 1 and not _precise_inversion(germ, i)[0]:
                problems.append(f"adjunction equality failed on divisor {i}")
    if germ.lattice.den == 1:  # N = Z^d
        degrees = tuple((i % 3) + 1 for i in range(germ.dim))
        closed = lct_fermat(germ.dim, germ.boundary, degrees)
        exps = [tuple(k * (j == i) for j in range(germ.dim)) for i, k in enumerate(degrees)]
        if closed != lct_newton(newton_poly_from_exponents(germ, exps)).lct:
            problems.append("closed-form threshold disagrees with the ray program")
    lct = inv["lct_general"]
    if all(b == 1 for b in germ.boundary):
        if lct != 0:
            problems.append("zero weights must give a zero general-member threshold")
    elif not 0 < lct.numerator <= lct.denominator:
        problems.append(f"general-member threshold {lct} outside (0,1]")
    return problems


def verify_corpus(config: CorpusConfig, germs=None) -> tuple[int, dict]:
    """Run the full battery over a corpus; returns (exit status, report).

    Status 0 means every check passed (vacuously on an empty corpus, with a
    warning); status 2 carries a reproduction payload for the first failing
    germ in the report.
    """
    instance(config, CorpusConfig)
    report: dict = {"checked": 0, "failures": [], "warnings": []}
    source = corpus_germs(config) if germs is None else (instance(g, ToricGerm) for g in iterate(germs, "germs"))
    for germ in source:
        if report["checked"] >= config.row_cap:
            raise ResourceLimit(f"corpus exceeds the row cap {config.row_cap}")
        report["checked"] += 1
        try:
            problems = _check_germ(germ)
        except Exception as exc:  # a crash while checking is itself a failure
            problems = [f"exception during checks: {type(exc).__name__}: {exc}"]
        if problems:
            try:
                doc = germ_document(germ)
            except Exception:
                doc = {"repr": repr(germ)}
            report["failures"].append({"germ": doc, "problems": problems})
            if config.fail_fast:
                break
    if report["checked"] == 0:
        report["warnings"].append("empty corpus: all checks passed vacuously")
    status = 2 if report["failures"] else 0
    return status, report
