"""Command-line interface.

Subcommands: mld, lct, adjoin, flat, survey, check.  Exit codes: 0 success,
1 invalid input, 2 check or assertion failure, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from contextlib import nullcontext
from functools import cache

from .adjunction import adjoin_invariant_divisor, check_precise_inversion
from .errors import CheckFailed, InputError, ResourceLimit
from .flat import build_flat_structure
from .germ import full_face, mld_bruteforce_oracle, mld_face, mld_global
from .newton import (
    lct_fermat,
    lct_general_member,
    lct_monomial,
    lct_newton,
    newton_poly_from_exponents,
)
from .rationals import rat, rat_str
from .survey import CorpusConfig, _decode_json, _rendered, _survey_rows, parse_germ, verify_corpus

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise InputError(message)


def _read_text(path: str) -> str:
    """The file ``path`` as UTF-8 text; one that cannot be opened or decoded is an ``InputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_germ(path: str):
    return parse_germ(_read_text(path))


def _write(pieces, out: str | None) -> None:
    """Each text piece, as soon as it is made, to a spool (in memory up to
    1 MiB, then on disk) copied after the last to the file ``out``, opened only
    then, or to stdout: a failure while the pieces are made leaves both as they
    were.  An ``out`` or a stdout that cannot be written is an ``InputError``."""
    with tempfile.SpooledTemporaryFile(2**20, "w+", encoding="utf-8", newline="\n") as fh:
        for piece in pieces:  # its ``writelines`` would check the size only at the end
            fh.write(piece)
        fh.seek(0)
        try:
            with open(out, "w", encoding="utf-8", newline="\n") if out is not None else nullcontext(sys.stdout) as dest:
                shutil.copyfileobj(fh, dest)
        except OSError as exc:
            raise InputError(f"cannot write {'stdout' if out is None else out}: {exc}") from exc


def _refuse_unwritable(out: str | None) -> None:
    """Refuse, before any work, an ``out`` that is empty, names a directory or
    sits in a missing one; nothing is opened, so no file is created or truncated."""
    if out is None:
        return
    if not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or os.curdir):
        raise InputError(f"cannot write {out}: not a file path in an existing directory")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cmd_mld(germ, args) -> tuple[dict, int]:
    if args.global_:
        report = mld_global(germ)
    elif args.face is not None:
        report = mld_face(germ, _parse_int_list(args.face))
    else:
        report = mld_face(germ, full_face(germ.dim))
    payload = report.to_json_dict()
    if not args.oracle:
        return payload, EXIT_OK
    oracle = mld_bruteforce_oracle(germ, report.face, 1)
    payload["oracle"] = rat_str(oracle)
    return payload, EXIT_OK if oracle == report.value else EXIT_CHECK


def _cmd_lct(germ, args) -> tuple[dict, int]:
    if args.exponents is not None:
        exps = [tuple(_parse_int_list(part)) for part in args.exponents.split(";")]
        payload = lct_newton(newton_poly_from_exponents(germ, exps)).to_json_dict()
    elif args.general_member:
        payload = lct_general_member(germ).to_json_dict()
    elif args.monomial is not None:
        value = lct_monomial(germ, tuple(_parse_int_list(args.monomial)))
        payload = {"lct": rat_str(value), "kind": "monomial"}
    else:  # --fermat: the group requires one mode
        if germ.lattice.den != 1:  # N = Z^d
            raise InputError("the diagonal-sum closed form needs the standard lattice")
        degrees = _parse_int_list(args.fermat)
        value = lct_fermat(germ.dim, germ.boundary, degrees)
        payload = {"lct": rat_str(value), "kind": "fermat"}
    return payload, EXIT_OK


def _cmd_adjoin(germ, args) -> tuple[dict, int]:
    payload = adjoin_invariant_divisor(germ, args.divisor).to_json_dict()
    if not args.check:
        return payload, EXIT_OK
    report = check_precise_inversion(germ, args.divisor)
    payload["precise_inversion"] = report.to_json_dict()
    return payload, EXIT_OK if report.passed else EXIT_CHECK


def _cmd_flat(germ, args) -> tuple[dict, int]:
    return build_flat_structure(germ).to_json_dict(), EXIT_OK


def _cmd_survey(args):  # the rows' text pieces, made as ``_write`` takes them
    boundary = [rat(b) for b in args.boundary_set.split(",")]
    rows = _survey_rows(args.dim, args.max_index, boundary, args.mod_permutations, args.jobs)
    return _rendered(rows, args.json), EXIT_OK


def _cmd_check(args) -> tuple[dict, int]:
    doc = _decode_json(_read_text(args.corpus_config), "bad config JSON") if args.corpus_config else {}
    status, report = verify_corpus(CorpusConfig.from_dict(doc))
    return report, EXIT_CHECK if status else EXIT_OK


@cache
def build_parser() -> _Parser:
    """Built once per process: ``parse_args`` leaves the parser unchanged."""
    parser = _Parser(prog="toricmld", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    germ_input = argparse.ArgumentParser(add_help=False)  # the germ subcommands: ``main`` reads the document
    germ_input.add_argument("-i", "--input", required=True)

    p = sub.add_parser("mld", parents=[germ_input], help="minimal log discrepancy of a germ document")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--face", help="comma-separated 1-based support, e.g. 1,3")
    mode.add_argument("--global", dest="global_", action="store_true", help="minimum over all faces")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check by brute force at radius 1, the unit box, which holds every minimum as weights are >= 0;"
        " it reads the coset residues apart from the face table, and the tests check those residues",
    )
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_mld)

    p = sub.add_parser("lct", parents=[germ_input], help="log canonical threshold")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exponents", help='semicolon-separated exponent vectors, e.g. "2,0;0,3"')
    mode.add_argument("--general-member", action="store_true")
    mode.add_argument("--monomial", help='single exponent vector, e.g. "1,2,3"')
    mode.add_argument("--fermat", help='degrees, e.g. "2,3"')
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_lct)

    p = sub.add_parser("adjoin", parents=[germ_input], help="restrict to an invariant divisor with coefficient 1")
    p.add_argument("--divisor", type=int, required=True)
    p.add_argument("--check", action="store_true", help="also compare minima upstairs and downstairs")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_adjoin)

    p = sub.add_parser("flat", parents=[germ_input], help="build a flat log structure")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_flat)

    p = sub.add_parser("survey", help="enumerate a germ corpus and tabulate invariants")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--boundary-set", default="0", help='comma-separated coefficients, e.g. "0,1/2,1"')
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--mod-permutations", action="store_true")
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("check", help="verify a corpus against all internal cross-checks")
    p.add_argument("--corpus-config")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_unwritable(args.out)
        output, status = args.fn(_read_germ(args.input), args) if "input" in args else args.fn(args)
        _write([json.dumps(output, indent=1, sort_keys=True) + "\n"] if isinstance(output, dict) else output, args.out)
        return status
    except (InputError, ResourceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
