"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--sizes default,4]

Run it at the commit whose outputs are the reference (the seed commit of the
benchmark).  For each workload and corpus size it writes into
``perfbench/reference/``:

* survey-d3-deep: row count, CSV sha256, and one digest per CSV row;
* check-corpus: ``verify_corpus`` status and germ count;
* flat-corpus: germ count, one digest of ``FlatBuildResult.to_json_dict()``
  per germ in corpus order, and the sha256 over those digests.

Existing entries for other sizes are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from hashlib import sha256

import run
from workloads import SIZES, build_corpus, digest, flat_digests


def _write_digests(name: str, digests: list[str]) -> None:
    with open(os.path.join(os.path.dirname(run.REFERENCE), name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(digests) + "\n")


def record_survey(max_index: int) -> dict:
    from toricmld import cli

    os.makedirs(run.WORKDIR, exist_ok=True)
    out = os.path.join(run.WORKDIR, "reference-survey.csv")
    argv = ["survey", "--dim", "3", "--max-index", str(max_index), "--boundary-set", "0", "--out", out]
    if cli.main(argv) != 0:
        raise SystemExit("the survey failed; nothing recorded")
    with open(out, "rb") as fh:
        text = fh.read().decode()
    os.remove(out)
    rows = text.splitlines()[1:]
    name = f"survey-d3-deep-{max_index}.txt"
    _write_digests(name, [digest(r) for r in rows])
    return {"rows": len(rows), "sha256": sha256(text.encode()).hexdigest(), "digests": name}


def record_check(max_index: int) -> dict:
    from toricmld import survey

    status, report = survey.verify_corpus(survey.CorpusConfig(max_index=max_index))
    return {"germs": report["checked"], "status": status}


def record_flat(max_index: int) -> dict:
    corpus = build_corpus(max_index, seed=0)
    got: list[str | None] = [None] * corpus.germs
    for pos, _, _, dig in flat_digests(corpus):
        if dig is None:
            raise SystemExit(f"the flat builder raised on germ {pos}; nothing recorded")
        got[pos] = dig
    name = f"flat-corpus-{max_index}.txt"
    _write_digests(name, got)
    return {"germs": corpus.germs, "sha256": sha256("".join(got).encode()).hexdigest(), "digests": name}


RECORDERS = {"survey-d3-deep": record_survey, "check-corpus": record_check, "flat-corpus": record_flat}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", default="default,4", help='"default" and/or max indices, comma-separated')
    args = p.parse_args(argv)
    run.import_program()
    try:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    reference["recorded_at"] = commit or "unknown"
    for name, record in RECORDERS.items():
        for size in args.sizes.split(","):
            max_index = SIZES[name] if size == "default" else int(size)
            reference.setdefault(name, {})[str(max_index)] = record(max_index)
            print(f"{name} index {max_index}: {reference[name][str(max_index)]}", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
