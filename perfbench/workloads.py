"""The three benchmark workloads and their output checks.

Each workload has a set-up step (``prepare``), which builds the inputs before
the first timed call, and a pass (``run_pass``), which runs the program once
over the whole input and compares every output with the reference recorded
at the seed commit.  A pass returns the germ count, its wall and CPU time,
one latency sample per germ and the number of germs whose output was wrong
or raised.

Times are CPU time (``cpu_clock``): this process's user and system time plus
that of every child process it has reaped, so work handed to worker
processes still counts.  The program runs with ``--jobs 1`` and never waits,
so CPU time equals wall time, except that it leaves out the slices in which
a shared host does not run the process: on a shared 2-core host the
wall-clock germ rate spread 10-17% (interquartile range over median, ten
runs) where CPU time spread 4-7%.  Each pass also records its wall time;
``run.py`` refuses a run whose wall time is far above its CPU time, so
waiting that the CPU clock does not see cannot read as a speed-up.

On a shared virtual machine even CPU time is not steady: the speed of the
host's core drifts over seconds to minutes, so that the CPU time of the two
passes of one run differed by up to 25%.  Every pass therefore runs a
fixed pure-Python loop (``calibration_burst``, about 5 ms) between germs
every ``BURST_EVERY_S`` of CPU time, and scales each stretch of CPU time by
the loop's reference time over its mean time in the bursts nearest that
stretch (``HostSpeed``): the pass reports seconds on the reference host.
The bursts are left out of every time the pass reports, and of the traced
spans too.  Over ten runs per workload (interquartile range over median)
the unscaled germ rate spread 5%, 6% and 16% on survey-d3-deep,
check-corpus and flat-corpus, and the scaled one 1.6%, 1.3% and 1.1%.

The program is always reached through module attributes looked up at call
time (``survey.verify_corpus`` rather than a name bound at import), so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import os
import random
import resource
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from itertools import product
from statistics import fmean
from time import perf_counter, process_time

SIZES = {"survey-d3-deep": 20, "check-corpus": 6, "flat-corpus": 6}


# CPU seconds of one calibration burst on the reference host (2.1 GHz Xeon
# vCPU, Python 3.11.7); it fixes the unit of the scaled times
REFERENCE_BURST_S = 0.0047
BURST_EVERY_S = 0.1
# bursts on each side of a moment whose mean gives the host speed there: over
# six flat-corpus passes on a drifting host (unscaled germ rate spread 17%),
# 5 (about 1 s of CPU) left 1-4% in germ rate and p50 and 6% in p99; windows
# of 20 bursts or more followed the drift less closely, and medians worse
NEAR_BURSTS = 5


def cpu_clock() -> float:
    """CPU seconds of this process and of its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def calibration_burst(n: int = 1000) -> Fraction:
    """A fixed loop of the kinds of work toricmld does (Fraction arithmetic,
    tuple hashing, dict updates, a sort) that uses none of toricmld."""
    acc = Fraction(0)
    counts: dict = {}
    keys = []
    for i in range(1, n):
        acc += Fraction(i % 7, i % 13 + 1)
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    keys.sort()
    return acc


class HostSpeed:
    """Clocks for one pass that leave out the calibration bursts, and the host
    speed the bursts measured around each moment of the ``cpu`` clock."""

    def __init__(self):
        self.marks: list[float] = []  # ``cpu()`` at each burst
        self.bursts: list[float] = []
        self.cpu_spent = 0.0
        self.wall_spent = 0.0
        self._next = cpu_clock() + BURST_EVERY_S

    def tick(self) -> None:
        """Run a burst if ``BURST_EVERY_S`` of CPU time have passed since the last."""
        if cpu_clock() >= self._next:
            self.burst()

    def burst(self) -> None:
        self.marks.append(self.cpu())
        c0, w0 = cpu_clock(), perf_counter()
        calibration_burst()
        c1 = cpu_clock()
        self.bursts.append(c1 - c0)
        self.cpu_spent += c1 - c0
        self.wall_spent += perf_counter() - w0
        self._next = c1 + BURST_EVERY_S

    def cpu(self) -> float:
        return cpu_clock() - self.cpu_spent

    def wall(self) -> float:
        return perf_counter() - self.wall_spent

    def scale_at(self, t: float) -> float:
        """Reference-host seconds per CPU second at ``t``, a ``cpu()`` reading
        (1 without bursts)."""
        if not self.bursts:
            return 1.0
        i = bisect_right(self.marks, t)
        return REFERENCE_BURST_S / fmean(self.bursts[max(0, i - NEAR_BURSTS):i + NEAR_BURSTS])

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-host seconds for the ``cpu()`` interval from t0 to t1."""
        cuts = [t0, *(m for m in self.marks if t0 < m < t1), t1]
        return sum((b - a) * self.scale_at((a + b) / 2) for a, b in zip(cuts, cuts[1:]))


def digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    germs: int
    seconds: float  # wall
    cpu_seconds: float  # cpu_clock
    ref_seconds: float  # cpu_seconds on the reference host
    latencies: list[float]  # reference-host seconds, one per germ (one fewer on the survey)
    failed: int
    notes: list[str] = field(default_factory=list)


@dataclass
class Corpus:
    """The default check corpus (d <= 3, b in {0,1/2,2/3,1}^d) up to an index,
    lattices shuffled by the seed within each dimension.  ``plan`` holds
    (dim, canonical basis, canonical position of the lattice's first germ);
    germs are built lazily, one lattice at a time, as ``corpus_germs`` does."""

    coeffs: tuple
    plan: list[tuple]
    germs: int


def build_corpus(max_index: int, seed: int) -> Corpus:
    from toricmld import lattice, survey

    config = survey.CorpusConfig()
    coeffs = tuple(sorted(set(config.boundary_set)))
    rng = random.Random(seed)
    plan: list[tuple] = []
    offset = 0
    for d in config.dims:
        per_lattice = len(coeffs) ** d
        block = [
            (d, lat.basis, offset + k * per_lattice)
            for k, lat in enumerate(lattice.enumerate_superlattices(d, max_index))
        ]
        offset += len(block) * per_lattice
        rng.shuffle(block)
        plan.extend(block)
    return Corpus(coeffs, plan, offset)


def corpus_germs(corpus: Corpus):
    """Yield (canonical position, germ).  Each lattice is a fresh object, so
    its per-lattice caches start cold on every pass, as in ``toricmld check``."""
    from toricmld.germ import ToricGerm
    from toricmld.lattice import Lattice

    for d, basis, first in corpus.plan:
        lat = Lattice(d, basis)
        for k, b in enumerate(product(corpus.coeffs, repeat=d)):
            yield first + k, lambda lat=lat, b=b: ToricGerm(lat, b)


# -- survey-d3-deep -------------------------------------------------------------


@contextmanager
def row_stamps(speed: HostSpeed):
    """Stamp every ``survey.germ_id`` call (exactly one per survey row), so
    the untraced survey yields per-row latencies without a profiler, and
    run the calibration bursts there."""
    import toricmld.survey as survey

    original = survey.germ_id
    stamps: list[float] = []

    def germ_id(germ):
        speed.tick()
        stamps.append(speed.cpu())
        return original(germ)

    survey.germ_id = germ_id
    try:
        yield stamps
    finally:
        survey.germ_id = original


def survey_prepare(max_index: int, seed: int):
    """The survey is fully set by its arguments; the seed is recorded unused."""
    return max_index


def survey_pass(max_index, reference: dict, workdir: str, tracer=None) -> PassResult:
    from toricmld import cli

    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, f"survey-{os.getpid()}.csv")
    argv = [
        "survey", "--dim", "3", "--max-index", str(max_index), "--boundary-set", "0", "--jobs", "1",
        "--out", out,
    ]
    speed = HostSpeed()
    if tracer is not None:
        tracer.clock = speed.wall
    try:
        with row_stamps(speed) as stamps:
            t0, c0 = speed.wall(), speed.cpu()
            status = cli.main(argv)
            t1, c1 = speed.wall(), speed.cpu()
        text = ""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                text = fh.read().decode()
    finally:
        if os.path.exists(out):
            os.remove(out)
    rows = text.splitlines()[1:]
    expected = reference["digests"]
    failed = sum(1 for i, row in enumerate(rows) if i >= len(expected) or digest(row) != expected[i])
    failed += max(0, len(expected) - len(rows))
    notes = []
    if status != 0:
        notes.append(f"survey exited with status {status}")
        failed = max(failed, len(expected))
    if sha256(text.encode()).hexdigest() != reference["sha256"]:
        notes.append("survey CSV sha256 differs from the reference")
        failed = max(failed, 1)
    latencies = [(b - a) * speed.scale_at((a + b) / 2) for a, b in zip(stamps, stamps[1:])]
    return PassResult(len(expected), t1 - t0, c1 - c0, speed.scaled(c0, c1), latencies, failed, notes)


# -- check-corpus ---------------------------------------------------------------


def check_pass(corpus: Corpus, reference: dict, workdir: str, tracer=None) -> PassResult:
    """``verify_corpus(CorpusConfig(), germs=...)``, the call behind
    ``toricmld check``; a germ's latency is the time between successive pulls
    from the germ iterator (building the germ plus its whole battery)."""
    from toricmld import survey

    stamps: list[float] = []
    speed = HostSpeed()
    if tracer is not None:
        tracer.clock = speed.wall

    def germs():
        for pos, make in corpus_germs(corpus):
            speed.tick()
            if tracer is not None:
                tracer.germ_id = pos
            stamps.append(speed.cpu())
            yield make()

    t0, c0 = speed.wall(), speed.cpu()
    status, report = survey.verify_corpus(survey.CorpusConfig(), germs=germs())
    t1, c1 = speed.wall(), speed.cpu()
    stamps.append(c1)
    failed = len(report["failures"]) + abs(reference["germs"] - report["checked"])
    notes = [f"{len(report['failures'])} germs failed the check battery"] if report["failures"] else []
    if status != reference["status"]:
        notes.append(f"check status {status}, reference {reference['status']}")
        failed = max(failed, 1)
    if report["checked"] != reference["germs"]:
        notes.append(f"checked {report['checked']} germs, reference {reference['germs']}")
    latencies = [(b - a) * speed.scale_at((a + b) / 2) for a, b in zip(stamps, stamps[1:])]
    return PassResult(report["checked"], t1 - t0, c1 - c0, speed.scaled(c0, c1), latencies, failed, notes)


# -- flat-corpus ----------------------------------------------------------------


def flat_digests(corpus: Corpus, tracer=None):
    """Yield (canonical position, wall seconds, CPU seconds, digest of
    to_json_dict()) per germ; the digest is None when the builder raised."""
    from toricmld import flat

    for pos, make in corpus_germs(corpus):
        if tracer is not None:
            tracer.germ_id = pos
        t0, c0 = perf_counter(), cpu_clock()
        try:
            doc = flat.build_flat_structure(make()).to_json_dict()
        except Exception:  # a raising germ is a failed germ, not a crashed run
            yield pos, perf_counter() - t0, cpu_clock() - c0, None
            continue
        t1, c1 = perf_counter(), cpu_clock()
        yield pos, t1 - t0, c1 - c0, digest(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def flat_pass(corpus: Corpus, reference: dict, workdir: str, tracer=None) -> PassResult:
    """``build_flat_structure`` once per corpus germ, each call timed; the
    pass's wall and CPU time are those of the calls, without the output checks."""
    expected = reference["digests"]
    got: list[str | None] = [None] * corpus.germs
    calls = []  # (middle of the call on the ``cpu`` clock, CPU seconds)
    wall = 0.0
    speed = HostSpeed()
    if tracer is not None:
        tracer.clock = speed.wall
    for pos, seconds, cpu_seconds, dig in flat_digests(corpus, tracer):
        wall += seconds
        # the call ended just before this point, and no burst ran since
        calls.append((speed.cpu() - cpu_seconds / 2, cpu_seconds))
        got[pos] = dig
        speed.tick()
    latencies = [c * speed.scale_at(t) for t, c in calls]
    failed = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(expected) - len(got))
    notes = []
    if sha256("".join(d or "-" for d in got).encode()).hexdigest() != reference["sha256"]:
        notes.append("digest over all results in corpus order differs from the reference")
        failed = max(failed, 1)
    return PassResult(corpus.germs, wall, sum(c for _, c in calls), sum(latencies), latencies, failed, notes)


@dataclass(frozen=True)
class Workload:
    prepare: object  # (max_index, seed) -> inputs
    run_pass: object  # (inputs, reference, workdir, tracer) -> PassResult


WORKLOADS = {
    "survey-d3-deep": Workload(survey_prepare, survey_pass),
    "check-corpus": Workload(build_corpus, check_pass),
    "flat-corpus": Workload(build_corpus, flat_pass),
}
