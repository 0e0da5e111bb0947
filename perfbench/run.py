"""toricmld benchmark: three corpus workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

Workloads (sizes in ``workloads.SIZES``; ``--max-index`` overrides them):

* ``survey-d3-deep``: ``toricmld survey --dim 3 --max-index 20
  --boundary-set 0 --jobs 1`` through ``toricmld.cli.main``, CSV to a file in
  ``.perfbench/``.  Every lattice is used once; the seed is unused.
* ``check-corpus``: ``verify_corpus(CorpusConfig(), germs=...)`` over the
  default corpus (d <= 3, b in {0,1/2,2/3,1}^d) up to index 6.
* ``flat-corpus``: ``build_flat_structure`` on every germ of that corpus.

On the two corpus workloads the seed shuffles the lattice order within each
dimension; each lattice's boundaries stay together and are built lazily.

A run is one process with ``jobs=1``.  It times set-up (``import toricmld``
plus the inputs built before the first timed call) in itself and in
``SETUP_CHILDREN`` fresh child processes and reports the median.  It then
runs a fixed number of whole passes over the workload: ``--seconds`` over
the workload's nominal pass length (``PASS_SECONDS``), rounded, at least
one.  The count does not depend on how fast the host happens to be, so
every run of a workload measures the same work and the same number of
latency samples.  Every output is compared with ``reference/``, recorded at
the seed commit; ``failed`` counts germs whose output differs or raised, so
``failed / attempted`` is the failed fraction, and the run exits 1 when it
is nonzero.  A pass whose wall time is more than ``WAIT_LIMIT`` times its
CPU time also makes the run incorrect (exit 1): the program then spends
most of its time waiting, and figures in CPU time would not be its own.

``--trace 0`` reports the end-to-end metrics: ``germs_per_s`` over all
passes, per-germ ``germ_p50_ms`` and ``germ_p99_ms`` (flat: each call timed;
check: time between pulls from the germ iterator; survey: time between
successive rows), ``peak_rss_mb`` (``ru_maxrss`` of this fresh process) and
``setup_s``.  The germ rate and latencies are CPU time scaled to the
reference host by calibration bursts (see ``workloads``); the unscaled and
the wall-clock germ rates are printed on stderr beside them.  ``setup_s``
is scaled too, but less (see ``timed_setup``).

``--trace 1`` runs an untraced, a traced and another untraced pass and
reports the per-layer metrics: calls and self time of the public functions
of each layer module, their ratios, ``trace.coverage`` (wrapped self time
over the traced pass's wall time) and ``trace.overhead_frac`` (the traced
pass's scaled CPU time over the mean of the two untraced passes', minus 1).
The spans go to ``.perfbench/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a summary goes to stderr.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference", "reference.json")
SETUP_CHILDREN = 8
SETUP_SPEED_EXPONENT = 0.5
# CPU seconds of one pass at the seed commit (2.1 GHz Xeon vCPU); they only
# turn --seconds into a pass count, so they stay fixed as the program changes
PASS_SECONDS = {"survey-d3-deep": 23.0, "check-corpus": 14.0, "flat-corpus": 13.5}
# a pass may take at most this many times its CPU time in wall time
WAIT_LIMIT = 2.0

sys.path.insert(0, HERE)

from workloads import NEAR_BURSTS, SIZES, WORKLOADS, HostSpeed  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no reference, ...)."""


def import_program():
    """Import toricmld from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "toricmld", "__init__.py")):
        raise BenchError(f"no toricmld source tree under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import toricmld

    if os.path.dirname(os.path.dirname(os.path.abspath(toricmld.__file__))) != SRC:
        raise BenchError(f"toricmld was imported from {toricmld.__file__}, not from {SRC}")
    return toricmld


def timed_setup(workload, max_index: int, seed: int):
    """Reference-host seconds for ``import toricmld`` plus building the
    inputs, and the inputs.

    The CPU time is scaled by the host speed that ``NEAR_BURSTS``
    calibration bursts on each side measure, raised to ``SETUP_SPEED_EXPONENT``:
    set-up follows the host's speed at about half the rate of interpreted
    code.  Within each of two 100 s stretches of fresh processes, log set-up
    time against log burst time had slope 0.46 and 0.41; between the two,
    whose burst times differed by 49%, the median set-up moved by 32%
    unscaled, by -11% fully scaled and by 8% with the square root."""
    speed = HostSpeed()
    for _ in range(NEAR_BURSTS):
        speed.burst()
    t0 = speed.cpu()
    import_program()
    inputs = workload.prepare(max_index, seed)
    t1 = speed.cpu()
    for _ in range(NEAR_BURSTS):
        speed.burst()
    return (t1 - t0) * speed.scale_at(t0) ** SETUP_SPEED_EXPONENT, inputs


def child_setup_seconds(args, max_index: int) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--max-index", str(max_index),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def load_reference(path: str, workload: str, max_index: int) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)[workload][str(max_index)]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise BenchError(f"no reference for {workload} at index {max_index} in {path}: {exc!r}") from exc
    if "digests" in ref:  # a file of per-germ digests, one a line, in corpus order
        with open(os.path.join(os.path.dirname(path), ref["digests"]), encoding="utf-8") as fh:
            ref = dict(ref, digests=fh.read().split())
    return ref


def _installed_version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


# -- end-to-end ---------------------------------------------------------------------


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def waiting_notes(passes) -> list[str]:
    """One note per pass whose wall time exceeds ``WAIT_LIMIT`` times its CPU time."""
    return [
        f"pass {i} took {p.seconds:.3f} s wall for {p.cpu_seconds:.3f} s CPU (limit {WAIT_LIMIT}x)"
        for i, p in enumerate(passes)
        if p.seconds > WAIT_LIMIT * p.cpu_seconds
    ]


def end_to_end(args, max_index: int, reference: dict):
    workload = WORKLOADS[args.workload]
    setup, inputs = timed_setup(workload, max_index, args.seed)
    setups = [setup] + [child_setup_seconds(args, max_index) for _ in range(SETUP_CHILDREN)]
    passes = [workload.run_pass(inputs, reference, WORKDIR) for _ in range(pass_count(args.workload, args.seconds))]
    germs = sum(p.germs for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "germs_per_s": (germs / sum(p.ref_seconds for p in passes), "1/s"),
        "germ_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "germ_p99_ms": (1e3 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {
        "passes": len(passes),
        "germs_per_pass": passes[0].germs,
        "latency_samples": len(latencies),
        "pass_seconds": [round(p.seconds, 3) for p in passes],
        "pass_cpu_seconds": [round(p.cpu_seconds, 3) for p in passes],
        "pass_scale": [round(p.ref_seconds / p.cpu_seconds, 4) for p in passes],
        "unscaled_germs_per_s": germs / sum(p.cpu_seconds for p in passes),
        "wall_germs_per_s": germs / sum(p.seconds for p in passes),
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    return passes, metrics, info


# -- per-layer ----------------------------------------------------------------------

# functions whose calls and self time are reported
KEPT = (
    "lattice.enumerate_superlattices",
    "germ.mld_face",
    "germ.mld_bruteforce_oracle",
    "germ.verify_minkowski",
    "germ.cartier_index",
    "adjunction.check_precise_inversion",
    "adjunction.adjoin_invariant_divisor",
    "adjunction.check_lower_semicontinuity",
    "newton.dual_hilbert_basis",
    "newton.lct_general_member",
    "newton.lct_newton",
    "newton.newton_poly_from_exponents",
    "linprog.solve_lp_max_slack",
    "linprog.solve_lp",
    "flat.build_flat_structure",
    "flat.threshold_step",
    "flat.minimal_center",
    "flat.ray_infimum",
    "survey.run_survey",
    "survey.rows_to_csv",
    "survey.verify_corpus",
)


def layer_metrics(tracer, germs: int, wall: float, overhead: float) -> dict:
    from tracer import LAYERS

    summary = tracer.summary()
    metrics = {}
    for name in KEPT:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for layer in LAYERS:
        total = sum(s for n, (_, s) in summary.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total, "s")

    def ratio(a, b):
        return a / b if b else 0.0

    hb_calls = summary["newton.dual_hilbert_basis"][0]
    sizes = tracer.hilbert_sizes
    metrics["newton.dual_hilbert_basis.calls_per_lattice"] = (ratio(hb_calls, len(sizes)), "count")
    metrics["newton.dual_hilbert_basis.basis_size_mean"] = (ratio(sum(sizes.values()), len(sizes)), "count")
    mld_calls = summary["germ.mld_face"][0]
    metrics["germ.mld_face.calls_per_germ"] = (ratio(mld_calls, germs), "count")
    metrics["germ.mld_face.useful_ratio"] = (ratio(len(tracer.mld_face_pairs), mld_calls), "ratio")
    metrics["linprog.solve_lp_max_slack.calls_per_germ"] = (
        ratio(summary["linprog.solve_lp_max_slack"][0], germs), "count")
    metrics["flat.threshold_step.calls_per_germ"] = (ratio(summary["flat.threshold_step"][0], germs), "count")
    metrics["trace.coverage"] = (ratio(sum(s for _, s in summary.values()), wall), "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    return metrics


def per_layer(args, max_index: int, reference: dict):
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    _, inputs = timed_setup(workload, max_index, args.seed)
    # untraced passes on both sides of the traced one, so a drift in host
    # speed over the run cancels out of the overhead
    before = workload.run_pass(inputs, reference, WORKDIR)
    tracer = Tracer()
    with tracer:
        traced = workload.run_pass(inputs, reference, WORKDIR, tracer)
    after = workload.run_pass(inputs, reference, WORKDIR)
    os.makedirs(WORKDIR, exist_ok=True)
    spans = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write_spans(spans)
    untraced = (before.ref_seconds + after.ref_seconds) / 2
    metrics = layer_metrics(tracer, traced.germs, traced.seconds, traced.ref_seconds / untraced - 1)
    info = {"germs": traced.germs, "traced_wall_s": round(traced.seconds, 3),
            "traced_ref_s": round(traced.ref_seconds, 3),
            "untraced_ref_s": [round(before.ref_seconds, 3), round(after.ref_seconds, 3)],
            "spans_file": os.path.relpath(spans, ROOT)}
    return [before, traced, after], metrics, info


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="toricmld benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-index", type=int, default=None, help="corpus size (default per workload)")
    p.add_argument("--reference", default=REFERENCE, help="reference outputs (JSON)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run(args) -> dict:
    """One benchmark run; returns the result object (see the module docstring)."""
    max_index = args.max_index or SIZES[args.workload]
    reference = load_reference(args.reference, args.workload, max_index)
    measure_fn = per_layer if args.trace else end_to_end
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": _installed_version("numpy"), "loadavg_at_start": os.getloadavg()}
    passes, metrics, info = measure_fn(args, max_index, reference)
    attempted = sum(p.germs for p in passes)
    failed = sum(p.failed for p in passes)
    waited = waiting_notes(passes)
    info.update(workload=args.workload, seed=args.seed, max_index=max_index, machine=machine,
                failed_frac=failed / attempted if attempted else 1.0,
                notes=sorted({n for p in passes for n in p.notes}) + waited)
    return {
        "correct": failed == 0 and attempted > 0 and not waited,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            max_index = args.max_index or SIZES[args.workload]
            seconds, _ = timed_setup(WORKLOADS[args.workload], max_index, args.seed)
            print(repr(seconds))
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.pop("info"), sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
