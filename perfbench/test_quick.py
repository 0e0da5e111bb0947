"""Quick test of the benchmark itself: every workload at index <= 4.

    python3 -m pytest -q perfbench/test_quick.py

Checks that a corrupted reference is caught (in process and as a nonzero
exit code), that each layer shows calls where ``predictions.json`` says it is
used and none where it says it is bypassed, that tracing leaves every
function binding of the package as it found it, that the pass count depends
on ``--seconds`` alone, that a pass which mostly waits fails the run, and
that times are scaled by the calibration bursts nearest them.
"""
from __future__ import annotations

import copy
import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUICK = {"survey-d3-deep": 4, "check-corpus": 4, "flat-corpus": 4}

with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
    PREDICTED_CALLS = json.load(fh)["calls"]


def _args(workload: str, trace: int = 0, seed: int = 7) -> object:
    return run.parse_args([
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
        "--max-index", str(QUICK[workload]),
    ])


def _bindings() -> dict:
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "toricmld" or name.startswith("toricmld.")
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_correct_at_the_reference(workload):
    result = run.run(_args(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"germs_per_s", "germ_p50_ms", "germ_p99_ms", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_reference_is_caught(workload):
    run.import_program()
    args = _args(workload)
    reference = run.load_reference(args.reference, workload, QUICK[workload])
    bad = copy.deepcopy(reference)
    if "digests" in bad:
        bad["digests"][1] = "0" * 16
    else:
        bad["germs"] += 1
    result = WORKLOADS[workload].run_pass(
        WORKLOADS[workload].prepare(QUICK[workload], 7), bad, run.WORKDIR
    )
    assert result.failed > 0


def test_corrupted_reference_file_exits_nonzero(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["check-corpus"]["4"]["status"] = 2
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "check-corpus", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--max-index", "4", "--reference", str(path)],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_calls_match_predictions_and_bindings_are_restored(workload):
    run.import_program()
    before = _bindings()
    result = run.run(_args(workload, trace=1))
    after = _bindings()
    assert all(after[key] is obj for key, obj in before.items()), "tracing must restore every original"
    assert not [key for key, obj in after.items() if hasattr(obj, "__wrapped__")], "no wrapper may remain"
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for fn in PREDICTED_CALLS[workload]["nonzero"]:
        assert metrics[f"{fn}.calls"] > 0, fn
    for fn in PREDICTED_CALLS[workload]["zero"]:
        assert metrics[f"{fn}.calls"] == 0, fn
    assert metrics["linprog.solve_lp.calls"] == 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0 + 1e-9
    if workload == "survey-d3-deep":
        assert metrics["newton.dual_hilbert_basis.calls_per_lattice"] == 1
        assert metrics["germ.mld_face.useful_ratio"] == pytest.approx(7 / 20)


@pytest.mark.parametrize("fn, binders", [
    ("germ.mld_face", ("germ", "survey", "adjunction", "cli")),
    ("linprog.solve_lp_max_slack", ("linprog", "newton")),
    ("newton.dual_hilbert_basis", ("newton", "flat")),
])
def test_tracer_wraps_every_binding_site(fn, binders):
    from tracer import Tracer

    run.import_program()
    defining, name = fn.split(".")
    modules = [importlib.import_module(f"toricmld.{m}") for m in binders]
    original = getattr(importlib.import_module(f"toricmld.{defining}"), name)
    with Tracer():
        for mod in modules:
            wrapper = getattr(mod, name)
            assert wrapper is not original and wrapper.__wrapped__ is original, mod.__name__
    for mod in modules:
        assert getattr(mod, name) is original, mod.__name__


def test_pass_count_is_fixed_by_seconds_alone():
    assert run.pass_count("survey-d3-deep", 0) == 1
    assert run.pass_count("survey-d3-deep", 20) == 1
    assert run.pass_count("check-corpus", 20) == 1
    assert run.pass_count("check-corpus", 40) == 3


def test_a_pass_that_mostly_waits_makes_the_run_incorrect():
    from workloads import PassResult

    busy = PassResult(germs=10, seconds=1.1, cpu_seconds=1.0, ref_seconds=1.0, latencies=[0.1] * 10, failed=0)
    idle = PassResult(germs=10, seconds=2.5, cpu_seconds=1.0, ref_seconds=1.0, latencies=[0.1] * 10, failed=0)
    assert run.waiting_notes([busy]) == []
    assert len(run.waiting_notes([busy, idle])) == 1


def test_host_speed_scales_each_stretch_by_the_bursts_nearest_it():
    from workloads import NEAR_BURSTS, REFERENCE_BURST_S, HostSpeed

    speed = HostSpeed()
    assert speed.scaled(0.0, 3.0) == 3.0  # no bursts: unscaled
    # a burst every second; the host runs at reference speed, then at half speed
    n = 2 * NEAR_BURSTS
    speed.marks = [float(t) for t in range(1, 2 * n + 1)]
    speed.bursts = [REFERENCE_BURST_S] * n + [2 * REFERENCE_BURST_S] * n
    assert speed.scale_at(0.5) == pytest.approx(1.0)
    assert speed.scale_at(n + 0.5) == pytest.approx(2 / 3)  # as many bursts of each speed nearby
    assert speed.scale_at(2 * n + 1.0) == pytest.approx(0.5)
    assert speed.scaled(0.0, 1.0) == pytest.approx(1.0)
    assert speed.scaled(2 * n, 2 * n + 2.0) == pytest.approx(1.0)
