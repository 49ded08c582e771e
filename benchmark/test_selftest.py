"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark

They cover the failure charge of ``heuristic_ratio``, the reference
check, and a seconds-long smoke run on ``cases/demo9.m``.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TOL = run.load_spec()["tolerance"]


def _outcome(method, objective, reference=100.0, total_flow=1000.0, error=None):
    backend = None if method == "two-stage" else "bridge"
    cell = run.Cell("net", 2, method, backend, reference)
    return run.Outcome(cell, objective, total_flow, error)


def test_failed_heuristic_cell_is_charged_the_total_flow():
    failed = _outcome("two-stage", None, error="InfeasibleError")
    valid = _outcome("two-stage", 900.0)
    exact = _outcome("milp", 100.0)
    assert run.heuristic_ratio([failed, exact]) == pytest.approx(10.0)
    assert run.heuristic_ratio([failed, valid]) == pytest.approx(math.sqrt(10.0 * 9.0))
    # any valid answer is at most the total flow, so a fixed failure never reads worse
    assert run.heuristic_ratio([valid, valid]) < run.heuristic_ratio([failed, valid])
    assert run.expected_failure(failed)
    assert not run.expected_failure(_outcome("milp", None, error="BridgeError"))


def test_reference_check_rejects_mismatch_and_beaten_reference():
    spec = run.load_spec()
    gt, texts, _ = run.setup(["demo9"])
    cells = run.workload_cells(spec, "smoke", 0)
    exact = next(c for c in cells if c.method == "milp" and c.backend == "builtin")
    heuristic = next(c for c in cells if c.method == "two-stage")
    perturbed = [
        dataclasses.replace(exact, reference_mw=exact.reference_mw * 1.01),
        dataclasses.replace(heuristic, reference_mw=heuristic.reference_mw * 10.0),
        exact,
    ]
    outcomes = run.sweep(gt, perturbed, texts, None, TOL, run.NullTracer()).outcomes
    assert [o.error for o in outcomes] == ["ReferenceMismatch", "BeatsReference", None]
    assert run.summarize(outcomes) == (False, 3, 2)
    assert run.summarize(outcomes[2:]) == (True, 1, 0)


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_with_its_unit():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 5
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared[group]}
