"""Tests of the cell benchmark at small job counts (a few seconds in all).

They check that the benchmark's three-phase cell path is the cell path
``run_cell`` takes, that tracing changes no simulated output and leaves
nothing patched, and that a run's output matches ``BENCHMARK.json``.
Every file they write goes to pytest's temporary directory.
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cellpath
import layertrace
import measure
from workloads import workloads

from repro.scenarios.orchestrator import run_cell

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Job counts small enough for a fast suite; training segments are at
#: least 200 jobs whatever the evaluation size.
SMALL = {"hier-m30": 60, "fed-faults": 300, "drl-m300": 60}


def small(name: str):
    return replace(workloads()[name], n_jobs=SMALL[name], sim_cells=2)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_three_phase_path_reproduces_run_cell(name):
    w = small(name)
    outcome, times = cellpath.run_phases(w.spec, w.system, w.n_jobs, seed=5)
    reference = run_cell(w.spec, w.system, n_jobs=w.n_jobs, seed=5)
    assert outcome.offered == reference["n_jobs_offered"]
    assert outcome.completed == reference["n_jobs_completed"]
    assert outcome.failed == reference["failed_jobs"]
    assert outcome.retries == reference["retries"]
    assert outcome.energy_kwh == reference["energy_kwh"]
    assert outcome.acc_latency_s == reference["acc_latency_s"]
    assert outcome.final_time_s == reference["final_time_s"]
    assert len(outcome.latencies) == outcome.completed
    assert min(times.setup_s, times.train_s, times.eval_s) > 0.0


def _originals():
    found = {}
    for _, module_name, owner, attr in layertrace.TARGETS:
        module = importlib.import_module(module_name)
        holder = module if owner is None else getattr(module, owner)
        found[(module_name, owner, attr)] = inspect.getattr_static(holder, attr)
    return found


def test_tracing_keeps_outputs_and_restores_the_program(monkeypatch):
    w = small("fed-faults")
    before = _originals()
    plain, _ = cellpath.run_phases(w.spec, w.system, w.n_jobs, seed=2)
    monkeypatch.setattr(layertrace, "SPAN_LIMIT", 50)
    tracer = layertrace.LayerTracer()
    with tracer:
        traced, times = cellpath.run_phases(
            w.spec, w.system, w.n_jobs, seed=2, repeat_short=False
        )
    # The plain run repeated its short setup and training phases.
    assert traced.digest == plain.digest
    assert _originals() == before
    assert tracer.calls("sim.federation.run") == 1
    assert tracer.calls("faults.start_job") >= traced.offered
    assert tracer.calls("core.predictor.fit") == 0
    assert all(s >= 0.0 for s in tracer.self_seconds())
    assert sum(tracer.self_seconds()) <= times.elapsed_s
    assert len(tracer.spans) == 50
    assert tracer.spans_dropped > 0
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, _, start, end in tracer.spans:
        assert start <= end
        if parent in by_id:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]


def test_gate_flags_lost_jobs_and_diverging_repeats():
    w = small("fed-faults")
    outcome, times = cellpath.run_phases(w.spec, w.system, w.n_jobs, seed=1)
    lost = cellpath.CellOutcome(
        **{**outcome.__dict__, "completed": outcome.completed - 1}
    )
    cells = [
        measure.CellRecord(1, outcome, times),
        measure.CellRecord(1, outcome, times),
        measure.CellRecord(1, lost, times),
        measure.CellRecord(9, None, None, error="raised"),
    ]
    problems = measure._gate(cells)
    assert len(problems) == 3
    assert "completed" in problems[0] and "differ" in problems[1]
    assert "raised" in problems[2]
    assert measure._accounting(w, cells) == (3 * outcome.offered + w.n_jobs, w.n_jobs)


def test_tiny_phases_report_their_fastest_time_unscaled():
    w = small("fed-faults")
    outcome, times = cellpath.run_phases(w.spec, w.system, w.n_jobs, seed=1)
    cells = [
        measure.CellRecord(1, outcome, replace(times, train_s=t), speed=0.5)
        for t in (3e-4, 1e-4, 2e-4)
    ]
    metrics, _, raw = measure.end_to_end_metrics(cells, sim_cells=1)
    assert metrics["train_s"] == raw["train_s"] == 1e-4
    assert metrics["setup_s"] == raw["setup_s"] * 0.5


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_exactly_the_declared_metrics(trace, tmp_path):
    w = small("fed-faults")
    result = measure.measure(
        w, seed=4, seconds=0.0, trace=trace, spans_dir=tmp_path
    )
    line = result.contract_line()
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and result.problems == []
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in line["metrics"].items()
    }
    if trace:
        assert list(tmp_path.glob("spans-fed-faults-seed4.json.gz"))
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_cell_seeds_depend_only_on_the_run_seed():
    assert measure.cell_seeds(3) == measure.cell_seeds(3)
    assert measure.cell_seeds(3) != measure.cell_seeds(4)
    assert len(set(measure.cell_seeds(3))) == measure.MAX_CELLS


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:]]
        + ["--workload", "hier-m30", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
