"""One benchmark run: cells, correctness gate, metrics.

A run evaluates cells of one workload, each on its own cell seed from a
stream derived from the run's ``--seed``: the workload's ``sim_cells``
always, then more while ``seconds`` allow. Every metric is a median over
cells, so a run samples many traces and trained policies rather than
one. The simulated metrics use only the first ``sim_cells`` cells, so
they repeat exactly at a fixed seed; the host-time metrics use every
cell.

Host times are reported at a reference machine speed. Before each cell
the run times ``reference_work`` (fixed interpreter and small-matrix
work that calls nothing in ``repro``) and scales the cell's host times
by ``REFERENCE_S`` over that time (sub-millisecond phases are timed
differently, see ``TINY_PHASE_S``). On a shared host the same cell's wall
time moves by up to 1.7x between processes and minutes; the reference
moves with it, and the scaled times move far less. The raw times and
each cell's scale factor are printed with the run's diagnostics.

With tracing on, each cell runs twice, untraced then traced: the pair
must agree bit for bit, and the per-layer metrics are averaged over the
traced cells.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import heapq
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cellpath
import layertrace
from workloads import Workload

#: Upper bound on the cells of one run (the length of its seed stream).
MAX_CELLS = 256

#: Environment variables pinning BLAS / OpenMP pools to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_jobs_per_s": "jobs/s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "energy_wh_per_job": "Wh",
    "goodput": "ratio",
}

#: Simulated latencies: printed with the end-to-end metrics but left out
#: of the result line. Under the DRL systems they swing with the cell
#: seed far more than any bound could absorb (hier-m30: interquartile
#: range 0.5-0.7 of the median across cells), so they are not gated.
REPORTED_UNITS = {"mean_latency_s": "s", "p95_latency_s": "s"}

_PER_CALL_UNITS = {"calls": "count", "self_s": "s", "self_us_per_call": "us"}

_RATIO_UNITS = {
    "sim.ledger.syncs_per_job": "count",
    "faults.starts_per_offered_job": "count",
    "core.global_tier.train_steps_per_decision": "ratio",
    "rl.replay.bytes_per_transition": "B",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {
        f"{name}.{suffix}": unit
        for name in layertrace.span_names()
        for suffix, unit in _PER_CALL_UNITS.items()
    }
    units.update(_RATIO_UNITS)
    return units


#: Seconds ``reference_work`` takes on the reference machine (a quiet
#: 2-vCPU Xeon, Python 3.11, numpy 2.4 with one OpenBLAS thread).
REFERENCE_S = 0.030

#: Runs of ``reference_work`` whose median one speed measurement takes.
SPEED_REPEATS = 3

#: A phase whose every cell timed it below this (its fastest of many
#: runs, see ``cellpath.SHORT_PHASE_S``) is reported as its fastest time
#: over all the run's cells, unscaled. Contention on a shared host can
#: last a cell's whole 0.1 s of reruns (fed-faults' ~80 us training
#: phase reads ~75 us in some cells, ~115 us in others), and a 30 ms
#: reference run cannot correct a time that short.
TINY_PHASE_S = 0.001


def reference_work() -> None:
    """Fixed work shaped like the simulator's: heap and dict operations in
    the interpreter plus small matrix products."""
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((64, 64)) * 0.1
    x = rng.standard_normal((32, 64))
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 511] = table.get(i & 511, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 16 == 0:
            x = np.tanh(x @ weights)


def speed_factor() -> float:
    """``REFERENCE_S`` over the median time of ``reference_work`` now."""
    times = []
    for _ in range(SPEED_REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)


def cell_seeds(seed: int) -> list[int]:
    """The run's ``MAX_CELLS`` cell seeds: a pure function of the run seed."""
    state = np.random.SeedSequence(seed).generate_state(MAX_CELLS)
    return [int(s) for s in state]


@dataclass
class CellRecord:
    """One executed cell: its seed, outputs and phase times."""

    seed: int
    outcome: cellpath.CellOutcome | None
    times: cellpath.PhaseTimes | None
    #: Mean ``speed_factor()`` just before and just after the cell; the
    #: cell's host times are multiplied by it.
    speed: float = 1.0
    traced: bool = False
    error: str | None = None

    def summary(self) -> dict:
        row: dict = {"cell_seed": self.seed, "traced": self.traced, "speed": self.speed}
        if self.error is not None:
            row["error"] = self.error
            return row
        o, t = self.outcome, self.times
        row.update(
            offered=o.offered,
            completed=o.completed,
            failed=o.failed,
            retried=o.retries,
            setup_s=t.setup_s,
            train_s=t.train_s,
            eval_s=t.eval_s,
            cpu_over_wall=t.cpu_s / t.elapsed_s,
        )
        return row


@dataclass
class RunResult:
    """Everything one run prints: the contract line plus diagnostics."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    cells: list[CellRecord]
    problems: list[str] = field(default_factory=list)
    #: ``REPORTED_UNITS`` values (untraced runs only).
    reported: dict[str, float] = field(default_factory=dict)
    #: Host-time metrics before scaling to the reference speed.
    raw: dict[str, float] = field(default_factory=dict)

    def cpu_over_wall(self) -> float | None:
        """CPU over wall time of the run's cells: well under 1 means the
        process waited for a CPU (recorded, never used to drop a run)."""
        timed = [c.times for c in self.cells if c.times is not None]
        wall = sum(t.elapsed_s for t in timed)
        return sum(t.cpu_s for t in timed) / wall if wall else None

    def contract_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def _run_cell(
    workload: Workload, seed: int, repeat_short: bool, tracer=None
) -> CellRecord:
    """One cell, wrapped by ``tracer`` when given."""
    traced = tracer is not None
    try:
        with tracer if traced else contextlib.nullcontext():
            outcome, times = cellpath.run_phases(
                workload.spec,
                workload.system,
                workload.n_jobs,
                seed,
                repeat_short=repeat_short,
            )
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return CellRecord(seed, None, None, traced=traced, error="raised")
    return CellRecord(seed, outcome, times, traced=traced)


def _gate(cells: list[CellRecord]) -> list[str]:
    """Conservation problems, and runs of one cell seed (an untraced and
    a traced run) whose outputs are not bit-identical."""
    problems = []
    reference: dict[int, str] = {}
    for cell in cells:
        if cell.error is not None:
            problems.append(f"cell {cell.seed} {cell.error}")
            continue
        o = cell.outcome
        if o.completed + o.failed != o.offered:
            problems.append(
                f"cell {cell.seed}: completed {o.completed} + failed {o.failed}"
                f" != offered {o.offered}"
            )
        if o.digest != reference.setdefault(cell.seed, o.digest):
            problems.append(f"cell {cell.seed}: outputs differ between its runs")
    return problems


def _accounting(workload: Workload, cells: list[CellRecord]) -> tuple[int, int]:
    """Jobs attempted and failed; a cell that raised fails all its jobs."""
    attempted = failed = 0
    for cell in cells:
        if cell.error is not None:
            attempted += workload.n_jobs
            failed += workload.n_jobs
        else:
            attempted += cell.outcome.offered
            failed += cell.outcome.failed
    return attempted, failed


def end_to_end_metrics(
    cells: list[CellRecord], sim_cells: int
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Medians over the run's cells (for a phase under ``TINY_PHASE_S``,
    its fastest time): ``(end_to_end, reported, raw)``.

    Host times are scaled to the reference speed (``raw`` holds them
    unscaled); simulated values come from the first ``sim_cells`` cells.
    """
    ok = [c for c in cells if c.error is None]
    sim = [c.outcome.sim_metrics() for c in ok[:sim_cells]]

    def host(scaled: bool) -> dict[str, float]:
        def phase(name: str) -> float:
            times = [getattr(c.times, name) for c in ok]
            if max(times) < TINY_PHASE_S:
                return min(times)
            return statistics.median(
                t * c.speed if scaled else t for t, c in zip(times, ok)
            )

        return {
            "setup_s": phase("setup_s"),
            "train_s": phase("train_s"),
            "eval_jobs_per_s": statistics.median(
                c.outcome.offered / (c.times.eval_s * (c.speed if scaled else 1.0))
                for c in ok
            ),
            "wall_s": statistics.median(
                c.times.wall_s * (c.speed if scaled else 1.0) for c in ok
            ),
        }

    def sim_median(name: str) -> float:
        return statistics.median(m[name] for m in sim)

    metrics = {
        **host(scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_wh_per_job": sim_median("energy_wh_per_job"),
        "goodput": sim_median("goodput"),
    }
    reported = {name: sim_median(name) for name in REPORTED_UNITS}
    return metrics, reported, host(scaled=False)


def per_layer_metrics(
    tracer: layertrace.LayerTracer,
    untraced: list[CellRecord],
    traced: list[CellRecord],
) -> dict[str, float]:
    """Per traced cell: calls and self time of each wrapped call, plus
    the layer ratios, the tracing overhead and the traced coverage."""
    n = len(traced)
    metrics: dict[str, float] = {}
    for name, (calls, _, _), self_s in zip(
        tracer.names, tracer.acc, tracer.self_seconds()
    ):
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_s"] = self_s / n
        metrics[f"{name}.self_us_per_call"] = self_s / calls * 1e6 if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    offered = sum(c.outcome.offered for c in traced)
    traced_wall = sum(c.times.wall_s for c in traced)
    # Each cell at reference speed, so a machine slowdown between the two
    # runs of a pair is not counted as tracing overhead.
    overhead = sum(c.times.wall_s * c.speed for c in traced) / sum(
        c.times.wall_s * c.speed for c in untraced
    )
    metrics["sim.ledger.syncs_per_job"] = ratio(
        tracer.calls("sim.ledger.sync"), tracer.calls("sim.server.assign")
    )
    metrics["faults.starts_per_offered_job"] = ratio(
        tracer.calls("faults.start_job"), offered
    )
    metrics["core.global_tier.train_steps_per_decision"] = ratio(
        tracer.calls("core.global_tier.train_minibatch"),
        tracer.calls("core.global_tier.select_server"),
    )
    metrics["rl.replay.bytes_per_transition"] = float(
        max(tracer.replay_row_bytes, default=0)
    )
    metrics["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    metrics["trace.coverage"] = sum(tracer.self_seconds()) / traced_wall
    return metrics


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    spans_dir: Path | None = None,
) -> RunResult:
    """Run cells of ``workload`` for about ``seconds`` and gather metrics.

    The first ``workload.sim_cells`` cells (one traced pair with
    ``trace``) always run; after that a cell starts only if the slowest
    so far would still end in time.
    """
    sim_cells = workload.sim_cells
    seeds = cell_seeds(seed)
    start = time.perf_counter()
    tracer = layertrace.LayerTracer() if trace else None
    cells: list[CellRecord] = []
    untraced: list[CellRecord] = []
    traced: list[CellRecord] = []
    longest = 0.0
    speed = speed_factor()

    def run_cell(cell_seed: int, cell_tracer=None) -> CellRecord:
        nonlocal speed
        gc.collect()
        # Traced pairs run every phase once, so both do the same work.
        record = _run_cell(workload, cell_seed, not trace, cell_tracer)
        gc.collect()
        before, speed = speed, speed_factor()
        record.speed = (before + speed) / 2
        cells.append(record)
        return record

    for i, cell_seed in enumerate(seeds):
        elapsed = time.perf_counter() - start
        mandatory = i < (1 if trace else sim_cells)
        if not mandatory and elapsed + longest > seconds:
            break
        t0 = time.perf_counter()
        plain = run_cell(cell_seed)
        untraced.append(plain)
        if trace and plain.error is None:
            traced.append(run_cell(cell_seed, tracer))
        longest = max(longest, time.perf_counter() - t0)

    problems = _gate(cells)
    attempted, failed = _accounting(workload, cells)
    reported: dict[str, float] = {}
    raw: dict[str, float] = {}
    metrics: dict[str, float] = {}
    if trace:
        units = per_layer_units()
        good = [c for c in traced if c.error is None]
        if good:
            pairs = {c.seed for c in good}
            metrics = per_layer_metrics(
                tracer, [c for c in untraced if c.seed in pairs], good
            )
            if spans_dir is not None:
                tracer.write_spans(
                    spans_dir / f"spans-{workload.name}-seed{seed}.json.gz",
                    {"workload": workload.name, "seed": seed, "cells": len(good)},
                )
    else:
        units = {**END_TO_END_UNITS, **REPORTED_UNITS}
        if any(c.error is None for c in cells):
            metrics, reported, raw = end_to_end_metrics(cells, sim_cells)
    if not metrics:
        problems.append("no cell completed")
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=units,
        cells=cells,
        problems=problems,
        reported=reported,
        raw=raw,
    )


def fingerprint(seed: int, repo_root: Path) -> dict:
    """Where and how the run happened."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "threads_in_use": openblas_threads(),
        },
        "cpu_model": cpu_model or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "loadavg_start": os.getloadavg(),
        "speed_factor_start": speed_factor(),
        "git_commit": git_commit(repo_root),
        "seed": seed,
    }


def openblas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use (None if it cannot say)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(repo_root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = repo_root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
