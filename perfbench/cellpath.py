"""The scenario-cell path split into timed setup, training and evaluation.

``repro.scenarios.orchestrator.run_cell`` (and, for federated scenarios,
``repro.scenarios.federation.run_federated_cell``) runs one cell as one
call. This module makes the same calls, in the same order and with the
same seeds, as three separately timed phases:

* **setup** resolves the cell's seeds, builds its traces, fault plans
  and churn schedule;
* **training** builds (and, for learning systems, trains) the systems;
* **evaluation** runs the evaluation trace through a fresh engine.

The evaluation engine keeps its completed jobs so the latency tail can
be read off them; that only retains references and changes no simulated
value. ``test_perfbench.py`` checks that the result matches
``run_cell`` field by field.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core import federation as core_federation
from repro.faults import plan as fault_plan
from repro.harness import runner
from repro.scenarios import federation as scen_federation
from repro.scenarios.specs import ScenarioSpec
from repro.sim.churn import schedule_capacity_events

#: Protocol knobs of ``run_cell``'s defaults (cold start, one online and
#: one local warm-up epoch).
RECORD_EVERY = 200
PRETRAIN = True
ONLINE_EPOCHS = 1
LOCAL_EPOCHS = 1


@dataclass(frozen=True)
class CellOutcome:
    """Simulated outputs of one evaluation run (identical at a fixed seed)."""

    offered: int
    completed: int
    failed: int
    retries: int
    energy_kwh: float
    acc_latency_s: float
    final_time_s: float
    #: Completed jobs' latencies, sorted ascending.
    latencies: tuple[float, ...]

    @property
    def digest(self) -> str:
        """Hash of every field, for bit-identity checks between runs."""
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    self.offered,
                    self.completed,
                    self.failed,
                    self.retries,
                    self.energy_kwh.hex(),
                    self.acc_latency_s.hex(),
                    self.final_time_s.hex(),
                )
            ).encode()
        )
        h.update(np.asarray(self.latencies, dtype=np.float64).tobytes())
        return h.hexdigest()

    def sim_metrics(self) -> dict[str, float]:
        """Simulated per-job results of the run.

        ``p95_latency_s`` is taken over offered jobs: a failed job counts
        as an infinitely late one.
        """
        rank = math.ceil(0.95 * self.offered) - 1
        return {
            "energy_wh_per_job": self.energy_kwh * 1000.0 / self.completed,
            "mean_latency_s": self.acc_latency_s / self.completed,
            "p95_latency_s": (
                self.latencies[rank] if rank < len(self.latencies) else math.inf
            ),
            "goodput": self.completed / (self.completed + self.failed),
        }


@dataclass(frozen=True)
class PhaseTimes:
    """Host time of one cell, per phase (seconds)."""

    setup_s: float
    train_s: float
    eval_s: float
    #: Wall and CPU time of the whole call, repeated phases included.
    elapsed_s: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.train_s + self.eval_s


def _tail_latencies(jobs) -> tuple[float, ...]:
    return tuple(sorted(job.latency for job in jobs))


class _SingleCell:
    """``run_cell``'s single-cluster path, one method per phase."""

    def __init__(self, spec: ScenarioSpec, system: str, n_jobs: int, seed: int):
        self.spec, self.system, self.n_jobs, self.seed = spec, system, n_jobs, seed

    def setup(self) -> None:
        spec, n_jobs, seed = self.spec, self.n_jobs, self.seed
        trace_ss, self.system_seed = runner.derive_cell_seeds(seed)
        self.config = spec.experiment_config(seed=seed)
        self.eval_jobs, self.train_traces = spec.build_traces(n_jobs, trace_ss)
        self.plans = fault_plan.scenario_fault_plans(spec, n_jobs, seed)
        self.events = spec.capacity_events(spec.horizon_for(n_jobs))

    def train(self) -> None:
        self.built = runner.make_system(
            self.system,
            self.config,
            self.train_traces,
            seed=self.system_seed,
            pretrain=PRETRAIN,
            online_epochs=ONLINE_EPOCHS,
            local_epochs=LOCAL_EPOCHS,
        )

    def evaluate(self) -> CellOutcome:
        result = self.built.run(
            [job.copy() for job in self.eval_jobs],
            record_every=RECORD_EVERY,
            keep_jobs=True,
            capacity_events=self.events,
            tariff=self.spec.tariff,
            faults=self.plans[0] if self.plans else None,
        )
        metrics = result.metrics
        return CellOutcome(
            offered=len(self.eval_jobs),
            completed=metrics.n_completed,
            failed=metrics.n_failed,
            retries=metrics.n_retries,
            energy_kwh=result.total_energy_kwh,
            acc_latency_s=metrics.acc_latency,
            final_time_s=result.final_time,
            latencies=_tail_latencies(metrics.completed_jobs),
        )


class _FederatedCell(_SingleCell):
    """``run_federated_cell``'s cold path, one method per phase.

    Mirrors ``build_federated_cell`` with its trace building moved into
    the setup phase.
    """

    def setup(self) -> None:
        spec, n_jobs, seed = self.spec, self.n_jobs, self.seed
        trace_ss, system_seed = runner.derive_cell_seeds(seed)
        self.eval_streams, self.train_streams = spec.build_site_traces(
            n_jobs, trace_ss
        )
        self.site_seeds, self.fed_seed = scen_federation.derive_site_seeds(
            system_seed, len(spec.sites)
        )
        self.plans = fault_plan.scenario_fault_plans(spec, n_jobs, seed)
        self.events = spec.capacity_events(spec.horizon_for(n_jobs))

    def train(self) -> None:
        spec = self.spec
        n_sites = len(spec.sites)
        self.systems = [
            runner.make_system(
                self.system,
                spec.site_experiment_config(i, seed=self.seed),
                [segment[i] for segment in self.train_streams],
                seed=self.site_seeds[i],
                pretrain=PRETRAIN,
                online_epochs=ONLINE_EPOCHS,
                local_epochs=LOCAL_EPOCHS,
            )
            for i in range(n_sites)
        ]
        self.broker = core_federation.make_federation_broker(
            spec.federation, n_sites, rng=np.random.default_rng(self.fed_seed)
        )
        scen_federation.train_federation_broker(
            spec, self.systems, self.broker, self.train_streams, ONLINE_EPOCHS
        )

    def evaluate(self) -> CellOutcome:
        engine = scen_federation.build_federation_engine(
            self.spec,
            self.systems,
            self.broker,
            record_every=RECORD_EVERY,
            keep_jobs=True,
            faults=self.plans,
        )
        if self.events:
            schedule_capacity_events(engine.sites[0].cluster, self.events)
        result = engine.run(
            [[job.copy() for job in stream] for stream in self.eval_streams]
        )
        site_metrics = [site.metrics for site in result.sites]
        return CellOutcome(
            offered=sum(len(stream) for stream in self.eval_streams),
            completed=result.n_completed,
            failed=sum(m.n_failed for m in site_metrics),
            retries=sum(m.n_retries for m in site_metrics),
            energy_kwh=result.total_energy_kwh,
            acc_latency_s=result.accumulated_latency,
            final_time_s=result.final_time,
            latencies=_tail_latencies(
                job for m in site_metrics for job in m.completed_jobs
            ),
        )


#: Setup and training are pure: rerun from the same inputs they rebuild
#: the same state. With ``repeat_short``, a phase shorter than this is
#: rerun until its runs add up to it (at most ``MAX_REPEATS`` runs) and
#: timed by its fastest run, as ``timeit`` does: slower runs measure
#: interference, which swamps a sub-millisecond phase.
SHORT_PHASE_S = 0.1
MAX_REPEATS = 1000


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _phase_time(fn, repeat: bool) -> float:
    times = [_timed(fn)[1]]
    while repeat and sum(times) < SHORT_PHASE_S and len(times) < MAX_REPEATS:
        times.append(_timed(fn)[1])
    return min(times)


def run_phases(
    spec: ScenarioSpec,
    system: str,
    n_jobs: int,
    seed: int,
    repeat_short: bool = True,
) -> tuple[CellOutcome, PhaseTimes]:
    """Run one (scenario, system, seed) cell, timing each phase.

    The evaluation mutates the trained systems (they keep learning), so
    it runs once; the last setup and training runs feed it.
    """
    cpu0, t0 = time.process_time(), time.perf_counter()
    cell = (_FederatedCell if spec.is_federated else _SingleCell)(
        spec, system, n_jobs, seed
    )
    setup_s = _phase_time(cell.setup, repeat_short)
    train_s = _phase_time(cell.train, repeat_short)
    outcome, eval_s = _timed(cell.evaluate)
    return outcome, PhaseTimes(
        setup_s=setup_s,
        train_s=train_s,
        eval_s=eval_s,
        elapsed_s=time.perf_counter() - t0,
        cpu_s=time.process_time() - cpu0,
    )
