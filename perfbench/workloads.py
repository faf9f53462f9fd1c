"""The benchmark's workloads: one (scenario, system, job count) cell each.

* ``hier-m30`` — the paper's full framework (DRL global tier plus the
  RL/LSTM local tier) on the paper's 30-server cluster. Learning
  dominates: LSTM fitting and many small Q-network steps, so per-call
  overhead matters more than FLOPs.
* ``fed-faults`` — three 10-server sites under least-loaded dispatch with
  site outages and flaky jobs. No neural network runs: the event loop,
  ledger syncs, federation routing, fault retries and trace synthesis do
  all the work. It is the builtin ``degraded-federation`` with a retry
  budget of ``FED_MAX_RETRIES`` instead of 3, so that no job fails: every
  offered job must complete, and a failed job is a failed operation.
* ``drl-m300`` — the DRL global tier alone on 300 servers at ten times
  the paper's load. The same Q-network as ``hier-m30``, but each step
  is FLOP-bound, ledger syncs are O(300) and replay rows are wide.

Cells are small so that one run holds many of them: under the DRL
systems the trained policy, and with it energy, latency and host time,
changes a lot from one cell seed to the next, and only a median over
many cells repeats from run to run. ``fed-faults`` runs fewer, longer
cells because its energy per job needs a longer trace to settle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.scenarios import registry
from repro.scenarios.specs import (
    FleetSpec,
    ScenarioSpec,
    ServerClassSpec,
    WorkloadSpec,
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ScenarioSpec
    system: str
    n_jobs: int
    #: Cells every run evaluates; the simulated metrics are their median.
    sim_cells: int


DRL_M300 = ScenarioSpec(
    name="drl-m300",
    description="300 standard servers in 4 groups at ten times the paper's load",
    workload=WorkloadSpec(rate_scale=10.0),
    fleet=FleetSpec(classes=(ServerClassSpec("standard", 300),), num_groups=4),
)


#: Retry budget of ``fed-faults``. With the builtin budget of 3, about
#: one job in two million used up its retries (each attempt fails with
#: probability 0.02, and outages kill running jobs), so one run in a few
#: dozen failed a job. Three more retries make that 0.02^3 = 8e-6 times
#: as likely.
FED_MAX_RETRIES = 6

_DEGRADED = registry.get("degraded-federation")
FED_FAULTS = replace(
    _DEGRADED,
    name="fed-faults",
    faults=replace(_DEGRADED.faults, max_retries=FED_MAX_RETRIES),
)


def workloads() -> dict[str, Workload]:
    """The benchmark workloads by name."""
    return {
        w.name: w
        for w in (
            Workload(
                "hier-m30",
                registry.get("paper-default"),
                "hierarchical",
                500,
                sim_cells=12,
            ),
            Workload(
                "fed-faults",
                FED_FAULTS,
                "least-loaded",
                10000,
                sim_cells=8,
            ),
            Workload("drl-m300", DRL_M300, "drl-only", 500, sim_cells=12),
        )
    }
