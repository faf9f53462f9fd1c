"""Outside-in layer tracing: wrap each layer's public entry points.

The program is not changed. For the duration of a ``LayerTracer``
context, every call listed in ``TARGETS`` is replaced on its class or
module by a wrapper that records a span (name, parent span, start, end)
and accumulates calls, total time and the time of wrapped children, so a
call's *self time* is its span minus its wrapped children.

Spans are kept in memory (up to ``SPAN_LIMIT``; beyond that only the
aggregates grow) and written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from pathlib import Path

#: (layer, module, owner class or None for a module function, callable).
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("workload", "repro.scenarios.specs", "ScenarioSpec", "build_traces"),
    ("workload", "repro.scenarios.specs", "ScenarioSpec", "build_site_traces"),
    ("sim.events", "repro.sim.events", "EventQueue", "schedule"),
    ("sim.events", "repro.sim.events", "EventQueue", "pop"),
    ("sim.ledger", "repro.sim.ledger", "ClusterLedger", "sync"),
    ("sim.server", "repro.sim.server", "Server", "assign"),
    ("sim.server", "repro.sim.server", "Server", "account"),
    ("sim.federation", "repro.sim.federation", "FederationEngine", "run"),
    ("core.baselines", "repro.core.baselines", "LeastLoadedBroker", "select_server"),
    (
        "core.federation",
        "repro.core.federation",
        "LeastLoadedSiteBroker",
        "select_site",
    ),
    ("faults", "repro.faults.plan", None, "scenario_fault_plans"),
    ("faults", "repro.faults.inject", "SiteFaultState", "start_job"),
    ("core.state", "repro.core.state", "StateEncoder", "encode"),
    ("core.global_tier", "repro.core.global_tier", "DRLGlobalBroker", "select_server"),
    (
        "core.global_tier",
        "repro.core.global_tier",
        "DRLGlobalBroker",
        "train_minibatch",
    ),
    ("core.global_tier", "repro.core.global_tier", None, "offline_pretrain"),
    ("core.qnetwork", "repro.core.qnetwork", "HierarchicalQNetwork", "predict"),
    ("core.qnetwork", "repro.core.qnetwork", "HierarchicalQNetwork", "q_values"),
    ("core.qnetwork", "repro.core.qnetwork", "HierarchicalQNetwork", "train_step"),
    (
        "core.qnetwork",
        "repro.core.qnetwork",
        "HierarchicalQNetwork",
        "pretrain_autoencoder",
    ),
    ("rl.replay", "repro.rl.replay", "ReplayMemory", "push"),
    ("rl.replay", "repro.rl.replay", "ReplayMemory", "sample_arrays"),
    ("core.predictor", "repro.core.predictor", "WorkloadPredictor", "fit"),
    ("core.predictor", "repro.core.predictor", "WorkloadPredictor", "predict"),
    ("core.local_tier", "repro.core.local_tier", "RLPowerPolicy", "on_idle"),
    ("core.local_tier", "repro.core.local_tier", "RLPowerPolicy", "on_active"),
    ("harness.runner", "repro.harness.runner", None, "train_global_prototype"),
    ("harness.runner", "repro.harness.runner", None, "build_pretrained_predictor"),
)

_ABSENT = object()

#: Spans kept in memory per tracer; later calls only grow the aggregates.
SPAN_LIMIT = 200_000

#: Modules that bind a wrapped module function by name at import time
#: and call it through their own globals.
REBOUND = {"offline_pretrain": ("repro.harness.runner",)}


def span_names() -> list[str]:
    """``<layer>.<callable>`` for every target, in ``TARGETS`` order."""
    return [f"{layer}.{attr}" for layer, _, _, attr in TARGETS]


class LayerTracer:
    """Context manager that wraps ``TARGETS`` and aggregates their spans."""

    def __init__(self) -> None:
        self.names = span_names()
        # Per name: [calls, total seconds, seconds spent in wrapped children].
        self.acc = [[0, 0.0, 0.0] for _ in self.names]
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.spans_dropped = 0
        #: Bytes one replay row occupies, per allocated ReplayMemory.
        self.replay_row_bytes: list[int] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        acc = self.acc[index]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                acc[0] += 1
                acc[1] += dt
                acc[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, parent, index, t0, t1))
                else:
                    self.spans_dropped += 1

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        for index, (_, module_name, owner_name, attr) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if owner_name is None:
                traced = self._wrap(index, getattr(module, attr))
                self._patch(module, attr, traced)
                for other in REBOUND.get(attr, ()):
                    self._patch(importlib.import_module(other), attr, traced)
            else:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(index, getattr(owner, attr)))
        from repro.rl.replay import ReplayMemory

        allocate = ReplayMemory._allocate

        def observed_allocate(memory, state):
            allocate(memory, state)
            columns = (
                memory._states,
                memory._next_states,
                memory._actions,
                memory._rewards,
                memory._taus,
            )
            self.replay_row_bytes.append(
                sum(c.itemsize * (c.size // c.shape[0]) for c in columns)
            )

        self._patch(ReplayMemory, "_allocate", observed_allocate)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def self_seconds(self) -> list[float]:
        return [total - child for _, total, child in self.acc]

    def calls(self, name: str) -> int:
        return self.acc[self.names.index(name)][0]

    def write_spans(self, path: Path, meta: dict) -> None:
        """Write the retained spans as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "names": self.names,
            "columns": ["span", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
