"""Cell benchmark for the scenario-cell path (setup, training, evaluation).

Usage, from the repository root::

    python3 perfbench/run.py --workload hier-m30 --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``hier-m30``, ``fed-faults``,
``drl-m300``. One process runs one workload: it evaluates cells, each on
a cell seed derived from ``--seed``, for about ``--seconds`` (see
``measure.py``), and checks them: completed + failed = offered in every
cell, and a traced cell reproduces its untraced outputs bit for bit.

``--trace 0`` reports the end-to-end metrics, each a median over the
run's cells: host times scaled to a reference machine speed
(``setup_s``, ``train_s``, ``eval_jobs_per_s``, ``wall_s``), the process's
peak RSS (``peak_rss_mb``) and simulated results (``energy_wh_per_job``,
``goodput``). It also prints ``mean_latency_s`` and ``p95_latency_s``,
which are not in the result line. ``--trace 1`` instead runs each cell
untraced and then with the layers' public calls wrapped
(``layertrace.py``), reports calls and self time per wrapped call plus
layer ratios, the tracing overhead and the share of time the wrapped
calls cover, and writes the spans to ``.perfbench-out/``.

BLAS and OpenMP pools are pinned to one thread. The last line of stdout
is the result as one JSON object; the line before it holds the
environment fingerprint and per-cell accounting. The exit code is 0 when
the correctness gate passes, 1 when it fails and 2 when the ``repro``
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads these when it loads, which happens below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import measure
    from workloads import workloads

    table = workloads()
    if args.workload not in table:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(table)}",
            file=sys.stderr,
        )
        return 2
    env = measure.fingerprint(args.seed, ROOT)
    result = measure.measure(
        table[args.workload],
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        spans_dir=SPANS_DIR,
    )
    for name, value in result.metrics.items():
        print(f"{name:<58} {value:>16.6g} {result.units[name]}")
    for name, value in result.reported.items():
        print(f"{name:<58} {value:>16.6g} {result.units[name]} (reported, not gated)")
    for problem in result.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "env": env,
                "reported": result.reported,
                "raw": result.raw,
                "cpu_over_wall": result.cpu_over_wall(),
                "cells": [cell.summary() for cell in result.cells],
                "problems": result.problems,
            }
        )
    )
    print(json.dumps(result.contract_line()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
