"""Shard-parallel scaling benchmark: a million-op run, checking included.

The shard-parallel engine (:mod:`repro.parallel`) exists to make
million-operation workloads tractable by executing disjoint shard groups in
separate worker processes.  ``benchmarks/e2e`` excludes ``workers=2`` (two
processes on a shared box do not repeat), so this script is where the engine
is measured:

* a **1 000 000-operation** ``kv_openloop`` run over 64 keys at workers
  1 / 2 / 4, with the **per-key linearizability check included in the
  measured time** (the check fans out over the same worker count);
* a small **probe** run at the same shape whose virtual-time identities —
  completed ops, message totals, virtual makespan — must be byte-equal
  across every worker count (asserted in :func:`sweep`; tier-1 holds the
  same contract in ``tests/parallel/test_differential.py``);
* the ``cpus`` field records the machine the committed baseline ran on.
  On two cores the clock-barrier engine wins ~1.5x from ~10^5 operations
  and loses below (spawn, pickling and barrier traffic dominate the probe);
  with one core it can only lose.  The *identities* are machine-independent
  either way — bit-identical output is the engine's contract, scaling is
  the hardware's.

Run modes:

* ``python benchmarks/bench_parallel.py`` — full run; writes the committed
  ``BENCH_parallel.json``.
* ``python benchmarks/bench_parallel.py --quick`` — CI smoke (probe sizes
  only, no baseline write).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Optional

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: The committed baseline's workload shape (num_keys, arrival_rate, seed).
SHAPE = {"num_keys": 64, "arrival_rate": 50.0, "seed": 4}
FULL_OPS = 1_000_000
PROBE_OPS = 20_000
WORKER_COUNTS = (1, 2, 4)


def timed_run(num_ops: int, workers: int) -> dict:
    """One measured cell: run + per-key linearizability check, end to end.

    The check runs on the same worker count as the store run — the engine's
    claim is end-to-end time for *verified* million-op executions, not just
    raw driving.
    """
    spec = kv_openloop(num_ops=num_ops, **SHAPE).with_(workers=workers)
    started = time.perf_counter()
    result = run_kv_workload(spec)
    run_wall = time.perf_counter() - started
    assert result.worker_failure is None, result.worker_failure
    assert result.finished_cleanly, "open-loop run was truncated"

    check_started = time.perf_counter()
    verdict = result.store.check_linearizability(workers=workers)
    check_wall = time.perf_counter() - check_started
    assert verdict.ok, f"checker rejected a healthy run: {verdict.violations()}"

    return {
        "workers": workers,
        "completed": len(result.completed_ops()),
        "failed": len(result.failed_ops()),
        "messages": result.total_messages(),
        "virtual_makespan": round(result.virtual_makespan, 6),
        "operations_checked": verdict.operations_checked,
        "keys_checked": verdict.keys_checked,
        "linearizable": verdict.ok,
        "wall_seconds_run": round(run_wall, 3),
        "wall_seconds_check": round(check_wall, 3),
        "wall_seconds_total": round(run_wall + check_wall, 3),
    }


def sweep(num_ops: int, worker_counts) -> list:
    cells = []
    for workers in worker_counts:
        cell = timed_run(num_ops, workers)
        cells.append(cell)
        print(
            f"  workers={workers}: {cell['wall_seconds_total']}s "
            f"(run {cell['wall_seconds_run']}s + check {cell['wall_seconds_check']}s), "
            f"{cell['completed']} ops, makespan {cell['virtual_makespan']}"
        )
    # The engine's identity contract: every worker count produces the same
    # virtual-time facts.  Assert it here so a committed baseline can never
    # embed a divergence.
    for key in ("completed", "failed", "messages", "virtual_makespan",
                "operations_checked", "keys_checked", "linearizable"):
        values = {cell[key] for cell in cells}
        assert len(values) == 1, f"{key} diverged across worker counts: {values}"
    return cells


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="probe sizes only; no baseline write")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="baseline output path")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    print(f"probe sweep ({PROBE_OPS} ops, cpus={cpus}):")
    probe_counts = (1, 2) if args.quick else WORKER_COUNTS
    probe = sweep(PROBE_OPS, probe_counts)

    if args.quick:
        print("quick mode: identities verified, baseline not written")
        return 0

    print(f"full sweep ({FULL_OPS} ops):")
    full = sweep(FULL_OPS, WORKER_COUNTS)
    base = full[0]["wall_seconds_total"]
    payload = {
        "benchmark": "shard_parallel_scaling",
        "mode": "full",
        "cpus": cpus,
        "workload": dict(SHAPE, num_ops=FULL_OPS, arrival="poisson"),
        "probe": {"num_ops": PROBE_OPS, "runs": probe},
        "runs": full,
        "speedup": {
            str(cell["workers"]): round(base / cell["wall_seconds_total"], 3)
            for cell in full
        },
        "note": (
            "wall-clock columns depend on the machine (cpus field): the engine "
            "pays from ~1e5 ops on two cores and loses at the probe size; the "
            "virtual-time identities are machine-independent and byte-equal "
            "across worker counts"
        ),
        "python": platform.python_version(),
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    report(
        f"shard-parallel scaling ({FULL_OPS} ops, cpus={cpus}) -> {out_path}",
        ["workers", "total s", "run s", "check s", "speedup"],
        [
            [cell["workers"], cell["wall_seconds_total"], cell["wall_seconds_run"],
             cell["wall_seconds_check"], payload["speedup"][str(cell["workers"])]]
            for cell in full
        ],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
