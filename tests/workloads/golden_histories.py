"""Golden closed-loop histories: the driver-equivalence reference data.

The unified execution engine (:mod:`repro.exec`) replaced the runner's
hand-rolled closed-loop chaining.  The refactor's contract is that for the
same :class:`~repro.workloads.spec.WorkloadSpec` the histories are
*byte-identical* to the pre-refactor driver.  This module defines the spec
matrix and the record serialisation; ``golden_histories.json`` (committed
next to it) was generated by the pre-refactor driver and the equivalence
test replays the same specs through the current driver and compares
record-by-record.

Regenerate (only if the spec matrix itself changes, never to paper over a
history drift):

    PYTHONPATH=src python tests/workloads/golden_histories.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.sim.delays import UniformDelay
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_histories.json")

SEEDS = (0, 1, 2)
ALGORITHMS = ("two-bit", "abd")


def golden_specs() -> dict[str, WorkloadSpec]:
    """The spec matrix the equivalence test replays (name -> spec)."""
    specs: dict[str, WorkloadSpec] = {}
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            specs[f"{algorithm}-contended-s{seed}"] = WorkloadSpec(
                n=5,
                algorithm=algorithm,
                num_writes=10,
                reads_per_reader=10,
                delay_model=UniformDelay(0.2, 1.0, seed=seed),
                seed=seed,
            )
            specs[f"{algorithm}-thinktime-s{seed}"] = WorkloadSpec(
                n=5,
                algorithm=algorithm,
                num_writes=8,
                reads_per_reader=6,
                read_think_time=0.5,
                write_think_time=1.5,
                writer_start_delay=0.25,
                reader_start_delay=1.0,
                delay_model=UniformDelay(0.1, 1.2, seed=seed + 10),
                seed=seed,
            )
    return specs


def serialize_run(spec: WorkloadSpec) -> dict[str, Any]:
    """Run ``spec`` and serialise everything the equivalence test compares."""
    result = run_workload(spec)
    return {
        "records": [
            [
                record.pid,
                record.kind.value,
                record.value,
                record.result,
                record.invoked_at,
                record.responded_at,
                record.completed,
            ]
            for record in result.store.driver.records
        ],
        "total_messages": result.total_messages(),
        "final_time": result.store.simulator.now,
        "executed_events": result.store.simulator.executed_events,
    }


def regenerate() -> None:
    data = {name: serialize_run(spec) for name, spec in golden_specs().items()}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(data)} cases)")


if __name__ == "__main__":
    regenerate()
