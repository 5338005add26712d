"""Golden consensus runs: committed reference histories for the MMR objects.

``golden_consensus.json`` pins the byte-exact output of the consensus
scenarios (``kv_cas``, ``consensus_smoke``) the same way
``golden_parallel.json`` pins the register scenarios: per-key histories
(operation kinds, values, recorded results, timestamps), message totals,
makespans and clean-finish flags.  The committed data was generated from
**serial** (``workers=1``) runs, so the one file asserts both that serial
consensus output never drifts and that ``--workers 2`` merged output stays
byte-identical to it.  The register goldens are untouched by design — a
consensus-layer change must never move them.

Regenerate (only if the spec matrix itself changes, never to paper over a
history drift):

    PYTHONPATH=src python tests/parallel/golden_consensus.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.workloads.kv import KVWorkloadSpec, run_kv_workload
from repro.workloads.scenarios import consensus_smoke, kv_cas

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_consensus.json")


def golden_cases() -> dict[str, tuple[KVWorkloadSpec, int]]:
    """The spec matrix (name -> (spec, worker count for the parallel replay))."""
    return {
        "kv-cas-w2": (kv_cas(num_keys=8, num_ops=160, num_shards=4), 2),
        "consensus-smoke-w2": (consensus_smoke(), 2),
    }


def serialize_result(result) -> dict[str, Any]:
    """Everything the equivalence test compares, in a JSON-stable shape."""
    histories = result.histories()
    return {
        "histories": {str(key): histories[key].to_dict() for key in sorted(histories, key=str)},
        "virtual_makespan": result.virtual_makespan,
        "messages": result.total_messages(),
        "completed": len(result.completed_ops()),
        "failed": len(result.failed_ops()),
        "finished_cleanly": result.finished_cleanly,
    }


def regenerate() -> None:
    golden = {
        name: serialize_result(run_kv_workload(spec))
        for name, (spec, _workers) in sorted(golden_cases().items())
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
