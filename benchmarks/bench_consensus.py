"""Consensus benchmark: message complexity and throughput of the MMR objects.

The consensus layer (:mod:`repro.consensus`) turns every CAS/TAS/INCR into a
slot of replicated state machine input ordered by Mostéfaoui–Moumen–Raynal
binary consensus.  A command costs one EST/AUX round and a DECIDE relay, an
idle owner's slot a DECIDE relay alone, so the interesting numbers are the
*slot economy*: how many log positions does a command use (a slot is one
position of one key's log, however many replicas hold its decision), how
many of them carry no command, what does one position cost in logical
messages and rounds, and how does the virtual makespan scale with load.
All gated metrics are **virtual-time deterministic**
(operation counts, message bill, decided slots, rounds entered, verdicts),
so ``benchmarks/check_bench_regression.py`` re-derives them exactly on any
machine; wall-clock numbers are reported but never gated.

The committed baseline's ``full`` row is the acceptance-size run — ``kv_cas``
at 32 keys x 10 000 operations, every key checked with the SMR-spec
Wing–Gong engine — alongside the quick scenarios CI smokes
(``consensus_smoke``, ``kv_counter``).  The ``probe`` row is the smaller
deterministic core the regression guard re-runs on every invocation.

Run modes:

* ``python benchmarks/bench_consensus.py`` — full run; writes the committed
  ``BENCH_consensus.json``.
* ``python benchmarks/bench_consensus.py --quick`` — CI smoke (small sizes,
  no baseline write).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import Optional

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report
from repro.consensus import ConsensusObjectProcess, consensus_invariants
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import consensus_smoke, kv_cas, kv_counter

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_consensus.json"

#: The committed baseline's workloads: (label, scenario, num_keys, num_ops).
FULL_WORKLOADS = (
    ("kv_cas_10k", "kv_cas", 32, 10_000),
    ("consensus_smoke", "consensus_smoke", 6, 150),
    ("kv_counter", "kv_counter", 8, 300),
)
QUICK_WORKLOADS = (
    ("kv_cas_quick", "kv_cas", 8, 400),
    ("consensus_smoke_quick", "consensus_smoke", 4, 80),
)

#: The regression guard's probe: small enough to re-run on every guard
#: invocation, big enough that a message-complexity regression moves it.
PROBE = ("kv_cas", 32, 2000)

SCENARIOS = {
    "kv_cas": kv_cas,
    "consensus_smoke": consensus_smoke,
    "kv_counter": kv_counter,
}


def consensus_run(scenario: str, num_keys: int, num_ops: int) -> dict:
    """Run one consensus scenario; checker-gated, invariant-gated, measured.

    Every returned count is virtual-time deterministic for the scenario's
    baked-in seed; only ``wall_seconds`` varies across machines.
    """
    spec = SCENARIOS[scenario](num_keys=num_keys, num_ops=num_ops)
    start = time.perf_counter()
    result = run_kv_workload(spec)
    wall = time.perf_counter() - start
    if not result.finished_cleanly:
        raise AssertionError(f"{scenario} did not finish cleanly")
    check = result.check_atomicity(raise_on_violation=False)
    by_key = {}
    for key in result.store.deployed_keys:
        by_key[key] = [
            process
            for process in result.store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
    violations = consensus_invariants(by_key)
    if violations:
        raise AssertionError(f"{scenario}: consensus invariants violated: {violations}")
    # A slot is one log position of one key, however many replicas hold its
    # decision (the definition ``benchmarks/e2e/layers.py`` uses); rounds
    # are entered by every replica of a slot, so report their mean.
    slots_decided = skip_slots = rounds_entered = 0
    for processes in by_key.values():
        decided = {}
        for process in processes:
            decided.update(process.decided)
            rounds_entered += process.rounds_entered
        slots_decided += len(decided)
        skip_slots += sum(1 for value in decided.values() if value == 0)
    messages = result.total_messages()
    completed = len(result.completed_ops())
    return {
        "scenario": scenario,
        "num_keys": num_keys,
        "num_ops": num_ops,
        "completed": completed,
        "failed": len(result.failed_ops()),
        "linearizable": check.ok,
        "keys_checked": check.keys_checked,
        "messages": messages,
        "slots_decided": slots_decided,
        "rounds_entered": rounds_entered,
        # The slot economy, the headline numbers for docs/ALGORITHMS.md: log
        # positions spent per command, how many of them carried no command,
        # and what one position costs in messages and (per replica) rounds.
        "slots_per_op": round(slots_decided / completed, 2) if completed else 0.0,
        "skip_slot_frac": round(skip_slots / slots_decided, 3) if slots_decided else 0.0,
        "messages_per_slot": round(messages / slots_decided, 2) if slots_decided else 0.0,
        "rounds_per_slot": (
            round(rounds_entered / spec.replication / slots_decided, 2) if slots_decided else 0.0
        ),
        "virtual_makespan": round(result.virtual_makespan, 3),
        "virtual_throughput": round(result.virtual_throughput(), 3),
        "wall_seconds": round(wall, 3),
    }


def run_suite(workloads) -> dict:
    entries = {}
    rows = []
    for label, scenario, num_keys, num_ops in workloads:
        entry = consensus_run(scenario, num_keys, num_ops)
        entries[label] = entry
        rows.append(
            [
                label,
                entry["completed"],
                entry["messages"],
                entry["slots_decided"],
                entry["slots_per_op"],
                entry["skip_slot_frac"],
                entry["messages_per_slot"],
                entry["rounds_per_slot"],
                entry["virtual_makespan"],
                entry["wall_seconds"],
                "yes" if entry["linearizable"] else "NO",
            ]
        )
    report(
        "Consensus objects: per-slot message complexity (checker-gated)",
        ["workload", "ops", "messages", "slots", "slots/op", "skip frac", "msgs/slot", "rounds/slot",
         "virtual makespan", "wall s", "linearizable"],
        rows,
    )
    return entries


def main(quick: bool = False, out: Optional[pathlib.Path] = None) -> int:
    if quick:
        run_suite(QUICK_WORKLOADS)
        return 0
    workloads = run_suite(FULL_WORKLOADS)
    probe = consensus_run(*PROBE)
    baseline = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": workloads,
        "probe": probe,
    }
    target = out or DEFAULT_OUT
    target.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {target}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: small sizes, no baseline write"
    )
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args()
    sys.exit(main(quick=args.quick, out=args.out))
