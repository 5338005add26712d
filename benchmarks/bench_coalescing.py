"""Message-coalescing benchmark: broadcast-heavy store, coalescing on vs off.

With coalescing on (:class:`repro.sim.network.Network` ``coalesce=True``, the
store's default), logical messages to the same destination arriving at the
same virtual instant share one heap event: the head's ``_Delivery`` fans the
riders out on arrival and the destination's guard fixpoint scan runs once per
event instead of once per message.  Delivery *times*, operation outcomes and
every logical-message count are identical with the flag on or off — this
benchmark proves the claim and measures the wall-clock win.

The workload is the regime coalescing targets: the paper's two-bit algorithm
(O(n²) WRITE dissemination, wide PROCEED fan-in) as the per-key register of a
sharded store, replication 7, fixed delays (the failure-free ``Δ``-bounded
regime, where quorum replies pile onto their destination at the same
instant), hundreds of keyed operations driven as one overlapped batch.  The
measured region is the event-loop drive — deployment and submission are
identical on both sides and excluded.

Run modes:

* ``python benchmarks/bench_coalescing.py`` — full run; asserts the >= 1.2x
  wall-clock speedup and writes the committed ``BENCH_coalescing.json``.
* ``python benchmarks/bench_coalescing.py --quick`` — CI smoke: small run,
  equivalence checks only (event reduction reported, ratio not asserted —
  shared CI runners are too noisy for a hard gate).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import Optional

from repro.analysis.report import format_table
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay
from repro.store.store import KVStore
from repro.workloads.kv import KVWorkloadSpec, generate_kv_operations

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_coalescing.json"

#: The broadcast-heavy store workload (sizes filled in per mode).
BASE_SPEC = dict(
    num_keys=32,
    read_fraction=0.7,
    algorithm="two-bit",
    num_shards=4,
    replication=7,
    seed=13,
)


def run_once(coalesce: bool, num_ops: int) -> dict:
    """Deploy + submit (untimed), then time one drive of the whole batch."""
    spec = KVWorkloadSpec(
        num_ops=num_ops, delay_model=FixedDelay(1.0), coalesce=coalesce, **BASE_SPEC
    )
    store = KVStore(spec.store_config())
    operations = generate_kv_operations(spec)
    for key in spec.keys():
        store.register_for(key)  # pre-deploy every register, outside the clock
    for op in operations:
        if op.kind is OperationKind.WRITE:
            store.submit_put(op.key, op.value)
        else:
            store.submit_get(op.key)
    started = time.perf_counter()
    finished = store.drive()
    wall = time.perf_counter() - started
    assert finished, "drive() left operations outstanding"
    store.check_atomicity()
    return {
        "wall_seconds": wall,
        "events": store.simulator.executed_events,
        "messages": store.total_messages(),
        "messages_coalesced": store.stats.messages_coalesced,
        "virtual_makespan": store.simulator.now,
        "completed": len(store.completed_ops()),
    }


def measure(coalesce: bool, num_ops: int, repeats: int) -> dict:
    """Best-of-N wall time; virtual-time metrics asserted identical across runs."""
    runs = [run_once(coalesce, num_ops) for _ in range(repeats)]
    first = runs[0]
    for run in runs[1:]:
        assert run["events"] == first["events"], "nondeterministic event count"
        assert run["messages"] == first["messages"], "nondeterministic message count"
    best = dict(first)
    best["wall_seconds"] = min(run["wall_seconds"] for run in runs)
    return best


def bench(quick: bool = False, repeats: int = 5) -> dict:
    num_ops = 250 if quick else 1500
    on = measure(True, num_ops, repeats)
    off = measure(False, num_ops, repeats)

    # Coalescing must be invisible to everything but the event count/clock:
    # same logical messages, same completions, same virtual makespan.
    assert on["messages"] == off["messages"], (on["messages"], off["messages"])
    assert on["completed"] == off["completed"] == num_ops
    assert abs(on["virtual_makespan"] - off["virtual_makespan"]) < 1e-9
    assert on["events"] < off["events"], "coalescing scheduled no fewer events"
    assert off["messages_coalesced"] == 0

    speedup = off["wall_seconds"] / on["wall_seconds"]
    event_reduction = 1.0 - on["events"] / off["events"]
    print(format_table(
        ["coalescing", "heap events", "logical msgs", "seconds", "events/sec"],
        [
            ["on", on["events"], on["messages"], round(on["wall_seconds"], 3),
             int(on["events"] / on["wall_seconds"])],
            ["off", off["events"], off["messages"], round(off["wall_seconds"], 3),
             int(off["events"] / off["wall_seconds"])],
            ["speedup", f"-{event_reduction:.0%} events", "identical", "-", f"{speedup:.2f}x"],
        ],
        title=f"Message coalescing — broadcast-heavy store (two-bit, r=7, {num_ops} ops, best of {repeats})",
    ))
    return {
        "benchmark": "store_broadcast_coalescing",
        "mode": "quick" if quick else "full",
        "workload": {**BASE_SPEC, "num_ops": num_ops, "delay": "fixed(1.0)"},
        "coalesced": {
            "events": on["events"],
            "wall_seconds": round(on["wall_seconds"], 4),
            "messages_coalesced": on["messages_coalesced"],
        },
        "uncoalesced": {
            "events": off["events"],
            "wall_seconds": round(off["wall_seconds"], 4),
        },
        "logical_messages": on["messages"],
        "virtual_makespan": round(on["virtual_makespan"], 3),
        "event_reduction": round(event_reduction, 3),
        "wall_speedup": round(speedup, 3),
        "repeats": repeats,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def test_coalescing_equivalence_quick():
    """Smoke: identical logical behaviour, strictly fewer events (ratio not asserted)."""
    payload = bench(quick=True, repeats=2)
    assert payload["event_reduction"] > 0.3


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: small run, no ratio gate"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=f"write the JSON payload here (default: {DEFAULT_OUT} in full mode, nowhere in quick mode)",
    )
    args = parser.parse_args(argv)
    payload = bench(quick=args.quick)
    out = args.out
    if out is None and not args.quick:
        out = DEFAULT_OUT
    if out is not None:
        out.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
        print(f"wrote {out}")
    if not args.quick and payload["wall_speedup"] < 1.2:
        print(f"FAIL: wall speedup {payload['wall_speedup']}x < 1.2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
