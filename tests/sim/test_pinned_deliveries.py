"""Pinned delivery digests: what the send / pop / deliver path produced, per seeded run.

The network's in-flight representation is an implementation detail; the
executions it yields are not.  Each case below is one seeded run through a
different corner of that path, reduced to a digest — the
``NetworkStats.snapshot()``, the events the simulator executed, the
makespan, a sha256 of every key's history rows and a sha256 of the
``MessageRecord`` log (``None`` where the run keeps no log).  The file
``pinned_delivery_digests.json`` was recorded before in-flight messages
became plain heap tuples, and any drift is a behaviour change.  Its
``data_bits_total`` entries and the two record hashes were recorded again
when a ``WRITE`` to a process that holds its value began to go bare
(``WRITE1(None)``): the executions did not move.

The cases: a continuous delay model (no coalescing index); a fixed delay
with coalescing (fan-out batches); the same with ``record_messages`` on (a
record per logical message, fan-out included); a writer killed by a
send-count trigger mid-broadcast (the send-hook branch); a healing partition
(a link policy aligning instants); replayed delivery choices, alone and
over that partition (slots booked at the times the policy gives); and a
two-worker shard-parallel run (the ``run_before`` / ``step`` path).  A
chooser that never picks changes nothing: the ``uniform`` run under an
empty replay chooser is held to the ``uniform`` digest.

Regenerate (only if the case matrix itself changes, never to paper over a
drift):

    PYTHONPATH=src python -m tests.sim.test_pinned_deliveries
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Callable, Dict, Optional

import pytest

from repro.explore.chooser import DeliveryChooser, RandomChooser, ReplayChooser
from repro.faults import CrashPoint
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import FaultPlan
from repro.sim.delays import FixedDelay, UniformDelay
from repro.store.store import KVStore
from repro.workloads.kv import (
    KVWorkloadResult,
    KVWorkloadSpec,
    deploy,
    drive_script,
    generate_kv_arrivals,
    iter_kv_script,
    run_kv_workload,
)

DIGESTS_PATH = pathlib.Path(__file__).with_name("pinned_delivery_digests.json")


def _spec(**changes: Any) -> KVWorkloadSpec:
    base = KVWorkloadSpec(
        algorithm="two-bit",
        num_keys=6,
        num_shards=2,
        replication=5,
        read_fraction=0.7,
        batch_size=16,
        num_ops=120,
        delay_model=UniformDelay(0.2, 1.0, seed=3),
        seed=7,
    )
    return base.with_(**changes)


def _sha256(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _digest(result: Any, executed: Optional[int], records: Optional[list]) -> Dict[str, Any]:
    histories = result.histories()
    return {
        # Through JSON, as stored: per_sender's int keys become strings.
        "stats": json.loads(json.dumps(result.stats.snapshot(), sort_keys=True)),
        "executed_events": executed,
        "makespan": result.virtual_makespan,
        "histories_sha256": _sha256(
            {str(key): histories[key].to_dict() for key in sorted(histories, key=str)}
        ),
        "records_sha256": None
        if records is None
        else _sha256(
            [
                [r.send_time, r.delivery_time, r.src, r.dst, repr(r.message),
                 r.control_bits, r.data_bits, r.delivered]
                for r in records
            ]
        ),
    }


def _serial(spec: KVWorkloadSpec, prepare: Callable[[KVStore], None] = lambda store: None):
    """A serial run of ``spec`` with ``prepare(store)`` applied before the first event."""
    store = deploy(spec)
    prepare(store)
    arrivals = generate_kv_arrivals(spec) if spec.open_loop else []
    ops, _batches, finished = drive_script(
        store,
        iter_kv_script(spec, arrivals),
        spec.open_loop,
        spec.batch_size,
        arrivals[-1] if arrivals else 0.0,
    )
    result = KVWorkloadResult.from_store(spec, store, ops, 0.0, finished_cleanly=finished)
    records = store.network.records if store.network.record_messages else None
    return _digest(result, store.simulator.executed_events, records)


def _record_messages(store: KVStore) -> None:
    # Subnets copy the flag (and share the log) when deployed, lazily.
    store.network.record_messages = True


def _healing_partition() -> FaultPlan:
    window = PartitionWindow.isolate((3, 4), 5, start=1.0, heal=6.5)
    return FaultPlan(name="pinned-deliveries", link_policies=(PartitionSchedule(windows=(window,)),))


def _choosing(chooser: DeliveryChooser) -> Callable[[KVStore], None]:
    def install(store: KVStore) -> None:
        # Before the first key deploys: every subnet takes its scoped view.
        store.network.chooser = chooser

    return install


def _chooser_replay(plan: Optional[FaultPlan] = None) -> Dict[str, Any]:
    """Recorded delivery choices, over ``plan``'s link policies, and their replay."""
    spec = _spec(delay_model=FixedDelay(1.0), fault_plan=plan)
    recorder = RandomChooser(seed=11)
    recorded = _serial(spec, _choosing(recorder))
    assert recorder.entries, "a uniform pick over the bag must record choices"
    replayed = _serial(spec, _choosing(ReplayChooser(list(recorder.entries))))
    assert replayed == recorded, "replayed choices must reproduce their recording"
    return replayed


CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "uniform": lambda: _serial(_spec()),
    "fixed-coalesce": lambda: _serial(_spec(delay_model=FixedDelay(1.0), coalesce=True)),
    "record-messages": lambda: _serial(
        _spec(delay_model=FixedDelay(1.0), coalesce=True), _record_messages
    ),
    "crash-mid-broadcast": lambda: _serial(
        _spec(
            crash_points=(
                CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=23),
                CrashPoint(shard=1, replica=2, after_messages_sent=9),
            )
        ),
        _record_messages,
    ),
    "healing-partition": lambda: _serial(
        _spec(delay_model=FixedDelay(1.0), fault_plan=_healing_partition())
    ),
    "chooser-replay": _chooser_replay,
    "chooser-under-partition": lambda: _chooser_replay(_healing_partition()),
    "workers-2": lambda: _digest(
        run_kv_workload(_spec(delay_model=FixedDelay(1.0), workers=2)), None, None
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_delivery_digest_is_pinned(name):
    pinned = json.loads(DIGESTS_PATH.read_text())
    assert CASES[name]() == pinned[name]


def test_a_chooser_that_never_picks_is_the_unchosen_run():
    pinned = json.loads(DIGESTS_PATH.read_text())
    assert _serial(_spec(), _choosing(ReplayChooser([]))) == pinned["uniform"]


def regenerate() -> None:
    data = {name: CASES[name]() for name in sorted(CASES)}
    DIGESTS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH} ({len(data)} cases)")


if __name__ == "__main__":
    regenerate()
