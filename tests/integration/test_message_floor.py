"""Tripwire: what one simulated two-bit message costs, in counts, not times.

MR16 buys its two control bits with *more, smaller* messages, so the price of
a message is the throughput of the store.  This test runs a fixed-seed 200-op
two-bit store workload under ``sys.setprofile`` and asserts exact, repeatable
counts of Python-level work — the same on every box, at every load — so the
per-message floor cannot silently creep back:

* a ``WRITE`` is priced when it is built, not once per hop;
* the event loop is handed no predicate: the drain condition is asked when an
  operation finishes, never after every event;
* a delivery scans the guards only when a wait can hold;
* all told, at most 13.5 Python calls per message sent (18.0 before this
  floor was lowered, 10.6 after, on CPython 3.11; interpreters that inline
  comprehensions count fewer).
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

from repro.core.messages import WriteMessage, _value_data_bits
from repro.exec.driver import Driver
from repro.sim.delays import UniformDelay
from repro.sim.scheduler import Simulator
from repro.transport.runtime import Guard, ProcessBase
from repro.workloads.kv import KVWorkloadSpec, deploy, iter_kv_operations, submit_scripted

OPS = 200
MAX_CALLS_PER_MESSAGE = 13.5


def _profiled_run():
    spec = KVWorkloadSpec(
        algorithm="two-bit",
        num_keys=8,
        num_shards=2,
        replication=5,
        read_fraction=0.5,
        batch_size=32,
        num_ops=OPS,
        delay_model=UniformDelay(0.2, 1.0, seed=3),
        seed=3,
    )
    store = deploy(spec)
    for key in spec.keys():  # deployment is set-up, not message cost
        store.register_for(key)

    calls = Counter()  # code object -> Python-level calls
    loop_predicates = []  # what each run_until was handed
    scans = {"depth": 0, "triggered": 0}
    check_guards = ProcessBase.check_guards.__code__
    run_until = Simulator.run_until.__code__

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            calls[code] += 1
            if code is check_guards:
                # A scan entered from inside another is add_guard's follow-up
                # to a wait that held at once, not a delivery's.
                scans["triggered"] += scans["depth"] == 0
                scans["depth"] += 1
            elif code is run_until:
                loop_predicates.append(frame.f_locals["predicate"])
        elif event == "return" and code is check_guards:
            scans["depth"] -= 1

    drives = 0
    sys.setprofile(profile)
    try:
        stream = iter_kv_operations(spec)
        while True:
            batch = list(itertools.islice(stream, spec.batch_size))
            if not batch:
                break
            for scripted in batch:
                submit_scripted(store, scripted)
            store.drive()
            drives += 1
    finally:
        sys.setprofile(None)
    processes = [p for key in spec.keys() for p in store.register_for(key).processes]
    return store, processes, calls, loop_predicates, scans["triggered"], drives


def test_the_two_bit_message_floor():
    store, processes, calls, loop_predicates, triggered_scans, drives = _profiled_run()
    assert all(op.completed for op in store.ops) and len(store.ops) == OPS
    sent = store.stats.messages_sent
    assert sent == 2776 and store.simulator.executed_events == 2772  # the fixed run

    # (1) Priced when built: one pricing per WriteMessage, however many hops.
    built = calls[WriteMessage.__post_init__.__code__]
    writes_sent = store.stats.by_type["WRITE0"] + store.stats.by_type["WRITE1"]
    assert calls[_value_data_bits.__code__] == built
    assert 0 < built < writes_sent / 4  # each one travels O(n) hops, as the same object

    # (3) Drained by count: no predicate in the loop; the condition is asked
    # on entry, at each finished operation and once after the loop.
    assert loop_predicates == [None] * drives
    assert calls[Driver._idle.__code__] == OPS + 2 * drives

    # (2) Scanned only when a wait can hold.  Every guard that was built was
    # fired by a scan, except those still pending when the run stopped.
    pending = sum(len(process.pending_guards()) for process in processes)
    fired_by_scans = calls[Guard.__init__.__code__] - pending
    assert fired_by_scans > OPS
    assert triggered_scans <= 1.1 * fired_by_scans, (triggered_scans, fired_by_scans)

    # (4) The floor itself.
    total = sum(calls.values())
    assert total / sent <= MAX_CALLS_PER_MESSAGE, f"{total / sent:.2f} Python calls per message"
