"""Tripwire: what one simulated two-bit message costs, in counts, not times.

MR16 buys its two control bits with *more, smaller* messages, so the price of
a message is the throughput of the store.  This test runs a fixed-seed 200-op
two-bit store workload under ``sys.setprofile``, with the cycle collector
off, and asserts exact, repeatable counts of Python-level work — the same on
every box, at every load — so the per-message floor cannot silently creep
back:

* a ``WRITE`` is priced when it is built, not once per hop;
* the event loop is handed no predicate: the drain condition is asked when an
  operation finishes, never after every event;
* a delivery releases waits only when one can hold;
* all told, at most 13.5 Python calls per message sent (18.0 before this
  floor was lowered, 10.6 after, on CPython 3.11; interpreters that inline
  comprehensions count fewer).
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from repro.core.messages import WriteMessage
from repro.core.process import TwoBitRegisterProcess
from repro.exec.driver import Driver
from repro.registers.costmodels import value_bits
from repro.sim.delays import UniformDelay
from repro.sim.scheduler import Simulator
from repro.workloads.kv import KVWorkloadSpec, deploy, drive_script, iter_kv_script

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
    scans = {"depth": 0, "triggered": 0, "waits_queued": 0, "op_waits_fired": 0}
    # Every release enters the two-bit process's check_guards.
    check_guards = TwoBitRegisterProcess.check_guards.__code__
    hold = TwoBitRegisterProcess._hold.__code__
    fire_op = TwoBitRegisterProcess._fire_op.__code__
    run_until = Simulator.run_until.__code__

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            calls[code] += 1
            if code is check_guards:
                # A release entered from inside another is the follow-up to
                # a wait that held at once, not a delivery's.
                scans["triggered"] += scans["depth"] == 0
                scans["depth"] += 1
            elif code is run_until:
                loop_predicates.append(frame.f_locals["predicate"])
            elif code is hold:
                # A line-11 / line-20 wait, queued for its sender.
                scans["waits_queued"] += 1
            elif code is fire_op:
                # An operation wait fired by a release (not at registration).
                scans["op_waits_fired"] += frame.f_back.f_code is check_guards
        elif event == "return" and code is check_guards:
            scans["depth"] -= 1

    # No collection while counting: it would run finalizers of earlier
    # tests' garbage, and count their calls.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        _ops, drives, _finished = drive_script(
            store, iter_kv_script(spec, ()), spec.open_loop, spec.batch_size
        )
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    processes = [p for key in spec.keys() for p in store.register_for(key).processes]
    return store, processes, calls, loop_predicates, scans, drives


def test_the_two_bit_message_floor():
    store, processes, calls, loop_predicates, scans, drives = _profiled_run()
    assert all(op.completed for op in store.ops) and len(store.ops) == OPS
    sent = store.stats.messages_sent
    assert sent == 2776 and store.simulator.executed_events == 2772  # the fixed run

    # (1) Priced when built: one pricing per WriteMessage, however many hops.
    built = calls[WriteMessage.__post_init__.__code__]
    writes_sent = store.stats.by_type["WRITE0"] + store.stats.by_type["WRITE1"]
    assert calls[value_bits.__code__] == built
    assert 0 < built < writes_sent / 4  # each one travels O(n) hops, as the same object

    # (3) Drained by count: no predicate in the loop; the condition is asked
    # on entry, at each finished operation and once after the loop.
    assert loop_predicates == [None] * drives
    assert calls[Driver._idle.__code__] == OPS + 2 * drives

    # (2) Released only when a wait can hold.  Every queued line-11 / line-20
    # wait was fired by a release, except those still queued when the run
    # stopped (every operation completed: no operation wait is pending).
    pending = sum(len(process.waiting_on()) for process in processes)
    fired_by_scans = scans["waits_queued"] - pending + scans["op_waits_fired"]
    triggered_scans = scans["triggered"]
    assert fired_by_scans > OPS
    assert triggered_scans <= 1.1 * fired_by_scans, (triggered_scans, fired_by_scans)

    # (4) The floor itself.
    total = sum(calls.values())
    assert total / sent <= MAX_CALLS_PER_MESSAGE, f"{total / sent:.2f} Python calls per message"
