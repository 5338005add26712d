"""Tripwire: what one store operation costs around its messages, in counts.

On the read-heavy two-bit store a read is one ``READ`` broadcast plus its
``PROCEED`` replies, so the fixed work around each operation — the store's
routing, the driver, the op log — weighs as much as its messages.  This test
drives ``test_message_floor.py``'s fixed-seed 200-op run under
``sys.setprofile`` (script materialised and keys deployed first: that is
set-up) and asserts exact, repeatable counts:

* one :class:`~repro.registers.base.OperationRecord` is built per operation
  — the driver's, which the process fills — and nothing else per operation;
* no :class:`~repro.exec.target.OpRequest` is built while the script is
  driven: the store routes the requests it interned when the key deployed;
* all told, at most 112 Python calls per operation, messages included
  (130.3 before the driver's operation and the process's record became one
  object, 122.3 after; 119.5 while the line-11 / line-20 waits were
  closure-built guards, 109.4 once they were queued thresholds; on CPython
  3.11, and interpreters that inline comprehensions count fewer).

The ABD run is the open-loop store (Poisson arrivals, three replicas, 90%
reads) at a fixed seed.  There an operation is two quorum phases (one for a
write) and their replies, so the count holds the phase engine to its lean
path: at most 115 Python calls per operation (138.8 while a reply went
``phase_reply -> active_phase -> QuorumCollector.accept ->
ReplyAggregator.accept -> fire_if_due``, 114.1 once ``phase_reply`` did it
in one frame, on CPython 3.11).

The MMR run is the consensus store (``kv_cas``: CAS objects, three replicas
per key) at a fixed seed.  There an operation is a slot of binary consensus,
so the count holds a replica's step to its lean path: at most 184 Python
calls per operation (227.2 while a delivery went ``_on_est -> _bv_step ->
_resolve -> _decide -> _apply_ready`` through ``_Instance.at``, comprehensions
and ``ProcessBase.send``, and built an AUX that the ``DECIDE`` then stood
for; 183.2 once a step built only what it sent, on CPython 3.11).  Every
``ConsAux`` or ``ConsCoin`` built is broadcast: one per ``n - 1`` billed.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.consensus.mmr import ConsAux, ConsCoin
from repro.exec.target import OpRequest
from repro.registers.base import OperationRecord
from repro.sim.delays import UniformDelay
from repro.workloads.kv import (
    KVWorkloadSpec, deploy, drive_script, generate_kv_arrivals, iter_kv_script,
)
from repro.workloads.scenarios import kv_cas, kv_openloop

OPS = 200
MAX_CALLS_PER_OP = 112
MAX_ABD_CALLS_PER_OP = 115
MAX_MMR_CALLS_PER_OP = 184

TWO_BIT_SPEC = KVWorkloadSpec(
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
ABD_SPEC = kv_openloop(num_ops=OPS, arrival_rate=16.0, seed=3)
MMR_SPEC = kv_cas(num_ops=OPS, seed=3)


def _profiled_run(spec=TWO_BIT_SPEC):
    store = deploy(spec)
    for key in spec.keys():
        store.register_for(key)
    arrivals = generate_kv_arrivals(spec) if spec.open_loop else ()
    script = list(iter_kv_script(spec, arrivals))
    last_arrival = script[-1][0] if spec.open_loop else 0.0

    calls = Counter()  # code object -> Python-level calls

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        ops, _drives, finished = drive_script(
            store, script, spec.open_loop, spec.batch_size, last_arrival
        )
    finally:
        sys.setprofile(None)
    return store, ops, finished, calls


def test_the_store_op_floor():
    store, ops, finished, calls = _profiled_run()
    assert finished and len(ops) == OPS and all(op.completed for op in ops)
    assert store.stats.messages_sent == 2776  # the message floor's fixed run

    # One record per operation: the driver's op is what the process filled,
    # and what the driver logged.
    assert calls[OperationRecord.__init__.__code__] == OPS
    assert ops == store.driver.ops
    assert sorted(store.driver.records, key=lambda op: op.op_id) == ops

    # The script's requests route as they are: none is rebuilt per call.
    assert calls[OpRequest.__init__.__code__] == 0

    total = sum(calls.values())
    assert total / OPS <= MAX_CALLS_PER_OP, f"{total / OPS:.2f} Python calls per operation"


def test_the_abd_op_floor():
    store, ops, finished, calls = _profiled_run(ABD_SPEC)
    assert finished and len(ops) == OPS and all(op.completed for op in ops)
    assert store.stats.messages_sent == 1544
    assert calls[OperationRecord.__init__.__code__] == OPS
    assert calls[OpRequest.__init__.__code__] == 0

    total = sum(calls.values())
    assert total / OPS <= MAX_ABD_CALLS_PER_OP, f"{total / OPS:.2f} Python calls per operation"


def test_the_mmr_op_floor(monkeypatch):
    # Counted by wrapping each class: the dataclass-made ``__init__`` code
    # objects of ConsEst and ConsAux compare equal, so ``calls`` merges them.
    built = Counter()
    for cls in (ConsAux, ConsCoin):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    store, ops, finished, calls = _profiled_run(MMR_SPEC)
    assert finished and len(ops) == OPS and all(op.completed for op in ops)
    assert store.stats.messages_sent == 2812

    # A step builds only what it sends: each one built went to the n - 1 peers.
    by_type, peers = store.stats.by_type, MMR_SPEC.replication - 1
    assert built["ConsAux"] * peers == by_type["CONS_AUX"] > 0
    assert built["ConsCoin"] * peers == by_type.get("CONS_COIN", 0)

    total = sum(calls.values()) - sum(built.values())  # less the counting wrappers
    assert total / OPS <= MAX_MMR_CALLS_PER_OP, f"{total / OPS:.2f} Python calls per operation"
