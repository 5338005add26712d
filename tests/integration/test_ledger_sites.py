"""Tripwire for the external ledger (``benchmarks/e2e/trace.py``).

The benchmark records spans by patching the functions named in ``SITES``
from outside, and *skips* a name it cannot find — so renaming or removing one
of them would quietly move that layer's time into its caller instead of
failing anything.  This test fails instead.
"""

import importlib

import pytest

from benchmarks.e2e.trace import INVOKE_METHODS, SITES


@pytest.mark.parametrize(
    "module_name, class_name, attribute",
    [site[:3] for site in SITES],
    ids=[".".join(part for part in site[:3] if part) for site in SITES],
)
def test_every_span_site_still_resolves(module_name, class_name, attribute):
    assert module_name.startswith("repro."), "span sites live under src/repro"
    module = importlib.import_module(module_name)
    owner = module if class_name is None else getattr(module, class_name, None)
    assert owner is not None, f"{module_name}.{class_name} is gone"
    # The ledger looks the name up in the owner's own namespace (an inherited
    # method would be patched on the wrong class), and only wraps callables.
    assert attribute in vars(owner), f"{owner!r} no longer defines {attribute!r}"
    assert callable(vars(owner)[attribute])


def test_algorithm_entry_points_still_resolve():
    """The sites found by class rather than by name: ``on_message`` per
    algorithm, ``invoke_*`` on the shared base, guard actions via ``add_guard``."""
    from repro.core.process import TwoBitRegisterProcess
    from repro.registers.base import RegisterProcess
    from repro.transport.runtime import ProcessBase

    assert "on_message" in vars(TwoBitRegisterProcess)
    for attribute in INVOKE_METHODS:
        assert callable(vars(RegisterProcess).get(attribute))
    assert callable(vars(ProcessBase).get("add_guard"))


@pytest.mark.parametrize("delay", ["uniform", "fixed"])
def test_delivery_sites_fire_once_per_delivery(delay, monkeypatch):
    """A site must be exercised, not just resolve: in a traced run
    ``_Delivery.__call__`` opens one span per heap delivery and
    ``ProcessBase.deliver`` one per message it delivers — everything but a
    coalesced fan-out, which hands its batch to ``on_message`` directly — and
    each registered process gets exactly one ``_Delivery``, built when it
    registers."""
    from benchmarks.e2e.trace import SpanRecorder, table_from, tracing
    from repro.faults import CrashPoint
    from repro.sim.delays import FixedDelay, UniformDelay
    from repro.sim.network import _Delivery
    from repro.workloads.kv import KVWorkloadSpec, run_kv_workload

    built = []
    original_init = _Delivery.__init__

    def counting_init(self, network, process):
        built.append(process)
        original_init(self, network, process)

    monkeypatch.setattr(_Delivery, "__init__", counting_init)
    spec = KVWorkloadSpec(
        algorithm="two-bit",
        num_keys=4,
        num_shards=2,
        replication=5,
        num_ops=60,
        batch_size=8,
        delay_model=UniformDelay(0.2, 1.0, seed=5) if delay == "uniform" else FixedDelay(1.0),
        crash_points=(CrashPoint(shard=1, replica=3, at_time=2.0),),
        seed=2,
    )
    recorder = SpanRecorder(capacity=1 << 14)
    with tracing(recorder):
        result = run_kv_workload(spec)
        result.store.simulator.drain()  # deliver what the last completion left in flight
    calls = {name: count for name, (count, _seconds) in table_from(recorder, {}).site_totals().items()}
    stats = result.store.stats
    assert stats.messages_dropped_to_crashed > 0  # a drop fires the endpoint, not deliver
    assert calls["_Delivery.__call__"] == stats.snapshot()["delivery_events"]
    if delay == "uniform":  # draws never collide: no fan-out
        assert stats.messages_coalesced == 0
        assert calls["ProcessBase.deliver"] == stats.messages_delivered
    else:
        assert stats.messages_coalesced > 0
        assert 0 < calls["ProcessBase.deliver"] < stats.messages_delivered
    registered = [
        process
        for key in result.store._registers
        for process in result.store.register_for(key).processes
    ]
    assert len(registered) == len(built) == len(set(map(id, built)))
    assert {id(process) for process in registered} == set(map(id, built))
