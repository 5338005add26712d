"""Ablation A4 — design choices called out in the paper's text.

Two knobs the paper mentions but does not evaluate:

* **Writer local read** (comment on line 5 of Figure 1): "the writer can
  directly return history_i[w_sync_i[i]]".  The ablation measures what the
  shortcut saves: a writer read costs 0 messages / 0 delta instead of
  2(n-1) messages / up to 4 delta.
* **Resilience vs. quorum size**: the algorithm is parameterised by ``t``;
  using a smaller ``t`` than the maximum (n-1)//2 enlarges the quorums
  (n - t) without changing the failure-free message counts or the 2 delta /
  4 delta time bounds — but it reduces how many crashes the register
  survives.  The ablation sweeps ``t`` and confirms both halves.

Each knob is a process variant (:mod:`benchmarks.variants`), registered by
name for this module and deployed with ``create_register`` like any
algorithm.
"""

from __future__ import annotations

import pytest

from repro.api import create_register
from repro.sim.delays import FixedDelay

from benchmarks.conftest import report
from benchmarks.variants import WRITER_FAST_READ, registered, two_bit_variant

FAST_READ = WRITER_FAST_READ.name
T_OVERRIDES = {t: two_bit_variant(f"two-bit-t{t}", t=t) for t in range(5)}


def _with_t(t: int) -> str:
    return T_OVERRIDES[t].name


@pytest.fixture(scope="module", autouse=True)
def _variants_registered():
    with registered(WRITER_FAST_READ, *T_OVERRIDES.values()):
        yield


def test_writer_fast_read_saves_a_round_trip(benchmark):
    n = 5
    rows = []
    results = {}
    for fast in (False, True):
        cluster = create_register(
            n=n,
            algorithm=FAST_READ if fast else "two-bit",
            initial_value="v0",
            delay_model=FixedDelay(1.0),
        )
        cluster.writer.write("v1")
        cluster.settle()
        before = cluster.network.stats.messages_sent
        start = cluster.simulator.now
        record = cluster.writer.read(run=False)
        cluster.simulator.run_until(lambda: record.completed)
        cluster.settle()
        messages = cluster.network.stats.messages_sent - before
        latency = (record.responded_at or start) - start
        results[fast] = (messages, latency)
        rows.append(["fast local read" if fast else "general read path", messages, latency])
    assert results[True] == (0, 0.0)
    assert results[False][0] == 2 * (n - 1)
    report(
        "Ablation A4 — writer read: general path vs local shortcut (n=5)",
        ["variant", "messages", "latency (delta)"],
        rows,
    )

    def kernel():
        cluster = create_register(
            n=n, algorithm=FAST_READ, initial_value="v0", delay_model=FixedDelay(1.0)
        )
        cluster.writer.write("v1")
        return cluster.writer.read()

    benchmark(kernel)


@pytest.mark.parametrize("n", [5, 9])
def test_quorum_size_does_not_change_failure_free_costs(benchmark, n):
    """Smaller t (bigger quorums) keeps message counts and latency identical in
    failure-free runs; it only changes how many crashes the register survives."""
    rows = []
    baseline = None
    for t in range((n - 1) // 2, -1, -1):
        cluster = create_register(
            n=n, algorithm=_with_t(t), initial_value="v0", delay_model=FixedDelay(1.0)
        )
        record = cluster.writer.write("v1")
        cluster.settle()
        write_messages = cluster.network.stats.messages_sent
        value = cluster.reader(1).read()
        assert value == "v1"
        if baseline is None:
            baseline = (write_messages, record.latency)
        assert (write_messages, record.latency) == baseline
        rows.append([t, n - t, write_messages, record.latency])
    report(
        f"Ablation A4 — quorum size sweep (n={n}, failure-free)",
        ["t", "quorum size n-t", "msgs for first write", "write latency (delta)"],
        rows,
    )
    def kernel():
        cluster = create_register(n=n, algorithm=_with_t(0), delay_model=FixedDelay(1.0))
        return cluster.writer.write("v1")

    benchmark(kernel)


def test_smaller_t_means_less_crash_tolerance(benchmark):
    """With t=0 (quorum = all processes) a single crash blocks the writer; with
    the default t=(n-1)//2 the same crash is harmless — the liveness half of
    the t < n/2 trade-off."""
    n = 5

    def run(t: int) -> bool:
        cluster = create_register(
            n=n, algorithm=_with_t(t), initial_value="v0", delay_model=FixedDelay(1.0)
        )
        cluster.crash(4)
        record = cluster.processes[0].invoke_write("v1", lambda _record: None)
        finished = cluster.simulator.run_until(lambda: record.completed, limit=100.0)
        return finished

    assert run(t=(n - 1) // 2) is True
    assert run(t=0) is False
    report(
        "Ablation A4 — one crash, different t (n=5)",
        ["t", "quorum size", "write terminates after 1 crash"],
        [[2, 3, "yes"], [0, 5, "no (blocked, as the model predicts)"]],
    )
    benchmark(lambda: run(t=2))
