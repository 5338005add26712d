"""Who holds a written value, as a test.

A ``WRITE(b, v)`` goes bare — ``WRITE(b, None)``, the same type and control
bits, no data — only to a process that holds ``v`` already: the writer
(which set ``history_w[sn]`` at line 1, before any ``WRITE`` of ``sn``
existed), and the process whose ``WRITE`` a line-15 forward acknowledges
(which set ``history[sn]`` before it sent it).  Histories only grow, and
line 13 is false at a holder, so the holder never reads the missing value.

The audit checks the receiving end: whenever a bare ``WRITE`` from ``p_j``
is processed by ``p_i`` (line 11 holds, so its sequence number is the one
rebuilt for the pair, ``w_sync_i[j] + 1``), ``p_i``'s history already holds
that value.  Seeded registers at n = 3, 5 and 7, under uniform, reordering
(heavy-tailed exponential) and fixed, coalesced delays, each healthy, with
the writer killed inside its first broadcast by a send-count crash point,
and under a healing partition; the invariant monitor (Lemmas 2-4, P2)
watches every event.  The explorer's ``two-bit-bare-forward`` mutant, whose
forwards go bare to everyone, must fail the audit.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core.messages import WriteMessage
from repro.explore.mutations import mutant_registered
from repro.faults import CrashPoint, FaultPlan, PartitionSchedule, PartitionWindow
from repro.registers.base import OperationKind
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.workloads import REGISTER_KEY, WorkloadSpec, deploy_register

DELAYS = {
    "uniform": lambda seed: UniformDelay(0.2, 1.6, seed=seed),
    "reordering": lambda seed: ExponentialDelay(base=0.05, mean=1.5, cap=12.0, seed=seed),
    "fixed": lambda seed: FixedDelay(1.0),
}
FAULTS = ("none", "writer killed mid-broadcast", "healing partition")
SEEDS = range(3)


def _is_bare(message):
    """A ``WRITE`` without its value (no written value is ``None`` here)."""
    return message.__class__ is WriteMessage and message.value is None


class _Audit:
    """What the wire did with bare WRITEs on one register."""

    def __init__(self, cluster):
        self.bare_sent = 0
        self.processed = 0
        cluster.network.add_send_hook(self._on_send)
        for process in cluster.processes:
            process.on_message = partial(self._on_message, process, process.on_message)

    def _on_send(self, _src, _dst, message):
        self.bare_sent += _is_bare(message)

    def _on_message(self, process, handler, src, message):
        if _is_bare(message):
            w_sync = process.state.w_sync
            if message.bit == (w_sync[src] + 1) % 2:  # line 11 holds: processed now
                self.processed += 1
                sn = w_sync[src] + 1  # line 12: the pair's rebuilt sequence number
                assert len(process.state.history) > sn, (
                    f"a bare {message!r} from p{src} reached p{process.pid} "
                    f"without its value #{sn}"
                )
        handler(src, message)


def _run(n, delays, fault, seed, algorithm="two-bit"):
    """One seeded register run, audited; its invariant monitor must stay clean."""
    crash_points, fault_plan = (), None
    if fault == "writer killed mid-broadcast":
        # The writer's first write starts alone at time 0: its first sends are
        # that broadcast, and a kill after (n - 1) // 2 of them cuts it short.
        crash_points = (
            CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=(n - 1) // 2),
        )
    elif fault == "healing partition":
        window = PartitionWindow.isolate(((seed + 1) % n,), n, start=0.5 + seed, heal=6.0 + 2 * seed)
        fault_plan = FaultPlan(name="heal", link_policies=(PartitionSchedule(windows=(window,)),))
    cluster = deploy_register(
        WorkloadSpec(
            n=n,
            algorithm=algorithm,
            initial_value="v0",
            delay_model=DELAYS[delays](seed),
            coalesce=delays == "fixed",
            crash_points=crash_points,
            fault_plan=fault_plan,
            check_invariants=True,
        )
    )
    audit = _Audit(cluster)
    store, rng = cluster.store, random.Random(seed)
    submissions = [(0, 0)] + [(1 + rng.randrange(14), rng.randrange(n)) for _ in range(14)]
    written = iter(range(1, len(submissions) + 1))

    def submit(pid):
        if pid == 0:
            store.submit_op(OperationKind.WRITE, REGISTER_KEY, f"v{next(written)}", replica=0)
        else:
            store.submit_op(OperationKind.READ, REGISTER_KEY, replica=pid)

    for tick, pid in submissions:
        store.simulator.schedule_at(0.5 * tick, lambda pid=pid: submit(pid))
    store.simulator.run(until=0.5 * max(tick for tick, _ in submissions) + 0.25)
    store.drive()
    store.settle()
    if fault == "writer killed mid-broadcast":
        assert cluster.processes[0].crashed
    assert cluster.monitor.report.ok, cluster.monitor.report.violations
    return audit


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("delays", sorted(DELAYS))
@pytest.mark.parametrize("n", [3, 5, 7])
def test_a_bare_write_reaches_only_processes_that_hold_its_value(n, delays, fault):
    bare_sent = processed = 0
    for seed in SEEDS:
        audit = _run(n, delays, fault, seed)
        bare_sent += audit.bare_sent
        processed += audit.processed
    # The rule does cut: some WRITE went without its value, and was processed.
    assert bare_sent > 0, f"{bare_sent} bare sent"
    assert processed > 0


@pytest.mark.parametrize("n", [3, 5])
def test_the_mutant_whose_forwards_go_bare_to_everyone_fails(n):
    with mutant_registered("two-bit-bare-forward"):
        with pytest.raises(AssertionError, match="without its value"):
            for seed in SEEDS:
                _run(n, "uniform", "none", seed, algorithm="two-bit-bare-forward")
