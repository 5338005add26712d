"""The paper's design discussion (Sections 3 and 5), as four ablations.

* **A1, read-dominated applications** (Section 5): "due to the O(n) message
  cost of its read operation, it can benefit read-dominated applications".
  A 95/5 mix costs the two-bit register fewer messages per read than ABD and
  less than half of ABD's control bits; a write-heavy mix flips the message
  bill.
* **A2, crash resilience** up to t = (n-1)//2: operations of correct
  processes terminate and histories stay atomic; crashed processes stop
  forwarding, so the bill shrinks.  Reads survive the writer's crash.
* **A3, asynchrony**: a write takes one round trip of the slowest delay at
  most, and quorum waits skip a straggler.
* **A4, design choices**: the writer's local read (the comment on line 5 of
  Figure 1) saves a read's 2(n-1) messages; a smaller ``t`` (bigger
  quorums) costs nothing failure-free and survives fewer crashes.
"""

import statistics

import pytest

from repro.analysis.metrics import summarize
from repro.api import create_register
from repro.faults import CrashPoint
from repro.registers.base import OperationKind
from repro.sim.delays import (
    ExponentialDelay,
    FixedDelay,
    JitteredDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads.scenarios import read_dominated, write_heavy

from benchmarks.variants import WRITER_FAST_READ, registered, two_bit_variant

# A1: read-dominated applications ----------------------------------------------


@pytest.mark.parametrize("n", [5, 7, 9])
def test_a1_a_read_dominated_mix_costs_the_two_bit_register_less(n):
    reads_per_reader = 30
    bills = {}
    for algorithm in ("two-bit", "abd"):
        result = run_workload(
            read_dominated(
                n=n, algorithm=algorithm, reads_per_reader=reads_per_reader, num_writes=3, seed=3
            )
        )
        result.check_atomicity()
        bills[algorithm] = (result.total_messages(), result.store.stats.control_bits_total)
    reads = reads_per_reader * (n - 1)
    (two_bit_msgs, two_bit_bits), (abd_msgs, abd_bits) = bills["two-bit"], bills["abd"]
    assert two_bit_msgs / reads < abd_msgs / reads, bills
    assert two_bit_bits < abd_bits / 2, bills


def test_a1_a_write_heavy_mix_costs_abd_less():
    """The counterpoint: ABD's O(n) writes win on a write-heavy mix."""
    total = {}
    for algorithm in ("two-bit", "abd"):
        result = run_workload(write_heavy(n=7, algorithm=algorithm, num_writes=30, seed=4))
        result.check_atomicity()
        total[algorithm] = result.total_messages()
    assert total["abd"] < total["two-bit"], total


# A2: crash resilience --------------------------------------------------------------


def crash_run(algorithm: str, crashes: int, n: int = 7):
    """Three readers; the highest pids crash first, three time units apart."""
    points = tuple(
        CrashPoint(shard=0, replica=n - 1 - i, at_time=5.0 + 3.0 * i) for i in range(crashes)
    )
    return run_workload(
        WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=10,
            reads_per_reader=8,
            readers=[1, 2, 3],
            delay_model=UniformDelay(0.2, 1.5, seed=13),
            crash_points=points,
            seed=13,
            max_virtual_time=5_000.0,
        )
    )


@pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
def test_a2_up_to_t_crashes_stay_atomic_and_live(algorithm):
    n = 7
    total_messages = []
    for crashes in range((n - 1) // 2 + 1):
        result = crash_run(algorithm, crashes, n)
        assert result.check_atomicity().ok
        crashed = set(range(n - crashes, n))
        stuck = [r for r in result.store.driver.records if r.pid not in crashed and not r.completed]
        assert stuck == [], f"{algorithm}: correct processes' ops stuck with {crashes} crashes"
        total_messages.append(result.total_messages())
    # Graceful degradation: t crashes send fewer messages than none.
    assert total_messages[-1] < total_messages[0], total_messages


def test_a2_reads_survive_the_writers_crash():
    result = run_workload(
        WorkloadSpec(
            n=5,
            algorithm="two-bit",
            num_writes=6,
            reads_per_reader=6,
            read_think_time=1.0,
            delay_model=UniformDelay(0.2, 1.5, seed=17),
            crash_points=(
                CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=10),
            ),
            seed=17,
            max_virtual_time=5_000.0,
        )
    )
    assert result.check_atomicity().ok
    assert [r for r in result.store.driver.records if r.pid != 0 and not r.completed] == []


# A3: asynchrony --------------------------------------------------------------------

DELAY_MODELS = {
    "fixed(1.0)": lambda: FixedDelay(1.0),
    "jitter(1.0, 20%)": lambda: JitteredDelay(1.0, 0.2, seed=5),
    "uniform(0.2, 2.0)": lambda: UniformDelay(0.2, 2.0, seed=5),
    "heavy-tail(exp, cap 8)": lambda: ExponentialDelay(base=0.2, mean=0.8, cap=8.0, seed=5),
}


def async_run(algorithm: str, delay_model, n: int = 5):
    result = run_workload(
        WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=12,
            reads_per_reader=10,
            delay_model=delay_model,
            seed=5,
        )
    )
    result.check_atomicity()
    return result


@pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
def test_a3_a_write_takes_at_most_two_of_the_slowest_delays(algorithm):
    """Paper: 2 Δ, with Δ the bound on a message's delay, under every
    delay distribution."""
    for name, factory in DELAY_MODELS.items():
        writes = summarize(async_run(algorithm, factory()).latencies(OperationKind.WRITE))
        paper = 2 * factory().max_delay()
        assert writes.maximum <= paper + 1e-9, (name, writes.maximum, paper)


@pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
def test_a3_a_straggler_does_not_dominate(algorithm):
    """With one process behind 30x slower links, quorum waits skip it: the
    median write stays near the fast links' delay."""
    n, fast, slow = 5, 1.0, 30.0
    overrides = {}
    for other in range(n - 1):
        overrides[(other, n - 1)] = FixedDelay(slow)
        overrides[(n - 1, other)] = FixedDelay(slow)
    delays = PerLinkDelay(default=FixedDelay(fast), overrides=overrides)
    median_write = statistics.median(async_run(algorithm, delays, n).latencies(OperationKind.WRITE))
    assert median_write <= 4 * fast + 1e-9, f"{algorithm}: the straggler dominates"


# A4: design choices ----------------------------------------------------------------

T_OVERRIDES = {t: two_bit_variant(f"two-bit-t{t}", t=t) for t in range(5)}


@pytest.fixture(scope="module", autouse=True)
def _variants_registered():
    with registered(WRITER_FAST_READ, *T_OVERRIDES.values()):
        yield


def test_a4_the_writers_local_read_saves_a_round_trip():
    """Paper (line 5's comment): the writer may return its own last value.
    General path: 2(n-1) messages; shortcut: none, at once."""
    n = 5
    measured = {}
    for algorithm in ("two-bit", WRITER_FAST_READ.name):
        cluster = create_register(
            n=n, algorithm=algorithm, initial_value="v0", delay_model=FixedDelay(1.0)
        )
        cluster.writer.write("v1")
        cluster.settle()
        before, start = cluster.network.stats.messages_sent, cluster.simulator.now
        record = cluster.writer.read(run=False)
        cluster.simulator.run_until(lambda: record.completed)
        cluster.settle()
        latency = (record.responded_at or start) - start
        measured[algorithm] = (cluster.network.stats.messages_sent - before, latency)
    assert measured[WRITER_FAST_READ.name] == (0, 0.0)
    assert measured["two-bit"][0] == 2 * (n - 1)


@pytest.mark.parametrize("n", [5, 9])
def test_a4_a_smaller_t_costs_nothing_failure_free(n):
    """Bigger quorums (smaller t) keep the first write's message count and
    latency at every t."""
    measured = {}
    for t in range((n - 1) // 2, -1, -1):
        cluster = create_register(
            n=n, algorithm=T_OVERRIDES[t].name, initial_value="v0", delay_model=FixedDelay(1.0)
        )
        record = cluster.writer.write("v1")
        cluster.settle()
        measured[t] = (cluster.network.stats.messages_sent, record.latency)
        assert cluster.reader(1).read() == "v1"
    assert len(set(measured.values())) == 1, measured


def test_a4_a_smaller_t_survives_fewer_crashes():
    """With t=0 (quorum = all n) one crash blocks the writer; with the
    default t=(n-1)//2 the same crash is harmless."""
    n = 5

    def write_terminates(t: int) -> bool:
        cluster = create_register(
            n=n, algorithm=T_OVERRIDES[t].name, initial_value="v0", delay_model=FixedDelay(1.0)
        )
        cluster.crash(4)
        record = cluster.processes[0].invoke_write("v1", lambda _record: None)
        return cluster.simulator.run_until(lambda: record.completed, limit=100.0)

    assert write_terminates(t=(n - 1) // 2) is True
    assert write_terminates(t=0) is False
