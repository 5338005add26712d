"""Property-based safety tests for the MMR consensus objects.

Hypothesis draws workload geometry, operation mixes, delay models and fault
placements; every execution must terminate cleanly, pass the SMR-spec
Wing–Gong checker on every key, and satisfy per-slot agreement and
validity straight off the replica processes.

A derandomized regression corpus rides below the properties: fixed seeds
replayed on every run, including the crash geometry that once deadlocked
the EST echo stage (the Byzantine t+1 echo threshold cannot fire with
n = 2t+1 crash-prone processes — the echo must go out on first sighting).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus import ConsensusObjectProcess, consensus_invariants
from repro.faults import FaultPlan, PartitionSchedule, PartitionWindow
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay, UniformDelay
from repro.store.store import KVStore, StoreConfig
from repro.workloads.kv import CrashPoint, KVWorkloadSpec, run_kv_workload

COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Operation mixes worth drawing: always at least one consensus-object kind.
MIXES = (
    (("read", 0.4), ("cas", 0.6)),
    (("read", 0.3), ("cas", 0.3), ("write", 0.4)),
    (("read", 0.4), ("incr", 0.6)),
    (("cas", 0.5), ("tas", 0.25), ("write", 0.25)),
    (("read", 0.4), ("cas", 0.2), ("write", 0.2), ("tas", 0.1), ("incr", 0.1)),
)


@st.composite
def consensus_specs(draw) -> KVWorkloadSpec:
    seed = draw(st.integers(min_value=0, max_value=10_000))
    use_random_delays = draw(st.booleans())
    delay_model = (
        UniformDelay(0.2, draw(st.floats(min_value=0.6, max_value=2.0)), seed=seed)
        if use_random_delays
        else FixedDelay(1.0)
    )
    return KVWorkloadSpec(
        num_keys=draw(st.integers(min_value=1, max_value=4)),
        num_ops=draw(st.integers(min_value=12, max_value=48)),
        op_mix=draw(st.sampled_from(MIXES)),
        distribution="uniform",
        algorithm="mmr-cas",
        num_shards=draw(st.integers(min_value=1, max_value=2)),
        replication=3,
        batch_size=draw(st.sampled_from((4, 8, 16))),
        initial_value=None,
        delay_model=delay_model,
        seed=seed,
    )


def assert_safe(result) -> None:
    assert result.finished_cleanly
    assert result.check_atomicity(raise_on_violation=False).ok
    by_key = {}
    for key in result.store.deployed_keys:
        processes = [
            process
            for process in result.store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
        if processes:
            by_key[key] = processes
    assert by_key, "expected consensus deployments"
    assert consensus_invariants(by_key) == []


@given(spec=consensus_specs())
@settings(**COMMON_SETTINGS)
def test_failure_free_consensus_runs_are_safe(spec: KVWorkloadSpec):
    assert_safe(run_kv_workload(spec))


@given(
    spec=consensus_specs(),
    crash_at=st.floats(min_value=0.5, max_value=20.0),
    crash_replica=st.integers(min_value=1, max_value=2),
)
@settings(**COMMON_SETTINGS)
def test_consensus_with_one_crashed_replica_is_safe(
    spec: KVWorkloadSpec, crash_at: float, crash_replica: int
):
    # t = 1 < n/2 for replication 3: one crash anywhere must never break
    # agreement, validity or SMR linearizability (some ops may fail fast).
    spec = spec.with_(
        crash_points=(
            CrashPoint(
                at_time=round(crash_at, 3),
                shard=spec.seed % spec.num_shards,
                replica=crash_replica,
            ),
        )
    )
    result = run_kv_workload(spec)
    assert result.finished_cleanly
    assert result.check_atomicity(raise_on_violation=False).ok
    by_key = {
        key: list(result.store.register_for(key).processes)
        for key in result.store.deployed_keys
    }
    assert consensus_invariants(by_key) == []


@given(
    spec=consensus_specs(),
    isolated=st.integers(min_value=0, max_value=2),
    start=st.floats(min_value=0.5, max_value=6.0),
    duration=st.floats(min_value=2.0, max_value=12.0),
)
@settings(**COMMON_SETTINGS)
def test_consensus_across_a_healing_partition_is_safe(
    spec: KVWorkloadSpec, isolated: int, start: float, duration: float
):
    window = PartitionWindow.isolate(
        (isolated,), spec.replication, start=round(start, 3), heal=round(start + duration, 3)
    )
    plan = FaultPlan(
        name="property-partition", link_policies=(PartitionSchedule(windows=(window,)),)
    )
    assert_safe(run_kv_workload(spec.with_(fault_plan=plan)))


@st.composite
def yield_race_schedules(draw):
    """Timed, replica-pinned increments on one key, ``n`` in {3, 5}.

    Submissions land on a half-unit grid while messages take whole units
    (or uniform delays), so an owner is handed a command for its next slot
    in the very instants at which a peer's traffic makes it yield that slot
    — before, between and after the deliveries of one instant.
    """
    n = draw(st.sampled_from((3, 5)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    delay_model = (
        UniformDelay(0.2, draw(st.floats(min_value=0.6, max_value=2.0)), seed=seed)
        if draw(st.booleans())
        else FixedDelay(1.0)
    )
    submissions = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=n - 1)),
            min_size=4,
            max_size=28,
        )
    )
    return n, delay_model, submissions


@given(schedule=yield_race_schedules())
@settings(**COMMON_SETTINGS)
def test_a_slot_holds_a_command_only_if_its_owner_proposed_one(schedule):
    n, delay_model, submissions = schedule
    store = KVStore(
        StoreConfig(
            algorithm="mmr-counter",
            num_shards=1,
            replication=n,
            initial_value=None,
            delay_model=delay_model,
        )
    )
    ops = []
    for tick, replica in submissions:
        store.simulator.schedule_at(
            0.5 * tick,
            lambda replica=replica: ops.append(
                store.submit_op(OperationKind.INCR, "k", 1, replica=replica)
            ),
        )
    store.simulator.run(until=12.5)  # past the last submission
    assert store.drive()
    store.settle()
    assert len(ops) == len(submissions) and all(op.completed for op in ops)
    assert sorted(op.result for op in ops) == list(range(1, len(ops) + 1))
    processes = list(store.register_for("k").processes)
    assert consensus_invariants({"k": processes}) == []
    assert store.check_linearizability(swmr_fast_path=False).ok
    for process in processes:
        for slot, value in process.decided.items():
            if value == 1:
                owner = processes[slot % n]
                # The owner itself put the command there, and it is the
                # command everyone applied.
                assert owner.commands[slot][0] == owner.pid
                assert process.commands[slot] == owner.commands[slot]
        # Every slot the log has passed is settled, gaps included.
        assert all(slot in process.decided for slot in range(process.frontier))


#: Derandomized regression corpus: (name, spec overrides, crash point).
#: The crash entries pin the EST echo fix — under the Byzantine-style t+1
#: echo threshold these seeds deadlock (est split 1/1 with the third
#: replica crashed never reaches the echo threshold, bin_values stays
#: empty, the round never resolves) and the run fails its virtual-time
#: budget instead of finishing cleanly.
REGRESSION_CORPUS = [
    ("echo-deadlock-seed12", dict(seed=12), CrashPoint(at_time=4.0, shard=0, replica=2)),
    ("echo-deadlock-seed3", dict(seed=3), CrashPoint(at_time=2.5, shard=0, replica=1)),
    ("crash-late-seed7", dict(seed=7), CrashPoint(at_time=12.0, shard=0, replica=2)),
    ("failure-free-seed0", dict(seed=0), None),
    ("failure-free-seed41", dict(seed=41, batch_size=1), None),
]


@pytest.mark.parametrize("name,overrides,crash", REGRESSION_CORPUS, ids=[c[0] for c in REGRESSION_CORPUS])
def test_regression_corpus(name, overrides, crash):
    fields = dict(
        num_keys=3,
        num_ops=48,
        op_mix=(("read", 0.35), ("cas", 0.40), ("write", 0.25)),
        distribution="uniform",
        algorithm="mmr-cas",
        num_shards=1,
        replication=3,
        batch_size=8,
        initial_value=None,
        delay_model=UniformDelay(0.2, 1.0, seed=overrides.get("seed", 0)),
    )
    fields.update(overrides)
    spec = KVWorkloadSpec(**fields)
    if crash is not None:
        spec = spec.with_(crash_points=(crash,))
    result = run_kv_workload(spec)
    assert result.finished_cleanly
    assert result.check_atomicity(raise_on_violation=False).ok
    by_key = {
        key: list(result.store.register_for(key).processes)
        for key in result.store.deployed_keys
    }
    assert consensus_invariants(by_key) == []
