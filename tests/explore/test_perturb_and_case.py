"""Perturbation record/replay and the explore-case execution layer."""

import json

import pytest

from repro.explore.case import (
    CaseOp,
    ExploreCase,
    delay_model_from_dict,
    materialize_schedule,
    run_case,
)
from repro.explore.mutations import install_mutations
from repro.explore.perturb import RecordingPerturbation, ReplayPerturbation
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import CompositeLinkPolicy, FaultPlan
from repro.sim.scheduler import Simulator
from repro.workloads.kv import (
    CrashPoint,
    KVWorkloadSpec,
    generate_kv_arrivals,
    generate_kv_operations,
    run_kv_workload,
)


def small_case(**overrides):
    defaults = dict(
        name="t",
        algorithm="abd",
        num_shards=2,
        replication=3,
        batch_size=8,
        arrival_gap=0.4,
        delay={"kind": "fixed", "delta": 1.0},
        ops=tuple(
            CaseOp(kind="write", key="k0", value=f"k0=v{i}") if i % 3 == 0 else CaseOp(kind="read", key="k0")
            for i in range(12)
        ),
    )
    defaults.update(overrides)
    return ExploreCase(**defaults)


def signature(outcome):
    """Record-by-record fingerprint of a case execution."""
    rows = []
    for op in outcome.store.ops:
        rows.append(
            (
                op.op_id,
                op.kind.value,
                op.key,
                op.failed,
                None
                if op.pid == -1
                else (op.pid, op.invoked_at, op.responded_at, repr(op.result)),
            )
        )
    return rows


class TestRecordReplayIdentity:
    def test_replaying_recorded_entries_reproduces_the_execution(self):
        case = small_case()
        recorder = RecordingPerturbation(seed=5, rate=0.6, amplitude=4.0)
        recorded = run_case(case, perturbation=recorder)
        assert recorder.entries, "a 60% rate over dozens of messages must record choices"
        replayed = run_case(case.with_(perturbation=tuple(recorder.entries)))
        assert signature(replayed) == signature(recorded)

    def test_record_mode_is_seed_deterministic(self):
        case = small_case()
        first = RecordingPerturbation(seed=5, rate=0.6, amplitude=4.0)
        second = RecordingPerturbation(seed=5, rate=0.6, amplitude=4.0)
        run_case(case, perturbation=first)
        run_case(case, perturbation=second)
        assert first.entries == second.entries

    def test_dropping_entries_changes_but_never_breaks_the_run(self):
        case = small_case()
        recorder = RecordingPerturbation(seed=5, rate=0.6, amplitude=4.0)
        run_case(case, perturbation=recorder)
        subset = tuple(recorder.entries[::2])
        outcome = run_case(case.with_(perturbation=subset))
        assert outcome.finished_cleanly and outcome.ok


class TestPerturbationValidation:
    def test_duplicate_entries_rejected(self):
        entry = ("s", 0, 1, 0, 2.0)
        with pytest.raises(ValueError, match="duplicate"):
            ReplayPerturbation([entry, entry])

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError, match="invalid perturbation multiplier"):
            ReplayPerturbation([("s", 0, 1, 0, -1.0)])

    def test_invalid_recorder_parameters_rejected(self):
        with pytest.raises(ValueError):
            RecordingPerturbation(seed=0, rate=1.5)
        with pytest.raises(ValueError):
            RecordingPerturbation(seed=0, shrink_to=0.0)

    def test_scopes_separate_choice_streams(self):
        replay = ReplayPerturbation([("a", 0, 1, 0, 3.0)])
        assert replay.scoped("b").adjust(0, 1, 0.0, 1.0) == 1.0  # other scope untouched
        assert replay.scoped("a").adjust(0, 1, 0.0, 1.0) == 3.0


class TestAPerturbationIsTheLastLinkPolicy:
    partition = PartitionSchedule(
        windows=(PartitionWindow.isolate((2,), 3, start=0.0, heal=4.0),)
    )

    def test_a_pure_policy_is_the_same_object_in_every_scope(self):
        pure = CompositeLinkPolicy((self.partition, self.partition))
        assert self.partition.scoped("a") is self.partition
        assert pure.scoped("a") is pure

    def test_a_composite_scopes_its_perturbation_and_keeps_the_order(self):
        replay = ReplayPerturbation([("a", 0, 2, 0, 3.0)])
        scoped = CompositeLinkPolicy((self.partition, replay)).scoped("a")
        assert scoped.policies[0] is self.partition
        # perturb(policy(sample)): the held delay (4 - 1) + 1 is what gets tripled.
        assert scoped.adjust(0, 2, 1.0, 1.0) == 12.0
        assert scoped.adjust(0, 2, 1.0, 1.0) == 4.0  # ordinal 1: no entry

    def test_a_recorder_cannot_be_split_over_workers(self):
        plan = FaultPlan(link_policies=(self.partition, RecordingPerturbation(seed=1)))
        spec = KVWorkloadSpec(fault_plan=plan)
        with pytest.raises(ValueError, match="recording perturbation"):
            spec.with_(workers=2)
        replay = FaultPlan(link_policies=(ReplayPerturbation([("a", 0, 1, 0, 2.0)]),))
        assert spec.with_(fault_plan=replay, workers=2).workers == 2


class TestCaseSerde:
    def test_case_round_trips_through_strict_json(self):
        case = small_case(
            perturbation=(("shard0:'k0'", 0, 1, 2, 2.5),),
            crash_points=({"at": 3.0, "shard": 0, "replica": 1},),
            partition={"replicas": [2], "start": 1.0, "heal": 5.0},
            ops=(
                CaseOp(kind="write", key="k0", value="k0=v1", at=0.0),
                CaseOp(kind="read", key="k0", at=0.5, replica=2),
            ),
        )
        text = case.to_json()
        json.loads(text)  # strict JSON
        assert ExploreCase.from_json(text) == case

    def test_unknown_versions_and_kinds_rejected(self):
        case = small_case()
        payload = case.to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ExploreCase.from_dict(payload)
        with pytest.raises(ValueError, match="kind"):
            CaseOp.from_dict({"kind": "delete", "key": "k"})


class TestCaseExecution:
    def test_batch_and_staggered_modes_complete(self):
        batch = run_case(small_case(arrival_gap=0.0))
        staggered = run_case(small_case())
        for outcome in (batch, staggered):
            assert outcome.finished_cleanly
            assert len(outcome.store.completed_ops()) == 12
            assert outcome.ok

    def test_faults_apply(self):
        case = small_case(
            crash_points=({"at": 0.5, "shard": 0, "replica": 1}, {"at": 0.5, "shard": 1, "replica": 1}),
            partition={"replicas": [2], "start": 1.0, "heal": 8.0},
        )
        outcome = run_case(case)
        assert sum(len(s.crashed_replicas) for s in outcome.store.shards) == 2
        assert outcome.store.fault_plan is not None
        assert outcome.ok  # healthy ABD stays atomic under faults

    def test_out_of_order_arrivals_rejected(self):
        case = small_case(
            ops=(
                CaseOp(kind="read", key="k0", at=2.0),
                CaseOp(kind="read", key="k0", at=1.0),
            )
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            run_case(case)

    def test_materialize_pins_times_and_replicas(self):
        case = small_case()
        outcome = run_case(case)
        pinned = materialize_schedule(case, outcome)
        assert all(op.at is not None for op in pinned.ops)
        assert all(op.replica is not None for op in pinned.ops if op.kind == "read")
        # Pinning must reproduce the execution exactly.
        assert signature(run_case(pinned)) == signature(outcome)

    def test_mutant_algorithms_install_on_demand(self):
        install_mutations()
        outcome = run_case(small_case(algorithm="abd-sloppy-write", arrival_gap=0.0))
        assert outcome.finished_cleanly  # sloppy writes still terminate


def case_of(spec, delay, **overrides):
    """``spec``'s run as a case: its stream, its arrivals as explicit ``at``,
    its delay (``delay`` is the serialized form of ``spec.delay_model``),
    geometry and crash points."""
    arrivals = generate_kv_arrivals(spec) if spec.open_loop else [None] * spec.num_ops
    fields = dict(
        name="spec",
        algorithm=spec.algorithm,
        num_shards=spec.num_shards,
        replication=spec.replication,
        batch_size=spec.batch_size,
        arrival_gap=0.0,
        delay=delay,
        ops=tuple(
            CaseOp(kind=op.kind.value, key=op.key, value=op.value, at=at)
            for op, at in zip(generate_kv_operations(spec), arrivals)
        ),
        crash_points=tuple(
            {"at": point.at_time, "shard": point.shard, "replica": point.replica}
            for point in spec.crash_points
        ),
    )
    fields.update(overrides)
    return ExploreCase(**fields)


def histories(store):
    return {str(key): history.to_dict() for key, history in store.histories().items()}


class TestACaseIsASpecRun:
    """A case drives its script through the loop a workload run uses."""

    @pytest.mark.parametrize("algorithm", ["abd", "two-bit", "abd-mwmr"])
    @pytest.mark.parametrize(
        "arrival, rate", [("closed", 0.0), ("poisson", 1.5)], ids=["closed", "poisson"]
    )
    def test_same_execution(self, algorithm, arrival, rate):
        delay = {"kind": "uniform", "low": 0.2, "high": 1.0, "seed": 4}
        spec = KVWorkloadSpec(
            algorithm=algorithm,
            num_keys=6,
            num_ops=60,
            num_shards=2,
            replication=3,
            batch_size=8,
            arrival=arrival,
            arrival_rate=rate,
            delay_model=delay_model_from_dict(delay),
            seed=2,
        )
        served = run_kv_workload(spec)
        outcome = run_case(case_of(spec, delay))
        assert histories(outcome.store) == histories(served.store)
        assert outcome.store.simulator.executed_events == served.store.simulator.executed_events
        assert outcome.store.stats.messages_sent == served.store.stats.messages_sent
        assert outcome.finished_cleanly and served.finished_cleanly

    def test_one_clean_finish_rule(self):
        """An op failed with a reason (its replica crashed) is done, on every path."""
        spec = KVWorkloadSpec(
            algorithm="abd",
            num_shards=1,
            replication=3,
            num_keys=2,
            num_ops=30,
            batch_size=6,
            seed=1,
            crash_points=(CrashPoint(shard=0, replica=1, at_time=1.5),),
        )
        delay = {"kind": "fixed", "delta": 1.0}
        served = run_kv_workload(spec)
        closed = run_case(case_of(spec, delay))
        staggered = run_case(case_of(spec, delay, arrival_gap=0.4))
        for store in (served.store, closed.store, staggered.store):
            failed = store.failed_ops()
            assert len(failed) == 1 and failed[0].failure_reason
            assert store.check_linearizability().ok
        assert served.finished_cleanly
        assert closed.finished_cleanly
        assert staggered.finished_cleanly


class TestInvalidCaseCrashPoints:
    """A case's crash points are refused before its first event, as a spec's are."""

    @pytest.mark.parametrize(
        "point",
        [
            {"at": 1.5, "shard": 0, "replica": 0},
            {"at": 1.0, "shard": 0, "replica": 7},
            {"at": 1.0, "shard": 7, "replica": 1},
            {"at": -3.0, "shard": 0, "replica": 1},
        ],
        ids=["writer", "replica-7-of-3", "shard-7-of-1", "negative-time"],
    )
    def test_case_rejects_the_point(self, point, monkeypatch):
        def no_events(*_args, **_kwargs):
            raise AssertionError("the case ran before its crash points were checked")

        monkeypatch.setattr(Simulator, "run_until", no_events)
        with pytest.raises(ValueError):
            run_case(small_case(num_shards=1, crash_points=(point,)))

    def test_case_rejects_two_points_on_one_shard(self):
        points = ({"at": 1.0, "shard": 0, "replica": 1}, {"at": 1.0, "shard": 0, "replica": 2})
        with pytest.raises(ValueError, match="t < n/2"):
            run_case(small_case(num_shards=1, crash_points=points))
