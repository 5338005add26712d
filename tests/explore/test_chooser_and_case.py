"""Delivery-choice record/replay and the explore-case execution layer."""

import json
from dataclasses import asdict

import pytest

from repro.explore.case import (
    CaseOp,
    CaseOutcome,
    ExploreCase,
    delay_model_from_dict,
    delay_model_to_dict,
    materialize_schedule,
    run_case,
)
from repro.cli import main
from repro.explore.chooser import RandomChooser, ReplayChooser
from repro.explore.explorer import ARTIFACT_FORMAT
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import FaultPlan
from repro.faults.storms import DelayStorm
from repro.registers.registry import available_algorithms
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.store.store import StoreConfig
from repro.transport.runtime import ProcessBase
from repro.workloads.kv import (
    CrashPoint,
    KVWorkloadSpec,
    generate_kv_arrivals,
    deploy_store,
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


def isolating(replica, start, heal, *storms):
    """The serialized plan: cut ``replica`` off during ``[start, heal)``, then ``storms``."""
    window = PartitionWindow.isolate((replica,), 3, start=start, heal=heal)
    return FaultPlan(link_policies=(PartitionSchedule(windows=(window,)), *storms)).to_dict()


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
    def test_replaying_recorded_choices_reproduces_the_execution(self):
        case = small_case()
        recorder = RandomChooser(seed=5)
        recorded = run_case(case, chooser=recorder)
        assert recorder.entries, "a uniform pick over dozens of messages must record choices"
        replayed = run_case(case.with_(choices=tuple(recorder.entries)))
        assert signature(replayed) == signature(recorded)

    def test_record_mode_is_seed_deterministic(self):
        case = small_case()
        first, second = RandomChooser(seed=5), RandomChooser(seed=5)
        run_case(case, chooser=first)
        run_case(case, chooser=second)
        assert first.entries == second.entries

    def test_dropping_choices_changes_but_never_breaks_the_run(self):
        case = small_case()
        recorder = RandomChooser(seed=5)
        run_case(case, chooser=recorder)
        subset = tuple(recorder.entries[::2])
        outcome = run_case(case.with_(choices=subset))
        assert outcome.finished_cleanly and outcome.ok


class _Sink(ProcessBase):
    def __init__(self, pid, simulator, network, log):
        super().__init__(pid, simulator, network)
        self.log = log

    def on_message(self, src, message):
        self.log.append((self.simulator.now, self.pid, src, message))


def _plain_world(chooser, n=4):
    simulator = Simulator()
    network = Network(simulator, delay_model=FixedDelay(1.0), coalesce=True)
    network.chooser = chooser
    log = []
    for pid in range(n):
        _Sink(pid, simulator, network, log)
    return simulator, network, log


class TestTheChooser:
    def test_every_message_is_delivered_once_at_a_slot(self):
        simulator, network, log = _plain_world(RandomChooser(seed=3))
        for round_ in range(5):
            for src in range(4):
                network.send(src, [dst for dst in range(4) if dst != src], f"m{round_}.{src}")
            simulator.run(until=simulator.now + 0.5)
        simulator.drain()
        sent = sorted((dst, src, f"m{r}.{src}") for r in range(5) for src in range(4)
                      for dst in range(4) if dst != src)
        assert sorted((pid, src, message) for _t, pid, src, message in log) == sent
        assert network.quiescent() and network.stats.messages_coalesced == 0
        # A slot is the time the delay model gave some message: 1.0 after a send.
        assert {time for time, *_ in log} == {0.5 * r + 1.0 for r in range(5)}

    def test_a_pick_reorders_one_slot(self):
        # Slot 0 delivers the first message sent on link 2 -> 1 (k = 0) instead
        # of the earliest in flight, 0 -> 1; the slot it skipped delivers that.
        simulator, network, log = _plain_world(ReplayChooser([("", 0, 2, 1, 0)]))
        network.send(0, 1, "a")
        network.send(2, 1, "b")
        simulator.drain()
        assert [(src, message) for _t, _pid, src, message in log] == [(2, "b"), (0, "a")]

    def test_a_pick_of_a_message_not_in_flight_is_no_pick(self):
        simulator, network, log = _plain_world(ReplayChooser([("", 0, 3, 1, 7)]))
        network.send(0, 1, "a")
        network.send(2, 1, "b")
        simulator.drain()
        assert [message for *_rest, message in log] == ["a", "b"]

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ReplayChooser([("s", 0, 1, 2, 0), ("s", 0, 2, 1, 0)])

    def test_scopes_separate_choices_and_streams(self):
        replay = ReplayChooser([("a", 0, 1, 2, 0)])
        bag = [(1.0, 0, 2, 1, 0), (1.0, 1, 1, 2, 0)]
        assert replay.scoped("b").pick(0, bag) == 0  # other scope untouched
        assert replay.scoped("a").pick(0, bag) == 1
        recorder = RandomChooser(seed=1)
        one, other = recorder.scoped("a"), recorder.scoped("b")
        assert one.entries is other.entries is recorder.entries
        assert one._rng.getstate() != other._rng.getstate()


class TestEveryLinkPolicyIsPure:
    def test_a_fault_plan_runs_on_shard_parallel_workers(self):
        window = PartitionWindow.isolate((2,), 3, start=0.0, heal=4.0)
        plan = FaultPlan(link_policies=(PartitionSchedule(windows=(window,)),))
        spec = KVWorkloadSpec(num_ops=40, fault_plan=plan, delay_model=FixedDelay(1.0))
        serial, parallel = run_kv_workload(spec), run_kv_workload(spec.with_(workers=2))
        assert histories(serial.store) == {
            str(key): history.to_dict() for key, history in parallel.histories().items()
        }


class TestCaseSerde:
    def test_case_round_trips_through_strict_json(self):
        case = small_case(
            choices=(("shard0:'k0'", 4, 1, 2, 0),),
            crash_points=(
                {"at_time": 3.0, "shard": 0, "replica": 1},
                {"after_messages_sent": 5, "shard": 1, "replica": 2},
            ),
            fault_plan=isolating(2, 1.0, 5.0, DelayStorm(start=0.5, end=4.0, factor=2.5, dests=(1,))),
            ops=(
                CaseOp(kind="write", key="k0", value="k0=v1", at=0.0),
                CaseOp(kind="read", key="k0", at=0.5, replica=2),
            ),
        )
        text = case.to_json()
        json.loads(text)  # strict JSON
        assert ExploreCase.from_dict(json.loads(text)) == case

    def test_unknown_versions_and_kinds_rejected(self):
        case = small_case()
        payload = case.to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ExploreCase.from_dict(payload)
        payload["version"] = 2
        with pytest.raises(ValueError, match="version 2 held one partition window"):
            ExploreCase.from_dict(payload)
        with pytest.raises(ValueError, match="kind"):
            CaseOp.from_dict({"kind": "delete", "key": "k"})

    def test_a_version_1_artifact_is_refused_with_status_2(self, tmp_path, capsys):
        case = small_case().to_dict()
        case["version"] = 1
        case["perturbation"] = [["shard0:'k0'", 0, 1, 0, 2.5]]
        del case["choices"]
        artifact = {"format": ARTIFACT_FORMAT, "version": 1, "case": case}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(artifact))
        assert main(["explore", "--replay", str(path)]) == 2
        assert "unsupported explore-case version 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model", [FixedDelay(0.7), UniformDelay(0.2, 1.0, seed=11)], ids=["fixed", "uniform"]
    )
    def test_delay_model_dict_is_the_inverse_of_from_dict(self, model):
        payload = delay_model_to_dict(model)
        again = delay_model_from_dict(json.loads(json.dumps(payload)))
        assert repr(again) == repr(model)
        assert [again.sample(0, 1) for _ in range(5)] == [model.sample(0, 1) for _ in range(5)]
        with pytest.raises(ValueError, match="no case form"):
            delay_model_to_dict(UniformDelay(0.2, 1.0, seed=None))

    @pytest.mark.parametrize(
        "integral, real",
        [
            ({"kind": "uniform", "low": 0, "high": 2}, {"kind": "uniform", "low": 0.0, "high": 2.0}),
            ({"kind": "uniform", "seed": 3.0}, {"kind": "uniform", "seed": 3}),
            ({"kind": "fixed", "delta": 1}, {"kind": "fixed", "delta": 1.0}),
        ],
        ids=["uniform-bounds", "uniform-seed", "fixed-delta"],
    )
    def test_an_int_and_a_float_spell_one_delay(self, integral, real):
        """A seed is derived from ``repr`` of the bounds: ``0`` and ``0.0`` must agree."""
        one, other = (run_case(small_case(delay=delay)) for delay in (integral, real))
        assert signature(one) == signature(other)


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
            crash_points=(
                {"at_time": 0.5, "shard": 0, "replica": 1},
                {"after_messages_sent": 3, "shard": 1, "replica": 1},
            ),
            fault_plan=isolating(2, 1.0, 8.0),
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
        outcome = run_case(small_case(algorithm="abd-sloppy-write", arrival_gap=0.0))
        assert outcome.finished_cleanly  # sloppy writes still terminate
        assert "abd-sloppy-write" not in available_algorithms()  # for the case only


class TestCaseVerdict:
    """A case is judged as a workload run is: clean finish, per-key check, consensus audit."""

    @staticmethod
    def outcome(finished_cleanly=True, invariants=None):
        store = deploy_store(StoreConfig(algorithm="abd", num_shards=1))
        store.put("k0", "a")
        store.submit_get("k1")  # never driven: left pending
        report = store.check_linearizability(swmr_fast_path=False)
        return CaseOutcome(store, report, finished_cleanly, invariants)

    def test_an_invariant_violation_blames_the_key_it_names(self):
        outcome = self.outcome(invariants=["agreement violation at key 'k0' slot 3: p0->1, p1->0"])
        assert not outcome.ok
        assert outcome.failing_keys() == ["k0"]
        assert outcome.violations() == outcome.invariants

    def test_an_unclean_finish_blames_the_keys_left_pending(self):
        outcome = self.outcome(finished_cleanly=False)
        assert not outcome.ok
        assert outcome.failing_keys() == ["k1"]
        assert outcome.violations()[0].startswith("run did not finish")

    def test_a_clean_run_blames_nothing(self):
        outcome = self.outcome(invariants=[])
        assert outcome.ok and outcome.failing_keys() == [] and outcome.violations() == []


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
        crash_points=tuple(asdict(point) for point in spec.crash_points),
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
            {"at_time": 1.5, "shard": 0, "replica": 0},
            {"at_time": 1.0, "shard": 0, "replica": 7},
            {"at_time": 1.0, "shard": 7, "replica": 1},
            {"at_time": -3.0, "shard": 0, "replica": 1},
            {"at_time": 1.0, "after_messages_sent": 4, "shard": 0, "replica": 1},
            {"at": 1.0, "shard": 0, "replica": 1},
        ],
        ids=[
            "writer", "replica-7-of-3", "shard-7-of-1", "negative-time", "two-triggers",
            "unknown-field",
        ],
    )
    def test_case_rejects_the_point(self, point, monkeypatch):
        def no_events(*_args, **_kwargs):
            raise AssertionError("the case ran before its crash points were checked")

        monkeypatch.setattr(Simulator, "run_until", no_events)
        with pytest.raises(ValueError):
            run_case(small_case(num_shards=1, crash_points=(point,)))

    def test_case_rejects_two_points_on_one_shard(self):
        points = (
            {"at_time": 1.0, "shard": 0, "replica": 1},
            {"at_time": 1.0, "shard": 0, "replica": 2},
        )
        with pytest.raises(ValueError, match="t < n/2"):
            run_case(small_case(num_shards=1, crash_points=points))
