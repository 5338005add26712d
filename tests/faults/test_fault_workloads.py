"""Fault plans wired through workloads, the store and the metrics layer."""

import pytest

from repro.faults import (
    CrashPoint,
    FaultPlan,
    PartitionSchedule,
    PartitionWindow,
    majority_minority_split,
    slow_the_writer,
)
from repro.sim.delays import FixedDelay
from repro.store.store import KVStore, StoreConfig
from repro.workloads.kv import run_kv_workload
from repro.workloads.runner import run_workload
from repro.workloads.scenarios import chaos, delay_storm, kv_partitioned, quickstart
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec


def minority_partition(n: int, start: float = 2.0, heal: float = 15.0) -> FaultPlan:
    window = PartitionWindow.isolate((n - 1,), n, start=start, heal=heal)
    return FaultPlan(name="test", link_policies=(PartitionSchedule(windows=(window,)),))


class TestRegisterWorkloads:
    def test_delay_storm_scenario_stays_atomic_and_annotated(self):
        result = run_workload(delay_storm())
        assert result.finished_cleanly
        assert result.check_atomicity().ok
        faults = result.metrics["faults"]
        assert all(entry["fault"] == "delay_storm" for entry in faults)

    def test_storm_actually_slows_the_writer(self):
        calm = run_workload(delay_storm(factor=1.0001, storm_end=0.002, storm_start=0.001))
        stormy = run_workload(delay_storm(factor=8.0))
        calm_writes = calm.metrics["latency"]["write"]["mean"]
        stormy_writes = stormy.metrics["latency"]["write"]["mean"]
        assert stormy_writes > 2.0 * calm_writes

    def test_partitioned_register_run_terminates_and_verifies(self):
        spec = WorkloadSpec(
            n=5,
            algorithm="two-bit",
            num_writes=8,
            reads_per_reader=8,
            fault_plan=minority_partition(5),
            check_invariants=True,
            seed=3,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        assert result.check_atomicity().ok
        assert result.monitor is None or result.monitor.report.ok

    def test_crash_inside_a_partition_composes(self):
        # Replicas 3 and 4 are cut off while replica 1, on the majority side,
        # crashes: quorums shrink to the bare n - t until the heal.
        spec = WorkloadSpec(
            n=5,
            num_writes=6,
            reads_per_reader=6,
            fault_plan=majority_minority_split(5, start=3.0, heal=20.0),
            crash_points=(CrashPoint(shard=0, replica=1, at_time=11.5),),
            seed=7,
            max_virtual_time=2_000.0,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok
        crashed = [p for p in result.store.register_for(REGISTER_KEY).processes if p.crashed]
        assert len(crashed) == 1

    def test_crash_budget_is_enforced_beside_a_plan(self):
        with pytest.raises(ValueError, match="t < n/2"):
            WorkloadSpec(
                n=5,
                crash_points=tuple(
                    CrashPoint(shard=0, replica=pid, at_time=1.0) for pid in (1, 2, 3)
                ),
                fault_plan=majority_minority_split(5, start=0.0, heal=5.0),
            )

    def test_fault_free_run_is_byte_identical_with_plan_field_absent(self):
        # The link-policy hook must be invisible when no plan is installed.
        base = run_workload(quickstart(seed=5))
        again = run_workload(quickstart(seed=5))
        sig = lambda r: [
            (rec.op_id, rec.pid, rec.invoked_at, rec.responded_at, repr(rec.result))
            for rec in r.store.driver.records
        ]
        assert sig(base) == sig(again)


class TestStoreIntegration:
    def test_kv_partitioned_scenario_green(self):
        result = run_kv_workload(kv_partitioned(num_keys=6, num_ops=90, seed=2))
        assert result.finished_cleanly
        assert result.check_atomicity().ok
        assert len(result.failed_ops()) == 0
        assert result.metrics["faults"]

    def test_partitioned_run_reproducible_record_by_record(self):
        spec = kv_partitioned(num_keys=6, num_ops=80, seed=4)
        sig = lambda r: [
            (op.op_id, op.kind.value, op.key, op.value, op.failed,
             None if op.pid == -1 else (op.invoked_at, op.responded_at, repr(op.result)))
            for op in r.ops
        ]
        assert sig(run_kv_workload(spec)) == sig(run_kv_workload(spec))

    def test_chaos_scenarios_green_over_seeds(self):
        for seed in range(3):
            result = run_kv_workload(chaos(num_keys=6, num_ops=60, seed=seed))
            assert result.finished_cleanly
            assert result.check_atomicity(raise_on_violation=False).ok

    def test_lazily_deployed_registers_inherit_the_policy(self):
        store = KVStore(StoreConfig(num_shards=2, replication=3, delay_model=FixedDelay(1.0)))
        store.put("early", "v1")  # deployed before the plan
        plan = minority_partition(3, start=0.0, heal=30.0)
        store.install_fault_plan(plan)
        assert store.network.link_policy is plan.link_policies[0]
        early = store._registers["early"].subnet
        assert early.link_policy is store.network.link_policy
        store.put("late", "v2")  # deployed after the plan
        late = store._registers["late"].subnet
        assert late.link_policy is store.network.link_policy

    def test_partition_stalls_isolated_replica_until_heal(self):
        store = KVStore(StoreConfig(num_shards=1, replication=3, delay_model=FixedDelay(1.0)))
        store.install_fault_plan(minority_partition(3, start=0.0, heal=25.0))
        store.put("k", "v1")
        # Pin the read to the isolated replica 2: it cannot reach a quorum
        # before the heal, so the read completes only after it.
        op = store.submit_get("k", replica=2)
        store.drive()
        assert op.completed
        assert op.responded_at > 25.0

    def test_store_crash_inside_a_partition_stays_atomic(self):
        spec = kv_partitioned(num_keys=6, num_ops=90, seed=2).with_(
            crash_points=(CrashPoint(shard=1, replica=1, at_time=10.0),)
        )
        result = run_kv_workload(spec)
        assert result.finished_cleanly
        assert result.check_atomicity().ok
        assert result.store.shards[1].crashed_replicas == {1}

    def test_drive_budget_never_truncates_before_a_scheduled_heal(self):
        config = StoreConfig(num_shards=1, replication=3, delay_model=FixedDelay(1.0),
                             max_virtual_time=5.0)
        store = KVStore(config)
        store.install_fault_plan(minority_partition(3, start=0.0, heal=50.0))
        store.put("k", "v1")
        op = store.submit_get("k", replica=2)
        finished = store.drive()  # budget (5.0) < heal (50.0): horizon must win
        assert finished and op.completed
        assert not op.failed
