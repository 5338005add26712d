"""Tests for mixed-algorithm stores (per-shard algorithms) and store coalescing."""

import pytest

from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay
from repro.store.store import KVStore, StoreConfig
from repro.workloads.kv import KVWorkloadSpec, run_kv_workload
from repro.workloads.scenarios import kv_mixed


class TestStoreConfigShardAlgorithms:
    def test_length_must_match_num_shards(self):
        with pytest.raises(ValueError, match="one per shard"):
            StoreConfig(num_shards=4, shard_algorithms=("abd", "two-bit"))

    def test_unknown_names_fail_fast_at_store_build(self):
        config = StoreConfig(num_shards=2, shard_algorithms=("abd", "paxos"))
        with pytest.raises(KeyError, match="paxos"):
            KVStore(config)

    def test_algorithm_for_falls_back_to_the_default(self):
        config = StoreConfig(algorithm="two-bit", num_shards=3)
        assert [config.algorithm_for(shard) for shard in range(3)] == ["two-bit"] * 3
        mixed = StoreConfig(num_shards=3, shard_algorithms=("two-bit", "abd", "abd-mwmr"))
        assert mixed.algorithm_for(1) == "abd"


class TestMixedDeployment:
    def test_each_shard_deploys_its_own_algorithm(self):
        from repro.core.process import TwoBitRegisterProcess
        from repro.registers.abd import AbdRegisterProcess
        from repro.registers.abd_mwmr import MwmrAbdRegisterProcess

        expected = {
            "two-bit": TwoBitRegisterProcess,
            "abd": AbdRegisterProcess,
            "abd-mwmr": MwmrAbdRegisterProcess,
        }
        store = KVStore(
            StoreConfig(
                num_shards=3,
                shard_algorithms=("two-bit", "abd", "abd-mwmr"),
                delay_model=FixedDelay(1.0),
            )
        )
        # Touch enough keys to hit every shard.
        for index in range(12):
            store.put(f"k{index}", f"v{index}")
        for key in store.deployed_keys:
            deployment = store.register_for(key)
            algorithm = store.config.algorithm_for(deployment.placement.shard)
            assert type(deployment.processes[0]) is expected[algorithm]
        touched = {store.register_for(key).placement.shard for key in store.deployed_keys}
        assert touched == {0, 1, 2}

    def test_mixed_store_round_trips_values(self):
        store = KVStore(
            StoreConfig(num_shards=3, shard_algorithms=("two-bit", "abd", "abd-mwmr"))
        )
        for index in range(9):
            store.put(f"key-{index}", index)
        for index in range(9):
            assert store.get(f"key-{index}") == index


class TestKvMixedScenario:
    def test_scenario_maps_algorithms_round_robin(self):
        spec = kv_mixed(num_shards=5)
        assert spec.shard_algorithms == ("two-bit", "abd", "abd-mwmr", "two-bit", "abd")

    def test_scenario_rejects_empty_algorithm_list(self):
        with pytest.raises(ValueError):
            kv_mixed(algorithms=())

    def test_mixed_workload_is_atomic_per_key_and_bills_every_algorithm(self):
        result = run_kv_workload(kv_mixed(num_ops=200, seed=3))
        assert result.finished_cleanly
        assert not result.failed_ops()
        assert result.check_atomicity().ok
        by_type = result.store.stats.by_type
        # Wire types from all three algorithms appear in one aggregate bill.
        assert any(name.startswith("WRITE") or name == "READ" for name in by_type)
        assert any(name.startswith("ABD_") for name in by_type)
        assert any(name.startswith("MWABD_") for name in by_type)

    def test_mixed_workload_is_deterministic(self):
        spec = kv_mixed(num_ops=120, seed=9)
        first = run_kv_workload(spec)
        second = run_kv_workload(spec)
        signature = lambda result: [
            (op.op_id, op.kind.value, op.key, op.value, op.responded_at)
            for op in result.completed_ops()
        ]
        assert signature(first) == signature(second)


class TestStoreCoalescing:
    def test_default_on_and_toggleable_via_spec(self):
        spec = KVWorkloadSpec(num_ops=0)
        assert spec.coalesce
        assert not spec.with_(coalesce=False).store_config().coalesce

    def test_coalescing_cuts_heap_events_but_not_logical_messages(self):
        base = KVWorkloadSpec(
            num_keys=8,
            num_ops=120,
            read_fraction=0.5,
            algorithm="two-bit",
            num_shards=2,
            replication=5,
            delay_model=FixedDelay(1.0),
            seed=4,
        )
        on = run_kv_workload(base)
        off = run_kv_workload(base.with_(coalesce=False))
        on.check_atomicity()
        off.check_atomicity()
        assert on.store.stats.messages_coalesced > 0
        assert off.store.stats.messages_coalesced == 0
        assert on.store.simulator.executed_events < off.store.simulator.executed_events
        # Same completions, same virtual makespan: coalescing changes the
        # event count, never delivery times or operation outcomes.
        assert len(on.completed_ops()) == len(off.completed_ops()) == 120
        assert on.virtual_makespan == pytest.approx(off.virtual_makespan)

    def test_per_operation_message_attribution_unchanged(self):
        base = KVWorkloadSpec(
            num_keys=4,
            num_ops=80,
            read_fraction=0.5,
            algorithm="abd",
            num_shards=2,
            replication=3,
            delay_model=FixedDelay(1.0),
            seed=8,
        )
        on = run_kv_workload(base)
        off = run_kv_workload(base.with_(coalesce=False))
        assert on.total_messages() == off.total_messages()
        assert on.store.stats.by_type == off.store.stats.by_type
        assert on.metrics["messages"]["total"] == off.metrics["messages"]["total"]
        assert on.metrics["messages"]["by_type"] == off.metrics["messages"]["by_type"]
