"""The :class:`repro.store.store.KVStore` facade: blocking ops, batching, atomicity."""

import pytest

import repro
from repro.registers.base import OperationKind
from repro.sim.delays import UniformDelay
from repro.store import KVStore, StoreConfig, create_store
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_uniform


class TestBlockingFacade:
    def test_put_then_get(self):
        store = create_store(num_shards=4, replication=3)
        store.put("user:7", "alice")
        assert store.get("user:7") == "alice"

    def test_unwritten_key_returns_initial_value(self):
        store = create_store()
        assert store.get("never-written") == "v0"

    def test_keys_are_independent(self):
        store = create_store(num_shards=4)
        store.put("a", "1")
        store.put("b", "2")
        assert store.get("a") == "1"
        assert store.get("b") == "2"

    def test_every_algorithm_works_as_backend(self):
        for algorithm in ("two-bit", "abd", "abd-mwmr"):
            store = create_store(algorithm=algorithm, num_shards=2, replication=3)
            store.put("k", "x")
            assert store.get("k") == "x", algorithm

    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(KeyError, match="unknown register algorithm"):
            create_store(algorithm="no-such-algorithm")

    def test_create_store_takes_every_config_field(self):
        store = create_store(num_shards=2, max_virtual_time=7.5, coalesce=False)
        assert store.config == StoreConfig(num_shards=2, max_virtual_time=7.5, coalesce=False)
        with pytest.raises(TypeError):
            create_store(replicas=3)

    def test_top_level_exports(self):
        assert callable(repro.create_store)
        assert repro.KVStore is KVStore
        assert repro.StoreConfig is StoreConfig


class TestLazyDeployment:
    def test_registers_deployed_on_first_use(self):
        store = create_store(num_shards=4, replication=3)
        assert store.deployed_keys == []
        store.put("x", "1")
        assert store.deployed_keys == ["x"]
        store.submit_get("y")
        assert store.deployed_keys == ["x", "y"]

    def test_deployment_matches_shard_map(self):
        store = create_store(num_shards=4, replication=3)
        deployment = store.register_for("user:1")
        assert deployment.placement == store.shard_map.placement("user:1")
        assert len(deployment.processes) == 3
        assert deployment in store.shards[deployment.placement.shard].registers

    def test_subnets_are_isolated(self):
        store = create_store(num_shards=1, replication=3)
        first = store.register_for("a")
        second = store.register_for("b")
        # Same shard, same local pids — but disjoint memberships.
        assert first.subnet is not second.subnet
        assert first.subnet.process_ids == [0, 1, 2]
        assert second.subnet.process_ids == [0, 1, 2]
        assert first.processes[0] is not second.processes[0]
        # Quorum arithmetic sees the subnet, not the whole fleet.
        assert first.processes[0].n == 3

    def test_stats_are_aggregated_across_subnets(self):
        store = create_store(num_shards=2, replication=3)
        store.put("a", "1")
        after_first = store.total_messages()
        store.put("b", "2")
        assert store.total_messages() > after_first
        assert store.stats is store.network.stats


class TestBatchedDriver:
    def test_batch_completes_and_preserves_per_key_order(self):
        store = create_store(num_shards=4, replication=3)
        first = store.submit_put("k", "v1")
        second = store.submit_put("k", "v2")
        read = store.submit_get("other")
        assert store.outstanding == 3
        assert store.drive() is True
        assert store.outstanding == 0
        assert first.completed and second.completed and read.completed
        # Writes to one key are sequential in submission order, so the final
        # state is the last submitted write.
        assert store.get("k") == "v2"

    def test_large_mixed_batch(self):
        store = create_store(num_shards=4, replication=3)
        puts = [store.submit_put(f"key-{i % 10}", f"key-{i % 10}=v{i // 10 + 1}") for i in range(50)]
        gets = [store.submit_get(f"key-{i % 10}") for i in range(50)]
        assert store.drive() is True
        assert all(op.completed for op in puts + gets)
        store.check_atomicity()

    def test_batched_overlaps_operations_in_virtual_time(self):
        # The hot-path claim: a batch of independent operations takes about
        # one operation's latency, not the sum of them.
        batched = create_store(num_shards=4, replication=3)
        for i in range(20):
            batched.submit_put(f"key-{i}", "x")
        batched.drive()
        per_op = create_store(num_shards=4, replication=3)
        for i in range(20):
            per_op.put(f"key-{i}", "x")
        assert batched.simulator.now < per_op.simulator.now / 4

    def test_a_blocking_call_refuses_an_unfinished_op(self):
        store = KVStore(StoreConfig(max_virtual_time=0.5))  # under one message delay
        with pytest.raises(RuntimeError, match=r"put\('k'\) has not completed"):
            store.put("k", "v1")
        (op,) = store.ops
        store.drive(limit=100.0)
        assert op.completed and op.kind is OperationKind.WRITE
        assert op.value == "v1" and op.result is None  # a write returns nothing

    def test_reads_round_robin_over_replicas(self):
        store = create_store(num_shards=1, replication=3)
        store.put("k", "v1")
        pids = set()
        for _ in range(6):
            op = store.submit_get("k")
            store.drive()
            pids.add(op.pid)
        assert len(pids) > 1  # reads spread over replicas

    def test_pinned_replica_read(self):
        store = create_store(num_shards=1, replication=3)
        store.put("k", "v1")
        op = store.submit_get("k", replica=2)
        store.drive()
        assert op.pid == 2
        assert op.result == "v1"


class TestPerKeyAtomicity:
    def test_mixed_workload_every_key_atomic(self):
        result = run_kv_workload(kv_uniform(num_keys=12, num_ops=300, seed=13))
        report = result.check_atomicity()
        assert report.ok
        assert report.keys_checked > 0
        assert len(result.completed_ops()) == 300

    def test_acceptance_1000_ops_across_4_shards(self):
        # Acceptance criterion: per-key linearizability on a 1000-op mixed
        # keyed workload across >= 4 shards.
        spec = kv_uniform(
            num_keys=32, num_ops=1000, read_fraction=0.8, num_shards=4, replication=3, seed=17
        )
        result = run_kv_workload(spec)
        assert len(result.completed_ops()) == 1000
        report = result.check_atomicity()
        assert report.ok
        # All four shards actually hosted keys.
        shards_used = {result.store.placement(key).shard for key in result.store.deployed_keys}
        assert shards_used == {0, 1, 2, 3}

    def test_histories_are_per_key(self):
        store = create_store()
        store.put("a", "a=v1")
        store.put("b", "b=v1")
        store.get("a")
        history = store.history("a")
        assert len(history) == 2  # one write + one read, not b's operations
        assert {op.pid for op in history} <= {0, 1, 2}

    def test_determinism_same_config_same_run(self):
        spec = kv_uniform(num_keys=8, num_ops=200, seed=21)
        first = run_kv_workload(spec)
        second = run_kv_workload(spec)
        assert first.total_messages() == second.total_messages()
        assert first.virtual_makespan == second.virtual_makespan
        assert [op.key for op in first.ops] == [op.key for op in second.ops]

    def test_random_delays_still_atomic(self):
        store = KVStore(
            StoreConfig(num_shards=4, replication=3, delay_model=UniformDelay(0.1, 2.0, seed=3))
        )
        for i in range(30):
            store.submit_put(f"key-{i % 5}", f"key-{i % 5}=v{i // 5 + 1}")
            store.submit_get(f"key-{(i + 2) % 5}")
        store.drive()
        store.check_atomicity()
