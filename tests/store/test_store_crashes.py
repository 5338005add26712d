"""Store behaviour under server crashes: budgets, crash domains, liveness."""

import pytest

from repro.cli import main
from repro.store import create_store
from repro.workloads.kv import (
    CrashPoint,
    deploy_store,
    drive_script,
    iter_kv_script,
    run_kv_workload,
)
from repro.workloads.scenarios import kv_uniform


class TestCrashBudget:
    def test_minority_budget_enforced_per_shard(self):
        store = create_store(num_shards=2, replication=3)
        store.crash_server(0, 1)
        with pytest.raises(ValueError, match="tolerated minority"):
            store.crash_server(0, 2)
        # The budget is per shard: shard 1 still has its own allowance.
        store.crash_server(1, 2)

    def test_replication_two_tolerates_no_crash(self):
        store = create_store(num_shards=1, replication=2)
        with pytest.raises(ValueError, match="tolerated minority"):
            store.crash_server(0, 1)

    def test_writer_replica_needs_explicit_opt_in(self):
        store = create_store(num_shards=1, replication=3)
        with pytest.raises(ValueError, match="writer"):
            store.crash_server(0, 0)
        store.crash_server(0, 0, allow_writer=True)

    def test_out_of_range_arguments(self):
        store = create_store(num_shards=2, replication=3)
        with pytest.raises(ValueError, match="shard"):
            store.crash_server(5, 1)
        with pytest.raises(ValueError, match="replica"):
            store.crash_server(0, 7)

    def test_crash_is_idempotent(self):
        store = create_store(num_shards=1, replication=3)
        store.crash_server(0, 1)
        store.crash_server(0, 1)  # no error, no extra budget consumed
        assert store.shards[0].crashed_replicas == {1}


class TestCrashDomain:
    def test_crash_hits_every_register_on_the_shard(self):
        store = create_store(num_shards=1, replication=3)
        store.put("a", "1")
        store.put("b", "2")
        store.crash_server(0, 1)
        for key in ("a", "b"):
            assert store.register_for(key).processes[1].crashed

    def test_registers_deployed_after_crash_are_born_degraded(self):
        store = create_store(num_shards=1, replication=3)
        store.crash_server(0, 2)
        store.put("late-key", "x")
        assert store.register_for("late-key").processes[2].crashed
        assert store.get("late-key") == "x"

    def test_store_keeps_serving_after_minority_crash(self):
        store = create_store(num_shards=2, replication=5)
        store.put("k", "before")
        store.crash_server(store.placement("k").shard, 1)
        store.crash_server(store.placement("k").shard, 3)
        store.put("k", "after")
        assert store.get("k") == "after"
        store.check_atomicity()

    def test_reads_avoid_crashed_replicas(self):
        store = create_store(num_shards=1, replication=3)
        store.put("k", "v1")
        store.crash_server(0, 1)
        for _ in range(4):
            op = store.submit_get("k")
            store.drive()
            assert op.pid != 1


class TestCrashPoints:
    def test_crash_plan_mid_workload_stays_atomic(self):
        # Acceptance-style scenario: one non-writer replica of every shard
        # dies mid-run; surviving majorities keep every key linearizable.
        spec = kv_uniform(num_keys=16, num_ops=400, num_shards=4, replication=3, seed=11).with_(
            crash_points=tuple(
                CrashPoint(at_time=5.0 + shard, shard=shard, replica=1) for shard in range(4)
            )
        )
        result = run_kv_workload(spec)
        report = result.check_atomicity()
        assert report.ok
        # The overwhelming majority completes; only operations in flight on
        # the crashed replicas may fail, and they fail loudly.
        assert len(result.completed_ops()) >= 380
        for op in result.failed_ops():
            assert op.failure_reason

    def test_in_flight_op_on_crashed_replica_fails_cleanly(self):
        store = create_store(num_shards=1, replication=3)
        store.put("k", "v1")
        pinned = store.submit_get("k", replica=1)
        store.crash_server_at(0.5, 0, 1)
        store.drive()
        assert pinned.failed
        assert "p1" in pinned.failure_reason
        # The store as a whole is unaffected.
        assert store.get("k") == "v1"
        store.check_atomicity()

    def test_failed_ops_never_count_as_completed(self):
        store = create_store(num_shards=1, replication=3)
        store.crash_server(0, 1)
        op = store.submit_get("k", replica=1)  # pinned to the dead replica
        store.drive()
        assert op.failed and not op.completed
        assert op in store.failed_ops()
        assert op not in store.completed_ops()

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_a_message_count_point_lands_on_the_kth_send(self, k):
        """``after_messages_sent`` on a store counts the replica *index*.

        The count is ``NetworkStats.per_sender[replica]``, which every
        subnet of the store shares: the sends of that replica index summed
        over every key (and shard) — on a one-key store, the process's own
        sends.  Here one shard holds four keys, so the k-th send of replica
        2 on any key crashes replica 2 of every key, mid-step.
        """
        spec = kv_uniform(num_keys=4, num_ops=60, algorithm="two-bit", num_shards=1, seed=3)
        point = CrashPoint(shard=0, replica=2, after_messages_sent=k)
        store = deploy_store(spec.store_config(), crash_points=(point,))
        crashed_at_send = []
        stats = store.stats

        def observe(src, _dst, _message):  # runs after the trigger's own hook
            if src == 2:
                crashed_at_send.append((stats.per_sender[2], 2 in store.shards[0].crashed_replicas))

        store.network.add_send_hook(observe)
        # batch_size 64 > 60 ops: the whole script is one window, one drive.
        drive_script(store, iter_kv_script(spec, ()), spec.open_loop, spec.batch_size)
        # Sends 1 .. k-1 leave it alive, the k-th crashes it, nothing follows.
        assert crashed_at_send == [(i, i == k) for i in range(1, k + 1)]
        assert stats.per_sender[2] == k
        assert store.check_atomicity().ok


class TestInvalidCrashPoints:
    """Invalid points are refused when the spec is built, not mid-run."""

    @pytest.mark.parametrize(
        "point",
        [
            CrashPoint(shard=0, replica=7, at_time=1.0),
            CrashPoint(shard=9, replica=1, at_time=1.0),
            CrashPoint(shard=0, replica=1, at_time=-1.0),
        ],
        ids=["replica-7-of-3", "shard-9-of-4", "negative-time"],
    )
    def test_spec_rejects_the_point(self, point):
        with pytest.raises(ValueError):
            kv_uniform(num_ops=100).with_(crash_points=(point,))

    def test_spec_rejects_two_points_on_one_shard(self):
        points = tuple(CrashPoint(shard=0, replica=r, at_time=1.0) for r in (1, 2))
        with pytest.raises(ValueError, match="t < n/2"):
            kv_uniform(num_ops=100).with_(crash_points=points)

    def test_message_count_points_stay_serial(self):
        # Shard-parallel workers would each count only their own shards' sends.
        point = CrashPoint(shard=0, replica=1, after_messages_sent=3)
        spec = kv_uniform(num_ops=100).with_(crash_points=(point,))
        with pytest.raises(ValueError, match="shard-parallel"):
            spec.with_(workers=2)

    def test_store_cli_exits_2_on_a_point_the_geometry_cannot_take(self, capsys):
        assert main(["store", "--ops", "10", "--replication", "2", "--crashes", "1"]) == 2
        assert "t < n/2" in capsys.readouterr().err
