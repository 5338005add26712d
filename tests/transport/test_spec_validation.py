"""Transport selection on KVWorkloadSpec: validation and dispatch."""

import pytest

from repro.store.store import StoreConfig
from repro.workloads.scenarios import kv_uniform


class TestSpecTransportField:
    def test_default_is_sim(self):
        spec = kv_uniform(num_keys=4, num_ops=10)
        assert spec.transport == "sim"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            kv_uniform(num_keys=4, num_ops=10).with_(transport="udp")

    def test_the_store_config_is_the_same_on_either_backend(self):
        spec = kv_uniform(num_keys=4, num_ops=10)
        assert spec.with_(transport="live").store_config() == spec.store_config()

    def test_the_spec_validates_workers_on_either_backend(self):
        for transport in ("sim", "live"):
            with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
                kv_uniform(num_keys=4, num_ops=10).with_(transport=transport, workers=0)

    def test_a_store_config_names_no_backend_or_worker_count(self):
        # Backend and process count are the spec's; a StoreConfig is one
        # simulated deployment.
        for field in ("transport", "workers"):
            with pytest.raises(TypeError, match=field):
                StoreConfig(**{field: "live" if field == "transport" else 2})

    def test_live_takes_workers_as_client_processes(self):
        spec = kv_uniform(num_keys=4, num_ops=10).with_(transport="live", workers=4)
        assert spec.workers == 4

    def test_live_rejects_the_other_sim_only_knobs(self):
        # The spec is the one place that decides what the live backend
        # rejects; the CLI and the runners carry no list of their own.
        base = kv_uniform(num_keys=4, num_ops=10, num_shards=2)
        for changes in (
            dict(coalesce=False),
            dict(shard_algorithms=("abd", "two-bit")),
        ):
            with pytest.raises(ValueError, match="simulated-only"):
                base.with_(transport="live", **changes)

    def test_there_is_no_wire_codec_to_choose(self):
        with pytest.raises(TypeError, match="codec"):
            kv_uniform(num_keys=4, num_ops=10).with_(transport="live", codec="json")

    @pytest.mark.parametrize(
        "changes, match",
        [
            (dict(algorithm="raft"), "unknown algorithm 'raft'"),
            (dict(num_shards=2, shard_algorithms=("abd", "paxos")), "unknown algorithm 'paxos'"),
            (dict(arrival="poisson"), "positive arrival_rate"),
            (dict(slo_p99=0.0), "slo_p99 must be positive"),
        ],
    )
    def test_what_a_load_run_needs_is_checked_on_either_backend(self, changes, match):
        for transport in ("sim", "live"):
            with pytest.raises(ValueError, match=match):
                kv_uniform(num_keys=4, num_ops=10).with_(transport=transport, **changes)

    def test_live_takes_crash_points_with_their_shards_folded(self):
        from repro.workloads.kv import CrashPoint

        base = kv_uniform(num_keys=4, num_ops=10, num_shards=4, replication=5)
        one = CrashPoint(at_time=1.0, shard=0, replica=1)
        spec = base.with_(transport="live", crash_points=(one,))
        assert spec.crash_points == (one,)
        # After a message count, at any number of client processes.
        counted = CrashPoint(after_messages_sent=9, shard=2, replica=2)
        assert base.with_(transport="live", workers=2, crash_points=(counted,)).workers == 2
        # One live process serves every shard: it cannot crash twice, and
        # two points on different shards are two of the t processes.
        twice = (one, CrashPoint(at_time=2.0, shard=1, replica=1))
        base.with_(crash_points=twice)  # two servers on the simulator
        with pytest.raises(ValueError, match="one live process serves every shard"):
            base.with_(transport="live", crash_points=twice)
        three = tuple(CrashPoint(at_time=1.0, shard=s, replica=s + 1) for s in range(3))
        base.with_(crash_points=three)
        with pytest.raises(ValueError, match=r"serves every shard: .* at most t = 2"):
            base.with_(transport="live", crash_points=three)

    def test_a_message_count_needs_one_shard_group_on_the_simulator_only(self):
        from repro.workloads.kv import CrashPoint

        counted = (CrashPoint(after_messages_sent=9, shard=0, replica=1),)
        base = kv_uniform(num_keys=4, num_ops=10, num_shards=2).with_(crash_points=counted)
        with pytest.raises(ValueError, match="shard-parallel worker"):
            base.with_(workers=2)
        assert base.with_(workers=2, num_shards=1).workers == 2  # one group: one count
        assert base.with_(workers=2, transport="live").workers == 2

    def test_live_rejects_fault_plans(self):
        from repro.faults.partitions import PartitionSchedule, PartitionWindow
        from repro.faults.plan import FaultPlan

        window = PartitionWindow.isolate((2,), 3, start=1.0, heal=2.0)
        plan = FaultPlan(name="test", link_policies=(PartitionSchedule(windows=(window,)),))
        with pytest.raises(ValueError, match="simulated-only"):
            kv_uniform(num_keys=4, num_ops=10).with_(transport="live", fault_plan=plan)

    def test_either_backend_needs_a_real_replica_set(self):
        # Geometry is validated by the spec itself (it used to surface only
        # when the store / the live runner was built).
        for transport in ("sim", "live"):
            with pytest.raises(ValueError, match="replication must be >= 2"):
                kv_uniform(num_keys=4, num_ops=10).with_(replication=1, transport=transport)

