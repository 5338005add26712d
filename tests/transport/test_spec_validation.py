"""Transport selection on KVWorkloadSpec / StoreConfig: validation and dispatch."""

import pytest

from repro.store.store import KVStore, StoreConfig
from repro.workloads.scenarios import kv_uniform


class TestSpecTransportField:
    def test_default_is_sim(self):
        spec = kv_uniform(num_keys=4, num_ops=10)
        assert spec.transport == "sim"
        assert spec.store_config().transport == "sim"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            kv_uniform(num_keys=4, num_ops=10).with_(transport="udp")

    def test_live_carries_through_to_store_config(self):
        spec = kv_uniform(num_keys=4, num_ops=10).with_(transport="live")
        assert spec.store_config().transport == "live"

    def test_live_takes_workers_as_client_processes(self):
        spec = kv_uniform(num_keys=4, num_ops=10).with_(transport="live", workers=4)
        assert spec.store_config().workers == 4

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

    def test_live_rejects_crash_points(self):
        from repro.workloads.kv import CrashPoint

        with pytest.raises(ValueError, match="simulated-only"):
            kv_uniform(num_keys=4, num_ops=10).with_(
                transport="live", crash_points=(CrashPoint(at_time=1.0, shard=0, replica=1),)
            )

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


class TestStoreConfigTransportField:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            StoreConfig(transport="quic")

    def test_kvstore_refuses_live_configs(self):
        # KVStore is the simulated deployment; live runs go through
        # repro.transport.live.run_live_workload instead.
        with pytest.raises(ValueError, match="simulated deployment"):
            KVStore(StoreConfig(transport="live"))
