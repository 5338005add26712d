"""Shard-placement determinism and geometry of :class:`repro.store.shardmap.ShardMap`."""

import pytest

from repro.store.shardmap import Placement, ShardMap, stable_key_hash


class TestStableKeyHash:
    def test_deterministic_across_instances(self):
        assert stable_key_hash("user:42") == stable_key_hash("user:42")
        assert stable_key_hash(("tuple", 7)) == stable_key_hash(("tuple", 7))

    def test_known_value_is_stable(self):
        # Pin concrete values: placement must never silently change between
        # versions (it would reshuffle every persisted experiment).
        assert stable_key_hash("k0000") == 5816290344423855654
        assert stable_key_hash("user:42") == 16334669068124125502
        assert stable_key_hash(("tuple", 7)) == 6655185317448584507


class TestShardMapGeometry:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardMap(num_shards=0)
        with pytest.raises(ValueError, match="replication"):
            ShardMap(num_shards=2, replication=1)

    def test_servers_and_budget(self):
        shard_map = ShardMap(num_shards=3, replication=3)
        assert shard_map.num_shards * shard_map.replication == 9
        assert shard_map.max_faulty_per_shard == 1
        assert shard_map.servers_of(0) == (0, 1, 2)
        assert shard_map.servers_of(2) == (6, 7, 8)
        with pytest.raises(ValueError, match="out of range"):
            shard_map.servers_of(3)

    def test_replication_two_tolerates_nothing(self):
        assert ShardMap(num_shards=2, replication=2).max_faulty_per_shard == 0


class TestPlacement:
    def test_deterministic_across_instances(self):
        keys = [f"k{i}" for i in range(200)]
        first = ShardMap(num_shards=8, replication=3)
        second = ShardMap(num_shards=8, replication=3)
        assert [first.shard_of(k) for k in keys] == [second.shard_of(k) for k in keys]

    def test_shards_in_range(self):
        shard_map = ShardMap(num_shards=5, replication=3)
        for i in range(500):
            assert 0 <= shard_map.shard_of(f"key-{i}") < 5

    def test_placement_object(self):
        shard_map = ShardMap(num_shards=4, replication=3)
        placement = shard_map.placement("user:1")
        assert isinstance(placement, Placement)
        assert placement.shard == shard_map.shard_of("user:1")
        assert placement.servers == shard_map.servers_of(placement.shard)

    def test_roughly_balanced(self):
        shard_map = ShardMap(num_shards=8, replication=3)
        histogram = shard_map.histogram(f"key-{i}" for i in range(2000))
        assert set(histogram) == set(range(8))
        average = 2000 / 8
        for shard, count in histogram.items():
            assert count > 0, f"shard {shard} got no keys"
            assert count < 2 * average, f"shard {shard} got {count} of 2000 keys"

    def test_known_placement_is_stable(self):
        shard_map = ShardMap(4, 3)
        assert [shard_map.shard_of(f"k{i:04d}") for i in range(8)] == [2, 1, 0, 3, 2, 2, 0, 3]

    def test_histogram_covers_empty_shards(self):
        shard_map = ShardMap(num_shards=16, replication=3)
        histogram = shard_map.histogram(["only-one-key"])
        assert sum(histogram.values()) == 1
        assert len(histogram) == 16
