"""ShardMap.shard_groups: the deterministic partition the engine relies on."""

import pytest

from repro.store.shardmap import ShardMap


class TestShardGroups:
    def test_groups_partition_the_shards(self):
        shard_map = ShardMap(num_shards=10)
        groups = shard_map.shard_groups(3)
        assert len(groups) == 3
        seen = [shard for group in groups for shard in group]
        assert sorted(seen) == list(range(10))
        assert len(seen) == len(set(seen)), "groups must be disjoint"

    def test_round_robin_deal_is_deterministic_and_stable(self):
        shard_map = ShardMap(num_shards=7)
        assert shard_map.shard_groups(2) == ((0, 2, 4, 6), (1, 3, 5))
        assert shard_map.shard_groups(2) == shard_map.shard_groups(2)
        # Replication must not affect the deal.
        assert ShardMap(num_shards=7, replication=5).shard_groups(2) == (
            (0, 2, 4, 6),
            (1, 3, 5),
        )

    def test_single_group_owns_everything(self):
        assert ShardMap(num_shards=4).shard_groups(1) == ((0, 1, 2, 3),)

    def test_more_groups_than_shards_yields_empty_groups(self):
        groups = ShardMap(num_shards=2).shard_groups(4)
        assert groups == ((0,), (1,), (), ())

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError, match="at least one group"):
            ShardMap(num_shards=4).shard_groups(0)

    def test_every_key_lands_in_exactly_one_group(self):
        shard_map = ShardMap(num_shards=6)
        groups = shard_map.shard_groups(4)
        for key in (f"key-{i}" for i in range(50)):
            owners = [
                index
                for index, group in enumerate(groups)
                if shard_map.shard_of(key) in group
            ]
            assert len(owners) == 1, key
