"""Hash-based key → shard placement for the multi-key store.

A :class:`ShardMap` is a pure, frozen description of how keys are placed on
the store's server fleet: ``num_shards`` shard groups, each made of
``replication`` virtual servers, with keys assigned to shards by a *stable*
hash (SHA-256 based, so placement is independent of ``PYTHONHASHSEED`` and
identical across runs, processes and Python versions — the same determinism
contract the rest of the simulator follows, see :mod:`repro.sim.rng`).

Placement is the only coupling between keys: two keys on the same shard share
a crash domain (crashing replica ``i`` of a shard crashes replica ``i`` of
every register hosted there), while keys on different shards share nothing
but the virtual clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable


def stable_key_hash(key: object) -> int:
    """A 64-bit hash of ``key`` that is stable across processes and versions.

    Python's builtin ``hash`` is salted per-process for strings, which would
    make placement non-reproducible; this helper hashes ``repr(key)`` with
    SHA-256 instead (the same trick :func:`repro.sim.rng.derive_seed` uses).
    The ``b"0\x1f"`` prefix keeps every digest what it has always been.
    """
    digest = hashlib.sha256(b"0\x1f")
    digest.update(repr(key).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


@dataclass(frozen=True)
class Placement:
    """Where one key lives: its shard id and the global ids of its replicas."""

    key: object
    shard: int
    servers: tuple[int, ...]


@dataclass(frozen=True)
class ShardMap:
    """Key → shard-group placement.

    Attributes
    ----------
    num_shards:
        Number of shard groups.
    replication:
        Servers per shard group; each key's register deploys one process per
        server of its shard.  Must be at least 2 (a message-passing register
        needs a peer) and tolerates ``(replication - 1) // 2`` crashes.

    A key's shard is :func:`stable_key_hash` modulo ``num_shards``.
    """

    num_shards: int = 4
    replication: int = 3

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"need at least one shard, got {self.num_shards}")
        if self.replication < 2:
            raise ValueError(
                f"replication must be >= 2 (a message-passing register needs a "
                f"peer), got {self.replication}"
            )

    # ------------------------------------------------------------- geometry

    @property
    def max_faulty_per_shard(self) -> int:
        """Crashes each shard tolerates: the largest ``t`` with ``t < replication/2``."""
        return (self.replication - 1) // 2

    def shard_groups(self, n_groups: int) -> tuple[tuple[int, ...], ...]:
        """Partition shard ids into ``n_groups`` disjoint, deterministic groups.

        Group ``g`` gets shards ``g, g + n_groups, g + 2*n_groups, ...`` —
        plain round-robin over shard ids, so the partition depends only on
        ``num_shards`` and ``n_groups`` (never on hashing, platform or run).
        This is the unit of parallelism for :mod:`repro.parallel`: shards are
        independent crash domains, so any grouping of whole shards preserves
        every coupling the store has.  Groups may be empty when
        ``n_groups > num_shards``; the union is always exactly
        ``range(num_shards)``.
        """
        if n_groups < 1:
            raise ValueError(f"need at least one group, got {n_groups}")
        return tuple(
            tuple(range(group, self.num_shards, n_groups)) for group in range(n_groups)
        )

    def servers_of(self, shard: int) -> tuple[int, ...]:
        """Global server ids of ``shard``'s replicas."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        base = shard * self.replication
        return tuple(range(base, base + self.replication))

    # ------------------------------------------------------------ placement

    def shard_of(self, key: object) -> int:
        """The shard ``key`` is placed on (deterministic, uniform in expectation)."""
        return stable_key_hash(key) % self.num_shards

    def placement(self, key: object) -> Placement:
        """Full placement of ``key``: shard plus replica server ids."""
        shard = self.shard_of(key)
        return Placement(key=key, shard=shard, servers=self.servers_of(shard))

    def histogram(self, keys: Iterable[object]) -> dict[int, int]:
        """Keys-per-shard counts (every shard present, possibly with 0)."""
        counts = {shard: 0 for shard in range(self.num_shards)}
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts
