"""Sharded multi-key register store.

The paper's algorithm implements one atomic register; this package scales
that building block out to a keyed store:

* :mod:`repro.store.shardmap` — deterministic hash-based key → shard-group
  placement (:class:`ShardMap`);
* :mod:`repro.store.store` — the :class:`KVStore` facade composing one
  register deployment per key (any algorithm from the registry) on a single
  shared simulator, with a batched asynchronous client driver and per-key
  atomicity checking.

Keyed workloads for the store live in :mod:`repro.workloads.kv`
(``kv_uniform`` / ``kv_zipfian`` scenarios), the CLI exposes it as
``repro store ...``, and the ``twobit_reads`` / ``abd_openloop`` workloads of
``benchmarks/e2e`` measure its batched and open-loop drivers.
"""

from repro.store.shardmap import Placement, ShardMap, stable_key_hash
from repro.store.store import (
    KVStore,
    KeyRegister,
    StoreConfig,
    StoreOp,
    StoreShard,
    create_store,
)

__all__ = [
    "KVStore",
    "KeyRegister",
    "Placement",
    "ShardMap",
    "StoreConfig",
    "StoreOp",
    "StoreShard",
    "create_store",
    "stable_key_hash",
]
