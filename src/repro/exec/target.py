"""Routing: which sequential process executes a store operation.

:class:`StoreTarget` answers the driver's one routing question for a sharded
multi-key :class:`~repro.store.store.KVStore` placement: a pinned replica
serves its request; otherwise writes go to the key's writer replica and reads
round-robin over the key's live replicas.  A single register is the one-key
store, addressed the same way (``OpRequest(key=..., replica=pid)``).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.registers.base import OperationKind, RegisterProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import KVStore

# Bound once: looking a member up on the enum class runs EnumType's
# ``__getattr__`` hook, which routing would pay per operation.
_WRITE = OperationKind.WRITE


@dataclass(frozen=True)
class OpRequest:
    """A routing request: the key, and optionally the replica pinned to serve it."""

    kind: OperationKind
    key: Any = None
    replica: Optional[int] = None


@functools.lru_cache(maxsize=4096, typed=True)
def interned_request(kind: OperationKind, key: Any, replica: Optional[int]) -> OpRequest:
    """The one :class:`OpRequest` for ``(kind, key, replica)``, built on first use.

    Scripts and the store's ``submit_*`` route these instead of building a
    request per operation.  Sharing is unobservable: a request is immutable,
    ``typed`` keeps ``1`` and ``1.0`` apart, and the bound keeps a huge key
    space from growing the table for the life of the process.
    """
    return OpRequest(kind, key, replica)


class StoreTarget:
    """A sharded multi-key store addressed by key.

    ``request.replica`` pins the replica serving a request (a multi-writer
    register's writes reach their process that way); otherwise writes go to
    the key's writer replica and reads round-robin over the key's live
    replicas.  Registers are deployed lazily on first access, exactly like
    the store's own facade.

    The store owns its target, so the target holds the store weakly: the
    pair is no reference cycle, and a dropped store is freed at once.
    """

    def __init__(self, store: "KVStore") -> None:
        self._store = weakref.ref(store)

    def route(self, request: OpRequest) -> RegisterProcess:
        if request.key is None:
            raise ValueError("store targets route by key; request.key is required")
        store = self._store()
        if store is None:
            raise ReferenceError("the store this target routed for was dropped")
        deployment = store.register_for(request.key)
        replica = request.replica
        if replica is None:
            if request.kind is _WRITE:
                return deployment.processes[deployment.writer_index]
            return store.pick_reader(deployment)
        replication = store.config.replication
        if not 0 <= replica < replication:
            raise ValueError(f"replica {replica} out of range for replication {replication}")
        return deployment.processes[replica]
