"""Routing: which sequential process executes a store operation.

:class:`StoreTarget` answers the driver's one routing question for a sharded
multi-key :class:`~repro.store.store.KVStore` placement: writes go to the
key's writer replica, reads round-robin over the key's live replicas (or a
pinned replica).  A single register is the one-key store, addressed the same
way (``OpRequest(key=..., replica=pid)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.registers.base import OperationKind, RegisterProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import KVStore


@dataclass(frozen=True)
class OpRequest:
    """A routing request: the key, and optionally the replica pinned to serve it."""

    kind: OperationKind
    key: Any = None
    replica: Optional[int] = None


class StoreTarget:
    """A sharded multi-key store addressed by key.

    Writes go to the key's writer replica; reads round-robin over the key's
    live replicas unless ``request.replica`` pins one.  Registers are
    deployed lazily on first access, exactly like the store's own facade.
    """

    def __init__(self, store: "KVStore") -> None:
        self.store = store

    def route(self, request: OpRequest) -> RegisterProcess:
        if request.key is None:
            raise ValueError("store targets route by key; request.key is required")
        deployment = self.store.register_for(request.key)
        if request.kind is OperationKind.WRITE:
            return deployment.processes[deployment.writer_index]
        if request.replica is not None:
            replication = self.store.config.replication
            if not 0 <= request.replica < replication:
                raise ValueError(
                    f"replica {request.replica} out of range for replication {replication}"
                )
            return deployment.processes[request.replica]
        return self.store.pick_reader(deployment)
