"""Shared helpers for substrate tests."""

from __future__ import annotations

from typing import Any

import pytest

from repro.sim.network import Network
from repro.transport.runtime import ProcessBase as Process
from repro.sim.scheduler import Simulator
from repro.sim.tracing import Tracer


class RecorderProcess(Process):
    """A process that records every delivered message (used by substrate tests)."""

    def __init__(self, pid, simulator, network):
        super().__init__(pid, simulator, network)
        self.received: list[tuple[int, Any]] = []

    def on_message(self, src: int, message: Any) -> None:
        self.received.append((src, message))
        self._scan_due = True  # guards registered by tests read `received`


class EchoProcess(RecorderProcess):
    """Records messages and echoes string messages back with an ``"echo:"`` prefix."""

    def on_message(self, src: int, message: Any) -> None:
        super().on_message(src, message)
        if isinstance(message, str) and not message.startswith("echo:"):
            self.send(src, f"echo:{message}")


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(tracer=Tracer(enabled=True))


@pytest.fixture
def network(simulator: Simulator) -> Network:
    return Network(simulator, record_messages=True)


def build_recorders(simulator: Simulator, network: Network, n: int) -> list[RecorderProcess]:
    """Create ``n`` RecorderProcess instances registered on ``network``."""
    return [RecorderProcess(pid, simulator, network) for pid in range(n)]
