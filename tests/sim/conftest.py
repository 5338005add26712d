"""Shared helpers for substrate tests.

:class:`GuardList` is the generic wait mechanism processes used to carry —
``(predicate, action)`` guards, re-evaluated to a fixpoint by
``check_guards`` — kept here for the oracles that compare a process's own
waits with it (the two-bit closure-guard process, the polled quorum engine)
and for the substrate tests that need some wait to fire.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import pytest

from repro.sim.network import Network
from repro.transport.runtime import ProcessBase as Process, render_label
from repro.sim.scheduler import Simulator


class Guard:
    """A pending wait: ``action`` fires once when ``predicate`` becomes true.

    ``label`` is a string or a lazy ``(format, *args)`` tuple.
    """

    __slots__ = ("predicate", "action", "_label", "fired")

    def __init__(
        self, predicate: Callable[[], bool], action: Callable[[], None], label: Any = ""
    ) -> None:
        self.predicate = predicate
        self.action = action
        self._label = label
        self.fired = False

    @property
    def label(self) -> str:
        return render_label(self._label)


class GuardList:
    """Mixin (before the process class): a generic list of guards on the process."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._guards: list[Guard] = []
        super().__init__(*args, **kwargs)

    def add_guard(
        self,
        predicate: Callable[[], bool],
        action: Callable[[], None],
        label: Any = "",
    ) -> Optional[Guard]:
        """Register a wait; ``action`` fires once, as soon as ``predicate`` holds.

        A predicate that already holds fires the action before returning (and
        then scans the pending guards): nothing is left pending, and ``None``
        is returned.  A crashed process's wait never fires: its guard sits in
        no list.
        """
        if self.crashed:
            return Guard(predicate, action, label)
        if predicate():
            action()
            if self._guards:
                self.check_guards()
            return None
        guard = Guard(predicate, action, label)
        self._guards.append(guard)
        return guard

    def check_guards(self) -> None:
        """Re-evaluate pending guards; fire (once) those whose predicate holds.

        Passes in registration order until one fires nothing.  A pass reads
        the list in place up to the first guard that holds, then runs over a
        snapshot of the rest (an action may add guards, or crash the process
        and clear them).
        """
        while self._guards and not self.crashed:
            guards = self._guards
            for index, guard in enumerate(guards):
                if not guard.fired and guard.predicate():
                    break
            else:
                break
            rest = guards[index + 1 :]
            guard.fired = True
            guard.action()
            for guard in rest:
                if guard.fired:
                    continue
                if guard.predicate():
                    guard.fired = True
                    guard.action()
            self._guards = [g for g in self._guards if not g.fired]
        self._scan_due = False

    def pending_guards(self) -> list[Guard]:
        """Currently pending (unfired) guards."""
        return [g for g in self._guards if not g.fired]

    def waiting_on(self) -> list[str]:
        """The pending guards' labels."""
        labels = (guard.label for guard in self.pending_guards())
        return [label for label in labels if label]

    def crash(self) -> None:
        super().crash()
        self._guards.clear()


class RecorderProcess(GuardList, Process):
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
    return Simulator()


@pytest.fixture
def network(simulator: Simulator) -> Network:
    return Network(simulator, record_messages=True)


def build_recorders(simulator: Simulator, network: Network, n: int) -> list[RecorderProcess]:
    """Create ``n`` RecorderProcess instances registered on ``network``."""
    return [RecorderProcess(pid, simulator, network) for pid in range(n)]
