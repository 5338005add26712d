"""Turning a :class:`~repro.workloads.spec.WorkloadSpec` into per-process scripts.

A *script* is the list of operations one client (process) will issue, in
order, closed-loop: the next operation starts only after the previous one
completed (plus an optional think time).  The generator guarantees:

* written values are **pairwise distinct** and distinct from the initial
  value (``"v1"``, ``"v2"``, ... by default) so the fast atomicity checker can
  map every read back to the write it observed;
* the assignment of writes to processes respects the algorithm (all writes go
  to the single writer unless ``multi_writer``);
* everything is derived from the spec's seed, so the same spec yields the
  same scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.registers.base import OperationKind
from repro.sim.rng import make_rng
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class ScriptedOperation:
    """One operation a client will issue."""

    kind: OperationKind
    value: Optional[object] = None  # written value (writes only)
    think_time: float = 0.0  # pause after the *previous* operation completes


@dataclass
class ClientScript:
    """The ordered list of operations one process will issue."""

    pid: int
    start_delay: float = 0.0
    operations: list[ScriptedOperation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)


def written_value(index: int) -> str:
    """The canonical distinct value for the ``index``-th write (1-based)."""
    return f"v{index}"


def generate_scripts(spec: WorkloadSpec) -> dict[int, ClientScript]:
    """Generate one :class:`ClientScript` per participating process.

    Returns a dict keyed by pid; processes with no operations get no entry.
    """
    rng = make_rng(spec.seed, "workload-scripts", spec.n, spec.num_writes, spec.reads_per_reader)
    scripts: dict[int, ClientScript] = {}

    # ---- writes -------------------------------------------------------------
    if spec.num_writes > 0:
        if spec.multi_writer:
            # Round-robin writes over all processes (MWMR ablation only).
            for index in range(1, spec.num_writes + 1):
                pid = (index - 1) % spec.n
                script = scripts.setdefault(
                    pid, ClientScript(pid=pid, start_delay=spec.writer_start_delay)
                )
                script.operations.append(
                    ScriptedOperation(
                        kind=OperationKind.WRITE,
                        value=written_value(index),
                        think_time=spec.write_think_time,
                    )
                )
        else:
            script = ClientScript(pid=0, start_delay=spec.writer_start_delay)
            for index in range(1, spec.num_writes + 1):
                script.operations.append(
                    ScriptedOperation(
                        kind=OperationKind.WRITE,
                        value=written_value(index),
                        think_time=spec.write_think_time,
                    )
                )
            scripts[0] = script

    # ---- reads --------------------------------------------------------------
    for pid in spec.reader_pids():
        if spec.reads_per_reader == 0:
            continue
        script = scripts.setdefault(pid, ClientScript(pid=pid, start_delay=spec.reader_start_delay))
        if script.start_delay == 0.0 and spec.reader_start_delay:
            script.start_delay = spec.reader_start_delay
        for _ in range(spec.reads_per_reader):
            # Jitter the think time slightly (deterministically) so different
            # readers do not stay in lock-step forever; lock-step hides
            # interleaving bugs.
            jitter = spec.read_think_time * 0.1 * rng.random() if spec.read_think_time else 0.0
            script.operations.append(
                ScriptedOperation(
                    kind=OperationKind.READ,
                    think_time=spec.read_think_time + jitter,
                )
            )
    return scripts


def interleave_isolated(scripts: dict[int, ClientScript], seed: int) -> list[tuple[int, ScriptedOperation]]:
    """Flatten scripts into one global sequence for isolated-operation runs.

    The order preserves each client's program order and round-robins between
    clients (with a seeded shuffle of the round-robin order) so the isolated
    runs still exercise a mix of writers and readers rather than all writes
    first.
    """
    rng = make_rng(seed, "isolated-interleave", len(scripts))
    cursors = {pid: 0 for pid in scripts}
    sequence: list[tuple[int, ScriptedOperation]] = []
    while True:
        ready = [pid for pid, cursor in cursors.items() if cursor < len(scripts[pid].operations)]
        if not ready:
            break
        rng.shuffle(ready)
        for pid in ready:
            cursor = cursors[pid]
            if cursor >= len(scripts[pid].operations):
                continue
            sequence.append((pid, scripts[pid].operations[cursor]))
            cursors[pid] = cursor + 1
    return sequence
