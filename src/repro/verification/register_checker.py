"""Fast atomicity checker for single-writer register histories.

Lemma 10 of the paper proves atomicity by establishing three claims about any
run (``read[i, x]`` denotes a read by ``p_i`` returning the value with
sequence number ``x``; ``write[y]`` the write of the value with sequence
number ``y``):

* **Claim 1** — *no read from the future*: if ``read[i, x]`` terminates before
  ``write[y]`` starts, then ``x < y``.
* **Claim 2** — *no overwritten read*: if ``write[x]`` terminates before
  ``read[i, y]`` starts, then ``x <= y``.
* **Claim 3** — *no new/old inversion*: if ``read[i, x]`` terminates before
  ``read[j, y]`` starts, then ``x <= y``.

For a **single-writer** register (writes are totally ordered by the writer's
program order) these claims, together with every read returning either the
initial value or some written value, are equivalent to atomicity — which is
precisely why the paper's proof stops there.  This module checks them
directly on a recorded history in ``O((R + W) log(R + W))`` time, where R/W
are the numbers of reads/writes.  The general (exponential) checker in
:mod:`repro.verification.linearizability` is used in property-based tests to
cross-validate this one on small histories.

Requirements on the history (enforced, with clear errors):

* at most one writer process (pending writes included);
* written values pairwise distinct and different from the initial value, so a
  read's return value identifies the write it read from (the workload
  generator guarantees this by construction);
* pending operations are allowed: a pending write may or may not have taken
  effect (it only ever *relaxes* Claim 2), and pending reads are ignored.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.verification.history import Columns, History, OpKind


class AtomicityViolation(AssertionError):
    """Raised when a history is provably not atomic."""


@dataclass
class AtomicityReport:
    """Result of checking a history.

    Attributes
    ----------
    ok:
        True when no violation was found.
    violations:
        Human-readable description of each violation found.
    reads_checked / writes_checked:
        Sizes of the checked history (completed operations only).
    max_read_lag:
        Over all completed reads, the largest difference between the newest
        write index the read *could* have returned (writes invoked before the
        read responded) and the index it did return — a staleness indicator
        that is always 0 in a sequential run and bounded by concurrency in an
        atomic one.
    """

    ok: bool = True
    violations: list[str] = field(default_factory=list)
    reads_checked: int = 0
    writes_checked: int = 0
    max_read_lag: int = 0

    def record(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)


def _index_writes(history: History, columns: Columns) -> tuple[list[int], dict[Any, int]]:
    """Return (write rows in writer order, value -> sequence-number map)."""
    kind, invoked = columns.kind, columns.invoked
    writes = sorted(
        (row for row in range(len(kind)) if kind[row] is OpKind.WRITE),
        key=lambda row: invoked[row],
    )
    writer_pids = history.writer_pids()
    if len(writer_pids) > 1:
        raise ValueError(
            f"history has {len(writer_pids)} writers ({sorted(writer_pids)}); "
            "the fast checker only handles single-writer histories — "
            "use verification.linearizability.is_linearizable instead"
        )
    value_to_index: dict[Any, int] = {}
    try:
        value_to_index[history.initial_value] = 0
    except TypeError as exc:  # unhashable initial value
        raise ValueError("initial value must be hashable for the fast checker") from exc
    for index, row in enumerate(writes, start=1):
        value = columns.value[row]
        if value in value_to_index:
            raise ValueError(
                f"written value {value!r} is not unique in the history; "
                "the fast checker requires distinct written values — "
                "use verification.linearizability.is_linearizable instead"
            )
        value_to_index[value] = index
    return writes, value_to_index


def _running_max(pairs: list[tuple[Any, int]]) -> tuple[list[Any], list[int]]:
    """Sort ``(time, index)`` pairs by time; return ``(times, best)``.

    ``best[p]`` is the largest index among the ``p`` earliest pairs (0 for
    none), so ``best[bisect(times, t)]`` answers "largest index before ``t``".
    """
    pairs.sort(key=lambda pair: pair[0])
    best = [0]
    for _time, index in pairs:
        best.append(index if index > best[-1] else best[-1])
    return [pair[0] for pair in pairs], best


def check_swmr_atomicity(
    history: History,
    raise_on_violation: bool = True,
) -> AtomicityReport:
    """Check a single-writer history against the three claims of Lemma 10.

    Returns an :class:`AtomicityReport`; if ``raise_on_violation`` is true the
    first collected set of violations is raised as :class:`AtomicityViolation`
    (with every violation listed in the message).

    Works on row indices over the history's columns; ``Operation`` rows are
    built only to describe a violation.
    """
    report = AtomicityReport()
    columns = history.columns()
    pid, invoked, responded = columns.pid, columns.invoked, columns.responded
    writes, value_to_index = _index_writes(history, columns)
    completed_reads = [
        row
        for row, kind in enumerate(columns.kind)
        if kind is OpKind.READ and responded[row] is not None
    ]
    report.reads_checked = len(completed_reads)
    report.writes_checked = len(writes)

    def describe(row: int) -> str:
        return history.operations[row].describe()

    # Pre-compute, for Claim 2: completed writes sorted by response time, with
    # a running maximum of their indices.  For a read invoked at time T the
    # strongest lower bound is the largest index among writes responded
    # strictly before T.  (With a single sequential writer indices increase
    # with response time, but we do not rely on that.)
    completed_writes = [
        (index, row) for index, row in enumerate(writes, start=1) if responded[row] is not None
    ]
    write_response_times, newest_responded = _running_max(
        [(responded[row], index) for index, row in completed_writes]
    )
    # For Claim 1 and the staleness metric: writes sorted by invocation time.
    write_invocation_times, newest_invoked = _running_max(
        [(invoked[row], index) for index, row in enumerate(writes, start=1)]
    )
    # For the writer's program order: *completed* writes by invocation time.
    own_invocation_times, newest_own = _running_max(
        [(invoked[row], index) for index, row in completed_writes]
    )

    # --- map each completed read to the index of the value it returned -------
    read_indices: list[tuple[int, int]] = []
    for read in completed_reads:
        result = columns.result[read]
        if result not in value_to_index:
            report.record(
                f"read returned a value that was never written: {describe(read)} "
                f"(known values: initial {history.initial_value!r} plus {len(writes)} writes)"
            )
            continue
        read_indices.append((read, value_to_index[result]))

    # --- Claim 1: no read from the future ------------------------------------
    for read, index in read_indices:
        if index == 0:
            continue
        write = writes[index - 1]
        if responded[read] < invoked[write]:
            report.record(
                "Claim 1 (read from the future): "
                f"{describe(read)} returned the value of {describe(write)}, "
                "which was written only after the read had already terminated"
            )

    # --- Claim 2: no overwritten read -----------------------------------------
    for read, index in read_indices:
        # Largest index among writes that responded strictly before the read was invoked.
        lower_bound = newest_responded[bisect.bisect_left(write_response_times, invoked[read])]
        if index < lower_bound:
            report.record(
                "Claim 2 (overwritten value): "
                f"{describe(read)} returned write #{index} although "
                f"{describe(writes[lower_bound - 1])} "
                f"(write #{lower_bound}) had already completed before the read started"
            )
        # Largest write index whose invocation is <= the read's response.
        newest_possible = newest_invoked[
            bisect.bisect_right(write_invocation_times, responded[read])
        ]
        report.max_read_lag = max(report.max_read_lag, newest_possible - index)

    # --- Program-order refinements --------------------------------------------
    # Real-time precedence uses strict inequalities; for two operations of the
    # *same* sequential process whose boundary times coincide (zero think
    # time), program order still applies.  Three extra checks cover that:
    #   (a) a read by the writer must not return a value older than the
    #       writer's own latest completed write invoked before the read;
    #   (b) nor the value of a write the writer invokes after the read, even
    #       at the very instant the read responds (Claim 1 with ``<=``);
    #   (c) successive reads by the same process must return non-decreasing
    #       indices.
    by_reader: dict[int, list[tuple[int, int]]] = {}
    for read, index in read_indices:
        by_reader.setdefault(pid[read], []).append((read, index))
    op_id = columns.op_id
    for read, index in by_reader.get(pid[writes[0]], ()) if writes else ():
        own_latest = newest_own[bisect.bisect_left(own_invocation_times, invoked[read])]
        if index < own_latest:
            report.record(
                "program order (writer): "
                f"{describe(read)} returned write #{index} although the writer itself had "
                f"already completed write #{own_latest} before invoking the read"
            )
        if index == 0:
            continue
        write = writes[index - 1]
        read_first = invoked[read] < invoked[write] or (
            invoked[read] == invoked[write] and op_id[read] < op_id[write]
        )
        if read_first and responded[read] >= invoked[write]:  # below that, Claim 1 reported it
            report.record(
                "program order (writer): "
                f"{describe(read)} returned the value of {describe(write)}, "
                "which the writer itself invoked only after the read"
            )
    for reader, items in by_reader.items():
        items.sort(key=lambda pair: (invoked[pair[0]], op_id[pair[0]]))
        best_so_far = 0
        for read, index in items:
            if index < best_so_far:
                report.record(
                    "program order (reader): "
                    f"{describe(read)} returned write #{index} although an earlier read by the "
                    f"same process p{reader} had already returned write #{best_so_far}"
                )
            best_so_far = max(best_so_far, index)

    # --- Claim 3: no new/old inversion ----------------------------------------
    # For each read, the indices of reads that *responded* strictly before its
    # invocation must not exceed its own index.
    response_times, newest_read = _running_max(
        [(responded[read], index) for read, index in read_indices]
    )
    for read, index in read_indices:
        earlier_max = newest_read[bisect.bisect_left(response_times, invoked[read])]
        if earlier_max > index:
            report.record(
                "Claim 3 (new/old inversion): "
                f"{describe(read)} returned write #{index} although an earlier read that had "
                f"already terminated before it started returned write #{earlier_max}"
            )

    if not report.ok and raise_on_violation:
        raise AtomicityViolation(
            f"{len(report.violations)} atomicity violation(s):\n  - "
            + "\n  - ".join(report.violations)
        )
    return report
