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
precisely why the paper's proof stops there.  The general search in
:mod:`repro.verification.linearizability` cross-validates this checker in
the property-based tests.

The check is **one sweep** over the completed reads in invocation order
``(invoked, op_id)``.  A write's sequence number is its rank in the same
order, and in that order every bound a read is held to is a pointer or a
running maximum:

* Claim 2's "newest write completed before the read started" is a pointer
  over the completed writes sorted by response time;
* Claim 3's "newest read completed before the read started" is a heap of
  earlier reads' ``(responded, index)`` pairs, popped into a running maximum;
* Claim 1 and the staleness metric ``max_read_lag`` are one ``bisect_right``
  over the writes' invocation times;
* the program-order refinements, which order a process's operations where
  their boundary times coincide (zero think time) and real time is silent,
  are a pointer over the writer's completed writes and each reader's best
  index so far.

The sweep reads a history's rows straight off its op log's cells
(:meth:`~repro.verification.history.History.log_rows`), decoding nothing:
every history is a view over a log, a hand-built one over a private log.
Same-instant invocations are ordered by the history's op ids — a row's
place in a run's view, the given ``op_id`` in a hand-built history.  Rows
already in invocation order cost one O(n) confirmation, any other row
order pays for a sort.  Violations are reported kind by kind, each kind in
row order (a reader's together).

Precondition (a history outside it raises :class:`ClaimsNotApplicable`
instead of a verdict, and the per-key dispatcher runs the Wing–Gong search):

* reads and writes only (a consensus kind belongs to the SMR search);
* at most one writer process (pending writes included);
* written values hashable, pairwise distinct and different from the
  (hashable) initial value, so a read's return value identifies the write it
  read from (the workload generator guarantees this by construction);
* no completed read responds before it is invoked.

Pending operations are allowed: a pending write may or may not have taken
effect (it only ever *relaxes* Claim 2), and pending reads are ignored.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice
from operator import eq, itemgetter, le, lt
from typing import Any, Dict, List, Sequence

from repro.verification.history import History, OpKind, Operation

_NEVER = float("inf")


class AtomicityViolation(AssertionError):
    """Raised when a history is provably not atomic."""


class ClaimsNotApplicable(ValueError):
    """The history is outside the claims checker's precondition (see the module docstring)."""


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
        Sizes of the checked history (completed reads; writes, pending
        included).
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


def check_swmr_atomicity(
    history: History,
    raise_on_violation: bool = True,
) -> AtomicityReport:
    """Check a single-writer history against the three claims of Lemma 10.

    Returns an :class:`AtomicityReport`; if ``raise_on_violation`` is true
    the violations found are raised as one :class:`AtomicityViolation`
    listing every one.  Raises :class:`ClaimsNotApplicable` when the history
    is outside the precondition.

    Works on row indices over the log's cells; ``Operation`` rows are built
    only to describe a violation.
    """
    report = _sweep(history)
    if raise_on_violation and not report.ok:
        raise AtomicityViolation(
            f"{len(report.violations)} atomicity violation(s):\n  - "
            + "\n  - ".join(report.violations)
        )
    return report


def _write_indices(
    initial_value: Any, pid: Sequence[int], writes: List[int], values: List[Any]
) -> Dict[Any, int]:
    """Map each written value to its write's index (the initial value is 0).

    Refuses, with :class:`ClaimsNotApplicable`, a second writer and values
    that cannot name their write: an unhashable initial or written value,
    and a value written twice or equal to the initial value.
    """
    writers = {pid[row] for row in writes}
    if len(writers) > 1:
        raise ClaimsNotApplicable(
            f"history has {len(writers)} writers ({sorted(writers)}); "
            "the fast checker only handles single-writer histories — "
            "use verification.linearizability.is_linearizable instead"
        )
    try:
        index_of = {initial_value: 0}
    except TypeError as exc:
        raise ClaimsNotApplicable("initial value must be hashable for the fast checker") from exc
    for index, value in enumerate(values, start=1):
        try:
            duplicate = value in index_of
        except TypeError as exc:
            raise ClaimsNotApplicable(f"written value {value!r} is not hashable") from exc
        if duplicate:
            raise ClaimsNotApplicable(
                f"written value {value!r} is not unique in the history; "
                "the fast checker requires distinct written values — "
                "use verification.linearizability.is_linearizable instead"
            )
        index_of[value] = index
    return index_of


def _sweep(history: History) -> AtomicityReport:
    """The Lemma 10 sweep over ``history``'s rows, read off its log's cells.

    The cells are the log's raw ones (:meth:`~repro.exec.oplog.OpLog.cells`):
    a kind slot, NaN while pending, value and result slots of the shared
    table (-1 = no result).  Writes and completed reads are taken in
    ``(invoked, op_id)`` order, and write ``k`` (1-based) is the ``k``-th
    write in it.  A read's result is found by its table slot and, when no
    write holds that slot (``1.0`` read where ``1`` was written, the initial
    value, an unhashable result), by equality.
    """
    initial_value = history.initial_value
    log, rows = history.log_rows()
    op_id = history.op_ids
    kinds, table = log.kinds, log.interner.values
    kind, pid, invoked, responded, value_idx, result_idx = log.cells(rows)
    places = range(len(kind))
    read_slot, write_slot = kinds.index(OpKind.READ), kinds.index(OpKind.WRITE)
    writes = [place for place in places if kind[place] == write_slot]
    if len(writes) + kind.count(read_slot) != len(kind):
        other = next(kinds[slot] for slot in kind if slot != read_slot and slot != write_slot)
        raise ClaimsNotApplicable(
            f"history holds a {other.value} operation; the fast checker only "
            "handles reads and writes"
        )
    # A pending operation ends at NaN, which equals nothing.
    done = list(map(eq, responded, responded))
    reads = [place for place in places if kind[place] == read_slot and done[place]]
    # A view's op ids are its places (a range), so ascending: only a
    # hand-built history's are confirmed.
    if not (
        all(map(le, invoked, islice(invoked, 1, None)))
        and (isinstance(op_id, range) or all(map(lt, op_id, islice(op_id, 1, None))))
    ):
        writes.sort(key=lambda place: (invoked[place], op_id[place]))
        reads.sort(key=lambda place: (invoked[place], op_id[place]))
    written = [value_idx[place] for place in writes]
    index_of = _write_indices(initial_value, pid, writes, [table[slot] for slot in written])
    index_of_slot = dict(zip(written, range(1, len(written) + 1)))

    def value_of(slot: int) -> Any:
        return table[slot] if slot >= 0 else None

    def describe(place: int) -> str:
        at = responded[place]
        return Operation(
            pid[place],
            kinds[kind[place]],
            table[value_idx[place]],
            value_of(result_idx[place]),
            invoked[place],
            at if at == at else None,
            op_id[place],
        ).describe()

    completed = [index for index, place in enumerate(writes, start=1) if done[place]]
    # A write's index is its invocation rank, so ``write_invoked`` is sorted.
    write_invoked = list(map(invoked.__getitem__, writes))
    # Claim 2 walks the completed writes by response time; the writer's own
    # program order walks them by invocation (index) order.  An infinite
    # sentinel ends each walk.
    by_response = sorted((responded[writes[index - 1]], index) for index in completed)
    responded_at = [at for at, _index in by_response] + [_NEVER]
    responded_index = [index for _at, index in by_response]
    own_invoked = [write_invoked[index - 1] for index in completed] + [_NEVER]
    writer = pid[writes[0]] if writes else None

    # Violations by kind: (row, text), except (reader, text) for readers.
    unknown, claim1, claim2, by_writer, by_reader, claim3 = [], [], [], [], [], []
    best_of = dict.fromkeys(pid, 0)
    max_lag = response_walk = newest_done = own_walk = newest_own = newest_seen = 0
    seen = [(_NEVER, 0)]  # heap of earlier reads' (responded, index)
    for row in reads:
        start, at = invoked[row], responded[row]
        if at < start:
            raise ClaimsNotApplicable(f"{describe(row)} responds before it is invoked")
        index = index_of_slot.get(result_idx[row])
        if index is None:
            try:
                index = index_of.get(value_of(result_idx[row]))
            except TypeError:  # an unhashable result equals no written value
                index = None
            if index is None:
                unknown.append((row, (
                    f"read returned a value that was never written: {describe(row)} "
                    f"(known values: initial {initial_value!r} plus {len(writes)} writes)"
                )))
                continue
        lag = bisect_right(write_invoked, at) - index
        if lag < 0:
            claim1.append((row, (
                "Claim 1 (read from the future): "
                f"{describe(row)} returned the value of {describe(writes[index - 1])}, "
                "which was written only after the read had already terminated"
            )))
        elif lag > max_lag:
            max_lag = lag
        while responded_at[response_walk] < start:
            if responded_index[response_walk] > newest_done:
                newest_done = responded_index[response_walk]
            response_walk += 1
        if index < newest_done:
            claim2.append((row, (
                "Claim 2 (overwritten value): "
                f"{describe(row)} returned write #{index} although "
                f"{describe(writes[newest_done - 1])} "
                f"(write #{newest_done}) had already completed before the read started"
            )))
        while seen[0][0] < start:
            earlier = heappop(seen)[1]
            if earlier > newest_seen:
                newest_seen = earlier
        if index < newest_seen:
            claim3.append((row, (
                "Claim 3 (new/old inversion): "
                f"{describe(row)} returned write #{index} although an earlier read that had "
                f"already terminated before it started returned write #{newest_seen}"
            )))
        elif index > newest_seen:  # a smaller index can never raise the maximum
            heappush(seen, (at, index))
        reader = pid[row]
        if reader == writer:
            while own_invoked[own_walk] < start:
                own_walk += 1
                newest_own = completed[own_walk - 1]
            if index < newest_own:
                by_writer.append((row, (
                    "program order (writer): "
                    f"{describe(row)} returned write #{index} although the writer itself had "
                    f"already completed write #{newest_own} before invoking the read"
                )))
            # The writer invoked the write it read only after the read, yet
            # no later than the read responded (earlier is Claim 1's).
            target = write_invoked[index - 1] if index else None
            if index and at >= target and (
                start < target or (start == target and op_id[row] < op_id[writes[index - 1]])
            ):
                by_writer.append((row, (
                    "program order (writer): "
                    f"{describe(row)} returned the value of {describe(writes[index - 1])}, "
                    "which the writer itself invoked only after the read"
                )))
        best = best_of[reader]
        if index < best:
            by_reader.append((reader, (
                "program order (reader): "
                f"{describe(row)} returned write #{index} although an earlier read by the "
                f"same process p{reader} had already returned write #{best}"
            )))
        elif index > best:
            best_of[reader] = index

    report = AtomicityReport(
        reads_checked=len(reads), writes_checked=len(writes), max_read_lag=max_lag
    )
    if by_reader:  # readers in order of their first known read, by row
        skip = {row for row, _text in unknown}
        first: dict = {}
        for row in sorted(reads):
            if row not in skip:
                first.setdefault(pid[row], row)
        by_reader = [(first[reader], text) for reader, text in by_reader]
    for found in (unknown, claim1, claim2, by_writer, by_reader, claim3):
        found.sort(key=itemgetter(0))  # stable: a reader's reads stay in invocation order
        report.violations.extend(text for _key, text in found)
    report.ok = not report.violations
    return report
