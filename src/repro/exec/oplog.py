"""The columnar operation log: per-run history material without per-op objects.

An operation is one :class:`~repro.registers.base.OperationRecord`, built
once by the driver and filled in place by the process that runs it.  An
:class:`OpLog` records the same lifecycle *as columns*, written as the run
executes — the driver appends a row when it creates an operation and fills
in the issue/completion/failure cells as they happen:

========================  =====================================================
column                    meaning
========================  =====================================================
``kind``                  index into :attr:`OpLog.kinds` (READ=0, WRITE=1)
``key_idx / value_idx``   indices into the interned value table
``submitted``             virtual submission time (NaN before submission)
``pid / proc_op_id``      issuing process and its per-process sequence number
                          (-1 until issued — "no record yet")
``invoked / responded``   record timestamps (NaN = not issued / pending)
``result_idx``            interned result (-1 until completed)
``failed``                0/1, with a sparse ``reasons`` dict for messages
========================  =====================================================

Row index == the record's ``op_id`` (submission order), so the log *is* the
``driver.ops`` list in columnar form.  Beside the columns the log keeps a
**per-key index**: each key slot's rows in row order, appended by
:meth:`OpLog.note_created` and rebuilt in one pass over the key column when
a log is decoded, extended or reordered.  Everything downstream reads the
log through views:

* :meth:`OpLog.rows_by_key` groups the issued rows one key at a time off
  that index: each group is sorted on its own into history order
  (invocation time, then pid and per-process sequence number, as
  ``History.from_records`` orders records), and only a group with two equal
  invocation times pays for the tie-breaking sorts;
* a key's :class:`~repro.verification.history.History` is a view over the
  log: the log plus that key's row array, reading its cells through the log
  (:meth:`OpLog.cells`) — nothing is copied per key.  :class:`KeyHistories`
  hands them out by key, :meth:`OpLog.per_key_histories` as a dict (what
  ``store.histories()`` returns), and ``store.check_linearizability()``
  hands the mapping to the per-key dispatcher, whose claims sweep reads a
  register key's rows straight off the log
  (:func:`~repro.verification.register_checker.check_swmr_atomicity`).
  Every call groups and sorts afresh: nothing is kept between calls.  A
  history built by hand is a view too, over a private log its rows were
  appended to (:meth:`OpLog.append`);
* :meth:`OpLog.ops_view` hands out rows as the one row class,
  :class:`~repro.verification.history.Operation`, with the record's
  fields filled: merged parallel and live runs get the record's surface
  without shipping or retaining the objects;
* :meth:`OpLog.outcome_counts`, :meth:`OpLog.window` and
  :meth:`OpLog.latencies` are what a run's metrics are read from (the
  :class:`~repro.exec.metrics.MetricsCollector` view): nothing else
  records an operation's outcome.

The wire format (:func:`encode_oplog` / :func:`decode_oplog`) serializes
the raw column buffers with pickle protocol 5 out-of-band buffers: a
worker's whole run crosses the pipe as a handful of flat byte blocks plus
the value table, not a pickled object graph.
"""

from __future__ import annotations

import math
import pickle
from array import array
from collections import defaultdict
from collections.abc import Mapping, Sequence
from functools import partial
from itertools import chain, compress, islice
from operator import eq, itemgetter, sub
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.registers.base import OperationKind, OperationRecord
from repro.verification.history import History, Operation, ValueInterner

_NAN = float("nan")
_INF = float("inf")
_ALWAYS_KEYED = (OperationKind.READ, OperationKind.WRITE)


class OpLog:
    """Columnar log of every driver operation (see module docstring)."""

    __slots__ = (
        "kinds",
        "_kind_slot",
        "_kind",
        "_key_idx",
        "_value_idx",
        "_submitted",
        "_pid",
        "_proc_op_id",
        "_invoked",
        "_responded",
        "_result_idx",
        "_failed",
        "reasons",
        "interner",
        "_key_rows",
    )

    def __init__(self) -> None:
        #: Operation kinds seen so far; the ``kind`` column indexes this list.
        self.kinds: List[Any] = [OperationKind.READ, OperationKind.WRITE]
        self._kind_slot: Dict[Any, int] = {kind: i for i, kind in enumerate(self.kinds)}
        self._kind = bytearray()
        self._key_idx = array("q")
        self._value_idx = array("q")
        self._submitted = array("d")
        self._pid = array("q")
        self._proc_op_id = array("q")
        self._invoked = array("d")
        self._responded = array("d")
        self._result_idx = array("q")
        self._failed = bytearray()
        #: Sparse failure messages, keyed by row.
        self.reasons: Dict[int, str] = {}
        #: Shared table for keys, written values and results.
        self.interner = ValueInterner()
        #: The per-key index: each key slot's rows, in row order.
        self._key_rows: Dict[int, array] = defaultdict(partial(array, "q"))

    def __len__(self) -> int:
        return len(self._kind)

    # --------------------------------------------------------- driver hooks

    def note_created(self, kind: Any, key: Any, value: Any) -> int:
        """Append a fresh row (driver ``new_op``); returns the row index."""
        slot = self._kind_slot.get(kind)
        if slot is None:
            slot = self._kind_slot[kind] = len(self.kinds)
            self.kinds.append(kind)
            if slot > 255:  # pragma: no cover - 256 operation kinds is absurd
                raise ValueError("OpLog supports at most 256 operation kinds")
        row = len(self._kind)
        self._kind.append(slot)
        key_idx = self.interner.intern(key)
        self._key_idx.append(key_idx)
        self._key_rows[key_idx].append(row)
        self._value_idx.append(self.interner.intern(value))
        self._submitted.append(_NAN)
        self._pid.append(-1)
        self._proc_op_id.append(-1)
        self._invoked.append(_NAN)
        self._responded.append(_NAN)
        self._result_idx.append(-1)
        self._failed.append(0)
        return row

    def append(self, op: Operation) -> int:
        """Append ``op`` as an issued row — a hand-built history's row path.

        Its key, kind, value, pid, times and result go in; a pending row
        keeps its result.  A time is stored as the float equal to it
        (``None``: not yet); a time no float equals — NaN, which would read
        as pending, ``Fraction(1, 3)``, ``2**53 + 1``, ``10**400`` — raises
        ``ValueError`` naming the operation.
        """
        invoked, responded = _cell(op, "invoked_at"), _cell(op, "responded_at")
        row = self.note_created(op.kind, op.key, op.value)
        self._pid[row] = op.pid
        self._invoked[row], self._responded[row] = invoked, responded
        self._result_idx[row] = self.interner.intern(op.result)
        return row

    def note_submitted(self, row: int, now: float) -> None:
        self._submitted[row] = now

    def note_issued(self, row: int, record: OperationRecord) -> None:
        self._pid[row] = record.pid
        self._proc_op_id[row] = record.proc_op_id
        self._invoked[row] = record.invoked_at

    def note_completed(self, row: int, record: OperationRecord) -> None:
        self._responded[row] = record.responded_at
        self._result_idx[row] = self.interner.intern(record.result)

    def note_failed(self, row: int, reason: str) -> None:
        self._failed[row] = 1
        self.reasons[row] = reason

    # ------------------------------------------------------------ histories

    def _index_rows(self, start: int) -> None:
        """Add rows ``start:`` to the per-key index: one pass over their key column."""
        key_rows = self._key_rows
        for row, slot in enumerate(islice(self._key_idx, start, None), start):
            key_rows[slot].append(row)

    def _in_history_order(self, rows: List[int], invoked: List[float]) -> array:
        """Sort one key's ``rows`` the way ``History.from_records`` orders records.

        That order is ``(invoked, pid, proc_op_id)``, rows equal in all three
        keeping row order.  One sort by invocation time gives it unless two
        of the rows share a time, which the sorted rows show as two equal
        neighbours: only then is the group put back in row order and sorted
        by each key, minor key first (Python's sort is stable).
        """
        rows.sort(key=invoked.__getitem__)
        times = _cells(rows)(invoked)
        if any(map(eq, times, islice(times, 1, None))):
            rows.sort()
            rows.sort(key=self._proc_op_id.__getitem__)
            rows.sort(key=self._pid.__getitem__)
            rows.sort(key=invoked.__getitem__)
        return array("q", rows)

    def rows_by_key(self) -> Dict[Any, array]:
        """Issued rows grouped by key, each key's rows in history order.

        Read off the per-key index one group at a time
        (:meth:`_in_history_order`).  Keys equal under ``==`` (``1``,
        ``1.0``, ``True``) share a group, as a dict of keys would, and keys
        come in the order of their first issued row.  A group is an
        ``array('q')``, so dropping it frees no object per row.  Every call
        groups and sorts afresh.
        """
        pid = self._pid
        slots = list(self._key_rows)
        groups = [rows.tolist() for rows in self._key_rows.values()]
        if -1 in pid:  # unissued rows are in no history
            groups = [[row for row in rows if pid[row] != -1] for rows in groups]
        table = self.interner.values
        by_key: Dict[Any, List[int]] = {}
        for _first, index in sorted((rows[0], index) for index, rows in enumerate(groups) if rows):
            key = table[slots[index]]
            if key in by_key:
                by_key[key].extend(groups[index])
            else:
                by_key[key] = groups[index]
        invoked = self._invoked.tolist()
        return {key: self._in_history_order(rows, invoked) for key, rows in by_key.items()}

    def cells(self, rows: Sequence[int]) -> "RowCells":
        """``rows``' raw cells, column by column, in ``rows`` order.

        What a :class:`~repro.verification.history.History` view and the
        claims sweep read a key's rows through: ``kind`` indexes
        :attr:`kinds`, ``value_idx`` / ``result_idx`` index the value table
        (-1 = no result yet) and ``responded`` is NaN while pending.
        """
        pick = _cells(rows)
        return RowCells(
            kind=pick(self._kind),
            pid=pick(self._pid),
            invoked=pick(self._invoked),
            responded=pick(self._responded),
            value_idx=pick(self._value_idx),
            result_idx=pick(self._result_idx),
        )

    def per_key_histories(self, initial_value: Any = None) -> Dict[Any, History]:
        """Every touched key's history — what ``store.histories()`` returns."""
        return dict(KeyHistories(self, initial_value))

    # ------------------------------------------------------------- outcomes

    def outcome_counts(self) -> Tuple[int, int, int]:
        """``(issued, completed, failed)`` rows: what a metrics snapshot counts."""
        rows = len(self._kind)
        issued = rows - self._pid.count(-1)
        return issued, rows - self._result_idx.count(-1), self._failed.count(1)

    def window(self) -> Tuple[Optional[float], Optional[float]]:
        """The first invocation and the last response (``None`` before either).

        A comparison with NaN is false, so past a finite first item ``min``
        and ``max`` never pick the NaN of a row still waiting: the infinite
        first item makes them skip every NaN at C speed.
        """
        first = min(chain((_INF,), self._invoked))
        last = max(chain((-_INF,), self._responded))
        return (None if first == _INF else first), (None if last == -_INF else last)

    def latencies(self) -> Tuple[List[float], Dict[Any, List[float]]]:
        """Every completed row's ``responded - submitted``, and the same by kind.

        Both in row order.  READ and WRITE are always keyed, any other kind
        once one of its operations completed.
        """
        # NaN wherever a row has no response: the comprehensions drop it.
        every = list(map(sub, self._responded, self._submitted))
        by_kind: Dict[Any, List[float]] = {}
        for slot, kind in enumerate(self.kinds):
            # The kind column as a 0/1 mask of this kind's rows.
            mask = self._kind.translate(bytes(slot) + b"\1" + bytes(255 - slot))
            samples = [sample for sample in compress(every, mask) if sample == sample]
            if samples or kind in _ALWAYS_KEYED:
                by_kind[kind] = samples
        return [sample for sample in every if sample == sample], by_kind

    # ----------------------------------------------------------- inspection

    def nbytes(self) -> int:
        """Raw column and index bytes (excluding the value table) — for benchmarks."""
        total = len(self._kind) + len(self._failed)
        total += sum(rows.itemsize * len(rows) for rows in self._key_rows.values())
        for column in (
            self._key_idx,
            self._value_idx,
            self._submitted,
            self._pid,
            self._proc_op_id,
            self._invoked,
            self._responded,
            self._result_idx,
        ):
            total += column.itemsize * len(column)
        return total

    def ops_view(self) -> "OpLogOps":
        """The whole log as a lazy sequence of its rows (:meth:`row`)."""
        return OpLogOps(self)

    def row(self, row: int) -> Operation:
        """Row ``row`` as an :class:`~repro.verification.history.Operation`,
        the record's fields included; a snapshot, not following later cells.

        ``op_id`` is the row — after a parallel merge reorders rows into
        scripted order, exactly the op id the serial driver would have
        assigned.  ``pid`` is ``-1`` until the row was issued, as on a record.
        """
        table = self.interner.values
        result = self._result_idx[row]
        return Operation(
            self._pid[row],
            self.kinds[self._kind[row]],
            table[self._value_idx[row]],
            None if result < 0 else table[result],
            _time(self._invoked[row]),
            _time(self._responded[row]),
            row,
            key=table[self._key_idx[row]],
            proc_op_id=self._proc_op_id[row],
            submitted_at=_time(self._submitted[row]),
            failed=bool(self._failed[row]),
            failure_reason=self.reasons.get(row, ""),
        )

    # -------------------------------------------------------------- merging

    def extend_remapped(self, other: "OpLog") -> List[int]:
        """Append ``other``'s rows, re-interning its table; returns base row offset."""
        table_map = [self.interner.intern(value) for value in other.interner.values]
        kind_map = []
        for kind in other.kinds:
            slot = self._kind_slot.get(kind)
            if slot is None:
                slot = self._kind_slot[kind] = len(self.kinds)
                self.kinds.append(kind)
            kind_map.append(slot)
        base = len(self._kind)
        self._kind.extend(kind_map[slot] for slot in other._kind)
        self._key_idx.extend(table_map[idx] for idx in other._key_idx)
        self._value_idx.extend(table_map[idx] for idx in other._value_idx)
        self._submitted.extend(other._submitted)
        self._pid.extend(other._pid)
        self._proc_op_id.extend(other._proc_op_id)
        self._invoked.extend(other._invoked)
        self._responded.extend(other._responded)
        self._result_idx.extend(
            table_map[idx] if idx >= 0 else -1 for idx in other._result_idx
        )
        self._failed.extend(other._failed)
        for row, reason in other.reasons.items():
            self.reasons[base + row] = reason
        self._index_rows(base)
        return base

    def reordered(self, order: List[int]) -> "OpLog":
        """A copy with rows permuted so new row ``i`` is old row ``order[i]``."""
        merged = OpLog()
        merged.kinds = list(self.kinds)
        merged._kind_slot = dict(self._kind_slot)
        merged.interner = self.interner
        merged._kind = bytearray(self._kind[row] for row in order)
        for name in (
            "_key_idx",
            "_value_idx",
            "_submitted",
            "_pid",
            "_proc_op_id",
            "_invoked",
            "_responded",
            "_result_idx",
        ):
            source = getattr(self, name)
            column = array(source.typecode)
            column.extend(source[row] for row in order)
            setattr(merged, name, column)
        merged._failed = bytearray(self._failed[row] for row in order)
        inverse = {old: new for new, old in enumerate(order)}
        merged.reasons = {inverse[row]: reason for row, reason in self.reasons.items()}
        merged._index_rows(0)
        return merged


# ------------------------------------------------------------------- views


class KeyHistories(Mapping):
    """An :class:`OpLog`'s per-key histories as a read-only mapping.

    ``view[key]`` is that key's
    :class:`~repro.verification.history.History`: a view over the log and
    the key's row array, made on each access (it is not cached) and copying
    no cell; iterating makes none.  The rows are grouped
    (:meth:`OpLog.rows_by_key`) on first use, not at construction, and that
    grouping is a snapshot of the log at that moment.
    """

    __slots__ = ("_log", "initial_value", "_rows")

    def __init__(self, log: OpLog, initial_value: Any = None) -> None:
        self._log = log
        self.initial_value = initial_value
        self._rows: Optional[Dict[Any, array]] = None

    def _grouped(self) -> Dict[Any, array]:
        if self._rows is None:
            self._rows = self._log.rows_by_key()
        return self._rows

    def __getitem__(self, key: Any) -> History:
        return History.view(self._log, self._grouped()[key], self.initial_value)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._grouped())

    def __len__(self) -> int:
        return len(self._grouped())


class RowCells(NamedTuple):
    """Some rows' raw cells, one tuple per column (:meth:`OpLog.cells`)."""

    kind: Sequence[int]
    pid: Sequence[int]
    invoked: Sequence[float]
    responded: Sequence[float]
    value_idx: Sequence[int]
    result_idx: Sequence[int]


def _cells(rows: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Pick ``rows``' cells out of a column, in ``rows`` order, as a tuple."""
    if len(rows) > 1:
        return itemgetter(*rows)
    return lambda column: tuple(map(column.__getitem__, rows))


def _time(at: float) -> Optional[float]:
    """A time column cell: NaN means "not yet"."""
    return None if math.isnan(at) else at


def _cell(op: Operation, name: str) -> float:
    """``op``'s time ``name`` as a column cell: NaN for ``None``, else the
    float equal to it; a time no float equals raises ``ValueError``."""
    at = getattr(op, name)
    if at is None:
        return _NAN
    try:
        cell = float(at)
    except (TypeError, ValueError, OverflowError):
        cell = _NAN
    if cell != at:  # NaN equals nothing, and a rounded float not its time
        raise ValueError(
            f"operation {op.op_id} ({op.kind.value} by p{op.pid}): {name}={at!r} "
            "is not a time a float holds exactly"
        )
    return cell


class OpLogOps(Sequence):
    """Lazy list-of-ops facade over an :class:`OpLog` (rows built on demand)."""

    __slots__ = ("_log",)

    def __init__(self, log: OpLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        rows = range(len(self._log))[index]  # IndexError past either end
        return list(map(self._log.row, rows)) if isinstance(index, slice) else self._log.row(rows)

    def __iter__(self) -> Iterator[Operation]:
        return map(self._log.row, range(len(self._log)))


# -------------------------------------------------------------- wire format
#
# Workers ship their OpLog (plus the scripted global index of each row) as
# pickle protocol 5 out-of-band buffers: the pickle stream carries only the
# structure and the value table, and each column crosses as one flat byte
# block — no per-operation pickle opcodes, no object graph.

_WIRE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("_kind", "B"),
    ("_key_idx", "q"),
    ("_value_idx", "q"),
    ("_submitted", "d"),
    ("_pid", "q"),
    ("_proc_op_id", "q"),
    ("_invoked", "d"),
    ("_responded", "d"),
    ("_result_idx", "q"),
    ("_failed", "B"),
)


def encode_oplog(
    log: OpLog, global_index: Optional[array] = None
) -> Tuple[bytes, List[bytes]]:
    """Serialize ``log`` to ``(pickle_bytes, out_of_band_buffers)``.

    ``global_index`` (optional, ``array('q')``) maps each row to its global
    scripted index for parallel reassembly.  The returned buffers are plain
    ``bytes`` so the pair can cross a multiprocessing pipe as-is; transfer
    size is ``len(pickle_bytes) + sum(len(b) for b in buffers)``.
    """
    columns = []
    for name, _typecode in _WIRE_COLUMNS:
        columns.append(pickle.PickleBuffer(getattr(log, name)))
    if global_index is not None:
        columns.append(pickle.PickleBuffer(global_index))
    payload = {
        "rows": len(log),
        "kinds": log.kinds,
        "table": log.interner.values,
        "reasons": log.reasons,
        "has_global": global_index is not None,
        "columns": columns,
    }
    buffers: List[pickle.PickleBuffer] = []
    blob = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    return blob, [buffer.raw().tobytes() for buffer in buffers]


def decode_oplog(blob: bytes, buffers: List[bytes]) -> Tuple[OpLog, Optional[array]]:
    """Inverse of :func:`encode_oplog`; returns ``(oplog, global_index)``."""
    payload = pickle.loads(blob, buffers=buffers)
    log = OpLog()
    log.kinds = list(payload["kinds"])
    log._kind_slot = {kind: i for i, kind in enumerate(log.kinds)}
    log.reasons = dict(payload["reasons"])
    log.interner = ValueInterner(payload["table"])
    raw = payload["columns"]
    for (name, typecode), data in zip(_WIRE_COLUMNS, raw):
        if typecode == "B":
            setattr(log, name, bytearray(data))
        else:
            column = array(typecode)
            column.frombytes(data)
            setattr(log, name, column)
    log._index_rows(0)
    global_index: Optional[array] = None
    if payload["has_global"]:
        global_index = array("q")
        global_index.frombytes(bytes(raw[len(_WIRE_COLUMNS)]))
    return log, global_index


def transfer_size(blob: bytes, buffers: List[bytes]) -> int:
    """Bytes a worker payload puts on the pipe (stream + out-of-band blocks)."""
    return len(blob) + sum(len(buffer) for buffer in buffers)
