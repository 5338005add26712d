"""The columnar operation log: per-run history material without per-op objects.

The driver used to be the only record of a run: a list of
:class:`~repro.exec.driver.ExecOp` objects, each holding an
:class:`~repro.registers.base.OperationRecord`, from which the store
re-derived per-key histories by walking every op and building yet more
objects (``Operation`` instances).  At a million operations that is three
object graphs for the same facts.

An :class:`OpLog` records the same lifecycle *as columns*, written in place
as the run executes — the driver appends a row when an operation is
created and fills in the issue/completion/failure cells as they happen:

========================  =====================================================
column                    meaning
========================  =====================================================
``kind``                  index into :attr:`OpLog.kinds` (READ=0, WRITE=1)
``key_idx / value_idx``   indices into the interned value table
``submitted``             virtual submission time (NaN before submission)
``pid / proc_op_id``      issuing process and its per-process record id
                          (-1 until issued — "no record yet")
``invoked / responded``   record timestamps (NaN = not issued / pending)
``result_idx``            interned result (-1 until completed)
``failed``                0/1, with a sparse ``reasons`` dict for messages
========================  =====================================================

Row index == driver ``op_id`` (submission order), so the log *is* the
``driver.ops`` list in columnar form.  Everything downstream reads it
through views:

* :meth:`OpLog.per_key_histories` groups issued rows by key and emits
  :class:`~repro.verification.history.History` objects that share
  the log's value table — the store's history/checking plane allocates no
  per-op objects at all;
* :class:`LoggedOp` / :class:`LoggedRecord` give merged parallel runs the
  ``ExecOp`` / ``OperationRecord`` surface without shipping or retaining
  the objects.

The wire format (:func:`encode_oplog` / :func:`decode_oplog`) serializes
the raw column buffers with pickle protocol 5 out-of-band buffers: a
worker's whole run crosses the pipe as a handful of flat byte blocks plus
the value table, not a pickled object graph.
"""

from __future__ import annotations

import math
import pickle
from array import array
from collections.abc import Sequence
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.registers.base import OperationKind, OperationRecord
from repro.verification.history import KIND_TO_BYTE, History, ValueInterner

_NAN = float("nan")


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
        self._key_idx.append(self.interner.intern(key))
        self._value_idx.append(self.interner.intern(value))
        self._submitted.append(_NAN)
        self._pid.append(-1)
        self._proc_op_id.append(-1)
        self._invoked.append(_NAN)
        self._responded.append(_NAN)
        self._result_idx.append(-1)
        self._failed.append(0)
        return row

    def note_submitted(self, row: int, now: float) -> None:
        self._submitted[row] = now

    def note_issued(self, row: int, record: OperationRecord) -> None:
        self._pid[row] = record.pid
        self._proc_op_id[row] = record.op_id
        self._invoked[row] = record.invoked_at

    def note_completed(self, row: int, record: OperationRecord) -> None:
        self._responded[row] = record.responded_at
        self._result_idx[row] = self.interner.intern(record.result)

    def note_failed(self, row: int, reason: str) -> None:
        self._failed[row] = 1
        self.reasons[row] = reason

    # ------------------------------------------------------------ histories

    def _history_from_rows(self, rows: List[int], initial_value: Any) -> History:
        """Per-key history: sorted like ``History.from_records``, sharing the table."""
        none_idx = self.interner.intern(None)
        pid, invoked, kind_slot = self._pid, self._invoked, self._kind
        # Same sort key as History.from_records: (invoked_at, pid, record op id).
        rows = sorted(rows, key=lambda r: (invoked[r], pid[r], self._proc_op_id[r]))
        slot_byte = [KIND_TO_BYTE[kind] for kind in self.kinds]
        result_idx = self._result_idx
        return History.from_columns(
            initial_value,
            pid=array("q", [pid[r] for r in rows]),
            kind=bytes([slot_byte[kind_slot[r]] for r in rows]),
            invoked=array("d", [invoked[r] for r in rows]),
            responded=array("d", [self._responded[r] for r in rows]),
            value_idx=array("q", [self._value_idx[r] for r in rows]),
            result_idx=array(
                "q", [none_idx if result_idx[r] < 0 else result_idx[r] for r in rows]
            ),
            op_id=array("q", range(len(rows))),
            table=self.interner.values,
        )

    def rows_by_key(self) -> Dict[Any, List[int]]:
        """Issued rows grouped by key, in first-submission order (dict order)."""
        table = self.interner.values
        by_key: Dict[Any, List[int]] = {}
        pid = self._pid
        key_idx = self._key_idx
        for row in range(len(self._kind)):
            if pid[row] != -1:  # issued => has a record, exactly the serial filter
                by_key.setdefault(table[key_idx[row]], []).append(row)
        return by_key

    def per_key_histories(self, initial_value: Any = None) -> Dict[Any, History]:
        """Every touched key's history — what ``store.histories()`` returns."""
        return {
            key: self._history_from_rows(rows, initial_value)
            for key, rows in self.rows_by_key().items()
        }

    def history_for(self, key: Any, initial_value: Any = None) -> History:
        """One key's history (``==`` key matching, like the object path)."""
        table = self.interner.values
        pid = self._pid
        key_idx = self._key_idx
        rows = [
            row
            for row in range(len(self._kind))
            if pid[row] != -1 and table[key_idx[row]] == key
        ]
        return self._history_from_rows(rows, initial_value)

    # ----------------------------------------------------------- inspection

    def nbytes(self) -> int:
        """Raw column bytes (excluding the value table) — for benchmarks."""
        total = len(self._kind) + len(self._failed)
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

    def op_view(self, row: int) -> "LoggedOp":
        return LoggedOp(self, row)

    def ops_view(self) -> "OpLogOps":
        """The whole log as a lazy sequence of :class:`LoggedOp` views."""
        return OpLogOps(self)

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
        return merged


# ------------------------------------------------------------------- views


class LoggedRecord:
    """Read-only ``OperationRecord`` view over one issued :class:`OpLog` row."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: OpLog, row: int) -> None:
        self._log = log
        self._row = row

    @property
    def pid(self) -> int:
        return self._log._pid[self._row]

    @property
    def op_id(self) -> int:
        return self._log._proc_op_id[self._row]

    @property
    def kind(self) -> Any:
        return self._log.kinds[self._log._kind[self._row]]

    @property
    def value(self) -> Any:
        return self._log.interner.values[self._log._value_idx[self._row]]

    @property
    def result(self) -> Any:
        idx = self._log._result_idx[self._row]
        return None if idx < 0 else self._log.interner.values[idx]

    @property
    def invoked_at(self) -> float:
        return self._log._invoked[self._row]

    @property
    def responded_at(self) -> Optional[float]:
        at = self._log._responded[self._row]
        return None if math.isnan(at) else at

    @property
    def completed(self) -> bool:
        return not math.isnan(self._log._responded[self._row])

    @property
    def failed(self) -> bool:
        return bool(self._log._failed[self._row])

    @property
    def latency(self) -> Optional[float]:
        responded = self.responded_at
        return None if responded is None else responded - self.invoked_at


class LoggedOp:
    """Read-only ``ExecOp`` view over one :class:`OpLog` row.

    ``op_id`` is the row index — after a parallel merge reorders rows into
    scripted order, that is exactly the op id the serial driver would have
    assigned.
    """

    __slots__ = ("_log", "_row")

    def __init__(self, log: OpLog, row: int) -> None:
        self._log = log
        self._row = row

    @property
    def op_id(self) -> int:
        return self._row

    @property
    def kind(self) -> Any:
        return self._log.kinds[self._log._kind[self._row]]

    @property
    def key(self) -> Any:
        return self._log.interner.values[self._log._key_idx[self._row]]

    @property
    def value(self) -> Any:
        return self._log.interner.values[self._log._value_idx[self._row]]

    @property
    def submitted_at(self) -> Optional[float]:
        at = self._log._submitted[self._row]
        return None if math.isnan(at) else at

    @property
    def failed(self) -> bool:
        return bool(self._log._failed[self._row])

    @property
    def failure_reason(self) -> str:
        return self._log.reasons.get(self._row, "")

    @property
    def record(self) -> Optional[LoggedRecord]:
        if self._log._pid[self._row] == -1:
            return None
        return LoggedRecord(self._log, self._row)

    @property
    def completed(self) -> bool:
        return (
            not self._log._failed[self._row]
            and not math.isnan(self._log._responded[self._row])
        )

    @property
    def done(self) -> bool:
        return self.failed or self.completed

    @property
    def result(self) -> Any:
        if not self.completed:
            raise RuntimeError(
                f"{self.kind.value}({self.key!r}) has not completed"
                + (f" (failed: {self.failure_reason})" if self.failed else "")
            )
        if self.kind is OperationKind.WRITE:
            return self.value
        idx = self._log._result_idx[self._row]
        return None if idx < 0 else self._log.interner.values[idx]

    @property
    def sojourn_latency(self) -> Optional[float]:
        responded = self._log._responded[self._row]
        if math.isnan(responded):
            return None
        submitted = self._log._submitted[self._row]
        if math.isnan(submitted):
            invoked = self._log._invoked[self._row]
            return responded - invoked
        return responded - submitted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoggedOp(op_id={self.op_id}, kind={self.kind!r}, key={self.key!r}, "
            f"value={self.value!r}, failed={self.failed})"
        )


class OpLogOps(Sequence):
    """Lazy list-of-ops facade over an :class:`OpLog` (views on demand)."""

    __slots__ = ("_log",)

    def __init__(self, log: OpLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [LoggedOp(self._log, i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return LoggedOp(self._log, index)

    def __iter__(self) -> Iterator[LoggedOp]:
        log = self._log
        for row in range(len(log)):
            yield LoggedOp(log, row)


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
    global_index: Optional[array] = None
    if payload["has_global"]:
        global_index = array("q")
        global_index.frombytes(bytes(raw[len(_WIRE_COLUMNS)]))
    return log, global_index


def transfer_size(blob: bytes, buffers: List[bytes]) -> int:
    """Bytes a worker payload puts on the pipe (stream + out-of-band blocks)."""
    return len(blob) + sum(len(buffer) for buffer in buffers)
