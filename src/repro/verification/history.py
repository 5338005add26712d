"""Operation histories: the observable behaviour of a register run.

A *history* is the sequence of invocation and response events of the
operations the clients issued.  Atomicity (linearizability) is a property of
histories: the run is correct iff the history could have been produced by a
register accessed sequentially, respecting real-time order.  The verification
checkers consume :class:`History` objects; the workload runner and the op
log (:mod:`repro.exec.oplog`) produce them.

Representation
--------------
A :class:`History` is **columns**; an :class:`Operation` is a **row**.  One
``Operation`` object per operation costs ~300 bytes and several allocations
(a per-instance ``__dict__``, boxed floats for both timestamps, a reference
for every field), and pickles as an object graph — at a million operations
the representation is itself a hot path.  The history therefore stores:

* ``array('d')`` invocation/response times (NaN = pending in the response
  column; times that are not plain floats — integer times in hand-written
  test histories, or a genuine NaN timestamp — fall back to a sparse
  exact-value dict so round-trips are *exact*, never "close"),
* one byte per operation for the kind (``b"r"`` / ``b"w"`` / ...),
* ``array('q')`` pids and op-ids,
* an **interned value table**: values and results are stored once in a
  side table and referenced by index.  The intern key is
  ``(type(value), value)`` so ``1``, ``1.0`` and ``True`` — equal under
  ``==`` — keep distinct slots and round-trip exactly; unhashable values
  are appended without deduplication.

The checkers read the columns (:meth:`History.columns`) and build no
per-operation object on a passing check.  :attr:`History.operations`
materialises the rows as frozen :class:`Operation` dataclasses on first
access and caches them, so ``operations[i] is operations[i]`` — rows are
built only for a witness, a violation message or a caller that asks.

Pickling a :class:`History` serializes the raw columns (a handful of flat
buffers), not an object graph — this is what makes per-key parallel
checking (:mod:`repro.parallel.check`) cheap to fan out.

Conventions
-----------
* Operations that never responded (their process crashed mid-operation, or
  the run was cut off) are *pending*.  The atomicity definition lets pending
  operations either take effect or not; the fast checker simply excludes
  pending **reads** and treats a pending **write** as "may or may not have
  happened" (see :mod:`repro.verification.register_checker`).
* Written values are compared with ``==``; the fast checker additionally
  requires written values to be pairwise distinct so that a read's return
  value identifies the write it read from (the workload generator guarantees
  this by construction).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.registers.base import OperationKind, OperationRecord

#: The verification layer's name for the one operation-kind enum.
OpKind = OperationKind

_NAN = float("nan")
_INFINITY = float("inf")

#: Kind <-> column byte.  Read/write keep their historical bytes (pickled
#: histories depend on them); the consensus-object kinds get distinct,
#: collision-free bytes.
KIND_TO_BYTE: Dict[OpKind, int] = {
    OpKind.READ: ord("r"),
    OpKind.WRITE: ord("w"),
    OpKind.CAS: ord("c"),
    OpKind.TAS: ord("t"),
    OpKind.INCR: ord("i"),
}
_BYTE_TO_KIND: Dict[int, OpKind] = {byte: kind for kind, byte in KIND_TO_BYTE.items()}
_READ = KIND_TO_BYTE[OpKind.READ]
_WRITE = KIND_TO_BYTE[OpKind.WRITE]


@dataclass(frozen=True)
class Operation:
    """One operation interval in a history.

    Attributes
    ----------
    pid:
        The invoking process.
    kind:
        Read or write.
    value:
        The written value (writes) or ``None`` (reads).
    result:
        The returned value (reads) or ``None`` (writes).
    invoked_at / responded_at:
        Virtual times of invocation and response; ``responded_at`` is ``None``
        for pending operations.
    op_id:
        Unique id within the history (stable ordering / error messages).
    """

    pid: int
    kind: OpKind
    value: Any = None
    result: Any = None
    invoked_at: float = 0.0
    responded_at: Optional[float] = None
    op_id: int = 0

    @property
    def pending(self) -> bool:
        """True if the operation never responded."""
        return self.responded_at is None

    @property
    def is_read(self) -> bool:
        """True for read operations."""
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        """True for write operations."""
        return self.kind is OpKind.WRITE

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this operation responded before ``other`` was invoked."""
        if self.responded_at is None:
            return False
        return self.responded_at < other.invoked_at

    def concurrent_with(self, other: "Operation") -> bool:
        """True when neither operation precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def describe(self) -> str:
        """Readable one-line description used in violation messages."""
        span = (
            f"[{self.invoked_at:.3f}, "
            + (f"{self.responded_at:.3f}]" if self.responded_at is not None else "pending)")
        )
        if self.is_write:
            return f"write({self.value!r}) by p{self.pid} {span}"
        return f"read() -> {self.result!r} by p{self.pid} {span}"

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Plain-dict form (strict-JSON friendly for JSON-representable values)."""
        return {
            "pid": self.pid,
            "kind": self.kind.value,
            "value": self.value,
            "result": self.result,
            "invoked_at": self.invoked_at,
            "responded_at": self.responded_at,
            "op_id": self.op_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Operation":
        """Inverse of :meth:`to_dict`."""
        return cls(
            pid=payload["pid"],
            kind=OpKind(payload["kind"]),
            value=payload.get("value"),
            result=payload.get("result"),
            invoked_at=payload["invoked_at"],
            responded_at=payload.get("responded_at"),
            op_id=payload.get("op_id", 0),
        )


class ValueInterner:
    """A deduplicating value table: store each distinct value once.

    Interning is keyed by ``(type(value), value)`` — not ``value`` alone —
    because ``1 == 1.0 == True`` under Python equality but the three must
    round-trip as themselves.  Unhashable values (lists, dicts) cannot be
    deduplicated; they are appended as fresh slots, which preserves
    correctness (every index still resolves to the original object) at the
    cost of table size only when such values actually occur.
    """

    __slots__ = ("values", "_index")

    def __init__(self, values: Optional[List[Any]] = None) -> None:
        self.values: List[Any] = []
        self._index: Dict[Any, int] = {}
        if values:
            for value in values:
                self.intern(value)

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: Any) -> int:
        """Return the table index of ``value``, adding it if new."""
        try:
            key = (value.__class__, value)
            slot = self._index.get(key)
            if slot is None:
                slot = len(self.values)
                self.values.append(value)
                self._index[key] = slot
            return slot
        except TypeError:  # unhashable: append without deduplication
            self.values.append(value)
            return len(self.values) - 1


def _store_time(column: array, exact: Dict[int, Any], row: int, value: Any) -> None:
    """Append one timestamp, keeping non-float values exactly.

    Plain floats live in the column alone.  Anything else — ints from
    hand-built test histories, bools, a genuine float NaN (which would
    collide with the pending sentinel) — goes into the sparse ``exact``
    dict and the column gets a best-effort float that no reader consults.
    """
    if value is None:
        column.append(_NAN)
        return
    if type(value) is float and not math.isnan(value):
        column.append(value)
        return
    exact[row] = value
    try:
        column.append(float(value))
    except (TypeError, ValueError, OverflowError):
        column.append(_NAN)


class Columns(NamedTuple):
    """A history's columns decoded to plain per-row sequences (checker input).

    ``responded`` holds ``None`` for pending operations; ``invoked`` /
    ``responded`` carry the exact recorded timestamps and ``value`` /
    ``result`` the table's objects, so every cell equals the corresponding
    :class:`Operation` field — and the fields are in ``Operation``'s order,
    so ``Operation(*cells)`` over ``zip(*columns)`` is the row.
    """

    pid: Sequence[int]
    kind: Sequence[OpKind]
    value: Sequence[Any]
    result: Sequence[Any]
    invoked: Sequence[Any]
    responded: Sequence[Any]
    op_id: Sequence[int]


class History:
    """A collection of operations plus the register's initial value.

    Stored as parallel columns (see the module docstring): ~50 bytes per
    operation plus the shared value table.  Build one from ``Operation``
    rows (the constructor and the ``from_*`` factories) or adopt ready-made
    columns with :meth:`from_columns`.
    """

    __slots__ = (
        "initial_value",
        "_pid",
        "_kind",
        "_invoked",
        "_responded",
        "_value_idx",
        "_result_idx",
        "_op_id",
        "_table",
        "_invoked_exact",
        "_responded_exact",
        "_rows",
    )

    def __init__(self, operations: Iterable[Operation] = (), initial_value: Any = None) -> None:
        interner = ValueInterner()
        pid, kind, op_id = array("q"), bytearray(), array("q")
        invoked, responded = array("d"), array("d")
        value_idx, result_idx = array("q"), array("q")
        invoked_exact: Dict[int, Any] = {}
        responded_exact: Dict[int, Any] = {}
        for row, op in enumerate(operations):
            pid.append(op.pid)
            kind.append(KIND_TO_BYTE[op.kind])
            value_idx.append(interner.intern(op.value))
            result_idx.append(interner.intern(op.result))
            _store_time(invoked, invoked_exact, row, op.invoked_at)
            _store_time(responded, responded_exact, row, op.responded_at)
            op_id.append(op.op_id)
        self._adopt(
            initial_value,
            pid,
            bytes(kind),
            invoked,
            responded,
            value_idx,
            result_idx,
            op_id,
            interner.values,
            invoked_exact,
            responded_exact,
        )

    def _adopt(
        self,
        initial_value: Any,
        pid: array,
        kind: bytes,
        invoked: array,
        responded: array,
        value_idx: array,
        result_idx: array,
        op_id: array,
        table: List[Any],
        invoked_exact: Dict[int, Any],
        responded_exact: Dict[int, Any],
    ) -> None:
        self.initial_value = initial_value
        self._pid = pid
        self._kind = kind
        self._invoked = invoked
        self._responded = responded
        self._value_idx = value_idx
        self._result_idx = result_idx
        self._op_id = op_id
        #: The interned value table (shared with the OpLog that built us).
        self._table = table
        self._invoked_exact = invoked_exact
        self._responded_exact = responded_exact
        #: ``operations``, once somebody asked for it.
        self._rows: Optional[Tuple[Operation, ...]] = None

    def __len__(self) -> int:
        return len(self._pid)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self.initial_value == other.initial_value and self.operations == other.operations

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"History({len(self)} ops, initial_value={self.initial_value!r}, "
            f"table={len(self._table)} values)"
        )

    # ------------------------------------------------------------- factories

    @classmethod
    def from_columns(
        cls,
        initial_value: Any,
        pid: array,
        kind: bytes,
        invoked: array,
        responded: array,
        value_idx: array,
        result_idx: array,
        op_id: array,
        table: List[Any],
        invoked_exact: Optional[Dict[int, Any]] = None,
        responded_exact: Optional[Dict[int, Any]] = None,
    ) -> "History":
        """Adopt ready-made columns without copying them.

        ``kind`` holds :data:`KIND_TO_BYTE` bytes, ``invoked`` / ``responded``
        are ``array('d')`` (NaN = pending), ``value_idx`` / ``result_idx``
        index into ``table``, which may be shared between histories.  The
        op log builds per-key histories this way, and unpickling restores
        one from the same arguments.
        """
        history = cls.__new__(cls)
        history._adopt(
            initial_value,
            pid,
            kind,
            invoked,
            responded,
            value_idx,
            result_idx,
            op_id,
            table,
            invoked_exact or {},
            responded_exact or {},
        )
        return history

    @classmethod
    def from_records(
        cls,
        records: Iterable[OperationRecord],
        initial_value: Any = None,
    ) -> "History":
        """Build a history from the runner's per-operation records."""
        ordered = sorted(records, key=lambda r: (r.invoked_at, r.pid, r.op_id))
        return cls(
            (
                Operation(
                    pid=record.pid,
                    kind=record.kind,
                    value=record.value,
                    result=record.result,
                    invoked_at=record.invoked_at,
                    responded_at=record.responded_at,
                    op_id=index,
                )
                for index, record in enumerate(ordered)
            ),
            initial_value=initial_value,
        )

    # Pickling ships the raw columns, not an object graph: a million-op
    # history pickles as a handful of flat buffers plus the value table.
    def __reduce__(self):
        return (
            History.from_columns,
            (
                self.initial_value,
                self._pid,
                self._kind,
                self._invoked,
                self._responded,
                self._value_idx,
                self._result_idx,
                self._op_id,
                self._table,
                self._invoked_exact,
                self._responded_exact,
            ),
        )

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Plain-dict form: ``{"initial_value": ..., "operations": [...]}``.

        Strict-JSON serializable whenever the stored values are; the
        schedule-exploration artifacts (:mod:`repro.explore`) embed recorded
        histories this way.  Read straight off the columns (same keys, in
        the same order, as :meth:`Operation.to_dict`).
        """
        columns = self.columns()
        return {
            "initial_value": self.initial_value,
            "operations": [
                {
                    "pid": pid,
                    "kind": kind.value,
                    "value": value,
                    "result": result,
                    "invoked_at": invoked,
                    "responded_at": responded,
                    "op_id": op_id,
                }
                for pid, kind, value, result, invoked, responded, op_id in zip(*columns)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "History":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        return cls(
            (Operation.from_dict(entry) for entry in payload["operations"]),
            initial_value=payload.get("initial_value"),
        )

    # --------------------------------------------------------------- columns

    def columns(self) -> Columns:
        """The columns decoded for the checkers: one O(n) pass, no rows built."""
        table = self._table
        invoked = self._invoked.tolist()
        invoked_exact = self._invoked_exact
        for row in invoked_exact:
            invoked[row] = invoked_exact[row]
        responded = [None if at != at else at for at in self._responded]
        responded_exact = self._responded_exact
        for row in responded_exact:
            responded[row] = responded_exact[row]
        return Columns(
            pid=self._pid,
            kind=[_BYTE_TO_KIND[byte] for byte in self._kind],
            value=[table[index] for index in self._value_idx],
            result=[table[index] for index in self._result_idx],
            invoked=invoked,
            responded=responded,
            op_id=self._op_id,
        )

    def nbytes(self) -> int:
        """Raw column bytes (excluding the value table) — for benchmarks."""
        return len(self._kind) + sum(
            column.itemsize * len(column)
            for column in (
                self._pid,
                self._invoked,
                self._responded,
                self._value_idx,
                self._result_idx,
                self._op_id,
            )
        )

    # ----------------------------------------------------------------- views

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """Every row as an :class:`Operation`, in history order.

        Materialised on first access and cached, so separate accesses return
        the same row objects (``verify_witness`` matches witness entries by
        ``id``).
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(Operation(*cells) for cells in zip(*self.columns()))
        return rows

    def completed(self) -> list[Operation]:
        """Operations that responded."""
        return [op for op in self.operations if not op.pending]

    def pending(self) -> list[Operation]:
        """Operations that never responded."""
        return [op for op in self.operations if op.pending]

    def reads(self, include_pending: bool = False) -> list[Operation]:
        """Read operations (completed only, unless ``include_pending``)."""
        return [
            op
            for op in self.operations
            if op.is_read and (include_pending or not op.pending)
        ]

    def writes(self, include_pending: bool = True) -> list[Operation]:
        """Write operations, in invocation order (the single writer's program order)."""
        ops = [op for op in self.operations if op.is_write and (include_pending or not op.pending)]
        return sorted(ops, key=lambda op: op.invoked_at)

    def by_process(self, pid: int) -> list[Operation]:
        """Operations invoked by process ``pid``, in invocation order."""
        return sorted(
            (op for op in self.operations if op.pid == pid), key=lambda op: op.invoked_at
        )

    def writer_pids(self) -> set[int]:
        """The set of processes that invoked at least one write."""
        return {pid for pid, kind in zip(self._pid, self._kind) if kind == _WRITE}

    def written_values_distinct(self) -> bool:
        """True when all written values (plus the initial value) are pairwise distinct."""
        table = self._table
        values = [self.initial_value] + [
            table[index] for index, kind in zip(self._value_idx, self._kind) if kind == _WRITE
        ]
        try:
            return len(values) == len(set(values))
        except TypeError:  # unhashable values: fall back to a quadratic check
            for i, left in enumerate(values):
                for right in values[i + 1 :]:
                    if left == right:
                        return False
            return True

    def max_concurrency(self) -> int:
        """Maximum number of operations whose intervals overlap at one instant."""
        columns = self.columns()
        boundaries: list[tuple[float, int]] = []
        for start, end in zip(columns.invoked, columns.responded):
            boundaries.append((start, 1))
            boundaries.append((_INFINITY if end is None else end, -1))
        # Sort ends before starts at equal times so touching intervals do not count as overlapping.
        boundaries.sort(key=lambda item: (item[0], item[1]))
        level = best = 0
        for _time, delta in boundaries:
            level += delta
            best = max(best, level)
        return best

    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering of the history (optionally truncated)."""
        ops = sorted(self.operations, key=lambda op: op.invoked_at)
        if limit is not None:
            ops = ops[:limit]
        return "\n".join(op.describe() for op in ops)


def make_history(
    entries: Sequence[tuple],
    initial_value: Any = None,
) -> History:
    """Build a history from compact tuples — a convenience for tests.

    Each entry is ``(pid, kind, value_or_result, invoked_at, responded_at)``
    where ``kind`` is ``"read"`` or ``"write"`` and ``responded_at`` may be
    ``None`` for pending operations.
    """
    operations = []
    for index, (pid, kind, payload, start, end) in enumerate(entries):
        op_kind = OpKind(kind)
        operations.append(
            Operation(
                pid=pid,
                kind=op_kind,
                value=payload if op_kind is OpKind.WRITE else None,
                result=payload if op_kind is OpKind.READ else None,
                invoked_at=start,
                responded_at=end,
                op_id=index,
            )
        )
    return History(operations, initial_value=initial_value)
