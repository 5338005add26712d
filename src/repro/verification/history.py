"""Operation histories: the observable behaviour of a register run.

A *history* is the sequence of invocation and response events of the
operations the clients issued.  Atomicity (linearizability) is a property of
histories: the run is correct iff the history could have been produced by a
register accessed sequentially, respecting real-time order.  The verification
checkers consume :class:`History` objects; the workload runner and the op
log (:mod:`repro.exec.oplog`) produce them.

Representation
--------------
A :class:`History` is a **view over an op log**; an :class:`Operation` is a
**row**.  Linearizability is local (Herlihy–Wing), so a key's history is
just that key's rows of the run's :class:`~repro.exec.oplog.OpLog`: the
history holds the log and an array of its row numbers, in history order,
and reads every cell through the log (:meth:`~repro.exec.oplog.OpLog.cells`)
— no per-key copy of a column, no per-operation object.  The log's columns
are ``array('d')`` times (NaN = pending in the response column), one byte
per operation for the kind, ``array('q')`` pids, and an **interned value
table**: values and results are stored once in a side table and referenced
by index.  The intern key is ``(type(value), value)`` so ``1``, ``1.0`` and
``True`` — equal under ``==`` — keep distinct slots and round-trip exactly;
unhashable values are appended without deduplication.

A history built from ``Operation`` rows (the constructor, ``from_records``,
``from_dict``, :func:`make_history`) puts them in a private log of its own,
in the order given, and keeps each row's ``op_id``.  Times that are not
plain floats — integer times in hand-written test histories, or a genuine
NaN timestamp — are kept exactly beside that log's float columns, so
round-trips are *exact*, never "close".

The checkers read the cells (:meth:`History.columns`, or straight off the
log for a key's rows: :meth:`History.log_rows`) and build no per-operation
object on a passing check.  :attr:`History.operations` materialises the
rows as frozen :class:`Operation` dataclasses on first access and caches
them, so ``operations[i] is operations[i]`` — rows are built only for a
witness, a violation message or a caller that asks.

Pickling a :class:`History` serializes its own cells as a handful of flat
buffers plus the values they hold — not the log it views, and not an
object graph.

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
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.registers.base import OperationKind, OperationRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.oplog import OpLog

#: The verification layer's name for the one operation-kind enum.
OpKind = OperationKind

_NAN = float("nan")


@dataclass(frozen=True)
class Operation:
    """One operation interval in a history.

    Attributes
    ----------
    pid:
        The invoking process.
    kind:
        Read or write, or a consensus-object kind (CAS, TAS, INCR).
    value:
        The written value (writes), the operation's argument (CAS's
        ``(expected, new)`` pair, INCR's addend) or ``None`` (reads, TAS).
    result:
        The returned value (reads and the consensus-object kinds) or
        ``None`` (writes).
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

    def describe(self) -> str:
        """Readable one-line description used in violation messages."""
        span = (
            f"[{self.invoked_at:.3f}, "
            + (f"{self.responded_at:.3f}]" if self.responded_at is not None else "pending)")
        )
        if self.is_write:
            return f"write({self.value!r}) by p{self.pid} {span}"
        if self.is_read:
            call = "read()"
        elif self.kind is OpKind.TAS:
            call = "tas()"
        elif self.kind is OpKind.CAS and isinstance(self.value, (tuple, list)):
            call = "cas(" + " -> ".join(map(repr, self.value)) + ")"  # (expected, new)
        else:
            call = f"{self.kind.value}({self.value!r})"
        return f"{call} -> {self.result!r} by p{self.pid} {span}"

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

    def __reduce__(self):
        return (ValueInterner, (self.values,))

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


def _store_time(column: array, exact: Dict[int, Any], place: int, value: Any) -> None:
    """Append one timestamp, keeping non-float values exactly.

    Plain floats live in the column alone.  Anything else — ints from
    hand-built test histories, bools, a genuine float NaN (which would
    collide with the pending sentinel) — goes into the sparse ``exact``
    dict under its place and the column gets a best-effort float that no
    reader consults.
    """
    if value is None:
        column.append(_NAN)
        return
    if type(value) is float and not math.isnan(value):
        column.append(value)
        return
    exact[place] = value
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

    A view over an :class:`~repro.exec.oplog.OpLog` (see the module
    docstring): the log and the history's rows of it, in history order.
    Build one from ``Operation`` rows (the constructor and the ``from_*``
    factories), which puts them in a private log, or over a log's rows with
    :meth:`view`.

    A view over a run's log reads the cells when asked, not when it was
    made: once a row pending at that time completes, :meth:`columns`,
    :meth:`to_dict` and the checkers see its response.
    :attr:`operations` is built on first access and kept, so it shows the
    rows as they were then.
    """

    __slots__ = (
        "initial_value",
        "_log",
        "_rows",
        "_op_id",
        "_invoked_exact",
        "_responded_exact",
        "_operations",
    )

    def __init__(self, operations: Iterable[Operation] = (), initial_value: Any = None) -> None:
        kinds: List[OpKind] = [OpKind.READ, OpKind.WRITE]
        slot_of = {kind: slot for slot, kind in enumerate(kinds)}
        interner = ValueInterner()
        pid, kind, op_id = array("q"), bytearray(), array("q")
        invoked, responded = array("d"), array("d")
        value_idx, result_idx = array("q"), array("q")
        invoked_exact: Dict[int, Any] = {}
        responded_exact: Dict[int, Any] = {}
        for place, op in enumerate(operations):
            slot = slot_of.get(op.kind)
            if slot is None:
                slot = slot_of[op.kind] = len(kinds)
                kinds.append(op.kind)
            pid.append(op.pid)
            kind.append(slot)
            value_idx.append(interner.intern(op.value))
            result_idx.append(interner.intern(op.result))
            _store_time(invoked, invoked_exact, place, op.invoked_at)
            _store_time(responded, responded_exact, place, op.responded_at)
            op_id.append(op.op_id)
        self._adopt_columns(
            initial_value,
            kinds,
            interner,
            bytes(kind),
            pid,
            invoked,
            responded,
            value_idx,
            result_idx,
            op_id,
            invoked_exact,
            responded_exact,
        )

    def _adopt(
        self,
        log: OpLog,
        rows: Sequence[int],
        initial_value: Any,
        op_id: Optional[array],
        invoked_exact: Dict[int, Any],
        responded_exact: Dict[int, Any],
    ) -> None:
        self.initial_value = initial_value
        #: The op log the cells are read through, and the history's rows of it.
        self._log = log
        self._rows = rows
        #: ``None``: each row's op id is its place (a key's rows off a log).
        self._op_id = op_id
        #: Times that are not plain floats, by place (see :func:`_store_time`).
        self._invoked_exact = invoked_exact
        self._responded_exact = responded_exact
        #: ``operations``, once somebody asked for it.
        self._operations: Optional[Tuple[Operation, ...]] = None

    def _adopt_columns(
        self,
        initial_value: Any,
        kinds: List[OpKind],
        interner: ValueInterner,
        kind: bytes,
        pid: array,
        invoked: array,
        responded: array,
        value_idx: array,
        result_idx: array,
        op_id: Optional[array],
        invoked_exact: Dict[int, Any],
        responded_exact: Dict[int, Any],
    ) -> None:
        """Become a view over a private log of ready-made columns, all its rows."""
        from repro.exec.oplog import OpLog  # the op log module imports this one

        log = OpLog.of_columns(
            kinds,
            interner,
            kind=kind,
            pid=pid,
            invoked=invoked,
            responded=responded,
            value_idx=value_idx,
            result_idx=result_idx,
        )
        self._adopt(log, range(len(kind)), initial_value, op_id, invoked_exact, responded_exact)

    def __len__(self) -> int:
        return len(self._rows)

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
            f"table={len(self._log.interner)} values)"
        )

    # ------------------------------------------------------------- factories

    @classmethod
    def view(cls, log: OpLog, rows: Sequence[int], initial_value: Any = None) -> "History":
        """The history of ``rows`` of the op ``log``; a row's op id is its place.

        :meth:`~repro.exec.oplog.OpLog.rows_by_key` groups a key's rows in
        history order (invocation time, then pid and per-process sequence
        number); the checkers take any other order too.  Copies no cell.
        """
        history = cls.__new__(cls)
        history._adopt(log, rows, initial_value, None, {}, {})
        return history

    @classmethod
    def from_records(
        cls,
        records: Iterable[OperationRecord],
        initial_value: Any = None,
    ) -> "History":
        """Build a history from the runner's per-operation records."""
        ordered = sorted(records, key=lambda r: (r.invoked_at, r.pid, r.proc_op_id))
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

    # Pickling ships the history's own cells, not the log it views or an
    # object graph: six flat buffers plus the values its rows hold.
    def __reduce__(self):
        log = self._log
        cells = log.cells(self._rows)
        slots = sorted(set(cells.value_idx).union(cells.result_idx).difference((-1,)))
        renumber = {slot: place for place, slot in enumerate(slots)}
        renumber[-1] = -1
        table = log.interner.values
        return (
            _unpickle_history,
            (
                self.initial_value,
                [kind.value for kind in log.kinds],
                ValueInterner([table[slot] for slot in slots]),
                bytes(cells.kind),
                array("q", cells.pid),
                array("d", cells.invoked),
                array("d", cells.responded),
                array("q", map(renumber.__getitem__, cells.value_idx)),
                array("q", map(renumber.__getitem__, cells.result_idx)),
                self._op_id,
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
        """The cells decoded for the checkers: one O(n) pass, no rows built."""
        log = self._log
        cells = log.cells(self._rows)
        table = log.interner.values
        invoked = list(cells.invoked)
        for place, at in self._invoked_exact.items():
            invoked[place] = at
        responded = [None if at != at else at for at in cells.responded]
        for place, at in self._responded_exact.items():
            responded[place] = at
        result_idx = cells.result_idx
        if -1 in result_idx:  # no result yet
            result = [None if idx < 0 else table[idx] for idx in result_idx]
        else:
            result = list(map(table.__getitem__, result_idx))
        return Columns(
            pid=cells.pid,
            kind=list(map(log.kinds.__getitem__, cells.kind)),
            value=list(map(table.__getitem__, cells.value_idx)),
            result=result,
            invoked=invoked,
            responded=responded,
            op_id=range(len(self._rows)) if self._op_id is None else self._op_id,
        )

    def log_rows(self) -> Optional[Tuple[OpLog, Sequence[int]]]:
        """``(op log, rows)`` when each op id is its row's place in history
        order — a key's rows off a log — so the rows can be read straight
        off the log; ``None`` for a history built from ``Operation`` rows."""
        return (self._log, self._rows) if self._op_id is None else None

    # ----------------------------------------------------------------- views

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """Every row as an :class:`Operation`, in history order.

        Materialised on first access and cached, so separate accesses return
        the same row objects (``verify_witness`` matches witness entries by
        ``id``).
        """
        rows = self._operations
        if rows is None:
            rows = self._operations = tuple(Operation(*cells) for cells in zip(*self.columns()))
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

    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering of the history (optionally truncated)."""
        ops = sorted(self.operations, key=lambda op: op.invoked_at)
        if limit is not None:
            ops = ops[:limit]
        return "\n".join(op.describe() for op in ops)


def _unpickle_history(initial_value: Any, kinds: List[str], *columns: Any) -> History:
    history = History.__new__(History)
    history._adopt_columns(initial_value, [OpKind(kind) for kind in kinds], *columns)
    return history


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
