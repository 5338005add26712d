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
``from_dict``, :func:`make_history`, unpickling) appends them, in the order
given, to a private log of its own (:meth:`~repro.exec.oplog.OpLog.append`)
and is a view over all of its rows; it keeps each row's ``op_id`` beside
the log, where a view's op id is the row's place.  Times live in the log's
float columns: a time a double holds exactly (an int below ``2**53``, a
bool) reads back as that float, and any other time (NaN, which would read
as pending, ``Fraction(1, 3)``, ``2**53 + 1``, ``10**400``) raises
``ValueError`` naming the operation.  Every other field round-trips
exactly, a pending row's result included.

The checkers read the cells (:meth:`History.columns`, or straight off the
log: :meth:`History.log_rows`) and build no per-operation object on a
passing check.  :attr:`History.operations` materialises the rows as frozen
:class:`Operation` dataclasses on first access and caches them, so
``operations[i] is operations[i]`` — rows are built only for a witness, a
violation message or a caller that asks.

Pickling a :class:`History` ships its own decoded columns — not the log it
views, and no ``Operation`` object — and unpickling appends them to a
private log like any hand-built history.

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

from array import array
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Operation:
    """One operation: a row of a history, or of a run's op log.

    Attributes
    ----------
    pid:
        The invoking process (``-1`` for a log row not yet issued).
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
        Unique id within the history (stable ordering / error messages); a
        log row's is its row.
    key / proc_op_id / submitted_at / failed / failure_reason:
        The rest of the record, filled on a row of a run's op log
        (:meth:`~repro.exec.oplog.OpLog.ops_view`).  They take no part in
        equality, hashing or :meth:`to_dict`: a row is its seven history
        fields.
    """

    pid: int
    kind: OpKind
    value: Any = None
    result: Any = None
    invoked_at: Optional[float] = 0.0
    responded_at: Optional[float] = None
    op_id: int = 0
    key: Any = field(default=None, compare=False)
    proc_op_id: int = field(default=-1, compare=False)
    submitted_at: Optional[float] = field(default=None, compare=False)
    failed: bool = field(default=False, compare=False)
    failure_reason: str = field(default="", compare=False)

    @property
    def pending(self) -> bool:
        """True if the operation never responded."""
        return self.responded_at is None

    @property
    def completed(self) -> bool:
        """True if the operation responded and did not fail."""
        return not self.failed and self.responded_at is not None

    done = OperationRecord.done
    latency = OperationRecord.latency
    sojourn_latency = OperationRecord.sojourn_latency

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


class Columns(NamedTuple):
    """A history's columns decoded to plain per-row sequences (checker input).

    ``responded`` holds ``None`` for pending operations; ``invoked`` /
    ``responded`` carry the log's float timestamps and ``value`` /
    ``result`` the table's objects, so every cell equals the corresponding
    :class:`Operation` field — and the fields are in ``Operation``'s order,
    so ``Operation(*cells)`` over ``zip(*columns)`` is the row.
    """

    pid: Sequence[int]
    kind: Sequence[OpKind]
    value: Sequence[Any]
    result: Sequence[Any]
    invoked: Sequence[float]
    responded: Sequence[Optional[float]]
    op_id: Sequence[int]


class History:
    """A collection of operations plus the register's initial value.

    A view over an :class:`~repro.exec.oplog.OpLog` (see the module
    docstring): the log, the history's rows of it in history order, and
    each row's op id.  Build one over a log's rows with :meth:`view`, or
    from ``Operation`` rows (the constructor and the ``from_*`` factories),
    which appends them to a private log.

    A view over a run's log reads the cells when asked, not when it was
    made: once a row pending at that time completes, :meth:`columns`,
    :meth:`to_dict` and the checkers see its response.
    :attr:`operations` is built on first access and kept, so it shows the
    rows as they were then.
    """

    __slots__ = ("initial_value", "_log", "_rows", "_op_id", "_operations")

    def __init__(self, operations: Iterable[Operation] = (), initial_value: Any = None) -> None:
        from repro.exec.oplog import OpLog  # the op log module imports this one

        self._log, self._op_id = OpLog(), array("q")
        for op in operations:
            self._log.append(op)
            self._op_id.append(op.op_id)
        self._rows = range(len(self._op_id))
        self.initial_value = initial_value
        #: ``operations``, once somebody asked for it.
        self._operations: Optional[Tuple[Operation, ...]] = None

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
        history._log, history._rows, history._op_id = log, rows, range(len(rows))
        history.initial_value, history._operations = initial_value, None
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

    # Pickling ships the history's own decoded columns, not the log it
    # views or an object per row; each value object is pickled once.
    def __reduce__(self):
        pid, kind, *rest = self.columns()
        return (_unpickle_history, (self.initial_value, pid, [each.value for each in kind], *rest))

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
        """Inverse of :meth:`to_dict`."""
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
            invoked=list(cells.invoked),
            responded=[None if at != at else at for at in cells.responded],
            op_id=self._op_id,
        )

    def log_rows(self) -> Tuple[OpLog, Sequence[int]]:
        """``(op log, rows)``: the log this history views and its rows of it,
        in history order — what the claims sweep reads straight off the log."""
        return self._log, self._rows

    @property
    def op_ids(self) -> Sequence[int]:
        """Each row's op id, in history order: its place (a ``range``) for a
        :meth:`view`, the given ``op_id`` for a history built from rows."""
        return self._op_id

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


def _unpickle_history(
    initial_value: Any, pid: Sequence[int], kinds: List[str], *columns: Any
) -> History:
    return History(map(Operation, pid, map(OpKind, kinds), *columns), initial_value)


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
