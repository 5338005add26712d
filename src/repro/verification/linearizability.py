"""General linearizability checking for read/write register histories.

Two engines live here:

* :func:`check_linearizability` — the **scalable** checker: an *iterative*
  Wing–Gong search [WG93]_ over the history's real-time partial order with

  - **memoized visited states** — a state is the pair ``(set of remaining
    operations, current register value)``; once a state is proven dead it is
    never re-explored (this is what makes the search practical: the number
    of distinct states is bounded by the history's concurrency window, not
    by its length);
  - **greedy read linearization** — a *minimal* read whose result equals the
    current value can always be linearized immediately (reads do not change
    the register state, so moving one to the front of any valid
    linearization of the remaining operations yields another valid
    linearization).  Only writes — and the decision to drop a pending write
    — branch, which collapses the search on the long read-dominated
    histories the store produces;
  - **frontier maintenance in O(1) per step** — remaining operations are
    kept on doubly-linked "dancing links" lists ordered by invocation and by
    response time, so the set of minimal operations is a short prefix walk
    instead of an O(n²) precedence-matrix scan (the matrix would already be
    25M entries for a 5 000-operation history);
  - an explicit stack instead of recursion, so histories with thousands of
    operations cannot hit the interpreter's recursion limit.

  There is **no operation cap**: full ``kv_openloop`` / ``chaos`` histories
  are checked end-to-end (the e2e ``check_replay`` workload replays 6 000
  operations per repetition; the previous recursive implementation refused
  anything over 64).

* :func:`brute_force_is_linearizable` — the original recursive
  backtracking search, kept verbatim as the *reference oracle*: the
  property-based tests cross-validate the scalable checker against it on
  every random history of up to ~12 operations.

:func:`is_linearizable` and :func:`find_linearization` are thin wrappers
over the **same** search core, so a history can never be declared
linearizable while yielding no witness — :func:`verify_witness` checks any
produced witness independently and is asserted in the test suite.

For multi-key histories, :func:`check_histories_per_key` exploits
**P-compositionality** (Herlihy & Wing locality): a history over many
independent objects is linearizable iff each per-object subhistory is, so a
5 000-operation store run decomposes into per-key problems whose
concurrency windows are small.  Keys that are single-writer with distinct
written values take the ``O(n log n)`` Lemma-10 claims checker of
:mod:`repro.verification.register_checker` as a fast path (the cheap
register-specific pruning); everything else runs the Wing–Gong core.

Pending operations are handled per the linearizability definition: a
pending **write** may be linearized (it might have taken effect) or
dropped; pending **reads** impose no constraint and are ignored.

.. [WG93] J. M. Wing, C. Gong, *Testing and verifying concurrent objects*,
   JPDC 17(1-2), 1993.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.verification.history import Columns, History, Operation, OpKind

__all__ = [
    "CheckResult",
    "LinearizabilityBudgetExceeded",
    "PartitionedCheckReport",
    "brute_force_is_linearizable",
    "check_histories_per_key",
    "check_linearizability",
    "find_linearization",
    "is_linearizable",
    "verify_witness",
]


class LinearizabilityBudgetExceeded(RuntimeError):
    """Raised when the search exceeds an explicit ``max_states`` budget."""


def _hashable(value: Any) -> Any:
    """Map a value to something hashable for memoisation."""
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def _relevant_rows(columns: Columns, spec: Any = None) -> tuple[list[int], list[int]]:
    """(completed rows, optional pending rows) — what the definition constrains.

    Pending *pure* operations (reads under both specs) impose no constraint
    and are ignored; pending state-changing operations may or may not have
    taken effect, so they enter the search as optional.
    """
    kind, responded = columns.kind, columns.responded
    completed = [row for row, at in enumerate(responded) if at is not None]
    if spec is None:
        pending_effectful = [
            row for row, at in enumerate(responded) if at is None and kind[row] is OpKind.WRITE
        ]
    else:
        pending_effectful = [
            row for row, at in enumerate(responded) if at is None and not spec.is_pure(kind[row])
        ]
    return completed, pending_effectful


def _relevant_operations(history: History) -> tuple[list[Operation], list[Operation]]:
    """:func:`_relevant_rows` as ``Operation`` rows (witness validation, the oracle)."""
    completed, pending_writes = _relevant_rows(history.columns())
    operations = history.operations
    return [operations[row] for row in completed], [operations[row] for row in pending_writes]


def _precedes(a: Operation, b: Operation) -> bool:
    """Operation ``a`` must be linearized before ``b``.

    Two sources of ordering constraints:

    * **real time** — ``a`` responded strictly before ``b`` was invoked;
    * **program order** — ``a`` and ``b`` belong to the same (sequential)
      process and ``a`` was invoked first.  This matters at the boundary
      where an operation's response time equals the same process's next
      invocation time (common in closed-loop clients with zero think time):
      real-time precedence alone (strict inequality) would miss the edge.
    """
    if a is b:
        return False
    if a.responded_at is not None and a.responded_at < b.invoked_at:
        return True
    if a.pid == b.pid:
        if a.invoked_at < b.invoked_at:
            return True
        # Same invocation instant: fall back to op_id (creation order).
        if a.invoked_at == b.invoked_at and a.op_id < b.op_id and a.responded_at is not None:
            return True
    return False


# --------------------------------------------------------------------------
# The scalable checker (iterative Wing–Gong with memoized states)
# --------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one :func:`check_linearizability` call.

    ``witness`` is a valid linearization order (completed operations plus
    any pending writes that were linearized) when the history is
    linearizable and witness collection was requested; dropped pending
    writes do not appear in it.
    """

    linearizable: bool
    operations: int
    states_explored: int = 0
    greedy_reads: int = 0
    witness: Optional[List[Operation]] = None
    #: Which engine produced the verdict: ``"wing-gong"``, ``"swmr-claims"``
    #: (per-key fast path) or ``"trivial"`` (empty history).
    method: str = "wing-gong"
    #: Human-readable diagnostics for non-linearizable histories (filled by
    #: the claims fast path; the search core reports the verdict only).
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Alias of ``linearizable`` (report-shape parity with atomicity results)."""
        return self.linearizable


_INFINITY = float("inf")


def check_linearizability(
    history: History,
    collect_witness: bool = True,
    max_states: Optional[int] = None,
    spec: Any = None,
) -> CheckResult:
    """Check ``history`` against a sequential specification.

    The single search core behind :func:`is_linearizable` and
    :func:`find_linearization`.  ``max_states`` bounds the number of
    distinct memoized states explored (``None`` = unlimited); exceeding it
    raises :class:`LinearizabilityBudgetExceeded` rather than returning a
    wrong verdict.

    ``spec`` selects the sequential object: ``None`` (the default) is the
    hand-tuned atomic read/write register path, unchanged; a
    :class:`~repro.verification.specs.SequentialSpec` instance generalizes
    the same search to arbitrary deterministic state machines — every
    *completed* operation's recorded result must match the spec's result at
    its linearization point, pure operations are consumed greedily, and
    pending state-changing operations stay optional.
    """
    columns = history.columns()
    completed, pending_writes = _relevant_rows(columns, spec)
    rows = completed + pending_writes
    count = len(rows)
    if count == 0:
        return CheckResult(
            linearizable=True,
            operations=0,
            witness=[] if collect_witness else None,
            method="trivial",
        )

    # Index order: by invocation time (ties by op_id) — the order the
    # invocation frontier list walks candidates in.  Everything the search
    # touches is a parallel list over that order, read off the columns.
    rows.sort(key=lambda row: (columns.invoked[row], columns.op_id[row]))
    op_id = [columns.op_id[row] for row in rows]
    pid_of = [columns.pid[row] for row in rows]
    kind_of = [columns.kind[row] for row in rows]
    value_of = [columns.value[row] for row in rows]
    result_of = [columns.result[row] for row in rows]
    invoked = [columns.invoked[row] for row in rows]
    responded = [columns.responded[row] for row in rows]
    optional = [at is None for at in responded]  # pending effectful ops may be dropped
    resp_time = [_INFINITY if at is None else at for at in responded]
    if spec is None:
        is_pure = [kind is OpKind.READ for kind in kind_of]
    else:
        is_pure = [spec.is_pure(kind) for kind in kind_of]
    hval = [
        _hashable(result if kind is OpKind.READ else value)
        for kind, value, result in zip(kind_of, value_of, result_of)
    ]

    # --- dancing-links frontiers ------------------------------------------
    # Invocation list: indices 0..count-1 already sorted; sentinel = count.
    sentinel = count
    inv_next = list(range(1, count + 1)) + [0]
    inv_prev = [sentinel] + list(range(count)) + [count - 1]
    inv_prev[sentinel] = count - 1
    inv_next[sentinel] = 0
    # Response list: sorted by (response time, op_id); pending ops sit at
    # the tail (infinite response) and never constrain the threshold.
    by_response = sorted(range(count), key=lambda i: (resp_time[i], op_id[i]))
    resp_next = [0] * (count + 1)
    resp_prev = [0] * (count + 1)
    chain = [sentinel] + by_response + [sentinel]
    for position in range(1, len(chain) - 1):
        resp_prev[chain[position]] = chain[position - 1]
        resp_next[chain[position]] = chain[position + 1]
    resp_next[sentinel] = chain[1]
    resp_prev[sentinel] = chain[-2]
    # Per-pid program-order chains (already in (invoked_at, op_id) order).
    pid_prev = [-1] * count
    pid_next = [-1] * count
    last_of_pid: Dict[int, int] = {}
    for i, pid in enumerate(pid_of):
        prev = last_of_pid.get(pid)
        if prev is not None:
            pid_prev[i] = prev
            pid_next[prev] = i
        last_of_pid[pid] = i

    def unlink(i: int) -> None:
        inv_next[inv_prev[i]] = inv_next[i]
        inv_prev[inv_next[i]] = inv_prev[i]
        resp_next[resp_prev[i]] = resp_next[i]
        resp_prev[resp_next[i]] = resp_prev[i]
        before, after = pid_prev[i], pid_next[i]
        if before != -1:
            pid_next[before] = after
        if after != -1:
            pid_prev[after] = before

    def relink(i: int) -> None:
        inv_next[inv_prev[i]] = i
        inv_prev[inv_next[i]] = i
        resp_next[resp_prev[i]] = i
        resp_prev[resp_next[i]] = i
        before, after = pid_prev[i], pid_next[i]
        if before != -1:
            pid_next[before] = i
        if after != -1:
            pid_prev[after] = i

    def program_blocked(i: int) -> bool:
        """True when an earlier remaining same-pid operation must precede ``i``."""
        j = pid_prev[i]
        while j != -1:
            if invoked[j] < invoked[i]:
                return True
            # Equal invocation instants: a completed earlier op precedes;
            # a pending one does not — keep scanning further back.
            if resp_time[j] != _INFINITY:
                return True
            j = pid_prev[j]
        return False

    # --- search state ------------------------------------------------------
    remaining_mask = (1 << count) - 1
    bit = [1 << i for i in range(count)]
    if spec is None:
        current = _hashable(history.initial_value)
    else:
        current = history.initial_value  # raw state: the spec applies to it
    order: List[int] = []  # linearized indices, in order (witness material)
    visited: set = set()
    states_explored = 0
    greedy_total = 0

    def candidates() -> List[int]:
        """Minimal remaining operations, in invocation order."""
        threshold = resp_time[resp_next[sentinel]] if resp_next[sentinel] != sentinel else _INFINITY
        found: List[int] = []
        i = inv_next[sentinel]
        while i != sentinel and invoked[i] <= threshold:
            if not program_blocked(i):
                found.append(i)
            i = inv_next[i]
        return found

    def consume_greedy_reads() -> int:
        """Linearize every minimal pure op matching the current state; returns how many."""
        nonlocal remaining_mask
        consumed = 0
        progress = True
        while progress:
            progress = False
            for i in candidates():
                if spec is None:
                    matches = is_pure[i] and hval[i] == current
                else:
                    matches = (
                        is_pure[i]
                        and result_of[i] == spec.apply(current, kind_of[i], value_of[i])[0]
                    )
                if matches:
                    unlink(i)
                    remaining_mask &= ~bit[i]
                    order.append(i)
                    consumed += 1
                    progress = True
                    # Restart the walk: removing i may unlock new minima.
                    break
        return consumed

    class _Frame:
        __slots__ = ("choices", "index", "greedy", "applied")

        def __init__(self, choices: List[Tuple[int, bool]], greedy: int) -> None:
            self.choices = choices
            self.index = 0
            self.greedy = greedy
            # The child step currently applied: (op index, dropped?, value before).
            self.applied: Optional[Tuple[int, bool, Any]] = None

    SOLVED, DESCENDED, PRUNED = 0, 1, 2
    frames: List[_Frame] = []

    def undo_greedy(count_to_undo: int) -> None:
        nonlocal remaining_mask
        for _ in range(count_to_undo):
            i = order.pop()
            relink(i)
            remaining_mask |= bit[i]

    def enter_state() -> int:
        """Enter the current state: greedy reads, memo check, frame push."""
        nonlocal states_explored, greedy_total
        greedy = consume_greedy_reads()
        greedy_total += greedy
        if remaining_mask == 0:
            # Terminal state: no frame needed — the search stops here and
            # the witness is read straight from ``order``.
            return SOLVED
        key = (remaining_mask, current if spec is None else _hashable(current))
        if key in visited:
            undo_greedy(greedy)
            return PRUNED
        visited.add(key)
        states_explored += 1
        if max_states is not None and states_explored > max_states:
            raise LinearizabilityBudgetExceeded(
                f"linearizability search exceeded max_states={max_states} "
                f"on a {count}-operation history"
            )
        choices: List[Tuple[int, bool]] = []
        minimal = candidates()
        for i in minimal:
            if not is_pure[i]:
                choices.append((i, False))
        for i in minimal:
            if optional[i]:
                choices.append((i, True))
        frames.append(_Frame(choices, greedy))
        return DESCENDED

    solved = enter_state() == SOLVED
    while not solved and frames:
        frame = frames[-1]
        if frame.applied is not None:
            i, dropped, previous_value = frame.applied
            relink(i)
            remaining_mask |= bit[i]
            if not dropped:
                order.pop()
            current = previous_value
            frame.applied = None
        if frame.index >= len(frame.choices):
            undo_greedy(frame.greedy)
            frames.pop()
            continue
        i, dropped = frame.choices[frame.index]
        frame.index += 1
        previous_value = current
        unlink(i)
        remaining_mask &= ~bit[i]
        if not dropped:
            if spec is None:
                current = hval[i]  # always a write: reads were consumed greedily
            else:
                result, next_state = spec.apply(current, kind_of[i], value_of[i])
                if resp_time[i] != _INFINITY and not (result_of[i] == result):
                    # A completed operation whose recorded result contradicts
                    # the spec at this point cannot linearize here: undo and
                    # move on to the frame's next choice.
                    relink(i)
                    remaining_mask |= bit[i]
                    continue
                current = next_state
            order.append(i)
        frame.applied = (i, dropped, previous_value)
        solved = enter_state() == SOLVED

    witness: Optional[List[Operation]] = None
    if solved and collect_witness:
        operations = history.operations
        witness = [operations[rows[i]] for i in order]
    return CheckResult(
        linearizable=solved,
        operations=count,
        states_explored=states_explored,
        greedy_reads=greedy_total,
        witness=witness,
        method="wing-gong" if spec is None else f"wing-gong[{spec.name}]",
    )


# --------------------------------------------------------------------------
# Public wrappers — one shared search core
# --------------------------------------------------------------------------


def _enforce_cap(history: History, max_operations: Optional[int], caller: str) -> None:
    if max_operations is None:
        return
    relevant = sum(map(len, _relevant_rows(history.columns())))
    if relevant > max_operations:
        raise ValueError(
            f"history has {relevant} relevant operations, more than "
            f"max_operations={max_operations} requested for {caller}; pass "
            "max_operations=None to lift the cap (the iterative checker "
            "handles large histories)"
        )


def is_linearizable(
    history: History,
    max_operations: Optional[int] = None,
    max_states: Optional[int] = None,
) -> bool:
    """Return True iff the history is linearizable w.r.t. the register specification.

    Parameters
    ----------
    history:
        The history to check.  Pending reads are ignored; pending writes are
        optional (may or may not take effect).
    max_operations:
        Optional guard rail retained for compatibility: when given,
        histories with more relevant operations raise ``ValueError``.  The
        default (``None``) imposes **no cap** — the iterative search handles
        histories with thousands of operations.
    max_states:
        Optional search budget (see :func:`check_linearizability`).
    """
    _enforce_cap(history, max_operations, "is_linearizable")
    return check_linearizability(
        history, collect_witness=False, max_states=max_states
    ).linearizable


def find_linearization(
    history: History,
    max_operations: Optional[int] = None,
    max_states: Optional[int] = None,
) -> Optional[list[Operation]]:
    """Return one valid linearization order, or ``None``.

    Runs the *same* search core as :func:`is_linearizable`, so a history
    accepted by one is always accepted by the other and every accepted
    history yields a witness (asserted by ``verify_witness`` in the tests).
    The witness contains every completed operation plus any pending writes
    that were linearized; dropped pending writes are omitted.
    """
    _enforce_cap(history, max_operations, "find_linearization")
    result = check_linearizability(history, collect_witness=True, max_states=max_states)
    return result.witness if result.linearizable else None


def verify_witness(history: History, witness: List[Operation]) -> List[str]:
    """Independently validate a witness; returns a list of problems (empty = valid).

    A valid witness (i) contains every completed operation exactly once and
    no pending reads, (ii) respects the history's precedence order (real
    time + program order), and (iii) replays correctly against the
    sequential register specification starting from the initial value.
    """
    problems: List[str] = []
    completed, pending_writes = _relevant_operations(history)
    expected = {id(op) for op in completed}
    allowed = expected | {id(op) for op in pending_writes}
    seen: set = set()
    for op in witness:
        if id(op) not in allowed:
            problems.append(f"witness contains a foreign/pending-read operation: {op.describe()}")
        if id(op) in seen:
            problems.append(f"witness repeats an operation: {op.describe()}")
        seen.add(id(op))
    missing = expected - seen
    if missing:
        lookup = {id(op): op for op in completed}
        for op_id in sorted(missing, key=lambda key: lookup[key].op_id):
            problems.append(f"witness omits a completed operation: {lookup[op_id].describe()}")
    for position, first in enumerate(witness):
        for second in witness[position + 1 :]:
            if _precedes(second, first):
                problems.append(
                    "witness violates precedence: "
                    f"{second.describe()} must come before {first.describe()}"
                )
    value = history.initial_value
    for op in witness:
        if op.is_write:
            value = op.value
        elif not (op.result == value):
            problems.append(
                f"witness replay mismatch: {op.describe()} read {op.result!r} "
                f"but the register held {value!r}"
            )
    return problems


# --------------------------------------------------------------------------
# Per-key partitioned checking (P-compositionality)
# --------------------------------------------------------------------------


@dataclass
class PartitionedCheckReport:
    """Per-key linearizability verdicts for a multi-key run.

    Soundness rests on the **locality** of linearizability (Herlihy & Wing):
    every key of the sharded store is an independent register (its own
    subnet, its own replicas, no cross-key protocol messages), so the store
    history is linearizable iff each key's subhistory is.
    """

    per_key: Dict[Any, CheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every key's history is linearizable."""
        return all(result.linearizable for result in self.per_key.values())

    @property
    def keys_checked(self) -> int:
        return len(self.per_key)

    @property
    def operations_checked(self) -> int:
        """Total relevant operations across every key."""
        return sum(result.operations for result in self.per_key.values())

    @property
    def states_explored(self) -> int:
        """Total memoized search states across every key (0 for fast-path keys)."""
        return sum(result.states_explored for result in self.per_key.values())

    def failing_keys(self) -> list:
        """Keys whose history is not linearizable, sorted by repr."""
        return sorted(
            (key for key, result in self.per_key.items() if not result.linearizable),
            key=repr,
        )

    def violations(self) -> List[str]:
        """All diagnostics, each prefixed with the offending key."""
        messages: List[str] = []
        for key in self.failing_keys():
            result = self.per_key[key]
            details = result.violations or [f"history is not linearizable ({result.method})"]
            for detail in details:
                messages.append(f"[{key!r}] {detail}")
        return messages


def _swmr_fast_path_applies(history: History) -> bool:
    """True when the Lemma-10 claims checker is a complete verdict for ``history``."""
    if len(history.writer_pids()) > 1:
        return False
    if not history.written_values_distinct():
        return False
    columns = history.columns()
    try:
        hash(history.initial_value)
        for kind, value in zip(columns.kind, columns.value):
            if kind is OpKind.WRITE:
                hash(value)  # the claims checker indexes values by hash
    except TypeError:
        return False
    return True


def check_histories_per_key(
    histories: Mapping[Any, History],
    swmr_fast_path: bool = True,
    max_states: Optional[int] = None,
    collect_witness: bool = False,
    workers: int = 1,
    spec: Optional[str] = None,
) -> PartitionedCheckReport:
    """Check many independent per-key histories (P-compositional checking).

    Keys whose history is single-writer with distinct written values are
    (by default) verified with the ``O(n log n)`` claims checker of
    :mod:`repro.verification.register_checker` — the cheap register-specific
    pruning — and everything else runs the Wing–Gong core.  Pass
    ``swmr_fast_path=False`` to force the search engine on every key (the
    checker benchmark does, to measure it).

    ``workers > 1`` fans the per-key checks out over a process pool
    (:mod:`repro.parallel`): per-key partitioning makes the problem
    embarrassingly parallel, and the verdict for each key is computed by the
    very same code path, so the report is identical to the serial one except
    that parallel checking never collects witnesses (they do not pickle
    compactly and no caller of the partitioned checker uses them).
    """
    if workers > 1 and len(histories) > 1 and not collect_witness:
        from repro.parallel.check import check_histories_parallel

        return check_histories_parallel(
            histories,
            swmr_fast_path=swmr_fast_path,
            max_states=max_states,
            workers=workers,
            spec=spec,
        )
    from repro.verification.register_checker import check_swmr_atomicity
    from repro.verification.specs import get_spec

    spec_obj = get_spec(spec)
    report = PartitionedCheckReport()
    for key, history in histories.items():
        if spec_obj is not None:
            # Non-register specs always run the (spec-parametric) search
            # core; the SWMR claims fast path is register-only.
            report.per_key[key] = check_linearizability(
                history,
                collect_witness=collect_witness,
                max_states=max_states,
                spec=spec_obj,
            )
        elif swmr_fast_path and _swmr_fast_path_applies(history):
            claims = check_swmr_atomicity(history, raise_on_violation=False)
            report.per_key[key] = CheckResult(
                linearizable=claims.ok,
                operations=sum(map(len, _relevant_rows(history.columns()))),
                method="swmr-claims",
                violations=list(claims.violations),
            )
        else:
            report.per_key[key] = check_linearizability(
                history, collect_witness=collect_witness, max_states=max_states
            )
    return report


# --------------------------------------------------------------------------
# The reference oracle (the original recursive search, kept for
# cross-validation and for demonstrating the old 64-operation cap)
# --------------------------------------------------------------------------


def _precedence_matrix(ops: Tuple[Operation, ...]) -> list[list[bool]]:
    """``precedes[a][b]`` — operation ``a`` must be linearized before ``b``."""
    return [[_precedes(ops[a], ops[b]) for b in range(len(ops))] for a in range(len(ops))]


def brute_force_is_linearizable(history: History, max_operations: int = 64) -> bool:
    """The original recursive Wing–Gong backtracking search (reference oracle).

    Exponential in the number of concurrent operations and hard-capped at
    ``max_operations`` (histories larger than that raise ``ValueError``) —
    exactly the behaviour the scalable checker replaced.  Kept so
    property-based tests can cross-validate :func:`check_linearizability`
    against an independent implementation on small histories, and so the
    checker benchmark can demonstrate what the cap used to refuse.
    """
    completed, pending_writes = _relevant_operations(history)
    operations = completed + pending_writes
    if len(operations) > max_operations:
        raise ValueError(
            f"history has {len(operations)} relevant operations, more than "
            f"max_operations={max_operations}; use check_linearizability for large histories"
        )

    ops: Tuple[Operation, ...] = tuple(operations)
    ids = {id(op): index for index, op in enumerate(ops)}
    optional = frozenset(ids[id(op)] for op in pending_writes)
    precedes = _precedence_matrix(ops)
    initial = _hashable(history.initial_value)

    @lru_cache(maxsize=None)
    def search(remaining: FrozenSet[int], current_value: Any) -> bool:
        if not remaining:
            return True
        for candidate in sorted(remaining):
            if any(precedes[other][candidate] for other in remaining if other != candidate):
                continue
            op = ops[candidate]
            rest = remaining - {candidate}
            if op.is_write:
                if search(rest, _hashable(op.value)):
                    return True
            else:
                if _hashable(op.result) == current_value and search(rest, current_value):
                    return True
        for candidate in sorted(remaining & optional):
            if any(precedes[other][candidate] for other in remaining if other != candidate):
                continue
            if search(remaining - {candidate}, current_value):
                return True
        return False

    try:
        return search(frozenset(range(len(ops))), initial)
    finally:
        search.cache_clear()
