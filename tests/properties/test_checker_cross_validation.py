"""Property-based cross-validation of the two atomicity checkers.

The fast single-writer checker (:func:`check_swmr_atomicity`) is the one the
whole harness relies on; the exponential Wing–Gong search
(:func:`is_linearizable`) is the reference oracle.  On randomly generated
small single-writer histories the two must always agree.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.verification.history import History, OpKind, Operation
from repro.verification.linearizability import brute_force_is_linearizable, is_linearizable
from repro.verification.register_checker import check_swmr_atomicity

MAX_WRITES = 4
MAX_READS = 5


@st.composite
def swmr_histories(draw) -> History:
    """Random single-writer histories with distinct written values.

    Writes are sequential (the single writer's program order); reads are
    placed at arbitrary (possibly overlapping) intervals and return either
    the initial value or any written value — so roughly half the generated
    histories are atomic and half are not, which is exactly what a
    cross-validation test wants.
    """
    num_writes = draw(st.integers(min_value=0, max_value=MAX_WRITES))
    num_reads = draw(st.integers(min_value=1, max_value=MAX_READS))
    operations: list[Operation] = []
    op_id = 0

    # Sequential writes by process 0 with gaps between them.
    clock = 0.0
    write_intervals: list[tuple[float, float]] = []
    for index in range(1, num_writes + 1):
        start = clock + draw(st.floats(min_value=0.0, max_value=2.0))
        duration = draw(st.floats(min_value=0.1, max_value=3.0))
        end = start + duration
        operations.append(
            Operation(
                pid=0,
                kind=OpKind.WRITE,
                value=f"v{index}",
                invoked_at=start,
                responded_at=end,
                op_id=op_id,
            )
        )
        op_id += 1
        write_intervals.append((start, end))
        clock = end

    horizon = max(clock, 1.0) + 2.0
    possible_values = ["v0"] + [f"v{i}" for i in range(1, num_writes + 1)]
    for reader in range(num_reads):
        start = draw(st.floats(min_value=0.0, max_value=horizon))
        duration = draw(st.floats(min_value=0.1, max_value=3.0))
        value = draw(st.sampled_from(possible_values))
        operations.append(
            Operation(
                pid=1 + (reader % 3),
                kind=OpKind.READ,
                result=value,
                invoked_at=start,
                responded_at=start + duration,
                op_id=op_id,
            )
        )
        op_id += 1

    return History(operations=operations, initial_value="v0")


@st.composite
def writer_also_reads(draw) -> History:
    """Single-writer histories whose writer interleaves reads with its writes.

    The writer is one sequential process, so its operations do not overlap;
    its think time is often zero, so a read responds at the very instant the
    next write is invoked (or the other way round) and only program order,
    not real time, separates the two.  Up to three reads by other processes
    overlap them arbitrarily.  Any read may return any value.
    """
    steps = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    values = ["v0"] + [f"v{i}" for i in range(1, sum(steps) + 1)]
    operations: list[Operation] = []
    clock, written = 0.0, 0
    for is_write in steps:
        start = clock + draw(st.sampled_from([0.0, 0.5, 1.0]))
        clock = start + draw(st.sampled_from([0.5, 1.0, 2.0]))
        written += is_write
        operations.append(
            Operation(
                pid=0,
                kind=OpKind.WRITE if is_write else OpKind.READ,
                value=f"v{written}" if is_write else None,
                result=None if is_write else draw(st.sampled_from(values)),
                invoked_at=start,
                responded_at=clock,
                op_id=len(operations),
            )
        )
    for reader in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.floats(min_value=0.0, max_value=clock + 2.0))
        operations.append(
            Operation(
                pid=1 + reader % 2,
                kind=OpKind.READ,
                result=draw(st.sampled_from(values)),
                invoked_at=start,
                responded_at=start + draw(st.floats(min_value=0.1, max_value=3.0)),
                op_id=len(operations),
            )
        )
    return History(operations=operations, initial_value="v0")


@given(history=st.one_of(swmr_histories(), writer_also_reads()))
@settings(max_examples=400, deadline=None)
def test_fast_checker_agrees_with_the_linearizability_oracle(history: History):
    """The specialised Lemma-10 checker and the general oracle must agree."""
    fast_verdict = check_swmr_atomicity(history, raise_on_violation=False).ok
    oracle_verdict = is_linearizable(history, max_operations=MAX_WRITES + MAX_READS + 1)
    assert oracle_verdict == brute_force_is_linearizable(history)
    assert fast_verdict == oracle_verdict, (
        f"checkers disagree (fast={fast_verdict}, oracle={oracle_verdict}) on:\n"
        + history.describe()
    )


@given(history=swmr_histories())
@settings(max_examples=100, deadline=None)
def test_fast_checker_is_deterministic(history: History):
    first = check_swmr_atomicity(history, raise_on_violation=False)
    second = check_swmr_atomicity(history, raise_on_violation=False)
    assert first.ok == second.ok
    assert first.violations == second.violations


@given(
    num_writes=st.integers(min_value=0, max_value=6),
    gap=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_sequential_histories_reading_the_latest_value_are_always_atomic(num_writes, gap):
    """A fully sequential run where every read returns the latest completed
    write is atomic by construction; both checkers must accept it."""
    operations = []
    clock = 0.0
    op_id = 0
    latest = "v0"
    for index in range(1, num_writes + 1):
        operations.append(
            Operation(pid=0, kind=OpKind.WRITE, value=f"v{index}", invoked_at=clock, responded_at=clock + gap, op_id=op_id)
        )
        latest = f"v{index}"
        clock += 2 * gap
        op_id += 1
        operations.append(
            Operation(pid=1, kind=OpKind.READ, result=latest, invoked_at=clock, responded_at=clock + gap, op_id=op_id)
        )
        clock += 2 * gap
        op_id += 1
    history = History(operations=operations, initial_value="v0")
    assert check_swmr_atomicity(history, raise_on_violation=False).ok
    assert is_linearizable(history, max_operations=16)
