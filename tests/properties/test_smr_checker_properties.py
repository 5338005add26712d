"""Property-based validation of the Wing–Gong search under the SMR spec.

The pinned goldens fix the SMR search's output on a few recorded runs; these
properties pin its meaning on random small histories of reads, writes,
compare-and-swaps, test-and-sets and increments:

* the search agrees with a brute-force oracle that tries every order of the
  relevant operations respecting ``_precedes`` (and every choice of pending
  state-changing operations to drop);
* every accepted history's witness replays through the spec
  (:func:`verify_witness` with ``spec``);
* the row order of a history changes nothing: a history whose rows run in
  ``(invoked, op_id)`` order with nothing pending is searched straight off
  its columns, a shuffled copy after a sort, and both give the same verdict,
  state count, greedy count and witness.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.verification.history import History, OpKind, Operation
from repro.verification.linearizability import _precedes, check_linearizability, verify_witness
from repro.verification.specs import SMRSpec

SPEC = SMRSpec()
MAX_OPS = 7
KINDS = (OpKind.READ, OpKind.WRITE, OpKind.CAS, OpKind.TAS, OpKind.INCR)
VALUES = ("a", "b", 0, None)
#: Results a corrupted operation may claim instead of the spec's.
RESULTS = ("a", "b", 0, 1, 2, 3, True, False, None)


def _extends(remaining: list, state, spec) -> bool:
    """Some order of ``remaining`` respects precedence and replays through ``spec``."""
    if not remaining:
        return True
    for op in remaining:
        if any(_precedes(other, op) for other in remaining if other is not op):
            continue
        result, after = spec.apply(state, op.kind, op.value)
        if not op.pending and not (op.result == result):
            continue
        if _extends([other for other in remaining if other is not op], after, spec):
            return True
    return False


def brute_force_smr(history: History, spec=SPEC) -> bool:
    """The oracle: every subset of pending state-changing operations taken,
    every order of the result tried (no memo, no greedy step)."""
    operations = history.operations
    completed = [op for op in operations if not op.pending]
    optional = [op for op in operations if op.pending and not spec.is_pure(op.kind)]
    assert len(completed) + len(optional) <= MAX_OPS
    for taken in product((False, True), repeat=len(optional)):
        chosen = completed + [op for op, take in zip(optional, taken) if take]
        if _extends(chosen, history.initial_value, spec):
            return True
    return False


@st.composite
def smr_histories(draw) -> History:
    """Small histories of sequential processes, results from a real execution.

    Each operation takes effect at a drawn point of its interval (a pending
    one at any later point, or never) and records the spec's result there;
    about a third of the histories then have one result corrupted.  Integer
    times make invocation/response ties common.  Rows are numbered and
    stored in ``(invoked, op_id)`` order, as the op log stores them.
    """
    initial = draw(st.sampled_from(VALUES))
    processes = draw(st.integers(min_value=1, max_value=3))
    clock = [draw(st.integers(min_value=0, max_value=2)) for _ in range(processes)]
    ended = [False] * processes
    drafts = []  # [pid, kind, value, invoked, responded, effect point or None]
    for _ in range(draw(st.integers(min_value=1, max_value=MAX_OPS))):
        live = [pid for pid in range(processes) if not ended[pid]]
        if not live:
            break
        pid = draw(st.sampled_from(live))
        kind = draw(st.sampled_from(KINDS))
        if kind is OpKind.WRITE:
            value = draw(st.sampled_from(VALUES))
        elif kind is OpKind.CAS:
            value = (draw(st.sampled_from(VALUES)), draw(st.sampled_from(VALUES)))
        elif kind is OpKind.INCR:
            value = draw(st.integers(min_value=1, max_value=2))
        else:
            value = None
        invoked = clock[pid] + draw(st.integers(min_value=0, max_value=2))
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            ended[pid] = True  # a pending operation is its process's last
            responded = None
            point = invoked + draw(st.integers(0, 4)) / 2 if draw(st.booleans()) else None
        else:
            responded = invoked + draw(st.integers(min_value=0, max_value=3))
            point = invoked + (responded - invoked) * draw(st.sampled_from((0, 0.25, 0.5, 1)))
            clock[pid] = responded
        drafts.append([pid, kind, value, invoked, responded, point])
    # Replay the effects in point order (ties in creation order, which is
    # program order within a process) to get the results.
    state, results = initial, {}
    effects = sorted((d[5], index) for index, d in enumerate(drafts) if d[5] is not None)
    for _point, index in effects:
        results[index], state = SPEC.apply(state, drafts[index][1], drafts[index][2])
    completed = [index for index, d in enumerate(drafts) if d[4] is not None]
    if completed and draw(st.integers(min_value=0, max_value=2)) == 0:
        results[draw(st.sampled_from(completed))] = draw(st.sampled_from(RESULTS))
    order = sorted(range(len(drafts)), key=lambda index: (drafts[index][3], index))
    operations = [
        Operation(
            pid=drafts[index][0],
            kind=drafts[index][1],
            value=drafts[index][2],
            result=results.get(index) if drafts[index][4] is not None else None,
            invoked_at=float(drafts[index][3]),
            responded_at=None if drafts[index][4] is None else float(drafts[index][4]),
            op_id=op_id,
        )
        for op_id, index in enumerate(order)
    ]
    return History(operations, initial_value=initial)


def _outcome(history: History, spec=SPEC) -> tuple:
    result = check_linearizability(history, spec=spec)
    witness = None if result.witness is None else [op.op_id for op in result.witness]
    return result.linearizable, result.states_explored, result.greedy_reads, witness


@given(history=smr_histories())
@settings(max_examples=400, deadline=None)
def test_the_smr_search_agrees_with_the_brute_force_oracle(history: History):
    searched = check_linearizability(history, collect_witness=False, spec=SPEC).linearizable
    assert searched == brute_force_smr(history), history.describe()


@given(history=smr_histories())
@settings(max_examples=300, deadline=None)
def test_every_accepted_smr_history_yields_a_witness_the_spec_replays(history: History):
    result = check_linearizability(history, spec=SPEC)
    if result.linearizable:
        problems = verify_witness(history, result.witness, SPEC)
        assert problems == [], "\n".join(problems) + "\n" + history.describe()
    else:
        assert result.witness is None


@given(history=smr_histories(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_row_order_does_not_change_the_search(history: History, data):
    shuffled = History(
        data.draw(st.permutations(history.operations)), initial_value=history.initial_value
    )
    assert _outcome(shuffled) == _outcome(history)
    if all(op.kind in (OpKind.READ, OpKind.WRITE) for op in history.operations):
        assert _outcome(shuffled, None) == _outcome(history, None)
