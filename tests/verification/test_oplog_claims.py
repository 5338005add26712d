"""The store's verdict: a run's view against the same rows rebuilt by hand.

A key's history off the op log is a view over it: ``KVStore.check_linearizability``
hands the per-key dispatcher the log's lazy per-key mapping
(:class:`~repro.exec.oplog.KeyHistories`), a register key is judged straight
off the log's cells, and a key's cells are decoded only when the sweep
refuses it.  The same histories rebuilt by hand from their ``Operation``
rows go through the same sweep on a private log of their own.  The two
must agree key by key — verdict, method, operation count and every
violation text — on the golden runs, on a run with planted violations, on
hand-driven logs with every awkward row the sweep special-cases, and on
random logs, which also pin the grouping (each key's rows in
``History.from_records`` order, keys in the order of their first issued
row, after a trip through the wire format or a merge as well) and the
sweep's own order: a view over a key's rows backwards gets the report of
those rows rebuilt by hand in invocation order.
"""

from __future__ import annotations

import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

_TESTS = pathlib.Path(__file__).resolve().parent.parent
for _sibling in ("workloads", "parallel"):
    if str(_TESTS / _sibling) not in sys.path:
        sys.path.insert(0, str(_TESTS / _sibling))

from golden_histories import golden_specs  # noqa: E402
from golden_parallel import golden_cases  # noqa: E402

from repro.exec.oplog import KeyHistories, OpLog, decode_oplog, encode_oplog  # noqa: E402
from repro.registers.base import OperationKind, OperationRecord  # noqa: E402
from repro.verification.history import History  # noqa: E402
from repro.verification.linearizability import check_histories_per_key  # noqa: E402
from repro.verification.register_checker import (  # noqa: E402
    ClaimsNotApplicable,
    check_swmr_atomicity,
)
from repro.workloads.kv import run_kv_workload  # noqa: E402
from repro.workloads.runner import run_workload  # noqa: E402
from repro.workloads.scenarios import kv_uniform  # noqa: E402

READ, WRITE, CAS = OperationKind.READ, OperationKind.WRITE, OperationKind.CAS


def _per_key(report) -> list:
    return [
        (key, result.linearizable, result.method, result.operations, list(result.violations))
        for key, result in report.per_key.items()
    ]


def _claims(history):
    """The claims sweep's report on ``history``, or its refusal's text."""
    try:
        return check_swmr_atomicity(history, raise_on_violation=False)
    except ClaimsNotApplicable as refusal:
        return str(refusal)


def _unordered(history):
    """:func:`_claims`, with the violations as a sorted list."""
    claims = _claims(history)
    if isinstance(claims, str):
        return claims
    counts = claims.reads_checked, claims.writes_checked, claims.max_read_lag
    return claims.ok, counts, sorted(claims.violations)


def _rebuilt(histories) -> dict:
    """The same rows rebuilt by hand: each a history on a private log."""
    return {
        key: History(history.operations, history.initial_value)
        for key, history in histories.items()
    }


@pytest.fixture
def builds(monkeypatch):
    """A run's view against the same rows rebuilt by hand: the keys a
    :class:`KeyHistories` made a view for, and every decode of cells."""
    seen = {"keys": [], "decoded": 0}
    view_item = KeyHistories.__getitem__
    columns = History.columns

    def item(self, key):
        seen["keys"].append(key)
        return view_item(self, key)

    def decode(self):
        seen["decoded"] += 1
        return columns(self)

    monkeypatch.setattr(KeyHistories, "__getitem__", item)
    monkeypatch.setattr(History, "columns", decode)
    return seen


def _judge(builds, check):
    """``check()``'s report: every key got a view, and only the keys the
    sweep refused had their cells decoded (by the search)."""
    builds["keys"].clear()
    builds["decoded"] = 0
    report = check()
    searched = [key for key, result in report.per_key.items() if result.method != "swmr-claims"]
    assert builds["keys"] == list(report.per_key)
    assert builds["decoded"] == len(searched)
    return report


def assert_feeds_agree(log: OpLog, initial_value, builds, spec=None) -> list:
    """The view's report equals the rebuilt histories', and only refused keys decoded."""
    expected = check_histories_per_key(_rebuilt(log.per_key_histories(initial_value)), spec=spec)
    report = _judge(
        builds, lambda: check_histories_per_key(KeyHistories(log, initial_value), spec=spec)
    )
    assert _per_key(report) == _per_key(expected)
    return _per_key(report)


def _store_agrees(store, builds) -> None:
    spec = store.config.effective_spec()
    expected = check_histories_per_key(_rebuilt(store.histories()), spec=spec)
    report = _judge(builds, store.check_linearizability)
    assert _per_key(report) == _per_key(expected)
    assert _per_key(check_histories_per_key(store.histories(), spec=spec)) == _per_key(expected)


@pytest.mark.parametrize("name", sorted(golden_specs()))
def test_golden_register_runs(name, builds):
    _store_agrees(run_workload(golden_specs()[name]).store, builds)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_parallel_runs(name, builds):
    spec, _workers = golden_cases()[name]
    _store_agrees(run_kv_workload(spec).store, builds)


def test_a_run_with_planted_violations(builds):
    """Reads re-completed with a stale, a future and a never-written value."""
    store = run_kv_workload(kv_uniform(num_keys=4, num_ops=240, seed=5)).store
    log = store.oplog
    rng = random.Random(5)
    ops = log.ops_view()
    for key, rows in log.rows_by_key().items():
        written = [ops[row].value for row in rows if ops[row].kind is WRITE]
        late = [row for row in rows if ops[row].kind is READ and ops[row].completed]
        for row, result in zip(rng.sample(late, 3), [written[0], written[-1], "ghost"]):
            record = OperationRecord(row, ops[row].pid, READ, key=key, result=result)
            record.responded_at = ops[row].responded_at
            log.note_completed(row, record)
    report = store.check_linearizability()
    texts = " ".join(report.violations())
    for label in ("Claim 1", "Claim 2", "never written"):
        assert label in texts
    _store_agrees(store, builds)


class _Driver:
    """Drives an :class:`OpLog` by hand through its ``note_*`` hooks."""

    def __init__(self) -> None:
        self.log = OpLog()
        self.next_op = {}

    def op(self, key, pid, kind, start, end=None, value=None, result=None, failed=False):
        row = self.log.note_created(kind, key, value)
        self.log.note_submitted(row, start)
        proc_op_id = self.next_op[pid] = self.next_op.get(pid, -1) + 1
        record = OperationRecord(
            row, pid, kind, value, key, invoked_at=start, proc_op_id=proc_op_id
        )
        self.log.note_issued(row, record)
        if failed:
            self.log.note_failed(row, "replica crashed")
        elif end is not None:
            record.responded_at, record.result = end, result
            self.log.note_completed(row, record)
        return row


def test_a_hand_driven_log(builds):
    drive = _Driver()
    drive.log.note_created(READ, "late", None)  # never issued: in no history
    drive.log.note_created(READ, "repeat", None)  # its key comes by its first issued row
    # The claims key: same-instant invocations across pids, a pending write,
    # a failed read, 1.0 read where 1 was written, an unhashable result.
    drive.op("swmr", 0, WRITE, 1.0, 1.0, value=1)
    drive.op("swmr", 1, READ, 1.0, 2.0, result="v0")
    drive.op("swmr", 2, READ, 1.0, 1.5, result=1.0)
    drive.op("swmr", 0, WRITE, 1.0, 3.0, value=2)
    drive.op("swmr", 1, READ, 2.0, 4.0, result=[2])
    drive.op("swmr", 2, READ, 2.0, failed=True)
    drive.op("swmr", 0, WRITE, 3.0, value=3)  # pending
    drive.op("swmr", 1, READ, 4.0, 5.0, result=1)  # overwritten: Claim 2
    drive.op("swmr", 2, READ, 5.0, 6.0, result=3)
    drive.op("swmr", 1, READ, 7.0)  # pending read
    # Keys the sweep refuses: a second writer, a repeated value.
    drive.op("writers", 0, WRITE, 0.0, 1.0, value="a")
    drive.op("writers", 1, WRITE, 0.5, 2.0, value="b")
    drive.op("writers", 2, READ, 3.0, 4.0, result="b")
    drive.op("repeat", 0, WRITE, 0.0, 1.0, value="x")
    drive.op("repeat", 0, WRITE, 1.0, 2.0, value="x")
    drive.op("repeat", 1, READ, 1.0, 3.0, result="x")
    per_key = assert_feeds_agree(drive.log, "v0", builds)
    assert [(key, method) for key, _ok, method, _ops, _texts in per_key] == [
        ("swmr", "swmr-claims"),
        ("writers", "wing-gong"),
        ("repeat", "wing-gong"),
    ]
    key, ok, _method, operations, texts = per_key[0]
    assert not ok and operations == 8
    assert len(texts) == 2 and "never written" in texts[0] and "Claim 2" in texts[1]

    # A CAS row: the sweep refuses it, and so does the register search.
    drive.op("cas", 0, CAS, 0.0, 1.0, value=("v0", "v1"), result=True)
    with pytest.raises(ValueError) as built:
        check_histories_per_key(_rebuilt(drive.log.per_key_histories("v0")))
    with pytest.raises(ValueError) as viewed:
        check_histories_per_key(KeyHistories(drive.log, "v0"))
    assert str(viewed.value) == str(built.value)
    assert_feeds_agree(drive.log, "v0", builds, spec="smr")


def _driven(entries) -> OpLog:
    """The log of a driver that ran ``entries`` (``op`` keywords; ``None``
    creates a row it never issues)."""
    drive = _Driver()
    for key, op in entries:
        if op is None:
            drive.log.note_created(READ, key, None)
        else:
            drive.op(key, **op)
    return drive.log


def _over_the_wire(log: OpLog) -> OpLog:
    return decode_oplog(*encode_oplog(log))[0]


def _merged(entries, draw) -> OpLog:
    """``entries`` split between two drivers, each log across the wire,
    merged, and sometimes put back in scripted order."""
    mask = draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
    parts = [[at for at, mine in enumerate(mask) if mine == side] for side in (True, False)]
    merged = OpLog()
    for part in parts:
        merged.extend_remapped(_over_the_wire(_driven([entries[at] for at in part])))
    if draw(st.booleans()):
        return merged
    scripted = parts[0] + parts[1]
    return merged.reordered(sorted(range(len(scripted)), key=scripted.__getitem__))


@st.composite
def random_logs(draw) -> OpLog:
    """A few keys of reads and writes on a coarse time grid (ties abound).

    Mostly one writer with distinct values, so most keys take the sweep;
    sometimes a second writer or a repeated value.  Results are written
    values, the initial value, an equal value of another type, an
    unhashable value or a ghost; operations may be pending or failed.
    Keys may be ``1``, ``1.0`` and ``True`` — one key under ``==`` — a
    key's first row may never be issued, and the keys' rows interleave.
    Some logs then cross the wire format, or are run by two drivers and
    merged.
    """
    times = st.integers(min_value=0, max_value=8).map(lambda tick: tick / 2)
    rows = []
    for key in draw(st.lists(st.sampled_from([0, 1, 1.0, True, "k"]), min_size=1, max_size=3)):
        if draw(st.booleans()):
            rows.append((key, None))  # created, never issued
        values: list = []
        second_writer = draw(st.booleans()) and draw(st.booleans())
        for _ in range(draw(st.integers(min_value=1, max_value=12))):
            start = draw(times)
            end = draw(st.none() | times.map(lambda extra: start + extra))
            failed = end is None and draw(st.booleans())
            if draw(st.booleans()):
                pid = draw(st.sampled_from([0, 1])) if second_writer else 0
                repeat = values and draw(st.integers(min_value=0, max_value=9)) == 0
                value = draw(st.sampled_from(values)) if repeat else len(values) + 1
                values.append(value)
                rows.append((key, dict(pid=pid, kind=WRITE, value=value)))
            else:
                choices = ["v0", "ghost", [1]] + values + [float(value) for value in values]
                rows.append((key, dict(
                    pid=draw(st.integers(min_value=0, max_value=3)), kind=READ,
                    result=draw(st.sampled_from(choices)),
                )))
            rows[-1][1].update(start=start, end=end, failed=failed)
    entries = draw(st.permutations(rows))
    route = draw(st.sampled_from(["driven", "wire", "merged"]))
    if route == "merged":
        return _merged(entries, draw)
    log = _driven(entries)
    return _over_the_wire(log) if route == "wire" else log


@given(log=random_logs())
@settings(max_examples=200, deadline=None)
def test_random_logs(log):
    issued = [op for op in log.ops_view() if op.pid != -1]
    firsts: list = []  # keys by first issued row, equal keys as one
    for op in issued:
        if op.key not in firsts:
            firsts.append(op.key)
    histories = log.per_key_histories("v0")
    assert [(type(key), key) for key in histories] == [(type(key), key) for key in firsts]
    for key, history in histories.items():  # the grouping keeps from_records' order
        records = [op for op in issued if op.key == key]
        assert history.to_dict() == History.from_records(records, "v0").to_dict()
        # A view over the rows in another order gets the report of the same
        # rows rebuilt by hand in (invoked, op_id) order, up to the order
        # the violations are listed in.
        backwards = History.view(log, history.log_rows()[1][::-1], "v0")
        in_order = sorted(backwards.operations, key=lambda op: (op.invoked_at, op.op_id))
        assert _unordered(backwards) == _unordered(History(in_order, "v0"))
    expected = check_histories_per_key(_rebuilt(histories))
    assert _per_key(check_histories_per_key(KeyHistories(log, "v0"))) == _per_key(expected)
