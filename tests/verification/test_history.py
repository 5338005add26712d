"""Operation histories: columns are the representation, ``Operation`` is a row.

The history is gated on *exactness*: operations that go into the columns
come back field-for-field — pending operations, duplicate/interned values,
unhashable values and the ``1`` / ``1.0`` / ``True`` equality trap
included — through ``operations``, ``to_dict`` / ``from_dict`` and pickle
alike.  Times live in float columns: one a double holds exactly comes back
as that float, any other is refused.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.verification import history as history_module
from repro.verification.history import History, OpKind, Operation, ValueInterner, make_history
from repro.verification.linearizability import check_histories_per_key, find_linearization, verify_witness
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_cas, kv_openloop, kv_uniform

SETTINGS = dict(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Small domains force duplicate values (exercising the interner's dedup) and
# include unhashables (lists) plus the 1 / 1.0 / True equality trap.
values = st.one_of(
    st.none(),
    st.sampled_from([0, 1, True, False, 1.0, 0.0, "v1", "v2", ""]),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
)
# Times mix plain floats with ints (hand-written test histories use ints;
# they read back as the equal floats).
times = st.one_of(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**6),
)


@st.composite
def operation_lists(draw):
    operations = []
    for op_id in range(draw(st.integers(min_value=0, max_value=12))):
        invoked = draw(times)
        pending = draw(st.booleans())
        operations.append(
            Operation(
                pid=draw(st.integers(min_value=0, max_value=5)),
                kind=draw(st.sampled_from([OpKind.READ, OpKind.WRITE])),
                value=draw(values),
                result=draw(values),
                invoked_at=invoked,
                responded_at=None if pending else invoked + draw(times),
                op_id=op_id,
            )
        )
    return operations


def assert_same_rows(rows, operations):
    """Equal, values and results of the same types (``1 == 1.0 == True``
    would hide a lossy column), and times the floats equal to the input."""
    assert list(rows) == list(operations)
    for restored, original in zip(rows, operations):
        for field in ("value", "result"):
            assert type(getattr(restored, field)) is type(getattr(original, field))
        for field in ("invoked_at", "responded_at"):
            at = getattr(original, field)
            assert getattr(restored, field) == (None if at is None else float(at))
            assert at is None or type(getattr(restored, field)) is float


class TestOperation:
    def test_precedence_and_concurrency(self):
        first = Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=0.0, responded_at=1.0)
        second = Operation(pid=1, kind=OpKind.READ, result="a", invoked_at=2.0, responded_at=3.0)
        overlapping = Operation(pid=2, kind=OpKind.READ, result="a", invoked_at=0.5, responded_at=2.5)
        assert first.precedes(second)
        assert not second.precedes(first)
        assert not first.precedes(overlapping) and not overlapping.precedes(first)
        assert not overlapping.precedes(second) and not second.precedes(overlapping)

    def test_pending_operations_never_precede(self):
        pending = Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=0.0, responded_at=None)
        later = Operation(pid=1, kind=OpKind.READ, invoked_at=10.0, responded_at=11.0)
        assert pending.pending
        assert not pending.precedes(later)
        assert not later.precedes(pending)

    def test_describe_mentions_kind_and_value(self):
        write = Operation(pid=0, kind=OpKind.WRITE, value="x", invoked_at=0.0, responded_at=1.0)
        read = Operation(pid=1, kind=OpKind.READ, result="x", invoked_at=0.0, responded_at=None)
        assert "write('x')" in write.describe()
        assert "read() -> 'x'" in read.describe()
        assert "pending" in read.describe()

    def test_one_operation_kind_enum(self):
        assert OpKind is OperationKind


class TestRoundTripProperties:
    @settings(**SETTINGS)
    @given(operation_lists(), values)
    def test_rows_round_trip_exactly(self, operations, initial_value):
        history = History(operations, initial_value=initial_value)
        assert len(history) == len(operations)
        assert history.initial_value == initial_value
        assert type(history.initial_value) is type(initial_value)
        assert_same_rows(history.operations, operations)
        assert_same_rows(history, operations)
        assert history == History(operations, initial_value=initial_value)

    @settings(**SETTINGS)
    @given(operation_lists(), values)
    def test_to_dict_is_the_rows_to_dict(self, operations, initial_value):
        history = History(operations, initial_value=initial_value)
        payload = history.to_dict()
        assert payload == {
            "initial_value": initial_value,
            "operations": [op.to_dict() for op in operations],
        }
        assert [list(entry) for entry in payload["operations"]] == [
            list(op.to_dict()) for op in operations
        ]  # same key order: serialized goldens are compared as text
        assert_same_rows(History.from_dict(payload).operations, operations)

    @settings(**SETTINGS)
    @given(operation_lists(), values)
    def test_pickle_round_trips(self, operations, initial_value):
        restored = pickle.loads(pickle.dumps(History(operations, initial_value=initial_value)))
        assert restored.initial_value == initial_value
        assert_same_rows(restored.operations, operations)

    @settings(**SETTINGS)
    @given(operation_lists())
    def test_views_are_filters_of_the_rows(self, operations):
        history = History(operations)
        assert history.completed() == [op for op in operations if not op.pending]
        assert history.pending() == [op for op in operations if op.pending]
        assert history.reads() == [op for op in operations if op.is_read and not op.pending]
        assert history.reads(include_pending=True) == [op for op in operations if op.is_read]
        assert history.writes() == sorted(
            (op for op in operations if op.is_write), key=lambda op: op.invoked_at
        )
        columns = history.columns()
        assert [Operation(*cells) for cells in zip(*columns)] == operations


class TestRepresentationDetails:
    def test_pending_operation_round_trips(self):
        history = make_history([(0, "write", "v1", 0.0, None)], initial_value="v0")
        row = history.operations[0]
        assert row.pending
        assert row.responded_at is None
        assert history.columns().responded == [None]

    def test_int_and_bool_times_read_back_as_equal_floats(self):
        """A time a double holds exactly goes into the log's float columns
        and comes back as that float, through every round trip."""
        times = [(1, 3), (True, 2**53), (0.5, None)]
        operations = [
            Operation(pid=0, kind=OpKind.WRITE, value=f"v{i}", invoked_at=invoked,
                      responded_at=responded, op_id=i)
            for i, (invoked, responded) in enumerate(times)
        ]
        history = History(operations, initial_value="v0")
        for restored in (history, pickle.loads(pickle.dumps(history)), History.from_dict(history.to_dict())):
            assert_same_rows(restored.operations, operations)
            assert restored.columns().invoked == [1.0, 1.0, 0.5]
            assert restored.columns().responded == [3.0, float(2**53), None]

    @pytest.mark.parametrize(
        "field, at",
        [
            ("invoked_at", float("nan")),
            ("responded_at", float("nan")),
            ("invoked_at", Fraction(1, 3)),
            ("responded_at", 2**53 + 1),
            ("invoked_at", 10**400),
        ],
        ids=["nan-invoked", "nan-responded", "fraction", "past-2**53", "past-float-range"],
    )
    def test_a_time_no_float_holds_is_refused_by_name(self, field, at):
        """NaN would read as pending, and a rounded float is another time."""
        fine = Operation(
            pid=0, kind=OpKind.WRITE, value="a", invoked_at=0.0, responded_at=1.0, op_id=0
        )
        times = {"invoked_at": 0.0, "responded_at": 2.0, field: at}
        bad = Operation(pid=1, kind=OpKind.READ, result="a", op_id=7, **times)
        with pytest.raises(ValueError, match=rf"^operation 7 \(read by p1\): {field}="):
            History([fine, bad])

    def test_interner_deduplicates_but_separates_equal_cross_type_values(self):
        interner = ValueInterner()
        assert interner.intern("v1") == interner.intern("v1")
        slots = {interner.intern(1), interner.intern(1.0), interner.intern(True)}
        assert len(slots) == 3  # 1 == 1.0 == True, yet all keep their identity
        assert interner.values[interner.intern(1)] is not True

    def test_unhashable_values_append_without_dedup(self):
        interner = ValueInterner()
        first, second = interner.intern([1, 2]), interner.intern([1, 2])
        assert first != second
        assert interner.values[first] == [1, 2]

    def test_pickle_ships_flat_buffers_and_each_value_once(self):
        history = make_history(
            [(0, "write", "same-value", float(i), i + 0.5) for i in range(200)]
            + [(1, "read", "same-value", 300.0, 301.0)],
            initial_value="same-value",
        )
        blob = pickle.dumps(history)
        assert blob.count(b"same-value") == 1  # interned: one table slot
        assert b"Operation" not in blob  # columns, not an object graph
        assert len(blob) < 60 * len(history)  # ~50 bytes/op of raw columns

    def test_rows_have_stable_identity(self):
        # verify_witness matches witness entries by id(), so separate
        # accesses to the same row must return the same object.
        history = make_history([(0, "write", "v1", 0.0, 1.0)], initial_value="v0")
        assert history.operations[0] is history.operations[0]
        assert list(history.operations)[0] is history.operations[0]
        assert next(iter(history)) is history.operations[0]
        witness = find_linearization(history)
        assert witness[0] is history.operations[0]
        assert verify_witness(history, witness) == []

    def test_rows_are_usable_in_sets(self):
        history = make_history([(0, "write", "v1", 0.0, 1.0)], initial_value="v0")
        twin = Operation(
            pid=0, kind=OpKind.WRITE, value="v1", invoked_at=0.0, responded_at=1.0, op_id=0
        )
        assert {history.operations[0]} == {twin}

    def test_rows_support_negative_index_and_slices(self):
        history = make_history(
            [(0, "write", "v1", 0.0, 1.0), (1, "read", "v1", 2.0, 3.0)],
            initial_value="v0",
        )
        rows = history.operations
        assert rows[-1].is_read and rows[-1].result == "v1"
        assert list(rows[0:2]) == list(rows)
        with pytest.raises(IndexError):
            rows[2]


class TestHistoryConstruction:
    def test_make_history_compact_form(self):
        history = make_history(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v1", 2.0, 3.0),
                (2, "read", "v1", 2.5, None),
            ],
            initial_value="v0",
        )
        assert len(history) == 3
        assert len(history.completed()) == 2
        assert len(history.pending()) == 1
        assert history.initial_value == "v0"

    def test_from_records_sorted_by_invocation(self):
        records = [
            OperationRecord(op_id=0, pid=1, kind=OperationKind.READ, invoked_at=5.0, responded_at=6.0, result="v1", completed=True),
            OperationRecord(op_id=0, pid=0, kind=OperationKind.WRITE, value="v1", invoked_at=0.0, responded_at=2.0, completed=True),
        ]
        history = History.from_records(records, initial_value="v0")
        assert [op.kind for op in history.operations] == [OpKind.WRITE, OpKind.READ]
        assert [op.op_id for op in history.operations] == [0, 1]
        assert history.operations[0].value == "v1"
        assert history.operations[1].result == "v1"


class TestHistoryViews:
    def _sample(self):
        return make_history(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "write", "v2", 2.0, 3.0),
                (1, "read", "v1", 0.5, 1.5),
                (1, "read", "v2", 4.0, 5.0),
                (2, "read", None, 4.5, None),
            ],
            initial_value="v0",
        )

    def test_reads_and_writes_views(self):
        history = self._sample()
        assert len(history.writes()) == 2
        assert len(history.reads()) == 2
        assert len(history.reads(include_pending=True)) == 3

    def test_a_view_reads_its_rows_off_the_log(self):
        """A view over some rows of a shared log reads those rows' cells in
        the order given, and each op id is its place."""
        log = OpLog()
        for at, (key, kind, value) in enumerate(
            [("a", OperationKind.WRITE, "x"), ("b", OperationKind.WRITE, "y"),
             ("a", OperationKind.READ, None), ("b", OperationKind.READ, None)]
        ):
            row = log.note_created(kind, key, value)
            log.note_issued(row, OperationRecord(row, at, kind, value, key, invoked_at=float(at)))
        view = History.view(log, [2, 0], initial_value="v0")
        assert view.log_rows()[0] is log
        columns = view.columns()
        assert columns.kind == [OpKind.READ, OpKind.WRITE]
        assert columns.value == [None, "x"]
        assert columns.invoked == [2.0, 0.0]
        assert list(columns.op_id) == [0, 1]
        assert view.pending() == list(view.operations)

    def test_describe_renders_every_operation(self):
        text = self._sample().describe()
        assert text.count("\n") == 4
        assert "write('v1')" in text


class TestCheckersReadColumns:
    @pytest.mark.parametrize(
        "spec",
        [
            kv_uniform(num_keys=8, num_ops=120, seed=11),
            kv_openloop(num_keys=8, num_ops=80, arrival_rate=6.0, seed=13),
            kv_cas(num_keys=4, num_ops=60, num_shards=2),
        ],
        ids=["swmr-claims", "openloop", "smr-spec"],
    )
    @pytest.mark.parametrize("swmr_fast_path", [True, False])
    def test_passing_check_without_witness_builds_no_rows(self, spec, swmr_fast_path, monkeypatch):
        store = run_kv_workload(spec).store
        histories = store.histories()
        assert len(histories) > 1

        built = []

        class CountingOperation(Operation):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(history_module, "Operation", CountingOperation)
        report = check_histories_per_key(
            histories, swmr_fast_path=swmr_fast_path, spec=store.config.effective_spec()
        )
        assert report.ok and report.operations_checked > 0
        assert built == []
        # The counter does see rows when somebody asks for them.
        assert len(next(iter(histories.values())).operations) == len(built) > 0
