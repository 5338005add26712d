"""The columnar OpLog against the operation records it mirrors.

The driver records every operation's lifecycle into both representations
simultaneously (``driver.ops`` and ``driver.oplog``), so a real run is a
free differential oracle: every ``ops_view()`` row (an ``Operation``, the
one row class) must agree with its OperationRecord on every field, the
per-key histories must equal what ``History.from_records`` builds from the
driver's records, and the protocol-5 wire format must round-trip the whole
log bit-for-bit.
"""

import math
import pickle

import pytest

from repro.exec.oplog import OpLog, decode_oplog, encode_oplog, transfer_size
from repro.registers.base import OperationKind, OperationRecord
from repro.store.store import KVStore, create_store
from repro.verification.history import History, Operation
from repro.verification.register_checker import check_swmr_atomicity
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop, kv_uniform


def _specs():
    return [
        kv_uniform(num_keys=8, num_ops=80, seed=21),
        kv_openloop(num_keys=8, num_ops=60, arrival_rate=6.0, seed=22),
    ]


#: The record's whole surface, which an ``ops_view()`` row must reproduce.
_FIELDS = (
    "op_id", "pid", "proc_op_id", "kind", "key", "value", "result", "submitted_at",
    "invoked_at", "responded_at", "failed", "failure_reason", "completed", "done",
    "latency", "sojourn_latency",
)


def _assert_op_parity(op, logged_op):
    assert type(logged_op) is Operation
    for name in _FIELDS:
        assert getattr(logged_op, name) == getattr(op, name), name


class TestOpLogRecordsTheRun:
    @pytest.mark.parametrize("spec_index", [0, 1])
    def test_logged_ops_mirror_exec_ops(self, spec_index):
        result = run_kv_workload(_specs()[spec_index])
        log = result.store.driver.oplog
        assert len(log) == len(result.ops)
        for op, logged_op in zip(result.ops, log.ops_view()):
            _assert_op_parity(op, logged_op)

    def test_histories_match_the_driver_records(self):
        # A key's history is a view over the log's rows of it; it must be
        # what from_records builds from the driver's records.
        result = run_kv_workload(_specs()[0])
        store = result.store
        for key, history in store.histories().items():
            records = [op for op in store.ops if op.key == key and op.pid != -1]
            expected = History.from_records(records, initial_value=store.config.initial_value)
            assert history.to_dict() == expected.to_dict(), key
            assert history == expected, key

    def test_failed_ops_keep_their_reason(self):
        store = KVStore(kv_uniform(num_keys=4, num_ops=1, seed=23).store_config())
        key = next(k for k in ("k0000", "k0001", "k0002", "k0003")
                   if store.shard_map.shard_of(k) == 0)
        # Crash the shard's writer, then submit a put: it fails at issue
        # time ("crashed before issuing"), which must land in the columnar
        # reasons too.
        store.crash_server_at(0.5, 0, 0, allow_writer=True)
        store.simulator.run(until=1.0)
        op = store.submit_put(key, "vX")
        store.drive(limit=50.0)
        assert op.failed
        logged = store.driver.oplog.ops_view()[op.op_id]
        assert logged.failed
        assert logged.failure_reason == op.failure_reason
        assert logged.failure_reason != ""


class TestOneRowClass:
    """An ``ops_view()`` row is an :class:`Operation`: its seven history
    fields are the row, and the record's other fields ride along."""

    def _logged_row(self):
        log = OpLog()
        row = log.note_created(OperationKind.READ, "k", None)
        log.note_submitted(row, 0.5)
        record = OperationRecord(
            row, 2, OperationKind.READ, None, "k", invoked_at=1.0, proc_op_id=4
        )
        log.note_issued(row, record)
        record.responded_at, record.result = 3.0, "v1"
        log.note_completed(row, record)
        log.note_failed(row, "a reason")
        return log.ops_view()[row]

    def test_a_row_equals_and_hashes_like_a_hand_built_operation(self):
        logged = self._logged_row()
        assert (logged.key, logged.proc_op_id, logged.submitted_at) == ("k", 4, 0.5)
        assert logged.failed and logged.failure_reason == "a reason"
        bare = Operation(pid=2, kind=OperationKind.READ, result="v1", invoked_at=1.0,
                         responded_at=3.0, op_id=0)
        assert logged == bare and hash(logged) == hash(bare)
        assert {logged} == {bare}
        assert logged != Operation(pid=2, kind=OperationKind.READ, result="v2", invoked_at=1.0,
                                   responded_at=3.0, op_id=0)

    def test_its_dict_has_the_seven_history_keys(self):
        assert list(self._logged_row().to_dict()) == [
            "pid", "kind", "value", "result", "invoked_at", "responded_at", "op_id",
        ]


class TestKeyGrouping:
    """Keys equal under ``==`` are one key: the store deploys one register
    for ``1``, ``1.0`` and ``True`` (its deployment dict), so the log must
    give them one history too — though the value table keeps them apart."""

    KEYS = (1, 1.0, True)

    def test_equal_keys_share_one_history(self):
        store = create_store(num_shards=4, replication=3)
        for index, key in enumerate(self.KEYS):
            store.put(key, f"w{index}")
        assert store.get(True) == "w2"
        assert store.deployed_keys == [1]
        log = store.oplog
        assert [type(op.key) for op in log.ops_view()] == [int, float, bool, bool]
        histories = log.per_key_histories(initial_value="v0")
        assert list(histories) == [1]
        assert len(histories[1]) == 4
        for key in self.KEYS:
            assert store.history(key).to_dict() == histories[1].to_dict()
        assert list(store.check_linearizability().per_key) == [1]

    def test_rows_tied_on_every_sort_key_keep_row_order_across_equal_keys(self):
        """Row 2 (key ``1``) and row 1 (key ``True``) tie on invocation
        time, pid and sequence number: the merged group keeps row order,
        as ``History.from_records`` does, though key ``1``'s slot comes first."""
        log = OpLog()
        for key, value, at in ((1, "a", 0.0), (True, "b", 1.0), (1, "c", 1.0)):
            row = log.note_created(OperationKind.WRITE, key, value)
            record = OperationRecord(row, 0, OperationKind.WRITE, value, key, invoked_at=at)
            record.proc_op_id = 0 if at == 0.0 else 1
            log.note_issued(row, record)
        assert list(log.rows_by_key()[1]) == [0, 1, 2]
        expected = History.from_records(list(log.ops_view()), "v0")
        assert log.per_key_histories("v0")[1].to_dict() == expected.to_dict()

    def test_an_untouched_key_has_an_empty_history(self):
        store = create_store(num_shards=2, replication=3)
        store.put("k", "w")
        history = store.history("never")
        assert len(history) == 0
        assert history.initial_value == "v0"


class TestHistoriesAreViews:
    def test_every_call_groups_the_log_afresh(self):
        """Nothing is kept between calls: rows appended after a
        ``histories()`` or a ``check_linearizability()`` are in the next one,
        and two calls hand out distinct group arrays."""
        store = create_store(num_shards=2, replication=3)
        store.put("k", "w0")
        first = store.histories()["k"]
        store.get("k")
        second = store.histories()["k"]
        assert (len(first), len(second)) == (1, 2)
        assert second.log_rows()[1] is not store.histories()["k"].log_rows()[1]
        assert store.history("k").log_rows()[1] is not store.history("k").log_rows()[1]
        groups = store.oplog.rows_by_key()
        assert groups["k"] is not store.oplog.rows_by_key()["k"]

        checked = store.check_linearizability().operations_checked
        store.put("k", "w1")
        store.get("k")
        assert store.check_linearizability().operations_checked == checked + 2
        assert len(store.histories()["k"]) == 4

    def test_a_pickled_view_ships_only_its_own_rows(self):
        log = run_kv_workload(kv_openloop(num_keys=4, num_ops=800, arrival_rate=4.0, seed=6)).store.oplog
        histories = log.per_key_histories("v0")
        assert len(histories) == 4
        whole = transfer_size(*encode_oplog(log))
        for history in histories.values():
            blob = pickle.dumps(history)
            restored = pickle.loads(blob)
            assert restored.to_dict() == history.to_dict()
            assert len(blob) < 0.4 * whole
            assert restored.log_rows() is not None  # still rows in history order

    def test_one_keys_history_is_its_entry_in_histories(self):
        """``store.history(key)`` lands on the same rows of the same log as
        ``store.histories()``."""
        store = run_kv_workload(_specs()[1]).store
        histories = store.histories()
        assert len(histories) > 1
        for key, history in histories.items():
            log, rows = store.history(key).log_rows()
            assert log is store.oplog
            assert list(rows) == list(history.log_rows()[1]), key
            assert store.history(key).to_dict() == history.to_dict(), key


    def test_a_view_reads_completions_made_after_it(self):
        """A view reads the log's cells when asked: a row pending when the
        view was taken shows its response once it completes, in
        ``columns()``, ``to_dict()`` and the claims check.  ``operations``,
        built on first access, keeps the rows as they were then, and a row
        issued after the grouping is not in the view."""
        write, read = OperationKind.WRITE, OperationKind.READ
        log = OpLog()
        records = []
        for pid, kind, value, at in ((0, write, "a", 1.0), (1, read, None, 2.0)):
            row = log.note_created(kind, "k", value)
            records.append(OperationRecord(row, pid, kind, value, "k", invoked_at=at))
            log.note_issued(row, records[-1])
        view = log.per_key_histories("v0")["k"]
        before = view.operations
        assert [op.pending for op in before] == [True, True]
        assert check_swmr_atomicity(view).reads_checked == 0

        for record, at, result in zip(records, (3.0, 4.0), (None, "a")):
            record.responded_at, record.result = at, result
            log.note_completed(record.op_id, record)
        late = log.note_created(read, "k", None)
        log.note_issued(late, OperationRecord(late, 1, read, None, "k", invoked_at=5.0))

        assert view.columns().responded == [3.0, 4.0]
        assert view.columns().result == [None, "a"]
        assert [op["responded_at"] for op in view.to_dict()["operations"]] == [3.0, 4.0]
        assert check_swmr_atomicity(view).reads_checked == 1
        assert view.operations is before and before[1].pending
        assert len(view) == 2
        assert len(log.per_key_histories("v0")["k"]) == 3


class TestWireFormat:
    def test_encode_decode_round_trips(self):
        result = run_kv_workload(_specs()[1])
        log = result.store.driver.oplog
        blob, buffers = encode_oplog(log)
        assert transfer_size(blob, buffers) == len(blob) + sum(len(b) for b in buffers)
        # Columns cross out-of-band: the pickle stream itself stays small.
        assert buffers, "columns should be serialized out-of-band"
        decoded, global_index = decode_oplog(blob, buffers)
        assert global_index is None
        assert len(decoded) == len(log)
        for original, restored in zip(log.ops_view(), decoded.ops_view()):
            _assert_op_parity(original, restored)
        assert decoded.reasons == log.reasons
        histories = {k: h.to_dict() for k, h in log.per_key_histories("v0").items()}
        assert {k: h.to_dict() for k, h in decoded.per_key_histories("v0").items()} == histories

    def test_a_logged_operation_ships_in_under_70_bytes(self):
        """What a worker sends its parent per operation (67.5 bytes on this
        run): a widened column or an object smuggled into the pickle stream
        shows up here — the object graph this replaced cost 130 bytes/op."""
        spec = kv_openloop(num_keys=64, num_ops=2000, arrival_rate=50.0, seed=4)
        log = run_kv_workload(spec).store.driver.oplog
        blob, buffers = encode_oplog(log)
        assert len(log) == 2000
        assert transfer_size(blob, buffers) < 70 * len(log)
        assert len(blob) < 2 * len(log)  # the stream is the value table, not the rows

    def test_global_index_rides_along(self):
        from array import array

        log = OpLog()
        log.note_created(OperationKind.READ, "k", None)
        log.note_created(OperationKind.WRITE, "k", "v")
        blob, buffers = encode_oplog(log, array("q", [7, 3]))
        _decoded, global_index = decode_oplog(blob, buffers)
        assert list(global_index) == [7, 3]


class TestMergeReassembly:
    def test_extend_remapped_and_reordered_reproduce_the_whole_log(self):
        # Split one serial run's log into odd/even rows, merge the halves
        # back, and permute into original order — every field must survive.
        result = run_kv_workload(_specs()[0])
        log = result.store.driver.oplog
        halves = []
        index_halves = []
        for parity in (0, 1):
            rows = [r for r in range(len(log)) if r % 2 == parity]
            part = log.reordered(rows)
            blob, buffers = encode_oplog(part)
            halves.append(decode_oplog(blob, buffers)[0])
            index_halves.append(rows)
        merged = OpLog()
        scripted = []
        for part, rows in zip(halves, index_halves):
            merged.extend_remapped(part)
            scripted.extend(rows)
        order = sorted(range(len(scripted)), key=scripted.__getitem__)
        restored = merged.reordered(order)
        for original, rebuilt in zip(log.ops_view(), restored.ops_view()):
            _assert_op_parity(original, rebuilt)
        assert {k: h.to_dict() for k, h in restored.per_key_histories("v0").items()} == {
            k: h.to_dict() for k, h in log.per_key_histories("v0").items()
        }

    def test_parallel_merged_ops_match_serial_exec_ops(self):
        spec = kv_uniform(num_keys=12, num_ops=120, seed=24)
        serial = run_kv_workload(spec)
        parallel = run_kv_workload(spec.with_(workers=2))
        assert parallel.ipc_bytes > 0
        assert serial.ipc_bytes == 0
        assert len(parallel.ops) == len(serial.ops)
        for op, logged_op in zip(serial.ops, parallel.ops):
            _assert_op_parity(op, logged_op)
