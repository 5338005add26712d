"""The columnar OpLog against the operation records it mirrors.

The driver records every operation's lifecycle into both representations
simultaneously (``driver.ops`` and ``driver.oplog``), so a real run is a
free differential oracle: every LoggedOp view must agree with its
OperationRecord on every field, the per-key histories must equal what
``History.from_records`` builds from the driver's records, and the
protocol-5 wire format must round-trip the whole log bit-for-bit.
"""

import math

import pytest

from repro.exec.oplog import OpLog, decode_oplog, encode_oplog, transfer_size
from repro.registers.base import OperationKind
from repro.store.store import KVStore, create_store
from repro.verification.history import History
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop, kv_uniform


def _specs():
    return [
        kv_uniform(num_keys=8, num_ops=80, seed=21),
        kv_openloop(num_keys=8, num_ops=60, arrival_rate=6.0, seed=22),
    ]


#: The record's whole surface, which a LoggedOp view must reproduce.
_FIELDS = (
    "op_id", "pid", "proc_op_id", "kind", "key", "value", "result", "submitted_at",
    "invoked_at", "responded_at", "failed", "failure_reason", "completed", "done",
    "latency", "sojourn_latency",
)


def _assert_op_parity(op, logged_op):
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
        # The log gathers each key's columns itself (History.from_columns);
        # the result must be what from_records builds from the driver's records.
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

    def test_an_untouched_key_has_an_empty_history(self):
        store = create_store(num_shards=2, replication=3)
        store.put("k", "w")
        history = store.history("never")
        assert len(history) == 0
        assert history.initial_value == "v0"


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
