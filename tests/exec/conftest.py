"""Shared helper: operation logs written by hand, for metrics tests."""

from repro.exec.oplog import OpLog
from repro.registers.base import OperationRecord


def log_op(log: OpLog, kind, submitted, latency=None, failed=False, pid=0) -> int:
    """Append one operation issued at ``submitted``: completed ``latency``
    later, failed, or (neither) still pending.  Returns its row."""
    row = log.note_created(kind, None, None)
    log.note_submitted(row, submitted)
    record = OperationRecord(row, pid, kind, invoked_at=submitted)
    log.note_issued(row, record)
    if failed:
        log.note_failed(row, "replica crashed")
    elif latency is not None:
        record.responded_at = submitted + latency
        log.note_completed(row, record)
    return row
