"""Unit tests for the fast SWMR atomicity checker (the three claims of Lemma 10)."""

import pytest

from repro.verification.history import History, Operation, OpKind, make_history
from repro.verification.linearizability import (
    brute_force_is_linearizable,
    check_histories_per_key,
    check_linearizability,
)
from repro.verification.register_checker import (
    AtomicityViolation,
    ClaimsNotApplicable,
    check_swmr_atomicity,
)


def check(entries, initial="v0", raise_on_violation=False):
    return check_swmr_atomicity(
        make_history(entries, initial_value=initial), raise_on_violation=raise_on_violation
    )


class TestAcceptedHistories:
    def test_empty_history_is_atomic(self):
        assert check([]).ok

    def test_sequential_history_is_atomic(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v1", 2.0, 3.0),
                (0, "write", "v2", 4.0, 5.0),
                (2, "read", "v2", 6.0, 7.0),
            ]
        )
        assert report.ok
        assert report.reads_checked == 2
        assert report.writes_checked == 2

    def test_read_of_initial_value_before_any_write(self):
        assert check([(1, "read", "v0", 0.0, 1.0), (0, "write", "v1", 2.0, 3.0)]).ok

    def test_read_concurrent_with_write_may_return_either_value(self):
        for returned in ("v0", "v1"):
            assert check(
                [(0, "write", "v1", 0.0, 10.0), (1, "read", returned, 1.0, 9.0)]
            ).ok

    def test_pending_write_may_or_may_not_be_observed(self):
        for returned in ("v0", "v1"):
            assert check(
                [(0, "write", "v1", 0.0, None), (1, "read", returned, 5.0, 6.0)]
            ).ok

    def test_pending_reads_are_ignored(self):
        assert check(
            [(0, "write", "v1", 0.0, 1.0), (1, "read", None, 2.0, None)]
        ).ok

    def test_two_concurrent_reads_spanning_a_write(self):
        # Both reads overlap the write; one sees the old value, one the new:
        # allowed in either order because neither read precedes the other.
        assert check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v1", 1.0, 9.0),
                (2, "read", "v0", 2.0, 8.0),
            ]
        ).ok

    def test_max_read_lag_metric(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v0", 1.0, 9.0),
            ]
        )
        assert report.ok
        assert report.max_read_lag == 1


    def test_a_process_reads_at_one_instant_in_op_id_order(self):
        """Two zero-length reads by p1 at t = 1, the later row first: op ids,
        not rows, order them, so v0 then v1 is program order kept."""
        rows = [
            Operation(pid=0, kind=OpKind.WRITE, value="v1", invoked_at=0.0, responded_at=2.0, op_id=2),
            Operation(pid=1, kind=OpKind.READ, result="v1", invoked_at=1.0, responded_at=1.0, op_id=1),
            Operation(pid=1, kind=OpKind.READ, result="v0", invoked_at=1.0, responded_at=1.0, op_id=0),
        ]
        assert check_swmr_atomicity(History(rows, initial_value="v0")).ok
        assert check_linearizability(History(rows, initial_value="v0")).linearizable

    def test_the_writer_writes_at_one_instant_in_op_id_order(self):
        """Two writes by p0 invoked at t = 1, the later one listed first: op
        ids, not rows, number them, so write('a') is write #1 and the read of
        'b' after both is up to date."""
        rows = [
            Operation(pid=0, kind=OpKind.WRITE, value="b", invoked_at=1.0, responded_at=2.0, op_id=1),
            Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=1.0, responded_at=1.0, op_id=0),
            Operation(pid=1, kind=OpKind.READ, result="b", invoked_at=3.0, responded_at=4.0, op_id=2),
        ]
        history = History(rows, initial_value="v0")
        report = check_swmr_atomicity(history, raise_on_violation=False)
        assert report.ok, report.violations
        assert check_linearizability(history).linearizable
        assert brute_force_is_linearizable(history)


class TestClaim1ReadFromTheFuture:
    def test_read_cannot_return_a_value_written_after_it_finished(self):
        report = check(
            [
                (1, "read", "v1", 0.0, 1.0),
                (0, "write", "v1", 5.0, 6.0),
            ]
        )
        assert not report.ok
        assert any("Claim 1" in violation for violation in report.violations)

    def test_never_written_value_is_a_violation(self):
        report = check([(1, "read", "ghost", 0.0, 1.0)])
        assert not report.ok
        assert any("never written" in violation for violation in report.violations)


class TestClaim2OverwrittenValue:
    def test_read_must_not_return_an_overwritten_value(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "write", "v2", 2.0, 3.0),
                (1, "read", "v1", 4.0, 5.0),
            ]
        )
        assert not report.ok
        assert any("Claim 2" in violation for violation in report.violations)

    def test_stale_initial_value_after_completed_write(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v0", 2.0, 3.0),
            ]
        )
        assert not report.ok

    def test_reader_must_see_its_own_process_preceding_write(self):
        # The writer reads after its own completed write.
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "read", "v0", 2.0, 3.0),
            ]
        )
        assert not report.ok


class TestClaim3NewOldInversion:
    def test_new_old_inversion_detected(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v1", 1.0, 2.0),
                (2, "read", "v0", 3.0, 4.0),
            ]
        )
        assert not report.ok
        assert any("Claim 3" in violation for violation in report.violations)

    def test_same_value_in_sequence_is_fine(self):
        assert check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v1", 1.0, 2.0),
                (2, "read", "v1", 3.0, 4.0),
            ]
        ).ok


class TestInputValidation:
    def test_multiple_writers_rejected(self):
        with pytest.raises(ValueError, match="writers"):
            check([(0, "write", "a", 0.0, 1.0), (1, "write", "b", 2.0, 3.0)])

    def test_duplicate_written_values_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            check([(0, "write", "dup", 0.0, 1.0), (0, "write", "dup", 2.0, 3.0)])

    @pytest.mark.parametrize(
        "entries,initial,match",
        [
            ([(0, "write", ["a"], 0.0, 1.0)], "v0", "not hashable"),
            ([(0, "write", "a", 0.0, 1.0)], ["v0"], "initial value"),
            ([(0, "write", "v0", 0.0, 1.0)], "v0", "not unique"),
            ([(0, "write", "a", 0.0, 1.0), (1, "read", "a", 3.0, 2.0)], "v0", "before it is invoked"),
        ],
    )
    def test_the_precondition_is_one_exception_and_the_key_searches(self, entries, initial, match):
        with pytest.raises(ClaimsNotApplicable, match=match):
            check(entries, initial=initial)
        history = make_history(entries, initial_value=initial)
        assert check_histories_per_key({"k": history}).per_key["k"].method == "wing-gong"

    def test_raise_on_violation_mode(self):
        with pytest.raises(AtomicityViolation, match="Claim 2"):
            check(
                [
                    (0, "write", "v1", 0.0, 1.0),
                    (1, "read", "v0", 2.0, 3.0),
                ],
                raise_on_violation=True,
            )

    def test_report_lists_every_violation(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v0", 2.0, 3.0),
                (2, "read", "ghost", 4.0, 5.0),
            ]
        )
        assert len(report.violations) == 2


class TestRowOrder:
    def test_a_view_out_of_invocation_order_gets_the_in_order_verdict(self):
        """A view over a log's rows is swept in invocation order whatever
        the row order: rows given backwards are sorted, so the stale read
        of ``"a"`` is still caught (read in the order given, ``"a"`` would
        pass for the newest write)."""
        from repro.exec.oplog import OpLog
        from repro.registers.base import OperationRecord

        log = OpLog()
        for pid, kind, value, result, start, end in (
            (0, OpKind.WRITE, "a", None, 0.0, 1.0),
            (0, OpKind.WRITE, "b", None, 2.0, 3.0),
            (1, OpKind.READ, None, "a", 4.0, 5.0),
        ):
            row = log.note_created(kind, "k", value)
            record = OperationRecord(row, pid, kind, value, "k", invoked_at=start)
            log.note_issued(row, record)
            record.responded_at, record.result = end, result
            log.note_completed(row, record)
        in_order = check_swmr_atomicity(History.view(log, [0, 1, 2], "v0"), False)
        backwards = History.view(log, [2, 1, 0], "v0")
        report = check_swmr_atomicity(backwards, False)
        assert not in_order.ok and "Claim 2" in in_order.violations[0]
        assert report == in_order
        assert (report.ok, len(report.violations)) == (False, 1)
        assert "Claim 2" in report.violations[0]
