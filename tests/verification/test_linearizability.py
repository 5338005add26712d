"""Unit tests for the general linearizability checker (the reference oracle)."""

from dataclasses import replace

import pytest

from repro.verification.history import History, OpKind, Operation, make_history
from repro.verification.linearizability import (
    check_histories_per_key,
    check_linearizability,
    find_linearization,
    is_linearizable,
    verify_witness,
)
from repro.verification.register_checker import ClaimsNotApplicable, check_swmr_atomicity
from repro.verification.specs import SMRSpec


def lin(entries, initial="v0", **kwargs):
    return is_linearizable(make_history(entries, initial_value=initial), **kwargs)


class TestLinearizableHistories:
    def test_empty_history(self):
        assert lin([])

    def test_sequential_run(self):
        assert lin(
            [
                (0, "write", "a", 0.0, 1.0),
                (1, "read", "a", 2.0, 3.0),
                (0, "write", "b", 4.0, 5.0),
                (2, "read", "b", 6.0, 7.0),
            ]
        )

    def test_read_of_initial_value(self):
        assert lin([(1, "read", "v0", 0.0, 1.0)])

    def test_concurrent_read_sees_either_value(self):
        for value in ("v0", "a"):
            assert lin([(0, "write", "a", 0.0, 10.0), (1, "read", value, 2.0, 8.0)])

    def test_concurrent_writes_any_order(self):
        """Two overlapping writes by different processes: both orders are valid."""
        for final in ("a", "b"):
            assert lin(
                [
                    (0, "write", "a", 0.0, 10.0),
                    (1, "write", "b", 1.0, 9.0),
                    (2, "read", final, 11.0, 12.0),
                ]
            )

    def test_pending_write_optional(self):
        assert lin([(0, "write", "a", 0.0, None), (1, "read", "v0", 5.0, 6.0)])
        assert lin([(0, "write", "a", 0.0, None), (1, "read", "a", 5.0, 6.0)])

    def test_pending_read_ignored(self):
        assert lin([(0, "write", "a", 0.0, 1.0), (1, "read", None, 2.0, None)])

    def test_mwmr_interleaving(self):
        assert lin(
            [
                (0, "write", "a", 0.0, 2.0),
                (1, "write", "b", 1.0, 3.0),
                (2, "read", "a", 2.5, 4.0),
                (2, "read", "b", 5.0, 6.0),
            ]
        )


class TestNonLinearizableHistories:
    def test_stale_read_after_completed_write(self):
        assert not lin([(0, "write", "a", 0.0, 1.0), (1, "read", "v0", 2.0, 3.0)])

    def test_read_from_the_future(self):
        assert not lin([(1, "read", "a", 0.0, 1.0), (0, "write", "a", 5.0, 6.0)])

    def test_new_old_inversion(self):
        assert not lin(
            [
                (0, "write", "a", 0.0, 10.0),
                (1, "read", "a", 1.0, 2.0),
                (2, "read", "v0", 3.0, 4.0),
            ]
        )

    def test_value_never_written(self):
        assert not lin([(1, "read", "ghost", 0.0, 1.0)])

    def test_overwritten_value_with_concurrent_writers(self):
        # write(a) fully precedes write(b); a read after both must not see "a"... it can!
        # Only a read that precedes nothing and follows both writes seeing the
        # *earlier* one is wrong.
        assert not lin(
            [
                (0, "write", "a", 0.0, 1.0),
                (1, "write", "b", 2.0, 3.0),
                (2, "read", "a", 4.0, 5.0),
            ]
        )


class TestGuards:
    def test_unhashable_values_are_handled(self):
        assert lin([(0, "write", ["list"], 0.0, 1.0), (1, "read", ["list"], 2.0, 3.0)], initial=None)


class TestFindLinearization:
    def test_returns_an_order_for_valid_histories(self):
        history = make_history(
            [
                (0, "write", "a", 0.0, 10.0),
                (1, "read", "a", 2.0, 8.0),
            ],
            initial_value="v0",
        )
        order = find_linearization(history)
        assert order is not None
        assert [op.kind.value for op in order] == ["write", "read"]

    def test_returns_none_for_invalid_histories(self):
        history = make_history(
            [(0, "write", "a", 0.0, 1.0), (1, "read", "v0", 2.0, 3.0)], initial_value="v0"
        )
        assert find_linearization(history) is None


class TestSMRWitness:
    """A witness of the SMR search replays through the spec, not as a register."""

    HISTORY = History(
        [
            Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=0.0, responded_at=1.0, op_id=0),
            Operation(
                pid=1,
                kind=OpKind.CAS,
                value=("a", "b"),
                result=True,
                invoked_at=2.0,
                responded_at=3.0,
                op_id=1,
            ),
            Operation(pid=2, kind=OpKind.READ, result="b", invoked_at=4.0, responded_at=5.0, op_id=2),
        ]
    )

    def test_a_valid_smr_witness_passes_under_its_spec(self):
        result = check_linearizability(self.HISTORY, spec=SMRSpec())
        assert result.linearizable
        assert result.witness == list(self.HISTORY.operations)
        assert verify_witness(self.HISTORY, result.witness, SMRSpec()) == []

    def test_the_register_replay_is_not_the_smr_replay(self):
        # The register spec reads the CAS as a read of True and misses its effect.
        problems = verify_witness(self.HISTORY, list(self.HISTORY.operations))
        assert [text.split(":")[0] for text in problems] == ["witness replay mismatch"] * 2

    def test_a_wrong_result_is_reported_under_the_spec(self):
        first, cas, read = self.HISTORY.operations
        history = History([first, replace(cas, result=False), read])
        (problem,) = verify_witness(history, list(history.operations), SMRSpec())
        assert problem.startswith("witness replay mismatch: cas('a' -> 'b') -> False")
        assert "the spec returns True on state 'a'" in problem

    def test_pending_effectful_operations_follow_the_spec_purity(self):
        pending_tas = Operation(pid=3, kind=OpKind.TAS, invoked_at=0.5, op_id=3)
        pending_read = Operation(pid=4, kind=OpKind.READ, invoked_at=0.5, op_id=4)
        history = History(list(self.HISTORY.operations) + [pending_tas, pending_read])
        first, cas, read, tas, pending = history.operations
        # A linearized pending TAS is allowed, its result unconstrained; it sets True.
        assert verify_witness(history, [first, cas, read, tas], SMRSpec()) == []
        problems = verify_witness(history, [first, tas, cas, read], SMRSpec())
        assert [text.split(":")[0] for text in problems] == ["witness replay mismatch"] * 2
        (problem,) = verify_witness(history, [first, cas, read, pending], SMRSpec())
        assert problem.startswith("witness contains a foreign/pending-read operation")

    def test_describe_names_the_consensus_kinds(self):
        first, cas, read = self.HISTORY.operations
        assert first.describe() == "write('a') by p0 [0.000, 1.000]"
        assert cas.describe() == "cas('a' -> 'b') -> True by p1 [2.000, 3.000]"
        assert read.describe() == "read() -> 'b' by p2 [4.000, 5.000]"
        tas = Operation(pid=1, kind=OpKind.TAS, result=False, invoked_at=1.0, op_id=5)
        incr = Operation(pid=1, kind=OpKind.INCR, value=2, result=3, invoked_at=1.0, responded_at=2.0)
        assert tas.describe() == "tas() -> False by p1 [1.000, pending)"
        assert incr.describe() == "incr(2) -> 3 by p1 [1.000, 2.000]"


class TestConsensusKindsNeedTheSMRSpec:
    """The register path refuses a consensus kind instead of misjudging it.

    Read as a write of its ``(expected, new)`` pair, or skipped, a CAS gets
    both histories below the wrong verdict.
    """

    #: W(a), CAS(a -> b) = True, R() = b: linearizable under the SMR spec.
    LINEARIZABLE = TestSMRWitness.HISTORY
    #: W(z), CAS(a -> b) = True, R() = ('a', 'b'): not linearizable.
    NOT_LINEARIZABLE = History(
        [
            Operation(pid=0, kind=OpKind.WRITE, value="z", invoked_at=0.0, responded_at=1.0, op_id=0),
            Operation(
                pid=1,
                kind=OpKind.CAS,
                value=("a", "b"),
                result=True,
                invoked_at=2.0,
                responded_at=3.0,
                op_id=1,
            ),
            Operation(
                pid=2, kind=OpKind.READ, result=("a", "b"), invoked_at=4.0, responded_at=5.0, op_id=2
            ),
        ]
    )

    @pytest.mark.parametrize(
        "name, linearizable", [("LINEARIZABLE", True), ("NOT_LINEARIZABLE", False)]
    )
    def test_only_the_smr_spec_judges_them(self, name, linearizable):
        history = getattr(self, name)
        assert check_histories_per_key({"k": history}, spec="smr").ok is linearizable
        refusal = 'not cas; check this history with spec="smr"'
        with pytest.raises(ValueError, match=refusal):
            check_linearizability(history)
        with pytest.raises(ValueError, match=refusal):
            is_linearizable(history)
        with pytest.raises(ValueError, match=refusal):
            check_histories_per_key({"k": history})

    @pytest.mark.parametrize("kind", [OpKind.CAS, OpKind.TAS, OpKind.INCR])
    def test_the_claims_checker_does_not_apply(self, kind):
        first, _cas, read = self.LINEARIZABLE.operations
        other = Operation(pid=1, kind=kind, invoked_at=2.0, op_id=1)  # pending
        with pytest.raises(ClaimsNotApplicable, match=f"holds a {kind.value} operation"):
            check_swmr_atomicity(History([first, other, read]))
