"""The scalable linearizability checker: shared core, no cap, witnesses, per-key."""

import pytest

from repro.verification.history import History, OpKind, Operation, make_history
from repro.verification.linearizability import (
    LinearizabilityBudgetExceeded,
    brute_force_is_linearizable,
    check_histories_per_key,
    check_linearizability,
    find_linearization,
    is_linearizable,
    verify_witness,
)
from repro.verification.register_checker import check_swmr_atomicity


def sequential_history(num_writes, reads_after_each=1):
    """A long, fully sequential, obviously linearizable history."""
    entries = []
    clock = 0.0
    latest = "v0"
    for index in range(1, num_writes + 1):
        entries.append((0, "write", f"v{index}", clock, clock + 0.5))
        latest = f"v{index}"
        clock += 1.0
        for reader in range(reads_after_each):
            entries.append((1 + reader, "read", latest, clock, clock + 0.5))
            clock += 1.0
    return make_history(entries, initial_value="v0")


class TestNoOperationCap:
    def test_histories_far_beyond_the_old_cap_are_checked(self):
        history = sequential_history(200, reads_after_each=2)
        assert len(history) == 600
        result = check_linearizability(history)
        assert result.linearizable
        assert result.operations == 600
        # The old oracle refuses the same history outright.
        with pytest.raises(ValueError, match="max_operations"):
            brute_force_is_linearizable(history, max_operations=64)

    def test_deep_histories_do_not_hit_the_recursion_limit(self):
        import sys

        history = sequential_history(sys.getrecursionlimit())
        assert check_linearizability(history, collect_witness=False).linearizable

    def test_state_budget_raises_instead_of_wrong_verdicts(self):
        # Heavily concurrent MWMR history: every write overlaps every other.
        entries = [(pid, "write", f"v{pid}", 0.0, 100.0) for pid in range(12)]
        history = make_history(entries, initial_value="v0")
        with pytest.raises(LinearizabilityBudgetExceeded):
            check_linearizability(history, max_states=3)

    def test_a_blown_budget_names_its_key(self):
        entries = [(pid, "write", f"v{pid}", 0.0, 100.0) for pid in range(12)]
        history = make_history(entries, initial_value="v0")
        with pytest.raises(LinearizabilityBudgetExceeded, match="^key 'k0007': .*max_states=3"):
            check_histories_per_key({"k0007": history}, max_states=3)


class TestSharedSearchCore:
    def test_accepted_histories_always_yield_a_valid_witness(self):
        histories = [
            sequential_history(10),
            make_history(
                [
                    (0, "write", "a", 0.0, 10.0),
                    (1, "write", "b", 1.0, 9.0),
                    (2, "read", "a", 2.5, 4.0),
                    (3, "read", "b", 11.0, 12.0),
                ],
                initial_value="v0",
            ),
            make_history(
                [(0, "write", "a", 0.0, None), (1, "read", "a", 5.0, 6.0)],
                initial_value="v0",
            ),
        ]
        for history in histories:
            assert is_linearizable(history)
            witness = find_linearization(history)
            assert witness is not None, "accepted history must yield a witness"
            assert verify_witness(history, witness) == []

    def test_rejected_histories_yield_no_witness(self):
        history = make_history(
            [(0, "write", "a", 0.0, 1.0), (1, "read", "v0", 2.0, 3.0)],
            initial_value="v0",
        )
        assert not is_linearizable(history)
        assert find_linearization(history) is None

    def test_dropped_pending_writes_are_omitted_from_the_witness(self):
        # Program order forces the drop: if the pending write took effect it
        # would precede its own process's read, which returned the initial
        # value — so the only linearization drops it.
        history = make_history(
            [(0, "write", "a", 0.0, None), (0, "read", "v0", 1.0, 2.0)],
            initial_value="v0",
        )
        witness = find_linearization(history)
        assert witness is not None
        assert [op.kind.value for op in witness] == ["read"]
        assert verify_witness(history, witness) == []

    def test_verify_witness_flags_bad_witnesses(self):
        history = make_history(
            [(0, "write", "a", 0.0, 1.0), (1, "read", "a", 2.0, 3.0)],
            initial_value="v0",
        )
        write, read = sorted(history.operations, key=lambda op: op.invoked_at)
        assert verify_witness(history, [write, read]) == []
        assert any(
            "precedence" in problem for problem in verify_witness(history, [read, write])
        )
        assert any("omits" in problem for problem in verify_witness(history, [write]))
        assert any("repeats" in problem for problem in verify_witness(history, [write, write, read]))


class TestGreedyReadSoundness:
    def test_greedy_reads_do_not_break_backtracking_over_writes(self):
        # Two overlapping writes; a read between them must not commit the
        # search to the wrong write order.
        history = make_history(
            [
                (0, "write", "a", 0.0, 10.0),
                (1, "write", "b", 0.0, 10.0),
                (2, "read", "a", 11.0, 12.0),
                (3, "read", "b", 1.0, 2.0),
            ],
            initial_value="v0",
        )
        # b must be linearized before a (read b early, read a late).
        result = check_linearizability(history)
        assert result.linearizable
        assert verify_witness(history, result.witness) == []

    def test_counts_are_reported(self):
        history = sequential_history(20, reads_after_each=3)
        result = check_linearizability(history)
        assert result.greedy_reads == 60
        assert result.states_explored >= 1


class TestPerKeyPartitioning:
    def _histories(self):
        good = sequential_history(5)
        bad = make_history(
            [(0, "write", "a", 0.0, 1.0), (1, "read", "v0", 2.0, 3.0)],
            initial_value="v0",
        )
        return {"good": good, "bad": bad}

    def test_per_key_verdicts_and_totals(self):
        report = check_histories_per_key(self._histories(), swmr_fast_path=False)
        assert not report.ok
        assert report.keys_checked == 2
        assert report.failing_keys() == ["bad"]
        assert report.per_key["good"].linearizable
        assert report.per_key["good"].method == "wing-gong"
        assert report.operations_checked == len(self._histories()["good"]) + 2

    def test_swmr_fast_path_agrees_with_the_search_engine(self):
        histories = self._histories()
        fast = check_histories_per_key(histories, swmr_fast_path=True)
        slow = check_histories_per_key(histories, swmr_fast_path=False)
        for key in histories:
            assert fast.per_key[key].linearizable == slow.per_key[key].linearizable
        assert fast.per_key["good"].method == "swmr-claims"
        assert fast.per_key["bad"].violations, "claims fast path carries diagnostics"

    def test_multi_writer_keys_fall_back_to_the_search_engine(self):
        mwmr = make_history(
            [
                (0, "write", "a", 0.0, 2.0),
                (1, "write", "b", 1.0, 3.0),
                (2, "read", "b", 4.0, 5.0),
            ],
            initial_value="v0",
        )
        report = check_histories_per_key({"k": mwmr}, swmr_fast_path=True)
        assert report.per_key["k"].method == "wing-gong"
        assert report.ok

    def test_store_check_linearizability_facade(self):
        from repro.workloads.kv import run_kv_workload
        from repro.workloads.scenarios import kv_uniform

        result = run_kv_workload(kv_uniform(num_keys=8, num_ops=120, seed=5))
        report = result.store.check_linearizability(swmr_fast_path=False)
        assert report.ok
        assert report.keys_checked == len(result.store.deployed_keys)
        assert report.operations_checked >= 120
        fast = result.store.check_linearizability()
        assert fast.ok and fast.states_explored == 0


class TestUnhashableAndEdgeCases:
    def test_unhashable_values(self):
        history = make_history(
            [(0, "write", ["list"], 0.0, 1.0), (1, "read", ["list"], 2.0, 3.0)],
            initial_value=None,
        )
        assert is_linearizable(history)

    def test_empty_history(self):
        result = check_linearizability(History())
        assert result.linearizable and result.witness == [] and result.method == "trivial"

    def test_zero_think_time_program_order_edge(self):
        # Same process, response time equals next invocation time: program
        # order must still apply (read after own write sees it).
        history = make_history(
            [
                (0, "write", "a", 0.0, 1.0),
                (0, "read", "v0", 1.0, 2.0),
            ],
            initial_value="v0",
        )
        assert not is_linearizable(history)
        assert not brute_force_is_linearizable(history)

    def test_equal_invocation_pending_write_tie(self):
        # A pending write invoked at the same instant as a later op of the
        # same process does not precede it (matches the oracle's matrix).
        operations = [
            Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=1.0, responded_at=None, op_id=0),
            Operation(pid=0, kind=OpKind.READ, result="v0", invoked_at=1.0, responded_at=2.0, op_id=1),
        ]
        history = History(operations=operations, initial_value="v0")
        assert is_linearizable(history) == brute_force_is_linearizable(history)
