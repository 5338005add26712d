"""Unit tests for the per-process local state of the two-bit algorithm."""

import pytest

from repro.core.state import TwoBitState


class TestInitialisation:
    def test_initial_values_match_the_pseudocode(self):
        state = TwoBitState(n=4, pid=1, initial_value="v0")
        assert state.history == ["v0"]
        assert state.w_sync == [0, 0, 0, 0]
        assert state.r_sync == [0, 0, 0, 0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TwoBitState(n=0, pid=0)
        with pytest.raises(ValueError):
            TwoBitState(n=3, pid=3)
        with pytest.raises(ValueError):
            TwoBitState(n=3, pid=-1)

    def test_explicit_arrays_must_match_n(self):
        with pytest.raises(ValueError):
            TwoBitState(n=3, pid=0, w_sync=[0, 0])

    def test_none_is_a_valid_initial_value(self):
        state = TwoBitState(n=2, pid=0, initial_value=None)
        assert state.history == [None]
        assert state.history[state.own_sequence_number] is None


class TestHistoryManagement:
    def test_record_value_appends_in_order(self):
        state = TwoBitState(n=3, pid=0, initial_value="v0")
        state.record_value(1, "v1")
        state.record_value(2, "v2")
        assert state.history == ["v0", "v1", "v2"]

    def test_record_value_rejects_gaps(self):
        state = TwoBitState(n=3, pid=0, initial_value="v0")
        with pytest.raises(ValueError, match="grow by exactly one"):
            state.record_value(2, "v2")

    def test_record_value_rejects_overwrites(self):
        state = TwoBitState(n=3, pid=0, initial_value="v0")
        state.record_value(1, "v1")
        with pytest.raises(ValueError):
            state.record_value(1, "v1-again")

    def test_known_prefix_tracks_own_sequence_number(self):
        state = TwoBitState(n=3, pid=0, initial_value="v0")
        state.record_value(1, "v1")
        state.record_value(2, "v2")
        # The process "knows" only up to w_sync[pid]; history may be longer only
        # transiently in tests, never in the protocol.
        state.w_sync[0] = 1
        assert state.known_prefix() == ["v0", "v1"]
        state.w_sync[0] = 2
        assert state.known_prefix() == ["v0", "v1", "v2"]

    def test_own_sequence_number_indexes_the_last_known_value(self):
        state = TwoBitState(n=3, pid=2, initial_value="v0")
        assert state.own_sequence_number == 0
        state.record_value(1, "v1")
        state.w_sync[2] = 1
        assert state.own_sequence_number == 1
        assert state.history[state.own_sequence_number] == "v1"


class TestAccounting:
    def test_local_memory_words_grows_with_history(self):
        state = TwoBitState(n=5, pid=0, initial_value="v0")
        base = state.local_memory_words()
        assert base == 1 + 5 + 5
        for index in range(1, 11):
            state.record_value(index, f"v{index}")
        assert state.local_memory_words() == base + 10

    def test_snapshot_contents(self):
        state = TwoBitState(n=3, pid=1, initial_value="v0")
        state.record_value(1, "v1")
        state.w_sync[1] = 1
        snapshot = state.snapshot()
        assert snapshot["pid"] == 1
        assert snapshot["history_len"] == 2
        assert snapshot["w_sync"] == [0, 1, 0]
        assert snapshot["r_sync"] == [0, 0, 0]
        # The snapshot must be a copy, not a view.
        snapshot["w_sync"][0] = 99
        assert state.w_sync[0] == 0
