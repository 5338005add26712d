"""The loop-free quorum predicates answer exactly what the pseudocode asks.

``TwoBitRegisterProcess`` evaluates its line-3/7/9 waits through
``QuorumTracker.quorum_equal`` / ``quorum_at_least`` (``list.count`` and an
order statistic); the reference is ``quorum_of`` with the lambda written the
way Figure 1 states the predicate.
"""

from hypothesis import given, settings, strategies as st

from repro.quorum import QuorumTracker

# Small values so that equal entries (and quorums of them) actually occur.
sync_entries = st.integers(min_value=0, max_value=4)


@st.composite
def sync_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    vector = draw(st.lists(sync_entries, min_size=n, max_size=n))
    return n, vector


@given(sync_vectors(), sync_entries)
@settings(max_examples=300, deadline=None)
def test_lines_3_and_7_count_equal_entries(n_and_vector, sequence_number):
    n, sync = n_and_vector
    for t in range(n):  # every legal t: 0 <= t < n
        tracker = QuorumTracker(n, t)
        expected = tracker.quorum_of(sync, lambda entry: entry == sequence_number)
        assert tracker.quorum_equal(sync, sequence_number) is expected


@given(sync_vectors(), sync_entries)
@settings(max_examples=300, deadline=None)
def test_line_9_counts_entries_at_least_sn(n_and_vector, sn):
    n, w_sync = n_and_vector
    for t in range(n):
        tracker = QuorumTracker(n, t)
        expected = tracker.quorum_of(w_sync, lambda entry: entry >= sn)
        assert tracker.quorum_at_least(w_sync, sn) is expected


def test_a_vector_shorter_than_the_quorum_never_satisfies():
    tracker = QuorumTracker(5)  # quorum of 3
    assert not tracker.quorum_at_least([7, 7], 1)
    assert not tracker.quorum_equal([7, 7], 7)
