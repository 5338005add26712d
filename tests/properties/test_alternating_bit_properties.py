"""Properties of the per-pair alternating-bit communication pattern.

Section 3.3 of the paper derives two properties from the way WRITE messages
are exchanged between each ordered pair of processes:

* **P1** — between any pair, WRITE messages are *processed* in their sending
  order, and the per-pair stream of sent parity bits strictly alternates
  (value x travels with bit x mod 2, and a process sends value x to a peer
  only after the peer's value x-1 reached it);
* a consequence used in the proof of Lemma 4: **no process sends the same
  written value twice to the same peer**, so each ordered pair carries at
  most one WRITE per written value.

These tests observe every WRITE on the wire through the network's send hook
(``Network.add_send_hook``: once per message, in send order, whether it left
in a single send or as one destination of a multi-destination send) and check
both facts across random delay models and workloads.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.messages import WriteMessage
from repro.core.register import build_two_bit_cluster
from repro.sim.delays import UniformDelay


SETTINGS = dict(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _run_with_wire_capture(n: int, writes: int, seed: int, interleave_reads: bool = False):
    """Run a write stream and capture every WRITE sent, per ordered pair, in send order."""
    cluster = build_two_bit_cluster(
        n=n, initial_value="v0", delay_model=UniformDelay(0.1, 2.0, seed=seed), check_invariants=True
    )
    sent_per_pair: dict[tuple[int, int], list[WriteMessage]] = defaultdict(list)

    def capture(src: int, dst: int, message):
        if isinstance(message, WriteMessage):
            sent_per_pair[(src, dst)].append(message)

    cluster.network.add_send_hook(capture)
    for index in range(1, writes + 1):
        cluster.writer.write(f"v{index}")
        if interleave_reads:
            cluster.reader((index % (n - 1)) + 1).read()
    cluster.settle()
    return cluster, sent_per_pair


@given(
    n=st.integers(min_value=2, max_value=6),
    writes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_per_pair_write_parities_strictly_alternate(n, writes, seed):
    """P1: on every ordered pair, the sent WRITE parity bits alternate 1,0,1,0,..."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed)
    for (src, dst), messages in sent.items():
        bits = [message.bit for message in messages]
        expected = [(index % 2) for index in range(1, len(bits) + 1)]
        assert bits == expected, f"pair p{src}->p{dst} sent parities {bits}"


@given(
    n=st.integers(min_value=2, max_value=6),
    writes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_no_value_is_sent_twice_on_the_same_pair(n, writes, seed):
    """Each ordered pair carries each written value at most once (at most `writes` WRITEs)."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed)
    for (src, dst), messages in sent.items():
        values = [message.value for message in messages]
        assert len(values) == len(set(values)), f"pair p{src}->p{dst} re-sent a value: {values}"
        assert len(values) <= writes


@given(
    n=st.integers(min_value=3, max_value=6),
    writes=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_values_travel_in_sequence_order_per_pair(n, writes, seed):
    """On every ordered pair, values are sent in increasing sequence-number order
    (value #x is sent to a peer only after the pair's exchange of value #x-1 began)."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed, interleave_reads=True)
    for (_src, _dst), messages in sent.items():
        indices = [int(message.value[1:]) for message in messages]
        assert indices == sorted(indices)
        # With P2 (|w_sync_i[j] - w_sync_j[i]| <= 1), the sequence cannot skip values either.
        assert indices == list(range(indices[0], indices[0] + len(indices))) if indices else True


@given(
    n=st.integers(min_value=2, max_value=6),
    writes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_total_write_traffic_matches_theorem_2_bound(n, writes, seed):
    """Summed over all pairs, WRITE traffic is at most n(n-1) per written value,
    and exactly n(n-1) in a failure-free run (every pair exchanges every value)."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed)
    total = sum(len(messages) for messages in sent.values())
    assert total == writes * n * (n - 1)
