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

Both are stated over *positions* in a pair's stream: the k-th WRITE on a
pair has bit k mod 2, and it either carries the writer's k-th value or is
the bare ``WRITE(b, None)`` sent to a process that holds that value already
(checked against the receiver's history at the moment of the send), so a
bare copy is checked rather than skipped.

These tests observe every WRITE on the wire through the network's send hook
(``Network.add_send_hook``: once per message, in send order, whether it left
in a single send or as one destination of a multi-destination send) and check
both facts across random delay models and workloads.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.messages import WriteMessage
from repro.api import create_register
from repro.sim.delays import UniformDelay


SETTINGS = dict(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _run_with_wire_capture(n: int, writes: int, seed: int, interleave_reads: bool = False):
    """Run a write stream and capture every WRITE sent, per ordered pair, in send order.

    Each entry is ``(message, held)``: ``held`` tells whether the receiver
    held the value of the message's position in the pair's stream when it
    was sent.
    """
    cluster = create_register(
        n=n, initial_value="v0", delay_model=UniformDelay(0.1, 2.0, seed=seed), check_invariants=True
    )
    sent_per_pair: dict[tuple[int, int], list[tuple[WriteMessage, bool]]] = defaultdict(list)

    def capture(src: int, dst: int, message):
        if isinstance(message, WriteMessage):
            stream = sent_per_pair[(src, dst)]
            position = len(stream) + 1
            history = cluster.processes[dst].state.history
            stream.append((message, len(history) > position and history[position] == f"v{position}"))

    cluster.network.add_send_hook(capture)
    for index in range(1, writes + 1):
        cluster.writer.write(f"v{index}")
        if interleave_reads:
            cluster.reader((index % (n - 1)) + 1).read()
    cluster.settle()
    return cluster, sent_per_pair


def _assert_positions_name_values(sent) -> None:
    """The k-th WRITE on a pair carries value #k, or is bare to a holder of value #k."""
    for (src, dst), stream in sent.items():
        for position, (message, held) in enumerate(stream, start=1):
            assert message.value == f"v{position}" or (message.value is None and held), (
                f"pair p{src}->p{dst}: WRITE #{position} is {message!r}"
                + ("" if message.value is not None else ", bare to a process without the value")
            )


@given(
    n=st.integers(min_value=2, max_value=6),
    writes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_per_pair_write_parities_strictly_alternate(n, writes, seed):
    """P1: on every ordered pair, the k-th WRITE has bit k mod 2 and stands for value #k."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed)
    for (src, dst), stream in sent.items():
        bits = [message.bit for message, _held in stream]
        expected = [(index % 2) for index in range(1, len(bits) + 1)]
        assert bits == expected, f"pair p{src}->p{dst} sent parities {bits}"
    _assert_positions_name_values(sent)


@given(
    n=st.integers(min_value=2, max_value=6),
    writes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_no_value_is_sent_twice_on_the_same_pair(n, writes, seed):
    """Each ordered pair carries each written value at most once (at most `writes` WRITEs):
    its k-th WRITE stands for value #k, with the value or bare to a holder of it."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed)
    for stream in sent.values():
        assert len(stream) <= writes
    _assert_positions_name_values(sent)


@given(
    n=st.integers(min_value=3, max_value=6),
    writes=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**SETTINGS)
def test_values_travel_in_sequence_order_per_pair(n, writes, seed):
    """On every ordered pair, values are sent in increasing sequence-number order
    without a gap (value #x is sent to a peer only after the pair's exchange of
    value #x-1 began; with P2, |w_sync_i[j] - w_sync_j[i]| <= 1): the k-th WRITE
    stands for value #k, even with reads interleaved."""
    _cluster, sent = _run_with_wire_capture(n, writes, seed, interleave_reads=True)
    _assert_positions_name_values(sent)


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
