"""Property-based tests of the simulation substrate itself."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.delays import UniformDelay
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.rng import derive_seed
from repro.sim.scheduler import Simulator

from tests.sim.conftest import build_recorders


@given(times=st.lists(st.floats(min_value=0.0, max_value=1_000.0), min_size=0, max_size=100))
@settings(max_examples=100, deadline=None)
def test_event_queue_pops_in_nondecreasing_time_order(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop()[0])
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50),
    until=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=100, deadline=None)
def test_simulator_clock_never_goes_backwards_and_respects_until(times, until):
    sim = Simulator()
    observed = []
    for time in times:
        sim.schedule_at(time, lambda: observed.append(sim.now))
    sim.run(until=until)
    assert observed == sorted(observed)
    assert all(time <= until for time in observed)
    # The remaining events are exactly those scheduled after the horizon.
    assert sim.pending_events == sum(1 for time in times if time > until)


@given(
    messages=st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=80),
    high=st.floats(min_value=0.1, max_value=10.0),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=60, deadline=None)
def test_channels_are_reliable_under_any_delay_distribution(messages, high, seed):
    """Every message sent to a correct process is delivered exactly once."""
    simulator = Simulator()
    network = Network(simulator, delay_model=UniformDelay(0.0, high, seed=seed))
    sender, receiver = build_recorders(simulator, network, 2)
    for payload in messages:
        network.send(0, 1, payload)
    simulator.run()
    received = [message for _src, message in receiver.received]
    assert sorted(received) == sorted(messages)
    assert network.stats.messages_sent == len(messages)
    assert network.stats.messages_delivered == len(messages)


@given(
    seed_a=st.integers(min_value=0, max_value=10_000),
    seed_b=st.integers(min_value=0, max_value=10_000),
    label=st.text(min_size=0, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_seed_derivation_is_stable_and_injective_in_practice(seed_a, seed_b, label):
    assert derive_seed(seed_a, label) == derive_seed(seed_a, label)
    if seed_a != seed_b:
        assert derive_seed(seed_a, label) != derive_seed(seed_b, label)


@given(
    n=st.integers(min_value=2, max_value=6),
    sends=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
        min_size=0,
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=60, deadline=None)
def test_network_statistics_are_consistent(n, sends, seed):
    """sent == delivered + dropped + in-flight, for any send pattern."""
    simulator = Simulator()
    network = Network(simulator, delay_model=UniformDelay(0.1, 3.0, seed=seed))
    build_recorders(simulator, network, n)
    attempted = 0
    for src, dst in sends:
        src %= n
        dst %= n
        if src == dst:
            continue
        network.send(src, dst, (src, dst))
        attempted += 1
    simulator.run()
    stats = network.stats
    assert stats.messages_sent == attempted
    assert stats.messages_delivered + stats.messages_dropped_to_crashed == attempted
    assert network.in_flight_total() == 0
