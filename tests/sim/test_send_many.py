"""A multi-destination ``send`` is observably the loop of single sends.

``Network.send(src, [d1, d2, ...], message)`` prices and checks the message
once and draws its delays in one batch; nothing an execution can observe may
tell it apart from ``for d in [d1, d2, ...]: send(src, d, message)``.  With
``holders`` (a ``WRITE`` forwarded to processes of which some hold its
value) the loop sends each holder ``message.bare`` instead.  The
differential property below runs the same seeded script both ways, under
every feature of the send path at once, and compares everything there is to
compare — what was sent when, and in which order, through the message
records every world keeps.  The pins after it fix the choices the refactor made.

The same holds one level down: ``send(src, j, message)`` is ``send(src, [j],
message)``.  Where nothing can reshape, observe or coalesce the message, the
unicast form takes a straight-line branch of ``send``; the second
differential holds that branch to the general path it shortcuts, over the
same matrix and over worlds where nothing but the branch is in play.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import create_register
from repro.core.messages import BARE_WRITES, READ, WriteMessage
from repro.explore.chooser import RandomChooser
from repro.faults import CrashPoint, install_crash_points
from repro.registers.abd import AbdReadReply
from repro.sim.delays import (
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    JitteredDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.transport.base import TransportClosedError
from repro.transport.runtime import ProcessBase

SETTINGS = dict(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: One of each pricing shape: a class attribute, set when built (twice), a property, none.
MESSAGES = (
    READ,
    WriteMessage(bit=1, value="v1"),
    WriteMessage(bit=0, value=12345),
    AbdReadReply(rsn=3, seq=70, value="abc"),
    "a plain string",
)


class _Logger(ProcessBase):
    """Appends every delivery to a log shared by the whole world."""

    def __init__(self, pid, simulator, network, log):
        super().__init__(pid, simulator, network)
        self.log = log

    def on_message(self, src, message):
        self.log.append((self.simulator.now, self.pid, src, message))


class _SnapToGrid:
    """A link policy that aligns instants (as a healing partition does) and logs its calls."""

    def __init__(self):
        self.calls = []

    def adjust(self, src, dst, now, delay):
        self.calls.append((src, dst, now, delay))
        return float(int(now + delay) + 1) - now


def _delay_model(kind: str, seed: int) -> DelayModel:
    if kind == "fixed":
        return FixedDelay(1.0)
    if kind == "uniform":
        return UniformDelay(0.2, 1.0, seed=seed)
    return PerLinkDelay(
        UniformDelay(0.2, 1.0, seed=seed),
        {(0, 1): FixedDelay(0.5), (1, 0): UniformDelay(1.0, 3.0, seed=seed + 1)},
    )


def _rng_states(model: DelayModel) -> list:
    models = [model.default, *model.overrides.values()] if isinstance(model, PerLinkDelay) else [model]
    return [m._rng.getstate() for m in models if hasattr(m, "_rng")]


class _World:
    def __init__(self, config: dict) -> None:
        self.simulator = Simulator()
        self.network = Network(
            self.simulator,
            delay_model=_delay_model(config["delay"], config["seed"]),
            record_messages=True,
            coalesce=config["coalesce"],
        )
        self.log: list = []
        for pid in range(config["n"]):
            _Logger(pid, self.simulator, self.network, self.log)
        # The grid as the link policy and the recording chooser delivering
        # the slots it books, as in an explored case.
        self.policy = _SnapToGrid() if config["policy"] else None
        self.network.link_policy = self.policy
        self.chooser = RandomChooser(config["seed"]) if config["choose"] else None
        self.network.chooser = self.chooser
        self.hooked: list = []
        if config["kill_at"] is not None:
            network = self.network
            install_crash_points(
                (CrashPoint(shard=0, replica=0, after_messages_sent=config["kill_at"]),),
                self.simulator,
                network,
                lambda point: network.process(point.replica).crash(),
            )
            # A second hook, after the trigger: what a hook sees is per message.
            stats = self.network.stats
            self.network.add_send_hook(
                lambda src, dst, message: self.hooked.append(
                    (src, dst, message, stats.messages_sent, dict(stats.per_sender))
                )
            )

    def observe(self) -> dict:
        network, simulator = self.network, self.simulator
        return {
            "stats": network.stats.snapshot(),
            "records": list(network.records),
            "pending": simulator.pending_labels(),
            "in_flight": network.in_flight_total(),
            "delivered": list(self.log),
            "rng": _rng_states(network.delay_model),
            "policy": self.policy and list(self.policy.calls),
            "choices": self.chooser and list(self.chooser.entries),
            "hooked": list(self.hooked),
            "crashed": [process.crashed for process in network.processes()],
            "now": simulator.now,
            "events": simulator.executed_events,
        }


@st.composite
def _scripts(draw, plain=False):
    """A world and a script; ``plain`` leaves out whatever can reshape or observe a send."""
    n = draw(st.integers(min_value=2, max_value=6))
    config = {
        "n": n,
        "seed": draw(st.integers(min_value=0, max_value=50)),
        "delay": draw(st.sampled_from(["fixed", "uniform", "perlink"])),
        "coalesce": draw(st.booleans()),
        "policy": not plain and draw(st.booleans()),
        "choose": not plain and draw(st.booleans()),
        "kill_at": None if plain else draw(st.none() | st.integers(min_value=1, max_value=8)),
    }
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            steps.append(("advance", draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))))
            continue
        src = draw(st.integers(min_value=0, max_value=min(n - 1, 2)))
        others = [pid for pid in range(n) if pid != src]
        shape = draw(st.sampled_from(["empty", "one", "all", "filtered", "shuffled"]))
        if shape == "empty":
            dsts = []
        elif shape == "one":
            dsts = [draw(st.sampled_from(others))]
        elif shape == "all":
            dsts = others
        elif shape == "filtered":
            parity = draw(st.integers(min_value=0, max_value=1))
            dsts = [pid for pid in others if pid % 2 == parity]
        else:
            dsts = draw(st.permutations(others))
        message = draw(st.sampled_from(MESSAGES))
        holders = ()
        if dsts and isinstance(message, WriteMessage):
            holders = tuple(draw(st.lists(st.sampled_from(list(dsts)), unique=True)))
        steps.append(("send", src, list(dsts), message, holders))
    return config, steps


def _play(config: dict, steps: list, form: str) -> list:
    """Play the script sending each step as one ``list``, a ``loop`` of pids, or ``singletons``.

    A ``list`` names the step's holders; the other forms send a holder
    ``message.bare`` themselves.
    """
    world = _World(config)
    observations = []
    for step in steps:
        if step[0] == "advance":
            world.simulator.run(until=world.simulator.now + step[1])
        else:
            _, src, dsts, message, holders = step
            if form == "list":
                world.network.send(src, dsts, message, holders)
            else:
                for dst in dsts:
                    sent = message.bare if dst in holders else message
                    world.network.send(src, dst if form == "loop" else [dst], sent)
        observations.append(world.observe())
    world.simulator.drain()
    observations.append(world.observe())
    return observations


def _assert_same_executions(config: dict, steps: list, form: str, reference: str) -> None:
    got_all, expected_all = _play(config, steps, form), _play(config, steps, reference)
    for step, (got, expected) in enumerate(zip(got_all, expected_all)):
        for aspect in expected:
            assert got[aspect] == expected[aspect], f"{aspect} differs after step {step}"


@given(_scripts())
@settings(**SETTINGS)
def test_list_send_is_the_loop_of_single_sends(script):
    _assert_same_executions(*script, form="list", reference="loop")


@given(_scripts() | _scripts(plain=True))
@settings(**SETTINGS)
def test_unicast_send_is_the_one_element_list_send(script):
    _assert_same_executions(*script, form="loop", reference="singletons")


#: The plain world the pins below start from.
_CONFIG = {
    "n": 4,
    "seed": 7,
    "delay": "uniform",
    "coalesce": True,
    "policy": False,
    "choose": False,
    "kill_at": None,
}


def test_a_tuple_or_range_of_destinations_works_like_a_list():
    for dsts in ((1, 2), range(1, 3), [1, 2]):
        world = _World(_CONFIG)
        world.network.send(0, dsts, "x")
        world.simulator.drain()
        assert [(pid, src) for _, pid, src, _ in world.log] == [(1, 0), (2, 0)]


class TestRejectedLists:
    """A self or unknown pid, alone or anywhere in a list: nothing is sent, billed or drawn."""

    @pytest.mark.parametrize(
        "dsts, error",
        [
            ([1, 0, 2], ValueError),
            ([1, 2, 9], KeyError),
            ([0], ValueError),
            (0, ValueError),
            (9, KeyError),
        ],
    )
    def test_nothing_is_sent(self, dsts, error):
        world = _World(_CONFIG)
        before = world.observe()
        with pytest.raises(error):
            world.network.send(0, dsts, READ)
        assert world.observe() == before
        assert world.simulator.pending_events == 0

    @pytest.mark.parametrize("dsts", [[1, 2], 1])
    def test_closed_network_rejects_every_form(self, dsts):
        world = _World(_CONFIG)
        world.network.close()
        with pytest.raises(TransportClosedError):
            world.network.send(0, dsts, READ)

    def test_crashed_sender_sends_nothing(self):
        world = _World(_CONFIG)
        before = world.observe()
        world.network.process(0).crash()
        world.network.send(0, [1, 2, 3], READ)
        world.network.process(0).send([1, 2, 3], READ)
        world.network.send(0, 1, READ)
        world.network.process(0).send(1, READ)
        after = world.observe()
        assert after["stats"] == before["stats"] and after["rng"] == before["rng"]
        assert world.simulator.pending_events == 0

    def test_empty_list_leaves_no_trace_in_the_bill(self):
        world = _World(_CONFIG)
        world.network.send(0, [], READ)
        assert world.network.stats.by_type == {} and world.network.stats.per_sender == {}


class TestHooksSeePerMessageState:
    def test_sender_killed_mid_list_stops_there(self):
        world = _World(dict(_CONFIG, kill_at=2))
        world.network.send(0, [1, 2, 3], READ)
        assert world.network.process(0).crashed
        assert world.network.stats.messages_sent == 2
        assert world.network.in_flight_total() == 2
        # The hook after the trigger saw the bill grow message by message.
        assert [(dst, sent, per[0]) for _, dst, _, sent, per in world.hooked] == [
            (1, 1, 1),
            (2, 2, 2),
        ]
        # Only two delays were drawn: the stream is where two single sends leave it.
        reference = UniformDelay(0.2, 1.0, seed=7)
        reference.sample_many(0, [1, 2])
        assert _rng_states(world.network.delay_model) == _rng_states(reference)


class TestBatchDraw:
    @given(
        low=st.floats(min_value=0.0, max_value=10.0),
        width=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_batch_equals_rng_uniform_bit_for_bit(self, low, width, seed):
        high = low + width
        batch, single = UniformDelay(low, high, seed=seed), UniformDelay(low, high, seed=seed)
        stdlib = random.Random()
        stdlib.setstate(batch._rng.getstate())
        drawn = batch.sample_many(0, range(1, 200))
        assert drawn == [stdlib.uniform(low, high) for _ in range(199)]
        assert drawn == [single.sample(0, dst) for dst in range(1, 200)]
        assert batch._rng.getstate() == single._rng.getstate()

    def test_default_batch_is_the_loop_over_sample(self):
        for make in (
            lambda: ExponentialDelay(seed=3),
            lambda: JitteredDelay(seed=3),
            lambda: FixedDelay(2.0),
            lambda: _delay_model("perlink", 3),
        ):
            batch, single = make(), make()
            dsts = [1, 0, 1, 2, 1]
            assert batch.sample_many(0, dsts) == [single.sample(0, dst) for dst in dsts]
            assert _rng_states(batch) == _rng_states(single)


#: (model, whether 10,000 draws must actually show a repeat)
COLLISION_CASES = [
    (FixedDelay(1.0), True),
    (UniformDelay(0.5, 0.5, seed=1), True),
    (UniformDelay(0.2, 1.0, seed=1), False),
    (JitteredDelay(1.0, 0.0, seed=1), True),
    (JitteredDelay(1.0, 0.1, seed=1), False),
    (ExponentialDelay(base=0.1, mean=1.0, cap=1.0, seed=1), True),
    (PerLinkDelay(FixedDelay(1.0)), True),
    (PerLinkDelay(UniformDelay(0.2, 1.0, seed=1), {(0, 1): FixedDelay(1.0)}), True),
    (PerLinkDelay(UniformDelay(0.2, 1.0, seed=1), {(0, 2): JitteredDelay(seed=2)}), False),
]


@pytest.mark.parametrize("model, repeats", COLLISION_CASES, ids=lambda case: repr(case))
def test_may_collide_is_honest_over_10000_draws(model, repeats):
    draws = [model.sample(0, 1) for _ in range(10_000)]
    repeated = len(set(draws)) < len(draws)
    assert repeated == repeats
    assert model.may_collide or not repeated  # "cannot collide" must never be wrong
    assert model.may_collide == repeats


def test_unknown_delay_models_are_assumed_to_collide():
    class Custom(DelayModel):
        def sample(self, src, dst):
            return 1.0

    assert Custom().may_collide


class TestTheIndexExistsOnlyWhereInstantsCanBeShared:
    def _world(self, **overrides):
        return _World(dict(_CONFIG, **overrides))

    def test_absent_under_continuous_delays(self):
        world = self._world()
        world.network.send(0, [1, 2, 3], READ)
        assert world.network._coalesced == {}
        world.simulator.drain()
        assert world.network.stats.messages_coalesced == 0

    def test_present_under_fixed_delays(self):
        world = self._world(delay="fixed")
        world.network.send(0, [1, 2], READ)
        world.network.send(3, [1, 2], READ)
        assert len(world.network._coalesced) == 2
        assert world.network.stats.messages_coalesced == 2

    def test_present_once_a_policy_can_align_instants(self):
        world = self._world(policy=True)
        world.network.send(0, [1, 2], READ)
        world.network.send(3, [1, 2], READ)
        assert world.network.stats.messages_coalesced == 2
        world.simulator.drain()
        assert world.network._coalesced == {}

    def test_never_without_coalescing(self):
        world = self._world(delay="fixed", coalesce=False)
        world.network.send(0, [1, 2], READ)
        world.network.send(3, [1, 2], READ)
        assert world.network._coalesced == {} and world.network.stats.messages_coalesced == 0


class TestHolders:
    """What ``holders`` adds to a send: a holder's copy is ``message.bare``."""

    MESSAGE = WriteMessage(bit=1, value="v1")

    def test_a_unicast_to_a_holder_is_the_bare_send(self):
        worlds = [_World(_CONFIG), _World(_CONFIG)]
        worlds[0].network.send(0, 1, self.MESSAGE, (1,))
        worlds[1].network.send(0, 1, self.MESSAGE.bare)
        for world in worlds:
            world.simulator.drain()
        assert worlds[0].observe() == worlds[1].observe()
        assert worlds[0].log[0][3] is BARE_WRITES[1]

    @pytest.mark.parametrize("dsts", [[1, 2], 1])
    def test_a_holder_that_is_not_a_destination_sends_nothing(self, dsts):
        world = _World(_CONFIG)
        before = world.observe()
        with pytest.raises(ValueError, match="not distinct destinations"):
            world.network.send(0, dsts, self.MESSAGE, (3,))
        assert world.observe() == before

    def test_the_bill_is_the_copies_less_the_holders_data(self):
        world = _World(_CONFIG)
        world.network.send(0, [1, 2, 3], self.MESSAGE, (3, 1))
        stats = world.network.stats
        assert stats.by_type == {"WRITE1": 3} and stats.control_bits_total == 6
        assert stats.data_bits_total == 16


def test_a_forwarded_write_is_the_received_object_or_bare_to_a_holder():
    n = 4
    cluster = create_register(
        n=n, initial_value="v0", delay_model=UniformDelay(0.2, 1.0, seed=5)
    )
    writes = []
    cluster.network.add_send_hook(
        lambda src, dst, message: writes.append((src, dst, message))
        if isinstance(message, WriteMessage)
        else None
    )
    cluster.network.record_messages = True
    cluster.writer.write("value-1")
    cluster.settle()
    # Theorem 2: n(n - 1) WRITEs — the writer's one message object, forwarded
    # as is to every process that may lack it, and the bare WRITE1 of the
    # same bit to the writer and to the process whose WRITE it acknowledges.
    assert len(writes) == n * (n - 1)
    (original,) = {message for src, _, message in writes if src == 0}
    learned_from = {}  # forwarder -> the process whose WRITE it took value #1 from
    for record in cluster.network.records:
        learned_from.setdefault(record.dst, record.src)
    bare = 0
    for src, dst, message in writes:
        holder = src != 0 and (dst == 0 or dst == learned_from[src])
        assert message is (BARE_WRITES[1] if holder else original), (src, dst, message)
        bare += holder
    assert bare == 4
    stats = cluster.network.stats
    assert stats.by_type == {"WRITE1": n * (n - 1)}
    assert stats.control_bits_total == 2 * n * (n - 1)
    assert stats.data_bits_total == 8 * len("value-1") * (n * (n - 1) - bare)
    assert stats.per_sender == {pid: n - 1 for pid in range(n)}
