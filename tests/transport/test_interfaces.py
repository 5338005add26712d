"""The transport Protocols are structural: the simulator satisfies them as-is."""

import pytest

from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.transport.base import (
    Clock,
    DrivableClock,
    Transport,
    available_transports,
    validate_transport,
)
from repro.transport.live import WallClock


class TestStructuralConformance:
    def test_simulator_is_a_drivable_clock(self):
        simulator = Simulator()
        assert isinstance(simulator, Clock)
        assert isinstance(simulator, DrivableClock)

    def test_network_is_a_transport(self):
        simulator = Simulator()
        network = Network(simulator)
        assert isinstance(network, Transport)

    def test_wall_clock_is_a_clock_but_cannot_drive(self):
        import asyncio

        loop = asyncio.new_event_loop()
        try:
            clock = WallClock(loop)
            assert isinstance(clock, Clock)
            assert not isinstance(clock, DrivableClock)
        finally:
            loop.close()

    def test_wall_clock_timers_fire_on_the_loop(self):
        import asyncio

        async def scenario():
            clock = WallClock(asyncio.get_running_loop())
            fired = []
            clock.schedule_after(0.01, lambda: fired.append("after"))
            handle = clock.schedule_after(0.01, lambda: fired.append("cancelled"))
            clock.cancel(handle)
            clock.schedule_at(clock.now + 0.02, lambda: fired.append("at"))
            await asyncio.sleep(0.05)
            return fired, clock.now

        fired, now = asyncio.run(scenario())
        assert fired == ["after", "at"]
        assert now >= 0.05


class TestRegistry:
    def test_validate_transport_accepts_known_names(self):
        for name in available_transports():
            assert validate_transport(name) == name

    def test_validate_transport_rejects_unknown(self):
        with pytest.raises(ValueError, match="choose from"):
            validate_transport("udp")
