"""Model-based property test of the quorum phase engine.

The engine counts: ``PhaseRegisterProcess.phase_reply`` compares the reply
count with ``n - t`` where the reply lands and runs the continuation there.  The
formulation it replaced *polled*: ``start_phase`` registered a guard on
``phase.satisfied`` and the runtime re-evaluated it after every handler.
That formulation is kept here, as the **oracle** (``_PolledProcess``): the
same seeded script is played on both, and after every step everything a
protocol can observe must be equal — which continuations ran, at which step,
with which replies recorded; every ``phase_reply`` return value; every reply
set; ``phase_words``; the messages sent; who crashed.

The last test pins the one place where the two formulations may differ in
*when* within an instant a continuation runs — a coalesced fan-in — to the
executions the parent commit produced.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.faults import CrashPoint, install_crash_points
from repro.quorum.aggregators import AckCounter, MaxReply
from repro.quorum.engine import NO_SELF_REPLY, PhaseRegisterProcess
from repro.registers.base import RegisterProcess
from repro.sim.delays import FixedDelay
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.workloads.kv import KVWorkloadSpec, run_kv_workload

SLOTS = ("a", "b")
ACTOR = 0  # the process the script drives; the others only receive


# ------------------------------------------------------------------ the oracle


class _PolledCollector:
    """The collector as it was: a reply set and a predicate, no continuation."""

    def __init__(self, slot, tag, aggregator, tracker):
        self.slot, self.tag, self.aggregator, self.tracker = slot, tag, aggregator, tracker
        self.replies = {}
        self.closed = False

    def satisfied(self):
        return self.tracker.satisfied(len(self.replies))

    def accept(self, src, payload=None):
        if self.closed or src in self.replies:
            return False
        self.replies[src] = payload
        return True

    def result(self):
        return self.aggregator.result(self.replies)

    def close(self):
        self.closed = True


class _PolledProcess(RegisterProcess):
    """The engine as it was: one guard per phase, polled after every handler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._phases = {}

    def start_phase(
        self, slot, *, on_quorum, message=None, tag=None, aggregator=None,
        self_reply=NO_SELF_REPLY, label="",
    ):
        phase = _PolledCollector(
            slot, tag, aggregator if aggregator is not None else AckCounter(), self.quorum
        )
        self._phases[slot] = phase
        if self_reply is not NO_SELF_REPLY:
            phase.accept(self.pid, self_reply)
        self.send(self.other_process_ids(), message)
        self.add_guard(phase.satisfied, lambda: on_quorum(phase), label=label)
        return phase

    def active_phase(self, slot, tag=None):
        phase = self._phases.get(slot)
        if phase is None or phase.closed or phase.tag != tag:
            return None
        return phase

    def phase_reply(self, slot, src, payload=None, tag=None):
        phase = self.active_phase(slot, tag)
        if phase is None:
            return False
        return phase.accept(src, payload)

    def close_phases(self, *slots):
        for slot in slots:
            phase = self._phases.get(slot)
            if phase is not None:
                phase.close()

    def phase_words(self, *slots):
        return sum(len(self._phases[slot].replies) for slot in slots if slot in self._phases)

    def on_message(self, src, message):
        pass


class _CountedProcess(PhaseRegisterProcess):
    def on_message(self, src, message):
        pass


# ------------------------------------------------------------------ the script


@st.composite
def _scripts(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    config = {
        "n": n,
        # Every t the tracker admits: n - t runs from n down to 1 (a quorum of
        # one is already there when the send returns).
        "t": draw(st.integers(min_value=0, max_value=n - 1)),
        # Kill the actor at its k-th message: before, inside or after a send.
        "kill_at": draw(st.none() | st.integers(min_value=0, max_value=3 * n)),
    }
    tags = st.integers(min_value=0, max_value=2)
    latest = {}  # slot -> tag of the phase the script last started there
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        kind = draw(st.sampled_from(["start", "reply", "reply", "reply", "reply", "close", "crash"]))
        if kind == "start":
            slot, tag = draw(st.sampled_from(SLOTS)), draw(tags)
            latest[slot] = tag
            steps.append(
                (
                    "start",
                    slot,
                    tag,
                    draw(st.sampled_from(["absent", "none", "payload"])),
                    draw(st.sampled_from(["acks", "max"])),
                    # What the continuation does besides being recorded.
                    draw(st.sampled_from(["nothing", "close", "chain"])),
                )
            )
        elif kind == "reply":
            # Mostly to the phase in flight (fresh, duplicate, past the quorum,
            # after a close), sometimes stale or to a slot that never was.
            slot = draw(st.sampled_from(SLOTS + SLOTS + ("never-started",)))
            fresh = slot in latest and draw(st.integers(min_value=0, max_value=3)) > 0
            steps.append(
                (
                    "reply",
                    slot,
                    draw(st.integers(min_value=0, max_value=n - 1)),
                    latest[slot] if fresh else draw(tags),
                    draw(st.integers(min_value=0, max_value=9)),
                )
            )
        elif kind == "close":
            steps.append(("close", draw(st.lists(st.sampled_from(SLOTS), max_size=2))))
        elif draw(st.integers(min_value=0, max_value=3)) == 0:  # crashes are rare
            steps.append(("crash",))
    return config, steps


class _World:
    def __init__(self, process_class, config):
        self.simulator = Simulator()
        self.network = Network(self.simulator)
        processes = [
            process_class(pid, self.simulator, self.network, writer_pid=ACTOR, t=config["t"])
            for pid in range(config["n"])
        ]
        for process in processes:
            process.finish_setup()
        self.actor = processes[ACTOR]
        if config["kill_at"] is not None:
            install_crash_points(
                (CrashPoint(shard=0, replica=ACTOR, after_messages_sent=config["kill_at"]),),
                self.simulator,
                self.network,
                lambda point: processes[point.replica].crash(),
            )
        self.step = -1
        self.phases = 0  # phases started so far: the next one's number
        self.current = {}  # slot -> (number, label) of the phase now in it
        self.started = []  # every collector start_phase returned
        self.fired = []  # (step, phase number, replies at that moment, result)
        self.returns = []

    def _continuation(self, number, slot, then):
        def on_quorum(phase):
            # Never a closed or replaced phase, never on a crashed process.
            assert not phase.closed and not self.actor.crashed
            assert self.actor._phases[slot] is phase and self.current[slot][0] == number
            assert len(phase.replies) >= self.actor.quorum.quorum_size
            self.fired.append((self.step, number, dict(phase.replies), phase.result()))
            if then == "close":
                self.actor.close_phases(slot)
            elif then == "chain":
                other = SLOTS[1 - SLOTS.index(slot)]
                self._start(other, phase.tag, "none", "acks", "close")

        return on_quorum

    def _start(self, slot, tag, self_reply, aggregator, then):
        number, self.phases = self.phases, self.phases + 1
        label = ("phase %d in %s, tag %d", number, slot, tag)  # lazy, as the registers' are
        self.current[slot] = (number, label[0] % label[1:])
        self.started.append(
            self.actor.start_phase(
                slot,
                tag=tag,
                message=f"{slot}#{tag}",
                aggregator=MaxReply() if aggregator == "max" else None,
                self_reply={"absent": NO_SELF_REPLY, "none": None, "payload": 5}[self_reply],
                on_quorum=self._continuation(number, slot, then),
                label=label,
            )
        )

    def play(self, step):
        self.step += 1
        actor = self.actor
        if step[0] == "start":
            _, slot, tag, self_reply, aggregator, then = step
            if aggregator == "max" and self_reply == "none":
                self_reply = "payload"  # max() cannot compare None with a number
            self._start(slot, tag, self_reply, aggregator, then)
        elif step[0] == "reply":
            _, slot, src, tag, payload = step
            self.returns.append(actor.phase_reply(slot, src, payload, tag=tag))
            # What ProcessBase.deliver does after every handler.  The counted
            # engine registers no guard, so there it scans nothing.
            actor.check_guards()
        elif step[0] == "close":
            actor.close_phases(*step[1])
        else:
            actor.crash()

    def observe(self):
        return {
            "fired": list(self.fired),
            "returns": list(self.returns),
            "replies": [dict(phase.replies) for phase in self.started],
            "closed": [phase.closed for phase in self.started],
            "phase_words": self.actor.phase_words(*SLOTS, "never-started"),
            "crashed": self.actor.crashed,
            "stats": self.network.stats.snapshot(),
            "pending": self.simulator.pending_labels(),
        }

    def still_waiting(self):
        """What a stuck-run report should name: open, current, unfired phases."""
        if self.actor.crashed:
            return []
        fired = {number for _, number, _, _ in self.fired}
        size = self.actor.quorum.quorum_size
        return [
            f"{label} ({len(self.actor._phases[slot].replies)}/{size} replies)"
            for slot, (number, label) in self.current.items()
            if number not in fired and not self.actor._phases[slot].closed
        ]


def _compare(script, counted_class=_CountedProcess):
    config, steps = script
    counted, polled = _World(counted_class, config), _World(_PolledProcess, config)
    for index, step in enumerate(steps):
        counted.play(step)
        polled.play(step)
        got, expected = counted.observe(), polled.observe()
        for aspect in expected:
            assert got[aspect] == expected[aspect], f"{aspect} differs after step {index} {step}"
        numbers = [number for _, number, _, _ in counted.fired]
        assert len(numbers) == len(set(numbers))  # exactly once
        assert not counted.actor.pending_guards()  # nothing is polled
        assert counted.actor.waiting_on() == polled.still_waiting()


def _property(max_examples, phases=tuple(Phase), counted_class=_CountedProcess):
    @given(_scripts())
    @settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=True,
        phases=phases,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(script):
        _compare(script, counted_class)

    run()


def test_counted_engine_is_the_polled_engine():
    _property(max_examples=600)


# -------------------------------------------------------- the property has teeth


# Each mutant rewrites one place the quorum is compared with ``n - t`` —
# ``phase_reply`` for a peer's reply, ``start_phase`` for a quorum already
# there when the send returns — with one fault.


class _FiresOneEarly(_CountedProcess):
    def phase_reply(self, slot, src, payload=None, tag=None):
        phase = self._phases.get(slot)
        if phase is None or phase.closed or phase.tag != tag or src in phase.replies:
            return False
        phase.replies[src] = payload
        on_quorum = phase.on_quorum
        if on_quorum is not None and len(phase.replies) >= phase.quorum_size - 1:
            phase.on_quorum = None
            on_quorum(phase)
        return True


class _FiresEveryTime(_CountedProcess):
    def phase_reply(self, slot, src, payload=None, tag=None):
        phase = self._phases.get(slot)
        if phase is None or phase.closed or phase.tag != tag or src in phase.replies:
            return False
        phase.replies[src] = payload
        if phase.on_quorum is not None and len(phase.replies) >= phase.quorum_size:
            phase.on_quorum(phase)  # and does not forget it
        return True


class _CountsDuplicates(_CountedProcess):
    duplicates = 0

    def phase_reply(self, slot, src, payload=None, tag=None):
        phase = self._phases.get(slot)
        if phase is None or phase.closed or phase.tag != tag:
            return False
        accepted = src not in phase.replies
        if accepted:
            phase.replies[src] = payload
        else:
            self.duplicates += 1
        on_quorum = phase.on_quorum
        if on_quorum is not None and len(phase.replies) + self.duplicates >= phase.quorum_size:
            phase.on_quorum = None
            on_quorum(phase)
        return accepted


class _FiresOneEarlyAtStart(_CountedProcess):
    def start_phase(self, slot, **kwargs):
        phase = super().start_phase(slot, **kwargs)
        on_quorum = phase.on_quorum
        if on_quorum is not None and len(phase.replies) >= phase.quorum_size - 1:
            phase.on_quorum = None
            on_quorum(phase)
        return phase


@pytest.mark.parametrize(
    "mutant", [_FiresOneEarly, _FiresEveryTime, _CountsDuplicates, _FiresOneEarlyAtStart]
)
def test_the_property_fails_on_a_wrong_engine(mutant):
    with pytest.raises(AssertionError):
        _property(max_examples=600, phases=(Phase.generate,), counted_class=mutant)


# --------------------------------------------------------- the coalesced fan-in

#: sha-256 over stats + executed events + failures + per-key histories of the
#: twelve runs of each algorithm below, computed at the parent commit (the
#: polled engine).  With fixed delays the n - 1 replies of a phase reach the
#: reader in one coalesced delivery event and the quorum is completed by a
#: reply in the middle of it: the counted engine runs the continuation there,
#: the polled one ran it after the batch.  Reply handlers send nothing and a
#: phase stays open while later replies land, so the executions are the same.
COALESCED_DIGESTS = {
    "abd": "2bd091fd1aac261cb129ca7fbf43524a5e5b02882edd43a1fa7b9e4d0b12f77f",
    "abd-mwmr": "6f88bad21a9e55b34f236921ae5d898db235ed2574f0a9db9fe03afb9be9694d",
    "abd-bounded-emulation": "514251411e14eefef4886fc7e001c180fe89535a7272eb692d188f384e1b38ce",
}


def _coalesced_specs(algorithm):
    for seed in range(6):
        common = dict(
            algorithm=algorithm,
            replication=5,
            num_keys=6,
            num_shards=2,
            num_ops=150,
            delay_model=FixedDelay(1.0),
            seed=seed,
        )
        yield KVWorkloadSpec(read_fraction=0.7, batch_size=24, **common)
        yield KVWorkloadSpec(read_fraction=0.85, arrival="poisson", arrival_rate=12.0, **common)


@pytest.mark.parametrize("algorithm", sorted(COALESCED_DIGESTS))
def test_coalesced_fixed_delay_runs_are_the_parent_commits(algorithm):
    digest = hashlib.sha256()
    for spec in _coalesced_specs(algorithm):
        result = run_kv_workload(spec)
        store = result.store
        stats = store.stats.snapshot()
        assert stats["messages_coalesced"] >= 0.37 * stats["messages_sent"]
        histories = store.histories()
        blob = {
            "stats": stats,
            "events": store.simulator.executed_events,
            "failed": len(result.failed_ops()),
            "histories": {str(key): histories[key].to_dict() for key in sorted(histories, key=str)},
        }
        digest.update(json.dumps(blob, sort_keys=True, default=str).encode())
    assert digest.hexdigest() == COALESCED_DIGESTS[algorithm]
