"""Deterministic per-message delay perturbation: record, replay, shrink.

The schedule explorer steers the simulator *through the network*: a
perturbation is the last :class:`~repro.faults.plan.LinkPolicy` of an
explored case's fault plan, so it may stretch or shrink every logical
message's delay — changing delivery order and therefore the schedule —
while keeping delays finite and non-negative (every perturbed execution is
still a legal asynchronous execution of the paper's model).

Choices are keyed by **scoped link ordinal**: the ``k``-th message sent on
the ``(src, dst)`` channel of one deployment's network (the scope is the
subnet name, bound by ``LinkPolicy.scoped`` — pids are subnet-local, so
without it two keys' traffic would share one choice stream).  Two
properties follow:

* **replayability** — :class:`RecordingPerturbation` draws multipliers from
  a seeded RNG and records ``(scope, src, dst, k, multiplier)`` entries as
  the run consumes them; feeding the recorded entries to a
  :class:`ReplayPerturbation` reproduces the exact same delays (same
  messages, same per-link ordinals) and hence the exact same execution;
* **shrinkability** — the recorded entry list is a flat sequence of
  independent choices, so delta debugging (:mod:`repro.explore.shrink`) can
  drop subsets (dropped entries fall back to the unperturbed delay) and
  re-run until only the choices that matter for a violation remain.
  Scoping additionally means shrinking one key's operations never shifts
  another key's choice alignment.

Perturbation entries are plain tuples and serialize losslessly to JSON, so
a shrunken schedule ships inside a replayable counterexample artifact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.faults.plan import LinkPolicy
from repro.sim.rng import make_rng

#: One perturbation choice: the k-th message on link (src, dst) of the
#: deployment named ``scope`` gets its delay multiplied by ``multiplier``.
PerturbationEntry = Tuple[str, int, int, int, float]


class _Perturbation(LinkPolicy):
    """Per-scope link ordinals; unscoped, it perturbs a plain network (scope ``""``)."""

    def __init__(self) -> None:
        self._link_ordinals: Dict[Tuple[str, int, int], int] = {}

    def _ordinal(self, scope: str, src: int, dst: int) -> int:
        link = (scope, src, dst)
        ordinal = self._link_ordinals.get(link, 0)
        self._link_ordinals[link] = ordinal + 1
        return ordinal

    def adjust(self, src: int, dst: int, now: float, delay: float) -> float:
        return self.perturb("", src, dst, now, delay)

    def scoped(self, scope: str) -> LinkPolicy:
        return _ScopedPerturbation(self.perturb, scope)


class _ScopedPerturbation(LinkPolicy):
    """A perturbation bound to one subnet's name; the state stays the perturbation's."""

    def __init__(self, perturb: Callable[..., float], scope: str) -> None:
        self.perturb, self.scope = perturb, scope

    def adjust(self, src: int, dst: int, now: float, delay: float) -> float:
        return self.perturb(self.scope, src, dst, now, delay)


class RecordingPerturbation(_Perturbation):
    """Seeded random per-message delay perturbation that records its choices.

    Each message is perturbed with probability ``rate``; a perturbed
    message's delay is multiplied by a factor drawn uniformly from
    ``[shrink_to, 1 + amplitude]`` — factors below 1 pull messages earlier,
    factors above 1 push them later, and both reorder deliveries relative
    to unperturbed traffic.  All randomness comes from one
    :func:`~repro.sim.rng.make_rng` stream across every scope, so the same
    seed explores the same schedule.
    """

    spans_scopes = True

    def __init__(
        self,
        seed: int,
        rate: float = 0.35,
        amplitude: float = 4.0,
        shrink_to: float = 0.05,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if amplitude < 0 or not 0 < shrink_to <= 1:
            raise ValueError(f"invalid perturbation range [{shrink_to}, 1 + {amplitude}]")
        super().__init__()
        self.seed = seed
        self.rate = rate
        self.amplitude = amplitude
        self.shrink_to = shrink_to
        self._rng = make_rng(seed, "explore-perturb", rate, amplitude, shrink_to)
        #: The recorded choices, in consumption order.
        self.entries: List[PerturbationEntry] = []

    def perturb(self, scope: str, src: int, dst: int, now: float, delay: float) -> float:
        ordinal = self._ordinal(scope, src, dst)
        if self._rng.random() >= self.rate:
            return delay
        multiplier = self._rng.uniform(self.shrink_to, 1.0 + self.amplitude)
        self.entries.append((scope, src, dst, ordinal, multiplier))
        return delay * multiplier


class ReplayPerturbation(_Perturbation):
    """Replays a fixed list of perturbation entries (everything else is identity).

    Replaying the full entry list recorded by a
    :class:`RecordingPerturbation` reproduces the recorded execution
    message-for-message; replaying a *subset* (what the shrinker probes)
    yields a different — but still deterministic — execution.
    """

    def __init__(self, entries: List[PerturbationEntry]) -> None:
        super().__init__()
        self.entries = [tuple(entry) for entry in entries]
        self._multipliers: Dict[Tuple[str, int, int, int], float] = {}
        for scope, src, dst, ordinal, multiplier in self.entries:
            key = (str(scope), int(src), int(dst), int(ordinal))
            if key in self._multipliers:
                raise ValueError(f"duplicate perturbation entry for message {key}")
            if not multiplier >= 0:
                raise ValueError(f"invalid perturbation multiplier {multiplier} for {key}")
            self._multipliers[key] = float(multiplier)

    def perturb(self, scope: str, src: int, dst: int, now: float, delay: float) -> float:
        multiplier = self._multipliers.get((scope, src, dst, self._ordinal(scope, src, dst)))
        return delay if multiplier is None else delay * multiplier
