"""Delivery choosers: the explorer's schedule adversary.

The paper's channels are reliable, asynchronous and not FIFO: any message in
flight may be delivered next.  A chooser on a network (``Network.chooser``;
a subnet takes ``chooser.scoped(name)``, as it takes its delay model) bags
each message ``Network.send`` hands it and books a delivery **slot** at the
time the delay model and link policy give the message.  A due slot delivers
the message the chooser picks, else the earliest in flight — so a chooser
that never picks is the unchosen heap order, message for message, and every
chosen execution is one the model permits.

A pick ``(scope, slot, src, dst, k)`` makes the ``slot``-th slot of subnet
``scope`` deliver the ``k``-th message sent on its ``src -> dst`` link.
:class:`RandomChooser` picks uniformly over the bag and records its
non-default picks; :class:`ReplayChooser` replays them.  A subset of them
(what ddmin probes) is another deterministic run: a pick whose message is
not in flight is no pick.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappush
from typing import Dict, List, Optional, Tuple

from repro.sim.rng import make_rng

#: One pick: slot ``slot`` of subnet ``scope`` delivers the ``k``-th
#: message sent on link ``src -> dst``.
ChoiceEntry = Tuple[str, int, int, int, int]


class DeliveryChooser:
    """One network's bag and slots; :meth:`pick` says which message a slot delivers.

    A slot is a heap entry ``(time, seq, chooser)`` (the event queue's entry
    protocol).  The bag holds ``(time, seq, src, dst, k, endpoint, message,
    send_time)`` sorted by ``(time, seq)``: its head is the unchosen next.
    A subclass's ``scoped(scope)`` is its view with its own bag and slots.
    """

    #: A slot is irrevocable, like the message in flight it stands for.
    cancelled = False

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self._bag: List[tuple] = []
        self._sent: Dict[Tuple[int, int], int] = {}
        self._slots = 0

    def pick(self, slot: int, bag: List[tuple]) -> int:
        """Index into ``bag`` (two or more messages) of what slot ``slot`` delivers."""
        return 0

    def hold(self, heap: list, entry: tuple) -> None:
        """Bag the message in flight ``entry`` (``Network.send``'s tuple) and book its slot."""
        time, seq, endpoint, src, message, send_time, _riders = entry
        link = (src, endpoint.dst)
        k = self._sent.get(link, 0)
        self._sent[link] = k + 1
        insort(self._bag, (time, seq, src, endpoint.dst, k, endpoint, message, send_time))
        heappush(heap, (time, seq, self))

    def __call__(self) -> None:
        bag, slot = self._bag, self._slots
        self._slots = slot + 1
        index = self.pick(slot, bag) if len(bag) > 1 else 0
        _time, _seq, src, _dst, _k, endpoint, message, send_time = bag.pop(index)
        endpoint(src, message, send_time, None)

    def describe(self) -> str:
        return f"delivery slot on {self.scope!r} ({len(self._bag)} in flight)"


class RandomChooser(DeliveryChooser):
    """A seeded uniform pick over the bag that records its non-default picks.

    Each scope draws from its own stream, derived from ``seed`` and the scope
    name; the picks of every scope land in one ``entries`` list.
    """

    def __init__(
        self, seed: int, scope: str = "", entries: Optional[List[ChoiceEntry]] = None
    ) -> None:
        super().__init__(scope)
        self.seed = seed
        #: The recorded picks, in the order the run made them.
        self.entries: List[ChoiceEntry] = [] if entries is None else entries
        self._rng = make_rng(seed, "explore-chooser", scope)

    def scoped(self, scope: str) -> "RandomChooser":
        return RandomChooser(self.seed, scope, self.entries)

    def pick(self, slot: int, bag: List[tuple]) -> int:
        index = self._rng.randrange(len(bag))
        if index:
            _time, _seq, src, dst, k = bag[index][:5]
            self.entries.append((self.scope, slot, src, dst, k))
        return index


class ReplayChooser(DeliveryChooser):
    """Replays a fixed list of picks; every other slot delivers the earliest."""

    def __init__(self, entries: List[ChoiceEntry], scope: str = "") -> None:
        super().__init__(scope)
        self._picks: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
        for where, slot, src, dst, k in entries:
            key = (str(where), int(slot))
            if key in self._picks:
                raise ValueError(f"duplicate choice for slot {key}")
            self._picks[key] = (int(src), int(dst), int(k))

    def scoped(self, scope: str) -> "ReplayChooser":
        view = ReplayChooser([], scope)
        view._picks = self._picks
        return view

    def pick(self, slot: int, bag: List[tuple]) -> int:
        wanted = self._picks.get((self.scope, slot))
        if wanted is not None:
            for index, held in enumerate(bag):
                if held[2:5] == wanted:
                    return index
        return 0
