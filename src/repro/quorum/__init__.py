"""Shared quorum phase engine for message-passing register protocols.

Every register algorithm in this repository is, at its core, a *quorum
protocol*: broadcast a phase message to all peers, collect replies until at
least ``n - t`` processes (the sender included) have answered, aggregate the
replies, proceed to the next phase.  Before this package existed each of
``registers/abd.py``, ``registers/abd_mwmr.py`` and ``registers/bounded.py``
hand-rolled that loop — per-phase reply sets, pending-tag bookkeeping to
reject stale replies, quorum waits — three times over.

``repro.quorum`` extracts the pattern once:

* :class:`~repro.quorum.tracker.QuorumTracker` — the ``n - t`` threshold
  arithmetic (canonical home; re-exported from ``repro.registers.base`` for
  backwards compatibility).
* :class:`~repro.quorum.aggregators.ReplyAggregator` and friends — pluggable
  per-phase reply reductions (ack counting, max-by-key selection).
* :class:`~repro.quorum.engine.QuorumCollector` — one in-flight phase: its
  tag (the stale-reply guard), its aggregator, its threshold and its
  continuation; ``accept`` counts a reply and, at the quorum-th, runs the
  continuation — exactly once.
* :class:`~repro.quorum.engine.PhaseRegisterProcess` — the broadcast/collect
  engine itself: ``start_phase`` seeds the sender's own reply and sends one
  message to every peer (a single multi-destination ``send``);
  ``phase_reply`` applies the stale-phase guard and hands the reply to the
  collector.  Quorum waits are counted, not polled: the engine registers no
  guards.

The engine is deliberately *history-preserving*: ``start_phase`` performs
exactly the sends (same order) the hand-rolled loops did, and the
continuation runs where their quorum guard fired — inside the delivery of the
reply that completes the quorum — so porting an algorithm onto the engine
leaves every closed-loop history byte-identical (pinned by
``tests/workloads/golden_histories.json``) and every per-operation message
count unchanged (Theorem 2, checked by ``repro messages``).
"""

from repro.quorum.aggregators import AckCounter, MaxReply, ReplyAggregator
from repro.quorum.tracker import QuorumTracker

__all__ = [
    "AckCounter",
    "MaxReply",
    "NO_SELF_REPLY",
    "PhaseRegisterProcess",
    "QuorumCollector",
    "QuorumTracker",
    "ReplyAggregator",
]

#: Engine names resolved lazily (PEP 562): ``repro.quorum.engine`` builds on
#: ``repro.registers.base``, which itself imports :mod:`repro.quorum.tracker`
#: — importing the engine eagerly here would close that cycle while
#: ``registers.base`` is still half-initialised.
_ENGINE_EXPORTS = frozenset(
    {"NO_SELF_REPLY", "PhaseRegisterProcess", "QuorumCollector"}
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.quorum import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
