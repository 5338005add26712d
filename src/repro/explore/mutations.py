"""Intentionally faulty register variants (mutation testing for the explorer).

A schedule explorer that only ever runs correct algorithms proves nothing
about its own detection power.  These mutants re-introduce classic
atomicity bugs that quorum registers historically guarded against, so the
explorer + checker + shrinker pipeline can be *mutation-tested*: under
seeded schedule search it must find a violating execution, shrink it to a
small deterministic counterexample, and replay it from the artifact.

``abd-no-writeback``
    The reader skips ABD's write-back phase and returns the queried maximum
    directly.  A read concurrent with a slow write can observe the new
    value early (from the writer's replica) while a later, real-time-
    ordered read still sees the old value from a lagging quorum — the
    **new/old inversion** (Claim 3 of Lemma 10) the write-back exists to
    prevent.

``abd-sloppy-write``
    The writer returns as soon as it has broadcast, without waiting for a
    majority of acknowledgements.  A read whose quorum misses the write's
    slow deliveries returns the previous value even though the write
    already completed — a **stale read after an acknowledged write**
    (Claim 2 of Lemma 10).

``two-bit-no-line9-wait``
    The two-bit read (Figure 1) skips line 9: it returns ``history_i[sn]``
    as soon as line 7 holds, before ``n - t`` processes are known to hold
    value ``sn``.  A read that learned a value early returns it, and a
    later read whose line-7 quorum still lags returns the value before
    it — the two-bit read's own **new/old inversion**, which line 9
    prevents as ABD's write-back does.

``two-bit-bare-forward``
    Every copy of a line-15 forward goes bare (``WRITE(b, None)``), not
    only the copies to the processes that hold the value.  A process that
    learns a value from a forward rather than from the writer records
    ``None`` in its history, and a read that returns it is a **read of a
    value never written**: the bare form is sound only to a holder, for
    whom line 13 is false.

``mmr-cas-skip-aux``
    MMR binary consensus without the AUX quorum: each replica decides the
    first estimate its bin_values delivers, skipping the round of AUX
    exchange (and the common-coin agreement it feeds).  Two replicas whose
    EST messages arrive in different orders decide **different values for
    the same slot** — an agreement violation that surfaces to the checker
    as a non-linearizable cas/read history (diverged replica state
    machines).

The mutants are *not* in the default algorithm registry:
:func:`mutant_registered` holds one there for a ``with`` block, which is how
:func:`~repro.explore.case.run_case` runs a mutant case and how ``repro
explore --algorithm <mutant>`` validates its flags.  No mutant outlives that
block, so nothing else in the process ever sees one in
``available_algorithms()``.  They must never be used outside
explorer/checker validation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator

from repro.consensus.mmr import SkipAuxConsensusProcess
from repro.core.process import TwoBitRegisterProcess
from repro.quorum.aggregators import HIGHEST_PAIR
from repro.registers.abd import AbdReadQuery, AbdRegisterProcess, AbdWrite
from repro.registers.base import OperationRecord, RegisterAlgorithm
from repro.registers.registry import (
    available_algorithms,
    register_algorithm,
    unregister_algorithm,
)


class AbdNoWriteBackProcess(AbdRegisterProcess):
    """ABD with the read write-back phase removed (new/old inversions possible)."""

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        self.read_rsn += 1
        rsn = self.read_rsn

        def finish(query_phase) -> None:
            best_seq, best_value = query_phase.result()
            self._adopt(best_seq, best_value)
            self.close_phases("read")
            done(best_value)  # BUG: no write-back before returning

        self.start_phase(
            "read",
            tag=rsn,
            message=AbdReadQuery(rsn=rsn),
            aggregator=HIGHEST_PAIR,
            self_reply=(self.seq, self.value),
            on_quorum=finish,
            label=("ABD(no-writeback) read#%d query quorum", rsn),
        )


class AbdSloppyWriteProcess(AbdRegisterProcess):
    """ABD whose writer acknowledges without a majority (stale reads possible)."""

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        self.write_seq += 1
        seq = self.write_seq
        self._adopt(seq, record.value)
        self.send(self.other_process_ids(), AbdWrite(seq=seq, value=record.value))
        done()  # BUG: completes before any replica acknowledged
        # Late AbdWriteAck replies find no open "write" phase and are
        # dropped by the engine's stale-phase guard — harmless.


class TwoBitNoLine9WaitProcess(TwoBitRegisterProcess):
    """The two-bit read without line 9's wait (new/old inversions possible)."""

    def _read_value(self, done: Callable[[Any], None]) -> None:
        st = self.state
        done(st.history[st.w_sync[self.pid]])  # BUG: line 8, then line 10 at once


class _EveryForwardBare:
    """A process's transport whose sends take every destination of a
    line-15 forward (the only send that names ``holders``) for a holder."""

    def __init__(self, network: Any) -> None:
        self._network = network

    def __getattr__(self, name: str) -> Any:
        return getattr(self._network, name)

    def send(self, src: int, dst: Any, message: Any, holders: Any = ()) -> None:
        self._network.send(src, dst, message, dst if holders else ())  # BUG: all bare


class TwoBitBareForwardProcess(TwoBitRegisterProcess):
    """The two-bit process whose line-15 forwards carry no value to anyone."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.network = _EveryForwardBare(self.network)


#: Mutation name -> algorithm factory (kept out of the default registry).
MUTATIONS: Dict[str, RegisterAlgorithm] = {
    "abd-no-writeback": RegisterAlgorithm(
        name="abd-no-writeback",
        description="FAULTY (explorer mutation test): ABD without read write-back",
        process_factory=AbdNoWriteBackProcess,
        supports_multi_writer=False,
        bounded_control_bits=False,
    ),
    "abd-sloppy-write": RegisterAlgorithm(
        name="abd-sloppy-write",
        description="FAULTY (explorer mutation test): ABD write returns without a quorum",
        process_factory=AbdSloppyWriteProcess,
        supports_multi_writer=False,
        bounded_control_bits=False,
    ),
    "two-bit-no-line9-wait": RegisterAlgorithm(
        name="two-bit-no-line9-wait",
        description="FAULTY (explorer mutation test): two-bit read without line 9's wait",
        process_factory=TwoBitNoLine9WaitProcess,
        supports_multi_writer=False,
        bounded_control_bits=True,
    ),
    "two-bit-bare-forward": RegisterAlgorithm(
        name="two-bit-bare-forward",
        description="FAULTY (explorer mutation test): two-bit forwards carry no value",
        process_factory=TwoBitBareForwardProcess,
        supports_multi_writer=False,
        bounded_control_bits=True,
    ),
    "mmr-cas-skip-aux": RegisterAlgorithm(
        name="mmr-cas-skip-aux",
        description=(
            "FAULTY (explorer mutation test): MMR consensus decides without the AUX quorum"
        ),
        process_factory=SkipAuxConsensusProcess,
        supports_multi_writer=True,
        bounded_control_bits=False,
        spec="smr",
    ),
}


def available_mutations() -> list[str]:
    """Names of the registered mutants (sorted)."""
    return sorted(MUTATIONS)


@contextmanager
def mutant_registered(name: str) -> Iterator[None]:
    """Hold mutant ``name`` in the algorithm registry for the ``with`` block.

    Specs carry algorithms by registry name, so a mutant must be registered
    while a store deploys and checks it.  Any other name, or a mutant that
    is already registered, is left as it is.
    """
    if name not in MUTATIONS or name in available_algorithms():
        yield
        return
    register_algorithm(MUTATIONS[name])
    try:
        yield
    finally:
        unregister_algorithm(name)
