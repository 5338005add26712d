"""Intentionally faulty register variants (mutation testing for the explorer).

A schedule explorer that only ever runs correct algorithms proves nothing
about its own detection power.  These mutants re-introduce two classic
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

``mmr-cas-skip-aux``
    MMR binary consensus without the AUX quorum: each replica decides the
    first estimate its bin_values delivers, skipping the round of AUX
    exchange (and the common-coin agreement it feeds).  Two replicas whose
    EST messages arrive in different orders decide **different values for
    the same slot** — an agreement violation that surfaces to the checker
    as a non-linearizable cas/read history (diverged replica state
    machines).

The mutants are *not* in the default algorithm registry: call
:func:`install_mutations` (idempotent) to register them, which is what
``repro explore --mutate <name>`` and the tests do.  They must never be
used outside explorer/checker validation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict

from repro.consensus.mmr import SkipAuxConsensusProcess
from repro.quorum.aggregators import MaxReply
from repro.registers.abd import AbdReadQuery, AbdRegisterProcess, AbdWrite
from repro.registers.base import OperationRecord, RegisterAlgorithm
from repro.registers.registry import available_algorithms, register_algorithm


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
            aggregator=MaxReply(key=itemgetter(0)),
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


def install_mutations() -> None:
    """Register every mutant in the algorithm registry (idempotent).

    Specs carry algorithms by registry name, so a mutant must be registered
    before a store spec can deploy it; the explorer and the tests call this
    on demand rather than polluting the default registry at import time.
    """
    for name, algorithm in MUTATIONS.items():
        if name in available_algorithms():
            continue
        register_algorithm(algorithm)
