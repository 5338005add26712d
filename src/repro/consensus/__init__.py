"""Consensus-backed replicated objects (MMR binary consensus + slot SMR)."""

from repro.consensus.mmr import (
    COIN_PREFIX,
    CONSENSUS_ALGORITHMS,
    ConsAux,
    ConsCoin,
    ConsDecide,
    ConsEst,
    ConsensusObjectProcess,
    SkipAuxConsensusProcess,
    common_coin,
    consensus_invariants,
    replica_invariants,
)

__all__ = [
    "COIN_PREFIX",
    "CONSENSUS_ALGORITHMS",
    "ConsAux",
    "ConsCoin",
    "ConsDecide",
    "ConsEst",
    "ConsensusObjectProcess",
    "SkipAuxConsensusProcess",
    "common_coin",
    "consensus_invariants",
    "replica_invariants",
]
