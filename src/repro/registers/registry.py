"""Name → algorithm-factory registry.

The examples, workloads and benchmarks refer to algorithms by short names
(``"two-bit"``, ``"abd"``, ...); this module is the single place those names
are resolved.  Registering here is all a new algorithm needs to do to become
visible to the whole harness.
"""

from __future__ import annotations

from typing import Dict

from repro.consensus.mmr import CONSENSUS_ALGORITHMS
from repro.core.process import TWO_BIT_ALGORITHM
from repro.registers.abd import ABD_ALGORITHM
from repro.registers.abd_mwmr import ABD_MWMR_ALGORITHM
from repro.registers.base import RegisterAlgorithm
from repro.registers.bounded import MODULO_ABD_ALGORITHM

_REGISTRY: Dict[str, RegisterAlgorithm] = {
    TWO_BIT_ALGORITHM.name: TWO_BIT_ALGORITHM,
    ABD_ALGORITHM.name: ABD_ALGORITHM,
    ABD_MWMR_ALGORITHM.name: ABD_MWMR_ALGORITHM,
    MODULO_ABD_ALGORITHM.name: MODULO_ABD_ALGORITHM,
}
for _consensus_algorithm in CONSENSUS_ALGORITHMS:
    _REGISTRY[_consensus_algorithm.name] = _consensus_algorithm
del _consensus_algorithm


def available_algorithms() -> list[str]:
    """Names of all registered register algorithms (sorted)."""
    return sorted(_REGISTRY)


def get_algorithm(name: str) -> RegisterAlgorithm:
    """Return the factory registered under ``name``.

    Raises ``KeyError`` with the list of known names if the name is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown register algorithm {name!r}; available: {available_algorithms()}"
        ) from None


def register_algorithm(algorithm: RegisterAlgorithm, overwrite: bool = False) -> None:
    """Register a new algorithm (used by downstream extensions and tests)."""
    if not overwrite and algorithm.name in _REGISTRY:
        raise ValueError(f"algorithm {algorithm.name!r} is already registered")
    _REGISTRY[algorithm.name] = algorithm


def unregister_algorithm(name: str) -> None:
    """Forget the algorithm registered under ``name`` (a test's variant, say)."""
    del _REGISTRY[name]
