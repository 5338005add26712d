"""Two-bit process variants for tests and ablations, registered by name for a scope.

A variant process (the writer's local read, a ``t`` override, an
instrumented subclass) is not an option of any deployment: it is an
algorithm in the registry, which ``create_register`` and ``deploy_register``
resolve by name like any other.  A module registers the variants it runs for
its own scope::

    @pytest.fixture(scope="module", autouse=True)
    def _variants_registered():
        with registered(WRITER_FAST_READ):
            yield
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.process import TwoBitRegisterProcess
from repro.registers import registry
from repro.registers.base import RegisterAlgorithm


def two_bit_variant(
    name: str, process_class: type = TwoBitRegisterProcess, **options
) -> RegisterAlgorithm:
    """``process_class`` with ``options`` overriding what the deployment passes."""

    def factory(**kwargs) -> TwoBitRegisterProcess:
        return process_class(**{**kwargs, **options})

    return RegisterAlgorithm(
        name=name,
        description=f"two-bit, {process_class.__name__} {options} (test and ablation only)",
        process_factory=factory,
        bounded_control_bits=True,
    )


#: Figure 1, comment on line 5: the writer returns its own last value.
WRITER_FAST_READ = two_bit_variant("two-bit-writer-fast-read", writer_fast_read=True)


@contextmanager
def registered(*variants: RegisterAlgorithm) -> Iterator[None]:
    """Register ``variants`` by name for the ``with`` block, then forget them."""
    for variant in variants:
        registry.register_algorithm(variant)
    try:
        yield
    finally:
        for variant in variants:
            registry.unregister_algorithm(variant.name)
