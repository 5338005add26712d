"""Tripwire for the external ledger (``benchmarks/e2e/trace.py``).

The benchmark records spans by patching the functions named in ``SITES``
from outside, and *skips* a name it cannot find — so renaming or removing one
of them would quietly move that layer's time into its caller instead of
failing anything.  This test fails instead.
"""

import importlib

import pytest

from benchmarks.e2e.trace import INVOKE_METHODS, SITES


@pytest.mark.parametrize(
    "module_name, class_name, attribute",
    [site[:3] for site in SITES],
    ids=[".".join(part for part in site[:3] if part) for site in SITES],
)
def test_every_span_site_still_resolves(module_name, class_name, attribute):
    assert module_name.startswith("repro."), "span sites live under src/repro"
    module = importlib.import_module(module_name)
    owner = module if class_name is None else getattr(module, class_name, None)
    assert owner is not None, f"{module_name}.{class_name} is gone"
    # The ledger looks the name up in the owner's own namespace (an inherited
    # method would be patched on the wrong class), and only wraps callables.
    assert attribute in vars(owner), f"{owner!r} no longer defines {attribute!r}"
    assert callable(vars(owner)[attribute])


def test_algorithm_entry_points_still_resolve():
    """The sites found by class rather than by name: ``on_message`` per
    algorithm, ``invoke_*`` on the shared base, guard actions via ``add_guard``."""
    from repro.core.process import TwoBitRegisterProcess
    from repro.registers.base import RegisterProcess
    from repro.transport.runtime import ProcessBase

    assert "on_message" in vars(TwoBitRegisterProcess)
    for attribute in INVOKE_METHODS:
        assert callable(vars(RegisterProcess).get(attribute))
    assert callable(vars(ProcessBase).get("add_guard"))
