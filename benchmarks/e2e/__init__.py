"""One benchmark for the whole stack: seven workloads, one ledger, one yardstick.

``python -m benchmarks.e2e run`` measures the simulator, the consensus
layer, the checker and the live loopback transport end to end and, with
``--trace``, layer by layer — every layer timed from outside, by wrappers
this package installs around the public functions of ``src/repro``.  See
``README.md`` in this directory for the workloads, the metrics and the
predictions; ``BENCHMARK.json`` at the repository root is the contract a
later change is held to.
"""
