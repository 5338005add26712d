"""Benchmarks: the performance benchmark and two scripts for what it does not run.

Performance is ``BENCHMARK.json`` + ``benchmarks/e2e``; ``bench_parallel``
(``workers=2``) and ``bench_coalescing`` (``FixedDelay``) measure the two
things no e2e workload runs.  ``variants`` holds the two-bit process
variants that tests register by name for their own scope.

The paper's evaluation (Table 1, Theorem 2's exact counts, the ablations of
Sections 3 and 5) is not here: it is tier-1's ``tests/paper/``, and ``repro
table1``, ``repro messages`` and ``repro bits`` print its tables.
"""
