"""Benchmark harness regenerating every table/figure of the paper's evaluation.

The paper's evaluation is Table 1 (six rows); each row has a dedicated
benchmark module, plus one for the exact message counts of Theorem 2 and
three ablations for the design discussion in Sections 3 and 5:

==============================  ==========================================================
module                          what it regenerates
==============================  ==========================================================
``bench_table1_messages``       Table 1 lines 1-2 — messages per write / per read
``bench_table1_bits``           Table 1 line 3 — control bits per message
``bench_table1_memory``         Table 1 line 4 — per-process local memory
``bench_table1_time``           Table 1 lines 5-6 — operation latency in delta units
``bench_theorem2_counts``       Theorem 2 — exact counts (2(n-1) reads, <= n(n-1) writes)
``bench_ablation_read_dominated``  Section 5 — read-dominated applications
``bench_ablation_crashes``      crash resilience up to t = (n-1)//2
``bench_ablation_asynchrony``   latency under jittered / heavy-tailed delays
``bench_ablation_design_choices``  writer local-read shortcut; quorum size vs crash tolerance
==============================  ==========================================================

Every module prints the paper's value next to the measured value, so
``pytest benchmarks/bench_table1_*.py benchmarks/bench_theorem2_counts.py
benchmarks/bench_ablation_*.py --benchmark-disable -s`` is the reproduction
report (CI runs it).  Performance is ``BENCHMARK.json`` + ``benchmarks/e2e``;
``bench_parallel`` (``workers=2``) and ``bench_coalescing`` (``FixedDelay``)
measure the two things no e2e workload runs.
"""
