#!/usr/bin/env python3
"""A sharded multi-key store built from the paper's registers.

The paper gives us one atomic register; this demo scales that building block
out to a keyed store:

1. build a 4-shard store (3 replicas per shard, ABD registers per key);
2. use the blocking ``put``/``get`` facade like a plain dict;
3. submit a 200-operation mixed batch and complete it with ONE event-loop
   run — independent keys overlap in virtual time (the batched hot path);
4. crash a replica on every shard and keep serving from the majorities;
5. verify that every key's history is linearizable, after the fact.

Run it with::

    python examples/kv_store_demo.py
"""

from __future__ import annotations

import repro
from repro.analysis.report import format_table
from repro.sim.delays import UniformDelay


def main() -> None:
    # ------------------------------------------------------------------ build
    store = repro.create_store(
        num_shards=4,
        replication=3,
        algorithm="abd",
        delay_model=UniformDelay(0.2, 1.0, seed=42),
    )
    print(
        f"built a store: {store.config.num_shards} shards x "
        f"{store.config.replication} replicas, '{store.config.algorithm}' register per key"
    )

    # ------------------------------------------------------- blocking facade
    store.put("user:1", "alice")
    store.put("user:2", "bob")
    print(f"user:1 -> {store.get('user:1')!r}   (shard {store.placement('user:1').shard})")
    print(f"user:2 -> {store.get('user:2')!r}   (shard {store.placement('user:2').shard})")

    # ------------------------------------------------------- batched driving
    # 100 puts + 100 gets over 20 keys, submitted up front; one drive() call
    # runs the shared event loop until all of them complete.
    serial_time = store.simulator.now
    ops = []
    for i in range(100):
        key = f"item:{i % 20}"
        ops.append(store.submit_put(key, f"{key}=v{i // 20 + 1}"))
        ops.append(store.submit_get(f"item:{(i + 7) % 20}"))
    store.drive()
    batch_span = store.simulator.now - serial_time
    mean_latency = sum(op.latency for op in ops) / len(ops)
    print(
        f"\nbatched 200 mixed operations: makespan {batch_span:.1f} time units "
        f"(mean op latency {mean_latency:.1f} — the batch costs barely more than "
        f"{batch_span / mean_latency:.0f} serial operations' worth of time)"
    )

    # ------------------------------------------------------------- crashes
    for shard in range(4):
        store.crash_server(shard, 1)
    print("crashed replica 1 of every shard (within each shard's minority budget) ...")
    store.put("user:1", "alice-v2")
    print(f"user:1 -> {store.get('user:1')!r}  (still served by the majorities)")

    # ---------------------------------------------------------- verification
    store.settle()
    report = store.check_atomicity()
    stats = store.stats
    rows = [
        ["keys deployed", len(store.deployed_keys)],
        ["operations submitted", len(store.ops)],
        ["operations completed", len(store.completed_ops())],
        ["messages sent (all shards)", stats.messages_sent],
        ["per-key histories checked", report.keys_checked],
        ["all keys linearizable", "yes" if report.ok else "NO"],
    ]
    print()
    print(format_table(["metric", "value"], rows, title="store run summary"))


if __name__ == "__main__":
    main()
