"""Live fast-path integration: negotiation fallback, cross-codec equivalence.

These tests spawn real replica processes on loopback (slow, seconds each).
They pin the two protocol-level guarantees of the binary fast path:

* codec choice is **negotiated per connection** — a binary-preferring
  client against a JSON-only cluster degrades to the PR 8 wire and still
  completes operations;
* the codec is an **encoding, not a protocol change** — the same seeded
  spec run over the JSON wire (unbatched, the PR 8 path) and over the
  binary wire (batched) executes the identical operation set, exchanges
  the identical number of protocol messages, and passes the unmodified
  per-key Wing–Gong checker on both.
"""

import asyncio
from collections import Counter
from types import SimpleNamespace

from repro.transport.live import LiveClient, LiveCluster
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_uniform


async def _negotiated_write(server_codecs, client_pref):
    """Boot a cluster, connect one client, do one write; return outcomes."""
    cluster = LiveCluster(3, "abd-mwmr", "v0", server_codecs=server_codecs)
    try:
        ports = await cluster.start()
        client = LiveClient(codec=client_pref)
        try:
            await client.connect(ports)
            await client.wire_peers(ports)
            client.start_readers()
            future = asyncio.get_running_loop().create_future()
            client.pending[1] = SimpleNamespace(future=future)
            client.conns[0].send(
                {"kind": "invoke", "op_id": 1, "op": "write", "key": "k", "value": "x1"}
            )
            frame = await asyncio.wait_for(future, timeout=20.0)
            return client.codec_name, frame
        finally:
            await client.close(send_shutdown=True)
    finally:
        await cluster.stop()


class TestCodecNegotiation:
    def test_binary_client_falls_back_against_json_only_server(self):
        codec, frame = asyncio.run(_negotiated_write(("json",), "binary"))
        assert codec == "json"  # degraded, not broken
        assert frame["ok"] is True

    def test_binary_client_gets_binary_against_fastpath_server(self):
        codec, frame = asyncio.run(_negotiated_write(("binary", "json"), "binary"))
        assert codec == "binary"
        assert frame["ok"] is True


class TestCrossCodecEquivalence:
    def test_json_and_binary_runs_match_op_stream_and_verdict(self):
        """PR 8 wire vs fast path: same ops, same message bill, both clean."""
        spec = kv_uniform(num_keys=4, num_ops=40, replication=3, seed=23).with_(
            transport="live"
        )
        json_result = run_kv_workload(spec.with_(codec="json", write_batching=False))
        binary_result = run_kv_workload(spec.with_(codec="binary", write_batching=True))

        def op_stream(result):
            ops = Counter()
            for key, history in result.histories().items():
                for record in history.operations:
                    value = record.value if record.is_write else None
                    ops[(key, record.is_write, value)] += 1
            return ops

        for result in (json_result, binary_result):
            assert result.finished_cleanly
            assert result.completed == 40 and result.failed == 0
            assert result.check_linearizability().ok

        assert op_stream(json_result) == op_stream(binary_result)
        # Theorem-2 message counts are codec-independent: the wire encodes
        # the same protocol messages, it never adds or removes any.
        assert json_result.total_messages() == binary_result.total_messages()

        json_transport = json_result.metrics["transport"]
        binary_transport = binary_result.metrics["transport"]
        assert json_transport["codec"] == "json" and not json_transport["batching"]
        assert binary_transport["codec"] == "binary" and binary_transport["batching"]
        # The fast path must actually be leaner on the wire: fewer client
        # bytes per operation and more than one frame per flush.
        assert (
            binary_transport["client_bytes_per_op"]
            < json_transport["client_bytes_per_op"]
        )
        assert binary_transport["frames_per_flush"] > 1.0
        assert json_transport["frames_per_flush"] == 1.0

    def test_transport_stats_land_in_the_metrics_snapshot(self):
        """Observability: per-connection counters ride the metrics dict."""
        spec = kv_uniform(num_keys=4, num_ops=30, replication=3, seed=5).with_(
            transport="live"
        )
        result = run_kv_workload(spec)
        transport = result.metrics["transport"]
        client_rows = transport["client_connections"]
        assert len(client_rows) == 3  # one connection per replica
        for row in client_rows:
            for field in ("bytes_in", "bytes_out", "frames_in", "frames_out",
                          "batches_in", "batches_out", "label", "codec"):
                assert field in row
            assert row["bytes_out"] > 0 and row["frames_out"] > 0
        replica_rows = transport["replica_connections"]
        assert set(replica_rows) == {"0", "1", "2"}
        assert all(rows for rows in replica_rows.values())


class TestCrossBackendConsensus:
    def test_sim_and_live_consensus_decide_identically(self):
        """The same seeded consensus op stream over sim and live sockets.

        Run the ``consensus_smoke`` mix (reads, writes, cas, tas) over MMR
        consensus on both backends under conditions where the message bill
        is deterministic: one op in flight (``batch_size=1``) and, on the
        sim side, FIFO links (``FixedDelay`` — per-link TCP order is what
        the live transport guarantees).  Every operation must produce the
        identical result, both histories must pass the SMR-spec checker,
        and the backends must exchange exactly the same number of protocol
        messages (EST/AUX/COIN/DECIDE rounds are schedule-independent in
        this regime).
        """
        from repro.sim.delays import FixedDelay
        from repro.workloads.scenarios import consensus_smoke

        spec = consensus_smoke(num_ops=60).with_(
            batch_size=1, delay_model=FixedDelay(1.0)
        )
        sim = run_kv_workload(spec)
        live = run_kv_workload(spec.with_(transport="live"))

        assert sim.finished_cleanly and live.finished_cleanly
        assert len(sim.completed_ops()) == 60 and live.completed == 60

        def op_results(histories):
            return {
                key: [
                    (record.kind.value, record.value, record.result)
                    for record in histories[key].operations
                ]
                for key in histories
            }

        sim_hist, live_hist = sim.store.histories(), live.histories()
        assert set(sim_hist) == set(live_hist)
        assert op_results(sim_hist) == op_results(live_hist)
        assert sim.store.check_linearizability(swmr_fast_path=False).ok
        assert live.check_linearizability(swmr_fast_path=False).ok
        assert sim.total_messages() == live.total_messages()
