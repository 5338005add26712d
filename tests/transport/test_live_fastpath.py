"""Live wire integration: the handshake's refusal, transport stats, consensus bills.

These tests spawn real replica processes on loopback (slow, seconds each).
They pin what the one-codec wire promises:

* the JSON ``hello`` handshake compares schema signatures and **refuses** a
  mismatch — the error names both signatures, the server keeps serving, and
  a replica whose own peer dial is refused exits loudly instead of queueing
  for a link that will never come up (there is no second codec to fall back
  to; frame-for-frame JSON / binary equivalence is property-tested in
  ``test_codec_binary.py``);
* per-connection transport counters ride the metrics snapshot;
* the same seeded consensus stream decides identically on both backends.
"""

import asyncio
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.transport.codec_binary import schema_signature
from repro.transport.framing import read_frame, write_frame
from repro.transport.live import LiveClient, LiveCluster
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_uniform


async def _hello(port, **hello):
    """Dial ``port`` by hand; returns the acceptor's ``hello_ack``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        write_frame(writer, {"kind": "hello", "role": "client", **hello})
        await writer.drain()
        return await asyncio.wait_for(read_frame(reader), timeout=10.0)
    finally:
        writer.close()


async def _one_write(client):
    future = asyncio.get_running_loop().create_future()
    client.pending[1] = SimpleNamespace(future=future)
    client.conns[0].send({"kind": "invoke", "op_id": 1, "op": "write", "key": "k", "value": "x1"})
    return await asyncio.wait_for(future, timeout=20.0)


class TestHandshakeRefusal:
    def test_a_wrong_or_missing_signature_is_refused_and_the_server_survives(self, monkeypatch):
        from repro.transport import live

        async def scenario():
            cluster = LiveCluster(3, "abd-mwmr", "v0")
            try:
                ports = await cluster.start()
                acks = [await _hello(ports[0], sig="0" * 16), await _hello(ports[0])]
                # LiveClient.connect, against a server built from another registry.
                monkeypatch.setattr(live, "schema_signature", lambda: "f" * 16)
                with pytest.raises(RuntimeError) as refused:
                    await LiveClient().connect(ports)
                monkeypatch.undo()
                client = LiveClient()  # the next, correct dialer is served
                try:
                    await client.connect(ports)
                    await client.wire_peers(ports)
                    client.start_readers()
                    frame = await _one_write(client)
                finally:
                    await client.close(send_shutdown=True)
                return acks, str(refused.value), frame
            finally:
                await cluster.stop()

        acks, refused, frame = asyncio.run(scenario())
        mine = schema_signature()
        for ack, offered in zip(acks, ("0" * 16, None)):
            assert ack["kind"] == "hello_ack" and ack["ok"] is False
            assert repr(offered) in ack["reason"] and repr(mine) in ack["reason"]
        assert "handshake refused" in refused
        assert repr("f" * 16) in refused and repr(mine) in refused
        assert frame["ok"] is True

    def test_a_refused_peer_dial_fails_the_replica_loudly(self):
        """Replica 0 is told its peers live at a port that refuses every
        ``hello``: its first protocol send must end the process with a
        non-zero status, not park messages in a queue nothing drains."""

        async def refuse(reader, writer):
            await read_frame(reader)
            write_frame(writer, {"kind": "hello_ack", "ok": False, "reason": "not your peer"})
            await writer.drain()
            writer.close()

        async def scenario():
            refuser = await asyncio.start_server(refuse, "127.0.0.1", 0)
            bad_port = refuser.sockets[0].getsockname()[1]
            cluster = LiveCluster(3, "abd-mwmr", "v0")
            try:
                ports = await cluster.start()
                client = LiveClient()
                await client.connect(ports)
                async with refuser:
                    await client.wire_peers({0: ports[0], 1: bad_port, 2: bad_port})
                    client.conns[0].send(
                        {"kind": "invoke", "op_id": 1, "op": "write", "key": "k", "value": "x"}
                    )
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, cluster.servers[0].join, 15.0)
                exitcode = cluster.servers[0].exitcode
                await client.close(send_shutdown=True)
                return exitcode
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) == 1  # an uncaught RuntimeError, traceback on stderr


class TestLiveMetricsSnapshot:
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
                          "batches_in", "batches_out", "frames_dropped", "label", "worker"):
                assert field in row
            assert row["bytes_out"] > 0 and row["frames_out"] > 0
        replica_rows = transport["replica_connections"]
        assert set(replica_rows) == {"0", "1", "2"}
        assert all(rows for rows in replica_rows.values())


class TestCrossBackendConsensus:
    """The same seeded consensus op stream over the simulator and live sockets.

    One op in flight (``batch_size=1``) and, on the sim side, FIFO links
    (``FixedDelay`` — per-link TCP order is what the live transport
    guarantees).  Operation results and both Wing–Gong verdicts must agree
    on every schedule.  The message bill is schedule-free only where no
    owner's yield races the instance it unblocks — and, for the AUX count,
    where no AUX overtakes the estimate it answers (sockets let it) — so it
    is compared per type: EST and DECIDE exactly and the AUX per command
    within its two schedules on the rotating workload, by what a decided
    slot costs on the mixed one.
    """

    N = 3
    BROADCAST = N * (N - 1)

    @staticmethod
    def _run_both(spec):
        sim = run_kv_workload(spec)
        live = run_kv_workload(spec.with_(transport="live"))
        ops = spec.num_ops
        assert sim.finished_cleanly and live.finished_cleanly
        assert len(sim.completed_ops()) == ops and live.completed == ops

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
        # The simulator stops at the last completion; let the last DECIDE
        # relays go out, as the live replicas' do before they are asked.
        sim.store.settle()
        return sim.store, live.metrics["messages"]

    @staticmethod
    def _rotating(num_ops):
        """No writes, so every key's commands rotate over the replicas in
        slot order: no slot is ever a gap, each command is one instance of
        one round, and no message is a coin share."""
        from repro.sim.delays import FixedDelay
        from repro.workloads.scenarios import consensus_smoke

        return consensus_smoke(num_ops=num_ops).with_(
            batch_size=1,
            delay_model=FixedDelay(1.0),
            op_mix=(("read", 0.40), ("cas", 0.35), ("tas", 0.25)),
        )

    def test_rotating_commands_cost_the_same_on_both_backends_but_for_overtaking_auxes(self):
        """A command is the proposer's EST, the two joiners' AUX (each vouches
        for its echo) and everyone's DECIDE (the proposer's stands for its
        AUX): 2 n(n-1) messages on the simulator's unit delays.  Sockets keep
        per-link order but not the triangle inequality: a joiner that hears
        the other joiner's AUX before the proposer's EST counts it as an
        estimate too, decides in its first step and its ``DECIDE`` stands for
        its own AUX (``test_slot_economy`` pins that schedule on the simulator:
        ten messages).  So the live AUX count is *not* the simulator's — the
        cross-backend equality the bill had when every message was sent is
        gone; the EST and DECIDE counts, which no schedule moves, stay equal."""
        store, live = self._run_both(self._rotating(60))
        per_type = {"CONS_EST": 120, "CONS_AUX": 240, "CONS_DECIDE": 60 * self.BROADCAST}
        assert store.stats.by_type == per_type
        assert store.stats.messages_sent == 60 * 2 * self.BROADCAST
        live_aux = live["by_type"]["CONS_AUX"]
        assert live["by_type"] == {**per_type, "CONS_AUX": live_aux}
        assert 120 <= live_aux <= 240 and live_aux % (self.N - 1) == 0
        assert live["total"] == 120 + live_aux + 360

    def test_every_live_command_is_one_est_one_or_two_aux_and_three_decide_broadcasts(self):
        """The live bill command by command: the replicas' counters are read
        once every replica has decided the command's slot (``DECIDE`` is the
        last thing a replica sends for a slot), before the next is issued."""
        from repro.transport.live import live_session
        from repro.workloads.kv import iter_kv_operations

        spec = self._rotating(30)

        async def bills():
            seen, totals = Counter(), []
            async with live_session(spec.replication, spec.algorithm, spec.initial_value) as (
                client,
                _ports,
            ):
                for done, op in enumerate(iter_kv_operations(spec), 1):
                    assert await client.settle([client.fire(op.kind, op.key, op.value)], 20.0)
                    for _attempt in range(200):
                        client.stats_replies.clear()
                        await client.drain_stats()
                        now = Counter()
                        for reply in client.stats_replies.values():
                            now.update(reply["by_type"])
                        if now["CONS_DECIDE"] == done * self.BROADCAST:
                            break
                    totals.append(now - seen)
                    seen = now
            return totals

        per_command = asyncio.run(bills())
        assert len(per_command) == spec.num_ops
        for bill in per_command:
            assert bill["CONS_AUX"] in (2, 4)
            assert bill == {"CONS_EST": 2, "CONS_AUX": bill["CONS_AUX"], "CONS_DECIDE": 6}

    def test_sim_and_live_consensus_decide_identically(self):
        """The ``consensus_smoke`` mix (reads, writes, cas, tas): writes pin
        to replica 0, so other owners' slots become gaps.  Whether a quorum
        outruns an idle owner's yield — and spends a few 0-estimates on its
        slot before the yield lands — is up to the schedule, so the EST/AUX
        totals may differ; what a decided slot costs in DECIDEs may not."""
        from repro.sim.delays import FixedDelay
        from repro.workloads.scenarios import consensus_smoke

        spec = consensus_smoke(num_ops=60).with_(
            batch_size=1, delay_model=FixedDelay(1.0)
        )
        store, live = self._run_both(spec)
        slots = sum(
            len(store.register_for(key).processes[0].decided) for key in store.deployed_keys
        )
        assert slots > 60  # the schedule does leave gaps
        assert store.stats.by_type["CONS_DECIDE"] == slots * self.BROADCAST
        assert "CONS_COIN" not in store.stats.by_type  # no instance reached round 2
        assert sum(live["by_type"].values()) == live["total"]
        assert live["by_type"]["CONS_DECIDE"] % self.BROADCAST == 0
        assert live["by_type"]["CONS_DECIDE"] >= 60 * self.BROADCAST
