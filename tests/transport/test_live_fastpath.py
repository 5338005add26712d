"""Live wire integration: the handshake's refusal, boot and wiring failures,
transport stats, consensus bills.

These tests spawn real replica processes on loopback (slow, seconds each).
They pin what the one-codec wire promises:

* the ``hello`` handshake (an envelope-0 frame of the one codec) compares
  schema signatures and **refuses** a mismatch — the error names both
  signatures and the server keeps serving;
* every failure to come up ends in bounded time with its cause: a replica
  that cannot boot fails ``LiveCluster.start`` by name and leaves no
  process, a replica whose peer dial is refused fails ``wire_peers`` with
  the peer and the reason and exits non-zero, and a replica that does not
  answer a stats request fails ``drain_stats`` by name (there is no second
  codec to fall back to; frame-for-frame JSON / binary equivalence is
  property-tested in ``test_codec_binary.py``);
* one driver per replica queues and issues the invokes: a refused one is
  answered with the refusal's text, and nothing of an answered one is kept;
* a fired crash point halts its replica: it answers what it owes and every
  later invoke as crashed, bills what reaches it as dropped and sends
  nothing, and ``settle`` counts an operation settled only when it
  completed or met a crashed replica;
* per-connection transport counters ride the metrics snapshot;
* the same seeded consensus stream decides identically on both backends.
"""

import asyncio
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.transport.codec_binary import schema_signature
from repro.transport.framing import HEADER, FrameDecoder
from repro.transport.live import Connection, LiveClient, LiveCluster
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_uniform


def _frame(payload):
    """One length-prefixed frame of the wire codec, written by hand."""
    body = Connection.codec.encode(payload)
    return HEADER.pack(len(body)) + body


async def _read_frame(reader):
    """Read one whole frame by hand and decode it."""
    decoder = FrameDecoder()
    while True:
        chunk = await reader.read(4096)
        assert chunk, "the stream closed before a whole frame arrived"
        bodies = decoder.feed(chunk)
        if bodies:
            return Connection.codec.decode(bodies[0])


async def _hello(port, **hello):
    """Dial ``port`` by hand; returns the acceptor's ``hello_ack``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(_frame({"kind": "hello", "role": "client", **hello}))
        await writer.drain()
        return await asyncio.wait_for(_read_frame(reader), timeout=10.0)
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
        """The replicas are told their peers live at a port that refuses every
        ``hello``: ``wire_peers`` must raise in bounded time, naming the
        refusing peer and its reason, and replica 0 must exit non-zero rather
        than serve a protocol that would stall on the missing link."""

        async def refuse(reader, writer):
            await _read_frame(reader)
            writer.write(_frame({"kind": "hello_ack", "ok": False, "reason": "not your peer"}))
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
                    began = time.monotonic()
                    with pytest.raises(RuntimeError) as failed:
                        await client.wire_peers({0: ports[0], 1: bad_port, 2: bad_port})
                    elapsed = time.monotonic() - began
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, cluster.servers[0].join, 15.0)
                exitcode = cluster.servers[0].exitcode
                await client.close(send_shutdown=True)
                return str(failed.value), elapsed, exitcode
            finally:
                await cluster.stop()

        message, elapsed, exitcode = asyncio.run(scenario())
        assert "replica 0: peer->1: handshake refused: not your peer" in message
        assert elapsed < 10.0
        assert exitcode == 1  # an uncaught RuntimeError, traceback on stderr


class TestBootAndStatsFailures:
    def test_a_replica_that_cannot_boot_fails_the_start_and_leaves_no_process(self):
        cluster = LiveCluster(3, "no-such-algorithm", "v0")
        began = time.monotonic()
        with pytest.raises(RuntimeError) as failed:
            asyncio.run(cluster.start())
        elapsed = time.monotonic() - began
        message = str(failed.value)
        assert elapsed < 20.0
        assert "died during cluster boot" in message and "__main__" in message
        assert "replica server(s) [" in message
        for server in cluster.servers:
            server.join(5.0)
            assert not server.is_alive()

    def test_the_boot_error_names_every_replica_with_its_traceback(self):
        cluster = LiveCluster(3, "no-such-algorithm", "v0")
        with pytest.raises(RuntimeError) as failed:
            asyncio.run(cluster.start())
        message = str(failed.value)
        assert "replica server(s) [0, 1, 2] died during cluster boot" in message
        for replica in range(3):
            assert f"--- replica {replica} ---\nTraceback" in message
        assert "no-such-algorithm" in message
        assert all(server.exitcode is not None for server in cluster.servers)

    def test_a_silent_replica_fails_the_stats_drain_by_name(self):
        """Replica 1 completes the handshake but never answers ``stats``: the
        drain must not return a bill summed over the replicas that did."""

        def fake_replica(replica, answers):
            def on_hello(conn, _hello):
                def on_frame(conn, frame):
                    if answers and frame.get("kind") == "stats":
                        conn.send({"kind": "stats_reply", "replica": replica, "messages_sent": 7})

                return on_frame

            return lambda reader, writer: Connection.accept(reader, writer, "fake", on_hello)

        async def scenario():
            servers = [
                await asyncio.start_server(fake_replica(0, True), "127.0.0.1", 0),
                await asyncio.start_server(fake_replica(1, False), "127.0.0.1", 0),
            ]
            ports = {i: server.sockets[0].getsockname()[1] for i, server in enumerate(servers)}
            client = LiveClient()
            await client.connect(ports)
            try:
                began = time.monotonic()
                with pytest.raises(RuntimeError) as failed:
                    await client.drain_stats(timeout=0.5)
                return str(failed.value), time.monotonic() - began, dict(client.stats_replies)
            finally:
                await client.close(send_shutdown=False)
                for server in servers:
                    server.close()

        message, elapsed, replies = asyncio.run(scenario())
        assert "replica(s) [1] did not answer 'stats'" in message
        assert 0.4 < elapsed < 5.0
        assert list(replies) == [0]

    def test_a_bill_that_never_settles_fails_the_drain_by_name(self, monkeypatch):
        """Every message lands somewhere, so one still in flight past the
        deadline is a fault: the drain raises with each replica's counters
        rather than return the bill it last read."""
        import itertools

        from repro.transport import live

        def reply(sent, delivered):
            return {"messages_sent": sent, "messages_delivered": delivered,
                    "messages_dropped_to_crashed": 0}

        async def drain_stats():
            return 0

        control = SimpleNamespace(
            drain_stats=drain_stats, stats_replies={0: reply(3, 2), 1: reply(2, 2)}
        )
        # Each clock read is 3 s later: the second drain is past the 5 s deadline.
        monkeypatch.setattr(live, "time", SimpleNamespace(monotonic=itertools.count(0, 3).__next__))
        with pytest.raises(RuntimeError) as failed:
            asyncio.run(live._drain_settled(control))
        assert str(failed.value) == (
            "the message bill did not settle within 5 s: 1 message(s) in flight; "
            "(sent, delivered, dropped) per replica: {0: (3, 2, 0), 1: (2, 2, 0)}"
        )


class TestHaltedReplica:
    @pytest.mark.parametrize(
        "algorithm, queued", [("two-bit", ("read", None)), ("mmr-cas", ("cas", [None, "x"]))]
    )
    def test_a_halted_replica_answers_and_bills_but_takes_no_step(self, algorithm, queued):
        """A fired point crashes each key's process and answers what it owes,
        the operation in progress first; after it an invoke is answered at
        once, a ``msg`` is billed as a drop with no process built for its
        key, nothing more is sent, and the stats answer says it crashed.
        The read in progress sent one message to each peer (two-bit's
        ``READ``, MMR's ``CONS_EST``)."""
        from repro.faults.plan import CrashPoint
        from repro.transport import live

        def invoke(op_id, op="read", value=None):
            return {"kind": "invoke", "op_id": op_id, "op": op, "key": "k", "value": value}

        async def main():
            server = live._ReplicaServer(2, 3, algorithm, None)
            peers = {0: [], 1: []}
            server.peer_conns = {
                pid: SimpleNamespace(send=frames.append, snapshot=dict)
                for pid, frames in peers.items()
            }
            answers = []
            client = SimpleNamespace(send=answers.append)
            server._on_frame(client, invoke(1))  # in progress: one message to each peer
            server._on_frame(client, invoke(2, *queued))  # queued behind it
            server._crash(CrashPoint(shard=0, replica=2, after_messages_sent=0))
            server._on_frame(client, invoke(3))
            server._on_frame(client, {"kind": "msg", "key": "fresh", "src": 0, "dst": 2, "msg": 0})
            server._on_frame(client, {"kind": "stats"})
            return server, peers, answers

        server, peers, answers = asyncio.run(main())
        assert [len(frames) for frames in peers.values()] == [1, 1]
        *results, stats = answers
        error = "replica 2 crashed: " + str(CrashPoint(shard=0, replica=2, after_messages_sent=0))
        assert results == [
            {"kind": "result", "op_id": op_id, "ok": False, "crashed": True, "error": error}
            for op_id in (1, 2, 3)
        ]
        assert list(server.keys) == ["k"] and server.keys["k"].process.crashed
        assert stats["crashed"] is True and stats["messages_sent"] == 2
        assert stats["messages_delivered"] == 0 and stats["messages_dropped_to_crashed"] == 1

    def test_a_crashed_sender_sends_nothing(self):
        """``LiveKey.send`` drops a crashed sender's send at entry, as
        ``Network.send`` does: once a hook crashed the sender mid-step (after
        a ``DECIDE``'s first copy), the step's next send (its next proposal)
        is neither billed nor shipped."""
        from repro.consensus.mmr import ConsDecide, ConsEst
        from repro.transport import live

        async def main():
            server = live._ReplicaServer(2, 3, "mmr-cas", None)
            peers = {0: [], 1: []}
            server.peer_conns = {
                pid: SimpleNamespace(send=frames.append) for pid, frames in peers.items()
            }
            key = server.live_key("k")
            server.add_send_hook(lambda _src, _dst, _message: key.process.crash())
            key.send(2, [0, 1], ConsDecide(0, 0))
            key.send(2, [0, 1], ConsEst(5, 0, 1, [2, "incr", 1]))
            return server, peers

        server, peers = asyncio.run(main())
        assert [len(frames) for frames in peers.values()] == [1, 0]
        assert server.stats.messages_sent == 1


class TestReplicaDriver:
    def test_a_refused_invoke_is_answered_and_the_key_keeps_serving(self):
        """A write at a replica that is not the writer is answered ``ok:
        False`` with the refusal's text, and the read queued behind it is
        issued and answered: one ``READ`` to each peer, a value after one
        ``PROCEED``."""
        from repro.core.messages import PROCEED
        from repro.transport import live

        async def main():
            server = live._ReplicaServer(2, 3, "two-bit", "v0")
            peers = {0: [], 1: []}
            server.peer_conns = {
                pid: SimpleNamespace(send=frames.append) for pid, frames in peers.items()
            }
            answers = []
            client = SimpleNamespace(send=answers.append)
            for op_id, op in ((1, "write"), (2, "read")):
                invoke = {"kind": "invoke", "op_id": op_id, "op": op, "key": "k", "value": "v1"}
                server._on_frame(client, invoke)
            server._on_frame(client, {"kind": "msg", "key": "k", "src": 0, "dst": 2, "msg": PROCEED})
            return peers, answers

        peers, answers = asyncio.run(main())
        assert answers == [
            {
                "kind": "result", "op_id": 1, "ok": False,
                "error": "p2 is not the writer (writer is p0); this is a single-writer register",
            },
            {"kind": "result", "op_id": 2, "ok": True, "value": "v0"},
        ]
        assert [len(frames) for frames in peers.values()] == [1, 1]

    def test_a_consensus_invoke_at_a_register_replica_is_answered_refused(self):
        """A ``cas`` at a two-bit replica is answered ``ok: False`` with the
        refusal's text, not raised out of the frame handler, and the read
        queued behind it is issued and answered."""
        from repro.core.messages import PROCEED
        from repro.transport import live

        async def main():
            server = live._ReplicaServer(2, 3, "two-bit", "v0")
            peers = {0: [], 1: []}
            server.peer_conns = {
                pid: SimpleNamespace(send=frames.append) for pid, frames in peers.items()
            }
            answers = []
            client = SimpleNamespace(send=answers.append)
            for op_id, op, value in ((1, "cas", ["v0", "v1"]), (2, "read", None)):
                invoke = {"kind": "invoke", "op_id": op_id, "op": op, "key": "k", "value": value}
                server._on_frame(client, invoke)
            server._on_frame(client, {"kind": "msg", "key": "k", "src": 0, "dst": 2, "msg": PROCEED})
            return server, answers

        server, answers = asyncio.run(main())
        assert answers == [
            {
                "kind": "result", "op_id": 1, "ok": False,
                "error": "TwoBitRegisterProcess does not support cas operations",
            },
            {"kind": "result", "op_id": 2, "ok": True, "value": "v0"},
        ]
        assert server.driver.outstanding == 0

    def test_an_answered_invoke_leaves_nothing_on_the_replica(self):
        """The replica's driver queues and issues its clients' invokes but
        keeps none of them: once each is answered, its lanes are empty and
        no record, op-log row or list entry of them is left."""
        import gc

        from repro.core.messages import PROCEED
        from repro.registers.base import OperationRecord
        from repro.transport import live

        reads = 5

        async def main():
            server = live._ReplicaServer(2, 3, "two-bit", "v0")
            server.peer_conns = {pid: SimpleNamespace(send=lambda frame: None) for pid in (0, 1)}
            answers = []
            client = SimpleNamespace(send=answers.append)
            invokes = [("write", "v1")] + [("read", None)] * reads
            for op_id, (op, value) in enumerate(invokes):
                frame = {"kind": "invoke", "op_id": op_id, "op": op, "key": "kept", "value": value}
                server._on_frame(client, frame)
            for _ in range(reads):  # each completes the read in progress
                proceed = {"kind": "msg", "key": "kept", "src": 0, "dst": 2, "msg": PROCEED}
                server._on_frame(client, proceed)
            return server, answers

        server, answers = asyncio.run(main())
        assert [answer["op_id"] for answer in answers] == list(range(reads + 1))
        assert [answer["ok"] for answer in answers] == [False] + [True] * reads
        driver = server.driver
        assert driver.outstanding == 0
        assert [len(queue) for queue in driver._queues.values()] == [0]
        assert driver.ops == [] and driver.records == [] and len(driver.oplog) == 0
        gc.collect()
        kept = [o for o in gc.get_objects() if type(o) is OperationRecord and o.key == "kept"]
        assert kept == []


class TestGreetedAfterTheCrash:
    @pytest.mark.parametrize(
        "hello, told",
        [
            ({"role": "client"}, [{"kind": "result", "op_id": 7, "ok": False, "crashed": True}]),
            # A peer's message is billed as a drop, and nothing answers it.
            ({"role": "peer", "src": 1}, []),
        ],
    )
    def test_a_dialler_greeted_after_the_crash_point_fired(self, hello, told):
        """A halted replica acks a late dialler as any other and keeps the
        link open: a client's invoke is answered as crashed, a peer's
        ``msg`` is billed as a drop, and ``stats`` is still answered."""
        from repro.core.messages import READ
        from repro.faults.plan import CrashPoint
        from repro.transport import live

        sent = (
            {"kind": "invoke", "op_id": 7, "op": "read", "key": "k", "value": None}
            if hello["role"] == "client"
            else {"kind": "msg", "key": "k", "src": 1, "dst": 2, "msg": READ}
        )

        async def main():
            server = live._ReplicaServer(2, 3, "two-bit", None)
            listener = await asyncio.start_server(server.handle_connection, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            server._crash(CrashPoint(shard=0, replica=2, after_messages_sent=0))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_frame({"kind": "hello", "sig": schema_signature(), **hello}))
            writer.write(_frame(sent) + _frame({"kind": "stats"}))
            frames = []
            decoder = FrameDecoder()
            while not frames or frames[-1]["kind"] != "stats_reply":
                chunk = await asyncio.wait_for(reader.read(4096), timeout=5.0)
                assert chunk, f"the stream closed after {frames}"
                frames += [Connection.codec.decode(body) for body in decoder.feed(chunk)]
            writer.close()
            listener.close()
            await listener.wait_closed()
            return server, frames

        server, frames = asyncio.run(main())
        ack, *answers, stats = frames
        assert ack == {"kind": "hello_ack", "ok": True}
        assert [
            {name: answer[name] for name in ("kind", "op_id", "ok", "crashed")}
            for answer in answers
        ] == told
        assert all(answer["error"].startswith("replica 2 crashed: ") for answer in answers)
        assert stats["crashed"] is True and stats["messages_sent"] == 0
        assert stats["messages_dropped_to_crashed"] == (1 if sent["kind"] == "msg" else 0)
        assert server.keys == {}  # nothing after the halt built a process


class TestSettle:
    def test_only_a_completion_or_a_crashed_replica_settles_an_operation(self):
        """An error frame is a failure ``settle`` reports; a crashed replica's is not."""
        from repro.registers.base import OperationKind
        from repro.transport.live import WallClock

        async def settled(frame):
            client = LiveClient()
            client.clock = WallClock(asyncio.get_running_loop())
            client.replicas = 1
            client.conns = {0: SimpleNamespace(send=lambda payload: None)}
            pending = client.fire(OperationKind.WRITE, "k", "v1")
            pending.future.set_result(frame)  # as the read loop does
            await asyncio.sleep(0)
            return await client.settle([pending], 1.0)

        assert asyncio.run(settled({"ok": True, "value": None}))
        assert asyncio.run(settled({"ok": False, "crashed": True, "error": "replica 0 crashed"}))
        assert not asyncio.run(settled({"ok": False, "error": "wrong writer"}))


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
