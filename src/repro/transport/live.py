"""Live transport backend: asyncio TCP sockets on a loopback cluster.

The same register algorithms that run on the virtual-time simulator run
here over real sockets, unmodified:

* each **replica server** is its own OS process (``multiprocessing`` spawn)
  running an asyncio event loop; it reports its listen port over a pipe,
  dials every peer before it acks the port map, and creates each key's
  :class:`~repro.registers.base.RegisterProcess` lazily on first touch,
  like the simulated store's subnets, behind a :class:`LiveKey` (the key's
  transport).  One :class:`~repro.exec.driver.Driver` over the replica's
  wall clock queues and issues the invokes, as on the simulator, and each
  one's completion or failure is its ``result`` frame;
* :class:`Connection` is the only code here that touches a socket: it
  opens or accepts a stream, checks schema signatures in a ``hello`` /
  ``hello_ack`` exchange of envelope-0 frames of the one wire codec
  (:mod:`repro.transport.codec_binary`), coalesces sends in a
  :class:`~repro.transport.framing.BatchWriter` and runs the one chunked
  read loop, a :class:`~repro.transport.framing.FrameDecoder` feeding a
  synchronous per-frame handler, with per-connection
  :class:`~repro.transport.framing.TransportStats` surfaced in metrics;
* the **client runner** (:func:`run_live_workload`) replays a seeded
  :class:`~repro.workloads.kv.KVWorkloadSpec` operation stream — the *same*
  stream a simulated run of that spec executes, because the op-mix RNG is
  independent of the arrival model — from ``spec.workers`` client processes
  running one routine (worker ``w`` fires script operations ``w, w+N, …``),
  and records client-observed invocation/response wall timestamps into
  columnar :class:`~repro.exec.oplog.OpLog` s that merge, by script index,
  into the one history the unmodified Wing–Gong linearizability checker
  reads.  (Batching delays sit strictly inside the client-observed [invoke,
  response] interval, so the checker stays sound; see DESIGN §13.)

Failure semantics: a replica arms the spec's crash points with the
simulator's own :func:`~repro.faults.plan.install_crash_points`; a fired
point halts the replica as ``ProcessBase.crash`` halts a simulated one.
Its processes crash, so it sends nothing more; every ``msg`` frame that
reaches it is billed to ``messages_dropped_to_crashed`` where it would have
been delivered; its driver fails every operation queued or in flight, and
each of those and every one invoked later is answered at once with a
crashed result.  The process stays up, its links open and its ``stats``
answers (which say it crashed) carry its bill, until the cluster stops.
So a link that ends mid-run is always a fault and fails the run by name,
as does a replica silent to a stats request or a client worker process
that raises or dies (``worker_failure``).  Fault plans,
coalescing and the delivery chooser stay simulated-only (they need a
controllable clock).  TCP
gives reliable non-FIFO-across-connections delivery and the OS scheduler
the (unbounded, adversarial-enough) delays of the asynchronous model.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import time
from array import array
from functools import partial
from multiprocessing.connection import wait as wait_readable
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.consensus.mmr import ConsensusObjectProcess, consensus_invariants
from repro.exec.driver import Driver
from repro.exec.oplog import OpLog, encode_oplog
from repro.faults.plan import CrashPoint, install_crash_points
from repro.parallel.merge import merge_network_stats, merged_result
from repro.parallel.pool import (
    WorkerFailure,
    recv_message,
    run_chunked,
    send_error,
    spawn_context,
    terminate_all,
)
from repro.registers.base import OperationKind, OperationRecord
from repro.sim.network import NetworkStats
from repro.transport.base import TransportClosedError
from repro.transport.codec import CodecError
from repro.transport.codec_binary import BinaryWireCodec, schema_signature
from repro.transport.framing import BatchWriter, FrameDecoder, FramingError, TransportStats

#: Seconds allowed for cluster boot (spawn + port report) and for each
#: handshake or peer wiring that follows it.
STARTUP_TIMEOUT = 30.0

#: Floor for the completion deadline of a whole run.
MIN_RUN_TIMEOUT = 30.0

#: Socket read-chunk size: one ``read()`` returns up to this many bytes, and
#: the frame decoder pulls every whole frame out of the chunk — many frames
#: per syscall on a busy connection (counted as one inbound batch).
READ_CHUNK = 64 * 1024

#: A frame handler: called with the connection and each frame it decodes.
FrameHandler = Callable[["Connection", Dict[str, Any]], None]


# ------------------------------------------------------------------ wall clock


class WallClock:
    """The live backend's :class:`~repro.transport.base.Clock`: loop time.

    ``now`` is the asyncio event loop's monotonic time, rebased to 0 at
    construction so run timestamps read like elapsed seconds.  Timers map
    onto ``call_at``/``call_later``.  It is the whole
    :class:`~repro.transport.base.Clock` protocol and nothing more: protocol
    code asks a clock for the time and for timers, never for a log, and
    asyncio — not the clock — drives a live run.
    """

    def __init__(
        self, loop: Optional[asyncio.AbstractEventLoop] = None, epoch: Optional[float] = None
    ) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        #: Loop-time instant that reads as 0.  The client processes of one
        #: run pass the parent's epoch so timestamps are comparable across
        #: processes (CLOCK_MONOTONIC is system-wide on Linux).
        self._epoch = self._loop.time() if epoch is None else epoch

    @property
    def now(self) -> float:
        """Seconds since this clock's epoch (monotonic)."""
        return self._loop.time() - self._epoch

    def schedule_at(self, at: float, action: Callable[[], None], label: str = "") -> Any:
        """Run ``action`` at clock time ``at``; returns a cancellable handle."""
        return self._loop.call_at(self._epoch + at, action)

    def schedule_after(self, delay: float, action: Callable[[], None], label: str = "") -> Any:
        """Run ``action`` after ``delay`` seconds; returns a cancellable handle."""
        return self._loop.call_later(delay, action)

    def cancel(self, handle: Any) -> None:
        """Cancel a pending timer (idempotent)."""
        handle.cancel()


# -------------------------------------------------------------- connections


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on a live socket.

    The protocol is request/response chatter in both directions; Nagle plus
    delayed ACKs turns every sequential hop into a ~10–40 ms stall on
    loopback.  The :class:`~repro.transport.framing.BatchWriter` already
    coalesces writes into one syscall per flush, which is the congestion
    behaviour Nagle exists to approximate — so the kernel-side delay buys
    nothing and costs milliseconds per hop.
    """
    import socket

    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP or torn socket
            pass


class Connection:
    """One live stream: the only code in this module that touches a socket.

    It dials or accepts the stream, owns its :class:`BatchWriter` and runs
    its one read loop.  The handshake is the first frame each way, an
    ordinary envelope-0 frame of the one codec: envelope 0 is JSON and does
    not depend on the schema, so an end built from another message registry
    is still understood, and refused by name.
    """

    __slots__ = ("reader", "writer", "stats", "batch", "label", "on_frame", "reading")

    #: The one wire codec (stateless, so one instance serves every connection).
    codec = BinaryWireCodec()

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        label: str,
        on_frame: FrameHandler,
    ) -> None:
        _set_nodelay(writer)
        self.reader = reader
        self.writer = writer
        self.stats = TransportStats()
        self.batch = BatchWriter(writer, stats=self.stats).start()
        self.label = label
        #: Gets ``(self, frame)`` for every frame read; the handshake swaps it.
        self.on_frame = on_frame
        #: The read loop's task, on a dialled stream.
        self.reading: Optional[asyncio.Task] = None

    @classmethod
    async def dial(
        cls, port: int, label: str, on_frame: FrameHandler, **hello: Any
    ) -> "Connection":
        """Connect, send a ``hello`` (this end's :func:`schema_signature` plus
        ``hello``) and keep reading; frames after the ``hello_ack`` go to
        ``on_frame``.  A refusal raises with the acceptor's reason."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        acked = asyncio.get_running_loop().create_future()

        def first(conn: Connection, ack: Dict[str, Any]) -> None:
            conn.on_frame = on_frame
            acked.set_result(ack)

        conn = cls(reader, writer, label, first)
        conn.send({"kind": "hello", "sig": schema_signature(), **hello})
        conn.reading = asyncio.ensure_future(conn.read_loop())
        await asyncio.wait(
            (acked, conn.reading), timeout=STARTUP_TIMEOUT, return_when=asyncio.FIRST_COMPLETED
        )
        ack = acked.result() if acked.done() else {"reason": "no hello_ack"}
        if ack.get("kind") != "hello_ack" or not ack.get("ok"):
            await conn.aclose()
            raise RuntimeError(f"{label}: handshake refused: {ack.get('reason', ack)}")
        return conn

    @classmethod
    async def accept(
        cls,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        name: str,
        on_hello: Callable[["Connection", Dict[str, Any]], FrameHandler],
    ) -> None:
        """Serve an accepted stream until it ends.

        A ``hello`` with this end's schema signature is acked, and
        ``on_hello(connection, hello)`` returns the handler for every later
        frame; anything else is refused with a reason naming both signatures
        (``name`` is this end), and the stream closed.
        """

        def greet(conn: Connection, hello: Dict[str, Any]) -> None:
            mine = schema_signature()
            if hello.get("kind") == "hello" and hello.get("sig") == mine:
                conn.send({"kind": "hello_ack", "ok": True})
                conn.on_frame = on_hello(conn, hello)
                return
            # One codec, no fallback: a dialer built from another message
            # registry is refused, and told why.
            offered = hello.get("sig")
            reason = f"schema signature mismatch: dialer offers {offered!r}, {name} has {mine!r}"
            conn.send({"kind": "hello_ack", "ok": False, "reason": reason})
            raise ConnectionRefusedError(reason)  # ends the loop; closing flushes the ack

        conn = cls(reader, writer, "accepted", greet)
        try:
            await conn.read_loop()
        finally:
            await conn.aclose()

    async def read_loop(self) -> str:
        """The one read loop: each chunk through one decoder, each frame to ``on_frame``.

        One task wakeup per chunk however many frames it holds; frames that
        share the handshake's chunk reach the handler the handshake set.  It
        ends at EOF, on a garbled frame, on a torn link or when a handler
        raises ``ConnectionError`` — where a broken stream surfaces — and
        returns which: ``"EOF"`` or the exception's type and text.
        """
        decoder = FrameDecoder()
        stats = self.stats
        decode = self.codec.decode
        try:
            while True:
                chunk = await self.reader.read(READ_CHUNK)
                if not chunk:
                    return "EOF"
                stats.note_chunk_in(len(chunk))
                for body in decoder.feed(chunk):
                    stats.frames_in += 1
                    self.on_frame(self, decode(body))
        except (FramingError, CodecError, ConnectionError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def send(self, payload: Dict[str, Any]) -> None:
        """Encode and enqueue one frame (coalesced into the next flush)."""
        self.batch.send(self.codec.encode(payload))

    def snapshot(self) -> Dict[str, Any]:
        return {"label": self.label, **self.stats.as_dict()}

    async def aclose(self) -> None:
        """Flush what is queued, then close the stream (which ends the read loop)."""
        try:
            await self.batch.aclose()
        finally:
            self.writer.close()


# ------------------------------------------------------------- replica server


class LiveKey:
    """One key on one replica: its transport and its register process.

    As the key's :class:`~repro.transport.base.Transport`, each send becomes
    one peer frame per destination.  Membership is the full static replica
    set, and messages are billed to the server-wide :class:`NetworkStats`
    (as simulated subnets bill to their parent network).  The replica's
    :class:`~repro.exec.driver.Driver` queues and issues the process's
    operations.
    """

    __slots__ = ("server", "key", "name", "closed", "stats", "process")

    def __init__(self, server: "_ReplicaServer", key: Any) -> None:
        self.server = server
        self.key = key
        self.name = f"live:{key}"
        self.closed = False
        self.stats = server.stats
        self.process = server.algorithm.process_factory(
            pid=server.replica_id,
            simulator=server.clock,
            network=self,
            writer_pid=0,
            t=(server.n - 1) // 2,
            initial_value=server.initial_value,
        )
        self.process.finish_setup()

    @property
    def process_ids(self) -> List[int]:
        return list(range(self.server.n))

    def register(self, process: Any) -> None:
        self.process = process

    def send(
        self,
        src: int,
        dst: Union[int, Sequence[int]],
        message: Any,
        holders: Sequence[int] = (),
    ) -> None:
        if self.closed:
            raise TransportClosedError(f"send p{src}->p{dst} on closed live net {self.name!r}")
        if self.process.crashed:  # a crashed process takes no steps, hence cannot send
            return
        dsts = (dst,) if isinstance(dst, int) else dst
        if src in dsts:
            raise ValueError(f"process p{src} attempted to send a message to itself")
        if not dsts:
            return
        for holder in holders:
            if holder not in dsts:
                raise ValueError(f"holder p{holder} is not a destination of p{src}'s send")
        # One frame per destination (it carries its ``dst``; a holder's is
        # ``message.bare``), billed as on ``Network.send``: per copy, each
        # shown to the hooks, only with hooks.
        server, stats, key = self.server, self.stats, self.key
        peers, hooks = server.peer_conns, server.send_hooks
        if not hooks:
            stats.record_send(src, message, len(dsts), len(holders))
        sent = message
        for dst in dsts:
            if holders:
                sent = message.bare if dst in holders else message
            if hooks:
                stats.record_send(src, sent)
            peers[dst].send({"kind": "msg", "key": key, "src": src, "dst": dst, "msg": sent})
            if hooks:
                for hook in hooks:
                    hook(src, dst, sent)
                if self.process.crashed:
                    break  # a hook crashed the sender: nothing further is billed or sent

    def close(self) -> None:
        self.closed = True


class _ReplicaServer:
    """State of one replica server process (runs inside ``replica_main``)."""

    def __init__(
        self,
        replica_id: int,
        n: int,
        algorithm_name: str,
        initial_value: Any,
    ) -> None:
        from repro.registers.registry import get_algorithm

        self.replica_id = replica_id
        self.n = n
        self.algorithm = get_algorithm(algorithm_name)
        self.initial_value = initial_value
        self.clock = WallClock(asyncio.get_running_loop())
        #: Queues each key's invokes on its (sequential) process, issues them
        #: and answers each when it completes or fails.
        self.driver = Driver(self.clock)
        self.stats = NetworkStats()
        self.keys: Dict[Any, LiveKey] = {}
        #: One dialled connection per peer, all up before ``peers`` is acked.
        self.peer_conns: Dict[int, Connection] = {}
        self.send_hooks: List[Callable[[int, int, Any], None]] = []
        self.add_send_hook = self.send_hooks.append  # as ``Network.add_send_hook``
        self.armed = True  # until the parent asks for stats
        self.shutdown = asyncio.Event()
        #: Why this replica stopped serving, when it was not asked to.
        self.failure: Optional[BaseException] = None
        #: Once a crash point fired: what it answers every operation with.
        self.crashed: Optional[str] = None
        self._accepted: List[Connection] = []
        self._wiring: Optional[asyncio.Task] = None

    def live_key(self, key: Any) -> LiveKey:
        entry = self.keys.get(key)
        if entry is None:
            entry = self.keys[key] = LiveKey(self, key)
        return entry

    # ------------------------------------------------------------ connections

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The stream server's callback: serve one accepted stream until it ends."""
        try:
            await Connection.accept(reader, writer, f"replica {self.replica_id}", self._greeted)
        except asyncio.CancelledError:
            # Process teardown: asyncio.run cancels every task, and Python
            # 3.11's streams callback logs a handler task that ends
            # *cancelled* as a spurious "Exception in callback".  The cancel
            # still stops the handler — just end it normally.
            pass

    def _greeted(self, conn: Connection, hello: Dict[str, Any]) -> FrameHandler:
        conn.label = f"peer<-{hello.get('src', '?')}" if hello.get("role") == "peer" else "client"
        self._accepted.append(conn)
        return self._on_frame

    def _on_frame(self, conn: Connection, frame: Dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "msg":
            if self.crashed is not None:  # as the simulator drops a delivery to a crashed process
                self.stats.record_drop()
                return
            entry = self.live_key(frame["key"])
            self.stats.messages_delivered += 1
            entry.process.deliver(frame["src"], frame["msg"])
        elif kind == "invoke":
            if self.crashed is not None:
                conn.send(self.crashed_result(frame["op_id"]))
                return
            key = frame["key"]
            # Built here with op_id -1, so the driver neither logs nor keeps
            # it: the client's log is the history.  JSON decoding turns a
            # consensus kind's tuple argument into a list; the SMR objects
            # unpack positionally, so the shapes agree.
            op = OperationRecord(
                -1, -1, OperationKind(frame["op"]), frame.get("value"), key,
                partial(self._answer, conn, frame["op_id"]),
            )
            self.driver.submit(self.live_key(key).process, op)
        elif kind == "peers":
            self._wiring = asyncio.ensure_future(self._wire_peers(conn, frame["ports"]))
        elif kind == "arm":  # rebase to the run's epoch, ack, arm this replica's points
            self.clock = self.driver.clock = WallClock(
                asyncio.get_running_loop(), epoch=frame["epoch"]
            )
            conn.send({"kind": "armed", "replica": self.replica_id})
            mine = [CrashPoint(**p) for p in frame["points"] if p["replica"] == self.replica_id]
            install_crash_points(mine, self.clock, self, self._crash)
        elif kind == "stats":
            self.armed = False  # the run is over: a late point must not fire mid-drain
            conn.send(self._stats_reply())
        elif kind == "shutdown":
            self.close()
            self.shutdown.set()

    async def _wire_peers(self, conn: Connection, ports: Dict[str, int]) -> None:
        """Dial every peer not yet connected, then answer ``peers``.

        A dial that fails is answered with the peer and the reason, and ends
        this replica: without the link the protocol would stall in silence.
        """
        reply: Dict[str, Any] = {"kind": "peers_ok", "replica": self.replica_id, "ok": True}
        try:
            for pid, port in sorted((int(pid), port) for pid, port in ports.items()):
                if pid != self.replica_id and pid not in self.peer_conns:
                    self.peer_conns[pid] = await Connection.dial(
                        port, f"peer->{pid}", self._on_frame, role="peer", src=self.replica_id
                    )
        except (OSError, RuntimeError, FramingError) as exc:
            reply.update(ok=False, reason=str(exc))
            self.failure = exc
            self.shutdown.set()
        conn.send(reply)

    def _crash(self, point: CrashPoint) -> None:
        """The crash callback: this replica halts, as a simulated one does.

        Each key's process crashes, so it takes no more steps, and the
        driver fails every operation it holds, the one in progress first:
        each is answered as crashed.  The process itself stays up: its
        links stay open and it answers ``stats`` and ``shutdown``.
        """
        if not self.armed:
            return
        self.armed = False
        self.crashed = f"replica {self.replica_id} crashed: {point}"
        for entry in self.keys.values():
            entry.process.crash()
        self.driver.fail_stuck()

    def _answer(self, conn: Connection, op_id: int, op: OperationRecord) -> None:
        """Client operation ``op_id`` finished as ``op``: send its ``result`` frame."""
        if op.completed:
            conn.send({"kind": "result", "op_id": op_id, "ok": True, "value": op.result})
        elif self.crashed is not None:
            conn.send(self.crashed_result(op_id))
        else:  # the process refused it (a write at a non-writer)
            conn.send({"kind": "result", "op_id": op_id, "ok": False, "error": op.failure_reason})

    def crashed_result(self, op_id: int) -> Dict[str, Any]:
        """The answer to operation ``op_id`` once this replica crashed."""
        return {
            "kind": "result", "op_id": op_id, "ok": False, "crashed": True, "error": self.crashed
        }

    def _stats_reply(self) -> Dict[str, Any]:
        reply = {
            "kind": "stats_reply",
            "replica": self.replica_id,
            "crashed": self.crashed is not None,
            **self.stats.snapshot(),  # the message bill, control and data bits included
            "keys": len(self.keys),
            "transport": self.transport_snapshot(),
        }
        # Each consensus-backed key's log, for the client's audit
        # (consensus_audit); a register replica's answer is unchanged.
        logs = [
            {
                "key": key,
                "decided": sorted(entry.process.decided.items()),
                "commands": sorted(entry.process.commands),
            }
            for key, entry in self.keys.items()
            if isinstance(entry.process, ConsensusObjectProcess)
        ]
        if logs:
            reply["consensus"] = logs
        return reply

    def transport_snapshot(self) -> List[Dict[str, Any]]:
        """Per-connection byte/frame/batch counters, inbound and outbound."""
        conns = self._accepted + [self.peer_conns[dst] for dst in sorted(self.peer_conns)]
        return [conn.snapshot() for conn in conns]

    # --------------------------------------------------------------- teardown

    def close(self) -> None:
        for entry in self.keys.values():
            entry.close()

    async def hang_up(self) -> None:
        """Flush and close every connection, accepted and dialled."""
        for conn in self._accepted + list(self.peer_conns.values()):
            await conn.aclose()


def replica_main(
    replica_id: int, n: int, algorithm_name: str, initial_value: Any, report: Any
) -> None:
    """Entry point of one replica server process (multiprocessing spawn).

    ``report`` is the write end of a pipe: the replica sends ``("port",
    port)`` once it listens, or its traceback if it cannot.
    """

    def serve() -> None:
        asyncio.run(_replica_async_main(report, replica_id, n, algorithm_name, initial_value))

    profile_dir = os.environ.get("REPRO_LIVE_PROFILE")
    if not profile_dir:
        serve()
        return
    import cProfile  # pragma: no cover - diagnostics only

    prof = cProfile.Profile()
    prof.enable()
    try:
        serve()
    finally:
        prof.disable()
        prof.dump_stats(os.path.join(profile_dir, f"replica{replica_id}.prof"))


async def _replica_async_main(report: Any, *server_args: Any) -> None:
    try:
        server = _ReplicaServer(*server_args)
        listener = await asyncio.start_server(server.handle_connection, "127.0.0.1", 0)
        report.send(("port", listener.sockets[0].getsockname()[1]))
    except BaseException:
        send_error(report)
        raise
    finally:
        report.close()
    async with listener:
        await server.shutdown.wait()
        await server.hang_up()
    if server.failure is not None:
        raise server.failure


# --------------------------------------------------------------- cluster boot


class LiveCluster:
    """Boot/teardown of one loopback replica cluster (spawned processes).

    The only process spawn under :mod:`repro.transport`: client worker
    processes go through :mod:`repro.parallel.pool`, whose report protocol
    the replicas speak too.
    """

    def __init__(self, n: int, algorithm: str, initial_value: Any) -> None:
        self.n = n
        self.algorithm = algorithm
        self.initial_value = initial_value
        self.servers: List[Any] = []
        self.ports: Dict[int, int] = {}

    async def start(self) -> Dict[int, int]:
        """Spawn the replica processes and collect their listen ports.

        Each replica reports over its own pipe: its port once it listens, or
        its traceback (:func:`~repro.parallel.pool.send_error`) if it cannot.
        A replica that fails, dies or stays silent for
        :data:`STARTUP_TIMEOUT` fails the boot by name, and no replica
        process outlives the error.
        """
        ctx = spawn_context()
        reports = []
        for replica in range(self.n):
            report, child_end = ctx.Pipe(duplex=False)
            server = ctx.Process(
                target=replica_main,
                args=(replica, self.n, self.algorithm, self.initial_value, child_end),
                name=f"repro-replica-{replica}",
                daemon=True,
            )
            server.start()
            child_end.close()
            self.servers.append(server)
            reports.append(report)
        loop = asyncio.get_running_loop()
        try:
            failures = await loop.run_in_executor(None, self._collect_ports, reports)
        finally:
            for report in reports:
                report.close()
        if failures or len(self.ports) < self.n:
            await loop.run_in_executor(None, terminate_all, self.servers)
            if not failures:
                raise RuntimeError(
                    f"cluster boot timed out after {STARTUP_TIMEOUT:g} s; "
                    f"got ports for {sorted(self.ports)}"
                )
            raise RuntimeError(
                f"replica server(s) {sorted(failures)} died during cluster boot. "
                "Live clusters use multiprocessing spawn: the parent's "
                "__main__ must be importable (run from a script file, "
                "the CLI or pytest — not a stdin/REPL session) and the "
                "algorithm name must exist in the registry."
                + "".join(f"\n--- replica {r} ---\n{failures[r]}" for r in sorted(failures))
            )
        return dict(self.ports)

    def _collect_ports(self, reports: List[Any]) -> Dict[int, str]:
        """Read each replica's report until all are in or the boot budget is spent.

        Runs in an executor thread.  Returns the failures, replica -> cause.
        """
        deadline = time.monotonic() + STARTUP_TIMEOUT
        waiting = {report: replica for replica, report in enumerate(reports)}
        failures: Dict[int, str] = {}
        while waiting:
            ready = wait_readable(list(waiting), timeout=max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            for report in ready:
                replica = waiting.pop(report)
                try:
                    kind, payload = recv_message(report, self.servers[replica], "its listen port")
                except WorkerFailure as exc:
                    kind, payload = "error", str(exc)
                if kind == "port":
                    self.ports[replica] = payload
                else:
                    failures[replica] = payload.rstrip()
        return failures

    async def stop(self, budget: float = 5.0) -> None:
        """Join the replica processes, escalating to terminate past ``budget``."""
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + budget
        for server in self.servers:
            timeout = max(0.1, deadline - time.monotonic())
            await loop.run_in_executor(None, server.join, timeout)
            if server.is_alive():
                server.terminate()
                await loop.run_in_executor(None, server.join, 1.0)


# ------------------------------------------------------------- client runner


class _PendingOp(NamedTuple):
    """Client-side bookkeeping for one in-flight live operation."""

    row: int
    record: OperationRecord
    future: "asyncio.Future"


class LiveClient:
    """One connection per replica plus op-id dispatch of result frames.

    The connection half (``connect`` / ``wire_peers`` / ``pending`` /
    ``drain_stats`` / ``close``) is all a caller with its own bookkeeping
    needs.  The recording half — :meth:`fire`, :meth:`fire_open_loop`,
    :meth:`settle` — is what the client routine of :func:`run_live_workload`
    runs on: it logs every operation into ``oplog`` with
    client-observed wall timestamps, stamping completion *when the result
    frame arrives*.

    A crashed replica answers its operations itself, with a crashed result.
    A link that ends sets ``failure``, raised by the next :meth:`fire`,
    :meth:`settle` or request: no crash ends a link.
    """

    def __init__(self, epoch: Optional[float] = None) -> None:
        self.conns: Dict[int, Connection] = {}
        self.gone: Dict[int, str] = {}  # replica -> why the link to it ended
        self.failure: Optional[RuntimeError] = None
        self.replicas = 0
        #: Operations failed because their replica crashed (a clean outcome).
        self.crash_failed = 0
        self._closing = False
        self.pending: Dict[int, Any] = {}
        self.stats_replies: Dict[int, Dict[str, Any]] = {}
        self.oplog = OpLog()
        #: Set by :meth:`connect`; ``epoch`` shares a time base across processes.
        self.clock: Optional[WallClock] = None
        self._epoch = epoch
        self._op_ids = itertools.count()
        self._read_turn: Dict[Any, int] = {}
        self._replica_ops: Dict[int, int] = {}
        #: The request every replica is answering: (replies so far, all in).
        self._asking: Optional[Tuple[Dict[int, Any], "asyncio.Future"]] = None

    async def connect(self, ports: Dict[int, int]) -> None:
        self.clock = WallClock(asyncio.get_running_loop(), epoch=self._epoch)
        self.replicas = len(ports)
        for replica, port in sorted(ports.items()):
            conn = await Connection.dial(port, f"->r{replica}", self._on_frame, role="client")
            self.conns[replica] = conn
            conn.reading.add_done_callback(partial(self._link_ended, replica))

    def _on_frame(self, conn: Connection, frame: Dict[str, Any]) -> None:
        if frame.get("kind") == "result":
            op = self.pending.pop(frame["op_id"], None)
            if op is not None and not op.future.done():
                op.future.set_result(frame)
        elif self._asking is not None:  # a replica's answer to the open request
            self._asking[0][frame["replica"]] = frame
            self._check_answered()

    def _link_ended(self, replica: int, reading: "asyncio.Task") -> None:
        """The link to ``replica`` ended, which no crash does: fail the run and who waited."""
        if self._closing or reading.cancelled():
            return
        reason = self.gone[replica] = reading.result()
        error = f"link ->r{replica} ended outside the crash plan: {reason}"
        self.failure, frame = RuntimeError(error), {"ok": False, "error": error}
        waiting = list(self.pending.values())
        self.pending.clear()
        for op in waiting:
            if not op.future.done():
                op.future.set_result(frame)
        if self._asking is not None:
            self._check_answered()

    def _check_answered(self) -> None:
        """Resolve the open request once each replica answered or its link ended (a failure)."""
        replies, answered = self._asking
        silent = self.conns.keys() - replies.keys()
        if not answered.done() and silent <= self.gone.keys():
            if silent:
                answered.set_exception(self.failure)
            else:
                answered.set_result(None)

    async def _ask_every_replica(
        self, request: Dict[str, Any], replies: Dict[int, Any], timeout: float
    ) -> None:
        """Send ``request`` to every replica and wait until each answered into ``replies``.

        The read loops resolve the wait on the last answer; a replica still
        silent after ``timeout`` seconds raises, by name.  A gone one is not asked.
        """
        replies.clear()
        answered = asyncio.get_running_loop().create_future()
        self._asking = (replies, answered)
        for replica, conn in self.conns.items():
            if replica not in self.gone:
                conn.send(request)
        try:
            await asyncio.wait_for(answered, timeout)
        except asyncio.TimeoutError:
            missing = sorted(set(self.conns) - set(self.gone) - set(replies))
            raise RuntimeError(
                f"replica(s) {missing} did not answer {request['kind']!r} within {timeout:g} s"
            ) from None
        finally:
            self._asking = None

    async def wire_peers(self, ports: Dict[int, int]) -> None:
        """Hand every replica the port map; each dials its peers, then acks.

        Operations may flow once this returns.  A replica whose peer dial
        failed answers with that peer and the reason, and exits; this raises
        with every such answer.
        """
        replies: Dict[int, Dict[str, Any]] = {}
        payload = {"kind": "peers", "ports": {str(pid): port for pid, port in ports.items()}}
        await self._ask_every_replica(payload, replies, STARTUP_TIMEOUT)
        failed = [
            f"replica {replica}: {reply.get('reason')}"
            for replica, reply in sorted(replies.items())
            if not reply.get("ok")
        ]
        if failed:
            raise RuntimeError("peer wiring failed: " + "; ".join(failed))

    def start_readers(self) -> None:
        """Nothing to start: a connection reads from the moment it is dialled,
        since its ``hello_ack`` arrives through its one read loop."""

    # ------------------------------------------------------- recorded driving

    def fire(
        self, kind: OperationKind, key: Any, value: Any, pid: Optional[int] = None
    ) -> _PendingOp:
        """Log and send one invocation; its completion is stamped on arrival.

        Writes go to replica 0 (the writer replica, as the simulated store
        routes), everything else round-robins per key.  ``pid`` is the
        checker's notion of *who* invoked: by default the serving replica
        (one client's operations there are sequential per key); a run with
        several client processes passes a unique pid per operation, because
        operations of different processes overlap freely at one replica and
        the checker derives program order from equal pids.
        """
        if self.failure is not None:
            raise self.failure
        if kind is OperationKind.WRITE:
            replica = 0
        else:
            turn = self._read_turn.get(key, 0)
            self._read_turn[key] = turn + 1
            replica = turn % self.replicas
        session_op = 0  # an explicit pid is a one-operation session
        if pid is None:
            pid = replica
            session_op = self._replica_ops.get(replica, 0)
            self._replica_ops[replica] = session_op + 1
        op_id = next(self._op_ids)
        now = self.clock.now
        row = self.oplog.note_created(kind, key, value)
        self.oplog.note_submitted(row, now)
        record = OperationRecord(
            row, pid, kind, value, key, invoked_at=now, proc_op_id=session_op
        )
        self.oplog.note_issued(row, record)
        pending = _PendingOp(row, record, asyncio.get_running_loop().create_future())
        # The read loop resolves the future the moment the result frame is
        # decoded, so the callback's stamp is the arrival time — not whenever
        # the driver gets around to collecting results.
        pending.future.add_done_callback(partial(self._record_result, pending))
        self.pending[op_id] = pending
        self.conns[replica].send(
            {"kind": "invoke", "op_id": op_id, "op": kind.value, "key": key, "value": value}
        )
        return pending

    def _record_result(self, pending: _PendingOp, future: "asyncio.Future") -> None:
        frame = None if future.cancelled() else future.result()
        record = pending.record
        if frame is not None and frame.get("ok"):
            now = self.clock.now
            record.completed = True
            record.result = frame.get("value")
            record.responded_at = now
            self.oplog.note_completed(pending.row, record)
            return
        reason = (frame or {}).get("error", "no response before deadline")
        self.oplog.note_failed(pending.row, reason)
        if frame is not None and frame.get("crashed"):
            self.crash_failed += 1

    async def fire_open_loop(
        self,
        schedule: Iterable[Tuple[float, Any]],
        start: float,
        pid_of: Callable[[Any], Optional[int]],
    ) -> List[_PendingOp]:
        """Fire ``(at, op)`` arrivals on schedule, never waiting for a result.

        ``at`` is seconds after the clock instant ``start``; an arrival that
        is already due fires at once.  ``op`` carries ``kind`` / ``key`` /
        ``value``; ``pid_of(op)`` names its checker pid (see :meth:`fire`).
        """
        fired: List[_PendingOp] = []
        for index, (at, op) in enumerate(schedule):
            delay = (start + at) - self.clock.now
            if delay > 0:
                await asyncio.sleep(delay)
            elif index % 16 == 0:
                await asyncio.sleep(0)  # behind schedule: still let result frames in
            fired.append(self.fire(op.kind, op.key, op.value, pid=pid_of(op)))
        return fired

    async def settle(self, fired: List[_PendingOp], timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for ``fired``; fail what has no result by then.

        Returns ``True`` when every operation completed or met a crashed replica.
        """
        waiting = [pending.future for pending in fired if not pending.future.done()]
        late = (await asyncio.wait(waiting, timeout=max(0.001, timeout)))[1] if waiting else ()
        for future in late:
            future.cancel()
        if late:
            await asyncio.sleep(0)  # run the cancelled futures' callbacks
        if self.failure is not None:
            raise self.failure
        return not late and all(
            pending.record.completed or pending.future.result().get("crashed") for pending in fired
        )

    async def drain_stats(self, timeout: float = 5.0) -> int:
        """Ask every replica for its counters; returns total protocol messages.

        Raises ``RuntimeError`` naming each replica that has not answered
        within ``timeout`` seconds: a sum over fewer replicas would understate
        the run's message bill.
        """
        replies = self.stats_replies
        await self._ask_every_replica({"kind": "stats"}, replies, timeout)
        return sum(reply.get("messages_sent", 0) for reply in replies.values())

    def transport_summary(
        self, client_rows: List[Dict[str, Any]], completed: int
    ) -> Dict[str, Any]:
        """Metrics-snapshot section: per-connection counters + derived rates.

        ``client_rows`` are the load-carrying clients' connection snapshots;
        the replica side is what :meth:`drain_stats` collected here.
        """
        replica_rows: Dict[str, List[Dict[str, Any]]] = {
            str(replica): self.stats_replies.get(replica, {}).get("transport", [])
            for replica in range(self.replicas)
        }
        all_rows = client_rows + [row for rows in replica_rows.values() for row in rows]
        frames_out = sum(row["frames_out"] for row in all_rows)
        batches_out = sum(row["batches_out"] for row in all_rows)
        client_bytes = sum(row["bytes_in"] + row["bytes_out"] for row in client_rows)
        return {
            "client_connections": client_rows,
            "replica_connections": replica_rows,
            "frames_per_flush": (frames_out / batches_out) if batches_out else None,
            "client_bytes_per_op": (client_bytes / completed) if completed else None,
        }

    async def close(self, send_shutdown: bool = True) -> None:
        """Close every connection.

        With ``send_shutdown`` each replica still up is asked to stop and given
        a second to hang up, which it does once its last frames are flushed.
        """
        self._closing = True
        up = [conn for replica, conn in self.conns.items() if replica not in self.gone]
        if send_shutdown and up:
            for conn in up:
                conn.send({"kind": "shutdown"})
            await asyncio.wait([conn.reading for conn in up], timeout=1.0)
        for conn in self.conns.values():
            await conn.aclose()


@contextlib.asynccontextmanager
async def live_session(replicas: int, algorithm: str, initial_value: Any):
    """A booted loopback cluster plus a wired, reading :class:`LiveClient`.

    Yields ``(client, ports)``; on the way out — success or failure — the
    client sends the shutdown request and the replica processes are joined
    (terminated past their budget), so no path leaves a process behind.
    """
    cluster = LiveCluster(replicas, algorithm, initial_value)
    client = LiveClient()
    try:
        ports = await cluster.start()
        await client.connect(ports)
        await client.wire_peers(ports)
        yield client, ports
    finally:
        try:
            await client.close(send_shutdown=True)
        finally:
            await cluster.stop()


async def _client_routine(
    spec: Any, worker: int, ports: Dict[int, int], epoch: float, start: float
) -> Dict[str, Any]:
    """One client process's share of a live run: connect, fire, settle, ship.

    Worker ``w`` of ``N = spec.workers`` owns script operations ``w, w+N, …``
    of the spec's seeded stream.  Open loop, each fires at its own seeded
    arrival time after ``start`` — one instant on the clock every worker
    shares through ``epoch``; closed loop, the worker fires its share of each
    ``batch_size`` window of the script and awaits it.  A deadline is
    :data:`MIN_RUN_TIMEOUT` past the last firing it covers.  Returns the
    columnar oplog (each row's script index riding along) and the
    connection counters, picklable.
    """
    from repro.workloads.kv import iter_kv_arrivals, iter_kv_operations

    workers = spec.workers
    mine = itertools.islice(iter_kv_operations(spec), worker, None, workers)

    def pid_of(op: Any) -> Optional[int]:
        # Operations of different client processes overlap at a replica, so
        # with several each one is its own session (see LiveClient.fire).
        return None if workers == 1 else op.index

    client = LiveClient(epoch=epoch)
    batches = 0
    try:
        await client.connect(ports)
        if spec.open_loop:
            arrivals = itertools.islice(iter_kv_arrivals(spec), worker, None, workers)
            fired = await client.fire_open_loop(zip(arrivals, mine), start, pid_of)
            await client.settle(fired, MIN_RUN_TIMEOUT)
            batches = 1
        else:
            for _window, ops in itertools.groupby(mine, lambda op: op.index // spec.batch_size):
                batches += 1
                fired = [client.fire(op.kind, op.key, op.value, pid_of(op)) for op in ops]
                if not await client.settle(fired, MIN_RUN_TIMEOUT):
                    break  # a wedged batch: fail fast, do not pile more on
    finally:
        await client.close(send_shutdown=False)
    # Rows are created in firing order, and this worker fires its slice in
    # script order: row r is script operation worker + r * workers.
    script_index = array("q", range(worker, worker + workers * len(client.oplog), workers))
    return {
        "columnar": encode_oplog(client.oplog, script_index),
        "batches": batches,
        "finished": len(client.oplog.reasons) == client.crash_failed,  # a crash is clean
        "transport": [
            dict(client.conns[replica].snapshot(), worker=worker)
            for replica in sorted(client.conns)
        ],
    }


def _client_worker(job: Tuple[Any, ...]) -> Dict[str, Any]:
    """Pool entry point: one client routine on this process's own event loop."""
    return asyncio.run(_client_routine(*job))


def run_live_workload(spec: Any) -> Any:
    """Run ``spec`` against a freshly launched loopback replica cluster.

    The operation stream is the spec's seeded stream — identical, op for
    op, to what a simulated run of the same spec executes — fired by
    ``spec.workers`` client processes running :func:`_client_routine`:
    awaited here for one, on the spawn pool (:func:`~repro.parallel.pool.
    run_chunked`: fail fast, liveness-polled) for more.  Open-loop specs
    fire at their seeded arrival times with ``arrival_rate`` read as
    operations per wall-clock *second*; closed-loop specs submit in batches
    of ``batch_size`` and await each batch.  The workers' logs merge the way
    the shard-parallel engine's do — row ``i`` of the result's oplog is
    script operation ``i`` at any worker count — into the same
    :class:`~repro.workloads.kv.KVWorkloadResult` a simulated run returns,
    with wall-clock timings and the replicas' message bill and consensus
    audit drained from them; what a live run cannot do is rejected by the
    spec itself.
    """
    return asyncio.run(_run_live_async(spec))


class ReplicaLog(NamedTuple):
    """One replica's consensus log for one key, as ``consensus_invariants`` reads it."""

    pid: int
    decided: Dict[int, int]
    commands: List[int]


def consensus_audit(replies: Dict[int, Dict[str, Any]]) -> Optional[List[str]]:
    """:func:`~repro.consensus.mmr.consensus_invariants` over the logs in ``stats_reply`` frames.

    ``replies`` maps each replica to its answer.  ``None`` when no replica
    hosts a consensus-backed key: there was nothing to audit.
    """
    by_key: Dict[Any, List[ReplicaLog]] = {}
    for replica, reply in sorted(replies.items()):
        for log in reply.get("consensus", ()):
            entry = ReplicaLog(replica, dict(log["decided"]), log["commands"])
            by_key.setdefault(log["key"], []).append(entry)
    if not by_key:
        return None
    return consensus_invariants({key: by_key[key] for key in sorted(by_key, key=repr)})


async def _drain_settled(control: LiveClient) -> Dict[int, Dict[str, Any]]:
    """The replicas' ``stats_reply`` frames once the run's last message has landed.

    An operation completes before all the messages it causes are sent (a
    two-bit write is forwarded on).  Two drains in a row whose counters agree
    read every replica at one instant, between them; when every message sent
    by then was delivered or dropped (a crashed replica drops what reaches
    it), nothing is in flight and nothing more will be sent.  Every message
    lands somewhere, so a bill still unsettled after 5 s raises, naming each
    replica's ``(sent, delivered, dropped)``.
    """
    deadline = time.monotonic() + 5.0
    last = None
    while True:
        await control.drain_stats()
        replies = dict(control.stats_replies)
        counters = {
            replica: (r["messages_sent"], r["messages_delivered"], r["messages_dropped_to_crashed"])
            for replica, r in sorted(replies.items())
        }
        in_flight = sum(sent - landed - dropped for sent, landed, dropped in counters.values())
        if counters == last and in_flight == 0:
            return replies
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"the message bill did not settle within 5 s: {in_flight} message(s) in "
                f"flight; (sent, delivered, dropped) per replica: {counters}"
            )
        last = counters


async def _run_live_async(spec: Any) -> Any:
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    parts: List[Dict[str, Any]] = []
    failure: Optional[str] = None
    async with live_session(spec.replication, spec.algorithm, spec.initial_value) as (
        control,
        ports,
    ):
        # Spawned workers need about what the replicas just needed (a fresh
        # interpreter, the imports, a connect) before they can fire: the
        # shared schedule starts twice that long from now.  A worker that is
        # later still fires what is already due at once.
        start = 0.0 if spec.workers == 1 else 2.0 * (time.perf_counter() - started)
        epoch = loop.time()
        # Each replica rebases its clock to the epoch and arms its own points.
        arm = {"kind": "arm", "epoch": epoch, "points": [vars(p) for p in spec.crash_points]}
        await control._ask_every_replica(arm, {}, STARTUP_TIMEOUT)
        jobs = [(spec, worker, ports, epoch, start) for worker in range(spec.workers)]
        if spec.workers == 1:
            parts = [await _client_routine(*jobs[0])]
        else:
            try:
                parts = await loop.run_in_executor(
                    None, run_chunked, _client_worker, jobs, spec.workers
                )
            except WorkerFailure as exc:
                failure = str(exc)
        # The message bill, the replica-side transport counters and the
        # consensus logs are the replica servers' own, a crashed replica's
        # included, drained over the control connections; each sends as its pid.
        replies = await _drain_settled(control)
        stats = merge_network_stats([
            # A JSON frame's keys are strings: per_sender's are pids.
            dict(reply, per_sender={int(pid): sent for pid, sent in reply["per_sender"].items()})
            for _replica, reply in sorted(replies.items())
        ])

    result = merged_result(
        spec,
        parts,
        started,
        stats=stats,
        # One replica process is replica r of every shard: that is what crashed.
        crashed=[
            (s, r) for s in range(spec.num_shards) for r, reply in sorted(replies.items())
            if reply["crashed"]
        ],
        invariants=consensus_audit(replies),
        virtual_makespan=None,
        failure=failure,
    )
    result.metrics["transport"] = control.transport_summary(
        [row for part in parts for row in part["transport"]], result.completed
    )
    return result
