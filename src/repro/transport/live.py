"""Live transport backend: asyncio TCP sockets on a loopback cluster.

The same register algorithms that run on the virtual-time simulator run
here over real sockets, unmodified:

* each **replica server** is its own OS process (``multiprocessing`` spawn)
  running an asyncio event loop; per-key
  :class:`~repro.registers.base.RegisterProcess` instances are created
  lazily on first touch, exactly like the simulated store's subnets;
* replica-to-replica protocol traffic and client invocations travel as
  length-prefixed frames (:mod:`repro.transport.framing`) whose bodies are
  encoded by the one struct-packed wire codec
  (:mod:`repro.transport.codec_binary`); the JSON ``hello`` handshake that
  opens every connection compares the two ends' schema signatures, and a
  mismatch is refused with both signatures in the error;
* every connection runs a :class:`~repro.transport.framing.BatchWriter`
  (concurrent sends coalesce into one ``write()``/``drain()`` per flush)
  and a chunked read loop feeding a cursor
  :class:`~repro.transport.framing.FrameDecoder`, with per-connection
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

Failure semantics: live connections either work or the run fails loudly —
a dropped connection, a codec error or a deadline overrun marks the
affected operations failed and ``finished_cleanly=False``; a client worker
process that raises or dies fails the run at once with its cause in
``worker_failure`` (:mod:`repro.parallel.pool`).  There is no
fault *injection* here: partitions, delay storms, scheduled crashes,
coalescing and schedule perturbation are simulated-only features (they
need a controllable clock to be reproducible).  On the wire, the paper's
asynchronous-model assumptions hold for free: TCP gives reliable
non-FIFO-across-connections delivery and the OS scheduler supplies the
(unbounded, adversarial-enough) delays.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time
from array import array
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog, encode_oplog
from repro.registers.base import OperationKind, OperationRecord
from repro.sim.network import NetworkStats
from repro.transport.base import TransportClosedError
from repro.transport.codec import CodecError
from repro.transport.codec_binary import BinaryWireCodec, schema_signature
from repro.transport.framing import (
    BatchWriter,
    FrameDecoder,
    FramingError,
    TransportStats,
    read_frame,
    read_frame_raw,
    write_frame,
)

#: Seconds allowed for cluster boot (spawn + port discovery + peer wiring).
STARTUP_TIMEOUT = 30.0

#: Floor for the completion deadline of a whole run.
MIN_RUN_TIMEOUT = 30.0

#: Socket read-chunk size: one ``read()`` returns up to this many bytes, and
#: the frame decoder pulls every whole frame out of the chunk — many frames
#: per syscall on a busy connection (counted as one inbound batch).
READ_CHUNK = 64 * 1024


# ------------------------------------------------------------------ wall clock


class WallClock:
    """The live backend's :class:`~repro.transport.base.Clock`: loop time.

    ``now`` is the asyncio event loop's monotonic time, rebased to 0 at
    construction so run timestamps read like elapsed seconds.  Timers map
    onto ``call_at``/``call_later``.  It is the whole
    :class:`~repro.transport.base.Clock` protocol and nothing more: protocol
    code asks a clock for the time and for timers, never for a log.
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

    @property
    def pending_events(self) -> int:
        """Always 0 — the wall clock does not own the event queue."""
        return 0

    def run_until(self, predicate: Callable[[], bool], limit: Any = None) -> bool:
        raise RuntimeError(
            "the wall clock cannot drive execution synchronously; "
            "live runs are driven by asyncio (see repro.transport.live)"
        )


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
    """One live socket past its handshake, with its batcher and counters."""

    __slots__ = ("reader", "writer", "stats", "batch", "label")

    #: The one wire codec (stateless, so one instance serves every connection).
    codec = BinaryWireCodec()

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, label: str
    ) -> None:
        _set_nodelay(writer)
        self.reader = reader
        self.writer = writer
        self.stats = TransportStats()
        self.batch = BatchWriter(writer, stats=self.stats).start()
        self.label = label

    def send(self, payload: Dict[str, Any]) -> None:
        """Encode and enqueue one frame (coalesced into the next flush)."""
        self.batch.send(self.codec.encode(payload))

    async def read_direct(self) -> Optional[Dict[str, Any]]:
        """Read one frame outside the chunked loop (handshake-phase only)."""
        body = await read_frame_raw(self.reader)
        if body is None:
            return None
        return self.codec.decode(body)

    def snapshot(self) -> Dict[str, Any]:
        return {"label": self.label, **self.stats.as_dict()}

    async def aclose(self) -> None:
        await self.batch.aclose()
        self.writer.close()


async def dial(port: int, label: str, **hello: Any) -> Connection:
    """Connect to a replica and shake hands; a refusal raises with its reason.

    The JSON ``hello`` carries this end's :func:`schema_signature`; the
    acceptor answers ``hello_ack`` with ``ok`` and, when it refuses, a
    ``reason`` naming both signatures.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    write_frame(writer, {"kind": "hello", "sig": schema_signature(), **hello})
    await writer.drain()
    ack = await read_frame(reader)
    if not ack or ack.get("kind") != "hello_ack" or not ack.get("ok"):
        writer.close()
        raise RuntimeError(f"{label}: handshake refused: {(ack or {}).get('reason', ack)}")
    return Connection(reader, writer, label)


# ------------------------------------------------------------- replica server


class LiveKeyNet:
    """Per-key :class:`~repro.transport.base.Transport` view on one replica.

    The register process for one key on one server sends through this
    object; sends become peer frames routed by the server's connection
    pool.  Membership is the full static replica set, message accounting
    lands in the server-wide shared :class:`NetworkStats` (mirroring how
    simulated subnets bill to their parent network).
    """

    def __init__(self, server: "_ReplicaServer", key: Any) -> None:
        self.server = server
        self.key = key
        self.name = f"live:{key}"
        self.closed = False
        self.stats = server.stats
        self.process: Any = None

    @property
    def process_ids(self) -> List[int]:
        return list(range(self.server.n))

    def register(self, process: Any) -> None:
        self.process = process

    def send(self, src: int, dst: Union[int, Sequence[int]], message: Any) -> None:
        if self.closed:
            raise TransportClosedError(f"send p{src}->p{dst} on closed live net {self.name!r}")
        dsts = (dst,) if isinstance(dst, int) else dst
        if src in dsts:
            raise ValueError(f"process p{src} attempted to send a message to itself")
        if not dsts:
            return
        self.stats.record_send(src, message, len(dsts))
        # A frame carries its ``dst``, so each destination gets its own.
        for dst in dsts:
            self.server.send_peer(
                dst,
                {"kind": "msg", "key": self.key, "src": src, "dst": dst, "msg": message},
            )

    def close(self) -> None:
        self.closed = True


class _KeyRuntime:
    """One key's register process on one replica, plus its invoke FIFO."""

    __slots__ = ("net", "process", "pending")

    def __init__(self, net: LiveKeyNet, process: Any) -> None:
        self.net = net
        self.process = process
        #: Queued client invokes: (op_id, kind, value, reply connection).
        self.pending: deque = deque()


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
        self.stats = NetworkStats()
        self.keys: Dict[Any, _KeyRuntime] = {}
        self.peer_ports: Dict[int, int] = {}
        self.peers_known = asyncio.Event()
        self.shutdown = asyncio.Event()
        #: Why this replica stopped serving, when it was not asked to.
        self.failure: Optional[BaseException] = None
        self._peer_queues: Dict[int, asyncio.Queue] = {}
        self._peer_conns: Dict[int, Connection] = {}
        self._accepted: List[Connection] = []
        self._tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------- registers

    def runtime_for(self, key: Any) -> _KeyRuntime:
        runtime = self.keys.get(key)
        if runtime is None:
            net = LiveKeyNet(self, key)
            process = self.algorithm.process_factory(
                pid=self.replica_id,
                simulator=self.clock,
                network=net,
                writer_pid=0,
                t=(self.n - 1) // 2,
                initial_value=self.initial_value,
            )
            process.finish_setup()
            runtime = self.keys[key] = _KeyRuntime(net, process)
        return runtime

    # ---------------------------------------------------------- peer sending

    def send_peer(self, dst: int, payload: Dict[str, Any]) -> None:
        conn = self._peer_conns.get(dst)
        if conn is not None:
            # Steady state: straight into the connection's BatchWriter — no
            # queue hop, no writer-task wakeup per message.
            conn.send(payload)
            return
        queue = self._peer_queues.get(dst)
        if queue is None:
            queue = self._peer_queues[dst] = asyncio.Queue()
            self._tasks.append(asyncio.ensure_future(self._peer_writer(dst, queue)))
        queue.put_nowait(payload)

    async def _peer_writer(self, dst: int, queue: asyncio.Queue) -> None:
        """Dial ``dst`` once the port map is known, drain the backlog, hand off.

        Messages sent before the link is up buffer in ``queue``; once the
        handshake finishes this task drains the backlog in FIFO order and
        then publishes the connection for :meth:`send_peer`'s direct path.
        The drain loop is purely synchronous, so no new message can slip in
        between the final ``queue.empty()`` check and the publish.
        """
        await self.peers_known.wait()
        try:
            conn = await dial(
                self.peer_ports[dst], f"peer->{dst}", role="peer", src=self.replica_id
            )
        except (OSError, RuntimeError, FramingError) as exc:
            # Without this link the queue would grow forever and the protocol
            # stall in silence: stop serving, and exit with the cause.
            self.failure = exc
            self.shutdown.set()
            return
        while not queue.empty():
            conn.send(queue.get_nowait())
        self._peer_conns[dst] = conn

    # ------------------------------------------------------------ connections

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn: Optional[Connection] = None
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                return
            mine = schema_signature()
            ack = {"kind": "hello_ack", "replica": self.replica_id, "ok": hello.get("sig") == mine}
            if not ack["ok"]:
                # One codec, no fallback: a dialer built from another message
                # registry is refused, and told why.
                ack["reason"] = (
                    f"schema signature mismatch: dialer offers {hello.get('sig')!r}, "
                    f"replica {self.replica_id} has {mine!r}"
                )
            write_frame(writer, ack)
            await writer.drain()
            if not ack["ok"]:
                return
            if hello.get("role") == "peer":
                label = f"peer<-{hello.get('src', '?')}"
            else:
                label = "client"
            conn = Connection(reader, writer, label)
            self._accepted.append(conn)
            if hello.get("role") == "peer":
                await self._serve_peer(conn)
            else:
                await self._serve_client(conn)
        except (FramingError, CodecError, ConnectionError):
            # A torn connection fails the affected ops on the client side
            # (deadline); the server just drops the stream.
            pass
        except asyncio.CancelledError:
            # Process teardown: asyncio.run cancels every task, and Python
            # 3.11's streams callback logs a handler task that ends
            # *cancelled* as a spurious "Exception in callback".  The cancel
            # still stops the handler — just end it normally.
            pass
        finally:
            if conn is not None:
                try:
                    await conn.batch.aclose()
                except asyncio.CancelledError:
                    pass
            writer.close()

    async def _serve_peer(self, conn: Connection) -> None:
        decoder = FrameDecoder(raw=True)
        while True:
            chunk = await conn.reader.read(READ_CHUNK)
            if not chunk:
                return
            conn.stats.note_chunk_in(len(chunk))
            for body in decoder.feed(chunk):
                conn.stats.frames_in += 1
                frame = conn.codec.decode(body)
                runtime = self.runtime_for(frame["key"])
                runtime.process.deliver(frame["src"], frame["msg"])
                self._pump(runtime)

    async def _serve_client(self, conn: Connection) -> None:
        decoder = FrameDecoder(raw=True)
        while True:
            chunk = await conn.reader.read(READ_CHUNK)
            if not chunk:
                return
            conn.stats.note_chunk_in(len(chunk))
            for body in decoder.feed(chunk):
                conn.stats.frames_in += 1
                frame = conn.codec.decode(body)
                kind = frame.get("kind")
                if kind == "invoke":
                    runtime = self.runtime_for(frame["key"])
                    runtime.pending.append(
                        (frame["op_id"], frame["op"], frame.get("value"), conn)
                    )
                    self._pump(runtime)
                elif kind == "peers":
                    self.peer_ports = {
                        int(pid): port for pid, port in frame["ports"].items()
                    }
                    self.peers_known.set()
                    conn.send({"kind": "peers_ok", "replica": self.replica_id})
                elif kind == "stats":
                    conn.send(self._stats_reply())
                elif kind == "shutdown":
                    self.close()
                    conn.send({"kind": "bye", "replica": self.replica_id})
                    await conn.batch.aclose()
                    self.shutdown.set()
                    return

    def _stats_reply(self) -> Dict[str, Any]:
        return {
            "kind": "stats_reply",
            "replica": self.replica_id,
            "messages_sent": self.stats.messages_sent,
            "by_type": dict(self.stats.by_type),
            "keys": len(self.keys),
            "transport": self.transport_snapshot(),
        }

    def transport_snapshot(self) -> List[Dict[str, Any]]:
        """Per-connection byte/frame/batch counters, inbound and outbound."""
        conns = self._accepted + [
            self._peer_conns[dst] for dst in sorted(self._peer_conns)
        ]
        return [conn.snapshot() for conn in conns]

    # ---------------------------------------------------------------- invokes

    def _pump(self, runtime: _KeyRuntime) -> None:
        """Issue queued invokes while the (sequential) register process is free."""
        process = runtime.process
        while runtime.pending:
            current = process.current_operation
            if current is not None and not current.completed:
                return  # busy; the completion callback pumps again
            op_id, op, value, reply_conn = runtime.pending.popleft()

            def finish(record: OperationRecord, op_id: int = op_id, c=reply_conn) -> None:
                c.send(
                    {"kind": "result", "op_id": op_id, "ok": True, "value": record.result}
                )

            try:
                if op == "write":
                    process.invoke_write(value, finish)
                elif op == "read":
                    process.invoke_read(finish)
                else:
                    # Consensus-object kinds (cas/tas/incr).  JSON decoding
                    # turns tuple arguments into lists; the SMR objects
                    # unpack positionally, so the shapes agree.
                    process.invoke_operation(OperationKind(op), value, finish)
            except Exception as exc:  # wrong-writer routing, crashed process, ...
                reply_conn.send(
                    {"kind": "result", "op_id": op_id, "ok": False, "error": str(exc)}
                )

    # --------------------------------------------------------------- teardown

    def close(self) -> None:
        for runtime in self.keys.values():
            runtime.net.close()
        for task in self._tasks:
            task.cancel()


def replica_main(
    replica_id: int,
    n: int,
    algorithm_name: str,
    initial_value: Any,
    port_queue: Any,
) -> None:
    """Entry point of one replica server process (multiprocessing spawn)."""
    import os

    def serve() -> None:
        asyncio.run(_replica_async_main(replica_id, n, algorithm_name, initial_value, port_queue))

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


async def _replica_async_main(
    replica_id: int,
    n: int,
    algorithm_name: str,
    initial_value: Any,
    port_queue: Any,
) -> None:
    server = _ReplicaServer(replica_id, n, algorithm_name, initial_value)
    tcp_server = await asyncio.start_server(server.handle_connection, "127.0.0.1", 0)
    port = tcp_server.sockets[0].getsockname()[1]
    port_queue.put((replica_id, port))
    async with tcp_server:
        await server.shutdown.wait()
        # Give in-flight result frames a beat to flush before the loop dies.
        await asyncio.sleep(0.05)
    if server.failure is not None:
        raise server.failure


# --------------------------------------------------------------- cluster boot


class LiveCluster:
    """Boot/teardown of one loopback replica cluster (spawned processes).

    The only process spawn under :mod:`repro.transport`: client worker
    processes go through :mod:`repro.parallel.pool`.
    """

    def __init__(self, n: int, algorithm: str, initial_value: Any) -> None:
        self.n = n
        self.algorithm = algorithm
        self.initial_value = initial_value
        self.servers: List[Any] = []
        self.ports: Dict[int, int] = {}

    async def start(self) -> Dict[int, int]:
        """Spawn the replica processes and collect their listen ports."""
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        port_queue = ctx.Queue()
        self.servers = [
            ctx.Process(
                target=replica_main,
                args=(replica, self.n, self.algorithm, self.initial_value, port_queue),
                daemon=True,
            )
            for replica in range(self.n)
        ]
        for server in self.servers:
            server.start()
        loop = asyncio.get_running_loop()
        boot_deadline = time.monotonic() + STARTUP_TIMEOUT
        while len(self.ports) < self.n:
            budget = boot_deadline - time.monotonic()
            if budget <= 0:
                raise RuntimeError(
                    f"cluster boot timed out; got ports for {sorted(self.ports)}"
                )
            try:
                # Short poll chunks so a replica that died on startup fails
                # the boot in well under a second, not after the full budget.
                replica, port = await loop.run_in_executor(
                    None, port_queue.get, True, min(0.25, budget)
                )
            except Exception:  # queue.Empty on poll timeout
                dead = [
                    i
                    for i, server in enumerate(self.servers)
                    if server.exitcode is not None and i not in self.ports
                ]
                if dead:
                    raise RuntimeError(
                        f"replica server(s) {dead} died during cluster boot "
                        f"(exit codes {[self.servers[i].exitcode for i in dead]}). "
                        "Live clusters use multiprocessing spawn: the parent's "
                        "__main__ must be importable (run from a script file, "
                        "the CLI or pytest — not a stdin/REPL session) and the "
                        "algorithm name must exist in the registry."
                    ) from None
                continue
            self.ports[replica] = port
        return dict(self.ports)

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

    The connection half (``connect`` / ``wire_peers`` / ``start_readers`` /
    ``pending`` / ``drain_stats`` / ``close``) is all a caller with its own
    bookkeeping needs.  The recording half — :meth:`fire`,
    :meth:`fire_open_loop`, :meth:`settle` — is what the client routine of
    :func:`run_live_workload` runs on: it logs every operation into ``oplog``
    / ``metrics`` with client-observed wall timestamps, stamping completion
    *when the result frame arrives*.
    """

    def __init__(self, epoch: Optional[float] = None) -> None:
        self.conns: Dict[int, Connection] = {}
        self.pending: Dict[int, Any] = {}
        self.stats_replies: Dict[int, Dict[str, Any]] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self.oplog = OpLog()
        self.metrics = MetricsCollector(wall_clock=True)
        #: Set by :meth:`connect`; ``epoch`` shares a time base across processes.
        self.clock: Optional[WallClock] = None
        self._epoch = epoch
        self._op_ids = itertools.count()
        self._read_turn: Dict[Any, int] = {}
        self._replica_ops: Dict[int, int] = {}

    async def connect(self, ports: Dict[int, int]) -> None:
        self.clock = WallClock(asyncio.get_running_loop(), epoch=self._epoch)
        for replica, port in sorted(ports.items()):
            self.conns[replica] = await dial(port, f"->r{replica}", role="client")

    async def wire_peers(self, ports: Dict[int, int]) -> None:
        """Distribute the port map; every replica must ack before ops flow."""
        payload = {"kind": "peers", "ports": {str(pid): port for pid, port in ports.items()}}
        for replica, conn in self.conns.items():
            conn.send(payload)
            ack = await conn.read_direct()
            if not ack or ack.get("kind") != "peers_ok":
                raise RuntimeError(f"replica {replica} failed the peers handshake: {ack}")

    def start_readers(self) -> None:
        for replica, conn in self.conns.items():
            self._reader_tasks.append(
                asyncio.ensure_future(self._read_loop(replica, conn))
            )

    async def _read_loop(self, replica: int, conn: Connection) -> None:
        decoder = FrameDecoder(raw=True)
        try:
            while True:
                chunk = await conn.reader.read(READ_CHUNK)
                if not chunk:
                    return
                conn.stats.note_chunk_in(len(chunk))
                for body in decoder.feed(chunk):
                    conn.stats.frames_in += 1
                    frame = conn.codec.decode(body)
                    kind = frame.get("kind")
                    if kind == "result":
                        op = self.pending.pop(frame["op_id"], None)
                        if op is not None and not op.future.done():
                            op.future.set_result(frame)
                    elif kind == "stats_reply":
                        self.stats_replies[replica] = frame
        except (FramingError, CodecError, ConnectionError):
            return

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
        if kind is OperationKind.WRITE:
            replica = 0
        else:
            turn = self._read_turn.get(key, 0)
            self._read_turn[key] = turn + 1
            replica = turn % len(self.conns)
        session_op = 0  # an explicit pid is a one-operation session
        if pid is None:
            pid = replica
            session_op = self._replica_ops.get(replica, 0)
            self._replica_ops[replica] = session_op + 1
        op_id = next(self._op_ids)
        now = self.clock.now
        row = self.oplog.note_created(kind, key, value)
        self.oplog.note_submitted(row, now)
        record = OperationRecord(op_id=session_op, pid=pid, kind=kind, value=value, invoked_at=now)
        self.oplog.note_issued(row, record)
        self.metrics.note_issued(now)
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
            self.metrics.note_completed(record.kind, now - record.invoked_at, now)
            return
        reason = (frame or {}).get("error", "no response before deadline")
        self.oplog.note_failed(pending.row, reason)
        self.metrics.note_failed()

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

        Returns ``True`` when every operation completed.
        """
        waiting = [pending.future for pending in fired if not pending.future.done()]
        if waiting:
            _done, late = await asyncio.wait(waiting, timeout=max(0.001, timeout))
            for future in late:
                future.cancel()
            if late:
                await asyncio.sleep(0)  # run the cancelled futures' callbacks
        return all(pending.record.completed for pending in fired)

    async def drain_stats(self, timeout: float = 5.0) -> int:
        """Ask every replica for its counters; returns total protocol messages."""
        for conn in self.conns.values():
            conn.send({"kind": "stats"})
        deadline = time.monotonic() + timeout
        while len(self.stats_replies) < len(self.conns) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return sum(
            reply.get("messages_sent", 0) for reply in self.stats_replies.values()
        )

    def transport_summary(
        self, client_rows: List[Dict[str, Any]], completed: int
    ) -> Dict[str, Any]:
        """Metrics-snapshot section: per-connection counters + derived rates.

        ``client_rows`` are the load-carrying clients' connection snapshots;
        the replica side is what :meth:`drain_stats` collected here.
        """
        replica_rows: Dict[str, List[Dict[str, Any]]] = {
            str(replica): reply.get("transport", [])
            for replica, reply in sorted(self.stats_replies.items())
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
        for conn in self.conns.values():
            if send_shutdown:
                try:
                    conn.send({"kind": "shutdown"})
                except (ConnectionError, FramingError):
                    pass
        for conn in self.conns.values():
            try:
                await conn.batch.aclose()
            except ConnectionError:
                pass
        await asyncio.sleep(0.1)  # let servers ack/flush before the sockets die
        for task in self._reader_tasks:
            task.cancel()
        for conn in self.conns.values():
            conn.writer.close()


@contextlib.asynccontextmanager
async def live_session(replicas: int, algorithm: str, initial_value: Any):
    """A booted loopback cluster plus a wired, reading :class:`LiveClient`.

    Yields ``(client, ports)``; on the way out — success or failure — the
    client sends the shutdown handshake and the replica processes are joined
    (terminated past their budget), so no path leaves a process behind.
    """
    cluster = LiveCluster(replicas, algorithm, initial_value)
    client = LiveClient()
    try:
        ports = await cluster.start()
        await client.connect(ports)
        await client.wire_peers(ports)
        client.start_readers()
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
    columnar oplog (each row's script index riding along), the raw metric
    samples and the connection counters, picklable.
    """
    from repro.parallel.merge import collector_raw_state
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
        client.start_readers()
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
        "metrics": collector_raw_state(client.metrics),
        "transport": [
            dict(client.conns[replica].snapshot(), worker=worker)
            for replica in sorted(client.conns)
        ],
        "batches": batches,
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
    with no ``store`` (the replicas live in other processes) and wall-clock
    timings; what a live run cannot do is rejected by the spec itself.
    """
    return asyncio.run(_run_live_async(spec))


async def _run_live_async(spec: Any) -> Any:
    # Like the spec's own module, the pool and the merge are the runner's:
    # replica servers load this module too, and need neither.
    from repro.parallel.merge import merge_metrics, merge_oplogs
    from repro.parallel.pool import WorkerFailure, run_chunked
    from repro.workloads.kv import KVWorkloadResult, generate_kv_arrivals

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
        # The message bill and the replica-side transport counters are the
        # replica servers' own, drained over the control connections.
        stats = NetworkStats(messages_sent=await control.drain_stats())
        for reply in control.stats_replies.values():
            for name, count in reply.get("by_type", {}).items():
                stats.by_type[name] = stats.by_type.get(name, 0) + count

    oplog, ipc_bytes = merge_oplogs([part["columnar"] for part in parts])
    metrics = merge_metrics([part["metrics"] for part in parts], stats)
    # The pooled window is wall time (shared-epoch stamps): its rate is the
    # achieved wall rate, and a virtual-time number would be meaningless.
    metrics["wall_throughput"] = metrics["virtual_throughput"]
    metrics["virtual_throughput"] = None
    metrics["transport"] = control.transport_summary(
        [row for part in parts for row in part["transport"]], metrics["completed"]
    )
    return KVWorkloadResult(
        spec=spec,
        oplog=oplog,
        ops=oplog.ops_view(),
        wall_seconds=time.perf_counter() - started,
        metrics=metrics,
        batches=max((part["batches"] for part in parts), default=0),
        arrivals=generate_kv_arrivals(spec) if spec.open_loop and parts else [],
        finished_cleanly=failure is None and metrics["failed"] == 0,
        worker_failure=failure,
        ipc_bytes=ipc_bytes if spec.workers > 1 else 0,
    )
