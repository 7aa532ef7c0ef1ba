"""TCP transport: server processes, connection pool, remote server proxies.

The parent spawns one OS process per staging server
(:mod:`repro.net.tcpserver` is the process body) and talks to each over
pooled TCP connections with length-prefixed frames. ``group.servers`` is
populated with :class:`RemoteServer` proxies exposing the exact
:class:`~repro.staging.server.StagingServer` method surface, so the client,
resilience, checkpoint, and runtime layers run unmodified.

Wire-failure → staging-error mapping (the contract that keeps ``_server_op``
retries, ``GroupHealth`` mark-down, degraded reads, and ``rebuild_server``
working unchanged over sockets; table reproduced in DESIGN.md §13):

    ==============================  ==============================  =========
    wire failure                    mapped exception                retried?
    ==============================  ==============================  =========
    connect refused                 ServerUnavailable               no
    connect/recv timeout            TransientServerError            yes
    connection reset / broken pipe  ServerUnavailable               no
    clean EOF mid-conversation      ServerUnavailable               no
    short read (torn frame)         ServerUnavailable               no
    malformed frame / oversize      ServerUnavailable               no
    ==============================  ==============================  =========

Refused and reset are fail-stop (the process is gone — retrying cannot
help; rebuild can); timeouts are transient (the server may just be slow or
the packet lost). Any failed connection is discarded, never returned to the
pool: its stream position is unknowable after an error.

``put``/``put_many`` are acknowledged with ``None`` over the wire rather
than echoing the stored objects back (no group-level caller consumes them;
the inproc return values exist for direct server use). ``put_many`` and
``get_many`` are single ops — a whole multi-shard scatter/gather rides one
round trip — and :meth:`RemoteServer.pipeline` additionally packs arbitrary
op sequences into one frame (one round trip for N ops).

Connections. By default every endpoint *multiplexes*: all caller threads
share ~1 socket (``REPRO_MUX_CONNECTIONS``) through
:class:`~repro.net.mux.MuxConnection` — v2 frames with request ids, replies
demuxed by a reader thread, the calling thread's
:func:`~repro.net.mux.deadline_scope` deadline stamped into every header.
``REPRO_MUX=0`` falls back to the v1 pooled path (one lockstep socket per
concurrent caller), whose idle pool is capped (``REPRO_TCP_POOL_IDLE``,
``net.tcp.pool_idle`` gauge) instead of growing with the historical maximum
of thread concurrency. On a mux connection a *timeout* fails only its own
request; any other wire failure retires the connection for everyone sharing
it (stream position unknowable — same rule as the pool, applied once).
"""

from __future__ import annotations

import contextlib
import os
import socket
import sys
import threading
import weakref
from time import perf_counter

from repro.errors import (
    ServerUnavailable,
    TransientServerError,
)
from repro.net.frames import WireClosed, WireError, recv_frame, send_frame, send_frame_iov
from repro.net.mux import (
    MuxConnection,
    current_deadline,
    mux_connections_per_endpoint,
    mux_enabled,
)
from repro.net.protocol import (
    decode_message,
    encode_batch_iov,
    encode_request,
    encode_request_iov,
    raise_wire_error,
    wire_error,
)
from repro.net.tcpserver import SERVER_OPS, run_server, server_config
from repro.net.transport import Transport
from repro.obs import registry as _obs
from repro.staging.server import settle_pipeline

__all__ = ["TcpTransport", "RemoteServer", "RemoteFaultHandle", "shutdown_all"]

_REQUESTS = _obs.counter("net.tcp.requests")
_REQ_SECONDS = _obs.histogram("net.tcp.request.seconds")
_BYTES_SENT = _obs.counter("net.tcp.bytes_sent")
_BYTES_RECEIVED = _obs.counter("net.tcp.bytes_received")
_CONNECTS = _obs.counter("net.tcp.connects")
_WIRE_ERRORS = _obs.counter("net.tcp.wire_errors")
_BATCH_SIZE = _obs.histogram("net.tcp.batch.size")
_SPAWNS = _obs.counter("net.tcp.server_spawns")
_SPAWN_SECONDS = _obs.histogram("net.tcp.spawn.seconds")

#: Seconds to wait for a response before declaring the request transient.
#: Generous: a slow-faulted server must look *slow*, not failed, exactly as
#: it does in-process (where the caller simply blocks).
REQUEST_TIMEOUT = float(os.environ.get("REPRO_TCP_TIMEOUT", "") or 30.0)
CONNECT_TIMEOUT = float(os.environ.get("REPRO_TCP_CONNECT_TIMEOUT", "") or 5.0)
SPAWN_TIMEOUT = 60.0
#: Max idle sockets an endpoint's v1 pool retains; overflow is closed on
#: return. Before the cap the pool grew to the historical max of concurrent
#: callers and never shrank.
POOL_MAX_IDLE = int(os.environ.get("REPRO_TCP_POOL_IDLE", "") or 8)
#: Hard ceiling on concurrently checked-out v1 sockets per endpoint
#: (0 = unlimited). At the cap, borrowers block until a socket comes back —
#: the lockstep path's socket count becomes a real budget (fd limits,
#: equal-socket comparisons against the one-socket mux path) instead of
#: scaling with caller concurrency.
POOL_CAP_ENV = "REPRO_TCP_POOL_CAP"

_POOL_IDLE = _obs.gauge("net.tcp.pool_idle")

_mp_lock = threading.Lock()
_mp_ctx = None

# Every live transport, so test harnesses can reap leaked server processes
# (fixtures create hundreds of short-lived groups and never close them).
_live_transports: weakref.WeakSet = weakref.WeakSet()


def _context():
    """The multiprocessing context, created once per process.

    forkserver + preloading the server module makes each spawn a cheap fork
    of an already-warm interpreter (numpy and the staging stack imported
    once) while staying safe in this thread-heavy parent. Falls back to
    spawn where forkserver is unsupported.
    """
    global _mp_ctx
    if _mp_ctx is None:
        with _mp_lock:
            if _mp_ctx is None:
                import multiprocessing

                try:
                    ctx = multiprocessing.get_context("forkserver")
                    ctx.set_forkserver_preload(["repro.net.tcpserver"])
                except ValueError:
                    ctx = multiprocessing.get_context("spawn")
                _mp_ctx = ctx
    return _mp_ctx


def _map_wire_error(exc: BaseException, server_id: int):
    """Translate a socket/framing failure into the staging error taxonomy."""
    _WIRE_ERRORS.inc()
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return TransientServerError(server_id, f"tcp timeout: {exc}")
    # Refused, reset, broken pipe, clean EOF, torn frame, malformed stream:
    # the server process (or its stream) is gone — fail-stop.
    return ServerUnavailable(server_id, f"tcp failure: {type(exc).__name__}: {exc}")


class _Endpoint:
    """One server process + a pool of connections to it."""

    def __init__(self, server_id: int, process, port: int) -> None:
        self.server_id = server_id
        self.process = process
        self.port = port
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False
        cap = int(os.environ.get(POOL_CAP_ENV, "") or 0)
        self._pool_sem = threading.BoundedSemaphore(cap) if cap > 0 else None
        # Mux mode (the default): every caller thread shares these few
        # connections; the v1 pool above stays empty. Resolved per endpoint
        # so tests/benchmarks can flip REPRO_MUX between groups.
        self._mux = mux_enabled()
        self._mux_target = mux_connections_per_endpoint()
        self._mux_conns: list[MuxConnection] = []
        self._mux_rr = 0

    # ------------------------------------------------------------- sockets

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=CONNECT_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(REQUEST_TIMEOUT)
        _CONNECTS.inc()
        return sock

    def _borrow(self) -> socket.socket:
        if self._pool_sem is not None:
            self._pool_sem.acquire()
        try:
            with self._lock:
                if self._closed:
                    raise ServerUnavailable(self.server_id, "transport closed")
                if self._idle:
                    sock = self._idle.pop()
                    _POOL_IDLE.add(-1)
                    return sock
            return self._dial()
        except BaseException:
            if self._pool_sem is not None:
                self._pool_sem.release()
            raise

    def _give_back(self, sock: socket.socket) -> None:
        self._discard(sock, reuse=True)

    def _discard(self, sock: socket.socket, reuse: bool) -> None:
        """Finish a borrow: pool the socket (idle cap) or close it.

        ``reuse=False`` marks a stream whose state is unknowable (any wire
        failure) — closed, never pooled. Either way the borrow accounted
        against ``REPRO_TCP_POOL_CAP`` is released.
        """
        try:
            if reuse:
                with self._lock:
                    if not self._closed and len(self._idle) < POOL_MAX_IDLE:
                        self._idle.append(sock)
                        _POOL_IDLE.add(1)
                        return
            sock.close()
        finally:
            if self._pool_sem is not None:
                self._pool_sem.release()

    def _mux_conn(self) -> MuxConnection:
        """A live shared connection (round-robin over ``_mux_target``)."""
        with self._lock:
            if self._closed:
                raise ServerUnavailable(self.server_id, "transport closed")
            live = [c for c in self._mux_conns if not c.dead]
            if len(live) < self._mux_target:
                self._mux_conns = live  # drop dead ones
            else:
                self._mux_rr = (self._mux_rr + 1) % len(live)
                return live[self._mux_rr]
        # Dial outside the lock (connect can block); concurrent first
        # callers may race here, so re-check before keeping the new conn.
        conn = MuxConnection(self._dial(), self.server_id)
        with self._lock:
            if self._closed:
                conn.close()
                raise ServerUnavailable(self.server_id, "transport closed")
            live = [c for c in self._mux_conns if not c.dead]
            if len(live) < self._mux_target:
                live.append(conn)
                self._mux_conns = live
                return conn
            self._mux_conns = live
            winner = live[self._mux_rr % len(live)]
        conn.close()  # lost the race: someone else filled the slot
        return winner

    def _retire_mux_conn(self, conn: MuxConnection) -> None:
        with self._lock:
            if conn in self._mux_conns:
                self._mux_conns.remove(conn)
        conn.close()

    # ------------------------------------------------------------- requests

    def _round_trip(self, parts: list, array_source=None) -> tuple:
        """Send one iovec frame, receive and decode the reply.

        Raises only *wire-mapped* staging errors; a decoded reply — success
        or a typed ``("err", ...)`` — is returned as-is, so subclasses can
        distinguish "the server answered" (segment safely recyclable) from
        "the wire failed" (segment state unknowable) before unpacking.
        Replies decode with ``copy_arrays=False``: arrays are views over the
        private, writable reply buffer (or, via ``array_source``, over a
        granted shared segment) — every consumer either copies into its own
        destination or may treat the buffer as owned.
        """
        t0 = perf_counter()
        if self._mux:
            return self._round_trip_mux(parts, array_source, t0)
        try:
            sock = self._borrow()
        except (OSError, WireError) as exc:
            raise _map_wire_error(exc, self.server_id) from exc
        try:
            sent = send_frame_iov(sock, parts)
            reply = recv_frame(sock)
        except (OSError, WireError) as exc:
            self._discard(sock, reuse=False)
            raise _map_wire_error(exc, self.server_id) from exc
        try:
            msg = decode_message(
                reply, array_source=array_source, copy_arrays=False
            )
        except WireError as exc:
            self._discard(sock, reuse=False)
            raise _map_wire_error(exc, self.server_id) from exc
        self._give_back(sock)
        _REQUESTS.inc()
        _BYTES_SENT.inc(sent + 4)
        _BYTES_RECEIVED.inc(len(reply) + 4)
        _REQ_SECONDS.record(perf_counter() - t0)
        return msg

    def _round_trip_mux(self, parts: list, array_source, t0: float) -> tuple:
        """The multiplexed round trip: v2 frame, per-request future.

        The reply payload is decoded *here*, on the caller's thread — never
        in the reader — because decoding may resolve SegRefs through a
        per-request ``array_source``. A timeout keeps the connection (only
        this request is abandoned; its late reply is dropped by id); every
        other wire failure retires the shared connection.
        """
        from time import time as _now

        deadline = current_deadline()
        timeout = REQUEST_TIMEOUT
        if deadline:
            timeout = max(0.05, min(timeout, deadline - _now()))
        conn = None
        sent = sum(len(p) for p in parts)
        try:
            conn = self._mux_conn()
            reply = conn.call(parts, deadline=deadline, timeout=timeout)
        except (OSError, WireError) as exc:
            if conn is not None and not isinstance(exc, (socket.timeout, TimeoutError)):
                self._retire_mux_conn(conn)
            raise _map_wire_error(exc, self.server_id) from exc
        try:
            msg = decode_message(reply, array_source=array_source, copy_arrays=False)
        except WireError as exc:
            self._retire_mux_conn(conn)
            raise _map_wire_error(exc, self.server_id) from exc
        _REQUESTS.inc()
        _BYTES_SENT.inc(sent + 20)
        _BYTES_RECEIVED.inc(len(reply) + 20)
        _REQ_SECONDS.record(perf_counter() - t0)
        return msg

    def _unpack_response(self, msg: tuple):
        if msg[0] == "ok":
            return msg[1]
        if msg[0] == "err":
            raise_wire_error(msg[1], msg[2], msg[3])
        raise _map_wire_error(
            WireClosed(f"unexpected reply tag {msg[0]!r}"), self.server_id
        )

    def request(self, op: str, args: tuple):
        return self._unpack_response(self._round_trip(encode_request_iov(op, args)))

    def request_batch(self, requests: list[tuple[str, tuple]], outcomes: bool = False) -> list:
        """Pipeline N ops in one frame; returns per-op slots in order.

        Every op runs server-side even if an earlier one failed (batches
        are pipelines, not transactions). ``outcomes`` selects the slot
        shape, as in :func:`~repro.staging.server.settle_pipeline`: each
        slot's value or typed error, or values with the first error raised.
        A failure of the whole frame (wire error, shed batch) always raises.
        """
        _BATCH_SIZE.record(len(requests))
        parts = encode_batch_iov([("req", op, args) for op, args in requests])
        return self._unpack_batch(self._round_trip(parts), outcomes)

    def _unpack_batch(self, msg: tuple, outcomes: bool) -> list:
        if msg[0] != "batch_ok":
            if msg[0] == "err":
                raise_wire_error(msg[1], msg[2], msg[3])
            raise _map_wire_error(
                WireClosed(f"unexpected reply tag {msg[0]!r}"), self.server_id
            )
        slots = [
            item[1] if item[0] == "ok" else wire_error(item[1], item[2], item[3])
            for item in msg[1]
        ]
        return settle_pipeline(slots, outcomes)

    # ------------------------------------------------------------ lifecycle

    def close(self, *, shutdown_op: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            mux_conns, self._mux_conns = self._mux_conns, []
        _POOL_IDLE.add(-len(idle))
        if shutdown_op:
            try:
                sock = idle.pop() if idle else self._dial()
                sock.settimeout(1.0)
                send_frame(sock, encode_request("admin:shutdown", ()))
                recv_frame(sock)
                sock.close()
            except (OSError, WireError):
                pass
        # The server drains admitted requests before exiting; wait for their
        # replies to land so concurrent callers finish cleanly instead of
        # seeing the socket die under them.
        for conn in mux_conns:
            conn.drain(timeout=5.0)
            conn.close()
        for sock in idle:
            sock.close()
        proc = self.process
        if proc is not None:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            self.process = None


class _RemoteStore:
    """Control-plane facade over the server process's ObjectStore.

    Mirrors the store attributes tests and the checkpointer read on local
    servers (``object_count``, ``fragments``, ``clear``, ...); all calls
    dispatch against the *unwrapped* server, matching ``FaultyServer``'s
    control-plane passthrough.
    """

    def __init__(self, endpoint: _Endpoint) -> None:
        self._endpoint = endpoint

    @property
    def object_count(self) -> int:
        return self._endpoint.request("admin:store", ("object_count", ()))

    @property
    def nbytes(self) -> int:
        return self._endpoint.request("admin:store", ("nbytes", ()))

    def fragments(self, name: str, version: int):
        return self._endpoint.request("admin:store", ("fragments", (name, version)))

    def fragment_count(self, name: str, version: int) -> int:
        return self._endpoint.request(
            "admin:store", ("fragment_count", (name, version))
        )

    def versions(self, name: str):
        return self._endpoint.request("admin:store", ("versions", (name,)))

    def keys(self):
        return self._endpoint.request("admin:store", ("keys", ()))

    def latest_version(self, name: str):
        return self._endpoint.request("admin:store", ("latest_version", (name,)))

    def clear(self) -> None:
        return self._endpoint.request("admin:store", ("clear", ()))


class RemoteServer:
    """Client-side proxy for one staging-server process.

    Drop-in for :class:`~repro.staging.server.StagingServer` inside
    ``StagingGroup.servers``: the full method surface plus the control-plane
    attributes the runtime and tests touch (``store`` facade, ``inner``
    — itself, faults live server-side — and ``heal``).
    """

    def __init__(self, endpoint: _Endpoint) -> None:
        self._endpoint = endpoint
        self.server_id = endpoint.server_id
        self.lock = threading.RLock()  # parity with StagingServer.lock
        self.store = _RemoteStore(endpoint)
        # Set by the transport's fault hook (shared RemoteFaultHandle),
        # mirroring FaultyServer.injector.
        self.injector = None

    @property
    def inner(self) -> "RemoteServer":
        # Fault state lives in the server process; the proxy is its own
        # control-plane view (``server.inner.store...`` in tests).
        return self

    def heal(self) -> None:
        self._endpoint.request("admin:heal", ())

    @property
    def crashed(self) -> bool:
        """Whether a crash fault is active in the server process (parity
        with ``FaultyServer.crashed``; False when no faults are installed)."""
        status = self._endpoint.request("admin:fault_status", ())
        return bool(status and status["crashed"])

    @property
    def op_count(self) -> int:
        """Data-path ops the server-side fault wrapper has counted."""
        status = self._endpoint.request("admin:fault_status", ())
        return status["op_count"] if status else 0

    def ping(self) -> bool:
        return self._endpoint.request("admin:ping", ()) == "pong"

    def pipeline(self, requests: list[tuple[str, tuple]], *, outcomes: bool = False) -> list:
        """Run N ops in one round trip (see ``_Endpoint.request_batch``)."""
        return self._endpoint.request_batch(requests, outcomes)

    @property
    def nbytes(self) -> int:
        return self._endpoint.request("nbytes", ())

    @property
    def protection_nbytes(self) -> int:
        return self._endpoint.request("protection_nbytes", ())

    def __repr__(self) -> str:
        return f"RemoteServer(id={self.server_id}, port={self._endpoint.port})"


def _make_op(op: str):
    def call(self, *args):
        return self._endpoint.request(op, args)

    call.__name__ = op
    call.__qualname__ = f"RemoteServer.{op}"
    call.__doc__ = f"Remote `StagingServer.{op}` (one round trip)."
    return call


for _op in sorted(SERVER_OPS):
    setattr(RemoteServer, _op, _make_op(_op))
del _op


class RemoteFaultHandle:
    """Client-side view of fault injectors living in the server processes.

    Mirrors the :class:`~repro.faults.plan.FaultInjector` read API
    (``fired``, ``pending_count``, ``pending_for``) by querying each server
    process, so callers like the recovery soak's ``injector.fired`` check
    work identically over TCP.
    """

    def __init__(self, transport: "TcpTransport") -> None:
        self._transport = transport

    def _statuses(self) -> list[dict]:
        out = []
        for endpoint in self._transport.endpoints():
            try:
                status = endpoint.request("admin:fault_status", ())
            except (ServerUnavailable, TransientServerError):
                continue  # a crashed *process* has no faults left to report
            if status is not None:
                out.append(status)
        return out

    @property
    def fired(self) -> list:
        return [plan for s in self._statuses() for plan in s["fired"]]

    @property
    def pending_count(self) -> int:
        return sum(len(s["pending"]) for s in self._statuses())

    def pending_for(self, server: int) -> list:
        return [
            p for s in self._statuses() for p in s["pending"] if p.server == server
        ]


class TcpTransport(Transport):
    """One server process per staging server, reached over pooled TCP."""

    name = "tcp"
    remote = True

    def __init__(self) -> None:
        self._endpoints: dict[int, _Endpoint] = {}
        self._lock = threading.Lock()
        self._closed = False
        _live_transports.add(self)
        # Last-resort reaper if the transport is dropped without close();
        # holds only the endpoint dict, never the transport itself.
        self._finalizer = weakref.finalize(self, _close_endpoints, self._endpoints)

    # -------------------------------------------------------------- spawning

    @staticmethod
    @contextlib.contextmanager
    def _spawnable_main():
        """Hide ``__main__`` from multiprocessing's child bootstrap.

        Spawn-family start methods re-import the parent's main module in
        every child — pointless here (the server body is the importable
        :func:`repro.net.tcpserver.run_server`, and no argument references
        main-module state) and actively harmful for unguarded scripts and
        stdin/REPL sessions, where the re-import re-creates the staging
        group recursively. Swapping in an anonymous main for the duration
        of ``Process.start()`` makes the bootstrap skip main fixup.
        """
        import types

        with _mp_lock:
            real_main = sys.modules.get("__main__")
            sys.modules["__main__"] = types.ModuleType("__main__")
            try:
                yield
            finally:
                if real_main is not None:
                    sys.modules["__main__"] = real_main

    def _spawn(self, server_id: int) -> _Endpoint:
        t0 = perf_counter()
        ctx = _context()
        port_rx, port_tx = ctx.Pipe(duplex=False)
        # Event-loop sizing is resolved *here*, in the parent: forkserver
        # children snapshot the forkserver's environment at its creation, so
        # REPRO_SERVER_QUEUE set after import would never reach the child as
        # an env var. Shipping it as an argument always works.
        proc = ctx.Process(
            target=run_server,
            args=(server_id, port_tx, server_config()),
            daemon=True,
            name=f"staging-server-{server_id}",
        )
        with self._spawnable_main():
            proc.start()
        port_tx.close()
        if not port_rx.poll(SPAWN_TIMEOUT):
            proc.terminate()
            raise ServerUnavailable(server_id, "server process never reported a port")
        port = port_rx.recv()
        port_rx.close()
        _SPAWNS.inc()
        _SPAWN_SECONDS.record(perf_counter() - t0)
        return self._make_endpoint(server_id, proc, port)

    def _make_endpoint(self, server_id: int, process, port: int) -> _Endpoint:
        """Endpoint factory — the shm transport swaps in its pooled variant."""
        return _Endpoint(server_id, process, port)

    # ------------------------------------------------------------- Transport

    def make_servers(self, num_servers: int) -> list[RemoteServer]:
        with self._lock:
            if self._closed:
                raise ServerUnavailable(-1, "transport closed")
            servers = []
            for i in range(num_servers):
                endpoint = self._spawn(i)
                self._endpoints[i] = endpoint
                servers.append(RemoteServer(endpoint))
            return servers

    def make_replacement(self, server_id: int) -> RemoteServer:
        """A fresh, empty server process for ``server_id``.

        The lost server's process is retired (killed if still running): a
        rebuild models replacing dead hardware, and a truly wedged process
        must not linger holding its port.
        """
        with self._lock:
            if self._closed:
                raise ServerUnavailable(server_id, "transport closed")
            old = self._endpoints.pop(server_id, None)
            if old is not None:
                old.close()
            endpoint = self._spawn(server_id)
            self._endpoints[server_id] = endpoint
            return RemoteServer(endpoint)

    def inject_faults(self, plans, rng=None):
        """Ship each server's plans into its process; return the shared handle."""
        for endpoint in self.endpoints():
            server_plans = [p for p in plans if p.server == endpoint.server_id]
            gen = (
                rng.get(f"faults.corrupt.{endpoint.server_id}")
                if rng is not None
                else None
            )
            endpoint.request("admin:install_faults", (server_plans, gen))
        return RemoteFaultHandle(self)

    def endpoints(self) -> list[_Endpoint]:
        with self._lock:
            return list(self._endpoints.values())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            endpoints, self._endpoints = dict(self._endpoints), {}
        for endpoint in endpoints.values():
            endpoint.close()
        self._finalizer.detach()


def _close_endpoints(endpoints: dict) -> None:
    for endpoint in list(endpoints.values()):
        try:
            endpoint.close(shutdown_op=False)
        except Exception:
            pass


def shutdown_all() -> None:
    """Close every live TcpTransport (test-harness reaper)."""
    for transport in list(_live_transports):
        transport.close()
