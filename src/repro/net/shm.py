"""Shared-memory transport: zero-copy bulk data plane, doorbell control plane.

One OS process per staging server, exactly like :class:`~repro.net.tcp.
TcpTransport` (whose spawn, admin-op, pooling, and error-mapping machinery
this module reuses wholesale) — but bulk ndarray payloads move through
``multiprocessing.shared_memory`` segments instead of TCP frames. Only small
control messages cross the socket, which degrades into a *doorbell*:

* **put path** — the client acquires a slab from its per-endpoint
  :class:`SegmentPool`, writes each shard **once** (one strided copy from
  the caller's array straight into the segment), and sends a doorbell frame
  carrying :class:`~repro.net.codec.SegRef` tags. The server maps the
  segment and reads the shards **zero-copy** via ``np.ndarray(buffer=...)``
  views; ``ObjectStore.put`` then makes its usual single ownership copy.
* **get path** — the client grants the server a response slab sized from
  the request's descriptors. The server gathers fragments *directly into
  the slab* (``store.get(out=...)``), so the reply is one strided copy
  server-side and zero-copy views client-side; the caller's own assembly
  (``out[region] = part``) is the only other copy.

Segment lifecycle (all segments are client-owned):

* A slab is **granted** to exactly one in-flight request; the allocator
  never double-grants (property-tested under hypothesis).
* Every recycle bumps the slab's **generation**, stamped in the segment
  header; the server validates the stamp against each ref, so a stale ref
  (or a crashed peer resurrecting an old grant) is rejected instead of
  silently reading recycled bytes.
* A slab whose request failed at the *wire* level is **retired** (unlinked,
  never reused): the server may still hold a mapping and write into it, and
  orphaned memory is strictly safer than recycled memory.
* Pool exhaustion falls back to plain wire frames — shm is an optimisation,
  never a correctness dependency.
* ``close()`` unlinks every slab; an ``atexit`` guard reaps pools that were
  never closed, and the server process closes its attach cache at exit.
  ``scripts/check.sh`` additionally removes leaked ``/dev/shm/repro-shm-*``
  files after an interrupted run.

Because the doorbell is the same framed TCP channel, the whole fault
surface — admin fault injection, kill → ``ServerUnavailable``, health
mark-down, degraded reads, ``rebuild_server`` — works unchanged; see
DESIGN.md §14.
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import secrets
import struct
import threading
import weakref
from collections import deque
from multiprocessing import shared_memory

try:  # CPython's POSIX shared-memory primitive (Linux/macOS)
    import _posixshmem
except ImportError:  # pragma: no cover - non-posix
    _posixshmem = None

import numpy as np

from repro.net.codec import SegRef
from repro.net.frames import ProtocolError
from repro.net.protocol import (
    encode_batch_iov,
    encode_request_iov,
)
from repro.net.tcp import TcpTransport, _Endpoint
from repro.obs import registry as _obs
from repro.staging.store import StoredObject

__all__ = [
    "SHM_PREFIX",
    "SegmentPool",
    "ServerSegments",
    "ShmTransport",
    "leaked_segment_names",
    "unlink_leaked_segments",
]

#: Every segment name this transport creates starts with this prefix, so
#: external reapers (scripts/check.sh, the soak leak checks) can find leaks
#: without knowing anything else about the run.
SHM_PREFIX = "repro-shm-"

#: Segment header: magic + generation stamp, then payload (64B-aligned).
_HEADER = struct.Struct("!IQ")
_MAGIC = 0x52_53_48_4D  # "RSHM"
HEADER_BYTES = 64
_ALIGN = 64

#: Arrays below this many bytes stay inline on the doorbell frame — a tiny
#: memcpy beats segment bookkeeping.
MIN_ARRAY_BYTES = int(os.environ.get("REPRO_SHM_MIN_ARRAY", "") or 4096)
#: Per-endpoint ceiling on live segment bytes; past it, requests fall back
#: to wire frames instead of growing /dev/shm without bound.
POOL_CAPACITY_BYTES = int(
    os.environ.get("REPRO_SHM_POOL_BYTES", "") or 256 * 1024 * 1024
)
#: Smallest slab ever created (allocations round up to powers of two).
MIN_SLAB_BYTES = int(os.environ.get("REPRO_SHM_MIN_SLAB", "") or 1 << 20)

_SEGMENTS_CREATED = _obs.counter("net.shm.segments_created")
_SEGMENT_REUSES = _obs.counter("net.shm.segment_reuses")
_OOB_BYTES = _obs.counter("net.shm.oob_bytes")
_GRANT_BYTES = _obs.counter("net.shm.grant_bytes")
_WIRE_FALLBACKS = _obs.counter("net.shm.wire_fallbacks")
_STALE_REFS = _obs.counter("net.shm.stale_refs")
_RETIRED = _obs.counter("net.shm.segments_retired")

#: Ops whose *request* payloads may ride segments. Deliberately a whitelist:
#: these ops consume their arrays before replying (``store.put``/``put_blob``
#: copy), so the slab is safe to recycle the moment the reply arrives.
#: Everything else — notably ``restore``, which retains decoded arrays in
#: the store — stays on the wire, where retained views pin only the request
#: frame's own buffer.
SHM_REQUEST_OPS = frozenset({"put", "put_many", "put_blob"})
#: Ops whose response size is computable from the request, enabling a
#: response-slab grant the server gathers directly into.
GRANT_OPS = frozenset({"get", "get_many"})

_name_seq = itertools.count()

# Pools that were never explicitly closed still unlink their segments at
# interpreter exit (daemon server processes die with us; the segments would
# otherwise outlive everyone in /dev/shm).
_live_pools: weakref.WeakSet = weakref.WeakSet()


class _Attachment:
    """Read-write mapping of an existing segment, opened with raw
    ``shm_open`` + ``mmap`` rather than :class:`SharedMemory`.

    Attaching through ``SharedMemory`` would register the segment with
    multiprocessing's resource tracker — which, under forkserver, is the
    *same tracker process the client uses*: any (un)registration from the
    server side corrupts the owner's accounting (double-unregister noise,
    or worse, early unlink of client-owned segments on Python < 3.13).
    A raw mapping never touches the tracker; ownership stays strictly
    client-side.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str) -> None:
        if _posixshmem is None:  # pragma: no cover - non-posix
            raise FileNotFoundError(name)
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, 0o600)
        try:
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        finally:
            os.close(fd)
        self.name = name
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        buf, self.buf = self.buf, None
        if buf is None:
            return
        buf.release()
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - live numpy views
            pass


def _segment_name() -> str:
    # Short (macOS caps POSIX shm names at ~31 chars), unique per process
    # and per allocation — names are never reused, so a crashed peer cannot
    # alias a new segment with a cached old name.
    return f"{SHM_PREFIX}{os.getpid():x}-{next(_name_seq):x}{secrets.token_hex(2)}"


def leaked_segment_names() -> list[str]:
    """Names of repro shm segments currently present on this host."""
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-Linux
        return []
    return sorted(n for n in os.listdir(base) if n.startswith(SHM_PREFIX))


def unlink_leaked_segments() -> int:
    """Unlink every leaked repro segment; returns how many were removed."""
    removed = 0
    for name in leaked_segment_names():
        try:
            if _posixshmem is not None:
                _posixshmem.shm_unlink("/" + name)
            else:  # pragma: no cover - non-posix
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            removed += 1
        except (FileNotFoundError, OSError):
            continue
    return removed


def _round_slab(nbytes: int, min_slab: int) -> int:
    size = min_slab
    while size < nbytes:
        size *= 2
    return size


class _Slab:
    """One shared segment plus its grant/generation bookkeeping."""

    __slots__ = (
        "name",
        "mem",
        "capacity",
        "generation",
        "busy",
        "outstanding",
        "draining",
        "retired",
    )

    def __init__(self, capacity: int) -> None:
        self.name = _segment_name()
        self.mem = shared_memory.SharedMemory(
            create=True, name=self.name, size=HEADER_BYTES + capacity
        )
        self.capacity = capacity
        self.generation = 0
        self.busy = False
        self.outstanding = 0  # zero-copy views handed to the caller
        self.draining = False  # released while views were still live
        self.retired = False  # never recycle (wire fault mid-grant)
        self.stamp()

    def stamp(self) -> None:
        _HEADER.pack_into(self.mem.buf, 0, _MAGIC, self.generation)

    def payload(self) -> memoryview:
        return self.mem.buf[HEADER_BYTES : HEADER_BYTES + self.capacity]

    def destroy(self) -> bool:
        """Unlink the segment; True the first time, False after (idempotent)."""
        mem, self.mem = self.mem, None
        if mem is None:
            return False
        try:
            mem.close()
        except BufferError:
            # Live views still point into the mapping: leave it mapped (the
            # memory is reclaimed when the last view dies) and drop the
            # handle so the object's __del__ doesn't retry the close and
            # raise the same error as an unraisable warning.
            mem._mmap = None
        try:
            mem.unlink()
        except FileNotFoundError:
            pass
        return True


class _Lease:
    """Keeps a slab checked out while a zero-copy view of it is alive.

    Attached to each ndarray view handed out of the pool; its destruction
    (deterministic under CPython refcounting) queues the slab for return.
    The queue — not a lock — is deliberate: ``__del__`` may run at any
    allocation point, including while the pool lock is held.
    """

    __slots__ = ("_pending", "_slab")

    def __init__(self, pending: deque, slab: _Slab) -> None:
        self._pending = pending
        self._slab = slab

    def __del__(self) -> None:
        self._pending.append(self._slab)


class _LeasedArray(np.ndarray):
    """ndarray view whose lifetime extends a slab lease (see _Lease)."""


class SegmentPool:
    """Client-side slab allocator for one endpoint. Thread-safe.

    ``acquire`` hands out each slab to exactly one owner at a time;
    ``release`` recycles (generation bump + restamp), ``retire`` destroys.
    Exhaustion returns ``None`` — callers fall back to wire frames.
    """

    def __init__(
        self,
        capacity_bytes: int = POOL_CAPACITY_BYTES,
        min_slab: int = MIN_SLAB_BYTES,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.min_slab = min_slab
        self._lock = threading.Lock()
        self._free: list[_Slab] = []
        self._busy: set[_Slab] = set()
        self._draining: set[_Slab] = set()
        self._bytes = 0
        self._closed = False
        self._pending: deque = deque()
        _live_pools.add(self)

    # ------------------------------------------------------------- internals

    def _drain_pending_locked(self) -> None:
        while True:
            try:
                slab = self._pending.popleft()
            except IndexError:
                return
            slab.outstanding -= 1
            if slab.outstanding == 0 and slab.draining:
                slab.draining = False
                self._draining.discard(slab)
                if self._closed or slab.retired:
                    self._destroy_locked(slab)
                else:
                    self._recycle_locked(slab)

    def _recycle_locked(self, slab: _Slab) -> None:
        slab.generation += 1
        slab.stamp()
        self._free.append(slab)

    def _destroy_locked(self, slab: _Slab) -> None:
        if slab.destroy():
            self._bytes -= slab.capacity

    # ------------------------------------------------------------------ API

    def acquire(self, nbytes: int) -> _Slab | None:
        """Check out a slab with ≥ ``nbytes`` payload capacity, or None."""
        if nbytes <= 0:
            return None
        with self._lock:
            if self._closed:
                return None
            self._drain_pending_locked()
            best = None
            for slab in self._free:
                if slab.capacity >= nbytes and (
                    best is None or slab.capacity < best.capacity
                ):
                    best = slab
            if best is not None:
                self._free.remove(best)
                self._busy.add(best)
                best.busy = True
                _SEGMENT_REUSES.inc()
                return best
            size = _round_slab(nbytes, self.min_slab)
            if self._bytes + size > self.capacity_bytes:
                _WIRE_FALLBACKS.inc()
                return None
            try:
                slab = _Slab(size)
            except OSError:
                _WIRE_FALLBACKS.inc()
                return None
            self._bytes += size
            self._busy.add(slab)
            slab.busy = True
            _SEGMENTS_CREATED.inc()
            return slab

    def release(self, slab: _Slab) -> None:
        """Return a slab after a *clean* round trip (reply received): the
        server is done with it, so it can be recycled — unless zero-copy
        views are still checked out, in which case recycling waits for the
        last lease to die."""
        with self._lock:
            self._drain_pending_locked()
            if slab not in self._busy:
                raise RuntimeError(f"release of non-granted slab {slab.name}")
            self._busy.discard(slab)
            slab.busy = False
            if slab.outstanding > 0:
                slab.draining = True
                self._draining.add(slab)
            elif self._closed:
                self._destroy_locked(slab)
            else:
                self._recycle_locked(slab)

    def retire(self, slab: _Slab) -> None:
        """Destroy a slab after a *wire-level* failure: the server's fate —
        and whether it still writes into its mapping — is unknowable, so
        the segment is unlinked and never reused."""
        with self._lock:
            self._drain_pending_locked()
            self._busy.discard(slab)
            slab.busy = False
            if slab in self._draining or slab.outstanding > 0:
                slab.draining = True
                self._draining.add(slab)
                slab.retired = True  # destroyed when the last lease dies
                _RETIRED.inc()
                return
            _RETIRED.inc()
            self._destroy_locked(slab)

    def lease_view(self, slab: _Slab, ref: SegRef) -> np.ndarray:
        """Zero-copy ndarray over ``ref``'s bytes, keeping ``slab`` checked
        out until the returned array (and anything based on it) dies."""
        dtype = np.dtype(ref.dtype)
        end = ref.offset + ref.nbytes
        if end > slab.capacity:
            raise ProtocolError(f"segment ref beyond slab: {ref.describe()}")
        raw = np.frombuffer(slab.payload()[ref.offset : end], dtype=np.uint8)
        view = raw.view(dtype).reshape(ref.shape).view(_LeasedArray)
        with self._lock:
            slab.outstanding += 1
        view._lease = _Lease(self._pending, slab)
        return view

    def lookup(self, name: str) -> _Slab | None:
        with self._lock:
            for slab in self._busy:
                if slab.name == name:
                    return slab
        return None

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def segment_names(self) -> list[str]:
        with self._lock:
            slabs = list(self._free) + list(self._busy) + list(self._draining)
            return sorted(s.name for s in slabs if s.mem is not None)

    def close(self) -> None:
        """Unlink every slab (idempotent). Live leases keep their memory
        mapped until they die; the names are gone immediately."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drain_pending_locked()
            for slab in list(self._free) + list(self._busy) + list(self._draining):
                self._destroy_locked(slab)
            self._free.clear()
            self._busy.clear()
            self._draining.clear()


@atexit.register
def _reap_live_pools() -> None:  # pragma: no cover - exit path
    for pool in list(_live_pools):
        try:
            pool.close()
        except Exception:
            pass


# --------------------------------------------------------------------------
# codec hooks: request writer (client), response sink + resolver (server)
# --------------------------------------------------------------------------


def _eligible(arr: np.ndarray) -> bool:
    return (
        arr.nbytes >= MIN_ARRAY_BYTES
        and not arr.dtype.hasobject
        and len(arr.shape) <= 255
        and len(arr.dtype.str) <= 255
    )


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def oob_payload_bytes(obj) -> int:
    """Aligned bytes of every segment-eligible ndarray inside ``obj`` —
    the request-slab size estimate. Mirrors the codec's traversal; an
    under-estimate is safe (the writer falls back to inline placement)."""
    t = type(obj)
    if t is np.ndarray:
        return _align(int(obj.nbytes)) if _eligible(obj) else 0
    if t is list or t is tuple or t is set or t is frozenset:
        return sum(oob_payload_bytes(item) for item in obj)
    if t is dict:
        return sum(
            oob_payload_bytes(k) + oob_payload_bytes(v) for k, v in obj.items()
        )
    if t is StoredObject:
        return oob_payload_bytes(obj.data)
    return 0


def expected_response_bytes(op: str, args: tuple) -> int:
    """Upper-ish bound on an op's bulk response payload, from its request.

    Only ops whose response geometry is fully determined by the request
    (``get``/``get_many``: bbox shape × dtype itemsize) are sized; anything
    else returns 0 → no grant → the reply rides the wire.
    """
    try:
        if op == "get":
            (desc,) = args
            return _desc_nbytes(desc) + _ALIGN
        if op == "get_many":
            (descs,) = args
            return sum(_desc_nbytes(d) + _ALIGN for d in descs)
    except Exception:
        return 0
    return 0


def _desc_nbytes(desc) -> int:
    n = 1
    for dim in desc.bbox.shape:
        n *= int(dim)
    return n * np.dtype(desc.dtype).itemsize


class _SegmentWriter:
    """``array_sink`` for requests: bump-pointer copies eligible arrays
    into one slab (a single strided copy, straight from the caller's —
    possibly non-contiguous — array) and returns their SegRefs."""

    __slots__ = ("slab", "payload", "cursor", "placed_bytes")

    def __init__(self, slab: _Slab) -> None:
        self.slab = slab
        self.payload = slab.payload()
        self.cursor = 0
        self.placed_bytes = 0

    def __call__(self, arr: np.ndarray) -> SegRef | None:
        if not _eligible(arr):
            return None
        offset = _align(self.cursor)
        nbytes = int(arr.nbytes)
        if offset + nbytes > self.slab.capacity:
            return None  # slab full: this array rides the wire
        dest = np.ndarray(
            arr.shape, arr.dtype, buffer=self.payload[offset : offset + nbytes]
        )
        np.copyto(dest, arr)
        self.cursor = offset + nbytes
        self.placed_bytes += nbytes
        return SegRef(
            self.slab.name,
            self.slab.generation,
            offset,
            nbytes,
            arr.dtype.str,
            tuple(arr.shape),
        )


class _ResponseResolver:
    """``array_source`` for replies: resolves SegRefs against the slab this
    client granted, handing out leased zero-copy views."""

    __slots__ = ("pool", "slab")

    def __init__(self, pool: SegmentPool, slab: _Slab | None) -> None:
        self.pool = pool
        self.slab = slab

    def __call__(self, ref: SegRef) -> np.ndarray:
        slab = self.slab
        if slab is None or slab.name != ref.segment:
            _STALE_REFS.inc()
            raise ProtocolError(f"reply ref to ungranted segment {ref.describe()}")
        if ref.generation != slab.generation:
            _STALE_REFS.inc()
            raise ProtocolError(f"stale reply ref {ref.describe()}")
        return self.pool.lease_view(slab, ref)


class ResponseSink:
    """Server-side ``array_sink`` over one granted response slab.

    ``reserve`` pre-allocates destination views so ``store.get(out=...)``
    gathers fragments *directly into shared memory*; encoding then emits
    the matching SegRef without touching the payload again. Unreserved
    arrays that fit are copied in; anything else inlines on the doorbell.
    ``mark``/``rollback`` make an all-or-nothing multi-array reservation
    (get_many) possible: either every destination lands in the slab or the
    whole response takes the ordinary path.
    """

    __slots__ = ("name", "payload", "generation", "capacity", "cursor", "_reserved")

    def __init__(self, name: str, segment, generation: int, capacity: int) -> None:
        self.name = name
        self.payload = segment.buf[HEADER_BYTES : HEADER_BYTES + capacity]
        self.generation = generation
        self.capacity = capacity
        self.cursor = 0
        self._reserved: dict[int, SegRef] = {}

    def _place(self, shape: tuple, dtype: np.dtype):
        nbytes = dtype.itemsize
        for dim in shape:
            nbytes *= int(dim)
        offset = _align(self.cursor)
        if offset + nbytes > self.capacity:
            return None
        self.cursor = offset + nbytes
        return offset, nbytes

    def _ref(self, offset: int, nbytes: int, dtype: np.dtype, shape: tuple) -> SegRef:
        return SegRef(self.name, self.generation, offset, nbytes, dtype.str, shape)

    def reserve(self, shape, dtype) -> np.ndarray | None:
        """A writable slab view for a response array the server has not
        produced yet, or None when it doesn't fit."""
        shape = tuple(int(d) for d in shape)
        dtype = np.dtype(dtype)
        if dtype.hasobject or dtype.itemsize == 0:
            return None
        spot = self._place(shape, dtype)
        if spot is None:
            return None
        offset, nbytes = spot
        dest = np.ndarray(shape, dtype, buffer=self.payload[offset : offset + nbytes])
        self._reserved[id(dest)] = self._ref(offset, nbytes, dtype, shape)
        return dest

    def mark(self) -> int:
        return self.cursor

    def rollback(self, mark: int) -> None:
        self.cursor = mark
        self._reserved.clear()

    def __call__(self, arr: np.ndarray) -> SegRef | None:
        ref = self._reserved.get(id(arr))
        if ref is not None:
            return ref
        if not _eligible(arr):
            return None
        spot = self._place(arr.shape, arr.dtype)
        if spot is None:
            return None
        offset, nbytes = spot
        dest = np.ndarray(
            arr.shape, arr.dtype, buffer=self.payload[offset : offset + nbytes]
        )
        np.copyto(dest, arr)
        return self._ref(offset, nbytes, arr.dtype, tuple(arr.shape))


class ServerSegments:
    """Server-process segment registry: attach cache + ref validation.

    Attachments are cached by name (names are never reused) and mapped
    raw (see :class:`_Attachment`) — segments are client-owned; the server
    must never unlink or tracker-register them. The dispatcher registers
    ``close`` with ``atexit`` when it creates the registry, so a cleanly
    shut-down server process drops its mappings (a killed one is reaped by
    the kernel).
    """

    def __init__(self) -> None:
        self._attached: dict[str, _Attachment] = {}
        self._lock = threading.Lock()

    def _attach(self, name: str) -> _Attachment:
        with self._lock:
            seg = self._attached.get(name)
            if seg is None:
                seg = _Attachment(name)
                self._attached[name] = seg
            return seg

    def _validated(self, name: str, generation: int) -> _Attachment:
        try:
            seg = self._attach(name)
        except (FileNotFoundError, OSError) as exc:
            _STALE_REFS.inc()
            raise ProtocolError(f"segment {name!r} is gone: {exc}") from exc
        magic, stamp = _HEADER.unpack_from(seg.buf, 0)
        if magic != _MAGIC:
            _STALE_REFS.inc()
            raise ProtocolError(f"segment {name!r} has no valid header")
        if stamp != generation:
            _STALE_REFS.inc()
            raise ProtocolError(
                f"stale segment ref: {name!r} gen {generation} != stamped {stamp}"
            )
        return seg

    def resolve(self, ref: SegRef) -> np.ndarray:
        """Zero-copy view over a request ref (validating the generation)."""
        seg = self._validated(ref.segment, ref.generation)
        end = HEADER_BYTES + ref.offset + ref.nbytes
        if end > seg.size:
            _STALE_REFS.inc()
            raise ProtocolError(f"segment ref beyond mapping: {ref.describe()}")
        raw = seg.buf[HEADER_BYTES + ref.offset : end]
        return np.frombuffer(raw, dtype=np.uint8).view(np.dtype(ref.dtype)).reshape(
            ref.shape
        )

    def response_sink(self, grant) -> ResponseSink | None:
        """Build a sink over a ``("grant", name, gen, capacity)`` tuple;
        an invalid/stale grant yields None (reply rides the wire)."""
        if not (isinstance(grant, tuple) and len(grant) == 4 and grant[0] == "grant"):
            return None
        _tag, name, generation, capacity = grant
        try:
            seg = self._validated(name, generation)
        except ProtocolError:
            return None
        capacity = min(int(capacity), seg.size - HEADER_BYTES)
        return ResponseSink(name, seg, generation, capacity)

    def close(self) -> None:
        with self._lock:
            attached, self._attached = dict(self._attached), {}
        for seg in attached.values():
            try:
                seg.close()
            except (BufferError, OSError):  # pragma: no cover - exit path
                pass


# --------------------------------------------------------------------------
# client endpoint + transport
# --------------------------------------------------------------------------


class _ShmEndpoint(_Endpoint):
    """TCP doorbell endpoint with a per-endpoint segment pool."""

    def __init__(self, server_id: int, process, port: int) -> None:
        super().__init__(server_id, process, port)
        self.pool = SegmentPool()

    def _grant_for(self, slab: _Slab | None):
        if slab is None:
            return None
        return ("grant", slab.name, slab.generation, slab.capacity)

    def request(self, op: str, args: tuple):
        if op.startswith("admin:"):
            return super().request(op, args)
        pool = self.pool
        req_slab = resp_slab = None
        sink = None
        if op in SHM_REQUEST_OPS:
            need = oob_payload_bytes(args)
            if need:
                req_slab = pool.acquire(need)
                if req_slab is not None:
                    sink = _SegmentWriter(req_slab)
        grant = None
        if op in GRANT_OPS:
            expected = expected_response_bytes(op, args)
            if expected >= MIN_ARRAY_BYTES:
                resp_slab = pool.acquire(expected)
                grant = self._grant_for(resp_slab)
                if resp_slab is not None:
                    _GRANT_BYTES.inc(expected)
        if sink is None and grant is None:
            return super().request(op, args)
        clean = False
        try:
            parts = encode_request_iov(op, args, grant=grant, array_sink=sink)
            if sink is not None:
                _OOB_BYTES.inc(sink.placed_bytes)
            resolver = _ResponseResolver(pool, resp_slab)
            msg = self._round_trip(parts, array_source=resolver)
            # A decoded reply — ok *or* typed staging error — means the
            # server finished the op and is done with the slabs. A wire
            # failure means its fate (and any in-flight write into the
            # grant) is unknowable: retire, never recycle.
            clean = True
            return self._unpack_response(msg)
        finally:
            for slab in (req_slab, resp_slab):
                if slab is not None:
                    (pool.release if clean else pool.retire)(slab)

    def request_batch(self, requests, outcomes: bool = False):
        pool = self.pool
        # Segments only when every op in the batch consumes its payload
        # before replying (see SHM_REQUEST_OPS); mixed batches with ops
        # that retain arrays (restore) stay on the wire.
        placeable = bool(requests) and all(op in SHM_REQUEST_OPS for op, _ in requests)
        req_slab = None
        sink = None
        if placeable:
            need = sum(oob_payload_bytes(args) for _, args in requests)
            if need:
                req_slab = pool.acquire(need)
                if req_slab is not None:
                    sink = _SegmentWriter(req_slab)
        if sink is None:
            return super().request_batch(requests, outcomes)
        clean = False
        try:
            parts = encode_batch_iov(
                [("req", op, args) for op, args in requests], array_sink=sink
            )
            _OOB_BYTES.inc(sink.placed_bytes)
            msg = self._round_trip(parts)
            clean = True
            return self._unpack_batch(msg, outcomes)
        finally:
            (pool.release if clean else pool.retire)(req_slab)

    def close(self, *, shutdown_op: bool = True) -> None:
        super().close(shutdown_op=shutdown_op)
        self.pool.close()


class ShmTransport(TcpTransport):
    """One server process per staging server; TCP doorbell, shm data plane.

    Everything observable — admin ops, fault injection, failure mapping,
    rebuild provisioning — is inherited from :class:`TcpTransport`; only
    how bulk payload bytes travel differs.
    """

    name = "shm"

    def _make_endpoint(self, server_id: int, process, port: int) -> _ShmEndpoint:
        return _ShmEndpoint(server_id, process, port)

    def segment_names(self) -> list[str]:
        """Names of every live segment across this transport's pools."""
        names: list[str] = []
        for endpoint in self.endpoints():
            names.extend(endpoint.pool.segment_names)
        return sorted(names)
