"""Data Logging Component (paper Figure 8).

Stores, indexes and maintains the logged payload versions flowing through
staging. The underlying :class:`~repro.staging.client.StagingGroup` already
keeps payload fragments; what logging adds is *retention*: the original
DataSpaces keeps only the latest version of each variable, while the logging
component pins every version that some component could still re-read after a
rollback, and accounts for the extra bytes (the quantity plotted in the
paper's Figure 9(c)/(d)).

The log is fully indexed: per-name sorted version lists, per-name byte
totals, and a running logged-bytes total are maintained O(1) at
``record_put``/``evict`` time, so ``logged_versions``/``names``/
``logged_bytes`` never walk the record map. A listener hook (used by the
garbage collector) receives put/get notifications so collection can be
candidate-driven instead of scan-driven.

Eviction is batched and fault-aware: each server receives a whole batch of
evictions as one pipelined frame, and every request in it is judged on its
own. A server that answers with a *transient* error keeps its fragments on
a per-server **pending-eviction queue** and is retried on later passes or
on health recovery — only a confirmed fail-stop
(:class:`~repro.errors.ServerUnavailable`) writes fragments off, because a
crashed server's memory dies with it. Treating a merely slow or flaky
server like a crashed one would leak its fragments forever *and* leave the
version fetchable there after GC reported it freed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.errors import ObjectNotFound, ServerUnavailable, TransientServerError
from repro.obs import registry as _obs
from repro.staging.client import StagingGroup

__all__ = ["DataLog", "LogRecord"]

_PUTS = _obs.counter("datalog.puts")
_EVICTIONS = _obs.counter("datalog.evictions")
_PENDING_QUEUED = _obs.counter("datalog.evictions.pending_queued")
_PENDING_DRAINED = _obs.counter("datalog.evictions.pending_drained")
_PENDING_WRITTEN_OFF = _obs.counter("datalog.evictions.written_off")

# Instance ids for per-instance gauges: a module-global gauge would
# aggregate across every live DataLog, so a second workflow (or test)
# corrupts the reading and obs reports disagree with ``logged_bytes()``.
_instance_ids = itertools.count()


@dataclass(frozen=True)
class LogRecord:
    """Retention record for one logged (name, version)."""

    name: str
    version: int
    nbytes: int
    producer: str
    step: int


@dataclass
class DataLog:
    """Version-retention bookkeeping over a staging group.

    The log does not copy payloads — fragments live once in the staging
    servers — it tracks which (name, version) pairs must be retained and
    measures the memory cost of doing so versus latest-only retention.
    """

    group: StagingGroup
    records: dict[tuple[str, int], LogRecord] = field(default_factory=dict)
    # name -> component -> highest version read (the consumer's read frontier)
    consumers: dict[str, dict[str, int]] = field(default_factory=dict)
    # ---- incremental indexes (maintained at record/evict time) ----
    # name -> sorted list of logged versions.
    _versions: dict[str, list[int]] = field(default_factory=dict, repr=False)
    # name -> pinned bytes for that name.
    _name_bytes: dict[str, int] = field(default_factory=dict, repr=False)
    # Running total of pinned bytes (== sum of _name_bytes values).
    _total_bytes: int = field(default=0, repr=False)
    # component -> names it consumes (reverse of ``consumers``); lets a
    # checkpoint advance turn into O(names-this-component-reads) candidates.
    _consumed_by: dict[str, set[str]] = field(default_factory=dict, repr=False)
    # server_id -> {(name, version): nbytes} evictions a transiently-failing
    # server has not yet confirmed.
    _pending_evictions: dict[int, dict[tuple[str, int], int]] = field(
        default_factory=dict, repr=False
    )
    # GC (or any observer) notified of puts/gets/evictions; see attach_listener.
    _listener: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Rebuild indexes when constructed with pre-existing records (tests
        # build DataLog(records=...) occasionally; normal runs start empty).
        if self.records and not self._versions:
            for (name, version), rec in self.records.items():
                insort(self._versions.setdefault(name, []), version)
                self._name_bytes[name] = self._name_bytes.get(name, 0) + rec.nbytes
                self._total_bytes += rec.nbytes
        for name, frontiers in self.consumers.items():
            for comp in frontiers:
                self._consumed_by.setdefault(comp, set()).add(name)
        iid = next(_instance_ids)
        # Per-instance lazy gauges: read at snapshot time from the O(1)
        # running totals, so concurrent DataLog instances never cross-talk.
        _obs.gauge(f"datalog.{iid}.logged_bytes", fn=self.logged_bytes)
        _obs.gauge(f"datalog.{iid}.pending_evictions", fn=self.pending_eviction_count)
        # Called when a server with queued pending evictions recovers; the
        # owner points it at the background collector's wakeup so the queue
        # drains promptly (the drain itself always runs inside a GC pass,
        # under the GC's lock — never on the recovery notification thread).
        self.recovery_waker = None
        health = getattr(self.group, "health", None)
        if health is not None:
            health.on_recovered = self._on_server_recovered

    def _on_server_recovered(self, server_id: int) -> None:
        waker = self.recovery_waker
        if waker is not None and self.pending_eviction_count(server_id):
            waker()

    # ------------------------------------------------------------- listener

    def attach_listener(self, listener: object) -> None:
        """Register the GC (or any observer) for put/get notifications.

        The listener may implement ``note_put(name, version)``,
        ``note_get(name, component, version)`` — both optional.
        """
        self._listener = listener

    # --------------------------------------------------------------- record

    def record_put(self, name: str, version: int, nbytes: int, producer: str, step: int) -> LogRecord:
        """Pin a freshly written version in the log."""
        rec = LogRecord(name=name, version=version, nbytes=nbytes, producer=producer, step=step)
        prev = self.records.get((name, version))
        self.records[(name, version)] = rec
        versions = self._versions.setdefault(name, [])
        if prev is None:
            if not versions or version > versions[-1]:
                versions.append(version)  # common case: monotone versions
            else:
                insort(versions, version)
        delta = nbytes - (prev.nbytes if prev is not None else 0)
        self._name_bytes[name] = self._name_bytes.get(name, 0) + delta
        self._total_bytes += delta
        _PUTS.inc()
        listener = self._listener
        if listener is not None:
            listener.note_put(name, version)
        return rec

    def register_consumer(self, name: str, component: str) -> None:
        """Declare that ``component`` will read ``name`` before any read
        happens.

        Without the declaration, a producer that writes and checkpoints
        before the consumer's first get would let the GC treat the variable
        as consumerless and collect versions the consumer still needs.
        DataSpaces couplings are declared, so this mirrors reality.
        """
        self.consumers.setdefault(name, {}).setdefault(component, -1)
        self._consumed_by.setdefault(component, set()).add(name)

    def record_get(self, name: str, component: str, version: int) -> None:
        """Note that ``component`` consumed version ``version`` of ``name``.

        The consumer map drives garbage collection: a version may only be
        collected when every consumer's rollback window has moved past it
        *and* the consumer's forward read frontier has passed it (a producer
        running ahead must not have its unread versions collected).
        """
        frontiers = self.consumers.setdefault(name, {})
        frontiers[component] = max(frontiers.get(component, -1), version)
        self._consumed_by.setdefault(component, set()).add(name)
        listener = self._listener
        if listener is not None:
            listener.note_get(name, component, version)

    # ---------------------------------------------------------------- query

    def logged_versions(self, name: str) -> list[int]:
        """Sorted pinned versions of ``name`` (indexed; no record-map scan)."""
        return list(self._versions.get(name, ()))

    def latest_logged(self, name: str) -> int | None:
        """Newest pinned version of ``name`` (O(1))."""
        versions = self._versions.get(name)
        return versions[-1] if versions else None

    def oldest_logged(self, name: str) -> int | None:
        """Oldest pinned version of ``name`` (O(1))."""
        versions = self._versions.get(name)
        return versions[0] if versions else None

    def version_count(self, name: str) -> int:
        """Number of pinned versions of ``name`` (O(1))."""
        return len(self._versions.get(name, ()))

    def consumers_of(self, name: str) -> set[str]:
        """Components known to read ``name``."""
        return set(self.consumers.get(name, ()))

    def names_consumed_by(self, component: str) -> set[str]:
        """Variables ``component`` reads (reverse consumer index)."""
        return set(self._consumed_by.get(component, ()))

    def read_frontier(self, name: str, component: str) -> int:
        """Highest version of ``name`` that ``component`` has read (-1: none)."""
        return self.consumers.get(name, {}).get(component, -1)

    def names(self) -> list[str]:
        """Sorted distinct logged variable names (indexed)."""
        return sorted(self._versions)

    def multi_version_names(self) -> list[str]:
        """Names currently pinning more than one version — the only names a
        collection pass could possibly free anything for."""
        return [n for n, vs in self._versions.items() if len(vs) > 1]

    # ---------------------------------------------------------------- evict

    def evict(self, name: str, version: int) -> int:
        """Unpin (name, version) and drop its fragments from every server.

        Returns bytes freed across the group. Raises ObjectNotFound when the
        version was never logged (GC bookkeeping bug guard). One version of
        :meth:`evict_versions`, which documents the fault handling.
        """
        return self.evict_versions([(name, version)])

    def evict_versions(self, keys: list[tuple[str, int]]) -> int:
        """Unpin every (name, version) in ``keys`` and drop their fragments.

        Each server gets all of them in one pipelined frame — one ``evict``
        request per version, one round trip — and every slot's outcome is
        routed on its own (see :meth:`_evict_frame`). Returns bytes freed
        across the group. Raises ObjectNotFound, before changing anything,
        when a key was never logged (GC bookkeeping bug guard).
        """
        missing = [key for key in keys if key not in self.records]
        if missing:
            name, version = missing[0]
            raise ObjectNotFound(f"{name!r} v{version} not in data log")
        for name, version in keys:
            self._unpin(name, version)
        freed = 0
        if keys:
            for server in self.group.servers:
                freed += self._evict_frame(server, keys)[1]
        for name, version in keys:
            self.group.records.evict(name, version)
        _EVICTIONS.inc(len(keys))
        return freed

    def _unpin(self, name: str, version: int) -> None:
        """Drop one record and its index entries (the key must be logged)."""
        rec = self.records.pop((name, version))
        versions = self._versions.get(name)
        if versions:
            i = bisect_left(versions, version)
            if i < len(versions) and versions[i] == version:
                del versions[i]
            if not versions:
                del self._versions[name]
        self._name_bytes[name] = self._name_bytes.get(name, 0) - rec.nbytes
        if self._name_bytes[name] <= 0:
            del self._name_bytes[name]
        self._total_bytes -= rec.nbytes

    def _evict_frame(self, server, keys: list[tuple[str, int]]) -> tuple[int, int]:
        """Send one server ``keys`` as one pipelined frame of ``evict``
        requests; returns (pending entries confirmed, bytes freed).

        The only eviction path: fresh evictions and pending-queue retries
        both go through it. Each slot is routed by the fault model:

        * **confirmed** — a value, or ``ObjectNotFound`` (a rebuilt
          replacement never held the fragments): the key leaves the
          server's pending queue if it was on it;
        * **transient** (:class:`TransientServerError`) — the server is
          alive and still *holds* the fragments; the key goes on that
          server's pending-eviction queue, retried by later passes or on
          health recovery. Writing it off would leak the memory and leave
          the version readable there after GC reported it collected;
        * **fail-stop** (:class:`ServerUnavailable`) — the server's memory
          died with it: the server is marked down and its whole pending
          queue, this frame's failed keys included, is written off (a
          rebuild starts from the protection records, which the caller
          drops, so nothing is resurrected).

        A failure of the whole frame counts as that failure in every slot.
        """
        sid = server.server_id
        health = getattr(self.group, "health", None)
        try:
            slots = server.pipeline([("evict", key) for key in keys], outcomes=True)
        except (ServerUnavailable, TransientServerError) as exc:
            slots = [exc] * len(keys)
        queue = self._pending_evictions.setdefault(sid, {})
        confirmed = 0
        freed = 0
        lost: set[tuple[str, int]] = set()
        for key, slot in zip(keys, slots):
            if isinstance(slot, ServerUnavailable):
                lost.add(key)
            elif isinstance(slot, TransientServerError):
                if health is not None:
                    health.mark_failure(sid)
                if key not in queue:
                    queue[key] = 0
                    _PENDING_QUEUED.inc()
            elif isinstance(slot, Exception) and not isinstance(slot, ObjectNotFound):
                raise slot
            else:
                if health is not None:
                    health.mark_success(sid)
                if not isinstance(slot, ObjectNotFound):
                    freed += slot
                if queue.pop(key, None) is not None:
                    confirmed += 1
                    _PENDING_DRAINED.inc()
        if lost:
            if health is not None:
                health.mark_down(sid)
            lost.update(queue)
            queue.clear()
            _PENDING_WRITTEN_OFF.inc(len(lost))
        if not queue:
            del self._pending_evictions[sid]
        return confirmed, freed

    # ------------------------------------------------- pending-eviction queue

    def pending_eviction_count(self, server_id: int | None = None) -> int:
        """Outstanding unconfirmed fragment evictions (optionally one server)."""
        if server_id is not None:
            return len(self._pending_evictions.get(server_id, ()))
        return sum(len(q) for q in self._pending_evictions.values())

    def pending_evictions(self) -> dict[int, list[tuple[str, int]]]:
        """Snapshot of the per-server pending queues (for reports/tests)."""
        return {
            sid: sorted(queue)
            for sid, queue in self._pending_evictions.items()
            if queue
        }

    def drain_pending_evictions(self, server_id: int | None = None) -> tuple[int, int]:
        """Retry queued fragment evictions; returns (drained, bytes_freed).

        Called by every GC pass and by the health layer when a suspect
        server recovers. Each server with queued work gets its whole queue
        as one pipelined frame; entries succeed (fragments confirmed gone),
        are written off on confirmed fail-stop, or stay queued on another
        transient failure (see :meth:`_evict_frame`).
        """
        if server_id is not None:
            sids = [server_id] if server_id in self._pending_evictions else []
        else:
            sids = [sid for sid, q in self._pending_evictions.items() if q]
        drained = 0
        freed = 0
        for sid in sids:
            queue = self._pending_evictions.get(sid)
            if not queue:
                continue
            if sid >= len(self.group.servers):
                # Group shrank (test teardown); nothing to ask.
                self._pending_evictions.pop(sid, None)
                continue
            confirmed, nbytes = self._evict_frame(self.group.servers[sid], list(queue))
            drained += confirmed
            freed += nbytes
        return drained, freed

    def write_off_pending(self, server_id: int) -> int:
        """Drop a server's pending queue (confirmed fail-stop / rebuild)."""
        queue = self._pending_evictions.pop(server_id, None)
        if not queue:
            return 0
        _PENDING_WRITTEN_OFF.inc(len(queue))
        return len(queue)

    # -------------------------------------------------------------- metrics

    def logged_bytes(self) -> int:
        """Bytes retained by the log (running total; O(1))."""
        return self._total_bytes

    def name_bytes(self, name: str) -> int:
        """Bytes retained for one variable (running total; O(1))."""
        return self._name_bytes.get(name, 0)

    def baseline_bytes(self) -> int:
        """Bytes the *original* staging would retain: latest version only."""
        total = 0
        for name, versions in self._versions.items():
            rec = self.records.get((name, versions[-1]))
            if rec is not None:
                total += rec.nbytes
        return total

    def logging_overhead(self) -> float:
        """Extra memory fraction versus latest-only retention.

        This is the ratio the paper annotates on Figure 9(c)/(d) bars
        (e.g. +81 % for Case 1 at 20 % subset).
        """
        base = self.baseline_bytes()
        # Refresh the logged-vs-baseline gauges off the hot path (baseline
        # is O(names) to compute, so it is only sampled here).
        _obs.gauge("datalog.baseline_bytes").set(base)
        if base == 0:
            return 0.0
        return self.logged_bytes() / base - 1.0
