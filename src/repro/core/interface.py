"""Global User Interface (paper §III-C, Table I).

:class:`WorkflowStaging` is the staging-side service that glues together the
event queues, the data-logging component, and the garbage collector.
:class:`WorkflowClient` is the per-component handle exposing the paper's four
calls:

=========================  ====================================================
``workflow_check()``       send a checkpoint event to data staging
``workflow_restart()``     recover the staging client and notify the recovery
                           event; staging builds the replay script
``dspaces_put_with_log()`` log data to data staging (suppressed when replaying)
``dspaces_get_with_log()`` retrieve the logged data specified by a geometric
                           descriptor (served from the log when replaying)
=========================  ====================================================

The same object also implements the *original* (non-logging) staging mode
used by the paper's ``Ds`` baseline and its ``In`` (individual checkpoint,
consistency-unsafe) comparison point, selected with ``enable_logging=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue, ReplayScript
from repro.core.events import EventKind, WChkId, payload_digest
from repro.core.garbage import GarbageCollector, GCReport
from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import (
    ObjectNotFound,
    ReplayError,
    ServerUnavailable,
    StagingError,
    TransientServerError,
)
from repro.obs import registry as _obs
from repro.obs import trace as _trace
from repro.staging.client import StagingClient, StagingGroup
from repro.staging.cow import StagingCheckpointer, compose_chain, is_cow_snapshot

__all__ = ["WorkflowStaging", "WorkflowClient", "PutResult", "GetResult", "GetPlan"]

_SUPPRESSED_PUTS = _obs.counter("staging.replay.suppressed_puts")
_REPLAYED_GETS = _obs.counter("staging.replay.served_gets")
_REPLAYS_STARTED = _obs.counter("staging.replay.scripts_activated")
_CHECK_COUNT = _obs.counter("checkpoint.workflow_check.count")
_CHECK_SECONDS = _obs.histogram("checkpoint.workflow_check.seconds")
_RESTART_COUNT = _obs.counter("checkpoint.workflow_restart.count")
_RESTART_SECONDS = _obs.histogram("checkpoint.workflow_restart.seconds")


@dataclass(frozen=True)
class PutResult:
    """Outcome of one put: whether it was stored or replay-suppressed."""

    desc: ObjectDescriptor
    stored: bool
    suppressed: bool
    shards: int


@dataclass(frozen=True)
class GetResult:
    """Outcome of one get: payload plus the version actually served."""

    desc: ObjectDescriptor
    data: np.ndarray
    served_version: int
    replayed: bool
    digest: str


@dataclass(frozen=True)
class GetPlan:
    """Metadata-phase decision for one get: which version to fetch and how.

    Produced by :meth:`WorkflowStaging.plan_get` under the service's
    metadata lock; the payload fetch then runs outside it (per-server locks
    only) and the outcome is recorded by the matching commit method.
    """

    version: int
    replayed: bool


class WorkflowStaging:
    """Staging service with data/event logging and rollback replay.

    Parameters
    ----------
    group:
        The staging server group holding payloads.
    enable_logging:
        True (default) for the paper's framework; False gives original
        DataSpaces retention (latest version only, no queues, no replay) —
        the ``Ds``/``In`` baselines.
    auto_gc:
        Run a garbage-collection pass after every ``workflow_check``.
    """

    def __init__(
        self,
        group: StagingGroup,
        enable_logging: bool = True,
        auto_gc: bool = True,
    ) -> None:
        self.group = group
        self.enable_logging = enable_logging
        self.auto_gc = auto_gc
        # Optional hook (set by the runtime layer): given a variable name,
        # return the lowest version some consumer has not yet read, or None
        # when unknown. Non-logged retention then keeps unconsumed versions
        # instead of blindly keeping only the latest.
        self.frontier_source = None
        self._client = StagingClient(group, client_id="staging-internal")
        self.queues: dict[str, EventQueue] = {}
        self.log = DataLog(group=group)
        # Queues resolve lazily through the provider callback: a component
        # that registers *after* GC construction is still seen, and a
        # consumer with no resolvable queue is treated conservatively
        # (floor 0) instead of silently losing its rollback floor.
        self.gc = GarbageCollector(
            log=self.log, queues=self.queues, queue_provider=self.queues.get
        )
        self._replay: dict[str, ReplayScript] = {}
        # Replay scripts built with per-variable cursors (independent
        # partitions may replay concurrently; per-name order is still
        # enforced). Off by default = the seed's strict global order; the
        # synchronized service enables it alongside its parallel data path.
        self.replay_partitioned = False
        self.gc_reports: list[GCReport] = []
        # Incremental copy-on-write checkpointing of the staging group
        # (journals + base/delta chain). Idle until the first incremental
        # snapshot: ``full=True`` captures never enable journaling, so the
        # seed data path pays no per-mutation cost.
        self.checkpointer = StagingCheckpointer(group)
        # Live puts committed so far. Waiters on the probe-free get path
        # compare readings to tell a new arrival from a spurious wake-up.
        self.arrivals = 0

    @property
    def client(self) -> StagingClient:
        """The staging-internal client (public accessor for service layers).

        Exposed so wrappers like the runtime's ``SynchronizedStaging`` can
        answer coverage/version queries without reaching into ``_client``.
        """
        return self._client

    # ------------------------------------------------------------- register

    def register(self, component: str) -> "WorkflowClient":
        """Create (or fetch) the event queue for a component; returns a client."""
        if component not in self.queues:
            self.queues[component] = EventQueue(component=component)
        return WorkflowClient(staging=self, component=component)

    def declare_coupling(self, name: str, consumer: str) -> None:
        """Pre-declare that ``consumer`` reads variable ``name``.

        Protects not-yet-read versions from garbage collection during the
        window before the consumer's first get.
        """
        self.log.register_consumer(name, consumer)

    def in_replay(self, component: str) -> bool:
        """True while ``component`` is consuming its replay script."""
        return component in self._replay

    def replay_script(self, component: str) -> ReplayScript | None:
        """The active replay script for ``component``, if any."""
        return self._replay.get(component)

    def any_replaying(self) -> bool:
        """True while *any* component is consuming a replay script.

        The background collector pauses on this: replay scripts pin the
        versions they still need, and deferring collection until the script
        drains keeps GC entirely out of recovery's way.
        """
        return bool(self._replay)

    def _queue(self, component: str) -> EventQueue:
        queue = self.queues.get(component)
        if queue is None:
            raise StagingError(f"component {component!r} never registered")
        return queue

    # ------------------------------------------------------------------ put

    def validate_put(self, desc: ObjectDescriptor, data: np.ndarray) -> np.ndarray:
        """Coerce and shape-check a put payload (no locks required)."""
        data = np.asarray(data, dtype=np.dtype(desc.dtype))
        if tuple(data.shape) != desc.bbox.shape:
            raise StagingError(
                f"payload shape {data.shape} != descriptor shape {desc.bbox.shape}"
            )
        return data

    def suppress_replayed_put(
        self, component: str, desc: ObjectDescriptor, data: np.ndarray
    ) -> PutResult | None:
        """Replay-suppression phase: consume the expected event, store nothing.

        Returns None when the component is executing live (the caller must
        then move the payload and call :meth:`commit_put`).
        """
        if not (self.enable_logging and self.in_replay(component)):
            return None
        expected = self._replay[component].expected_event(desc)
        if not expected.matches_request(EventKind.PUT, desc):
            raise ReplayError(
                f"{component!r} replayed {EventKind.PUT.value} {desc}, "
                f"but the log expects {expected}"
            )
        if expected.digest != payload_digest(data):
            raise ReplayError(
                f"{component!r} re-executed {desc} with different bytes than "
                f"its initial execution — non-deterministic replay"
            )
        self._replay[component].consume(desc)
        self._finish_replay_if_done(component)
        _SUPPRESSED_PUTS.inc()
        return PutResult(desc=desc, stored=False, suppressed=True, shards=0)

    def commit_put(
        self, component: str, desc: ObjectDescriptor, digest: str, step: int, shards: int
    ) -> PutResult:
        """Metadata-commit phase of a live put: log the event, apply retention.

        ``digest`` is computed by the caller during the data phase so the
        hash never runs under the metadata lock (it is ignored when logging
        is off — pass an empty string).
        """
        self.arrivals += 1
        if self.enable_logging:
            queue = self._queue(component)
            queue.record_data(EventKind.PUT, desc, digest, step)
            self.log.record_put(
                name=desc.name,
                version=desc.version,
                nbytes=desc.nbytes,
                producer=component,
                step=step,
            )
        else:
            # Original DataSpaces retention: consumed versions are dropped.
            # Without a frontier source this degrades to latest-only (the
            # write-immediately-followed-by-read pattern of the paper).
            floor = None
            if self.frontier_source is not None:
                floor = self.frontier_source(desc.name)
            if floor is None:
                for server in self.group.servers:
                    try:
                        server.keep_only_latest(desc.name)
                    except (ServerUnavailable, TransientServerError):
                        continue
                self._trim_records_latest(desc.name)
            else:
                self.drop_consumed(desc.name, floor)
        return PutResult(desc=desc, stored=True, suppressed=False, shards=shards)

    def drop_consumed(self, name: str, floor: int) -> None:
        """Non-logged retention: evict versions every consumer has read.

        The latest version is always kept even when fully consumed, so the
        stale-latest fallback keeps something to serve. Unreachable servers
        are skipped — their memory cannot be reclaimed by asking nicely —
        and protection records follow the same floor so degraded reads never
        resurrect an evicted version.
        """
        for server in self.group.servers:
            try:
                # The server clamps the floor to its own newest version.
                server.evict_older_than_version(name, floor)
            except (ServerUnavailable, TransientServerError):
                continue
        rec_versions = self.group.records.versions(name)
        if rec_versions:
            self.group.records.evict_older_than(name, min(floor, rec_versions[-1]))

    def _trim_records_latest(self, name: str) -> None:
        """Latest-only retention for protection records (non-logged mode)."""
        versions = self.group.records.versions(name)
        for v in versions[:-1]:
            self.group.records.evict(name, v)

    def handle_put(
        self, component: str, desc: ObjectDescriptor, data: np.ndarray, step: int
    ) -> PutResult:
        """Service one write request (``dspaces_put_with_log``).

        Live execution stores + logs the payload; replay mode recognises the
        request as redundant and suppresses it (paper: "omit the write
        request due to the redundant write request from the rollback
        recovering application"). This single-call form runs all phases
        back-to-back; the threaded runtime drives the phases separately so
        the data phase escapes its metadata lock.
        """
        data = self.validate_put(desc, data)
        suppressed = self.suppress_replayed_put(component, desc, data)
        if suppressed is not None:
            return suppressed
        shards = self._client.put(desc, data)
        digest = payload_digest(data) if self.enable_logging else ""
        return self.commit_put(component, desc, digest, step, shards)

    # ------------------------------------------------------------------ get

    def handle_get(
        self, component: str, desc: ObjectDescriptor, step: int
    ) -> GetResult:
        """Service one read request (``dspaces_get_with_log``).

        Replay mode re-serves the logged version; live mode serves the
        requested version and records the event. In non-logging mode a
        missing version silently degrades to the latest available one — the
        exact inconsistency of the paper's Figure 2 case 1, kept here so the
        ``In`` baseline demonstrably returns wrong data.
        """
        replayed = False
        if self.enable_logging and self.in_replay(component):
            self._check_replay_get(component, desc)
            data = self._client.get(desc)
            return self.commit_replayed_get(component, desc, data, payload_digest(data))

        served_version = desc.version
        try:
            data = self._client.get(desc)
        except ObjectNotFound:
            if self.enable_logging:
                raise
            latest = self._client.latest_version(desc.name)
            if latest is None:
                raise
            served_version = latest
            data = self._client.get(desc.with_version(latest))
        digest = payload_digest(data)
        return self.commit_get(
            component, desc, data, digest, served_version, step, replayed=replayed
        )

    def _check_replay_get(self, component: str, desc: ObjectDescriptor) -> None:
        """Raise unless ``desc`` matches the next event in the replay script."""
        expected = self._replay[component].expected_event(desc)
        if not expected.matches_request(EventKind.GET, desc):
            raise ReplayError(
                f"{component!r} replayed {EventKind.GET.value} {desc}, "
                f"but the log expects {expected}"
            )

    @property
    def fetch_is_readiness(self) -> bool:
        """True when a live get's fetch doubles as its readiness check.

        Holds for logged, unprotected staging: a store serves a get exactly
        when it covers the region, so the fetch's ``ObjectNotFound`` is the
        "not ready" answer and :meth:`plan_get` sends no coverage probe.
        Protected reads (degraded-capable coverage) and non-logged reads
        (stale-latest fallback) keep the probe.
        """
        return self.enable_logging and self.group.protection is None

    def plan_get(
        self, component: str, desc: ObjectDescriptor, blind: bool = False
    ) -> GetPlan | None:
        """Metadata phase: decide whether a get is servable right now.

        Mirrors the blocking-get readiness conditions of the threaded
        runtime: replay scripts always serve; live gets need full coverage;
        the non-logged mode additionally allows the stale-latest fallback
        once a newer version exists. Returns None when the caller should
        keep waiting.

        When :attr:`fetch_is_readiness` holds, no server is asked: a live
        get is planned once the log holds a committed put of the version,
        or when ``blind`` is set — the caller waited a poll timeout in vain
        and tries anyway, so data staged outside this service (never
        logged) is still served.
        """
        if self.enable_logging and self.in_replay(component):
            self._check_replay_get(component, desc)
            return GetPlan(version=desc.version, replayed=True)
        if self.fetch_is_readiness:
            if blind or (desc.name, desc.version) in self.log.records:
                return GetPlan(version=desc.version, replayed=False)
            return None
        if self._client.covers(desc):
            return GetPlan(version=desc.version, replayed=False)
        if not self.enable_logging:
            latest = self._client.latest_version(desc.name)
            if latest is not None and latest >= desc.version:
                return GetPlan(version=latest, replayed=False)
        return None

    def fetch_get(self, desc: ObjectDescriptor, version: int) -> np.ndarray:
        """Data phase: assemble the payload (per-server locks only)."""
        if version == desc.version:
            return self._client.get(desc)
        return self._client.get(desc.with_version(version))

    def commit_replayed_get(
        self, component: str, desc: ObjectDescriptor, data: np.ndarray, digest: str
    ) -> GetResult:
        """Metadata-commit phase of a replayed get: verify and advance."""
        expected = self._replay[component].expected_event(desc)
        if expected.digest != digest:
            raise ReplayError(
                f"replay of {desc} for {component!r} served different bytes "
                f"than the initial execution ({digest} != {expected.digest})"
            )
        self._replay[component].consume(desc)
        self._finish_replay_if_done(component)
        _REPLAYED_GETS.inc()
        return GetResult(
            desc=desc,
            data=data,
            served_version=desc.version,
            replayed=True,
            digest=digest,
        )

    def commit_get(
        self,
        component: str,
        desc: ObjectDescriptor,
        data: np.ndarray,
        digest: str,
        served_version: int,
        step: int,
        replayed: bool = False,
    ) -> GetResult:
        """Metadata-commit phase of a live get: record the event and access."""
        if self.enable_logging:
            queue = self._queue(component)
            queue.record_data(EventKind.GET, desc, digest, step)
            self.log.record_get(desc.name, component, served_version)
        return GetResult(
            desc=desc,
            data=data,
            served_version=served_version,
            replayed=replayed,
            digest=digest,
        )

    # ------------------------------------------------------------ checkpoint

    def handle_check(self, component: str, step: int, durable: bool = True) -> WChkId:
        """Service ``workflow_check``: mint a W_Chk_ID and insert the event.

        ``durable=False`` marks a node-local (multi-level) checkpoint: the
        GC then keeps retaining back to the last durable one, because a node
        failure can force a deeper rollback.
        """
        if not self.enable_logging:
            # The Ds/In baselines checkpoint applications without informing
            # staging; the call is accepted and ignored.
            return WChkId(component, -1)
        if self.in_replay(component):
            raise ReplayError(
                f"{component!r} attempted workflow_check while replaying"
            )
        t0 = perf_counter()
        queue = self._queue(component)
        ev = queue.record_checkpoint(step, durable=durable)
        # The checkpoint moved this component's rollback floors: queue the
        # names it consumes (and its queue trim) as GC candidates.
        self.gc.note_checkpoint(component)
        if self.auto_gc:
            # Candidate-driven drain: O(names this checkpoint affected),
            # not a stop-the-world sweep of every logged variable.
            self.gc_reports.append(self.gc.collect_incremental())
        _CHECK_COUNT.inc()
        _CHECK_SECONDS.record(perf_counter() - t0)
        assert ev.chk_id is not None
        return ev.chk_id

    # -------------------------------------------------------------- restart

    def handle_restart(
        self, component: str, step: int, durable_only: bool = False
    ) -> ReplayScript:
        """Service ``workflow_restart``: build and activate the replay script.

        A component may fail *again* while replaying; the half-consumed
        script is discarded and replay restarts from the checkpoint — the
        queue still holds every event of the window, so the fresh script is
        identical to the original one. ``durable_only=True`` replays from
        the last durable checkpoint (node failure destroyed the node-local
        tier).
        """
        if not self.enable_logging:
            # No log: the recovering component simply rejoins live execution.
            return ReplayScript(component=component, restored_chk=None, events=[])
        with _trace.span("staging.restart", component=component, step=step):
            t0 = perf_counter()
            if self.in_replay(component):
                del self._replay[component]
                self.gc.unpin_replay(component)
            queue = self._queue(component)
            script = queue.build_replay_script(
                durable_only=durable_only, partitioned=self.replay_partitioned
            )
            queue.record_recovery(step, script.restored_chk)
            if script.events:
                _REPLAYS_STARTED.inc()
                self._replay[component] = script
                pins = {
                    (ev.desc.name, ev.desc.version)
                    for ev in script.events
                    if ev.op is EventKind.GET and ev.desc is not None
                }
                self.gc.pin_replay(component, pins)
            _RESTART_COUNT.inc()
            _RESTART_SECONDS.record(perf_counter() - t0)
            return script

    def _finish_replay_if_done(self, component: str) -> None:
        script = self._replay.get(component)
        if script is not None and script.exhausted:
            del self._replay[component]
            self.gc.unpin_replay(component)

    # ------------------------------------------------------------- snapshot

    def snapshot(self, full: bool = False) -> dict:
        """Capture the staging group's state (unsynchronized path).

        Default is incremental: the first call takes a full base capture and
        starts the mutation journals; later calls seal + package only the
        delta since the previous one. ``full=True`` is the seed-compatible
        path, returning a plain full snapshot (and never engaging journaling
        on a group that has not checkpointed incrementally).

        Callers running concurrent mutators must use the synchronized
        service's snapshot instead — this path takes no locks.
        """
        ckpt = self.checkpointer
        if full:
            snap = ckpt.capture_full(
                {}, start_chain=ckpt.journaling, parallel=False
            )
            ckpt.release_discarded()
            return snap
        if ckpt.wants_full():
            ckpt.capture_full({}, parallel=False)
            ckpt.release_discarded()
            return ckpt.chain_view()
        sealed = ckpt.seal()
        sealed["frontier"] = {}
        return ckpt.materialize(sealed)

    def restore(self, snap: dict) -> None:
        """Roll the staging group back to ``snap`` (full or incremental)."""
        cow = is_cow_snapshot(snap)
        full = compose_chain(snap["chain"]) if cow else snap
        for srv, server_snap in zip(self.group.servers, full["servers"]):
            srv.restore(server_snap)
        if "protection" in full:
            self.group.records.restore(full["protection"])
        if "health" in full:
            self.group.health.restore(full["health"])
        if cow:
            self.checkpointer.rebase(snap)
            self.checkpointer.release_discarded()
        else:
            self.checkpointer.mark_dirty()

    # -------------------------------------------------------------- metrics

    def memory_bytes(self) -> int:
        """Payload bytes resident across all staging servers."""
        return self.group.total_bytes

    def logging_overhead(self) -> float:
        """Memory overhead of logging vs latest-only retention."""
        return self.log.logging_overhead()

    def run_gc(
        self,
        full: bool = True,
        max_versions: int | None = None,
        max_seconds: float | None = None,
    ) -> GCReport:
        """Force one garbage-collection pass.

        ``full=True`` (default) runs the reference full sweep; otherwise a
        bounded incremental pass drains queued candidates within the given
        budgets and reports what it deferred.
        """
        if full:
            report = self.gc.collect()
        else:
            report = self.gc.collect_incremental(
                max_versions=max_versions, max_seconds=max_seconds
            )
        self.gc_reports.append(report)
        return report


class WorkflowClient:
    """Per-component handle implementing the paper's Table I interface."""

    def __init__(self, staging: WorkflowStaging, component: str) -> None:
        self.staging = staging
        self.component = component
        self._step = 0

    def set_step(self, step: int) -> None:
        """Advance the component's coupling step (tags logged events)."""
        self._step = step

    # ---- Table I ----------------------------------------------------------

    def workflow_check(self, durable: bool = True) -> WChkId:
        """Send a checkpoint event to data staging."""
        return self.staging.handle_check(self.component, self._step, durable=durable)

    def workflow_restart(self, durable_only: bool = False) -> ReplayScript:
        """Recover the staging client and notify the recovery event."""
        return self.staging.handle_restart(
            self.component, self._step, durable_only=durable_only
        )

    def dspaces_put_with_log(self, desc: ObjectDescriptor, data: np.ndarray) -> PutResult:
        """Log data to data staging."""
        return self.staging.handle_put(self.component, desc, data, self._step)

    def dspaces_get_with_log(self, desc: ObjectDescriptor) -> GetResult:
        """Retrieve the logged data specified by a geometric descriptor."""
        return self.staging.handle_get(self.component, desc, self._step)

    # ---- convenience -------------------------------------------------------

    @property
    def in_replay(self) -> bool:
        """True while this component is consuming its replay script."""
        return self.staging.in_replay(self.component)
