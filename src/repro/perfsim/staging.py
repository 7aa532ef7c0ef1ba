"""Staging-area cost and capacity model for the performance simulator.

Service times: a put/get is sharded across the owning staging servers via the
*real* placement map (:class:`repro.staging.hashing.PlacementMap`); each
server is a FIFO queue whose service time is request overhead plus bytes over
the server's NIC share. Data/event logging adds the calibrated per-byte and
per-request costs of §IV ("data/event logging increased the write response
time by 10-15 %").

Capacity: the model reuses the *actual* logging components from
:mod:`repro.core` — event queues, data log, garbage collector — driven with
metadata-only descriptors (byte counts, no payloads), so the memory curves in
Figure 9(c)/(d) come from the same retention logic the functional runtime
executes, at simulated-Cori data sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue
from repro.core.events import EventKind
from repro.core.garbage import GarbageCollector
from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import ConfigError
from repro.obs import registry as _obs
from repro.perfsim.config import WorkflowConfig
from repro.perfsim.engine import Engine, all_of
from repro.perfsim.resources import FifoResource
from repro.staging.hashing import PlacementMap
from repro.staging.resilience import ProtectionIndex
from repro.staging.server import run_pipeline
from repro.util.timeline import Counter, Timeline

__all__ = ["AccountingServer", "AccountingGroup", "StagingModel"]

# Simulated-time service latencies: the same op-level histograms the
# threaded runtime records in wall time, here in virtual seconds.
_SIM_PUT_SECONDS = _obs.histogram("perfsim.staging.put.sim_seconds")
_SIM_GET_SECONDS = _obs.histogram("perfsim.staging.get.sim_seconds")


class AccountingServer:
    """Byte-count-only stand-in for a staging server's store.

    Provides the slice of the server interface the shared logging components
    (:class:`~repro.core.data_log.DataLog`) require: ``evict`` returning the
    bytes freed, batched through ``pipeline``.
    """

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self._sizes: dict[tuple[str, int], int] = {}

    def add(self, name: str, version: int, nbytes: int) -> None:
        self._sizes[(name, version)] = self._sizes.get((name, version), 0) + nbytes

    def evict(self, name: str, version: int) -> int:
        return self._sizes.pop((name, version), 0)

    def pipeline(self, requests: list[tuple[str, tuple]], *, outcomes: bool = False) -> list:
        return run_pipeline(self, requests, outcomes)

    def versions(self, name: str) -> list[int]:
        return sorted({v for (n, v) in self._sizes if n == name})

    @property
    def nbytes(self) -> int:
        return sum(self._sizes.values())


@dataclass
class AccountingGroup:
    """Duck-typed staging group for :class:`DataLog` (``.servers`` plus an
    always-empty protection index so eviction bookkeeping type-checks)."""

    servers: list[AccountingServer] = field(default_factory=list)
    records: ProtectionIndex = field(default_factory=ProtectionIndex)

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.servers)


class StagingModel:
    """Simulated staging area: service queues + retention accounting."""

    def __init__(
        self,
        engine: Engine,
        config: WorkflowConfig,
        logging_enabled: bool,
        ds_keep_versions: int = 2,
    ) -> None:
        if ds_keep_versions < 1:
            raise ConfigError(f"ds_keep_versions must be >= 1, got {ds_keep_versions}")
        self.engine = engine
        self.config = config
        self.machine = config.machine
        self.logging_enabled = logging_enabled
        self.ds_keep_versions = ds_keep_versions

        n = config.num_staging_servers
        self.placement = PlacementMap(config.domain, n)
        self.server_queues = [
            FifoResource(engine, capacity=1, name=f"staging-{i}") for i in range(n)
        ]
        # Per-server NIC share: staging nodes' injection bandwidth divided
        # over the server processes they host.
        self.server_bandwidth = (
            self.machine.nic_bandwidth * config.staging_nodes / n
        )

        # Shared-core logging machinery (metadata-only).
        self.group = AccountingGroup(servers=[AccountingServer(i) for i in range(n)])
        self.queues: dict[str, EventQueue] = {}
        self.log = DataLog(group=self.group)  # type: ignore[arg-type]
        self.gc = GarbageCollector(log=self.log, queues=self.queues)

        self._shard_cache: dict[tuple, dict[int, int]] = {}
        # Constant runtime footprint (buffers + index), present with or
        # without logging; proportional to the per-step transferred volume.
        self.base_bytes = int(
            self.machine.staging_buffer_factor
            * config.bytes_per_step
            * config.subset_fraction
        )

        # Incremental-checkpoint accounting: bytes newly staged per server
        # since the last snapshot epoch (the size of that server's
        # copy-on-write journal payload). Evictions only shrink a journal's
        # replay cost, so they are not tracked.
        self._dirty_bytes: dict[int, int] = {}
        self._has_snapshot = False
        # Bytes the most recent snapshot actually captured (delta once a
        # base exists); read by the coordinated scheme's PFS drain.
        self.last_snapshot_bytes = 0

        # Metrics.
        self.write_response = Counter("write_response")
        self.read_response = Counter("read_response")
        self.suppressed_requests = Counter("suppressed_requests")
        self.memory = Timeline("staging_bytes")
        self.gc_bytes_freed = Counter("gc_bytes_freed")

    # ------------------------------------------------------------ lifecycle

    def register(self, component: str) -> None:
        self.queues.setdefault(component, EventQueue(component=component))

    def _sample_memory(self) -> None:
        self.memory.record(
            self.engine.now, float(self.group.total_bytes + self.base_bytes)
        )

    # ----------------------------------------------------------- transfers

    def _shard_bytes(self, desc: ObjectDescriptor, fraction: float) -> dict[int, int]:
        """Bytes landing on each server for ``desc`` (merged per server).

        ``fraction`` models the paper's Case 1 subsets: a cell-strided
        selection of the domain (e.g. every k-th plane), which DataSpaces
        distributes uniformly, so every owning server receives that fraction
        of its full shard. Cached per (bbox, itemsize, fraction): workloads
        re-use the same region every step and the placement map is immutable.
        """
        if not (0.0 < fraction <= 1.0):
            raise ConfigError(f"fraction out of (0, 1]: {fraction}")
        key = (desc.bbox, desc.itemsize, fraction)
        cached = self._shard_cache.get(key)
        if cached is None:
            item = desc.itemsize
            cached = {}
            for server_id, sub in self.placement.shards(desc.bbox):
                cached[server_id] = cached.get(server_id, 0) + sub.volume * item
            if fraction < 1.0:
                cached = {sid: max(1, int(b * fraction)) for sid, b in cached.items()}
            self._shard_cache[key] = cached
        return cached

    def _service_fragment(
        self, server_id: int, nbytes: int, rank_requests: float, op: EventKind
    ) -> Generator:
        queue = self.server_queues[server_id]
        t = (
            self.machine.nic_latency
            + rank_requests * self.machine.staging_request_overhead
            + nbytes / self.server_bandwidth
        )
        if self.logging_enabled:
            # Writes pay the payload copy into the log + version indexing;
            # reads only append a get event to the queue.
            t += self.machine.logging_request_overhead
            if op is EventKind.PUT:
                t += self.machine.logging_byte_factor * nbytes / self.server_bandwidth
        yield queue.acquire()
        yield self.engine.timeout(t)
        queue.release()

    def _transfer(
        self, desc: ObjectDescriptor, fraction: float, ranks: int, op: EventKind
    ) -> Generator:
        """Parallel sharded transfer; completes when the slowest shard does."""
        shards = self._shard_bytes(desc, fraction)
        rank_requests = max(1.0, ranks / max(1, len(shards)))
        procs = [
            self.engine.process(
                self._service_fragment(sid, nbytes, rank_requests, op),
                name=f"xfer-{desc.name}-{sid}",
            )
            for sid, nbytes in shards.items()
        ]
        yield all_of(self.engine, procs)

    # ------------------------------------------------------------------ put

    def put(
        self,
        component: str,
        desc: ObjectDescriptor,
        suppressed: bool = False,
        fraction: float = 1.0,
        ranks: int = 1,
    ) -> Generator:
        """Process fragment servicing one ``dspaces_put_with_log``.

        ``suppressed=True`` models a rollback re-execution's redundant write:
        only the metadata round-trip is paid (the staging area recognises the
        request from the event queue and omits the store).
        """
        start = self.engine.now
        if suppressed and self.logging_enabled:
            # One metadata round trip: the event-queue lookup recognises the
            # redundant write; no payload moves and no per-rank buffer setup.
            yield self.engine.timeout(
                self.machine.nic_latency + self.machine.logging_request_overhead
            )
            self.suppressed_requests.add(1)
            return
        yield from self._transfer(desc, fraction, ranks, EventKind.PUT)
        self.write_response.add(self.engine.now - start)
        _SIM_PUT_SECONDS.record(self.engine.now - start)
        # Metadata accounting.
        total = 0
        for sid, nbytes in self._shard_bytes(desc, fraction).items():
            self.group.servers[sid].add(desc.name, desc.version, nbytes)
            self._dirty_bytes[sid] = self._dirty_bytes.get(sid, 0) + nbytes
            total += nbytes
        if self.logging_enabled:
            self.register(component)
            self.queues[component].record_data(EventKind.PUT, desc, "", desc.version)
            self.log.record_put(
                desc.name, desc.version, total, component, desc.version
            )
        else:
            self._ds_retention(desc.name, desc.version)
        self._sample_memory()

    def _evict_below(self, name: str, floor: int) -> None:
        """Drop all versions of ``name`` strictly below ``floor``."""
        for server in self.group.servers:
            for v in server.versions(name):
                if v < floor:
                    server.evict(name, v)
        for v in list(self.log.logged_versions(name)):
            if v < floor:
                self.log.records.pop((name, v), None)

    def _ds_retention(self, name: str, version: int) -> None:
        """Bound original-staging retention to the coupling window.

        The consumed-version eviction in :meth:`get` is the primary policy;
        this put-side cap (latest ``ds_keep_versions`` + the flow-control
        window) guards against a stalled consumer accumulating versions.
        """
        self._evict_below(name, version - self.ds_keep_versions - 1)

    # ------------------------------------------------------------------ get

    def get(
        self,
        component: str,
        desc: ObjectDescriptor,
        replayed: bool = False,
        fraction: float = 1.0,
        ranks: int = 1,
    ) -> Generator:
        """Process fragment servicing one ``dspaces_get_with_log``."""
        start = self.engine.now
        yield from self._transfer(desc, fraction, ranks, EventKind.GET)
        self.read_response.add(self.engine.now - start)
        _SIM_GET_SECONDS.record(self.engine.now - start)
        if self.logging_enabled and not replayed:
            self.register(component)
            self.queues[component].record_data(EventKind.GET, desc, "", desc.version)
            self.log.record_get(desc.name, component, desc.version)
        if not self.logging_enabled:
            # Original staging drops a version once its consumer has read it
            # ("only keep the latest version of data in staging area").
            self._evict_below(desc.name, desc.version)
            self._sample_memory()

    # ----------------------------------------------------------- checkpoint

    def workflow_check(self, component: str, step: int) -> Generator:
        """Checkpoint notification: enqueue the event, then run the GC."""
        yield self.engine.timeout(
            self.machine.nic_latency + self.machine.staging_request_overhead
        )
        if not self.logging_enabled:
            return
        self.register(component)
        self.queues[component].record_checkpoint(step)
        report = self.gc.collect()
        self.gc_bytes_freed.add(report.bytes_freed)
        self._sample_memory()

    def workflow_restart(self, component: str, step: int) -> Generator:
        """Recovery notification: rebuild the client, pin the replay window."""
        yield self.engine.timeout(self.machine.staging_reconnect_time)
        if not self.logging_enabled:
            return
        self.register(component)
        queue = self.queues[component]
        script = queue.build_replay_script()
        queue.record_recovery(step, script.restored_chk)
        pins = {
            (ev.desc.name, ev.desc.version)
            for ev in script.events
            if ev.op is EventKind.GET and ev.desc is not None
        }
        if pins:
            self.gc.pin_replay(component, pins)

    def replay_done(self, component: str) -> None:
        """Release replay pins once the component has caught up."""
        self.gc.unpin_replay(component)

    # ------------------------------------------------------------ snapshots

    def snapshot_time(self) -> float:
        """Cost of capturing all staging servers (coordinated checkpoints).

        The first snapshot (and every snapshot when incremental capture is
        disabled) copies each server's full contents; afterwards an
        epoch-seal captures only the bytes newly staged since the previous
        snapshot — the copy-on-write delta — plus the fixed seal overhead.
        Servers capture in parallel, so the cost is the slowest server's.
        Also updates :attr:`last_snapshot_bytes` (what this snapshot ships).
        """
        incremental = (
            getattr(self.config, "incremental_staging_snapshots", True)
            and self._has_snapshot
        )
        if incremental:
            per_server = max(self._dirty_bytes.values(), default=0)
            self.last_snapshot_bytes = sum(self._dirty_bytes.values())
            t = (
                self.machine.staging_snapshot_seal_overhead
                + per_server / self.machine.staging_snapshot_bandwidth
            )
        else:
            per_server = max((s.nbytes for s in self.group.servers), default=0)
            self.last_snapshot_bytes = self.group.total_bytes
            t = per_server / self.machine.staging_snapshot_bandwidth
        self._has_snapshot = True
        self._dirty_bytes = {}
        return t

    def rollback_retention(self, restored_version: int) -> None:
        """Global rollback: drop staged versions newer than the snapshot."""
        for server in self.group.servers:
            for name in {n for (n, _v) in server._sizes}:
                for v in server.versions(name):
                    if v > restored_version:
                        server.evict(name, v)
        # The surviving state is exactly the snapshot again: the next
        # incremental capture's delta restarts from zero.
        self._dirty_bytes = {}
        for (name, v) in list(self.log.records):
            if v > restored_version:
                self.log.records.pop((name, v), None)
        self._sample_memory()

    # -------------------------------------------------------------- metrics

    @property
    def total_bytes(self) -> int:
        return self.group.total_bytes
