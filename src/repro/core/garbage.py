"""Garbage Collection Component (paper §III-A.2).

"Data staging servers periodically delete logged data which are related with
previous checkpoint periods without data dependency to other application
components, and only keep the latest version of data in staging area."

Concretely: a logged version ``v`` of variable ``X`` is collectable when

1. it is not the latest version of ``X`` (staging always serves the newest
   data to forward progress), and
2. for every consumer component ``C`` of ``X``, a rollback of ``C`` to its
   latest checkpoint could no longer re-read ``v`` — i.e. ``v`` is below
   ``C``'s replay *version floor* (the oldest version appearing in a GET
   after ``C``'s latest checkpoint), and
3. no component is currently mid-replay with ``v`` still pending in its
   script.

The GC also trims each component's event queue below its latest checkpoint.

Collection is **incremental and candidate-driven**, not scan-driven: the
data log notifies the collector of puts and gets (see
:meth:`~repro.core.data_log.DataLog.attach_listener`), checkpoint and
epoch advances push the affected names, and a pass drains a bounded batch
of candidates — its cost is O(candidates drained), independent of how much
state is logged. ``collect()`` remains the full sweep (now fast, because
every floor/index lookup is O(1)) and is the reference the incremental path
is differentially tested against. :class:`BackgroundCollector` runs bounded
passes on a thread, triggered by byte high/low watermarks on the log, so
retention trimming leaves the application's critical path entirely.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue
from repro.obs import registry as _obs
from repro.obs import trace as _trace

__all__ = ["GarbageCollector", "GCReport", "BackgroundCollector"]

_PASSES = _obs.counter("gc.passes")
_PASS_SECONDS = _obs.histogram("gc.pass.seconds")
_VERSIONS = _obs.counter("gc.versions_collected")
_BYTES_FREED = _obs.counter("gc.bytes_freed")
_EVENTS_TRIMMED = _obs.counter("gc.events_trimmed")
_CANDIDATES_QUEUED = _obs.counter("gc.candidates_queued")
_CANDIDATES_DEFERRED = _obs.counter("gc.candidates_deferred")
_PENDING_DRAINED = _obs.counter("gc.pending_evictions_drained")


@dataclass(frozen=True)
class GCReport:
    """Outcome of one collection pass."""

    versions_collected: int
    bytes_freed: int
    events_trimmed: int
    # Candidates a bounded pass ran out of budget for (re-queued).
    candidates_deferred: int = 0
    # Pending fragment evictions confirmed (transient faults that cleared).
    pending_drained: int = 0

    def __add__(self, other: "GCReport") -> "GCReport":
        return GCReport(
            self.versions_collected + other.versions_collected,
            self.bytes_freed + other.bytes_freed,
            self.events_trimmed + other.events_trimmed,
            self.candidates_deferred + other.candidates_deferred,
            self.pending_drained + other.pending_drained,
        )


@dataclass
class GarbageCollector:
    """Collects dead logged versions and trims event queues.

    ``queues`` maps component name to its event queue; ``queue_provider``
    (when set) is consulted instead, which lets the owner resolve queues
    lazily — a component registered *after* GC construction is then still
    seen. Either way, a consumer whose queue cannot be resolved is treated
    **conservatively** (rollback floor 0, keep everything): its rollback
    needs are unknown, and guessing "no rollback constraint" would let the
    GC collect versions that consumer still needs after a rollback.
    """

    log: DataLog
    queues: dict[str, EventQueue] = field(default_factory=dict)
    queue_provider: Callable[[str], EventQueue | None] | None = None
    # Components currently replaying; their scripts pin versions.
    _replaying: dict[str, set[tuple[str, int]]] = field(default_factory=dict)
    # Candidate work queue: names whose floor may have moved (FIFO, deduped).
    _candidates: deque = field(default_factory=deque, repr=False)
    _candidate_set: set = field(default_factory=set, repr=False)
    # Queues whose checkpoint advanced since they were last trimmed.
    _trim_candidates: set = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        # Candidate generation: the log pushes put/get notifications here.
        self.log.attach_listener(self)

    # -------------------------------------------------------------- candidates

    def push_candidate(self, name: str) -> None:
        """Queue ``name`` for re-examination by the next incremental pass."""
        if name not in self._candidate_set:
            self._candidate_set.add(name)
            self._candidates.append(name)
            _CANDIDATES_QUEUED.inc()

    def candidate_count(self) -> int:
        """Names awaiting an incremental pass."""
        return len(self._candidates)

    # ---- DataLog listener protocol ----

    def note_put(self, name: str, version: int) -> None:
        """A new version arrived: the superseded latest may now be dead."""
        if self.log.version_count(name) > 1:
            self.push_candidate(name)

    def note_get(self, name: str, component: str, version: int) -> None:
        """A read advanced a frontier: versions below it may now be dead."""
        if self.log.version_count(name) > 1:
            self.push_candidate(name)

    def note_checkpoint(self, component: str) -> None:
        """``component`` checkpointed: its rollback floors moved up, and its
        queue's pre-checkpoint window became trimmable."""
        for name in self.log.names_consumed_by(component):
            if self.log.version_count(name) > 1:
                self.push_candidate(name)
        self._trim_candidates.add(component)

    def note_epoch(self) -> None:
        """A staging checkpoint epoch advanced: re-examine every name still
        pinning more than one version (O(multi-version names), not
        O(records))."""
        for name in self.log.multi_version_names():
            self.push_candidate(name)

    # ------------------------------------------------------------ replay pins

    def pin_replay(self, component: str, pinned: set[tuple[str, int]]) -> None:
        """Pin (name, version) pairs while ``component`` replays them."""
        self._replaying[component] = set(pinned)

    def unpin_replay(self, component: str) -> None:
        """Release ``component``'s replay pins (script exhausted).

        The unpinned names go back on the candidate queue — versions the
        replay protected may be collectable now.
        """
        pins = self._replaying.pop(component, None)
        if pins:
            for name, _version in pins:
                self.push_candidate(name)

    def replay_pinned(self) -> set[tuple[str, int]]:
        """Union of all currently pinned (name, version) pairs."""
        pinned: set[tuple[str, int]] = set()
        for s in self._replaying.values():
            pinned |= s
        return pinned

    # -------------------------------------------------------------- analysis

    def _queue_for(self, component: str) -> EventQueue | None:
        if self.queue_provider is not None:
            return self.queue_provider(component)
        return self.queues.get(component)

    def version_floor(self, name: str) -> int | None:
        """Oldest version of ``name`` any consumer could still need.

        Per consumer the constraint is the minimum of its *rollback floor*
        (oldest version it would re-read after restoring its latest
        checkpoint) and its *read frontier + 1* (versions it has not consumed
        yet — a producer running ahead must not lose them). ``None`` means
        the variable has no registered consumer, so only the latest version
        must be kept. A consumer whose queue cannot be resolved contributes
        floor 0 (conservative: its rollback window is unknown).
        """
        floors: list[int] = []
        consumers = self.log.consumers_of(name)
        for comp in consumers:
            queue = self._queue_for(comp)
            if queue is None:
                # Unknown rollback state: assume the deepest possible
                # rollback and keep every version for this consumer.
                floors.append(0)
                continue
            frontier_floor = self.log.read_frontier(name, comp) + 1
            replay_floor = queue.version_floor(name)
            if replay_floor is not None:
                floors.append(min(replay_floor, frontier_floor))
            else:
                floors.append(frontier_floor)
        return min(floors) if floors else None

    def collectable(self, name: str) -> list[int]:
        """Versions of ``name`` that this pass may evict."""
        versions = self.log.logged_versions(name)
        if len(versions) <= 1:
            return []
        latest = versions[-1]
        pinned = self.replay_pinned()
        floor = self.version_floor(name)
        out = []
        for v in versions:
            if v == latest:
                continue
            if (name, v) in pinned:
                continue
            if floor is not None and v >= floor:
                continue
            out.append(v)
        return out

    # ------------------------------------------------------------------ drain

    def _drain_name(self, name: str, budget: int | None) -> tuple[list[int], bool]:
        """Collectable versions of ``name``, oldest first, up to ``budget``.

        Returns (versions, exhausted): ``exhausted`` is True when the budget
        ran out with collectable versions still left (the caller re-queues
        the name). The pass evicts what every name gathered together, so
        each server sees one eviction frame per pass.
        """
        versions = self.log.logged_versions(name)
        if len(versions) <= 1:
            return [], False
        pinned = self.replay_pinned()
        floor = self.version_floor(name)
        out: list[int] = []
        # versions[-1] (the latest) is always kept; the slice excludes it.
        for v in versions[:-1]:
            if floor is not None and v >= floor:
                break  # sorted: every later version is above the floor too
            if (name, v) in pinned:
                continue
            if budget is not None and len(out) >= budget:
                return out, True
            out.append(v)
        return out, False

    def _trim_queues(self, components) -> int:
        trimmed = 0
        for comp in components:
            queue = self._queue_for(comp)
            if queue is None:
                continue
            if queue.component in self._replaying:
                # Never trim a queue mid-replay; its script references it.
                continue
            trimmed += len(queue.trim_before(queue.trimmable_horizon()))
        return trimmed

    # ---------------------------------------------------------------- collect

    def collect(self) -> GCReport:
        """One full collection pass over every logged variable and queue.

        Still O(names × consumers) in the number of *logged names* (every
        floor lookup is now O(1)), but no longer rescans the record map per
        name. The incremental path (:meth:`collect_incremental`) is the
        production entry point; this full sweep is the reference behaviour
        and the recovery hammer.
        """
        t0 = perf_counter()
        with _trace.span("gc.collect"):
            drained, pending_freed = self.log.drain_pending_evictions()
            keys = []
            for name in self.log.names():
                collected, _ = self._drain_name(name, None)
                keys.extend((name, v) for v in collected)
                self._candidate_set.discard(name)
            versions = len(keys)
            freed = pending_freed + self.log.evict_versions(keys)
            # Full sweep covers everything: the candidate queue is satisfied.
            self._candidates = deque(
                n for n in self._candidates if n in self._candidate_set
            )
            trimmed = self._trim_queues(list(self.queues))
            self._trim_candidates.clear()
        _PASSES.inc()
        _VERSIONS.inc(versions)
        _BYTES_FREED.inc(freed)
        _EVENTS_TRIMMED.inc(trimmed)
        _PENDING_DRAINED.inc(drained)
        _PASS_SECONDS.record(perf_counter() - t0)
        return GCReport(
            versions_collected=versions,
            bytes_freed=freed,
            events_trimmed=trimmed,
            pending_drained=drained,
        )

    def collect_incremental(
        self,
        max_versions: int | None = None,
        max_seconds: float | None = None,
    ) -> GCReport:
        """Drain queued candidates within a bounded budget.

        Cost is O(candidates drained + versions evicted), independent of the
        total logged state. Candidates the budget could not cover stay on
        the queue (and are counted in ``candidates_deferred``), so repeated
        bounded passes converge to exactly what :meth:`collect` would do.
        ``max_seconds`` bounds the candidate walk; the versions it gathered
        are then evicted together, one pipelined frame per server.
        """
        t0 = perf_counter()
        deadline = t0 + max_seconds if max_seconds is not None else None
        with _trace.span("gc.collect_incremental"):
            drained, pending_freed = self.log.drain_pending_evictions()
            keys: list[tuple[str, int]] = []
            while self._candidates:
                if deadline is not None and perf_counter() > deadline:
                    break
                name = self._candidates.popleft()
                budget = None if max_versions is None else max_versions - len(keys)
                if budget is not None and budget <= 0:
                    self._candidates.appendleft(name)
                    break
                collected, exhausted = self._drain_name(name, budget)
                keys.extend((name, v) for v in collected)
                if exhausted:
                    # Budget ran out mid-name: keep it queued (at the back,
                    # so other candidates are not starved).
                    self._candidates.append(name)
                    break
                self._candidate_set.discard(name)
            versions = len(keys)
            freed = pending_freed + self.log.evict_versions(keys)
            deferred = len(self._candidates)
            trimmed = self._trim_queues(list(self._trim_candidates))
            self._trim_candidates.clear()
        _PASSES.inc()
        _VERSIONS.inc(versions)
        _BYTES_FREED.inc(freed)
        _EVENTS_TRIMMED.inc(trimmed)
        _CANDIDATES_DEFERRED.inc(deferred)
        _PENDING_DRAINED.inc(drained)
        _PASS_SECONDS.record(perf_counter() - t0)
        return GCReport(
            versions_collected=versions,
            bytes_freed=freed,
            events_trimmed=trimmed,
            candidates_deferred=deferred,
            pending_drained=drained,
        )

    def has_work(self) -> bool:
        """True when an incremental pass would do something."""
        return bool(
            self._candidates
            or self._trim_candidates
            or self.log.pending_eviction_count()
        )


class BackgroundCollector:
    """Runs bounded GC passes on a thread, driven by byte watermarks.

    The collector wakes every ``interval`` seconds, runs one bounded batch
    (keeping candidate/pending queues drained off the critical path), and —
    when the log's pinned bytes exceed ``high_watermark`` — bursts batches
    back-to-back until pressure falls below ``low_watermark`` or a burst
    stops making progress. ``run_batch`` is expected to take (and release)
    whatever lock serializes GC against the data path *per call*, so the
    data plane is never stalled for more than one batch.

    ``paused`` (optional) suspends collection while it returns True — the
    owner raises it around snapshot/restore/rebuild and active replays.
    """

    def __init__(
        self,
        run_batch: Callable[[], GCReport],
        pressure_bytes: Callable[[], int],
        high_watermark: int,
        low_watermark: int | None = None,
        interval: float = 0.05,
        paused: Callable[[], bool] | None = None,
    ) -> None:
        if low_watermark is None:
            low_watermark = high_watermark // 2
        if low_watermark > high_watermark:
            raise ValueError(
                f"low watermark {low_watermark} above high {high_watermark}"
            )
        self.run_batch = run_batch
        self.pressure_bytes = pressure_bytes
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.interval = interval
        self.paused = paused
        self.reports: list[GCReport] = []
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks = _obs.counter("gc.bg.ticks")
        self._batches = _obs.counter("gc.bg.batches")
        self._trips = _obs.counter("gc.bg.watermark_trips")
        _obs.gauge("gc.bg.high_watermark").set(high_watermark)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "BackgroundCollector":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="gc-background", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread and join it (idempotent)."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    def wakeup(self) -> None:
        """Nudge the collector (e.g. after a checkpoint or fault recovery)."""
        self._wake.set()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------ loop

    def _batch(self) -> GCReport:
        report = self.run_batch()
        self.reports.append(report)
        self._batches.inc()
        return report

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            self._ticks.inc()
            if self.paused is not None and self.paused():
                continue
            try:
                if self.pressure_bytes() >= self.high_watermark:
                    # Pressure burst: drain until the low watermark clears
                    # or a batch stops making progress. Each batch is one
                    # lock acquisition; between batches the data plane runs.
                    self._trips.inc()
                    while not self._stop.is_set():
                        if self.paused is not None and self.paused():
                            break
                        report = self._batch()
                        if self.pressure_bytes() <= self.low_watermark:
                            break
                        if (
                            report.versions_collected == 0
                            and report.pending_drained == 0
                        ):
                            break  # floors pin everything; wait for them to move
                else:
                    # Idle tick: keep candidate/pending queues short.
                    self._batch()
            except Exception:  # pragma: no cover — defensive: die quiet, not loud
                _obs.counter("gc.bg.errors").inc()
