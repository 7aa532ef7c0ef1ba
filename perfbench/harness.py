"""Workloads, timed repetitions, output checks and end-to-end metrics.

One *repetition* is one whole ``ThreadedWorkflow.run()`` of the workload,
with failures injected into both components. A benchmark run is a set-up
phase (one failure-free ``ds`` reference run and one warm-up repetition)
followed by repetitions until the measuring time is used up. Every
repetition is checked against the reference; a repetition that fails a
check counts all of its operations as failed and is never dropped or re-run.

End-to-end latencies come from :class:`Probes`, thin timers around the
runtime's public calls that stay installed in every repetition, traced or
not, so every repetition pays the same small cost. End-to-end times are
scaled by the host's speed, measured by :func:`calibrate` between
repetitions with code that does not touch the program.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import multiprocessing
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.consistency import verify_read_stability
from repro.geometry.domain import Domain
from repro.runtime import (
    AppComponent,
    ComponentSpec,
    ConsumerComponent,
    CoordinatedProtocol,
    FailurePlan,
    ProducerComponent,
    SynchronizedStaging,
    ThreadedWorkflow,
    WorkflowResult,
)
from repro.staging.resilience import ProtectionConfig
from repro.workloads import coupled_specs, s3d_specs

__all__ = [
    "WORKLOADS",
    "E2E_METRICS",
    "TAIL_METRICS",
    "RAW_METRICS",
    "calibrate",
    "Workload",
    "Probes",
    "RepOutcome",
    "Patcher",
    "Session",
    "fingerprint",
    "percentile",
]

#: End-to-end metrics reported with tracing off: name -> unit. Times are
#: in reference-host units (see ``CAL_REF_S``).
E2E_METRICS = {
    "makespan_s": "s",
    "recovery_ms": "ms",
    "put_ms.p50": "ms",
    "get_ms.p50": "ms",
    "setup_s": "s",
}

#: Tail latencies, too unsteady for a bound at this run length; reported
#: with the per-layer metrics from the traced run's untraced repetitions.
TAIL_METRICS = {
    "put_ms.p95": "ms",
    "get_ms.p95": "ms",
}

#: The end-to-end times as measured, unscaled, with the mean calibration
#: round they were scaled by; reported with the per-layer metrics.
RAW_METRICS = {
    "raw.makespan_s": "s",
    "raw.recovery_ms": "ms",
    "raw.put_ms.p50": "ms",
    "raw.get_ms.p50": "ms",
    "raw.setup_s": "s",
    "host.calibration_ms": "ms",
}

#: One calibration round's time on the reference host. A run scales its
#: end-to-end times by ``CAL_REF_S`` / its mean calibration round, so they
#: read as seconds on a host where a round takes ``CAL_REF_S``. On the
#: 2-core host the benchmark was built on, single rounds took 36-65 ms.
CAL_REF_S = 0.050
#: Calibration rounds before every timed repetition.
CAL_ROUNDS = 3

#: Samples of an operation below which a run's p95 is flagged on standard
#: error as resting on few samples (fewer than ten beyond the percentile).
MIN_TAIL_SAMPLES = 200

#: Workflow join budget per repetition. A healthy repetition takes a few
#: seconds; a hang is reported as a failed repetition well inside the
#: benchmark's own time limit.
JOIN_TIMEOUT_S = 30.0


# ------------------------------------------------------------- calibration

_CAL_FLOATS = np.arange(1 << 18, dtype=np.float64)
_CAL_BYTES = bytes(range(256)) * (1 << 14)  # 4 MiB


def calibrate() -> float:
    """Seconds one round of fixed work takes; it calls no ``repro`` code.

    The round mixes the kinds of work a repetition does: interpreted
    Python, numpy passes over arrays, hashing and copying megabytes. Its
    time follows the host's speed, which on a shared host drifts by tens of
    percent within minutes, and no change to the program can move it.
    Single rounds vary a lot (a round lands on one core); a run averages
    many.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    x = _CAL_FLOATS
    for _ in range(10):
        x = np.sqrt(x + 1.0)
    for _ in range(4):
        hashlib.blake2b(_CAL_BYTES).digest()
        bytearray(_CAL_BYTES)
    return time.perf_counter() - t0


# --------------------------------------------------------------- workloads


def _coupled_tcp_specs(steps: int) -> list[ComponentSpec]:
    return coupled_specs(num_steps=steps)  # one 32^3 float64 field, periods 4/5


def _s3d_specs(steps: int) -> list[ComponentSpec]:
    dns, viz = s3d_specs(num_steps=steps, domain=Domain((16, 16, 16)))
    return [
        dataclasses.replace(dns, checkpoint_period=2),
        dataclasses.replace(viz, checkpoint_period=3),
    ]


def _bulk_specs(steps: int) -> list[ComponentSpec]:
    return coupled_specs(num_steps=steps, domain=Domain((128, 128, 64)))


@dataclass(frozen=True)
class Workload:
    """One named workflow configuration; inputs are drawn from a seed."""

    name: str
    why: str
    transport: str
    scheme: str
    num_servers: int
    steps: int
    failures_per_component: int
    build_specs: Callable[[int], list[ComponentSpec]]
    protection: ProtectionConfig | None = None
    coordinated_period: int | None = None

    @property
    def logging(self) -> bool:
        return self.scheme in ("uncoordinated", "hybrid")

    def specs(self) -> list[ComponentSpec]:
        return self.build_specs(self.steps)

    def workflow(self, scheme: str, failures: list[FailurePlan]) -> ThreadedWorkflow:
        return ThreadedWorkflow(
            self.specs(),
            scheme,
            num_servers=self.num_servers,
            failures=failures,
            coordinated_period=self.coordinated_period,
            join_timeout=JOIN_TIMEOUT_S,
            protection=self.protection,
        )

    def failure_plans(self, seed: int, rep: int) -> list[FailurePlan]:
        """Failures for repetition ``rep``, drawn from ``seed``.

        Each component fails ``failures_per_component`` times, once in each
        equal slice of the run. A failure ``k`` steps past a checkpoint
        re-executes ``k`` steps. ``k`` runs through 1 .. period-1 in turn,
        from a phase drawn from the seed, so every run re-executes about
        the same work whatever its seed; the checkpoint interval each
        failure lands in is drawn from ``(seed, rep)``. A failure never
        lands on a checkpoint boundary, so every recovery re-executes at
        least one step (that is what the benchmark measures).
        """
        phase = int(np.random.default_rng(seed).integers(1 << 16))
        rng = np.random.default_rng([seed, rep])
        edges = np.linspace(1, self.steps, self.failures_per_component + 1)
        plans = []
        for j, spec in enumerate(self.specs()):
            period = self.coordinated_period or spec.checkpoint_period
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                k = 1 + (phase + j + rep * self.failures_per_component + i) % (period - 1)
                choices = [s for s in range(int(lo), int(hi)) if s % period == k]
                plans.append(FailurePlan(spec.name, int(rng.choice(choices))))
        return plans


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="coupled-tcp",
            why="Case-1 coupling of one 256 KiB field over tcp with log replay; "
            "RPC round trips (probes, evictions) dominate",
            transport="tcp",
            scheme="uncoordinated",
            num_servers=2,
            steps=150,
            failures_per_component=2,
            build_specs=_coupled_tcp_specs,
        ),
        Workload(
            name="s3d-rs-inproc",
            why="S3D-like 10 fields of 32 KiB, RS(2+2) over 4 in-process servers; "
            "logging, coding and store work with the net layer bypassed",
            transport="inproc",
            scheme="uncoordinated",
            num_servers=4,
            steps=30,
            failures_per_component=2,
            build_specs=_s3d_specs,
            protection=ProtectionConfig(mode="rs", parity=2),
        ),
        Workload(
            name="bulk-co-shm",
            why="one 8 MiB field per step, coordinated C/R over shm; byte movement "
            "and cow snapshot/restore instead of log replay",
            transport="shm",
            scheme="coordinated",
            num_servers=2,
            steps=20,
            failures_per_component=3,
            build_specs=_bulk_specs,
            coordinated_period=4,
        ),
    )
}


# ------------------------------------------------------------------ patching


class Patcher:
    """Replace class or module attributes and put the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)``; a property's getter is
        wrapped in place. ``attr`` must be defined on ``owner`` itself."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(make(original.fget)))
        else:
            setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -------------------------------------------------------------------- probes


class Probes:
    """Timers around the runtime's public calls for the end-to-end metrics.

    * put/get latency: ``SynchronizedStaging.put`` / ``get_blocking``,
      flow-control and data waits included;
    * recovery: from entry to ``AppComponent.handle_local_failure`` (or
      ``CoordinatedProtocol.request_rollback``) until the failed
      component's ``execute_step`` returns for the failed step again;
    * log peak: ``logged_bytes()`` of the staging data log, read after each
      ``workflow_check`` returns (in-process and O(1), no RPC).
    """

    def __init__(self) -> None:
        self._patcher = Patcher()
        self.reset()

    def reset(self) -> None:
        self.put_s: list[float] = []
        self.get_s: list[float] = []
        self.recovery_s: list[float] = []
        self.log_peak_bytes = 0
        # component name -> [(failed step, start)], touched only by the
        # component's own thread.
        self._pending: dict[str, list[tuple[int, float]]] = {}

    @property
    def unfinished_recoveries(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def install(self) -> None:
        probes = self

        def timed(sink: Callable[[], list[float]]):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        sink().append(time.perf_counter() - t0)

                return wrapper

            return make

        def check_peak(fn):
            @functools.wraps(fn)
            def wrapper(service, *args, **kwargs):
                out = fn(service, *args, **kwargs)
                logged = service.staging.log.logged_bytes()
                if logged > probes.log_peak_bytes:
                    probes.log_peak_bytes = logged
                return out

            return wrapper

        def recovery_start(comp_of: Callable):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    comp, failure = comp_of(*args, **kwargs)
                    probes._pending.setdefault(comp.name, []).append(
                        (failure.at_step, time.perf_counter())
                    )
                    return fn(*args, **kwargs)

                return wrapper

            return make

        def step_end(fn):
            @functools.wraps(fn)
            def wrapper(comp, step):
                out = fn(comp, step)
                pending = probes._pending.get(comp.name)
                if pending:
                    now = time.perf_counter()
                    for item in [p for p in pending if p[0] == step]:
                        pending.remove(item)
                        probes.recovery_s.append(now - item[1])
                return out

            return wrapper

        p = self._patcher
        p.wrap(SynchronizedStaging, "put", timed(lambda: probes.put_s))
        p.wrap(SynchronizedStaging, "get_blocking", timed(lambda: probes.get_s))
        p.wrap(SynchronizedStaging, "workflow_check", check_peak)
        p.wrap(
            AppComponent,
            "handle_local_failure",
            recovery_start(lambda comp, failure: (comp, failure)),
        )
        p.wrap(
            CoordinatedProtocol,
            "request_rollback",
            recovery_start(lambda proto, comp, failure: (comp, failure)),
        )
        p.wrap(ProducerComponent, "execute_step", step_end)
        p.wrap(ConsumerComponent, "execute_step", step_end)

    def uninstall(self) -> None:
        self._patcher.undo()


# --------------------------------------------------------------- repetitions


@dataclass
class RepOutcome:
    """One checked repetition."""

    rep: int
    ok: bool
    error: str | None
    ops: int
    traced: bool
    makespan_s: float = 0.0
    put_s: list[float] = field(default_factory=list)
    get_s: list[float] = field(default_factory=list)
    recovery_s: list[float] = field(default_factory=list)
    log_peak_bytes: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def close_transports() -> None:
    """Close every wire transport's server processes (covers shm too).

    ``ThreadedWorkflow.run`` only shuts the staging service down; the
    server processes it spawned live until their transport is closed.
    """
    tcp = sys.modules.get("repro.net.tcp")
    if tcp is not None:
        tcp.shutdown_all()


def _consumer_results(result: WorkflowResult, specs: list[ComponentSpec]) -> dict:
    return {s.name: result.final_states[s.name]["results"] for s in specs if s.kind == "consumer"}


def check_outputs(
    wl: Workload, reference: WorkflowResult, result: WorkflowResult, plans: list, probes: Probes
) -> None:
    """Raise AssertionError unless the repetition produced correct output.

    Every repetition must read what the reference read; one with planned
    failures must also have fired them all and recovered from each.
    """
    if result.failures_injected != len(plans):
        raise AssertionError(
            f"{result.failures_injected} of {len(plans)} planned failures fired"
        )
    verify_read_stability(reference.observations, result.observations)
    specs = wl.specs()
    if _consumer_results(result, specs) != _consumer_results(reference, specs):
        raise AssertionError("consumer results differ from the failure-free reference")
    if not plans:
        return
    stats = result.component_stats.values()
    if wl.logging:
        if sum(s.replayed_gets for s in stats) == 0:
            raise AssertionError("no read was replayed from the staging log")
    elif sum(s.rollbacks for s in stats) == 0:
        raise AssertionError("no component rolled back")
    if len(probes.recovery_s) != len(plans) or probes.unfinished_recoveries:
        raise AssertionError(
            f"{len(probes.recovery_s)} of {len(plans)} recoveries re-executed "
            "their failed step"
        )


def planned_ops(wl: Workload) -> int:
    specs = wl.specs()
    return sum(s.num_steps * len(s.variables) for s in specs)


class Session:
    """Set-up state and repetitions of one workload inside one process."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.probes = Probes()
        self.reference: WorkflowResult | None = None
        self.calibration_s: list[float] = []
        self.setup_failures = 0
        self.setup_ops = 0
        self._next_rep = 1
        self._saved_transport: str | None = None

    def __enter__(self) -> "Session":
        self._saved_transport = os.environ.get("REPRO_TRANSPORT")
        os.environ["REPRO_TRANSPORT"] = self.wl.transport
        self.probes.install()
        return self

    def __exit__(self, *exc) -> None:
        self.probes.uninstall()
        close_transports()
        if self._saved_transport is None:
            os.environ.pop("REPRO_TRANSPORT", None)
        else:
            os.environ["REPRO_TRANSPORT"] = self._saved_transport

    def set_up(self) -> None:
        """Build the failure-free ``ds`` reference once, then warm up.

        The warm-up repetition is checked like a timed one and counts in
        the failure totals.
        """
        try:
            self.reference = self.wl.workflow("ds", []).run()
        finally:
            close_transports()
        warm = self.repetition(rep=0)
        self.setup_ops += warm.ops
        if not warm.ok:
            self.setup_failures += warm.ops
            print(f"warm-up repetition failed: {warm.error}", file=sys.stderr)

    def calibrate(self) -> None:
        """Time ``CAL_ROUNDS`` calibration rounds (between repetitions)."""
        self.calibration_s.extend(calibrate() for _ in range(CAL_ROUNDS))

    @property
    def host_scale(self) -> float:
        """Factor from this host's times to reference-host times."""
        return CAL_REF_S / statistics.fmean(self.calibration_s)

    def repetition(self, rep: int | None = None, tracer=None) -> RepOutcome:
        """Run and check one repetition; ``tracer`` records spans if given."""
        if rep is None:
            rep, self._next_rep = self._next_rep, self._next_rep + 1
        plans = self.wl.failure_plans(self.seed, rep)
        probes = self.probes
        probes.reset()
        result = None
        # Collect the previous repetition's garbage now, not inside this one.
        gc.collect()
        if tracer is not None:
            tracer.begin_run(rep)
        try:
            result = self.wl.workflow(self.wl.scheme, plans).run()
            check_outputs(self.wl, self.reference, result, plans, probes)
            error = None
        except Exception as exc:  # any failure of the run is a checked outcome
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end_run()
            close_transports()
        ops = len(probes.put_s) + len(probes.get_s)
        out = RepOutcome(
            rep=rep,
            ok=error is None,
            error=error,
            ops=max(ops, planned_ops(self.wl)) if error else ops,
            traced=tracer is not None,
        )
        if result is not None:
            stats = result.component_stats.values()
            out.makespan_s = result.wall_seconds
            out.counts = {
                "reexec_steps": sum(s.steps_reexecuted for s in stats),
                "replayed_gets": sum(s.replayed_gets for s in stats),
                "suppressed_puts": sum(s.suppressed_puts for s in stats),
                "puts": len(probes.put_s),
            }
        out.put_s, out.get_s = list(probes.put_s), list(probes.get_s)
        out.recovery_s = list(probes.recovery_s)
        out.log_peak_bytes = probes.log_peak_bytes
        return out


# ------------------------------------------------------------------- metrics


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def measured(reps: list[RepOutcome]) -> list[RepOutcome]:
    """Correct untraced repetitions."""
    return [r for r in reps if r.ok and not r.traced]


def latency_samples(reps: list[RepOutcome], name: str) -> list[float]:
    return [x for r in reps for x in (r.put_s if name == "put_ms" else r.get_s)]


def latency_metrics(runs: list[RepOutcome]) -> dict[str, float]:
    """Makespan, recovery and put/get latency over the given repetitions.

    Makespan is the median over repetitions, latencies are pooled over every
    operation and recovery is the mean over every injected failure.
    """
    out = {}
    if runs:
        out["makespan_s"] = statistics.median(r.makespan_s for r in runs)
    recs = [x for r in runs for x in r.recovery_s]
    if recs:
        out["recovery_ms"] = 1e3 * statistics.fmean(recs)
    for name in ("put_ms", "get_ms"):
        samples = latency_samples(runs, name)
        if samples:
            out[f"{name}.p50"] = 1e3 * percentile(samples, 50)
            out[f"{name}.p95"] = 1e3 * percentile(samples, 95)
    return out


def e2e_metrics(reps: list[RepOutcome], setup_s: float, scale: float) -> dict[str, float]:
    """End-to-end metrics of an untraced run: times over its correct
    repetitions, plus the set-up time, all multiplied by ``scale``."""
    values = latency_metrics(measured(reps))
    values["setup_s"] = setup_s
    return {name: values[name] * scale for name in E2E_METRICS if name in values}


def raw_metrics(reps: list[RepOutcome], setup_s: float, calibration_s: list[float]) -> dict[str, float]:
    """The end-to-end times unscaled, and the mean calibration round."""
    values = e2e_metrics(reps, setup_s, scale=1.0)
    out = {f"raw.{name}": value for name, value in values.items()}
    out["host.calibration_ms"] = 1e3 * statistics.fmean(calibration_s)
    return out


def fingerprint(wl: Workload, seed: int) -> dict:
    """Host and input identity recorded with every result."""
    return {
        "workload": wl.name,
        "seed": seed,
        "transport": wl.transport,
        "cores": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ------------------------------------------------------------------ teardown


def staging_children() -> list[str]:
    """Live staging-server child processes of this process."""
    return [p.name for p in multiprocessing.active_children() if p.name.startswith("staging-server-")]


def shm_segments() -> set[str]:
    from repro.net.shm import leaked_segment_names

    return set(leaked_segment_names())


def stop_helper_processes() -> None:
    """Stop and reap the forkserver and resource tracker, if started.

    Both are started on first use by multiprocessing and otherwise only
    exit after this process does; stopping them here means no process the
    benchmark started outlives it.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
