"""Outside-in tracing: spans around the public calls of each ``repro`` layer.

Nothing inside ``src/`` records spans; :class:`Tracer` wraps the public
entry points of each layer's module from here, for the traced repetitions
only, and puts the originals back afterwards. A span holds its name, start,
end, parent span and repetition id, plus an optional byte or item count.
Spans are kept in memory and written as JSONL once, at the end.

Parent links follow the calling thread. Work submitted to the staging
shard-I/O pool (``StagingGroup.executor``) is parented to the span that
submitted it, so a client's wait on its pool futures is covered by its
children and counts as their time, not its own self time.

Self time is a span's duration minus the union of its children's
intervals (clipped to the span).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable

from repro.core.data_log import DataLog
from repro.core.garbage import GarbageCollector
from repro.core.interface import WorkflowStaging
from repro.corec.reedsolomon import RSCode
from repro.obs import registry as obs_registry
from repro.runtime import (
    AppComponent,
    CheckpointStore,
    ConsumerComponent,
    CoordinatedProtocol,
    ProducerComponent,
    SynchronizedStaging,
)
from repro.staging.client import StagingClient, StagingGroup
from repro.staging.cow import StagingCheckpointer
from repro.staging.hashing import PlacementMap
from repro.staging.server import StagingServer

from perfbench.harness import RAW_METRICS, TAIL_METRICS, Patcher, RepOutcome, latency_metrics, measured

__all__ = ["PER_LAYER_METRICS", "NET_OPS", "Tracer", "layer_metrics", "per_layer_values", "span_stats"]

#: RPC ops reported one by one in the net layer.
NET_OPS = (
    "put_many",
    "get_many",
    "covers_all",
    "evict",
    "evict_older_than_version",
    "snapshot",
    "restore",
    "seal_delta",
)

_ms = "ms/run"
_n = "count/run"

#: Per-layer metrics of the traced run: name -> (unit, layer, moves, on).
#: ``moves`` is the end-to-end metric the layer metric should move and
#: ``on`` the workload where it should move (flat on the others).
PER_LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    **{name: (unit, "tail", "(itself)", "all") for name, unit in TAIL_METRICS.items()},
    **{
        name: (unit, "raw", name.split(".", 1)[1] if name.startswith("raw.") else "(scales them)", "all")
        for name, unit in RAW_METRICS.items()
    },
    "runtime.put.wait_ms": (_ms, "runtime", "makespan_s, put_ms.p50", "bulk-co-shm"),
    "runtime.get.wait_ms": (_ms, "runtime", "get_ms.p50, makespan_s", "bulk-co-shm"),
    "runtime.recovery_ms": (_ms, "runtime", "recovery_ms", "bulk-co-shm"),
    "runtime.checkpoint.save_ms": (_ms, "runtime", "makespan_s", "bulk-co-shm"),
    "runtime.reexec_steps": (_n, "runtime", "recovery_ms, makespan_s", "all"),
    "core.commit_ms": (_ms, "core", "put_ms.p50", "s3d-rs-inproc"),
    "core.digest_ms": (_ms, "core", "get_ms.p50", "bulk-co-shm"),
    "core.digest_MBps": ("MiB/s", "core", "get_ms.p50", "bulk-co-shm"),
    "core.gc_ms": (_ms, "core", "put_ms.p50, core.log_peak_mb", "s3d-rs-inproc"),
    "core.gc.versions": (_n, "core", "core.log_peak_mb", "s3d-rs-inproc"),
    "core.restart_ms": (_ms, "core", "recovery_ms", "s3d-rs-inproc"),
    "core.replayed_gets": (_n, "core", "recovery_ms", "uncoordinated"),
    "core.suppressed_puts": (_n, "core", "recovery_ms", "uncoordinated"),
    "core.log_peak_mb": ("MiB", "core", "(staging memory)", "uncoordinated"),
    "staging.client.put_ms": (_ms, "staging", "put_ms.p50", "all"),
    "staging.client.get_ms": (_ms, "staging", "get_ms.p50", "all"),
    "staging.placement_ms": (_ms, "staging", "put_ms.p50, get_ms.p50", "all"),
    "staging.server.put_ms": (_ms, "staging", "put_ms.p50", "s3d-rs-inproc"),
    "staging.server.get_ms": (_ms, "staging", "get_ms.p50", "s3d-rs-inproc"),
    "staging.resilience.protect_ms": (_ms, "staging", "put_ms.p50", "s3d-rs-inproc"),
    "staging.resilience.read_ms": (_ms, "staging", "get_ms.p50", "s3d-rs-inproc"),
    "staging.resilience.degraded_reads": (_n, "staging", "get_ms.p95", "s3d-rs-inproc"),
    "staging.cow.capture_ms": (_ms, "staging", "makespan_s", "bulk-co-shm"),
    "staging.cow.restore_ms": (_ms, "staging", "recovery_ms", "bulk-co-shm"),
    "corec.encode_ms": (_ms, "corec", "put_ms.p50, makespan_s", "s3d-rs-inproc"),
    "corec.encode_MBps": ("MiB/s", "corec", "put_ms.p50", "s3d-rs-inproc"),
    "corec.decode_ms": (_ms, "corec", "get_ms.p95", "s3d-rs-inproc"),
    **{
        f"net.rpc.{op}.{kind}": (
            _ms if kind == "ms" else _n,
            "net",
            "put_ms.p50, get_ms.p50, makespan_s",
            "coupled-tcp, bulk-co-shm",
        )
        for op in NET_OPS
        for kind in ("ms", "count")
    },
    "net.rpc.per_put": ("rpc/op", "net", "put_ms.p50", "coupled-tcp, bulk-co-shm"),
    "net.rpc.per_get": ("rpc/op", "net", "get_ms.p50", "coupled-tcp, bulk-co-shm"),
    "net.rpc.errors": (_n, "net", "get_ms.p95", "coupled-tcp, bulk-co-shm"),
    "net.put_MBps": ("MiB/s", "net", "put_ms.p50", "coupled-tcp, bulk-co-shm"),
    "trace.overhead": ("ratio", "trace", "(none)", "all"),
    "fail_frac": ("ratio", "run", "(all)", "all"),
}


def _nbytes(obj) -> int:
    nbytes = getattr(obj, "nbytes", None)
    return int(nbytes) if nbytes is not None else len(obj)


def _put_many_nbytes(_server, pairs) -> int:
    return sum(int(arr.nbytes) for _, arr in pairs)


def _matrix_nbytes(_code, matrix) -> int:
    return int(matrix.nbytes)


def _versions_collected(report) -> int:
    return report.versions_collected


class _TracedExecutor:
    """Pool facade that parents each task's spans to its submitter's span."""

    def __init__(self, pool, tracer: "Tracer") -> None:
        self._pool = pool
        self._tracer = tracer

    def submit(self, fn, /, *args, **kwargs):
        parent = self._tracer.current()
        local = self._tracer._local

        def task():
            saved = getattr(local, "stack", None)
            local.stack = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                local.stack = saved

        return self._pool.submit(task)

    def map(self, fn, *iterables):
        futures = [self.submit(fn, *args) for args in zip(*iterables)]
        return (f.result() for f in futures)

    def __getattr__(self, name):
        return getattr(self._pool, name)


class Tracer:
    """Records spans around public ``repro`` calls during traced repetitions."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent id, run id, quantity, raised)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patcher = Patcher()
        self.run_id: int | None = None
        self._degraded_start = 0
        # repetition id -> degraded reads the client counted during it
        self.degraded: dict[int, int] = {}

    # ---------------------------------------------------------------- spans

    def current(self) -> int:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def _span(self, name: str, qty_args: Callable | None = None, qty_out: Callable | None = None):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                local = tracer._local
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                parent = stack[-1] if stack else 0
                sid = next(tracer._ids)
                stack.append(sid)
                qty = qty_args(*args) if qty_args is not None else 0
                raised = False
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                    if qty_out is not None:
                        qty = qty_out(out)
                    return out
                except BaseException:
                    raised = True
                    raise
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    tracer.spans.append((sid, name, t0, t1, parent, tracer.run_id, qty, raised))

            return wrapper

        return make

    # -------------------------------------------------------------- install

    def _install(self) -> None:
        from repro.core import interface as core_interface
        from repro.net.tcp import RemoteServer
        from repro.net.tcpserver import SERVER_OPS
        from repro.runtime import staging_service
        from repro.staging import client as staging_client
        from repro.staging import resilience

        p, s = self._patcher, self._span
        targets: list[tuple[object, str, str, Callable | None, Callable | None]] = [
            # runtime
            (SynchronizedStaging, "put", "runtime.put", None, None),
            (SynchronizedStaging, "get_blocking", "runtime.get", None, None),
            (SynchronizedStaging, "workflow_check", "runtime.check", None, None),
            (SynchronizedStaging, "workflow_restart", "runtime.restart", None, None),
            (AppComponent, "handle_local_failure", "runtime.recovery", None, None),
            (CoordinatedProtocol, "request_rollback", "runtime.recovery", None, None),
            (CoordinatedProtocol, "perform_rollback", "runtime.recovery", None, None),
            (AppComponent, "take_checkpoint", "runtime.checkpoint", None, None),
            (CoordinatedProtocol, "coordinated_checkpoint", "runtime.checkpoint", None, None),
            (CoordinatedProtocol, "wait_all_done", "runtime.done_wait", None, None),
            (CheckpointStore, "save", "runtime.checkpoint.save", None, None),
            (ProducerComponent, "execute_step", "runtime.step", None, None),
            (ConsumerComponent, "execute_step", "runtime.step", None, None),
            # core
            (WorkflowStaging, "suppress_replayed_put", "core.commit", None, None),
            (WorkflowStaging, "commit_put", "core.commit", None, None),
            (WorkflowStaging, "commit_get", "core.commit", None, None),
            (WorkflowStaging, "commit_replayed_get", "core.commit", None, None),
            (WorkflowStaging, "handle_check", "core.check", None, None),
            (WorkflowStaging, "handle_restart", "core.restart", None, None),
            (staging_service, "payload_digest", "core.digest", _nbytes, None),
            (core_interface, "payload_digest", "core.digest", _nbytes, None),
            (GarbageCollector, "collect", "core.gc", None, _versions_collected),
            (GarbageCollector, "collect_incremental", "core.gc", None, _versions_collected),
            (DataLog, "evict", "core.evict", None, None),
            # staging
            (StagingClient, "put", "staging.client.put", None, None),
            (StagingClient, "get", "staging.client.get", None, None),
            (StagingClient, "covers", "staging.client.get", None, None),
            (StagingClient, "latest_version", "staging.client.get", None, None),
            (PlacementMap, "shards", "staging.placement", None, None),
            (StagingServer, "put", "staging.server.put", None, None),
            (StagingServer, "put_many", "staging.server.put", None, None),
            (StagingServer, "put_blob", "staging.server.put", None, None),
            (StagingServer, "get", "staging.server.get", None, None),
            (StagingServer, "get_many", "staging.server.get", None, None),
            (StagingServer, "get_blob", "staging.server.get", None, None),
            (StagingServer, "covers_all", "staging.server.get", None, None),
            (staging_client, "protected_put", "staging.resilience.protect", None, None),
            (resilience, "protected_put", "staging.resilience.protect", None, None),
            (staging_client, "read_record", "staging.resilience.read", None, None),
            (resilience, "read_record", "staging.resilience.read", None, None),
            (SynchronizedStaging, "snapshot", "staging.cow.capture", None, None),
            (SynchronizedStaging, "restore", "staging.cow.restore", None, None),
            (StagingCheckpointer, "seal", "staging.cow.seal", None, None),
            (StagingCheckpointer, "materialize", "staging.cow.materialize", None, None),
            # corec
            (RSCode, "encode_parity", "corec.encode", _matrix_nbytes, None),
            (RSCode, "decode_batch", "corec.decode", None, None),
        ]
        for op in sorted(SERVER_OPS | {"pipeline"}):
            qty = _put_many_nbytes if op == "put_many" else None
            targets.append((RemoteServer, op, f"net.rpc.{op}", qty, None))
        for owner, attr, name, qty_args, qty_out in targets:
            p.wrap(owner, attr, s(name, qty_args, qty_out))
        tracer = self
        p.wrap(
            StagingGroup,
            "executor",
            lambda fget: lambda group: _TracedExecutor(fget(group), tracer),
        )

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self._degraded_start = _degraded_reads()
        self._install()

    def end_run(self) -> None:
        self._patcher.undo()
        self.degraded[self.run_id] = _degraded_reads() - self._degraded_start

    # --------------------------------------------------------------- output

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, run, qty, raised in self.spans:
                row = {"run": run, "id": sid, "name": name, "start": t0, "end": t1, "parent": parent}
                if qty:
                    row["qty"] = qty
                if raised:
                    row["raised"] = True
                fh.write(json.dumps(row) + "\n")


def _degraded_reads() -> int:
    counter = obs_registry.get("staging.client.degraded_reads")
    return int(counter.value) if counter is not None else 0


# ------------------------------------------------------------------ analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self seconds, quantity, raised count,
    and RPCs issued below ``runtime.put`` / ``runtime.get`` roots."""
    by_id = {sp[0]: sp for sp in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        children[sp[4]].append((sp[2], sp[3]))
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0, "qty": 0, "raised": 0, "rpcs": 0}
    )
    for sid, name, t0, t1, _parent, _run, qty, raised in spans:
        row = stats[name]
        covered = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ()) if hi > t0 and lo < t1]
        row["count"] += 1
        row["total"] += t1 - t0
        row["self"] += (t1 - t0) - _union_length(covered)
        row["qty"] += qty
        row["raised"] += raised
        if name.startswith("net.rpc."):
            parent = _parent
            while parent:
                anc = by_id.get(parent)
                if anc is None:
                    break
                if anc[1] in ("runtime.put", "runtime.get"):
                    stats[anc[1]]["rpcs"] += 1
                    break
                parent = anc[4]
    return stats


def layer_metrics(stats: dict[str, dict[str, float]], rep: RepOutcome, degraded: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""

    def get(name: str, key: str) -> float:
        row = stats.get(name)
        return row[key] if row is not None else 0

    def ms(name: str, key: str = "self") -> float:
        return 1e3 * get(name, key)

    def mibps(name: str) -> float:
        secs = get(name, "total")
        return get(name, "qty") / 2**20 / secs if secs > 0 else 0.0

    rpc_total = {op: get(f"net.rpc.{op}", "total") for op in NET_OPS}
    puts, gets = get("runtime.put", "count"), get("runtime.get", "count")
    out = {
        "runtime.put.wait_ms": ms("runtime.put"),
        "runtime.get.wait_ms": ms("runtime.get"),
        "runtime.recovery_ms": ms("runtime.recovery"),
        "runtime.checkpoint.save_ms": ms("runtime.checkpoint.save", "total"),
        "runtime.reexec_steps": rep.counts.get("reexec_steps", 0),
        "core.commit_ms": ms("core.commit"),
        "core.digest_ms": ms("core.digest", "total"),
        "core.digest_MBps": mibps("core.digest"),
        "core.gc_ms": ms("core.gc"),
        "core.gc.versions": get("core.gc", "qty"),
        "core.restart_ms": ms("core.restart"),
        "core.replayed_gets": rep.counts.get("replayed_gets", 0),
        "core.suppressed_puts": rep.counts.get("suppressed_puts", 0),
        "core.log_peak_mb": rep.log_peak_bytes / 2**20,
        "staging.client.put_ms": ms("staging.client.put"),
        "staging.client.get_ms": ms("staging.client.get"),
        "staging.placement_ms": ms("staging.placement", "total"),
        "staging.server.put_ms": ms("staging.server.put", "total"),
        "staging.server.get_ms": ms("staging.server.get", "total"),
        "staging.resilience.protect_ms": ms("staging.resilience.protect"),
        "staging.resilience.read_ms": ms("staging.resilience.read"),
        "staging.resilience.degraded_reads": degraded,
        "staging.cow.capture_ms": ms("staging.cow.capture", "total"),
        "staging.cow.restore_ms": ms("staging.cow.restore", "total"),
        "corec.encode_ms": ms("corec.encode", "total"),
        "corec.encode_MBps": mibps("corec.encode"),
        "corec.decode_ms": ms("corec.decode", "total"),
        "net.rpc.per_put": get("runtime.put", "rpcs") / puts if puts else 0.0,
        "net.rpc.per_get": get("runtime.get", "rpcs") / gets if gets else 0.0,
        "net.rpc.errors": sum(row["raised"] for n, row in stats.items() if n.startswith("net.rpc.")),
        "net.put_MBps": mibps("net.rpc.put_many"),
    }
    for op in NET_OPS:
        out[f"net.rpc.{op}.ms"] = 1e3 * rpc_total[op]
        out[f"net.rpc.{op}.count"] = get(f"net.rpc.{op}", "count")
    return out


def layer_table(workload: str, metrics: dict[str, float], makespan_s: float, stats: dict) -> str:
    """The per-layer table and a self-time breakdown of one workload."""
    lines = [
        f"per-layer metrics ({workload}, median over traced repetitions)",
        f"{'layer':<8} {'metric':<34} {'value':>12} {'unit':<9} {'moves':<34} on (flat elsewhere)",
    ]
    for name, (unit, layer, moves, on) in PER_LAYER_METRICS.items():
        value = f"{metrics[name]:>12.3f}" if name in metrics else f"{'-':>12}"
        lines.append(f"{layer:<8} {name:<34} {value} {unit:<9} {moves:<34} {on}")
    lines.append("")
    lines.append(
        f"where the time goes (self time per run, one traced repetition; makespan {makespan_s * 1e3:.1f} ms; "
        "shares add up past 100% because two components and the pool run in parallel)"
    )
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self"])
    for name, row in rows:
        share = row["self"] / makespan_s if makespan_s > 0 else 0.0
        lines.append(
            f"  {name:<28} {row['self'] * 1e3:>10.1f} ms {share:>7.1%}  calls {row['count']:>6}"
        )
    return "\n".join(lines)


def per_layer_values(
    workload: str, tracer: Tracer, reps: list[RepOutcome], run_values: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of a traced run; prints the per-layer table.

    Layer metrics are medians over the correct traced repetitions; the tail
    latencies and the makespan the overhead is taken against come from the
    untraced ones. ``run_values`` are metrics of the whole run, added as is.
    """
    untraced = measured(reps)
    values = {k: v for k, v in latency_metrics(untraced).items() if k in TAIL_METRICS}
    values.update(run_values)
    traced = [r for r in reps if r.ok and r.traced]
    per_rep = []
    for r in traced:
        stats = span_stats([sp for sp in tracer.spans if sp[5] == r.rep])
        per_rep.append((r, stats, layer_metrics(stats, r, tracer.degraded[r.rep])))
    if not per_rep:
        return values
    for name in per_rep[0][2]:
        values[name] = statistics.median(m[name] for _, _, m in per_rep)
    if untraced:
        traced_s = statistics.median(r.makespan_s for r in traced)
        values["trace.overhead"] = traced_s / statistics.median(r.makespan_s for r in untraced) - 1.0
    per_rep.sort(key=lambda item: item[0].makespan_s)
    mid_rep, mid_stats, _ = per_rep[len(per_rep) // 2]
    print(layer_table(workload, values, mid_rep.makespan_s, mid_stats))
    return values
