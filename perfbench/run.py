#!/usr/bin/env python3
"""Whole-workflow benchmark of the staging runtime.

Runs one named workload (see ``perfbench/README.md``) as whole
``ThreadedWorkflow`` runs with injected component failures, checks every
run against a failure-free reference, and prints the metrics as one JSON
object on the last line of standard output::

    python3 perfbench/run.py --workload coupled-tcp --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced repetitions and reports the per-layer metrics, writes
the spans to ``.perfbench_out/`` and prints the per-layer table.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Stop starting repetitions this long after process start, so a run with a
#: hanging repetition still ends inside its time limit.
HARD_STOP_S = 140.0
#: In a traced run every ``TRACE_EVERY``-th repetition is traced; the
#: untraced ones give the tail latencies and the overhead's reference.
TRACE_EVERY = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _prepare() -> None:
    """Make the checkout's sources importable; keep temp files inside it."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / "tmp"
    # multiprocessing puts its forkserver's unix socket under TMPDIR; a
    # socket path must stay under ~100 bytes, so only short checkouts move it.
    if len(str(tmp)) <= 60:
        tmp.mkdir(exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare()

    from perfbench.harness import (
        E2E_METRICS,
        MIN_TAIL_SAMPLES,
        TAIL_METRICS,
        WORKLOADS,
        Session,
        e2e_metrics,
        fingerprint,
        latency_samples,
        measured,
        raw_metrics,
        shm_segments,
        staging_children,
        stop_helper_processes,
    )
    from perfbench.tracing import PER_LAYER_METRICS, Tracer, per_layer_values

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    segments_before = shm_segments()
    tracer = Tracer() if args.trace else None
    reps = []
    with Session(wl, args.seed) as session:
        session.set_up()
        setup_s = time.perf_counter() - _T0
        deadline = time.perf_counter() + args.seconds
        while True:
            now = time.perf_counter()
            if now - _T0 > HARD_STOP_S:
                break
            traced = tracer is not None and len(reps) % TRACE_EVERY == TRACE_EVERY - 1
            # A traced run needs at least one repetition of each kind.
            if now >= deadline and (tracer is None or any(r.traced for r in reps)):
                break
            session.calibrate()
            rep = session.repetition(tracer=tracer if traced else None)
            if not rep.ok:
                print(f"repetition {len(reps)} failed: {rep.error}", file=sys.stderr)
            reps.append(rep)

    leftover = staging_children()
    new_segments = sorted(shm_segments() - segments_before)
    stop_helper_processes()
    if leftover:
        print(f"server processes outlived the benchmark: {leftover}", file=sys.stderr)
    if new_segments:
        print(f"shm segments outlived the benchmark: {new_segments}", file=sys.stderr)

    attempted = session.setup_ops + sum(r.ops for r in reps)
    failed = session.setup_failures + sum(r.ops for r in reps if not r.ok)
    info = fingerprint(wl, args.seed)
    info.update(repetitions=len(reps), traced=sum(r.traced for r in reps))
    print(json.dumps({"fingerprint": info}))

    if tracer is None:
        values = e2e_metrics(reps, setup_s, session.host_scale)
        units = E2E_METRICS
    else:
        run_values = raw_metrics(reps, setup_s, session.calibration_s)
        run_values["fail_frac"] = failed / attempted
        values = per_layer_values(wl.name, tracer, reps, run_values)
        units = {name: spec[0] for name, spec in PER_LAYER_METRICS.items()}
        tracer.write_jsonl(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")

    if tracer is not None:
        for name in TAIL_METRICS:
            n = len(latency_samples(measured(reps), name.split(".")[0]))
            if n < MIN_TAIL_SAMPLES:
                print(f"{name} rests on {n} samples (< {MIN_TAIL_SAMPLES})", file=sys.stderr)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units if name in values}
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.4f} {m['unit']}")
    correct = failed == 0 and not leftover and not new_segments and not missing
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        record = {"fingerprint": info, "trace": args.trace, "calibration_s": session.calibration_s}
        record["makespans_s"] = [r.makespan_s for r in reps]
        fh.write(json.dumps({**record, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
