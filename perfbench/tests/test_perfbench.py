"""Tests of the benchmark itself: its contract file, inputs, trace and output.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.harness import (
    CAL_REF_S,
    E2E_METRICS,
    WORKLOADS,
    RepOutcome,
    Session,
    calibrate,
    e2e_metrics,
    raw_metrics,
)
from perfbench.tracing import NET_OPS, PER_LAYER_METRICS, Tracer, layer_metrics, span_stats
from repro.corec.reedsolomon import RSCode
from repro.net.tcp import RemoteServer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _spec() -> dict:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    return json.loads(raw)


# ------------------------------------------------------------- contract file


def test_benchmark_json_shape_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert not any(a.startswith("/") or ".." in a.split("/") for a in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128

    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    for unit in [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]:
        assert UNIT.fullmatch(unit), unit
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))

    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: row[0] for name, row in PER_LAYER_METRICS.items()
    }


# ------------------------------------------------------------------- inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_failure_plans_come_from_the_seed(name):
    wl = WORKLOADS[name]
    plans = wl.failure_plans(seed=3, rep=1)
    assert plans == wl.failure_plans(seed=3, rep=1)
    assert any(wl.failure_plans(seed=s, rep=1) != plans for s in range(4, 10))
    specs = {s.name: s for s in wl.specs()}
    assert {p.component for p in plans} == set(specs)
    assert len(plans) == wl.failures_per_component * len(specs)
    for p in plans:
        period = wl.coordinated_period or specs[p.component].checkpoint_period
        assert 1 <= p.step < wl.steps
        assert p.step % period, "a failure on a checkpoint boundary re-executes nothing"


def test_e2e_metrics_come_from_correct_untraced_repetitions():
    def rep(makespan, latency, recovery=(), ok=True, traced=False):
        return RepOutcome(
            rep=0, ok=ok, error=None if ok else "boom", ops=2, traced=traced,
            makespan_s=makespan, put_s=[latency], get_s=[2 * latency], recovery_s=list(recovery),
        )

    reps = [
        rep(2.0, 0.010, recovery=[0.4, 0.6]),
        rep(3.0, 0.020, recovery=[0.5]),
        rep(4.0, 0.030),
        # failed and traced repetitions are counted in the totals, never measured
        rep(9.0, 0.5, recovery=[5.0], ok=False),
        rep(9.0, 0.5, recovery=[5.0], traced=True),
    ]
    m = e2e_metrics(reps, setup_s=1.5, scale=1.0)
    assert set(m) == set(E2E_METRICS)
    assert m["makespan_s"] == pytest.approx(3.0)
    assert m["recovery_ms"] == pytest.approx(500.0)
    assert m["put_ms.p50"] == pytest.approx(20.0)
    assert m["get_ms.p50"] == pytest.approx(40.0)
    assert m["setup_s"] == 1.5
    # Every end-to-end time is scaled by the host factor; raw ones are not.
    scaled = e2e_metrics(reps, setup_s=1.5, scale=0.5)
    assert scaled == pytest.approx({name: 0.5 * value for name, value in m.items()})
    raw = raw_metrics(reps, setup_s=1.5, calibration_s=[0.04, 0.06])
    assert raw == pytest.approx({**{f"raw.{n}": v for n, v in m.items()}, "host.calibration_ms": 50.0})


def test_calibration_round_is_near_the_reference():
    # The scale stays near 1 on a host like the reference one; a factor of
    # ten either way means the calibration round no longer fits CAL_REF_S.
    rounds = sorted(calibrate() for _ in range(5))
    assert 0.1 < CAL_REF_S / rounds[2] < 10


# -------------------------------------------------------------------- trace


def _span(sid, name, t0, t1, parent, qty=0, raised=False):
    return (sid, name, t0, t1, parent, 1, qty, raised)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "runtime.put", 0.0, 10.0, 0),
        _span(2, "staging.client.put", 1.0, 4.0, 1),
        _span(3, "staging.client.put", 3.0, 6.0, 1),  # overlaps its sibling
        _span(4, "net.rpc.put_many", 9.0, 12.0, 1, qty=2**20),  # outlives parent
        _span(5, "net.rpc.covers_all", 3.5, 3.6, 3, raised=True),
    ]
    stats = span_stats(spans)
    assert stats["runtime.put"]["self"] == pytest.approx(10.0 - (5.0 + 1.0))
    assert stats["staging.client.put"]["self"] == pytest.approx(6.0 - 0.1)
    assert stats["runtime.put"]["rpcs"] == 2
    assert stats["net.rpc.covers_all"]["raised"] == 1
    assert stats["net.rpc.put_many"]["qty"] == 2**20


SHORT_S3D = dataclasses.replace(WORKLOADS["s3d-rs-inproc"], steps=12)
DELAY_S = 0.005


def _measure(wl, reps: int = 3):
    """End-to-end metrics over ``reps`` untraced repetitions and median
    per-layer metrics over as many traced ones, interleaved."""
    tracer = Tracer()
    outs = []
    with Session(wl, seed=7) as session:
        session.set_up()
        for _ in range(reps):
            outs.append(session.repetition())
            outs.append(session.repetition(tracer=tracer))
    assert all(o.ok for o in outs), [o.error for o in outs]
    per = []
    for o in (o for o in outs if o.traced):
        stats = span_stats([sp for sp in tracer.spans if sp[5] == o.rep])
        metrics = layer_metrics(stats, o, tracer.degraded[o.rep])
        metrics["encode_calls"] = stats["corec.encode"]["count"]
        metrics["puts"] = o.counts["puts"]
        per.append(metrics)
    return e2e_metrics(outs, setup_s=0.0, scale=1.0), {k: statistics.median(m[k] for m in per) for k in per[0]}


def _delayed(fn):
    def slow(*args, **kwargs):
        time.sleep(DELAY_S)
        return fn(*args, **kwargs)

    return slow


def _bounds() -> dict[str, float]:
    return {m["name"]: m["bound"] for m in _spec()["end_to_end"]}


def test_encode_delay_shows_in_corec_and_the_bounded_metrics(monkeypatch):
    base_e2e, base = _measure(SHORT_S3D)
    monkeypatch.setattr(RSCode, "encode_parity", _delayed(RSCode.encode_parity))
    e2e, slow = _measure(SHORT_S3D)
    added_s = slow["encode_calls"] * DELAY_S
    encode_rise_s = (slow["corec.encode_ms"] - base["corec.encode_ms"]) / 1e3
    assert encode_rise_s >= 0.7 * added_s
    # The gated end-to-end metrics must flag the slower encoder.
    bounds = _bounds()
    for name in ("makespan_s", "put_ms.p50"):
        assert e2e[name] > base_e2e[name] * (1 + bounds[name]), (name, base_e2e[name], e2e[name])


def test_net_delay_leaves_inproc_workload_unchanged(monkeypatch):
    base_e2e, base = _measure(SHORT_S3D)
    for op in NET_OPS:
        monkeypatch.setattr(RemoteServer, op, _delayed(getattr(RemoteServer, op)))
    e2e, slow = _measure(SHORT_S3D)
    assert all(slow[f"net.rpc.{op}.count"] == 0 for op in NET_OPS)
    # Had every put paid even one delayed round trip, the producer would
    # have lost puts * DELAY_S; the inproc workload must not move by half.
    assert abs(e2e["makespan_s"] - base_e2e["makespan_s"]) < 0.5 * base["puts"] * DELAY_S
    bounds = _bounds()
    assert e2e["put_ms.p50"] < base_e2e["put_ms.p50"] * (1 + bounds["put_ms.p50"])


# ------------------------------------------------------------------ command


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled-tcp", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
