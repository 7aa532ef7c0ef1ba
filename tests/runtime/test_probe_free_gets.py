"""Probe-free logged gets: the fetch is the readiness check.

On logged, unprotected staging a live get sends no coverage probe: it is
fetched once the data log holds a committed put of the version (or after a
quiet poll timeout, for data staged outside the service), and a miss waits
for the next arrival instead of spinning. These tests pin the resulting
invariants: one ``get_many`` per owning server and no ``covers_all`` per
get, no server call while the service's metadata lock is held, and bounded
retries for early readers.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.geometry import Domain
from repro.obs import get_registry
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import ProtectionConfig, StagingClient, StagingGroup

from tests.conftest import make_payload

DOMAIN = Domain((16, 16, 8))


def fdesc(version: int, name: str = "field") -> ObjectDescriptor:
    return ObjectDescriptor(name, version, DOMAIN.bbox)


def _counter(name: str) -> int:
    counter = get_registry().get(name)
    return 0 if counter is None else counter.value


class _Recorder:
    """Forwarding proxy that logs every server method call.

    ``on_call(server_id, op)`` runs on the calling thread just before the
    call is forwarded, so it can inspect that thread's lock state.
    """

    def __init__(self, inner, on_call) -> None:
        self._inner = inner
        self._on_call = on_call

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        on_call = self._on_call
        server_id = self._inner.server_id

        def call(*args, **kwargs):
            on_call(server_id, name)
            return attr(*args, **kwargs)

        return call


def _record_calls(group, on_call) -> None:
    for i, server in enumerate(group.servers):
        group.servers[i] = _Recorder(server, on_call)


def _service(group, poll_timeout: float = 0.05, max_wait: float = 10.0):
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True),
        poll_timeout=poll_timeout,
        max_wait=max_wait,
    )
    svc.register("sim")
    svc.register("ana")
    return svc


class TestPathSelection:
    def test_logged_unprotected_fetch_is_readiness(self):
        group = StagingGroup.create(DOMAIN, num_servers=2, transport="inproc")
        assert WorkflowStaging(group, enable_logging=True).fetch_is_readiness

    def test_protected_and_non_logged_keep_the_probe(self):
        plain = StagingGroup.create(DOMAIN, num_servers=2, transport="inproc")
        assert not WorkflowStaging(plain, enable_logging=False).fetch_is_readiness
        protected = StagingGroup.create(
            DOMAIN,
            num_servers=4,
            transport="inproc",
            protection=ProtectionConfig(mode="rs", parity=2),
        )
        assert not WorkflowStaging(protected, enable_logging=True).fetch_is_readiness

    @pytest.mark.parametrize("protected", [False, True])
    def test_only_the_protected_get_probes(self, protected, monkeypatch):
        group = StagingGroup.create(
            DOMAIN,
            num_servers=4,
            transport="inproc",
            protection=ProtectionConfig(mode="rs", parity=2) if protected else None,
        )
        svc = _service(group)
        d = fdesc(0)
        svc.put("sim", d, make_payload(d), 0)
        client = svc.staging.client
        probes = []
        real = client.covers
        monkeypatch.setattr(client, "covers", lambda desc: probes.append(desc) or real(desc))
        np.testing.assert_array_equal(svc.get_blocking("ana", d, 0).data, make_payload(d))
        assert bool(probes) == protected


class TestRoundTrips:
    def test_tcp_live_get_is_one_get_many_per_owner(self):
        group = StagingGroup.create(DOMAIN, num_servers=3, transport="tcp")
        try:
            svc = _service(group)
            d = fdesc(0)
            payload = make_payload(d)
            svc.put("sim", d, payload, 0)
            owners = {sid for sid, _box in group.placement.shards(d.bbox)}
            assert len(owners) > 1
            calls = []
            _record_calls(group, lambda sid, op: calls.append((sid, op)))
            result = svc.get_blocking("ana", d, 0)
            np.testing.assert_array_equal(result.data, payload)
            assert sorted(calls) == sorted((sid, "get_many") for sid in owners)
        finally:
            group.close()


class TestMetadataLockHoldsNoRoundTrip:
    def test_no_server_call_under_meta_on_put_get_path(self):
        group = StagingGroup.create(DOMAIN, num_servers=4)
        svc = _service(group)
        svc.declare_coupling("field", "ana")
        under_lock = []
        seen = []

        def on_call(sid, op):
            seen.append(op)
            if svc._meta._is_owned():
                under_lock.append((sid, op, threading.current_thread().name))

        _record_calls(group, on_call)
        versions = 12
        errors = []

        def producer():
            try:
                for v in range(versions):
                    d = fdesc(v)
                    svc.put("sim", d, make_payload(d), v)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        def consumer():
            try:
                for v in range(versions):
                    d = fdesc(v)
                    r = svc.get_blocking("ana", d, v)
                    np.testing.assert_array_equal(r.data, make_payload(d))
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=producer, name="producer"),
            threading.Thread(target=consumer, name="consumer"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert "get_many" in seen and "put_many" in seen
        assert under_lock == []


class TestWaiting:
    def test_early_get_waits_without_spinning(self):
        group = StagingGroup.create(DOMAIN, num_servers=2)
        poll = 0.05
        svc = _service(group, poll_timeout=poll)
        target = 5
        results = []

        def reader():
            results.append(svc.get_blocking("ana", fdesc(target), 0))

        retries = _counter("staging.service.data_phase.retries")
        t0 = time.monotonic()
        t = threading.Thread(target=reader)
        t.start()
        for v in range(target + 1):
            time.sleep(0.04)
            d = fdesc(v)
            svc.put("sim", d, make_payload(d), v)
        t.join(timeout=10)
        elapsed = time.monotonic() - t0
        assert results and results[0].served_version == target
        np.testing.assert_array_equal(results[0].data, make_payload(fdesc(target)))
        arrivals = target + 1
        timeouts = int(elapsed / poll) + 1
        assert _counter("staging.service.data_phase.retries") - retries <= (
            arrivals + timeouts
        )

    def test_miss_waits_for_next_arrival(self):
        """A logged version the servers no longer hold: every retry is paid
        for by an arrival or a poll timeout."""
        group = StagingGroup.create(DOMAIN, num_servers=2)
        poll = 0.05
        svc = _service(group, poll_timeout=poll, max_wait=0.5)
        d = fdesc(0)
        svc.put("sim", d, make_payload(d), 0)
        for server in group.servers:
            server.evict("field", 0)
        retries = _counter("staging.service.data_phase.retries")
        t0 = time.monotonic()
        with pytest.raises(Exception, match="waited over"):
            svc.get_blocking("ana", d, 0)
        elapsed = time.monotonic() - t0
        spent = _counter("staging.service.data_phase.retries") - retries
        assert 1 <= spent <= int(elapsed / poll) + 2

    def test_data_staged_outside_the_service_is_served(self):
        group = StagingGroup.create(DOMAIN, num_servers=2)
        poll = 0.1
        svc = _service(group, poll_timeout=poll)
        d = fdesc(3)
        payload = make_payload(d)
        StagingClient(group, client_id="outside").put(d, payload)
        t0 = time.monotonic()
        result = svc.get_blocking("ana", d, 0)
        elapsed = time.monotonic() - t0
        np.testing.assert_array_equal(result.data, payload)
        # Never logged: served by the blind fetch after one quiet poll.
        assert poll * 0.9 <= elapsed < poll * 2 + 0.5
