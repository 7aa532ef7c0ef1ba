"""One pipelined eviction frame per server per GC pass, judged per slot.

A GC pass sends each server the versions it frees as one frame — one
``evict`` request per version, one round trip — and routes every slot's
outcome on its own: a transient slot queues exactly that version as
pending, a fail-stop server's slots are written off, and the rest are
freed. Fault injection stays per request on every transport (in-process
proxy, or the server-side wrapper behind tcp/shm).
"""

from __future__ import annotations

import pytest

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue
from repro.core.garbage import GarbageCollector
from repro.descriptors import ObjectDescriptor
from repro.errors import ObjectNotFound, ServerUnavailable, TransientServerError
from repro.faults import FaultPlan, inject_faults
from repro.geometry import Domain
from repro.obs import get_registry
from repro.staging import StagingClient, StagingGroup, StagingServer

from tests.conftest import make_payload

DOMAIN = Domain((16, 16, 8))
TRANSPORTS = ("inproc", "tcp", "shm")


def _desc(version: int) -> ObjectDescriptor:
    return ObjectDescriptor("field", version, DOMAIN.bbox)


def _counter(name: str) -> int:
    counter = get_registry().get(name)
    return 0 if counter is None else counter.value


@pytest.fixture(params=TRANSPORTS)
def logged(request):
    """4 servers, 4 logged versions of which v0..v2 are collectable."""
    group = StagingGroup.create(DOMAIN, num_servers=4, transport=request.param)
    client = StagingClient(group, client_id="frames")
    log = DataLog(group=group)
    queues = {"ana": EventQueue(component="ana")}
    gc = GarbageCollector(log=log, queues=queues, queue_provider=queues.get)
    for v in range(4):
        d = _desc(v)
        client.put(d, make_payload(d))
        log.record_put("field", v, d.nbytes, producer="sim", step=v)
        log.record_get("field", "ana", v)
    queues["ana"].record_checkpoint(step=3)
    yield request.param, group, client, log, gc
    group.close()


def _held(server, version: int) -> int:
    return len(server.inner.store.fragments("field", version))


class TestPerSlotOutcomes:
    def test_flaky_slot_pends_and_crashed_server_is_written_off(self, logged):
        transport, group, client, log, gc = logged
        # Server 1 fails only its second request (v1's slot); server 2 is
        # fail-stop from its first.
        inject_faults(
            group,
            [
                FaultPlan(server=1, op=1, kind="flaky", calls=1),
                FaultPlan(server=2, op=0, kind="crash"),
            ],
        )
        written_off = _counter("datalog.evictions.written_off")
        requests = _counter("net.tcp.requests")
        report = gc.collect()
        assert report.versions_collected == 3
        assert log.logged_versions("field") == [3]
        # One frame per server, one request per version inside it.
        if transport != "inproc":
            assert _counter("net.tcp.requests") - requests == len(group.servers)
        assert group.servers[1].op_count == 3
        assert log.pending_evictions() == {1: [("field", 1)]}
        assert _counter("datalog.evictions.written_off") - written_off == 3
        assert group.health.state(2) == "down"
        assert _held(group.servers[1], 1) > 0
        for v in (0, 2):
            assert _held(group.servers[1], v) == 0
        for sid in (0, 3):
            for v in (0, 1, 2):
                assert _held(group.servers[sid], v) == 0
        # The retry confirms the pending slot: the flaky budget is spent.
        drained, freed = log.drain_pending_evictions()
        assert (drained, log.pending_eviction_count()) == (1, 0)
        assert freed > 0
        assert _held(group.servers[1], 1) == 0
        assert _held(group.servers[1], 3) > 0  # the latest version is kept

    def test_pending_queue_rides_one_frame(self, logged):
        transport, group, client, log, gc = logged
        inject_faults(group, [FaultPlan(server=0, op=0, kind="flaky", calls=3)])
        gc.collect()
        assert log.pending_evictions() == {0: [("field", v) for v in range(3)]}
        requests = _counter("net.tcp.requests")
        drained, _freed = log.drain_pending_evictions()
        assert drained == 3
        if transport != "inproc":
            assert _counter("net.tcp.requests") - requests == 1


class TestEvictVersions:
    def test_unlogged_key_changes_nothing(self):
        group = StagingGroup.create(DOMAIN, num_servers=2, transport="inproc")
        log = DataLog(group=group)
        log.record_put("field", 0, 64, producer="sim", step=0)
        with pytest.raises(ObjectNotFound):
            log.evict_versions([("field", 0), ("field", 9)])
        assert log.logged_versions("field") == [0]
        assert log.logged_bytes() == 64


class TestInprocPipeline:
    def _server(self) -> StagingServer:
        server = StagingServer(0)
        d = _desc(0)
        server.put(d, make_payload(d))
        return server

    def test_outcomes_hold_each_slot(self):
        server = self._server()
        slots = server.pipeline(
            [("get", (_desc(5),)), ("evict", ("field", 0))], outcomes=True
        )
        assert isinstance(slots[0], ObjectNotFound)
        assert slots[1] == _desc(0).nbytes

    def test_default_raises_first_error_after_every_op_ran(self):
        server = self._server()
        with pytest.raises(ObjectNotFound):
            server.pipeline([("get", (_desc(5),)), ("evict", ("field", 0))])
        assert server.query_versions("field") == []

    def test_fault_proxy_counts_each_request(self):
        group = StagingGroup.create(DOMAIN, num_servers=1, transport="inproc")
        d = _desc(0)
        StagingClient(group).put(d, make_payload(d))
        inject_faults(group, [FaultPlan(server=0, op=1, kind="flaky", calls=1)])
        proxy = group.servers[0]
        slots = proxy.pipeline(
            [("evict", ("field", 7)), ("evict", ("field", 8)), ("evict", ("field", 0))],
            outcomes=True,
        )
        assert proxy.op_count == 3
        assert slots[0] == 0
        assert isinstance(slots[1], TransientServerError)
        assert slots[2] == d.nbytes
        inject_faults(group, [FaultPlan(server=0, op=0, kind="crash")])
        slots = proxy.pipeline([("evict", ("field", 0))], outcomes=True)
        assert isinstance(slots[0], ServerUnavailable)
