"""Non-logged retention (``WorkflowStaging.drop_consumed``) on the put path.

Retention sends each server one public op: the server clamps the floor to
its own newest version, so no latest-version read precedes it, and a
server that cannot be reached is skipped instead of failing the put.
"""

from __future__ import annotations

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.errors import ServerUnavailable
from repro.geometry import Domain
from repro.staging import StagingGroup

from tests.conftest import make_payload

DOMAIN = Domain((16, 16, 8))


class _Unreachable:
    """A server whose retention op fail-stops; data ops pass through.

    Its store is off limits: retention must not read it on the data path.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def store(self):
        raise AssertionError("retention read a server's store directly")

    def evict_older_than_version(self, name: str, version: int) -> int:
        raise ServerUnavailable(self._inner.server_id)


class _Guarded(_Unreachable):
    """Reachable server whose store is still off limits."""

    def evict_older_than_version(self, name: str, version: int) -> int:
        return self._inner.evict_older_than_version(name, version)


def _desc(version: int) -> ObjectDescriptor:
    return ObjectDescriptor("field", version, DOMAIN.bbox)


def test_unreachable_server_is_skipped_and_the_put_completes():
    group = StagingGroup.create(DOMAIN, num_servers=3)
    staging = WorkflowStaging(group, enable_logging=False)
    staging.register("sim")
    floor = {"field": 0}
    staging.frontier_source = floor.get
    for i, server in enumerate(group.servers):
        group.servers[i] = _Unreachable(server) if i == 1 else _Guarded(server)
    for v in range(3):
        d = _desc(v)
        floor["field"] = v  # every version below v has been consumed
        result = staging.handle_put("sim", d, make_payload(d), step=v)
        assert result.stored
    for i, server in enumerate(group.servers):
        held = server._inner.query_versions("field")
        assert held == ([0, 1, 2] if i == 1 else [2]), (i, held)


def test_floor_above_every_version_keeps_the_latest():
    group = StagingGroup.create(DOMAIN, num_servers=2)
    staging = WorkflowStaging(group, enable_logging=False)
    staging.register("sim")
    staging.frontier_source = lambda name: 99
    for v in range(3):
        d = _desc(v)
        staging.handle_put("sim", d, make_payload(d), step=v)
    for server in group.servers:
        assert server.query_versions("field") == [2]
