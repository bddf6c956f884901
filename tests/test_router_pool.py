"""Router upstream keep-alive: a bounded idle-connection pool per replica.

Idempotent requests reuse an idle connection to their replica instead of
dialing a new one per attempt; non-idempotent requests always dial fresh,
so the never-replay rule is untouched. A pooled socket that the replica
closed (restart on the same port) is retried once on a fresh connection and
never counts against the replica.
"""

import threading

import pytest

from m3d_fault_loc.serve.resilience import ExponentialBackoff
from m3d_fault_loc.serve.router import (
    MAX_IDLE_PER_REPLICA,
    REPLICA_UP,
    ReplicaRouter,
    RouterPolicy,
)
from m3d_fault_loc.testing.chaos import StubReplica


def make_router(stub, **overrides):
    policy = dict(
        attempt_timeout_s=2.0,
        max_attempts=3,
        eject_after=1,  # any failure charged to the replica ejects it
        cooldown_s=5.0,
        probe_interval_s=None,
        backoff=ExponentialBackoff(base_s=0.001, max_s=0.005),
        default_deadline_s=5.0,
    )
    policy.update(overrides)
    return ReplicaRouter([("127.0.0.1", stub.port)], policy=RouterPolicy(**policy))


@pytest.fixture()
def stub():
    replica = StubReplica("pool").start()
    yield replica
    if not replica.partitioned:
        replica.stop()


def test_sequential_requests_reuse_one_upstream_connection(stub):
    router = make_router(stub)
    try:
        for i in range(10):
            response = router.dispatch("POST", "/localize", f'{{"n": {i}}}'.encode(), {})
            assert response.status == 200
        assert router.dispatch("GET", "/model", None, {}).status == 200
        assert stub.served_count() == 11
        assert stub.accepted_count() == 1
    finally:
        router.close()


def test_non_idempotent_requests_never_take_a_pooled_connection(stub):
    router = make_router(stub)
    replica = router.replicas[0]
    try:
        assert router.dispatch("POST", "/localize", b'{"n": 0}', {}).status == 200
        assert stub.accepted_count() == 1
        pooled = replica.take_idle()
        assert pooled is not None
        replica.give_back(pooled)
        for i in range(3):
            response = router.dispatch("POST", "/admin/mutate", f'{{"n": {i}}}'.encode(), {})
            assert response.status == 200
        # one fresh connection per non-idempotent request; the pooled one
        # is still idle and was not used
        assert stub.accepted_count() == 4
        assert replica.take_idle() is pooled
    finally:
        router.close()


def test_stale_pooled_connection_after_restart_does_not_eject(stub):
    router = make_router(stub)
    replica = router.replicas[0]
    try:
        assert router.dispatch("POST", "/localize", b'{"n": 0}', {}).status == 200
        # Restart on the same port: the pooled socket now points at nothing.
        stub.partition()
        stub.heal()
        response = router.dispatch("POST", "/localize", b'{"n": 1}', {})
        assert response.status == 200
        assert response.attempts == 1
        assert replica.state == REPLICA_UP
        assert replica.failures_total == 0
        assert stub.accepted_count() == 2
        # the fresh connection went back to the pool and is reused
        assert router.dispatch("POST", "/localize", b'{"n": 2}', {}).status == 200
        assert stub.accepted_count() == 2
    finally:
        router.close()


def test_pool_never_holds_more_than_its_bound():
    stub = StubReplica("wide", hang_s=0.3).start()
    router = make_router(stub)
    replica = router.replicas[0]
    n = MAX_IDLE_PER_REPLICA + 4
    stub.hang_next(n)  # keep every request in flight at once
    statuses = []

    def call(i):
        statuses.append(router.dispatch("POST", "/localize", f'{{"n": {i}}}'.encode(), {}).status)

    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert statuses == [200] * n
        assert stub.accepted_count() == n
        idle = []
        while (conn := replica.take_idle()) is not None:
            idle.append(conn)
        assert len(idle) == MAX_IDLE_PER_REPLICA
        for conn in idle:
            replica.give_back(conn)
    finally:
        router.close()
        stub.stop()


def test_close_closes_every_pooled_connection(stub):
    router = make_router(stub)
    replica = router.replicas[0]
    assert router.dispatch("POST", "/localize", b'{"n": 0}', {}).status == 200
    pooled = replica.take_idle()
    assert pooled is not None and pooled.sock is not None
    replica.give_back(pooled)
    router.close()
    assert pooled.sock is None
    assert replica.take_idle() is None
