"""Shared HTTP core: one-write NODELAY responses and validated bodies.

Both front ends (``m3d-serve`` and ``m3d-route``) answer through
:mod:`m3d_fault_loc.serve.http`. These tests pin the properties that keep
keep-alive clients out of the Nagle/delayed-ACK stall — ``TCP_NODELAY`` on
the accepted socket and every response in exactly one socket write — and
the structured 400 for a malformed ``Content-Length``.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from m3d_fault_loc.data.synthetic import synthesize_fault_dataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.resilience import ExponentialBackoff, LoadSheddedError
from m3d_fault_loc.serve.router import ReplicaRouter, RouterPolicy, create_router_server
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService


class _CountingWriter:
    """``wfile`` wrapper counting writes since the last reset."""

    def __init__(self, inner):
        self._inner = inner
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Recorder:
    def __init__(self):
        self.nodelay: list[int] = []
        self.writes_per_response: list[int] = []

    def responses(self, n: int, timeout: float = 5.0) -> list[int]:
        """Writes per response once ``n`` responses are recorded (handler
        threads record just after the client has read the reply)."""
        deadline = time.monotonic() + timeout
        while len(self.writes_per_response) < n and time.monotonic() < deadline:
            time.sleep(0.005)
        return list(self.writes_per_response)


def instrument(server) -> _Recorder:
    """Swap in a subclass of the server's own handler that records the
    accepted socket's TCP_NODELAY flag and the writes of every response."""
    recorder = _Recorder()
    base = server.RequestHandlerClass

    class Recording(base):
        def setup(self):
            super().setup()
            recorder.nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            self.wfile = _CountingWriter(self.wfile)

        def handle_one_request(self):
            self.wfile.writes = 0
            super().handle_one_request()
            if self.wfile.writes:
                recorder.writes_per_response.append(self.wfile.writes)

    server.RequestHandlerClass = Recording
    return recorder


def serve_in_thread(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(21)
    return synthesize_fault_dataset(rng, n_graphs=20, n_gates=12, n_inputs=3)


@pytest.fixture()
def replica():
    service = LocalizationService(
        model=DelayFaultLocalizer(hidden=8, seed=4), batch_window_s=0.05
    )
    server = create_server(service, host="127.0.0.1", port=0)
    recorder = instrument(server)
    thread = serve_in_thread(server)
    yield server, recorder
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def router_to(ports, **policy):
    defaults = dict(
        attempt_timeout_s=2.0,
        probe_interval_s=None,
        backoff=ExponentialBackoff(base_s=0.001, max_s=0.005),
        default_deadline_s=5.0,
    )
    defaults.update(policy)
    router = ReplicaRouter(
        [("127.0.0.1", p) for p in ports], policy=RouterPolicy(**defaults)
    )
    server = create_router_server(router)
    recorder = instrument(server)
    thread = serve_in_thread(server)
    return server, router, recorder, thread


@pytest.fixture()
def router_front(replica):
    server, router, recorder, thread = router_to([replica[0].port])
    yield server, recorder
    server.shutdown()
    server.server_close()
    router.close()
    thread.join(timeout=5)


def exchange(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def raw_exchange(port, head: bytes) -> tuple[int, dict, bytes]:
    """Send raw request bytes; parse the one response the server sends."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, dict(response.getheaders()), response.read()


def localize_body(graph):
    return json.dumps({"graph": graph.to_json_dict(), "top_k": 3}).encode()


# -- one write per response, NODELAY on the accepted socket ------------------


def test_server_responses_are_single_writes_on_nodelay_sockets(replica, graphs, monkeypatch):
    server, recorder = replica
    assert exchange(server.port, "POST", "/localize", localize_body(graphs[0]))[0] == 200
    assert exchange(server.port, "GET", "/nope")[0] == 404
    bad = graphs[1].to_json_dict()
    bad["x"]["dtype"] = "float64"  # the contract gate rejects the dtype
    status, _, _ = exchange(server.port, "POST", "/localize", json.dumps({"graph": bad}).encode())
    assert status == 422

    def shed(*args, **kwargs):
        raise LoadSheddedError(1, 1.0)

    monkeypatch.setattr(server.service, "localize", shed)
    status, headers, _ = exchange(server.port, "POST", "/localize", localize_body(graphs[2]))
    assert status == 429 and headers["Retry-After"] == "1"
    assert exchange(server.port, "GET", "/metrics")[0] == 200

    assert recorder.responses(5) == [1, 1, 1, 1, 1]
    assert recorder.nodelay and all(recorder.nodelay)


def test_router_responses_are_single_writes_on_nodelay_sockets(router_front, graphs):
    server, recorder = router_front
    status, headers, _ = exchange(server.port, "POST", "/localize", localize_body(graphs[3]))
    assert status == 200 and headers["X-M3D-Attempts"] == "1"
    assert exchange(server.port, "GET", "/router/healthz")[0] == 200
    assert recorder.responses(2) == [1, 1]
    assert recorder.nodelay and all(recorder.nodelay)


def test_router_502_is_a_single_write():
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
    server, router, recorder, thread = router_to([dead_port])
    try:
        status, _, body = exchange(server.port, "POST", "/localize", b'{"graph": 1}')
        assert status == 502
        assert json.loads(body)["error"] == "no_replica_available"
        assert recorder.responses(1) == [1]
        assert all(recorder.nodelay)
    finally:
        server.shutdown()
        server.server_close()
        router.close()
        thread.join(timeout=5)


def test_response_bytes_keep_their_headers(replica, graphs):
    server, _ = replica
    status, headers, body = exchange(server.port, "POST", "/localize", localize_body(graphs[4]))
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(body)
    assert headers["X-M3D-Trace-Id"] == json.loads(body)["trace_id"]
    assert headers["Server"].startswith("m3d-serve/")
    status, headers, body = exchange(server.port, "GET", "/metrics")
    assert headers["Content-Type"] == "text/plain; version=0.0.4"
    assert int(headers["Content-Length"]) == len(body)


def test_http09_request_gets_a_bare_body(replica):
    server, _ = replica
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    assert json.loads(raw)["status"] == "ok"


# -- malformed Content-Length ------------------------------------------------


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_invalid_content_length_is_a_structured_400_on_both_fronts(
    replica, router_front, length
):
    head = (
        f"POST /localize HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    ).encode()
    for port in (replica[0].port, router_front[0].port):
        status, headers, body = raw_exchange(port, head)
        payload = json.loads(body)
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "Content-Length" in payload["detail"]
        assert payload["trace_id"] == headers["X-M3D-Trace-Id"]
        # the body was never read, so the connection is not reused
        assert headers["Connection"] == "close"


def test_missing_content_length_is_a_structured_400_on_both_fronts(replica, router_front):
    head = b"POST /localize HTTP/1.1\r\nHost: x\r\n\r\n"
    for port in (replica[0].port, router_front[0].port):
        status, headers, body = raw_exchange(port, head)
        payload = json.loads(body)
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "request body required" in payload["detail"]
        assert payload["trace_id"] == headers["X-M3D-Trace-Id"]


def test_oversized_body_closes_the_connection():
    service = LocalizationService(model=DelayFaultLocalizer(hidden=8, seed=4))
    server = create_server(service, host="127.0.0.1", port=0, max_body_bytes=16)
    thread = serve_in_thread(server)
    try:
        status, headers, body = exchange(server.port, "POST", "/localize", b"x" * 64)
        assert status == 413
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"] == "payload_too_large"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


# -- keep-alive regression ---------------------------------------------------


def test_keep_alive_requests_do_not_stall(replica, graphs):
    """20 sequential POSTs on one connection: the median stays far below
    the ~40 ms delayed-ACK floor a two-write response hits."""
    server, _ = replica
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    elapsed = []
    try:
        for graph in graphs:
            body = localize_body(graph)
            started = time.perf_counter()
            conn.request("POST", "/localize", body=body)
            response = conn.getresponse()
            response.read()
            elapsed.append(time.perf_counter() - started)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(elapsed) < 0.02, elapsed
