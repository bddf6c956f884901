"""Closed-loop keep-alive load generator for ``POST /localize``.

Each client thread owns one persistent ``http.client`` connection and sends
its next request only after the previous answer's last body byte arrived —
the way a diagnosis tool waits for each die's answer. Every request records
``perf_counter`` readings before the send and after the last body byte.
With ``spans=True`` it also records them after the send and after the
response headers were parsed, and the pass returns them as named spans
(``send``, ``wait_headers``, ``read_body`` under one ``request`` span),
kept in memory until the caller writes them out.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from inputs import REJECT, Request

REQUEST_TIMEOUT_S = 30.0
_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Outcome:
    client: int
    index: int
    request: Request
    status: int | None = None
    body: bytes = b""
    attempts: int | None = None
    replica: str | None = None
    t_start: float = 0.0
    t_sent: float = 0.0
    t_headers: float = 0.0
    t_end: float = 0.0
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.t_end - self.t_start) * 1e3


@dataclass
class PassResult:
    outcomes: list[Outcome]
    window_s: float
    spans: list[dict] = field(default_factory=list)


def send_one(conn: http.client.HTTPConnection, out: Outcome, trace: bool = False) -> None:
    """One request/response exchange on ``conn``, timestamps into ``out``;
    the two intermediate readings are taken only when ``trace`` is set."""
    out.t_start = time.perf_counter()
    try:
        conn.request("POST", "/localize", body=out.request.body, headers=_HEADERS)
        if trace:
            out.t_sent = time.perf_counter()
        resp = conn.getresponse()
        if trace:
            out.t_headers = time.perf_counter()
        out.body = resp.read()
        out.t_end = time.perf_counter()
        out.status = resp.status
        attempts = resp.getheader("X-M3D-Attempts")
        out.attempts = int(attempts) if attempts is not None else None
        out.replica = resp.getheader("X-M3D-Replica")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        out.t_end = time.perf_counter()
        out.error = f"{type(exc).__name__}: {exc}"
        conn.close()


def run_pass(
    addr: tuple[str, int],
    client_requests: list[Iterable[Request]],
    should_stop: Callable[[float, int], bool],
    watchdog: Callable[[], None] = lambda: None,
    spans: bool = False,
    fresh_connections: bool = False,
) -> PassResult:
    """Drive every client list concurrently until ``should_stop(elapsed_s,
    samples)`` says so or a client runs out of requests.

    ``samples`` counts completed requests that expect a 200. ``watchdog`` is
    called every few milliseconds from the coordinating thread (it raises if
    a server died). ``fresh_connections`` opens a new connection per request.
    """
    stop = threading.Event()
    results: list[list[Outcome]] = [[] for _ in client_requests]
    samples = [0]
    count_lock = threading.Lock()

    def client_loop(c: int) -> None:
        conn = http.client.HTTPConnection(addr[0], addr[1], timeout=REQUEST_TIMEOUT_S)
        try:
            for i, req in enumerate(client_requests[c]):
                if stop.is_set():
                    return
                if fresh_connections:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        addr[0], addr[1], timeout=REQUEST_TIMEOUT_S
                    )
                out = Outcome(client=c, index=i, request=req)
                send_one(conn, out, trace=spans)
                results[c].append(out)
                if req.kind != REJECT:
                    with count_lock:
                        samples[0] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"perfbench-client-{c}", daemon=True)
        for c in range(len(client_requests))
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    try:
        while any(t.is_alive() for t in threads):
            watchdog()
            with count_lock:
                done = samples[0]
            if should_stop(time.perf_counter() - t0, done):
                stop.set()
            time.sleep(0.005)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=REQUEST_TIMEOUT_S + 5)
    outcomes = [o for per_client in results for o in per_client]
    window = max((o.t_end for o in outcomes), default=t0) - t0
    result = PassResult(outcomes=outcomes, window_s=window)
    if spans:
        result.spans = [s for o in outcomes for s in _spans(o)]
    return result


def _spans(o: Outcome) -> list[dict]:
    rid = f"c{o.client}-{o.index}"
    root = {"id": rid, "name": "request", "parent": None, "start": o.t_start, "end": o.t_end,
            "kind": o.request.kind, "status": o.status}
    if o.error is not None:
        return [root]
    return [
        root,
        {"id": f"{rid}.send", "name": "send", "parent": rid, "start": o.t_start, "end": o.t_sent},
        {"id": f"{rid}.wait_headers", "name": "wait_headers", "parent": rid,
         "start": o.t_sent, "end": o.t_headers},
        {"id": f"{rid}.read_body", "name": "read_body", "parent": rid,
         "start": o.t_headers, "end": o.t_end},
    ]


def write_spans(path: Path, spans: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
