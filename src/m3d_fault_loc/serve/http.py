"""HTTP plumbing shared by the ``m3d-serve`` and ``m3d-route`` front ends.

- ``TCP_NODELAY`` on every accepted socket, and every response written
  with **one** ``send``: headers and body in separate sends on a Nagle
  socket stall each keep-alive response behind the client's delayed ACK
  (~40 ms on Linux);
- the request's trace id (a well-formed ``X-M3D-Trace-Id`` or a new one),
  bound to the handler thread and echoed on every response;
- a capped body read where a malformed or negative ``Content-Length`` is a
  structured 400, not a dropped connection;
- ``server_close()`` also ends open keep-alive connections, so a peer
  holding a pooled socket sees the close.
"""

from __future__ import annotations

import json
import socket
import threading
from collections.abc import Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from m3d_fault_loc.obs.context import (
    current_trace_id,
    new_trace_id,
    sanitize_trace_id,
    trace_context,
)
from m3d_fault_loc.obs.logging import get_logger

log = get_logger(__name__)

#: Request/response header carrying the trace id on every outcome.
TRACE_HEADER = "X-M3D-Trace-Id"

#: Extra response header for replies sent while the request body is still
#: unread: the connection cannot carry another request and is closed.
CLOSE_HEADERS = {"Connection": "close"}


class BadRequest(ValueError):
    """Client payload error (400); the message is safe to echo back.

    ``body_unread`` marks errors raised before the body was consumed, so the
    reply must close the connection.
    """

    def __init__(self, detail: str, body_unread: bool = False):
        super().__init__(detail)
        self.body_unread = body_unread


class PayloadTooLarge(ValueError):
    """Request body over the configured limit (413, never read)."""

    def __init__(self, length: int, limit: int):
        self.length = length
        self.limit = limit
        super().__init__(f"request body of {length} bytes exceeds the {limit}-byte limit")


class KeepAliveHTTPServer(ThreadingHTTPServer):
    """Threaded server that tracks its open connections.

    ``server_close()`` shuts down every open connection, so a peer holding
    an idle keep-alive socket (the router's upstream pool) reads EOF instead
    of being answered by a closed server. Like process exit, it cuts a
    response still being written: drain before closing, as the CLIs do.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler: type[BaseHTTPRequestHandler]):
        super().__init__(address, handler)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            open_socks = list(self._open)
        for sock in open_socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Keep-alive handler base: NODELAY, one-write responses, capped bodies."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Structured-log event of the debug access line.
    access_event = "http_access"
    #: Header lines ``send_response``/``send_header`` buffer until
    #: ``flush_headers`` (a stdlib attribute the type stubs leave out).
    _headers_buffer: list[bytes]

    def log_message(self, format: str, *args: Any) -> None:
        log.debug(self.access_event, client=self.address_string(), line=format % args)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._traced("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._traced("POST")

    def _traced(self, method: str) -> None:
        # Honor a well-formed inbound trace id; mint one otherwise.
        trace_id = sanitize_trace_id(self.headers.get(TRACE_HEADER)) or new_trace_id()
        with trace_context(trace_id):
            self.respond(method)

    def respond(self, method: str) -> None:
        """Answer one request; runs with the request's trace id bound."""
        raise NotImplementedError

    def send_bytes(
        self, status: int, body: bytes, headers: Mapping[str, str] | None = None
    ) -> None:
        """Write one complete response in a single socket write.

        ``Content-Type`` defaults to JSON; ``headers`` may override it and
        the trace id, and add any other header.
        """
        fields = {"Content-Type": "application/json", "Content-Length": str(len(body))}
        trace_id = current_trace_id()
        if trace_id is not None:
            fields[TRACE_HEADER] = trace_id
        fields.update(headers or {})
        self.send_response(status)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # HTTP/0.9 has no status line or headers
            return
        for name, value in fields.items():
            self.send_header(name, value)
        # end_headers() would flush the header block on its own; the blank
        # line and the body join the same buffer so one write sends all.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def send_json(
        self, status: int, payload: dict[str, Any], headers: Mapping[str, str] | None = None
    ) -> None:
        self.send_bytes(status, json.dumps(payload).encode(), headers)

    def send_error_json(
        self,
        status: int,
        error: str,
        headers: Mapping[str, str] | None = None,
        **fields: Any,
    ) -> None:
        """A structured error body: ``error``, then ``fields``, then the
        request's trace id, so a client can quote it."""
        self.send_json(status, {"error": error, **fields, "trace_id": current_trace_id()}, headers)

    def read_body(self, limit: int | None = None, required: bool = True) -> bytes:
        """The request body per ``Content-Length``, at most ``limit`` bytes.

        Raises :class:`BadRequest` for a non-integer or negative length (and
        for a missing or zero one when ``required``) and
        :class:`PayloadTooLarge` above ``limit``; neither reads the body.
        """
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw or 0)
        except ValueError:
            raise BadRequest(f"invalid Content-Length {raw!r}", body_unread=True) from None
        if length < 0:
            raise BadRequest(f"invalid Content-Length {raw!r}", body_unread=True)
        if length == 0:
            if required:
                raise BadRequest("request body required (Content-Length missing or zero)")
            return b""
        if limit is not None and length > limit:
            raise PayloadTooLarge(length, limit)
        return self.rfile.read(length)
