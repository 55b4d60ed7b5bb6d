"""Stdlib-only HTTP adapter over :class:`IntegrationService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no new dependencies — exposing the three endpoints a deployment
needs:

``POST /integrate``
    Body: ``{"tables": [{"name", "columns", "rows"}, ...],
    "deadline_ms": <optional>, "overrides": {<optional MatchConfig fields>}}``.
    Replies with the integrated table, the request trace and a ``status``;
    the HTTP code mirrors the service outcome (200 ok, 503 overloaded,
    504 deadline exceeded, 503 + ``Retry-After`` when the embedder breaker
    is open under ``degraded_mode="fail"``, 400 bad request / pipeline
    error).
``GET /stats``
    The :meth:`IntegrationService.stats` snapshot as JSON (including the
    embedder breaker state).
``GET /healthz``
    Three-state health driven by the embedder circuit breaker:
    ``"healthy"`` (breaker closed, 200), ``"degraded"`` (breaker open but
    ``degraded_mode="surface"`` keeps answers flowing, 200), or
    ``"unhealthy"`` (breaker open with no degraded path, 503).

Null cells (plain or labelled) serialise as JSON ``null`` on the way out and
JSON ``null`` deserialises to :data:`~repro.table.nulls.NULL` on the way in,
so a round-trip preserves the missing-value semantics of Figure 1.

Connections are ``Connection: close`` — one request per connection keeps the
parser honest and is plenty for the smoke-test and benchmark traffic this
adapter serves; a production fleet would sit it behind a real ingress.  Open
connections are capped at the service's own admission bound
(``max_concurrency + max_pending``) plus :data:`CONNECTION_HEADROOM`; a
connection over the cap is answered 503 at once and its request is never
parsed, so idle or stalled sockets cannot pile up server tasks.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.service.service import IntegrationService
from repro.service.types import (
    DeadlineExceeded,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    ServiceOverloaded,
    ServiceResponse,
)
from repro.table.nulls import NULL, is_null
from repro.table.table import Table

#: Service outcome ``status`` -> HTTP status line.
STATUS_CODES = {
    "ok": (200, "OK"),
    "overloaded": (503, "Service Unavailable"),
    "deadline_exceeded": (504, "Gateway Timeout"),
    "unavailable": (503, "Service Unavailable"),
    "error": (400, "Bad Request"),
}

MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a client gets to send its whole request (request line, headers and
#: body); a client still sending after that is answered 408 and disconnected,
#: so a stalled connection cannot hold a server task forever.
READ_TIMEOUT_SECONDS = 30.0

#: Connections allowed beyond the service's admission bound, so ``/healthz``
#: and ``/stats`` still answer while every admission slot is taken.
CONNECTION_HEADROOM = 4

#: Seconds a refused connection is given to finish sending and close.
REFUSED_LINGER_SECONDS = 1.0


class BadRequest(ValueError):
    """The request body did not describe a valid integration request."""


def table_to_json(table: Table) -> Dict[str, Any]:
    """Serialise a table; null cells (plain or labelled) become ``null``."""
    return {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [
            [None if is_null(cell) else cell for cell in row] for row in table.rows
        ],
    }


def tables_from_json(payload: Any) -> List[Table]:
    """Parse the ``tables`` field of an ``/integrate`` body."""
    if not isinstance(payload, list) or not payload:
        raise BadRequest("'tables' must be a non-empty list of table objects")
    tables = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict) or "columns" not in entry:
            raise BadRequest(f"tables[{index}] must be an object with 'columns'")
        columns = entry["columns"]
        if not isinstance(columns, list) or not columns:
            raise BadRequest(f"tables[{index}].columns must be a non-empty list")
        rows = entry.get("rows", [])
        if not isinstance(rows, list):
            raise BadRequest(f"tables[{index}].rows must be a list of rows")
        name = entry.get("name", f"table_{index}")
        converted = [
            [NULL if cell is None else cell for cell in row] for row in rows
        ]
        try:
            tables.append(Table(str(name), [str(c) for c in columns], converted))
        except ValueError as exc:
            raise BadRequest(f"tables[{index}]: {exc}") from exc
    return tables


def response_to_json(response: ServiceResponse) -> Dict[str, Any]:
    """The JSON body for any service response (trace included when present)."""
    body: Dict[str, Any] = {
        "status": response.status,
        "request_id": response.request_id,
        "trace": response.trace.to_dict() if response.trace is not None else None,
    }
    if isinstance(response, IntegrationResponse) and response.result is not None:
        body["table"] = table_to_json(response.result.table)
    elif isinstance(response, ServiceOverloaded):
        body["pending"] = response.pending
        body["max_pending"] = response.max_pending
    elif isinstance(response, DeadlineExceeded):
        body["stage"] = response.stage
        body["deadline_ms"] = response.deadline_ms
    elif isinstance(response, EmbedderUnavailableResponse):
        body["error"] = response.error
        body["retry_after_ms"] = response.retry_after_ms
    else:
        error = getattr(response, "error", None)
        if error:
            body["error"] = error
    return body


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # the line outgrew the stream's buffer limit
        raise BadRequest("request line or header line too long") from exc


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Read one HTTP/1.1 request; returns (method, path, body) or None on EOF."""
    request_line = await _readline(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise BadRequest("invalid Content-Length") from exc
    if content_length < 0:
        raise BadRequest("invalid Content-Length")
    if content_length > MAX_BODY_BYTES:
        raise BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body


def _encode_response(
    code: int,
    reason: str,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = json.dumps(payload, default=str).encode("utf-8")
    extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.1 {code} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _health_payload(service: IntegrationService) -> Tuple[int, str, Dict[str, Any]]:
    """Three-state health: breaker closed / open-with-fallback / open-dark."""
    breaker = service.engine.resilience_state()
    breaker_state = str(breaker.get("state", "closed"))
    payload: Dict[str, Any] = {
        "requests_served": service.engine.requests_served,
        "breaker": breaker,
    }
    if breaker_state == "closed":
        payload["status"] = "healthy"
        return 200, "OK", payload
    # half_open counts like open: the embedder is not known-good yet, but a
    # surface fallback still answers requests, so the pod should stay in
    # rotation ("degraded") rather than be drained ("unhealthy").
    if service.engine.config.degraded_mode == "surface":
        payload["status"] = "degraded"
        return 200, "OK", payload
    payload["status"] = "unhealthy"
    return 503, "Service Unavailable", payload


def _retry_after_header(retry_after_ms: float) -> Dict[str, str]:
    """``Retry-After`` (whole seconds, >= 1) from a breaker window in ms."""
    return {"Retry-After": str(max(1, math.ceil(retry_after_ms / 1000.0)))}


def _error_reply(
    code: int, reason: str, message: str
) -> Tuple[int, str, Dict[str, Any], Dict[str, str]]:
    return code, reason, {"status": "error", "error": message}, {}


async def _dispatch(
    service: IntegrationService, method: str, path: str, body: bytes
) -> Tuple[int, str, Dict[str, Any], Dict[str, str]]:
    path = path.split("?", 1)[0]
    if method == "GET" and path == "/healthz":
        code, reason, payload = _health_payload(service)
        headers: Dict[str, str] = {}
        if code == 503:
            retry_after = service.engine.resilience_state().get("retry_after_ms", 0.0)
            headers = _retry_after_header(float(retry_after or 0.0))
        return code, reason, payload, headers
    if method == "GET" and path == "/stats":
        return 200, "OK", service.stats().to_dict(), {}
    if method == "POST" and path == "/integrate":
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        tables = tables_from_json(payload.get("tables"))
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise BadRequest("deadline_ms must be a positive number")
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, dict):
            raise BadRequest("overrides must be an object")
        response = await service.integrate(
            tables, deadline_ms=deadline_ms, **overrides
        )
        code, reason = STATUS_CODES.get(response.status, (500, "Internal Server Error"))
        headers = {}
        if isinstance(response, EmbedderUnavailableResponse):
            headers = _retry_after_header(response.retry_after_ms)
        return code, reason, response_to_json(response), headers
    return _error_reply(404, "Not Found", f"no route {method} {path}")


async def handle_connection(
    service: IntegrationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one request on one connection, then close it."""
    try:
        try:
            request = await asyncio.wait_for(_read_request(reader), READ_TIMEOUT_SECONDS)
        except asyncio.TimeoutError:
            reply = _error_reply(
                408, "Request Timeout", f"request not received within {READ_TIMEOUT_SECONDS} s"
            )
        except (BadRequest, asyncio.IncompleteReadError) as exc:
            reply = _error_reply(400, "Bad Request", str(exc))
        else:
            if request is None:
                return
            try:
                reply = await _dispatch(service, *request)
            except BadRequest as exc:
                reply = _error_reply(400, "Bad Request", str(exc))
        writer.write(_encode_response(*reply))
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client gone
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _drop_input(reader: asyncio.StreamReader) -> None:
    while await reader.read(64 * 1024):
        pass


async def start_http_server(
    service: IntegrationService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind and return the server (``port=0`` picks a free port).

    The bound address is ``server.sockets[0].getsockname()`` — the CLI
    prints it so scripted callers (the CI smoke job) can target an
    OS-assigned port.
    """

    cap = service.max_concurrency + service.max_pending + CONNECTION_HEADROOM
    open_connections = 0

    async def _handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        nonlocal open_connections
        if open_connections >= cap:
            # Refused without parsing the request.  Its bytes are still read
            # and dropped until the client closes: closing over unread input
            # resets the connection, and the client would lose the reply.
            message = f"too many open connections (cap {cap})"
            writer.write(_encode_response(*_error_reply(503, "Service Unavailable", message)))
            writer.write_eof()
            try:
                await asyncio.wait_for(_drop_input(reader), REFUSED_LINGER_SECONDS)
            except (asyncio.TimeoutError, ConnectionError):
                pass
            writer.close()
            return
        open_connections += 1
        try:
            await handle_connection(service, reader, writer)
        finally:
            open_connections -= 1

    return await asyncio.start_server(_handler, host=host, port=port)


async def serve_forever(
    service: IntegrationService, host: str = "127.0.0.1", port: int = 0
) -> None:
    """Blocking entry point of ``repro serve``: run until cancelled."""
    server = await start_http_server(service, host=host, port=port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    async with server:
        await server.serve_forever()
