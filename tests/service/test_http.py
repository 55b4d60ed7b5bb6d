"""HTTP adapter: routing, JSON table round-trips, status-code mapping."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import IntegrationService
from repro.service import http
from repro.service.http import (
    BadRequest,
    start_http_server,
    table_to_json,
    tables_from_json,
)
from repro.table import Table
from repro.table.nulls import NULL, LabeledNull


async def _request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange against localhost; returns (status, json body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    return status, json.loads(body_blob.decode())


def _run(scenario):
    """Run an async scenario against a fresh service + bound server."""

    async def main():
        async with IntegrationService("fast") as service:
            server = await start_http_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await scenario(port, service)
            finally:
                server.close()
                await server.wait_closed()

    return asyncio.run(main())


INTEGRATE_BODY = {
    "tables": [
        {"name": "a", "columns": ["name", "city"], "rows": [["alice", "nyc"], ["bob", None]]},
        {"name": "b", "columns": ["name", "country"], "rows": [["alice", "usa"]]},
    ]
}


class TestEndpoints:
    def test_healthz(self):
        async def scenario(port, service):
            return await _request(port, "GET", "/healthz")

        status, body = _run(scenario)
        assert status == 200
        assert body["status"] == "healthy"
        assert body["requests_served"] == 0
        assert body["breaker"]["state"] == "closed"

    def test_integrate_round_trip_with_trace(self):
        async def scenario(port, service):
            return await _request(port, "POST", "/integrate", INTEGRATE_BODY)

        status, body = _run(scenario)
        assert status == 200
        assert body["status"] == "ok"
        trace = body["trace"]
        assert set(trace["stage_seconds"]) == {"align", "match", "integrate"}
        assert trace["total_seconds"] > 0
        table = body["table"]
        assert set(table["columns"]) == {"name", "city", "country"}
        merged = [row for row in table["rows"] if row[table["columns"].index("name")] == "alice"]
        assert merged and "usa" in merged[0]
        # bob had a null city on the way in; nulls survive the round trip.
        bob = [row for row in table["rows"] if "bob" in row]
        assert bob and None in bob[0]

    def test_stats_reflects_served_requests(self):
        async def scenario(port, service):
            await _request(port, "POST", "/integrate", INTEGRATE_BODY)
            return await _request(port, "GET", "/stats")

        status, body = _run(scenario)
        assert status == 200
        assert body["served"] == 1
        assert body["submitted"] == 1

    def test_unknown_route_is_404(self):
        async def scenario(port, service):
            return await _request(port, "GET", "/nope")

        status, body = _run(scenario)
        assert status == 404
        assert body["status"] == "error"

    def test_malformed_json_is_400(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            blob = b"not json"
            writer.write(
                b"POST /integrate HTTP/1.1\r\nContent-Length: "
                + str(len(blob)).encode()
                + b"\r\n\r\n"
                + blob
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split(b" ", 2)[1])

        assert _run(scenario) == 400

    def test_missing_tables_is_400(self):
        async def scenario(port, service):
            return await _request(port, "POST", "/integrate", {"tables": []})

        status, body = _run(scenario)
        assert status == 400
        assert "tables" in body["error"]

    def test_bad_deadline_is_400(self):
        async def scenario(port, service):
            return await _request(
                port, "POST", "/integrate", {**INTEGRATE_BODY, "deadline_ms": -5}
            )

        status, body = _run(scenario)
        assert status == 400
        assert "deadline_ms" in body["error"]

    def test_overloaded_maps_to_503(self):
        async def scenario(port, service):
            # Shrink the admission window after construction: in_flight(0)
            # can never be < capacity... so force capacity to zero requests
            # by taking the gauge over the limit directly.
            service.max_pending = 0
            with service._lock:
                service._in_flight = service.max_concurrency
            try:
                return await _request(port, "POST", "/integrate", INTEGRATE_BODY)
            finally:
                with service._lock:
                    service._in_flight = 0

        status, body = _run(scenario)
        assert status == 503
        assert body["status"] == "overloaded"
        assert body["max_pending"] == 0


async def _raw_exchange(port: int, blob: bytes) -> int:
    """Send ``blob`` as-is, read the reply until close; returns the status code."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(blob)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return int(raw.split(b" ", 2)[1])


class TestHostileClients:
    """Malformed or stalled clients get an answer and never wedge the server."""

    @staticmethod
    def _then_healthy(port):
        return _request(port, "GET", "/healthz")

    def test_stalled_client_times_out_with_408(self, monkeypatch):
        monkeypatch.setattr(http, "READ_TIMEOUT_SECONDS", 0.2)

        async def scenario(port, service):
            # Headers promise 100 body bytes; only 5 ever arrive.
            status = await asyncio.wait_for(
                _raw_exchange(
                    port, b"POST /integrate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"ta"
                ),
                timeout=5.0,
            )
            return status, await self._then_healthy(port)

        status, (after_status, after_body) = _run(scenario)
        assert status == 408
        assert after_status == 200 and after_body["status"] == "healthy"

    def test_negative_content_length_is_400(self):
        async def scenario(port, service):
            status = await _raw_exchange(
                port, b"POST /integrate HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            return status, await self._then_healthy(port)

        status, (after_status, _) = _run(scenario)
        assert status == 400
        assert after_status == 200

    def test_oversized_header_line_is_400(self):
        async def scenario(port, service):
            # Longer than asyncio's default 64 KiB stream limit.
            big = b"X-Padding: " + b"a" * (70 * 1024) + b"\r\n"
            status = await _raw_exchange(
                port, b"GET /healthz HTTP/1.1\r\n" + big + b"\r\n"
            )
            return status, await self._then_healthy(port)

        status, (after_status, _) = _run(scenario)
        assert status == 400
        assert after_status == 200

    def test_connections_over_the_cap_get_an_immediate_503(self):
        # max_concurrency + max_pending + headroom
        cap = 1 + 0 + http.CONNECTION_HEADROOM

        async def main():
            async with IntegrationService("fast", max_concurrency=1, max_pending=0) as service:
                server = await start_http_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    # Connected, never sending a byte: each holds a slot.
                    stalled = [
                        await asyncio.open_connection("127.0.0.1", port) for _ in range(cap)
                    ]
                    # A full request is sent first: it must be refused, not
                    # served, and the refusal must not be lost to a reset.
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                    raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                    writer.close()
                    for _, stalled_writer in stalled:
                        stalled_writer.close()
                        await stalled_writer.wait_closed()
                    await asyncio.sleep(0.2)  # the server notices the closed sockets
                    return raw, await self._then_healthy(port)
                finally:
                    server.close()
                    await server.wait_closed()

        raw, (after_status, after_body) = asyncio.run(main())
        header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        assert int(header_blob.split(b" ", 2)[1]) == 503
        body = json.loads(body_blob.decode())
        assert body["status"] == "error" and f"cap {cap}" in body["error"]
        assert after_status == 200 and after_body["status"] == "healthy"


class TestJsonTables:
    def test_nulls_serialise_as_none(self):
        table = Table("t", ["a", "b"], [(NULL, 1), (LabeledNull(7), "x")])
        payload = table_to_json(table)
        assert payload["rows"] == [[None, 1], [None, "x"]]

    def test_none_cells_parse_to_null(self):
        [table] = tables_from_json(
            [{"name": "t", "columns": ["a"], "rows": [[None], ["x"]]}]
        )
        assert table.rows[0][0] is NULL
        assert table.rows[1][0] == "x"

    def test_default_table_names(self):
        [table] = tables_from_json([{"columns": ["a"], "rows": []}])
        assert table.name == "table_0"

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            ["not an object"],
            [{"rows": []}],
            [{"columns": []}],
            [{"columns": ["a"], "rows": "nope"}],
            [{"columns": ["a"], "rows": [["too", "wide"]]}],
        ],
    )
    def test_invalid_payloads_raise_bad_request(self, payload):
        with pytest.raises(BadRequest):
            tables_from_json(payload)
