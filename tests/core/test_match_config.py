"""MatchConfig is the single definition of the matching knobs.

Every field of :class:`MatchConfig` must work, unaided, as a per-request
override: the engine accepts it, memoises a matcher carrying it, reuses that
matcher for a repeat request, and the HTTP layer accepts it too.  A knob added
to the slice but forgotten in one of those places fails here.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields

import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine, MatchConfig
from repro.core.engine import REQUEST_OVERRIDES
from repro.service import IntegrationService
from repro.service.http import start_http_server
from repro.table import Table

#: A valid, non-default value for every MatchConfig field.
NON_DEFAULTS = {
    "threshold": 0.8,
    "representative_policy": "longest",
    "exact_first": False,
    "blocking": "on",
    "blocking_cutoff": 1_000,
    "blocking_key_cap": None,
    "semantic_blocking": "auto",
    "ann_tables": 4,
    "ann_bits": 6,
    "ann_top_k": 3,
    "ann_index": "ivf",
    "max_workers": 2,
    "parallel_backend": "serial",
    "store_mode": "read",
    "degraded_mode": "surface",
    "retry_max_attempts": 2,
    "retry_backoff_ms": 10.0,
    "breaker_failure_threshold": 3,
    "breaker_reset_ms": 1_000.0,
}

KNOBS = [knob.name for knob in fields(MatchConfig)]


def _tables():
    t1 = Table("T1", ["City", "Country"], [("Berlinn", "Germany"), ("Toronto", "Canada")])
    t2 = Table("T2", ["City", "VaxRate"], [("Berlin", "63%"), ("Toronto", "83%")])
    return [t1, t2]


def test_every_knob_has_a_non_default_probe_value():
    assert set(NON_DEFAULTS) == set(KNOBS)
    for knob in fields(MatchConfig):
        assert NON_DEFAULTS[knob.name] != knob.default, knob.name


def test_override_set_is_the_slice():
    assert REQUEST_OVERRIDES == tuple(KNOBS)


@pytest.mark.parametrize("knob", KNOBS)
def test_every_knob_is_a_memoised_per_request_override(knob, monkeypatch):
    used = []
    original = IntegrationEngine._match_and_rewrite

    def recording(matcher, aligned_tables, alignment):
        used.append(matcher)
        return original(matcher, aligned_tables, alignment)

    monkeypatch.setattr(IntegrationEngine, "_match_and_rewrite", staticmethod(recording))
    override = {knob: NON_DEFAULTS[knob]}
    with IntegrationEngine() as engine:
        engine.integrate(_tables())
        engine.integrate(_tables(), **override)
        engine.integrate(_tables(), **override)
    default_matcher, first, second = used
    assert getattr(first.config, knob) == NON_DEFAULTS[knob]
    assert getattr(default_matcher.config, knob) == getattr(FuzzyFDConfig(), knob)
    # The memo key covers the knob (a new matcher) and reuses it on repeat.
    assert first is not default_matcher
    assert second is first


def test_http_accepts_exactly_the_slice_as_overrides():
    body = {
        "tables": [
            {"name": t.name, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
            for t in _tables()
        ]
    }

    async def post(port, overrides):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        payload = json.dumps({**body, "overrides": overrides}).encode()
        writer.write(
            b"POST /integrate HTTP/1.1\r\nContent-Length: "
            + str(len(payload)).encode()
            + b"\r\n\r\n"
            + payload
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, blob = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(blob)

    async def main():
        async with IntegrationService("fast") as service:
            server = await start_http_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                accepted = {
                    knob: (await post(port, {knob: NON_DEFAULTS[knob]}))[0] for knob in KNOBS
                }
                rejected = await post(port, {"not_a_knob": 1})
            finally:
                server.close()
                await server.wait_closed()
            return accepted, rejected

    accepted, (status, reply) = asyncio.run(main())
    assert accepted == {knob: 200 for knob in KNOBS}
    assert status == 400
    supported = reply["error"].split("supported:", 1)[1]
    assert set(json.loads(supported.strip().replace("'", '"'))) == set(KNOBS)
