"""Typed request/response vocabulary of the integration service.

The serving layer (:class:`~repro.service.IntegrationService`) never raises
for operational outcomes — overload, deadline overrun and handler failure are
*responses*, not exceptions, so a caller can pattern-match on ``status``
without wrapping every await in try/except.  The one exception type defined
here, :class:`DeadlineExceededError`, is internal: the
:class:`StageTracker` raises it inside the engine's ``on_stage`` hook and
the service converts it into a :class:`DeadlineExceeded` response before it
ever reaches a caller.

Every response carries a :class:`RequestTrace` (``None`` only on
:class:`ServiceOverloaded`, where no work ran).  The trace is assembled from
data the pipeline already records — stage wall-clock from the
``on_stage`` boundaries, and the request's own work counters (ANN, blocking,
cache tiers, resilience, store) from ``FuzzyIntegrationResult.timings``,
which the engine fills from its request-scoped counters
(:mod:`repro.utils.counters`) — so tracing adds no instrumentation to the
hot path, and concurrent requests never see each other's counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine import FuzzyIntegrationResult

#: Trace counter -> the request counter (``FuzzyIntegrationResult.timings``
#: key) it reports: the one place a counter changes name on its way to JSON.
TRACE_COUNTER_SOURCES: Dict[str, str] = {
    "ann_pairs_added": "blocking_ann_pairs_added",
    "ann_probe_candidates": "blocking_ann_probe_candidates",
    "ann_skew_fallbacks": "blocking_ann_skew_fallbacks",
    "cache_hits": "cache_hits",
    "cache_misses": "cache_misses",
    "cache_fills": "cache_fills",
    "cache_store_hits": "cache_store_hits",
    "cache_store_misses": "cache_store_misses",
    "embedder_retries": "embedder_retries",
    "breaker_opens": "breaker_opens",
    "breaker_short_circuits": "breaker_short_circuits",
    "store_published_rows": "store_published_rows",
    "store_corrupt_segments": "store_corrupt_segments",
}


@dataclass
class RequestTrace:
    """Per-request observability record attached to every service response.

    ``stage_seconds`` holds wall-clock per pipeline stage (``align`` /
    ``match`` / ``integrate``) in execution order; on a
    :class:`DeadlineExceeded` response it is partial — only the stages that
    finished before the budget ran out appear.  ``raw_embed_calls`` is the
    number of values that reached the underlying embedding model this
    request: in-memory cache misses not absorbed by the durable store
    (``cache_misses - cache_store_hits``).
    """

    request_id: int
    status: str = "ok"
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    total_seconds: float = 0.0
    deadline_ms: Optional[float] = None
    ann_pairs_added: float = 0.0
    ann_probe_candidates: float = 0.0
    ann_skew_fallbacks: float = 0.0
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    cache_fills: float = 0.0
    cache_store_hits: float = 0.0
    cache_store_misses: float = 0.0
    store_published_rows: float = 0.0
    #: True when any column group was matched without embeddings because the
    #: embedder breaker was open and ``degraded_mode="surface"`` applied —
    #: the answer is valid but its recall is below the healthy path.
    degraded: bool = False
    embedder_retries: float = 0.0
    breaker_opens: float = 0.0
    breaker_short_circuits: float = 0.0
    #: Corrupt store artifacts this request tripped over (now quarantined).
    store_corrupt_segments: float = 0.0

    @property
    def raw_embed_calls(self) -> float:
        """Values embedded by the raw model (missed cache *and* store)."""
        return max(0.0, self.cache_misses - self.cache_store_hits)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (what the HTTP adapter serialises)."""
        return {
            "request_id": self.request_id,
            "status": self.status,
            "stage_seconds": dict(self.stage_seconds),
            "queue_wait_seconds": self.queue_wait_seconds,
            "total_seconds": self.total_seconds,
            "deadline_ms": self.deadline_ms,
            "ann_pairs_added": self.ann_pairs_added,
            "ann_probe_candidates": self.ann_probe_candidates,
            "ann_skew_fallbacks": self.ann_skew_fallbacks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_fills": self.cache_fills,
            "cache_store_hits": self.cache_store_hits,
            "cache_store_misses": self.cache_store_misses,
            "raw_embed_calls": self.raw_embed_calls,
            "store_published_rows": self.store_published_rows,
            "degraded": self.degraded,
            "embedder_retries": self.embedder_retries,
            "breaker_opens": self.breaker_opens,
            "breaker_short_circuits": self.breaker_short_circuits,
            "store_corrupt_segments": self.store_corrupt_segments,
        }


class DeadlineExceededError(Exception):
    """Raised by :class:`StageTracker` when the budget expires at a boundary.

    Internal to the service: callers see the :class:`DeadlineExceeded`
    *response* built from this, never the exception.  ``stage`` names the
    stage that was about to start when the budget ran out.
    """

    def __init__(self, stage: str, elapsed_seconds: float, deadline_ms: float) -> None:
        self.stage = stage
        self.elapsed_seconds = elapsed_seconds
        self.deadline_ms = deadline_ms
        super().__init__(
            f"deadline of {deadline_ms:.0f} ms exceeded after "
            f"{elapsed_seconds * 1000.0:.0f} ms, at the {stage!r} stage boundary"
        )


class StageTracker:
    """``on_stage`` hook: per-stage wall clock + stage-boundary deadlines.

    The engine calls the tracker with each stage about to run (``"align"``,
    ``"match"``, ``"integrate"``) and finally with ``"complete"``.  The
    tracker closes the previous stage's timing at every call, and — when a
    deadline was set — raises :class:`DeadlineExceededError` *before* the
    next stage starts if the budget (measured from request submission, so
    queue wait counts against it) has run out.  A request whose last stage
    overruns still completes: ``"complete"`` only closes timings, because
    abandoning finished work buys nothing.
    """

    def __init__(self, submitted_at: float, deadline_ms: Optional[float] = None) -> None:
        self.submitted_at = submitted_at
        self.deadline_ms = deadline_ms
        self.queue_wait_seconds = 0.0
        self.stage_seconds: Dict[str, float] = {}
        self._open: Optional[Tuple[str, float]] = None

    def __call__(self, stage: str) -> None:
        now = time.perf_counter()
        if self._open is not None:
            name, started = self._open
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + (now - started)
            self._open = None
        if stage == "complete":
            return
        if self.deadline_ms is not None:
            elapsed = now - self.submitted_at
            if elapsed * 1000.0 > self.deadline_ms:
                raise DeadlineExceededError(stage, elapsed, self.deadline_ms)
        self._open = (stage, now)


@dataclass
class ServiceResponse:
    """Common shape of every service reply; subclasses fix ``status``."""

    request_id: int
    status: str
    trace: Optional[RequestTrace] = None


@dataclass
class IntegrationResponse(ServiceResponse):
    """Success: the integration result plus its full trace."""

    result: Optional[FuzzyIntegrationResult] = None
    status: str = "ok"


@dataclass
class ServiceOverloaded(ServiceResponse):
    """Rejected at admission: the pending queue was full (backpressure)."""

    pending: int = 0
    max_pending: int = 0
    status: str = "overloaded"


@dataclass
class DeadlineExceeded(ServiceResponse):
    """The deadline expired at a stage boundary; ``trace`` is partial."""

    stage: str = ""
    deadline_ms: float = 0.0
    status: str = "deadline_exceeded"


@dataclass
class ServiceFailure(ServiceResponse):
    """The pipeline raised; the message is relayed, the service stays up."""

    error: str = ""
    status: str = "error"


@dataclass
class EmbedderUnavailableResponse(ServiceResponse):
    """The embedder breaker is open and ``degraded_mode="fail"`` applies.

    The HTTP adapter maps this to 503 with a ``Retry-After`` header derived
    from ``retry_after_ms`` — the remaining open window of the breaker.
    """

    error: str = ""
    retry_after_ms: float = 0.0
    status: str = "unavailable"


@dataclass
class ServiceStats:
    """Aggregate snapshot returned by :meth:`IntegrationService.stats`.

    At any instant ``submitted == served + rejected + deadline_exceeded +
    failed + in_flight`` — the terminal counters and the in-flight gauge are
    updated under one lock so no request is ever counted twice or dropped.
    ``queued`` is ``in_flight - executing``: admitted requests still waiting
    for a concurrency slot.
    """

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    failed: int = 0
    unavailable: int = 0
    in_flight: int = 0
    executing: int = 0
    queued: int = 0
    latency_p50_seconds: float = 0.0
    latency_p99_seconds: float = 0.0
    #: Successful responses whose trace was marked degraded (subset of
    #: ``served``).
    degraded_served: int = 0
    #: Current circuit-breaker state of the engine's embedder.
    breaker_state: str = "closed"
    #: Cumulative embedder retry / breaker-open counts over the engine's
    #: lifetime (from the resilient wrapper, not per-request deltas).
    embedder_retries: int = 0
    breaker_opens: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "unavailable": self.unavailable,
            "in_flight": self.in_flight,
            "executing": self.executing,
            "queued": self.queued,
            "latency_p50_seconds": self.latency_p50_seconds,
            "latency_p99_seconds": self.latency_p99_seconds,
            "degraded_served": self.degraded_served,
            "breaker_state": self.breaker_state,
            "embedder_retries": self.embedder_retries,
            "breaker_opens": self.breaker_opens,
        }


def build_trace(
    request_id: int,
    result: FuzzyIntegrationResult,
    tracker: StageTracker,
    total_seconds: float,
) -> RequestTrace:
    """Assemble the success trace from the request's own counters."""
    counters = {
        trace_key: result.timings.get(source_key, 0.0)
        for trace_key, source_key in TRACE_COUNTER_SOURCES.items()
    }
    return RequestTrace(
        request_id=request_id,
        status="ok",
        stage_seconds=dict(tracker.stage_seconds),
        queue_wait_seconds=tracker.queue_wait_seconds,
        total_seconds=total_seconds,
        deadline_ms=tracker.deadline_ms,
        degraded=result.timings.get("degraded", 0.0) > 0.0,
        **counters,
    )


def quantile(samples: List[float], q: float) -> float:
    """Nearest-rank quantile of a sorted sample list (0 on empty input)."""
    if not samples:
        return 0.0
    index = int(round(q * (len(samples) - 1)))
    return samples[index]
