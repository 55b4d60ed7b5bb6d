"""Spans around the calls the benchmark makes into each layer of ``repro``.

Nothing here edits the package.  A traced run either wraps the instances the
configuration accepts (embedder, assignment solver, Full Disjunction
algorithm) or, for the rest, swaps the public functions and methods at the
layer boundaries for timing wrappers and puts the originals back afterwards.

A span records its name, start, end, parent span and request id, plus the
work counts its wrapper observed (pairs, rows, cells).  Spans are kept in
memory and written out once, when the run ends.  Self time is a span's
duration minus the part of it that its children cover; children running on
executor threads are attributed to the span that dispatched them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.fd.base
import repro.fd.parallel
import repro.matching.blocking
from repro.core.engine import IntegrationEngine
from repro.core.value_matching import ValueMatcher
from repro.embeddings.resilient import DelegatingEmbedder
from repro.fd.base import FullDisjunctionAlgorithm, FullDisjunctionResult
from repro.matching.ann import SemanticBlocker
from repro.matching.assignment import AssignmentSolver
from repro.matching.blocking import ValueBlocker
from repro.storage.cache import StoreBackedEmbeddingCache
from repro.utils import executor as executor_module


class Span:
    """One timed call: identity, parent, request, interval and work counts."""

    __slots__ = ("span_id", "parent_id", "request_id", "name", "start", "end", "counts")

    def __init__(
        self, span_id: int, parent_id: Optional[int], request_id: Optional[int], name: str
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "request": self.request_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``id()`` of a request's first table -> the benchmark's request id.
        self._requests: Dict[int, int] = {}

    def register_request(self, tables: Sequence[object], request_id: int) -> None:
        """Let the ``engine.integrate`` wrapper recognise this request."""
        self._requests[id(tables[0])] = request_id

    def request_of(self, tables: object) -> Optional[int]:
        if isinstance(tables, (list, tuple)) and tables:
            return self._requests.get(id(tables[0]))
        return None

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[Optional[int], Optional[int]]:
        """``(span id, request id)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def adopt(self, context: Tuple[Optional[int], Optional[int]]):
        """Make ``context`` the parent of spans opened on this (worker) thread."""
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        stack = self._stack()
        parent_id, parent_request = stack[-1] if stack else (None, None)
        record = Span(
            next(self._ids),
            parent_id,
            request_id if request_id is not None else parent_request,
            name,
        )
        stack.append((record.span_id, record.request_id))
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda span: span.span_id):
                handle.write(json.dumps(record.to_dict()) + "\n")


# ---------------------------------------------------------------------------------
# instance wrappers (the configuration accepts instances for these)
# ---------------------------------------------------------------------------------


class TracingEmbedder(DelegatingEmbedder):
    """Times ``embed``/``embed_many`` of the wrapped embedder."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner)
        self.tracer = tracer

    def embed(self, value: object):
        with self.tracer.span("embeddings.embed_many") as span:
            span.counts["values"] = 1.0
            return self.inner.embed(value)

    def embed_many(self, values):
        with self.tracer.span("embeddings.embed_many") as span:
            span.counts["values"] = float(len(values))
            return self.inner.embed_many(values)


class TracingSolver(AssignmentSolver):
    """Times each ``solve`` call and counts its cost-matrix cells."""

    def __init__(self, inner: AssignmentSolver, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def solve(self, cost_matrix):
        with self.tracer.span("matching.assignment.solve") as span:
            span.counts["cells"] = float(getattr(cost_matrix, "size", 0))
            return self.inner.solve(cost_matrix)


class TracingFullDisjunction(FullDisjunctionAlgorithm):
    """Times ``integrate`` of the wrapped Full Disjunction algorithm."""

    def __init__(self, inner: FullDisjunctionAlgorithm, tracer: Tracer) -> None:
        super().__init__(inner.result_name)
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def integrate(self, tables) -> FullDisjunctionResult:
        with self.tracer.span("fd.integrate"):
            return self.inner.integrate(tables)

    def _integrate(self, tables, statistics):  # pragma: no cover - integrate() delegates
        raise NotImplementedError


# ---------------------------------------------------------------------------------
# boundary wrappers (swapped in for the traced pass only)
# ---------------------------------------------------------------------------------


class Instrumentation:
    """Installs the boundary wrappers on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _swap(self, owner: object, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, functools.wraps(original)(make(original)))

    def _timed(self, name: str, count: Optional[Callable[[Any], Dict[str, float]]] = None):
        tracer = self.tracer

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with tracer.span(name) as span:
                    result = original(*args, **kwargs)
                    if count is not None:
                        span.counts.update(count(result))
                    return result

            return wrapper

        return make

    def __enter__(self) -> "Instrumentation":
        tracer = self.tracer

        def integrate(original: Callable) -> Callable:
            def wrapper(engine, tables, *args, **kwargs):
                with tracer.span("engine.integrate", request_id=tracer.request_of(tables)):
                    return original(engine, tables, *args, **kwargs)

            return wrapper

        def run_partitioned(original: Callable) -> Callable:
            def wrapper(
                items, fn, config=executor_module.SERIAL_EXECUTOR, *, weight=None, shared=None
            ):
                items = list(items)
                with tracer.span("utils.executor.run_partitioned") as span:
                    span.counts["items"] = float(len(items))
                    span.counts["batches"] = float(_batch_count(items, config, weight))
                    task = fn
                    if config.backend != "process":
                        # Threads of the executor start with an empty span
                        # stack; hand them this span as their parent.
                        context = tracer.current()

                        def task(item, **keywords):
                            with tracer.adopt(context):
                                return fn(item, **keywords)

                    return original(items, task, config, weight=weight, shared=shared)

            return wrapper

        def pair_count(pairs) -> Dict[str, float]:
            return {"pairs": float(len(pairs))}

        self._swap(IntegrationEngine, "integrate", integrate)
        self._swap(IntegrationEngine, "align", self._timed("schema_matching.align"))
        self._swap(IntegrationEngine, "match", self._timed("engine.match"))
        self._swap(ValueMatcher, "match_columns", self._timed("core.value_matching.match_columns"))
        self._swap(
            ValueBlocker, "candidate_pairs",
            self._timed("matching.blocking.candidate_pairs", pair_count),
        )
        self._swap(
            SemanticBlocker, "candidate_pairs",
            self._timed("matching.ann.candidate_pairs", pair_count),
        )
        self._swap(
            StoreBackedEmbeddingCache, "publish",
            self._timed("storage.publish", lambda rows: {"rows": float(rows)}),
        )
        self._swap(repro.fd.base, "remove_subsumed", self._timed("fd.remove_subsumed"))
        for module in (repro.fd.parallel, repro.matching.blocking):
            self._swap(module, "run_partitioned", run_partitioned)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _batch_count(items: Sequence[object], config, weight) -> int:
    """Batches ``run_partitioned`` dispatches for ``items`` (1 when it runs serially)."""
    if not items:
        return 0
    if not config.should_parallelise(len(items)):
        return 1
    return max(1, len(executor_module.partition_batches(items, config, weight)))


# ---------------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------------


def covered_seconds(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(low, start), min(high, end)) for low, high in intervals if high > start and low < end
    )
    total = 0.0
    current_low = current_high = None
    for low, high in clipped:
        if current_high is None or low > current_high:
            if current_high is not None:
                total += current_high - current_low
            current_low, current_high = low, high
        else:
            current_high = max(current_high, high)
    if current_high is not None:
        total += current_high - current_low
    return total


class SpanIndex:
    """The spans of the timed requests, grouped for the ledger."""

    def __init__(self, spans: Sequence[Span], request_ids: Iterable[int]) -> None:
        wanted = set(request_ids)
        self.spans = [span for span in spans if span.request_id in wanted]
        self.children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(span.counts.get(key, 0.0) for span in self.named(name))

    def self_seconds(self, name: str) -> float:
        """Total time of ``name`` spans not covered by their children."""
        total = 0.0
        for span in self.named(name):
            children = self.children.get(span.span_id, [])
            total += span.seconds - covered_seconds(
                ((child.start, child.end) for child in children), span.start, span.end
            )
        return total

    def coverage(self, root: str) -> float:
        """Share of ``root`` span time covered by its child layer spans."""
        roots = self.named(root)
        wall = sum(span.seconds for span in roots)
        if wall <= 0:
            return 0.0
        covered = sum(
            covered_seconds(
                ((child.start, child.end) for child in self.children.get(span.span_id, [])),
                span.start,
                span.end,
            )
            for span in roots
        )
        return covered / wall
