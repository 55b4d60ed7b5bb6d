"""Plain-text / markdown report formatting for the benchmark harnesses."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.evaluation.metrics import MatchingScores


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple GitHub-flavoured markdown table."""
    cells = [[str(header) for header in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [max(len(row[index]) for row in cells) for index in range(len(headers))]

    def render(row: Sequence[str]) -> str:
        return "| " + " | ".join(value.ljust(width) for value, width in zip(row, widths)) + " |"

    lines = [render(cells[0]), "|" + "|".join("-" * (width + 2) for width in widths) + "|"]
    lines.extend(render(row) for row in cells[1:])
    return "\n".join(lines)


def format_scores_table(scores_by_model: Mapping[str, MatchingScores]) -> str:
    """Render Table 1's layout: Model | Precision | Recall | F1-Score."""
    rows: List[List[object]] = []
    for model, scores in scores_by_model.items():
        rows.append(
            [model, f"{scores.precision:.2f}", f"{scores.recall:.2f}", f"{scores.f1:.2f}"]
        )
    return format_markdown_table(["Model", "Precision", "Recall", "F1-Score"], rows)


def format_component_histogram(source, width: int = 30) -> str:
    """Render the blocked matcher's component-size distribution.

    ``source`` is a :class:`~repro.matching.blocking.BlockingStatistics`
    (its :meth:`component_size_histogram` is used), a ``label -> count``
    mapping, or a :class:`~repro.core.value_matching.ValueMatchingResult`-style
    statistics dict carrying ``blocking_component_size_<label>`` keys.  The
    distribution tells you where the matching work lives: a mass of 1-cell
    components favours the vectorised singleton path, a fat tail means the
    assignment solver (and the executor's batch balancing) dominates — which
    is what guides ``blocking_cutoff`` and batch-size tuning.
    """
    from repro.matching.blocking import COMPONENT_SIZE_BUCKETS

    bucket_labels = [label for label, _ in COMPONENT_SIZE_BUCKETS]
    histogram = getattr(source, "component_size_histogram", None)
    if callable(histogram):
        counts: Dict[str, int] = histogram()
    elif isinstance(source, Mapping) and any(
        str(key).startswith("blocking_component_size_") for key in source
    ):
        counts = {
            str(key)[len("blocking_component_size_") :]: int(value)
            for key, value in source.items()
            if str(key).startswith("blocking_component_size_")
        }
    elif isinstance(source, Mapping) and set(map(str, source)) <= set(bucket_labels):
        counts = {str(label): int(count) for label, count in source.items()}
    else:
        # A statistics dict from a non-blocked run (or any other mapping)
        # has no component distribution; rendering its unrelated counters as
        # a histogram would be actively misleading.
        raise ValueError(
            "source carries no component-size distribution: expected "
            "BlockingStatistics, a statistics dict with "
            "'blocking_component_size_*' keys, or a mapping over the buckets "
            f"{bucket_labels}"
        )
    total = sum(counts.values())
    peak = max(counts.values(), default=0)
    rows = []
    # Render in bucket order (smallest to largest), not the mapping's
    # iteration order — a stats dict reloaded from sorted JSON iterates
    # alphabetically — and keep every bucket present even when empty.
    for label in bucket_labels:
        count = counts.get(label, 0)
        bar = "#" * (round(width * count / peak) if peak else 0)
        share = f"{100.0 * count / total:.1f}%" if total else "-"
        rows.append([label, count, share, bar])
    return format_markdown_table(["Component cells", "Count", "Share", "Histogram"], rows)


def format_cache_statistics(source: Mapping[str, float]) -> str:
    """Render the cache / durable-index counters of one request.

    ``source`` is a timings dict from
    :class:`~repro.core.engine.FuzzyIntegrationResult` (or a
    :class:`~repro.core.value_matching.ValueMatchingResult` statistics dict):
    the ``cache_*`` and ``ann_index_*`` counters it carries, plus the
    ``store_published_rows`` entry, are the request's storage story — how
    many vector lookups the hot tier answered, how many the memmapped store
    tier answered (a warm start shows every lookup here and zero misses),
    how many had to be embedded raw, and whether ANN indexes were loaded or
    rebuilt.  Counters absent from ``source`` render as 0 rows only when at
    least one storage counter is present at all; a dict with no storage
    counters raises, as rendering it would silently claim "no cache
    activity" for a run that simply predates the counters.
    """
    rows_spec = [
        ("Hot-tier hits", "cache_hits"),
        ("Store-tier hits (memmap)", "cache_store_hits"),
        ("Misses (raw embeds)", "cache_misses"),
        ("Cache fills", "cache_fills"),
        ("Store-tier misses", "cache_store_misses"),
        ("ANN indexes loaded", "ann_index_loads"),
        ("ANN indexes built", "ann_index_builds"),
        ("ANN indexes published", "ann_index_saves"),
        ("Embedding rows published", "store_published_rows"),
    ]
    if not any(key in source for _, key in rows_spec):
        raise ValueError(
            "source carries no cache or store counters (cache_*, ann_index_*, "
            "store_published_rows); pass a FuzzyIntegrationResult.timings or "
            "ValueMatchingResult.statistics dict from a storage-aware run"
        )
    rows = [[label, f"{float(source.get(key, 0.0)):,.0f}"] for label, key in rows_spec]
    lookups = float(source.get("cache_hits", 0.0)) + float(
        source.get("cache_store_hits", 0.0)
    ) + float(source.get("cache_misses", 0.0))
    if lookups:
        served = lookups - float(source.get("cache_misses", 0.0))
        rows.append(["Lookups served without raw embed", f"{100.0 * served / lookups:.1f}%"])
    return format_markdown_table(["Counter", "Value"], rows)


def format_request_trace(trace) -> str:
    """Render a service :class:`~repro.service.RequestTrace` as markdown.

    ``trace`` is the trace object itself or its :meth:`to_dict` form.  The
    report has two sections: the latency breakdown (queue wait, then each
    pipeline stage in execution order, then the total) and the work counters
    (ANN channel activity, cache tiers, raw embeds, published rows).  A
    partial trace from a ``DeadlineExceeded`` response renders the stages
    that finished — the report never invents entries for stages that did
    not run.
    """
    data = trace.to_dict() if hasattr(trace, "to_dict") else dict(trace)
    if "stage_seconds" not in data:
        raise ValueError(
            "trace carries no stage_seconds — pass a RequestTrace (or its "
            "to_dict()) from a service response"
        )
    rows: List[List[object]] = [
        ["Queue wait", f"{float(data.get('queue_wait_seconds', 0.0)) * 1000.0:.1f} ms"]
    ]
    for stage, seconds in data["stage_seconds"].items():
        rows.append([f"Stage: {stage}", f"{float(seconds) * 1000.0:.1f} ms"])
    rows.append(["Total", f"{float(data.get('total_seconds', 0.0)) * 1000.0:.1f} ms"])
    deadline = data.get("deadline_ms")
    if deadline is not None:
        rows.append(["Deadline budget", f"{float(deadline):.0f} ms"])
    counter_spec = [
        ("ANN pairs added", "ann_pairs_added"),
        ("ANN probe candidates", "ann_probe_candidates"),
        ("ANN bucket-skew fallbacks", "ann_skew_fallbacks"),
        ("Cache hits (hot tier)", "cache_hits"),
        ("Cache hits (store tier)", "cache_store_hits"),
        ("Cache misses", "cache_misses"),
        ("Raw embed calls", "raw_embed_calls"),
        ("Embedding rows published", "store_published_rows"),
    ]
    for label, key in counter_spec:
        rows.append([label, f"{float(data.get(key, 0.0)):,.0f}"])
    header = f"request {data.get('request_id', '?')} — status: {data.get('status', '?')}"
    return header + "\n" + format_markdown_table(["Field", "Value"], rows)


def format_runtime_series(points: Sequence) -> str:
    """Render the Figure 3 series: size | regular FD seconds | fuzzy FD seconds."""
    by_size: Dict[int, Dict[str, float]] = {}
    for point in points:
        by_size.setdefault(point.input_tuples, {})[point.method] = point.seconds
    rows = []
    for size in sorted(by_size):
        methods = by_size[size]
        rows.append(
            [
                size,
                f"{methods.get('regular_fd', float('nan')):.2f}",
                f"{methods.get('fuzzy_fd', float('nan')):.2f}",
            ]
        )
    return format_markdown_table(
        ["Input tuples", "ALITE (regular FD) seconds", "Fuzzy FD seconds"], rows
    )
