"""Output checks the benchmark runs outside each request's own timing.

Each check returns a list of problem strings (empty when the output is
correct), so a workload can count every failed check against the requests it
attempted instead of stopping at the first one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from repro.table.nulls import is_null
from repro.table.table import Table

#: The trace stages an ok service response must report, in order.
TRACE_STAGES = ("align", "match", "integrate")


def table_digest(table: Table) -> str:
    """Order-insensitive SHA-256 of a table's rows and their provenance."""
    provenance = table.provenance or [frozenset()] * table.num_rows
    rows = sorted(
        json.dumps(
            [["⊥" if is_null(cell) else repr(cell) for cell in row], sorted(tids)],
            ensure_ascii=False,
        )
        for row, tids in zip(table.rows, provenance)
    )
    digest = hashlib.sha256()
    digest.update(json.dumps(list(table.columns)).encode("utf-8"))
    for row in rows:
        digest.update(row.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def provenance_problems(inputs: Sequence[Table], output: Table) -> List[str]:
    """Full Disjunction preserves information: every input tuple id survives.

    Input tables carry default provenance ``{name}:{row}``; each id must
    appear in the provenance of some output tuple.
    """
    if output.provenance is None:
        return [f"output {output.name!r} carries no provenance"]
    seen: Set[str] = set()
    for tids in output.provenance:
        seen.update(tids)
    missing = [
        f"{table.name}:{row}"
        for table in inputs
        for row in range(table.num_rows)
        if f"{table.name}:{row}" not in seen
    ]
    if missing:
        return [f"{len(missing)} input tuple id(s) lost, e.g. {missing[0]}"]
    return []


def pair_counts(
    predicted: Iterable[Iterable[Tuple[Hashable, object]]],
    gold: Iterable[Iterable[Tuple[Hashable, object]]],
) -> Tuple[int, int, int]:
    """``(true positives, predicted pairs, gold pairs)`` over cross-column pairs."""

    def pairs(sets: Iterable[Iterable[Tuple[Hashable, object]]]) -> Set[frozenset]:
        found: Set[frozenset] = set()
        for members in sets:
            ordered = sorted(set(members), key=lambda key: (str(key[0]), str(key[1])))
            for index, left in enumerate(ordered):
                for right in ordered[index + 1 :]:
                    if left[0] != right[0]:
                        found.add(frozenset((left, right)))
        return found

    predicted_pairs = pairs(predicted)
    gold_pairs = pairs(gold)
    return len(predicted_pairs & gold_pairs), len(predicted_pairs), len(gold_pairs)


def f1_score(true_positives: int, predicted: int, gold: int) -> float:
    """Pair F1; 1.0 when there is nothing to find and nothing was found."""
    if predicted + gold == 0:
        return 1.0
    return 2.0 * true_positives / (predicted + gold)


def equal_value_sets(
    tables: Sequence[Table], columns: Sequence[str]
) -> List[Set[Tuple[Hashable, object]]]:
    """Gold match sets of an equi-join: identical values across tables."""
    gold: List[Set[Tuple[Hashable, object]]] = []
    for column in columns:
        by_value: Dict[object, Set[Tuple[Hashable, object]]] = {}
        for table in tables:
            if column in table.columns:
                for value in table.distinct_values(column):
                    by_value.setdefault(value, set()).add(((table.name, column), value))
        gold.extend(by_value.values())
    return gold


def trace_problems(response) -> List[str]:
    """An ok service response carries a well-formed trace."""
    trace = response.trace
    if trace is None:
        return [f"request {response.request_id}: ok response without a trace"]
    problems = []
    if trace.request_id != response.request_id or trace.status != "ok":
        problems.append(f"request {response.request_id}: trace id/status mismatch")
    if tuple(trace.stage_seconds) != TRACE_STAGES:
        problems.append(f"request {response.request_id}: stages {list(trace.stage_seconds)}")
    if any(seconds < 0 for seconds in trace.stage_seconds.values()) or trace.queue_wait_seconds < 0:
        problems.append(f"request {response.request_id}: negative stage or queue time")
    accounted = trace.queue_wait_seconds + sum(trace.stage_seconds.values())
    if trace.total_seconds + 1e-6 < accounted:
        problems.append(f"request {response.request_id}: total below queue wait plus stages")
    return problems


def accounting_problems(stats) -> List[str]:
    """submitted = served + rejected + deadline_exceeded + failed + in_flight."""
    accounted = (
        stats.served + stats.rejected + stats.deadline_exceeded + stats.failed + stats.in_flight
    )
    if stats.submitted != accounted:
        return [f"service accounting: submitted {stats.submitted} != accounted {accounted}"]
    return []
