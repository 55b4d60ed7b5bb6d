"""Request-scoped work counters.

A layer calls :func:`count` where it does the work, under the name its number
is reported by (the ``statistics`` / ``timings`` key).  The innermost open
:func:`counter_scope` receives it and, on exit, adds its totals into the
enclosing scope.  The engine opens one scope per request and per match stage,
:class:`~repro.core.value_matching.ValueMatcher` one per aligned column
group, so ``ValueMatchingResult.statistics``, ``FuzzyIntegrationResult.
timings`` and the service's ``RequestTrace`` are plain reads of the scope that
covered the work.  Scopes live in a :mod:`contextvars` variable, so
concurrent requests never see each other's counts.

Outside any scope :func:`count` does nothing.  Executor threads and worker
processes run outside the caller's scope too, so a
:func:`~repro.utils.executor.run_partitioned` task never counts: it returns
its numbers and the caller counts them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, Mapping, Optional

#: Names that report a peak rather than a total: they combine by ``max``.
PEAK_COUNTERS = frozenset({"blocking_largest_component", "degraded"})

_current: ContextVar[Optional[Dict[str, float]]] = ContextVar("repro_counters", default=None)


def count(name: str, amount: float = 1.0) -> None:
    """Add ``amount`` to ``name`` in the innermost open scope, if any."""
    totals = _current.get()
    if totals is not None:
        add_counts(totals, {name: amount})


def add_counts(totals: Dict[str, float], counts: Mapping[str, float]) -> None:
    """Combine ``counts`` into ``totals``: peaks by ``max``, the rest by sum."""
    for name, amount in counts.items():
        if name in PEAK_COUNTERS:
            totals[name] = max(totals.get(name, 0.0), float(amount))
        else:
            totals[name] = totals.get(name, 0.0) + float(amount)


@contextmanager
def counter_scope(names: Iterable[str] = ()) -> Iterator[Dict[str, float]]:
    """Open a scope and yield its live totals, with ``names`` starting at 0.

    Entries written to the yielded dict after the scope closed stay local.
    """
    totals = dict.fromkeys(names, 0.0)
    token = _current.set(totals)
    try:
        yield totals
    finally:
        _current.reset(token)
        enclosing = _current.get()
        if enclosing is not None:
            add_counts(enclosing, totals)
