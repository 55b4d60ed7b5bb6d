"""Shared pytest fixtures.

The fixtures here provide the paper's Figure 1 tables (the canonical running
example), small benchmark instances, and the default embedders, so individual
test modules stay focused on behaviour.
"""

from __future__ import annotations

import threading

import pytest

from repro.embeddings import ExactEmbedder, FastTextEmbedder, MistralEmbedder
from repro.table import Table


@pytest.fixture(scope="session")
def covid_tables():
    """The three COVID-19 tables of the paper's Figure 1 (T1, T2, T3)."""
    t1 = Table(
        "T1",
        ["City", "Country"],
        [
            ("Berlinn", "Germany"),
            ("Toronto", "Canada"),
            ("Barcelona", "Spain"),
            ("New Delhi", "India"),
        ],
    )
    t2 = Table(
        "T2",
        ["Country", "City", "VaxRate"],
        [
            ("CA", "Toronto", "83%"),
            ("US", "Boston", "62%"),
            ("DE", "Berlin", "63%"),
            ("ES", "Barcelona", "82%"),
        ],
    )
    t3 = Table(
        "T3",
        ["City", "TotalCases", "DeathRate"],
        [
            ("Berlin", "1.4M", "147"),
            ("barcelona", "2.68M", "275"),
            ("Boston", "263K", "335"),
        ],
    )
    return [t1, t2, t3]


@pytest.fixture(scope="session")
def mistral_embedder():
    """The default (paper) embedding model, shared across tests for its cache."""
    return MistralEmbedder()


@pytest.fixture(scope="session")
def fasttext_embedder():
    """The cheap surface-only embedder."""
    return FastTextEmbedder()


@pytest.fixture(scope="session")
def exact_embedder():
    """The equality-only embedder (regular-FD behaviour)."""
    return ExactEmbedder()


@pytest.fixture(scope="session")
def small_autojoin_sets():
    """A tiny Auto-Join style benchmark (3 sets) shared by several test modules."""
    from repro.datasets import AutoJoinBenchmark

    return AutoJoinBenchmark(n_sets=3, values_per_column=25, seed=11).generate()


@pytest.fixture(scope="session")
def small_em_set():
    """One small entity-matching integration set."""
    from repro.datasets import AliteEmBenchmark

    return AliteEmBenchmark(n_sets=1, entities_per_set=25, seed=5).generate()[0]


class _RaceEmbedder(MistralEmbedder):
    """Mistral simulator that interleaves a warm and a cold request (see below)."""

    def __init__(self, cold_texts) -> None:
        super().__init__()
        self.cold_texts = frozenset(cold_texts)
        self.armed = False
        self.warm_matching = threading.Event()
        self.cold_counted = threading.Event()
        #: Set when a wait gave up: the two requests did not overlap.
        self.timed_out = False

    def embed_many(self, values):
        if self.armed:
            if self.cold_texts.isdisjoint(str(value) for value in values):
                # The warm request is inside its match stage; hold it there
                # until the cold request has counted its cache misses.
                self.warm_matching.set()
                self.timed_out |= not self.cold_counted.wait(timeout=10)
            else:
                self.timed_out |= not self.warm_matching.wait(timeout=10)
        return super().embed_many(values)

    def _embed_text(self, text):
        if text in self.cold_texts:
            # A raw embed comes after the cache lookup that counted the miss.
            self.cold_counted.set()
        return super()._embed_text(text)


class RequestRace:
    """A warm and a cold request whose matching stages overlap on purpose.

    Serve ``warm`` once, call :meth:`arm`, then serve ``warm`` and ``cold``
    concurrently: the cold request looks up nothing until the warm one is
    inside its match stage, and the warm one stays there until the cold
    request's cache misses are counted.  A per-request counter read from
    shared lifetime counters reports the cold misses for the warm request
    too; an exact one reports ``cache_misses == 0`` for ``warm`` and
    :attr:`cold_values` for ``cold``.
    """

    def __init__(self) -> None:
        self.warm = [
            Table("W1", ["City"], [("Berlinn",), ("Toronto",), ("Barcelona",)]),
            Table("W2", ["City"], [("Berlin",), ("Torronto",), ("barcelona",)]),
        ]
        left = [f"Town {index}" for index in range(30)]
        right = [f"Town {index}x" for index in range(30)]
        self.cold = [
            Table("C1", ["City"], [(value,) for value in left]),
            Table("C2", ["City"], [(value,) for value in right]),
        ]
        #: Distinct values of ``cold`` (none is shared, so each is embedded).
        self.cold_values = len(left) + len(right)
        self.embedder = _RaceEmbedder(left + right)

    def arm(self) -> None:
        self.embedder.armed = True


@pytest.fixture()
def request_race():
    """A fresh :class:`RequestRace` (its embedder keeps per-test state)."""
    return RequestRace()
