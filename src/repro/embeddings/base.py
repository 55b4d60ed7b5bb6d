"""Embedder interface and embedding cache."""

from __future__ import annotations

import abc
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.counters import count


def embedding_text(value: object) -> str:
    """The exact text an embedder embeds (and caches) for ``value``.

    ``None`` embeds as the empty string; everything else as ``str(value)``.
    Callers that need the embedded texts themselves (corpus fingerprints of
    the ANN index, say) must use this function rather than re-implementing
    the conversion — the fingerprint has to name exactly the rows
    :meth:`ValueEmbedder.embed_many` produced.
    """
    return "" if value is None else str(value)


class ValueEmbedder(abc.ABC):
    """Maps cell values to fixed-dimension unit vectors.

    Subclasses implement :meth:`_embed_text`; callers use :meth:`embed` and
    :meth:`embed_many`, which handle caching and normalisation.
    """

    #: Registry name of the model (e.g. ``"mistral"``); subclasses override.
    name: str = "abstract"
    #: Request counters this embedder keeps (see :mod:`repro.utils.counters`).
    COUNTERS: Tuple[str, ...] = ()

    def __init__(self, dimension: int = 256, cache: Optional["EmbeddingCache"] = None) -> None:
        if dimension <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dimension = dimension
        self._cache = cache if cache is not None else EmbeddingCache()

    # -- public API -----------------------------------------------------------------
    @property
    def cache(self) -> "EmbeddingCache":
        """The embedding cache (long-lived engines read its hit/miss stats)."""
        return self._cache

    def use_cache(self, cache: "EmbeddingCache") -> None:
        """Swap in a different cache (e.g. a store-backed tiered cache).

        The :class:`~repro.core.engine.IntegrationEngine` calls this right
        after resolving the embedder to attach a
        :class:`~repro.storage.cache.StoreBackedEmbeddingCache` when a store
        directory is configured — the embedder's embed paths are unchanged;
        only where vectors are looked up and kept differs.
        """
        self._cache = cache

    def embed(self, value: object) -> np.ndarray:
        """Return the unit-norm embedding of one cell value."""
        text = embedding_text(value)
        cached = self._cache.get(self.name, text)
        if cached is not None:
            return cached
        return self._embed_and_cache(text)

    def _embed_and_cache(self, text: str) -> np.ndarray:
        """Compute, validate, normalise and cache the embedding of ``text``."""
        vector = np.asarray(self._embed_text(text), dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"{self.name} produced shape {vector.shape}, expected ({self.dimension},)"
            )
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        self._cache.put(self.name, text, vector)
        return vector

    def embed_many(self, values: Sequence[object]) -> np.ndarray:
        """Return an ``(n, dimension)`` matrix of embeddings for ``values``.

        Cached rows are copied into a preallocated matrix under a single
        cache-lock acquisition (:meth:`EmbeddingCache.fill_many`) — on warm
        caches this is the hot path of the blocked matcher, and one lock
        round instead of ``n`` matters once a worker pool shares the cache.
        """
        if not values:
            return np.zeros((0, self.dimension), dtype=np.float64)
        texts = [embedding_text(value) for value in values]
        matrix = np.empty((len(texts), self.dimension), dtype=np.float64)
        computed: Dict[str, np.ndarray] = {}
        for index in self._cache.fill_many(self.name, texts, matrix):
            text = texts[index]
            # Duplicate texts within one cold batch embed exactly once.
            vector = computed.get(text)
            if vector is None:
                vector = computed[text] = self._embed_and_cache(text)
            matrix[index] = vector
        return matrix

    def cosine_similarity(self, left: object, right: object) -> float:
        """Cosine similarity between two values' embeddings."""
        return float(np.dot(self.embed(left), self.embed(right)))

    def cosine_distance(self, left: object, right: object) -> float:
        """Cosine distance (1 - similarity), clipped to [0, 2]."""
        return float(np.clip(1.0 - self.cosine_similarity(left, right), 0.0, 2.0))

    # -- extension point --------------------------------------------------------------
    @abc.abstractmethod
    def _embed_text(self, text: str) -> np.ndarray:
        """Embed a single (raw, un-normalised) string."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dimension={self.dimension})"


class EmbeddingCache:
    """In-memory cache of embeddings keyed by (model name, raw text).

    The LLM embedders in the real system are by far the most expensive part of
    the pipeline; the paper's efficiency argument (Figure 3) assumes values are
    embedded once.  The cache makes repeated integration runs over the same
    tables (and the benchmark's repeated measurements) reflect that behaviour.

    The cache is thread-safe: a long-lived :class:`~repro.core.engine.
    IntegrationEngine` shares one cache across a worker pool, so lookups,
    inserts, evictions and the hit/miss counters all happen under one lock
    (the critical sections are dict operations — far cheaper than the
    embedding computation they guard).  Two threads missing on the same value
    may both embed it; both arrive at the same vector, so the second ``put``
    is a harmless overwrite.
    """

    #: Request counters this cache keeps (see :mod:`repro.utils.counters`).
    COUNTERS: Tuple[str, ...] = ("cache_hits", "cache_misses", "cache_fills")

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._store: Dict[tuple, np.ndarray] = {}
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.fills = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, model: str, text: str) -> Optional[np.ndarray]:
        """Return a cached vector or ``None``."""
        with self._lock:
            vector = self._store.get((model, text))
            if vector is None:
                self.misses += 1
                count("cache_misses")
                return None
            self.hits += 1
            count("cache_hits")
            return vector

    def fill_many(self, model: str, texts: Sequence[str], out: np.ndarray) -> List[int]:
        """Copy cached vectors into ``out`` rows; return the missing indices.

        One lock acquisition covers the whole batch, so a pool of workers
        sharing the cache contends once per column instead of once per value.
        Counters move exactly once per text (hit or miss).
        """
        missing: List[int] = []
        missing_texts: set = set()
        distinct_misses = 0
        with self._lock:
            store = self._store
            for index, text in enumerate(texts):
                vector = store.get((model, text))
                if vector is None:
                    missing.append(index)
                    # Repeated occurrences of one uncached text count as one
                    # miss + hits, matching the old embed()-per-value path
                    # (the caller embeds the text once and reuses it).
                    if text not in missing_texts:
                        missing_texts.add(text)
                        distinct_misses += 1
                else:
                    out[index] = vector
            self.hits += len(texts) - distinct_misses
            self.misses += distinct_misses
        count("cache_hits", len(texts) - distinct_misses)
        count("cache_misses", distinct_misses)
        return missing

    def put(self, model: str, text: str, vector: np.ndarray) -> None:
        """Insert a vector, evicting arbitrary entries if over capacity.

        Overwriting an existing key never evicts: the store size does not
        grow, so no live entry needs to make room.
        """
        key = (model, text)
        with self._lock:
            if key not in self._store:
                self.fills += 1
                count("cache_fills")
                if (
                    self.max_entries is not None
                    and len(self._store) >= self.max_entries
                    and self._store
                ):
                    # Simple eviction: drop the oldest inserted entry.
                    oldest = next(iter(self._store))
                    del self._store[oldest]
            self._store[key] = vector

    def clear(self) -> None:
        """Drop every cached vector and reset the statistics."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.fills = 0

    def stats(self) -> Dict[str, int]:
        """Return hit/miss/fill/size counters (one consistent snapshot).

        ``fills`` counts vectors inserted (first-time keys), so
        ``misses - fills`` over a window is the duplicate-embed overlap of
        concurrent cold lookups.  Subclasses (the store-backed cache) extend
        the dict with their tier's counters.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "fills": self.fills,
                "size": len(self._store),
            }


def mean_pool(vectors: Iterable[np.ndarray], dimension: int) -> np.ndarray:
    """Mean-pool a collection of vectors (returns zeros if empty)."""
    stacked: List[np.ndarray] = [np.asarray(vector, dtype=np.float64) for vector in vectors]
    if not stacked:
        return np.zeros(dimension, dtype=np.float64)
    return np.mean(np.vstack(stacked), axis=0)
