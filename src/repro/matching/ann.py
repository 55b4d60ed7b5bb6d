"""Approximate-nearest-neighbour semantic blocking over value embeddings.

Surface blocking keys (:class:`~repro.matching.blocking.ValueBlocker`'s
n-grams, token prefixes and lexicon concepts) can only propose a candidate
pair when the two values share some *surface* evidence.  Pairs whose strings
share no characters at all — out-of-lexicon synonyms, abbreviations of names
the lexicon does not know — are exactly the fuzzy matches the paper's
embedding-distance matching is supposed to recover, and surface blocking
silently drops them before they are ever scored.

:class:`SemanticBlocker` closes that gap with a second, *semantic* candidate
channel: it indexes the value embeddings themselves (the same unit vectors
``embed_many`` already computes for scoring, so a warm
:class:`~repro.embeddings.base.EmbeddingCache` makes indexing free) and emits,
for every left value, its approximate nearest right values.  The candidate
pairs are unioned with the surface channel's pairs by
:class:`~repro.matching.blocking.BlockedValueMatcher` before component
decomposition, so the downstream engine is unchanged — the semantic channel
only ever *adds* edges to the candidate graph.

Three retrieval strategies, chosen per column pair by size and shape:

* **Brute-force top-k** (small pairs): one dense similarity matrix, exact
  top-k in both directions.  Below ``brute_force_cells`` cells this is cheaper
  and strictly more accurate than any index.
* **Random-hyperplane LSH** (large pairs): ``n_tables`` independent hash
  tables of ``n_bits`` signed random projections each.  Values whose codes
  collide in any table (exactly, or — via single-bit multiprobe — at Hamming
  distance 1) become candidates; each value keeps its ``top_k`` nearest by
  true cosine similarity among its collision set, probing in both directions
  (left over the right tables and vice versa) so neither side can be starved
  by the other's top-k competition.  Numpy-only, no external index library.
* **Seeded k-means IVF** (large, *skewed* pairs): hyperplane buckets degrade
  when the embeddings concentrate — duplicate-heavy or low-variance columns
  push most values into a handful of buckets, and probing degenerates toward
  the dense cross product.  When the largest LSH bucket of either side holds
  more than ``skew_threshold`` of its values (or when ``ann_index="ivf"`` is
  forced), retrieval switches to an inverted-file index: a few Lloyd
  iterations of seeded k-means over the index side, each query probing its
  ``IVF_PROBES`` nearest centroids.  Same ``top_k``/similarity-floor
  semantics, same both-direction probing.

The probe phase is fully vectorised: all query codes and their single-bit
multiprobe variants are one ``(n_queries, n_bits + 1)`` XOR against the
precomputed flip masks per table, bucket membership is a
``np.searchsorted`` span over the stably-sorted index codes, and the per-query
top-k is one stable lexsort over the deduplicated ``(query, candidate)``
pairs.  The only remaining per-query step is the BLAS matvec scoring each
query's candidate rows, kept operand-for-operand identical to the old loop
so similarity bits — and therefore tie-breaks — match it exactly (see
``_select_top_k``).  ``_probe_direction_reference`` /
``_brute_force_reference`` keep the original per-query loops as the test
oracle (and the benchmark's pre-vectorisation baseline); the equivalence
property tests assert byte-identical candidate sets against them.

Determinism: hyperplanes and k-means seeding come from a seeded
:func:`numpy.random.default_rng`, bucket iteration follows input positions,
and every top-k selection breaks ties by index via stable sorts — two runs
with the same seed over the same values produce identical candidate sets, on
any backend.

With an :class:`~repro.storage.store.ArtifactStore` attached, the index state
becomes durable: the hyperplane stack and each value list's code matrix (and,
for IVF, the centroid matrix and cluster assignments) are published under
``(embedder fingerprint, parameter fingerprint, ordered corpus fingerprint)``
and loaded back on the next encounter of the same corpus — a restarted engine
re-blocks a known column without rebuilding a single code.  ``index_loads`` /
``index_builds`` / ``index_saves`` count what happened; the stored artifact
only short-circuits the hash/cluster computation, so candidates are identical
with and without the store.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.embeddings.base import ValueEmbedder, embedding_text
from repro.storage.fingerprint import (
    ann_params_fingerprint,
    corpus_fingerprint,
    embedder_fingerprint,
    ivf_params_fingerprint,
)
from repro.storage.store import ArtifactStore
from repro.utils.counters import count

#: Default number of LSH hash tables.  More tables raise recall (a pair only
#: needs to collide once) at linearly more probing work.
DEFAULT_ANN_TABLES = 8

#: Default number of random-hyperplane bits per table.  Fewer bits mean
#: larger buckets: higher recall, more true-similarity evaluations.  With
#: single-bit multiprobe, 8 bits keeps pairs at cosine similarity ≈0.6 —
#: the regime of surface-disjoint synonyms under the simulated LLM
#: embedders — above ~90% collision probability across the default tables.
DEFAULT_ANN_BITS = 8

#: Default candidates kept per probing value (nearest by true cosine
#: similarity among the collision set, or exact top-k on the brute path;
#: both sides probe, so the pair budget is ~``top_k × (|left| + |right|)``).
DEFAULT_ANN_TOP_K = 5

#: Default seed of the random hyperplanes (and of the IVF k-means seeding).
#: Fixed so that two matchers built independently (e.g. one per engine worker
#: thread) block identically.
DEFAULT_ANN_SEED = 97

#: Column pairs with at most this many cells (``|left| × |right|``) take the
#: exact brute-force path; above it the configured index engages.
DEFAULT_BRUTE_FORCE_CELLS = 250_000

#: Index kinds accepted by :class:`SemanticBlocker` (and the ``ann_index``
#: configuration knob).  ``"lsh"`` still falls back to IVF per column pair
#: when the hyperplane buckets skew past ``skew_threshold``.
ANN_INDEX_KINDS = ("lsh", "ivf")

#: Largest-LSH-bucket share of a value list above which ``ann_index="lsh"``
#: falls back to the IVF index for that column pair.  At the default 8 bits a
#: uniform corpus puts ~1/256 of its values in each bucket; a bucket holding a
#: quarter of the corpus means the hyperplanes are not separating it and
#: probing is degenerating toward the dense cross product.
DEFAULT_SKEW_THRESHOLD = 0.25

#: Value lists smaller than this report a bucket skew of 0.0 and never
#: trigger the IVF fallback: with a handful of values the largest-bucket
#: share is quantised so coarsely (3 of 12 values colliding already reads as
#: 0.25) that it measures luck, not hyperplane degradation — and lists this
#: small are within a constant factor of the brute-force cutoff anyway.
SKEW_MIN_VALUES = 64

#: Lloyd iterations of the seeded k-means IVF build.  Few on purpose: the
#: index only proposes candidates (true similarities re-rank them), so a
#: roughly converged clustering is as good as a converged one — and the
#: iteration count is part of the IVF artifact fingerprint, so it must not
#: drift silently.
IVF_ITERATIONS = 5

#: Nearest centroids each query probes at IVF retrieval time.  Retrieval-only
#: (not part of the artifact fingerprint), like ``top_k``.
IVF_PROBES = 4

def _ivf_cluster_count(n_values: int) -> int:
    """Cluster count of an IVF index over ``n_values`` vectors (≈ √n)."""
    return max(1, min(n_values, int(round(math.sqrt(n_values)))))


def _expand_spans(
    lo: np.ndarray, hi: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-(query, probe) ``[lo, hi)`` spans into candidate pairs.

    ``lo``/``hi`` are ``(n_queries, n_probes)`` searchsorted bounds into a
    stably-sorted code (or cluster-assignment) array; ``order`` maps sorted
    positions back to original index positions.  Returns ``(query_ids,
    candidate_ids)`` covering every span element — the vectorised equivalent
    of the old per-query bucket union, before deduplication.
    """
    lengths = (hi - lo).ravel().astype(np.int64)
    total = int(lengths.sum())
    n_queries = lo.shape[0]
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    starts = lo.ravel().astype(np.int64)
    # Positions within the concatenated spans: a ramp 0..total minus each
    # span's cumulative offset, plus its start — one allocation, no loop.
    offsets = np.cumsum(lengths) - lengths
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    flat += np.repeat(starts, lengths)
    per_query = lengths.reshape(n_queries, -1).sum(axis=1)
    query_ids = np.repeat(np.arange(n_queries, dtype=np.int64), per_query)
    return query_ids, np.asarray(order, dtype=np.int64)[flat]


def _probe_direction_reference(
    query_vectors: np.ndarray,
    query_codes: np.ndarray,
    index_vectors: np.ndarray,
    index_codes: np.ndarray,
    *,
    n_tables: int,
    n_bits: int,
    top_k: int,
    min_similarity: float,
) -> Set[Tuple[int, int]]:
    """The original per-query Python probe loop, kept as the test oracle.

    This is the exact pre-vectorisation implementation (dict buckets, per
    query set union over tables and bit flips, stable argsort top-k).  The
    equivalence property tests assert the vectorised
    :meth:`SemanticBlocker._probe_direction` returns byte-identical pairs,
    and the ANN benchmark times it as the speedup baseline.  Not called on
    any production path.
    """
    buckets: List[dict] = []
    for table in range(n_tables):
        table_buckets: dict = {}
        for index_position, code in enumerate(index_codes[table]):
            table_buckets.setdefault(int(code), []).append(index_position)
        buckets.append(table_buckets)

    flips = [1 << bit for bit in range(n_bits)]
    pairs: Set[Tuple[int, int]] = set()
    candidate_set: Set[int] = set()
    for query_index in range(query_vectors.shape[0]):
        candidate_set.clear()
        for table in range(n_tables):
            table_buckets = buckets[table]
            code = int(query_codes[table][query_index])
            bucket = table_buckets.get(code)
            if bucket:
                candidate_set.update(bucket)
            for flip in flips:
                bucket = table_buckets.get(code ^ flip)
                if bucket:
                    candidate_set.update(bucket)
        if not candidate_set:
            continue
        candidates = np.fromiter(sorted(candidate_set), dtype=np.int64)
        similarities = index_vectors[candidates] @ query_vectors[query_index]
        order = np.argsort(-similarities, kind="stable")[:top_k]
        for position in order:
            if similarities[position] > min_similarity:
                pairs.add((query_index, int(candidates[position])))
    return pairs


def _probe_candidates_reference(
    query_codes: np.ndarray,
    index_codes: np.ndarray,
    *,
    n_tables: int,
    n_bits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The old loop's probe phase only: dict buckets, set unions, ``sorted``.

    The candidate-retrieval half of :func:`_probe_direction_reference`,
    stopping where the similarity work starts.  Returns the ``(query_ids,
    candidate_ids)`` pair arrays in the same ``(query, candidate)`` order
    :meth:`SemanticBlocker._probe_candidates` emits, so the ANN benchmark can
    assert byte-identical candidate sets and time the probe phase in
    isolation.  Not called on any production path.
    """
    buckets: List[dict] = []
    for table in range(n_tables):
        table_buckets: dict = {}
        for index_position, code in enumerate(index_codes[table]):
            table_buckets.setdefault(int(code), []).append(index_position)
        buckets.append(table_buckets)

    flips = [1 << bit for bit in range(n_bits)]
    query_parts: List[np.ndarray] = []
    candidate_parts: List[np.ndarray] = []
    candidate_set: Set[int] = set()
    for query_index in range(query_codes.shape[1]):
        candidate_set.clear()
        for table in range(n_tables):
            table_buckets = buckets[table]
            code = int(query_codes[table][query_index])
            bucket = table_buckets.get(code)
            if bucket:
                candidate_set.update(bucket)
            for flip in flips:
                bucket = table_buckets.get(code ^ flip)
                if bucket:
                    candidate_set.update(bucket)
        if not candidate_set:
            continue
        candidates = np.fromiter(sorted(candidate_set), dtype=np.int64)
        candidate_parts.append(candidates)
        query_parts.append(np.full(len(candidates), query_index, dtype=np.int64))
    if not candidate_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(query_parts), np.concatenate(candidate_parts)


def _brute_force_reference(
    left_vectors: np.ndarray,
    right_vectors: np.ndarray,
    *,
    top_k: int,
    min_similarity: float,
) -> Set[Tuple[int, int]]:
    """The original row/column-loop brute-force top-k, kept as the test oracle."""
    similarities = left_vectors @ right_vectors.T
    pairs: Set[Tuple[int, int]] = set()
    k_rows = min(top_k, similarities.shape[1])
    row_order = np.argsort(-similarities, axis=1, kind="stable")[:, :k_rows]
    for left_index in range(similarities.shape[0]):
        for right_index in row_order[left_index]:
            if similarities[left_index, right_index] > min_similarity:
                pairs.add((left_index, int(right_index)))
    k_cols = min(top_k, similarities.shape[0])
    column_order = np.argsort(-similarities.T, axis=1, kind="stable")[:, :k_cols]
    for right_index in range(similarities.shape[1]):
        for left_index in column_order[right_index]:
            if similarities[left_index, right_index] > min_similarity:
                pairs.add((int(left_index), right_index))
    return pairs


class SemanticBlocker:
    """Emits candidate pairs of embedding-nearest values.

    The interface mirrors :meth:`ValueBlocker.candidate_pairs
    <repro.matching.blocking.ValueBlocker.candidate_pairs>`: a sorted list of
    ``(left_index, right_index)`` pairs.  The blocker never decides matches —
    it only proposes pairs for the assignment engine to score, so a loose
    ``top_k`` costs extra scored cells, never wrong matches.

    Parameters
    ----------
    embedder:
        Source of the value embeddings.  Lookups go through
        ``embedder.embed_many``, so indexing reuses (and warms) the
        embedder's cache — inside an :class:`~repro.core.engine.
        IntegrationEngine` the vectors are typically already cached and
        indexing re-embeds nothing.
    top_k:
        Candidates emitted per probing value (each side probes the other).
    n_tables / n_bits:
        LSH shape (see module docstring).  Only consulted above the
        brute-force cutoff.
    seed:
        Seed of the random hyperplanes and of the IVF k-means seeding; same
        seed, same candidates.
    brute_force_cells:
        Cell-count cutoff below which the exact dense path runs instead of
        an index.
    min_similarity:
        Cosine-similarity floor on emitted pairs.  A top-k list is padded
        with whatever neighbours exist, however distant; below-floor pairs
        are dropped because they cannot survive the matcher's threshold θ
        anyway (distance ``1 - sim ≥ θ``) — and, worse, keeping them welds
        unrelated values into one giant connected component, inflating
        ``pairs_scored`` toward the dense cross product.  Callers that know
        θ should pass ``1 - θ`` (the blocked matcher's configuration layer
        does); ``0.0`` disables the floor.
    ann_index:
        ``"lsh"`` (the default) or ``"ivf"``.  ``"lsh"`` still switches to
        the IVF index per column pair when either side's hyperplane buckets
        skew past ``skew_threshold`` (see :attr:`last_bucket_skew`);
        ``"ivf"`` forces the inverted-file index for every indexed pair.
    skew_threshold:
        Largest-bucket share triggering the LSH→IVF fallback, in ``(0, 1]``
        (``1.0`` effectively disables the fallback).
    store:
        Optional :class:`~repro.storage.store.ArtifactStore` making the
        index state durable.  LSH codes are keyed by the *ordered* corpus
        fingerprint of the value list (column ``i`` codes value ``i``), the
        embedder fingerprint and the ``(n_tables, n_bits, seed)`` parameter
        fingerprint; IVF centroids/assignments by the ``(iterations, seed)``
        fingerprint.  ``top_k`` / ``min_similarity`` / probe width are
        retrieval-time knobs and deliberately not part of any key.  The
        store never changes the emitted candidates — only whether index
        state is computed or loaded.
    """

    #: Request counters of the semantic channel (see
    #: :mod:`repro.utils.counters`); the blocked matcher counts the first two,
    #: the pairs the channel added to or duplicated in the candidate graph.
    COUNTERS = (
        "blocking_ann_pairs_added",
        "blocking_ann_pairs_duplicate",
        "blocking_ann_skew_fallbacks",
        "blocking_ann_probe_candidates",
        "ann_index_loads",
        "ann_index_builds",
        "ann_index_saves",
    )

    def __init__(
        self,
        embedder: ValueEmbedder,
        top_k: int = DEFAULT_ANN_TOP_K,
        n_tables: int = DEFAULT_ANN_TABLES,
        n_bits: int = DEFAULT_ANN_BITS,
        seed: int = DEFAULT_ANN_SEED,
        brute_force_cells: int = DEFAULT_BRUTE_FORCE_CELLS,
        min_similarity: float = 0.0,
        ann_index: str = "lsh",
        skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if n_tables < 1:
            raise ValueError(f"n_tables must be >= 1, got {n_tables}")
        if not 1 <= n_bits <= 30:
            raise ValueError(f"n_bits must be in [1, 30], got {n_bits}")
        if brute_force_cells < 0:
            raise ValueError(f"brute_force_cells must be >= 0, got {brute_force_cells}")
        if not 0.0 <= min_similarity < 1.0:
            raise ValueError(f"min_similarity must be in [0, 1), got {min_similarity}")
        if ann_index not in ANN_INDEX_KINDS:
            raise ValueError(
                f"ann_index must be one of {list(ANN_INDEX_KINDS)}, got {ann_index!r}"
            )
        if not 0.0 < skew_threshold <= 1.0:
            raise ValueError(f"skew_threshold must be in (0, 1], got {skew_threshold}")
        self.embedder = embedder
        self.top_k = top_k
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.seed = seed
        self.brute_force_cells = brute_force_cells
        self.min_similarity = min_similarity
        self.ann_index = ann_index
        self.skew_threshold = skew_threshold
        self.store = store
        #: Whether the last :meth:`candidate_pairs` call used an ANN index
        #: (``False`` means the exact brute-force path ran).
        self.last_used_lsh = False
        #: Index kind of the last call: ``""`` (no call yet), ``"brute"``,
        #: ``"lsh"`` or ``"ivf"`` — ``"ivf"`` either forced or by skew
        #: fallback; the ``blocking_ann_skew_fallbacks`` counter tells which.
        self.last_index_kind = ""
        #: Largest LSH bucket share observed on the last LSH-routed call
        #: (``0.0`` when no codes were computed — brute path or forced IVF).
        self.last_bucket_skew = 0.0
        #: Durable-index accounting: index state loaded from the store,
        #: computed from scratch, and published.  ``index_builds == 0`` over a
        #: warm run is the "zero ANN rebuilds" guarantee the engine surfaces.
        self.index_loads = 0
        self.index_builds = 0
        self.index_saves = 0
        self._embedder_fp = embedder_fingerprint(embedder.name, embedder.dimension)
        self._params_fp = ann_params_fingerprint(n_tables, n_bits, seed)
        self._ivf_params_fp = ivf_params_fingerprint(IVF_ITERATIONS, seed)
        # Hyperplanes are a function of (seed, tables, bits, dimension) only,
        # so they are drawn once and shared by every candidate_pairs call.
        self._planes: dict = {}

    # -- public API -----------------------------------------------------------------
    def candidate_pairs(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> List[Tuple[int, int]]:
        """Sorted embedding-neighbour index pairs between the two value lists."""
        self.last_bucket_skew = 0.0
        if not left_values or not right_values:
            self.last_used_lsh = False
            self.last_index_kind = "brute"
            return []
        # One text conversion, shared by the embedding lookup and the corpus
        # fingerprints — embedding_text is exactly what embed_many applies,
        # so the ordered fingerprint names exactly the rows embedded below.
        left_texts = [embedding_text(value) for value in left_values]
        right_texts = [embedding_text(value) for value in right_values]
        left_vectors = self.embedder.embed_many(left_texts)
        right_vectors = self.embedder.embed_many(right_texts)
        if len(left_values) * len(right_values) <= self.brute_force_cells:
            self.last_used_lsh = False
            self.last_index_kind = "brute"
            pairs = self._brute_force_pairs(left_vectors, right_vectors)
        else:
            self.last_used_lsh = True
            if self.store is None:
                left_texts = right_texts = None  # fingerprints unused
            pairs = self._indexed_pairs(left_vectors, right_vectors, left_texts, right_texts)
        return sorted(pairs)

    # -- exact path -----------------------------------------------------------------
    def _brute_force_pairs(
        self, left_vectors: np.ndarray, right_vectors: np.ndarray
    ) -> Set[Tuple[int, int]]:
        """Exact top-k in both directions over one dense similarity matrix.

        Both directions matter: per-row top-k alone can starve a right value
        whose nearest lefts all have closer neighbours of their own, and a
        starved value never enters the candidate graph at all.

        Selection is ``np.argpartition``-based: one O(n) partition per row
        instead of a full sort, with a stable-argsort fixup only for rows
        whose k-th similarity ties across the selection boundary — those are
        the only rows where the partition's arbitrary tie choice could differ
        from the old stable-sort loop (oracle:
        :func:`_brute_force_reference`).
        """
        similarities = left_vectors @ right_vectors.T
        pairs = self._dense_top_k_rows(similarities)
        for right_index, left_index in self._dense_top_k_rows(similarities.T):
            pairs.add((left_index, right_index))
        return pairs

    def _dense_top_k_rows(self, similarities: np.ndarray) -> Set[Tuple[int, int]]:
        """Per-row exact top-k of a dense similarity matrix, as index pairs."""
        n_rows, n_cols = similarities.shape
        floor = self.min_similarity
        k = min(self.top_k, n_cols)
        if k == n_cols:
            rows, cols = np.nonzero(similarities > floor)
            return set(zip(rows.tolist(), cols.tolist()))
        selected = np.argpartition(-similarities, k - 1, axis=1)[:, :k]
        selected_sims = np.take_along_axis(similarities, selected, axis=1)
        kth = selected_sims.min(axis=1)
        # A row needs the stable tie-break only when values equal to its k-th
        # similarity straddle the boundary; otherwise the top-k *set* is
        # unique and the partition already found it.
        ambiguous = np.flatnonzero((similarities >= kth[:, None]).sum(axis=1) > k)
        if len(ambiguous):
            fixed = np.argsort(-similarities[ambiguous], axis=1, kind="stable")[:, :k]
            selected[ambiguous] = fixed
            selected_sims[ambiguous] = np.take_along_axis(
                similarities[ambiguous], fixed, axis=1
            )
        keep = selected_sims > floor
        row_ids = np.broadcast_to(np.arange(n_rows)[:, None], (n_rows, k))[keep]
        return set(zip(row_ids.tolist(), selected[keep].tolist()))

    # -- indexed paths ----------------------------------------------------------------
    def _indexed_pairs(
        self,
        left_vectors: np.ndarray,
        right_vectors: np.ndarray,
        left_texts: Optional[List[str]],
        right_texts: Optional[List[str]],
    ) -> Set[Tuple[int, int]]:
        """Route one above-cutoff column pair to the LSH or IVF index.

        ``ann_index="lsh"`` computes the codes first and measures bucket
        occupancy; a side whose largest bucket exceeds ``skew_threshold``
        falls back to IVF (counted as ``blocking_ann_skew_fallbacks``) because its
        hyperplanes are not separating the corpus.  ``ann_index="ivf"``
        skips the codes entirely.
        """
        kind = self.ann_index
        if kind == "lsh":
            dimension = left_vectors.shape[1]
            left_codes = self._durable_codes(left_vectors, left_texts, dimension)
            right_codes = self._durable_codes(right_vectors, right_texts, dimension)
            skew = max(self._bucket_skew(left_codes), self._bucket_skew(right_codes))
            self.last_bucket_skew = skew
            if skew > self.skew_threshold:
                count("blocking_ann_skew_fallbacks")
                kind = "ivf"
            else:
                self.last_index_kind = "lsh"
                pairs = self._probe_direction(
                    left_vectors, left_codes, right_vectors, right_codes
                )
                reverse = self._probe_direction(
                    right_vectors, right_codes, left_vectors, left_codes
                )
                pairs.update((left, right) for right, left in reverse)
                return pairs
        self.last_index_kind = "ivf"
        pairs = self._ivf_probe(left_vectors, right_vectors, right_texts)
        reverse = self._ivf_probe(right_vectors, left_vectors, left_texts)
        pairs.update((left, right) for right, left in reverse)
        return pairs

    @staticmethod
    def _bucket_skew(codes: np.ndarray) -> float:
        """Largest bucket share over all tables of one side's code matrix.

        Sides below :data:`SKEW_MIN_VALUES` report ``0.0`` — too few values
        for the share to mean anything (see the constant's docstring).
        """
        n_values = codes.shape[1]
        if n_values < SKEW_MIN_VALUES:
            return 0.0
        worst = 0
        for table_codes in codes:
            _, counts = np.unique(np.asarray(table_codes), return_counts=True)
            worst = max(worst, int(counts.max()))
        return worst / n_values

    # -- LSH index --------------------------------------------------------------------
    def _hyperplanes(self, dimension: int) -> np.ndarray:
        """The ``(n_tables, n_bits, dimension)`` random hyperplane stack."""
        planes = self._planes.get(dimension)
        if planes is None:
            rng = np.random.default_rng(self.seed)
            planes = rng.standard_normal((self.n_tables, self.n_bits, dimension))
            self._planes[dimension] = planes
        return planes

    def _codes(self, vectors: np.ndarray, planes: np.ndarray) -> np.ndarray:
        """Per-table integer hash codes, shape ``(n_tables, n_values)``."""
        weights = (1 << np.arange(self.n_bits, dtype=np.int64))
        codes = np.empty((self.n_tables, vectors.shape[0]), dtype=np.int64)
        for table in range(self.n_tables):
            bits = vectors @ planes[table].T >= 0.0
            codes[table] = bits @ weights
        return codes

    def _durable_codes(
        self, vectors: np.ndarray, texts: Optional[List[str]], dimension: int
    ) -> np.ndarray:
        """Load the value list's code matrix from the store, or build it.

        A stored index short-circuits the hash computation only; a cache miss
        (or no store at all) computes the codes exactly as before and — when
        the store is writable — publishes them for the next run.  On a hit
        the stored hyperplanes seed the in-memory memo, so any codes built
        later in this process hash against the very same planes.
        """
        if self.store is None or texts is None:
            self.index_builds += 1
            count("ann_index_builds")
            return self._codes(vectors, self._hyperplanes(dimension))
        corpus_fp = corpus_fingerprint(texts, ordered=True)
        loaded = self.store.load_ann_index(self._embedder_fp, self._params_fp, corpus_fp)
        if loaded is not None:
            planes, codes = loaded
            if planes.shape == (self.n_tables, self.n_bits, dimension) and codes.shape == (
                self.n_tables,
                vectors.shape[0],
            ):
                self._planes.setdefault(dimension, planes)
                self.index_loads += 1
                count("ann_index_loads")
                return codes
        planes = self._hyperplanes(dimension)
        codes = self._codes(vectors, planes)
        self.index_builds += 1
        count("ann_index_builds")
        if self.store.can_write and self.store.save_ann_index(
            self._embedder_fp, self._params_fp, corpus_fp, planes, codes
        ):
            self.index_saves += 1
            count("ann_index_saves")
        return codes

    def _probe_direction(
        self,
        query_vectors: np.ndarray,
        query_codes: np.ndarray,
        index_vectors: np.ndarray,
        index_codes: np.ndarray,
    ) -> Set[Tuple[int, int]]:
        """``(query, index)`` pairs: each query keeps its top-k bucket-mates.

        Fully vectorised, byte-identical to the old per-query loop
        (:func:`_probe_direction_reference`, property-tested): per table the
        index codes are stably sorted once, every query's code and its
        ``n_bits`` single-bit flips become one ``(n_queries, n_bits + 1)``
        XOR, and bucket membership is a pair of ``searchsorted`` calls whose
        spans are expanded and deduplicated with ``np.unique`` — the same
        candidate sets the dict buckets produced, in sorted candidate order.
        """
        query_ids, candidate_ids = self._probe_candidates(query_codes, index_codes)
        return self._select_top_k(
            query_ids, candidate_ids, query_vectors, index_vectors
        )

    def _probe_candidates(
        self, query_codes: np.ndarray, index_codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated ``(query, candidate)`` bucket-mate ids, both sorted.

        The probe phase proper — everything the old dict-bucket loop did
        before touching a similarity, as matrix ops.  Pairs come back sorted
        by ``(query, candidate)``: exactly each query's ``sorted()``
        candidate set under the old loop, so the benchmark asserts
        byte-identity against :func:`_probe_candidates_reference` with a
        plain array comparison.
        """
        n_index = index_codes.shape[1]
        masks = np.concatenate(
            (np.zeros(1, dtype=np.int64), 1 << np.arange(self.n_bits, dtype=np.int64))
        )
        # Up to ~1M distinct codes a dense offset table (bincount + cumsum)
        # answers every probe with one gather instead of a binary search —
        # the searchsorted pair is kept for wider codes, where the dense
        # table would dwarf the code arrays themselves.
        dense_offsets = self.n_bits <= 20
        key_parts: List[np.ndarray] = []
        for table in range(self.n_tables):
            table_codes = np.asarray(index_codes[table])
            order = np.argsort(table_codes, kind="stable")
            probes = np.asarray(query_codes[table])[:, None] ^ masks[None, :]
            if dense_offsets:
                offsets = np.zeros((1 << self.n_bits) + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(table_codes, minlength=1 << self.n_bits),
                    out=offsets[1:],
                )
                lo = offsets[probes]
                hi = offsets[probes + 1]
            else:
                sorted_codes = table_codes[order]
                lo = np.searchsorted(sorted_codes, probes, side="left")
                hi = np.searchsorted(sorted_codes, probes, side="right")
            query_ids, candidate_ids = _expand_spans(lo, hi, order)
            if len(query_ids):
                key_parts.append(query_ids * n_index + candidate_ids)
        if not key_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Sort-based dedupe: same sorted-ascending keys np.unique would give,
        # several times faster than its hash path at probe volumes (millions
        # of combined keys), and the in-place sort reuses the concat buffer.
        keys = np.concatenate(key_parts) if len(key_parts) > 1 else key_parts[0]
        keys.sort()
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        return keys // n_index, keys % n_index

    # -- IVF index --------------------------------------------------------------------
    def _build_ivf(self, vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Seeded k-means over one side's vectors: ``(centroids, assignments)``.

        Deterministic end to end: seeded sampled initialisation, a fixed
        :data:`IVF_ITERATIONS` Lloyd iterations, first-occurrence ``argmax``
        tie-breaks, and empty clusters keep their previous centroid.  The
        centroids are renormalised to unit length so centroid similarity is
        the same cosine the retrieval re-ranking uses.
        """
        n_values = vectors.shape[0]
        n_clusters = _ivf_cluster_count(n_values)
        rng = np.random.default_rng(self.seed)
        seeds = np.sort(rng.choice(n_values, size=n_clusters, replace=False))
        centroids = np.array(vectors[seeds], dtype=np.float64)
        assignments = np.zeros(n_values, dtype=np.int64)
        for _ in range(IVF_ITERATIONS):
            assignments = np.argmax(vectors @ centroids.T, axis=1)
            sums = np.zeros_like(centroids)
            np.add.at(sums, assignments, vectors)
            norms = np.linalg.norm(sums, axis=1)
            populated = norms > 0.0
            centroids[populated] = sums[populated] / norms[populated, None]
        assignments = np.argmax(vectors @ centroids.T, axis=1).astype(np.int64)
        return centroids, assignments

    def _durable_ivf(
        self, vectors: np.ndarray, texts: Optional[List[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Load one side's IVF state from the store, or build and publish it."""
        if self.store is None or texts is None:
            self.index_builds += 1
            count("ann_index_builds")
            return self._build_ivf(vectors)
        corpus_fp = corpus_fingerprint(texts, ordered=True)
        loaded = self.store.load_ivf_index(
            self._embedder_fp, self._ivf_params_fp, corpus_fp
        )
        if loaded is not None:
            centroids, assignments = loaded
            if centroids.shape[1] == vectors.shape[1] and assignments.shape == (
                vectors.shape[0],
            ):
                self.index_loads += 1
                count("ann_index_loads")
                return centroids, assignments
        centroids, assignments = self._build_ivf(vectors)
        self.index_builds += 1
        count("ann_index_builds")
        if self.store.can_write and self.store.save_ivf_index(
            self._embedder_fp, self._ivf_params_fp, corpus_fp, centroids, assignments
        ):
            self.index_saves += 1
            count("ann_index_saves")
        return centroids, assignments

    def _ivf_probe(
        self,
        query_vectors: np.ndarray,
        index_vectors: np.ndarray,
        index_texts: Optional[List[str]],
    ) -> Set[Tuple[int, int]]:
        """``(query, index)`` pairs via the IVF index over ``index_vectors``.

        Each query probes its :data:`IVF_PROBES` most similar centroids
        (stable selection) and ranks the members of those clusters by true
        cosine similarity — the same top-k/floor semantics as the LSH path,
        through the same vectorised span-expansion and selection machinery.
        """
        centroids, assignments = self._durable_ivf(index_vectors, index_texts)
        assignments = np.asarray(assignments, dtype=np.int64)
        order = np.argsort(assignments, kind="stable")
        sorted_assignments = assignments[order]
        centroid_similarities = query_vectors @ np.asarray(centroids).T
        n_probe = min(centroids.shape[0], IVF_PROBES)
        probed = np.argsort(-centroid_similarities, axis=1, kind="stable")[:, :n_probe]
        lo = np.searchsorted(sorted_assignments, probed, side="left")
        hi = np.searchsorted(sorted_assignments, probed, side="right")
        query_ids, candidate_ids = _expand_spans(lo, hi, order)
        if not len(query_ids):
            return set()
        # Probed clusters are distinct per query, so spans cannot overlap —
        # but unique() also sorts pairs by (query, candidate), which the
        # selection's tie-breaking relies on.
        n_index = index_vectors.shape[0]
        keys = np.unique(query_ids * n_index + candidate_ids)
        return self._select_top_k(
            keys // n_index, keys % n_index, query_vectors, index_vectors
        )

    # -- shared selection -------------------------------------------------------------
    def _select_top_k(
        self,
        query_ids: np.ndarray,
        candidate_ids: np.ndarray,
        query_vectors: np.ndarray,
        index_vectors: np.ndarray,
    ) -> Set[Tuple[int, int]]:
        """Per-query top-k over ``(query, candidate)`` pairs, above the floor.

        Pairs must arrive sorted by ``(query, candidate)`` (the sorted key
        dedupe guarantees it).  Similarities and the top-k cut are computed
        one query group at a time as ``index_vectors[candidates] @ query``
        plus a stable argsort — the *same* gathered operands, the same BLAS
        matvec and the same sort the reference loop uses, deliberately: BLAS
        kernels are position-dependent at the ULP level (two bit-identical
        duplicate rows can produce similarities one ULP apart depending on
        where they sit in the gathered matrix), so computing the
        similarities any other way can flip duplicate-row ties and break
        byte-identity with the old loop.  The group loop is a few numpy
        calls per query over C-sized work; the per-element Python of the old
        path (dict probes, set unions, ``sorted``/``fromiter``) is what the
        vectorisation removed.  Selecting inside the group also keeps the
        pass O(pairs) in memory — a global rank (e.g. one lexsort over every
        pair) costs minutes at the tens of millions of pairs a skewed index
        can emit.
        """
        n_pairs = len(query_ids)
        count("blocking_ann_probe_candidates", n_pairs)
        if n_pairs == 0:
            return set()
        top_k = self.top_k
        min_similarity = self.min_similarity
        bounds = np.flatnonzero(np.r_[True, query_ids[1:] != query_ids[:-1], True])
        pairs: Set[Tuple[int, int]] = set()
        for group in range(len(bounds) - 1):
            start, end = bounds[group], bounds[group + 1]
            candidates = candidate_ids[start:end]
            similarities = index_vectors[candidates] @ query_vectors[query_ids[start]]
            order = np.argsort(-similarities, kind="stable")[:top_k]
            query = int(query_ids[start])
            for position in order:
                if similarities[position] > min_similarity:
                    pairs.add((query, int(candidates[position])))
        return pairs

    def __repr__(self) -> str:
        return (
            f"SemanticBlocker(top_k={self.top_k}, n_tables={self.n_tables}, "
            f"n_bits={self.n_bits}, seed={self.seed}, ann_index={self.ann_index!r})"
        )
