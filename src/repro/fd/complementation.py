"""Complementation closure — the engine behind the scalable FD algorithms.

ALITE computes Full Disjunction by (1) outer-unioning the input tables,
(2) repeatedly *complementing* pairs of tuples — merging any two tuples that
are join-consistent (they agree on every attribute where both are non-null and
share at least one non-null value) — until no new tuple can be produced, and
(3) removing subsumed tuples.  This module implements step (2) with a hash
index on (column position, value) pairs so that only tuples sharing a value
are ever compared, plus duplicate elimination so the closure terminates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.table.nulls import NULL, is_null
from repro.table.table import CellValue, Provenance, RowValues, Table

# A work item is the pair (tuple values, provenance set).
WorkItem = Tuple[RowValues, Provenance]


def _normalise(values: RowValues) -> RowValues:
    """Map every flavour of null to the plain NULL so tuples hash consistently."""
    return tuple(NULL if is_null(value) else value for value in values)


def _join_consistent_same_schema(left: RowValues, right: RowValues) -> bool:
    """Join-consistency for tuples over the same schema (all positions shared)."""
    agreed = False
    for left_value, right_value in zip(left, right):
        left_null = is_null(left_value)
        right_null = is_null(right_value)
        if left_null or right_null:
            continue
        if left_value != right_value:
            return False
        agreed = True
    return agreed


def _merge_same_schema(left: RowValues, right: RowValues) -> RowValues:
    """Merge two join-consistent tuples over the same schema (non-null wins)."""
    merged: List[CellValue] = []
    for left_value, right_value in zip(left, right):
        if is_null(left_value):
            merged.append(NULL if is_null(right_value) else right_value)
        else:
            merged.append(left_value)
    return tuple(merged)


class ComplementationEngine:
    """Closes a set of same-schema tuples under pairwise complementation.

    The closure is computed over an integer encoding of the tuples: every
    distinct value of every column gets a small integer code (``-1`` encodes
    null), tuples become ``int32`` rows of a growing matrix, and the
    join-consistency test against all candidate partners of a tuple is a
    vectorised numpy expression instead of a Python loop.  Candidates are
    still drawn from a hash index on (column, value) pairs, so only tuples
    sharing at least one concrete value are ever compared — the same strategy
    ALITE uses to keep the IMDB-scale experiment feasible.

    Parameters
    ----------
    max_tuples:
        Safety limit on the number of distinct tuples the closure may create;
        exceeded limits raise ``RuntimeError`` (Full Disjunction results can
        be exponential in pathological inputs, and a hard failure is more
        useful than an apparent hang).
    """

    def __init__(self, max_tuples: int = 5_000_000) -> None:
        self.max_tuples = max_tuples

    def close(
        self,
        rows: Sequence[RowValues],
        provenance: Sequence[Provenance],
        statistics: Dict[str, float] | None = None,
    ) -> Tuple[List[RowValues], List[Provenance]]:
        """Return the complementation closure of ``rows``.

        Duplicate tuples are collapsed, merging their provenance.  The inputs
        themselves are always part of the returned set (subsumption removal is
        the caller's job).
        """
        import numpy as np

        statistics = statistics if statistics is not None else {}
        if not rows:
            return [], []
        width = len(rows[0])

        # Integer encoding of cell values, one code space per column.
        code_of: List[Dict[CellValue, int]] = [dict() for _ in range(width)]
        value_of: List[List[CellValue]] = [[] for _ in range(width)]

        def encode(values: RowValues) -> "np.ndarray":
            codes = np.empty(width, dtype=np.int32)
            for position, value in enumerate(values):
                if is_null(value):
                    codes[position] = -1
                    continue
                column_codes = code_of[position]
                code = column_codes.get(value)
                if code is None:
                    code = len(column_codes)
                    column_codes[value] = code
                    value_of[position].append(value)
                codes[position] = code
            return codes

        capacity = max(16, 2 * len(rows))
        data = np.empty((capacity, width), dtype=np.int32)
        prov: List[Set[str]] = []
        known: Dict[bytes, int] = {}
        # Postings per (column, code): a growable int32 array plus its fill level.
        index: Dict[Tuple[int, int], "np.ndarray"] = {}
        index_len: Dict[Tuple[int, int], int] = {}
        queue: Deque[int] = deque()
        count = 0

        def post(key: Tuple[int, int], tuple_id: int) -> None:
            bucket = index.get(key)
            length = index_len.get(key, 0)
            if bucket is None:
                bucket = np.empty(4, dtype=np.int64)
                index[key] = bucket
            elif length == bucket.shape[0]:
                grown_bucket = np.empty(2 * length, dtype=np.int64)
                grown_bucket[:length] = bucket
                bucket = grown_bucket
                index[key] = bucket
            bucket[length] = tuple_id
            index_len[key] = length + 1

        def add(codes: "np.ndarray", sources: FrozenSet[str]) -> None:
            nonlocal data, capacity, count
            key = codes.tobytes()
            existing = known.get(key)
            if existing is not None:
                prov[existing] |= sources
                return
            if count >= self.max_tuples:
                raise RuntimeError(
                    f"complementation closure exceeded {self.max_tuples} tuples; "
                    "the input is pathological for Full Disjunction"
                )
            if count == capacity:
                capacity *= 2
                grown = np.empty((capacity, width), dtype=np.int32)
                grown[:count] = data[:count]
                data = grown
            tuple_id = count
            data[tuple_id] = codes
            count += 1
            known[key] = tuple_id
            prov.append(set(sources))
            for position in range(width):
                code = int(codes[position])
                if code >= 0:
                    post((position, code), tuple_id)
            queue.append(tuple_id)

        for values, sources in zip(rows, provenance):
            add(encode(values), frozenset(sources))

        merges = 0
        comparisons = 0
        # Tuples are dequeued in id order, so when tuple ``b`` is processed
        # every tuple with a smaller id already exists; restricting the scan
        # to candidates with id < b examines each unordered pair exactly once.
        while queue:
            current_id = queue.popleft()
            current = data[current_id]
            current_sources = frozenset(prov[current_id])
            candidate_arrays = []
            for position in range(width):
                code = int(current[position])
                if code < 0:
                    continue
                key = (position, code)
                bucket = index.get(key)
                if bucket is not None:
                    candidate_arrays.append(bucket[: index_len[key]])
            if not candidate_arrays:
                continue
            candidates = np.concatenate(candidate_arrays)
            candidates = candidates[candidates < current_id]
            if candidates.size == 0:
                continue
            block = data[candidates]
            comparisons += int(candidates.size)
            both_present = (block >= 0) & (current >= 0)
            conflict = (both_present & (block != current)).any(axis=1)
            consistent = ~conflict  # agreement on >=1 value is guaranteed by the index
            consistent_ids = candidates[consistent]
            if consistent_ids.size == 0:
                continue
            # The same partner may appear through several shared values; dedup
            # only the (few) consistent ones before merging.
            consistent_ids = np.unique(consistent_ids)
            block_consistent = data[consistent_ids]
            merged_block = np.where(block_consistent >= 0, block_consistent, current)
            for offset, candidate_id in enumerate(consistent_ids):
                merges += 1
                add(
                    merged_block[offset].astype(np.int32),
                    current_sources | frozenset(prov[int(candidate_id)]),
                )

        statistics["complementation_comparisons"] = statistics.get(
            "complementation_comparisons", 0.0
        ) + float(comparisons)
        statistics["complementation_merges"] = statistics.get(
            "complementation_merges", 0.0
        ) + float(merges)
        statistics["complementation_tuples"] = statistics.get(
            "complementation_tuples", 0.0
        ) + float(count)

        # Decode the closed tuple set back to cell values.
        decoded: List[RowValues] = []
        for tuple_id in range(count):
            codes = data[tuple_id]
            decoded.append(
                tuple(
                    NULL if codes[position] < 0 else value_of[position][int(codes[position])]
                    for position in range(width)
                )
            )
        return decoded, [frozenset(sources) for sources in prov]

    def close_table(self, table: Table, statistics: Dict[str, float] | None = None) -> Table:
        """Close a whole (outer-unioned) table under complementation."""
        provenance = table.provenance
        if provenance is None:
            provenance = [frozenset({f"{table.name}:{index}"}) for index in range(table.num_rows)]
        rows, prov = self.close(table.rows, provenance, statistics)
        return Table(table.name, table.schema, rows, provenance=prov)


def connected_components(
    rows: Sequence[RowValues],
) -> List[List[int]]:
    """Partition tuple ids into connected components of the value-sharing graph.

    Two tuples are connected when they share a non-null value in the same
    column.  Complementation can never merge tuples across components (a merge
    requires a shared value, and merged tuples only carry values from their
    sources), so each component can be closed independently — this is the key
    optimisation of the partitioned and streaming algorithms.
    """
    from repro.utils.unionfind import UnionFind

    uf = UnionFind(range(len(rows)))
    first_seen: Dict[Tuple[int, CellValue], int] = {}
    for row_id, values in enumerate(rows):
        for position, value in enumerate(values):
            if is_null(value):
                continue
            key = (position, value)
            if key in first_seen:
                uf.union(first_seen[key], row_id)
            else:
                first_seen[key] = row_id
    groups = uf.groups()
    return [sorted(group) for group in groups]
