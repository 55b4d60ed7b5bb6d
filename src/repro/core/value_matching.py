"""The *Match Values* component (Sec. 2.2 of the paper).

Given a set of aligning columns, the component determines fuzzy matches among
their values and picks one representative value per match set:

1. Embed every (distinct) cell value.
2. Take the first two columns and bipartite-match their value sets under the
   threshold θ (cosine distance over the embeddings, optimal assignment).
3. Fold the result into a *combined column*: matched values form one group
   whose representative is the most frequent surface form (ties: the value
   from the earliest table); unmatched values stay as singleton groups.
4. Match the combined column against the next aligning column, and repeat
   until every column is folded in.

The result maps every value of every aligned column to its representative,
which the Fuzzy Full Disjunction pipeline then writes back into the tables
before running the equi-join Full Disjunction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.representatives import REPRESENTATIVE_POLICIES, select_representative
from repro.embeddings.base import ValueEmbedder
from repro.embeddings.resilient import DEGRADED_MODES, EmbedderUnavailable, validate_resilience_knobs
from repro.matching.assignment import AssignmentSolver
from repro.matching.bipartite import BipartiteValueMatcher, ValueMatch
from repro.matching.ann import (
    ANN_INDEX_KINDS,
    DEFAULT_ANN_BITS,
    DEFAULT_ANN_TABLES,
    DEFAULT_ANN_TOP_K,
    SemanticBlocker,
)
from repro.matching.blocking import (
    DEFAULT_FREQUENT_KEY_CAP,
    BlockedValueMatcher,
    ValueBlocker,
)
from repro.matching.clustering import ValueMatchSet
from repro.matching.distance import EmbeddingDistance
from repro.storage.store import STORE_MODES, ArtifactStore
from repro.utils.counters import counter_scope
from repro.utils.executor import EXECUTOR_BACKENDS, ExecutorConfig

#: Cell count (``|left| × |right|``) at which ``blocking="auto"`` switches a
#: column pair from the exhaustive matcher to the blocked engine.
DEFAULT_BLOCKING_CUTOFF = 250_000

ValueKey = Tuple[Hashable, object]


@dataclass(frozen=True)
class MatchConfig:
    """The knobs of the Match Values step, declared and validated once.

    This is the slice of :class:`~repro.core.config.FuzzyFDConfig` (which
    subclasses it) that configures one matching request: every field is a
    per-request override of :meth:`IntegrationEngine.integrate
    <repro.core.engine.IntegrationEngine.integrate>` and of the service's
    ``/integrate`` ``overrides``, and the engine memoises one
    :class:`ValueMatcher` per distinct slice.  Adding a knob here makes it
    all of those at once.

    Attributes
    ----------
    threshold:
        Matching threshold θ of Definition 2.  The paper reports θ = 0.7.
    representative_policy:
        How the representative value of a match set is chosen;
        ``"frequency"`` (most frequent value, ties broken by earliest table)
        is the paper's rule.
    exact_first:
        Match identical values before running the optimal assignment on the
        remainder (cheaper and never harmful under clean-clean semantics).
    blocking:
        Whether column pairs route through the component-wise blocked
        matcher: ``"off"`` (the paper's exhaustive matrix, the default),
        ``"on"`` (always block), or ``"auto"`` (block only pairs whose cross
        product reaches ``blocking_cutoff`` cells — the data-lake setting:
        paper-size columns stay exact, wide columns go sparse).
    blocking_cutoff:
        Cell count ``|left| × |right|`` at which ``"auto"`` engages blocking.
    blocking_key_cap:
        Frequent-key cap of the blocked matcher's candidate generator: a
        blocking key whose *smaller* posting list exceeds the cap is skipped
        (stop-word-like keys would otherwise contribute quadratic candidate
        blocks).  ``None`` disables the cap — the one knob whose ``None`` is
        a value rather than "use the engine default" (its type is
        ``Optional``).
    semantic_blocking:
        The ANN candidate channel of the blocked matcher
        (:class:`~repro.matching.ann.SemanticBlocker`): ``"off"`` (surface
        keys only, the default), ``"on"`` (always union embedding-neighbour
        pairs into the candidate graph), or ``"auto"`` (union them only for
        column pairs where the surface keys left some value with no candidate
        at all).  ``"on"`` requires ``blocking`` ``"on"``/``"auto"`` — the
        channel rides the blocked matcher; the exhaustive matcher already
        scores every pair.
    ann_tables:
        Number of LSH hash tables of the semantic channel.  More tables,
        higher recall, linearly more probing.
    ann_bits:
        Random-hyperplane bits per LSH table.  Fewer bits, bigger buckets:
        higher recall, more similarity evaluations.
    ann_top_k:
        Candidate pairs the semantic channel emits per value (its nearest
        counterparts by cosine similarity; both sides probe).  Bounds the
        extra pairs the channel can add to roughly
        ``top_k × (|left| + |right|)``.
    ann_index:
        Retrieval index of the semantic channel above the brute-force
        cutoff: ``"lsh"`` (random-hyperplane tables, the default — falls
        back to IVF per column pair when hyperplane buckets skew past the
        blocker's threshold) or ``"ivf"`` (force the seeded k-means
        inverted-file index everywhere).  Both are deterministic under the
        fixed seed and both persist through the artifact store.
    max_workers:
        Worker bound of the parallel execution layer.  ``1`` (the paper's
        single-threaded setting, the default) disables every pool; larger
        values let the blocked matcher solve components concurrently, the
        partitioned FD close tuple components concurrently, and
        ``IntegrationEngine.integrate_many`` serve requests concurrently.
    parallel_backend:
        Executor backend used when ``max_workers > 1``: ``"thread"`` (numpy/
        scipy release the GIL — the usual choice), ``"process"`` (true CPU
        parallelism for pure-Python closures at a pickling cost), or
        ``"serial"`` (force the plain loop regardless of ``max_workers``).
        Results are identical across backends by construction.
    store_mode:
        How the artifact store is used when the engine has one
        (``store_dir``): ``"readwrite"`` (attach and publish), ``"read"``
        (attach existing artifacts, never write — e.g. many engines sharing
        one store only one of them owns), or ``"off"`` (ignore the
        directory).  The store never changes results, only whether artifacts
        are recomputed or loaded.
    degraded_mode:
        What a request does while the embedder's circuit breaker is open:
        ``"off"`` (the default) propagates ``EmbedderUnavailable`` to the
        caller, ``"surface"`` degrades value matching to exact +
        surface-blocking candidates without embeddings (results marked
        ``degraded`` in statistics and traces), ``"fail"`` makes the service
        answer a typed 503 with a ``Retry-After`` derived from the breaker's
        remaining open window.
    retry_max_attempts:
        Fault-tolerance: total attempts the engine's
        :class:`~repro.embeddings.resilient.ResilientEmbedder` wrapper makes
        per ``embed``/``embed_many`` call before counting the call as failed
        (``1`` disables retries).
    retry_backoff_ms:
        Base delay of the capped exponential backoff between retry attempts
        (doubled per attempt, capped at 8×, scaled by deterministic jitter).
    breaker_failure_threshold:
        Consecutive exhausted embedder calls after which the circuit breaker
        opens and calls short-circuit with a typed
        :class:`~repro.embeddings.resilient.EmbedderUnavailable`.
    breaker_reset_ms:
        How long the breaker stays open before going half-open and admitting
        one probe call (success closes it, failure re-opens a full window).
    """

    threshold: float = 0.7
    representative_policy: str = "frequency"
    exact_first: bool = True
    blocking: str = "off"
    blocking_cutoff: int = DEFAULT_BLOCKING_CUTOFF
    blocking_key_cap: Optional[int] = DEFAULT_FREQUENT_KEY_CAP
    semantic_blocking: str = "off"
    ann_tables: int = DEFAULT_ANN_TABLES
    ann_bits: int = DEFAULT_ANN_BITS
    ann_top_k: int = DEFAULT_ANN_TOP_K
    ann_index: str = "lsh"
    max_workers: int = 1
    parallel_backend: str = "thread"
    store_mode: str = "off"
    degraded_mode: str = "off"
    retry_max_attempts: int = 3
    retry_backoff_ms: float = 50.0
    breaker_failure_threshold: int = 5
    breaker_reset_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        # Fail fast on a typo'd policy name here rather than deep inside
        # match_columns() on the first accepted match.
        REPRESENTATIVE_POLICIES.validate(self.representative_policy)
        self._require_choice("blocking", ("off", "on", "auto"))
        if self.blocking_cutoff <= 0:
            raise ValueError(f"blocking_cutoff must be positive, got {self.blocking_cutoff}")
        if self.blocking_key_cap is not None and self.blocking_key_cap < 1:
            raise ValueError(
                f"blocking_key_cap must be >= 1 or None, got {self.blocking_key_cap}"
            )
        self._require_choice("semantic_blocking", ("off", "on", "auto"))
        if self.semantic_blocking == "on" and self.blocking == "off":
            raise ValueError(
                "semantic_blocking='on' requires blocking 'on' or 'auto': the ANN "
                "channel rides the blocked matcher (the exhaustive matcher already "
                "scores every pair)"
            )
        if self.ann_tables < 1:
            raise ValueError(f"ann_tables must be >= 1, got {self.ann_tables}")
        if not 1 <= self.ann_bits <= 30:
            raise ValueError(f"ann_bits must be in [1, 30], got {self.ann_bits}")
        if self.ann_top_k < 1:
            raise ValueError(f"ann_top_k must be >= 1, got {self.ann_top_k}")
        self._require_choice("ann_index", ANN_INDEX_KINDS)
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        self._require_choice("parallel_backend", EXECUTOR_BACKENDS)
        self._require_choice("store_mode", STORE_MODES)
        self._require_choice("degraded_mode", DEGRADED_MODES)
        validate_resilience_knobs(
            retry_max_attempts=self.retry_max_attempts,
            retry_backoff_ms=self.retry_backoff_ms,
            breaker_failure_threshold=self.breaker_failure_threshold,
            breaker_reset_ms=self.breaker_reset_ms,
        )

    def _require_choice(self, knob: str, choices: Sequence[str]) -> None:
        value = getattr(self, knob)
        if value not in choices:
            raise ValueError(f"{knob} must be one of {list(choices)}, got {value!r}")

    def executor_config(self) -> ExecutorConfig:
        """The parallel-execution settings as an :class:`ExecutorConfig`."""
        return ExecutorConfig(backend=self.parallel_backend, max_workers=self.max_workers)


@dataclass
class ColumnValues:
    """The values of one aligned column, as the matcher consumes them.

    Attributes
    ----------
    column_id:
        Identifier of the column (the pipeline uses ``(table name, column)``).
    values:
        Distinct non-null values, in first-seen order (clean-clean scenario:
        within a column, equal strings mean the same thing).
    counts:
        Occurrence count of each value in the underlying column; used by the
        frequency-based representative policy.  Defaults to 1 per value.
    """

    column_id: Hashable
    values: List[object]
    counts: Dict[object, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        deduplicated: List[object] = []
        seen = set()
        for value in self.values:
            if value not in seen:
                seen.add(value)
                deduplicated.append(value)
        self.values = deduplicated
        # A partially populated counts dict would silently give missing values
        # no weight in frequency-based representative selection; default every
        # uncounted value to 1.  Copy first — the caller's dict stays untouched.
        self.counts = dict(self.counts)
        for value in self.values:
            self.counts.setdefault(value, 1)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class ValueMatchingResult:
    """Outcome of matching one set of aligned columns."""

    sets: List[ValueMatchSet]
    column_order: Dict[Hashable, int]
    statistics: Dict[str, float] = field(default_factory=dict)

    def rewrite_map(self, column_id: Hashable) -> Dict[object, object]:
        """``value -> representative`` for one column (identity pairs omitted)."""
        mapping: Dict[object, object] = {}
        for match_set in self.sets:
            for member_column, value in match_set.members:
                if member_column == column_id and value != match_set.representative:
                    mapping[value] = match_set.representative
        return mapping

    def representative_of(self, column_id: Hashable, value: object) -> object:
        """The representative of ``value`` in ``column_id`` (itself if unmatched)."""
        for match_set in self.sets:
            if (column_id, value) in match_set.members:
                return match_set.representative
        return value

    def combined_column(self) -> List[object]:
        """The final combined column: one representative per match set."""
        return [match_set.representative for match_set in self.sets]

    def matched_pairs(self) -> List[Tuple[ValueKey, ValueKey]]:
        """All within-set pairs — the unit counted by the evaluation metrics."""
        pairs: List[Tuple[ValueKey, ValueKey]] = []
        for match_set in self.sets:
            members = match_set.members
            for index, left in enumerate(members):
                for right in members[index + 1 :]:
                    pairs.append((left, right))
        return pairs


class _Group:
    """A value-match group under construction (mutable, internal)."""

    __slots__ = ("members", "representative")

    def __init__(self, members: List[ValueKey], representative: object) -> None:
        self.members = members
        self.representative = representative


class ValueMatcher:
    """The Match Values component, configured by one :class:`MatchConfig`.

    Usable standalone (the Table 1 benchmark drives it directly).  ``store``
    makes the ANN hash state durable; ``config.store_mode`` and the retry
    knobs are applied by the engine that owns the store and the embedder.
    """

    def __init__(
        self,
        embedder: ValueEmbedder,
        config: MatchConfig = MatchConfig(),
        *,
        solver: Optional[AssignmentSolver] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.embedder = embedder
        self.config = config
        # The embedding-free fallback matcher of degraded_mode="surface",
        # built on first use (reuses the blocked matcher when blocking is on).
        self._degraded_matcher: Optional[BlockedValueMatcher] = None
        # The blocked engine is the only consumer of the executor — the
        # exhaustive matcher solves one global assignment and has nothing to
        # distribute.
        self.executor = config.executor_config()
        self._matcher = BipartiteValueMatcher(
            distance=EmbeddingDistance(embedder), threshold=config.threshold, solver=solver
        )
        # The semantic blocker's similarity floor is 1 - θ: pairs below it are
        # unmatchable under the threshold, so emitting them would only weld
        # components.
        semantic_blocker = (
            SemanticBlocker(
                embedder,
                top_k=config.ann_top_k,
                n_tables=config.ann_tables,
                n_bits=config.ann_bits,
                min_similarity=max(0.0, 1.0 - config.threshold),
                ann_index=config.ann_index,
                store=store,
            )
            if config.semantic_blocking != "off"
            else None
        )
        self._blocked_matcher = (
            BlockedValueMatcher(
                embedder,
                threshold=config.threshold,
                solver=solver,
                # The blocker shares the executor so surface-key generation
                # can fan out over the same (process) pool as the solver.
                blocker=ValueBlocker(
                    frequent_key_cap=config.blocking_key_cap, executor=self.executor
                ),
                executor=self.executor,
                semantic_blocker=semantic_blocker,
                semantic_mode=(
                    config.semantic_blocking if config.semantic_blocking != "off" else "on"
                ),
            )
            if config.blocking != "off"
            else None
        )

    # -- public API ---------------------------------------------------------------
    def match_pair(
        self, left: ColumnValues, right: ColumnValues
    ) -> List[ValueMatch]:
        """Bipartite matches between two columns (used directly by benchmarks)."""
        matcher = self._matcher_for(len(left.values), len(right.values))
        try:
            if self.config.exact_first:
                return matcher.match_exact_first(left.values, right.values)
            return matcher.match(left.values, right.values)
        except EmbedderUnavailable:
            if self.config.degraded_mode != "surface":
                raise
            return self._degraded_fallback().match_degraded(left.values, right.values)

    def match_columns(self, columns: Sequence[ColumnValues]) -> ValueMatchingResult:
        """Run the full sequential combined-column procedure over ``columns``."""
        if not columns:
            return ValueMatchingResult(sets=[], column_order={})
        start = time.perf_counter()
        column_order = {column.column_id: index for index, column in enumerate(columns)}
        frequencies = self._global_frequencies(columns)
        groups = [
            _Group(members=[(columns[0].column_id, value)], representative=value)
            for value in columns[0].values
        ]

        assignments = 0
        accepted = 0
        policy = self.config.representative_policy
        # Every layer below counts its own work into this scope: it is the
        # group's statistics, and on exit it adds into the request's scope.
        with counter_scope(self._counter_names()) as statistics:
            for column in columns[1:]:
                combined_values = [group.representative for group in groups]
                matcher = self._matcher_for(len(combined_values), len(column.values))
                try:
                    matches = (
                        matcher.match_exact_first(combined_values, column.values)
                        if self.config.exact_first
                        else matcher.match(combined_values, column.values)
                    )
                except EmbedderUnavailable:
                    # Breaker open.  Under "surface" the pair is re-matched
                    # without embeddings (exact + surface-blocking equality) and
                    # the result is marked degraded; any other mode propagates
                    # the typed error to the engine/service boundary.
                    if self.config.degraded_mode != "surface":
                        raise
                    matches = self._degraded_fallback().match_degraded(
                        combined_values, column.values
                    )
                assignments += 1
                accepted += len(matches)
                groups_by_representative: Dict[object, List[_Group]] = {}
                for group in groups:
                    groups_by_representative.setdefault(group.representative, []).append(group)

                matched_right = set()
                for match in matches:
                    bucket = groups_by_representative.get(match.left)
                    if not bucket:
                        continue
                    group = bucket.pop(0)
                    group.members.append((column.column_id, match.right))
                    group.representative = select_representative(
                        group.members, frequencies, column_order, policy=policy
                    )
                    matched_right.add(match.right)

                for value in column.values:
                    if value not in matched_right:
                        groups.append(
                            _Group(members=[(column.column_id, value)], representative=value)
                        )

        # Written after the scope closed: the group's shape, not request work.
        statistics.update(
            columns=float(len(columns)),
            values=float(sum(len(column) for column in columns)),
            assignments=float(assignments),
            accepted_matches=float(accepted),
            match_sets=float(len(groups)),
            elapsed_seconds=time.perf_counter() - start,
        )
        sets = [
            ValueMatchSet(members=sorted(group.members, key=lambda key: (str(key[0]), str(key[1]))),
                          representative=group.representative)
            for group in groups
        ]
        sets.sort(key=lambda match_set: (str(match_set.members[0][0]), str(match_set.members[0][1])))
        return ValueMatchingResult(sets=sets, column_order=column_order, statistics=statistics)

    # -- helpers --------------------------------------------------------------------
    def _counter_names(self) -> Tuple[str, ...]:
        """The counters a group reports even when they stay at zero."""
        names = self.embedder.cache.COUNTERS + self.embedder.COUNTERS
        if self._blocked_matcher is not None:
            names += self._blocked_matcher.COUNTERS
            if self._blocked_matcher.semantic_blocker is not None:
                names += self._blocked_matcher.semantic_blocker.COUNTERS
        return names

    def _degraded_fallback(self) -> BlockedValueMatcher:
        """The matcher serving ``match_degraded`` (never calls the embedder)."""
        if self._blocked_matcher is not None:
            return self._blocked_matcher
        if self._degraded_matcher is None:
            self._degraded_matcher = BlockedValueMatcher(
                self.embedder,
                threshold=self.config.threshold,
                blocker=ValueBlocker(frequent_key_cap=self.config.blocking_key_cap),
            )
        return self._degraded_matcher

    def _matcher_for(self, left_count: int, right_count: int):
        """Route one column pair to the exhaustive or the blocked matcher."""
        if self._blocked_matcher is None:
            return self._matcher
        if self.config.blocking == "on":
            return self._blocked_matcher
        if left_count * right_count >= self.config.blocking_cutoff:
            return self._blocked_matcher
        return self._matcher

    @staticmethod
    def _global_frequencies(columns: Sequence[ColumnValues]) -> Dict[object, int]:
        """Occurrences of each surface value across all aligning columns."""
        frequencies: Dict[object, int] = {}
        for column in columns:
            for value in column.values:
                frequencies[value] = frequencies.get(value, 0) + column.counts.get(value, 1)
        return frequencies
