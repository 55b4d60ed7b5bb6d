"""The benchmark's workloads: generated inputs, request loops and metrics.

``lake-wide`` and ``imdb-fd`` are closed loops with one client.  A run
builds an engine and sends it each of a fixed number of distinct inputs
once cold and once warm, then once more through a fresh engine over the
same state (``restart``).  ``imdb-fd`` sends its
requests through an :class:`~repro.service.IntegrationService` (what ``repro
serve`` runs), so the serving layer is measured and checked too.

A workload's ``run`` returns a :class:`Run`: the per-request records
(outputs digested, counters copied, checks applied after the clocks stop),
the timed-phase aggregates the metrics need, and the problems found.  It runs
untraced or, given a :class:`~tracing.Tracer`, with every layer wrapped; a
traced replay is handed the untraced run's input count so both see identical
inputs.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import string
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.datasets.imdb import ImdbBenchmark
from repro.embeddings.lexicon import SemanticLexicon
from repro.embeddings.transformer import SimulatedTransformerEmbedder
from repro.service import IntegrationService, ServiceResponse
from repro.table.table import Table

import checks
from tracing import Tracer, TracingEmbedder, TracingFullDisjunction, TracingSolver

#: Worker threads and connections the load may use.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Timed seconds one input costs across its three phases, roughly, at the
#: workloads' sizes: a run of ``--seconds`` serves ``seconds // SET_SECONDS``
#: distinct inputs, about 20 latency samples per phase at 30 s.
SET_SECONDS = 1.5

#: Letters of the two sides of a planted synonym: the forms share no character.
LEFT_ALPHABET = "abcdefghijklm"
RIGHT_ALPHABET = "nopqrstuvwxyz"

GoldSets = List[Set[Tuple[Any, object]]]


@dataclass
class Input:
    """One distinct request: its tables and the match sets it should produce."""

    key: str
    tables: List[Table]
    gold: GoldSets
    expected_digest: Optional[str] = None

    def copy(self) -> List[Table]:
        """Fresh table objects, so a tracer can tell requests apart by identity."""
        return [table.with_name(table.name) for table in self.tables]

    @property
    def rows(self) -> int:
        return sum(table.num_rows for table in self.tables)


@dataclass
class Record:
    """The outcome of one timed request."""

    request_id: int
    key: str
    phase: str
    latency: float
    rows: int
    ok: bool = True
    digest: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    pairs: Tuple[int, int, int] = (0, 0, 0)
    published_rows: float = 0.0
    trace: Any = None


@dataclass
class Run:
    """Everything one pass of a workload measured; ``size`` counts its inputs."""

    records: List[Record] = field(default_factory=list)
    restart_seconds: List[float] = field(default_factory=list)
    cache: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    size: int = 0
    rejected: int = 0

    def add_cache(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        """Add one engine's embedding-cache counter deltas."""
        for key in ("hits", "misses", "store_hits", "fills"):
            delta = float(after.get(key, 0) - before.get(key, 0))
            self.cache[key] = self.cache.get(key, 0.0) + delta

    @property
    def timed_seconds(self) -> float:
        """Timed wall time: the cold and warm requests plus every restart."""
        served = sum(record.latency for record in self.records if record.phase != "restart")
        return served + sum(self.restart_seconds)

    def close(self, endpoint) -> None:
        """Take in a closed endpoint's own checks and refusals."""
        self.problems += endpoint.problems()
        self.rejected += endpoint.rejected


# ---------------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[int(round(q * (len(ordered) - 1)))]


def median(samples: Sequence[float]) -> float:
    """Median (0.0 for no samples)."""
    return statistics.median(samples) if samples else 0.0


def cache_hit_ratio(cache: Dict[str, float]) -> float:
    """Lookups served by the in-memory tier over all lookups."""
    lookups = cache.get("hits", 0.0) + cache.get("store_hits", 0.0) + cache.get("misses", 0.0)
    return cache.get("hits", 0.0) / lookups if lookups else 0.0


def store_directory(root: Path) -> Path:
    """A fresh store directory inside the checkout."""
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="store-", dir=root))


def traced_config(config: FuzzyFDConfig, tracer: Optional[Tracer]) -> FuzzyFDConfig:
    """``config`` with its embedder, solver and FD algorithm wrapped for tracing.

    The FD algorithm is resolved by name first, so a partitioned instance
    receives exactly the executor settings name resolution gives it.
    """
    if tracer is None:
        return config
    return config.replace(
        embedder=TracingEmbedder(config.resolve_embedder(), tracer),
        assignment_solver=TracingSolver(config.resolve_solver(), tracer),
        fd_algorithm=TracingFullDisjunction(config.resolve_fd_algorithm(), tracer),
    )


#: Per-request matching counters; every request runs alone, so all of them
#: repeat exactly between an untraced run and its traced replay.
MATCH_KEYS = (
    "accepted_matches",
    "match_sets",
    "assignments",
    "blocking_pairs_scored",
    "blocking_pairs_avoided",
    "blocking_components",
    "blocking_largest_component",
    "blocking_ann_pairs_added",
    "blocking_ann_pairs_duplicate",
    "cache_hits",
    "cache_misses",
    "cache_store_hits",
    "ann_index_loads",
    "ann_index_builds",
    "ann_index_saves",
)


def result_counters(result) -> Dict[str, float]:
    """The counters a request's result reports, summed over its column groups."""
    statistics_by_group = [vm.statistics for vm in result.value_matching.values()]
    counters = {"fd." + key: float(value) for key, value in result.fd_result.statistics.items()}
    counters["fd.output_rows"] = float(result.table.num_rows)
    for key in MATCH_KEYS:
        values = [group[key] for group in statistics_by_group if key in group]
        aggregate = max if key == "blocking_largest_component" else sum
        counters["match." + key] = float(aggregate(values)) if values else 0.0
    # Accepted matches of the groups the blocked matcher served: the
    # numerator of the blocking layer's useful ratio.
    counters["match.blocked_accepted"] = float(
        sum(
            group.get("accepted_matches", 0.0)
            for group in statistics_by_group
            if group.get("blocked_assignments", 0.0) > 0
        )
    )
    counters["store.published_rows"] = float(result.timings.get("store_published_rows", 0.0))
    return counters


def check_result(item: Input, tables: Sequence[Table], outcome, record: Record) -> List[str]:
    """Digest, provenance and pair counts of one result; fills ``record``.

    ``outcome`` is the engine's result or, for a request sent through the
    service, its response, whose status and trace are checked as well.
    """
    problems: List[str] = []
    result = outcome
    if isinstance(outcome, ServiceResponse):
        if outcome.status != "ok":
            return [f"request {record.request_id} ({item.key}): status {outcome.status}"]
        record.trace = outcome.trace
        problems += checks.trace_problems(outcome)
        result = outcome.result
    record.digest = checks.table_digest(result.table)
    record.counters = result_counters(result)
    record.published_rows = record.counters["store.published_rows"]
    predicted = [
        match_set.members for vm in result.value_matching.values() for match_set in vm.sets
    ]
    record.pairs = checks.pair_counts(predicted, item.gold)
    problems += checks.provenance_problems(tables, result.table)
    if item.expected_digest is not None and record.digest != item.expected_digest:
        problems.append("output digest differs from the recorded one")
    return [f"request {record.request_id} ({item.key}, {record.phase}): {p}" for p in problems]


def consistent_digests(records: Sequence[Record]) -> List[str]:
    """Every phase of one input must produce the same output."""
    first: Dict[str, str] = {}
    problems = []
    for record in records:
        if not record.ok:
            continue
        if record.digest != first.setdefault(record.key, record.digest):
            record.ok = False
            problems.append(
                f"request {record.request_id} ({record.key}, {record.phase}): "
                "output differs from the first serving"
            )
    return problems


def plan_request(run: Run, item: Input, phase: str, tracer: Optional[Tracer]):
    """Fresh tables and a record for one request, built before any clock starts."""
    tables = item.copy()
    record = Record(len(run.records), item.key, phase, 0.0, item.rows)
    run.records.append(record)
    if tracer is not None:
        tracer.register_request(tables, record.request_id)
    return item, tables, record


def report_failure(where: str) -> str:
    """Print the current exception's traceback; return a one-line problem."""
    print(f"[perfbench] {where} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return f"{where} raised {sys.exc_info()[1]!r}"


# ---------------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------------


def _lake_set(
    rng: random.Random,
    n_values: int,
    params: Dict[str, Any],
    groups: Dict[str, List[str]],
    seen: Set[str],
) -> Tuple[List[Table], GoldSets]:
    """A two-table request: typo pairs plus surface-disjoint planted synonyms.

    Each synonym pair is registered in ``groups`` (the embedder's lexicon);
    ``seen`` keeps every value distinct across the requests of one engine.
    """
    tokens, length = params["synonym_tokens"], params["synonym_token_length"]

    def form(alphabet: str) -> str:
        return " ".join(
            "".join(rng.choice(alphabet) for _ in range(length)) for _ in range(tokens)
        )

    left: List[str] = []
    right: List[str] = []
    while len(left) < int(round(n_values * params["synonym_share"])):
        left_form, right_form = form(LEFT_ALPHABET), form(RIGHT_ALPHABET)
        if left_form in seen or right_form in seen:
            continue
        seen.update((left_form, right_form))
        groups[left_form] = [right_form]
        left.append(left_form)
        right.append(right_form)
    while len(left) < n_values:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(params["typo_length"]))
        typo = name[:-1] + ("z" if name[-1] != "z" else "q")
        if name in seen or typo in seen:
            continue
        seen.update((name, typo))
        left.append(name)
        right.append(typo)
    order = list(range(n_values))
    rng.shuffle(order)
    left = [left[index] for index in order]
    right = [right[index] for index in order]
    tables = [
        Table(
            "population",
            ["City", "Population"],
            [(city, str(1000 + row)) for row, city in enumerate(left)],
        ),
        Table("transit", ["City", "Lines"], [(city, str(row)) for row, city in enumerate(right)]),
    ]
    gold = [
        {(("population", "City"), left_value), (("transit", "City"), right_value)}
        for left_value, right_value in zip(left, right)
    ]
    return tables, gold


def lake_inputs(params: Dict[str, Any], seed: int, count: int):
    """``count`` distinct requests, the warm-up request, and their lexicon.

    The warm-up input is the same for every seed (steady set-up times); its
    values are drawn first, so the requests' values never repeat them.
    """
    groups: Dict[str, List[str]] = {}
    seen: Set[str] = set()
    warmup_rng = random.Random("lake-wide/warmup")
    warmup = Input("warmup", *_lake_set(warmup_rng, params["warmup_values"], params, groups, seen))
    rng = random.Random(f"lake-wide/{seed}")
    inputs = [
        Input(f"set{index}", *_lake_set(rng, params["values_per_set"], params, groups, seen))
        for index in range(count)
    ]
    return inputs, warmup, groups


def imdb_input(params: Dict[str, Any], generator_seed: int, digests) -> Input:
    """IMDB tables of one generator seed; ``digests`` maps size -> seed -> digest."""
    tables = ImdbBenchmark(seed=generator_seed).tables(params["tuples"])
    shared = sorted(
        {
            column
            for table in tables
            for column in table.columns
            if sum(column in other.columns for other in tables) >= 2
        }
    )
    return Input(
        f"imdb/{generator_seed}",
        tables,
        checks.equal_value_sets(tables, shared),
        expected_digest=digests.get(str(params["tuples"]), {}).get(str(generator_seed)),
    )


# ---------------------------------------------------------------------------------
# endpoints: how a closed-loop client reaches the engine
# ---------------------------------------------------------------------------------


class EngineEndpoint:
    """Requests call :meth:`IntegrationEngine.integrate` directly."""

    #: Nothing admits or refuses requests on this path.
    rejected = 0

    def __init__(self, config: FuzzyFDConfig) -> None:
        self.engine = IntegrationEngine(config)
        self.embedding_cache = self.engine.embedding_cache

    def integrate(self, tables: Sequence[Table]):
        return self.engine.integrate(tables)

    def problems(self) -> List[str]:
        return []

    def __enter__(self) -> "EngineEndpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.engine.close()


class ServiceEndpoint:
    """Requests go through an :class:`IntegrationService`, one reply at a time."""

    def __init__(self, config: FuzzyFDConfig) -> None:
        self.service = IntegrationService(config)
        self.embedding_cache = self.service.engine.embedding_cache
        self._loop = asyncio.new_event_loop()

    def integrate(self, tables: Sequence[Table]) -> ServiceResponse:
        return self._loop.run_until_complete(self.service.integrate(tables))

    @property
    def rejected(self) -> int:
        return self.service.stats().rejected

    def problems(self) -> List[str]:
        """The service's accounting, checked once its requests have finished."""
        return checks.accounting_problems(self.service.stats())

    def __enter__(self) -> "ServiceEndpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.service.close()
        self._loop.close()


# ---------------------------------------------------------------------------------
# closed loops: lake-wide and imdb-fd
# ---------------------------------------------------------------------------------


class ClosedLoopWorkload:
    """A workload whose inputs are served in cold, warm and restart phases."""

    name = ""
    uses_store = False
    #: How requests reach the engine: directly, or through the service.
    endpoint = None

    def __init__(self, params: Dict[str, Any], seed: int, work_dir: Path) -> None:
        self.params = params
        self.seed = seed
        self.work_dir = work_dir

    def inputs(self, count: int) -> Tuple[List[Input], Input, Any]:
        """``count`` distinct inputs, the warm-up input and the engine context."""
        raise NotImplementedError

    def config(self, context: Any, store_dir: Optional[Path]) -> FuzzyFDConfig:
        raise NotImplementedError

    def validity(self, run: Run) -> List[str]:
        """Problems when the run stopped loading the layers it was chosen for."""
        return []

    # -- measurement ---------------------------------------------------------------
    def setup_seconds(self, repeats: int) -> List[float]:
        """Engine construction plus one warm-up request, timed ``repeats`` times."""
        samples = []
        for _ in range(repeats):
            _, warmup, context = self.inputs(0)
            store_dir = store_directory(self.work_dir) if self.uses_store else None
            tables = warmup.copy()
            start = time.perf_counter()
            with self.endpoint(self.config(context, store_dir)) as endpoint:
                endpoint.integrate(tables)
            samples.append(time.perf_counter() - start)
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        return samples

    def run(
        self, seconds: float, tracer: Optional[Tracer] = None, inputs: Optional[int] = None
    ) -> Run:
        """Serve ``seconds // SET_SECONDS`` distinct inputs (or exactly ``inputs``).

        One engine over a fresh store serves each input cold and at once
        again warm; then a fresh engine over the same store serves it once
        more (restart), timed from its construction.  The three phases of an
        input run back to back, so a spell of slow host CPU slows every phase
        alike instead of one phase's whole sample.  A fixed count rather than
        "until the time is up" keeps every run's sample counts equal,
        whatever the machine's speed that minute.
        """
        count = inputs if inputs is not None else max(1, int(seconds // SET_SECONDS))
        run = Run(size=count)
        items, warmup, context = self.inputs(count)
        store_dir = store_directory(self.work_dir) if self.uses_store else None
        try:
            config = traced_config(self.config(context, store_dir), tracer)
            with self.endpoint(config) as endpoint:
                endpoint.integrate(warmup.copy())
                before = endpoint.embedding_cache.stats()
                for item in items:
                    self._serve(endpoint, plan_request(run, item, "cold", tracer), run)
                    self._serve(endpoint, plan_request(run, item, "warm", tracer), run)
                    self._restart(item, context, store_dir, run, tracer)
                run.add_cache(before, endpoint.embedding_cache.stats())
            run.close(endpoint)
        finally:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        run.problems.extend(consistent_digests(run.records))
        run.problems.extend(self.validity(run))
        return run

    def _restart(
        self, item: Input, context: Any, store_dir: Optional[Path], run: Run, tracer
    ) -> None:
        """Serve ``item`` through a fresh engine over the state left behind."""
        planned = plan_request(run, item, "restart", tracer)
        start = time.perf_counter()
        # config() builds a fresh embedder too: only the store survives.
        restarted = traced_config(self.config(context, store_dir), tracer)
        with self.endpoint(restarted) as endpoint:
            constructed = time.perf_counter() - start
            before = endpoint.embedding_cache.stats()
            self._serve(endpoint, planned, run)
            run.add_cache(before, endpoint.embedding_cache.stats())
        run.close(endpoint)
        run.restart_seconds.append(constructed + planned[2].latency)

    @staticmethod
    def _serve(endpoint, planned, run: Run) -> None:
        """Send one planned request and check its output.

        The output is checked after the request's clock stops and is then
        dropped, so checking costs no timed time and the live heap does not
        grow with every request served.
        """
        item, tables, record = planned
        start = time.perf_counter()
        try:
            outcome = endpoint.integrate(tables)
        except Exception:  # noqa: BLE001 - counted as a failed request
            record.latency = time.perf_counter() - start
            record.ok = False
            where = f"request {record.request_id} ({item.key}, {record.phase})"
            run.problems.append(report_failure(where))
            return
        record.latency = time.perf_counter() - start
        problems = check_result(item, tables, outcome, record)
        if problems:
            record.ok = False
            run.problems.extend(problems)


class LakeWide(ClosedLoopWorkload):
    """Wide two-table joins on the ``scale`` preset with a persistent store."""

    name = "lake-wide"
    uses_store = True
    endpoint = EngineEndpoint

    def inputs(self, count: int):
        return lake_inputs(self.params, self.seed, count)

    def config(self, groups: Dict[str, List[str]], store_dir: Optional[Path]) -> FuzzyFDConfig:
        embedder = SimulatedTransformerEmbedder(
            lexicon=SemanticLexicon(groups), **self.params["embedder"]
        )
        return FuzzyFDConfig.preset("scale").replace(
            max_workers=NPROC,
            parallel_backend="thread",
            store_dir=str(store_dir),
            embedder=embedder,
        )

    def validity(self, run: Run) -> List[str]:
        by_phase: Dict[str, Dict[str, float]] = {}
        for record in run.records:
            totals = by_phase.setdefault(record.phase, {})
            for key, value in record.counters.items():
                totals[key] = totals.get(key, 0.0) + value

        def phase_total(phase: str, key: str) -> float:
            return by_phase.get(phase, {}).get(key, 0.0)

        problems = []
        if sum(phase_total(phase, "match.blocking_ann_pairs_added") for phase in by_phase) <= 0:
            problems.append("lake-wide no longer loads ANN: matching.ann.pairs_added is 0")
        if phase_total("cold", "match.ann_index_saves") <= 0:
            problems.append("lake-wide saved no ANN index in the cold phase")
        if phase_total("restart", "match.ann_index_loads") <= 0:
            problems.append("lake-wide loaded no ANN index in the restart phase")
        if phase_total("restart", "match.cache_store_hits") <= 0:
            problems.append("lake-wide restart served no embedding from the store")
        return problems


class ImdbFd(ClosedLoopWorkload):
    """The paper's Figure 3 setting: IMDB equi-joins, Full Disjunction bound."""

    name = "imdb-fd"
    endpoint = ServiceEndpoint

    def __init__(self, params: Dict[str, Any], seed: int, work_dir: Path, digests) -> None:
        super().__init__(params, seed, work_dir)
        self.digests = digests
        pool = list(params["generator_seeds"])
        self.order = random.Random(f"imdb-fd/{seed}").sample(pool, len(pool))

    def inputs(self, count: int):
        seeds = [self.order[index % len(self.order)] for index in range(count)]
        inputs = [imdb_input(self.params, generator_seed, self.digests) for generator_seed in seeds]
        warmup = ImdbBenchmark(seed=self.params["warmup_seed"]).tables(self.params["warmup_tuples"])
        return inputs, Input("imdb/warmup", warmup, []), None

    def config(self, context: Any, store_dir: Optional[Path]) -> FuzzyFDConfig:
        return FuzzyFDConfig.preset("paper").replace(service_max_concurrency=NPROC)

    def validity(self, run: Run) -> List[str]:
        if run.cache.get("misses", 0.0) != 0:
            embedded = run.cache["misses"]
            return [f"imdb-fd embedded {embedded:.0f} values; it must bypass embedding"]
        return []
