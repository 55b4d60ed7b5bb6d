"""Configuration of the Fuzzy Full Disjunction pipeline.

Every name-valued knob (embedder, assignment solver, FD algorithm,
representative policy, alignment strategy) is validated *eagerly* at
construction against its plugin registry, so a typo fails immediately with
the valid names listed instead of exploding deep inside the pipeline.

Configurations serialise: :meth:`FuzzyFDConfig.to_dict` /
:meth:`FuzzyFDConfig.from_dict` round-trip through plain dicts, and
:meth:`FuzzyFDConfig.from_json` loads a JSON file or string.  Named presets
(:data:`PRESETS`: ``"paper"``, ``"fast"``, ``"scale"``) capture the common
operating points.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.value_matching import MatchConfig
from repro.embeddings.base import ValueEmbedder
from repro.embeddings.registry import EMBEDDERS
from repro.fd import FD_ALGORITHMS
from repro.fd.base import FullDisjunctionAlgorithm
from repro.matching.assignment import ASSIGNMENT_SOLVERS, AssignmentSolver
from repro.registry import Registry
from repro.schema_matching.strategies import ALIGNMENT_STRATEGIES


@dataclass(frozen=True)
class FuzzyFDConfig(MatchConfig):
    """All knobs of the pipeline, with the paper's defaults.

    The matching knobs (θ, blocking, ANN, executor, store mode, degraded
    mode, retry/breaker policy) are inherited from
    :class:`~repro.core.value_matching.MatchConfig`, which declares,
    defaults and validates them; every one of them is also a per-request
    override.  This class adds the engine-level knobs, fixed for an
    engine's lifetime.  Instances are frozen: derive variants with
    :meth:`replace`.

    Attributes
    ----------
    embedder:
        Embedding model (registry name or instance).  The paper's system uses
        Mistral-7B-Instruct; the default here is the Mistral simulator.
    assignment_solver:
        Bipartite assignment solver (``"scipy"`` as in the paper,
        ``"hungarian"`` or ``"greedy"``).
    fd_algorithm:
        Full Disjunction substrate (``"alite"`` as in the paper, or
        ``"naive"`` / ``"partitioned"`` / ``"streaming"`` /
        ``"outer_join_sequence"``).
    alignment:
        Alignment strategy used when the caller does not pass an explicit
        alignment: ``"by_name"`` groups equal headers (the Figure 1 setting),
        ``"holistic"`` runs embedding-based holistic schema matching; any
        strategy registered in
        :data:`~repro.schema_matching.strategies.ALIGNMENT_STRATEGIES` works.
    store_dir:
        Directory of the persistent artifact store
        (:class:`~repro.storage.store.ArtifactStore`): memmapped embedding
        segments and durable ANN indexes that make a restarted engine warm.
        ``None`` (the default) disables persistence entirely; ``store_mode``
        says how a configured directory is used.  Stored as a plain string
        so configurations stay JSON-serialisable.
    service_max_pending:
        Admission bound of the :class:`~repro.service.IntegrationService`:
        requests admitted but not yet executing.  Once this many are queued,
        new submissions are rejected with a typed ``ServiceOverloaded``
        response instead of buffering without bound (backpressure).  ``0``
        rejects whenever every concurrency slot is busy.
    service_max_concurrency:
        Requests the service executes concurrently on the engine-owned
        worker pool.  Admitted requests beyond this wait in the pending
        queue (their queue-wait time lands in the request trace).
    service_deadline_ms:
        Default per-request deadline budget of the service in milliseconds
        (queue wait included), checked at stage boundaries
        (align → match → integrate); ``None`` (the default) means no
        deadline unless the request carries its own ``deadline_ms``.
    """

    embedder: Union[str, ValueEmbedder] = "mistral"
    assignment_solver: Union[str, AssignmentSolver] = "scipy"
    fd_algorithm: Union[str, FullDisjunctionAlgorithm] = "alite"
    alignment: str = "by_name"
    store_dir: Optional[str] = None
    service_max_pending: int = 32
    service_max_concurrency: int = 4
    service_deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.store_dir is not None:
            # Paths are accepted for convenience but held as strings so
            # to_dict()/to_json() stay plainly serialisable.
            object.__setattr__(self, "store_dir", str(self.store_dir))
        if self.service_max_pending < 0:
            raise ValueError(
                f"service_max_pending must be >= 0, got {self.service_max_pending}"
            )
        if self.service_max_concurrency < 1:
            raise ValueError(
                f"service_max_concurrency must be >= 1, "
                f"got {self.service_max_concurrency}"
            )
        if self.service_deadline_ms is not None and self.service_deadline_ms <= 0:
            raise ValueError(
                f"service_deadline_ms must be positive or None, "
                f"got {self.service_deadline_ms}"
            )
        # Every registry-resolved knob is checked here, at construction, so an
        # unknown name can never survive into the pipeline's hot path.
        if isinstance(self.embedder, str):
            EMBEDDERS.validate(self.embedder)
        if isinstance(self.assignment_solver, str):
            ASSIGNMENT_SOLVERS.validate(self.assignment_solver)
        if isinstance(self.fd_algorithm, str):
            FD_ALGORITHMS.validate(self.fd_algorithm)
        ALIGNMENT_STRATEGIES.validate(self.alignment)

    # -- resolution helpers -------------------------------------------------------
    def resolve_embedder(self) -> ValueEmbedder:
        """Return the embedder instance (instantiating registry names)."""
        return EMBEDDERS.resolve(self.embedder, ValueEmbedder)

    def resolve_solver(self) -> AssignmentSolver:
        """Return the assignment solver instance."""
        return ASSIGNMENT_SOLVERS.resolve(self.assignment_solver, AssignmentSolver)

    def resolve_fd_algorithm(self) -> FullDisjunctionAlgorithm:
        """Return the Full Disjunction algorithm instance.

        Algorithms resolved *by name* that expose ``configure_executor``
        (e.g. ``"partitioned"``) are handed this config's executor settings;
        a caller-supplied instance is passed through untouched — its own
        worker configuration wins.
        """
        algorithm = FD_ALGORITHMS.resolve(self.fd_algorithm, FullDisjunctionAlgorithm)
        if isinstance(self.fd_algorithm, str):
            configure = getattr(algorithm, "configure_executor", None)
            if configure is not None:
                configure(self.executor_config())
        return algorithm

    def build_store(self):
        """The configured :class:`~repro.storage.store.ArtifactStore`, or ``None``.

        ``None`` when persistence is disabled — no directory configured, or
        ``store_mode="off"``.  A ``"read"``-mode store over a directory that
        does not exist yet is simply empty (nothing is created on disk).
        """
        if self.store_dir is None or self.store_mode == "off":
            return None
        from repro.storage.store import ArtifactStore

        return ArtifactStore(self.store_dir, self.store_mode)

    # -- derived configurations ---------------------------------------------------
    def replace(self, **overrides: Any) -> "FuzzyFDConfig":
        """A copy of this configuration with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    # -- serialisation ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the configuration.

        Instance-valued knobs are serialised by their registry ``name``
        attribute, so a config built from instances still produces a loadable
        dict (the instance's constructor arguments are not preserved).
        """
        # Not dataclasses.asdict(): that deep-copies the field values, which
        # for an instance-valued embedder would clone (or fail to pickle) the
        # whole model and cache only to be thrown away.
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        for knob in ("embedder", "assignment_solver", "fd_algorithm"):
            if not isinstance(data[knob], str):
                data[knob] = data[knob].name
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzyFDConfig":
        """Build (and validate) a configuration from :meth:`to_dict` output."""
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise ValueError(
                f"unknown configuration keys {unknown}; valid keys: {sorted(field_names)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "FuzzyFDConfig":
        """Load a configuration from a JSON file path or a JSON string.

        A ``Path``, or a string that does not start with ``{``, is treated as
        a file path (a missing file raises ``FileNotFoundError`` rather than
        a confusing JSON parse error); a string starting with ``{`` is parsed
        as JSON text directly.
        """
        text = str(source)
        if isinstance(source, Path) or not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"configuration JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def to_json(self) -> str:
        """The configuration as a JSON string (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- presets ------------------------------------------------------------------
    @classmethod
    def preset(cls, name: str) -> "FuzzyFDConfig":
        """Build one of the named presets (see :data:`PRESETS`).

        >>> FuzzyFDConfig.preset("paper").threshold
        0.7
        """
        return cls.from_dict(dict(PRESETS.get(name)))


#: Named operating points.  ``"paper"`` is the paper's exact configuration;
#: ``"fast"`` trades effectiveness for speed (cheap surface embedder, greedy
#: assignment); ``"scale"`` keeps the paper's models but engages blocking
#: (with the semantic ANN channel on ``"auto"``), the partitioned FD
#: substrate and the parallel execution layer (4 thread workers) for wide
#: data-lake inputs; it also opts into ``store_mode="readwrite"`` so that a
#: caller who supplies ``store_dir`` gets persistent, warm-startable state.
PRESETS: Registry[Dict[str, Any]] = Registry(
    "config preset",
    {
        "paper": {},
        "fast": {
            "embedder": "fasttext",
            "assignment_solver": "greedy",
            "blocking": "auto",
        },
        "scale": {
            "blocking": "auto",
            "semantic_blocking": "auto",
            "fd_algorithm": "partitioned",
            "max_workers": 4,
            "parallel_backend": "thread",
            # Persistence engages once the caller supplies store_dir; the
            # preset only declares the intent to both attach and publish.
            "store_mode": "readwrite",
            # Serving defaults sized for a data-lake deployment: deeper
            # admission queue and one executing request per worker.
            "service_max_pending": 64,
            "service_max_concurrency": 4,
            # A data-lake deployment prefers degraded answers over errors
            # while the embedding backend is down.
            "degraded_mode": "surface",
        },
    },
)


def available_presets() -> List[str]:
    """Names of the registered configuration presets."""
    return PRESETS.names()
