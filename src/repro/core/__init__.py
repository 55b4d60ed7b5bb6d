"""Fuzzy Full Disjunction — the paper's primary contribution.

The pipeline: align columns, run the *Match Values* component over every set
of aligned columns (embed cell values, bipartite-match value sets column pair
by column pair, fold matches into a combined column and pick representative
values), rewrite every cell with its representative, then apply the ordinary
equi-join Full Disjunction.

Public entry points, from highest to lowest level:

* :func:`~repro.core.pipeline.integrate` — one-call convenience (fuzzy or
  regular integration of a list of tables).
* :class:`~repro.core.engine.IntegrationEngine` — the long-lived engine for
  repeated requests: resolves the embedder, solver and FD algorithm once,
  keeps the embedding cache warm across calls, exposes the pipeline as
  inspectable stages (``align`` → ``match`` → ``integrate``), and accepts
  per-request overrides (``engine.integrate(tables, threshold=0.8)``).
* :class:`~repro.core.fuzzy_fd.FuzzyFullDisjunction` /
  :class:`~repro.core.fuzzy_fd.RegularFullDisjunction` — the one-shot
  operator classes (thin wrappers over a private engine).
* :class:`~repro.core.value_matching.ValueMatcher` — the Match Values
  component, usable standalone, configured by a
  :class:`~repro.core.value_matching.MatchConfig` (the matching knobs,
  each one also a per-request override).
* :class:`~repro.core.config.FuzzyFDConfig` — configuration: every knob
  validated eagerly against its plugin registry, serialisable
  (``to_dict``/``from_dict``/``from_json``), with named presets
  (``FuzzyFDConfig.preset("paper" | "fast" | "scale")``).

Every extension point (embedding models, FD algorithms, assignment solvers,
representative policies, alignment strategies) is a
:class:`repro.registry.Registry`; see the respective modules for the
``@register`` decorators.
"""

from repro.core.config import PRESETS, FuzzyFDConfig, available_presets
from repro.core.representatives import (
    REPRESENTATIVE_POLICIES,
    available_policies,
    select_representative,
)
from repro.core.value_matching import ColumnValues, MatchConfig, ValueMatcher, ValueMatchingResult
from repro.core.engine import (
    AlignmentStage,
    FuzzyIntegrationResult,
    IntegrationEngine,
    MatchStage,
)
from repro.core.fuzzy_fd import FuzzyFullDisjunction, RegularFullDisjunction
from repro.core.pipeline import integrate

__all__ = [
    "FuzzyFDConfig",
    "PRESETS",
    "available_presets",
    "MatchConfig",
    "ValueMatcher",
    "ValueMatchingResult",
    "ColumnValues",
    "IntegrationEngine",
    "AlignmentStage",
    "MatchStage",
    "FuzzyFullDisjunction",
    "RegularFullDisjunction",
    "FuzzyIntegrationResult",
    "integrate",
    "select_representative",
    "available_policies",
    "REPRESENTATIVE_POLICIES",
]
