"""Programmatic experiment runners.

The benchmark harnesses under ``benchmarks/`` and the ``repro benchmark`` CLI
subcommand both need to run the paper's experiments; this module holds the
shared logic so the experiments can also be reproduced from a notebook or any
other Python program:

* :func:`run_table1_experiment` — Table 1 (value-matching effectiveness per
  embedding model over the Auto-Join benchmark);
* :func:`run_downstream_em_experiment` — Sec. 3.2 (entity matching over the
  integrated tables, regular vs fuzzy FD);
* :func:`run_figure3_experiment` — Figure 3 (runtime sweep over the IMDB
  benchmark).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core import FuzzyFDConfig, integrate
from repro.core.value_matching import MatchConfig, ValueMatcher
from repro.datasets import AliteEmBenchmark, AutoJoinBenchmark, ImdbBenchmark
from repro.em import EntityMatchingPipeline
from repro.em.metrics import EntityMatchingScores
from repro.embeddings.registry import TABLE1_MODELS, get_embedder
from repro.evaluation.metrics import MatchingScores, macro_average, score_integration_set
from repro.evaluation.runtime import RuntimePoint, runtime_sweep


def run_table1_experiment(
    n_sets: int = 31,
    values_per_column: int = 100,
    threshold: float = 0.7,
    models: Sequence[str] = tuple(TABLE1_MODELS),
    seed: int = 42,
) -> Dict[str, MatchingScores]:
    """Macro-averaged value-matching P/R/F1 per embedding model (Table 1)."""
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    scores: Dict[str, MatchingScores] = {}
    for model in models:
        matcher = ValueMatcher(get_embedder(model), MatchConfig(threshold=threshold))
        per_set = [
            score_integration_set(matcher.match_columns(s.column_values()), s.gold_sets)
            for s in integration_sets
        ]
        scores[model] = macro_average(per_set)
    return scores


def run_downstream_em_experiment(
    n_sets: int = 4,
    entities_per_set: int = 50,
    match_threshold: float = 0.65,
    seed: int = 7,
) -> Dict[str, EntityMatchingScores]:
    """Entity-matching P/R/F1 over regular-FD and Fuzzy-FD integration (Sec. 3.2)."""
    integration_sets = AliteEmBenchmark(
        n_sets=n_sets, entities_per_set=entities_per_set, seed=seed
    ).generate()
    pipeline = EntityMatchingPipeline(match_threshold=match_threshold)
    per_method: Dict[str, List[EntityMatchingScores]] = {"regular_fd": [], "fuzzy_fd": []}
    for integration_set in integration_sets:
        for method, fuzzy in (("regular_fd", False), ("fuzzy_fd", True)):
            integrated = integrate(integration_set.tables, fuzzy=fuzzy)
            result = pipeline.run(integrated.table, gold_clusters=integration_set.gold_clusters)
            per_method[method].append(result.scores)
    averaged: Dict[str, EntityMatchingScores] = {}
    for method, scores in per_method.items():
        count = len(scores)
        averaged[method] = EntityMatchingScores(
            precision=sum(score.precision for score in scores) / count,
            recall=sum(score.recall for score in scores) / count,
            f1=sum(score.f1 for score in scores) / count,
            true_positives=sum(score.true_positives for score in scores),
            false_positives=sum(score.false_positives for score in scores),
            false_negatives=sum(score.false_negatives for score in scores),
        )
    return averaged


def run_figure3_experiment(
    sizes: Sequence[int] = (500, 1000, 1500, 2000),
    seed: int = 13,
) -> List[RuntimePoint]:
    """Runtime of regular FD vs Fuzzy FD over IMDB samples (Figure 3)."""
    benchmark = ImdbBenchmark(seed=seed)
    return runtime_sweep(benchmark.tables, sizes=list(sizes), config=FuzzyFDConfig())
