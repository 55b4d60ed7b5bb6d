"""Experiment ``table1`` — Table 1 of the paper.

Value-matching effectiveness (precision / recall / F1) of the five embedding
models (FastText, BERT, RoBERTa, Llama3, Mistral) over the Auto-Join-style
benchmark, with the paper's matching threshold θ = 0.7, macro-averaged over
the integration sets.

Run with ``pytest benchmarks/bench_table1_value_matching.py --benchmark-only -s``
or directly with ``python benchmarks/bench_table1_value_matching.py``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.value_matching import MatchConfig, ValueMatcher
from repro.datasets import AutoJoinBenchmark
from repro.embeddings.registry import TABLE1_MODELS, get_embedder
from repro.evaluation import MatchingScores, format_scores_table, macro_average, score_integration_set

#: The numbers reported in the paper's Table 1 (Precision, Recall, F1).
PAPER_TABLE1: Dict[str, Tuple[float, float, float]] = {
    "fasttext": (0.70, 0.67, 0.66),
    "bert": (0.72, 0.76, 0.73),
    "roberta": (0.73, 0.77, 0.74),
    "llama3": (0.81, 0.85, 0.81),
    "mistral": (0.81, 0.86, 0.82),
}


def run_table1(
    n_sets: int = 31,
    values_per_column: int = 100,
    threshold: float = 0.7,
    models: Sequence[str] = tuple(TABLE1_MODELS),
    seed: int = 42,
) -> Dict[str, MatchingScores]:
    """Compute Table 1: macro-averaged value-matching scores per embedding model."""
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


def report(scores: Dict[str, MatchingScores]) -> str:
    """Render the measured table next to the paper's numbers."""
    lines = ["", "Table 1 — Value matching effectiveness (Auto-Join benchmark)", ""]
    lines.append(format_scores_table(scores))
    lines.append("")
    lines.append("Paper reference:")
    for model, (precision, recall, f1) in PAPER_TABLE1.items():
        lines.append(f"  {model:9s} P={precision:.2f} R={recall:.2f} F1={f1:.2f}")
    return "\n".join(lines)


def test_table1_value_matching(benchmark, paper_scale):
    """pytest-benchmark entry point for Table 1."""
    values_per_column = 150 if paper_scale else 100
    scores = benchmark.pedantic(
        run_table1,
        kwargs={"values_per_column": values_per_column},
        rounds=1,
        iterations=1,
    )
    print(report(scores))
    f1_by_model = {model: score.f1 for model, score in scores.items()}
    # The paper's headline ordering: LLM embeddings beat PLM embeddings beat
    # FastText, and Mistral is the best model overall.
    assert f1_by_model["mistral"] >= f1_by_model["llama3"]
    assert f1_by_model["llama3"] > f1_by_model["roberta"]
    assert f1_by_model["roberta"] >= f1_by_model["bert"]
    assert f1_by_model["bert"] > f1_by_model["fasttext"]


if __name__ == "__main__":
    print(report(run_table1()))
