"""Fuzzy value matching on the Auto-Join-style benchmark (Table 1 workload).

Generates a few Auto-Join integration sets, runs the Match Values component
with each of the paper's embedding models, and prints per-model
precision/recall/F1 plus a few concrete matches so the behaviour differences
between surface-only (FastText) and semantic (Mistral) matching are visible.

Run with::

    python examples/autojoin_value_matching.py
"""

from __future__ import annotations

from repro.core.value_matching import MatchConfig, ValueMatcher
from repro.datasets import AutoJoinBenchmark
from repro.embeddings.registry import TABLE1_MODELS, get_embedder
from repro.evaluation import format_scores_table, macro_average, score_integration_set


def main(n_sets: int = 10, values_per_column: int = 60) -> None:
    benchmark = AutoJoinBenchmark(n_sets=n_sets, values_per_column=values_per_column, seed=42)
    integration_sets = benchmark.generate()
    print(f"Generated {len(integration_sets)} integration sets "
          f"({sum(s.total_values for s in integration_sets)} values in total)\n")
    for integration_set in integration_sets[:5]:
        print(f"  {integration_set.name:38s} topic={integration_set.topic:22s} "
              f"profile={integration_set.profile}")

    scores = {}
    for model in TABLE1_MODELS:
        matcher = ValueMatcher(get_embedder(model), MatchConfig(threshold=0.7))
        per_set = [
            score_integration_set(matcher.match_columns(s.column_values()), s.gold_sets)
            for s in integration_sets
        ]
        scores[model] = macro_average(per_set)

    print("\nValue matching effectiveness (macro-averaged):\n")
    print(format_scores_table(scores))

    # Show a few concrete decisions of the best model on one abbreviation set.
    semantic_sets = [s for s in integration_sets if s.profile in ("abbreviations", "synonyms")]
    if semantic_sets:
        example = semantic_sets[0]
        matcher = ValueMatcher(get_embedder("mistral"), MatchConfig(threshold=0.7))
        result = matcher.match_columns(example.column_values())
        print(f"\nExample matches of Mistral on {example.name} ({example.topic}):")
        shown = 0
        for match_set in result.sets:
            if len(match_set) >= 2 and len(set(match_set.values())) > 1:
                members = ", ".join(repr(value) for value in match_set.values())
                print(f"  {{{members}}} -> {match_set.representative!r}")
                shown += 1
            if shown >= 8:
                break


if __name__ == "__main__":
    main()
