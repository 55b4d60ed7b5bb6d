"""Ablation ``abl-blocking`` — blocked vs exhaustive value matching.

The paper's Match Values component scores every value pair of a column pair
(quadratic in the number of distinct values).  The library additionally ships
a blocked matcher (:mod:`repro.matching.blocking`) that only scores candidate
pairs sharing a cheap surface or lexicon key.  This ablation measures, on the
Auto-Join benchmark, how much pairwise work blocking saves and how much
effectiveness it costs; the *scale* section additionally compares the legacy
single-matrix prohibitive-cost solve against the component-wise engine on a
wide synthetic column pair (dense-vs-component speedup and peak candidate
matrix size).

Run with ``pytest benchmarks/bench_ablation_blocking.py --benchmark-only -s``
or ``python benchmarks/bench_ablation_blocking.py`` (``--smoke`` for a small,
CI-friendly run).
"""

from __future__ import annotations

import random
import string
import time
from typing import Dict, List, Tuple

from repro.core.value_matching import MatchConfig, ValueMatcher
from repro.datasets import AutoJoinBenchmark
from repro.embeddings import MistralEmbedder
from repro.evaluation import format_markdown_table, macro_average, score_integration_set
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker
from repro.matching.clustering import ValueMatchSet


def _match_with_blocking(matcher: BlockedValueMatcher, integration_set) -> list:
    """Run pairwise blocked matching over an integration set's columns.

    The combined-column procedure of the paper is sequential; for the ablation
    we fold pairwise matches with a union-find, which yields the same disjoint
    sets for two-column sets and a close approximation for three-column sets.
    """
    from repro.matching.clustering import MatchSetBuilder

    columns = integration_set.column_values()
    builder = MatchSetBuilder()
    for column in columns:
        builder.add_column(column.column_id, column.values)
    candidate_pairs = 0
    full_pairs = 0
    for index in range(len(columns) - 1):
        left, right = columns[index], columns[index + 1]
        matches = matcher.match_exact_first(left.values, right.values)
        builder.add_matches(left.column_id, right.column_id, matches)
        if matcher.last_statistics is not None:
            candidate_pairs += matcher.last_statistics.candidate_pairs
            full_pairs += matcher.last_statistics.full_matrix_pairs
    return builder.sets(), candidate_pairs, full_pairs


def run_blocking_ablation(
    n_sets: int = 12,
    values_per_column: int = 80,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Compare exhaustive and blocked value matching (effectiveness and work)."""
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    embedder = MistralEmbedder()
    results: Dict[str, Dict[str, float]] = {}

    # Exhaustive (the paper's matcher).
    exhaustive = ValueMatcher(embedder, MatchConfig(threshold=0.7))
    start = time.perf_counter()
    per_set = [
        score_integration_set(exhaustive.match_columns(s.column_values()), s.gold_sets)
        for s in integration_sets
    ]
    elapsed = time.perf_counter() - start
    average = macro_average(per_set)
    results["exhaustive"] = {
        "precision": average.precision,
        "recall": average.recall,
        "f1": average.f1,
        "seconds": elapsed,
        "scored_pair_fraction": 1.0,
    }

    # Blocked.
    blocked = BlockedValueMatcher(embedder, threshold=0.7)
    start = time.perf_counter()
    per_set = []
    scored = 0
    total = 0
    for integration_set in integration_sets:
        sets, candidate_pairs, full_pairs = _match_with_blocking(blocked, integration_set)
        scored += candidate_pairs
        total += full_pairs
        per_set.append(score_integration_set(sets, integration_set.gold_sets))
    elapsed = time.perf_counter() - start
    average = macro_average(per_set)
    results["blocked"] = {
        "precision": average.precision,
        "recall": average.recall,
        "f1": average.f1,
        "seconds": elapsed,
        "scored_pair_fraction": (scored / total) if total else 1.0,
    }
    return results


def synthetic_scale_pair(n_values: int, seed: int = 7) -> Tuple[List[str], List[str]]:
    """A wide distinct-value column pair whose blocked graph stays sparse.

    Each left value is a random 12-character alphanumeric string; its right
    counterpart carries a single-character typo in the second half, so the
    pair always shares its 4-character token prefix (guaranteed candidates)
    while unrelated values almost never collide on a 5-gram.  The result is
    thousands of tiny connected components — the data-lake regime the
    component-wise engine targets.
    """
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase + string.digits
    left: List[str] = []
    right: List[str] = []
    seen = set()
    while len(left) < n_values:
        value = "".join(rng.choice(alphabet) for _ in range(12))
        if value in seen:
            continue
        seen.add(value)
        position = rng.randrange(6, 12)
        typo = alphabet[(alphabet.index(value[position]) + 1) % len(alphabet)]
        left.append(value)
        right.append(value[:position] + typo + value[position + 1 :])
    return left, right


def run_component_scale_benchmark(
    n_values: int = 5000, seed: int = 7, threshold: float = 0.7
) -> Dict[str, float]:
    """Dense-vs-component comparison on one wide synthetic column pair.

    Both paths see the same blocked candidate set and a pre-warmed embedding
    cache, so the measurement isolates the matching machinery: the legacy
    path allocates one ``left_used × right_used`` prohibitive-cost matrix and
    scores candidates pair by pair; the component engine solves one small
    assignment per connected component with batched scoring.
    """
    left, right = synthetic_scale_pair(n_values, seed=seed)
    embedder = MistralEmbedder()
    blocker = ValueBlocker(ngram_size=5, use_lexicon=False)
    matcher = BlockedValueMatcher(embedder, threshold=threshold, blocker=blocker)
    embedder.embed_many(left)
    embedder.embed_many(right)

    start = time.perf_counter()
    dense_matches = matcher.match_dense(left, right)
    dense_seconds = time.perf_counter() - start
    dense_stats = matcher.last_statistics

    start = time.perf_counter()
    component_matches = matcher.match(left, right)
    component_seconds = time.perf_counter() - start
    component_stats = matcher.last_statistics

    return {
        "n_values": float(n_values),
        "dense_seconds": dense_seconds,
        "component_seconds": component_seconds,
        "speedup": dense_seconds / component_seconds if component_seconds else float("inf"),
        "dense_peak_matrix": float(dense_stats.largest_component),
        "component_peak_matrix": float(component_stats.largest_component),
        "components": float(component_stats.components),
        "candidate_pairs": float(component_stats.candidate_pairs),
        "pairs_avoided": float(component_stats.pairs_avoided),
        "identical_matches": float(
            {match.as_tuple() for match in dense_matches}
            == {match.as_tuple() for match in component_matches}
        ),
        "accepted_matches": float(len(component_matches)),
    }


def report(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        [
            name,
            f"{s['precision']:.3f}",
            f"{s['recall']:.3f}",
            f"{s['f1']:.3f}",
            f"{s['seconds']:.2f}",
            f"{100 * s['scored_pair_fraction']:.1f}%",
        ]
        for name, s in results.items()
    ]
    return "\n".join(
        [
            "",
            "Ablation — blocked vs exhaustive value matching (Mistral, Auto-Join benchmark)",
            "",
            format_markdown_table(
                ["Matcher", "Precision", "Recall", "F1", "Seconds", "Scored pairs"], rows
            ),
        ]
    )


def scale_report(scale: Dict[str, float]) -> str:
    rows = [
        [
            "dense (legacy)",
            f"{scale['dense_seconds']:.2f}",
            f"{scale['dense_peak_matrix']:,.0f}",
            "1",
        ],
        [
            "component-wise",
            f"{scale['component_seconds']:.2f}",
            f"{scale['component_peak_matrix']:,.0f}",
            f"{scale['components']:,.0f}",
        ],
    ]
    return "\n".join(
        [
            "",
            (
                f"Scale — dense vs component-wise blocked matching "
                f"({scale['n_values']:,.0f} × {scale['n_values']:,.0f} distinct values, "
                f"{scale['candidate_pairs']:,.0f} candidate pairs)"
            ),
            "",
            format_markdown_table(
                ["Engine", "Seconds", "Peak matrix cells", "Components"], rows
            ),
            "",
            (
                f"speedup: {scale['speedup']:.1f}x · "
                f"pairs avoided: {scale['pairs_avoided']:,.0f} · "
                f"identical accepted matches: {bool(scale['identical_matches'])}"
            ),
        ]
    )


def test_blocking_ablation(benchmark):
    results = benchmark.pedantic(run_blocking_ablation, rounds=1, iterations=1)
    print(report(results))
    # Blocking must dramatically cut the scored pairs while staying close in F1.
    assert results["blocked"]["scored_pair_fraction"] < 0.7
    assert results["blocked"]["f1"] >= results["exhaustive"]["f1"] - 0.1


def test_component_engine_scale(benchmark):
    scale = benchmark.pedantic(
        run_component_scale_benchmark, kwargs={"n_values": 5000}, rounds=1, iterations=1
    )
    print(scale_report(scale))
    assert scale["identical_matches"] == 1.0
    assert scale["component_peak_matrix"] < scale["dense_peak_matrix"]
    assert scale["speedup"] >= 5.0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, CI-friendly run (fewer sets, narrower scale pair)",
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        print(report(run_blocking_ablation(n_sets=4, values_per_column=40)))
        print(scale_report(run_component_scale_benchmark(n_values=400)))
    else:
        print(report(run_blocking_ablation()))
        print(scale_report(run_component_scale_benchmark()))
