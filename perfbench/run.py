"""Run one workload of the benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload lake-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is imported from
``src/`` beside this directory; the workloads, their generator parameters and
the recorded IMDB output digests are in ``perfbench/spec.json``, and metric
names and units in ``BENCHMARK.json``.

``--trace 0`` measures with tracing off and prints every end-to-end metric.
``--trace 1`` runs a third as many inputs four times: once to warm the
process up, then untraced, with every layer wrapped, and untraced again.  It
checks that the traced pass gives the same outputs and counters as the
untraced ones, writes the span file and the per-layer ledger under
``.perfbench/trace/`` and prints every per-layer metric.  Either way the last
line of standard output is one JSON object; the exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
#: Busy seconds before measuring: the first run after an idle spell read up
#: to 2x slower set-up and tail latency without it.
SETTLE_SECONDS = 3.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {source / 'repro'} not found; run from a checkout of the repository"
        )
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))


def make_workload(name: str, spec: Dict[str, Any], seed: int, params: Dict[str, Any]):
    import workloads

    if name == "lake-wide":
        return workloads.LakeWide(params, seed, WORK_DIR / "tmp")
    if name == "imdb-fd":
        return workloads.ImdbFd(params, seed, WORK_DIR / "tmp", spec.get("imdb_digests", {}))
    raise SystemExit(
        f"perfbench: unknown workload {name!r}; choose from {sorted(spec['workloads'])}"
    )


# ---------------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------------


def end_to_end(run, setups: List[float]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run."""
    from checks import f1_score
    from workloads import median, quantile

    ok = [record for record in run.records if record.ok]
    latencies = [record.latency for record in ok]
    true_positives = sum(record.pairs[0] for record in ok)
    predicted = sum(record.pairs[1] for record in ok)
    gold = sum(record.pairs[2] for record in ok)
    wall = run.timed_seconds
    return {
        "setup_s": median(setups),
        "latency_p50_s": median(latencies),
        "latency_p99_s": quantile(latencies, 0.99),
        "latency_cold_p50_s": median([r.latency for r in ok if r.phase == "cold"]),
        "latency_warm_p50_s": median([r.latency for r in ok if r.phase == "warm"]),
        "restart_s": median(run.restart_seconds),
        "rows_per_s": sum(record.rows for record in ok) / wall if wall else 0.0,
        "goodput_rps": len(ok) / wall if wall else 0.0,
        "ok_frac": len(ok) / len(run.records) if run.records else 0.0,
        "match_f1": f1_score(true_positives, predicted, gold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def properties(run) -> Dict[str, float]:
    """The input properties a workload was chosen for, as measured."""
    from workloads import cache_hit_ratio

    totals: Dict[str, float] = {}
    for record in run.records:
        for key, value in record.counters.items():
            totals[key] = totals.get(key, 0.0) + value
    blocked_cells = totals.get("match.blocking_pairs_scored", 0.0) + totals.get(
        "match.blocking_pairs_avoided", 0.0
    )
    largest = totals.get("match.blocking_largest_component", 0.0)
    added = totals.get("match.blocking_ann_pairs_added", 0.0)
    duplicate = totals.get("match.blocking_ann_pairs_duplicate", 0.0)
    requests = max(1, len(run.records))
    return {
        "cache_hit_share": cache_hit_ratio(run.cache),
        "largest_component_share_of_cells": largest / blocked_cells if blocked_cells else 0.0,
        "ann_pairs_added_per_request": added / requests,
        "ann_added_share_of_ann_pairs": added / (added + duplicate) if added + duplicate else 0.0,
    }


def per_layer(run, untraced, tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced run (per timed request unless stated).

    ``untraced`` are the passes over the same inputs that trace.overhead
    compares the traced pass with.
    """
    from tracing import SpanIndex
    from workloads import cache_hit_ratio, quantile

    records = run.records
    requests = max(1, len(records))
    index = SpanIndex(tracer.spans, [record.request_id for record in records])

    def total(key: str) -> float:
        return sum(record.counters.get(key, 0.0) for record in records)

    def per_request(value: float) -> float:
        return value / requests

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    served = [r for r in records if r.trace is not None]
    integrate_seconds = {span.request_id: span.seconds for span in index.named("engine.integrate")}
    service_self = [
        r.trace.total_seconds
        - r.trace.queue_wait_seconds
        - integrate_seconds.get(r.request_id, 0.0)
        for r in served
    ]
    store_hits = run.cache.get("store_hits", 0.0)
    blocking = "matching.blocking.candidate_pairs"
    solve = "matching.assignment.solve"
    match_columns = "core.value_matching.match_columns"
    partitioned = "utils.executor.run_partitioned"
    ann = "matching.ann.candidate_pairs"
    queue_waits = [record.trace.queue_wait_seconds for record in served]
    added = total("match.blocking_ann_pairs_added")
    duplicate = total("match.blocking_ann_pairs_duplicate")
    comparisons = total("fd.complementation_comparisons")
    merges = total("fd.complementation_merges")
    traced_wall = sum(record.latency for record in records)
    untraced_wall = statistics.mean(
        sum(record.latency for record in other.records) for other in untraced
    )
    return {
        "service.queue_wait_p50_s": quantile(queue_waits, 0.50),
        "service.queue_wait_p99_s": quantile(queue_waits, 0.99),
        "service.self_s": sum(service_self) / len(service_self) if service_self else 0.0,
        "service.rejected": float(run.rejected),
        "schema_matching.align_s": per_request(index.seconds("schema_matching.align")),
        "embeddings.embed_many_s": per_request(index.seconds("embeddings.embed_many")),
        "embeddings.values_embedded": per_request(run.cache.get("misses", 0.0)),
        "embeddings.cache_hit_ratio": cache_hit_ratio(run.cache),
        "storage.publish_s": per_request(index.seconds("storage.publish")),
        "storage.published_rows": per_request(sum(r.published_rows for r in records)),
        "storage.store_hit_ratio": ratio(store_hits, store_hits + run.cache.get("misses", 0.0)),
        "storage.ann_index_loads": per_request(total("match.ann_index_loads")),
        "storage.ann_index_builds": per_request(total("match.ann_index_builds")),
        "matching.blocking.candidate_pairs_s": per_request(index.seconds(blocking)),
        "matching.blocking.candidate_pairs": per_request(index.count(blocking, "pairs")),
        "matching.blocking.components": per_request(total("match.blocking_components")),
        "matching.blocking.largest_component_cells": max(
            (r.counters.get("match.blocking_largest_component", 0.0) for r in records),
            default=0.0,
        ),
        "matching.blocking.pairs_scored": per_request(total("match.blocking_pairs_scored")),
        "matching.blocking.useful_ratio": ratio(
            total("match.blocked_accepted"), total("match.blocking_pairs_scored")
        ),
        "matching.ann.candidate_pairs_s": per_request(index.seconds(ann)),
        "matching.ann.pairs_added": per_request(added),
        "matching.ann.pairs_duplicate": per_request(duplicate),
        "matching.ann.useful_ratio": ratio(added, added + duplicate),
        "matching.assignment.solve_s": per_request(index.seconds(solve)),
        "matching.assignment.calls": per_request(float(len(index.named(solve)))),
        "matching.assignment.cells": per_request(index.count(solve, "cells")),
        "core.value_matching.match_columns_s": per_request(index.seconds(match_columns)),
        "core.value_matching.self_s": per_request(index.self_seconds(match_columns)),
        "fd.integrate_s": per_request(index.seconds("fd.integrate")),
        "fd.remove_subsumed_s": per_request(index.seconds("fd.remove_subsumed")),
        "fd.complementation_comparisons": per_request(comparisons),
        "fd.complementation_merges": per_request(merges),
        "fd.merge_ratio": ratio(merges, comparisons),
        "fd.output_rows": per_request(total("fd.output_rows")),
        "utils.executor.run_partitioned_s": per_request(index.seconds(partitioned)),
        "utils.executor.batches": per_request(index.count(partitioned, "batches")),
        "trace.coverage": index.coverage("engine.integrate"),
        "trace.overhead": ratio(traced_wall - untraced_wall, untraced_wall),
    }


def same_outputs(untraced, traced) -> List[str]:
    """The traced replay must reproduce the untraced outputs and counters."""
    if len(untraced.records) != len(traced.records):
        return [
            f"traced run served {len(traced.records)} requests, "
            f"untraced {len(untraced.records)}"
        ]

    def outcome(record):
        return record.key, record.phase, record.ok, record.digest, record.counters, record.pairs

    problems = [
        f"request {before.request_id} ({before.key}, {before.phase}): "
        "traced output or counters differ"
        for before, after in zip(untraced.records, traced.records)
        if outcome(before) != outcome(after)
    ]
    if untraced.cache != traced.cache:
        problems.append(f"embedding cache counters differ: {untraced.cache} vs {traced.cache}")
    return problems


# ---------------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------------


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spec: Dict[str, Any],
    params: Optional[Dict[str, Any]] = None,
):
    """One run: ``(metrics, run, problems, notes)``; ``params`` replaces the spec's."""
    from tracing import Instrumentation, Tracer
    from workloads import SET_SECONDS

    params = params if params is not None else spec["workloads"][name]["params"]
    workload = make_workload(name, spec, seed, params)
    if not trace:
        setups = workload.setup_seconds(params["setup_repeats"])
        run = workload.run(seconds)
        metrics = end_to_end(run, setups)
        notes = {
            "requests": len(run.records),
            "latency_samples": sum(1 for record in run.records if record.ok),
            "inputs": run.size,
            "setup_samples": setups,
            "properties": properties(run),
        }
        return metrics, run, list(run.problems), notes

    # Four passes over the same inputs share the run's time.  The first pass
    # in a process runs up to 1.8x slower on lake-wide (a fresh heap faults in
    # its large arrays anew), so it is discarded.  Untraced passes run before
    # and after the traced one, so a host whose speed drifts over the run
    # shifts both sides of trace.overhead alike.
    inputs = max(1, int(seconds / 3 // SET_SECONDS))
    warm = workload.run(seconds, inputs=inputs)
    before = workload.run(seconds, inputs=inputs)
    tracer = Tracer()
    with Instrumentation(tracer):
        traced = workload.run(seconds, tracer=tracer, inputs=inputs)
    after = workload.run(seconds, inputs=inputs)
    problems = warm.problems + before.problems + traced.problems + after.problems
    problems += same_outputs(before, traced) + same_outputs(after, traced)
    metrics = per_layer(traced, [before, after], tracer)
    out = WORK_DIR / "trace"
    tracer.write(out / f"{name}-seed{seed}.spans.jsonl")
    ledger_path = out / f"{name}-seed{seed}.ledger.json"
    ledger = {"workload": name, "seed": seed, "requests": len(traced.records), "metrics": metrics}
    ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True), encoding="utf-8")
    notes = {
        "requests": len(traced.records),
        "spans": len(tracer.spans),
        "ledger": str(ledger_path),
    }
    return metrics, traced, problems, notes


def settle_cpu(seconds: float) -> None:
    """Busy-wait so a host that slows an idle machine is at speed before timing."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def build_result(
    declared: List[Dict[str, Any]], metrics: Dict[str, float], run, problems: List[str]
) -> Dict[str, Any]:
    """The result line: outcome counts plus every declared metric with its unit."""
    return {
        "correct": not problems,
        "attempted": max(1, len(run.records)),
        "failed": sum(1 for record in run.records if not record.ok),
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    load_program()
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    settle_cpu(SETTLE_SECONDS)
    metrics, run, problems, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), spec
    )
    for problem in problems[:20]:
        print(f"[perfbench] check failed: {problem}", file=sys.stderr)
    print(f"[perfbench] {args.workload} seed {args.seed}: {json.dumps(notes, sort_keys=True)}")
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    result = build_result(declared, metrics, run, problems)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
