"""The benchmark's own self-test, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and checks that each
run passes its output checks and reports every metric ``BENCHMARK.json``
names, with its unit.  Then it breaks outputs on purpose and checks that the
checks notice: a dropped output row trips the provenance check, and a
changed recorded digest trips the IMDB digest check.  Prints ``selftest ok``
and exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run as bench

#: Parameter overrides that shrink each workload to a few seconds.
#: 600 lake-wide values still exceed the blocking and brute-force cutoffs, so
#: the ANN index is built, saved and loaded as at full size.
TINY = {
    "lake-wide": {
        "values_per_set": 600, "warmup_values": 40, "setup_repeats": 2,
    },
    "imdb-fd": {
        "tuples": 120, "generator_seeds": [1, 2], "warmup_tuples": 60,
        "setup_repeats": 2,
    },
}
SECONDS = 0.1


def tiny_params(spec, name):
    params = copy.deepcopy(spec["workloads"][name]["params"])
    params.update(TINY[name])
    return params


def check_metrics(name, trace, spec, benchmark, failures):
    params = tiny_params(spec, name)
    metrics, run, problems, _ = bench.measure(name, 1, SECONDS, trace, spec, params)
    declared = benchmark["per_layer" if trace else "end_to_end"]
    result = json.loads(json.dumps(bench.build_result(declared, metrics, run, problems)))
    label = f"{name} trace={int(trace)}"
    if not result["correct"]:
        failures.append(f"{label}: output checks failed: {problems[:3]}")
    for metric in declared:
        reported = result["metrics"].get(metric["name"])
        if (
            reported is None
            or reported.get("unit") != metric["unit"]
            or not isinstance(reported.get("value"), float)
        ):
            failures.append(f"{label}: metric {metric['name']} missing or not in {metric['unit']}")
    if set(result["metrics"]) != {metric["name"] for metric in declared}:
        failures.append(f"{label}: reports metrics BENCHMARK.json does not name")
    return result


def check_provenance_trips(failures):
    """Dropping an output row whose tuple ids appear nowhere else must be caught."""
    from checks import provenance_problems
    from repro.core import IntegrationEngine
    from repro.datasets.imdb import ImdbBenchmark
    from repro.table.table import Table

    tables = ImdbBenchmark(seed=3).tables(60)
    with IntegrationEngine("paper") as engine:
        output = engine.integrate([table.with_name(table.name) for table in tables]).table
    if provenance_problems(tables, output):
        failures.append("provenance check fails on an intact output")
        return
    provenance = output.provenance
    for index, tids in enumerate(provenance):
        others = set().union(*(p for other, p in enumerate(provenance) if other != index))
        if tids - others:
            break
    else:
        failures.append("no output row carries a tuple id of its own")
        return
    dropped = Table(
        output.name,
        output.schema,
        output.rows[:index] + output.rows[index + 1 :],
        provenance=provenance[:index] + provenance[index + 1 :],
    )
    if not provenance_problems(tables, dropped):
        failures.append("a dropped output row did not trip the provenance check")


def check_digest_trips(spec, failures):
    """A recorded digest that differs from the output must be reported."""
    params = tiny_params(spec, "imdb-fd")
    recorded = {str(params["tuples"]): {str(seed): "0" * 64 for seed in params["generator_seeds"]}}
    tampered = dict(spec, imdb_digests=recorded)
    _, run, problems, _ = bench.measure("imdb-fd", 1, SECONDS, False, tampered, params)
    tripped = any("digest" in problem for problem in problems)
    if not tripped or all(record.ok for record in run.records):
        failures.append("a wrong recorded digest did not trip the digest check")


def main() -> int:
    bench.load_program()
    spec = json.loads((bench.HERE / "spec.json").read_text(encoding="utf-8"))
    benchmark = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for name in spec["workloads"]:
        for trace in (False, True):
            result = check_metrics(name, trace, spec, benchmark, failures)
            print(f"{name} trace={int(trace)}: correct={result['correct']}, "
                  f"attempted={result['attempted']}")
    check_provenance_trips(failures)
    check_digest_trips(spec, failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
