"""Refresh the recorded parts of ``perfbench/spec.json``.

    python3 perfbench/record.py --digests       # IMDB output digest per generator seed
    python3 perfbench/record.py --environment   # CPU count, versions, machine noise
    python3 perfbench/record.py --properties    # measured input properties per workload

``--digests`` integrates each IMDB generator seed of the ``imdb-fd`` pool on
that workload's configuration and records the output digest the workload
checks every request against.  Re-record only when a change is meant to
alter Full Disjunction output, and say so in the change.  ``--environment``
times a fixed pure-Python loop six times to record how noisy the machine
is.  ``--properties`` runs each workload once untraced (seed 0) and records
the shares it was chosen for: cache hits, the largest blocking component's
share of cells, and ANN engagement.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import run as bench


def record_digests(spec):
    from checks import table_digest
    from repro.core import IntegrationEngine
    from repro.datasets.imdb import ImdbBenchmark
    from workloads import ImdbFd

    params = spec["workloads"]["imdb-fd"]["params"]
    config = ImdbFd(params, 0, bench.WORK_DIR / "tmp", {}).config(None, None)
    digests = {}
    with IntegrationEngine(config) as engine:
        for generator_seed in params["generator_seeds"]:
            tables = ImdbBenchmark(seed=generator_seed).tables(params["tuples"])
            digests[str(generator_seed)] = table_digest(engine.integrate(tables).table)
            print(f"imdb seed {generator_seed}: {digests[str(generator_seed)]}")
    spec.setdefault("imdb_digests", {})[str(params["tuples"])] = digests


def noise_loop() -> float:
    """Seconds a fixed pure-Python loop takes."""
    start = time.perf_counter()
    total = 0
    for index in range(30_000_000):
        total += index % 7
    return time.perf_counter() - start


def record_environment(spec):
    import numpy
    import scipy

    from workloads import NPROC

    samples = [noise_loop() for _ in range(6)]
    spec["environment"] = {
        "cpu_count": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "noise": {
            "loop": "for index in range(30_000_000): total += index % 7",
            "runs": len(samples),
            "min_s": round(min(samples), 3),
            "max_s": round(max(samples), 3),
        },
    }
    print(json.dumps(spec["environment"], indent=2))


def record_properties(spec):
    benchmark = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in spec["workloads"]:
        _, run, problems, notes = bench.measure(name, 0, benchmark["run_seconds"], False, spec)
        if problems:
            raise SystemExit(f"{name}: checks failed while recording: {problems[:3]}")
        spec["workloads"][name]["measured"] = {
            key: round(value, 4) for key, value in notes["properties"].items()
        }
        spec["workloads"][name]["measured"]["requests_per_run"] = len(run.records)
        print(name, json.dumps(spec["workloads"][name]["measured"]))


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--digests", action="store_true")
    parser.add_argument("--environment", action="store_true")
    parser.add_argument("--properties", action="store_true")
    args = parser.parse_args(argv)
    bench.load_program()
    path = bench.HERE / "spec.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    if args.digests:
        record_digests(spec)
    if args.environment:
        record_environment(spec)
    if args.properties:
        record_properties(spec)
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
