"""Chaos suite: the process executor survives worker death.

A worker killed mid-batch (``os._exit`` — what a segfault or OOM-kill looks
like to the pool) breaks the whole ``ProcessPoolExecutor``.
``run_partitioned`` must not hang or lose work: the pool is rebuilt once
and only the failed batches re-run; a second breakage degrades to a serial
in-process finish.  Either way the merged result is byte-identical to the
serial backend.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.testing import crash_once
from repro.utils import executor as executor_module
from repro.utils.executor import ExecutorConfig, executor_statistics, run_partitioned

ITEMS = list(range(24))
EXPECTED = [float(item) * float(item) for item in ITEMS]

PROCESS_CONFIG = ExecutorConfig(
    backend="process", max_workers=2, batch_size=2, min_parallel_items=1
)


class TestWorkerDeath:
    def test_crashed_worker_never_changes_results(self, tmp_path):
        marker = tmp_path / "crash-marker"
        task = partial(crash_once, marker=str(marker))
        before = executor_statistics()
        results = run_partitioned(ITEMS, task, PROCESS_CONFIG)
        after = executor_statistics()
        assert results == EXPECTED
        assert marker.exists()  # the crash genuinely happened
        assert after["pool_rebuilds"] == before["pool_rebuilds"] + 1
        assert after["batches_retried"] > before["batches_retried"]

    def test_pool_is_healthy_again_after_recovery(self, tmp_path):
        marker = tmp_path / "crash-marker"
        run_partitioned(ITEMS, partial(crash_once, marker=str(marker)), PROCESS_CONFIG)
        before = executor_statistics()
        # The rebuilt pool serves subsequent runs without further recovery.
        results = run_partitioned(
            ITEMS, partial(crash_once, marker=str(marker)), PROCESS_CONFIG
        )
        assert results == EXPECTED
        assert executor_statistics() == before

    def test_broken_pool_leaves_no_worker_behind(self, tmp_path):
        # Interpreter exit joins a broken pool's manager thread, which joins
        # every worker of that pool: a worker left alive would hang the exit.
        pool = executor_module._process_pool(PROCESS_CONFIG.max_workers)
        workers = list(pool._processes.values())
        # Started with the pool, so no submission ever spawns one mid-teardown.
        assert len(workers) == PROCESS_CONFIG.max_workers
        marker = tmp_path / "crash-marker"
        run_partitioned(ITEMS, partial(crash_once, marker=str(marker)), PROCESS_CONFIG)
        assert executor_module._process_pool(PROCESS_CONFIG.max_workers) is not pool
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()


class _DeadPool:
    """A pool whose submissions always fail — a pool broken beyond rebuild."""

    def submit(self, *args, **kwargs):
        raise RuntimeError("cannot schedule new futures after shutdown")

    def shutdown(self, *args, **kwargs):
        pass


class TestSerialFallback:
    def test_two_broken_pools_fall_back_to_in_process_execution(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_process_pool", lambda workers: _DeadPool())
        before = executor_statistics()
        results = run_partitioned(ITEMS, _square, PROCESS_CONFIG)
        after = executor_statistics()
        assert results == [item * item for item in ITEMS]
        assert after["serial_fallbacks"] == before["serial_fallbacks"] + 1


def _square(value: int) -> int:
    """Module-level so the (never-reached) process path could pickle it."""
    return value * value
