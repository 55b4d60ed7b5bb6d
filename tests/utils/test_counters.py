"""Request-scoped counters: nesting, peak names, and no-ops outside a scope."""

from __future__ import annotations

import threading

import pytest

from repro.utils.counters import PEAK_COUNTERS, add_counts, count, counter_scope


class TestCounterScope:
    def test_count_outside_a_scope_does_nothing(self):
        count("cache_hits", 5)
        with counter_scope() as totals:
            pass
        assert totals == {}

    def test_nested_scope_adds_into_the_enclosing_one_on_exit(self):
        with counter_scope() as outer:
            count("cache_hits", 2)
            with counter_scope() as inner:
                count("cache_hits", 3)
                count("cache_misses")
                assert outer == {"cache_hits": 2.0}
            assert inner == {"cache_hits": 3.0, "cache_misses": 1.0}
            assert outer == {"cache_hits": 5.0, "cache_misses": 1.0}

    def test_peak_names_combine_by_max(self):
        assert {"blocking_largest_component", "degraded"} <= PEAK_COUNTERS
        with counter_scope() as outer:
            for cells in (6, 2):
                with counter_scope():
                    count("blocking_largest_component", cells)
                    count("blocking_pairs_scored", cells)
        assert outer == {"blocking_largest_component": 6.0, "blocking_pairs_scored": 8.0}

    def test_named_counters_start_at_zero_and_propagate(self):
        with counter_scope() as outer:
            with counter_scope(["cache_misses"]) as inner:
                pass
        assert inner == {"cache_misses": 0.0}
        assert outer == {"cache_misses": 0.0}

    def test_a_failing_scope_still_adds_its_counts(self):
        with counter_scope() as outer:
            with pytest.raises(RuntimeError):
                with counter_scope():
                    count("embedder_retries")
                    raise RuntimeError("embedder down")
            count("embedder_retries")
        assert outer == {"embedder_retries": 2.0}

    def test_writes_after_exit_stay_in_the_closed_scope(self):
        with counter_scope() as outer:
            with counter_scope() as inner:
                count("cache_hits")
            inner["columns"] = 2.0
        assert outer == {"cache_hits": 1.0}

    def test_another_thread_does_not_count_into_the_scope(self):
        with counter_scope() as totals:
            worker = threading.Thread(target=count, args=("cache_hits",))
            worker.start()
            worker.join()
        assert totals == {}

    def test_add_counts_follows_the_same_rule(self):
        totals = {"degraded": 1.0, "cache_hits": 1.0}
        add_counts(totals, {"degraded": 0.0, "cache_hits": 2.0})
        assert totals == {"degraded": 1.0, "cache_hits": 3.0}
