"""Property-based invariants of the end-to-end pipeline.

These tests generate small random inputs with hypothesis and check structural
invariants that must hold for *any* input — the kind of guarantees a
downstream user of the library relies on regardless of data quality.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FuzzyFDConfig, FuzzyFullDisjunction, RegularFullDisjunction
from repro.core.value_matching import ColumnValues, MatchConfig, ValueMatcher
from repro.embeddings import FastTextEmbedder, MistralEmbedder
from repro.matching.bipartite import BipartiteValueMatcher
from repro.matching.distance import EmbeddingDistance
from repro.table import Table, is_null

# Small pools of city-like strings keep hypothesis inputs realistic and the
# embedding cache effective (the same values recur across examples).
_VALUE_POOL = [
    "Berlin", "Berlinn", "berlin", "Toronto", "Boston", "Barcelona", "barcelona",
    "Madrid", "Lisbon", "Oslo", "Vienna", "Prague", "Dublin", "Zurich",
]
_ATTRIBUTE_POOL = ["10", "20", "30", "40", "", "red", "blue", "green"]

value_strategy = st.sampled_from(_VALUE_POOL)
attribute_strategy = st.sampled_from(_ATTRIBUTE_POOL)


def _table(name: str, keys, attributes, key_column: str, attribute_column: str) -> Table:
    # One row per join key.  With duplicate keys the "fuzzy never produces
    # more tuples than regular FD" invariant is genuinely false: rewriting
    # merges join values, and an equi-join over a merged value appearing in
    # several tuples per table multiplies rows (e.g. 2×'Berlinn' joining
    # 3×'Berlin' yields 6 tuples where the regular outer union kept 5).
    rows = list({key: (key, attribute) for key, attribute in zip(keys, attributes)}.values())
    return Table(name, [key_column, attribute_column], rows)


@pytest.fixture(scope="module")
def fuzzy_operator():
    return FuzzyFullDisjunction(FuzzyFDConfig(embedder=MistralEmbedder()))


@pytest.fixture(scope="module")
def regular_operator():
    return RegularFullDisjunction(FuzzyFDConfig(embedder=MistralEmbedder()))


class TestIntegrationInvariants:
    @given(
        left_keys=st.lists(value_strategy, min_size=1, max_size=6),
        left_attrs=st.lists(attribute_strategy, min_size=6, max_size=6),
        right_keys=st.lists(value_strategy, min_size=1, max_size=6),
        right_attrs=st.lists(attribute_strategy, min_size=6, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzzy_fd_never_produces_more_tuples_than_regular_fd(
        self, fuzzy_operator, regular_operator, left_keys, left_attrs, right_keys, right_attrs
    ):
        left = _table("L", left_keys, left_attrs, "City", "A")
        right = _table("R", right_keys, right_attrs, "City", "B")
        fuzzy = fuzzy_operator.integrate([left, right])
        regular = regular_operator.integrate([left, right])
        # Rewriting values can only create additional join opportunities, so
        # the fuzzy result is never more fragmented than the regular one.
        assert fuzzy.table.num_rows <= regular.table.num_rows

    @given(
        left_keys=st.lists(value_strategy, min_size=1, max_size=6),
        left_attrs=st.lists(attribute_strategy, min_size=6, max_size=6),
        right_keys=st.lists(value_strategy, min_size=1, max_size=6),
        right_attrs=st.lists(attribute_strategy, min_size=6, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_source_tuple_is_accounted_for(
        self, fuzzy_operator, left_keys, left_attrs, right_keys, right_attrs
    ):
        left = _table("L", left_keys, left_attrs, "City", "A")
        right = _table("R", right_keys, right_attrs, "City", "B")
        result = fuzzy_operator.integrate([left, right])
        covered = set()
        for sources in result.table.provenance:
            covered |= set(sources)
        expected = {f"L:{index}" for index in range(left.num_rows)} | {
            f"R:{index}" for index in range(right.num_rows)
        }
        assert covered == expected

    @given(
        keys=st.lists(value_strategy, min_size=1, max_size=8),
        attrs=st.lists(attribute_strategy, min_size=8, max_size=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_single_table_integration_is_lossless(self, fuzzy_operator, keys, attrs):
        table = _table("T", keys, attrs, "City", "A")
        result = fuzzy_operator.integrate([table])
        assert result.table.same_rows(table)


class TestValueMatchingInvariants:
    @given(
        left=st.lists(value_strategy, min_size=1, max_size=8, unique=True),
        right=st.lists(value_strategy, min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_match_sets_partition_the_input_values(self, left, right):
        matcher = ValueMatcher(MistralEmbedder(), MatchConfig(threshold=0.7))
        result = matcher.match_columns(
            [ColumnValues("c1", list(left)), ColumnValues("c2", list(right))]
        )
        members = [member for match_set in result.sets for member in match_set.members]
        expected = [("c1", value) for value in left] + [("c2", value) for value in right]
        assert sorted(map(str, members)) == sorted(map(str, expected))

    @given(
        left=st.lists(value_strategy, min_size=1, max_size=8, unique=True),
        right=st.lists(value_strategy, min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_representative_is_always_a_member(self, left, right):
        matcher = ValueMatcher(MistralEmbedder(), MatchConfig(threshold=0.7))
        result = matcher.match_columns(
            [ColumnValues("c1", list(left)), ColumnValues("c2", list(right))]
        )
        for match_set in result.sets:
            assert match_set.representative in match_set.values()

    @given(
        left=st.lists(value_strategy, min_size=1, max_size=7, unique=True),
        right=st.lists(value_strategy, min_size=1, max_size=7, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_bipartite_matches_respect_threshold_and_cardinality(self, left, right):
        matcher = BipartiteValueMatcher(EmbeddingDistance(FastTextEmbedder()), threshold=0.7)
        matches = matcher.match(list(left), list(right))
        assert len(matches) <= min(len(left), len(right))
        assert all(match.distance < 0.7 for match in matches)
        assert len({match.left for match in matches}) == len(matches)
        assert len({match.right for match in matches}) == len(matches)
