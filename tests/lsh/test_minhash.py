"""Unit tests for MinHash LSH."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lsh.base import GroupingRule
from repro.lsh.minhash import MinHashLSH, exact_jaccard

from tests.seed_reference import minhash_cluster


class TestConfiguration:
    def test_invalid_tables(self):
        with pytest.raises(ConfigurationError):
            MinHashLSH(num_tables=0)

    def test_invalid_band_size(self):
        with pytest.raises(ConfigurationError):
            MinHashLSH(num_tables=4, band_size=0)


class TestSignatures:
    def test_shape(self):
        lsh = MinHashLSH(num_tables=6, band_size=2)
        signatures = lsh.signatures([{"a", "b"}, {"c"}])
        assert signatures.shape == (2, 6)

    def test_identical_sets_identical_signatures(self):
        lsh = MinHashLSH(num_tables=8)
        signatures = lsh.signatures([{"x", "y"}, {"y", "x"}])
        assert np.array_equal(signatures[0], signatures[1])

    def test_empty_sets_collide_with_each_other(self):
        lsh = MinHashLSH(num_tables=4)
        signatures = lsh.signatures([set(), set(), {"a"}])
        assert np.array_equal(signatures[0], signatures[1])
        assert not np.array_equal(signatures[0], signatures[2])

    def test_deterministic_across_instances(self):
        first = MinHashLSH(num_tables=4, seed=5).signatures([{"a", "b"}])
        second = MinHashLSH(num_tables=4, seed=5).signatures([{"a", "b"}])
        assert np.array_equal(first, second)

    def test_empty_input(self):
        assert MinHashLSH(num_tables=3).signatures([]).shape == (0, 3)


class TestJaccardEstimation:
    def test_estimate_tracks_exact_jaccard(self):
        lsh = MinHashLSH(num_tables=256, band_size=1, seed=0)
        left = set("abcdefgh")
        right = set("efghijkl")
        exact = exact_jaccard(left, right)
        estimate = lsh.estimate_jaccard(left, right)
        assert abs(estimate - exact) < 0.12

    def test_identical_sets_estimate_one(self):
        lsh = MinHashLSH(num_tables=16)
        assert lsh.estimate_jaccard({"a", "b"}, {"b", "a"}) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        lsh = MinHashLSH(num_tables=128, seed=1)
        estimate = lsh.estimate_jaccard(set("abc"), set("xyz"))
        assert estimate < 0.1


class TestClustering:
    def test_and_rule_groups_identical_sets(self):
        lsh = MinHashLSH(num_tables=10, band_size=2, seed=0)
        sets = [{"a", "b"}, {"a", "b"}, {"c", "d"}, {"c", "d"}, {"e"}]
        clusters = minhash_cluster(lsh, sets, rule=GroupingRule.AND)
        as_sets = [set(c) for c in clusters]
        assert {0, 1} in as_sets
        assert {2, 3} in as_sets
        assert {4} in as_sets

    def test_or_rule_groups_similar_sets(self):
        lsh = MinHashLSH(num_tables=20, band_size=1, seed=0)
        base = set("abcdefghij")
        similar = set("abcdefghi")  # J = 0.9
        different = set("zyxwv")
        clusters = minhash_cluster(
            lsh, [base, similar, different], rule=GroupingRule.OR
        )
        membership = {i: n for n, cluster in enumerate(clusters) for i in cluster}
        assert membership[0] == membership[1]
        assert membership[0] != membership[2]

    def test_empty_input(self):
        assert minhash_cluster(MinHashLSH(num_tables=3), []) == []


class TestExactJaccard:
    def test_basic(self):
        assert exact_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_empty_sets_are_similar(self):
        assert exact_jaccard(set(), set()) == 1.0
