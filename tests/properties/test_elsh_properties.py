"""Property-based tests for Euclidean LSH behaviour.

Clustering works on distinct vectors (one per structural pattern) and
expands through the row -> pattern inverse; ``TestDistinctRows`` pins
that the distance scale mu and the ELSH partition equal the per-element
ones of ``tests/seed_reference.py`` exactly (``==``, not approximately).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.adaptive import SAMPLE_FLOOR, estimate_distance_scale
from repro.core.clustering import _groups_by_first_occurrence
from repro.lsh.base import GroupingRule, elsh_collision_probability
from repro.lsh.elsh import EuclideanLSH

from tests import seed_reference

finite_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestELSHInvariants:
    @given(
        vector=arrays(np.float64, 6, elements=finite_floats),
        bucket=st.floats(0.1, 10.0),
        tables=st.integers(1, 12),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_vectors_always_cohabit(self, vector, bucket, tables, seed):
        lsh = EuclideanLSH(bucket, tables, seed=seed)
        stacked = np.vstack([vector, vector.copy()])
        signatures = lsh.signatures(stacked)
        assert np.array_equal(signatures[0], signatures[1])
        clusters = lsh.cluster(stacked, GroupingRule.AND)
        assert clusters == [[0, 1]]

    @given(
        vectors=arrays(
            np.float64, (7, 4), elements=st.floats(-5, 5, allow_nan=False)
        ),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_and_clusters_refine_or_clusters(self, vectors, seed):
        lsh = EuclideanLSH(1.0, 4, seed=seed)
        and_clusters = lsh.cluster(vectors, GroupingRule.AND)
        or_clusters = lsh.cluster(vectors, GroupingRule.OR)
        or_membership = {
            i: n for n, cluster in enumerate(or_clusters) for i in cluster
        }
        for cluster in and_clusters:
            # Every AND cluster lies within a single OR cluster.
            assert len({or_membership[i] for i in cluster}) == 1

    @given(
        vectors=arrays(
            np.float64, (5, 3), elements=st.floats(-5, 5, allow_nan=False)
        ),
        seed=st.integers(0, 20),
        rule=st.sampled_from(list(GroupingRule)),
    )
    @settings(max_examples=40, deadline=None)
    def test_clusters_partition_rows(self, vectors, seed, rule):
        lsh = EuclideanLSH(2.0, 3, seed=seed)
        clusters = lsh.cluster(vectors, rule)
        flat = sorted(i for cluster in clusters for i in cluster)
        assert flat == list(range(5))


class TestCollisionProbabilityProperties:
    @given(
        near=st.floats(0.01, 5.0),
        far_multiplier=st.floats(1.5, 20.0),
        bucket=st.floats(0.1, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_closer_pairs_more_likely_to_collide(
        self, near, far_multiplier, bucket
    ):
        far = near * far_multiplier
        assert elsh_collision_probability(
            near, bucket
        ) > elsh_collision_probability(far, bucket)

    @given(distance=st.floats(0.01, 50.0), bucket=st.floats(0.01, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_probability_in_unit_interval(self, distance, bucket):
        p = elsh_collision_probability(distance, bucket)
        assert 0.0 <= p <= 1.0

    @given(distance=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_empirical_collision_rate_matches_theory(self, distance):
        # Monte-Carlo check of the Datar et al. formula with one table.
        bucket = 2.0
        lsh = EuclideanLSH(bucket, num_tables=200, seed=42)
        left = np.zeros((1, 3))
        right = np.zeros((1, 3))
        right[0, 0] = distance
        signatures = lsh.signatures(np.vstack([left, right]))
        empirical = float(np.mean(signatures[0] == signatures[1]))
        theoretical = elsh_collision_probability(distance, bucket)
        assert abs(empirical - theoretical) < 0.15


def distinct_rows(seed: int, distinct: int, dimension: int, count: int):
    """``distinct`` rows shaped like hybrid vectors (a dense embedding
    block, then a binary indicator block) and a row -> pattern inverse
    over ``count`` elements that uses every row."""
    rng = np.random.default_rng(seed)
    dense = dimension // 2
    vectors = np.zeros((distinct, dimension))
    vectors[:, :dense] = rng.standard_normal((distinct, dense)) * rng.integers(
        0, 2, (distinct, 1)
    )
    vectors[:, dense:] = rng.integers(0, 2, (distinct, dimension - dense))
    inverse = np.concatenate(
        [np.arange(distinct), rng.integers(0, distinct, count - distinct)]
    )
    rng.shuffle(inverse)
    return vectors, inverse


class TestDistinctRows:
    @given(
        seed=st.integers(0, 2**32 - 1),
        distinct=st.integers(1, 40),
        dimension=st.integers(1, 48),
        count=st.one_of(st.integers(2, 200), st.integers(201, 700)),
        rng_seed=st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_distance_scale_equals_per_element(
        self, seed, distinct, dimension, count, rng_seed
    ):
        distinct = min(distinct, count)
        vectors, inverse = distinct_rows(seed, distinct, dimension, count)
        expected = seed_reference.estimate_distance_scale(
            vectors[inverse], np.random.default_rng(rng_seed)
        )
        assert estimate_distance_scale(
            vectors, np.random.default_rng(rng_seed), inverse
        ) == expected
        assert estimate_distance_scale(
            vectors[inverse], np.random.default_rng(rng_seed)
        ) == expected

    def test_sampled_distance_scale_equals_per_element(self):
        vectors, inverse = distinct_rows(3, 30, 20, SAMPLE_FLOOR + 50)
        expected = seed_reference.estimate_distance_scale(
            vectors[inverse], np.random.default_rng(9)
        )
        assert estimate_distance_scale(
            vectors, np.random.default_rng(9), inverse
        ) == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        distinct=st.integers(1, 30),
        dimension=st.integers(1, 40),
        count=st.integers(1, 200),
        bucket=st.floats(0.05, 5.0),
        tables=st.integers(1, 12),
        hashes=st.integers(1, 3),
        rule=st.sampled_from(list(GroupingRule)),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_expands_from_distinct_vectors(
        self, seed, distinct, dimension, count, bucket, tables, hashes, rule
    ):
        distinct = min(distinct, count)
        vectors, inverse = distinct_rows(seed, distinct, dimension, count)
        lsh = EuclideanLSH(bucket, tables, hashes_per_table=hashes, seed=seed)
        pattern_groups = lsh.cluster(vectors, rule)
        group_of_pattern = np.empty(distinct, dtype=np.intp)
        for group_id, patterns in enumerate(pattern_groups):
            group_of_pattern[patterns] = group_id
        expanded = _groups_by_first_occurrence(
            group_of_pattern[inverse], len(pattern_groups)
        )
        assert expanded == lsh.cluster(vectors[inverse], rule)
