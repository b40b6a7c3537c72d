"""Unit tests for the LSH clustering step (section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adaptive, pipeline
from repro.core.clustering import _distinct_rows, cluster_features_columnar
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.core.session import SchemaSession
from repro.datasets.noise import apply_noise
from repro.datasets.registry import load_dataset
from repro.graph.batching import split_into_batches
from repro.graph.columnar import ElementBatch, Interner
from repro.graph.model import Node
from repro.lsh.elsh import EuclideanLSH


@pytest.fixture
def batch(figure1_graph):
    return ElementBatch.from_graph(figure1_graph, Interner())


@pytest.fixture
def features(batch):
    preprocessor = Preprocessor(PGHiveConfig(seed=2)).fit_batch(batch)
    return (
        preprocessor.node_features_columnar(batch),
        preprocessor.edge_features_columnar(batch),
    )


class TestClusterFeatures:
    @pytest.mark.parametrize("method", list(ClusteringMethod))
    def test_clusters_partition_elements(self, features, method):
        node_features, _ = features
        outcome = cluster_features_columnar(
            node_features, PGHiveConfig(method=method, seed=2), "nodes"
        )
        member_ids = [m for c in outcome.clusters for m in c.member_ids]
        assert sorted(member_ids) == sorted(node_features.block.ids)

    @pytest.mark.parametrize("method", list(ClusteringMethod))
    def test_no_cross_label_mixing_on_clean_data(self, features, method, figure1_graph):
        node_features, _ = features
        outcome = cluster_features_columnar(
            node_features, PGHiveConfig(method=method, seed=2), "nodes"
        )
        for cluster in outcome.clusters:
            # Labeled members of one cluster agree on their label set.
            labeled = [
                figure1_graph.node(member)
                for member in cluster.member_ids
                if figure1_graph.node(member).labels
            ]
            assert len({node.token for node in labeled}) <= 1

    def test_representative_pattern_unions(self, features):
        node_features, _ = features
        outcome = cluster_features_columnar(
            node_features, PGHiveConfig(seed=2), "nodes"
        )
        person_cluster = next(
            c for c in outcome.clusters if "bob" in c.member_ids
        )
        assert person_cluster.labels == {"Person"}
        assert person_cluster.property_keys == {"name", "gender", "bday"}

    def test_edge_clusters_track_endpoints(self, features):
        _, edge_features = features
        outcome = cluster_features_columnar(
            edge_features, PGHiveConfig(seed=2), "edges"
        )
        works_at = next(
            c for c in outcome.clusters if "e5" in c.member_ids
        )
        assert works_at.source_tokens == {"Person"}
        assert works_at.target_tokens == {"Org."}

    def test_parameters_reported(self, features):
        node_features, _ = features
        outcome = cluster_features_columnar(
            node_features, PGHiveConfig(seed=2), "nodes"
        )
        assert outcome.parameters is not None
        assert outcome.parameters.element_count == len(node_features)

    def test_empty_features(self, batch):
        empty = ElementBatch.from_elements([], [], batch.interner)
        preprocessor = Preprocessor(PGHiveConfig(seed=2)).fit_batch(batch)
        features = preprocessor.node_features_columnar(empty)
        outcome = cluster_features_columnar(features, PGHiveConfig(seed=2), "nodes")
        assert outcome.clusters == []
        assert outcome.parameters is None

    def test_member_rows_parallel_members(self, features):
        node_features, _ = features
        outcome = cluster_features_columnar(
            node_features, PGHiveConfig(seed=2), "nodes"
        )
        ids = node_features.block.ids
        for cluster in outcome.clusters:
            assert len(cluster.member_rows) == cluster.size
            assert [ids[row] for row in cluster.member_rows] == cluster.member_ids

    def test_manual_overrides_respected(self, features):
        from repro.core.config import AdaptiveOverrides

        node_features, _ = features
        config = PGHiveConfig(
            seed=2, node_lsh=AdaptiveOverrides(bucket_length=5.0, num_tables=3)
        )
        outcome = cluster_features_columnar(node_features, config, "nodes")
        assert outcome.parameters.bucket_length == 5.0
        assert outcome.parameters.num_tables == 3

    @pytest.mark.parametrize("method", list(ClusteringMethod))
    def test_colliding_label_tokens_keep_both_label_sets(self, method):
        # {"A+B"} and {"A", "B"} share the token "A+B", hence the vector
        # and the MinHash token set; the cluster must still union both.
        nodes = [
            Node("a", frozenset({"A+B"}), {"x": 1}),
            Node("b", frozenset({"A", "B"}), {"x": 2}),
            Node("c", frozenset({"A+B"}), {"x": 3}),
        ]
        batch = ElementBatch.from_elements(nodes, [], Interner())
        config = PGHiveConfig(method=method, seed=2)
        features = Preprocessor(config).fit_batch(batch).node_features_columnar(
            batch
        )
        outcome = cluster_features_columnar(features, config, "nodes")
        assert [cluster.member_ids for cluster in outcome.clusters] == [
            ["a", "b", "c"]
        ]
        assert outcome.clusters[0].labels == {"A+B", "A", "B"}


def distinct_patterns(block) -> int:
    """Distinct (label set, token[, endpoint tokens], key set) rows."""
    columns = [block.labelset_list, block.token_sids.tolist(), block.keyset_list]
    if block.is_edges:
        columns += [block.src_token_list, block.tgt_token_list]
    return len(set(zip(*columns)))


class TestDistinctPatternWork:
    def test_elsh_and_mu_see_one_row_per_pattern(self, monkeypatch):
        # Counted, not timed: on an unlabeled noisy ELSH feed, the rows
        # ELSH hashes and the rows mu's all-pairs distances cover must
        # be the block's distinct patterns, not its rows.  Per-row work
        # reads the row count (~4x the pattern count here).
        seen = {"rows": [], "patterns": [], "hashed": [], "paired": []}
        clusterer = pipeline.cluster_features_columnar
        cluster = EuclideanLSH.cluster
        pair_distances = adaptive.pair_distance_matrix

        def clustering(features, *args, **kwargs):
            seen["rows"].append(len(features))
            seen["patterns"].append(distinct_patterns(features.block))
            return clusterer(features, *args, **kwargs)

        def hashing(lsh, vectors, *args, **kwargs):
            seen["hashed"].append(len(vectors))
            return cluster(lsh, vectors, *args, **kwargs)

        def pairing(vectors):
            seen["paired"].append(len(vectors))
            return pair_distances(vectors)

        monkeypatch.setattr(pipeline, "cluster_features_columnar", clustering)
        monkeypatch.setattr(EuclideanLSH, "cluster", hashing)
        monkeypatch.setattr(adaptive, "pair_distance_matrix", pairing)
        dataset = apply_noise(
            load_dataset("LDBC", nodes=300, seed=1),
            property_noise=0.2,
            label_availability=0.0,
            seed=1,
        )
        session = SchemaSession(PGHiveConfig(method=ClusteringMethod.ELSH))
        for batch in split_into_batches(dataset.graph, 12, seed=1):
            session.add_batch(batch)
        all_pairs = [
            patterns
            for rows, patterns in zip(seen["rows"], seen["patterns"])
            if 2 <= rows <= 200  # larger blocks sample pairs instead
        ]
        assert len(all_pairs) >= 20
        assert seen["hashed"] == seen["patterns"]
        assert seen["paired"] == all_pairs
        assert sum(seen["patterns"]) < 0.5 * sum(seen["rows"])


@st.composite
def id_columns(draw):
    """3 or 5 aligned non-negative ``intp`` columns, 1-300 rows, many repeats."""
    width = draw(st.sampled_from([3, 5]))
    rows = draw(st.integers(1, 300))
    spans = draw(st.lists(st.integers(1, 4), min_size=width, max_size=width))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return tuple(
        rng.integers(0, span, rows).astype(np.intp) * draw(st.sampled_from([1, 997]))
        for span in spans
    )


class TestDistinctRows:
    @given(columns=id_columns())
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique_over_rows(self, columns):
        distinct, first_rows, inverse = np.unique(
            np.stack(columns, axis=1),
            axis=0,
            return_index=True,
            return_inverse=True,
        )
        got = _distinct_rows(columns)
        expected = (distinct, first_rows, np.asarray(inverse).reshape(-1))
        for actual, oracle in zip(got, expected, strict=True):
            assert actual.dtype == oracle.dtype
            assert np.array_equal(actual, oracle)
