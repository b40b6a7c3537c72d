"""Unit tests for the LSH clustering step (section 4.2)."""

import pytest

from repro.core.clustering import cluster_features_columnar
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.graph.columnar import ElementBatch, Interner


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
