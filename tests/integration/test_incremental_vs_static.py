"""Integration: incremental discovery agrees with static discovery."""

from collections import Counter

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets import load_dataset, reduce_label_availability
from repro.eval.clustering_metrics import majority_f1
from repro.graph.batching import split_into_batches
from repro.schema.model import subsumes


@pytest.mark.parametrize("method", list(ClusteringMethod))
@pytest.mark.parametrize("name", ["POLE", "MB6", "ICIJ"])
class TestIncrementalEquivalence:
    def test_incremental_f1_close_to_static(self, method, name):
        dataset = load_dataset(name, nodes=500, seed=21)
        config = PGHiveConfig(method=method, seed=21)
        static = PGHive(config).discover(dataset.graph)
        batches = split_into_batches(dataset.graph, 5, seed=2)
        incremental = PGHive(config).discover_incremental(batches)
        static_f1 = majority_f1(
            static.node_assignments(), dataset.node_truth
        ).macro_f1
        incremental_f1 = majority_f1(
            incremental.node_assignments(), dataset.node_truth
        ).macro_f1
        assert incremental_f1 >= static_f1 - 0.05

    def test_labelled_type_tokens_identical(self, method, name):
        dataset = load_dataset(name, nodes=500, seed=21)
        config = PGHiveConfig(method=method, seed=21)
        static = PGHive(config).discover(dataset.graph)
        batches = split_into_batches(dataset.graph, 5, seed=2)
        incremental = PGHive(config).discover_incremental(batches)
        static_tokens = {
            t.token for t in static.schema.node_types() if t.labels
        }
        incremental_tokens = {
            t.token for t in incremental.schema.node_types() if t.labels
        }
        assert incremental_tokens == static_tokens

    def test_incremental_schema_covers_static_instances(self, method, name):
        dataset = load_dataset(name, nodes=400, seed=21)
        config = PGHiveConfig(method=method, seed=21, post_processing=False)
        batches = split_into_batches(dataset.graph, 4, seed=3)
        incremental = PGHive(config).discover_incremental(batches)
        covered = set(incremental.node_assignments())
        assert covered == set(dataset.graph.node_ids())


class TestBatchCountInvariance:
    @pytest.mark.parametrize("batch_count", [1, 2, 7])
    def test_batch_count_does_not_change_labelled_types(self, batch_count):
        dataset = load_dataset("POLE", nodes=400, seed=8)
        config = PGHiveConfig(seed=8)
        batches = split_into_batches(dataset.graph, batch_count, seed=5)
        result = PGHive(config).discover_incremental(batches)
        tokens = {t.token for t in result.schema.node_types() if t.labels}
        expected = {
            "+".join(sorted(t.labels)) for t in dataset.spec.node_types
        }
        assert tokens == expected

    def test_single_batch_equals_static_subsumption(self):
        dataset = load_dataset("POLE", nodes=400, seed=8)
        config = PGHiveConfig(seed=8)
        static = PGHive(config).discover(dataset.graph)
        (batch,) = split_into_batches(dataset.graph, 1, seed=5)
        incremental = PGHive(config).discover_incremental([batch])
        assert subsumes(incremental.schema, static.schema)
        assert subsumes(static.schema, incremental.schema)


@pytest.mark.parametrize("method", list(ClusteringMethod))
@pytest.mark.parametrize("name", ["LDBC", "IYP"])
def test_resent_unlabeled_endpoints_land_in_one_type(method, name):
    """``split_into_batches`` re-sends endpoint nodes with later batches'
    edges; at 0% labels every node must still be an instance of exactly
    one node type, whichever batch carried its copies."""
    graph = reduce_label_availability(
        load_dataset(name, nodes=300, seed=0).graph, 0.0, seed=0
    )
    batches = split_into_batches(graph, 4, seed=0)
    resent = sum(batch.node_count for batch in batches) - graph.node_count
    assert resent > 0
    config = PGHiveConfig(method=method, seed=0)
    schema = PGHive(config).discover_incremental(batches).schema
    owners = Counter(
        instance_id
        for node_type in schema.node_types()
        for instance_id in node_type.instance_ids
    )
    assert {node_id: owners[node_id] for node_id in graph.node_ids()} == {
        node_id: 1 for node_id in graph.node_ids()
    }
