"""Unit tests for incremental discovery (section 4.6)."""

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.core.session import SchemaSession
from repro.graph.batching import split_into_batches
from repro.schema.model import subsumes


@pytest.mark.parametrize("method", list(ClusteringMethod))
class TestIncrementalDiscovery:
    def test_matches_static_type_inventory(self, figure1_graph, method):
        config = PGHiveConfig(method=method, seed=0)
        static = PGHive(config).discover(figure1_graph)
        batches = split_into_batches(figure1_graph, 3, seed=4)
        incremental = PGHive(config).discover_incremental(batches)
        static_tokens = {t.token for t in static.schema.node_types()}
        incremental_tokens = {t.token for t in incremental.schema.node_types()}
        assert incremental_tokens == static_tokens
        static_edge_tokens = {t.token for t in static.schema.edge_types()}
        incremental_edge_tokens = {
            t.token for t in incremental.schema.edge_types()
        }
        assert incremental_edge_tokens == static_edge_tokens

    def test_monotone_chain(self, figure1_graph, method):
        # Section 4.6: S_i is subsumed by S_{i+1} for every batch i.
        config = PGHiveConfig(method=method, seed=0, post_processing=False)
        session = SchemaSession(config)
        snapshots = []
        for batch in split_into_batches(figure1_graph, 4, seed=1):
            session.add_batch(batch)
            snapshots.append(session.schema_graph.copy())
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert subsumes(later, earlier)

    def test_batch_reports(self, figure1_graph, method):
        config = PGHiveConfig(method=method, seed=0)
        session = SchemaSession(config)
        batches = split_into_batches(figure1_graph, 3, seed=2)
        for index, batch in enumerate(batches, start=1):
            report = session.add_batch(batch)
            assert report.sequence == index
            assert report.seconds >= 0.0
            assert report.nodes_inserted == batch.node_count
        result = session.finalize()
        assert result.batches_processed == 3
        assert len(result.batch_seconds) == 3


class TestPostProcessingSchedule:
    def test_final_only_by_default(self, figure1_graph):
        config = PGHiveConfig(seed=0)
        session = SchemaSession(config)
        batches = split_into_batches(figure1_graph, 2, seed=3)
        session.add_batch(batches[0])
        mid_types = list(session.schema_graph.node_types())
        # Before finalize, datatypes are still unset.
        assert all(
            spec.data_type is None
            for node_type in mid_types
            for spec in node_type.properties.values()
        )
        session.add_batch(batches[1])
        result = session.finalize()
        person = result.schema.node_type_by_token("Person")
        assert person.properties["name"].data_type is not None

    def test_per_batch_post_processing_flag(self, figure1_graph):
        config = PGHiveConfig(seed=0, post_process_each_batch=True)
        session = SchemaSession(config)
        batches = split_into_batches(figure1_graph, 2, seed=3)
        session.add_batch(batches[0])
        has_any_datatype = any(
            spec.data_type is not None
            for node_type in session.schema_graph.node_types()
            for spec in node_type.properties.values()
        )
        assert has_any_datatype

    def test_constraints_computed_over_union(self, figure1_graph):
        # Post-processing must see all batches: name is mandatory on Person
        # across the union even if one batch held only part of the data.
        config = PGHiveConfig(seed=0)
        batches = split_into_batches(figure1_graph, 3, seed=5)
        result = PGHive(config).discover_incremental(batches)
        person = result.schema.node_type_by_token("Person")
        assert "name" in person.mandatory_keys()
