"""Tests for the element-stream grouper and the streaming file readers.

Every stream becomes columnar change-sets through one grouper
(`columnar_changesets_from_rows`); `changesets_from_elements` feeds it
`Node`/`Edge` streams and the JSONL/CSV readers feed it file rows.
"""

import pytest

from repro.core.config import PGHiveConfig
from repro.core.pipeline import PGHive
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.errors import ConfigurationError, DanglingEdgeError, SerializationError
from repro.graph.columnar import changesets_from_elements
from repro.graph.csv_io import iter_columnar_changesets_csv, write_graph_csv
from repro.graph.json_io import iter_columnar_changesets_jsonl, write_graph_jsonl
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import schema_fingerprint

LABELS = ["Person", "Org", "Post"]


def sample_graph(node_count: int = 18, edge_count: int = 24) -> PropertyGraph:
    graph = PropertyGraph("sample")
    for serial in range(node_count):
        label = LABELS[serial % len(LABELS)]
        graph.add_node(
            Node(
                f"v{serial}",
                {label},
                {f"{label.lower()}_id": serial, "name": f"n{serial}"},
            )
        )
    for serial in range(edge_count):
        source = graph.node(f"v{(serial * 7) % node_count}")
        target = graph.node(f"v{(serial * 3 + 1) % node_count}")
        label = f"R_{sorted(source.labels)[0]}_{sorted(target.labels)[0]}"
        graph.add_edge(
            Edge(
                f"r{serial}",
                source.node_id,
                target.node_id,
                {label},
                {"w": serial % 4},
            )
        )
    return graph


def elements_of(graph: PropertyGraph) -> list:
    return [*graph.nodes(), *graph.edges()]


def reassembled(change_sets) -> PropertyGraph:
    graph = PropertyGraph("reassembled")
    for change_set in change_sets:
        nodes, edges = change_set.columnar.to_elements()
        for node in nodes:
            graph.put_node(node)
        for edge in edges:
            if not graph.has_edge(edge.edge_id):
                graph.add_edge(edge)
    return graph


class TestChangesetsFromElements:
    def test_emits_columnar_change_sets(self):
        for change_set in changesets_from_elements(
            elements_of(sample_graph()), batch_size=7
        ):
            assert change_set.columnar is not None
            assert not change_set.nodes and not change_set.edges

    def test_batches_respect_fresh_element_budget(self):
        graph = sample_graph()
        change_sets = list(
            changesets_from_elements(elements_of(graph), batch_size=7)
        )
        assert len(change_sets) >= 2
        total_fresh = sum(cs.fresh_insert_count for cs in change_sets)
        assert total_fresh == len(graph)
        # every change-set is endpoint-complete
        for change_set in change_sets:
            nodes, edges = change_set.columnar.to_elements()
            shipped = {node.node_id for node in nodes}
            for edge in edges:
                assert set(edge.endpoints()) <= shipped

    def test_stubs_are_marked_and_only_replays(self):
        seen: set[str] = set()
        for change_set in changesets_from_elements(
            elements_of(sample_graph()), batch_size=5
        ):
            for node_id in change_set.columnar.nodes.ids:
                if node_id in change_set.stub_node_ids:
                    assert node_id in seen  # stubs replay known nodes
                else:
                    assert node_id not in seen
                    seen.add(node_id)

    def test_round_trips_the_graph(self):
        graph = sample_graph()
        rebuilt = reassembled(
            changesets_from_elements(elements_of(graph), batch_size=6)
        )
        assert sorted(rebuilt.node_ids()) == sorted(graph.node_ids())
        assert sorted(rebuilt.edge_ids()) == sorted(graph.edge_ids())
        for node in graph.nodes():
            assert rebuilt.node(node.node_id) == node
        for edge in graph.edges():
            assert rebuilt.edge(edge.edge_id) == edge

    def test_edges_before_endpoints_are_buffered(self):
        node_a = Node("a", {"Person"}, {"person_id": 1})
        node_b = Node("b", {"Person"}, {"person_id": 2})
        edge = Edge("e", "a", "b", {"R"})
        change_sets = list(
            changesets_from_elements([edge, node_a, node_b], batch_size=10)
        )
        assert len(change_sets) == 1
        assert change_sets[0].stub_node_ids == frozenset()
        assert reassembled(change_sets).has_edge("e")

    def test_real_insert_supersedes_its_stub(self):
        node_a = Node("a", {"P"}, {"x": 1})
        node_b = Node("b", {"P"}, {"x": 2})
        newer_a = Node("a", {"P", "Q"}, {"x": 3, "y": 4})
        edge = Edge("e", "a", "b", {"R"})
        first, second = changesets_from_elements(
            [node_a, node_b, edge, newer_a], batch_size=2
        )
        assert first.stub_node_ids == frozenset()
        # The edge shipped both endpoints as stubs; the later real insert
        # of "a" replaced its stub row in place and cleared its flag.
        assert second.stub_node_ids == frozenset({"b"})
        nodes, edges = second.columnar.to_elements()
        assert nodes == [newer_a, node_b]
        assert edges == [edge]
        assert second.fresh_insert_count == 2

    def test_duplicate_edge_id_keeps_first_row(self):
        node_a = Node("a", {"P"}, {"x": 1})
        node_b = Node("b", {"P"}, {"x": 2})
        first_edge = Edge("e", "a", "b", {"R"}, {"w": 1})
        second_edge = Edge("e", "b", "a", {"S"}, {"w": 2})
        (change_set,) = changesets_from_elements(
            [node_a, node_b, first_edge, second_edge], batch_size=10
        )
        _, edges = change_set.columnar.to_elements()
        assert edges == [first_edge]

    def test_unresolvable_endpoint_raises(self):
        edge = Edge("e", "a", "missing", {"R"})
        with pytest.raises(DanglingEdgeError):
            list(
                changesets_from_elements(
                    [Node("a", {"P"}), edge], batch_size=10
                )
            )

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            list(changesets_from_elements([], batch_size=0))


class TestIOReaders:
    def test_jsonl_feed_matches_whole_graph_discovery(self, tmp_path):
        graph = sample_graph()
        path = write_graph_jsonl(graph, tmp_path / "g.jsonl")
        config = PGHiveConfig(seed=4)
        session = SchemaSession(config)  # streaming, no union, no store
        for change_set in iter_columnar_changesets_jsonl(path, batch_size=50):
            session.apply(change_set)
        streamed = session.schema()
        reference = PGHive(config).discover(graph).schema
        # Same types with the same assignments; specs agree because the
        # streaming reads equal the full scan on insert-only data.
        assert schema_fingerprint(streamed) == schema_fingerprint(reference)

    def test_jsonl_feed_drives_sharded_session(self, tmp_path):
        graph = sample_graph()
        path = write_graph_jsonl(graph, tmp_path / "g.jsonl")
        config = PGHiveConfig(seed=4)
        single = SchemaSession(config)
        sharded = ShardedSchemaSession(config, n_shards=3)
        for change_set in iter_columnar_changesets_jsonl(path, batch_size=8):
            single.apply(change_set)
            sharded.apply(change_set)
        assert schema_fingerprint(sharded.schema()) == schema_fingerprint(
            single.schema()
        )

    def test_csv_reader_round_trips(self, tmp_path):
        graph = sample_graph()
        write_graph_csv(graph, tmp_path)
        rebuilt = reassembled(iter_columnar_changesets_csv(tmp_path, batch_size=5))
        assert sorted(rebuilt.node_ids()) == sorted(graph.node_ids())
        assert sorted(rebuilt.edge_ids()) == sorted(graph.edge_ids())
        for node in rebuilt.nodes():
            assert node.labels == graph.node(node.node_id).labels

    def test_csv_reader_missing_files(self, tmp_path):
        with pytest.raises(SerializationError):
            iter_columnar_changesets_csv(tmp_path / "nope")
