"""Columnar ingestion units: readers, change-set grouping, partitioning."""

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.errors import DanglingEdgeError
from repro.graph.changes import ChangeSet, HashPartitioner
from repro.graph.columnar import (
    BatchBuilder,
    ElementBatch,
    changesets_from_elements,
    columnar_changesets_from_rows,
    global_interner,
    intern_element,
    partition_columnar,
)
from repro.graph.csv_io import (
    iter_columnar_changesets_csv,
    read_graph_csv,
    write_graph_csv,
)
from repro.graph.json_io import (
    iter_columnar_changesets_jsonl,
    iter_graph_jsonl,
    write_graph_jsonl,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import schema_fingerprint


def sample_graph() -> PropertyGraph:
    graph = PropertyGraph("sample")
    for index in range(30):
        labels = frozenset({"Person"}) if index % 2 else frozenset({"Org"})
        properties = {"name": f"n{index}"}
        if index % 3 == 0:
            properties["age"] = index
        if index % 5 == 0:
            properties["score"] = index * 0.5
        graph.add_node(Node(f"v{index}", labels, properties))
    for index in range(25):
        graph.add_edge(
            Edge(
                f"r{index}",
                f"v{index % 30}",
                f"v{(index * 7) % 30}",
                frozenset({"KNOWS"}),
                {"since": 2000 + index % 9},
            )
        )
    return graph


def changesets_equal(row_sets, element_sets):
    """Compare two columnar feeds content by content, change-set by change-set."""
    assert len(row_sets) == len(element_sets)
    for row_set, element_set in zip(row_sets, element_sets):
        assert row_set.columnar.to_elements() == element_set.columnar.to_elements()
        assert row_set.stub_node_ids == element_set.stub_node_ids


def csv_elements(directory):
    """The CSV element parser's stream: nodes then edges in file order."""
    graph = read_graph_csv(directory)
    return [*graph.nodes(), *graph.edges()]


class TestColumnarReaders:
    """Each format's row parser and element parser feed the one grouper
    the same content, so a file read either way yields equal change-sets
    and equal schemas."""

    @pytest.mark.parametrize("batch_size", [1, 8, 1000])
    def test_jsonl_row_parser_matches_element_parser(self, tmp_path, batch_size):
        graph = sample_graph()
        path = tmp_path / "graph.jsonl"
        write_graph_jsonl(graph, path)
        changesets_equal(
            list(iter_columnar_changesets_jsonl(path, batch_size=batch_size)),
            list(changesets_from_elements(iter_graph_jsonl(path), batch_size)),
        )

    @pytest.mark.parametrize("batch_size", [1, 8, 1000])
    def test_csv_row_parser_matches_element_parser(self, tmp_path, batch_size):
        graph = sample_graph()
        write_graph_csv(graph, tmp_path)
        changesets_equal(
            list(iter_columnar_changesets_csv(tmp_path, batch_size=batch_size)),
            list(changesets_from_elements(csv_elements(tmp_path), batch_size)),
        )

    def test_jsonl_session_fingerprint(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "graph.jsonl"
        write_graph_jsonl(graph, path)
        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        element = SchemaSession(config, schema_name="s")
        for change_set in changesets_from_elements(iter_graph_jsonl(path), 10):
            element.apply(change_set)
        columnar = SchemaSession(config, schema_name="s")
        for change_set in iter_columnar_changesets_jsonl(path, batch_size=10):
            columnar.apply(change_set)
        assert schema_fingerprint(element.schema()) == schema_fingerprint(
            columnar.schema()
        )

    def test_csv_session_fingerprint(self, tmp_path):
        graph = sample_graph()
        write_graph_csv(graph, tmp_path)
        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        element = SchemaSession(config, schema_name="s")
        for change_set in changesets_from_elements(csv_elements(tmp_path), 10):
            element.apply(change_set)
        columnar = SchemaSession(config, schema_name="s")
        for change_set in iter_columnar_changesets_csv(tmp_path, batch_size=10):
            columnar.apply(change_set)
        assert schema_fingerprint(element.schema()) == schema_fingerprint(
            columnar.schema()
        )

    def test_missing_csv_files_raise(self, tmp_path):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            iter_columnar_changesets_csv(tmp_path)


class TestColumnarGrouping:
    def make_rows(self, elements):
        interner = global_interner()
        for element in elements:
            content = intern_element(interner, element)
            if isinstance(element, Node):
                yield "n", (element.node_id, *content)
            else:
                yield "e", (
                    element.edge_id,
                    element.source_id,
                    element.target_id,
                    *content,
                )

    def test_stub_marking_and_supersede(self):
        node_a = Node("a", frozenset({"P"}), {"x": 1})
        node_b = Node("b", frozenset({"P"}), {"x": 2})
        edge = Edge("e", "a", "b", frozenset({"R"}))
        sets = list(
            columnar_changesets_from_rows(
                self.make_rows([node_a, node_b, edge]), batch_size=2
            )
        )
        assert len(sets) == 2
        first_nodes, first_edges = sets[0].columnar.to_elements()
        assert first_nodes == [node_a, node_b] and not first_edges
        second_nodes, second_edges = sets[1].columnar.to_elements()
        assert second_edges == [edge]
        # Both endpoints were shipped as marked stubs.
        assert sets[1].stub_node_ids == {"a", "b"}
        assert second_nodes == [node_a, node_b]

    def test_out_of_order_edges_buffer(self):
        node_a = Node("a", frozenset({"P"}), {"x": 1})
        node_b = Node("b", frozenset({"P"}), {"x": 2})
        edge = Edge("e", "a", "b", frozenset({"R"}))
        sets = list(
            columnar_changesets_from_rows(
                self.make_rows([edge, node_a, node_b]), batch_size=10
            )
        )
        assert len(sets) == 1
        nodes, edges = sets[0].columnar.to_elements()
        assert edges == [edge]
        assert sets[0].stub_node_ids == frozenset()

    def test_dangling_edge_raises_at_end_of_stream(self):
        edge = Edge("e", "a", "missing", frozenset({"R"}))
        node_a = Node("a", frozenset({"P"}), {"x": 1})
        with pytest.raises(DanglingEdgeError):
            list(
                columnar_changesets_from_rows(
                    self.make_rows([node_a, edge]), batch_size=10
                )
            )


class TestColumnarPartitioning:
    def feed(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "graph.jsonl"
        write_graph_jsonl(graph, path)
        return path

    def test_partition_round_trip_single_shard(self, tmp_path):
        path = self.feed(tmp_path)
        partitioner = HashPartitioner(1)
        for change_set in iter_columnar_changesets_jsonl(path, batch_size=9):
            parts = partition_columnar(partitioner, change_set)
            assert list(parts) == [0]
            nodes, edges = parts[0].columnar.to_elements()
            expected_nodes, expected_edges = change_set.columnar.to_elements()
            assert nodes == expected_nodes
            assert edges == expected_edges
            assert parts[0].stub_node_ids == change_set.stub_node_ids

    def test_partition_ships_cross_shard_stubs(self, tmp_path):
        path = self.feed(tmp_path)
        partitioner = HashPartitioner(3)
        for change_set in iter_columnar_changesets_jsonl(path, batch_size=9):
            for shard, part in partition_columnar(partitioner, change_set).items():
                nodes, edges = part.columnar.to_elements()
                present = {node.node_id for node in nodes}
                for edge in edges:
                    assert partitioner.shard_of(edge.edge_id) == shard
                    assert edge.source_id in present
                    assert edge.target_id in present
                for node in nodes:
                    if node.node_id not in part.stub_node_ids:
                        assert partitioner.shard_of(node.node_id) == shard

    def test_sharded_columnar_matches_sharded_element(self, tmp_path):
        path = self.feed(tmp_path)
        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        for n_shards in (2, 4):
            element = ShardedSchemaSession(
                config, schema_name="s", n_shards=n_shards
            )
            # The same feed as element change-sets, converted at the
            # sharded coordinator's boundary.
            for change_set in iter_columnar_changesets_jsonl(path, batch_size=9):
                nodes, edges = change_set.columnar.to_elements()
                element.apply(
                    ChangeSet(
                        nodes=nodes,
                        edges=edges,
                        stub_node_ids=change_set.stub_node_ids,
                    )
                )
            columnar = ShardedSchemaSession(
                config, schema_name="s", n_shards=n_shards
            )
            for change_set in iter_columnar_changesets_jsonl(path, batch_size=9):
                columnar.apply(change_set)
            assert schema_fingerprint(element.schema()) == schema_fingerprint(
                columnar.schema()
            )

    def test_sharded_session_rejects_mixed_interners(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.graph.columnar import Interner

        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        session = ShardedSchemaSession(config, schema_name="s", n_shards=2)
        node = Node("a", frozenset({"P"}), {"x": 1})
        first = Interner()
        session.apply(
            ChangeSet.inserts_columnar(
                ElementBatch.from_elements([node], [], first)
            )
        )
        other = Node("b", frozenset({"Q"}), {"y": 2})
        with pytest.raises(ConfigurationError):
            session.apply(
                ChangeSet.inserts_columnar(
                    ElementBatch.from_elements([other], [], Interner())
                )
            )
        # Same interner keeps working.
        session.apply(
            ChangeSet.inserts_columnar(
                ElementBatch.from_elements([other], [], first)
            )
        )

    def test_sharded_columnar_checkpoint_round_trip(self, tmp_path):
        path = self.feed(tmp_path)
        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        session = ShardedSchemaSession(config, schema_name="s", n_shards=2)
        feed = list(iter_columnar_changesets_jsonl(path, batch_size=9))
        for change_set in feed[:2]:
            session.apply(change_set)
        session.checkpoint(tmp_path / "ckpt")
        restored = ShardedSchemaSession.restore(tmp_path / "ckpt")
        for change_set in feed[2:]:
            session.apply(change_set)
            restored.apply(change_set)
        assert schema_fingerprint(session.schema()) == schema_fingerprint(
            restored.schema()
        )


class TestBatchBuilder:
    def test_put_node_replaces_in_place(self):
        builder = BatchBuilder()
        interner = builder.interner
        labelset_id = interner.intern_labels({"P"})
        keyset_id = interner.intern_keys(["x"])
        builder.add_node("a", labelset_id, keyset_id, (1,))
        builder.add_node("b", labelset_id, keyset_id, (2,))
        builder.put_node("a", labelset_id, keyset_id, (9,))
        batch = builder.freeze()
        nodes, _ = batch.to_elements()
        assert [node.node_id for node in nodes] == ["a", "b"]
        assert nodes[0].properties == {"x": 9}

    def test_empty_batch(self):
        batch = BatchBuilder().freeze()
        assert len(batch) == 0
        assert batch.to_elements() == ([], [])
        assert isinstance(batch, ElementBatch)
