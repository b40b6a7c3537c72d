"""Unit tests for CSV import/export."""

import pytest

from repro.errors import SerializationError
from repro.graph.csv_io import (
    iter_columnar_changesets_csv,
    read_graph_csv,
    write_graph_csv,
)
from repro.graph.model import Edge, Node, PropertyGraph


class TestRoundTrip:
    def test_figure1_roundtrip(self, figure1_graph, tmp_path):
        write_graph_csv(figure1_graph, tmp_path)
        loaded = read_graph_csv(tmp_path)
        assert loaded.node_count == figure1_graph.node_count
        assert loaded.edge_count == figure1_graph.edge_count
        for node in figure1_graph.nodes():
            assert loaded.node(node.node_id).labels == node.labels
            assert loaded.node(node.node_id).property_keys == node.property_keys

    def test_scalar_types_reinferred(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node(
            Node(
                "a",
                {"T"},
                {"i": 42, "f": 2.5, "t": True, "s": "hello", "neg": -3},
            )
        )
        write_graph_csv(graph, tmp_path)
        loaded = read_graph_csv(tmp_path)
        properties = loaded.node("a").properties
        assert properties["i"] == 42 and isinstance(properties["i"], int)
        assert properties["f"] == 2.5 and isinstance(properties["f"], float)
        assert properties["t"] is True
        assert properties["s"] == "hello"
        assert properties["neg"] == -3

    def test_missing_properties_stay_missing(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"x": 1}))
        graph.add_node(Node("b", {"T"}, {"y": 2}))
        write_graph_csv(graph, tmp_path)
        loaded = read_graph_csv(tmp_path)
        assert loaded.node("a").property_keys == frozenset({"x"})
        assert loaded.node("b").property_keys == frozenset({"y"})

    def test_multilabel_roundtrip(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"Person", "Student"}))
        graph.add_node(Node("b"))
        graph.add_edge(Edge("e", "a", "b", {"KNOWS", "LIKES"}, {"w": 1}))
        write_graph_csv(graph, tmp_path)
        loaded = read_graph_csv(tmp_path)
        assert loaded.node("a").labels == frozenset({"Person", "Student"})
        assert loaded.node("b").labels == frozenset()
        assert loaded.edge("e").labels == frozenset({"KNOWS", "LIKES"})


class TestErrors:
    def test_missing_files(self, tmp_path):
        with pytest.raises(SerializationError):
            read_graph_csv(tmp_path / "nothing")

    def test_bad_header(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("wrong,header\n")
        (tmp_path / "edges.csv").write_text("id,source,target,labels\n")
        with pytest.raises(SerializationError):
            read_graph_csv(tmp_path)


@pytest.mark.parametrize(
    "parse",
    [read_graph_csv, lambda path: list(iter_columnar_changesets_csv(path))],
    ids=["elements", "rows"],
)
def test_short_edge_row_names_its_line(tmp_path, parse):
    (tmp_path / "nodes.csv").write_text("id,labels\na,T\nb,T\n")
    (tmp_path / "edges.csv").write_text(
        "id,source,target,labels,w\ne1,a,b,R,1\ne2,a\n"
    )
    with pytest.raises(SerializationError, match=r"edges\.csv:3: row is missing"):
        parse(tmp_path)
