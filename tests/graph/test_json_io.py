"""Unit tests for JSON-lines import/export."""

import json

import pytest

from repro.errors import SerializationError
from repro.graph.columnar import Interner
from repro.graph.json_io import (
    edge_to_record,
    graph_from_elements,
    iter_columnar_changesets_jsonl,
    node_to_record,
    read_graph_jsonl,
    record_to_element,
    write_graph_jsonl,
)
from repro.graph.model import Edge, Node


class TestRecords:
    def test_node_record_roundtrip(self):
        node = Node("a", {"X", "Y"}, {"k": 1, "s": "v"})
        back = record_to_element(node_to_record(node))
        assert back == node

    def test_edge_record_roundtrip(self):
        edge = Edge("e", "a", "b", {"R"}, {"w": 1.5})
        back = record_to_element(edge_to_record(edge))
        assert back == edge

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            record_to_element({"kind": "hyperedge"})


class TestFileRoundTrip:
    def test_figure1_roundtrip_preserves_values_exactly(
        self, figure1_graph, tmp_path
    ):
        path = write_graph_jsonl(figure1_graph, tmp_path / "graph.jsonl")
        loaded = read_graph_jsonl(path)
        for node in figure1_graph.nodes():
            assert loaded.node(node.node_id).properties == dict(node.properties)
        for edge in figure1_graph.edges():
            assert loaded.edge(edge.edge_id).properties == dict(edge.properties)

    def test_edges_before_nodes_are_buffered(self, tmp_path):
        path = tmp_path / "g.jsonl"
        import json

        records = [
            edge_to_record(Edge("e", "a", "b", {"R"})),
            node_to_record(Node("a")),
            node_to_record(Node("b")),
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        loaded = read_graph_jsonl(path)
        assert loaded.has_edge("e")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.jsonl"
        import json

        path.write_text(json.dumps(node_to_record(Node("a"))) + "\n\n\n")
        assert read_graph_jsonl(path).node_count == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SerializationError, match=":1:"):
            read_graph_jsonl(path)


#: Both parsers of the format: elements and columnar rows.
PARSERS = {
    "elements": read_graph_jsonl,
    "rows": lambda path: list(iter_columnar_changesets_jsonl(path)),
}


@pytest.mark.parametrize("parse", PARSERS.values(), ids=list(PARSERS))
class TestMalformedRecords:
    """A record of the wrong shape raises a typed error naming its line."""

    def write(self, tmp_path, bad_line):
        path = tmp_path / "g.jsonl"
        good = json.dumps(node_to_record(Node("a", {"T"}, {"k": 1})))
        path.write_text(f"{good}\n\n{bad_line}\n{good}\n")
        return path

    def test_non_object_line(self, tmp_path, parse):
        path = self.write(tmp_path, "[1, 2]")
        with pytest.raises(SerializationError, match=r"g\.jsonl:3: malformed"):
            parse(path)

    def test_record_missing_id(self, tmp_path, parse):
        path = self.write(tmp_path, json.dumps({"kind": "node", "labels": ["T"]}))
        with pytest.raises(SerializationError, match=r"g\.jsonl:3: malformed"):
            parse(path)

    def test_edge_missing_target(self, tmp_path, parse):
        record = edge_to_record(Edge("e", "a", "a", {"R"}))
        del record["target"]
        path = self.write(tmp_path, json.dumps(record))
        with pytest.raises(SerializationError, match=r"g\.jsonl:3: malformed"):
            parse(path)


class TestUnknownRecordKind:
    """An unknown ``kind`` names its line in both readers."""

    GOOD = json.dumps(node_to_record(Node("a", {"T"}, {"k": 1})))
    BAD = json.dumps(
        {
            "kind": "hyperedge",
            "id": "h",
            "labels": ["Hyper"],
            "properties": {"arity": 3},
        }
    )

    def write(self, tmp_path, *lines):
        path = tmp_path / "g.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines))
        return path

    def test_element_reader(self, tmp_path):
        path = self.write(tmp_path, self.GOOD, self.BAD)
        with pytest.raises(
            SerializationError,
            match=r"g\.jsonl:2: unknown record kind: 'hyperedge'",
        ):
            read_graph_jsonl(path)

    def test_columnar_reader_interns_nothing_of_the_bad_record(self, tmp_path):
        interner = Interner()
        path = self.write(tmp_path, self.GOOD, self.BAD)
        with pytest.raises(
            SerializationError,
            match=r"g\.jsonl:2: unknown record kind: 'hyperedge'",
        ):
            list(iter_columnar_changesets_jsonl(path, interner=interner))
        good_only = Interner()
        list(
            iter_columnar_changesets_jsonl(
                self.write(tmp_path, self.GOOD), interner=good_only
            )
        )
        assert (interner.labelset_count, interner.keyset_count) == (
            good_only.labelset_count,
            good_only.keyset_count,
        )


class TestGraphFromElements:
    def test_builds_from_mixed_iterable(self):
        graph = graph_from_elements(
            [
                Edge("e", "a", "b", {"R"}),
                Node("a", {"T"}),
                Node("b"),
            ]
        )
        assert graph.node_count == 2
        assert graph.edge_count == 1
