"""Schema maintenance under deletions (extension; future work in the paper).

The published incremental step is insert-only.  A union-retaining
:class:`SchemaSession` completes it: deletions detach instances,
decrement per-key counters, prune specs whose last carrier died, drop
empty types and cascade node deletions to incident edges, and every read
after the first deletion re-scans the surviving union, because deletion
breaks monotonicity (a property can *become* mandatory again, cardinality
upper bounds can tighten).
"""

from repro.core.config import PGHiveConfig
from repro.core.session import SchemaSession
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node, PropertyGraph


def build_session(graph, batches=2, seed=0, infer_keys=False) -> SchemaSession:
    config = PGHiveConfig(seed=seed, infer_keys=infer_keys)
    session = SchemaSession(config, retain_union=True)
    for batch in split_into_batches(graph, batches, seed=seed):
        session.add_batch(batch)
    session.refresh()
    return session


class TestDeletionBasics:
    def test_delete_node_removes_instance(self, figure1_graph):
        session = build_session(figure1_graph)
        person = session.schema_graph.node_type_by_token("Person")
        before = person.instance_count
        assert session.apply(ChangeSet.deletions(nodes=["john"])).nodes_deleted == 1
        assert person.instance_count == before - 1
        assert "john" not in person.instance_ids
        assert not session.union_graph.has_node("john")

    def test_delete_node_cascades_to_edges(self, figure1_graph):
        session = build_session(figure1_graph)
        knows = session.schema_graph.edge_type_by_token("KNOWS")
        session.apply(ChangeSet.deletions(nodes=["john"]))  # both KNOWS edges end at john
        assert knows.instance_count == 0 or not any(
            t.token == "KNOWS" for t in session.schema_graph.edge_types()
        )

    def test_type_dropped_when_empty(self, figure1_graph):
        session = build_session(figure1_graph)
        session.apply(ChangeSet.deletions(nodes=["place"]))
        assert session.schema_graph.node_type_by_token("Place") is None

    def test_delete_unknown_ids_is_noop(self, figure1_graph):
        session = build_session(figure1_graph)
        assert session.apply(ChangeSet.deletions(nodes=["ghost"])).nodes_deleted == 0
        assert session.apply(ChangeSet.deletions(edges=["ghost"])).edges_deleted == 0

    def test_delete_edges_only(self, figure1_graph):
        session = build_session(figure1_graph)
        assert session.apply(ChangeSet.deletions(edges=["e3", "e4"])).edges_deleted == 2
        assert session.schema_graph.edge_type_by_token("LIKES") is None
        # Endpoint nodes survive.
        assert session.union_graph.has_node("post1")


class TestConstraintRecomputation:
    def test_property_can_become_mandatory_after_deletion(self):
        # Three instances; one lacks "x".  After deleting it, x is mandatory.
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"x": 1, "y": 1}))
        graph.add_node(Node("b", {"T"}, {"x": 2, "y": 2}))
        graph.add_node(Node("c", {"T"}, {"y": 3}))
        session = build_session(graph, batches=1)
        node_type = session.schema_graph.node_type_by_token("T")
        assert node_type.properties["x"].mandatory is False
        session.apply(ChangeSet.deletions(nodes=["c"]))
        session.refresh()
        assert node_type.properties["x"].mandatory is True

    def test_cardinality_tightens_after_deletion(self):
        graph = PropertyGraph()
        graph.add_node(Node("hub", {"H"}, {"k": 1}))
        for i in range(3):
            graph.add_node(Node(f"s{i}", {"S"}, {"k": i}))
            graph.add_edge(Edge(f"e{i}", f"s{i}", "hub", {"R"}))
        session = build_session(graph, batches=1)
        edge_type = session.schema_graph.edge_type_by_token("R")
        assert str(edge_type.cardinality) == "N:1"
        session.apply(ChangeSet.deletions(edges=["e1", "e2"]))
        session.refresh()
        assert str(edge_type.cardinality) == "0:1"

    def test_property_disappears_with_last_holder(self):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"x": 1}))
        graph.add_node(Node("b", {"T"}, {"x": 2, "extra": 9}))
        session = build_session(graph, batches=1)
        node_type = session.schema_graph.node_type_by_token("T")
        session.apply(ChangeSet.deletions(nodes=["b"]))
        assert node_type.property_counts.get("extra", 0) == 0

    def test_keys_recomputed_when_enabled(self):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"v": 1}))
        graph.add_node(Node("b", {"T"}, {"v": 1}))
        graph.add_node(Node("c", {"T"}, {"v": 2}))
        session = build_session(graph, batches=1, infer_keys=True)
        node_type = session.schema_graph.node_type_by_token("T")
        assert node_type.candidate_keys == []  # duplicate value 1
        session.apply(ChangeSet.deletions(nodes=["b"]))
        session.refresh()
        assert node_type.candidate_keys == [("v",)]


class TestInsertAfterDelete:
    def test_reinsertion_recreates_type(self, figure1_graph):
        session = build_session(figure1_graph)
        session.apply(ChangeSet.deletions(nodes=["place"]))
        assert session.schema_graph.node_type_by_token("Place") is None
        addition = PropertyGraph("more")
        addition.add_node(Node("place2", {"Place"}, {"name": "Crete"}))
        session.add_batch(addition)
        assert session.schema_graph.node_type_by_token("Place") is not None
