"""Unit tests for Algorithm 2 (type extraction and merging)."""

from repro.core.clustering import ColumnarCluster
from repro.core.type_extraction import (
    extract_edge_types,
    extract_node_types,
    extract_types,
)
from repro.graph.columnar import ElementBatch, Interner
from repro.graph.model import Edge, Node
from repro.schema.model import SchemaGraph


def _cluster_of_all(block, interner) -> ColumnarCluster:
    return ColumnarCluster(block, interner, list(range(len(block))))


def node_cluster(member_ids, labels=(), keys=()):
    """A node cluster whose members all carry ``labels`` and ``keys``."""
    nodes = [
        Node(member, frozenset(labels), {key: 1 for key in keys})
        for member in member_ids
    ]
    batch = ElementBatch.from_elements(nodes, [], Interner())
    return _cluster_of_all(batch.nodes, batch.interner)


def edge_cluster(member_ids, labels=(), keys=(), sources=(), targets=()):
    """An edge cluster; member ``i`` runs between the ``i``-th source and
    target tokens (cycling), so the endpoint token sets are the unions of
    ``sources`` and ``targets`` whenever there are enough members."""
    sources, targets = sorted(sources) or [""], sorted(targets) or [""]
    nodes = [
        Node(f"{role}{token}", frozenset({token}) if token else frozenset())
        for role, tokens in (("s:", sources), ("t:", targets))
        for token in tokens
    ]
    edges = [
        Edge(
            member,
            f"s:{sources[i % len(sources)]}",
            f"t:{targets[i % len(targets)]}",
            frozenset(labels),
            {key: 1 for key in keys},
        )
        for i, member in enumerate(member_ids)
    ]
    batch = ElementBatch.from_elements(nodes, edges, Interner())
    return _cluster_of_all(batch.edges, batch.interner)


class TestLabeledNodeClusters:
    def test_same_label_clusters_merge(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Post"}, {"imgFile"}),
                node_cluster(["b"], {"Post"}, {"content"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 1
        post = schema.node_type_by_token("Post")
        assert post.property_keys == frozenset({"imgFile", "content"})
        assert post.instance_ids == {"a", "b"}

    def test_different_labels_stay_separate(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Person"}, {"name"}),
                node_cluster(["b"], {"Org"}, {"name"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 2

    def test_multilabel_cluster_token(self):
        schema = SchemaGraph()
        extract_node_types(
            schema, [node_cluster(["a"], {"Person", "Student"}, {"x"})], theta=0.9
        )
        assert schema.node_type_by_token("Person+Student") is not None


class TestUnlabeledNodeClusters:
    def test_jaccard_merge_into_labeled(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a", "b"], {"Person"}, {"name", "gender", "bday"}),
                node_cluster(["c"], (), {"name", "gender", "bday"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 1
        person = schema.node_type_by_token("Person")
        assert "c" in person.instance_ids
        assert not person.abstract

    def test_below_threshold_becomes_abstract(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Person"}, {"name", "gender", "bday"}),
                node_cluster(["c"], (), {"salary"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 2
        assert len(schema.abstract_node_types()) == 1

    def test_unlabeled_pair_merges_together(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], (), {"x", "y"}),
                node_cluster(["b"], (), {"x", "y"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 1
        assert schema.abstract_node_types()[0].instance_ids == {"a", "b"}

    def test_best_jaccard_candidate_wins(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"A"}, {"x", "y", "z", "w"}),
                node_cluster(["b"], {"B"}, {"x", "y", "z"}),
                node_cluster(["c"], (), {"x", "y", "z"}),
            ],
            theta=0.9,
        )
        b_type = schema.node_type_by_token("B")
        assert "c" in b_type.instance_ids

    def test_lower_theta_merges_more(self):
        def run(theta):
            schema = SchemaGraph()
            extract_node_types(
                schema,
                [
                    node_cluster(["a"], {"A"}, {"x", "y"}),
                    node_cluster(["b"], (), {"x"}),
                ],
                theta=theta,
            )
            return schema.node_type_count

        assert run(0.9) == 2
        assert run(0.4) == 1


class TestEdgeClusters:
    def test_same_label_compatible_endpoints_merge(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"KNOWS"}, {"since"}, {"Person"}, {"Person"}),
                edge_cluster(["e2"], {"KNOWS"}, (), {"Person"}, {"Person"}),
            ],
            theta=0.9,
        )
        assert schema.edge_type_count == 1
        knows = schema.edge_type_by_token("KNOWS")
        assert knows.property_keys == frozenset({"since"})
        assert knows.instance_ids == {"e1", "e2"}

    def test_same_label_disjoint_endpoints_stay_separate(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"ConnectsTo"}, (), {"Neuron"}, {"Neuron"}),
                edge_cluster(["e2"], {"ConnectsTo"}, (), {"Segment"}, {"Segment"}),
            ],
            theta=0.9,
        )
        assert schema.edge_type_count == 2

    def test_endpoint_union_defines_connectivity(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"LOCATED_IN"}, (), {"Org."}, {"Place"}),
                edge_cluster(
                    ["e2", "e3"],
                    {"LOCATED_IN"},
                    {"from"},
                    {"Org.", "Person"},
                    {"Place"},
                ),
            ],
            theta=0.9,
        )
        located = schema.edge_type_by_token("LOCATED_IN")
        assert located.source_tokens == {"Org.", "Person"}
        assert located.target_tokens == {"Place"}

    def test_unlabeled_edge_merges_by_jaccard_with_endpoint_guard(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"KNOWS"}, {"since"}, {"Person"}, {"Person"}),
                edge_cluster(["e2"], (), {"since"}, {"Person"}, {"Person"}),
                edge_cluster(["e3"], (), {"since"}, {"Robot"}, {"Robot"}),
            ],
            theta=0.9,
        )
        knows = schema.edge_type_by_token("KNOWS")
        assert "e2" in knows.instance_ids
        assert "e3" not in knows.instance_ids
        assert schema.edge_type_count == 2


class TestExtractTypesEntryPoint:
    def test_runs_both_kinds(self):
        schema = SchemaGraph()
        extract_types(
            schema,
            [node_cluster(["a"], {"A"}, {"x"})],
            [edge_cluster(["e"], {"R"}, (), {"A"}, {"A"})],
        )
        assert schema.node_type_count == 1
        assert schema.edge_type_count == 1

    def test_incremental_accumulation(self):
        schema = SchemaGraph()
        extract_types(schema, [node_cluster(["a"], {"A"}, {"x"})], [])
        extract_types(schema, [node_cluster(["b"], {"A"}, {"y"})], [])
        assert schema.node_type_count == 1
        assert schema.node_type_by_token("A").property_keys == frozenset({"x", "y"})
