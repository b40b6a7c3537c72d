"""Unit tests for Algorithm 2 (type extraction and merging)."""

from repro.core import type_extraction
from repro.core.clustering import ColumnarCluster
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.session import SchemaSession
from repro.core.type_extraction import (
    extract_edge_types,
    extract_node_types,
    extract_types,
)
from repro.datasets.noise import apply_noise
from repro.datasets.registry import load_dataset
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.graph.columnar import ElementBatch, Interner
from repro.graph.model import Edge, Node
from repro.schema.model import NodeType, SchemaGraph


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


class TestJaccardIndexExactness:
    """Each case where a filtered Jaccard index can drift from the scan."""

    def test_float_rounding_does_not_prune_exact_threshold(self):
        # J = 13/20 = 0.65 reaches theta, but the textbook overlap bound
        # ceil(theta / (1 + theta) * (13 + 20)) evaluates to 14 in floats,
        # and 13 / 0.65 to just under 20.
        keys = [f"k{index:02d}" for index in range(20)]
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Wide"}, keys),
                node_cluster(["c"], (), keys[:13]),
            ],
            theta=0.65,
        )
        assert schema.node_type_count == 1
        assert "c" in schema.node_type_by_token("Wide").instance_ids

    def test_theta_equal_to_the_score_is_not_pruned(self):
        # theta is the float score itself: 15/29 * 29 rounds above 15
        # (prefix and lower size bound), 36 / (36/59) below 59 (upper
        # size bound), so unslackened filters would prune both pairs.
        keys = [f"k{index:02d}" for index in range(59)]
        for theta, type_keys, cluster_keys in (
            (15 / 29, keys[:15], keys[:29]),
            (36 / 59, keys[:59], keys[:36]),
        ):
            schema = SchemaGraph()
            extract_node_types(
                schema,
                [
                    node_cluster(["a"], {"T"}, type_keys),
                    node_cluster(["c"], (), cluster_keys),
                ],
                theta=theta,
            )
            assert schema.node_type_count == 1, theta
            assert "c" in schema.node_type_by_token("T").instance_ids

    def test_tie_goes_to_first_type_in_schema_order(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"A"}, {"x", "y", "z"}),
                node_cluster(["b"], {"B"}, {"x", "y", "w"}),
                node_cluster(["c"], (), {"x", "y"}),
            ],
            theta=0.5,
        )
        assert "c" in schema.node_type_by_token("A").instance_ids
        assert "c" not in schema.node_type_by_token("B").instance_ids

    def test_keyless_cluster_matches_keyless_type(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"A"}, {"x"}),
                node_cluster(["b"], {"B"}, ()),
                node_cluster(["c"], (), ()),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 2
        assert "c" in schema.node_type_by_token("B").instance_ids

    def test_theta_zero_sends_disjoint_cluster_to_first_type(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"A"}, {"x"}),
                node_cluster(["b"], {"B"}, {"y"}),
                node_cluster(["c"], (), {"z"}),
            ],
            theta=0.0,
        )
        assert schema.node_type_count == 2
        assert "c" in schema.node_type_by_token("A").instance_ids

    def test_type_founded_and_grown_in_the_same_call_is_a_candidate(self):
        # The first cluster founds T; the second grows it by r (J = 2/3);
        # the third reaches theta only against the grown key set
        # (J = 2/4 against {p, q, r}, 1/4 against {p, q}).
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], (), {"p", "q"}),
                node_cluster(["b"], (), {"p", "q", "r"}),
                node_cluster(["c"], (), {"q", "r", "s"}),
            ],
            theta=0.5,
        )
        assert schema.node_type_count == 1
        (grown,) = schema.node_types()
        assert grown.instance_ids == {"a", "b", "c"}

    def test_excluded_cluster_indexes_only_keys_its_target_gained(self):
        # The stub-only cluster founds a type that records no keys, so it
        # stays key-less: a later key-less cluster matches it at 1.0, and
        # a cluster with the stub's keys does not.
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["stub"], (), {"p", "q"}),
                node_cluster(["b"], (), {"p", "q"}),
                node_cluster(["c"], (), ()),
            ],
            theta=0.9,
            exclude_record=frozenset({"stub"}),
        )
        stub_type, keyed = schema.node_types()
        assert stub_type.property_keys == frozenset()
        assert stub_type.instance_ids == {"c"}
        assert keyed.instance_ids == {"b"}
        assert keyed.property_keys == frozenset({"p", "q"})


class TestJaccardIndexWork:
    def test_indexed_matching_scores_a_fraction_of_the_types(self, monkeypatch):
        # Counted, not timed: on an unlabeled noisy feed, every probe of
        # a linear scan would score every type of the kind (no labels, no
        # endpoint tokens to filter on).  The filters score ~6% of that
        # here (2.3k of 38.9k); a silent fall-back to scanning reads 1.0.
        counts = {"scored": 0, "types": 0}
        candidates = type_extraction._KeyIndex.candidates

        def counting(index, keys, theta):
            found = candidates(index, keys, theta)
            counts["scored"] += len(found)
            counts["types"] += len(index.types)
            return found

        monkeypatch.setattr(type_extraction._KeyIndex, "candidates", counting)
        dataset = apply_noise(
            load_dataset("LDBC", nodes=600, seed=1),
            property_noise=0.2,
            label_availability=0.0,
            seed=1,
        )
        session = SchemaSession(PGHiveConfig(method=ClusteringMethod.ELSH))
        for batch in split_into_batches(dataset.graph, 8, seed=1):
            session.add_batch(batch)
        assert counts["types"] > 10_000
        assert counts["scored"] <= 0.15 * counts["types"]

    def test_session_keeps_its_indexes_across_calls(self, monkeypatch):
        # Counted: an insert-only session builds each kind's index once
        # and catches it up on every later call instead of rebuilding.
        counts = {"built": 0, "synced": 0}
        build = type_extraction._KeyIndex.__init__
        sync = type_extraction._KeyIndex.sync

        def building(index, types):
            counts["built"] += 1
            build(index, types)

        def syncing(index, types):
            counts["synced"] += 1
            return sync(index, types)

        monkeypatch.setattr(type_extraction._KeyIndex, "__init__", building)
        monkeypatch.setattr(type_extraction._KeyIndex, "sync", syncing)
        dataset = apply_noise(
            load_dataset("LDBC", nodes=300, seed=1),
            property_noise=0.2,
            label_availability=0.0,
            seed=1,
        )
        session = SchemaSession(PGHiveConfig(method=ClusteringMethod.ELSH))
        for batch in split_into_batches(dataset.graph, 6, seed=1):
            session.add_batch(batch)
        # Edges keep their labels under label_availability=0.0, so only
        # the node index is ever needed: one build, then one catch-up
        # per later change-set.
        assert counts == {"built": 1, "synced": 5}


def keyed_type(type_id: str, keys) -> NodeType:
    node_type = NodeType(type_id, set(), abstract=True)
    for key in keys:
        node_type.ensure_property(key)
    return node_type


class TestKeyIndexCache:
    def test_sync_posts_gained_keys_and_appended_types(self):
        first = keyed_type("n1", ["a"])
        index = type_extraction._KeyIndex([first])
        first.ensure_property("b")
        second = keyed_type("n2", ["b", "c"])
        assert index.sync([first, second])
        assert index.types == [first, second]
        assert index.sizes == [2, 2]
        assert index.postings == {"a": [0], "b": [0, 1], "c": [1]}
        assert index.candidates({"b", "c"}, 0.9) == [1]

    def test_sync_refuses_removed_reordered_or_shrunk_types(self):
        first, second = keyed_type("n1", ["a", "b"]), keyed_type("n2", ["c"])
        assert not type_extraction._KeyIndex([first, second]).sync([second])
        assert not type_extraction._KeyIndex([first, second]).sync([first])
        assert not type_extraction._KeyIndex([first, second]).sync(
            [second, first]
        )
        index = type_extraction._KeyIndex([first, second])
        # A deletion pops keys.  (A pop followed by a gain can restore
        # the count, which sync cannot see; sessions drop the cache on
        # every deletion instead of relying on this check.)
        del first.properties["b"]
        assert not index.sync([first, second])

    def test_cache_is_rebuilt_for_another_schema(self):
        cache = type_extraction.KeyIndexCache()
        left, right = SchemaGraph(), SchemaGraph()
        left.add_node_type(keyed_type("n1", ["a"]))
        right.add_node_type(keyed_type("n1", ["b"]))
        index = type_extraction._key_index(cache, left, "nodes")
        assert type_extraction._key_index(cache, left, "nodes") is index
        rebuilt = type_extraction._key_index(cache, right, "nodes")
        assert rebuilt is not index
        assert cache.schema is right
        assert list(rebuilt.postings) == ["b"]

    def test_session_drops_its_cache_on_deletion_and_restore(self, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=1, retain_union=True))
        session.apply(
            ChangeSet.inserts(
                nodes=[Node("a", frozenset(), {"x": 1}), Node("b", frozenset(), {})]
            )
        )
        assert session._key_indexes.schema is session.schema_graph
        session.apply(ChangeSet.deletions(nodes=["a"]))
        assert session._key_indexes.schema is None
        session.apply(ChangeSet.inserts(nodes=[Node("c", frozenset(), {"y": 1})]))
        assert session._key_indexes.schema is session.schema_graph
        restored = SchemaSession.restore(session.checkpoint(tmp_path / "s.ckpt"))
        assert restored._key_indexes.schema is None
