"""Property-based oracle: the columnar layers vs a seed-semantics reference.

Discovery consumes only :class:`ElementBatch` inserts, so comparing two
sessions would run the same code twice.  Instead, every insert of a
random interleaved insert/delete script is pushed through each columnar
layer and compared with the element-at-a-time restatement in
``tests/seed_reference.py``:

* corpus -- ``build_label_corpus_columnar`` vs ``build_label_corpus``;
* vectors -- ``node_features_columnar`` / ``edge_features_columnar`` vs
  per-element hybrid vectors (bit-identical);
* partition -- ``cluster_features_columnar`` vs adaptive LSH over the
  per-element vectors and per-element token sets (same clusters, same
  order, same parameters, same representative patterns);
* recording -- ``ColumnarCluster.record_into`` vs per-member
  ``record_instance`` plus per-cell ``seed_reference.observe_summaries``
  folds, into fresh types and into one long-lived type per kind (replays
  and carried-over summaries included).

* row access -- ``value_rows``, ``node_record``/``edge_record`` and
  ``to_elements`` vs per-cell binary-search lookups, on batches from
  every producer (``BatchBuilder.freeze``, ``ChangeSet.from_wire``,
  ``decode_changeset_shm`` and ``partition_columnar`` parts).

A smaller end-to-end check pins the session boundary: element
change-sets and the same content as columnar change-sets reach the same
schema.  Round-trip and interner persistence tests pin the converter
boundary and the checkpoint story.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.columnar as columnar_module
from repro.core.accumulators import SummaryOptions
from repro.core.clustering import cluster_features_columnar
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.core.session import SchemaSession
from repro.core.shm import (
    ShmBlockRegistry,
    decode_changeset_shm,
    encode_changeset_shm,
    shm_available,
)
from repro.embedding.corpus import build_label_corpus_columnar
from repro.graph.changes import ChangeSet, HashPartitioner
from repro.graph.columnar import ElementBatch, Interner, partition_columnar
from repro.graph.model import Edge, Node, PropertyGraph
from repro.lsh.base import GroupingRule
from repro.schema.model import EdgeType, NodeType, schema_fingerprint

from tests import seed_reference

LABELS = ["Person", "Org", ""]
KEYS = ["name", "age", "score", "flag"]
VALUES = {
    "name": lambda serial: f"name-{serial}",
    "age": lambda serial: serial % 7,
    "score": lambda serial: serial * 0.5,
    "flag": lambda serial: serial % 2 == 0,
}


@st.composite
def operation_scripts(draw):
    """Insert/delete scripts over a shared element universe."""
    ops = []
    serial = 0
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["insert", "insert", "del_nodes", "del_edges"]))
        if kind == "insert":
            nodes = []
            for _ in range(draw(st.integers(1, 4))):
                serial += 1
                label = draw(st.sampled_from(LABELS))
                keys = draw(st.frozensets(st.sampled_from(KEYS), max_size=3))
                nodes.append((f"v{serial}", label, sorted(keys), serial))
            edge_picks = [
                (
                    draw(st.integers(0, 10_000)),
                    draw(st.integers(0, 10_000)),
                    draw(st.sampled_from(["REL", ""])),
                )
                for _ in range(draw(st.integers(0, 2)))
            ]
            ops.append(("insert", nodes, edge_picks))
        else:
            ops.append((kind, draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=2))))
    return ops


def interpret(ops):
    """Resolve a script into endpoint-complete change-set payloads.

    Mirrors the batch-stream convention every reader follows: an edge
    referencing a node from an earlier change-set ships a stub copy of
    it, marked in ``stub_node_ids``, so every insert is endpoint-complete
    on its own.
    """
    inserted_edges: list[str] = []
    live: dict[str, Node] = {}
    serial = 0
    resolved = []
    for op in ops:
        if op[0] == "insert":
            _, node_specs, edge_picks = op
            nodes = []
            fresh_ids = set()
            for node_id, label, keys, value_seed in node_specs:
                labels = frozenset({label}) if label else frozenset()
                node = Node(
                    node_id,
                    labels,
                    {key: VALUES[key](value_seed) for key in keys},
                )
                nodes.append(node)
                live[node_id] = node
                fresh_ids.add(node_id)
            pool = list(live)
            edges = []
            stub_ids = set()
            shipped = set(fresh_ids)
            for left, right, label in edge_picks:
                if len(pool) < 2:
                    break
                serial += 1
                edge_id = f"r{serial}"
                source = pool[left % len(pool)]
                target = pool[right % len(pool)]
                for endpoint in (source, target):
                    if endpoint not in shipped:
                        shipped.add(endpoint)
                        stub_ids.add(endpoint)
                        nodes.append(live[endpoint])
                edges.append(
                    Edge(
                        edge_id,
                        source,
                        target,
                        frozenset({label}) if label else frozenset(),
                        {"since": 2000 + serial % 9},
                    )
                )
                inserted_edges.append(edge_id)
            resolved.append(("insert", nodes, edges, frozenset(stub_ids)))
        elif op[0] == "del_nodes":
            if not live:
                continue
            pool = list(live)
            targets = sorted({pool[i % len(pool)] for i in op[1]})
            for node_id in targets:
                live.pop(node_id, None)
            resolved.append(("del_nodes", targets))
        else:
            if not inserted_edges:
                continue
            targets = sorted({inserted_edges[i % len(inserted_edges)] for i in op[1]})
            resolved.append(("del_edges", targets))
    return resolved


CONFIGS = {
    "minhash-and": PGHiveConfig(method=ClusteringMethod.MINHASH, seed=5),
    "minhash-or": PGHiveConfig(
        method=ClusteringMethod.MINHASH, seed=5, grouping_rule=GroupingRule.OR
    ),
    "elsh-and": PGHiveConfig(method=ClusteringMethod.ELSH, seed=5),
    "elsh-or": PGHiveConfig(
        method=ClusteringMethod.ELSH, seed=5, grouping_rule=GroupingRule.OR
    ),
}
OPTIONS = [
    None,
    SummaryOptions(),
    SummaryOptions(track_keys=True),
    SummaryOptions(track_keys=True, pair_cap=1),
]


def _check_kind(kind, features, elements, node_of, state, config, options, stubs):
    """Vectors, partition and recording of one element kind of one batch."""
    model = state["preprocessor"].model
    if kind == "nodes":
        expected = seed_reference.node_vectors(model, elements, config)
        token_sets = [seed_reference.node_token_set(n) for n in elements]
    else:
        expected = seed_reference.edge_vectors(model, elements, node_of, config)
        token_sets = [seed_reference.edge_token_set(e, node_of) for e in elements]
    assert np.array_equal(features.vectors, expected)

    outcome = cluster_features_columnar(
        features, config, kind, state["minhash_cache"]
    )
    labels = {label for element in elements for label in element.labels}
    groups, parameters = seed_reference.partition(
        expected, token_sets, len(labels), config, kind
    )
    assert [cluster.member_rows for cluster in outcome.clusters] == groups
    assert outcome.parameters == parameters

    make_type = NodeType if kind == "nodes" else EdgeType
    for cluster in outcome.clusters:
        members = [elements[row] for row in cluster.member_rows]
        assert (
            cluster.labels,
            cluster.property_keys,
            cluster.source_tokens,
            cluster.target_tokens,
        ) == seed_reference.representative(members, node_of)
        fresh = make_type("t", set(cluster.labels))
        reference = make_type("t", set(cluster.labels))
        cluster.record_into(fresh, options, stubs)
        seed_reference.record(reference, members, options, stubs)
        assert seed_reference.type_state(fresh) == seed_reference.type_state(
            reference
        )
        # One long-lived type per kind: replays, carried-over summaries.
        longlived, longlived_reference = state[kind]
        cluster.record_into(longlived, options)
        seed_reference.record(longlived_reference, members, options)
        assert seed_reference.type_state(
            longlived
        ) == seed_reference.type_state(longlived_reference)


def run_layer_oracle(resolved, config, options):
    """Compare every columnar layer with the reference, insert by insert."""
    interner = Interner()
    state = {
        "preprocessor": None,
        "minhash_cache": {},
        "nodes": (NodeType("n", set()), NodeType("n", set())),
        "edges": (EdgeType("e", set()), EdgeType("e", set())),
    }
    for op in resolved:
        if op[0] != "insert":
            continue
        _, nodes, edges, stubs = op
        batch = ElementBatch.from_elements(nodes, edges, interner)
        assert batch.nodes.ids == [node.node_id for node in nodes]
        assert batch.edges.ids == [edge.edge_id for edge in edges]
        graph = PropertyGraph("reference")
        for node in nodes:
            graph.add_node(node)
        for edge in edges:
            graph.add_edge(edge)
        assert build_label_corpus_columnar(
            batch, seed=3
        ) == seed_reference.build_label_corpus(graph, seed=3)
        if state["preprocessor"] is None:
            state["preprocessor"] = Preprocessor(config).fit_batch(batch)
        preprocessor = state["preprocessor"]
        node_of = {node.node_id: node for node in nodes}
        _check_kind(
            "nodes", preprocessor.node_features_columnar(batch), nodes,
            node_of, state, config, options, stubs,
        )
        _check_kind(
            "edges", preprocessor.edge_features_columnar(batch), edges,
            node_of, state, config, options, frozenset(),
        )


class TestColumnarLayersMatchSeedReference:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @given(ops=operation_scripts(), option_index=st.integers(0, len(OPTIONS) - 1))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_layers_match_reference(self, name, ops, option_index):
        run_layer_oracle(interpret(ops), CONFIGS[name], OPTIONS[option_index])


def row_view_sources(change_set, n_shards):
    """The change-set's batch as every batch producer rebuilds it."""
    sources = [("freeze", change_set.columnar)]
    sources.append(
        (
            "from_wire",
            ChangeSet.from_wire(change_set.to_wire(), Interner()).columnar,
        )
    )
    if shm_available():
        registry = ShmBlockRegistry()
        descriptor = encode_changeset_shm(change_set, registry)
        try:
            decoded = decode_changeset_shm(descriptor, Interner())
        finally:
            registry.release(descriptor.block)
        sources.append(("shm", decoded.columnar))
    parts = partition_columnar(HashPartitioner(n_shards), change_set)
    for shard, part in sorted(parts.items()):
        if part.columnar is not None:
            sources.append((f"part{shard}", part.columnar))
    return sources


def check_row_view(batch):
    """Every row-major reader of ``batch`` matches per-cell lookups."""
    for block in (batch.nodes, batch.edges):
        expected = [
            seed_reference.row_values(batch, block, row)
            for row in range(len(block))
        ]
        assert block.value_rows == expected
        # Exact value types (bool stays bool, no numpy scalars).
        assert [tuple(map(type, values)) for values in block.value_rows] == [
            tuple(map(type, values)) for values in expected
        ]
    assert [batch.node_record(row) for row in range(batch.node_count)] == [
        seed_reference.node_record(batch, row)
        for row in range(batch.node_count)
    ]
    assert [batch.edge_record(row) for row in range(batch.edge_count)] == [
        seed_reference.edge_record(batch, row)
        for row in range(batch.edge_count)
    ]
    assert batch.to_elements() == seed_reference.to_elements(batch)


class TestRowViewMatchesSeedReference:
    @given(ops=operation_scripts(), n_shards=st.integers(1, 3))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_row_readers_match_per_cell_lookup(self, ops, n_shards):
        interner = Interner()
        for op in interpret(ops):
            if op[0] != "insert":
                continue
            _, nodes, edges, stubs = op
            change_set = ChangeSet(
                columnar=ElementBatch.from_elements(nodes, edges, interner),
                stub_node_ids=stubs,
            )
            for _, batch in row_view_sources(change_set, n_shards):
                check_row_view(batch)


class TestSessionBoundary:
    @given(ops=operation_scripts())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_element_and_columnar_changesets_agree(self, ops):
        config = PGHiveConfig(
            method=ClusteringMethod.MINHASH, seed=5, infer_keys=True
        )
        element = SchemaSession(config, schema_name="oracle", retain_union=True)
        columnar = SchemaSession(config, schema_name="oracle", retain_union=True)
        for op in interpret(ops):
            if op[0] == "insert":
                _, nodes, edges, stub_ids = op
                element.apply(
                    ChangeSet(nodes=nodes, edges=edges, stub_node_ids=stub_ids)
                )
                columnar.apply(
                    ChangeSet(
                        columnar=ElementBatch.from_elements(nodes, edges),
                        stub_node_ids=stub_ids,
                    )
                )
            else:
                deletions = (
                    ChangeSet.deletions(nodes=op[1])
                    if op[0] == "del_nodes"
                    else ChangeSet.deletions(edges=op[1])
                )
                element.apply(deletions)
                columnar.apply(deletions)
            assert schema_fingerprint(element.schema()) == schema_fingerprint(
                columnar.schema()
            )


def sample_elements():
    nodes = [
        Node("a", frozenset({"P"}), {"x": 1, "y": "v", "z": [1, 2]}),
        Node("b", frozenset(), {"x": 2.5, "flag": True}),
        Node("c", frozenset({"P", "Q"}), {}),
    ]
    edges = [
        Edge("e1", "a", "b", frozenset({"R"}), {"w": 1.5}),
        Edge("e2", "b", "c", frozenset(), {}),
    ]
    return nodes, edges


class TestElementBatchRoundTrip:
    def test_from_elements_to_elements(self):
        nodes, edges = sample_elements()
        batch = ElementBatch.from_elements(nodes, edges)
        back_nodes, back_edges = batch.to_elements()
        assert back_nodes == nodes
        assert back_edges == edges

    def test_from_graph_to_property_graph(self):
        nodes, edges = sample_elements()
        graph = PropertyGraph("g")
        for node in nodes:
            graph.add_node(node)
        for edge in edges:
            graph.add_edge(edge)
        batch = ElementBatch.from_graph(graph)
        rebuilt = batch.to_property_graph("g")
        assert list(rebuilt.nodes()) == nodes
        assert list(rebuilt.edges()) == edges

    def test_value_columns_preserve_scalar_types(self):
        nodes, edges = sample_elements()
        batch = ElementBatch.from_elements(nodes, edges)
        back_a, back_b, _ = batch.to_elements()[0]
        assert isinstance(back_a.properties["x"], int)
        assert isinstance(back_b.properties["x"], float)
        assert back_b.properties["flag"] is True
        assert back_a.properties["z"] == [1, 2]

    def test_duplicate_edge_rows_keep_first(self):
        nodes, _ = sample_elements()
        edges = [
            Edge("e1", "a", "b", frozenset({"R"}), {"w": 1}),
            Edge("e1", "a", "c", frozenset({"S"}), {"w": 2}),
        ]
        batch = ElementBatch.from_elements(nodes, edges)
        assert batch.edge_count == 1
        _, back = batch.to_elements()
        assert back[0].target_id == "b"

    def test_ambiguous_label_tokens_stay_distinct(self):
        # {"A+B"} and {"A", "B"} share the token string "A+B" but must
        # keep their distinct label sets through the columnar path.
        nodes = [
            Node("a", frozenset({"A+B"}), {"x": 1}),
            Node("b", frozenset({"A", "B"}), {"x": 2}),
        ]
        batch = ElementBatch.from_elements(nodes, [])
        back, _ = batch.to_elements()
        assert back[0].labels == frozenset({"A+B"})
        assert back[1].labels == frozenset({"A", "B"})

    def test_dangling_columnar_edge_raises(self):
        from repro.errors import DanglingEdgeError

        with pytest.raises(DanglingEdgeError):
            ElementBatch.from_elements(
                [Node("a", frozenset({"P"}))],
                [Edge("e", "a", "missing", frozenset({"R"}))],
            )


class TestInternerPersistence:
    def test_checkpoint_restore_rewarms_fresh_interner(self, tmp_path, monkeypatch):
        nodes, edges = sample_elements()
        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        session = SchemaSession(config, schema_name="ck")
        session.apply(
            ChangeSet.inserts_columnar(ElementBatch.from_elements(nodes, edges))
        )
        before = schema_fingerprint(session.schema())
        path = session.checkpoint(tmp_path / "session.ckpt")

        fresh = Interner()
        monkeypatch.setattr(columnar_module, "_GLOBAL", fresh)
        restored = SchemaSession.restore(path)
        assert schema_fingerprint(restored.schema()) == before
        # The fresh process-wide interner was re-warmed from the snapshot.
        assert fresh.string_count > 0
        assert fresh.labelset_count > 0
        assert fresh.keyset_count > 0
        assert restored.discovery_state.interner is fresh

        # Continued columnar feeding through the restored session matches
        # the donor session continuing in-process.
        more_nodes = [Node("d", frozenset({"P"}), {"x": 9, "y": "w"})]
        restored.apply(
            ChangeSet.inserts_columnar(
                ElementBatch.from_elements(more_nodes, [], fresh)
            )
        )
        session.apply(
            ChangeSet.inserts_columnar(ElementBatch.from_elements(more_nodes, []))
        )
        assert schema_fingerprint(restored.schema()) == schema_fingerprint(
            session.schema()
        )

    def test_snapshot_merge_is_idempotent(self):
        interner = Interner()
        interner.intern_labels({"A", "B"})
        interner.intern_keys(["x", "y"])
        snapshot = interner.snapshot()
        other = Interner().merge_snapshot(snapshot)
        counts = (other.string_count, other.labelset_count, other.keyset_count)
        other.merge_snapshot(snapshot)
        assert counts == (
            other.string_count,
            other.labelset_count,
            other.keyset_count,
        )

    def test_minhash_ids_are_content_derived(self):
        from repro.lsh.minhash import token_content_id

        interner = Interner()
        sid = interner.intern_string("label:Person")
        assert interner.string_minhash_id(sid) == token_content_id("label:Person")


class TestColumnarPatternSignatures:
    def test_pattern_ids_match_string_tokenisation(self):
        from repro.lsh.minhash import MinHashLSH

        interner = Interner()
        labelset = interner.labelset(interner.intern_labels({"P"}))
        keyset_id = interner.intern_keys(["x", "y"])
        pattern = interner.node_pattern(labelset.token_sid, keyset_id)
        lsh_a = MinHashLSH(num_tables=8, band_size=2, seed=11)
        lsh_b = MinHashLSH(num_tables=8, band_size=2, seed=11)
        via_strings = lsh_a.signature(pattern.tokens)
        via_ids = lsh_b.signatures_batch(
            [pattern.tokens], token_ids=[pattern.minhash_ids]
        )[0]
        assert np.array_equal(via_strings, via_ids)
