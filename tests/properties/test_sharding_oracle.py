"""Property-based equivalence: sharded discovery vs a single session.

For random interleaved insert/delete change feeds, a
:class:`ShardedSchemaSession` must land on a schema fingerprint-identical
to one :class:`SchemaSession` consuming the same feed -- for every tested
shard count, in serial mode (process-parallel mode is pinned separately
in ``tests/core/test_sharding.py``; it runs the same code in workers).

The generators produce *label-mergeable* feeds: every node carries a
label (plus a label-specific property so differently-labelled nodes stay
apart in feature space), and every edge's label encodes its endpoint
labels, so type reconciliation across shards is driven by exact token
matches -- the regime in which the merge is provably order-independent.
Abstract-type Jaccard absorption is order-sensitive by design (it already
is between the batches of a single session) and is out of scope here.

The union oracle holds the coordinator's own union graph (the graph a
full-scan read re-scans after a deletion) to the single session's union
after every read, and again after checkpoint -> restore: the same node
and edge ids, labels, properties and endpoints.  It runs serially at 1, 2
and 4 shards, and process-parallel at 2 shards restoring into both
execution modes.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PGHiveConfig
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.graph.changes import ChangeSet, HashPartitioner
from repro.graph.model import Edge, Node
from repro.schema.model import schema_fingerprint

SHARD_COUNTS = (1, 2, 4, 7)
UNION_SHARD_COUNTS = (1, 2, 4)
LABELS = ["Person", "Org", "Post"]
KEYS = ["name", "age", "url", "rank"]


@st.composite
def operation_scripts(draw):
    """A short interleaved insert/delete program over a shared universe."""
    ops = []
    serial = 0
    op_count = draw(st.integers(2, 5))
    for _ in range(op_count):
        kind = draw(st.sampled_from(["insert", "del_nodes", "del_edges"]))
        if kind == "insert":
            nodes = []
            for _ in range(draw(st.integers(1, 3))):
                serial += 1
                label = draw(st.sampled_from(LABELS))
                keys = draw(
                    st.frozensets(st.sampled_from(KEYS), min_size=0, max_size=3)
                )
                props = {k: f"{k}-{serial}" for k in sorted(keys)}
                # A label-specific key keeps differently-labelled nodes
                # far apart in feature space (see module docstring).
                props[f"{label.lower()}_id"] = serial
                nodes.append((f"v{serial}", label, props))
            edge_count = draw(st.integers(0, 2))
            edge_picks = [
                (draw(st.integers(0, 10_000)), draw(st.integers(0, 10_000)))
                for _ in range(edge_count)
            ]
            ops.append(("insert", nodes, edge_picks))
        else:
            picks = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
            ops.append((kind, picks))
    return ops


def interpret(ops):
    """Resolve an abstract script into concrete per-op payloads.

    Edges only ever reference currently-live nodes (a deleted endpoint
    would make the feed invalid for every surface alike), and edge labels
    encode the endpoint labels.
    """
    edge_ids: list[str] = []
    live_nodes: dict[str, tuple[str, dict]] = {}
    serial = 0
    resolved = []
    for op in ops:
        if op[0] == "insert":
            _, nodes, edge_picks = op
            for node_id, label, props in nodes:
                live_nodes[node_id] = (label, props)
            edges = []
            pool = list(live_nodes)
            for left, right in edge_picks:
                if len(pool) < 2:
                    break
                serial += 1
                source = pool[left % len(pool)]
                target = pool[right % len(pool)]
                label = (
                    f"R_{live_nodes[source][0]}_{live_nodes[target][0]}"
                )
                edge_id = f"r{serial}"
                edges.append((edge_id, source, target, label))
                edge_ids.append(edge_id)
            resolved.append(("insert", nodes, edges))
        elif op[0] == "del_nodes":
            if not live_nodes:
                continue
            pool = sorted(live_nodes)
            targets = sorted({pool[i % len(pool)] for i in op[1]})
            for node_id in targets:
                live_nodes.pop(node_id, None)
            # Edges incident to deleted nodes cascade; edges created
            # *later* must not reference them (pool is rebuilt per op).
            resolved.append(("del_nodes", targets))
        else:
            if not edge_ids:
                continue
            targets = sorted({edge_ids[i % len(edge_ids)] for i in op[1]})
            resolved.append(("del_edges", targets))
    return resolved


def to_change_sets(resolved) -> list[ChangeSet]:
    change_sets = []
    for op in resolved:
        if op[0] == "insert":
            _, nodes, edges = op
            change_sets.append(
                ChangeSet.inserts(
                    nodes=[
                        Node(node_id, {label}, props)
                        for node_id, label, props in nodes
                    ],
                    edges=[
                        Edge(edge_id, source, target, {label})
                        for edge_id, source, target, label in edges
                    ],
                )
            )
        elif op[0] == "del_nodes":
            change_sets.append(ChangeSet.deletions(nodes=op[1]))
        else:
            change_sets.append(ChangeSet.deletions(edges=op[1]))
    return change_sets


def drive_single(change_sets, config):
    session = SchemaSession(config, retain_union=True)
    for change_set in change_sets:
        session.apply(change_set)
    return session.schema()


def drive_sharded(change_sets, config, n_shards):
    session = ShardedSchemaSession(config, n_shards=n_shards, retain_union=True)
    for change_set in change_sets:
        session.apply(change_set)
    return session.schema()


class TestShardingMatchesSingleSession:
    @given(ops=operation_scripts())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_all_shard_counts_fingerprint_identical(self, ops):
        change_sets = to_change_sets(interpret(ops))
        config = PGHiveConfig(seed=3, infer_keys=True)
        reference = schema_fingerprint(drive_single(change_sets, config))
        for n_shards in SHARD_COUNTS:
            sharded = schema_fingerprint(
                drive_sharded(change_sets, config, n_shards)
            )
            assert sharded == reference, f"n_shards={n_shards} diverged"

    def test_merge_is_shard_order_independent(self):
        """Pinned seed: merged reads agree for every shard count, and the
        merged state itself post-processes identically on repeat reads."""
        ops = [
            (
                "insert",
                [
                    ("v1", "Person", {"person_id": 1, "name": "a"}),
                    ("v2", "Org", {"org_id": 2, "url": "u"}),
                    ("v3", "Post", {"post_id": 3}),
                ],
                [(0, 1), (2, 0)],
            ),
            ("del_nodes", [1]),
            (
                "insert",
                [
                    ("v4", "Person", {"person_id": 4, "name": "b", "age": 9}),
                ],
                [(3, 0)],
            ),
        ]
        change_sets = to_change_sets(interpret(ops))
        config = PGHiveConfig(seed=7, infer_keys=True)
        fingerprints = {
            n: schema_fingerprint(drive_sharded(change_sets, config, n))
            for n in SHARD_COUNTS
        }
        reference = schema_fingerprint(drive_single(change_sets, config))
        assert all(fp == reference for fp in fingerprints.values())


def union_content(graph) -> tuple[dict, dict]:
    """Every node and edge of a union graph, by id, with its content."""
    nodes = {
        node.node_id: (frozenset(node.labels), dict(node.properties))
        for node in graph.nodes()
    }
    edges = {
        edge.edge_id: (
            edge.source_id,
            edge.target_id,
            frozenset(edge.labels),
            dict(edge.properties),
        )
        for edge in graph.edges()
    }
    return nodes, edges


def check_union_oracle(change_sets, config, n_shards, parallel, restore_modes):
    """Coordinator union and merged schema vs one single session, after
    every read and after checkpoint -> restore into each mode."""
    single = SchemaSession(config, retain_union=True)
    with ShardedSchemaSession(
        config, n_shards=n_shards, parallel=parallel, retain_union=True
    ) as sharded:
        for change_set in change_sets:
            single.apply(change_set)
            sharded.apply(change_set)
            assert schema_fingerprint(sharded.schema()) == schema_fingerprint(
                single.schema()
            ), f"n_shards={n_shards}: merged schema diverged"
            assert union_content(sharded._union) == union_content(
                single.union_graph
            ), f"n_shards={n_shards}: coordinator union diverged"
        expected_union = union_content(single.union_graph)
        expected = schema_fingerprint(single.schema())
        with tempfile.TemporaryDirectory() as scratch:
            directory = sharded.checkpoint(scratch)
            for mode in restore_modes:
                with ShardedSchemaSession.restore(
                    directory, parallel=mode
                ) as restored:
                    assert union_content(restored._union) == expected_union
                    assert schema_fingerprint(restored.schema()) == expected


class TestCoordinatorUnionMatchesSingleSession:
    @given(ops=operation_scripts())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_serial_union_after_every_read(self, ops):
        change_sets = to_change_sets(interpret(ops))
        config = PGHiveConfig(seed=3, infer_keys=True)
        for n_shards in UNION_SHARD_COUNTS:
            check_union_oracle(
                change_sets, config, n_shards, False, restore_modes=(False,)
            )

    @given(ops=operation_scripts())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_parallel_union_after_every_read(self, ops):
        change_sets = to_change_sets(interpret(ops))
        config = PGHiveConfig(seed=3, infer_keys=True)
        check_union_oracle(
            change_sets, config, 2, True, restore_modes=(False, True)
        )

    def test_restored_union_keeps_first_versions(self):
        """A node re-inserted with new content keeps its first version in
        the single session's union; a cross-shard edge ships the new
        version as a stub to another shard, and the restored coordinator
        union must still take the owner's copy."""
        partitioner = HashPartitioner(2)
        node_id = next(
            f"a{i}" for i in range(100) if partitioner.shard_of(f"a{i}") == 1
        )
        other = next(
            f"b{i}" for i in range(100) if partitioner.shard_of(f"b{i}") == 0
        )
        edge_id = next(
            f"e{i}" for i in range(100) if partitioner.shard_of(f"e{i}") == 0
        )
        change_sets = [
            ChangeSet.inserts(
                nodes=[
                    Node(node_id, {"Person"}, {"person_id": 1}),
                    Node(other, {"Person"}, {"person_id": 2}),
                ]
            ),
            ChangeSet.inserts(
                nodes=[Node(node_id, {"Person"}, {"person_id": 99})],
                edges=[Edge(edge_id, other, node_id, {"R_Person_Person"})],
            ),
        ]
        check_union_oracle(
            change_sets, PGHiveConfig(seed=3), 2, False, restore_modes=(False,)
        )
