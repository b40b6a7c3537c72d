"""Indexed Algorithm 2 matching equals the linear scan, cluster by cluster.

``extract_node_types``/``extract_edge_types`` answer the Jaccard rule for
unlabeled clusters through a key index (prefix and size filters), built
per call or, in a session, kept across calls and caught up.  The oracle,
``tests/seed_reference.py``, scans every type in schema order.  Clusters
are drawn from a six-key alphabet so that ties, subsets, duplicates and
empty key sets are common; member ids come from a small pool, so
replayed members (and ``exclude_record`` stubs) leave targets without
the keys their clusters carried.  Every cluster's target type id is
compared, so types founded and grown earlier in the same call are
covered, not only the final schema.

Session streams cover the kept index across the events that invalidate
it: interleaved deletions (types lose keys or vanish), checkpoint ->
restore, and merged reads of a two-shard session.
"""

import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline, type_extraction
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.core.type_extraction import extract_edge_types, extract_node_types
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node
from repro.schema.model import SchemaGraph, schema_fingerprint

from tests.core.test_type_extraction import edge_cluster, node_cluster
from tests.seed_reference import (
    linear_extract_edge_types,
    linear_extract_node_types,
)

KEYS = ["a", "b", "c", "d", "e", "f"]
NODE_MEMBERS = [f"n{index}" for index in range(8)]
EDGE_MEMBERS = [f"e{index}" for index in range(8)]

thetas = st.one_of(
    st.sampled_from([0.0, 0.5, 0.65, 0.9, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)
key_sets = st.frozensets(st.sampled_from(KEYS))

node_clusters = st.builds(
    lambda labels, keys, members: node_cluster(members, labels, keys),
    st.sampled_from([(), (), (), ("A",), ("B",)]),
    key_sets,
    st.lists(st.sampled_from(NODE_MEMBERS), min_size=1, max_size=3, unique=True),
)
endpoint_tokens = st.frozensets(st.sampled_from(["", "A", "B"]), max_size=2)
edge_clusters = st.builds(
    lambda labels, keys, members, sources, targets: edge_cluster(
        members, labels, keys, sources, targets
    ),
    st.sampled_from([(), (), ("R",)]),
    key_sets,
    st.lists(st.sampled_from(EDGE_MEMBERS), min_size=1, max_size=3, unique=True),
    endpoint_tokens,
    endpoint_tokens,
)


def _recording_targets(stack: ExitStack, targets: list, cluster_key) -> None:
    """Append ``(cluster_key(cluster), type id)`` for every absorption and
    founding while ``stack`` is open."""

    def absorbing(original):
        def wrapper(schema_type, cluster, *args):
            targets.append((cluster_key(cluster), schema_type.type_id))
            return original(schema_type, cluster, *args)

        return wrapper

    def founding(original):
        def wrapper(target_schema, cluster, *args):
            schema_type = original(target_schema, cluster, *args)
            targets.append((cluster_key(cluster), schema_type.type_id))
            return schema_type

        return wrapper

    for name, wrap in (
        ("_absorb_node_cluster", absorbing),
        ("_absorb_edge_cluster", absorbing),
        ("_new_node_type", founding),
        ("_new_edge_type", founding),
    ):
        original = getattr(type_extraction, name)
        stack.enter_context(patch.object(type_extraction, name, wrap(original)))


def _run(extract, calls, theta, **options):
    """Apply ``calls`` to a fresh schema, recording each cluster's target."""
    schema = SchemaGraph()
    targets: list[tuple[int, str]] = []
    clusters = [cluster for call in calls for cluster in call]
    order = {id(cluster): position for position, cluster in enumerate(clusters)}
    with ExitStack() as stack:
        _recording_targets(stack, targets, lambda cluster: order[id(cluster)])
        for call in calls:
            extract(schema, call, theta, **options)
    return schema, targets


def _shape(schema):
    return [
        (t.type_id, sorted(t.labels), sorted(t.properties))
        for types in (schema.node_types(), schema.edge_types())
        for t in types
    ]


class TestIndexedEqualsLinear:
    @given(
        calls=st.lists(st.lists(node_clusters, max_size=6), min_size=1, max_size=3),
        theta=thetas,
        exclude=st.frozensets(st.sampled_from(NODE_MEMBERS), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_node_targets(self, calls, theta, exclude):
        indexed, indexed_targets = _run(
            extract_node_types, calls, theta, exclude_record=exclude
        )
        linear, linear_targets = _run(
            linear_extract_node_types, calls, theta, exclude_record=exclude
        )
        assert indexed_targets == linear_targets
        assert _shape(indexed) == _shape(linear)
        assert schema_fingerprint(indexed) == schema_fingerprint(linear)

    @given(
        calls=st.lists(st.lists(edge_clusters, max_size=6), min_size=1, max_size=3),
        theta=thetas,
    )
    @settings(max_examples=100, deadline=None)
    def test_edge_targets(self, calls, theta):
        indexed, indexed_targets = _run(extract_edge_types, calls, theta)
        linear, linear_targets = _run(linear_extract_edge_types, calls, theta)
        assert indexed_targets == linear_targets
        assert _shape(indexed) == _shape(linear)
        assert schema_fingerprint(indexed) == schema_fingerprint(linear)


def linear_extract_types(
    schema,
    node_clusters,
    edge_clusters,
    theta=0.9,
    summary_options=None,
    exclude_record=frozenset(),
    key_indexes=None,
):
    """``extract_types`` through the linear scans (no index at all)."""
    linear_extract_node_types(
        schema, node_clusters, theta, summary_options, exclude_record
    )
    linear_extract_edge_types(schema, edge_clusters, theta, summary_options)
    return schema


@st.composite
def streams(draw):
    """Change-sets over mostly unlabeled nodes and edges drawn from the
    six-key alphabet, with deletions of earlier elements in between."""
    change_sets: list[ChangeSet] = []
    live_nodes: list[str] = []
    live_edges: list[str] = []
    serial = 0
    for _ in range(draw(st.integers(2, 5))):
        nodes = []
        for _ in range(draw(st.integers(1, 8))):
            labels = draw(st.sampled_from([(), (), (), ("A",)]))
            keys = draw(key_sets)
            nodes.append(
                Node(f"n{serial}", frozenset(labels), {k: serial for k in keys})
            )
            serial += 1
        pool = live_nodes + [node.node_id for node in nodes]
        edges = []
        for _ in range(draw(st.integers(0, 6))):
            keys = draw(key_sets)
            edges.append(
                Edge(
                    f"e{serial}",
                    draw(st.sampled_from(pool)),
                    draw(st.sampled_from(pool)),
                    frozenset(draw(st.sampled_from([(), (), ("R",)]))),
                    {k: serial for k in keys},
                )
            )
            serial += 1
        change_sets.append(ChangeSet.inserts(nodes=nodes, edges=edges))
        live_nodes += [node.node_id for node in nodes]
        live_edges += [edge.edge_id for edge in edges]
        if draw(st.booleans()):
            doomed_nodes = draw(
                st.lists(st.sampled_from(live_nodes), max_size=2, unique=True)
            )
            doomed_edges = (
                draw(st.lists(st.sampled_from(live_edges), max_size=2, unique=True))
                if live_edges
                else []
            )
            change_sets.append(
                ChangeSet.deletions(nodes=doomed_nodes, edges=doomed_edges)
            )
            live_nodes = [n for n in live_nodes if n not in doomed_nodes]
            # Node deletions cascade to incident edges; a stale edge id in
            # a later deletion is a no-op, so the pool may keep it.
            live_edges = [e for e in live_edges if e not in doomed_edges]
            if not live_nodes:
                break
    return change_sets


def _stream_targets(extract, feed, make_session, checkpoint_at=None, read=False):
    """Feed ``feed`` through a session whose extraction is ``extract``,
    recording every cluster's target; optionally checkpoint and restore
    before change-set ``checkpoint_at``, or read the schema after each."""
    targets: list[tuple[tuple[str, ...], str]] = []
    with ExitStack() as stack:
        _recording_targets(stack, targets, lambda cluster: tuple(cluster.member_ids))
        stack.enter_context(patch.object(pipeline, "extract_types", extract))
        directory = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        session = stack.enter_context(make_session())
        for position, change_set in enumerate(feed):
            if position == checkpoint_at:
                session.checkpoint(directory / "session.ckpt")
                session = type(session).restore(directory / "session.ckpt")
            session.apply(change_set)
            if read:
                session.schema()
        fingerprint = schema_fingerprint(session.schema())
    return targets, fingerprint


class _Closing:
    """Context manager for sessions without one of their own."""

    def __init__(self, session):
        self.session = session

    def __enter__(self):
        return self.session

    def __exit__(self, *exc):
        return False


methods = st.sampled_from(list(ClusteringMethod))


class TestSessionStreams:
    @given(feed=streams(), method=methods, checkpoint_at=st.none() | st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_session_targets(self, feed, method, checkpoint_at):
        config = PGHiveConfig(method=method, seed=3, retain_union=True)

        def make_session():
            return _Closing(SchemaSession(config))

        indexed = _stream_targets(
            pipeline.extract_types, feed, make_session, checkpoint_at
        )
        linear = _stream_targets(
            linear_extract_types, feed, make_session, checkpoint_at
        )
        assert indexed == linear

    @given(feed=streams(), method=methods)
    @settings(max_examples=25, deadline=None)
    def test_two_shard_merged_reads(self, feed, method):
        config = PGHiveConfig(method=method, seed=3, retain_union=True)

        def make_session():
            return ShardedSchemaSession(config, n_shards=2)

        indexed = _stream_targets(
            pipeline.extract_types, feed, make_session, read=True
        )
        linear = _stream_targets(linear_extract_types, feed, make_session, read=True)
        assert indexed == linear
