"""Indexed Algorithm 2 matching equals the linear scan, cluster by cluster.

``extract_node_types``/``extract_edge_types`` answer the Jaccard rule for
unlabeled clusters through a per-call key index (prefix and size filters).
The oracle, ``tests/seed_reference.py``, scans every type in schema order.
Clusters are drawn from a six-key alphabet so that ties, subsets,
duplicates and empty key sets are common; member ids come from a small
pool, so replayed members (and ``exclude_record`` stubs) leave targets
without the keys their clusters carried.  Every cluster's target type id
is compared, so types founded and grown earlier in the same call are
covered, not only the final schema.
"""

from contextlib import ExitStack
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import type_extraction
from repro.core.type_extraction import extract_edge_types, extract_node_types
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


def _run(extract, calls, theta, **options):
    """Apply ``calls`` to a fresh schema, recording each cluster's target."""
    schema = SchemaGraph()
    targets: list[tuple[int, str]] = []
    clusters = [cluster for call in calls for cluster in call]
    order = {id(cluster): position for position, cluster in enumerate(clusters)}

    def absorbing(original):
        def wrapper(schema_type, cluster, *args):
            targets.append((order[id(cluster)], schema_type.type_id))
            return original(schema_type, cluster, *args)

        return wrapper

    def founding(original):
        def wrapper(target_schema, cluster, *args):
            schema_type = original(target_schema, cluster, *args)
            targets.append((order[id(cluster)], schema_type.type_id))
            return schema_type

        return wrapper

    with ExitStack() as stack:
        for name, wrap in (
            ("_absorb_node_cluster", absorbing),
            ("_absorb_edge_cluster", absorbing),
            ("_new_node_type", founding),
            ("_new_edge_type", founding),
        ):
            original = getattr(type_extraction, name)
            stack.enter_context(patch.object(type_extraction, name, wrap(original)))
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
