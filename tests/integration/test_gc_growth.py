"""Warm sessions must not grow the cyclic collector's object graph.

Every full collection, and every checkpoint unpickle, walks each object
the cyclic GC tracks, so per-element containers that the collector can
see make recovery and GC pauses grow with the stream.  The guard counts,
not times: a warm ``SchemaSession`` fed batches 4-10 of a 2,000-node
dataset may add at most ``MAX_TRACKED_PER_ELEMENT`` GC-tracked objects
per ingested element (nodes plus edges, endpoint stubs included).  Per-
type endpoint summaries hold an entry per distinct endpoint pair; their
inner maps hold only ids and counts, which CPython never tracks.
"""

import gc
import pickle
import platform

import pytest

from repro.core.accumulators import EndpointAccumulator
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.session import SchemaSession
from repro.datasets.registry import load_dataset
from repro.graph.batching import split_into_batches

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="GC tracking of dicts is a CPython behaviour",
)

NODES = 2000
BATCHES = 10
WARM_BATCHES = 3
MAX_TRACKED_PER_ELEMENT = 0.05


@pytest.fixture(
    scope="module",
    params=[("LDBC", ClusteringMethod.MINHASH), ("ICIJ", ClusteringMethod.ELSH)],
    ids=["LDBC-minhash", "ICIJ-elsh"],
)
def warm_feed(request):
    """``(session, tracked-object growth, elements ingested)`` past warm-up."""
    dataset, method = request.param
    graph = load_dataset(dataset, nodes=NODES, seed=0).graph
    batches = split_into_batches(graph, BATCHES, seed=0)
    session = SchemaSession(PGHiveConfig(method=method, seed=0))
    for batch in batches[:WARM_BATCHES]:
        session.add_batch(batch)
    gc.collect()
    before = len(gc.get_objects())
    ingested = 0
    for batch in batches[WARM_BATCHES:]:
        session.add_batch(batch)
        ingested += batch.node_count + batch.edge_count
    gc.collect()
    return session, len(gc.get_objects()) - before, ingested


def test_tracked_objects_per_ingested_element(warm_feed):
    _, growth, ingested = warm_feed
    assert growth <= MAX_TRACKED_PER_ELEMENT * ingested, (
        f"{growth} GC-tracked objects added over {ingested} elements"
    )


def test_endpoint_maps_are_untracked(warm_feed):
    session, _, _ = warm_feed
    edge_types = list(session.schema_graph.edge_types())
    assert edge_types
    for edge_type in edge_types:
        endpoints = edge_type.summaries.endpoints
        inner_maps = [endpoints.in_degree, *endpoints.targets_per_source.values()]
        assert inner_maps
        assert not any(gc.is_tracked(inner) for inner in inner_maps)


def test_endpoint_maps_stay_untracked_through_merge_copy_and_pickle():
    accumulator = EndpointAccumulator()
    accumulator.observe_pairs(["s", "s", "v", "v"], ["t", "u", "t", "v"])
    merged = EndpointAccumulator()
    merged.merge_from(accumulator)
    restored = pickle.loads(pickle.dumps(accumulator))
    for endpoints in (accumulator, accumulator.copy(), merged, restored):
        inner_maps = [endpoints.in_degree, *endpoints.targets_per_source.values()]
        assert not any(gc.is_tracked(inner) for inner in inner_maps)
