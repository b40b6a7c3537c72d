"""Static discovery reads the accumulators; it must equal the full scan.

``PGHive.discover`` is one ``add_batch`` on a default session, so its
post-processing reads the per-type accumulators like every other
insert-only read.  On every registry dataset, under both LSH families
with key inference on, its schema must equal by fingerprint the
full-scan ``PGHive.post_process`` over the same graph of the same raw
schema.  The one behaviour static discovery takes from the streaming key
reader is pinned separately: a type whose first instance carries more
than ``key_pair_tracking_cap`` keys reports no composite keys, and says
so with a ``RuntimeWarning``.
"""

import warnings
from dataclasses import replace

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets.noise import apply_noise
from repro.datasets.registry import dataset_names, load_dataset
from repro.graph.model import Node, PropertyGraph
from repro.schema.model import schema_fingerprint

NODES = 300
LABELS = 0.5
PROPERTY_NOISE = 0.2


def raw_schema(config: PGHiveConfig, graph: PropertyGraph):
    """The schema before steps (e)-(g), from the same pipeline."""
    return PGHive(replace(config, post_processing=False)).discover(graph).schema


@pytest.mark.parametrize("method", ["elsh", "minhash"])
@pytest.mark.parametrize("name", dataset_names())
def test_discover_equals_full_scan(name, method):
    graph = apply_noise(
        load_dataset(name, nodes=NODES, seed=0), PROPERTY_NOISE, LABELS, seed=1
    ).graph
    # A short Word2Vec run keeps the suite fast; training is not under test.
    config = PGHiveConfig(
        method=ClusteringMethod(method),
        seed=0,
        infer_keys=True,
        embedding_epochs=1,
        max_corpus_sentences=1000,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        static = PGHive(config).discover(graph).schema
    oracle = PGHive(config).post_process(raw_schema(config, graph), graph)
    assert schema_fingerprint(static) == schema_fingerprint(oracle)


def test_wide_first_instance_reports_no_composite_keys():
    # Every key repeats a value, so no singleton key exists, but the pair
    # (a, b) is distinct on every instance: a composite key the full scan
    # finds.  With the first instance wider than the pair cap, the
    # accumulators never tracked pairs, and the read says so.
    graph = PropertyGraph("wide")
    for index in range(4):
        graph.add_node(
            Node(f"w{index}", {"Wide"}, {"a": index % 2, "b": index // 2, "c": 0})
        )
    config = PGHiveConfig(seed=0, infer_keys=True, key_pair_tracking_cap=2)
    with pytest.warns(RuntimeWarning, match="composite-key tracking overflowed"):
        static = PGHive(config).discover(graph).schema
    assert static.node_type_by_token("Wide").candidate_keys == []
    oracle = PGHive(config).post_process(raw_schema(config, graph), graph)
    assert oracle.node_type_by_token("Wide").candidate_keys == [("a", "b")]
