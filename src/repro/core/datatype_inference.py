"""Property data-type inference (section 4.4).

For each (type, property) pair the observed values are reduced to the most
specific compatible :class:`~repro.schema.datatypes.DataType` through the
priority chain (integer, float, boolean, date/time regex, string).  Because
reconciliation generalises (int+float -> float, conflicts -> string), the
assigned type is always compatible with every observed value (section 4.7).

Discovery never scans values for this: :func:`infer_datatypes_streaming`
reads the per-type :class:`~repro.core.accumulators.DatatypeAccumulator`,
which folded every value once at arrival, so each call is O(|schema|)
regardless of how much data the stream has carried.  The full scan
:func:`infer_datatypes` is the read after a deletion (accumulators only
grow) and the tests' oracle.  The Figure 8 experiment
(:func:`repro.bench.experiments.figure8_sampling_errors`) draws
``max(fraction * |values|, min_sample)`` values with :func:`sample_values`
and measures how often a sample disagrees with the full value set.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemaError
from repro.graph.model import PropertyGraph
from repro.schema.datatypes import DataType, infer_type
from repro.schema.model import EdgeType, NodeType, SchemaGraph


def collect_property_values(
    graph: PropertyGraph,
    schema_type: NodeType | EdgeType,
    key: str,
    is_edge: bool,
) -> list:
    """All values of ``key`` across the type's instances present in ``graph``."""
    getter = graph.edge if is_edge else graph.node
    values = []
    # Sorted: instance_ids is a set, and the value order feeds the
    # Figure 8 sampling rng -- iteration must not depend on PYTHONHASHSEED.
    for instance_id in sorted(schema_type.instance_ids):
        if is_edge:
            if not graph.has_edge(instance_id):
                continue
        elif not graph.has_node(instance_id):
            continue
        element = getter(instance_id)
        if key in element.properties:
            values.append(element.properties[key])
    return values


def sample_values(
    values: list,
    fraction: float,
    min_sample: int,
    rng: np.random.Generator,
) -> list:
    """Uniform sample of ``values``: ``max(fraction*n, min_sample)`` items."""
    if not values:
        return []
    size = max(int(len(values) * fraction), min_sample)
    if size >= len(values):
        return list(values)
    indices = rng.choice(len(values), size=size, replace=False)
    return [values[i] for i in indices]


def infer_datatypes(schema: SchemaGraph, graph: PropertyGraph) -> SchemaGraph:
    """Fill ``spec.data_type`` for every property from the full value set."""
    for schema_type in schema.node_types():
        _infer_for_type(schema_type, graph, is_edge=False)
    for schema_type in schema.edge_types():
        _infer_for_type(schema_type, graph, is_edge=True)
    return schema


def infer_datatypes_streaming(schema: SchemaGraph) -> SchemaGraph:
    """Fill ``spec.data_type`` from the streaming accumulators (O(|schema|)).

    Equivalent to the exact (non-sampled) full scan: the accumulator holds
    the lattice join of every value observed for the (type, property)
    pair, and the join is order invariant, so this read matches
    :func:`infer_datatypes` over the cumulative union graph bit for bit.
    """
    for schema_type in (*schema.node_types(), *schema.edge_types()):
        summaries = schema_type.summaries
        if summaries is None:
            raise SchemaError(
                f"type {schema_type.display_name!r} has no streaming "
                "summaries; use the full-scan infer_datatypes with a graph"
            )
        observed = summaries.datatypes.types
        for key, spec in schema_type.properties.items():
            spec.data_type = observed.get(key, DataType.STRING)
    return schema


def _infer_for_type(
    schema_type: NodeType | EdgeType, graph: PropertyGraph, is_edge: bool
) -> None:
    for key, spec in schema_type.properties.items():
        values = collect_property_values(graph, schema_type, key, is_edge)
        spec.data_type = infer_type(values) if values else DataType.STRING
